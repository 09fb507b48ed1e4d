//! End-to-end acceptance of the incremental query pipeline: one
//! representation compiled by [`revkb::revision::compact`] answers a
//! large query batch through a single solver session, with every
//! answer matching both the one-shot SAT path and the semantic oracle.
//!
//! This file holds exactly one test because it measures exact deltas
//! of the process-wide solver-construction counter.

use revkb::logic::{Formula, Var};
use revkb::revision::{compact, revise_on, ModelBasedOp};
use revkb::sat;

fn v(i: u32) -> Formula {
    Formula::var(Var(i))
}

#[test]
fn fifty_queries_one_solver() {
    let t = v(0).and(v(1)).and(v(2)).and(v(3));
    let p = v(0).not().or(v(1).not());
    let kb = compact(ModelBasedOp::Dalal, &t, &p).unwrap();
    let alpha = revkb::revision::revision_alphabet_seq(&t, std::slice::from_ref(&p));
    let oracle = revise_on(ModelBasedOp::Dalal, &alpha, &t, &p);

    let mut seed = 0xACCE97u64;
    let queries: Vec<Formula> = (0..50)
        .map(|_| sat::pseudo_random_formula(&mut seed, 3, 4))
        .collect();

    // Incremental path: the whole batch through the compiled KB.
    let before = sat::constructions();
    let incremental: Vec<bool> = queries.iter().map(|q| kb.entails(q)).collect();
    let incremental_solvers = sat::constructions() - before;

    // One-shot path: a fresh Tseitin transform + solver per query.
    let rep = &kb;
    let before = sat::constructions();
    let one_shot: Vec<bool> = queries
        .iter()
        .map(|q| sat::entails(&rep.formula, q))
        .collect();
    let one_shot_solvers = sat::constructions() - before;

    // Semantic ground truth, computed by model enumeration.
    let semantic: Vec<bool> = queries.iter().map(|q| oracle.entails(q)).collect();

    assert_eq!(incremental, one_shot, "incremental vs one-shot SAT");
    assert_eq!(incremental, semantic, "incremental vs semantic oracle");
    assert_eq!(
        incremental_solvers, 1,
        "the session must build exactly one solver for the batch"
    );
    assert_eq!(
        one_shot_solvers, 50,
        "the one-shot path builds one solver per query"
    );

    let stats = kb.stats().expect("session ran");
    assert_eq!(stats.base_loads, 1, "T' is Tseitin-loaded exactly once");
    assert_eq!(stats.solver_constructions, 1);
    assert_eq!(stats.queries, 50);
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        50,
        "every query is either a hit or a miss"
    );
    assert!(
        stats.cache_hits > 0,
        "a 50-query batch over 4 letters at depth 3 must repeat some queries"
    );
}
