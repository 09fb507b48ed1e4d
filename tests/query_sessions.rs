//! Work counts of the query path, pinned per knowledge-base version.
//!
//! Every engine answers through one lazily loaded, memoised session
//! per version of a knowledge base: for each of the paper's eight
//! operators, a loaded and revised base that answers four single
//! queries and a batch of sixteen Tseitin-loads its representation
//! once and builds one solver; repeating the same queries does no new
//! Tseitin work; and a revise drops the session.
//!
//! The first pass also runs the four singles as a batch, which must be
//! answered from the single-query session's memo: singles and batches
//! share one session, whose one stats block counts them all.
//!
//! A BDD-backend version of each model-based operator's `T * P`, both
//! as compiled and as taken up from its stored formula, answers on its
//! diagram instead: no solver, no base load and no Tseitin pass, with
//! every query counted, and clausal queries allocate no BDD node. A
//! further revise drops the diagram.
//!
//! This file holds exactly one test because it measures exact deltas
//! of process-wide counters (solver constructions, base loads, Tseitin
//! clauses).

use revkb::obs::{self, TraceMode};
use revkb::prelude::*;
use revkb::revision::{widtio, Backend, CompactRep, ReviseBuilder, RevisionChain};
use revkb::sat::{self, pseudo_random_formula};

const NUM_VARS: u32 = 6;

fn v(i: u32) -> Formula {
    Formula::var(Var(i))
}

/// `T`, mentioning every letter of `0..NUM_VARS`, so queries over any
/// of them are inside every operator's alphabet.
fn theory() -> Theory {
    Theory::new([
        v(0),
        v(1),
        v(2).or(v(3)),
        v(4).implies(v(5)),
        v(0).implies(v(4)),
    ])
}

fn counter(snapshot: &obs::Snapshot, name: &str) -> u64 {
    snapshot.counter(name).unwrap_or(0)
}

/// Answer `singles` one by one, then `batch` as the server does.
fn ask(engine: &mut dyn Engine, singles: &[Formula], batch: &[Formula]) -> Vec<bool> {
    let mut answers: Vec<bool> = singles
        .iter()
        .map(|q| engine.try_entails(q).expect("in alphabet"))
        .collect();
    answers.extend(engine.try_entails_batch(batch).expect("in alphabet"));
    answers
}

/// Pin the work of one knowledge-base version: singles and a batch,
/// then the same again.
fn pin_version(label: &str, engine: &mut dyn Engine, singles: &[Formula], batch: &[Formula]) {
    assert!(engine.stats().is_none(), "{label}: the session is lazy");

    obs::reset();
    let solvers = sat::constructions();
    for q in singles {
        engine.try_entails(q).expect("in alphabet");
    }
    let after_singles = engine.stats().expect("singles ran");
    assert_eq!(after_singles.queries, singles.len() as u64, "{label}");
    // The singles again as a batch: all hits in the singles' memo.
    engine.try_entails_batch(singles).expect("in alphabet");
    let after_batch = engine.stats().expect("a batch ran");
    assert_eq!(
        after_batch.cache_hits,
        after_singles.cache_hits + singles.len() as u64,
        "{label}: the batch ran on the single-query session"
    );
    engine.try_entails_batch(batch).expect("in alphabet");
    let first = obs::drain();
    assert_eq!(
        sat::constructions() - solvers,
        1,
        "{label}: one solver per version"
    );
    assert_eq!(
        counter(&first, "sat.session.base_loads"),
        1,
        "{label}: one base load per version"
    );
    let stats = engine.stats().expect("a batch ran");
    assert_eq!((stats.base_loads, stats.solver_constructions), (1, 1));
    assert_eq!(stats.queries, (2 * singles.len() + batch.len()) as u64);

    // The same queries again: all memo hits.
    let solvers = sat::constructions();
    let answers = ask(engine, singles, batch);
    let again = ask(engine, singles, batch);
    let repeat = obs::drain();
    assert_eq!(answers, again, "{label}");
    assert_eq!(sat::constructions() - solvers, 0, "{label}: no new solver");
    for name in [
        "sat.session.base_loads",
        "sat.session.cache_misses",
        "logic.tseitin.runs",
        "logic.tseitin.clauses",
    ] {
        assert_eq!(counter(&repeat, name), 0, "{label}: {name} on repeats");
    }
    let after_repeats = engine.stats().expect("queries ran");
    assert_eq!(after_repeats.cache_misses, stats.cache_misses, "{label}");
    assert_eq!(
        after_repeats.queries,
        stats.queries + 2 * (singles.len() + batch.len()) as u64,
        "{label}"
    );
}

/// Pin the work of a BDD-backend version, which answers on its
/// diagram: the same queries as [`pin_version`], twice over, build no
/// solver, load no base and run no Tseitin pass; clausal queries on the
/// built diagram allocate no node. Returns the answers.
fn pin_diagram(
    label: &str,
    engine: &mut dyn Engine,
    singles: &[Formula],
    batch: &[Formula],
) -> Vec<bool> {
    assert!(engine.stats().is_none(), "{label}: no query yet");
    obs::reset();
    let solvers = sat::constructions();
    let answers = ask(engine, singles, batch);
    let again = ask(engine, singles, batch);
    let work = obs::drain();
    assert_eq!(answers, again, "{label}");
    assert_eq!(sat::constructions() - solvers, 0, "{label}: no solver");
    assert!(
        counter(&work, "bdd.unique.nodes_allocated") > 0,
        "{label}: the other queries build their negation in the manager"
    );
    for name in [
        "sat.session.base_loads",
        "sat.session.queries",
        "logic.tseitin.runs",
    ] {
        assert_eq!(counter(&work, name), 0, "{label}: {name}");
    }
    let stats = engine.stats().expect("queries ran");
    let asked = 2 * (singles.len() + batch.len()) as u64;
    assert_eq!(
        (stats.queries, stats.cache_misses),
        (asked, asked),
        "{label}"
    );
    assert_eq!(
        (stats.base_loads, stats.solver_constructions),
        (0, 0),
        "{label}"
    );

    let clausal = [
        v(0),
        v(1).not().or(v(5)),
        v(2).and(v(4).not()),
        v(3).or(v(5)).and(v(0)),
    ];
    engine.try_entails_batch(&clausal).expect("in alphabet");
    let walks = obs::drain();
    assert_eq!(
        counter(&walks, "bdd.unique.nodes_allocated"),
        0,
        "{label}: the walk"
    );
    answers
}

/// After a revise, the first query loads the new version afresh.
fn pin_fresh_session(label: &str, engine: &mut dyn Engine, q: &Formula) {
    assert!(
        engine.stats().is_none(),
        "{label}: revise drops the session"
    );
    obs::reset();
    engine.try_entails(q).expect("in alphabet");
    let snapshot = obs::drain();
    assert_eq!(counter(&snapshot, "sat.session.base_loads"), 1, "{label}");
    assert_eq!(engine.stats().map(|s| s.base_loads), Some(1), "{label}");
}

#[test]
fn one_load_and_one_solver_per_kb_version() {
    let prev = obs::mode();
    obs::set_mode(TraceMode::Summary);

    let theory = theory();
    let t = theory.conjunction();
    let p = v(1).not().or(v(4).not());
    let p2 = v(0).not();
    let mut seed = 0x5E55_10A5;
    let singles: Vec<Formula> = (0..4)
        .map(|_| pseudo_random_formula(&mut seed, 3, NUM_VARS))
        .collect();
    let batch: Vec<Formula> = (0..16)
        .map(|_| pseudo_random_formula(&mut seed, 3, NUM_VARS))
        .collect();

    // The loaded, unrevised base: the engine a `load` stores.
    let mut loaded = CompactRep::logical(t.clone(), (0..NUM_VARS).map(Var).collect());
    pin_version("load", &mut loaded, &singles, &batch);

    for op in ModelBasedOp::ALL {
        let label = op.name();
        let mut chain = RevisionChain::compile(op, &t, std::slice::from_ref(&p))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        pin_version(label, &mut chain, &singles, &batch);
        let expected = ask(&mut chain, &singles, &batch);
        chain.extend(&p2).unwrap_or_else(|e| panic!("{label}: {e}"));
        pin_fresh_session(label, &mut chain, &v(0));

        let bdd = ReviseBuilder::new(op).backend(Backend::Bdd);
        let mut compiled = bdd
            .compile(&t, &p)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let rep = compiled.representation();
        let stored = CompactRep::query(rep.formula.clone(), rep.base.clone());
        let mut taken_up = RevisionChain::with_representation(
            op,
            Backend::Bdd,
            t.clone(),
            vec![p.clone()],
            stored,
        );
        for (path, kb) in [("compiled", &mut compiled), ("taken up", &mut taken_up)] {
            let label = format!("{label} bdd {path}");
            assert_eq!(
                pin_diagram(&label, kb, &singles, &batch),
                expected,
                "{label}"
            );
            kb.revise(p2.clone(), Backend::Bdd);
            kb.apply().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(kb.stats().is_none(), "{label}: revise drops the diagram");
            let answer = kb.try_entails(&v(0)).expect("in alphabet");
            assert_eq!(
                answer,
                chain.try_entails(&v(0)).expect("in alphabet"),
                "{label}"
            );
            let stats = kb.stats().expect("a query ran");
            assert_eq!((stats.queries, stats.base_loads), (1, 0), "{label}");
        }
    }

    let mut gfuv = GfuvEngine::compile(theory.clone(), p.clone(), 1 << 10).expect("few worlds");
    pin_version("GFUV", &mut gfuv, &singles, &batch);
    // A GFUV base cannot be revised again; reloading and revising it
    // builds a new version with its own session.
    let mut gfuv = GfuvEngine::compile(theory.clone(), p2.clone(), 1 << 10).expect("few worlds");
    pin_fresh_session("GFUV reloaded", &mut gfuv, &v(0));

    let mut widtio_engine = WidtioEngine::compile(&theory, &p);
    pin_version("WIDTIO", &mut widtio_engine, &singles, &batch);
    // Iterated WIDTIO revises the kept sub-theory of the last step.
    let mut widtio_engine = WidtioEngine::compile(&widtio(&theory, &p), &p2);
    pin_fresh_session("WIDTIO revised again", &mut widtio_engine, &v(0));

    obs::set_mode(prev);
}
