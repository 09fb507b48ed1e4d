//! Differential test of the formula-based engines' query sessions.
//!
//! [`GfuvEngine`] answers through one incremental session over the
//! materialised `⋁W`, and [`WidtioEngine`] through one over the kept
//! sub-theory. Both must answer exactly like the one-shot references
//! [`GfuvKb::entails`] (one fresh solver per world and query) and
//! [`WidtioKb::entails`], on single queries and batches, repeated, and
//! must reject a query outside `V(T) ∪ V(P)` — alone or inside a batch
//! — before doing any work. The cases include an unsatisfiable `P` and
//! letters that WIDTIO throws out.

use revkb::prelude::*;
use revkb::revision::{GfuvKb, WidtioKb};
use revkb::sat::pseudo_random_formula;
use std::collections::BTreeSet;

/// Letters the generated theories and queries range over.
const NUM_VARS: u32 = 6;

/// Generated `(T, P)` pairs, besides the hand-written cases.
const PAIRS: usize = 24;

/// Queries per case, before the alphabet split.
const QUERIES: usize = 16;

fn v(i: u32) -> Formula {
    Formula::var(Var(i))
}

/// A letter no case mentions.
fn stranger() -> Formula {
    v(NUM_VARS + 3)
}

fn cases() -> Vec<(String, Theory, Formula)> {
    let mut cases = vec![
        (
            "unsatisfiable P".to_string(),
            Theory::new([v(0), v(0).implies(v(1)), v(2)]),
            v(3).and(v(3).not()),
        ),
        (
            // Every world drops one of the three formulas and no formula
            // is in all of them, so WIDTIO keeps only P: x4 and x5 are
            // thrown out, yet stay queryable.
            "WIDTIO throws out x4, x5".to_string(),
            Theory::new([v(4), v(4).implies(v(0)), v(5).and(v(1))]),
            v(0).not().or(v(1).not()),
        ),
    ];
    let mut seed = 0xF0B5_5E55;
    for pair in 0..PAIRS {
        let theory = Theory::new((0..4).map(|_| pseudo_random_formula(&mut seed, 2, NUM_VARS)));
        let p = pseudo_random_formula(&mut seed, 2, NUM_VARS);
        cases.push((format!("pair {pair}"), theory, p));
    }
    cases
}

fn alphabet(theory: &Theory, p: &Formula) -> BTreeSet<Var> {
    let mut vars = p.vars();
    for f in &theory.formulas {
        f.collect_vars(&mut vars);
    }
    vars
}

/// Answer `queries` every way the engine offers and compare with
/// `reference` on the in-alphabet ones; out-of-alphabet ones must be
/// refused.
fn check_engine(
    label: &str,
    make: &dyn Fn() -> Box<dyn Engine>,
    queries: &[Formula],
    base: &BTreeSet<Var>,
    reference: &dyn Fn(&Formula) -> bool,
) {
    let answerable: Vec<Formula> = queries
        .iter()
        .filter(|q| q.vars().is_subset(base))
        .cloned()
        .collect();
    let expected: Vec<bool> = answerable.iter().map(reference).collect();
    let mut poisoned = answerable.clone();
    poisoned.insert(poisoned.len() / 2, stranger());

    // Singles first, twice (the second round is memo hits), then a
    // batch on the warm session, twice.
    let mut engine = make();
    for round in 0..2 {
        for q in queries {
            match engine.try_entails(q) {
                Ok(answer) => {
                    assert!(q.vars().is_subset(base), "{label}: answered {q:?}");
                    assert_eq!(answer, reference(q), "{label} round {round}: {q:?}");
                }
                Err(e) => {
                    assert_eq!(e.code(), "out_of_alphabet", "{label}");
                    assert!(!q.vars().is_subset(base), "{label}: refused {q:?}");
                }
            }
        }
    }
    for _ in 0..2 {
        assert_eq!(
            engine.try_entails_batch(&answerable).unwrap(),
            expected,
            "{label}"
        );
    }

    // A fresh engine whose first work is a batch, repeated, then
    // singles on the session the batch loaded.
    let mut engine = make();
    let rejected = engine.try_entails_batch(&poisoned).unwrap_err();
    assert_eq!(rejected.code(), "out_of_alphabet", "{label}");
    assert!(
        engine.stats().is_none(),
        "{label}: rejected before any work"
    );
    let doubled: Vec<Formula> = answerable.iter().chain(&answerable).cloned().collect();
    let doubled_expected: Vec<bool> = expected.iter().chain(&expected).copied().collect();
    for _ in 0..2 {
        assert_eq!(
            engine.try_entails_batch(&doubled).unwrap(),
            doubled_expected,
            "{label}: batch"
        );
    }
    for (q, &answer) in answerable.iter().zip(&expected) {
        assert_eq!(engine.try_entails(q).unwrap(), answer, "{label}: {q:?}");
    }
    let before = engine.stats();
    for batch in [&poisoned, &vec![stranger()]] {
        assert_eq!(
            engine.try_entails_batch(batch).unwrap_err().code(),
            "out_of_alphabet"
        );
    }
    assert_eq!(engine.stats(), before, "{label}: rejected before any work");
}

#[test]
fn formula_based_sessions_match_one_shot_references() {
    let mut seed = 0x0DD5_E55E;
    let mut multi_world = 0;
    let mut thrown_out = 0;
    for (label, theory, p) in cases() {
        let base = alphabet(&theory, &p);
        let queries: Vec<Formula> = (0..QUERIES)
            .map(|_| pseudo_random_formula(&mut seed, 2, NUM_VARS))
            .chain(base.iter().map(|&x| Formula::var(x)))
            .collect();

        let gfuv = GfuvKb::compile(theory.clone(), p.clone(), 1 << 12).expect("within budget");
        if gfuv.world_count() > 1 {
            multi_world += 1;
        }
        let make_gfuv = || -> Box<dyn Engine> {
            Box::new(GfuvEngine::compile(theory.clone(), p.clone(), 1 << 12).unwrap())
        };
        assert_eq!(
            make_gfuv().compiled_size(),
            Some(gfuv.explicit_representation().size()),
            "GFUV {label}: size"
        );
        check_engine(
            &format!("GFUV {label}"),
            &make_gfuv,
            &queries,
            &base,
            &|q| gfuv.entails(q),
        );

        let widtio = WidtioKb::compile(&theory, &p);
        if !alphabet(widtio.theory(), &p).is_superset(&base) {
            thrown_out += 1;
        }
        let make_widtio = || -> Box<dyn Engine> { Box::new(WidtioEngine::compile(&theory, &p)) };
        assert_eq!(
            make_widtio().compiled_size(),
            Some(widtio.size()),
            "WIDTIO {label}: size"
        );
        check_engine(
            &format!("WIDTIO {label}"),
            &make_widtio,
            &queries,
            &base,
            &|q| widtio.entails(q),
        );
    }
    assert!(
        multi_world >= 5,
        "only {multi_world} cases with several worlds"
    );
    assert!(
        thrown_out >= 2,
        "only {thrown_out} cases where WIDTIO drops letters"
    );
}
