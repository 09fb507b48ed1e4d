//! Property test of the countermodel route of [`QuerySession`]: a
//! query that a stored countermodel falsifies is answered NO without a
//! solve, and every answer must still equal a fresh one-shot
//! [`revkb_sat::entails`] check.
//!
//! Bases are loaded both from a formula
//! ([`QuerySession::with_query_alphabet`]) and from clauses
//! ([`QuerySession::from_clauses`]); some are unsatisfiable. Each case
//! asks a few single queries, then a batch on the same session, which
//! the singles' countermodels can already answer. Cases are seeded by
//! `REVKB_PROP_SEED`.

use proptest::prelude::*;
use proptest::test_runner::{run_cases, Config};
use revkb_logic::{tseitin, CountingSupply, Formula, SharedCnf, Var};
use revkb_sat::QuerySession;

const NUM_VARS: u32 = 6;

fn formula_strategy(depth: u32) -> BoxedStrategy<Formula> {
    let leaf = prop_oneof![
        6 => (0..NUM_VARS, any::<bool>()).prop_map(|(v, pos)| Formula::lit(Var(v), pos)),
        1 => Just(Formula::True),
        1 => Just(Formula::False),
    ]
    .boxed();
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Formula::and_all),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Formula::or_all),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.iff(b)),
            inner.prop_map(|a| a.not()),
        ]
        .boxed()
    })
    .boxed()
}

/// A base, one in five of them unsatisfiable.
fn base_strategy() -> BoxedStrategy<Formula> {
    prop_oneof![
        4 => formula_strategy(3),
        1 => formula_strategy(3).prop_map(|f| f.clone().and(f.not())),
    ]
    .boxed()
}

/// The session over `base` through one of the two load routes.
fn load(base: &Formula, from_clauses: bool) -> QuerySession {
    if from_clauses {
        let cnf = tseitin(base, &mut CountingSupply::new(NUM_VARS));
        QuerySession::from_clauses(&SharedCnf::from(cnf), NUM_VARS)
    } else {
        QuerySession::with_query_alphabet(base, NUM_VARS)
    }
}

#[test]
fn countermodel_answers_match_one_shot() {
    let config = Config {
        cases: 96,
        ..Config::default()
    };
    let case = (
        base_strategy(),
        any::<bool>(),
        prop::collection::vec(formula_strategy(2), 2..6),
        prop::collection::vec(formula_strategy(2), 8..14),
    );
    let mut hits = 0;
    let mut no_answers = 0;
    run_cases("countermodel_answers_match_one_shot", &config, |rng| {
        let (base, from_clauses, singles, batch) = case.generate(rng);
        let mut session = load(&base, from_clauses);
        for q in &singles {
            let expected = revkb_sat::entails(&base, q);
            prop_assert_eq!(session.entails(q), expected, "single {:?} on {:?}", q, base);
        }
        let answers: Vec<bool> = batch.iter().map(|q| session.entails(q)).collect();
        for (q, &answer) in batch.iter().zip(&answers) {
            let expected = revkb_sat::entails(&base, q);
            prop_assert_eq!(answer, expected, "batch {:?} on {:?}", q, base);
        }
        hits += session.stats().countermodel_hits;
        no_answers += singles
            .iter()
            .chain(&batch)
            .filter(|q| !revkb_sat::entails(&base, q))
            .count();
        Ok(())
    });
    assert!(no_answers > 0, "the queries must include NO answers");
    assert!(hits > 0, "no query was refuted by a countermodel");
}
