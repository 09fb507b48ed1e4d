//! Differential hardening of the batch query pipeline: for generated
//! `(T, P, Q)` triples across all eight operators, the three
//! independent answer paths must agree bit-for-bit —
//!
//! 1. a batch on one [`QuerySession`] (memo, learned clauses and
//!    countermodels shared across the batch),
//! 2. one-shot `revkb::sat::entails` (a fresh solver per query),
//! 3. a semantic oracle that enumerates models.
//!
//! The six model-based operators are compiled through
//! [`revkb::revision::compact`] and checked against [`revise_on`]; the
//! two formula-based operators (GFUV, WIDTIO) go through their explicit
//! representations and [`ModelSet`] enumeration. The generators are
//! deterministic (`pseudo_random_formula` with fixed seeds), so a
//! failure here reproduces on every run.

use revkb::logic::{Alphabet, Formula, Var};
use revkb::revision::{
    compact, revise_on, revision_alphabet, GfuvKb, ModelBasedOp, ModelSet, Theory, WidtioKb,
};
use revkb::sat::{pseudo_random_formula, QuerySession};

/// Variables both the theories and the queries range over.
const NUM_VARS: u32 = 5;

/// Queries per compiled base — every query is one `(T, P, Q)` triple.
const QUERIES_PER_PAIR: usize = 8;

/// `(T, P)` pairs per operator.
const PAIRS_PER_OP: usize = 6;

/// `⋀ᵢ (vᵢ ∨ ¬vᵢ)`: conjoining this to `T` pins the revision
/// alphabet to all of `0..NUM_VARS` without changing `T`'s models, so
/// queries over any of those letters are legal on every answer path.
fn alphabet_anchor() -> Formula {
    Formula::and_all((0..NUM_VARS).map(|i| {
        let v = Formula::var(Var(i));
        v.clone().or(v.not())
    }))
}

/// Answer `queries` in order on a fresh session over `base`.
fn session_batch(base: &Formula, queries: &[Formula]) -> Vec<bool> {
    let mut session = QuerySession::with_query_alphabet(base, NUM_VARS);
    queries.iter().map(|q| session.entails(q)).collect()
}

/// Check one compiled base along all three paths; `oracle` is the
/// semantic ground truth for `T * P ⊨ Q`. Returns the number of
/// triples checked.
fn check_all_paths(
    label: &str,
    compiled: &Formula,
    queries: &[Formula],
    oracle: impl Fn(&Formula) -> bool,
) -> usize {
    let batch = session_batch(compiled, queries);
    for (i, q) in queries.iter().enumerate() {
        let one_shot = revkb::sat::entails(compiled, q);
        let semantic = oracle(q);
        assert_eq!(
            batch[i], one_shot,
            "{label}, query #{i}: session batch != one-shot solver for {q:?}"
        );
        assert_eq!(
            one_shot, semantic,
            "{label}, query #{i}: solver != model-enumeration oracle for {q:?}"
        );
    }
    queries.len()
}

/// The six model-based operators: `compact` vs the
/// `revise_on` model-set oracle, 6 × 6 pairs × 8 queries = 288
/// triples.
#[test]
fn model_based_operators_agree_on_all_paths() {
    let anchor = alphabet_anchor();
    let mut triples = 0;
    for (op_index, op) in ModelBasedOp::ALL.into_iter().enumerate() {
        let mut seed = 0xD1FF_5EED ^ ((op_index as u64) << 32);
        for pair in 0..PAIRS_PER_OP {
            let t = pseudo_random_formula(&mut seed, 3, NUM_VARS).and(anchor.clone());
            let p = pseudo_random_formula(&mut seed, 3, NUM_VARS);
            let kb = compact(op, &t, &p)
                .unwrap_or_else(|e| panic!("{} pair {pair}: compile failed: {e:?}", op.name()));
            let alpha = revision_alphabet(&t, &p);
            let oracle = revise_on(op, &alpha, &t, &p);
            let queries: Vec<Formula> = (0..QUERIES_PER_PAIR)
                .map(|_| pseudo_random_formula(&mut seed, 3, NUM_VARS))
                .collect();
            let label = format!("{} pair {pair}", op.name());
            triples += check_all_paths(&label, &kb.formula, &queries, |q| oracle.entails(q));
            // The KB's own (memoised, single-session) path must agree
            // with everything above too.
            for q in &queries {
                assert_eq!(
                    kb.entails(q),
                    oracle.entails(q),
                    "{label}: CompactRep::entails disagrees on {q:?}"
                );
            }
        }
    }
    assert!(triples >= 200, "only {triples} model-based triples checked");
}

/// GFUV: the explicit representation `(⋁ ⋀T') ∧ P` answered through
/// a session vs per-world entailment vs model enumeration.
#[test]
fn gfuv_agrees_on_all_paths() {
    let mut seed = 0x6F07_6F07;
    let alpha = Alphabet::new((0..NUM_VARS).map(Var).collect());
    let mut triples = 0;
    for pair in 0..PAIRS_PER_OP {
        let theory = Theory::new((0..3).map(|_| pseudo_random_formula(&mut seed, 2, NUM_VARS)));
        let p = pseudo_random_formula(&mut seed, 2, NUM_VARS);
        let kb = GfuvKb::compile(theory.clone(), p.clone(), 1 << 12)
            .unwrap_or_else(|e| panic!("gfuv pair {pair}: {e:?}"));
        let explicit = kb.explicit_representation();
        let oracle = ModelSet::of_formula(alpha.clone(), &explicit);
        let queries: Vec<Formula> = (0..QUERIES_PER_PAIR)
            .map(|_| pseudo_random_formula(&mut seed, 2, NUM_VARS))
            .collect();
        let label = format!("gfuv pair {pair} ({} worlds)", kb.world_count());
        triples += check_all_paths(&label, &explicit, &queries, |q| oracle.entails(q));
        // Per-world entailment (the compiled KB's own query path) is a
        // fourth independent oracle.
        for q in &queries {
            assert_eq!(
                kb.entails(q),
                oracle.entails(q),
                "{label}: GfuvKb::entails disagrees on {q:?}"
            );
        }
    }
    assert!(triples >= PAIRS_PER_OP * QUERIES_PER_PAIR);
}

/// WIDTIO: the kept sub-theory's conjunction answered through the
/// session vs the compiled KB vs model enumeration.
#[test]
fn widtio_agrees_on_all_paths() {
    let mut seed = 0x71D7_1071;
    let alpha = Alphabet::new((0..NUM_VARS).map(Var).collect());
    let mut triples = 0;
    for pair in 0..PAIRS_PER_OP {
        let theory = Theory::new((0..3).map(|_| pseudo_random_formula(&mut seed, 2, NUM_VARS)));
        let p = pseudo_random_formula(&mut seed, 2, NUM_VARS);
        let kb = WidtioKb::compile(&theory, &p);
        let compiled = kb.theory().conjunction();
        let oracle = ModelSet::of_formula(alpha.clone(), &compiled);
        let queries: Vec<Formula> = (0..QUERIES_PER_PAIR)
            .map(|_| pseudo_random_formula(&mut seed, 2, NUM_VARS))
            .collect();
        let label = format!("widtio pair {pair}");
        triples += check_all_paths(&label, &compiled, &queries, |q| oracle.entails(q));
        for q in &queries {
            assert_eq!(
                kb.entails(q),
                oracle.entails(q),
                "{label}: WidtioKb::entails disagrees on {q:?}"
            );
        }
    }
    assert!(triples >= PAIRS_PER_OP * QUERIES_PER_PAIR);
}

/// Determinism: two sessions built independently from the same base,
/// a repeated batch on one session (answered from its memo), and the
/// same queries asked one by one on a third session return identical
/// answer vectors on a 60-query batch.
#[test]
fn batches_are_deterministic() {
    let mut seed = 0xDE7E_2417;
    let t = pseudo_random_formula(&mut seed, 4, NUM_VARS).and(alphabet_anchor());
    let p = pseudo_random_formula(&mut seed, 3, NUM_VARS);
    let kb = compact(ModelBasedOp::Dalal, &t, &p).expect("dalal always compiles");
    let base = &kb.formula;
    let queries: Vec<Formula> = (0..60)
        .map(|_| pseudo_random_formula(&mut seed, 3, NUM_VARS))
        .collect();

    let mut session = QuerySession::with_query_alphabet(base, NUM_VARS);
    let first: Vec<bool> = queries.iter().map(|q| session.entails(q)).collect();
    let repeat: Vec<bool> = queries.iter().map(|q| session.entails(q)).collect();
    let second = session_batch(base, &queries);
    let singles: Vec<bool> = queries.iter().map(|q| kb.entails(q)).collect();

    assert_eq!(first, second, "independently built sessions must agree");
    assert_eq!(
        first, repeat,
        "re-running a batch on one session must agree"
    );
    assert_eq!(first, singles, "the batch must equal single queries");
    assert!(
        first.iter().any(|&b| b) && first.iter().any(|&b| !b),
        "the batch must mix YES and NO answers"
    );

    let stats = session.stats();
    assert_eq!((stats.queries, stats.base_loads), (120, 1));
    assert_eq!(stats.cache_hits + stats.cache_misses, 120);
}
