//! Differential hardening of the batch/parallel query pipeline: for
//! generated `(T, P, Q)` triples across all eight operators, the four
//! independent answer paths must agree bit-for-bit —
//!
//! 1. `SessionPool::par_entails_batch` (forced parallel, 4 workers),
//! 2. `SessionPool::entails_batch` (sequential, single session),
//! 3. one-shot `revkb::sat::entails` (a fresh solver per query),
//! 4. a semantic oracle that enumerates models.
//!
//! The six model-based operators are compiled through
//! [`RevisedKb::compile`] and checked against [`revise_on`]; the two
//! formula-based operators (GFUV, WIDTIO) go through their explicit
//! representations and [`ModelSet`] enumeration. The generators are
//! deterministic (`pseudo_random_formula` with fixed seeds), so a
//! failure here reproduces on every run.

use revkb::logic::{Alphabet, Formula, Var};
use revkb::revision::{
    revise_on, revision_alphabet, GfuvKb, ModelBasedOp, ModelSet, RevisedKb, Theory, WidtioKb,
};
use revkb::sat::{pseudo_random_formula, PoolConfig, QuerySession, SessionPool};

/// Variables both the theories and the queries range over.
const NUM_VARS: u32 = 5;

/// Queries per compiled base — every query is one `(T, P, Q)` triple.
const QUERIES_PER_PAIR: usize = 8;

/// `(T, P)` pairs per operator.
const PAIRS_PER_OP: usize = 6;

/// A pool that shards even tiny batches across 4 workers, regardless
/// of `REVKB_THREADS` and of the machine's core count.
fn forced_parallel() -> PoolConfig {
    PoolConfig {
        threads: 4,
        sequential_threshold: 0,
    }
}

/// `⋀ᵢ (vᵢ ∨ ¬vᵢ)`: conjoining this to `T` pins the revision
/// alphabet to all of `0..NUM_VARS` without changing `T`'s models, so
/// queries over any of those letters are legal on every answer path.
fn alphabet_anchor() -> Formula {
    Formula::and_all((0..NUM_VARS).map(|i| {
        let v = Formula::var(Var(i));
        v.clone().or(v.not())
    }))
}

/// Check one compiled base along all four paths; `oracle` is the
/// semantic ground truth for `T * P ⊨ Q`. Returns the number of
/// triples checked.
fn check_all_paths(
    label: &str,
    compiled: &Formula,
    queries: &[Formula],
    oracle: impl Fn(&Formula) -> bool,
) -> usize {
    let mut pool = SessionPool::with_session(
        QuerySession::with_query_alphabet(compiled, NUM_VARS),
        forced_parallel(),
    );
    assert_eq!(
        pool.threads(),
        4,
        "{label}: pool must be forced to 4 workers"
    );
    let sequential = pool.entails_batch(queries);
    let parallel = pool.par_entails_batch(queries);
    for (i, q) in queries.iter().enumerate() {
        let one_shot = revkb::sat::entails(compiled, q);
        let semantic = oracle(q);
        assert_eq!(
            parallel[i], sequential[i],
            "{label}, query #{i}: parallel != sequential for {q:?}"
        );
        assert_eq!(
            sequential[i], one_shot,
            "{label}, query #{i}: pooled session != one-shot solver for {q:?}"
        );
        assert_eq!(
            one_shot, semantic,
            "{label}, query #{i}: solver != model-enumeration oracle for {q:?}"
        );
    }
    queries.len()
}

/// The six model-based operators: `RevisedKb::compile` vs the
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
            let kb = RevisedKb::compile(op, &t, &p)
                .unwrap_or_else(|e| panic!("{} pair {pair}: compile failed: {e:?}", op.name()));
            let alpha = revision_alphabet(&t, &p);
            let oracle = revise_on(op, &alpha, &t, &p);
            let queries: Vec<Formula> = (0..QUERIES_PER_PAIR)
                .map(|_| pseudo_random_formula(&mut seed, 3, NUM_VARS))
                .collect();
            let label = format!("{} pair {pair}", op.name());
            triples += check_all_paths(&label, &kb.representation().formula, &queries, |q| {
                oracle.entails(q)
            });
            // The KB's own (memoised, single-session) path must agree
            // with everything above too.
            for q in &queries {
                assert_eq!(
                    kb.entails(q),
                    oracle.entails(q),
                    "{label}: RevisedKb::entails disagrees on {q:?}"
                );
            }
        }
    }
    assert!(triples >= 200, "only {triples} model-based triples checked");
}

/// GFUV: the explicit representation `(⋁ ⋀T') ∧ P` answered through
/// the pool vs per-world entailment vs model enumeration.
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
/// pool vs the compiled KB vs model enumeration.
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

/// Determinism: two pools built independently from the same base, and
/// repeated batches on the same pool, return identical answer vectors
/// on a 60-query batch (the acceptance bar is ≥ 50), all equal to the
/// sequential pass.
#[test]
fn parallel_batches_are_deterministic() {
    let mut seed = 0xDE7E_2417;
    let t = pseudo_random_formula(&mut seed, 4, NUM_VARS).and(alphabet_anchor());
    let p = pseudo_random_formula(&mut seed, 3, NUM_VARS);
    let kb = RevisedKb::compile(ModelBasedOp::Dalal, &t, &p).expect("dalal always compiles");
    let base = &kb.representation().formula;
    let queries: Vec<Formula> = (0..60)
        .map(|_| pseudo_random_formula(&mut seed, 3, NUM_VARS))
        .collect();

    let mut pool_a = SessionPool::with_session(
        QuerySession::with_query_alphabet(base, NUM_VARS),
        forced_parallel(),
    );
    let mut pool_b = SessionPool::with_session(
        QuerySession::with_query_alphabet(base, NUM_VARS),
        forced_parallel(),
    );
    let first = pool_a.par_entails_batch(&queries);
    let second = pool_b.par_entails_batch(&queries);
    let repeat = pool_a.par_entails_batch(&queries);
    let sequential = pool_b.entails_batch(&queries);

    assert_eq!(first, second, "independently built pools must agree");
    assert_eq!(
        first, repeat,
        "re-running a batch on the same pool must agree"
    );
    assert_eq!(
        first, sequential,
        "parallel must be bit-identical to sequential"
    );
    assert!(first.iter().any(|&b| b) || first.iter().any(|&b| !b));

    let stats = pool_a.stats();
    assert_eq!(stats.threads, 4);
    assert_eq!(stats.queries, 120);
    assert_eq!(stats.parallel_batches, 2);
}
