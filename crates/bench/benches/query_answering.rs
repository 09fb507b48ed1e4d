//! The paper's motivating pipeline, timed end to end: compile-once
//! (offline) then answer many queries (online) against the compiled
//! representation, versus recomputing the semantics per query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use revkb_instances::{random_formula, random_satisfiable};
use revkb_logic::Alphabet;
use revkb_revision::{compact, revise_on, ModelBasedOp};

fn bench_compiled_vs_semantic(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_answering");
    let mut rng = StdRng::seed_from_u64(5);
    let n = 10u32;
    let t = random_satisfiable(&mut rng, 4, n, 0);
    let p = random_satisfiable(&mut rng, 3, n, 0);
    let alpha = Alphabet::of_formulas([&t, &p]);
    // Queries must stay inside the revision alphabet — out-of-alphabet
    // queries are rejected (loudly) by the compiled representation.
    let queries: Vec<_> = std::iter::from_fn(|| Some(random_formula(&mut rng, 2, n, 0)))
        .filter(|q| q.vars().iter().all(|&v| alpha.contains(v)))
        .take(16)
        .collect();

    // Offline compilation (Dalal, Theorem 3.4), then SAT per query.
    let kb = compact(ModelBasedOp::Dalal, &t, &p).unwrap();
    group.bench_function(BenchmarkId::new("compiled_dalal", n), |b| {
        b.iter(|| queries.iter().filter(|q| kb.entails(q)).count())
    });

    // Per-query semantic recomputation (the strawman the paper's
    // two-step approach avoids).
    group.bench_function(BenchmarkId::new("semantic_per_query", n), |b| {
        b.iter(|| {
            queries
                .iter()
                .filter(|q| revise_on(ModelBasedOp::Dalal, &alpha, &t, &p).entails(q))
                .count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_compiled_vs_semantic);
criterion_main!(benches);
