//! Integration tests for the `revkb-obs` telemetry subsystem as wired
//! through the real pipeline: counters stay exact under concurrency,
//! deterministic counters are invariant under the pool's thread count,
//! span nesting is physically consistent, the Chrome trace export is
//! valid JSON, and all three engines expose the same `stats()` shape.
//!
//! The obs registry is process-global, so every test here serialises
//! on [`LOCK`] and starts from `reset()`.

use revkb::logic::{Formula, Var};
use revkb::obs::{self, Counter, TraceMode};
use revkb::revision::{compact, compact::CompactRep, Backend, Engine, ModelBasedOp, RevisionChain};
use revkb::sat::{PoolConfig, SessionPool};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn v(i: u32) -> Formula {
    Formula::var(Var(i))
}

/// 60 syntactically distinct queries over 6 letters: the cube that
/// spells `i` in binary. Distinctness matters — a repeated query hits
/// the per-worker answer cache, and which worker sees the repeat
/// depends on the shard layout, which would make cache counters
/// thread-count-dependent.
fn distinct_queries() -> Vec<Formula> {
    (0u32..60)
        .map(|i| {
            Formula::and_all((0..6).map(|b| if (i >> b) & 1 == 1 { v(b) } else { v(b).not() }))
        })
        .collect()
}

#[test]
fn concurrent_counter_increments_are_exact() {
    let _g = serial();
    static HAMMERED: Counter = Counter::new("test.telemetry.hammered");
    obs::set_mode(TraceMode::Summary);
    obs::reset();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..100_000 {
                    HAMMERED.inc();
                }
            });
        }
    });
    let snap = obs::drain();
    obs::set_mode(TraceMode::Off);
    assert_eq!(snap.counter("test.telemetry.hammered"), Some(400_000));
}

#[test]
fn deterministic_counters_invariant_under_thread_count() {
    let _g = serial();
    let base = Formula::and_all((0..12u32).map(v));
    let queries = distinct_queries();

    let run = |config: PoolConfig| {
        obs::set_mode(TraceMode::Summary);
        obs::reset();
        let mut pool = SessionPool::with_config(&base, config);
        let answers = pool.par_entails_batch(&queries);
        let snap = obs::drain();
        obs::set_mode(TraceMode::Off);
        (answers, snap)
    };

    let (seq_answers, seq) = run(PoolConfig {
        threads: 1,
        ..PoolConfig::default()
    });
    let (par_answers, par) = run(PoolConfig {
        threads: 4,
        sequential_threshold: 1,
    });

    assert_eq!(seq_answers, par_answers);
    // Work counters are determined by the query list, not by how it
    // was sharded. (Search-effort counters — decisions, conflicts,
    // propagations — legitimately differ per solver instance and are
    // deliberately not compared.)
    for name in [
        "sat.session.queries",
        "sat.session.cache_hits",
        "sat.session.cache_misses",
        "logic.tseitin.runs",
        "logic.tseitin.clauses",
    ] {
        assert_eq!(
            seq.counter(name),
            par.counter(name),
            "counter {name} differs between 1-thread and 4-thread runs"
        );
    }
    assert_eq!(seq.counter("sat.session.queries"), Some(60));
    let seq_hist = seq.histogram("sat.session.query_micros").unwrap();
    let par_hist = par.histogram("sat.session.query_micros").unwrap();
    assert_eq!(seq_hist.count, 60);
    assert_eq!(par_hist.count, 60);
}

#[test]
fn span_nesting_is_physically_consistent() {
    let _g = serial();
    obs::set_mode(TraceMode::Spans);
    obs::reset();
    let t = v(0).or(v(1));
    let p = v(0).not();
    let kb = compact(ModelBasedOp::Dalal, &t, &p).unwrap();
    assert!(kb.entails(&v(1)));
    let snap = obs::drain();
    obs::set_mode(TraceMode::Off);

    assert!(
        snap.span_aggregate("revision.compile").is_some(),
        "compile span missing"
    );
    assert!(
        snap.span_aggregate("sat.query").is_some(),
        "solver query span missing"
    );
    assert!(!snap.spans.is_empty());
    // Every child span lies within its parent: starts no earlier,
    // lasts no longer.
    for child in snap.spans.iter().filter(|s| s.parent.is_some()) {
        let parent = snap
            .spans
            .iter()
            .find(|p| p.thread == child.thread && Some(p.id) == child.parent)
            .expect("parent event present for every child");
        assert!(child.dur_ns <= parent.dur_ns, "child outlives parent");
        assert!(child.start_ns >= parent.start_ns, "child precedes parent");
        assert_eq!(child.depth, parent.depth + 1);
    }
    let json = snap.to_json();
    assert!(obs::validate_json(&json), "snapshot JSON invalid: {json}");
}

#[test]
fn chrome_trace_export_is_valid_json() {
    let _g = serial();
    obs::set_mode(TraceMode::Chrome);
    obs::reset();
    let t = Formula::and_all((0..6u32).map(v));
    let p = v(0).not().or(v(1).not());
    let kb = compact(ModelBasedOp::Satoh, &t, &p).unwrap();
    let _ = kb.entails_batch(&distinct_queries());
    let snap = obs::drain();
    obs::set_mode(TraceMode::Off);

    let trace = obs::chrome_trace(&snap);
    assert!(obs::validate_json(&trace), "chrome trace invalid: {trace}");
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("sat.query"));
}

#[test]
fn stats_shape_is_uniform_across_engines() {
    let _g = serial();
    let t = v(0).or(v(1));
    let p = v(0).not();

    let rep = CompactRep::logical(v(0).and(v(1)), vec![Var(0), Var(1)]);
    assert!(rep.stats().is_empty());
    assert!(rep.entails(&v(0)));
    let rep_stats = rep.stats();
    assert_eq!(rep_stats.session.as_ref().map(|s| s.queries), Some(1));
    assert!(rep_stats.pool.is_none());

    let kb = compact(ModelBasedOp::Dalal, &t, &p).unwrap();
    assert!(kb.stats().is_empty());
    assert!(kb.entails(&v(1)));
    assert_eq!(kb.stats().session.as_ref().map(|s| s.queries), Some(1));

    let mut delayed = RevisionChain::delayed(ModelBasedOp::Dalal, t.clone());
    delayed.revise(p, Backend::Direct);
    // Uniform shape: empty stats before any compilation, not a panic
    // or a different type.
    assert!(delayed.stats().is_empty());
    assert!(delayed.try_entails(&v(1)).unwrap());
    assert_eq!(delayed.stats().session.as_ref().map(|s| s.queries), Some(1));

    // All three merge the same way.
    for stats in [rep.stats(), kb.stats(), delayed.stats()] {
        assert_eq!(stats.merged().queries, 1);
        assert!(stats.to_json().starts_with("{\"session\":"));
    }
}
