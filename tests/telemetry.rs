//! Integration tests for the `revkb-obs` telemetry subsystem as wired
//! through the real pipeline: counters stay exact under concurrency,
//! a session's Tseitin work matches its cache accounting, span nesting
//! is physically consistent, the Chrome trace export is valid JSON, and
//! all three engines expose the same `stats()` shape.
//!
//! The obs registry is process-global, so every test here serialises
//! on [`LOCK`] and starts from `reset()`.

use revkb::logic::{Formula, Var};
use revkb::obs::{self, Counter, TraceMode};
use revkb::revision::{compact, compact::CompactRep, Backend, Engine, ModelBasedOp, RevisionChain};
use revkb::sat::QuerySession;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn v(i: u32) -> Formula {
    Formula::var(Var(i))
}

/// 60 syntactically distinct queries over 6 letters: the cube that
/// spells `i` in binary. Distinct, so no query is a memo hit.
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

/// The clause that spells `i` in binary, for `i` in `1..=60`: each has
/// a positive literal, so a base setting every letter entails all of
/// them, and no countermodel can answer one.
fn distinct_entailed_queries() -> Vec<Formula> {
    (1u32..=60)
        .map(|i| Formula::or_all((0..6).map(|b| if (i >> b) & 1 == 1 { v(b) } else { v(b).not() })))
        .collect()
}

/// Answer `queries` over `base` in order on one session, with the obs
/// registry reset first.
fn batch_snapshot(base: &Formula, queries: &[Formula]) -> obs::Snapshot {
    obs::set_mode(TraceMode::Summary);
    obs::reset();
    let mut session = QuerySession::new(base);
    for q in queries {
        session.entails(q);
    }
    let snap = obs::drain();
    obs::set_mode(TraceMode::Off);
    snap
}

#[test]
fn entailed_queries_are_each_encoded_and_solved() {
    let _g = serial();
    let base = Formula::and_all((0..12u32).map(v));
    let snap = batch_snapshot(&base, &distinct_entailed_queries());

    // Every query is entailed, so none is answered from a countermodel
    // and each miss is encoded and solved: one Tseitin pass loads the
    // base and one encodes each query.
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(count("sat.session.queries"), 60);
    assert_eq!(count("sat.session.cache_hits"), 0);
    assert_eq!(count("sat.session.cache_misses"), 60);
    assert_eq!(count("sat.session.countermodel_hits"), 0);
    assert_eq!(count("logic.tseitin.runs"), 61);
    assert_eq!(
        snap.histogram("sat.session.query_micros").unwrap().count,
        60
    );
}

#[test]
fn countermodel_answers_replace_solves_one_for_one() {
    let _g = serial();
    let base = Formula::and_all((0..12u32).map(v));
    let snap = batch_snapshot(&base, &distinct_queries());

    // Each miss is answered exactly once: one Tseitin pass loads the
    // base, and one more encodes each miss no countermodel answered.
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(count("sat.session.queries"), 60);
    assert_eq!(count("sat.session.cache_misses"), 60);
    assert_eq!(
        count("logic.tseitin.runs"),
        1 + count("sat.session.cache_misses") - count("sat.session.countermodel_hits"),
    );
    // The base has one model, which falsifies every query: the first
    // query's countermodel answers the other 59.
    assert_eq!(count("sat.session.countermodel_hits"), 59);
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

    let trace = obs::chrome_trace(&snap.spans, &snap.counters);
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
    assert!(rep.stats().is_none());
    assert!(rep.entails(&v(0)));
    assert_eq!(rep.stats().map(|s| s.queries), Some(1));

    let kb = compact(ModelBasedOp::Dalal, &t, &p).unwrap();
    assert!(kb.stats().is_none());
    assert!(kb.entails(&v(1)));
    assert_eq!(kb.stats().map(|s| s.queries), Some(1));

    let mut delayed = RevisionChain::delayed(ModelBasedOp::Dalal, t.clone());
    delayed.revise(p, Backend::Direct);
    // Uniform shape: empty stats before any compilation, not a panic
    // or a different type.
    assert!(delayed.stats().is_none());
    assert!(delayed.try_entails(&v(1)).unwrap());

    // All three report one session's counters.
    for stats in [rep.stats(), kb.stats(), delayed.stats()] {
        let stats = stats.expect("a query ran");
        assert_eq!((stats.queries, stats.base_loads), (1, 1));
        assert!(stats.to_json().starts_with("{\"queries\":1,"));
    }
}
