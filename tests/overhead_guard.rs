//! Guard on the cost of *disabled* telemetry: with `REVKB_TRACE=off`,
//! every instrument hook must reduce to a single relaxed atomic load,
//! so the instrumented pipeline stays within 5% of its
//! pre-instrumentation wall time.
//!
//! Rather than pinning an absolute wall time (flaky across machines),
//! the test pins the *ratio*: it measures a table1-sized batch
//! workload on one query session with [`Instant`], measures
//! the real per-hook cost of a disabled instrument, and checks that
//! the hooks the pipeline executes for that workload (~24 sites per
//! query: span open/close, counters, histogram) cannot account for 5%
//! of the batch.

use revkb::logic::{Formula, Var};
use revkb::obs::{self, Counter, TraceMode};
use revkb::revision::compact::winslett_bounded;
use revkb::sat::{pseudo_random_formula, QuerySession};
use std::time::Instant;

/// Hook sites executed per query in the instrumented pipeline,
/// rounded up (session counters, histogram, span open/close).
const HOOKS_PER_QUERY: f64 = 24.0;

/// Wall-time floor so a machine fast enough to finish the batch in
/// microseconds doesn't turn the 5% bound into noise-chasing.
const FLOOR_MICROS: u64 = 2_000;

static PROBE: Counter = Counter::new("test.overhead.probe");

/// Wall time of answering `queries` in order on a fresh session over
/// `base`, in microseconds, raised to [`FLOOR_MICROS`].
fn batch_wall_micros(base: &Formula, queries: &[Formula]) -> u64 {
    let mut session = QuerySession::new(base);
    let start = Instant::now();
    for q in queries {
        std::hint::black_box(session.entails(q));
    }
    (start.elapsed().as_micros() as u64).max(FLOOR_MICROS)
}

#[test]
fn disabled_telemetry_stays_under_five_percent() {
    obs::set_mode(TraceMode::Off);
    obs::reset();

    // The table1 batch workload: a bounded Winslett representation
    // over 12 letters answering 60 pseudo-random queries.
    let t = Formula::and_all((0..12u32).map(|i| Formula::var(Var(i))));
    let p = Formula::var(Var(0)).not().or(Formula::var(Var(1)).not());
    let rep = winslett_bounded(&t, &p);
    let mut seed = 0x7AB1E1u64;
    let queries: Vec<Formula> = (0..60)
        .map(|_| pseudo_random_formula(&mut seed, 3, 12))
        .collect();
    let wall_micros = batch_wall_micros(&rep.formula, &queries);

    // Real cost of one disabled hook, amortised over a million calls.
    const CALLS: u64 = 1_000_000;
    let start = Instant::now();
    for i in 0..CALLS {
        PROBE.add(std::hint::black_box(i) & 1);
    }
    std::hint::black_box(&PROBE);
    let per_hook_nanos = start.elapsed().as_nanos() as f64 / CALLS as f64;

    let added_micros = per_hook_nanos * HOOKS_PER_QUERY * queries.len() as f64 / 1_000.0;
    let budget_micros = 0.05 * wall_micros as f64;
    assert!(
        added_micros <= budget_micros,
        "disabled hooks would add {added_micros:.1}µs to a {wall_micros}µs batch \
         ({per_hook_nanos:.2}ns/hook); budget is {budget_micros:.1}µs"
    );

    // Disabled means *disabled*: a million calls left no trace — the
    // probe never even registered itself.
    assert_eq!(obs::snapshot().counter("test.overhead.probe"), None);
}

/// Guard on the diagnostics plane's quiet path: with `REVKB_TRACE`
/// off and the flight recorder disabled, a `span_with` reduces to the
/// unarmed guard; with the log level at its default (`info`), a
/// `debug!`-style call is gate-only and its message closure never
/// runs. Charged at realistic per-query site counts, both together
/// must stay inside the same 5% budget as the metric hooks.
#[test]
fn flight_and_log_quiet_paths_stay_under_five_percent() {
    // The same batch workload as above sets the wall-time yardstick.
    let t = Formula::and_all((0..12u32).map(|i| Formula::var(Var(i))));
    let p = Formula::var(Var(0)).not().or(Formula::var(Var(1)).not());
    let rep = winslett_bounded(&t, &p);
    let mut seed = 0x7AB1E3u64;
    let queries: Vec<Formula> = (0..60)
        .map(|_| pseudo_random_formula(&mut seed, 3, 12))
        .collect();
    let wall_micros = batch_wall_micros(&rep.formula, &queries);

    // Span and log sites the server path executes per query: the
    // request / command / compile spans and the error/warn gates on
    // the WAL and reply paths, rounded up.
    const SPANS_PER_QUERY: f64 = 4.0;
    const LOGS_PER_QUERY: f64 = 4.0;
    const CALLS: u64 = 200_000;

    obs::set_mode(TraceMode::Off);
    let prev_flight = obs::flight_enabled();
    obs::set_flight_enabled(false);
    let flight_before = obs::flight_snapshot().len();
    let start = Instant::now();
    for i in 0..CALLS {
        let _span = obs::span_with("test.overhead.span", &[("i", std::hint::black_box(i))]);
    }
    let per_span_nanos = start.elapsed().as_nanos() as f64 / CALLS as f64;
    assert_eq!(
        obs::flight_snapshot().len(),
        flight_before,
        "a disabled flight recorder must not record"
    );
    obs::set_flight_enabled(prev_flight);

    let prev_level = obs::log_level();
    obs::set_log_level(obs::Level::Info);
    let start = Instant::now();
    for i in 0..CALLS {
        obs::debug("overhead-guard", Some(std::hint::black_box(i)), || {
            panic!("a suppressed log message must never be rendered")
        });
    }
    let per_log_nanos = start.elapsed().as_nanos() as f64 / CALLS as f64;
    obs::set_log_level(prev_level);

    let added_micros = (per_span_nanos * SPANS_PER_QUERY + per_log_nanos * LOGS_PER_QUERY)
        * queries.len() as f64
        / 1_000.0;
    let budget_micros = 0.05 * wall_micros as f64;
    assert!(
        added_micros <= budget_micros,
        "quiet diagnostics would add {added_micros:.1}µs to a {wall_micros}µs batch \
         ({per_span_nanos:.2}ns/span, {per_log_nanos:.2}ns/log); budget is {budget_micros:.1}µs"
    );
}

/// Guard on the cost of the *enabled* time-series sampler: one tick
/// folds every server observation into the ring buffers, and at the
/// default 1 s interval that work must stay far inside 5% of a
/// table1-sized batch's wall time. The store is clock-free, so the
/// test drives a realistic observation set through it directly and
/// measures the real per-tick cost — no sleeping, no background
/// thread, deterministic across machines.
#[test]
fn sampler_tick_stays_under_five_percent() {
    use revkb::obs::timeseries::{Observation, SeriesStore, DEFAULT_SERIES_CAPACITY};

    // The same batch workload as above sets the wall-time yardstick.
    let t = Formula::and_all((0..12u32).map(|i| Formula::var(Var(i))));
    let p = Formula::var(Var(0)).not().or(Formula::var(Var(1)).not());
    let rep = winslett_bounded(&t, &p);
    let mut seed = 0x7AB1E2u64;
    let queries: Vec<Formula> = (0..60)
        .map(|_| pseudo_random_formula(&mut seed, 3, 12))
        .collect();
    let wall_micros = batch_wall_micros(&rep.formula, &queries);

    // A server-sized observation set: more series than the server's
    // source actually emits, so the bound is conservative.
    let observations: Vec<Observation> = (0..32)
        .map(|i| Observation::counter(format!("guard.counter.{i}"), 0))
        .chain((0..8).map(|i| Observation::gauge(format!("guard.gauge.{i}"), 0)))
        .collect();
    let mut store = SeriesStore::new(DEFAULT_SERIES_CAPACITY);
    // Warm tick so ring creation (a one-time cost) is off the clock.
    store.tick(0, &observations);

    const TICKS: u64 = 10_000;
    let start = Instant::now();
    for i in 1..=TICKS {
        store.tick(i, std::hint::black_box(&observations));
    }
    std::hint::black_box(&store);
    let per_tick_micros = start.elapsed().as_micros() as f64 / TICKS as f64;

    // At the default interval the sampler ticks once per second; over
    // the window it would take to run the batch, that is at most
    // ceil(wall/1s) ticks — but even charging one *full* tick against
    // every batch keeps the bound strict and timing-free.
    let budget_micros = 0.05 * wall_micros as f64;
    assert!(
        per_tick_micros <= budget_micros,
        "one sampler tick costs {per_tick_micros:.1}µs against a {wall_micros}µs batch; \
         budget is {budget_micros:.1}µs"
    );
}
