//! # revkb-obs
//!
//! Zero-dependency telemetry substrate for the `revkb` workspace: a
//! thread-safe metrics registry ([`Counter`], [`Gauge`], [`Histogram`])
//! plus hierarchical wall-time [`span`]s, drained into a [`Snapshot`]
//! that renders as JSON or as a Chrome trace-event file loadable in
//! `chrome://tracing` / Perfetto.
//!
//! The paper's compactability claims are about *where the cost lives*
//! (compilation size vs. query time, per operator); this crate is the
//! substrate every layer reports against — the Tseitin transform, the
//! CDCL query sessions, the BDD manager's apply cache, and the
//! per-operator compile phases all define instruments here.
//!
//! ## Modes
//!
//! Everything is controlled by the `REVKB_TRACE` environment variable
//! (read once, overridable in-process with [`set_mode`]):
//!
//! | mode      | counters / gauges / histograms | span aggregates | span events¹ | chrome trace |
//! |-----------|--------------------------------|-----------------|--------------|--------------|
//! | `off`     | no                             | no              | no           | no           |
//! | `summary` | yes                            | yes             | no           | no           |
//! | `spans`   | yes                            | yes             | yes          | no           |
//! | `chrome`  | yes                            | yes             | yes          | yes²         |
//!
//! ¹ in a [`Snapshot`]: the last [`FLIGHT_CAPACITY`] finished spans,
//! read from the flight ring.
//! ² the trace file is written by whoever drains (the bench binaries,
//! the server at exit); this crate only marks the intent via
//! [`TraceMode::Chrome`].
//!
//! Finished spans have one sink, the **flight recorder** ([`trace`]):
//! a bounded ring of the most recent spans. It records in every mode,
//! `off` included, for on-demand diagnostics; `REVKB_FLIGHT=off` stops
//! it outside `spans`/`chrome`. The [`log`] module provides leveled
//! structured NDJSON logging (`REVKB_LOG`, default `info`) with its
//! own bounded ring. Trace ids
//! ([`new_trace_id`], [`parse_traceparent`]) join spans, log records,
//! and wire envelopes into one per-request story.
//!
//! The crate also holds the workspace's one JSON codec, [`Json`]
//! ([`json`]): the server's wire parser and renderer, the bench
//! reports' pretty printer, and the string escaper the snapshot,
//! Chrome-trace and log writers share.
//!
//! ## Cost when disabled
//!
//! Every instrument call starts with one relaxed atomic load of the
//! mode; when the mode is [`TraceMode::Off`] (and, for spans, the
//! flight recorder is off) nothing else happens — no allocation, no
//! lock, no time stamp. The workspace's overhead-guard test pins this:
//! the disabled-path cost across a whole batch-query workload must
//! stay under 5% of the measured batch wall time.
//!
//! ## Usage
//!
//! ```
//! use revkb_obs as obs;
//!
//! static QUERIES: obs::Counter = obs::Counter::new("example.queries");
//! static LATENCY: obs::Histogram = obs::Histogram::new("example.micros");
//!
//! obs::set_mode(obs::TraceMode::Spans);
//! {
//!     let _span = obs::span("example.work");
//!     QUERIES.inc();
//!     LATENCY.record(42);
//! }
//! let snap = obs::drain();
//! assert_eq!(snap.counter("example.queries"), Some(1));
//! assert_eq!(snap.spans.len(), 1);
//! obs::set_mode(obs::TraceMode::Off);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod log;
pub mod metrics;
pub mod snapshot;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use chrome::{chrome_trace, trace_file_path, write_chrome_trace, TRACE_FILE_ENV};
pub use json::{validate_json, Json, JsonError};
pub use log::{
    clear_log_file, debug, error, info, log, log_enabled, log_level, log_ring_reset,
    log_ring_snapshot, set_log_file, set_log_level, warn, Level, LogRecord, LOG_ENV,
    LOG_RING_CAPACITY,
};
pub use metrics::{estimate_percentile, Counter, Gauge, Histogram, LocalHistogram, HIST_BUCKETS};
pub use snapshot::{drain, reset, snapshot, HistogramSnapshot, Snapshot, SpanAggregate};
pub use span::{span, span_with, SpanEvent, SpanGuard};
pub use timeseries::{
    sample_interval, Observation, Sampler, SeriesKind, SeriesSnapshot, SeriesStore,
    DEFAULT_SAMPLE_MS, DEFAULT_SERIES_CAPACITY, SAMPLE_MS_ENV,
};
pub use trace::{
    flight_enabled, flight_snapshot, format_trace_id, new_trace_id, parse_trace_id,
    parse_traceparent, set_flight_enabled, FLIGHT_CAPACITY, FLIGHT_ENV, TRACE_ATTR,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable selecting the trace mode (`off`, `summary`,
/// `spans`, `chrome`). Unset or unrecognised values mean `off`.
pub const TRACE_ENV: &str = "REVKB_TRACE";

/// How much telemetry is recorded. See the crate docs for the full
/// mode table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceMode {
    /// Record nothing; every instrument call is a single relaxed load.
    Off = 0,
    /// Record counters, gauges, histograms, and per-name span
    /// aggregates — no individual span events.
    Summary = 1,
    /// `Summary` plus individual span events (the span tree, read
    /// from the flight ring).
    Spans = 2,
    /// `Spans` plus the intent to export a Chrome trace file.
    Chrome = 3,
}

impl TraceMode {
    /// The mode's name as accepted by `REVKB_TRACE`.
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Summary => "summary",
            TraceMode::Spans => "spans",
            TraceMode::Chrome => "chrome",
        }
    }

    /// Parse a `REVKB_TRACE` value; unknown strings are `Off`.
    pub fn parse(s: &str) -> TraceMode {
        match s.trim().to_ascii_lowercase().as_str() {
            "summary" => TraceMode::Summary,
            "spans" => TraceMode::Spans,
            "chrome" => TraceMode::Chrome,
            _ => TraceMode::Off,
        }
    }

    /// Are individual span events retained in this mode?
    pub fn spans_enabled(self) -> bool {
        matches!(self, TraceMode::Spans | TraceMode::Chrome)
    }

    fn from_u8(v: u8) -> TraceMode {
        match v {
            1 => TraceMode::Summary,
            2 => TraceMode::Spans,
            3 => TraceMode::Chrome,
            _ => TraceMode::Off,
        }
    }
}

const MODE_UNINIT: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

/// The current trace mode (initialised from `REVKB_TRACE` on first
/// call). This is the hot-path gate: a single relaxed atomic load.
#[inline]
pub fn mode() -> TraceMode {
    let raw = MODE.load(Ordering::Relaxed);
    if raw == MODE_UNINIT {
        init_mode_from_env()
    } else {
        TraceMode::from_u8(raw)
    }
}

#[cold]
fn init_mode_from_env() -> TraceMode {
    let m = std::env::var(TRACE_ENV)
        .map(|v| TraceMode::parse(&v))
        .unwrap_or(TraceMode::Off);
    MODE.store(m as u8, Ordering::Relaxed);
    m
}

/// Override the trace mode in-process (tests, binaries with flags).
pub fn set_mode(m: TraceMode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// Is any telemetry being recorded at all?
#[inline]
pub fn enabled() -> bool {
    mode() != TraceMode::Off
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Unit tests across modules mutate the global mode and
    //! registries; this lock serialises them.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Take the lock, recovering it if a failed test poisoned it, so
    /// one failure does not fail every later test that serialises
    /// here.
    pub(crate) fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(TraceMode::parse("off"), TraceMode::Off);
        assert_eq!(TraceMode::parse("SUMMARY"), TraceMode::Summary);
        assert_eq!(TraceMode::parse(" spans "), TraceMode::Spans);
        assert_eq!(TraceMode::parse("chrome"), TraceMode::Chrome);
        assert_eq!(TraceMode::parse("bogus"), TraceMode::Off);
        for m in [
            TraceMode::Off,
            TraceMode::Summary,
            TraceMode::Spans,
            TraceMode::Chrome,
        ] {
            assert_eq!(TraceMode::parse(m.name()), m);
            assert_eq!(TraceMode::from_u8(m as u8), m);
        }
    }

    #[test]
    fn spans_enabled_table() {
        assert!(!TraceMode::Off.spans_enabled());
        assert!(!TraceMode::Summary.spans_enabled());
        assert!(TraceMode::Spans.spans_enabled());
        assert!(TraceMode::Chrome.spans_enabled());
    }
}
