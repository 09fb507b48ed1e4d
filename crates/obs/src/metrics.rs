//! The metrics registry: counters, gauges, and log₂-bucket histograms.
//!
//! Instruments are declared as `static` items (`Counter::new` and
//! friends are `const fn`) and register themselves with the global
//! registry on first use while telemetry is enabled — there is no
//! registration boilerplate and no linker-section magic. When the mode
//! is [`crate::TraceMode::Off`] an instrument call is a single relaxed
//! atomic load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Registered instruments, discovered lazily on first record.
pub(crate) static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
pub(crate) static GAUGES: Mutex<Vec<&'static Gauge>> = Mutex::new(Vec::new());
pub(crate) static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A new counter (declare as a `static`).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The instrument's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` (no-op while telemetry is off).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if crate::enabled() {
            self.record(n);
        }
    }

    /// Add 1 (no-op while telemetry is off).
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    #[cold]
    fn record(&'static self, n: u64) {
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            COUNTERS
                .lock()
                .expect("counter registry poisoned")
                .push(self);
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value / high-watermark gauge.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// A new gauge (declare as a `static`).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The instrument's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Store `v` (no-op while telemetry is off).
    #[inline]
    pub fn set(&'static self, v: u64) {
        if crate::enabled() {
            self.ensure_registered();
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if larger (high-watermark semantics;
    /// no-op while telemetry is off).
    #[inline]
    pub fn set_max(&'static self, v: u64) {
        if crate::enabled() {
            self.ensure_registered();
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    #[cold]
    fn ensure_registered(&'static self) {
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            GAUGES.lock().expect("gauge registry poisoned").push(self);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: bucket 0 holds zero values, bucket
/// `b ≥ 1` holds values in `[2^(b-1), 2^b)`. 64 buckets of powers of
/// two cover the entire `u64` range.
pub const HIST_BUCKETS: usize = 65;

#[allow(clippy::declare_interior_mutable_const)]
const BUCKET_ZERO: AtomicU64 = AtomicU64::new(0);

/// A `u64` histogram with fixed log₂ buckets plus count / sum / max:
/// a registered, mode-gated [`LocalHistogram`].
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    registered: AtomicBool,
    cells: LocalHistogram,
}

/// Bucket index of a value: 0 for 0, otherwise `floor(log₂ v) + 1`.
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

impl Histogram {
    /// A new histogram (declare as a `static`).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            registered: AtomicBool::new(false),
            cells: LocalHistogram::new(),
        }
    }

    /// The instrument's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one observation (no-op while telemetry is off).
    #[inline]
    pub fn record(&'static self, v: u64) {
        if crate::enabled() {
            self.record_inner(v);
        }
    }

    #[cold]
    fn record_inner(&'static self, v: u64) {
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            HISTOGRAMS
                .lock()
                .expect("histogram registry poisoned")
                .push(self);
        }
        self.cells.record(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.cells.count()
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.cells.sum()
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.cells.max()
    }

    /// Occupancy of bucket `b` (see [`HIST_BUCKETS`]).
    pub fn bucket(&self, b: usize) -> u64 {
        self.cells.bucket(b)
    }

    /// Estimate the `p`-quantile (`p` in `[0, 1]`) of the recorded
    /// distribution. `None` when the histogram is empty. See
    /// [`estimate_percentile`] for the estimator's contract.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        self.cells.percentile(p)
    }

    pub(crate) fn reset(&self) {
        self.cells.reset();
    }
}

/// Estimate a quantile from log₂ bucket occupancies.
///
/// `buckets` yields `(bucket index, occupancy)` pairs in ascending
/// index order (zero-occupancy pairs are allowed and skipped). The
/// target rank is `ceil(p·count)` clamped to `[1, count]`; inside the
/// hit bucket the estimate interpolates linearly across the bucket's
/// value range `[2^(b-1), 2^b)` — so single-value buckets (0 and 1)
/// are exact, and the estimate is monotonically non-decreasing in `p`.
/// The result is additionally clamped to the recorded maximum, which
/// keeps high quantiles honest when the top bucket is much wider than
/// the data in it. Returns `None` when `count` is zero.
pub fn estimate_percentile(
    count: u64,
    max: u64,
    buckets: impl IntoIterator<Item = (usize, u64)>,
    p: f64,
) -> Option<u64> {
    if count == 0 {
        return None;
    }
    let p = p.clamp(0.0, 1.0);
    let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (b, n) in buckets {
        if n == 0 {
            continue;
        }
        if seen + n >= rank {
            if b == 0 {
                return Some(0);
            }
            // Bucket b ≥ 1 spans [2^(b-1), 2^b): lo == width.
            let lo = 1u128 << (b - 1);
            let width = lo;
            let into = (rank - seen) as u128; // in [1, n]
            let est = lo + width * into / n as u128;
            let est = est.min(lo + width - 1) as u64;
            return Some(est.min(max));
        }
        seen += n;
    }
    // All occupancies exhausted below the rank (racy concurrent
    // snapshot): fall back to the recorded maximum.
    Some(max)
}

/// An owned, always-on histogram: the storage [`Histogram`] wraps.
///
/// Unlike the `static` instruments, a `LocalHistogram` is *not* gated
/// on the trace mode and never touches the global registry: it belongs
/// to whoever constructed it. The server uses these for the per-request
/// latency distributions its `stats` command must report regardless of
/// `REVKB_TRACE`, without draining (or perturbing) the shared
/// telemetry that table1/table2 runs rely on.
#[derive(Debug)]
pub struct LocalHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [BUCKET_ZERO; HIST_BUCKETS],
        }
    }

    /// Record one observation (always on).
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Occupancy of bucket `b` (see [`HIST_BUCKETS`]).
    pub fn bucket(&self, b: usize) -> u64 {
        self.buckets[b].load(Ordering::Relaxed)
    }

    /// Estimate the `p`-quantile (`p` in `[0, 1]`); `None` when empty.
    /// See [`estimate_percentile`] for the estimator's contract.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        estimate_percentile(
            self.count(),
            self.max(),
            (0..HIST_BUCKETS).map(|b| (b, self.bucket(b))),
            p,
        )
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceMode;

    static C: Counter = Counter::new("test.counter");
    static G: Gauge = Gauge::new("test.gauge");
    static H: Histogram = Histogram::new("test.hist");

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert!(bucket_of(u64::MAX) < HIST_BUCKETS);
    }

    #[test]
    fn percentile_exact_on_hand_built_distributions() {
        // All zeros: every quantile is exactly 0.
        let h = LocalHistogram::new();
        for _ in 0..100 {
            h.record(0);
        }
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(p), Some(0), "p={p}");
        }
        // All ones: bucket 1 holds exactly the value 1.
        let h = LocalHistogram::new();
        for _ in 0..7 {
            h.record(1);
        }
        for p in [0.01, 0.5, 0.99] {
            assert_eq!(h.percentile(p), Some(1), "p={p}");
        }
        // 90 fast (value 1) + 10 slow (value 1000): the p50 sits in the
        // fast bucket exactly, the p95+ in the slow one — and the slow
        // estimate is clamped to the recorded max.
        let h = LocalHistogram::new();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.percentile(0.5), Some(1));
        let p95 = h.percentile(0.95).unwrap();
        assert!((512..=1000).contains(&p95), "p95={p95}");
        assert_eq!(h.percentile(1.0), Some(1000));
    }

    #[test]
    fn percentile_interpolates_within_a_bucket() {
        // 4 values in bucket 3 ([4, 8)): interpolation steps through
        // the bucket's range monotonically and stays inside it.
        let h = LocalHistogram::new();
        for v in [4, 5, 6, 7] {
            h.record(v);
        }
        let q25 = h.percentile(0.25).unwrap();
        let q50 = h.percentile(0.5).unwrap();
        let q100 = h.percentile(1.0).unwrap();
        assert!((4..=7).contains(&q25), "q25={q25}");
        assert!(q25 <= q50 && q50 <= q100, "{q25} {q50} {q100}");
        assert_eq!(q100, 7);
    }

    #[test]
    fn percentile_is_monotone_and_none_when_empty() {
        let h = LocalHistogram::new();
        assert_eq!(h.percentile(0.5), None);
        for v in [0, 1, 3, 17, 400, 90_000, 12, 7, 7, 2_000_000] {
            h.record(v);
        }
        let p50 = h.percentile(0.50).unwrap();
        let p95 = h.percentile(0.95).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!(p50 <= p95, "p50={p50} p95={p95}");
        assert!(p95 <= p99, "p95={p95} p99={p99}");
        assert!(p99 <= h.max());
        // Out-of-range p clamps instead of panicking.
        assert_eq!(h.percentile(-1.0), h.percentile(0.0));
        assert_eq!(h.percentile(2.0), h.percentile(1.0));
    }

    #[test]
    fn percentile_top_bucket_does_not_overflow() {
        let h = LocalHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let p50 = h.percentile(0.5).unwrap();
        let p100 = h.percentile(1.0).unwrap();
        assert!(p50 <= p100, "{p50} {p100}");
        assert_eq!(p100, u64::MAX);
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Off);
        // Compare against the values before, not zero: another test of
        // this module may already have recorded into the same statics.
        let before = C.value();
        let before_h = H.count();
        C.add(5);
        C.inc();
        G.set(9);
        H.record(7);
        assert_eq!(C.value(), before);
        assert_eq!(H.count(), before_h);
    }

    #[test]
    fn enabled_records_and_registers() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Summary);
        C.reset();
        G.reset();
        H.reset();
        C.add(2);
        C.inc();
        G.set(4);
        G.set_max(2); // below current: keeps 4
        G.set_max(10);
        H.record(0);
        H.record(5);
        H.record(1000);
        assert_eq!(C.value(), 3);
        assert_eq!(G.value(), 10);
        assert_eq!(H.count(), 3);
        assert_eq!(H.sum(), 1005);
        assert_eq!(H.max(), 1000);
        assert_eq!(H.bucket(0), 1);
        assert_eq!(H.bucket(3), 1); // 5 ∈ [4, 8)
        assert_eq!(H.bucket(10), 1); // 1000 ∈ [512, 1024)
        assert!(COUNTERS
            .lock()
            .unwrap()
            .iter()
            .any(|c| c.name() == "test.counter"));
        assert!(GAUGES
            .lock()
            .unwrap()
            .iter()
            .any(|g| g.name() == "test.gauge"));
        assert!(HISTOGRAMS
            .lock()
            .unwrap()
            .iter()
            .any(|h| h.name() == "test.hist"));
        crate::set_mode(TraceMode::Off);
    }
}
