//! Fixed-interval time series over instrument values.
//!
//! A [`Sampler`] runs a background thread that, every
//! `REVKB_OBS_SAMPLE_MS` milliseconds (default 1 s), pulls the current
//! cumulative values from a caller-supplied source and folds them into
//! a [`SeriesStore`]: counters become per-interval **deltas**, gauges
//! are stored as-is, and every series lives in a bounded ring buffer
//! (default 300 samples, so five minutes of history at the default
//! interval). Rates — revisions per second, cache hit trends,
//! replication lag over time — therefore exist in-process, without an
//! external scraper having to poll and diff.
//!
//! The store itself is pure and clock-free (every [`SeriesStore::tick`]
//! takes an explicit timestamp), so tests and benchmarks drive it
//! deterministically; only [`Sampler::start`] touches a real clock.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Environment variable giving the sampler interval in milliseconds.
pub const SAMPLE_MS_ENV: &str = "REVKB_OBS_SAMPLE_MS";

/// Default sampler interval in milliseconds.
pub const DEFAULT_SAMPLE_MS: u64 = 1000;

/// Default per-series ring-buffer capacity (samples kept).
pub const DEFAULT_SERIES_CAPACITY: usize = 300;

/// The sampler interval: `REVKB_OBS_SAMPLE_MS`, or
/// [`DEFAULT_SAMPLE_MS`]. Clamped below at 10 ms so a typo cannot turn
/// the sampler into a busy loop.
pub fn sample_interval() -> Duration {
    let ms = std::env::var(SAMPLE_MS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_SAMPLE_MS);
    Duration::from_millis(ms.max(10))
}

/// How a sampled value folds into its series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Cumulative and monotone: the series stores per-interval deltas.
    Counter,
    /// Instantaneous: the series stores the value itself.
    Gauge,
}

impl SeriesKind {
    /// Stable lowercase tag (`"counter"` / `"gauge"`).
    pub fn tag(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

/// One instrument's current cumulative (or instantaneous) value, as
/// produced by a sampler source on each tick.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Instrument name (dotted, like the registry's).
    pub name: String,
    /// Counter or gauge semantics.
    pub kind: SeriesKind,
    /// The current value.
    pub value: u64,
}

impl Observation {
    /// A cumulative counter observation.
    pub fn counter(name: impl Into<String>, value: u64) -> Self {
        Observation {
            name: name.into(),
            kind: SeriesKind::Counter,
            value,
        }
    }

    /// An instantaneous gauge observation.
    pub fn gauge(name: impl Into<String>, value: u64) -> Self {
        Observation {
            name: name.into(),
            kind: SeriesKind::Gauge,
            value,
        }
    }
}

#[derive(Debug)]
struct Ring {
    kind: SeriesKind,
    /// Last cumulative value seen (counters only; detects resets).
    last: u64,
    points: VecDeque<(u64, u64)>,
}

/// A point-in-time copy of one series for rendering.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Instrument name.
    pub name: String,
    /// Counter (points are deltas) or gauge (points are values).
    pub kind: SeriesKind,
    /// `(at_millis, value)` pairs, oldest first. Timestamps are
    /// milliseconds since the store's origin (the sampler's start) and
    /// strictly increase.
    pub points: Vec<(u64, u64)>,
}

impl SeriesSnapshot {
    /// Mean per-second rate across the captured window (counters), or
    /// the latest value (gauges). `None` with fewer than one point or
    /// a zero-width window.
    pub fn per_sec(&self) -> Option<f64> {
        match self.kind {
            SeriesKind::Gauge => self.points.last().map(|&(_, v)| v as f64),
            SeriesKind::Counter => {
                let (first, last) = (self.points.first()?, self.points.last()?);
                // Each point covers the interval *ending* at its
                // timestamp, so the window reaches one interval before
                // the first point; with a single point the best guess
                // is its own timestamp (interval start ≈ origin).
                let span_millis = if self.points.len() == 1 {
                    first.0
                } else {
                    last.0 - first.0 + (last.0 - first.0) / (self.points.len() as u64 - 1)
                };
                if span_millis == 0 {
                    return None;
                }
                let total: u64 = self.points.iter().map(|&(_, v)| v).sum();
                Some(total as f64 * 1000.0 / span_millis as f64)
            }
        }
    }
}

/// Bounded ring buffers of sampled series, keyed by instrument name.
///
/// Pure state: the caller supplies timestamps, so ticks replay
/// deterministically in tests. Timestamps are forced strictly
/// monotone — a tick at or before the previous one lands one
/// millisecond after it, so rendering never sees time move backwards
/// even if the sampling clock does.
#[derive(Debug)]
pub struct SeriesStore {
    capacity: usize,
    /// Sorted by name for deterministic rendering.
    rings: Vec<(String, Ring)>,
    last_at: Option<u64>,
    ticks: u64,
}

impl SeriesStore {
    /// An empty store keeping at most `capacity` samples per series
    /// (capacity 0 keeps one).
    pub fn new(capacity: usize) -> Self {
        SeriesStore {
            capacity: capacity.max(1),
            rings: Vec::new(),
            last_at: None,
            ticks: 0,
        }
    }

    /// Per-series sample bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ticks folded in so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }

    /// Fold one round of observations in at `at_millis` (milliseconds
    /// since the store's origin). Counters record the delta against
    /// their previous cumulative value (a shrunk value — an upstream
    /// reset — records 0 and re-bases); gauges record the value.
    pub fn tick(&mut self, at_millis: u64, observations: &[Observation]) {
        let at = match self.last_at {
            Some(prev) if at_millis <= prev => prev + 1,
            _ => at_millis,
        };
        self.last_at = Some(at);
        self.ticks += 1;
        for obs in observations {
            let idx = match self
                .rings
                .binary_search_by(|(n, _)| n.as_str().cmp(&obs.name))
            {
                Ok(idx) => idx,
                Err(idx) => {
                    self.rings.insert(
                        idx,
                        (
                            obs.name.clone(),
                            Ring {
                                kind: obs.kind,
                                last: 0,
                                points: VecDeque::new(),
                            },
                        ),
                    );
                    idx
                }
            };
            let ring = &mut self.rings[idx].1;
            let point = match ring.kind {
                SeriesKind::Gauge => obs.value,
                SeriesKind::Counter => {
                    let delta = obs.value.saturating_sub(ring.last);
                    ring.last = obs.value;
                    delta
                }
            };
            ring.points.push_back((at, point));
            while ring.points.len() > self.capacity {
                ring.points.pop_front();
            }
        }
    }

    /// Copy every series out, sorted by name.
    pub fn series(&self) -> Vec<SeriesSnapshot> {
        self.rings
            .iter()
            .map(|(name, ring)| SeriesSnapshot {
                name: name.clone(),
                kind: ring.kind,
                points: ring.points.iter().copied().collect(),
            })
            .collect()
    }

    /// Copy one named series out.
    pub fn get(&self, name: &str) -> Option<SeriesSnapshot> {
        self.rings
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|idx| SeriesSnapshot {
                name: self.rings[idx].0.clone(),
                kind: self.rings[idx].1.kind,
                points: self.rings[idx].1.points.iter().copied().collect(),
            })
    }
}

/// Stop signal shared with the sampler thread: a flag under a mutex so
/// `stop()` can wake the thread out of its interval sleep immediately.
#[derive(Debug, Default)]
struct StopCell {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// Handle to a background sampling thread feeding a shared
/// [`SeriesStore`].
///
/// The source callback returns the current cumulative values each
/// tick, or `None` to shut the thread down (e.g. when the owner it
/// weakly references is gone). Dropping the handle stops and joins the
/// thread; the store (behind its `Arc`) outlives it, so late readers
/// still see the final window.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<StopCell>,
    store: Arc<Mutex<SeriesStore>>,
    interval: Duration,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Spawn the sampling thread: every `interval` it calls `source`
    /// and folds the observations into a fresh store bounded at
    /// `capacity` samples per series, timestamped with milliseconds
    /// since this call.
    pub fn start<F>(interval: Duration, capacity: usize, mut source: F) -> Sampler
    where
        F: FnMut() -> Option<Vec<Observation>> + Send + 'static,
    {
        let stop = Arc::new(StopCell::default());
        let store = Arc::new(Mutex::new(SeriesStore::new(capacity)));
        let thread_stop = Arc::clone(&stop);
        let thread_store = Arc::clone(&store);
        let handle = std::thread::Builder::new()
            .name("revkb-obs-sampler".to_string())
            .spawn(move || {
                let origin = Instant::now();
                loop {
                    {
                        let mut stopped =
                            thread_stop.stopped.lock().expect("sampler stop poisoned");
                        let mut remaining = interval;
                        while !*stopped && remaining > Duration::ZERO {
                            let before = Instant::now();
                            let (guard, _) = thread_stop
                                .cv
                                .wait_timeout(stopped, remaining)
                                .expect("sampler stop poisoned");
                            stopped = guard;
                            remaining = remaining.saturating_sub(before.elapsed());
                        }
                        if *stopped {
                            return;
                        }
                    }
                    let Some(observations) = source() else {
                        return;
                    };
                    let at = u64::try_from(origin.elapsed().as_millis()).unwrap_or(u64::MAX);
                    thread_store
                        .lock()
                        .expect("series store poisoned")
                        .tick(at, &observations);
                }
            })
            .expect("spawn sampler thread");
        Sampler {
            stop,
            store,
            interval,
            handle: Some(handle),
        }
    }

    /// The shared store the thread feeds.
    pub fn store(&self) -> Arc<Mutex<SeriesStore>> {
        Arc::clone(&self.store)
    }

    /// The tick interval the thread was started with.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Copy every series out of the store.
    pub fn series(&self) -> Vec<SeriesSnapshot> {
        self.store.lock().expect("series store poisoned").series()
    }

    /// Signal the thread to exit (idempotent; returns without joining).
    pub fn stop(&self) {
        *self.stop.stopped.lock().expect("sampler stop poisoned") = true;
        self.stop.cv.notify_all();
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.handle.take() {
            // The handle may be dropped *from the sampling thread
            // itself*: a source closure holding the last strong
            // reference to the sampler's owner tears the owner (and
            // this handle) down when it returns. Joining would then
            // self-deadlock; the stop flag above already guarantees
            // the thread exits at the top of its next iteration.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_store_deltas_and_gauges_store_values() {
        let mut store = SeriesStore::new(8);
        store.tick(
            1000,
            &[Observation::counter("c", 10), Observation::gauge("g", 100)],
        );
        store.tick(
            2000,
            &[Observation::counter("c", 25), Observation::gauge("g", 90)],
        );
        let c = store.get("c").unwrap();
        assert_eq!(c.kind, SeriesKind::Counter);
        assert_eq!(c.points, vec![(1000, 10), (2000, 15)]);
        let g = store.get("g").unwrap();
        assert_eq!(g.kind, SeriesKind::Gauge);
        assert_eq!(g.points, vec![(1000, 100), (2000, 90)]);
        assert_eq!(store.ticks(), 2);
    }

    #[test]
    fn counter_reset_rebases_instead_of_underflowing() {
        let mut store = SeriesStore::new(8);
        store.tick(1, &[Observation::counter("c", 50)]);
        store.tick(2, &[Observation::counter("c", 5)]); // upstream reset
        store.tick(3, &[Observation::counter("c", 12)]);
        let points = store.get("c").unwrap().points;
        assert_eq!(points, vec![(1, 50), (2, 0), (3, 7)]);
    }

    #[test]
    fn rings_stay_bounded_and_drop_oldest() {
        let mut store = SeriesStore::new(3);
        for i in 0..10u64 {
            store.tick(i * 10, &[Observation::gauge("g", i)]);
        }
        let points = store.get("g").unwrap().points;
        assert_eq!(points.len(), 3);
        assert_eq!(points, vec![(70, 7), (80, 8), (90, 9)]);
    }

    #[test]
    fn timestamps_are_forced_strictly_monotone() {
        let mut store = SeriesStore::new(8);
        store.tick(100, &[Observation::gauge("g", 1)]);
        store.tick(100, &[Observation::gauge("g", 2)]); // same clock read
        store.tick(50, &[Observation::gauge("g", 3)]); // clock went back
        let points = store.get("g").unwrap().points;
        assert_eq!(points, vec![(100, 1), (101, 2), (102, 3)]);
        let ts: Vec<u64> = points.iter().map(|&(t, _)| t).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn bounds_and_monotonicity_hold_under_concurrent_writers() {
        // The store is a Mutex-shared structure in real use; hammer it
        // from several threads and check the ring invariants after.
        let store = Arc::new(Mutex::new(SeriesStore::new(16)));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let mut s = store.lock().unwrap();
                    s.tick(
                        t * 1000 + i,
                        &[
                            Observation::counter("c", t * 1000 + i),
                            Observation::gauge("g", i),
                        ],
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let store = store.lock().unwrap();
        assert_eq!(store.ticks(), 800);
        for series in store.series() {
            assert!(series.points.len() <= 16, "{} overflowed", series.name);
            let ts: Vec<u64> = series.points.iter().map(|&(t, _)| t).collect();
            assert!(
                ts.windows(2).all(|w| w[0] < w[1]),
                "{} timestamps not strictly increasing: {ts:?}",
                series.name
            );
        }
    }

    #[test]
    fn per_sec_estimates_rates() {
        let mut store = SeriesStore::new(8);
        // 10 events per 1000 ms tick → 10/s.
        for i in 1..=4u64 {
            store.tick(i * 1000, &[Observation::counter("c", i * 10)]);
        }
        let rate = store.get("c").unwrap().per_sec().unwrap();
        assert!((rate - 10.0).abs() < 0.01, "rate={rate}");
        store.tick(5000, &[Observation::gauge("g", 42)]);
        assert_eq!(store.get("g").unwrap().per_sec(), Some(42.0));
        assert_eq!(
            SeriesSnapshot {
                name: "empty".into(),
                kind: SeriesKind::Counter,
                points: Vec::new(),
            }
            .per_sec(),
            None
        );
    }

    #[test]
    fn sampler_thread_samples_and_stops() {
        let sampler = Sampler::start(Duration::from_millis(10), 4, || {
            Some(vec![Observation::counter("s", 1)])
        });
        let store = sampler.store();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if store.lock().unwrap().ticks() >= 2 {
                break;
            }
            assert!(Instant::now() < deadline, "sampler never ticked");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(sampler); // stops and joins
        let ticks = store.lock().unwrap().ticks();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(store.lock().unwrap().ticks(), ticks, "thread kept running");
    }

    #[test]
    fn sampler_source_none_terminates_the_thread() {
        let sampler = Sampler::start(Duration::from_millis(5), 4, || None);
        let deadline = Instant::now() + Duration::from_secs(5);
        while sampler.handle.as_ref().is_some_and(|h| !h.is_finished()) {
            assert!(Instant::now() < deadline, "thread never exited");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sampler.series().len(), 0);
    }

    #[test]
    fn sample_interval_has_a_floor() {
        if std::env::var_os(SAMPLE_MS_ENV).is_none() {
            assert_eq!(sample_interval(), Duration::from_millis(DEFAULT_SAMPLE_MS));
        }
    }
}
