//! Draining the registry and the flight ring into a [`Snapshot`].

use crate::json::escape_into;
use crate::metrics::{COUNTERS, GAUGES, HISTOGRAMS};
use crate::span::{SpanEvent, AGGS};
use crate::TraceMode;

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Sparse `(bucket index, occupancy)` pairs — empty buckets are
    /// omitted. See [`crate::HIST_BUCKETS`] for the bucket scheme.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Estimate the `p`-quantile of the captured distribution; `None`
    /// when the histogram was empty. Same estimator as
    /// [`crate::Histogram::percentile`].
    pub fn percentile(&self, p: f64) -> Option<u64> {
        crate::metrics::estimate_percentile(self.count, self.max, self.buckets.iter().copied(), p)
    }
}

/// Per-name span aggregate (kept in every enabled mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanAggregate {
    /// Span name.
    pub name: &'static str,
    /// Number of times the span ran.
    pub count: u64,
    /// Total wall time across runs, nanoseconds.
    pub total_ns: u64,
    /// Longest single run, nanoseconds.
    pub max_ns: u64,
}

/// A consistent copy of everything the telemetry layer has recorded.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Mode at capture time.
    pub mode: TraceMode,
    /// `(name, value)` for every counter touched so far, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge touched so far, sorted by name.
    pub gauges: Vec<(&'static str, u64)>,
    /// Every histogram touched so far, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Per-name span aggregates, sorted by name.
    pub span_aggregates: Vec<SpanAggregate>,
    /// The flight ring's span events (empty outside `spans`/`chrome`
    /// modes), sorted by `(thread, start_ns)`.
    pub spans: Vec<SpanEvent>,
}

impl Snapshot {
    /// Value of the named counter, if it has been touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Value of the named gauge, if it has been touched.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The named histogram, if it has been touched.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The named span aggregate, if that span ever ran.
    pub fn span_aggregate(&self, name: &str) -> Option<&SpanAggregate> {
        self.span_aggregates.iter().find(|a| a.name == name)
    }

    /// Render the snapshot as a single-line JSON object with sorted
    /// keys: `mode`, `counters`, `gauges`, `histograms`,
    /// `span_aggregates`, and a nested `span_tree`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str("\"mode\":");
        escape_into(self.mode.name(), &mut out);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(name, &mut out);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(name, &mut out);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(h.name, &mut out);
            let (p50, p95, p99) = (
                h.percentile(0.50).unwrap_or(0),
                h.percentile(0.95).unwrap_or(0),
                h.percentile(0.99).unwrap_or(0),
            );
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"buckets\":{{",
                h.count, h.sum, h.max
            ));
            for (j, (b, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{b}\":{n}"));
            }
            out.push_str("}}");
        }
        out.push_str("},\"span_aggregates\":{");
        for (i, a) in self.span_aggregates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(a.name, &mut out);
            out.push_str(&format!(
                ":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                a.count, a.total_ns, a.max_ns
            ));
        }
        out.push_str("},\"span_tree\":");
        self.push_span_tree(&mut out);
        out.push('}');
        out
    }

    /// Render the span events as a forest nested by parent links,
    /// one entry per root span, children ordered by start time.
    fn push_span_tree(&self, out: &mut String) {
        out.push('[');
        let mut first = true;
        // Spans are sorted by (thread, start_ns); within one thread a
        // parent always starts before its children, so a stack walk
        // reconstructs the nesting.
        for root_idx in 0..self.spans.len() {
            let root = &self.spans[root_idx];
            if root.parent.is_some() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            self.push_span_node(out, root_idx);
        }
        out.push(']');
    }

    fn push_span_node(&self, out: &mut String, idx: usize) {
        let s = &self.spans[idx];
        out.push_str("{\"name\":");
        escape_into(s.name, out);
        out.push_str(&format!(
            ",\"thread\":{},\"start_ns\":{},\"dur_ns\":{}",
            s.thread, s.start_ns, s.dur_ns
        ));
        if !s.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                out.push_str(&v.to_string());
            }
            out.push('}');
        }
        out.push_str(",\"children\":[");
        let mut first = true;
        for (j, c) in self.spans.iter().enumerate() {
            if c.thread == s.thread && c.parent == Some(s.id) {
                if !first {
                    out.push(',');
                }
                first = false;
                self.push_span_node(out, j);
            }
        }
        out.push_str("]}");
    }
}

/// Non-destructive copy of everything recorded so far. Spans still
/// open are not included, and neither are spans the bounded flight
/// ring has evicted.
pub fn snapshot() -> Snapshot {
    let mut counters: Vec<(&'static str, u64)> = COUNTERS
        .lock()
        .expect("counter registry poisoned")
        .iter()
        .map(|c| (c.name(), c.value()))
        .collect();
    counters.sort_unstable_by_key(|(n, _)| *n);

    let mut gauges: Vec<(&'static str, u64)> = GAUGES
        .lock()
        .expect("gauge registry poisoned")
        .iter()
        .map(|g| (g.name(), g.value()))
        .collect();
    gauges.sort_unstable_by_key(|(n, _)| *n);

    let mut histograms: Vec<HistogramSnapshot> = HISTOGRAMS
        .lock()
        .expect("histogram registry poisoned")
        .iter()
        .map(|h| {
            let buckets = (0..crate::HIST_BUCKETS)
                .filter_map(|b| {
                    let n = h.bucket(b);
                    (n > 0).then_some((b, n))
                })
                .collect();
            HistogramSnapshot {
                name: h.name(),
                count: h.count(),
                sum: h.sum(),
                max: h.max(),
                buckets,
            }
        })
        .collect();
    histograms.sort_unstable_by_key(|h| h.name);

    let span_aggregates: Vec<SpanAggregate> = AGGS
        .lock()
        .expect("span aggregate table poisoned")
        .iter()
        .map(|(name, a)| SpanAggregate {
            name,
            count: a.count,
            total_ns: a.total_ns,
            max_ns: a.max_ns,
        })
        .collect();

    let mode = crate::mode();
    let spans: Vec<SpanEvent> = if mode.spans_enabled() {
        crate::trace::flight_snapshot()
    } else {
        Vec::new()
    };

    Snapshot {
        mode,
        counters,
        gauges,
        histograms,
        span_aggregates,
        spans,
    }
}

/// Capture a [`Snapshot`] and reset all instruments and the flight
/// ring.
pub fn drain() -> Snapshot {
    let snap = snapshot();
    reset();
    snap
}

/// Zero every registered instrument and clear all span state, the
/// flight ring included.
/// Instruments stay registered (their next record is cheap).
pub fn reset() {
    for c in COUNTERS.lock().expect("counter registry poisoned").iter() {
        c.reset();
    }
    for g in GAUGES.lock().expect("gauge registry poisoned").iter() {
        g.reset();
    }
    for h in HISTOGRAMS
        .lock()
        .expect("histogram registry poisoned")
        .iter()
    {
        h.reset();
    }
    AGGS.lock().expect("span aggregate table poisoned").clear();
    crate::trace::flight_clear();
}

#[cfg(test)]
mod tests {
    use crate::TraceMode;

    static SNAP_C: crate::Counter = crate::Counter::new("snapshot.test.counter");
    static SNAP_H: crate::Histogram = crate::Histogram::new("snapshot.test.hist");

    #[test]
    fn snapshot_json_is_valid_and_sorted() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Spans);
        crate::reset();
        SNAP_C.add(7);
        SNAP_H.record(300);
        {
            let _root = crate::span("snapshot.test.root");
            let _child = crate::span("snapshot.test.child");
        }
        let snap = crate::drain();
        crate::set_mode(TraceMode::Off);
        assert_eq!(snap.counter("snapshot.test.counter"), Some(7));
        assert_eq!(snap.counter("snapshot.test.missing"), None);
        assert_eq!(snap.histogram("snapshot.test.hist").unwrap().count, 1);
        assert_eq!(snap.span_aggregate("snapshot.test.root").unwrap().count, 1);
        let json = snap.to_json();
        assert!(crate::validate_json(&json), "invalid JSON: {json}");
        assert!(json.contains("\"snapshot.test.counter\":7"));
        assert!(json.contains("\"span_tree\":"));
        assert!(json.contains("\"snapshot.test.child\""));
        // Sorted counter names.
        let names: Vec<_> = snap.counters.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn drain_resets_state() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Summary);
        crate::reset();
        SNAP_C.add(3);
        let first = crate::drain();
        assert_eq!(first.counter("snapshot.test.counter"), Some(3));
        let second = crate::snapshot();
        crate::set_mode(TraceMode::Off);
        assert_eq!(second.counter("snapshot.test.counter"), Some(0));
        assert!(second.spans.is_empty());
    }
}
