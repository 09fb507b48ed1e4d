//! Hierarchical wall-time spans with RAII guards.
//!
//! Each thread keeps its own span stack, so nesting is tracked without
//! locks; a span is moved into the flight ring ([`crate::trace`]) the
//! moment it closes, and that ring is the only place finished spans
//! are kept.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span, as retained in the flight ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"revision.compile"`).
    pub name: &'static str,
    /// Ordinal of the recording thread (stable within a process run).
    pub thread: u64,
    /// Per-thread span id (unique within `thread`).
    pub id: u64,
    /// Per-thread id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Nesting depth (0 for a root span).
    pub depth: u32,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric attributes attached at open time (see [`span_with`]),
    /// e.g. `("req", 17)` for per-request correlation. Empty for spans
    /// opened with plain [`span`].
    pub attrs: Vec<(&'static str, u64)>,
}

impl SpanEvent {
    /// Value of the named attribute, if present.
    pub fn attr(&self, name: &str) -> Option<u64> {
        self.attrs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Per-name aggregate kept in every enabled mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

pub(crate) static AGGS: Mutex<BTreeMap<&'static str, Agg>> = Mutex::new(BTreeMap::new());

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    depth: u32,
    start_ns: u64,
    attrs: Vec<(&'static str, u64)>,
}

struct ThreadSpans {
    ord: u64,
    next_id: u64,
    stack: Vec<ActiveSpan>,
}

thread_local! {
    static THREAD_SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans {
        ord: NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed),
        next_id: 0,
        stack: Vec::new(),
    });
}

/// RAII guard returned by [`span`]; records the span when dropped.
///
/// The guard is intentionally `!Send`: a span measures one thread's
/// wall time and must end on the thread that started it.
#[derive(Debug)]
pub struct SpanGuard {
    armed: bool,
    _not_send: PhantomData<*const ()>,
}

/// Open a span named `name`. Aggregates are kept in every mode but
/// [`crate::TraceMode::Off`]; the finished [`SpanEvent`] goes into the
/// flight ring while the recorder is on or the mode is `spans` or
/// `chrome`. With neither, nothing is recorded.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// Open a span named `name` carrying numeric attributes (retained on
/// the [`SpanEvent`] in the flight ring; aggregates ignore them). The
/// server uses this to stamp every `server.*` span with the request id
/// so a Chrome trace is correlatable per request.
#[inline]
pub fn span_with(name: &'static str, attrs: &[(&'static str, u64)]) -> SpanGuard {
    let mode = crate::mode();
    if mode == crate::TraceMode::Off && !crate::trace::flight_enabled() {
        return SpanGuard {
            armed: false,
            _not_send: PhantomData,
        };
    }
    open_span(name, attrs);
    SpanGuard {
        armed: true,
        _not_send: PhantomData,
    }
}

#[cold]
fn open_span(name: &'static str, attrs: &[(&'static str, u64)]) {
    let start_ns = epoch().elapsed().as_nanos() as u64;
    // Attributes only matter on events the ring retains; skip the
    // allocation in summary mode with the recorder off.
    let attrs = if keeps_events(crate::mode()) {
        attrs.to_vec()
    } else {
        Vec::new()
    };
    THREAD_SPANS.with(|ts| {
        let mut ts = ts.borrow_mut();
        let id = ts.next_id;
        ts.next_id += 1;
        let parent = ts.stack.last().map(|a| a.id);
        let depth = ts.stack.len() as u32;
        ts.stack.push(ActiveSpan {
            name,
            id,
            parent,
            depth,
            start_ns,
            attrs,
        });
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            close_span();
        }
    }
}

/// Does a closing span go into the flight ring in mode `mode`?
fn keeps_events(mode: crate::TraceMode) -> bool {
    mode.spans_enabled() || crate::trace::flight_enabled()
}

#[cold]
fn close_span() {
    let now_ns = epoch().elapsed().as_nanos() as u64;
    let mode = crate::mode();
    THREAD_SPANS.with(|ts| {
        let mut ts = ts.borrow_mut();
        let Some(active) = ts.stack.pop() else {
            return; // mode flipped mid-span; nothing to close
        };
        let dur_ns = now_ns.saturating_sub(active.start_ns);
        if mode != crate::TraceMode::Off {
            let mut aggs = AGGS.lock().expect("span aggregate table poisoned");
            let agg = aggs.entry(active.name).or_default();
            agg.count += 1;
            agg.total_ns += dur_ns;
            agg.max_ns = agg.max_ns.max(dur_ns);
        }
        if keeps_events(mode) {
            crate::trace::flight_record(SpanEvent {
                name: active.name,
                thread: ts.ord,
                id: active.id,
                parent: active.parent,
                depth: active.depth,
                start_ns: active.start_ns,
                dur_ns,
                attrs: active.attrs,
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceMode;

    #[test]
    fn nested_spans_record_hierarchy() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Spans);
        crate::reset();
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let snap = crate::drain();
        crate::set_mode(TraceMode::Off);
        assert_eq!(snap.spans.len(), 2);
        let outer = snap.spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.dur_ns <= outer.dur_ns);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn span_attributes_are_retained_on_events() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Spans);
        crate::reset();
        {
            let _s = span_with("test.attr", &[("req", 42), ("shard", 3)]);
            let _plain = span("test.attr.child");
        }
        let snap = crate::drain();
        crate::set_mode(TraceMode::Off);
        let tagged = snap.spans.iter().find(|s| s.name == "test.attr").unwrap();
        assert_eq!(tagged.attr("req"), Some(42));
        assert_eq!(tagged.attr("shard"), Some(3));
        assert_eq!(tagged.attr("missing"), None);
        let plain = snap
            .spans
            .iter()
            .find(|s| s.name == "test.attr.child")
            .unwrap();
        assert!(plain.attrs.is_empty());
    }

    #[test]
    fn summary_mode_keeps_aggregates_only() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Summary);
        crate::reset();
        {
            let _s = span("test.summary_only");
        }
        let snap = crate::drain();
        crate::set_mode(TraceMode::Off);
        assert!(snap.spans.is_empty());
        let agg = snap
            .span_aggregates
            .iter()
            .find(|a| a.name == "test.summary_only")
            .unwrap();
        assert_eq!(agg.count, 1);
    }

    #[test]
    fn off_mode_records_nothing() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Off);
        let was = crate::flight_enabled();
        crate::set_flight_enabled(false);
        crate::reset();
        {
            let _s = span("test.off");
        }
        crate::set_mode(TraceMode::Spans);
        let snap = crate::drain();
        crate::set_mode(TraceMode::Off);
        crate::set_flight_enabled(was);
        assert!(snap.spans.is_empty());
        assert!(snap.span_aggregates.iter().all(|a| a.name != "test.off"));
    }

    #[test]
    fn spans_mode_drains_with_the_flight_recorder_off() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Spans);
        let was = crate::flight_enabled();
        crate::set_flight_enabled(false);
        crate::reset();
        {
            let _s = span("test.spans.no_flight");
        }
        let snap = crate::drain();
        crate::set_mode(TraceMode::Off);
        crate::set_flight_enabled(was);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "test.spans.no_flight");
    }

    #[test]
    fn cross_thread_spans_merge_at_drain() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Spans);
        crate::reset();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _s = span("test.worker");
                });
            }
        });
        let snap = crate::drain();
        crate::set_mode(TraceMode::Off);
        assert_eq!(
            snap.spans
                .iter()
                .filter(|s| s.name == "test.worker")
                .count(),
            3
        );
        // Three distinct worker threads, three distinct ordinals.
        let mut ords: Vec<u64> = snap.spans.iter().map(|s| s.thread).collect();
        ords.sort_unstable();
        ords.dedup();
        assert_eq!(ords.len(), 3);
    }
}
