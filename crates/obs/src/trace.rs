//! Always-on flight recorder and trace-context helpers.
//!
//! The `REVKB_TRACE` modes are boot-time configuration: a process that
//! started with tracing off cannot retroactively produce a span tree
//! for the request that just went wrong. The **flight recorder**
//! closes that gap: a bounded ring of the most recent finished spans,
//! fed by the span machinery in *every* mode (including `off`), so an
//! operator can fetch `/debug/trace.json` from a running server — no
//! restart, no `REVKB_TRACE` — and load the last few thousand spans in
//! a Chrome trace viewer. The ring is also the only span sink: in
//! `spans`/`chrome` modes [`crate::snapshot()`] and the Chrome export
//! read their span events from it, so it records in those modes
//! whatever `REVKB_FLIGHT` says. In `off`/`summary` mode,
//! `REVKB_FLIGHT=off` disables it, restoring the strict
//! single-relaxed-load disabled path.
//!
//! This module also owns **trace ids**: nonzero `u64`s, rendered on
//! the wire as 16 lowercase hex digits, parsed from either the
//! envelope's `trace` field or a W3C `traceparent` header (whose
//! 128-bit trace id is truncated to its low 64 bits). Spans carry the
//! id as a `("trace", id)` attribute, so one id joins the wire
//! envelope, the log ring, the slow log, and the span tree.

use crate::span::SpanEvent;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Environment variable controlling the flight recorder (`off` / `0` /
/// `false` / `no` disable it; anything else — including unset — leaves
/// it on).
pub const FLIGHT_ENV: &str = "REVKB_FLIGHT";

/// How many finished spans the flight ring retains (oldest evicted
/// first).
pub const FLIGHT_CAPACITY: usize = 4096;

/// The span attribute name under which trace ids travel.
pub const TRACE_ATTR: &str = "trace";

const FLIGHT_UNINIT: u8 = u8::MAX;
static FLIGHT: AtomicU8 = AtomicU8::new(FLIGHT_UNINIT);

/// Is the flight recorder on (initialised from `REVKB_FLIGHT` on
/// first call)? Hot-path gate: a single relaxed atomic load.
#[inline]
pub fn flight_enabled() -> bool {
    let raw = FLIGHT.load(Ordering::Relaxed);
    if raw == FLIGHT_UNINIT {
        init_flight_from_env()
    } else {
        raw != 0
    }
}

#[cold]
fn init_flight_from_env() -> bool {
    let on = std::env::var(FLIGHT_ENV)
        .map(|v| {
            !matches!(
                v.trim().to_ascii_lowercase().as_str(),
                "0" | "off" | "false" | "no"
            )
        })
        .unwrap_or(true);
    FLIGHT.store(u8::from(on), Ordering::Relaxed);
    on
}

/// Override the flight recorder in-process (tests, binaries).
pub fn set_flight_enabled(on: bool) {
    FLIGHT.store(u8::from(on), Ordering::Relaxed);
}

/// Every retained finished span, newest last: the only span sink.
static RING: Mutex<VecDeque<SpanEvent>> = Mutex::new(VecDeque::new());

/// Push one finished span into the flight ring, evicting the oldest
/// past [`FLIGHT_CAPACITY`]. Called by the span machinery for every
/// closed span while [`flight_enabled`] holds or the mode retains
/// span events.
pub(crate) fn flight_record(event: SpanEvent) {
    let mut ring = RING.lock().expect("flight ring poisoned");
    if ring.len() >= FLIGHT_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(event);
}

/// The flight ring's current contents, ordered by thread, then start
/// time, so the Chrome renderer and the span tree nest them correctly.
pub fn flight_snapshot() -> Vec<SpanEvent> {
    let mut spans: Vec<SpanEvent> = {
        let ring = RING.lock().expect("flight ring poisoned");
        ring.iter().cloned().collect()
    };
    spans.sort_unstable_by_key(|s| (s.thread, s.start_ns, s.id));
    spans
}

/// Empty the flight ring ([`crate::reset`] calls this).
pub(crate) fn flight_clear() {
    RING.lock().expect("flight ring poisoned").clear();
}

// ------------------------------------------------------- trace ids

static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Generate a fresh nonzero trace id. Seeded from the wall clock and
/// the process id, stepped by a process-local counter, so two servers
/// started in the same nanosecond still diverge.
pub fn new_trace_id() -> u64 {
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED)
        ^ u64::from(std::process::id()).rotate_left(32);
    loop {
        let n = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(seed.wrapping_add(n));
        if id != 0 {
            return id;
        }
    }
}

/// Render a trace id in its wire form: 16 lowercase hex digits.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a wire trace id: 1..=32 hex digits (longer ids — e.g. the
/// 32-digit W3C form — keep their low 64 bits). Zero is rejected: the
/// W3C spec reserves the all-zero id as "not a trace".
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let low = if s.len() > 16 { &s[s.len() - 16..] } else { s };
    match u64::from_str_radix(low, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// Parse a W3C `traceparent` header value:
/// `00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>`. Returns
/// the trace id's low 64 bits. Strict on structure — a malformed
/// header is an error the gateway reports, not a silent regeneration.
pub fn parse_traceparent(value: &str) -> Option<u64> {
    let mut parts = value.trim().split('-');
    let version = parts.next()?;
    let trace = parts.next()?;
    let parent = parts.next()?;
    let flags = parts.next()?;
    if parts.next().is_some()
        || version.len() != 2
        || trace.len() != 32
        || parent.len() != 16
        || flags.len() != 2
        || !version.bytes().all(|b| b.is_ascii_hexdigit())
        || !parent.bytes().all(|b| b.is_ascii_hexdigit())
        || !flags.bytes().all(|b| b.is_ascii_hexdigit())
        || version == "ff"
    {
        return None;
    }
    parse_trace_id(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let a = new_trace_id();
        let b = new_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn trace_id_wire_form_round_trips() {
        for id in [1u64, 0xdead_beef, u64::MAX] {
            let wire = format_trace_id(id);
            assert_eq!(wire.len(), 16);
            assert_eq!(parse_trace_id(&wire), Some(id));
        }
        assert_eq!(parse_trace_id("abc"), Some(0xabc));
        // 32-digit ids keep their low 64 bits.
        assert_eq!(
            parse_trace_id("0123456789abcdef0123456789abcdef"),
            Some(0x0123_4567_89ab_cdef)
        );
        for bad in [
            "",
            "0",
            "0000000000000000",
            "xyz",
            "123 456",
            &"a".repeat(33),
        ] {
            assert_eq!(parse_trace_id(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn traceparent_parses_strictly() {
        assert_eq!(
            parse_traceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"),
            Some(0x8448_eb21_1c80_319c)
        );
        for bad in [
            "",
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",
            "00-00000000000000000000000000000000-b7ad6b7169203331-01",
            "00-0af7651916cd43dd8448eb211c80319-b7ad6b7169203331-01",
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333-01",
            "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
            "zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
        ] {
            assert_eq!(parse_traceparent(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn flight_ring_is_bounded_and_ordered() {
        let _g = crate::testutil::lock();
        crate::set_mode(crate::TraceMode::Spans);
        crate::reset();
        for i in 0..(FLIGHT_CAPACITY + 10) {
            let _s = crate::span_with("test.flight", &[("i", i as u64)]);
        }
        let ring = flight_snapshot();
        let snap = crate::drain();
        crate::set_mode(crate::TraceMode::Off);
        // `drain` in spans mode is a dump of the ring.
        assert_eq!(snap.spans, ring);
        assert_eq!(ring.len(), FLIGHT_CAPACITY);
        assert_eq!(
            snap.span_aggregate("test.flight").map(|a| a.count),
            Some(FLIGHT_CAPACITY as u64 + 10)
        );
        // The oldest 10 were evicted.
        assert_eq!(ring.first().and_then(|s| s.attr("i")), Some(10));
        assert_eq!(
            ring.last().and_then(|s| s.attr("i")),
            Some(FLIGHT_CAPACITY as u64 + 9)
        );
        assert!(ring.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(flight_snapshot().is_empty(), "drain empties the ring");
    }

    #[test]
    fn flight_records_spans_even_in_off_mode() {
        let _g = crate::testutil::lock();
        crate::set_mode(crate::TraceMode::Off);
        let was = flight_enabled();
        set_flight_enabled(true);
        crate::reset();
        {
            let _s = crate::span_with("test.flight.off", &[(TRACE_ATTR, 7)]);
        }
        let spans = flight_snapshot();
        let aggregates = crate::snapshot().span_aggregates;
        crate::reset();
        set_flight_enabled(was);
        // Off mode keeps no aggregate…
        assert!(aggregates.iter().all(|a| a.name != "test.flight.off"));
        // …but the flight ring saw the span, attributes intact.
        let span = spans
            .iter()
            .find(|s| s.name == "test.flight.off")
            .expect("flight ring has the span");
        assert_eq!(span.attr(TRACE_ATTR), Some(7));
    }
}
