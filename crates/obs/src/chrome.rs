//! Chrome trace-event export (`chrome://tracing` / Perfetto).
//!
//! A trace is a dump of the flight ring: span events render as `"X"`
//! (complete) events with microsecond timestamps; counters render as
//! one `"C"` event so the totals are visible alongside the timeline.
//! Everything lives under `pid` 1 with `tid` equal to the recording
//! thread's ordinal.

use crate::json::escape_into;
use crate::span::SpanEvent;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Environment variable naming the trace output file (default
/// `trace.json`).
pub const TRACE_FILE_ENV: &str = "REVKB_TRACE_FILE";

/// Where the Chrome trace should be written: `$REVKB_TRACE_FILE`, or
/// `trace.json` in the current directory.
pub fn trace_file_path() -> PathBuf {
    std::env::var_os(TRACE_FILE_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("trace.json"))
}

/// Render spans (as [`crate::flight_snapshot`] orders them) and
/// `(name, value)` counters in the Chrome trace-event JSON format.
pub fn chrome_trace(spans: &[SpanEvent], counters: &[(&str, u64)]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":");
        escape_into(s.name, &mut out);
        // ts/dur are microseconds (floats allowed; we emit integers).
        out.push_str(&format!(
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"depth\":{}",
            s.thread,
            s.start_ns / 1_000,
            (s.dur_ns / 1_000).max(1),
            s.depth
        ));
        for (k, v) in &s.attrs {
            out.push(',');
            escape_into(k, &mut out);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("}}");
    }
    if !counters.is_empty() {
        let ts = spans.iter().map(|s| s.start_ns / 1_000).max().unwrap_or(0);
        if !first {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"revkb counters\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{ts},\"args\":{{"
        ));
        for (i, (name, v)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(name, &mut out);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Write the Chrome trace of `spans` and `counters` to `path`,
/// durably: the file is `sync_all`ed before close so a crash or hard
/// kill right after the server exits cannot leave a truncated trace,
/// and any sync error is returned instead of being swallowed by the
/// implicit close.
pub fn write_chrome_trace(
    path: &Path,
    spans: &[SpanEvent],
    counters: &[(&str, u64)],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(chrome_trace(spans, counters).as_bytes())?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use crate::TraceMode;

    static CHROME_C: crate::Counter = crate::Counter::new("chrome.test.counter");

    #[test]
    fn chrome_trace_is_valid_json_with_events() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Chrome);
        crate::reset();
        CHROME_C.inc();
        {
            let _root = crate::span("chrome.test.root");
            let _child = crate::span("chrome.test.child");
        }
        let snap = crate::drain();
        crate::set_mode(TraceMode::Off);
        let trace = super::chrome_trace(&snap.spans, &snap.counters);
        assert!(crate::validate_json(&trace), "invalid trace: {trace}");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"chrome.test.root\""));
        assert!(trace.contains("\"chrome.test.child\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"chrome.test.counter\":1"));
    }

    #[test]
    fn write_chrome_trace_lands_complete_on_disk() {
        let _g = crate::testutil::lock();
        crate::set_mode(TraceMode::Chrome);
        crate::reset();
        {
            let _s = crate::span("chrome.test.disk");
        }
        let snap = crate::drain();
        crate::set_mode(TraceMode::Off);
        let path = std::env::temp_dir().join(format!("revkb-trace-{}.json", std::process::id()));
        super::write_chrome_trace(&path, &snap.spans, &snap.counters).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, super::chrome_trace(&snap.spans, &snap.counters));
        assert!(crate::validate_json(&on_disk));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_file_path_defaults_to_trace_json() {
        if std::env::var_os(super::TRACE_FILE_ENV).is_none() {
            assert_eq!(
                super::trace_file_path(),
                std::path::PathBuf::from("trace.json")
            );
        }
    }
}
