//! Leveled structured logging: NDJSON records with a bounded
//! in-memory ring, an optional log file, and stderr passthrough.
//!
//! Replaces the server's ad-hoc `eprintln!` diagnostics. Every record
//! carries a timestamp, a level, a target (the subsystem that emitted
//! it), an optional trace id joining it to the request's span tree,
//! and the human-readable message. Three sinks, decoupled:
//!
//! * **stderr** gets the message text verbatim (so existing operator
//!   greps keep working byte-for-byte at the default level);
//! * the **ring** keeps the last [`LOG_RING_CAPACITY`] records for
//!   `/debug/logs.json`;
//! * the optional **file** ([`set_log_file`], `--log-file`) receives
//!   one NDJSON line per record, written unbuffered so a SIGKILL'd
//!   process still leaves a parseable prefix.
//!
//! The level gate (`REVKB_LOG`, default `info`) is the same
//! single-relaxed-load pattern as the trace mode: a suppressed
//! `debug` call never formats its message (the message is built by a
//! closure evaluated only past the gate).

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Environment variable selecting the log level (`error`, `warn`,
/// `info`, `debug`). Unset or unrecognised values mean `info`.
pub const LOG_ENV: &str = "REVKB_LOG";

/// How many records the in-memory ring retains (oldest evicted
/// first).
pub const LOG_RING_CAPACITY: usize = 1024;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed and data or service was affected.
    Error = 0,
    /// Something went wrong but the server routed around it.
    Warn = 1,
    /// Lifecycle events an operator wants in the journal. The default.
    Info = 2,
    /// Per-request chatter for live debugging.
    Debug = 3,
}

impl Level {
    /// The level's name as accepted by `REVKB_LOG` and rendered in
    /// NDJSON records.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse a `REVKB_LOG` value; unknown strings are `None`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            3 => Level::Debug,
            _ => Level::Info,
        }
    }
}

const LEVEL_UNINIT: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

/// The current log level (initialised from `REVKB_LOG` on first
/// call). Hot-path gate: a single relaxed atomic load.
#[inline]
pub fn log_level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw == LEVEL_UNINIT {
        init_level_from_env()
    } else {
        Level::from_u8(raw)
    }
}

#[cold]
fn init_level_from_env() -> Level {
    let level = std::env::var(LOG_ENV)
        .ok()
        .as_deref()
        .and_then(Level::parse)
        .unwrap_or(Level::Info);
    LEVEL.store(level as u8, Ordering::Relaxed);
    level
}

/// Override the log level in-process (tests, binaries with flags).
pub fn set_log_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Would a record at `level` be emitted right now?
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level <= log_level()
}

/// One emitted log record, as retained in the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Wall-clock milliseconds since the Unix epoch.
    pub ts_millis: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem (e.g. `"server"`, `"wal"`, `"repl"`).
    pub target: &'static str,
    /// Trace id of the request this record belongs to, if any.
    pub trace: Option<u64>,
    /// Human-readable message (also what stderr shows verbatim).
    pub msg: String,
}

impl LogRecord {
    /// Render the record as one NDJSON line (no trailing newline):
    /// `{"ts":…,"level":"…","target":"…","trace":"…","msg":"…"}` with
    /// `trace` omitted when absent.
    pub fn render_json(&self) -> String {
        let mut line = String::with_capacity(self.msg.len() + 64);
        line.push_str("{\"ts\":");
        line.push_str(&self.ts_millis.to_string());
        line.push_str(",\"level\":\"");
        line.push_str(self.level.name());
        line.push_str("\",\"target\":\"");
        line.push_str(self.target);
        line.push('"');
        if let Some(trace) = self.trace {
            line.push_str(",\"trace\":\"");
            line.push_str(&crate::trace::format_trace_id(trace));
            line.push('"');
        }
        line.push_str(",\"msg\":");
        crate::json::escape_into(&self.msg, &mut line);
        line.push('}');
        line
    }
}

static RING: Mutex<VecDeque<LogRecord>> = Mutex::new(VecDeque::new());
static FILE: Mutex<Option<File>> = Mutex::new(None);

/// Open (append) `path` as the NDJSON log file. Every subsequent
/// record is written to it as one line, unbuffered — a crash loses at
/// most the record being written.
pub fn set_log_file(path: &Path) -> io::Result<()> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    *FILE.lock().expect("log file poisoned") = Some(file);
    Ok(())
}

/// Drop the log file sink (tests).
pub fn clear_log_file() {
    *FILE.lock().expect("log file poisoned") = None;
}

fn epoch_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Emit one record. The message closure runs only when `level` passes
/// the gate, so suppressed records never format. The message goes to
/// stderr verbatim; the structured record goes to the ring and the
/// log file.
pub fn log(level: Level, target: &'static str, trace: Option<u64>, msg: impl FnOnce() -> String) {
    if !log_enabled(level) {
        return;
    }
    emit(level, target, trace, msg());
}

#[cold]
fn emit(level: Level, target: &'static str, trace: Option<u64>, msg: String) {
    eprintln!("{msg}");
    let record = LogRecord {
        ts_millis: epoch_millis(),
        level,
        target,
        trace,
        msg,
    };
    {
        let mut file = FILE.lock().expect("log file poisoned");
        if let Some(file) = file.as_mut() {
            let mut line = record.render_json();
            line.push('\n');
            let _ = file.write_all(line.as_bytes());
        }
    }
    let mut ring = RING.lock().expect("log ring poisoned");
    while ring.len() >= LOG_RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(record);
}

/// Emit at [`Level::Error`].
pub fn error(target: &'static str, trace: Option<u64>, msg: impl FnOnce() -> String) {
    log(Level::Error, target, trace, msg);
}

/// Emit at [`Level::Warn`].
pub fn warn(target: &'static str, trace: Option<u64>, msg: impl FnOnce() -> String) {
    log(Level::Warn, target, trace, msg);
}

/// Emit at [`Level::Info`].
pub fn info(target: &'static str, trace: Option<u64>, msg: impl FnOnce() -> String) {
    log(Level::Info, target, trace, msg);
}

/// Emit at [`Level::Debug`].
pub fn debug(target: &'static str, trace: Option<u64>, msg: impl FnOnce() -> String) {
    log(Level::Debug, target, trace, msg);
}

/// The ring's current contents, oldest first.
pub fn log_ring_snapshot() -> Vec<LogRecord> {
    RING.lock()
        .expect("log ring poisoned")
        .iter()
        .cloned()
        .collect()
}

/// Empty the ring (tests).
pub fn log_ring_reset() {
    RING.lock().expect("log ring poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_order() {
        assert_eq!(Level::parse("ERROR"), Some(Level::Error));
        assert_eq!(Level::parse(" warn "), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        for level in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(level.name()), Some(level));
            assert_eq!(Level::from_u8(level as u8), level);
        }
    }

    #[test]
    fn suppressed_records_never_format() {
        let _g = crate::testutil::lock();
        let was = log_level();
        set_log_level(Level::Info);
        log_ring_reset();
        let mut ran = false;
        debug("test", None, || {
            ran = true;
            "should not format".to_string()
        });
        assert!(!ran, "suppressed level formatted its message");
        assert!(log_ring_snapshot().is_empty());
        set_log_level(was);
    }

    #[test]
    fn ring_is_bounded_and_filterable() {
        let _g = crate::testutil::lock();
        let was = log_level();
        set_log_level(Level::Error);
        log_ring_reset();
        for i in 0..(LOG_RING_CAPACITY + 5) {
            error("test", Some(9), move || format!("record {i}"));
        }
        let records = log_ring_snapshot();
        assert_eq!(records.len(), LOG_RING_CAPACITY);
        assert_eq!(records[0].msg, "record 5", "oldest five evicted");
        assert!(records.iter().all(|r| r.trace == Some(9)));
        log_ring_reset();
        set_log_level(was);
    }

    #[test]
    fn ndjson_shape_is_pinned() {
        let record = LogRecord {
            ts_millis: 1234,
            level: Level::Warn,
            target: "wal",
            trace: Some(0xabc),
            msg: "say \"hi\"\n".to_string(),
        };
        assert_eq!(
            record.render_json(),
            r#"{"ts":1234,"level":"warn","target":"wal","trace":"0000000000000abc","msg":"say \"hi\"\n"}"#
        );
        let plain = LogRecord {
            ts_millis: 1,
            level: Level::Info,
            target: "server",
            trace: None,
            msg: "up".to_string(),
        };
        assert_eq!(
            plain.render_json(),
            r#"{"ts":1,"level":"info","target":"server","msg":"up"}"#
        );
        assert!(crate::validate_json(&record.render_json()));
        assert!(crate::validate_json(&plain.render_json()));
    }

    #[test]
    fn log_file_receives_ndjson_lines() {
        let _g = crate::testutil::lock();
        let was = log_level();
        set_log_level(Level::Info);
        log_ring_reset();
        let dir = std::env::temp_dir().join(format!("revkb-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.ndjson");
        let _ = std::fs::remove_file(&path);
        set_log_file(&path).unwrap();
        info("test", Some(0x1234), || "file line one".to_string());
        warn("test", None, || "file line two".to_string());
        clear_log_file();
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(crate::validate_json(line), "not JSON: {line}");
        }
        assert!(lines[0].contains("\"trace\":\"0000000000001234\""));
        assert!(lines[1].contains("\"level\":\"warn\""));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
        log_ring_reset();
        set_log_level(was);
    }
}
