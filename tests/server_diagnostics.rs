//! Diagnostics-plane contract of the revision service: trace ids
//! flow from the wire envelope (or a W3C `traceparent` header)
//! through every `server.*` span into the always-on flight recorder,
//! the `/debug/*` routes expose traces, logs, and in-flight requests
//! without a restart or `REVKB_TRACE`, the slow log carries per-phase
//! timings joined by trace id, and replica replay spans are joinable
//! to the primary's WAL appends by byte offset.

use revkb::obs;
use revkb::server::{Json, Server, ServerConfig, SyncMode};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The flight recorder and log ring are process-global; tests that
/// inspect or reset them must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn call(server: &Server, line: &str) -> Json {
    let response = server.handle_line(line).expect("request line is not blank");
    Json::parse(&response).unwrap_or_else(|e| panic!("response not JSON ({e}): {response}"))
}

fn trace_of(resp: &Json) -> String {
    resp.get("trace")
        .and_then(Json::as_str)
        .expect("every response envelope carries a trace id")
        .to_string()
}

fn spawn_evloop() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::new(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        server.serve_event_loop(listener).expect("event loop");
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn send_line(stream: &mut TcpStream, line: &str) {
    let framed = format!("{line}\n");
    stream.write_all(framed.as_bytes()).expect("loopback write");
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("loopback read");
    assert!(n > 0, "server closed the connection early");
    line.trim_end().to_string()
}

fn shutdown(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) {
    send_line(stream, r#"{"cmd":"shutdown"}"#);
    let resp = read_line(reader);
    assert!(resp.contains("shutting_down"), "bad shutdown ack: {resp}");
}

/// A client-chosen trace id is echoed verbatim in the envelope and
/// every flight-recorded `server.*` span of that request carries it —
/// with `REVKB_TRACE` disabled, over the plain stdio path.
#[test]
fn stdio_echoes_the_client_trace_and_records_it_in_flight() {
    let _guard = OBS_LOCK.lock().unwrap();
    let prev = obs::mode();
    obs::set_mode(obs::TraceMode::Off);
    obs::reset();

    let server = Server::new(ServerConfig::default());
    call(&server, r#"{"cmd":"load","kb":"k","t":"a & b; b -> c"}"#);
    let resp = call(
        &server,
        r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!b","trace":"00000000000000ff"}"#,
    );
    assert_eq!(trace_of(&resp), "00000000000000ff", "client id echoed");

    // No client id: the server mints a nonzero 16-hex id.
    let minted = trace_of(&call(&server, r#"{"cmd":"query","kb":"k","q":"a"}"#));
    assert_eq!(minted.len(), 16, "{minted}");
    let minted_id = obs::parse_trace_id(&minted).expect("well-formed id");
    assert_ne!(minted_id, 0);

    // The flight recorder (mode Off, no restart) holds the request's
    // span tree tagged with the client's id.
    let spans = obs::flight_snapshot();
    let tagged: Vec<&str> = spans
        .iter()
        .filter(|s| s.attr(obs::TRACE_ATTR) == Some(0xff))
        .map(|s| s.name)
        .collect();
    assert!(
        tagged.contains(&"server.request"),
        "revise request span tagged with the client trace: {tagged:?}"
    );
    assert!(
        tagged.contains(&"server.cmd.revise") && tagged.contains(&"server.compile"),
        "command and compile layers share the trace id: {tagged:?}"
    );
    obs::set_mode(prev);
}

/// A malformed `trace` field is a `bad_request` whose error envelope
/// still carries a (server-minted) trace id.
#[test]
fn malformed_trace_field_is_rejected_with_a_minted_id() {
    let server = Server::new(ServerConfig::default());
    for bad in [r#""""#, r#""xyz""#, r#""0""#, "17", r#""00fg""#] {
        let resp = call(&server, &format!(r#"{{"cmd":"ping","trace":{bad}}}"#));
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "trace {bad} accepted: {resp:?}"
        );
        assert_eq!(resp.get("code").and_then(Json::as_str), Some("bad_request"));
        let minted = trace_of(&resp);
        assert!(obs::parse_trace_id(&minted).is_some(), "{minted}");
    }
}

/// Over the event loop, a pipelined burst echoes each request's own
/// trace id even when completions are reordered.
#[test]
fn pipelined_burst_keeps_traces_with_their_requests() {
    let (addr, handle) = spawn_evloop();
    let (mut stream, mut reader) = connect(addr);
    let mut burst = String::new();
    for i in 1u64..=24 {
        let trace = obs::format_trace_id(0xD000 + i);
        burst.push_str(&format!(
            "{{\"id\":\"r{i}\",\"cmd\":\"load\",\"kb\":\"kb{i}\",\"t\":\"a\",\"trace\":\"{trace}\"}}\n"
        ));
    }
    stream.write_all(burst.as_bytes()).expect("burst write");
    for _ in 0..24 {
        let resp = Json::parse(&read_line(&mut reader)).expect("response JSON");
        let id = resp.get("id").and_then(Json::as_str).expect("echoed id");
        let i: u64 = id[1..].parse().expect("numeric id suffix");
        assert_eq!(
            trace_of(&resp),
            obs::format_trace_id(0xD000 + i),
            "response {id} carries another request's trace"
        );
    }
    shutdown(&mut stream, &mut reader);
    handle.join().expect("serve thread");
}

/// Slow-log entries are joinable to traces and broken into phases:
/// with `slow_ms` zero every request qualifies, and the entry for a
/// degraded revise carries the client's trace id plus queue / compile
/// / solve micros that sum to at most the total.
#[test]
fn slow_log_entries_carry_trace_and_phase_breakdown() {
    let server = Server::new(
        ServerConfig::default()
            .with_compile_timeout_ms(Some(0))
            .with_slow_ms(0)
            .with_slow_log_cap(8),
    );
    call(&server, r#"{"cmd":"load","kb":"k","t":"a & b"}"#);
    let resp = call(
        &server,
        r#"{"cmd":"revise","kb":"k","op":"satoh","p":"!a","trace":"00000000000004d2"}"#,
    );
    assert_eq!(trace_of(&resp), "00000000000004d2");

    let stats = call(&server, r#"{"cmd":"stats"}"#);
    let result = stats.get("result").expect("stats result");
    assert!(
        result.get("uptime_millis").and_then(Json::as_u64).is_some(),
        "stats reports uptime_millis"
    );
    let slow_log = result
        .get("slow_log")
        .and_then(Json::as_array)
        .expect("stats carries slow_log");
    let entry = slow_log
        .iter()
        .find(|e| e.get("trace").and_then(Json::as_str) == Some("00000000000004d2"))
        .expect("the traced revise is in the slow_log");
    assert_eq!(entry.get("cmd").and_then(Json::as_str), Some("revise"));
    let micros = |k: &str| {
        entry
            .get(k)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("slow_log entry missing {k}: {entry:?}"))
    };
    let total = micros("micros");
    assert!(
        micros("queue_micros") + micros("compile_micros") + micros("solve_micros") <= total,
        "phases exceed the total: {entry:?}"
    );
}

/// Queue time covers the event loop's hand-off to its workers: on a
/// one-worker server, a pipelined burst waits in the worker channel,
/// and the slow log charges that wait to `queue_micros`, inside each
/// request's end-to-end total.
#[test]
fn pipelined_burst_charges_the_worker_hand_off_to_queue_time() {
    const BURST: usize = 48;
    let server = Server::new(
        ServerConfig::default()
            .with_threads(1)
            .with_slow_ms(0)
            .with_slow_log_cap(4 * BURST),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        server.serve_event_loop(listener).expect("event loop");
    });
    let (mut stream, mut reader) = connect(addr);
    send_line(
        &mut stream,
        r#"{"cmd":"load","kb":"k","t":"a & (b | c) & (d -> e)"}"#,
    );
    assert!(read_line(&mut reader).contains("\"ok\":true"));

    let letters = ["a", "!b", "c", "d", "!e"];
    let mut burst = String::new();
    for i in 0..BURST {
        let q = format!(
            "{} | {} -> {}",
            letters[i % 5],
            letters[(i / 5) % 5],
            letters[(i / 25) % 5]
        );
        burst.push_str(&format!(
            "{{\"cmd\":\"query\",\"kb\":\"k\",\"q\":\"{q}\"}}\n"
        ));
    }
    stream.write_all(burst.as_bytes()).expect("burst write");
    for _ in 0..BURST {
        assert!(read_line(&mut reader).contains("\"ok\":true"));
    }

    send_line(&mut stream, r#"{"cmd":"stats"}"#);
    let stats = Json::parse(&read_line(&mut reader)).expect("stats JSON");
    let slow_log = stats
        .get("result")
        .and_then(|r| r.get("slow_log"))
        .and_then(Json::as_array)
        .expect("stats carries slow_log");
    let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_u64).expect(k);
    let mut queries: Vec<&Json> = slow_log
        .iter()
        .filter(|e| e.get("cmd").and_then(Json::as_str) == Some("query"))
        .collect();
    queries.sort_by_key(|e| field(e, "req"));
    assert_eq!(queries.len(), BURST, "every query is in the slow log");
    for e in &queries {
        assert!(
            field(e, "micros") >= field(e, "queue_micros") + field(e, "compile_micros"),
            "phases exceed the total: {e:?}"
        );
    }
    let waited = queries[1..]
        .iter()
        .filter(|e| field(e, "queue_micros") > 0)
        .count();
    assert!(
        2 * waited > BURST - 1,
        "later requests of the burst waited for the one worker: {queries:?}"
    );
    shutdown(&mut stream, &mut reader);
    handle.join().expect("serve thread");
}

/// The log ring is bounded and level-filtered: overfilling it keeps
/// only the newest `LOG_RING_CAPACITY` records, and records below the
/// configured level are never recorded.
#[test]
fn log_ring_is_bounded_and_filters_by_level() {
    let _guard = OBS_LOCK.lock().unwrap();
    let prev = obs::log_level();
    obs::set_log_level(obs::Level::Debug);
    obs::log_ring_reset();

    let n = obs::LOG_RING_CAPACITY + 50;
    for i in 0..n {
        obs::debug("diag-test", Some(i as u64 + 1), || format!("record {i}"));
    }
    let ring = obs::log_ring_snapshot();
    assert_eq!(ring.len(), obs::LOG_RING_CAPACITY, "ring is bounded");
    assert_eq!(
        ring.last().map(|r| r.msg.as_str()),
        Some(format!("record {}", n - 1).as_str()),
        "newest record survives"
    );
    assert_eq!(
        ring.first().map(|r| r.msg.as_str()),
        Some(format!("record {}", n - obs::LOG_RING_CAPACITY).as_str()),
        "oldest records are evicted in order"
    );
    for r in &ring {
        assert!(
            obs::validate_json(&r.render_json()),
            "{:?}",
            r.render_json()
        );
    }

    // Below-level records are dropped at the gate.
    obs::log_ring_reset();
    obs::set_log_level(obs::Level::Warn);
    assert!(!obs::log_enabled(obs::Level::Debug));
    obs::debug("diag-test", None, || "suppressed".to_string());
    obs::warn("diag-test", None, || "kept".to_string());
    let ring = obs::log_ring_snapshot();
    assert_eq!(ring.len(), 1, "{ring:?}");
    assert_eq!(ring[0].msg, "kept");
    obs::set_log_level(prev);
}

/// The three `/debug/*` routes answer valid JSON while the server is
/// under churn, with `REVKB_TRACE` disabled: the flight recorder
/// renders as a loadable Chrome trace, the log tail honours `level`
/// and `trace` filters, and the requests view exposes the slow log.
#[test]
fn debug_routes_answer_valid_json_under_churn() {
    let _guard = OBS_LOCK.lock().unwrap();
    let prev_mode = obs::mode();
    let prev_level = obs::log_level();
    obs::set_mode(obs::TraceMode::Off);
    obs::set_log_level(obs::Level::Debug);
    obs::reset();
    obs::log_ring_reset();

    let server = Server::new(
        ServerConfig::default()
            .with_slow_ms(0)
            .with_slow_log_cap(64),
    );
    call(&server, r#"{"cmd":"load","kb":"k","t":"a & b; b -> c"}"#);
    for i in 0..40 {
        let trace = obs::format_trace_id(0xE00 + i);
        call(
            &server,
            &format!(r#"{{"cmd":"query","kb":"k","q":"a","trace":"{trace}"}}"#),
        );
    }
    obs::warn("diag-churn", Some(0xE05), || "traced warning".to_string());
    obs::debug("diag-churn", None, || "untraced debug".to_string());

    // /debug/trace.json: a valid Chrome trace with the query spans.
    let resp = server.metrics_route("/debug/trace.json", "");
    assert_eq!(resp.status, 200);
    assert!(obs::validate_json(&resp.body), "{}", resp.body);
    let doc = Json::parse(&resp.body).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let traced = events
        .iter()
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Json::as_u64)
                == Some(0xE05)
        })
        .count();
    assert!(traced >= 1, "query 0xE05 missing from the flight recorder");

    // /debug/logs.json: full tail, then level- and trace-filtered.
    let resp = server.metrics_route("/debug/logs.json", "");
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.body).expect("logs JSON parses");
    let count = doc.get("count").and_then(Json::as_u64).expect("count");
    assert!(count >= 2, "{}", resp.body);

    let resp = server.metrics_route("/debug/logs.json", "level=warn");
    let doc = Json::parse(&resp.body).expect("filtered logs parse");
    let logs = doc.get("logs").and_then(Json::as_array).expect("logs");
    assert!(!logs.is_empty());
    for r in logs {
        let level = r.get("level").and_then(Json::as_str).expect("level");
        assert!(
            level == "error" || level == "warn",
            "level filter leaked {level}"
        );
    }

    let resp = server.metrics_route("/debug/logs.json", "trace=0000000000000e05");
    let doc = Json::parse(&resp.body).expect("trace-filtered logs parse");
    let logs = doc.get("logs").and_then(Json::as_array).expect("logs");
    assert_eq!(logs.len(), 1, "{}", resp.body);
    assert_eq!(
        logs[0].get("msg").and_then(Json::as_str),
        Some("traced warning")
    );

    // /debug/requests.json: slow log (slow_ms 0 ⇒ everything) with
    // trace ids, plus the (empty at rest) in-flight table.
    let resp = server.metrics_route("/debug/requests.json", "");
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.body).expect("requests JSON parses");
    assert_eq!(doc.get("slow_ms").and_then(Json::as_u64), Some(0));
    let slow = doc
        .get("slow_log")
        .and_then(Json::as_array)
        .expect("slow_log");
    assert!(!slow.is_empty());
    assert!(slow
        .iter()
        .any(|e| e.get("trace").and_then(Json::as_str) == Some("0000000000000e05")));
    assert!(doc
        .get("in_flight")
        .and_then(Json::as_array)
        .expect("in_flight")
        .is_empty());

    // Unknown debug paths stay 404.
    assert_eq!(server.metrics_route("/debug/nope.json", "").status, 404);

    obs::log_ring_reset();
    obs::set_log_level(prev_level);
    obs::set_mode(prev_mode);
}

/// Replica replay is joinable to the primary's WAL by byte offset:
/// every `repl.replay` span on the replica names a `wal_offset` at
/// which the primary recorded a `wal.append` span.
#[test]
fn replica_replay_spans_join_primary_appends_by_wal_offset() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::reset();

    let dir = std::env::temp_dir().join(format!("revkb-diag-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pdir = dir.join("primary");
    let rdir = dir.join("replica");
    let config = |d: &std::path::Path| {
        ServerConfig::default()
            .with_data_dir(Some(d.to_path_buf()))
            .with_wal_sync(SyncMode::Off)
    };

    let primary = Server::open(config(&pdir)).expect("open primary");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind primary");
    let addr = listener.local_addr().expect("primary addr");
    let srv = primary.clone();
    let serve = std::thread::spawn(move || srv.serve_event_loop(listener));

    call(&primary, r#"{"cmd":"load","kb":"k","t":"a; a -> b"}"#);
    call(
        &primary,
        r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!b"}"#,
    );
    call(&primary, r#"{"cmd":"load","kb":"doomed","t":"a"}"#);
    call(&primary, r#"{"cmd":"drop","kb":"doomed"}"#);

    let appended: Vec<u64> = obs::flight_snapshot()
        .iter()
        .filter(|s| s.name == "wal.append")
        .map(|s| s.attr("wal_offset").expect("wal.append has wal_offset"))
        .collect();
    assert_eq!(appended.len(), 4, "one append per committed op");

    let committed = primary
        .wal_committed_bytes()
        .expect("durable primary reports its log length");
    let replica =
        Server::open(config(&rdir).with_replica_of(Some(addr.to_string()))).expect("open replica");
    let repl_thread = replica.start_replication().expect("replica replicates");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = replica.replication_status().expect("status");
        if status.offset == committed {
            break;
        }
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }

    let replayed: Vec<u64> = obs::flight_snapshot()
        .iter()
        .filter(|s| s.name == "repl.replay")
        .map(|s| s.attr("wal_offset").expect("repl.replay has wal_offset"))
        .collect();
    assert_eq!(
        replayed.len(),
        appended.len(),
        "every shipped record replays exactly once"
    );
    for offset in &replayed {
        assert!(
            appended.contains(offset),
            "replayed offset {offset} matches no primary append in {appended:?}"
        );
    }

    replica.begin_shutdown();
    repl_thread.join().expect("replication thread");
    call(&primary, r#"{"cmd":"shutdown"}"#);
    serve
        .join()
        .expect("primary thread")
        .expect("event loop exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------
// HTTP gateway (Linux: the gateway lives on the epoll front end).
// ---------------------------------------------------------------

#[cfg(target_os = "linux")]
mod http_gateway {
    use super::*;

    fn read_http(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status_line = String::new();
        let n = reader.read_line(&mut status_line).expect("status line");
        assert!(n > 0, "server closed before a response");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("header line");
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("content-length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8_lossy(&body).into_owned())
    }

    fn post_with_headers(stream: &mut TcpStream, path: &str, extra: &str, body: &str) {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\n{extra}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("http write");
    }

    /// A W3C `traceparent` header is honoured: the envelope echoes
    /// the low 64 bits of its trace-id, and with `REVKB_TRACE` unset
    /// the flight recorder still holds that request's span tree.
    #[test]
    fn traceparent_joins_the_envelope_and_the_flight_recorder() {
        let _guard = OBS_LOCK.lock().unwrap();
        obs::reset();

        let (addr, handle) = spawn_evloop();
        let (mut stream, mut reader) = connect(addr);
        post_with_headers(
            &mut stream,
            "/v1/load",
            "traceparent: 00-0123456789abcdef00000000deadbeef-00f067aa0ba902b7-01\r\n",
            r#"{"kb":"h","t":"a & b"}"#,
        );
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200, "{body}");
        let json = Json::parse(body.trim()).expect("envelope JSON");
        assert_eq!(
            trace_of(&json),
            "00000000deadbeef",
            "low 64 bits of the traceparent trace-id"
        );

        // An explicit body trace beats the header.
        post_with_headers(
            &mut stream,
            "/v1/query",
            "traceparent: 00-0123456789abcdef00000000deadbeef-00f067aa0ba902b7-01\r\n",
            r#"{"kb":"h","q":"a","trace":"0000000000000bad"}"#,
        );
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        let json = Json::parse(body.trim()).expect("envelope JSON");
        assert_eq!(trace_of(&json), "0000000000000bad");

        // /debug/trace.json over the same gateway shows the header's
        // trace with REVKB_TRACE unset.
        stream
            .write_all(b"GET /debug/trace.json HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("GET write");
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        let doc = Json::parse(body.trim()).expect("chrome trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        assert!(
            events.iter().any(|e| e
                .get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Json::as_u64)
                == Some(0xDEAD_BEEF)),
            "traceparent request missing from the flight recorder"
        );

        let (mut ctl, mut ctl_reader) = connect(addr);
        shutdown(&mut ctl, &mut ctl_reader);
        handle.join().expect("serve thread");
    }

    /// A malformed `traceparent` is refused with 400 — and the
    /// keep-alive connection survives to answer the next request.
    #[test]
    fn malformed_traceparent_is_a_400_that_spares_the_connection() {
        let (addr, handle) = spawn_evloop();
        let (mut stream, mut reader) = connect(addr);
        for bad in [
            "zz-0123456789abcdef00000000deadbeef-00f067aa0ba902b7-01",
            "00-short-00f067aa0ba902b7-01",
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
            "ff-0123456789abcdef00000000deadbeef-00f067aa0ba902b7-01",
            "not a traceparent at all",
        ] {
            post_with_headers(
                &mut stream,
                "/v1/ping",
                &format!("traceparent: {bad}\r\n"),
                "{}",
            );
            let (status, body) = read_http(&mut reader);
            assert_eq!(status, 400, "traceparent {bad:?} accepted: {body}");
            assert!(body.contains("malformed traceparent"), "{body}");
        }
        // Same connection, well-formed request: still served.
        post_with_headers(&mut stream, "/v1/ping", "", "{}");
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200, "connection died after the 400s: {body}");

        let (mut ctl, mut ctl_reader) = connect(addr);
        shutdown(&mut ctl, &mut ctl_reader);
        handle.join().expect("serve thread");
    }

    /// `/metrics` exposes the build-info gauge and the uptime counter
    /// next to the existing request counters.
    #[test]
    fn metrics_carry_build_info_and_uptime() {
        let (addr, handle) = spawn_evloop();
        let (mut stream, mut reader) = connect(addr);
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("GET write");
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        assert!(
            body.contains("revkb_build_info{") && body.contains("version=\""),
            "{body}"
        );
        assert!(body.contains("revkb_uptime_seconds"), "{body}");
        let (mut ctl, mut ctl_reader) = connect(addr);
        shutdown(&mut ctl, &mut ctl_reader);
        handle.join().expect("serve thread");
    }
}
