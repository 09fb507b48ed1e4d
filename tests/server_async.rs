//! The epoll event loop front end: pipelining against a sequential
//! oracle, byte-identical behaviour versus in-process
//! `Server::handle_line` across all eight revision operators and the
//! rejection paths (over NDJSON and the HTTP gateway alike), protocol
//! version negotiation, NDJSON line bounds, and the HTTP/1.1 gateway
//! (data-plane routes, keep-alive, and a malformed-request battery).
//!
//! Every test talks to a real listener over loopback TCP — the same
//! bytes a foreign client would send — so the serialization boundary
//! is part of what is under test.

use revkb::server::{Json, Server, ServerConfig, PROTOCOL_VERSION};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// The eight revision operators, as on the wire.
const OPERATORS: [&str; 8] = [
    "winslett", "borgida", "forbus", "satoh", "dalal", "weber", "gfuv", "widtio",
];

/// Serve a fresh server on a loopback listener; returns the address
/// and the join handle (the loop exits after `shutdown`).
fn spawn_event_loop() -> (SocketAddr, std::thread::JoinHandle<()>) {
    spawn_event_loop_with(ServerConfig::default())
}

/// [`spawn_event_loop`] for a server built with `config`.
fn spawn_event_loop_with(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::new(config);
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
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("set read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn send_line(stream: &mut TcpStream, line: &str) {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
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

/// The differential script: every revision operator compiled, queried
/// and batch-queried, plus the list/drop bookkeeping around them.
/// Responses carry no wall-clock fields, and every line supplies an
/// explicit trace id (a server-minted one would differ run to run —
/// even on the rejected `warp` line, whose trace must be salvaged),
/// so a fresh server answers the script deterministically.
fn differential_script() -> Vec<String> {
    let mut script = Vec::new();
    for (i, op) in OPERATORS.iter().enumerate() {
        script.push(format!(
            r#"{{"id":"load-{op}","trace":"1{i}","cmd":"load","kb":"kb-{op}","t":"a & b; b -> c"}}"#
        ));
        script.push(format!(
            r#"{{"id":"revise-{op}","trace":"2{i}","cmd":"revise","kb":"kb-{op}","op":"{op}","p":"!b | !c"}}"#
        ));
        script.push(format!(
            r#"{{"id":"query-{op}","trace":"3{i}","cmd":"query","kb":"kb-{op}","q":"a"}}"#
        ));
        script.push(format!(
            r#"{{"id":"batch-{op}","trace":"4{i}","cmd":"query_batch","kb":"kb-{op}","qs":["a","!a","b -> a"]}}"#
        ));
        if i % 2 == 0 {
            script.push(format!(
                r#"{{"id":"drop-{op}","trace":"5{i}","cmd":"drop","kb":"kb-{op}"}}"#
            ));
        }
    }
    script.push(r#"{"id":"list","trace":"91","cmd":"list"}"#.to_string());
    script.push(r#"{"id":"bad","trace":"92","cmd":"warp"}"#.to_string());
    script.push(r#"{"id":"hello","trace":"93","cmd":"hello"}"#.to_string());
    script
}

/// The event loop answers the differential script byte-for-byte as
/// `Server::handle_line` does on a fresh in-process server — same
/// envelopes, same `req` numbering, same error text — across all
/// eight operators.
#[test]
fn event_loop_matches_handle_line() {
    let (addr, handle) = spawn_event_loop();
    let (mut stream, mut reader) = connect(addr);
    let mut over_tcp = Vec::new();
    for line in differential_script() {
        send_line(&mut stream, &line);
        over_tcp.push(read_line(&mut reader));
    }
    shutdown(&mut stream, &mut reader);
    handle.join().expect("serve thread");

    let in_process = Server::new(ServerConfig::default());
    let oracle: Vec<String> = differential_script()
        .iter()
        .map(|line| in_process.handle_line(line).expect("non-blank line"))
        .collect();
    assert_eq!(over_tcp.len(), oracle.len());
    for (tcp, direct) in over_tcp.iter().zip(&oracle) {
        assert_eq!(tcp, direct, "event loop diverged from handle_line");
    }
}

/// Pipelining oracle: the whole script sent in ONE write, answers
/// collected and matched by echoed id against the one-at-a-time
/// transcript. The event loop may answer out of order (responses are
/// written in completion order), so the comparison keys on `id` and
/// checks the `req` ordering is a permutation of 1..=n.
#[test]
fn pipelined_burst_matches_sequential_oracle() {
    let script = differential_script();

    // Sequential oracle.
    let (addr, handle) = spawn_event_loop();
    let (mut stream, mut reader) = connect(addr);
    let mut oracle = std::collections::HashMap::new();
    for line in &script {
        send_line(&mut stream, line);
        let resp = read_line(&mut reader);
        let json = Json::parse(&resp).expect("response is JSON");
        let id = json
            .get("id")
            .and_then(Json::as_str)
            .expect("echoed id")
            .to_string();
        oracle.insert(id, json);
    }
    shutdown(&mut stream, &mut reader);
    handle.join().expect("serve thread");

    // One burst, same script, fresh server.
    let (addr, handle) = spawn_event_loop();
    let (mut stream, mut reader) = connect(addr);
    let burst: String = script.iter().map(|l| format!("{l}\n")).collect();
    stream.write_all(burst.as_bytes()).expect("burst write");
    let mut reqs = Vec::new();
    for _ in 0..script.len() {
        let resp = read_line(&mut reader);
        let json = Json::parse(&resp).expect("response is JSON");
        let id = json
            .get("id")
            .and_then(Json::as_str)
            .expect("echoed id")
            .to_string();
        reqs.push(json.get("req").and_then(Json::as_u64).expect("req field"));
        let expected = oracle.get(&id).unwrap_or_else(|| panic!("unknown id {id}"));
        // `req` numbering depends on completion order; everything else
        // must match the sequential answer exactly.
        let strip = |j: &Json| {
            let Json::Obj(pairs) = j.clone() else {
                panic!("envelope is an object")
            };
            Json::Obj(pairs.into_iter().filter(|(k, _)| k != "req").collect())
        };
        assert_eq!(strip(&json), strip(expected), "for id {id}");
    }
    // Each request was counted exactly once.
    reqs.sort_unstable();
    assert_eq!(reqs, (1..=script.len() as u64).collect::<Vec<_>>());
    shutdown(&mut stream, &mut reader);
    handle.join().expect("serve thread");
}

/// `hello` negotiation and the `v` field: in-range versions answered,
/// out-of-range versions rejected with a stable error, every envelope
/// stamped with the current protocol version.
#[test]
fn version_negotiation() {
    let (addr, handle) = spawn_event_loop();
    let (mut stream, mut reader) = connect(addr);

    send_line(&mut stream, r#"{"id":1,"cmd":"hello"}"#);
    let hello = Json::parse(&read_line(&mut reader)).expect("hello JSON");
    assert_eq!(hello.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        hello.get("v").and_then(Json::as_u64),
        Some(PROTOCOL_VERSION)
    );
    let result = hello.get("result").expect("hello result");
    assert_eq!(
        result.get("server").and_then(Json::as_str),
        Some("revkb-server")
    );
    assert_eq!(
        result.get("protocol").and_then(Json::as_u64),
        Some(PROTOCOL_VERSION)
    );
    assert_eq!(result.get("min_protocol").and_then(Json::as_u64), Some(1));
    let features = result
        .get("features")
        .and_then(Json::as_array)
        .expect("features array");
    assert!(features.iter().any(|f| f.as_str() == Some("pipelining")));

    // Both supported versions answer; the future one is refused.
    for (v, ok) in [(1, true), (2, true), (99, false)] {
        send_line(&mut stream, &format!(r#"{{"id":2,"cmd":"ping","v":{v}}}"#));
        let resp = Json::parse(&read_line(&mut reader)).expect("ping JSON");
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(ok),
            "version {v}"
        );
        if !ok {
            assert_eq!(resp.get("code").and_then(Json::as_str), Some("bad_request"));
            let error = resp.get("error").and_then(Json::as_str).expect("error");
            assert!(error.contains("unsupported protocol version"), "{error}");
        }
    }
    shutdown(&mut stream, &mut reader);
    handle.join().expect("serve thread");
}

/// The transport-agnostic entry point answers exactly like the line
/// protocol: one `execute` call per parsed request, same envelope.
#[test]
fn execute_matches_line_transport() {
    use revkb::server::protocol::parse_request;
    let by_line = Server::new(ServerConfig::default());
    let by_call = Server::new(ServerConfig::default());
    for line in differential_script() {
        let over_line = by_line.handle_line(&line).expect("non-blank line");
        match parse_request(&line) {
            Ok(request) => {
                assert_eq!(by_call.execute(&request).render(), over_line);
            }
            Err(_) => {
                // `execute` takes parsed requests only; the reject path
                // stays behind `handle_line`. Keep the req counters in
                // step for the remaining lines.
                assert_eq!(by_call.handle_line(&line).expect("non-blank"), over_line);
            }
        }
    }
}

/// A request line is capped at the HTTP gateway's body bound
/// (1 MiB): 2 MiB with no newline, or one byte over the cap with its
/// newline, is answered `line_too_long` and the connection closed,
/// and the server goes on serving other connections.
#[test]
fn overlong_line_is_refused_and_the_server_keeps_serving() {
    const CAP: usize = 1024 * 1024;
    let (addr, handle) = spawn_event_loop();
    for (len, newline) in [(2 * CAP, false), (CAP + 1, true)] {
        let (stream, mut reader) = connect(addr);
        let writer = {
            let mut stream = stream.try_clone().expect("clone stream");
            std::thread::spawn(move || {
                let mut line = br#"{"cmd":"load","kb":"k","t":""#.to_vec();
                line.resize(len, b'a');
                if newline {
                    line.push(b'\n');
                }
                // The server stops reading past the cap and closes the
                // connection, so the tail of this write may fail.
                let _ = stream.write_all(&line);
            })
        };
        let resp = Json::parse(&read_line(&mut reader)).expect("response JSON");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            resp.get("code").and_then(Json::as_str),
            Some("line_too_long"),
            "{len} bytes"
        );
        let mut rest = String::new();
        let closed = match reader.read_line(&mut rest) {
            Ok(n) => n == 0,
            Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        };
        assert!(closed, "connection left open after line_too_long: {rest}");
        writer.join().expect("writer thread");
    }

    let (mut second, mut second_reader) = connect(addr);
    send_line(&mut second, r#"{"cmd":"ping"}"#);
    let pong = read_line(&mut second_reader);
    assert!(pong.contains(r#""ok":true"#), "{pong}");
    shutdown(&mut second, &mut second_reader);
    handle.join().expect("serve thread");
}

/// Lines queued behind a command that runs alone are bounded: while a
/// `revise` holds the connection, a writer thread streams more than
/// 4 MiB of `ping` lines behind it. The loop stops reading once a
/// request's worth of bytes waits and lets TCP push back, so every
/// ping is still answered, in order and none as `line_too_long`, and
/// a second connection is served meanwhile.
#[test]
fn lines_held_behind_a_lone_command_are_answered_in_order() {
    const HELD_BYTES: usize = 4 * 1024 * 1024;
    let (addr, handle) = spawn_event_loop();
    let (mut stream, mut reader) = connect(addr);
    send_line(
        &mut stream,
        r#"{"cmd":"load","kb":"k","t":"a & b & c & d; a -> e"}"#,
    );
    assert!(read_line(&mut reader).contains(r#""ok":true"#));

    // Padded ids keep the line count near a thousand.
    let pad = "x".repeat(4096);
    let ping_id = |i: usize| format!("{i}-{pad}");
    let pings = HELD_BYTES / pad.len() + 1;
    // One write, so the pings arrive while the revise still runs.
    let mut bytes =
        br#"{"id":"revise","cmd":"revise","kb":"k","op":"dalal","p":"!a | !b | !c"}"#.to_vec();
    for i in 0..pings {
        bytes.extend_from_slice(
            format!("\n{{\"id\":\"{}\",\"cmd\":\"ping\"}}", ping_id(i)).as_bytes(),
        );
    }
    bytes.push(b'\n');
    let writer = {
        let mut stream = stream.try_clone().expect("clone stream");
        std::thread::spawn(move || stream.write_all(&bytes).expect("loopback write"))
    };

    let (mut second, mut second_reader) = connect(addr);
    send_line(&mut second, r#"{"cmd":"ping"}"#);
    let pong = read_line(&mut second_reader);
    assert!(pong.contains(r#""ok":true"#), "{pong}");

    let revise = Json::parse(&read_line(&mut reader)).expect("revise JSON");
    assert_eq!(revise.get("id").and_then(Json::as_str), Some("revise"));
    assert_eq!(
        revise.get("ok").and_then(Json::as_bool),
        Some(true),
        "{revise:?}"
    );
    for i in 0..pings {
        let resp = Json::parse(&read_line(&mut reader)).expect("ping JSON");
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "ping {i}: {:?}",
            resp.get("code")
        );
        assert_eq!(
            resp.get("id").and_then(Json::as_str),
            Some(ping_id(i).as_str()),
            "ping {i} out of order"
        );
    }
    writer.join().expect("writer thread");
    shutdown(&mut second, &mut second_reader);
    handle.join().expect("serve thread");
}

// ---------------------------------------------------------------
// HTTP gateway (Linux: the gateway lives on the epoll front end).
// ---------------------------------------------------------------

#[cfg(target_os = "linux")]
mod http_gateway {
    use super::*;

    /// Read one HTTP/1.1 response; returns (status, body).
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

    fn post(stream: &mut TcpStream, path: &str, body: &str) {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("http write");
    }

    /// The full data plane over `POST /v1/<cmd>` and `POST /v1`, on
    /// one keep-alive connection, with GET metrics routes served by
    /// the same listener.
    #[test]
    fn gateway_routes_answer_the_data_plane() {
        let (addr, handle) = spawn_event_loop();
        let (mut stream, mut reader) = connect(addr);

        post(&mut stream, "/v1/load", r#"{"kb":"k","t":"a & b; b -> c"}"#);
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200, "{body}");
        let json = Json::parse(body.trim()).expect("envelope JSON");
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("v").and_then(Json::as_u64), Some(PROTOCOL_VERSION));

        // Same keep-alive connection: the path names the command, the
        // body carries the arguments; a `cmd` in the body loses to the
        // path.
        post(
            &mut stream,
            "/v1/query",
            r#"{"cmd":"drop","kb":"k","q":"a"}"#,
        );
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        let json = Json::parse(body.trim()).expect("envelope JSON");
        assert_eq!(
            json.get("result")
                .and_then(|r| r.get("entails"))
                .and_then(Json::as_bool),
            Some(true),
            "path must win over the body cmd: {body}"
        );

        // The whole-request form.
        post(&mut stream, "/v1", r#"{"cmd":"query","kb":"k","q":"!a"}"#);
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        let json = Json::parse(body.trim()).expect("envelope JSON");
        assert_eq!(
            json.get("result")
                .and_then(|r| r.get("entails"))
                .and_then(Json::as_bool),
            Some(false)
        );

        // Bad body → protocol-level bad_request envelope, still 200
        // transport-wise (the command failed, not the gateway).
        post(
            &mut stream,
            "/v1/revise",
            r#"{"kb":"k","op":"nonsense","p":"a"}"#,
        );
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        let json = Json::parse(body.trim()).expect("envelope JSON");
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("code").and_then(Json::as_str), Some("bad_request"));

        // Metrics plane on the same socket.
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("GET write");
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\":true"), "{body}");

        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("GET write");
        let (status, body) = read_http(&mut reader);
        assert_eq!(status, 200);
        assert!(body.contains("revkb_server_requests_total"), "{body}");

        // A line-protocol shutdown on a second connection stops the loop.
        let (mut ctl, mut ctl_reader) = connect(addr);
        shutdown(&mut ctl, &mut ctl_reader);
        handle.join().expect("serve thread");
    }

    /// Malformed-HTTP battery: every deformity gets the documented
    /// status code and the connection survives the process (no panic,
    /// no hang).
    #[test]
    fn malformed_http_battery() {
        let cases: &[(&[u8], u16)] = &[
            // Unknown command path.
            (
                b"POST /v1/warp HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
                404,
            ),
            // Data-plane path with the wrong method.
            (b"GET /v1/query HTTP/1.1\r\n\r\n", 405),
            // Unknown path entirely.
            (b"POST /nope HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 404),
            // Mangled request line.
            (b"NONSENSE\r\n\r\n", 400),
            // Not HTTP at a version the parser accepts.
            (b"POST /v1 SMTP/1.0\r\n\r\n", 400),
            // Transfer-Encoding and Content-Length together: the
            // request-smuggling shape is refused outright.
            (
                b"POST /v1 HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}",
                400,
            ),
            // Chunked body with a garbage chunk-size line.
            (
                b"POST /v1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n",
                400,
            ),
            // Declared body over the 1 MiB cap.
            (
                b"POST /v1 HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
                413,
            ),
        ];
        let (addr, handle) = spawn_event_loop();
        for (bytes, expected) in cases {
            let (mut stream, mut reader) = connect(addr);
            stream.write_all(bytes).expect("malformed write");
            let (status, _) = read_http(&mut reader);
            assert_eq!(
                status,
                *expected,
                "for request {:?}",
                String::from_utf8_lossy(bytes)
            );
        }

        // Oversized head: 8 KiB of headers with no terminating blank
        // line must be cut off with 431, not buffered forever.
        let (mut stream, mut reader) = connect(addr);
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\n")
            .expect("head write");
        let filler = format!("X-Filler: {}\r\n", "y".repeat(120));
        for _ in 0..80 {
            stream.write_all(filler.as_bytes()).expect("filler write");
        }
        let (status, _) = read_http(&mut reader);
        assert_eq!(status, 431);

        let (mut ctl, mut ctl_reader) = connect(addr);
        shutdown(&mut ctl, &mut ctl_reader);
        handle.join().expect("serve thread");
    }

    /// Protocol sniffing: the first byte decides NDJSON vs HTTP per
    /// connection, and both kinds run concurrently on one listener.
    #[test]
    fn line_and_http_clients_share_the_listener() {
        let (addr, handle) = spawn_event_loop();

        let (mut line_conn, mut line_reader) = connect(addr);
        send_line(&mut line_conn, r#"{"cmd":"load","kb":"s","t":"a"}"#);
        let resp = read_line(&mut line_reader);
        assert!(resp.contains(r#""ok":true"#), "{resp}");

        let (mut http_conn, mut http_reader) = connect(addr);
        post(&mut http_conn, "/v1/query", r#"{"kb":"s","q":"a"}"#);
        let (status, body) = read_http(&mut http_reader);
        assert_eq!(status, 200);
        assert!(body.contains(r#""entails":true"#), "{body}");

        // The line connection is still alive after HTTP traffic.
        send_line(&mut line_conn, r#"{"cmd":"query","kb":"s","q":"a"}"#);
        let resp = read_line(&mut line_reader);
        assert!(resp.contains(r#""entails":true"#), "{resp}");

        shutdown(&mut line_conn, &mut line_reader);
        handle.join().expect("serve thread");
    }

    /// A request line and the code it must earn (`None`: `ok`).
    type ExpectedLine = (&'static str, Option<&'static str>);

    /// Rejection scripts, each with the configuration of the fresh
    /// server that answers it. Every line carries an explicit id and
    /// trace id, so a fresh server answers deterministically. The
    /// `replicate` line comes last in its script: over NDJSON it hands
    /// the connection to a replication stream instead of answering,
    /// so that transcript stops before it with the `req` numbering
    /// still in step.
    fn rejection_scripts() -> Vec<(ServerConfig, Vec<ExpectedLine>)> {
        vec![
            (
                ServerConfig::default(),
                vec![
                    (
                        r#"{"id":"late","trace":"a1","cmd":"query","kb":"k","q":"a","deadline_ms":0}"#,
                        Some("timeout"),
                    ),
                    (
                        r#"{"id":"pinned","trace":"a2","v":9,"cmd":"list"}"#,
                        Some("bad_request"),
                    ),
                    (
                        r#"{"id":"repl","trace":"a3","cmd":"replicate"}"#,
                        Some("unsupported"),
                    ),
                ],
            ),
            (
                ServerConfig::default().with_queue(0),
                vec![
                    (
                        r#"{"id":"load","trace":"b1","cmd":"load","kb":"k","t":"a"}"#,
                        Some("overloaded"),
                    ),
                    (r#"{"id":"ping","trace":"b2","cmd":"ping"}"#, None),
                    (
                        r#"{"id":"query","trace":"b3","cmd":"query","kb":"k","q":"a"}"#,
                        Some("overloaded"),
                    ),
                    (r#"{"id":"hello","trace":"b4","cmd":"hello"}"#, None),
                    (
                        r#"{"id":"list","trace":"b5","cmd":"list"}"#,
                        Some("overloaded"),
                    ),
                ],
            ),
        ]
    }

    /// The rejection paths answer byte-for-byte alike through
    /// `Server::handle_line`, NDJSON over the event loop, and the
    /// gateway's `POST /v1`: an expired deadline, a pinned protocol
    /// version out of range, `replicate` on a transport that cannot
    /// stream, and data-plane lines on a server that admits nothing
    /// (while `ping` and `hello` still answer).
    #[test]
    fn rejections_match_across_transports() {
        for (config, script) in rejection_scripts() {
            let in_process = Server::new(config.clone());
            let oracle: Vec<String> = script
                .iter()
                .map(|(line, _)| in_process.handle_line(line).expect("non-blank line"))
                .collect();
            for ((line, code), answer) in script.iter().zip(&oracle) {
                let json = Json::parse(answer).expect("envelope JSON");
                assert_eq!(
                    json.get("code").and_then(Json::as_str),
                    *code,
                    "{line} -> {answer}"
                );
                assert_eq!(json.get("ok").and_then(Json::as_bool), Some(code.is_none()));
            }

            let (addr, handle) = spawn_event_loop_with(config.clone());
            let (mut stream, mut reader) = connect(addr);
            let mut over_ndjson = Vec::new();
            for (line, _) in &script {
                if line.contains(r#""cmd":"replicate""#) {
                    break;
                }
                send_line(&mut stream, line);
                over_ndjson.push(read_line(&mut reader));
            }
            shutdown(&mut stream, &mut reader);
            handle.join().expect("serve thread");
            assert_eq!(over_ndjson[..], oracle[..over_ndjson.len()]);

            let (addr, handle) = spawn_event_loop_with(config);
            let (mut stream, mut reader) = connect(addr);
            let mut over_http = Vec::new();
            for (line, _) in &script {
                post(&mut stream, "/v1", line);
                let (status, body) = read_http(&mut reader);
                assert_eq!(status, 200, "{body}");
                over_http.push(body.trim().to_string());
            }
            let (mut ctl, mut ctl_reader) = connect(addr);
            shutdown(&mut ctl, &mut ctl_reader);
            handle.join().expect("serve thread");
            assert_eq!(over_http, oracle);
        }
    }
}
