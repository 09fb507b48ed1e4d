//! End-to-end contract of the metrics plane: the event loop serves all
//! five metrics HTTP endpoints on its data socket concurrently with
//! data-plane traffic, the Prometheus page carries per-KB labelled
//! families with cumulative histogram buckets, and readiness tracks
//! replication health.

use revkb::server::{Json, Server, ServerConfig};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

fn call(server: &Server, line: &str) -> Json {
    let response = server.handle_line(line).expect("request line is not blank");
    Json::parse(&response).unwrap_or_else(|e| panic!("response not JSON ({e}): {response}"))
}

fn assert_ok(resp: &Json) {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
}

/// One HTTP/1.1 GET against the data socket; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to the data socket");
    let timeout = Some(Duration::from_secs(5));
    stream.set_read_timeout(timeout).unwrap();
    stream.set_write_timeout(timeout).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {head}"));
    (status, body.to_string())
}

/// `config` served by the event loop on an ephemeral port.
fn metrics_server(config: ServerConfig) -> (Server, SocketAddr, JoinHandle<io::Result<()>>) {
    let server = Server::new(config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let srv = server.clone();
    let handle = std::thread::spawn(move || srv.serve_event_loop(listener));
    (server, addr, handle)
}

fn stop(server: &Server, handle: JoinHandle<io::Result<()>>) {
    server.begin_shutdown();
    handle
        .join()
        .expect("serve thread")
        .expect("event loop exits cleanly");
}

#[test]
fn metrics_plane_serves_all_endpoints_under_live_traffic() {
    let (server, addr, handle) =
        metrics_server(ServerConfig::default().with_queue(64).with_threads(2));

    // A live workload: two KBs, revisions across operators, queries.
    assert_ok(&call(
        &server,
        r#"{"cmd":"load","kb":"alpha","t":"a & b & c"}"#,
    ));
    assert_ok(&call(&server, r#"{"cmd":"load","kb":"beta","t":"x | y"}"#));
    assert_ok(&call(
        &server,
        r#"{"cmd":"revise","kb":"alpha","op":"dalal","p":"!a"}"#,
    ));
    assert_ok(&call(
        &server,
        r#"{"cmd":"revise","kb":"beta","op":"satoh","p":"!x"}"#,
    ));
    for _ in 0..5 {
        assert_ok(&call(&server, r#"{"cmd":"query","kb":"alpha","q":"c"}"#));
    }
    assert_ok(&call(&server, r#"{"cmd":"query","kb":"beta","q":"x | y"}"#));

    // Scrape while the data plane keeps answering: interleave HTTP
    // GETs with more requests on another thread.
    let churn = {
        let server = server.clone();
        std::thread::spawn(move || {
            for _ in 0..50 {
                assert_ok(&call(&server, r#"{"cmd":"query","kb":"alpha","q":"c"}"#));
            }
        })
    };

    // /metrics: Prometheus text exposition with per-KB labels.
    let (status, page) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        page.contains("# TYPE revkb_server_requests_total counter"),
        "missing requests family:\n{page}"
    );
    assert!(
        page.contains(r#"revkb_kb_queries_total{kb="alpha"}"#),
        "missing per-KB query counter:\n{page}"
    );
    assert!(
        page.contains(r#"revkb_kb_op_revises_total{kb="alpha",op="dalal"} 1"#),
        "missing per-operator revise counter:\n{page}"
    );
    assert!(
        page.contains(r#"revkb_kb_op_revises_total{kb="beta",op="satoh"} 1"#),
        "missing second operator:\n{page}"
    );
    assert!(
        page.contains(r#"revkb_kb_letters{kb="beta"}"#),
        "missing beta gauge:\n{page}"
    );
    // Histogram buckets are cumulative and close with +Inf == _count.
    let inf_line = page
        .lines()
        .find(|l| l.starts_with(r#"revkb_server_request_micros_bucket{cmd="query",le="+Inf"}"#))
        .expect("query +Inf bucket");
    let inf: u64 = inf_line.split_whitespace().last().unwrap().parse().unwrap();
    let count_line = page
        .lines()
        .find(|l| l.starts_with(r#"revkb_server_request_micros_count{cmd="query"}"#))
        .expect("query _count");
    let count: u64 = count_line
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(inf, count, "+Inf bucket must equal _count");
    let mut last = 0u64;
    for line in page
        .lines()
        .filter(|l| l.starts_with(r#"revkb_server_request_micros_bucket{cmd="query""#))
    {
        let v: u64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert!(v >= last, "buckets must be cumulative:\n{page}");
        last = v;
    }

    // /stats.json: same payload as the wire `stats` command.
    let (status, body) = http_get(addr, "/stats.json");
    assert_eq!(status, 200);
    let stats = Json::parse(&body).expect("stats.json parses");
    assert!(stats.get("requests").and_then(Json::as_u64).unwrap() >= 10);
    let profiles = stats
        .get("kb_profiles")
        .and_then(Json::as_array)
        .expect("kb_profiles array");
    assert_eq!(profiles.len(), 2);
    assert_eq!(
        profiles[0].get("kb").and_then(Json::as_str),
        Some("alpha"),
        "profiles sort by name"
    );

    // /series.json: the sampler window (points may be empty this early
    // at the default 1 s interval; shape must hold regardless).
    let (status, body) = http_get(addr, "/series.json");
    assert_eq!(status, 200);
    let series = Json::parse(&body).expect("series.json parses");
    assert!(series.get("interval_ms").and_then(Json::as_u64).is_some());
    assert!(series.get("series").and_then(Json::as_array).is_some());

    // Probes.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains(r#""ok":true"#), "{body}");
    let (status, body) = http_get(addr, "/readyz");
    assert_eq!(status, 200, "healthy primary must be ready: {body}");

    // Unknown paths and non-GET methods are rejected.
    let (status, _) = http_get(addr, "/flagrantly-missing");
    assert_eq!(status, 404);
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");

    churn.join().expect("churn thread");
    stop(&server, handle);
}

#[test]
fn readyz_reflects_replica_divergence_over_http() {
    let (server, addr, handle) = metrics_server(
        ServerConfig::default()
            .with_queue(16)
            .with_threads(2)
            .with_replica_of(Some("127.0.0.1:1".to_string())),
    );

    // Never connected: not ready, but alive.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let (status, body) = http_get(addr, "/readyz");
    assert_eq!(status, 503);
    assert!(body.contains("never connected"), "{body}");

    // Diverged: still 503, with the divergence as the reason.
    server.mark_diverged("test: forced divergence");
    let (status, body) = http_get(addr, "/readyz");
    assert_eq!(status, 503);
    assert!(body.contains("diverged"), "{body}");

    // The Prometheus page reports the divergence too.
    let (status, page) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        page.contains("revkb_repl_diverged 1"),
        "missing diverged gauge:\n{page}"
    );

    stop(&server, handle);
}
