//! Per-request observability contract of the revision service: every
//! `server.*` span carries the same monotonic request id that the wire
//! response reports (so a Chrome trace can be joined against a client
//! log), the `slow_log` ring buffer captures slow degraded compiles,
//! reading `stats` never perturbs the telemetry it reports, each
//! `Server` counts only its own requests, and every `revkb_obs_*`
//! family the benchmark's per-layer report reads is on `/metrics`.

use revkb::obs;
use revkb::server::{Json, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The trace mode and span buffers are process-global; tests that
/// touch them must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Take [`OBS_LOCK`], recovering it if another test panicked while
/// holding it, so one failure is reported once rather than cascading.
fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn call(server: &Server, line: &str) -> Json {
    let response = server.handle_line(line).expect("request line is not blank");
    Json::parse(&response).unwrap_or_else(|e| panic!("response not JSON ({e}): {response}"))
}

/// A fresh, empty data directory for a durable server.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("revkb-tracing-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_ok(resp: &Json) {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
}

/// The value of the unlabelled sample `name` on a Prometheus page.
fn sample(page: &str, name: &str) -> Option<u64> {
    page.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

fn req_of(resp: &Json) -> u64 {
    resp.get("req")
        .and_then(Json::as_u64)
        .expect("every response envelope carries a req id")
}

/// A scripted session under `chrome` mode: every `server.*` span must
/// carry a `req` attribute naming a request the wire log actually
/// answered, and the rendered Chrome trace must expose the same ids
/// under `args` so the export stays correlatable in a trace viewer.
#[test]
fn chrome_spans_correlate_with_wire_request_ids() {
    let _guard = obs_lock();
    let prev = obs::mode();
    obs::set_mode(obs::TraceMode::Chrome);
    obs::reset();

    let server = Server::new(ServerConfig::default());
    let script = [
        r#"{"cmd":"load","kb":"k","t":"a & b; b -> c"}"#,
        r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!b"}"#,
        r#"{"cmd":"query","kb":"k","q":"a"}"#,
        r#"{"cmd":"query_batch","kb":"k","qs":["a","!b"]}"#,
        "definitely not json",
        r#"{"cmd":"stats"}"#,
        r#"{"cmd":"ping"}"#,
    ];
    let mut wire_reqs = Vec::new();
    for line in script {
        wire_reqs.push(req_of(&call(&server, line)));
    }
    assert_eq!(wire_reqs, vec![1, 2, 3, 4, 5, 6, 7], "fresh server ids");

    let snap = obs::drain();
    obs::set_mode(prev);

    let server_spans: Vec<&obs::SpanEvent> = snap
        .spans
        .iter()
        .filter(|s| s.name.starts_with("server."))
        .collect();
    assert_eq!(
        server_spans
            .iter()
            .filter(|s| s.name == "server.request")
            .count(),
        script.len(),
        "one server.request span per answered line"
    );
    for span in &server_spans {
        let req = span
            .attr("req")
            .unwrap_or_else(|| panic!("span {} has no req attribute", span.name));
        assert!(
            wire_reqs.contains(&req),
            "span {} carries req {req}, which no wire response reported",
            span.name
        );
    }
    // The command and compile layers are annotated too, not just the
    // envelope: the revise (req 2) must show up in all three.
    for name in ["server.request", "server.cmd.revise", "server.compile"] {
        assert!(
            server_spans
                .iter()
                .any(|s| s.name == name && s.attr("req") == Some(2)),
            "no {name} span for the revise request"
        );
    }

    // The Chrome export keeps the correlation: every server.* trace
    // event exposes the id under args.req.
    let trace = obs::chrome_trace(&snap.spans, &snap.counters);
    assert!(obs::validate_json(&trace), "chrome trace is valid JSON");
    let parsed = Json::parse(&trace).expect("chrome trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let mut correlated = 0usize;
    for event in events {
        let name = event.get("name").and_then(Json::as_str).unwrap_or("");
        if !name.starts_with("server.") {
            continue;
        }
        let req = event
            .get("args")
            .and_then(|a| a.get("req"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("chrome event {name} has no args.req"));
        assert!(wire_reqs.contains(&req), "chrome event {name} req {req}");
        correlated += 1;
    }
    assert_eq!(correlated, server_spans.len());
}

/// With the compile budget forced to zero, a revise degrades to
/// delayed incorporation; with `slow_ms` at zero every request
/// qualifies as slow, so the degraded compile must land in the
/// `slow_log` with its request id and command tag.
#[test]
fn slow_log_captures_a_degraded_compile() {
    // Its `server.request` spans land in the process-global buffer.
    let _guard = obs_lock();
    let server = Server::new(
        ServerConfig::default()
            .with_compile_timeout_ms(Some(0))
            .with_slow_ms(0)
            .with_slow_log_cap(8),
    );
    call(&server, r#"{"cmd":"load","kb":"k","t":"a & b"}"#);
    let resp = call(
        &server,
        r#"{"cmd":"revise","kb":"k","op":"satoh","p":"!a"}"#,
    );
    let revise_req = req_of(&resp);
    let result = resp.get("result").expect("revise succeeds");
    assert_eq!(
        result.get("degraded").and_then(Json::as_bool),
        Some(true),
        "zero budget must degrade the compile"
    );

    let stats = call(&server, r#"{"cmd":"stats"}"#);
    let slow_log = stats
        .get("result")
        .and_then(|r| r.get("slow_log"))
        .and_then(Json::as_array)
        .expect("stats carries slow_log");
    let entry = slow_log
        .iter()
        .find(|e| e.get("req").and_then(Json::as_u64) == Some(revise_req))
        .expect("degraded revise is in the slow_log");
    assert_eq!(entry.get("cmd").and_then(Json::as_str), Some("revise"));
    assert!(entry.get("micros").and_then(Json::as_u64).is_some());
}

/// `stats` is a read-only probe: asking twice reports the same
/// request-latency counts (the stats request itself is only recorded
/// after its response is rendered), and the global telemetry registry
/// is left exactly as it was — no drain, no reset.
#[test]
fn stats_does_not_perturb_telemetry() {
    let _guard = obs_lock();
    let prev = obs::mode();
    obs::set_mode(obs::TraceMode::Summary);
    obs::reset();

    let server = Server::new(ServerConfig::default());
    call(&server, r#"{"cmd":"load","kb":"k","t":"a & b"}"#);
    call(&server, r#"{"cmd":"query","kb":"k","q":"a"}"#);
    call(&server, r#"{"cmd":"query","kb":"k","q":"b"}"#);

    let before = obs::snapshot();
    let query_count = |stats: &Json| {
        stats
            .get("result")
            .and_then(|r| r.get("request_latency"))
            .and_then(|l| l.get("query"))
            .and_then(|q| q.get("count"))
            .and_then(Json::as_u64)
            .expect("stats reports query latency")
    };
    let first = call(&server, r#"{"cmd":"stats"}"#);
    let second = call(&server, r#"{"cmd":"stats"}"#);
    assert_eq!(query_count(&first), 2);
    assert_eq!(
        query_count(&first),
        query_count(&second),
        "a stats read must not consume the latency histograms"
    );
    // Percentile fields are present and ordered.
    let latency = first
        .get("result")
        .and_then(|r| r.get("request_latency"))
        .and_then(|l| l.get("query"))
        .expect("query latency block");
    let pct = |k: &str| latency.get(k).and_then(Json::as_u64).unwrap();
    assert!(pct("p50") <= pct("p95"));
    assert!(pct("p95") <= pct("p99"));
    assert!(pct("p99") <= pct("max"));

    // The process-global registry was not drained by stats: every
    // aggregate that existed before is still there afterwards (the
    // stats requests themselves may bump counters, never reset them).
    let after = obs::snapshot();
    for (name, value) in &before.counters {
        let now = after
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("stats dropped counter {name}"));
        assert!(now >= *value, "stats rewound counter {name}");
    }
    for h in &before.histograms {
        let now = after
            .histograms
            .iter()
            .find(|a| a.name == h.name)
            .unwrap_or_else(|| panic!("stats dropped histogram {}", h.name));
        assert!(now.count >= h.count, "stats rewound histogram {}", h.name);
    }
    assert!(
        after.span_aggregates.len() >= before.span_aggregates.len(),
        "span aggregates reset by stats"
    );

    obs::reset();
    obs::set_mode(prev);
}

/// Counters are scoped per `Server`. Two durable servers in one
/// process take 3 and 5 requests under `REVKB_TRACE=summary`; each
/// one's `/metrics` page and `stats` report only its own count, and
/// no server, replication or write-ahead-log counter is copied into
/// the process-wide `obs` registry (the one server instrument there is
/// the `wal.append.micros` layer timing).
#[test]
fn each_server_counts_only_its_own_requests() {
    let _guard = obs_lock();
    let prev = obs::mode();
    obs::set_mode(obs::TraceMode::Summary);
    obs::reset();

    let dirs = [tmpdir("scope-a"), tmpdir("scope-b")];
    let open = |dir: &PathBuf| {
        Server::open(ServerConfig::default().with_data_dir(Some(dir.clone()))).expect("open")
    };
    let (first, second) = (open(&dirs[0]), open(&dirs[1]));
    for line in [
        r#"{"cmd":"load","kb":"k","t":"a & b"}"#,
        r#"{"cmd":"query","kb":"k","q":"a"}"#,
        r#"{"cmd":"ping"}"#,
    ] {
        assert_ok(&call(&first, line));
    }
    for line in [
        r#"{"cmd":"load","kb":"k","t":"a & b"}"#,
        r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!a"}"#,
        r#"{"cmd":"query","kb":"k","q":"b"}"#,
        r#"{"cmd":"query","kb":"k","q":"b"}"#,
        r#"{"cmd":"ping"}"#,
    ] {
        assert_ok(&call(&second, line));
    }

    for (server, expected) in [(&first, 3), (&second, 5)] {
        let page = server.metrics_text();
        assert_eq!(
            sample(&page, "revkb_server_requests_total"),
            Some(expected),
            "{page}"
        );
        let stats = server.stats_json();
        assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(expected));
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                !line.starts_with("revkb_obs_server_") && !line.starts_with("revkb_obs_repl_"),
                "server counter mirrored into obs: {line}"
            );
            assert!(
                !line.starts_with("revkb_obs_wal_")
                    || line.starts_with("revkb_obs_wal_append_micros"),
                "write-ahead-log counter mirrored into obs: {line}"
            );
        }
    }

    drop((first, second));
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    obs::reset();
    obs::set_mode(prev);
}

/// `perfbench/layers.py` reads its solver, Tseitin, BDD and
/// write-ahead-log figures off `/metrics` by their `revkb_obs_*`
/// names, and a name that is missing reads as 0 without any error.
/// After a durable session under `REVKB_TRACE=summary` that runs an
/// unrevised query, a repeated query and a BDD-backend revise, every
/// such name must be on the page; a histogram's `_sum` and `_count`
/// must both be.
#[test]
fn every_obs_family_the_layer_report_reads_is_exported() {
    let _guard = obs_lock();
    let layers =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/perfbench/layers.py"))
            .expect("perfbench/layers.py is readable");
    let mut wanted: Vec<String> = Vec::new();
    for (at, _) in layers.match_indices("revkb_obs_") {
        let name: String = layers[at..]
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || *c == '_')
            .collect();
        for suffix in ["_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                wanted.push(format!("{base}_sum"));
                wanted.push(format!("{base}_count"));
            }
        }
        wanted.push(name);
    }
    wanted.sort();
    wanted.dedup();
    assert!(
        wanted.iter().any(|n| n.starts_with("revkb_obs_wal_"))
            && wanted.iter().any(|n| n.starts_with("revkb_obs_sat_")),
        "layers.py no longer reads the families this test guards: {wanted:?}"
    );

    let prev = obs::mode();
    obs::set_mode(obs::TraceMode::Summary);
    obs::reset();
    let dir = tmpdir("layers");
    let server =
        Server::open(ServerConfig::default().with_data_dir(Some(dir.clone()))).expect("open");
    for line in [
        r#"{"cmd":"load","kb":"plain","t":"a | b; b -> c"}"#,
        r#"{"cmd":"query","kb":"plain","q":"a | c"}"#,
        r#"{"cmd":"query","kb":"plain","q":"a | c"}"#,
        r#"{"cmd":"load","kb":"k","t":"a & b; b -> c"}"#,
        r#"{"cmd":"revise","kb":"k","op":"winslett","p":"!b | !c","backend":"bdd"}"#,
        r#"{"cmd":"query","kb":"k","q":"a"}"#,
    ] {
        assert_ok(&call(&server, line));
    }
    let page = server.metrics_text();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    obs::reset();
    obs::set_mode(prev);

    let missing: Vec<&String> = wanted
        .iter()
        .filter(|name| sample(&page, name).is_none())
        .collect();
    assert!(
        missing.is_empty(),
        "perfbench/layers.py reads {missing:?}, absent from /metrics:\n{page}"
    );
}
