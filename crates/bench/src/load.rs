//! Open-loop load generation against a real `revkb-server` process.
//!
//! Unlike the in-process suite benches, these run the server as a
//! **separate OS process** (found next to the bench binary) serving
//! the epoll event loop, so file-descriptor budgets and scheduling are
//! the production ones: the bench process holds its ten thousand
//! client sockets and the server process holds its ten thousand
//! accepted sockets, each under its own `RLIMIT_NOFILE`.
//!
//! Three benchmarks come out of one server run:
//!
//! - `server.load.open_loop` — an open-loop generator: requests are
//!   issued on a fixed schedule (`REVKB_BENCH_QPS`) whether or not
//!   earlier responses have arrived, the honest way to measure tail
//!   latency (a closed loop self-throttles and hides queueing). The
//!   median is the p50 request latency; p95/p99/achieved QPS ride in
//!   `extra`, along with the number of concurrently open connections
//!   (`REVKB_BENCH_CONNS`, default 10 000) held open for the duration.
//! - `server.load.pipeline` — one connection answering a fixed batch
//!   of queries pipelined `PIPELINE_DEPTH` requests deep versus one at
//!   a time; the speedup is the event loop's pipelining win.
//! - `server.load.http` — the same query through the HTTP/1.1 gateway
//!   (`POST /v1/query` over one keep-alive connection).
//!
//! The sibling `revkb-server` binary must exist (`cargo build
//! --release -p revkb-server`): without it the load phase panics with
//! that command rather than measure something else.

use crate::suite::{BenchResult, SuiteConfig};
use revkb_server::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable setting the concurrent-connection count held
/// open through the open-loop phase (default 10 000).
pub const CONNS_ENV: &str = "REVKB_BENCH_CONNS";
/// Environment variable setting the open-loop target request rate
/// (default 2 000 requests/second).
pub const QPS_ENV: &str = "REVKB_BENCH_QPS";
/// Environment variable setting the open-loop duration in
/// milliseconds (default 2 000).
pub const LOAD_MS_ENV: &str = "REVKB_BENCH_LOAD_MS";

const DEFAULT_CONNS: usize = 10_000;
const DEFAULT_QPS: u64 = 2_000;
const DEFAULT_LOAD_MS: u64 = 2_000;
/// Writer threads for the open-loop phase; the schedule is split
/// evenly across them so one slow response never stalls the clock.
const LOAD_WRITERS: usize = 4;
/// Requests in flight per connection for the pipelining comparison.
const PIPELINE_DEPTH: usize = 32;
/// Queries per pipelining/HTTP measurement pass.
const PIPELINE_REQUESTS: usize = 512;
const HTTP_REQUESTS: usize = 256;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// The knobs of one load run, resolved from the environment.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Connections held open through the open-loop phase.
    pub connections: usize,
    /// Target request rate, requests per second.
    pub qps: u64,
    /// Open-loop duration, milliseconds.
    pub duration_ms: u64,
}

impl LoadConfig {
    /// Defaults overridden by `REVKB_BENCH_CONNS` / `REVKB_BENCH_QPS`
    /// / `REVKB_BENCH_LOAD_MS`.
    pub fn from_env() -> Self {
        LoadConfig {
            connections: env_usize(CONNS_ENV, DEFAULT_CONNS),
            qps: env_u64(QPS_ENV, DEFAULT_QPS).max(1),
            duration_ms: env_u64(LOAD_MS_ENV, DEFAULT_LOAD_MS).max(100),
        }
    }
}

/// The server under load: a spawned `revkb-server` process.
struct UnderTest {
    addr: SocketAddr,
    child: std::process::Child,
}

/// Look for the `revkb-server` binary next to the running executable
/// (and one directory up, for test binaries living in `deps/`).
fn sibling_server_binary() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    for base in [Some(dir), dir.parent()].into_iter().flatten() {
        let candidate = base.join("revkb-server");
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

/// Spawn the sibling `revkb-server`; panic, naming the build
/// command, when it is missing or will not start.
fn start_server() -> UnderTest {
    const BUILD: &str = "build it with `cargo build --release -p revkb-server`";
    let path = sibling_server_binary().unwrap_or_else(|| {
        panic!("revkb-bench: the load phase needs a revkb-server binary beside this one; {BUILD}")
    });
    spawn_child(&path).unwrap_or_else(|e| {
        panic!(
            "revkb-bench: cannot spawn {} ({e}); {BUILD}",
            path.display()
        )
    })
}

fn spawn_child(path: &std::path::Path) -> std::io::Result<UnderTest> {
    let mut child = std::process::Command::new(path)
        .args(["--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()?;
    // The server prints `listening HOST:PORT` once bound.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner)?;
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("listening ")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| {
            let _ = child.kill();
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected server banner {banner:?}"),
            )
        })?;
    Ok(UnderTest { addr, child })
}

impl UnderTest {
    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).expect("connect loopback");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
    }

    fn stop(mut self) {
        let mut conn = self.connect();
        conn.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let _ = conn.write_all(b"{\"cmd\":\"shutdown\"}\n");
        let mut sink = String::new();
        let _ = BufReader::new(&conn).read_line(&mut sink);
        // The event loop drains and exits after `shutdown`; reap
        // rather than kill so the exit is the graceful path, with a
        // deadline in case it wedges.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
    }
}

/// Read one newline-terminated response without a per-connection
/// `BufReader` (ten thousand 8 KiB buffers would be 80 MiB of heap;
/// responses are a single short line, so byte-wise reads never loop).
fn read_response_line(stream: &mut TcpStream, scratch: &mut Vec<u8>) -> String {
    scratch.clear();
    let mut byte = [0u8; 256];
    loop {
        let n = stream.read(&mut byte).expect("loopback read");
        assert!(n > 0, "server closed the connection mid-response");
        scratch.extend_from_slice(&byte[..n]);
        if scratch.last() == Some(&b'\n') {
            break;
        }
    }
    String::from_utf8_lossy(scratch).trim().to_string()
}

fn assert_ok(response: &str, context: &str) -> Json {
    let json = Json::parse(response).expect("server response is JSON");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "{context} failed: {response}"
    );
    json
}

/// Open `want` connections, prove each one answers a `ping`, and keep
/// them all open. Verification goes in waves so the accept queue and
/// the response reads overlap; a failed `connect` stops the climb and
/// the achieved count is reported instead of panicking (CI runners
/// cap fds differently).
fn open_idle_connections(under_test: &UnderTest, want: usize) -> Vec<TcpStream> {
    let mut conns: Vec<TcpStream> = Vec::with_capacity(want);
    let mut scratch = Vec::with_capacity(256);
    let wave = 512;
    while conns.len() < want {
        let start = conns.len();
        let end = (start + wave).min(want);
        for _ in start..end {
            match TcpStream::connect(under_test.addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .expect("set read timeout");
                    conns.push(stream);
                }
                Err(e) => {
                    eprintln!(
                        "revkb-bench: connection climb stopped at {} of {want}: {e}",
                        conns.len()
                    );
                    return conns;
                }
            }
        }
        // One pipelined ping per new connection; reading the wave's
        // responses before the next wave keeps server-side write
        // buffers bounded.
        for conn in &mut conns[start..] {
            conn.write_all(b"{\"cmd\":\"ping\"}\n").expect("ping write");
        }
        for conn in &mut conns[start..] {
            let response = read_response_line(conn, &mut scratch);
            assert_ok(&response, "idle-connection ping");
        }
    }
    conns
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The open-loop phase: `LOAD_WRITERS` threads each own one
/// connection and an even share of the schedule. Sends happen on the
/// clock; a reader thread per connection matches responses back to
/// send timestamps by the echoed `id`, so pipelined out-of-order
/// completions are measured correctly.
fn open_loop(under_test: &UnderTest, cfg: &LoadConfig) -> (Vec<f64>, u64, u64, f64) {
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let sent = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut writers = Vec::new();
    for w in 0..LOAD_WRITERS {
        let mut stream = under_test.connect();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        let reader_stream = stream.try_clone().expect("clone stream");
        let rate = cfg.qps as f64 / LOAD_WRITERS as f64;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let total = ((cfg.duration_ms as f64 / 1000.0) * rate).ceil() as u64;
        let in_flight: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
        let latencies = Arc::clone(&latencies);
        let sent = Arc::clone(&sent);
        let errors = Arc::clone(&errors);
        let writer_errors = Arc::clone(&errors);
        let reader_map = Arc::clone(&in_flight);
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(reader_stream);
            let mut line = String::new();
            for _ in 0..total {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                let Ok(json) = Json::parse(line.trim()) else {
                    errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                if json.get("ok").and_then(Json::as_bool) != Some(true) {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                let Some(id) = json.get("id").and_then(Json::as_u64) else {
                    errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                if let Some(at) = reader_map.lock().expect("in-flight map").remove(&id) {
                    let micros = at.elapsed().as_micros() as f64;
                    latencies.lock().expect("latency vec").push(micros);
                }
            }
        });
        let writer = std::thread::spawn(move || {
            let begin = Instant::now();
            for k in 0..total {
                // Open loop: wait for the schedule, never for the
                // server. Falling behind schedule is allowed (and
                // measured as latency); skipping sends is not.
                let due = begin + interval.mul_f64(k as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let id = (w as u64) << 32 | k;
                let line =
                    format!("{{\"id\":{id},\"cmd\":\"query\",\"kb\":\"load\",\"q\":\"a\"}}\n");
                in_flight
                    .lock()
                    .expect("in-flight map")
                    .insert(id, Instant::now());
                if stream.write_all(line.as_bytes()).is_err() {
                    writer_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                sent.fetch_add(1, Ordering::Relaxed);
            }
            reader
        });
        writers.push(writer);
    }
    for writer in writers {
        let reader = writer.join().expect("writer thread");
        let _ = reader.join();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let mut lat = Arc::try_unwrap(latencies)
        .expect("threads joined")
        .into_inner()
        .expect("latency vec");
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let sent = sent.load(Ordering::Relaxed);
    let errors = errors.load(Ordering::Relaxed);
    let achieved_qps = lat.len() as f64 / elapsed;
    (lat, sent, errors, achieved_qps)
}

/// `server.load.pipeline` — the same queries answered one at a time
/// and `PIPELINE_DEPTH` deep on one connection; reports per-request
/// latency for the pipelined pass and the sequential/pipelined ratio.
fn pipeline_bench(under_test: &UnderTest, cfg: &SuiteConfig) -> BenchResult {
    let mut stream = under_test.connect();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let request = b"{\"cmd\":\"query\",\"kb\":\"load\",\"q\":\"a\"}\n";
    let mut line = String::new();
    let read_one = |reader: &mut BufReader<TcpStream>, line: &mut String| {
        line.clear();
        reader.read_line(line).expect("loopback read");
        assert_ok(line.trim(), "pipeline query");
    };

    // Sequential: write, wait, repeat.
    let start = Instant::now();
    for _ in 0..PIPELINE_REQUESTS {
        stream.write_all(request).expect("loopback write");
        read_one(&mut reader, &mut line);
    }
    let sequential_us = start.elapsed().as_micros() as f64;

    // Pipelined: bursts of PIPELINE_DEPTH requests in one write, then
    // drain the burst.
    let burst = request.repeat(PIPELINE_DEPTH);
    let start = Instant::now();
    for _ in 0..PIPELINE_REQUESTS / PIPELINE_DEPTH {
        stream.write_all(&burst).expect("loopback write");
        for _ in 0..PIPELINE_DEPTH {
            read_one(&mut reader, &mut line);
        }
    }
    let pipelined_us = start.elapsed().as_micros() as f64;

    let per_request = pipelined_us / PIPELINE_REQUESTS as f64;
    let sequential_per_request = sequential_us / PIPELINE_REQUESTS as f64;
    let mut r = BenchResult {
        name: "server.load.pipeline".into(),
        unit: "micros",
        median: per_request,
        trials: vec![per_request],
        tolerance_pct: cfg.tolerance_for("server.load.pipeline"),
        extra: vec![
            ("depth", Json::Num(PIPELINE_DEPTH as f64)),
            ("requests", Json::Num(PIPELINE_REQUESTS as f64)),
            (
                "sequential_per_request_us",
                Json::Num(sequential_per_request),
            ),
        ],
    };
    if per_request > 0.0 {
        r.extra.push((
            "speedup_vs_sequential",
            Json::Num(sequential_per_request / per_request),
        ));
    }
    r
}

/// `server.load.http` — `POST /v1/query` over one keep-alive gateway
/// connection; the envelope on the wire is the same as the line
/// protocol's, so correctness is asserted per response.
fn http_bench(under_test: &UnderTest, cfg: &SuiteConfig) -> BenchResult {
    let mut stream = under_test.connect();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let body = r#"{"kb":"load","q":"a"}"#;
    let request = format!(
        "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut latencies = Vec::with_capacity(HTTP_REQUESTS);
    for i in 0..HTTP_REQUESTS {
        let start = Instant::now();
        stream.write_all(request.as_bytes()).expect("http write");
        let envelope = read_http_response(&mut reader);
        latencies.push(start.elapsed().as_micros() as f64);
        if i == 0 {
            assert_ok(envelope.trim(), "gateway query");
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let median = percentile(&latencies, 50.0);
    BenchResult {
        name: "server.load.http".into(),
        unit: "micros",
        median,
        trials: vec![median],
        tolerance_pct: cfg.tolerance_for("server.load.http"),
        extra: vec![
            ("requests", Json::Num(HTTP_REQUESTS as f64)),
            ("p95", Json::Num(percentile(&latencies, 95.0))),
            ("p99", Json::Num(percentile(&latencies, 99.0))),
            ("route", Json::str("/v1/query")),
        ],
    }
}

/// Read one `HTTP/1.1 200` response (status line, headers,
/// `Content-Length` body) and return the body.
fn read_http_response(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("http status line");
    assert!(
        line.starts_with("HTTP/1.1 200"),
        "gateway answered {}",
        line.trim()
    );
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("http header");
        let header = line.trim();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(|v| v.trim().to_string())
        {
            content_length = v.parse().expect("content-length value");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("http body");
    String::from_utf8(body).expect("utf-8 body")
}

/// Run the whole load-generation phase: spawn the server, hold
/// `connections` sockets open, drive the open-loop schedule, and
/// measure pipelining and the HTTP gateway on the side.
pub fn load_benches(cfg: &SuiteConfig) -> Vec<BenchResult> {
    let load_cfg = LoadConfig::from_env();
    // Raising the fd ceiling is a no-op where the limit is already
    // high; on default GitHub runners it lifts the 1024 soft limit.
    let limit = revkb_server::event_loop::raise_nofile(u64::MAX);
    let under_test = start_server();

    // The workload KB: compiled once, queried by every phase.
    let mut setup = under_test.connect();
    let mut scratch = Vec::with_capacity(256);
    setup
        .write_all(b"{\"cmd\":\"load\",\"kb\":\"load\",\"t\":\"a & b; b -> c\"}\n")
        .expect("load write");
    assert_ok(&read_response_line(&mut setup, &mut scratch), "kb load");

    let idle = open_idle_connections(&under_test, load_cfg.connections);
    let (latencies, sent_count, errors, achieved_qps) = open_loop(&under_test, &load_cfg);
    let open_connections = idle.len() + LOAD_WRITERS + 1;

    let mut open = BenchResult {
        name: "server.load.open_loop".into(),
        unit: "micros",
        median: percentile(&latencies, 50.0),
        trials: vec![percentile(&latencies, 50.0)],
        tolerance_pct: cfg.tolerance_for("server.load.open_loop"),
        extra: vec![
            ("connections", Json::Num(open_connections as f64)),
            ("target_qps", Json::Num(load_cfg.qps as f64)),
            ("achieved_qps", Json::Num(achieved_qps)),
            ("duration_ms", Json::Num(load_cfg.duration_ms as f64)),
            ("requests_sent", Json::Num(sent_count as f64)),
            ("responses", Json::Num(latencies.len() as f64)),
            ("errors", Json::Num(errors as f64)),
            ("p95", Json::Num(percentile(&latencies, 95.0))),
            ("p99", Json::Num(percentile(&latencies, 99.0))),
            ("nofile_limit", Json::Num(limit as f64)),
        ],
    };
    if latencies.len() < sent_count as usize {
        open.extra.push((
            "lost_responses",
            Json::Num((sent_count as usize - latencies.len()) as f64),
        ));
    }

    let pipeline = pipeline_bench(&under_test, cfg);
    let http = http_bench(&under_test, cfg);

    // One machine-greppable summary line: the CI connection-count
    // smoke parses `connections=` out of this.
    println!(
        "open-loop: connections={} target_qps={} achieved_qps={:.0} p50_us={:.0} \
         p95_us={:.0} p99_us={:.0} responses={} errors={}",
        open_connections,
        load_cfg.qps,
        achieved_qps,
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
        latencies.len(),
        errors,
    );

    drop(idle);
    under_test.stop();
    vec![open, pipeline, http]
}
