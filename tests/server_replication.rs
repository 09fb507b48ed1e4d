//! Replication contract of the revision service: a replica following
//! a primary's WAL stream is, at every moment the stream is cut,
//! byte-for-byte a committed prefix of the primary — and once the
//! stream drains it answers exactly like the primary and like a
//! single-node oracle that ran the same workload. Faults are injected
//! deterministically (see `support::FaultProxy`), seeded by
//! `REVKB_FAULT_SEED`, so every kill point and corruption offset
//! reproduces bit-for-bit.

mod support;

use revkb::server::wal::{decode_records, LOG_FILE, LOG_MAGIC};
use revkb::server::{Json, OpName, Server, ServerConfig, SyncMode, WalOp};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use support::{fault_seed, Fault, FaultProxy, Lcg};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("revkb-repl-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig::default()
        .with_data_dir(Some(dir.to_path_buf()))
        .with_wal_sync(SyncMode::Off)
}

fn call(server: &Server, line: &str) -> Json {
    let response = server.handle_line(line).expect("request line is not blank");
    Json::parse(&response).unwrap_or_else(|e| panic!("response not JSON ({e}): {response}"))
}

fn result(resp: &Json) -> &Json {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
    resp.get("result").expect("ok response carries a result")
}

/// The answer signature of a server: for every named KB, the verdict
/// (entailed / not / error code) on a fixed battery of queries. Two
/// servers with equal signatures are indistinguishable to clients.
fn answer_signature(server: &Server, kbs: &[&str]) -> Vec<String> {
    let queries = ["a", "!a", "b", "!b", "a & b", "a | b", "a -> b"];
    let mut sig = Vec::new();
    for kb in kbs {
        for q in queries {
            let resp = call(
                server,
                &format!(r#"{{"cmd":"query","kb":"{kb}","q":"{q}"}}"#),
            );
            let verdict = match resp.get("ok").and_then(Json::as_bool) {
                Some(true) => resp
                    .get("result")
                    .and_then(|r| r.get("entails"))
                    .and_then(Json::as_bool)
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "?".into()),
                _ => resp
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
            };
            sig.push(format!("{kb}|{q}|{verdict}"));
        }
    }
    sig
}

/// The mixed workload: one KB per operator (all eight), an iterated
/// model-based chain, and a KB that is dropped again — 19 committed
/// records.
fn run_workload(server: &Server) {
    for op in OpName::ALL {
        let kb = format!("kb-{}", op.tag());
        call(
            server,
            &format!(r#"{{"cmd":"load","kb":"{kb}","t":"a; a -> b"}}"#),
        );
        result(&call(
            server,
            &format!(
                r#"{{"cmd":"revise","kb":"{kb}","op":"{}","p":"!b"}}"#,
                op.tag()
            ),
        ));
    }
    result(&call(
        server,
        r#"{"cmd":"revise","kb":"kb-dalal","op":"dalal","p":"a & b"}"#,
    ));
    call(server, r#"{"cmd":"load","kb":"doomed","t":"a"}"#);
    result(&call(server, r#"{"cmd":"drop","kb":"doomed"}"#));
}

fn workload_kbs() -> Vec<String> {
    let mut kbs: Vec<String> = OpName::ALL
        .iter()
        .map(|op| format!("kb-{}", op.tag()))
        .collect();
    kbs.push("doomed".into());
    kbs
}

/// Boot a durable primary serving TCP on an ephemeral port.
fn start_primary(dir: &Path) -> (Server, SocketAddr, JoinHandle<std::io::Result<()>>) {
    let primary = Server::open(durable_config(dir)).expect("open primary");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind primary");
    let addr = listener.local_addr().expect("primary addr");
    let srv = primary.clone();
    let thread = std::thread::spawn(move || srv.serve_event_loop(listener));
    (primary, addr, thread)
}

fn shutdown_primary(primary: &Server, thread: JoinHandle<std::io::Result<()>>) {
    result(&call(primary, r#"{"cmd":"shutdown"}"#));
    thread
        .join()
        .expect("primary thread join")
        .expect("event loop exits cleanly");
}

fn stop_replica(replica: &Server, thread: JoinHandle<()>) {
    replica.begin_shutdown();
    thread.join().expect("replication thread join");
}

fn wait_until(what: &str, timeout: Duration, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {what}");
}

/// Absolute offsets (including the 8-byte magic) of every record
/// boundary in a log file's bytes — `[8, ..., bytes.len()]`.
fn record_boundaries(log: &[u8]) -> Vec<u64> {
    let mut boundaries = vec![LOG_MAGIC.len() as u64];
    let mut pos = LOG_MAGIC.len();
    while pos + 8 <= log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 8 + len > log.len() {
            break;
        }
        pos += 8 + len;
        boundaries.push(pos as u64);
    }
    assert_eq!(pos, log.len(), "the primary log must have no torn tail");
    boundaries
}

/// Replay committed WAL ops into a fresh in-memory server — the
/// single-node oracle for a given log prefix.
fn oracle_for(ops: &[WalOp]) -> Server {
    let oracle = Server::new(ServerConfig::default());
    for op in ops {
        let line = match op {
            WalOp::Load { kb, t } => format!(r#"{{"cmd":"load","kb":"{kb}","t":"{t}"}}"#),
            WalOp::Revise { kb, op, p, backend } => format!(
                r#"{{"cmd":"revise","kb":"{kb}","op":"{op}","p":"{p}","backend":"{backend}"}}"#
            ),
            WalOp::Drop { kb } => format!(r#"{{"cmd":"drop","kb":"{kb}"}}"#),
        };
        result(&call(&oracle, &line));
    }
    oracle
}

/// Kill the replica at *every* record boundary of the mixed workload:
/// for each boundary, a fresh replica streams exactly that prefix
/// (the proxy cuts the stream there and every reconnect ships zero
/// bytes), is shut down, and must answer exactly like an oracle that
/// ran only the committed prefix. Restarted against the real primary
/// it must resume from its durable offset — passing the checksum
/// handshake — and converge to the primary, byte-for-byte.
#[test]
fn replica_killed_at_every_record_boundary_recovers_and_converges() {
    let dir = tmpdir("kill-primary");
    let (primary, addr, primary_thread) = start_primary(&dir);
    run_workload(&primary);
    let log = std::fs::read(dir.join(LOG_FILE)).expect("read primary log");
    let boundaries = record_boundaries(&log);
    assert_eq!(boundaries.len(), 20, "19 records + the log head");
    let (all_ops, good) = decode_records(&log[LOG_MAGIC.len()..]);
    assert_eq!(good + LOG_MAGIC.len(), log.len());

    let kbs = workload_kbs();
    let kb_refs: Vec<&str> = kbs.iter().map(String::as_str).collect();
    let full_oracle = oracle_for(&all_ops);
    let full_sig = answer_signature(&full_oracle, &kb_refs);
    assert_eq!(full_sig, answer_signature(&primary, &kb_refs));

    let rdir = tmpdir("kill-replica");
    for (i, &boundary) in boundaries.iter().enumerate() {
        let _ = std::fs::remove_dir_all(&rdir);
        let proxy = FaultProxy::start(addr);
        proxy.push_fault(Fault::CutAfter(boundary - LOG_MAGIC.len() as u64));
        // Every reconnect handshakes fine but ships nothing, so the
        // replica deterministically cannot progress past the boundary
        // no matter how the poll below races the cut.
        for _ in 0..10_000 {
            proxy.push_fault(Fault::CutAfter(0));
        }
        let replica =
            Server::open(durable_config(&rdir).with_replica_of(Some(proxy.addr().to_string())))
                .expect("open replica");
        let thread = replica.start_replication().expect("replica replicates");
        wait_until(
            &format!("replica to reach boundary {i} (offset {boundary})"),
            Duration::from_secs(30),
            || replica.replication_status().expect("status").offset == boundary,
        );
        proxy.block_new(true);
        stop_replica(&replica, thread);
        drop(replica);
        drop(proxy);

        // Restarted from its own directory, the replica is exactly
        // the committed prefix...
        let prefix_ops = &all_ops[..{
            let body = &log[LOG_MAGIC.len()..boundary as usize];
            decode_records(body).0.len()
        }];
        let replica = Server::open(durable_config(&rdir).with_replica_of(Some(addr.to_string())))
            .expect("reopen replica");
        let report = replica.recovery_report().expect("durable replica");
        assert_eq!(report.replay_errors, 0, "boundary {i}: {report:?}");
        assert_eq!(report.replayed, prefix_ops.len() as u64, "boundary {i}");
        let prefix_oracle = oracle_for(prefix_ops);
        assert_eq!(
            answer_signature(&replica, &kb_refs),
            answer_signature(&prefix_oracle, &kb_refs),
            "boundary {i}: prefix state diverges from the oracle"
        );

        // ...and resuming against the real primary it converges fully.
        let thread = replica.start_replication().expect("replica resumes");
        wait_until(
            &format!("replica to catch up from boundary {i}"),
            Duration::from_secs(30),
            || replica.replication_status().expect("status").offset == log.len() as u64,
        );
        let status = replica.replication_status().expect("status");
        assert!(!status.diverged, "boundary {i}: {status:?}");
        assert_eq!(status.lag_bytes, 0, "boundary {i}");
        assert_eq!(
            answer_signature(&replica, &kb_refs),
            full_sig,
            "boundary {i}: converged replica diverges from the oracle"
        );
        let replica_log = std::fs::read(rdir.join(LOG_FILE)).expect("read replica log");
        assert_eq!(
            replica_log, log,
            "boundary {i}: replica log is not byte-identical to the primary's"
        );
        stop_replica(&replica, thread);
    }
    shutdown_primary(&primary, primary_thread);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// Two seeded mid-record cuts: each severs the stream inside a
/// record, the replica reconnects with backoff, resumes from its last
/// complete record, and still converges to the primary.
#[test]
fn seeded_mid_record_cuts_reconnect_and_resume() {
    let dir = tmpdir("resume-primary");
    let (primary, addr, primary_thread) = start_primary(&dir);
    run_workload(&primary);
    let log = std::fs::read(dir.join(LOG_FILE)).expect("read primary log");
    let boundaries = record_boundaries(&log);
    let total = log.len() as u64 - LOG_MAGIC.len() as u64;

    let mut lcg = Lcg::new(fault_seed());
    // First cut: anywhere strictly inside session 1's stream.
    let c1 = lcg.in_range(1, total);
    // The resume offset after cut 1 is the last boundary the replica
    // fully received — deterministic given the seed.
    let resume = *boundaries
        .iter()
        .rfind(|&&b| b <= LOG_MAGIC.len() as u64 + c1)
        .unwrap();
    let remaining = log.len() as u64 - resume;
    let c2 = lcg.in_range(1, remaining.max(2));
    let proxy = FaultProxy::start(addr);
    proxy.push_fault(Fault::CutAfter(c1));
    proxy.push_fault(Fault::CutAfter(c2));
    // Third session: clean by default — the replica drains the rest.

    let replica =
        Server::new(ServerConfig::default().with_replica_of(Some(proxy.addr().to_string())));
    let thread = replica.start_replication().expect("replica replicates");
    wait_until(
        "replica to converge through two cuts",
        Duration::from_secs(30),
        || replica.replication_status().expect("status").offset == log.len() as u64,
    );
    let status = replica.replication_status().expect("status");
    assert!(
        status.sessions >= 3,
        "two cuts force at least three sessions (seed {}): {status:?}",
        fault_seed()
    );
    assert!(!status.diverged, "{status:?}");
    let kbs = workload_kbs();
    let kb_refs: Vec<&str> = kbs.iter().map(String::as_str).collect();
    assert_eq!(
        answer_signature(&replica, &kb_refs),
        answer_signature(&primary, &kb_refs),
        "seed {}",
        fault_seed()
    );
    stop_replica(&replica, thread);
    drop(proxy);
    shutdown_primary(&primary, primary_thread);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt one seeded byte inside *every* record of the shipped
/// stream, one replica per record: the divergence detector must trip
/// on the checksum every time, the records before the corruption must
/// have applied, and the diverged replica must refuse queries.
#[test]
fn every_corrupted_shipped_record_triggers_divergence() {
    let dir = tmpdir("corrupt-primary");
    let (primary, addr, primary_thread) = start_primary(&dir);
    run_workload(&primary);
    let log = std::fs::read(dir.join(LOG_FILE)).expect("read primary log");
    let boundaries = record_boundaries(&log);

    let mut lcg = Lcg::new(fault_seed());
    for (i, window) in boundaries.windows(2).enumerate() {
        let (start, end) = (window[0], window[1]);
        let payload_len = end - start - 8;
        // A seeded byte inside the record's payload (past the header,
        // so the frame still parses and the CRC is what trips).
        let victim = (start - LOG_MAGIC.len() as u64) + 8 + lcg.in_range(0, payload_len);
        let proxy = FaultProxy::start(addr);
        proxy.push_fault(Fault::CorruptAt(victim));
        let replica =
            Server::new(ServerConfig::default().with_replica_of(Some(proxy.addr().to_string())));
        let thread = replica.start_replication().expect("replica replicates");
        wait_until(
            &format!("divergence on record {i} (seed {})", fault_seed()),
            Duration::from_secs(30),
            || replica.replication_status().expect("status").diverged,
        );
        let status = replica.replication_status().expect("status");
        assert_eq!(
            status.records_applied, i as u64,
            "record {i}: everything before the corruption applies"
        );
        let resp = call(&replica, r#"{"cmd":"query","kb":"kb-dalal","q":"a"}"#);
        assert_eq!(
            resp.get("code").and_then(Json::as_str),
            Some("diverged"),
            "record {i}: a diverged replica must refuse to serve"
        );
        stop_replica(&replica, thread);
        drop(proxy);
    }
    shutdown_primary(&primary, primary_thread);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replica that followed primary A must be refused by primary B
/// whose log has the same length but different contents: the resume
/// handshake cross-checks the record checksum at the resume offset.
#[test]
fn resume_handshake_refuses_a_foreign_primary() {
    let dir_a = tmpdir("foreign-a");
    let dir_b = tmpdir("foreign-b");
    let (primary_a, addr_a, thread_a) = start_primary(&dir_a);
    let (primary_b, addr_b, thread_b) = start_primary(&dir_b);
    // Same shape, same record length, different bytes → different CRC.
    result(&call(&primary_a, r#"{"cmd":"load","kb":"k","t":"aaaa"}"#));
    result(&call(&primary_b, r#"{"cmd":"load","kb":"k","t":"bbbb"}"#));
    assert_eq!(
        std::fs::read(dir_a.join(LOG_FILE)).unwrap().len(),
        std::fs::read(dir_b.join(LOG_FILE)).unwrap().len()
    );

    let rdir = tmpdir("foreign-replica");
    let replica = Server::open(durable_config(&rdir).with_replica_of(Some(addr_a.to_string())))
        .expect("open replica");
    let thread = replica.start_replication().expect("replica replicates");
    let target = std::fs::read(dir_a.join(LOG_FILE)).unwrap().len() as u64;
    wait_until(
        "replica to follow primary A",
        Duration::from_secs(30),
        || replica.replication_status().expect("status").offset == target,
    );
    stop_replica(&replica, thread);
    drop(replica);

    // Repointed at B, the handshake must be refused as diverged.
    let replica = Server::open(durable_config(&rdir).with_replica_of(Some(addr_b.to_string())))
        .expect("reopen replica");
    let thread = replica.start_replication().expect("replica replicates");
    wait_until(
        "primary B to refuse the foreign resume",
        Duration::from_secs(30),
        || replica.replication_status().expect("status").diverged,
    );
    let stats = call(&primary_b, r#"{"cmd":"stats"}"#);
    let repl = result(&stats).get("repl").expect("repl block").clone();
    assert!(
        repl.get("refusals").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{repl:?}"
    );
    stop_replica(&replica, thread);
    shutdown_primary(&primary_a, thread_a);
    shutdown_primary(&primary_b, thread_b);
    for dir in [&dir_a, &dir_b, &rdir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Replicas reject writes with the stable `read_only` code while
/// reads and the control plane keep answering.
#[test]
fn replica_write_rejection_is_read_only() {
    let replica =
        Server::new(ServerConfig::default().with_replica_of(Some("127.0.0.1:1".to_string())));
    for line in [
        r#"{"cmd":"load","kb":"k","t":"a"}"#,
        r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!a"}"#,
        r#"{"cmd":"drop","kb":"k"}"#,
    ] {
        let resp = call(&replica, line);
        assert_eq!(
            resp.get("code").and_then(Json::as_str),
            Some("read_only"),
            "{line} -> {resp:?}"
        );
    }
    result(&call(&replica, r#"{"cmd":"ping"}"#));
    result(&call(&replica, r#"{"cmd":"list"}"#));
}

// --------------------------------------------------------- property

use proptest::prelude::*;

static PROP_CASE: AtomicUsize = AtomicUsize::new(0);

/// One scripted step of the convergence property: a primary mutation
/// or a replica-side connection cut.
fn apply_event(primary: &Server, proxy: &FaultProxy, step: usize, event: u8) {
    let kb = format!("kb{}", step % 3);
    match event % 6 {
        0 => {
            call(
                primary,
                &format!(r#"{{"cmd":"load","kb":"{kb}","t":"a; a -> b"}}"#),
            );
        }
        1 => {
            call(
                primary,
                &format!(r#"{{"cmd":"revise","kb":"{kb}","op":"dalal","p":"!b"}}"#),
            );
        }
        2 => {
            call(
                primary,
                &format!(r#"{{"cmd":"revise","kb":"{kb}","op":"widtio","p":"b | c"}}"#),
            );
        }
        3 => {
            call(
                primary,
                &format!(r#"{{"cmd":"revise","kb":"{kb}","op":"weber","p":"a & c"}}"#),
            );
        }
        4 => {
            call(primary, &format!(r#"{{"cmd":"drop","kb":"{kb}"}}"#));
        }
        _ => proxy.cut_all(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Arbitrary interleavings of load / revise / drop with replica
    /// disconnects converge: once the replica's offset reaches the
    /// primary's committed bytes, its KB list and every query answer
    /// equal the primary's — and both equal a single-node oracle that
    /// replays the primary's log.
    #[test]
    fn interleaved_writes_and_cuts_converge(events in proptest::collection::vec(0u8..6, 4..14)) {
        let case = PROP_CASE.fetch_add(1, Ordering::Relaxed);
        let dir = tmpdir(&format!("prop-{case}"));
        let (primary, addr, primary_thread) = start_primary(&dir);
        let proxy = FaultProxy::start(addr);
        let replica = Server::new(
            ServerConfig::default().with_replica_of(Some(proxy.addr().to_string())),
        );
        let thread = replica.start_replication().expect("replica replicates");

        for (step, &event) in events.iter().enumerate() {
            apply_event(&primary, &proxy, step, event);
        }
        let committed = primary.wal_committed_bytes().expect("durable primary");
        wait_until("replica to drain the interleaving", Duration::from_secs(30), || {
            replica.replication_status().expect("status").offset == committed
        });
        let status = replica.replication_status().expect("status");
        prop_assert!(!status.diverged, "{status:?}");
        prop_assert_eq!(status.lag_bytes, 0);

        // Identical KB lists...
        let names = |server: &Server| -> Vec<String> {
            let resp = call(server, r#"{"cmd":"list"}"#);
            let mut names: Vec<String> = result(&resp)
                .get("kbs")
                .and_then(Json::as_array)
                .expect("kbs array")
                .iter()
                .filter_map(|kb| kb.get("name").and_then(Json::as_str).map(String::from))
                .collect();
            names.sort();
            names
        };
        prop_assert_eq!(names(&replica), names(&primary));

        // ...and identical answers, both matching the log's oracle.
        let log = std::fs::read(dir.join(LOG_FILE)).expect("read primary log");
        let (ops, _) = decode_records(&log[LOG_MAGIC.len()..]);
        let oracle = oracle_for(&ops);
        let kbs = ["kb0", "kb1", "kb2"];
        let primary_sig = answer_signature(&primary, &kbs);
        prop_assert_eq!(&answer_signature(&replica, &kbs), &primary_sig);
        prop_assert_eq!(&answer_signature(&oracle, &kbs), &primary_sig);

        stop_replica(&replica, thread);
        drop(proxy);
        shutdown_primary(&primary, primary_thread);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
