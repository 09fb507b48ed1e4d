//! Crash-safety contract of the durable KB store: a server reopened
//! from its data directory answers exactly like an uninterrupted
//! oracle, for every prefix the crash could have left behind — and the
//! on-disk record format is pinned by a golden file so it cannot drift
//! silently.

use revkb::server::wal::{decode_records, encode_record, LOG_FILE, LOG_MAGIC, SNAPSHOT_FILE};
use revkb::server::{Json, OpName, Server, ServerConfig, SyncMode, WalOp};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("revkb-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> ServerConfig {
    // Sync off: these tests simulate crashes by truncating the file
    // themselves, so fsyncs only slow the suite down.
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

/// The workload every test replays: one KB per operator (all eight),
/// an iterated model-based chain, and a KB that is dropped again.
fn run_workload(server: &Server) {
    for op in OpName::ALL {
        let kb = format!("kb-{}", op.tag());
        call(
            server,
            &format!(r#"{{"cmd":"load","kb":"{kb}","t":"a; a -> b"}}"#),
        );
        let resp = call(
            server,
            &format!(
                r#"{{"cmd":"revise","kb":"{kb}","op":"{}","p":"!b"}}"#,
                op.tag()
            ),
        );
        result(&resp);
    }
    // A second Dalal step: iterated chains must replay too.
    result(&call(
        server,
        r#"{"cmd":"revise","kb":"kb-dalal","op":"dalal","p":"a & b"}"#,
    ));
    // Loaded then dropped: must stay dropped after recovery.
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

#[test]
fn recovered_server_matches_oracle_across_all_operators() {
    let dir = tmpdir("all-ops");
    {
        let server = Server::open(durable_config(&dir)).unwrap();
        run_workload(&server);
    }
    let recovered = Server::open(durable_config(&dir)).unwrap();
    let report = recovered.recovery_report().expect("durable server");
    assert_eq!(report.replay_errors, 0, "{report:?}");
    // 8 loads + 9 revises + 1 load + 1 drop = 19 committed records.
    assert_eq!(report.replayed, 19);
    assert_eq!(report.truncated_bytes, 0);

    let oracle = Server::new(ServerConfig::default());
    run_workload(&oracle);
    let kbs = workload_kbs();
    let kb_refs: Vec<&str> = kbs.iter().map(String::as_str).collect();
    assert_eq!(
        answer_signature(&recovered, &kb_refs),
        answer_signature(&oracle, &kb_refs)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_boot_answers_without_recompiling() {
    let dir = tmpdir("warm");
    {
        // Snapshot after every revise: the artifact is on disk when
        // the process dies.
        let server = Server::open(durable_config(&dir).with_snapshot_every(1)).unwrap();
        call(&server, r#"{"cmd":"load","kb":"k","t":"a & b"}"#);
        let resp = call(
            &server,
            r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!a"}"#,
        );
        assert_eq!(
            result(&resp).get("cache").and_then(Json::as_str),
            Some("miss")
        );
    }
    assert!(dir.join(SNAPSHOT_FILE).exists());
    let recovered = Server::open(durable_config(&dir).with_snapshot_every(1)).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.snapshot_artifacts, 1, "{report:?}");
    assert_eq!(report.replayed, 2);
    // The replayed revise hit the pre-warmed cache: recovery compiled
    // nothing, which is the whole point of snapshots.
    let resp = call(&recovered, r#"{"cmd":"stats"}"#);
    let stats = result(&resp);
    let cache = stats.get("cache").unwrap();
    assert_eq!(
        cache.get("hits").and_then(Json::as_u64),
        Some(1),
        "{cache:?}"
    );
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(0));
    let wal = stats.get("wal").unwrap();
    assert_eq!(wal.get("enabled").and_then(Json::as_bool), Some(true));
    let recovery = wal.get("recovery").unwrap();
    assert_eq!(recovery.get("replayed").and_then(Json::as_u64), Some(2));
    // A fresh KB with the identical theory and revision is a pure
    // cache hit — the first warm answer never recompiles.
    call(&recovered, r#"{"cmd":"load","kb":"k2","t":"a & b"}"#);
    let resp = call(
        &recovered,
        r#"{"cmd":"revise","kb":"k2","op":"dalal","p":"!a"}"#,
    );
    assert_eq!(
        result(&resp).get("cache").and_then(Json::as_str),
        Some("hit")
    );
    // And the recovered KB still answers the revised theory.
    let resp = call(&recovered, r#"{"cmd":"query","kb":"k","q":"b"}"#);
    assert_eq!(
        result(&resp).get("entails").and_then(Json::as_bool),
        Some(true)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill the writer at *every byte offset* of the log: for each
/// truncation point, a server booted from the torn log must answer
/// exactly like an oracle that ran only the fully committed records.
#[test]
fn every_torn_tail_recovers_the_committed_prefix() {
    let dir = tmpdir("torn-build");
    {
        let server = Server::open(durable_config(&dir)).unwrap();
        // Small workload (compiles are tiny) — but covering load,
        // iterated revise, and drop.
        call(&server, r#"{"cmd":"load","kb":"k1","t":"a; a -> b"}"#);
        call(
            &server,
            r#"{"cmd":"revise","kb":"k1","op":"dalal","p":"!b"}"#,
        );
        call(
            &server,
            r#"{"cmd":"revise","kb":"k1","op":"dalal","p":"b"}"#,
        );
        call(&server, r#"{"cmd":"load","kb":"k2","t":"a & b"}"#);
        call(
            &server,
            r#"{"cmd":"revise","kb":"k2","op":"widtio","p":"!a"}"#,
        );
        call(&server, r#"{"cmd":"drop","kb":"k1"}"#);
    }
    let full = std::fs::read(dir.join(LOG_FILE)).unwrap();
    let body = &full[LOG_MAGIC.len()..];
    let (all_ops, good) = decode_records(body);
    assert_eq!(good, body.len(), "the intact log has no bad tail");
    assert_eq!(all_ops.len(), 6);

    let kbs = ["k1", "k2"];
    let cut_dir = tmpdir("torn-cut");
    for cut in 0..=body.len() {
        let _ = std::fs::remove_dir_all(&cut_dir);
        std::fs::create_dir_all(&cut_dir).unwrap();
        let mut torn = LOG_MAGIC.to_vec();
        torn.extend_from_slice(&body[..cut]);
        std::fs::write(cut_dir.join(LOG_FILE), &torn).unwrap();

        let recovered = Server::open(durable_config(&cut_dir)).unwrap();
        let (committed, _) = decode_records(&body[..cut]);
        let report = recovered.recovery_report().unwrap();
        assert_eq!(report.replayed, committed.len() as u64, "cut at {cut}");
        assert_eq!(report.replay_errors, 0, "cut at {cut}");

        let oracle = Server::new(ServerConfig::default());
        for op in &committed {
            let line = match op {
                WalOp::Load { kb, t } => {
                    format!(r#"{{"cmd":"load","kb":"{kb}","t":"{t}"}}"#)
                }
                WalOp::Revise { kb, op, p, backend } => format!(
                    r#"{{"cmd":"revise","kb":"{kb}","op":"{op}","p":"{p}","backend":"{backend}"}}"#
                ),
                WalOp::Drop { kb } => format!(r#"{{"cmd":"drop","kb":"{kb}"}}"#),
            };
            result(&call(&oracle, &line));
        }
        assert_eq!(
            answer_signature(&recovered, &kbs),
            answer_signature(&oracle, &kbs),
            "cut at {cut}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cut_dir);
}

#[test]
fn corrupt_byte_truncates_and_recovery_reports_it() {
    let dir = tmpdir("flip");
    {
        let server = Server::open(durable_config(&dir)).unwrap();
        call(&server, r#"{"cmd":"load","kb":"k","t":"a & b"}"#);
        call(
            &server,
            r#"{"cmd":"revise","kb":"k","op":"satoh","p":"!a"}"#,
        );
    }
    let log_path = dir.join(LOG_FILE);
    let mut bytes = std::fs::read(&log_path).unwrap();
    // Flip one byte inside the second record's payload.
    let first_len = {
        let body = &bytes[LOG_MAGIC.len()..];
        8 + u32::from_le_bytes(body[..4].try_into().unwrap()) as usize
    };
    let victim = LOG_MAGIC.len() + first_len + 12;
    bytes[victim] ^= 0x20;
    std::fs::write(&log_path, &bytes).unwrap();

    let recovered = Server::open(durable_config(&dir)).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.replayed, 1, "{report:?}");
    assert!(report.truncated_bytes > 0);
    // Only the load survived: the KB exists, unrevised.
    let resp = call(&recovered, r#"{"cmd":"query","kb":"k","q":"a"}"#);
    assert_eq!(
        result(&resp).get("entails").and_then(Json::as_bool),
        Some(true)
    );
    // The truncated log is persisted: a second reopen sees a clean log.
    drop(recovered);
    let again = Server::open(durable_config(&dir)).unwrap();
    let report = again.recovery_report().unwrap();
    assert_eq!(report.truncated_bytes, 0, "{report:?}");
    assert_eq!(report.replayed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_is_ignored_not_fatal() {
    let dir = tmpdir("bad-snap");
    {
        let server = Server::open(durable_config(&dir).with_snapshot_every(1)).unwrap();
        call(&server, r#"{"cmd":"load","kb":"k","t":"a & b"}"#);
        call(
            &server,
            r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!a"}"#,
        );
    }
    std::fs::write(dir.join(SNAPSHOT_FILE), b"garbage, not a snapshot").unwrap();
    let recovered = Server::open(durable_config(&dir).with_snapshot_every(1)).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.snapshot_artifacts, 0, "{report:?}");
    assert_eq!(report.replayed, 2);
    // Replay recompiled instead — slower, never wrong.
    let resp = call(&recovered, r#"{"cmd":"query","kb":"k","q":"b"}"#);
    assert_eq!(
        result(&resp).get("entails").and_then(Json::as_bool),
        Some(true)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn logged_formulas_deeper_than_the_cap_replay() {
    // A log written before the parser capped nesting can hold formulas
    // deeper than `MAX_DEPTH`. Replay must bring them back rather than
    // skip them, while a client sending the same text is refused.
    let depth = revkb::logic::MAX_DEPTH + 44;
    let deep_t = format!("{}a; b", "!".repeat(depth));
    let deep_p = format!("{}!a{}", "(".repeat(depth), ")".repeat(depth));
    let dir = tmpdir("deep");
    std::fs::create_dir_all(&dir).unwrap();
    let mut log = LOG_MAGIC.to_vec();
    for op in [
        WalOp::Load {
            kb: "deep".into(),
            t: deep_t.clone(),
        },
        WalOp::Revise {
            kb: "deep".into(),
            op: "dalal".into(),
            p: deep_p,
            backend: "direct".into(),
        },
    ] {
        log.extend_from_slice(&encode_record(&op));
    }
    std::fs::write(dir.join(LOG_FILE), &log).unwrap();

    let server = Server::open(durable_config(&dir)).unwrap();
    let report = server.recovery_report().unwrap();
    assert_eq!(
        (report.replayed, report.replay_errors),
        (2, 0),
        "{report:?}"
    );
    // {a, b} revised by ¬a under Dalal is ¬a ∧ b.
    for (q, expected) in [("b", true), ("!a", true)] {
        let resp = call(
            &server,
            &format!(r#"{{"cmd":"query","kb":"deep","q":"{q}"}}"#),
        );
        assert_eq!(
            result(&resp).get("entails").and_then(Json::as_bool),
            Some(expected),
            "{q}"
        );
    }
    let refused = call(
        &server,
        &format!(r#"{{"cmd":"load","kb":"again","t":"{deep_t}"}}"#),
    );
    assert_eq!(
        refused.get("code").and_then(Json::as_str),
        Some("formula_too_deep"),
        "{refused:?}"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The golden ops pinned in `tests/golden/wal_v1.log`. Any change to
/// the on-disk encoding breaks this test — which is the point: bump
/// the magic's version digit and write a new golden file instead of
/// silently orphaning existing data directories.
fn golden_ops() -> Vec<WalOp> {
    vec![
        WalOp::Load {
            kb: "alpha".into(),
            t: "a & b; b -> c".into(),
        },
        WalOp::Revise {
            kb: "alpha".into(),
            op: "dalal".into(),
            p: "!a".into(),
            backend: "direct".into(),
        },
        WalOp::Revise {
            kb: "alpha".into(),
            op: "gfuv".into(),
            p: "c | d".into(),
            backend: "bdd".into(),
        },
        WalOp::Drop { kb: "alpha".into() },
    ]
}

#[test]
fn on_disk_record_format_matches_golden_file() {
    let mut encoded = LOG_MAGIC.to_vec();
    for op in golden_ops() {
        encoded.extend_from_slice(&encode_record(&op));
    }
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wal_v1.log");
    let golden = std::fs::read(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    assert_eq!(
        encoded, golden,
        "wal record encoding drifted from tests/golden/wal_v1.log"
    );
    // And the golden bytes decode back to exactly the golden ops.
    let (ops, good) = decode_records(&golden[LOG_MAGIC.len()..]);
    assert_eq!(good, golden.len() - LOG_MAGIC.len());
    assert_eq!(ops, golden_ops());
}
