//! A model-based KB revised one step at a time is compiled by extending
//! its running chain, not from `T` again. Whatever path a revise takes
//! — a fresh chain, an extended one, a chain taken up from a cached
//! artifact, a fold from `T` when `Pⁱ` brings a new letter, a degraded
//! compile, or a replay after a restart — the KB must answer exactly
//! like the whole chain compiled from `T` in one go, and its
//! `compiled_size` must be that compilation's `|T'|`.

use revkb::logic::{parse, Formula, Signature};
use revkb::revision::{ModelBasedOp, RevisedKb};
use revkb::server::{Json, Server, ServerConfig, SyncMode};
use std::path::PathBuf;

const THEORY: &str = "a & b; c | d; d -> e";
const CHAIN: [&str; 4] = ["!a | !b", "!c & !d", "a <+> e", "!b & (c -> e)"];
/// Step 2 brings the new letter `f`.
const NEW_LETTER: [&str; 3] = ["!a | !b", "f & !c", "!e | !f"];
const QUERIES: [&str; 13] = [
    "a", "!a", "b", "!b", "c", "!c", "d", "!d", "e", "!e", "a | c", "b & e", "d -> a",
];
const BACKENDS: [&str; 2] = ["direct", "bdd"];

fn call(server: &Server, line: &str) -> Json {
    let response = server.handle_line(line).expect("request line is not blank");
    let resp = Json::parse(&response).unwrap_or_else(|e| panic!("not JSON ({e}): {response}"));
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{line} -> {resp:?}"
    );
    resp.get("result")
        .expect("ok response has a result")
        .clone()
}

fn load(server: &Server, kb: &str) {
    call(
        server,
        &format!(r#"{{"cmd":"load","kb":"{kb}","t":"{THEORY}"}}"#),
    );
}

/// Revise `kb` by `p`; returns the result.
fn revise(server: &Server, kb: &str, op: ModelBasedOp, backend: &str, p: &str) -> Json {
    call(
        server,
        &format!(
            r#"{{"cmd":"revise","kb":"{kb}","op":"{}","p":"{p}","backend":"{backend}"}}"#,
            op.name().to_ascii_lowercase()
        ),
    )
}

/// The whole chain compiled from `T` in one go, the way a revise with
/// no running chain compiles it, with the KB's letter numbering.
fn whole_chain(op: ModelBasedOp, backend: &str, ps: &[&str]) -> RevisedKb {
    let mut sig = Signature::new();
    let t = Formula::and_all(THEORY.split(';').map(|f| parse(f, &mut sig).unwrap()));
    let ps: Vec<Formula> = ps.iter().map(|p| parse(p, &mut sig).unwrap()).collect();
    match (ps.as_slice(), backend) {
        ([p], "bdd") => RevisedKb::compile_via_bdd(op, &t, p).unwrap(),
        _ => RevisedKb::compile_iterated(op, &t, &ps).unwrap(),
    }
}

/// Compare `kb` after the revisions `ps` with [`whole_chain`]: every
/// query's answer and, unless the KB is degraded, `compiled_size`.
fn check(server: &Server, kb: &str, op: ModelBasedOp, backend: &str, ps: &[&str], resp: &Json) {
    let reference = whole_chain(op, backend, ps);
    let mut sig = Signature::new();
    for f in THEORY.split(';').chain(ps.iter().copied()) {
        parse(f, &mut sig).unwrap();
    }
    for q in QUERIES {
        let answer = call(
            server,
            &format!(r#"{{"cmd":"query","kb":"{kb}","q":"{q}"}}"#),
        );
        let expected = reference.entails(&parse(q, &mut sig).unwrap());
        assert_eq!(
            answer.get("entails").and_then(Json::as_bool),
            Some(expected),
            "{kb} after {ps:?}: query {q}"
        );
    }
    if resp.get("degraded").and_then(Json::as_bool) == Some(false) {
        assert_eq!(
            resp.get("compiled_size").and_then(Json::as_u64),
            Some(reference.size() as u64),
            "{kb} after {ps:?}: |T'|"
        );
    }
}

fn cache_outcome(resp: &Json) -> &str {
    resp.get("cache").and_then(Json::as_str).unwrap()
}

/// Steps 1–4 of every operator on both backends: step 1 compiles from
/// `T` (BDD or direct), every later direct step extends the chain (a
/// BDD step 1 has none, so step 2 compiles from `T` and steps 3–4
/// extend). A second KB then replays steps 1–3 from the cache, taking
/// the chain up from each hit's artifact, and misses on a new step 4.
#[test]
fn step_by_step_matches_whole_chain() {
    let server = Server::new(ServerConfig::default());
    for op in ModelBasedOp::ALL {
        for backend in BACKENDS {
            let kb = format!("k-{}-{backend}", op.name());
            load(&server, &kb);
            for step in 1..=CHAIN.len() {
                let resp = revise(&server, &kb, op, backend, CHAIN[step - 1]);
                assert_eq!(cache_outcome(&resp), "miss");
                check(&server, &kb, op, backend, &CHAIN[..step], &resp);
            }

            let kb = format!("h-{}-{backend}", op.name());
            load(&server, &kb);
            for step in 1..=3 {
                let resp = revise(&server, &kb, op, backend, CHAIN[step - 1]);
                assert_eq!(cache_outcome(&resp), "hit");
                check(&server, &kb, op, backend, &CHAIN[..step], &resp);
            }
            let resp = revise(&server, &kb, op, backend, "e & !a");
            assert_eq!(cache_outcome(&resp), "miss");
            let ps = [CHAIN[0], CHAIN[1], CHAIN[2], "e & !a"];
            check(&server, &kb, op, backend, &ps, &resp);
        }
    }
}

/// A step over a letter the chain's base alphabet lacks cannot extend
/// the chain: the revise compiles from `T` over the wider alphabet,
/// and the step after it extends that new chain.
#[test]
fn new_letter_folds_from_t() {
    let server = Server::new(ServerConfig::default());
    for op in ModelBasedOp::ALL {
        for backend in BACKENDS {
            let kb = format!("n-{}-{backend}", op.name());
            load(&server, &kb);
            for step in 1..=NEW_LETTER.len() {
                let resp = revise(&server, &kb, op, backend, NEW_LETTER[step - 1]);
                check(&server, &kb, op, backend, &NEW_LETTER[..step], &resp);
            }
            let resp = call(
                &server,
                &format!(r#"{{"cmd":"query","kb":"{kb}","q":"!f | !e"}}"#),
            );
            assert_eq!(resp.get("entails").and_then(Json::as_bool), Some(true));
        }
    }
}

/// With a zero compile budget every revise degrades to delayed
/// incorporation and leaves no chain behind; answers stay exact.
#[test]
fn degraded_kb_answers_like_whole_chain() {
    let server = Server::new(ServerConfig::default().with_compile_timeout_ms(Some(0)));
    for op in ModelBasedOp::ALL {
        let kb = format!("d-{}", op.name());
        load(&server, &kb);
        for step in 1..=CHAIN.len() {
            let resp = revise(&server, &kb, op, "direct", CHAIN[step - 1]);
            assert_eq!(resp.get("degraded").and_then(Json::as_bool), Some(true));
            check(&server, &kb, op, "direct", &CHAIN[..step], &resp);
        }
    }
}

/// A durable server restarted after three steps replays them from its
/// log — compiling again, or hitting artifacts restored from its
/// snapshot — and the fourth step extends the replayed chain.
#[test]
fn restart_replays_the_chain() {
    for snapshot_every in [1000, 1] {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "revkb-chain-{}-{snapshot_every}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            ServerConfig::default()
                .with_data_dir(Some(dir.clone()))
                .with_wal_sync(SyncMode::Off)
                .with_snapshot_every(snapshot_every)
        };
        {
            let server = Server::open(config()).unwrap();
            for op in ModelBasedOp::ALL {
                for backend in BACKENDS {
                    let kb = format!("r-{}-{backend}", op.name());
                    load(&server, &kb);
                    for p in &CHAIN[..3] {
                        revise(&server, &kb, op, backend, p);
                    }
                }
            }
        }
        let server = Server::open(config()).unwrap();
        let report = server.recovery_report().expect("durable server");
        assert_eq!(report.replay_errors, 0, "{report:?}");
        for op in ModelBasedOp::ALL {
            for backend in BACKENDS {
                let kb = format!("r-{}-{backend}", op.name());
                let resp = revise(&server, &kb, op, backend, CHAIN[3]);
                assert_eq!(cache_outcome(&resp), "miss");
                check(&server, &kb, op, backend, &CHAIN, &resp);
            }
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
