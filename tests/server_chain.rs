//! A model-based KB revised one step at a time with the direct backend
//! is compiled by extending its running chain, not from `T` again; with
//! the BDD backend, each revise compiles the whole chain from `T` into
//! one ROBDD. Whatever path a revise takes — a fresh chain, an extended
//! one, a chain taken up from a cached artifact, a fold from `T` when
//! `Pⁱ` brings a new letter, a BDD compile, a degraded compile, or a
//! replay after a restart — the KB must answer exactly like the whole
//! chain compiled from `T` in one go, and its `compiled_size` must be
//! that compilation's `|T'|`. A WIDTIO KB revised step by step must
//! likewise answer and report `|T'|` as the fold from `T` does.

use revkb::logic::{parse, Formula, Signature};
use revkb::revision::{widtio, Engine, ModelBasedOp, RevisedKb, Theory, WidtioEngine};
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
    match backend {
        "bdd" => RevisedKb::compile_via_bdd(op, &t, &ps).unwrap(),
        _ => RevisedKb::compile_iterated(op, &t, &ps).unwrap(),
    }
}

/// Compare `kb` after the revisions `ps` with [`whole_chain`]: every
/// query's answer and, unless the KB is degraded, `compiled_size`. A
/// BDD-backend reference must also answer like the direct one.
fn check(server: &Server, kb: &str, op: ModelBasedOp, backend: &str, ps: &[&str], resp: &Json) {
    let reference = whole_chain(op, backend, ps);
    let direct = (backend == "bdd").then(|| whole_chain(op, "direct", ps));
    let mut sig = Signature::new();
    for f in THEORY.split(';').chain(ps.iter().copied()) {
        parse(f, &mut sig).unwrap();
    }
    for q in QUERIES {
        let answer = call(
            server,
            &format!(r#"{{"cmd":"query","kb":"{kb}","q":"{q}"}}"#),
        );
        let q_formula = parse(q, &mut sig).unwrap();
        let expected = reference.entails(&q_formula);
        if let Some(direct) = &direct {
            assert_eq!(
                direct.entails(&q_formula),
                expected,
                "{kb} after {ps:?}: BDD and direct chains disagree on {q}"
            );
        }
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
/// `T`, every later direct step extends the chain, and every BDD step
/// compiles the whole chain from `T`. A second KB then replays steps
/// 1–3 from the cache, taking a direct chain up from each hit's
/// artifact, and misses on a new step 4.
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

/// 17 letters: a BDD-backend step 1 fits the 20-letter enumeration cap.
const WIDE_THEORY: &str = "a & b; c | d; d -> e; g1 & g2 & g3 & g4 & g5 & g6; \
                           (g7 | g8) & (g9 | g10) & (g11 | g12)";
/// Step 2 brings four new letters, widening the alphabet to 21.
const WIDE_CHAIN: [&str; 3] = ["!a | !b", "(h1 | h2) & (h3 -> h4) & !c", "!d | !g1"];
const WIDE_QUERIES: [&str; 10] = [
    "a", "!b", "c", "d", "e", "g1", "g7 | g8", "h1 | h2", "h4", "!c",
];

/// A BDD-backend chain whose step 2 widens the alphabet past the
/// enumeration cap still compiles: the direct constructions take it,
/// step 3 extends that chain, and every answer and `|T'|` is the direct
/// chain's. A first step already past the cap is refused.
#[test]
fn bdd_chain_past_the_enumeration_cap_compiles_directly() {
    let server = Server::new(ServerConfig::default());
    let mut sig = Signature::new();
    let t = Formula::and_all(WIDE_THEORY.split(';').map(|f| parse(f, &mut sig).unwrap()));
    let ps: Vec<Formula> = WIDE_CHAIN
        .iter()
        .map(|p| parse(p, &mut sig).unwrap())
        .collect();
    for op in ModelBasedOp::ALL {
        let kb = format!("w-{}", op.name());
        call(
            &server,
            &format!(r#"{{"cmd":"load","kb":"{kb}","t":"{WIDE_THEORY}"}}"#),
        );
        for step in 1..=WIDE_CHAIN.len() {
            let resp = revise(&server, &kb, op, "bdd", WIDE_CHAIN[step - 1]);
            let direct = RevisedKb::compile_iterated(op, &t, &ps[..step]).unwrap();
            let size = match step {
                1 => RevisedKb::compile_via_bdd(op, &t, &ps[..1]).unwrap().size(),
                _ => direct.size(),
            };
            assert_eq!(
                resp.get("compiled_size").and_then(Json::as_u64),
                Some(size as u64),
                "{kb} step {step}: |T'|"
            );
            // The `h` letters join the alphabet at step 2.
            for q in WIDE_QUERIES.iter().filter(|q| step > 1 || !q.contains('h')) {
                let answer = call(
                    &server,
                    &format!(r#"{{"cmd":"query","kb":"{kb}","q":"{q}"}}"#),
                );
                let expected = direct.entails(&parse(q, &mut sig).unwrap());
                assert_eq!(
                    answer.get("entails").and_then(Json::as_bool),
                    Some(expected),
                    "{kb} step {step}: query {q}"
                );
            }
        }
    }
    call(
        &server,
        &format!(r#"{{"cmd":"load","kb":"too-wide","t":"{WIDE_THEORY}; h1 & h2 & h3 & h4"}}"#),
    );
    let response = server
        .handle_line(r#"{"cmd":"revise","kb":"too-wide","op":"dalal","p":"!a","backend":"bdd"}"#)
        .unwrap();
    let resp = Json::parse(&response).unwrap();
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "{response}"
    );
    assert!(response.contains("alphabet_too_large"), "{response}");
}

/// WIDTIO revised step by step — three steps, then a fourth after a
/// restart that replays the first three from the log — answers and
/// reports `|T'|` exactly as the fold of `widtio` from `T` does.
#[test]
fn widtio_chain_matches_fold_from_t() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("revkb-widtio-chain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || {
        ServerConfig::default()
            .with_data_dir(Some(dir.clone()))
            .with_wal_sync(SyncMode::Off)
    };
    let widtio_revise = |server: &Server, p: &str| {
        call(
            server,
            &format!(r#"{{"cmd":"revise","kb":"w","op":"widtio","p":"{p}"}}"#),
        )
    };
    let check_fold = |server: &Server, steps: usize, resp: &Json| {
        let mut sig = Signature::new();
        let mut theory = Theory::new(THEORY.split(';').map(|f| parse(f, &mut sig).unwrap()));
        let ps: Vec<Formula> = CHAIN[..steps]
            .iter()
            .map(|p| parse(p, &mut sig).unwrap())
            .collect();
        let (last, earlier) = ps.split_last().unwrap();
        for p in earlier {
            theory = widtio(&theory, p);
        }
        let mut reference = WidtioEngine::compile(&theory, last);
        assert_eq!(
            resp.get("compiled_size").and_then(Json::as_u64),
            reference.compiled_size().map(|s| s as u64),
            "step {steps}: |T'|"
        );
        for q in QUERIES {
            let answer = call(server, &format!(r#"{{"cmd":"query","kb":"w","q":"{q}"}}"#));
            let expected = reference.entails(&parse(q, &mut sig).unwrap());
            assert_eq!(
                answer.get("entails").and_then(Json::as_bool),
                Some(expected),
                "step {steps}: query {q}"
            );
        }
    };
    {
        let server = Server::open(config()).unwrap();
        load(&server, "w");
        for step in 1..=3 {
            let resp = widtio_revise(&server, CHAIN[step - 1]);
            check_fold(&server, step, &resp);
        }
    }
    let server = Server::open(config()).unwrap();
    assert_eq!(server.recovery_report().unwrap().replay_errors, 0);
    let resp = widtio_revise(&server, CHAIN[3]);
    check_fold(&server, 4, &resp);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
