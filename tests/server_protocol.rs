//! Wire-level contract of the revision service: golden response
//! lines, id echoing, graceful handling of malformed input, and the
//! LRU artifact cache's eviction/recompile behaviour.

use revkb::server::{Json, Server, ServerConfig};

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

fn err_code(resp: &Json) -> &str {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "{resp:?}"
    );
    resp.get("code")
        .and_then(Json::as_str)
        .expect("error carries a code")
}

/// The exact bytes of the stable responses. These lines are the
/// protocol: scripts and foreign clients parse them, so any drift is
/// a breaking change and must show up here first. The `req` values
/// are deterministic because the server is fresh (the server-assigned
/// monotonic request id starts at 1); the trace ids are deterministic
/// because every request supplies one — a missing `trace` would be
/// answered with a server-minted id, which a golden line cannot pin.
#[test]
fn golden_response_lines() {
    let server = Server::new(ServerConfig::default());
    let golden = [
        (
            r#"{"id":1,"trace":"a1","cmd":"ping"}"#,
            r#"{"v":2,"id":1,"req":1,"trace":"00000000000000a1","ok":true,"result":{"pong":true}}"#,
        ),
        (
            r#"{"id":2,"trace":"a2","cmd":"load","kb":"k","t":"a & b; b -> c; c | d"}"#,
            r#"{"v":2,"id":2,"req":2,"trace":"00000000000000a2","ok":true,"result":{"kb":"k","formulas":3,"letters":4}}"#,
        ),
        (
            r#"{"id":3,"trace":"a3","cmd":"query","kb":"k","q":"a & c"}"#,
            r#"{"v":2,"id":3,"req":3,"trace":"00000000000000a3","ok":true,"result":{"kb":"k","entails":true}}"#,
        ),
        (
            r#"{"id":4,"trace":"a4","cmd":"query_batch","kb":"k","qs":["a","!a"]}"#,
            r#"{"v":2,"id":4,"req":4,"trace":"00000000000000a4","ok":true,"result":{"kb":"k","answers":[true,false]}}"#,
        ),
        (
            r#"{"id":5,"trace":"a5","cmd":"drop","kb":"k"}"#,
            r#"{"v":2,"id":5,"req":5,"trace":"00000000000000a5","ok":true,"result":{"kb":"k","dropped":true}}"#,
        ),
        (
            r#"{"id":6,"trace":"a6","cmd":"query","kb":"ghost","q":"a"}"#,
            r#"{"v":2,"id":6,"req":6,"trace":"00000000000000a6","ok":false,"code":"unknown_kb","error":"no knowledge base named \"ghost\""}"#,
        ),
        // A full 32-hex W3C trace-id keeps its low 64 bits.
        (
            r#"{"id":7,"trace":"0af7651916cd43dd8448eb211c80319c","cmd":"ping"}"#,
            r#"{"v":2,"id":7,"req":7,"trace":"8448eb211c80319c","ok":true,"result":{"pong":true}}"#,
        ),
    ];
    for (request, expected) in golden {
        let response = server.handle_line(request).expect("non-blank request");
        assert_eq!(response, expected, "for request {request}");
    }
}

#[test]
fn ids_echo_in_every_shape() {
    let server = Server::new(ServerConfig::default());
    let cases = [
        (r#"{"id":7,"cmd":"ping"}"#, Json::Num(7.0)),
        (r#"{"id":"alpha","cmd":"ping"}"#, Json::Str("alpha".into())),
        (r#"{"cmd":"ping"}"#, Json::Null),
    ];
    for (request, want) in cases {
        let resp = call(&server, request);
        assert_eq!(resp.get("id"), Some(&want), "for {request}");
    }
}

/// Integer ids beyond 2^53 are echoed byte for byte, not rounded
/// through `f64`.
#[test]
fn large_integer_ids_echo_exactly() {
    let server = Server::new(ServerConfig::default());
    for id in ["9007199254740993", "18446744073709551615"] {
        let response = server
            .handle_line(&format!(r#"{{"id":{id},"cmd":"ping"}}"#))
            .expect("non-blank request");
        assert!(
            response.starts_with(&format!(r#"{{"v":2,"id":{id},"#)),
            "{response}"
        );
    }
}

/// Number tokens RFC 8259 forbids make the line a bad request.
#[test]
fn non_rfc_numbers_are_bad_requests() {
    let server = Server::new(ServerConfig::default());
    for number in ["01", "-01", "1.", "1.e5"] {
        let line = format!(r#"{{"id":{number},"cmd":"ping"}}"#);
        assert_eq!(err_code(&call(&server, &line)), "bad_request", "for {line}");
    }
}

#[test]
fn malformed_requests_answer_instead_of_panicking() {
    let server = Server::new(ServerConfig::default());
    let garbage = [
        "not json at all",
        "{",
        "[1,2,3]",
        "42",
        r#""just a string""#,
        r#"{"cmd":"warp"}"#,
        r#"{"cmd":"load"}"#,
        r#"{"cmd":"load","kb":"k"}"#,
        r#"{"cmd":"revise","kb":"k","op":"dalal"}"#,
        r#"{"cmd":"revise","kb":"k","op":"nonsense","p":"a"}"#,
        r#"{"cmd":"query","kb":7,"q":"a"}"#,
        r#"{"cmd":"query_batch","kb":"k","qs":"a"}"#,
        r#"{"cmd":"ping","deadline_ms":"soon"}"#,
        "{\"cmd\":\"ping\"\u{0}}",
    ];
    for line in garbage {
        let resp = call(&server, line);
        assert_eq!(err_code(&resp), "bad_request", "for {line}");
    }
    // Blank lines are skipped, not answered.
    assert!(server.handle_line("").is_none());
    assert!(server.handle_line("   ").is_none());
    // Engine-level failures use the engine's own stable codes.
    call(&server, r#"{"cmd":"load","kb":"k","t":"a & b"}"#);
    let resp = call(&server, r#"{"cmd":"load","kb":"bad","t":"a &&& b"}"#);
    assert_eq!(err_code(&resp), "parse");
    let resp = call(&server, r#"{"cmd":"query","kb":"k","q":"z9"}"#);
    assert_eq!(err_code(&resp), "out_of_alphabet");
}

fn revise_cache_tag(server: &Server, kb: &str, p: &str) -> String {
    let load = format!(r#"{{"cmd":"load","kb":"{kb}","t":"a & b"}}"#);
    call(server, &load);
    let revise = format!(r#"{{"cmd":"revise","kb":"{kb}","op":"dalal","p":"{p}"}}"#);
    let resp = call(server, &revise);
    result(&resp)
        .get("cache")
        .and_then(Json::as_str)
        .expect("revise result carries a cache tag")
        .to_string()
}

/// Capacity-2 cache: the least-recently-used artifact is the one that
/// goes, a `get` refreshes recency, and a recompiled-after-eviction
/// KB still answers correctly.
#[test]
fn lru_eviction_and_recompile() {
    let server = Server::new(ServerConfig::default().with_cache_capacity(2));

    assert_eq!(revise_cache_tag(&server, "k1", "!a"), "miss"); // cache: [A]
    assert_eq!(revise_cache_tag(&server, "k2", "!b"), "miss"); // cache: [A,B]
    assert_eq!(revise_cache_tag(&server, "k1b", "!a"), "hit"); // refresh A: [B,A]
    assert_eq!(revise_cache_tag(&server, "k3", "!a | !b"), "miss"); // evict B: [A,C]
                                                                    // B was the victim, so replaying k2's session is a miss + recompile.
    assert_eq!(revise_cache_tag(&server, "k2b", "!b"), "miss"); // evict A: [C,B]

    // The recompiled KB answers exactly like the original semantics:
    // (a ∧ b) ∘dalal ¬b  ⊨  a ∧ ¬b.
    for (q, want) in [("a", true), ("!b", true), ("b", false)] {
        let line = format!(r#"{{"cmd":"query","kb":"k2b","q":"{q}"}}"#);
        let resp = call(&server, &line);
        assert_eq!(
            result(&resp).get("entails").and_then(Json::as_bool),
            Some(want),
            "query {q} after recompile"
        );
    }

    let stats = call(&server, r#"{"cmd":"stats"}"#);
    let cache = result(&stats)
        .get("cache")
        .expect("stats carries cache block");
    let field = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(field("hits"), 1);
    assert_eq!(field("misses"), 4);
    assert_eq!(field("evictions"), 2);
    assert_eq!(field("entries"), 2);
    assert_eq!(field("capacity"), 2);
}

/// A revise response documents how the artifact was obtained and what
/// it produced; pin the field set so clients can rely on it.
#[test]
fn revise_response_shape() {
    let server = Server::new(ServerConfig::default());
    call(&server, r#"{"cmd":"load","kb":"k","t":"a & b; b -> c"}"#);
    let resp = call(
        &server,
        r#"{"cmd":"revise","kb":"k","op":"satoh","p":"!b"}"#,
    );
    let body = result(&resp);
    assert_eq!(body.get("kb").and_then(Json::as_str), Some("k"));
    assert_eq!(body.get("op").and_then(Json::as_str), Some("satoh"));
    assert_eq!(body.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(body.get("degraded").and_then(Json::as_bool), Some(false));
    assert_eq!(body.get("revisions").and_then(Json::as_u64), Some(1));
    assert!(body.get("compiled_size").and_then(Json::as_u64).is_some());
    assert!(body.get("engine").and_then(Json::as_str).is_some());
    assert!(body.get("backend").and_then(Json::as_str).is_some());
}
