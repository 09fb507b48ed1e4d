//! Concurrency stress for the revision service: four TCP clients
//! drive every operator the paper analyses against one server, and
//! every answer must equal a single-threaded oracle computed by
//! direct `Engine` calls. Along the way the session must exhibit the
//! server's whole failure vocabulary — at least one artifact-cache
//! hit, one deadline-enforced timeout, an `overloaded` rejection, and
//! malformed requests answered rather than panicked on — and the
//! server must shut down cleanly with every thread joined.

use revkb::prelude::*;
use revkb::server::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

const OPS: [&str; 8] = [
    "winslett", "borgida", "forbus", "satoh", "dalal", "weber", "gfuv", "widtio",
];
const THEORY: &str = "a & b; b -> c; c | d";
const REVISION: &str = "!b | !c";
const QUERIES: [&str; 4] = ["a", "c | d", "b & c", "!(b & c)"];

/// What the server must answer, computed by direct Engine calls with
/// the same parse order the server uses (theory segments, then P,
/// then queries, one shared signature per KB).
fn oracle_answers(op: &str) -> Vec<bool> {
    let mut sig = Signature::new();
    let theory: Vec<Formula> = THEORY
        .split(';')
        .map(|s| parse(s.trim(), &mut sig).expect("theory parses"))
        .collect();
    let p = parse(REVISION, &mut sig).expect("revision parses");
    let queries: Vec<Formula> = QUERIES
        .iter()
        .map(|q| parse(q, &mut sig).expect("query parses"))
        .collect();
    let mut engine: Box<dyn Engine + Send> = match op {
        "gfuv" => {
            Box::new(GfuvEngine::compile(Theory::new(theory), p, 1 << 20).expect("gfuv compiles"))
        }
        "widtio" => Box::new(WidtioEngine::compile(&Theory::new(theory), &p)),
        name => {
            let m = ModelBasedOp::from_name(name).expect("operator name");
            let t = Formula::and_all(theory);
            Box::new(
                ReviseBuilder::new(m)
                    .engine(&t, std::slice::from_ref(&p))
                    .expect("model-based compile"),
            )
        }
    };
    queries
        .iter()
        .map(|q| engine.try_entails(q).expect("oracle query"))
        .collect()
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to server");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { writer, reader }
    }

    fn call(&mut self, line: &str) -> Json {
        writeln!(self.writer, "{line}").expect("send request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        Json::parse(response.trim())
            .unwrap_or_else(|e| panic!("response not JSON ({e}): {response}"))
    }

    fn call_ok(&mut self, line: &str) -> Json {
        let resp = self.call(line);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "request failed: {line} -> {resp:?}"
        );
        resp.get("result")
            .expect("ok response carries a result")
            .clone()
    }
}

/// One client's share of the stress run: two operators, two rounds
/// each (the second round replays the identical compile, so for the
/// model-based operators it must come from the artifact cache).
fn client_session(addr: std::net::SocketAddr, ops: &[&str], expected: &[Vec<bool>]) {
    let mut client = Client::connect(addr);
    for (op, oracle) in ops.iter().zip(expected) {
        for round in 0..2 {
            let kb = format!("{op}-r{round}");
            client.call_ok(&format!(r#"{{"cmd":"load","kb":"{kb}","t":"{THEORY}"}}"#));
            let revise = client.call_ok(&format!(
                r#"{{"cmd":"revise","kb":"{kb}","op":"{op}","p":"{REVISION}"}}"#
            ));
            let cache = revise.get("cache").and_then(Json::as_str).unwrap();
            match *op {
                "gfuv" | "widtio" => assert_eq!(cache, "bypass", "{kb}"),
                _ if round == 1 => assert_eq!(cache, "hit", "{kb}: warm compile must hit"),
                _ => assert!(cache == "miss" || cache == "hit", "{kb}: {cache}"),
            }
            // Single queries and a batch must both match the oracle.
            for (q, &want) in QUERIES.iter().zip(oracle) {
                let resp = client.call_ok(&format!(r#"{{"cmd":"query","kb":"{kb}","q":"{q}"}}"#));
                assert_eq!(
                    resp.get("entails").and_then(Json::as_bool),
                    Some(want),
                    "{op} diverges from oracle on {q}"
                );
            }
            let qs: Vec<String> = QUERIES.iter().map(|q| format!("\"{q}\"")).collect();
            let batch = client.call_ok(&format!(
                r#"{{"cmd":"query_batch","kb":"{kb}","qs":[{}]}}"#,
                qs.join(",")
            ));
            let answers: Vec<bool> = batch
                .get("answers")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|a| a.as_bool().unwrap())
                .collect();
            assert_eq!(&answers, oracle, "{op} batch diverges from oracle");
        }
        // A malformed line mid-session is answered, never fatal.
        let resp = client.call("this is not a request");
        assert_eq!(resp.get("code").and_then(Json::as_str), Some("bad_request"));
    }
}

#[test]
fn four_clients_match_single_threaded_oracle() {
    let oracle: Vec<Vec<bool>> = OPS.iter().map(|op| oracle_answers(op)).collect();

    let server = Server::new(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let srv = server.clone();
    let server_thread = thread::spawn(move || srv.serve_event_loop(listener));

    let clients: Vec<_> = (0..4usize)
        .map(|i| {
            let ops: Vec<&'static str> = OPS[2 * i..2 * i + 2].to_vec();
            let expected = oracle[2 * i..2 * i + 2].to_vec();
            thread::spawn(move || client_session(addr, &ops, &expected))
        })
        .collect();
    for client in clients {
        client.join().expect("client thread must not panic");
    }

    // One more client exercises the deadline path (deadline_ms: 0 is
    // always already expired) and reads the final statistics.
    let mut probe = Client::connect(addr);
    probe.call_ok(&format!(r#"{{"cmd":"load","kb":"probe","t":"{THEORY}"}}"#));
    let late = probe.call(r#"{"cmd":"query","kb":"probe","q":"a","deadline_ms":0}"#);
    assert_eq!(late.get("code").and_then(Json::as_str), Some("timeout"));

    let stats = probe.call_ok(r#"{"cmd":"stats"}"#);
    let cache = stats.get("cache").expect("cache block");
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap();
    // Six model-based operators each replayed once: six guaranteed hits.
    assert!(
        hits >= 6,
        "expected cache hits from warm rounds, got {hits}"
    );
    assert!(stats.get("timeouts").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(stats.get("in_flight").and_then(Json::as_u64), Some(0));

    // Clean shutdown: the event loop drains and its workers join.
    let bye = probe.call(r#"{"cmd":"shutdown"}"#);
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    drop(probe);
    server_thread
        .join()
        .expect("server thread join")
        .expect("event loop exits cleanly");

    // The listener is gone once serve_event_loop returns: a fresh connection
    // is refused outright, or at best reset without an answer.
    if let Ok(stream) = TcpStream::connect(addr) {
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut stream = stream;
        let _ = writeln!(stream, r#"{{"cmd":"ping"}}"#);
        let mut line = String::new();
        let answered = reader.read_line(&mut line).unwrap_or(0);
        assert_eq!(answered, 0, "shut-down server must not answer: {line}");
    }
}

/// With an admission queue of zero, every data-plane request is
/// rejected `overloaded` while the control plane stays reachable.
#[test]
fn zero_queue_server_sheds_load_over_tcp() {
    let server = Server::new(ServerConfig::default().with_queue(0));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let srv = server.clone();
    let server_thread = thread::spawn(move || srv.serve_event_loop(listener));

    let mut client = Client::connect(addr);
    let resp = client.call(r#"{"cmd":"load","kb":"k","t":"a"}"#);
    assert_eq!(resp.get("code").and_then(Json::as_str), Some("overloaded"));
    let pong = client.call(r#"{"cmd":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    let bye = client.call(r#"{"cmd":"shutdown"}"#);
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    drop(client);
    server_thread
        .join()
        .expect("server thread join")
        .expect("event loop exits cleanly");
}
