//! `revkb-cli serve` is `revkb-server` under another name: the same
//! launcher, so the durable store and the event loop (with its
//! metrics routes on the data socket) come up from its flags, and a
//! flag `revkb-server` refuses is refused here too.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const CLI: &str = env!("CARGO_BIN_EXE_revkb-cli");

fn serve(args: &[&str]) -> Command {
    let mut command = Command::new(CLI);
    command
        .arg("serve")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    command
}

/// The data-plane address from the `listening ADDR` banner on stdout.
fn data_addr(child: &mut Child) -> String {
    let mut banner = String::new();
    BufReader::new(child.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read banner");
    banner
        .trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("bad banner {banner:?}"))
        .to_string()
}

fn call(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").expect("write request");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    response
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect data plane");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn http_get_status(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect data plane");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("write GET");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read GET");
    response.lines().next().unwrap_or_default().to_string()
}

fn shutdown_and_wait(mut child: Child, addr: &str) {
    let (mut stream, mut reader) = connect(addr);
    let bye = call(&mut stream, &mut reader, r#"{"cmd":"shutdown"}"#);
    assert!(bye.contains(r#""ok":true"#), "{bye}");
    let status = child.wait().expect("wait for serve");
    assert!(status.success(), "serve exited {status}");
}

fn data_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("revkb-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `serve --listen 127.0.0.1:0 EXTRA… --data-dir DIR`.
fn serve_durable(dir: &Path, extra: &[&str]) -> Child {
    serve(&["--listen", "127.0.0.1:0"])
        .args(extra)
        .arg("--data-dir")
        .arg(dir)
        .spawn()
        .expect("spawn revkb-cli serve")
}

#[test]
fn cli_serve_runs_the_server_launcher() {
    let dir = data_dir();

    // First boot: durable store, event loop, metrics routes.
    let mut child = serve_durable(&dir, &[]);
    let addr = data_addr(&mut child);
    assert_eq!(http_get_status(&addr, "/healthz"), "HTTP/1.1 200 OK");

    let (mut stream, mut reader) = connect(&addr);
    let mut ask = |line: &str| call(&mut stream, &mut reader, line);
    assert!(ask(r#"{"cmd":"load","kb":"k","t":"a & b; b -> c"}"#).contains(r#""ok":true"#));
    assert!(
        ask(r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!b | !c"}"#).contains(r#""ok":true"#)
    );
    // Dalal keeps the P-models one flip from (a,b,c) = (1,1,1):
    // (1,0,1) and (1,1,0). Both satisfy `a`; only one satisfies `b`.
    assert!(ask(r#"{"cmd":"query","kb":"k","q":"a"}"#).contains(r#""entails":true"#));
    assert!(ask(r#"{"cmd":"query","kb":"k","q":"b"}"#).contains(r#""entails":false"#));
    shutdown_and_wait(child, &addr);

    // Restart on the same directory: the KB comes back from the log.
    let mut child = serve_durable(&dir, &[]);
    let addr = data_addr(&mut child);
    let (mut stream, mut reader) = connect(&addr);
    let list = call(&mut stream, &mut reader, r#"{"cmd":"list"}"#);
    assert!(
        list.contains(r#""k""#),
        "restarted server lost the KB: {list}"
    );
    drop((stream, reader));
    shutdown_and_wait(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The removed front-end selector and the removed metrics sidecar
/// are unknown arguments, exactly as they are for `revkb-server`.
#[test]
fn cli_serve_refuses_the_removed_io_flag() {
    for (transport, removed, value) in [
        (&["--stdio"][..], concat!("--", "io"), "blocking"),
        (
            &["--listen", "127.0.0.1:0"][..],
            concat!("--", "metrics-addr"),
            "127.0.0.1:0",
        ),
    ] {
        let output = serve(transport)
            .args([removed, value])
            .output()
            .expect("run revkb-cli serve");
        assert!(!output.status.success(), "{removed} was accepted");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown argument {removed:?}")),
            "{stderr}"
        );
    }
}

/// `revkb-cli trace` finds the spans of requests whose trace ids the
/// server minted: those use all 64 bits, and `/debug/trace.json`
/// carries them as decimal integers that must parse exactly.
#[test]
fn cli_trace_finds_the_spans_of_server_minted_ids() {
    use revkb::server::Json;
    let mut child = serve(&["--listen", "127.0.0.1:0"])
        .spawn()
        .expect("spawn revkb-cli serve");
    let addr = data_addr(&mut child);
    let (mut stream, mut reader) = connect(&addr);
    call(
        &mut stream,
        &mut reader,
        r#"{"cmd":"load","kb":"k","t":"a & b"}"#,
    );
    let minted: Vec<String> = (0..4)
        .map(|_| {
            let resp = call(
                &mut stream,
                &mut reader,
                r#"{"cmd":"query","kb":"k","q":"a"}"#,
            );
            let resp = Json::parse(&resp).expect("response is JSON");
            resp.get("trace")
                .and_then(Json::as_str)
                .expect("minted trace id")
                .to_string()
        })
        .collect();
    for id in &minted {
        let output = Command::new(CLI)
            .args(["trace", &addr, id])
            .output()
            .expect("run revkb-cli trace");
        assert!(output.status.success());
        let out = String::from_utf8_lossy(&output.stdout);
        assert!(out.contains("server.request"), "trace {id}: {out}");
    }
    drop((stream, reader));
    shutdown_and_wait(child, &addr);
}
