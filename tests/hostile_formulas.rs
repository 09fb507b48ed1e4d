//! A formula nested too deep for the recursive passes behind the
//! parser is refused with the stable code `formula_too_deep`, and the
//! server that refused it goes on serving: one `revkb-cli serve
//! --stdio` process takes 50 000 nested `!`, 200 000 open parentheses
//! and a 100 000-long `<->` chain, then answers a `ping` and exits
//! cleanly at the end of its input.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const CLI: &str = env!("CARGO_BIN_EXE_revkb-cli");

#[test]
fn deep_formulas_are_refused_and_the_server_lives_on() {
    let mut child = Command::new(CLI)
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn revkb-cli serve --stdio");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut call = |line: String| {
        writeln!(stdin, "{line}").expect("write request");
        stdin.flush().expect("flush request");
        let mut response = String::new();
        stdout.read_line(&mut response).expect("read response");
        response
    };

    let hostile = [
        format!("{}a", "!".repeat(50_000)),
        format!("{}a", "(".repeat(200_000)),
        format!("a{}", " <-> a".repeat(100_000)),
    ];
    for t in &hostile {
        let response = call(format!(r#"{{"cmd":"load","kb":"deep","t":"{t}"}}"#));
        assert!(
            response.contains(r#""ok":false"#) && response.contains(r#""code":"formula_too_deep""#),
            "{}… got {response}",
            &t[..12]
        );
    }
    let pong = call(r#"{"cmd":"ping"}"#.to_string());
    assert!(pong.contains(r#""pong":true"#), "got {pong}");
    // A formula at an ordinary depth still loads on the same server.
    let loaded = call(r#"{"cmd":"load","kb":"flat","t":"!(a -> (b <-> !c))"}"#.to_string());
    assert!(loaded.contains(r#""ok":true"#), "got {loaded}");

    drop(stdin);
    let status = child.wait().expect("wait for the server");
    assert!(status.success(), "the server exited with {status}");
}
