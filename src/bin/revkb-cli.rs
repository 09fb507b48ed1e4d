//! `revkb-cli` — command-line front end to the revision engine.
//!
//! ```text
//! revkb-cli revise  --op dalal -t "a & b & c" -p "!a | !b" [--models]
//! revkb-cli compile --op weber -t "a & b" -p "!a" -q "b"
//! revkb-cli worlds  -t "a ; a -> b" -p "!b"
//! revkb-cli check   --op forbus -t "a & b" -p "!a" -m "b"
//! revkb-cli postulates --op winslett [--cases 100]
//! revkb-cli trace   127.0.0.1:9100 4fd0aeccc9f1bb2a
//! revkb-cli serve   --listen 127.0.0.1:7878 --data-dir kbs
//! ```
//!
//! `serve` is `revkb-server` under another name: it runs the same
//! launcher, [`revkb::server::launch::run`], with the same flags.
//!
//! Formulas use the `revkb` concrete syntax (`& | ! -> <-> <+>`);
//! theories for `worlds` are `;`-separated formula lists. Exits with
//! a nonzero status and a message on bad input.

use revkb::logic::{parse, render, Formula, Signature};
use revkb::revision::{
    advise, compact, model_check, possible_worlds, postulate_report, revise, widtio, Advice,
    ModelBasedOp, OperatorKind, Postulate, Profile, RevisionChain, Theory,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `serve` and `top` are long-running loops writing to stdout as
    // they go; they cannot go through `run`'s collect-then-print
    // contract.
    if args.first().map(String::as_str) == Some("serve") {
        return revkb::server::launch::run(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("top") {
        return top(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace") {
        return trace_cmd(&args[1..]);
    }
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  revkb-cli revise  --op <operator> -t <formula> -p <formula> [--models]\n  revkb-cli compile --op <operator> -t <formula> -p <formula> -q <query>\n  revkb-cli compile-seq --op <operator> -t <formula> --ps <p1 ; p2 ; …> -q <query>\n  revkb-cli worlds  -t <f1 ; f2 ; …> -p <formula>\n  revkb-cli widtio  -t <f1 ; f2 ; …> -p <formula>\n  revkb-cli check   --op <operator> -t <formula> -p <formula> -m <letters,comma,separated>\n  revkb-cli postulates --op <operator> [--cases <n>]\n  revkb-cli advise  --op <operator|gfuv|widtio> [--bounded] [--new-letters] [--iterated]\n  revkb-cli serve   (--stdio | --listen ADDR) [every other revkb-server flag]\n  revkb-cli top     ADDR [--interval-ms N] [--iterations N] [--no-clear]\n  revkb-cli trace   ADDR TRACE_ID\n\ntop and trace read ADDR, a server's --listen address\n\noperators: winslett borgida forbus satoh dalal weber"
}

/// Parsed flag map: `--key value` and `-k value` pairs.
fn parse_flags(args: &[String]) -> Result<std::collections::HashMap<String, String>, String> {
    let mut flags = std::collections::HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .or_else(|| args[i].strip_prefix('-'))
            .ok_or_else(|| format!("expected a flag, found {:?}", args[i]))?;
        if ["models", "bounded", "new-letters", "iterated"].contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn operator(name: &str) -> Result<ModelBasedOp, String> {
    ModelBasedOp::from_name(name).ok_or_else(|| format!("unknown operator {name:?}"))
}

/// `revkb-cli top ADDR`: a live terminal dashboard over a server's
/// metrics plane. Polls `/stats.json` and `/series.json` on the
/// server's data socket (its `--listen` address) and renders request
/// rates, latency percentiles, the cache hit rate, WAL throughput,
/// and replication lag as unicode sparklines.
fn top(args: &[String]) -> ExitCode {
    match run_top(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: revkb-cli top ADDR [--interval-ms N] [--iterations N] [--no-clear]");
            ExitCode::FAILURE
        }
    }
}

fn run_top(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut interval_ms: u64 = 1000;
    let mut iterations: u64 = 0; // 0 = run until interrupted
    let mut clear = true;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--interval-ms" => {
                interval_ms = iter
                    .next()
                    .ok_or("--interval-ms needs a value")?
                    .parse()
                    .map_err(|_| "--interval-ms needs an integer".to_string())?;
            }
            "--iterations" => {
                iterations = iter
                    .next()
                    .ok_or("--iterations needs a value")?
                    .parse()
                    .map_err(|_| "--iterations needs an integer".to_string())?;
            }
            "--no-clear" => clear = false,
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let addr = addr.ok_or("missing ADDR (the server's --listen address)")?;
    let mut frame_no = 0u64;
    loop {
        let stats = http_get_json(&addr, "/stats.json")?;
        let series = http_get_json(&addr, "/series.json")?;
        let frame = render_top(&addr, &stats, &series);
        if clear {
            // Clear and home: cheap, flicker-free enough at 1 Hz, and
            // keeps the binary free of any terminal library.
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        frame_no += 1;
        if iterations != 0 && frame_no >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
    }
}

/// One blocking HTTP/1.1 GET against a server's data socket, parsed as
/// JSON. Hand-rolled over `TcpStream` — the whole workspace builds
/// offline, so no HTTP client crate.
fn http_get_json(addr: &str, path: &str) -> Result<revkb::server::Json, String> {
    use std::io::{Read as _, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let timeout = Some(std::time::Duration::from_secs(5));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{path}: malformed HTTP response"))?;
    let status = head.split_whitespace().nth(1).unwrap_or("?");
    if status != "200" {
        return Err(format!("{path}: HTTP {status}"));
    }
    revkb::server::Json::parse(body).map_err(|e| format!("{path}: {e}"))
}

/// `revkb-cli trace ADDR ID`: fetch the server's flight recorder
/// (`/debug/trace.json` on the `--listen` address) and print the span
/// tree recorded for one trace id — no restart, no `REVKB_TRACE`.
fn trace_cmd(args: &[String]) -> ExitCode {
    match run_trace(args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: revkb-cli trace ADDR TRACE_ID");
            ExitCode::FAILURE
        }
    }
}

fn run_trace(args: &[String]) -> Result<String, String> {
    let [addr, id] = args else {
        return Err("expected the server's --listen ADDR and a trace id".to_string());
    };
    let want = revkb::obs::parse_trace_id(id).ok_or_else(|| format!("bad trace id {id:?}"))?;
    let doc = http_get_json(addr, "/debug/trace.json")?;
    Ok(render_trace(id, want, &doc))
}

/// Render the spans of one trace from a Chrome-trace document, oldest
/// first, indented by recorded depth. Pure — unit tests drive it with
/// synthetic documents.
fn render_trace(id: &str, want: u64, doc: &revkb::server::Json) -> String {
    use revkb::server::Json;
    use std::fmt::Write as _;
    let mut events: Vec<(&Json, u64, u64)> = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .into_iter()
        .flatten()
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Json::as_u64)
                == Some(want)
        })
        .map(|e| {
            let ts = e.get("ts").and_then(Json::as_u64).unwrap_or(0);
            let depth = e
                .get("args")
                .and_then(|a| a.get("depth"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            (e, ts, depth)
        })
        .collect();
    events.sort_by_key(|&(_, ts, _)| ts);
    let mut out = String::new();
    writeln!(out, "trace {id}: {} span(s)", events.len()).unwrap();
    let base_depth = events.iter().map(|&(_, _, d)| d).min().unwrap_or(0);
    for (e, _, depth) in events {
        let name = e.get("name").and_then(Json::as_str).unwrap_or("?");
        let dur = e.get("dur").and_then(Json::as_u64).unwrap_or(0);
        let indent = "  ".repeat(1 + (depth.saturating_sub(base_depth)) as usize);
        write!(out, "{indent}{name}  {dur} us").unwrap();
        if let Some(Json::Obj(attrs)) = e.get("args") {
            for (k, v) in attrs {
                if k == "depth" || k == "trace" {
                    continue;
                }
                if let Some(v) = v.as_u64() {
                    write!(out, "  {k}={v}").unwrap();
                }
            }
        }
        writeln!(out).unwrap();
    }
    out
}

const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// The last `width` values as a bar-per-sample sparkline, scaled to
/// the window's maximum.
fn sparkline(points: &[u64], width: usize) -> String {
    let tail = &points[points.len().saturating_sub(width)..];
    let max = tail.iter().copied().max().unwrap_or(0);
    tail.iter()
        .map(|&v| {
            let level = (v * 7).checked_div(max).unwrap_or(0) as usize;
            SPARK_LEVELS[level]
        })
        .collect()
}

/// The value column of one named series from a `/series.json` payload.
fn series_points(series: &revkb::server::Json, name: &str) -> Vec<u64> {
    use revkb::server::Json;
    series
        .get("series")
        .and_then(Json::as_array)
        .into_iter()
        .flatten()
        .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|s| s.get("points")?.as_array())
        .map(|pts| {
            pts.iter()
                .filter_map(|p| p.as_array()?.get(1)?.as_u64())
                .collect()
        })
        .unwrap_or_default()
}

/// Render one dashboard frame from the two JSON payloads. Pure — unit
/// tests drive it with synthetic documents.
fn render_top(addr: &str, stats: &revkb::server::Json, series: &revkb::server::Json) -> String {
    use revkb::server::Json;
    use std::fmt::Write as _;
    const WIDTH: usize = 48;
    let u = |json: &Json, key: &str| json.get(key).and_then(Json::as_u64).unwrap_or(0);
    let interval_ms = series
        .get("interval_ms")
        .and_then(Json::as_u64)
        .unwrap_or(1000)
        .max(1);
    // Counter series hold per-interval deltas: the newest point over
    // the interval is the current rate.
    let per_sec = |points: &[u64]| {
        points
            .last()
            .map_or(0.0, |&v| v as f64 * 1000.0 / interval_ms as f64)
    };

    let mut out = String::new();
    writeln!(
        out,
        "revkb top — {addr} — {} request(s), {} in flight, {} kb(s), sampled every {interval_ms} ms",
        u(stats, "requests"),
        u(stats, "in_flight"),
        u(stats, "kbs"),
    )
    .unwrap();

    let req = series_points(series, "server.requests");
    writeln!(
        out,
        "  req/s    {:>9.1}  {}",
        per_sec(&req),
        sparkline(&req, WIDTH)
    )
    .unwrap();
    let queries = series_points(series, "server.requests.query");
    if !queries.is_empty() {
        writeln!(
            out,
            "  query/s  {:>9.1}  {}",
            per_sec(&queries),
            sparkline(&queries, WIDTH)
        )
        .unwrap();
    }
    let revises = series_points(series, "server.requests.revise");
    if !revises.is_empty() {
        writeln!(
            out,
            "  revise/s {:>9.1}  {}",
            per_sec(&revises),
            sparkline(&revises, WIDTH)
        )
        .unwrap();
    }

    let cache = stats.get("cache").cloned().unwrap_or(Json::Null);
    let (hits, misses) = (u(&cache, "hits"), u(&cache, "misses"));
    let ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let hit_series = series_points(series, "server.cache.hits");
    writeln!(
        out,
        "  cache    {:>8.1}%  {}",
        ratio * 100.0,
        sparkline(&hit_series, WIDTH)
    )
    .unwrap();

    let wal_bytes = series_points(series, "wal.bytes");
    if !wal_bytes.is_empty() {
        writeln!(
            out,
            "  wal B/s  {:>9.0}  {}",
            per_sec(&wal_bytes),
            sparkline(&wal_bytes, WIDTH)
        )
        .unwrap();
    }

    let repl = stats.get("repl").cloned().unwrap_or(Json::Null);
    match repl.get("role").and_then(Json::as_str) {
        Some("replica") => {
            let lag = series_points(series, "repl.lag.millis");
            writeln!(
                out,
                "  lag ms   {:>9}  {}  ({}connected{})",
                repl.get("lag_millis")
                    .and_then(Json::as_u64)
                    .map_or("?".to_string(), |v| v.to_string()),
                sparkline(&lag, WIDTH),
                if repl.get("connected").and_then(Json::as_bool) == Some(true) {
                    ""
                } else {
                    "dis"
                },
                if repl.get("diverged").and_then(Json::as_bool) == Some(true) {
                    ", DIVERGED"
                } else {
                    ""
                },
            )
            .unwrap();
        }
        _ => {
            let shipped = series_points(series, "repl.shipped.bytes");
            if !shipped.is_empty() {
                writeln!(
                    out,
                    "  ship B/s {:>9.0}  {}",
                    per_sec(&shipped),
                    sparkline(&shipped, WIDTH)
                )
                .unwrap();
            }
        }
    }

    writeln!(out).unwrap();
    writeln!(
        out,
        "  {:<14}{:>10}{:>10}{:>10}{:>10}",
        "command", "count", "p50 us", "p95 us", "p99 us"
    )
    .unwrap();
    if let Json::Obj(kinds) = stats.get("request_latency").unwrap_or(&Json::Null) {
        for (kind, h) in kinds {
            writeln!(
                out,
                "  {:<14}{:>10}{:>10}{:>10}{:>10}",
                kind,
                u(h, "count"),
                u(h, "p50"),
                u(h, "p95"),
                u(h, "p99"),
            )
            .unwrap();
        }
    }
    out
}

fn required<'a>(
    flags: &'a std::collections::HashMap<String, String>,
    key: &str,
) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn parse_theory(input: &str, sig: &mut Signature) -> Result<Theory, String> {
    let formulas: Result<Vec<Formula>, String> = input
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse(s, sig).map_err(|e| e.to_string()))
        .collect();
    Ok(Theory::new(formulas?))
}

/// Dispatch and render output (separated from `main` for testing).
pub fn run(args: &[String]) -> Result<String, String> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| "missing command".to_string())?;
    let flags = parse_flags(rest)?;
    let mut sig = Signature::new();
    let mut out = String::new();
    use std::fmt::Write;

    match command.as_str() {
        "revise" => {
            let op = operator(required(&flags, "op")?)?;
            let t = parse(required(&flags, "t")?, &mut sig).map_err(|e| e.to_string())?;
            let p = parse(required(&flags, "p")?, &mut sig).map_err(|e| e.to_string())?;
            let result = revise(op, &t, &p);
            writeln!(out, "operator: {}", op.name()).unwrap();
            writeln!(out, "models of T * P: {}", result.len()).unwrap();
            if flags.contains_key("models") {
                for m in result.interpretations() {
                    let names: Vec<String> = m.iter().map(|&v| sig.name_or_default(v)).collect();
                    writeln!(out, "  {{{}}}", names.join(", ")).unwrap();
                }
            }
        }
        "compile" => {
            let op = operator(required(&flags, "op")?)?;
            let t = parse(required(&flags, "t")?, &mut sig).map_err(|e| e.to_string())?;
            let p = parse(required(&flags, "p")?, &mut sig).map_err(|e| e.to_string())?;
            let q = parse(required(&flags, "q")?, &mut sig).map_err(|e| e.to_string())?;
            let kb = compact(op, &t, &p).map_err(|e| e.to_string())?;
            writeln!(out, "operator: {}", op.name()).unwrap();
            writeln!(out, "|T'| = {} variable occurrences", kb.size()).unwrap();
            writeln!(
                out,
                "T * P ⊨ {} : {}",
                render(&q, &sig),
                if kb.entails(&q) { "yes" } else { "no" }
            )
            .unwrap();
        }
        "worlds" => {
            let t = parse_theory(required(&flags, "t")?, &mut sig)?;
            let p = parse(required(&flags, "p")?, &mut sig).map_err(|e| e.to_string())?;
            let worlds = possible_worlds(&t, &p, 1 << 16)
                .ok_or_else(|| "more than 65536 possible worlds".to_string())?;
            writeln!(out, "|W(T,P)| = {}", worlds.len()).unwrap();
            for w in worlds {
                let members: Vec<String> =
                    w.iter().map(|&i| render(&t.formulas[i], &sig)).collect();
                writeln!(out, "  {{ {} }}", members.join(" ; ")).unwrap();
            }
        }
        "widtio" => {
            let t = parse_theory(required(&flags, "t")?, &mut sig)?;
            let p = parse(required(&flags, "p")?, &mut sig).map_err(|e| e.to_string())?;
            let kept = widtio(&t, &p);
            writeln!(out, "T *wid P keeps {} formula(s):", kept.len()).unwrap();
            for f in &kept.formulas {
                writeln!(out, "  {}", render(f, &sig)).unwrap();
            }
        }
        "check" => {
            let op = operator(required(&flags, "op")?)?;
            let t = parse(required(&flags, "t")?, &mut sig).map_err(|e| e.to_string())?;
            let p = parse(required(&flags, "p")?, &mut sig).map_err(|e| e.to_string())?;
            let m: revkb::logic::Interpretation = required(&flags, "m")?
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|name| sig.var(name))
                .collect();
            let holds = model_check(op, &m, &t, &p).map_err(|e| format!("{e:?}"))?;
            writeln!(
                out,
                "M ⊨ T *{} P : {}",
                op.name(),
                if holds { "yes" } else { "no" }
            )
            .unwrap();
        }
        "compile-seq" => {
            let op = operator(required(&flags, "op")?)?;
            let t = parse(required(&flags, "t")?, &mut sig).map_err(|e| e.to_string())?;
            let ps: Result<Vec<Formula>, String> = required(&flags, "ps")?
                .split(';')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| parse(s, &mut sig).map_err(|e| e.to_string()))
                .collect();
            let ps = ps?;
            let q = parse(required(&flags, "q")?, &mut sig).map_err(|e| e.to_string())?;
            let chain = RevisionChain::compile(op, &t, &ps).map_err(|e| e.to_string())?;
            let kb = chain.representation();
            writeln!(out, "operator: {}, {} revision(s)", op.name(), ps.len()).unwrap();
            writeln!(out, "|T'| = {} variable occurrences", kb.size()).unwrap();
            writeln!(
                out,
                "T * P¹ * … ⊨ {} : {}",
                render(&q, &sig),
                if kb.entails(&q) { "yes" } else { "no" }
            )
            .unwrap();
        }
        "advise" => {
            let kind = match required(&flags, "op")?.to_ascii_lowercase().as_str() {
                "gfuv" | "nebel" => OperatorKind::Gfuv,
                "widtio" => OperatorKind::Widtio,
                name => OperatorKind::ModelBased(operator(name)?),
            };
            let profile = Profile {
                bounded_p: flags.contains_key("bounded"),
                allow_new_letters: flags.contains_key("new-letters"),
                iterated: flags.contains_key("iterated"),
            };
            writeln!(
                out,
                "profile: |P| {}, new letters {}, {} revision",
                if profile.bounded_p {
                    "bounded"
                } else {
                    "unbounded"
                },
                if profile.allow_new_letters {
                    "allowed"
                } else {
                    "forbidden"
                },
                if profile.iterated {
                    "iterated"
                } else {
                    "single"
                },
            )
            .unwrap();
            match advise(kind, profile) {
                Advice::Compactable {
                    construction,
                    reference,
                } => {
                    writeln!(out, "COMPACTABLE ({reference})").unwrap();
                    writeln!(out, "  construction: {construction}").unwrap();
                }
                Advice::NotCompactable {
                    reference,
                    consequence,
                } => {
                    writeln!(out, "NOT COMPACTABLE ({reference})").unwrap();
                    writeln!(
                        out,
                        "  a polynomial representation would imply {consequence}"
                    )
                    .unwrap();
                }
            }
        }
        "postulates" => {
            let op = operator(required(&flags, "op")?)?;
            let cases: usize = flags
                .get("cases")
                .map(|s| s.parse().map_err(|_| "bad --cases".to_string()))
                .transpose()?
                .unwrap_or(60);
            let all: Vec<Postulate> = Postulate::REVISION
                .iter()
                .chain(Postulate::UPDATE.iter())
                .copied()
                .collect();
            writeln!(out, "operator: {}, {cases} sampled instances", op.name()).unwrap();
            for (p, held, failed, _) in postulate_report(op, &all, cases, 0xC11) {
                writeln!(
                    out,
                    "  {p:?}: held {held}, failed {failed}{}",
                    if failed == 0 { "" } else { "  ← violated" }
                )
                .unwrap();
            }
        }
        other => return Err(format!("unknown command {other:?}")),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn revise_command() {
        let out = run(&args(&[
            "revise", "--op", "dalal", "-t", "g | b", "-p", "!g", "--models",
        ]))
        .unwrap();
        assert!(out.contains("models of T * P: 1"));
        assert!(out.contains("{b}"));
    }

    #[test]
    fn compile_command() {
        let out = run(&args(&[
            "compile", "--op", "weber", "-t", "a & b", "-p", "!a", "-q", "b",
        ]))
        .unwrap();
        assert!(out.contains(": yes"));
    }

    #[test]
    fn worlds_command() {
        let out = run(&args(&["worlds", "-t", "a ; a -> b", "-p", "!b"])).unwrap();
        assert!(out.contains("|W(T,P)| = 2"));
    }

    #[test]
    fn widtio_command() {
        let out = run(&args(&["widtio", "-t", "a ; a -> b", "-p", "!b"])).unwrap();
        assert!(out.contains("keeps 1 formula"));
    }

    #[test]
    fn check_command() {
        let out = run(&args(&[
            "check", "--op", "winslett", "-t", "a & b", "-p", "!a", "-m", "b",
        ]))
        .unwrap();
        assert!(out.contains(": yes"));
        let out2 = run(&args(&[
            "check", "--op", "winslett", "-t", "a & b", "-p", "!a", "-m", "a,b",
        ]))
        .unwrap();
        assert!(out2.contains(": no"));
    }

    #[test]
    fn postulates_command() {
        let out = run(&args(&["postulates", "--op", "dalal", "--cases", "10"])).unwrap();
        assert!(out.contains("R1"));
        assert!(out.contains("U8"));
    }

    #[test]
    fn compile_seq_command() {
        let out = run(&args(&[
            "compile-seq",
            "--op",
            "dalal",
            "-t",
            "a & b & c",
            "--ps",
            "!a ; !b",
            "-q",
            "c",
        ]))
        .unwrap();
        assert!(out.contains("2 revision(s)"));
        assert!(out.contains(": yes"));
    }

    #[test]
    fn advise_command() {
        let out = run(&args(&["advise", "--op", "dalal", "--new-letters"])).unwrap();
        assert!(out.contains("COMPACTABLE"));
        assert!(out.contains("Th.3.4"));
        let out2 = run(&args(&["advise", "--op", "gfuv"])).unwrap();
        assert!(out2.contains("NOT COMPACTABLE"));
        let out3 = run(&args(&[
            "advise",
            "--op",
            "winslett",
            "--iterated",
            "--bounded",
        ]))
        .unwrap();
        assert!(out3.contains("NOT COMPACTABLE"));
        let out4 = run(&args(&[
            "advise",
            "--op",
            "winslett",
            "--iterated",
            "--bounded",
            "--new-letters",
        ]))
        .unwrap();
        assert!(out4.contains("COMPACTABLE"));
    }

    #[test]
    fn top_sparkline_scales_to_the_window_maximum() {
        assert_eq!(sparkline(&[], 8), "");
        assert_eq!(sparkline(&[0, 0], 8), "▁▁");
        let line = sparkline(&[1, 4, 8], 8);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'));
        // Only the last `width` samples are drawn.
        assert_eq!(sparkline(&[9, 9, 9, 1], 2).chars().count(), 2);
    }

    #[test]
    fn top_renders_a_frame_from_synthetic_payloads() {
        use revkb::server::Json;
        let stats = Json::parse(
            r#"{"requests":42,"in_flight":1,"kbs":2,
                "cache":{"hits":3,"misses":1},
                "request_latency":{"query":{"count":10,"p50":5,"p95":9,"p99":12}},
                "repl":{"role":"primary"}}"#,
        )
        .unwrap();
        let series = Json::parse(
            r#"{"interval_ms":1000,"capacity":300,"series":[
                {"name":"server.requests","kind":"counter","points":[[1000,5],[2000,10]]},
                {"name":"server.cache.hits","kind":"counter","points":[[1000,1],[2000,2]]}]}"#,
        )
        .unwrap();
        assert_eq!(series_points(&series, "server.requests"), vec![5, 10]);
        assert_eq!(series_points(&series, "no.such.series"), Vec::<u64>::new());
        let frame = render_top("127.0.0.1:9", &stats, &series);
        assert!(frame.contains("42 request(s)"), "{frame}");
        assert!(frame.contains("req/s"), "{frame}");
        assert!(frame.contains("10.0"), "{frame}"); // newest delta over 1 s
        assert!(frame.contains("75.0%"), "{frame}"); // 3 hits / 4 lookups
        assert!(frame.contains("query"), "{frame}");
        assert!(frame.contains("p95"), "{frame}");
    }

    #[test]
    fn trace_renders_only_the_requested_trace() {
        use revkb::server::Json;
        let doc = Json::parse(
            r#"{"traceEvents":[
                {"name":"server.request.query","ph":"X","pid":1,"tid":1,"ts":10,"dur":120,
                 "args":{"depth":0,"req":7,"trace":99}},
                {"name":"server.compile","ph":"X","pid":1,"tid":1,"ts":20,"dur":80,
                 "args":{"depth":1,"trace":99}},
                {"name":"server.request.load","ph":"X","pid":1,"tid":2,"ts":5,"dur":30,
                 "args":{"depth":0,"req":6,"trace":42}}],
                "displayTimeUnit":"ms"}"#,
        )
        .unwrap();
        let out = render_trace("0000000000000063", 99, &doc);
        assert!(out.contains("2 span(s)"), "{out}");
        assert!(out.contains("server.request.query  120 us  req=7"), "{out}");
        assert!(out.contains("    server.compile  80 us"), "{out}");
        assert!(!out.contains("load"), "{out}");
        let none = render_trace("1", 1, &doc);
        assert!(none.contains("0 span(s)"), "{none}");
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&args(&["revise", "--op", "nope", "-t", "a", "-p", "b"])).is_err());
        assert!(run(&args(&["revise", "--op", "dalal", "-t", "a"])).is_err());
        assert!(run(&args(&["bogus"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&args(&["revise", "--op", "dalal", "-t", "a &", "-p", "b"])).is_err());
    }
}
