//! The one server launcher: flag parsing, boot, and the serving loop
//! behind both `revkb-server` and `revkb-cli serve`.
//!
//! ```text
//! revkb-server --stdio                 # serve one NDJSON session on stdin/stdout
//! revkb-server --listen 127.0.0.1:7878 # serve TCP clients until `shutdown`
//! ```
//!
//! Tuning comes from `REVKB_SERVER_*` environment variables (see
//! [`ServerConfig::from_env`]) overridden by command-line flags; run
//! with no arguments to print them all.
//! `--listen` runs the epoll event loop, which needs Linux; `--stdio`
//! is portable.

use crate::server::{Server, ServerConfig};
use crate::wal::SyncMode;
use revkb_obs as obs;
use std::io::{self, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// The flags [`run`] accepts.
const USAGE: &str = "usage: revkb-server (--stdio | --listen ADDR) \
                         [--threads N] [--queue N] [--deadline-ms N] \
                         [--compile-timeout-ms N] [--cache-cap N] \
                         [--slow-ms N] [--data-dir DIR] \
                         [--wal-sync always|batch|off] [--snapshot-every N] \
                         [--replica-of HOST:PORT] [--log-file PATH]";

/// Where the data plane is served.
enum Transport {
    Stdio,
    Listen(String),
}

/// A parsed command line.
struct Launch {
    transport: Transport,
    config: ServerConfig,
    log_file: Option<PathBuf>,
}

fn number<T: FromStr>(flag: &str, raw: String) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{flag} needs an integer"))
}

fn parse_args(args: &[String]) -> Result<Launch, String> {
    let mut transport = None;
    let mut log_file = None;
    let mut config = ServerConfig::from_env();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let flag = flag.as_str();
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        config = match flag {
            "--stdio" => {
                transport = Some(Transport::Stdio);
                config
            }
            "--listen" => {
                transport = Some(Transport::Listen(value()?));
                config
            }
            "--threads" => config.with_threads(number(flag, value()?)?),
            "--queue" => config.with_queue(number(flag, value()?)?),
            "--deadline-ms" => config.with_default_deadline_ms(number(flag, value()?)?),
            "--compile-timeout-ms" => config.with_compile_timeout_ms(Some(number(flag, value()?)?)),
            "--cache-cap" => config.with_cache_capacity(number(flag, value()?)?),
            "--slow-ms" => config.with_slow_ms(number(flag, value()?)?),
            "--data-dir" => config.with_data_dir(Some(value()?.into())),
            "--wal-sync" => config.with_wal_sync(
                SyncMode::parse(&value()?)
                    .ok_or_else(|| "--wal-sync needs always|batch|off".to_string())?,
            ),
            "--snapshot-every" => config.with_snapshot_every(number(flag, value()?)?),
            "--replica-of" => config.with_replica_of(Some(value()?)),
            "--log-file" => {
                log_file = Some(PathBuf::from(value()?));
                config
            }
            other => return Err(format!("unknown argument {other:?}")),
        };
    }
    let transport = transport.ok_or_else(|| "pick --stdio or --listen ADDR".to_string())?;
    Ok(Launch {
        transport,
        config,
        log_file,
    })
}

/// Parse `args` (the flags in `USAGE`, without the program name),
/// boot the server — WAL recovery, replication — and serve the chosen
/// transport until `shutdown` or EOF.
pub fn run(args: &[String]) -> ExitCode {
    let Launch {
        transport,
        config,
        log_file,
    } = match parse_args(args) {
        Ok(launch) => launch,
        Err(message) => return fail("server", format!("{message}\n{USAGE}")),
    };
    if let Some(path) = &log_file {
        if let Err(e) = obs::set_log_file(path) {
            return fail(
                "server",
                format!("cannot open log file {}: {e}", path.display()),
            );
        }
    }
    let data_dir = config.data_dir.clone().unwrap_or_else(|| "?".into());
    let server = match Server::open(config) {
        Ok(server) => server,
        Err(e) => {
            let message = format!("cannot open data dir {}: {e}", data_dir.display());
            return fail("server", message);
        }
    };
    if let Some(report) = server.recovery_report() {
        obs::info("wal", None, || {
            format!(
                "revkb-server: recovered {} op(s) ({} skipped, {} snapshot artifact(s), \
                 {} torn byte(s) truncated) in {} us",
                report.replayed,
                report.replay_errors,
                report.snapshot_artifacts,
                report.truncated_bytes,
                report.boot_micros
            )
        });
    }
    // Replica mode: the apply loop runs alongside the serving loop
    // and drains on `shutdown` like every connection.
    let replication = server.start_replication();
    if let Some(status) = server.replication_status() {
        obs::info("repl", None, || {
            format!(
                "revkb-server: replicating from {} (resume offset {})",
                status.primary, status.offset
            )
        });
    }
    let outcome = match transport {
        Transport::Stdio => {
            let stdin = io::stdin();
            let stdout = io::stdout();
            server.serve_stdio(BufReader::new(stdin.lock()), stdout.lock())
        }
        Transport::Listen(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => {
                // Announce the bound address (the OS picks the port
                // for ":0" binds) so scripts can connect, and journal
                // it: the one lifecycle record a quiet server logs.
                if let Ok(local) = listener.local_addr() {
                    println!("listening {local}");
                    let _ = io::stdout().flush();
                    obs::info("server", None, || {
                        format!("revkb-server: listening {local}")
                    });
                }
                server.serve_event_loop(listener)
            }
            Err(e) => return fail("server", format!("cannot bind {addr}: {e}")),
        },
    };
    // A stdio session can end at EOF without a `shutdown` command;
    // make sure the apply loop drains either way.
    server.begin_shutdown();
    if let Some(handle) = replication {
        let _ = handle.join();
    }
    write_trace_if_requested();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail("server", e.to_string()),
    }
}

/// Log `message` as a launcher error and fail the process.
fn fail(target: &'static str, message: String) -> ExitCode {
    obs::error(target, None, || format!("revkb-server: {message}"));
    ExitCode::FAILURE
}

/// Under `REVKB_TRACE=chrome`, write the flight ring (the last
/// `FLIGHT_CAPACITY` spans) and the counters as the trace file at
/// exit — every `server.*` span carries the `req` attribute, so the
/// trace lines up with the wire log's `req` fields.
fn write_trace_if_requested() {
    if obs::mode() != obs::TraceMode::Chrome {
        return;
    }
    let snap = obs::drain();
    let path = obs::trace_file_path();
    match obs::write_chrome_trace(&path, &snap.spans, &snap.counters) {
        Ok(()) => obs::info("server", None, || {
            format!("revkb-server: wrote chrome trace to {}", path.display())
        }),
        Err(e) => obs::error("server", None, || {
            format!(
                "revkb-server: cannot write chrome trace to {}: {e}",
                path.display()
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Launch, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_override_the_config() {
        let launch = parse(&[
            "--listen",
            "127.0.0.1:0",
            "--threads",
            "3",
            "--data-dir",
            "d",
            "--wal-sync",
            "off",
            "--replica-of",
            "h:1",
            "--log-file",
            "l.ndjson",
        ])
        .expect("valid flags");
        assert!(matches!(launch.transport, Transport::Listen(ref a) if a == "127.0.0.1:0"));
        assert_eq!(launch.config.threads, 3);
        assert_eq!(launch.config.data_dir, Some(PathBuf::from("d")));
        assert_eq!(launch.config.wal_sync, SyncMode::Off);
        assert_eq!(launch.config.replica_of.as_deref(), Some("h:1"));
        assert_eq!(launch.log_file, Some(PathBuf::from("l.ndjson")));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for (args, want) in [
            (
                &["--stdio", "--verbose"][..],
                "unknown argument \"--verbose\"",
            ),
            (
                &["--stdio", "--threads", "x"][..],
                "--threads needs an integer",
            ),
            (&["--listen"][..], "--listen needs a value"),
            (&["--threads", "2"][..], "pick --stdio or --listen ADDR"),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(want), "{args:?}");
        }
    }
}
