//! The `BENCH_*.json` contract: the report the harness writes must be
//! valid JSON by the workspace's own checker, parse into the schema
//! the baseline comparator expects, round-trip through a
//! self-comparison with zero regressions, and still catch a genuine
//! slowdown when one is injected.

use revkb_bench::suite::{
    compare_against_baseline, report_json, run_suite, SuiteConfig, BENCH_SCHEMA_VERSION,
};
use revkb_bench::RunMeta;
use revkb_server::Json;

/// One tiny suite run shared by every assertion: the suite toggles
/// process-global telemetry state and binds loopback sockets, so it
/// runs once, not once per test.
fn tiny_run() -> (SuiteConfig, RunMeta, Vec<revkb_bench::suite::BenchResult>) {
    let cfg = SuiteConfig {
        seed: 7,
        trials: 1,
        warmup: 0,
        tolerance_pct: None,
    };
    // A small open-loop load phase: it still runs against a spawned
    // server, at a size a schema test can afford.
    std::env::set_var(revkb_bench::load::CONNS_ENV, "64");
    std::env::set_var(revkb_bench::load::QPS_ENV, "200");
    std::env::set_var(revkb_bench::load::LOAD_MS_ENV, "200");
    let meta = RunMeta::capture();
    let results = run_suite(&cfg);
    (cfg, meta, results)
}

#[test]
fn report_round_trips_schema_and_detects_injected_regression() {
    let (cfg, meta, results) = tiny_run();
    assert!(!results.is_empty());
    let report = report_json(&cfg, &meta, &results);

    // Valid by the workspace's own strict JSON checker...
    assert!(
        revkb_obs::validate_json(&report),
        "report is not valid JSON"
    );
    // ...and by the server's parser, which is what --baseline uses.
    let parsed = Json::parse(&report).expect("report parses");
    assert_eq!(
        parsed.get("bench").and_then(Json::as_str),
        Some("revkb-bench")
    );
    assert_eq!(
        parsed.get("schema_version").and_then(Json::as_u64),
        Some(BENCH_SCHEMA_VERSION as u64)
    );
    let run_meta = parsed.get("run_meta").expect("report carries run_meta");
    for key in ["trace_mode", "cpu_count", "seed", "trials", "warmup"] {
        assert!(run_meta.get(key).is_some(), "run_meta is missing {key}");
    }
    let benchmarks = parsed
        .get("benchmarks")
        .and_then(Json::as_array)
        .expect("benchmarks array");
    assert_eq!(benchmarks.len(), results.len());
    for b in benchmarks {
        for key in ["name", "unit", "median", "trials", "tolerance_pct"] {
            assert!(b.get(key).is_some(), "benchmark entry is missing {key}");
        }
        assert_eq!(b.get("unit").and_then(Json::as_str), Some("micros"));
    }

    // Self-comparison: the very report we just wrote is a clean
    // baseline for the run that produced it.
    let comparisons = compare_against_baseline(&results, &report).expect("self-compare");
    assert_eq!(comparisons.len(), results.len());
    assert!(
        comparisons.iter().all(|c| !c.regressed),
        "a run must never regress against itself"
    );

    // Inject a genuine slowdown — far beyond both the relative
    // tolerance and the absolute floor — into one benchmark and the
    // comparator must flag exactly that one.
    let mut slowed = results.clone();
    slowed[0].median += 100_000.0;
    let comparisons = compare_against_baseline(&slowed, &report).expect("compare slowed");
    let flagged: Vec<&str> = comparisons
        .iter()
        .filter(|c| c.regressed)
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(flagged, vec![results[0].name.as_str()]);

    // A baseline from a different schema epoch is refused, not
    // silently misread.
    let future = report.replacen(
        &format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"),
        &format!("\"schema_version\": {}", BENCH_SCHEMA_VERSION + 1),
        1,
    );
    assert!(compare_against_baseline(&results, &future).is_err());
}

fn committed_report_names(file: &str) -> Vec<String> {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let report = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed report {path}: {e}"));
    assert!(revkb_obs::validate_json(&report));
    let parsed = Json::parse(&report).expect("report parses");
    assert_eq!(
        parsed.get("schema_version").and_then(Json::as_u64),
        Some(BENCH_SCHEMA_VERSION as u64),
        "{file}"
    );
    parsed
        .get("benchmarks")
        .and_then(Json::as_array)
        .expect("benchmarks array")
        .iter()
        .map(|b| b.get("name").and_then(Json::as_str).expect("name").into())
        .collect()
}

/// The committed `BENCH_PR20.json` is the baseline CI compares
/// against: it must stay valid and parseable with the schema this
/// build supports, and it must cover the full named suite the harness
/// runs today.
#[test]
fn committed_reports_are_valid_schema_v1() {
    let committed = committed_report_names("BENCH_PR20.json");
    for name in [
        "compile.dalal",
        "compile.dalal_chain",
        "compile.via_bdd",
        "compile.winslett",
        "query.sequential",
        "bdd.apply",
        "logic.tseitin",
        "analysis.min_dnf",
        "analysis.horn_lub",
        "analysis.model_check",
        "analysis.prune_disjuncts",
        "cache.touch",
        "server.revise.cold",
        "server.revise.warm",
        "server.boot.snapshot",
        "server.boot.replay",
        "repl.catchup",
        "repl.read_fanout",
        "obs.scrape",
        "obs.sample_tick",
        "obs.log_emit",
        "obs.flight_record",
        "server.load.open_loop",
        "server.load.pipeline",
        "server.load.http",
    ] {
        assert!(
            committed.iter().any(|n| n == name),
            "committed report is missing {name}"
        );
    }
}

/// `Json::pretty` reproduces the committed report byte for byte: it
/// was written by the report emitter, so this pins the renderer's
/// layout (indent, separators, empty containers, number format).
#[test]
fn committed_reports_re_render_byte_for_byte() {
    let path = format!("{}/../../BENCH_PR20.json", env!("CARGO_MANIFEST_DIR"));
    let report = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed report {path}: {e}"));
    let parsed = Json::parse(&report).expect("report parses");
    assert!(
        parsed.pretty() == report,
        "BENCH_PR20.json does not re-render"
    );
}
