//! `revkb-bench` — the continuous-performance regression harness.
//!
//! ```text
//! revkb-bench                         # run the suite, write BENCH_PR20.json
//! revkb-bench --baseline BENCH_PR20.json  # compare; exit 1 on regression
//! revkb-bench --load-only             # just the load generator, no report
//! ```
//!
//! The suite is fixed and named (see [`revkb_bench::suite`]): eight
//! per-operator compiles, a planted Dalal chain, the six model-based
//! operators through the BDD backend, a query batch on one session
//! with histogram percentiles, BDD apply, the Tseitin transform, the
//! analysis passes (`analysis.min_dnf`, `analysis.horn_lub`,
//! `analysis.model_check`, `analysis.prune_disjuncts`), the
//! artifact-cache touch cost, cold-vs-warm server revises over
//! loopback TCP, cold-boot recovery from a WAL data directory, and
//! replication (replica catch-up and read fan-out across replicas).
//! Instances are seeded (`REVKB_BENCH_SEED`), trials are medians over
//! `REVKB_BENCH_TRIALS` runs after `REVKB_BENCH_WARMUP` warmups.
//!
//! A baseline comparison fails on any change in a deterministic work
//! count (`compiled_size`, `k_session_probes`, `k_session_conflicts`,
//! `allocated_nodes`), even with `--warn-only`, which relaxes only the
//! wall-time verdicts.
//!
//! `--load-only` skips everything except the open-loop load generator
//! (`REVKB_BENCH_CONNS` connections against a spawned `revkb-server`)
//! and writes no report files — the mode CI's connection-count smoke
//! uses.

use revkb_bench::suite::{
    compare_against_baseline, comparison_fails, report_json, run_suite, SuiteConfig,
};
use revkb_bench::RunMeta;
use std::process::ExitCode;

const USAGE: &str = "usage: revkb-bench [--out FILE] [--baseline FILE] [--warn-only] \
                     [--seed N] [--trials N] [--warmup N] [--tolerance-pct X] \
                     [--load-only]";

struct Args {
    out: String,
    baseline: Option<String>,
    warn_only: bool,
    load_only: bool,
    config: SuiteConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        out: "BENCH_PR20.json".to_string(),
        baseline: None,
        warn_only: false,
        load_only: false,
        config: SuiteConfig::from_env(),
    };
    let mut iter = args.iter();
    let value = |iter: &mut std::slice::Iter<String>, flag: &str| {
        iter.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => parsed.out = value(&mut iter, "--out")?,
            "--baseline" => parsed.baseline = Some(value(&mut iter, "--baseline")?),
            "--warn-only" => parsed.warn_only = true,
            "--load-only" => parsed.load_only = true,
            "--seed" => {
                parsed.config.seed = value(&mut iter, "--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--trials" => {
                parsed.config.trials = value(&mut iter, "--trials")?
                    .parse::<usize>()
                    .map_err(|_| "--trials needs an integer".to_string())?
                    .max(1);
            }
            "--warmup" => {
                parsed.config.warmup = value(&mut iter, "--warmup")?
                    .parse()
                    .map_err(|_| "--warmup needs an integer".to_string())?;
            }
            "--tolerance-pct" => {
                parsed.config.tolerance_pct = Some(
                    value(&mut iter, "--tolerance-pct")?
                        .parse()
                        .map_err(|_| "--tolerance-pct needs a number".to_string())?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("revkb-bench: {message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // Read the baseline up front: when `--baseline` and `--out` name
    // the same file, the comparison must use the old contents, not the
    // report this run is about to write.
    let baseline = match &args.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("revkb-bench: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let meta = RunMeta::capture();
    println!(
        "== revkb-bench: seed={} trials={} warmup={} ==",
        args.config.seed, args.config.trials, args.config.warmup
    );
    let results = if args.load_only {
        revkb_bench::load::load_benches(&args.config)
    } else {
        run_suite(&args.config)
    };

    println!(
        "{:<22} {:>12} {:>10} {:>8}",
        "benchmark", "median_us", "min_us", "tol_%"
    );
    for r in &results {
        let min = r.trials.iter().cloned().fold(f64::INFINITY, f64::min);
        println!(
            "{:<22} {:>12.0} {:>10.0} {:>8.0}",
            r.name, r.median, min, r.tolerance_pct
        );
    }
    println!();

    // Load-only runs are smoke checks: print the table, write nothing
    // (a partial report would shadow the committed BENCH_PR20.json).
    if !args.load_only {
        let report = report_json(&args.config, &meta, &results);
        if let Err(e) = std::fs::write(&args.out, &report) {
            eprintln!("revkb-bench: cannot write {}: {e}", args.out);
            return ExitCode::FAILURE;
        }
        println!("report written to {}", args.out);
    }

    if let (Some(path), Some(baseline)) = (&args.baseline, &baseline) {
        let comparisons = match compare_against_baseline(&results, baseline) {
            Ok(c) => c,
            Err(message) => {
                eprintln!("revkb-bench: {message}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "{:<22} {:>12} {:>12} {:>9} {:>8}  verdict",
            "benchmark", "baseline_us", "current_us", "delta_%", "tol_%"
        );
        for c in &comparisons {
            let verdict = if c.regressed { "REGRESSED" } else { "ok" };
            println!(
                "{:<22} {:>12.0} {:>12.0} {:>+9.1} {:>8.0}  {verdict}",
                c.name, c.baseline, c.current, c.delta_pct, c.tolerance_pct
            );
            for (extra, was, now) in &c.work_changed {
                println!("{:<22} {extra} changed: {was} -> {now}  WORK CHANGED", "");
            }
        }
        let regressions = comparisons.iter().filter(|c| c.regressed).count();
        let work_changes: usize = comparisons.iter().map(|c| c.work_changed.len()).sum();
        if regressions > 0 {
            eprintln!(
                "revkb-bench: {regressions} regression(s) beyond tolerance vs {path}{}",
                if args.warn_only { " (warn-only)" } else { "" }
            );
        }
        if work_changes > 0 {
            eprintln!("revkb-bench: {work_changes} deterministic work count(s) changed vs {path}");
        }
        if comparison_fails(&comparisons, args.warn_only) {
            return ExitCode::FAILURE;
        }
        if regressions + work_changes == 0 {
            println!("no regressions vs {path}");
        }
    }
    ExitCode::SUCCESS
}
