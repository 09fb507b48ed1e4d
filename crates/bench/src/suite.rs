//! The `revkb-bench` regression suite: a fixed, named set of
//! benchmarks spanning the whole pipeline — per-operator compile
//! times (direct, a planted Dalal chain, and through the BDD backend),
//! sequential-vs-parallel batch query latency (with percentiles
//! from the `revkb-obs` histograms), BDD apply throughput, the Tseitin
//! transform, artifact-cache touch cost at large capacity,
//! cold-vs-warm server revises over a loopback TCP connection,
//! cold-boot recovery from a write-ahead-log data directory (with and
//! without artifact snapshots), replication — replica catch-up
//! from a seeded primary and query fan-out across read replicas — the
//! metrics plane (one Prometheus scrape, one sampler tick), and the
//! open-loop load generation against a spawned server process
//! (see [`crate::load`]: ten thousand concurrent connections,
//! scheduled-rate latency percentiles, pipelining, the HTTP gateway).
//!
//! Everything is deterministic modulo wall-clock noise: instance
//! generation is seeded (`REVKB_BENCH_SEED`), each benchmark runs
//! `REVKB_BENCH_WARMUP` discarded warmup rounds followed by
//! `REVKB_BENCH_TRIALS` measured trials, and the reported figure is
//! the **median** trial. The emitted report (`BENCH_PR20.json`) is
//! schema-versioned and can be replayed as a `--baseline` to detect
//! regressions: a benchmark regresses only when it is both relatively
//! slower than its per-benchmark tolerance *and* absolutely slower by
//! more than [`MIN_DELTA_MICROS`] (so micro-benchmarks near the timer
//! floor cannot flap CI). Deterministic work counts recorded as extras
//! ([`WORK_EXTRAS`]) are compared exactly instead, and any change in
//! one fails the comparison.

use crate::RunMeta;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revkb_instances::{random_formula, random_kcnf, random_satisfiable};
use revkb_logic::{tseitin_auto, Formula};
use revkb_sat::{PoolConfig, SessionPool};
use revkb_server::{Artifact, ArtifactCache, Json, Server, ServerConfig, SyncMode};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Environment variable seeding the deterministic instance generation.
pub const SEED_ENV: &str = "REVKB_BENCH_SEED";
/// Environment variable setting the measured trial count.
pub const TRIALS_ENV: &str = "REVKB_BENCH_TRIALS";
/// Environment variable setting the discarded warmup round count.
pub const WARMUP_ENV: &str = "REVKB_BENCH_WARMUP";

/// Schema version of the `BENCH_*.json` report.
pub const BENCH_SCHEMA_VERSION: u32 = 1;
/// Default per-benchmark regression tolerance, percent.
pub const DEFAULT_TOLERANCE_PCT: f64 = 15.0;
/// Absolute regression floor in microseconds: a benchmark is only a
/// regression when it is slower by more than this, whatever the
/// relative delta says. Keeps sub-millisecond benches from flapping.
pub const MIN_DELTA_MICROS: f64 = 500.0;

/// How the suite runs: seed, trial count, warmup rounds.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Seed for instance generation (`REVKB_BENCH_SEED`, default 42).
    pub seed: u64,
    /// Measured trials per benchmark (`REVKB_BENCH_TRIALS`, default 5).
    pub trials: usize,
    /// Discarded warmup rounds (`REVKB_BENCH_WARMUP`, default 1).
    pub warmup: usize,
    /// Global tolerance override; `None` keeps the per-benchmark
    /// defaults.
    pub tolerance_pct: Option<f64>,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            seed: 42,
            trials: 5,
            warmup: 1,
            tolerance_pct: None,
        }
    }
}

impl SuiteConfig {
    /// Defaults overridden by the `REVKB_BENCH_*` environment.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(seed) = env_u64(SEED_ENV) {
            cfg.seed = seed;
        }
        if let Some(trials) = env_u64(TRIALS_ENV) {
            cfg.trials = (trials as usize).max(1);
        }
        if let Some(warmup) = env_u64(WARMUP_ENV) {
            cfg.warmup = warmup as usize;
        }
        cfg
    }

    pub(crate) fn tolerance_for(&self, name: &str) -> f64 {
        if let Some(t) = self.tolerance_pct {
            return t;
        }
        // Wall-clock-noisy benches (thread pools, TCP round-trips,
        // replication tail-polling) get wider bands; pure-compute
        // compile benches keep the default. The prefixes name benches,
        // not telemetry: a server's counters are not in the `obs`
        // registry under `server.*` or `repl.*`.
        if name.starts_with("query.") || name.starts_with("server.") || name.starts_with("repl.") {
            50.0
        } else {
            DEFAULT_TOLERANCE_PCT
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// One benchmark's measurements.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable benchmark name (`compile.dalal`, `server.revise.warm`…).
    pub name: String,
    /// Unit of `median` and `trials` (always microseconds today).
    pub unit: &'static str,
    /// Median of the measured trials.
    pub median: f64,
    /// Every measured trial, in order.
    pub trials: Vec<f64>,
    /// Relative regression tolerance for this benchmark, percent.
    pub tolerance_pct: f64,
    /// Benchmark-specific side measurements (percentiles, sizes…).
    pub extra: Vec<(&'static str, Json)>,
}

impl BenchResult {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::str(&self.name)),
            ("unit", Json::str(self.unit)),
            ("median", Json::Num(self.median)),
            (
                "trials",
                Json::Arr(self.trials.iter().map(|&t| Json::Num(t)).collect()),
            ),
            ("tolerance_pct", Json::Num(self.tolerance_pct)),
        ];
        if !self.extra.is_empty() {
            pairs.push((
                "extra",
                Json::Obj(
                    self.extra
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }
}

fn median_of(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite trial times"));
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Warmup + timed trials of `work`; returns `(median, trials)`.
fn timed_trials(cfg: &SuiteConfig, mut work: impl FnMut()) -> (f64, Vec<f64>) {
    for _ in 0..cfg.warmup {
        work();
    }
    let mut trials = Vec::with_capacity(cfg.trials);
    for _ in 0..cfg.trials {
        let start = Instant::now();
        work();
        trials.push(start.elapsed().as_micros() as f64);
    }
    (median_of(&trials), trials)
}

fn result(cfg: &SuiteConfig, name: String, median: f64, trials: Vec<f64>) -> BenchResult {
    let tolerance_pct = cfg.tolerance_for(&name);
    BenchResult {
        name,
        unit: "micros",
        median,
        trials,
        tolerance_pct,
        extra: Vec::new(),
    }
}

/// The eight operator tags the suite compiles, in wire order.
pub const OPERATORS: [&str; 8] = [
    "winslett", "borgida", "forbus", "satoh", "dalal", "weber", "gfuv", "widtio",
];

/// `compile.<op>` — one full compile of a fixed seeded scenario per
/// trial, for each of the eight operators.
fn compile_benches(cfg: &SuiteConfig) -> Vec<BenchResult> {
    use revkb_revision::{compact, GfuvEngine, ModelBasedOp, Theory, WidtioEngine};
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let t = random_satisfiable(&mut rng, 4, 6, 0);
    let p = random_satisfiable(&mut rng, 3, 4, 0);
    OPERATORS
        .iter()
        .map(|op| {
            let mut compiled_size: Option<usize> = None;
            let (median, trials) = timed_trials(cfg, || match ModelBasedOp::from_name(op) {
                Some(m) => {
                    let kb = compact(m, &t, &p).expect("suite scenario compiles");
                    compiled_size = Some(kb.size());
                }
                None if *op == "gfuv" => {
                    let theory = Theory::new([t.clone()]);
                    let kb = GfuvEngine::compile(theory, p.clone(), 1 << 16)
                        .expect("suite worlds fit the budget");
                    drop(kb);
                }
                None => {
                    let theory = Theory::new([t.clone()]);
                    let kb = WidtioEngine::compile(&theory, &p);
                    drop(kb);
                }
            });
            let mut r = result(cfg, format!("compile.{op}"), median, trials);
            if let Some(size) = compiled_size {
                r.extra.push(("compiled_size", Json::Num(size as f64)));
            }
            r
        })
        .collect()
}

/// A seeded random 3-CNF over the 12 letters `0..12` that a planted
/// model satisfies, with at most 32 models: the theories of perfbench's
/// corpus.
fn planted_theory(rng: &mut StdRng) -> Formula {
    let alpha = revkb_logic::Alphabet::new((0..12).map(revkb_logic::Var).collect());
    let planted: u64 = rng.gen_range(0..1 << 12);
    let mut clauses = Vec::new();
    while alpha.models(&Formula::and_all(clauses.clone())).len() > 32 {
        let clause = random_kcnf(rng, 12, 1, 3);
        if alpha.eval_mask(&clause, planted) {
            clauses.push(clause);
        }
    }
    Formula::and_all(clauses)
}

/// A seeded cube of three literals over the letters `0..12`.
fn random_cube(rng: &mut StdRng) -> Formula {
    Formula::and_all(
        (0..3).map(|_| Formula::lit(revkb_logic::Var(rng.gen_range(0..12)), rng.gen_bool(0.5))),
    )
}

/// Run `work` once under the `Summary` trace mode and return its result
/// with the counters it moved, restoring the process's mode after.
fn counted<T>(work: impl FnOnce() -> T) -> (T, revkb_obs::Snapshot) {
    let prev = revkb_obs::mode();
    revkb_obs::set_mode(revkb_obs::TraceMode::Summary);
    revkb_obs::reset();
    let out = work();
    let snapshot = revkb_obs::snapshot();
    revkb_obs::reset();
    revkb_obs::set_mode(prev);
    (out, snapshot)
}

/// `compile.dalal_chain` — one compile per trial of a fixed, seeded,
/// planted Dalal chain: a [`planted_theory`] revised three times by
/// [`random_cube`]s. One more compile, under the `Summary` trace mode,
/// counts its deterministic work: `compiled_size`, and the probes its
/// `k`-sessions ask and the conflicts they meet, all three in
/// [`WORK_EXTRAS`].
fn dalal_chain_bench(cfg: &SuiteConfig) -> BenchResult {
    use revkb_revision::{ModelBasedOp, RevisionChain};
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xDA1A_C4A1);
    let t = planted_theory(&mut rng);
    let ps: Vec<Formula> = (0..3).map(|_| random_cube(&mut rng)).collect();
    let compile = || RevisionChain::compile(ModelBasedOp::Dalal, &t, &ps).expect("compiles");

    let (size, work) = counted(|| compile().representation().size());
    let count = |name| work.counter(name).unwrap_or(0) as f64;

    let (median, trials) = timed_trials(cfg, || drop(compile()));
    let mut r = result(cfg, "compile.dalal_chain".into(), median, trials);
    r.extra = vec![
        ("compiled_size", Json::Num(size as f64)),
        (
            "k_session_probes",
            Json::Num(count("revision.k_session.probes")),
        ),
        (
            "k_session_conflicts",
            Json::Num(count("revision.k_session.conflicts")),
        ),
    ];
    r
}

/// `compile.via_bdd` — one trial compiles a [`planted_theory`] revised
/// by a [`random_cube`] through the BDD backend
/// ([`revkb_revision::Backend::Bdd`]) for each of the six
/// model-based operators. One more round, under the `Summary` trace
/// mode, counts its deterministic work, both in [`WORK_EXTRAS`]: the
/// six `compiled_size`s summed, and the BDD nodes the six managers
/// allocate (`allocated_nodes`).
fn via_bdd_bench(cfg: &SuiteConfig) -> BenchResult {
    use revkb_revision::{Backend, ModelBasedOp, ReviseBuilder, RevisionChain};
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xB0D_C4A1);
    let t = planted_theory(&mut rng);
    let p = random_cube(&mut rng);
    let compile_all = || {
        ModelBasedOp::ALL.map(|op| {
            ReviseBuilder::new(op)
                .backend(Backend::Bdd)
                .compile(&t, &p)
                .expect("12 letters fit the BDD backend")
        })
    };

    let size_of = |kb: &RevisionChain| kb.representation().size();
    let (size, work) = counted(|| compile_all().iter().map(size_of).sum::<usize>());
    let allocated = work.counter("bdd.unique.nodes_allocated").unwrap_or(0);

    let (median, trials) = timed_trials(cfg, || drop(compile_all()));
    let mut r = result(cfg, "compile.via_bdd".into(), median, trials);
    r.extra = vec![
        ("compiled_size", Json::Num(size as f64)),
        ("allocated_nodes", Json::Num(allocated as f64)),
    ];
    r
}

/// `query.sequential` / `query.parallel` — a 64-query batch through
/// a sharded [`SessionPool`], each way, with per-query latency
/// percentiles read from the `sat.session.query_micros` histogram
/// under a temporarily-enabled `Summary` trace mode.
///
/// Every trial and the instrumented pass answer the batch on a fresh
/// pool, built outside the timed region: a pool answers queries it has
/// seen from its memo, and parallel workers are forked with worker 0's
/// memo, so a reused pool would time memo lookups instead of solving.
fn query_benches(cfg: &SuiteConfig) -> Vec<BenchResult> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0001);
    let base = random_satisfiable(&mut rng, 4, 10, 0);
    // Queries must stay inside the base alphabet — a query letter the
    // base never mentions would collide with the session's internal
    // Tseitin variables (and real clients are rejected for it).
    let alpha = revkb_logic::Alphabet::of_formulas([&base]);
    let queries: Vec<Formula> = std::iter::from_fn(|| Some(random_formula(&mut rng, 3, 10, 0)))
        .filter(|q| q.vars().iter().all(|&v| alpha.contains(v)))
        .take(64)
        .collect();
    let new_pool = || {
        SessionPool::with_config(
            &base,
            PoolConfig {
                threads: revkb_sat::default_threads(),
                sequential_threshold: 0,
            },
        )
    };
    let timed_on_fresh_pools = |batch: fn(&mut SessionPool, &[Formula]) -> Vec<bool>| {
        let runs = cfg.warmup + cfg.trials;
        let mut fresh: Vec<SessionPool> = (0..runs).map(|_| new_pool()).collect();
        // Used pools are dropped after the trials, not inside them.
        let mut used = Vec::with_capacity(runs);
        timed_trials(cfg, || {
            let mut pool = fresh.pop().expect("one pool per run");
            let _ = batch(&mut pool, &queries);
            used.push(pool);
        })
    };
    let (seq_median, seq_trials) = timed_on_fresh_pools(SessionPool::entails_batch);
    let (par_median, par_trials) = timed_on_fresh_pools(SessionPool::par_entails_batch);

    // Percentiles: run one instrumented pass of each kind under the
    // Summary mode, then restore whatever mode the process had. The
    // suite owns the process-wide registry here, so the reset is safe.
    let percentiles = |parallel: bool, pool: &mut SessionPool| -> Vec<(&'static str, Json)> {
        let prev = revkb_obs::mode();
        revkb_obs::set_mode(revkb_obs::TraceMode::Summary);
        revkb_obs::reset();
        if parallel {
            let _ = pool.par_entails_batch(&queries);
        } else {
            let _ = pool.entails_batch(&queries);
        }
        let snap = revkb_obs::snapshot();
        let extra = match snap.histogram("sat.session.query_micros") {
            Some(h) => vec![
                ("query_count", Json::Num(h.count as f64)),
                ("p50_micros", pct(h.percentile(0.50))),
                ("p95_micros", pct(h.percentile(0.95))),
                ("p99_micros", pct(h.percentile(0.99))),
            ],
            None => Vec::new(),
        };
        revkb_obs::reset();
        revkb_obs::set_mode(prev);
        extra
    };
    let seq_extra = percentiles(false, &mut new_pool());
    let par_extra = percentiles(true, &mut new_pool());

    let mut seq = result(cfg, "query.sequential".into(), seq_median, seq_trials);
    seq.extra = seq_extra;
    let mut par = result(cfg, "query.parallel".into(), par_median, par_trials);
    par.extra
        .push(("threads", Json::Num(new_pool().threads() as f64)));
    par.extra.extend(par_extra);
    vec![seq, par]
}

fn pct(v: Option<u64>) -> Json {
    v.map_or(Json::Null, |v| Json::Num(v as f64))
}

/// `bdd.apply` — build the BDD of a seeded random 3-CNF from scratch
/// each trial; the apply/unique-table machinery dominates.
fn bdd_bench(cfg: &SuiteConfig) -> BenchResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0002);
    let f = random_kcnf(&mut rng, 12, 30, 3);
    let mut nodes = 0usize;
    let mut allocated = 0usize;
    let (median, trials) = timed_trials(cfg, || {
        let mut manager = revkb_bdd::BddManager::new();
        let node = manager.from_formula(&f);
        nodes = manager.size(node);
        allocated = manager.allocated();
    });
    let mut r = result(cfg, "bdd.apply".into(), median, trials);
    r.extra.push(("bdd_nodes", Json::Num(nodes as f64)));
    r.extra
        .push(("allocated_nodes", Json::Num(allocated as f64)));
    r
}

/// `logic.tseitin` — clausify a deep seeded formula each trial.
fn tseitin_bench(cfg: &SuiteConfig) -> BenchResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0003);
    let f = random_formula(&mut rng, 12, 16, 0);
    let mut clauses = 0usize;
    let (median, trials) = timed_trials(cfg, || {
        clauses = tseitin_auto(&f).len();
    });
    let mut r = result(cfg, "logic.tseitin".into(), median, trials);
    r.extra.push(("clauses", Json::Num(clauses as f64)));
    r.extra.push(("formula_size", Json::Num(f.size() as f64)));
    r
}

/// One loopback client round-trip: write the line, read one response
/// line, assert `ok:true`.
fn roundtrip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> (Json, u64) {
    // One write per request: a separate write of the newline would
    // interact with Nagle's algorithm and delayed ACKs, measuring the
    // kernel's coalescing timer instead of the server.
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    let start = Instant::now();
    writer.write_all(framed.as_bytes()).expect("loopback write");
    let mut response = String::new();
    reader.read_line(&mut response).expect("loopback read");
    let micros = start.elapsed().as_micros() as u64;
    let json = Json::parse(response.trim()).expect("server response is JSON");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "server request failed: {line} -> {response}"
    );
    (json, micros)
}

/// Distinct revision formulas of near-identical size: the sign
/// pattern over four fresh letters tracks the bits of `i`, so every
/// variant is a different artifact-cache key whose parse tree differs
/// only in negation nodes.
fn revision_variant(i: usize) -> String {
    let sign = |bit: usize| if (i >> bit) & 1 == 0 { "" } else { "!" };
    format!(
        "!b | !c | ({}e & {}f & {}g & {}h)",
        sign(0),
        sign(1),
        sign(2),
        sign(3)
    )
}

/// `server.revise.cold` / `server.revise.warm` — a real `revkb-server`
/// on a loopback TCP socket. Cold trials revise with a fresh formula
/// each time (guaranteed artifact-cache miss); warm trials replay one
/// already-compiled revision on fresh KB names (guaranteed hit). The
/// cold/warm ratio is the artifact cache's value as seen by a client.
fn server_benches(cfg: &SuiteConfig) -> Vec<BenchResult> {
    const THEORY: &str = "a & b; b -> c; c | d";
    let server = Server::new(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let acceptor = {
        let server = server.clone();
        std::thread::spawn(move || {
            let _ = server.serve_event_loop(listener);
        })
    };
    let mut writer = TcpStream::connect(addr).expect("connect loopback");
    writer.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));

    assert!(
        cfg.warmup + cfg.trials <= 16,
        "only 16 distinct revision variants"
    );
    let mut kb_seq = 0usize;
    let mut cold_one = |variant: usize, out: Option<&mut Vec<f64>>| {
        kb_seq += 1;
        let kb = format!("cold-{kb_seq}");
        let load = format!(r#"{{"cmd":"load","kb":"{kb}","t":"{THEORY}"}}"#);
        roundtrip(&mut writer, &mut reader, &load);
        let revise = format!(
            r#"{{"cmd":"revise","kb":"{kb}","op":"dalal","p":"{}"}}"#,
            revision_variant(variant)
        );
        let (resp, micros) = roundtrip(&mut writer, &mut reader, &revise);
        let cache = resp
            .get("result")
            .and_then(|r| r.get("cache"))
            .and_then(Json::as_str);
        assert_eq!(cache, Some("miss"), "cold revise must miss the cache");
        if let Some(out) = out {
            out.push(micros as f64);
        }
    };
    let mut cold_trials = Vec::with_capacity(cfg.trials);
    for i in 0..cfg.warmup {
        cold_one(i, None);
    }
    for i in 0..cfg.trials {
        cold_one(cfg.warmup + i, Some(&mut cold_trials));
    }

    // Warm: variant 0 was compiled during warmup (or by the first cold
    // trial when warmup is 0), so replays on fresh KB names must hit.
    let warm_variant = 0usize;
    let mut warm_trials = Vec::with_capacity(cfg.trials);
    for i in 0..cfg.warmup + cfg.trials {
        let kb = format!("warm-{i}");
        let load = format!(r#"{{"cmd":"load","kb":"{kb}","t":"{THEORY}"}}"#);
        roundtrip(&mut writer, &mut reader, &load);
        let revise = format!(
            r#"{{"cmd":"revise","kb":"{kb}","op":"dalal","p":"{}"}}"#,
            revision_variant(warm_variant)
        );
        let (resp, micros) = roundtrip(&mut writer, &mut reader, &revise);
        let cache = resp
            .get("result")
            .and_then(|r| r.get("cache"))
            .and_then(Json::as_str);
        assert_eq!(cache, Some("hit"), "warm revise must hit the cache");
        if i >= cfg.warmup {
            warm_trials.push(micros as f64);
        }
    }

    let (_, _) = roundtrip(&mut writer, &mut reader, r#"{"cmd":"shutdown"}"#);
    let _ = acceptor.join();

    let cold_median = median_of(&cold_trials);
    let warm_median = median_of(&warm_trials);
    let mut cold = result(cfg, "server.revise.cold".into(), cold_median, cold_trials);
    cold.extra.push(("transport", Json::str("tcp")));
    let mut warm = result(cfg, "server.revise.warm".into(), warm_median, warm_trials);
    warm.extra.push(("transport", Json::str("tcp")));
    if warm_median > 0.0 {
        warm.extra
            .push(("cold_over_warm", Json::Num(cold_median / warm_median)));
    }
    vec![cold, warm]
}

/// `cache.touch` — warm-hit cost of the artifact cache at a large
/// capacity: 10 000 strided `get`s against 4 096 resident entries.
/// Guards the O(1)-amortized recency bookkeeping (the previous
/// `VecDeque::position` scan made this workload quadratic).
fn cache_touch_bench(cfg: &SuiteConfig) -> BenchResult {
    use revkb_logic::Var;
    const ENTRIES: usize = 4096;
    const TOUCHES: usize = 10_000;
    let mut cache = ArtifactCache::new(ENTRIES);
    for i in 0..ENTRIES {
        cache.insert(
            format!("key-{i}"),
            Artifact {
                formula: Formula::var(Var(i as u32)),
                base: vec![Var(i as u32)],
                logical: true,
            },
        );
    }
    // A prime stride visits every entry in a shuffled-looking order.
    let keys: Vec<String> = (0..ENTRIES)
        .map(|i| format!("key-{}", (i * 7919) % ENTRIES))
        .collect();
    let (median, trials) = timed_trials(cfg, || {
        for t in 0..TOUCHES {
            assert!(cache.get(&keys[t % ENTRIES]).is_some());
        }
    });
    let mut r = result(cfg, "cache.touch".into(), median, trials);
    r.extra.push(("entries", Json::Num(ENTRIES as f64)));
    r.extra.push(("touches", Json::Num(TOUCHES as f64)));
    r
}

fn copy_data_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).expect("create bench run dir");
    for entry in std::fs::read_dir(from).expect("read bench seed dir") {
        let entry = entry.expect("seed dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy wal file");
    }
}

/// `server.boot.snapshot` / `server.boot.replay` — cold-boot recovery:
/// the time from `Server::open` on a populated data directory to the
/// first warm answer (a fresh KB revised with an already-compiled
/// revision, asserted to be a cache *hit*). The `snapshot` variant
/// boots from an artifact snapshot (replay hits the pre-warmed cache);
/// the `replay` variant has no snapshot and recompiles during replay.
/// Their ratio is what snapshots buy.
fn wal_boot_benches(cfg: &SuiteConfig) -> Vec<BenchResult> {
    const THEORY: &str = "a & b; b -> c; c | d";
    let base = std::env::temp_dir().join(format!("revkb-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let durable = |dir: &std::path::Path, snapshot_every: usize| {
        ServerConfig::default()
            .with_data_dir(Some(dir.to_path_buf()))
            .with_wal_sync(SyncMode::Off)
            .with_snapshot_every(snapshot_every)
    };
    let call = |server: &Server, line: &str| -> Json {
        let response = server.handle_line(line).expect("non-blank line");
        let json = Json::parse(&response).expect("response is valid JSON");
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "bench request failed: {line} -> {response}"
        );
        json
    };
    let mut results = Vec::new();
    for (name, snapshot_every) in [("server.boot.snapshot", 1usize), ("server.boot.replay", 0)] {
        // Seed one data directory per variant: eight KBs, each loaded
        // and revised once (eight distinct compiled artifacts).
        let seed_dir = base.join(format!("seed-{snapshot_every}"));
        {
            let server = Server::open(durable(&seed_dir, snapshot_every)).expect("seed data dir");
            for i in 0..8usize {
                call(
                    &server,
                    &format!(r#"{{"cmd":"load","kb":"kb{i}","t":"{THEORY}"}}"#),
                );
                call(
                    &server,
                    &format!(
                        r#"{{"cmd":"revise","kb":"kb{i}","op":"dalal","p":"{}"}}"#,
                        revision_variant(i)
                    ),
                );
            }
        }
        let mut trials = Vec::with_capacity(cfg.trials);
        let mut replayed = 0u64;
        for t in 0..cfg.warmup + cfg.trials {
            // Per-trial copy: recovery truncation and appends must not
            // let one trial contaminate the next.
            let run_dir = base.join(format!("run-{snapshot_every}-{t}"));
            copy_data_dir(&seed_dir, &run_dir);
            let start = Instant::now();
            let server = Server::open(durable(&run_dir, snapshot_every)).expect("boot bench dir");
            call(
                &server,
                &format!(r#"{{"cmd":"load","kb":"fresh","t":"{THEORY}"}}"#),
            );
            let resp = call(
                &server,
                &format!(
                    r#"{{"cmd":"revise","kb":"fresh","op":"dalal","p":"{}"}}"#,
                    revision_variant(0)
                ),
            );
            let micros = start.elapsed().as_micros() as f64;
            // The whole point of recovery: the first warm answer after
            // a cold boot comes from the cache, never a recompile.
            assert_eq!(
                resp.get("result")
                    .and_then(|r| r.get("cache"))
                    .and_then(Json::as_str),
                Some("hit"),
                "{name}: first post-boot revise must hit the cache"
            );
            replayed = server
                .recovery_report()
                .expect("durable server has a report")
                .replayed;
            drop(server);
            let _ = std::fs::remove_dir_all(&run_dir);
            if t >= cfg.warmup {
                trials.push(micros);
            }
        }
        let median = median_of(&trials);
        let mut r = result(cfg, name.into(), median, trials);
        r.extra
            .push(("replayed_records", Json::Num(replayed as f64)));
        r.extra
            .push(("snapshot_every", Json::Num(snapshot_every as f64)));
        results.push(r);
    }
    let _ = std::fs::remove_dir_all(&base);
    results
}

/// `repl.catchup` / `repl.read_fanout` — WAL replication. `catchup`
/// times a fresh replica from connect to fully drained against a
/// seeded primary (snapshot bootstrap + log suffix). `read_fanout`
/// times three concurrent clients reading through a
/// primary-plus-two-replicas fan-out, with the same load against the
/// primary alone recorded as `single_node_micros` — the ratio is the
/// read scale-out replication buys on this machine.
fn repl_benches(cfg: &SuiteConfig) -> Vec<BenchResult> {
    const THEORY: &str = "a & b; b -> c; c | d";
    const KBS: usize = 12;
    let base = std::env::temp_dir().join(format!("revkb-bench-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let primary = Server::open(
        ServerConfig::default()
            .with_data_dir(Some(base.clone()))
            .with_wal_sync(SyncMode::Off)
            .with_snapshot_every(1),
    )
    .expect("seed replication primary");
    let call = |server: &Server, line: &str| {
        let response = server.handle_line(line).expect("non-blank line");
        let json = Json::parse(&response).expect("response is valid JSON");
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "bench request failed: {line} -> {response}"
        );
    };
    for i in 0..KBS {
        call(
            &primary,
            &format!(r#"{{"cmd":"load","kb":"kb{i}","t":"{THEORY}"}}"#),
        );
        call(
            &primary,
            &format!(
                r#"{{"cmd":"revise","kb":"kb{i}","op":"dalal","p":"{}"}}"#,
                revision_variant(i % 16)
            ),
        );
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind primary");
    let addr = listener.local_addr().expect("primary addr");
    let acceptor = {
        let server = primary.clone();
        std::thread::spawn(move || {
            let _ = server.serve_event_loop(listener);
        })
    };
    let committed = primary.wal_committed_bytes().expect("durable primary");

    let wait_caught_up = |replica: &Server| {
        while replica.replication_status().expect("replica status").offset < committed {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    };
    // Shutdown is cleanup, not catch-up: joining the replication
    // thread waits out its socket read timeout, so it happens outside
    // the timed region.
    let mut records = 0u64;
    let mut spent = Vec::new();
    let (median, trials) = timed_trials(cfg, || {
        let replica = Server::new(ServerConfig::default().with_replica_of(Some(addr.to_string())));
        let thread = replica.start_replication().expect("replica replicates");
        wait_caught_up(&replica);
        records = replica
            .replication_status()
            .expect("replica status")
            .records_applied;
        spent.push((replica, thread));
    });
    for (replica, thread) in spent.drain(..) {
        replica.begin_shutdown();
        thread.join().expect("replication thread joins");
    }
    let mut catchup = result(cfg, "repl.catchup".into(), median, trials);
    catchup
        .extra
        .push(("log_bytes", Json::Num(committed as f64)));
    catchup
        .extra
        .push(("records_applied", Json::Num(records as f64)));

    // Two standing replicas serving TCP for the fan-out measurement.
    let mut replicas = Vec::new();
    for _ in 0..2 {
        let replica = Server::new(ServerConfig::default().with_replica_of(Some(addr.to_string())));
        let repl_thread = replica.start_replication().expect("replica replicates");
        wait_caught_up(&replica);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
        let raddr = listener.local_addr().expect("replica addr");
        let serve_thread = {
            let server = replica.clone();
            std::thread::spawn(move || {
                let _ = server.serve_event_loop(listener);
            })
        };
        replicas.push((replica, raddr, repl_thread, serve_thread));
    }
    let endpoints: Vec<std::net::SocketAddr> = std::iter::once(addr)
        .chain(replicas.iter().map(|(_, raddr, _, _)| *raddr))
        .collect();
    const CLIENTS: usize = 3;
    const QUERIES_PER_CLIENT: usize = 30;
    let run_round = |targets: &[std::net::SocketAddr]| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let target = targets[c % targets.len()];
                std::thread::spawn(move || {
                    let mut writer = TcpStream::connect(target).expect("connect endpoint");
                    writer.set_nodelay(true).expect("set TCP_NODELAY");
                    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));
                    for q in 0..QUERIES_PER_CLIENT {
                        let kb = (c * QUERIES_PER_CLIENT + q) % KBS;
                        let line = format!(r#"{{"cmd":"query","kb":"kb{kb}","q":"a | e"}}"#);
                        let _ = roundtrip(&mut writer, &mut reader, &line);
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("client thread");
        }
    };
    let (fanout_median, fanout_trials) = timed_trials(cfg, || run_round(&endpoints));
    let (single_median, _) = timed_trials(cfg, || run_round(&endpoints[..1]));
    let mut fanout = result(cfg, "repl.read_fanout".into(), fanout_median, fanout_trials);
    fanout
        .extra
        .push(("replicas", Json::Num(replicas.len() as f64)));
    fanout
        .extra
        .push(("queries", Json::Num((CLIENTS * QUERIES_PER_CLIENT) as f64)));
    fanout
        .extra
        .push(("single_node_micros", Json::Num(single_median)));
    if fanout_median > 0.0 {
        fanout
            .extra
            .push(("speedup", Json::Num(single_median / fanout_median)));
    }

    for (replica, _, repl_thread, serve_thread) in replicas {
        replica.begin_shutdown();
        repl_thread.join().expect("replication thread joins");
        serve_thread.join().expect("replica serve thread joins");
    }
    primary.begin_shutdown();
    let _ = acceptor.join();
    let _ = std::fs::remove_dir_all(&base);
    vec![catchup, fanout]
}

/// `obs.scrape` / `obs.sample_tick` — the metrics plane. `scrape`
/// times one full Prometheus text exposition (`Server::metrics_text`)
/// on a server warmed with a multi-KB workload — the cost an external
/// scraper imposes per poll. `sample_tick` times one
/// [`revkb_obs::timeseries::SeriesStore::tick`] folding a
/// server-sized observation set into the ring buffers — the cost the
/// background sampler imposes per interval.
fn obs_benches(cfg: &SuiteConfig) -> Vec<BenchResult> {
    use revkb_obs::timeseries::{Observation, SeriesStore, DEFAULT_SERIES_CAPACITY};

    const THEORY: &str = "a & b; b -> c; c | d";
    let server = Server::new(ServerConfig::default());
    let call = |line: &str| {
        let response = server.handle_line(line).expect("non-blank line");
        let json = Json::parse(&response).expect("response is valid JSON");
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "bench request failed: {line} -> {response}"
        );
    };
    for i in 0..8 {
        call(&format!(r#"{{"cmd":"load","kb":"kb{i}","t":"{THEORY}"}}"#));
        call(&format!(
            r#"{{"cmd":"revise","kb":"kb{i}","op":"dalal","p":"{}"}}"#,
            revision_variant(i % 16)
        ));
        call(&format!(r#"{{"cmd":"query","kb":"kb{i}","q":"a | e"}}"#));
    }
    let mut page_bytes = 0u64;
    let (median, trials) = timed_trials(cfg, || {
        // 50 scrapes per trial lift the figure off the timer floor.
        for _ in 0..50 {
            page_bytes = std::hint::black_box(server.metrics_text()).len() as u64;
        }
    });
    let mut scrape = result(cfg, "obs.scrape".into(), median, trials);
    scrape.extra.push(("scrapes", Json::Num(50.0)));
    scrape
        .extra
        .push(("page_bytes", Json::Num(page_bytes as f64)));

    let observations: Vec<Observation> = (0..32)
        .map(|i| Observation::counter(format!("bench.counter.{i}"), 0))
        .chain((0..8).map(|i| Observation::gauge(format!("bench.gauge.{i}"), 0)))
        .collect();
    let mut store = SeriesStore::new(DEFAULT_SERIES_CAPACITY);
    let mut at = 0u64;
    store.tick(at, &observations); // ring creation off the clock
    let (tick_median, tick_trials) = timed_trials(cfg, || {
        // 1000 ticks per trial ≈ 16 minutes of sampling at the
        // default interval, enough to wrap nothing and time plenty.
        for _ in 0..1000 {
            at += 1;
            store.tick(at, std::hint::black_box(&observations));
        }
    });
    let mut tick = result(cfg, "obs.sample_tick".into(), tick_median, tick_trials);
    tick.extra.push(("ticks", Json::Num(1000.0)));
    tick.extra
        .push(("series", Json::Num(observations.len() as f64)));

    // `obs.log_emit` — the per-record cost of the structured sinks: a
    // representative server log record rendered to its NDJSON line
    // (the marginal work each recorded line adds over the plain
    // stderr write the server always did).
    let record = revkb_obs::LogRecord {
        ts_millis: 1_700_000_000_000,
        level: revkb_obs::Level::Warn,
        target: "wal",
        trace: Some(0x4fd0_aecc_c9f1_bb2a),
        msg: "revkb-server: wal replay skipped a record: checksum mismatch at offset 4096"
            .to_string(),
    };
    let (log_median, log_trials) = timed_trials(cfg, || {
        for _ in 0..1000 {
            std::hint::black_box(record.render_json());
        }
    });
    let mut log_emit = result(cfg, "obs.log_emit".into(), log_median, log_trials);
    log_emit.extra.push(("records", Json::Num(1000.0)));
    log_emit
        .extra
        .push(("line_bytes", Json::Num(record.render_json().len() as f64)));

    // `obs.flight_record` — the always-on cost of one attributed span
    // through the flight recorder with `REVKB_TRACE` off: the price
    // every request pays so `/debug/trace.json` works without a
    // restart.
    let prev_mode = revkb_obs::mode();
    let prev_flight = revkb_obs::flight_enabled();
    revkb_obs::set_mode(revkb_obs::TraceMode::Off);
    revkb_obs::set_flight_enabled(true);
    let mut trace_id = 1u64;
    let (flight_median, flight_trials) = timed_trials(cfg, || {
        for _ in 0..1000 {
            trace_id = trace_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let _span = revkb_obs::span_with(
                "bench.flight.span",
                &[("req", 7), (revkb_obs::TRACE_ATTR, trace_id)],
            );
        }
    });
    revkb_obs::set_flight_enabled(prev_flight);
    revkb_obs::set_mode(prev_mode);
    revkb_obs::flight_reset();
    let mut flight = result(
        cfg,
        "obs.flight_record".into(),
        flight_median,
        flight_trials,
    );
    flight.extra.push(("spans", Json::Num(1000.0)));
    flight.extra.push((
        "ring_capacity",
        Json::Num(revkb_obs::FLIGHT_CAPACITY as f64),
    ));

    vec![scrape, tick, log_emit, flight]
}

/// Run the whole fixed suite in order.
pub fn run_suite(cfg: &SuiteConfig) -> Vec<BenchResult> {
    let mut results = compile_benches(cfg);
    results.push(dalal_chain_bench(cfg));
    results.push(via_bdd_bench(cfg));
    results.extend(query_benches(cfg));
    results.push(bdd_bench(cfg));
    results.push(tseitin_bench(cfg));
    results.push(cache_touch_bench(cfg));
    results.extend(server_benches(cfg));
    results.extend(wal_boot_benches(cfg));
    results.extend(repl_benches(cfg));
    results.extend(obs_benches(cfg));
    results.extend(crate::load::load_benches(cfg));
    results
}

/// Render the schema-versioned `BENCH_*.json` report.
pub fn report_json(cfg: &SuiteConfig, meta: &RunMeta, results: &[BenchResult]) -> String {
    Json::obj([
        ("bench", Json::str("revkb-bench")),
        ("schema_version", Json::Num(BENCH_SCHEMA_VERSION as f64)),
        ("run_meta", run_meta_json(cfg, meta)),
        (
            "benchmarks",
            Json::Arr(results.iter().map(BenchResult::to_json).collect()),
        ),
    ])
    .pretty()
}

fn run_meta_json(cfg: &SuiteConfig, meta: &RunMeta) -> Json {
    Json::obj([
        ("threads", Json::Num(meta.threads as f64)),
        ("trace_mode", Json::str(meta.trace_mode)),
        (
            "git_describe",
            meta.git_describe.as_deref().map_or(Json::Null, Json::str),
        ),
        (
            "cpu_count",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("seed", Json::Num(cfg.seed as f64)),
        ("trials", Json::Num(cfg.trials as f64)),
        ("warmup", Json::Num(cfg.warmup as f64)),
    ])
}

/// One benchmark's baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Benchmark name.
    pub name: String,
    /// Baseline median, microseconds.
    pub baseline: f64,
    /// Current median, microseconds.
    pub current: f64,
    /// Relative change, percent (positive = slower).
    pub delta_pct: f64,
    /// Tolerance applied, percent.
    pub tolerance_pct: f64,
    /// Regression verdict: relatively beyond tolerance *and*
    /// absolutely beyond [`MIN_DELTA_MICROS`].
    pub regressed: bool,
    /// The [`WORK_EXTRAS`] whose value changed from the baseline, as
    /// `(extra, baseline, current)`.
    pub work_changed: Vec<(&'static str, f64, f64)>,
}

/// Extras that count deterministic work, not time: a change in any of
/// them from the baseline fails the comparison whatever the wall time
/// does, `--warn-only` included ([`comparison_fails`]).
pub const WORK_EXTRAS: [&str; 4] = [
    "compiled_size",
    "k_session_probes",
    "k_session_conflicts",
    "allocated_nodes",
];

/// Does a baseline comparison fail? On any change in a
/// [`WORK_EXTRAS`] count, always; on a wall-time regression, unless
/// `warn_only`.
pub fn comparison_fails(comparisons: &[Comparison], warn_only: bool) -> bool {
    comparisons
        .iter()
        .any(|c| !c.work_changed.is_empty() || (c.regressed && !warn_only))
}

/// Compare current results against a baseline `BENCH_*.json`.
///
/// Benchmarks present only on one side are skipped (a new benchmark is
/// not a regression; a removed one is a review question, not a CI
/// failure), and so are [`WORK_EXTRAS`] present only on one side.
/// Errors only on unparseable or wrong-schema baselines.
pub fn compare_against_baseline(
    results: &[BenchResult],
    baseline_json: &str,
) -> Result<Vec<Comparison>, String> {
    let baseline =
        Json::parse(baseline_json).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let version = baseline
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("baseline has no schema_version")?;
    if version != BENCH_SCHEMA_VERSION as u64 {
        return Err(format!(
            "baseline schema_version {version} != supported {BENCH_SCHEMA_VERSION}"
        ));
    }
    let benchmarks = baseline
        .get("benchmarks")
        .and_then(Json::as_array)
        .ok_or("baseline has no benchmarks array")?;
    let mut comparisons = Vec::new();
    for r in results {
        let Some(base) = benchmarks
            .iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(r.name.as_str()))
        else {
            continue;
        };
        let Some(base_median) = base.get("median").and_then(Json::as_f64) else {
            continue;
        };
        let delta = r.median - base_median;
        let delta_pct = if base_median > 0.0 {
            delta / base_median * 100.0
        } else {
            0.0
        };
        let regressed = delta_pct > r.tolerance_pct && delta > MIN_DELTA_MICROS;
        let work_changed = r
            .extra
            .iter()
            .filter_map(|(key, value)| {
                let key = WORK_EXTRAS.into_iter().find(|w| w == key)?;
                let (Some(current), Some(baseline)) = (
                    value.as_f64(),
                    base.get("extra")
                        .and_then(|extra| extra.get(key))
                        .and_then(Json::as_f64),
                ) else {
                    return None;
                };
                (current != baseline).then_some((key, baseline, current))
            })
            .collect();
        comparisons.push(Comparison {
            name: r.name.clone(),
            baseline: base_median,
            current: r.median,
            delta_pct,
            tolerance_pct: r.tolerance_pct,
            regressed,
            work_changed,
        });
    }
    Ok(comparisons)
}

/// The folded-in `server_bench` workload: per-operator cold/warm
/// revise through an in-process server, reported with the same
/// schema-versioned envelope. Returns the rendered
/// `server_bench_report.json` contents and a printable summary.
pub fn server_ops_report(cfg: &SuiteConfig, meta: &RunMeta) -> (String, String) {
    const THEORY: &str = "a & b; b -> c; c | d";
    const REVISION: &str = "!b | !c";
    const QUERIES: [&str; 4] = ["a", "c | d", "!(b & c)", "a & (c | d)"];
    let server = Server::new(ServerConfig::default());
    let call = |line: &str| -> (Json, u64) {
        let start = Instant::now();
        let response = server.handle_line(line).expect("non-blank line");
        let micros = start.elapsed().as_micros() as u64;
        let json = Json::parse(&response).expect("response is valid JSON");
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "request failed: {line} -> {response}"
        );
        (json, micros)
    };
    let mut rows = Vec::new();
    let mut summary =
        String::from("== server ops: artifact cache & request latency (in-process) ==\n");
    summary.push_str(&format!(
        "{:<10} {:>16} {:>16} {:>10} {:>16} {:>14}\n",
        "operator", "cold_revise_us", "warm_revise_us", "cache", "query_batch_us", "compiled_size"
    ));
    for op in OPERATORS {
        let kb = format!("bench-{op}");
        let load = format!(r#"{{"cmd":"load","kb":"{kb}","t":"{THEORY}"}}"#);
        let revise = format!(r#"{{"cmd":"revise","kb":"{kb}","op":"{op}","p":"{REVISION}"}}"#);
        let qs: Vec<String> = QUERIES.iter().map(|q| format!("\"{q}\"")).collect();
        let query = format!(
            r#"{{"cmd":"query_batch","kb":"{kb}","qs":[{}]}}"#,
            qs.join(",")
        );
        call(&load);
        let (cold_resp, cold_micros) = call(&revise);
        let (_, query_micros) = call(&query);
        let compiled_size = cold_resp
            .get("result")
            .and_then(|r| r.get("compiled_size"))
            .and_then(Json::as_u64);
        call(&format!(r#"{{"cmd":"drop","kb":"{kb}"}}"#));
        call(&load);
        let (warm_resp, warm_micros) = call(&revise);
        let warm_cache = warm_resp
            .get("result")
            .and_then(|r| r.get("cache"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        call(&format!(r#"{{"cmd":"drop","kb":"{kb}"}}"#));
        summary.push_str(&format!(
            "{:<10} {:>16} {:>16} {:>10} {:>16} {:>14}\n",
            op,
            cold_micros,
            warm_micros,
            warm_cache,
            query_micros,
            compiled_size.map_or_else(|| "-".to_string(), |s| s.to_string()),
        ));
        rows.push(Json::obj([
            ("op", Json::str(op)),
            ("cold_revise_micros", Json::Num(cold_micros as f64)),
            ("warm_revise_micros", Json::Num(warm_micros as f64)),
            ("warm_cache", Json::str(&warm_cache)),
            ("query_batch_micros", Json::Num(query_micros as f64)),
            (
                "compiled_size",
                compiled_size.map_or(Json::Null, |s| Json::Num(s as f64)),
            ),
        ]));
    }
    let (stats, _) = call(r#"{"cmd":"stats"}"#);
    let stats_result = stats.get("result").expect("stats result");
    let cache = stats_result.get("cache").expect("stats cache block");
    let cache_field = |key: &str| cache.get(key).and_then(Json::as_u64).unwrap_or(0);
    let report = Json::obj([
        ("bench", Json::str("server_bench")),
        ("schema_version", Json::Num(BENCH_SCHEMA_VERSION as f64)),
        ("run_meta", run_meta_json(cfg, meta)),
        ("operators", Json::Arr(rows)),
        (
            "cache",
            Json::obj([
                ("hits", Json::Num(cache_field("hits") as f64)),
                ("misses", Json::Num(cache_field("misses") as f64)),
                ("evictions", Json::Num(cache_field("evictions") as f64)),
            ]),
        ),
        (
            "requests",
            Json::Num(
                stats_result
                    .get("requests")
                    .and_then(Json::as_u64)
                    .unwrap_or(0) as f64,
            ),
        ),
    ])
    .pretty();
    (report, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_robust() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_of(&[]), 0.0);
        assert_eq!(median_of(&[7.0]), 7.0);
    }

    #[test]
    fn revision_variants_are_distinct_and_near_equal_size() {
        let all: Vec<String> = (0..16).map(revision_variant).collect();
        for (i, a) in all.iter().enumerate() {
            // Variants differ only in negation signs: at most four
            // extra `!` characters over the all-positive variant.
            assert!(
                a.len() >= all[0].len() && a.len() <= all[0].len() + 4,
                "variant {i} changed shape: {a}"
            );
            for b in &all[..i] {
                assert_ne!(a, b, "variant {i} collided");
            }
        }
    }

    #[test]
    fn baseline_comparison_flags_real_regressions_only() {
        let results = vec![
            BenchResult {
                name: "compile.dalal".into(),
                unit: "micros",
                median: 1000.0,
                trials: vec![1000.0],
                tolerance_pct: 15.0,
                extra: vec![],
            },
            BenchResult {
                name: "server.revise.cold".into(),
                unit: "micros",
                median: 10_000.0,
                trials: vec![10_000.0],
                tolerance_pct: 50.0,
                extra: vec![],
            },
        ];
        let cfg = SuiteConfig::default();
        let meta = RunMeta::capture();
        // Self-comparison: identical medians, zero regressions.
        let baseline = report_json(&cfg, &meta, &results);
        let comparisons = compare_against_baseline(&results, &baseline).unwrap();
        assert_eq!(comparisons.len(), 2);
        assert!(comparisons.iter().all(|c| !c.regressed));
        // A big relative slip that is also absolutely large regresses…
        let mut slower = results.clone();
        slower[1].median = 20_000.0;
        let comparisons = compare_against_baseline(&slower, &baseline).unwrap();
        assert!(comparisons.iter().any(|c| c.regressed));
        // …but a big relative slip under the absolute floor does not.
        let mut tiny = results.clone();
        tiny[0].median = 1400.0; // +40% but only +400us < 500us floor
        let comparisons = compare_against_baseline(&tiny, &baseline).unwrap();
        assert!(comparisons.iter().all(|c| !c.regressed));
    }

    #[test]
    fn work_counts_gate_even_when_wall_time_warns_only() {
        let chain = |median: f64, conflicts: f64| BenchResult {
            name: "compile.dalal_chain".into(),
            unit: "micros",
            median,
            trials: vec![median],
            tolerance_pct: 15.0,
            extra: vec![
                ("compiled_size", Json::Num(3000.0)),
                ("k_session_conflicts", Json::Num(conflicts)),
                ("allocated_nodes", Json::Num(700.0)),
            ],
        };
        let cfg = SuiteConfig::default();
        let baseline = report_json(&cfg, &RunMeta::capture(), &[chain(1000.0, 40.0)]);
        let compare = |r| compare_against_baseline(&[r], &baseline).unwrap();

        // Much slower, same work: fails only without --warn-only.
        let slower = compare(chain(5000.0, 40.0));
        assert!(slower[0].regressed && slower[0].work_changed.is_empty());
        assert!(comparison_fails(&slower, false));
        assert!(!comparison_fails(&slower, true));

        // Faster, but the work changed: fails either way, and says how.
        let changed = compare(chain(500.0, 39.0));
        assert!(!changed[0].regressed);
        assert_eq!(
            changed[0].work_changed,
            vec![("k_session_conflicts", 40.0, 39.0)]
        );
        assert!(comparison_fails(&changed, true));

        // BDD node counts gate the same way.
        let mut more_nodes = chain(1000.0, 40.0);
        more_nodes.extra[2].1 = Json::Num(701.0);
        assert!(comparison_fails(&compare(more_nodes), true));

        // A count the baseline does not have is not compared.
        let mut extra_count = chain(1000.0, 40.0);
        extra_count.extra.push(("k_session_probes", Json::Num(7.0)));
        assert!(!comparison_fails(&compare(extra_count), true));
    }

    #[test]
    fn baseline_schema_is_checked() {
        let results: Vec<BenchResult> = Vec::new();
        assert!(compare_against_baseline(&results, "not json").is_err());
        assert!(compare_against_baseline(&results, r#"{"benchmarks":[]}"#).is_err());
        assert!(
            compare_against_baseline(&results, r#"{"schema_version":999,"benchmarks":[]}"#)
                .is_err()
        );
    }
}
