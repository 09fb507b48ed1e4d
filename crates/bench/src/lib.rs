//! # revkb-bench
//!
//! Shared measurement machinery for the table-generator binaries
//! (`table1`, `table2`, `figure1`, `section7`) and the Criterion
//! benches. The binaries regenerate the paper's Table 1, Table 2 and
//! Figure 1; the Criterion benches time the substrates and
//! constructions.
//!
//! Reports are serialised with [`Json::pretty`], the workspace's one
//! JSON codec in `revkb_obs::json` — the build is fully offline, so
//! there is deliberately no serde dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use revkb_logic::Formula;
use revkb_obs::Json;
use revkb_revision::Engine;
use revkb_sat::{PoolConfig, PoolStats, SessionPool};
use std::time::Instant;

pub mod load;
pub mod suite;

/// A measured size series: representation size as a function of the
/// scaling parameter.
#[derive(Debug, Clone)]
pub struct Series {
    /// What was measured.
    pub label: String,
    /// Scaling parameter values (`n` or `m`).
    pub xs: Vec<f64>,
    /// Measured sizes.
    pub ys: Vec<f64>,
}

/// Growth classification of a size series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Growth {
    /// Fits `y ≈ a·x^b` better: polynomial with the fitted degree.
    Polynomial {
        /// Fitted exponent `b`.
        degree: f64,
    },
    /// Fits `y ≈ a·base^x` better: exponential with the fitted base.
    Exponential {
        /// Fitted base.
        base: f64,
    },
}

impl std::fmt::Display for Growth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Growth::Polynomial { degree } => write!(f, "polynomial (≈ n^{degree:.1})"),
            Growth::Exponential { base } => write!(f, "EXPONENTIAL (≈ {base:.2}^n)"),
        }
    }
}

/// Least-squares fit of `y = a + b·x`; returns `(a, b, sse)`.
fn linfit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    let b = if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    };
    let a = (sy - b * sx) / n;
    let sse: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (a + b * x);
            e * e
        })
        .sum();
    (a, b, sse)
}

/// Classify a positive, growing series as polynomial or exponential by
/// comparing the least-squares fit of `log y` against `log x`
/// (polynomial model) and against `x` (exponential model).
pub fn classify_growth(xs: &[f64], ys: &[f64]) -> Growth {
    assert!(xs.len() >= 3, "need at least 3 points to classify");
    let logy: Vec<f64> = ys.iter().map(|&y| y.max(1.0).ln()).collect();
    let logx: Vec<f64> = xs.iter().map(|&x| x.max(1.0).ln()).collect();
    let (_, poly_deg, poly_sse) = linfit(&logx, &logy);
    let (_, exp_slope, exp_sse) = linfit(xs, &logy);
    // Prefer the model with the smaller residual; an exponential fit
    // with base ≈ 1 is really polynomial-or-flat.
    if exp_sse < poly_sse && exp_slope.exp() > 1.25 {
        Growth::Exponential {
            base: exp_slope.exp(),
        }
    } else {
        Growth::Polynomial { degree: poly_deg }
    }
}

impl Series {
    /// New series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Append a data point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.xs.push(x);
        self.ys.push(y);
    }

    /// Classify the growth of the series.
    pub fn growth(&self) -> Growth {
        classify_growth(&self.xs, &self.ys)
    }

    /// Render `x→y` pairs compactly.
    pub fn render(&self) -> String {
        self.xs
            .iter()
            .zip(&self.ys)
            .map(|(x, y)| format!("{x:.0}→{y:.0}"))
            .collect::<Vec<_>>()
            .join("  ")
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(&self.label)),
            (
                "xs",
                Json::Arr(self.xs.iter().map(|&x| Json::Num(x)).collect()),
            ),
            (
                "ys",
                Json::Arr(self.ys.iter().map(|&y| Json::Num(y)).collect()),
            ),
        ])
    }
}

/// One cell of a compactability table.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The paper's verdict for the cell ("YES"/"NO").
    pub paper_claim: &'static str,
    /// The theorem or result backing the claim.
    pub reference: &'static str,
    /// What this run measured.
    pub series: Vec<Series>,
    /// Whether the measurement is consistent with the claim.
    pub consistent: bool,
    /// One-line explanation of the evidence.
    pub evidence: String,
}

impl Cell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("paper_claim", Json::str(self.paper_claim)),
            ("reference", Json::str(self.reference)),
            (
                "series",
                Json::Arr(self.series.iter().map(Series::to_json).collect()),
            ),
            ("consistent", Json::Bool(self.consistent)),
            ("evidence", Json::str(&self.evidence)),
        ])
    }
}

/// One operator's batch-query workload, answered twice, each time on a
/// fresh [`SessionPool`]: once sequentially, once sharded across the
/// workers. Captures the head-to-head wall times and the parallel
/// pool's statistics.
#[derive(Debug, Clone)]
pub struct BatchWorkload {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Queries in the batch.
    pub queries: usize,
    /// Wall time of the sequential pass, in microseconds.
    pub sequential_wall_micros: u64,
    /// Wall time of the parallel pass, in microseconds.
    pub parallel_wall_micros: u64,
    /// Whether the two passes returned bit-identical answer vectors
    /// (they must — a `false` here is a correctness bug, and the
    /// report says so rather than hiding it).
    pub answers_match: bool,
    /// The parallel pool's statistics after its pass (per-worker
    /// blocks, merged counters, CPU-vs-wall time accounting).
    pub pool: PoolStats,
}

/// Run `queries` over `base` twice, each pass on a fresh pool — a
/// sequential pass and a parallel pass — and capture the comparison.
/// The passes get a pool each because parallel workers are forked from
/// worker 0 with its memo: after a sequential pass on the same pool,
/// the parallel pass would only read memoised answers.
///
/// The parallel pass uses a forced-parallel threshold so the
/// comparison is honest even for small sweeps; worker count comes
/// from `threads` (pass [`revkb_sat::default_threads`] for the
/// `REVKB_THREADS`-aware default).
pub fn run_batch_workload(base: &Formula, queries: &[Formula], threads: usize) -> BatchWorkload {
    let new_pool = || {
        SessionPool::with_config(
            base,
            PoolConfig {
                threads,
                sequential_threshold: 0,
            },
        )
    };
    let mut sequential_pool = new_pool();
    let start = Instant::now();
    let sequential = sequential_pool.entails_batch(queries);
    let sequential_wall_micros = start.elapsed().as_micros() as u64;
    let mut pool = new_pool();
    let start = Instant::now();
    let parallel = pool.par_entails_batch(queries);
    let parallel_wall_micros = start.elapsed().as_micros() as u64;
    BatchWorkload {
        threads: pool.threads(),
        queries: queries.len(),
        sequential_wall_micros,
        parallel_wall_micros,
        answers_match: sequential == parallel,
        pool: pool.stats(),
    }
}

impl BatchWorkload {
    fn to_json(&self) -> Json {
        Json::obj([
            ("threads", Json::Num(self.threads as f64)),
            ("queries", Json::Num(self.queries as f64)),
            (
                "sequential_wall_micros",
                Json::Num(self.sequential_wall_micros as f64),
            ),
            (
                "parallel_wall_micros",
                Json::Num(self.parallel_wall_micros as f64),
            ),
            ("answers_match", Json::Bool(self.answers_match)),
            (
                "pool_stats",
                Json::parse(&self.pool.to_json()).expect("PoolStats::to_json renders valid JSON"),
            ),
        ])
    }
}

/// One engine's workload, measured through trait-object dispatch: the
/// same queries answered one at a time, as a batch, and through the
/// parallel path, with the three answer vectors cross-checked.
#[derive(Debug, Clone)]
pub struct EngineWorkload {
    /// `Engine::describe()` of the engine under test.
    pub engine: String,
    /// Queries in the workload.
    pub queries: usize,
    /// Wall time of the one-at-a-time pass, in microseconds.
    pub single_wall_micros: u64,
    /// Wall time of the batch pass, in microseconds.
    pub batch_wall_micros: u64,
    /// Wall time of the parallel-batch pass, in microseconds.
    pub parallel_wall_micros: u64,
    /// Whether all three passes agreed bit-for-bit (a `false` is a
    /// correctness bug, and the report says so rather than hiding it).
    pub answers_match: bool,
}

/// Run `queries` through any [`Engine`] three ways — single calls,
/// one batch, one parallel batch — and capture the comparison. This is
/// the generic analogue of [`run_batch_workload`]: it exercises the
/// exact dispatch path the `revkb-server` registry uses
/// (`Box<dyn Engine + Send>`), so a divergence between trait-object
/// and concrete behaviour shows up here first.
pub fn run_engine_workload(engine: &mut dyn Engine, queries: &[Formula]) -> EngineWorkload {
    let start = Instant::now();
    let single: Vec<bool> = queries.iter().map(|q| engine.entails(q)).collect();
    let single_wall_micros = start.elapsed().as_micros() as u64;
    let start = Instant::now();
    let batch = engine.entails_batch(queries);
    let batch_wall_micros = start.elapsed().as_micros() as u64;
    let start = Instant::now();
    let parallel = engine
        .par_entails_batch(queries)
        .expect("parallel batch failed after batch succeeded");
    let parallel_wall_micros = start.elapsed().as_micros() as u64;
    EngineWorkload {
        engine: engine.describe(),
        queries: queries.len(),
        single_wall_micros,
        batch_wall_micros,
        parallel_wall_micros,
        answers_match: single == batch && batch == parallel,
    }
}

impl EngineWorkload {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("engine", Json::str(&self.engine)),
            ("queries", Json::Num(self.queries as f64)),
            (
                "single_wall_micros",
                Json::Num(self.single_wall_micros as f64),
            ),
            (
                "batch_wall_micros",
                Json::Num(self.batch_wall_micros as f64),
            ),
            (
                "parallel_wall_micros",
                Json::Num(self.parallel_wall_micros as f64),
            ),
            ("answers_match", Json::Bool(self.answers_match)),
        ])
    }
}

/// Schema version of the table reports. Bumped to 2 when the
/// `schema_version`/`run_meta` block and the optional `telemetry`
/// section were added.
pub const REPORT_SCHEMA_VERSION: u32 = 2;

/// Run metadata stamped into every report: enough to know how the
/// numbers were produced without reading shell history.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Worker threads the batch pools default to (`REVKB_THREADS` /
    /// available parallelism).
    pub threads: usize,
    /// Telemetry mode of the run (`REVKB_TRACE`).
    pub trace_mode: &'static str,
    /// `git describe --always --dirty` of the working tree, when a git
    /// binary and repository are reachable.
    pub git_describe: Option<String>,
}

impl RunMeta {
    /// Capture the current process environment.
    pub fn capture() -> Self {
        RunMeta {
            threads: revkb_sat::default_threads(),
            trace_mode: revkb_obs::mode().name(),
            git_describe: git_describe(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("threads", Json::Num(self.threads as f64)),
            ("trace_mode", Json::str(self.trace_mode)),
            (
                "git_describe",
                match &self.git_describe {
                    Some(d) => Json::str(d),
                    None => Json::Null,
                },
            ),
        ])
    }
}

fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim();
    (!s.is_empty()).then(|| s.to_string())
}

/// Drain the telemetry registry into the report's `telemetry` section,
/// writing the Chrome trace file first when the mode asks for one.
/// Returns `None` (no section, no file) when telemetry is off.
pub fn drain_telemetry() -> Option<String> {
    if !revkb_obs::enabled() {
        return None;
    }
    let snap = revkb_obs::drain();
    if snap.mode == revkb_obs::TraceMode::Chrome {
        let path = revkb_obs::trace_file_path();
        match revkb_obs::write_chrome_trace(&path, &snap) {
            Ok(()) => eprintln!("chrome trace written to {}", path.display()),
            Err(e) => eprintln!("chrome trace write failed for {}: {e}", path.display()),
        }
    }
    Some(snap.to_json())
}

/// A whole table for serialisation.
#[derive(Debug, Clone)]
pub struct TableReport {
    /// Table name.
    pub table: String,
    /// Run metadata (threads, trace mode, git describe).
    pub meta: RunMeta,
    /// Row label → column label → cell.
    pub rows: Vec<(String, Vec<(String, Cell)>)>,
    /// Per-operator batch-query workloads: label → sequential vs
    /// parallel comparison over one sharded session pool.
    pub workloads: Vec<(String, BatchWorkload)>,
    /// Drained telemetry snapshot (pre-rendered JSON), present only
    /// when the run had `REVKB_TRACE` enabled — so `off` runs stay
    /// byte-compatible with earlier reports apart from the
    /// schema/metadata fields.
    pub telemetry: Option<String>,
}

impl TableReport {
    /// Render the report as a JSON string.
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|(label, cells)| {
                let cells = cells
                    .iter()
                    .map(|(col, cell)| Json::Arr(vec![Json::str(col), cell.to_json()]))
                    .collect();
                Json::Arr(vec![Json::str(label), Json::Arr(cells)])
            })
            .collect();
        let workloads = self
            .workloads
            .iter()
            .map(|(label, workload)| {
                let Json::Obj(mut fields) = workload.to_json() else {
                    unreachable!("BatchWorkload::to_json returns an object");
                };
                fields.insert(0, ("operator".into(), Json::str(label)));
                Json::Obj(fields)
            })
            .collect();
        let mut pairs = vec![
            ("table", Json::str(&self.table)),
            ("schema_version", Json::Num(REPORT_SCHEMA_VERSION as f64)),
            ("run_meta", self.meta.to_json()),
            ("rows", Json::Arr(rows)),
            ("query_workloads", Json::Arr(workloads)),
        ];
        if let Some(telemetry) = &self.telemetry {
            pairs.push((
                "telemetry",
                Json::parse(telemetry).expect("Snapshot::to_json renders valid JSON"),
            ));
        }
        Json::obj(pairs).pretty()
    }

    /// Write the report as JSON next to the repo's bench outputs.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Print a paper-style YES/NO grid.
pub fn print_grid(title: &str, columns: &[&str], rows: &[(String, Vec<(String, Cell)>)]) {
    println!("== {title} ==");
    print!("{:<22}", "Formalism");
    for c in columns {
        print!("{c:>26}");
    }
    println!();
    println!("{}", "-".repeat(22 + 26 * columns.len()));
    for (row_label, cells) in rows {
        print!("{row_label:<22}");
        for (_, cell) in cells {
            let mark = if cell.consistent { "" } else { " (!)" };
            print!(
                "{:>26}",
                format!("{}{} {}", cell.paper_claim, mark, cell.reference)
            );
        }
        println!();
    }
    println!();
}

/// Print the per-operator sequential-vs-parallel workload comparison.
pub fn print_workloads(workloads: &[(String, BatchWorkload)]) {
    println!("== Batch query workloads (sharded session pool) ==");
    for (label, w) in workloads {
        let merged = w.pool.merged();
        let verdict = if w.answers_match {
            "identical"
        } else {
            "DIVERGED (!)"
        };
        println!(
            "{label:<22} threads={} queries={} seq_us={} par_us={} answers={} \
             cache_hits={} conflicts={} decisions={} cpu_us={} wall_us={}",
            w.threads,
            w.queries,
            w.sequential_wall_micros,
            w.parallel_wall_micros,
            verdict,
            merged.cache_hits,
            merged.conflicts,
            merged.decisions,
            w.pool.cpu_time_total_micros(),
            w.pool.wall_time_micros,
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_polynomial() {
        let xs: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let quad: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
        match classify_growth(&xs, &quad) {
            Growth::Polynomial { degree } => assert!((degree - 2.0).abs() < 0.2),
            g => panic!("misclassified quadratic as {g:?}"),
        }
        let lin: Vec<f64> = xs.iter().map(|x| 7.0 * x + 2.0).collect();
        assert!(matches!(
            classify_growth(&xs, &lin),
            Growth::Polynomial { .. }
        ));
    }

    #[test]
    fn classifies_exponential() {
        let xs: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let exp: Vec<f64> = xs.iter().map(|x| 2f64.powf(*x)).collect();
        match classify_growth(&xs, &exp) {
            Growth::Exponential { base } => assert!((base - 2.0).abs() < 0.2),
            g => panic!("misclassified exponential as {g:?}"),
        }
    }

    #[test]
    fn constant_series_is_polynomial() {
        let xs: Vec<f64> = (1..=6).map(|x| x as f64).collect();
        let ys = vec![5.0; 6];
        assert!(matches!(
            classify_growth(&xs, &ys),
            Growth::Polynomial { .. }
        ));
    }

    #[test]
    fn series_round_trip() {
        let mut s = Series::new("test");
        for i in 1..=5 {
            s.push(i as f64, (i * i) as f64);
        }
        assert!(matches!(s.growth(), Growth::Polynomial { .. }));
        assert!(s.render().contains("5→25"));
    }

    #[test]
    fn engine_workload_through_trait_object() {
        use revkb_logic::Var;
        use revkb_revision::{ModelBasedOp, ReviseBuilder};
        let v = |i: u32| Formula::var(Var(i));
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0).not().or(v(1).not());
        let mut engine: Box<dyn Engine> = Box::new(
            ReviseBuilder::new(ModelBasedOp::Dalal)
                .compile(&t, &p)
                .unwrap(),
        );
        let queries = vec![v(2), v(0).or(v(1)), v(0).and(v(1)), v(2).not()];
        let workload = run_engine_workload(engine.as_mut(), &queries);
        assert!(workload.answers_match);
        assert_eq!(workload.queries, 4);
        assert!(workload.engine.contains("Dalal"));
        let j = format!("{:?}", workload.to_json());
        assert!(j.contains("answers_match"));
    }

    #[test]
    fn report_json_shape() {
        use revkb_logic::Var;
        let base = Formula::var(Var(0)).and(Formula::var(Var(1)));
        let queries = vec![Formula::var(Var(0)), Formula::var(Var(1)).not()];
        let workload = run_batch_workload(&base, &queries, 2);
        assert!(workload.answers_match);
        assert_eq!(workload.threads, 2);
        assert_eq!(workload.queries, 2);
        let report = TableReport {
            table: "t".into(),
            meta: RunMeta::capture(),
            telemetry: None,
            rows: vec![(
                "Horn".into(),
                vec![(
                    "revision".into(),
                    Cell {
                        paper_claim: "NO",
                        reference: "Thm 4.2",
                        series: vec![Series {
                            label: "s".into(),
                            xs: vec![1.0, 2.0],
                            ys: vec![3.0, 4.5],
                        }],
                        consistent: true,
                        evidence: "he said \"so\"".into(),
                    },
                )],
            )],
            workloads: vec![("revision".into(), workload)],
        };
        let j = report.to_json();
        assert!(j.contains("\"table\": \"t\""));
        assert!(j.contains("\"Horn\""));
        assert!(j.contains("\"paper_claim\": \"NO\""));
        assert!(j.contains("\\\"so\\\""));
        assert!(j.contains("4.5"));
        for key in [
            "\"schema_version\": 2",
            "\"run_meta\": {",
            "\"trace_mode\":",
            "\"query_workloads\"",
            "\"operator\": \"revision\"",
            "\"threads\": 2",
            "\"sequential_wall_micros\"",
            "\"parallel_wall_micros\"",
            "\"answers_match\": true",
            "\"pool_stats\": {",
            "\"cpu_time_total_micros\"",
            "\"wall_time_micros\"",
            "\"per_worker\": [",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // The pool's own JSON is embedded as a value, not a string.
        let parsed = Json::parse(&j).expect("report parses");
        let per_worker = parsed
            .get("query_workloads")
            .and_then(Json::as_array)
            .and_then(|w| w.first()?.get("pool_stats")?.get("per_worker")?.as_array());
        assert!(matches!(per_worker, Some([Json::Obj(_), ..])), "{j}");
    }
}
