//! The server proper: admission control, deadlines, degradation, and
//! the command dispatcher, plus the stdio serving loop (TCP is served
//! by [`crate::event_loop`]).
//!
//! Concurrency model: the stdio loop and the event loop's workers
//! run requests through one dispatcher concurrently. A request is first **admitted** (bounded
//! in-flight count — beyond it the server answers `overloaded` instead
//! of queueing unboundedly), then waits for one of a fixed number of
//! **execution permits** (so at most `threads` requests run engine
//! work at once), then executes against the named KB's own mutex
//! (queries to different KBs run in parallel; queries to one KB
//! serialise, which the incremental-session engines require anyway).
//!
//! Deadlines are best-effort, not preemptive: a request's deadline is
//! checked at admission, after the permit wait, and again after
//! execution (a result computed too late is discarded and reported as
//! `timeout` — late answers must not look fast). A `deadline_ms` of 0
//! therefore deterministically times out, which the tests and the CI
//! smoke script rely on.
//!
//! Every request gets a server-assigned monotonic id (`req`), echoed
//! in the response envelope and attached as an attribute to every
//! `server.*` telemetry span, so a Chrome trace (`REVKB_TRACE=chrome`)
//! correlates span-for-line with the wire log. Requests slower than
//! `REVKB_SERVER_SLOW_MS` land in a bounded `slow_log` ring buffer
//! returned by `stats`. The counters and their reports live in the
//! child module `metrics`.

use crate::http;
use crate::protocol::{
    codes, parse_request, Command, OpName, Request, RequestError, Response, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};
use crate::registry::{cache_key, formula_size, Artifact, ArtifactCache, KbKind, KbState};
use crate::replica::{
    encode_heartbeat, epoch_millis, from_hex, to_hex, Backoff, RecordSplitter, ReplState,
    ReplStatus, Shipped,
};
use crate::wal::{decode_records, RecoveryReport, SyncMode, Wal, WalOp, LOG_MAGIC, SNAPSHOT_FILE};
use revkb_logic::{parse as parse_formula, parse_nested, Formula, Signature, MAX_DEPTH};
use revkb_obs as obs;
use revkb_obs::Json;
use revkb_revision::api::Engine;
use revkb_revision::{
    Backend, CompactRep, CompileError, Error, GfuvEngine, ModelBasedOp, RevisionChain, Theory,
    WidtioEngine,
};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufRead, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

mod metrics;

use metrics::{sample_observations, ServerCounters};

/// Environment variable bounding concurrent request execution.
pub const THREADS_ENV: &str = "REVKB_SERVER_THREADS";
/// Environment variable bounding admitted-but-unfinished requests.
pub const QUEUE_ENV: &str = "REVKB_SERVER_QUEUE";
/// Environment variable giving the default per-request deadline (ms).
pub const DEADLINE_ENV: &str = "REVKB_SERVER_DEADLINE_MS";
/// Environment variable giving the compile timeout (ms) beyond which a
/// revision degrades to delayed incorporation.
pub const COMPILE_TIMEOUT_ENV: &str = "REVKB_SERVER_COMPILE_TIMEOUT_MS";
/// Environment variable giving the compiled-artifact cache capacity.
pub const CACHE_CAP_ENV: &str = "REVKB_CACHE_CAP";
/// Compiled-artifact cache capacity when [`CACHE_CAP_ENV`] is unset.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;
/// Environment variable giving the GFUV possible-worlds budget.
pub const WORLDS_ENV: &str = "REVKB_SERVER_WORLDS";
/// Environment variable giving the slow-request threshold (ms): any
/// request at least this slow end-to-end is recorded in the `slow_log`
/// ring buffer returned by `stats`. 0 records every request.
pub const SLOW_MS_ENV: &str = "REVKB_SERVER_SLOW_MS";
/// Environment variable giving the slow-log ring-buffer capacity.
pub const SLOW_LOG_ENV: &str = "REVKB_SERVER_SLOW_LOG";
/// Environment variable naming the primary to replicate from
/// (equivalent to `--replica-of HOST:PORT`). Set, the server is a
/// read-only replica.
pub const REPLICA_OF_ENV: &str = "REVKB_REPLICA_OF";

/// How long the replication stream sleeps between tail polls when it
/// has caught up with the primary's committed bytes.
const TAIL_POLL: Duration = Duration::from_millis(15);

/// How often a caught-up primary sends a wall-clock heartbeat down
/// each replication stream (the replica's `repl.lag.millis` source).
const HEARTBEAT_MS: u64 = 500;

/// A disconnected replica that has not heard from its primary for
/// this long stops reporting ready on `/readyz`.
pub const READY_STALE_MS: u64 = 10_000;

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Server tuning knobs. [`ServerConfig::from_env`] reads the
/// `REVKB_SERVER_*` variables and [`CACHE_CAP_ENV`]; the setters
/// override them (explicit wins).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent execution permits (default: the batch-pool thread
    /// count, i.e. `REVKB_THREADS` then available parallelism).
    pub threads: usize,
    /// Admission bound: requests admitted but not yet finished. Beyond
    /// it new work is answered `overloaded`. 0 rejects everything but
    /// the exempt commands (`ping`, `stats`, `shutdown`).
    pub queue: usize,
    /// Default per-request deadline in milliseconds when the request
    /// carries no `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Compile budget in milliseconds: a model-based compile that
    /// exceeds it falls back to delayed incorporation and the revise
    /// response says `"degraded":true`. `None` disables the budget; 0
    /// degrades every compile (deterministic, used by tests).
    pub compile_timeout_ms: Option<u64>,
    /// Capacity of the compiled-artifact LRU cache.
    pub cache_capacity: usize,
    /// GFUV possible-worlds budget (Theorem 3.1 says the world set can
    /// be exponential; the budget turns that into an error).
    pub worlds_budget: usize,
    /// Slow-request threshold in milliseconds: a request at least this
    /// slow end-to-end is recorded in the `slow_log` ring buffer.
    /// 0 records every request (useful in tests).
    pub slow_ms: u64,
    /// Capacity of the `slow_log` ring buffer (oldest entries are
    /// evicted first). 0 disables the log.
    pub slow_log_cap: usize,
    /// Durable data directory for the write-ahead revision log and
    /// artifact snapshots. `None` (the default) keeps the server fully
    /// in-memory, exactly as before persistence existed.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync discipline (only meaningful with a `data_dir`).
    pub wal_sync: SyncMode,
    /// Logged revises between artifact snapshots; 0 disables
    /// snapshots (replay then recompiles everything).
    pub snapshot_every: usize,
    /// `HOST:PORT` of a primary to replicate from. Set, this server
    /// is a **read-only replica**: it bootstraps from the primary's
    /// snapshot and log, applies shipped records through the same
    /// handlers recovery uses, serves `query`/`query_batch`/`stats`,
    /// and rejects writes with the stable `read_only` code.
    pub replica_of: Option<String>,
    /// `HOST:PORT` for the sidecar metrics listener (`/metrics`,
    /// `/stats.json`, `/series.json`, `/healthz`, `/readyz`). `None`
    /// (the default) serves no metrics plane.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: revkb_sat::default_threads(),
            queue: 64,
            default_deadline_ms: 30_000,
            compile_timeout_ms: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            worlds_budget: 4096,
            slow_ms: 1000,
            slow_log_cap: 32,
            data_dir: None,
            wal_sync: SyncMode::Always,
            snapshot_every: crate::wal::DEFAULT_SNAPSHOT_EVERY,
            replica_of: None,
            metrics_addr: None,
        }
    }
}

impl ServerConfig {
    /// Defaults overridden by any `REVKB_SERVER_*` / `REVKB_CACHE_CAP`
    /// variables present in the environment.
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Some(threads) = env_usize(THREADS_ENV) {
            config.threads = threads.max(1);
        }
        if let Some(queue) = env_usize(QUEUE_ENV) {
            config.queue = queue;
        }
        if let Some(ms) = env_u64(DEADLINE_ENV) {
            config.default_deadline_ms = ms;
        }
        if let Some(ms) = env_u64(COMPILE_TIMEOUT_ENV) {
            config.compile_timeout_ms = Some(ms);
        }
        if let Some(cap) = env_usize(CACHE_CAP_ENV) {
            config.cache_capacity = cap;
        }
        if let Some(budget) = env_usize(WORLDS_ENV) {
            config.worlds_budget = budget;
        }
        if let Some(ms) = env_u64(SLOW_MS_ENV) {
            config.slow_ms = ms;
        }
        if let Some(cap) = env_usize(SLOW_LOG_ENV) {
            config.slow_log_cap = cap;
        }
        if let Ok(dir) = std::env::var(crate::wal::DATA_DIR_ENV) {
            if !dir.trim().is_empty() {
                config.data_dir = Some(PathBuf::from(dir));
            }
        }
        if let Some(mode) = std::env::var(crate::wal::SYNC_ENV)
            .ok()
            .and_then(|s| SyncMode::parse(&s))
        {
            config.wal_sync = mode;
        }
        if let Some(every) = env_usize(crate::wal::SNAPSHOT_EVERY_ENV) {
            config.snapshot_every = every;
        }
        if let Ok(primary) = std::env::var(REPLICA_OF_ENV) {
            if !primary.trim().is_empty() {
                config.replica_of = Some(primary.trim().to_string());
            }
        }
        if let Ok(addr) = std::env::var(http::METRICS_ADDR_ENV) {
            if !addr.trim().is_empty() {
                config.metrics_addr = Some(addr.trim().to_string());
            }
        }
        config
    }

    /// Set the execution-permit count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the admission bound.
    pub fn with_queue(mut self, queue: usize) -> Self {
        self.queue = queue;
        self
    }

    /// Set the default deadline.
    pub fn with_default_deadline_ms(mut self, ms: u64) -> Self {
        self.default_deadline_ms = ms;
        self
    }

    /// Set (or clear) the compile budget.
    pub fn with_compile_timeout_ms(mut self, ms: Option<u64>) -> Self {
        self.compile_timeout_ms = ms;
        self
    }

    /// Set the artifact-cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Set the GFUV worlds budget.
    pub fn with_worlds_budget(mut self, budget: usize) -> Self {
        self.worlds_budget = budget;
        self
    }

    /// Set the slow-request threshold (ms). 0 logs every request.
    pub fn with_slow_ms(mut self, ms: u64) -> Self {
        self.slow_ms = ms;
        self
    }

    /// Set the slow-log ring-buffer capacity. 0 disables the log.
    pub fn with_slow_log_cap(mut self, cap: usize) -> Self {
        self.slow_log_cap = cap;
        self
    }

    /// Set (or clear) the durable data directory.
    pub fn with_data_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.data_dir = dir;
        self
    }

    /// Set the WAL fsync discipline.
    pub fn with_wal_sync(mut self, sync: SyncMode) -> Self {
        self.wal_sync = sync;
        self
    }

    /// Set the revises-between-snapshots interval (0 disables).
    pub fn with_snapshot_every(mut self, every: usize) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Set (or clear) the primary to replicate from. Set, the server
    /// becomes a read-only replica.
    pub fn with_replica_of(mut self, primary: Option<String>) -> Self {
        self.replica_of = primary;
        self
    }

    /// Set (or clear) the sidecar metrics listener address.
    pub fn with_metrics_addr(mut self, addr: Option<String>) -> Self {
        self.metrics_addr = addr;
        self
    }
}

/// A counting semaphore bounding concurrent execution.
struct ExecGate {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl ExecGate {
    fn new(permits: usize) -> Self {
        Self {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    /// Take a permit, waiting at most until `deadline`. False means
    /// the deadline expired first.
    fn acquire(&self, deadline: Instant) -> bool {
        let mut permits = self.permits.lock().expect("exec gate poisoned");
        loop {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            if *permits > 0 {
                *permits -= 1;
                return true;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(permits, deadline - now)
                .expect("exec gate poisoned");
            permits = guard;
        }
    }

    fn release(&self) {
        *self.permits.lock().expect("exec gate poisoned") += 1;
        self.cv.notify_one();
    }
}

struct PermitGuard<'a>(&'a ExecGate);

impl Drop for PermitGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Registers an admitted request in the in-flight table (the
/// `/debug/requests.json` source) and removes it on every exit path.
struct ActiveGuard<'a> {
    table: &'a Mutex<HashMap<u64, ActiveRequest>>,
    req: u64,
}

impl<'a> ActiveGuard<'a> {
    fn register(
        table: &'a Mutex<HashMap<u64, ActiveRequest>>,
        req: u64,
        entry: ActiveRequest,
    ) -> Self {
        table
            .lock()
            .expect("active table poisoned")
            .insert(req, entry);
        Self { table, req }
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.table
            .lock()
            .expect("active table poisoned")
            .remove(&self.req);
    }
}

/// Where one parsed request goes next, as decided on the event-loop
/// thread by [`Server::route_request`].
pub(crate) enum Routing {
    /// Answered on the spot (rejections, overload): ship the response.
    Done(Response),
    /// A control-plane command for the dedicated control worker.
    Control,
    /// Admitted to the data-plane worker pool; the in-flight slot is
    /// already claimed and [`Server::execute_admitted`] releases it.
    Admitted,
    /// A `replicate` handshake: hand the whole connection over to a
    /// blocking replication stream.
    Replicate,
}

/// One `slow_log` entry: a request whose end-to-end latency was at
/// least the configured threshold.
#[derive(Debug, Clone, Copy)]
struct SlowEntry {
    /// Server-assigned monotonic request id (matches the response
    /// envelope's `req` field and the span attribute).
    req: u64,
    /// Command tag (or `"bad_request"`).
    cmd: &'static str,
    /// End-to-end latency in microseconds.
    micros: u64,
    /// The request's trace id (0 for paths that never resolved one,
    /// e.g. unparseable lines).
    trace: u64,
    /// Time spent queued, microseconds: waiting in an event-loop
    /// worker channel plus waiting for an execution permit.
    queue_micros: u64,
    /// Time spent compiling, microseconds (0 for non-revise work).
    compile_micros: u64,
}

/// Per-request phase timings, accumulated on the executing thread as
/// the request moves through the pipeline and harvested by
/// [`Server::note_request`]. Thread-local because a request executes
/// synchronously on exactly one thread; `take()` both reads and resets
/// so one request's phases never bleed into the next.
#[derive(Debug, Clone, Copy, Default)]
struct Phases {
    queue_micros: u64,
    compile_micros: u64,
}

thread_local! {
    static PHASES: std::cell::Cell<Phases> = const {
        std::cell::Cell::new(Phases {
            queue_micros: 0,
            compile_micros: 0,
        })
    };
}

fn note_queue_micros(micros: u64) {
    PHASES.with(|p| {
        let mut phases = p.get();
        phases.queue_micros += micros;
        p.set(phases);
    });
}

fn note_compile_micros(micros: u64) {
    PHASES.with(|p| {
        let mut phases = p.get();
        phases.compile_micros += micros;
        p.set(phases);
    });
}

/// One entry in the in-flight table behind `/debug/requests.json`.
#[derive(Debug, Clone, Copy)]
struct ActiveRequest {
    cmd: &'static str,
    trace: u64,
    started: Instant,
}

struct Inner {
    config: ServerConfig,
    registry: Mutex<HashMap<String, Arc<Mutex<KbState>>>>,
    cache: Mutex<ArtifactCache>,
    counters: ServerCounters,
    in_flight: AtomicUsize,
    gate: ExecGate,
    shutdown: AtomicBool,
    /// Monotonic request-id source (first request is 1).
    seq: AtomicU64,
    /// Ring buffer of the last `slow_log_cap` slow requests.
    slow_log: Mutex<VecDeque<SlowEntry>>,
    /// Admitted requests currently executing, keyed by `req` — the
    /// in-flight table behind `/debug/requests.json`.
    active: Mutex<HashMap<u64, ActiveRequest>>,
    /// Construction instant, for `uptime_millis` / `revkb_uptime_seconds`.
    started: Instant,
    /// The write-ahead log, when a data directory is configured.
    /// Lock order: registry/KB lock → `wal` → `cache`.
    wal: Option<Mutex<Wal>>,
    /// True while boot replay or a replica re-applies logged
    /// operations (appends are suppressed: replayed operations are
    /// already in the log; formulas parse with no nesting cap).
    replaying: AtomicBool,
    /// Boot recovery summary, surfaced in `stats`.
    recovery: Mutex<Option<RecoveryReport>>,
    /// Replica-side replication state; `Some` iff `replica_of` is
    /// configured (the server is then read-only).
    repl: Option<Mutex<ReplState>>,
    /// Primary-side: replication streams currently being served.
    repl_streams: AtomicU64,
    /// Primary-side: replication streams served, lifetime.
    repl_streams_total: AtomicU64,
    /// Primary-side: raw WAL bytes shipped to replicas.
    repl_shipped_bytes: AtomicU64,
    /// Primary-side: replication handshakes accepted.
    repl_handshakes: AtomicU64,
    /// Primary-side: handshakes refused for divergence.
    repl_refusals: AtomicU64,
    /// Background time-series sampler feeding `/series.json` and the
    /// `series` section of `stats` (populated right after
    /// construction; `None` only mid-build).
    sampler: Mutex<Option<obs::Sampler>>,
    /// Data-plane connections currently open on the event loop
    /// (replication streams included until they end).
    connections: AtomicU64,
}

/// The revision service. Cheap to clone (shared state behind an
/// [`Arc`]); one instance serves any number of transports at once.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

/// Engine-or-protocol failure inside command execution.
type ExecError = (&'static str, String);

fn engine_err(e: Error) -> ExecError {
    (e.code(), e.to_string())
}

fn kind_tag(kind: KbKind) -> &'static str {
    match kind {
        KbKind::Unrevised => "unrevised",
        KbKind::ModelBased(op) => OpName::Model(op).tag(),
        KbKind::Gfuv => OpName::Gfuv.tag(),
        KbKind::Widtio => OpName::Widtio.tag(),
    }
}

fn num(n: u64) -> Json {
    Json::Int(n.into())
}

/// How a revise obtained its engine (the `cache` field of the
/// response).
enum CacheOutcome {
    Hit,
    Miss,
    /// Formula-based operators bypass the artifact cache (WIDTIO's
    /// output is already small; GFUV's worlds are per-KB state).
    Bypass,
    /// The compile budget expired; the new revision is pending.
    Degraded,
}

impl CacheOutcome {
    fn tag(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
            CacheOutcome::Degraded => "degraded",
        }
    }
}

impl Server {
    /// A server with the given configuration and an empty registry.
    /// Any configured `data_dir` is ignored — use [`Server::open`] for
    /// persistence (this constructor stays infallible for callers that
    /// never persist, which is every pre-existing test and transport).
    pub fn new(mut config: ServerConfig) -> Self {
        config.data_dir = None;
        Self::build(config, None, None)
    }

    /// A server with the given configuration, recovered from its
    /// `data_dir` if one is configured: the artifact snapshot pre-warms
    /// the cache, then the write-ahead log replays in commit order, so
    /// every surviving KB answers exactly as it did before the restart
    /// — and model-based revises replay as cache hits, not recompiles.
    ///
    /// Errors only on real I/O failure (unreadable/uncreatable data
    /// directory). Corrupt log tails and snapshots are tolerated by
    /// construction: the log truncates at the first bad record, a bad
    /// snapshot is ignored.
    pub fn open(config: ServerConfig) -> io::Result<Self> {
        let Some(dir) = config.data_dir.clone() else {
            return Ok(Self::build(config, None, None));
        };
        let boot = Instant::now();
        let recovered = Wal::open(&dir, config.wal_sync, config.snapshot_every)?;
        let last_record = recovered.last_record;
        let server = Self::build(config, Some(recovered.wal), last_record);
        let mut report = RecoveryReport {
            truncated_bytes: recovered.truncated_bytes,
            snapshot_artifacts: recovered.snapshot.len() as u64,
            ..RecoveryReport::default()
        };
        {
            let _span = obs::span_with("wal.replay", &[("records", recovered.ops.len() as u64)]);
            server.inner.replaying.store(true, Ordering::SeqCst);
            {
                let mut cache = server.inner.cache.lock().expect("cache poisoned");
                for (key, artifact) in recovered.snapshot {
                    cache.insert(key, artifact);
                }
                // Pre-warming is not demand traffic: boot must not
                // skew the hit/miss counters clients reason about.
                cache.hits = 0;
                cache.misses = 0;
                cache.evictions = 0;
            }
            for op in &recovered.ops {
                match server.replay_op(op) {
                    Ok(()) => report.replayed += 1,
                    Err(message) => {
                        report.replay_errors += 1;
                        obs::warn("wal", None, || {
                            format!("revkb-server: wal replay skipped a record: {message}")
                        });
                    }
                }
            }
            server.inner.replaying.store(false, Ordering::SeqCst);
        }
        report.boot_micros = u64::try_from(boot.elapsed().as_micros()).unwrap_or(u64::MAX);
        *server.inner.recovery.lock().expect("recovery poisoned") = Some(report);
        Ok(server)
    }

    fn build(config: ServerConfig, wal: Option<Wal>, last_record: Option<(u32, u32)>) -> Self {
        let cache = ArtifactCache::new(config.cache_capacity);
        // A replica resumes from whatever its own log already holds:
        // the log is byte-for-byte a prefix of the primary's, so the
        // local length *is* the resume offset.
        let repl = config.replica_of.clone().map(|primary| {
            let offset = wal.as_ref().map_or(LOG_MAGIC.len() as u64, |wal| wal.bytes);
            Mutex::new(ReplState::new(primary, offset, last_record))
        });
        let server = Self {
            inner: Arc::new(Inner {
                gate: ExecGate::new(config.threads.max(1)),
                config,
                registry: Mutex::new(HashMap::new()),
                cache: Mutex::new(cache),
                counters: ServerCounters::default(),
                in_flight: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                seq: AtomicU64::new(0),
                slow_log: Mutex::new(VecDeque::new()),
                active: Mutex::new(HashMap::new()),
                started: Instant::now(),
                wal: wal.map(Mutex::new),
                replaying: AtomicBool::new(false),
                recovery: Mutex::new(None),
                repl,
                repl_streams: AtomicU64::new(0),
                repl_streams_total: AtomicU64::new(0),
                repl_shipped_bytes: AtomicU64::new(0),
                repl_handshakes: AtomicU64::new(0),
                repl_refusals: AtomicU64::new(0),
                sampler: Mutex::new(None),
                connections: AtomicU64::new(0),
            }),
        };
        server.start_sampler();
        server
    }

    /// Spawn the background time-series sampler. The source closure
    /// holds only a `Weak` on the server state (a strong reference
    /// would keep `Inner` alive forever) and returns `None` — stopping
    /// the thread — once the server is dropped or shutting down.
    fn start_sampler(&self) {
        let weak = Arc::downgrade(&self.inner);
        let sampler = obs::Sampler::start(
            obs::sample_interval(),
            obs::DEFAULT_SERIES_CAPACITY,
            move || {
                let inner = weak.upgrade()?;
                if inner.shutdown.load(Ordering::SeqCst) {
                    return None;
                }
                Some(sample_observations(&inner))
            },
        );
        *self.inner.sampler.lock().expect("sampler poisoned") = Some(sampler);
    }

    /// Re-apply one logged operation through the same request path the
    /// data plane uses ([`Server::process_request`] in replay mode) —
    /// so replay enforces exactly the engine rules the original commit
    /// did, while skipping the gating (admission, deadlines, replica
    /// read-only) those operations already passed once.
    fn replay_op(&self, op: &WalOp) -> Result<(), String> {
        let (kb, cmd) = match op {
            WalOp::Load { kb, t } => (
                kb,
                Command::Load {
                    kb: kb.clone(),
                    t: t.clone(),
                },
            ),
            WalOp::Revise { kb, op, p, backend } => {
                let op_name = OpName::from_tag(op).ok_or_else(|| format!("unknown op {op:?}"))?;
                let be = Backend::from_tag(backend)
                    .ok_or_else(|| format!("unknown backend {backend:?}"))?;
                (
                    kb,
                    Command::Revise {
                        kb: kb.clone(),
                        op: op_name,
                        p: p.clone(),
                        backend: be,
                    },
                )
            }
            WalOp::Drop { kb } => (kb, Command::Drop { kb: kb.clone() }),
        };
        let request = Request {
            id: None,
            deadline_ms: None,
            version: None,
            trace: None,
            cmd,
        };
        let tag = request.cmd.tag();
        match self
            .process_request(&request, Instant::now(), 0, obs::new_trace_id(), true)
            .result
        {
            Ok(_) => Ok(()),
            Err((code, m)) => Err(format!("{tag} {kb:?}: {code}: {m}")),
        }
    }

    /// Log one committed mutation. Called with the relevant KB or
    /// registry lock held, so log order matches apply order; no-op
    /// without a data directory and during boot replay. An append
    /// failure is counted and reported on stderr but does not fail the
    /// request — the operation already succeeded in memory, and
    /// refusing to answer would not make the disk healthier.
    fn wal_append(&self, op: WalOp, trace: u64) {
        /// Per-append latency in microseconds (lock wait, write and
        /// any fsync): the write-ahead log's layer timing.
        static APPEND_MICROS: obs::Histogram = obs::Histogram::new("wal.append.micros");
        let Some(wal) = &self.inner.wal else {
            return;
        };
        if self.inner.replaying.load(Ordering::SeqCst) {
            return;
        }
        let start = Instant::now();
        let mut wal = wal.lock().expect("wal poisoned");
        // The record lands at the current end of the log; stamping the
        // span with that offset (and the trace id) makes a primary's
        // append joinable with the replica's replay of the same record.
        let _span = obs::span_with(
            "wal.append",
            &[("wal_offset", wal.bytes), (obs::TRACE_ATTR, trace)],
        );
        if let Err(e) = wal.append(&op) {
            wal.append_errors += 1;
            obs::error("wal", Some(trace), || {
                format!("revkb-server: wal append failed: {e}")
            });
            return;
        }
        APPEND_MICROS.record(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        if wal.snapshot_due() {
            let _span = obs::span("wal.snapshot");
            let cache = self.inner.cache.lock().expect("cache poisoned");
            if let Err(e) = wal.write_snapshot(cache.entries()) {
                obs::error("wal", Some(trace), || {
                    format!("revkb-server: wal snapshot failed: {e}")
                });
            }
        }
    }

    /// Has a `shutdown` command been accepted?
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Ask every serving and replication loop to drain, exactly as an
    /// accepted `shutdown` command would. Embedders (and the binary,
    /// after a stdio session hits EOF) use this to stop the
    /// replication thread without a wire round trip.
    pub fn begin_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }

    /// Process one request line. `None` means the line was blank
    /// (keep-alive noise); otherwise exactly one response line (no
    /// trailing newline) is returned, whatever happened.
    pub fn handle_line(&self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let started = Instant::now();
        match parse_request(line) {
            Ok(request) => Some(self.execute_from(&request, started).render()),
            Err(e) => Some(self.reject_line(codes::BAD_REQUEST, &e, started, None)),
        }
    }

    /// The transport-agnostic service entry point: run one parsed
    /// request through the full pipeline — version check, control
    /// plane, gating, admission, deadline-bounded execution — and
    /// return the response envelope. Every transport (stdio, the event
    /// loop's NDJSON lines, the HTTP gateway) and the replay paths
    /// funnel through the same machinery this calls.
    pub fn execute(&self, request: &Request) -> Response {
        self.execute_from(request, Instant::now())
    }

    /// [`Server::execute`] with an explicit arrival instant, so
    /// transports that buffered the request charge queueing time
    /// against the deadline too.
    fn execute_from(&self, request: &Request, started: Instant) -> Response {
        let req = self.next_req();
        let trace = request.trace.unwrap_or_else(obs::new_trace_id);
        let response = {
            let _span = obs::span_with("server.request", &[("req", req), (obs::TRACE_ATTR, trace)]);
            self.process_request(request, started, req, trace, false)
        };
        self.note_request(request.cmd.tag(), req, trace, started);
        response
    }

    /// Answer a line that is no request with `code` (`bad_request`
    /// for an unparseable line, `line_too_long` for an oversized one).
    /// Shares the accounting path with real requests (a `req` id, the
    /// error counter, latency and slow-log bookkeeping under
    /// `bad_request`). `trace` is the transport-supplied trace id,
    /// when one survived the parse failure (e.g. a valid `traceparent`
    /// header on a bad body); a trace salvaged from the body itself
    /// wins over it, matching the body-beats-header precedence of
    /// well-formed requests.
    pub(crate) fn reject_line(
        &self,
        code: &str,
        err: &RequestError,
        started: Instant,
        trace: Option<u64>,
    ) -> String {
        let req = self.next_req();
        let trace = err.trace.or(trace).unwrap_or_else(obs::new_trace_id);
        let response = {
            let _span = obs::span_with("server.request", &[("req", req), (obs::TRACE_ATTR, trace)]);
            self.inner.counters.error();
            rejection_response(code, err, req, trace)
        };
        self.note_request("bad_request", req, trace, started);
        response
    }

    /// Claim the next monotonic request id (first request is 1).
    pub(crate) fn next_req(&self) -> u64 {
        self.inner.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Post-response accounting: the per-kind latency histogram and,
    /// past the slow threshold, the `slow_log` ring buffer. Harvests
    /// (and resets) the thread-local phase timings, so it must run on
    /// the thread that executed the request.
    pub(crate) fn note_request(&self, kind: &'static str, req: u64, trace: u64, started: Instant) {
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let phases = PHASES.with(std::cell::Cell::take);
        self.inner.counters.request(kind, micros);
        let cap = self.inner.config.slow_log_cap;
        if cap > 0 && micros >= self.inner.config.slow_ms.saturating_mul(1000) {
            let mut log = self.inner.slow_log.lock().expect("slow log poisoned");
            while log.len() >= cap {
                log.pop_front();
            }
            log.push_back(SlowEntry {
                req,
                cmd: kind,
                micros,
                trace,
                queue_micros: phases.queue_micros,
                compile_micros: phases.compile_micros,
            });
        }
    }

    /// The request pipeline behind [`Server::execute`]. In `replay`
    /// mode (boot replay, replica apply) the gating stages are skipped
    /// — the operation already passed them when it first committed —
    /// and no counters move.
    fn process_request(
        &self,
        request: &Request,
        started: Instant,
        req: u64,
        trace: u64,
        replay: bool,
    ) -> Response {
        if let Some(response) = self.version_rejection(request, req, trace, replay) {
            return response;
        }
        if replay {
            let result = self.dispatch(&request.cmd, req, trace);
            // Replay never reaches note_request; drop any phase
            // timings so they cannot bleed into the next request
            // accounted on this thread.
            let _ = PHASES.with(std::cell::Cell::take);
            return match result {
                Ok(result) => Response::ok(request.id.clone(), req, trace, result),
                Err((code, message)) => {
                    Response::err(request.id.clone(), req, trace, code, message)
                }
            };
        }
        // Control-plane commands bypass admission: they must answer
        // even (especially) when the server is saturated.
        if let Some(response) = self.control_response(request, req, trace) {
            return response;
        }
        if let Some(response) = self.gate_rejection(request, req, trace) {
            return response;
        }
        if !self.try_admit() {
            return self.overloaded_response(request, req, trace);
        }
        self.run_admitted(request, started, req, trace)
    }

    /// Reject a request that pins a protocol version outside the
    /// supported range.
    fn version_rejection(
        &self,
        request: &Request,
        req: u64,
        trace: u64,
        replay: bool,
    ) -> Option<Response> {
        let v = request.version?;
        if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&v) {
            return None;
        }
        if !replay {
            self.inner.counters.error();
        }
        Some(Response::err(
            request.id.clone(),
            req,
            trace,
            codes::BAD_REQUEST,
            format!(
                "unsupported protocol version {v} \
                 (supported {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
            ),
        ))
    }

    /// Answer a control-plane command (`None` for data-plane
    /// commands). Control commands bypass admission and deadlines so
    /// they answer even when the server is saturated; the event loop
    /// additionally runs them on a dedicated worker so a slow `stats`
    /// never blocks readiness polling.
    pub(crate) fn control_response(
        &self,
        request: &Request,
        req: u64,
        trace: u64,
    ) -> Option<Response> {
        match request.cmd {
            Command::Ping => Some(Response::ok(
                request.id.clone(),
                req,
                trace,
                Json::obj([("pong", Json::Bool(true))]),
            )),
            Command::Hello => Some(Response::ok(
                request.id.clone(),
                req,
                trace,
                self.hello_json(),
            )),
            Command::Stats => Some(Response::ok(
                request.id.clone(),
                req,
                trace,
                self.stats_json(),
            )),
            Command::Shutdown => {
                self.inner.shutdown.store(true, Ordering::SeqCst);
                Some(Response::ok(
                    request.id.clone(),
                    req,
                    trace,
                    Json::obj([("shutting_down", Json::Bool(true))]),
                ))
            }
            Command::Replicate { .. } => {
                // The TCP loops intercept `replicate` before line
                // dispatch and switch the connection to a raw record
                // stream; reaching here means a transport that cannot
                // carry one (stdio, HTTP).
                self.inner.counters.error();
                Some(Response::err(
                    request.id.clone(),
                    req,
                    trace,
                    codes::UNSUPPORTED,
                    "replicate requires a dedicated TCP connection",
                ))
            }
            _ => None,
        }
    }

    /// The `hello` negotiation payload: who the server is and which
    /// protocol versions it accepts.
    fn hello_json(&self) -> Json {
        Json::obj([
            ("server", Json::str("revkb-server")),
            ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            ("protocol", num(PROTOCOL_VERSION)),
            ("min_protocol", num(MIN_PROTOCOL_VERSION)),
            (
                "features",
                Json::Arr(
                    ["pipelining", "http", "wal", "replication"]
                        .iter()
                        .map(|f| Json::str(*f))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reject a data-plane request the server's current state refuses
    /// to serve: shutting down, or a replica that is read-only or has
    /// diverged.
    fn gate_rejection(&self, request: &Request, req: u64, trace: u64) -> Option<Response> {
        if self.is_shutting_down() {
            self.inner.counters.error();
            return Some(Response::err(
                request.id.clone(),
                req,
                trace,
                codes::SHUTTING_DOWN,
                "server is shutting down",
            ));
        }
        // A replica serves reads only — and once its divergence
        // detector has fired, not even those: answers would come from
        // a history that is not the primary's.
        if let Some(repl) = &self.inner.repl {
            let diverged = repl.lock().expect("repl poisoned").diverged;
            if diverged {
                self.inner.counters.error();
                return Some(Response::err(
                    request.id.clone(),
                    req,
                    trace,
                    codes::DIVERGED,
                    "replica log diverged from its primary; refusing to serve",
                ));
            }
            if matches!(
                request.cmd,
                Command::Load { .. } | Command::Revise { .. } | Command::Drop { .. }
            ) {
                self.inner.counters.error();
                return Some(Response::err(
                    request.id.clone(),
                    req,
                    trace,
                    codes::READ_ONLY,
                    "this server is a read-only replica; send writes to the primary",
                ));
            }
        }
        None
    }

    /// Admission control: claim an in-flight slot if one is free. A
    /// `true` return must be paired with [`Server::run_admitted`],
    /// which releases the slot.
    fn try_admit(&self) -> bool {
        self.inner
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.inner.config.queue).then_some(n + 1)
            })
            .is_ok()
    }

    /// The `overloaded` rejection for a request [`Server::try_admit`]
    /// turned away.
    fn overloaded_response(&self, request: &Request, req: u64, trace: u64) -> Response {
        self.inner.counters.overloaded();
        Response::err(
            request.id.clone(),
            req,
            trace,
            codes::OVERLOADED,
            format!(
                "{} requests already in flight (bound {}); retry later",
                self.inner.in_flight.load(Ordering::Relaxed),
                self.inner.config.queue
            ),
        )
    }

    /// Execute an admitted request: wait (deadline-bounded) for an
    /// execution permit, dispatch, and discard answers that arrived
    /// too late. Releases the in-flight slot claimed by
    /// [`Server::try_admit`] on every path out.
    fn run_admitted(&self, request: &Request, started: Instant, req: u64, trace: u64) -> Response {
        let _in_flight = InFlightGuard(&self.inner.in_flight);
        let _active = ActiveGuard::register(
            &self.inner.active,
            req,
            ActiveRequest {
                cmd: request.cmd.tag(),
                trace,
                started,
            },
        );

        let deadline_ms = request
            .deadline_ms
            .unwrap_or(self.inner.config.default_deadline_ms);
        let deadline = started + Duration::from_millis(deadline_ms);
        let queue_start = Instant::now();
        if !self.inner.gate.acquire(deadline) {
            self.inner.counters.timeout();
            return Response::err(
                request.id.clone(),
                req,
                trace,
                codes::TIMEOUT,
                format!("deadline of {deadline_ms} ms expired before execution started"),
            );
        }
        note_queue_micros(u64::try_from(queue_start.elapsed().as_micros()).unwrap_or(u64::MAX));
        let _permit = PermitGuard(&self.inner.gate);
        let result = self.dispatch(&request.cmd, req, trace);
        if Instant::now() > deadline {
            // The answer arrived after the client's deadline: discard
            // it so a late answer cannot masquerade as a fast one.
            self.inner.counters.timeout();
            return Response::err(
                request.id.clone(),
                req,
                trace,
                codes::TIMEOUT,
                format!("deadline of {deadline_ms} ms expired during execution"),
            );
        }
        match result {
            Ok(result) => Response::ok(request.id.clone(), req, trace, result),
            Err((code, message)) => {
                self.inner.counters.error();
                Response::err(request.id.clone(), req, trace, code, message)
            }
        }
    }

    fn dispatch(&self, cmd: &Command, req: u64, trace: u64) -> Result<Json, ExecError> {
        let span_name = match cmd {
            Command::Load { .. } => "server.cmd.load",
            Command::Revise { .. } => "server.cmd.revise",
            Command::Query { .. } => "server.cmd.query",
            Command::QueryBatch { .. } => "server.cmd.query_batch",
            Command::List => "server.cmd.list",
            Command::Drop { .. } => "server.cmd.drop",
            Command::Ping
            | Command::Hello
            | Command::Stats
            | Command::Shutdown
            | Command::Replicate { .. } => "server.cmd.control",
        };
        let _span = obs::span_with(span_name, &[("req", req), (obs::TRACE_ATTR, trace)]);
        match cmd {
            Command::Load { kb, t } => self.cmd_load(kb, t, trace),
            Command::Revise { kb, op, p, backend } => {
                self.cmd_revise(kb, *op, p, *backend, req, trace)
            }
            Command::Query { kb, q } => self.cmd_query(kb, q),
            Command::QueryBatch { kb, qs } => self.cmd_query_batch(kb, qs),
            Command::List => self.cmd_list(),
            Command::Drop { kb } => self.cmd_drop(kb, trace),
            // Handled before admission.
            Command::Ping
            | Command::Hello
            | Command::Stats
            | Command::Shutdown
            | Command::Replicate { .. } => {
                unreachable!("exempt command")
            }
        }
    }

    /// Classify one request for the event loop: an immediate answer
    /// (version/gate rejections, overload), a control command for the
    /// control worker, an admitted data-plane command for the worker
    /// pool, or a `replicate` handoff (line transport only —
    /// `allow_replicate` is false for HTTP, which cannot carry a raw
    /// record stream).
    ///
    /// Runs on the loop thread, so admission happens in arrival order:
    /// a flood of connections sees `overloaded` in the order its
    /// requests arrived.
    pub(crate) fn route_request(
        &self,
        request: &Request,
        req: u64,
        trace: u64,
        allow_replicate: bool,
    ) -> Routing {
        if let Some(response) = self.version_rejection(request, req, trace, false) {
            return Routing::Done(response);
        }
        if matches!(request.cmd, Command::Replicate { .. }) && allow_replicate {
            return Routing::Replicate;
        }
        if matches!(
            request.cmd,
            Command::Ping
                | Command::Hello
                | Command::Stats
                | Command::Shutdown
                | Command::Replicate { .. }
        ) {
            return Routing::Control;
        }
        if let Some(response) = self.gate_rejection(request, req, trace) {
            return Routing::Done(response);
        }
        if !self.try_admit() {
            return Routing::Done(self.overloaded_response(request, req, trace));
        }
        Routing::Admitted
    }

    /// Run a control command routed by [`Server::route_request`]
    /// (event-loop control worker). The wait since `dispatched`, when
    /// the loop thread queued the job, is charged as queue time.
    pub(crate) fn execute_control(
        &self,
        request: &Request,
        started: Instant,
        dispatched: Instant,
        req: u64,
    ) -> Response {
        note_queue_micros(u64::try_from(dispatched.elapsed().as_micros()).unwrap_or(u64::MAX));
        let trace = request.trace.unwrap_or_else(obs::new_trace_id);
        let response = {
            let _span = obs::span_with("server.request", &[("req", req), (obs::TRACE_ATTR, trace)]);
            self.control_response(request, req, trace)
                .expect("routed as control")
        };
        self.note_request(request.cmd.tag(), req, trace, started);
        response
    }

    /// Run an admitted data-plane command routed by
    /// [`Server::route_request`] (event-loop worker pool). The wait
    /// since `dispatched`, when the loop thread queued the job, is
    /// charged as queue time.
    pub(crate) fn execute_admitted(
        &self,
        request: &Request,
        started: Instant,
        dispatched: Instant,
        req: u64,
    ) -> Response {
        note_queue_micros(u64::try_from(dispatched.elapsed().as_micros()).unwrap_or(u64::MAX));
        let trace = request.trace.unwrap_or_else(obs::new_trace_id);
        let response = {
            let _span = obs::span_with("server.request", &[("req", req), (obs::TRACE_ATTR, trace)]);
            self.run_admitted(request, started, req, trace)
        };
        self.note_request(request.cmd.tag(), req, trace, started);
        response
    }

    fn kb_handle(&self, name: &str) -> Result<Arc<Mutex<KbState>>, ExecError> {
        self.inner
            .registry
            .lock()
            .expect("registry poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| {
                (
                    codes::UNKNOWN_KB,
                    format!("no knowledge base named {name:?}"),
                )
            })
    }

    /// The nesting cap for the formulas of a `load` or `revise`. A
    /// logged one being replayed (boot, replica apply) parses with no
    /// cap: it committed before the cap existed or under it, and
    /// refusing it now would silently drop its knowledge base on
    /// restart or on a replica.
    fn write_depth_cap(&self) -> usize {
        if self.inner.replaying.load(Ordering::SeqCst) {
            usize::MAX
        } else {
            MAX_DEPTH
        }
    }

    fn cmd_load(&self, name: &str, t: &str, trace: u64) -> Result<Json, ExecError> {
        let mut sig = Signature::new();
        let mut theory = Vec::new();
        for segment in t.split(';') {
            let segment = segment.trim();
            if segment.is_empty() {
                continue;
            }
            let f = parse_nested(segment, &mut sig, self.write_depth_cap())
                .map_err(|e| engine_err(e.into()))?;
            theory.push(f);
        }
        let formulas = theory.len();
        let letters = sig.len();
        let state = KbState::new(name.to_string(), sig, theory);
        {
            let mut registry = self.inner.registry.lock().expect("registry poisoned");
            registry.insert(name.to_string(), Arc::new(Mutex::new(state)));
            // Logged under the registry lock so log order is apply order.
            self.wal_append(
                WalOp::Load {
                    kb: name.to_string(),
                    t: t.to_string(),
                },
                trace,
            );
        }
        Ok(Json::obj([
            ("kb", Json::str(name)),
            ("formulas", num(formulas as u64)),
            ("letters", num(letters as u64)),
        ]))
    }

    fn cmd_revise(
        &self,
        name: &str,
        op: OpName,
        p_text: &str,
        backend: Backend,
        req: u64,
        trace: u64,
    ) -> Result<Json, ExecError> {
        let handle = self.kb_handle(name)?;
        let mut kb = handle.lock().expect("kb poisoned");
        let p = parse_nested(p_text, &mut kb.sig, self.write_depth_cap())
            .map_err(|e| engine_err(e.into()))?;
        let p_nodes = formula_size(&p);
        #[allow(clippy::type_complexity)]
        let (engine, kind, outcome, compile_micros): (
            Box<dyn Engine + Send>,
            KbKind,
            CacheOutcome,
            Option<u64>,
        ) = match (kb.kind, op) {
            (KbKind::Gfuv, _) => {
                return Err((
                    codes::UNSUPPORTED,
                    "a GFUV base cannot be revised again: the possible-worlds \
                         form has no iterated construction"
                        .to_string(),
                ));
            }
            (KbKind::Unrevised | KbKind::ModelBased(_), OpName::Model(m)) => {
                if let KbKind::ModelBased(prev) = kb.kind {
                    if prev != m {
                        return Err(operator_mismatch(prev, op));
                    }
                }
                let mut ps = kb.revisions.clone();
                ps.push(p.clone());
                let (chain, outcome, micros) =
                    self.model_based_engine(&kb, m, ps, backend, req, trace)?;
                (Box::new(chain), KbKind::ModelBased(m), outcome, micros)
            }
            (KbKind::Unrevised, OpName::Gfuv) => {
                let theory = Theory::new(kb.theory.iter().cloned());
                let compile_start = Instant::now();
                let engine =
                    GfuvEngine::compile(theory, p.clone(), self.inner.config.worlds_budget)
                        .map_err(|e| engine_err(e.into()))?;
                let micros = u64::try_from(compile_start.elapsed().as_micros()).unwrap_or(u64::MAX);
                (
                    Box::new(engine),
                    KbKind::Gfuv,
                    CacheOutcome::Bypass,
                    Some(micros),
                )
            }
            (KbKind::Unrevised | KbKind::Widtio, OpName::Widtio) => {
                // Iterated WIDTIO: the sub-theory the KB's last step
                // kept is the theory revised now.
                let theory = kb
                    .engine
                    .kept_theory()
                    .cloned()
                    .unwrap_or_else(|| Theory::new(kb.theory.iter().cloned()));
                let compile_start = Instant::now();
                let engine = WidtioEngine::compile(&theory, &p);
                let micros = u64::try_from(compile_start.elapsed().as_micros()).unwrap_or(u64::MAX);
                (
                    Box::new(engine),
                    KbKind::Widtio,
                    CacheOutcome::Bypass,
                    Some(micros),
                )
            }
            (prev_kind, _) => {
                let prev = match prev_kind {
                    KbKind::ModelBased(prev) => prev,
                    _ => {
                        return Err((
                            codes::OPERATOR_MISMATCH,
                            format!(
                                "KB was revised with {:?} and cannot switch to {:?}",
                                kind_tag(prev_kind),
                                op.tag()
                            ),
                        ));
                    }
                };
                return Err(operator_mismatch(prev, op));
            }
        };
        kb.revisions.push(p);
        kb.kind = kind;
        kb.degraded = matches!(outcome, CacheOutcome::Degraded);
        kb.engine = engine;
        kb.profile.note_revise(op.tag(), p_nodes);
        match outcome {
            CacheOutcome::Hit => kb.profile.cache_hits += 1,
            CacheOutcome::Miss => kb.profile.cache_misses += 1,
            CacheOutcome::Bypass | CacheOutcome::Degraded => {}
        }
        if let Some(micros) = compile_micros {
            kb.profile.note_compile(op.tag(), micros);
            note_compile_micros(micros);
        }
        // Logged under the KB lock, after the revise took effect: a
        // record in the log is a revise the client was (about to be)
        // told succeeded, never a partially applied one.
        self.wal_append(
            WalOp::Revise {
                kb: name.to_string(),
                op: op.tag().to_string(),
                p: p_text.to_string(),
                backend: backend.tag().to_string(),
            },
            trace,
        );
        Ok(Json::obj([
            ("kb", Json::str(name)),
            ("op", Json::str(op.tag())),
            ("backend", Json::str(backend.tag())),
            ("cache", Json::str(outcome.tag())),
            ("degraded", Json::Bool(kb.degraded)),
            ("revisions", num(kb.revisions.len() as u64)),
            (
                "compiled_size",
                kb.engine
                    .compiled_size()
                    .map_or(Json::Null, |s| num(s as u64)),
            ),
            ("engine", Json::str(kb.engine.describe())),
        ]))
    }

    /// Compile (or fetch from cache) the chain `T * P¹ * … * Pᵐ` of a
    /// model-based revise. The third element is the compile latency in
    /// microseconds (`None` on a cache hit or a degraded fallback,
    /// where no compile finished).
    ///
    /// A hit takes the chain up from the cached artifact. A miss
    /// revises the KB's chain by `Pᵐ` and applies it, by the route
    /// [`RevisionChain::apply`] picks, under the compile budget.
    fn model_based_engine(
        &self,
        kb: &KbState,
        op: ModelBasedOp,
        mut ps: Vec<Formula>,
        backend: Backend,
        req: u64,
        trace: u64,
    ) -> Result<(RevisionChain, CacheOutcome, Option<u64>), ExecError> {
        let key = cache_key(OpName::Model(op), backend, &kb.theory, &ps);
        let hit = self.inner.cache.lock().expect("cache poisoned").get(&key);
        if let Some(artifact) = hit {
            let rep = CompactRep::new(artifact.formula, artifact.base, artifact.logical);
            let chain = RevisionChain::with_representation(op, backend, kb.t(), ps, rep);
            return Ok((chain, CacheOutcome::Hit, None));
        }
        let mut chain = match kb.engine.revision_chain() {
            Some(chain) => chain.clone(),
            None => RevisionChain::delayed(op, kb.t()),
        };
        chain.revise(ps.pop().expect("a revise adds a step"), backend);
        let compile_start = Instant::now();
        let chain = {
            let _span = obs::span_with("server.compile", &[("req", req), (obs::TRACE_ATTR, trace)]);
            self.compile_budgeted(chain)
        }
        .map_err(|e| engine_err(e.into()))?;
        if !chain.pending().is_empty() {
            // Compile budget expired: the revise itself is then O(1)
            // and the compilation cost moves to the first query.
            self.inner.counters.degraded();
            return Ok((chain, CacheOutcome::Degraded, None));
        }
        let micros = u64::try_from(compile_start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let rep = chain.representation();
        let artifact = Artifact {
            formula: rep.formula.clone(),
            base: rep.base.clone(),
            logical: rep.logical,
        };
        self.inner
            .cache
            .lock()
            .expect("cache poisoned")
            .insert(key, artifact);
        Ok((chain, CacheOutcome::Miss, Some(micros)))
    }

    /// Apply `chain`'s pending revisions under the configured budget.
    /// When the budget expires the chain comes back as it was given,
    /// its revisions still pending.
    fn compile_budgeted(&self, mut chain: RevisionChain) -> Result<RevisionChain, CompileError> {
        match self.inner.config.compile_timeout_ms {
            None => chain.apply().map(|()| chain),
            // A zero budget degrades unconditionally — and skips
            // spawning a compile thread that nobody would wait for.
            Some(0) => Ok(chain),
            Some(ms) => {
                let (tx, rx) = std::sync::mpsc::channel();
                let mut compiling = chain.clone();
                std::thread::spawn(move || {
                    // The receiver may be gone if the budget expired;
                    // the finished chain is then simply dropped.
                    let _ = tx.send(compiling.apply().map(|()| compiling));
                });
                rx.recv_timeout(Duration::from_millis(ms))
                    .unwrap_or(Ok(chain))
            }
        }
    }

    fn cmd_query(&self, name: &str, q_text: &str) -> Result<Json, ExecError> {
        let handle = self.kb_handle(name)?;
        let mut kb = handle.lock().expect("kb poisoned");
        let q = parse_formula(q_text, &mut kb.sig).map_err(|e| engine_err(e.into()))?;
        let answer = kb.engine.try_entails(&q).map_err(engine_err)?;
        kb.queries += 1;
        let nodes = formula_size(&q);
        kb.profile.note_queries(1, nodes, nodes);
        Ok(Json::obj([
            ("kb", Json::str(name)),
            ("entails", Json::Bool(answer)),
        ]))
    }

    fn cmd_query_batch(&self, name: &str, q_texts: &[String]) -> Result<Json, ExecError> {
        let handle = self.kb_handle(name)?;
        let mut kb = handle.lock().expect("kb poisoned");
        let mut queries = Vec::with_capacity(q_texts.len());
        for q_text in q_texts {
            queries.push(parse_formula(q_text, &mut kb.sig).map_err(|e| engine_err(e.into()))?);
        }
        let answers = kb.engine.par_entails_batch(&queries).map_err(engine_err)?;
        kb.queries += answers.len() as u64;
        let sizes = queries.iter().map(formula_size);
        kb.profile.note_queries(
            answers.len() as u64,
            sizes.clone().sum(),
            sizes.max().unwrap_or(0),
        );
        Ok(Json::obj([
            ("kb", Json::str(name)),
            (
                "answers",
                Json::Arr(answers.into_iter().map(Json::Bool).collect()),
            ),
        ]))
    }

    /// Map `f` over the registered KBs in name order, each under its
    /// own lock. The registry lock is released before the first KB
    /// lock is taken, so a slow KB never blocks loads or drops.
    fn map_kbs<T>(&self, mut f: impl FnMut(&str, &KbState) -> T) -> Vec<T> {
        let mut handles: Vec<(String, Arc<Mutex<KbState>>)> = self
            .inner
            .registry
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, handle)| (name.clone(), Arc::clone(handle)))
            .collect();
        handles.sort_by(|a, b| a.0.cmp(&b.0));
        handles
            .into_iter()
            .map(|(name, handle)| f(&name, &handle.lock().expect("kb poisoned")))
            .collect()
    }

    fn cmd_list(&self) -> Result<Json, ExecError> {
        let kbs = self.map_kbs(|name, kb| {
            Json::obj([
                ("name", Json::str(name)),
                ("kind", Json::str(kind_tag(kb.kind))),
                ("revisions", num(kb.revisions.len() as u64)),
                ("queries", num(kb.queries)),
                ("degraded", Json::Bool(kb.degraded)),
                (
                    "compiled_size",
                    kb.engine
                        .compiled_size()
                        .map_or(Json::Null, |s| num(s as u64)),
                ),
                ("engine", Json::str(kb.engine.describe())),
            ])
        });
        Ok(Json::obj([("kbs", Json::Arr(kbs))]))
    }

    fn cmd_drop(&self, name: &str, trace: u64) -> Result<Json, ExecError> {
        let removed = {
            let mut registry = self.inner.registry.lock().expect("registry poisoned");
            let removed = registry.remove(name).is_some();
            if removed {
                self.wal_append(
                    WalOp::Drop {
                        kb: name.to_string(),
                    },
                    trace,
                );
            }
            removed
        };
        if !removed {
            return Err((
                codes::UNKNOWN_KB,
                format!("no knowledge base named {name:?}"),
            ));
        }
        Ok(Json::obj([
            ("kb", Json::str(name)),
            ("dropped", Json::Bool(true)),
        ]))
    }

    /// The boot recovery summary, when this server was opened from a
    /// data directory (also surfaced in the `stats` response).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        *self.inner.recovery.lock().expect("recovery poisoned")
    }

    /// A snapshot of this replica's replication state (`None` on a
    /// primary). Benchmarks and tests poll it for catch-up:
    /// `lag_bytes == 0 && connected` means the replica has applied
    /// every record the primary had committed at the last poll.
    pub fn replication_status(&self) -> Option<ReplStatus> {
        self.inner
            .repl
            .as_ref()
            .map(|repl| ReplStatus::from(&*repl.lock().expect("repl poisoned")))
    }

    /// Committed log length in bytes (`None` without a data dir).
    /// Comparing a replica's `replication_status().offset` against
    /// the primary's committed bytes decides convergence.
    pub fn wal_committed_bytes(&self) -> Option<u64> {
        self.inner
            .wal
            .as_ref()
            .map(|wal| wal.lock().expect("wal poisoned").bytes)
    }

    // ------------------------------------------------ replication: primary

    /// Serve one `replicate` request: validate the resume position
    /// against this primary's log (the divergence check), answer the
    /// JSON handshake, then switch the connection to a raw stream of
    /// committed WAL records, tailing the log until the replica
    /// disconnects or the server shuts down.
    pub(crate) fn handle_replicate(&self, stream: &mut TcpStream, req: u64, request: &Request) {
        let id = &request.id;
        let Command::Replicate {
            offset,
            last_len,
            last_crc,
            snapshot: want_snapshot,
        } = request.cmd
        else {
            return;
        };
        let start = Instant::now();
        let trace = request.trace.unwrap_or_else(obs::new_trace_id);
        let _span = obs::span_with(
            "server.cmd.replicate",
            &[("req", req), (obs::TRACE_ATTR, trace)],
        );
        let magic_len = LOG_MAGIC.len() as u64;
        let handshake = self.replicate_handshake(offset, last_len, last_crc);
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.inner.counters.request("replicate", micros);
        let (resume, log_path) = match handshake {
            Ok(accepted) => accepted,
            Err((code, message)) => {
                self.inner.counters.error();
                let _ = write_framed(
                    stream,
                    Response::err(id.clone(), req, trace, code, message).render(),
                );
                return;
            }
        };
        let committed = self.wal_committed_bytes().unwrap_or(magic_len);
        let mut result = vec![("offset", num(resume)), ("log_bytes", num(committed))];
        let snapshot_hex = want_snapshot
            .then(|| {
                std::fs::read(log_path.with_file_name(SNAPSHOT_FILE))
                    .ok()
                    .map(|bytes| to_hex(&bytes))
            })
            .flatten();
        if let Some(hex) = &snapshot_hex {
            result.push(("snapshot_hex", Json::str(hex)));
        }
        if write_framed(
            stream,
            Response::ok(id.clone(), req, trace, Json::obj(result)).render(),
        )
        .is_err()
        {
            return;
        }
        self.inner.repl_handshakes.fetch_add(1, Ordering::Relaxed);
        self.inner
            .repl_streams_total
            .fetch_add(1, Ordering::Relaxed);
        self.inner.repl_streams.fetch_add(1, Ordering::Relaxed);
        let _active = StreamGuard(&self.inner.repl_streams);
        // A stuck replica must not pin this thread past shutdown.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        let mut file = match File::open(&log_path) {
            Ok(file) => file,
            Err(_) => return,
        };
        if file.seek(SeekFrom::Start(resume)).is_err() {
            return;
        }
        // Heartbeats start only once the replica is caught up, so
        // the pending-record region of the stream stays byte-for-byte
        // identical to the log: replicas (and fault harnesses) see
        // record bytes at their exact log offsets.
        let mut last_beat: Option<Instant> = None;
        let mut pos = resume;
        let mut chunk = vec![0u8; 64 * 1024];
        while !self.is_shutting_down() {
            let committed = self.wal_committed_bytes().unwrap_or(pos);
            if pos >= committed {
                // Caught up: keep the replica's clock-lag estimate
                // fresh. Heartbeats are stream-only frames — never
                // appended to a log, never advancing the offset. The
                // first one goes out immediately on catch-up.
                if last_beat.is_none_or(|t| t.elapsed() >= Duration::from_millis(HEARTBEAT_MS)) {
                    if stream
                        .write_all(&encode_heartbeat(epoch_millis(), committed))
                        .is_err()
                    {
                        return;
                    }
                    last_beat = Some(Instant::now());
                }
                std::thread::sleep(TAIL_POLL);
                continue;
            }
            // Committed bytes are fully written before the counter
            // moves (both happen under the wal lock), so this read
            // can never see a torn record.
            let want = usize::try_from(committed - pos)
                .unwrap_or(usize::MAX)
                .min(chunk.len());
            if file.read_exact(&mut chunk[..want]).is_err() {
                return;
            }
            if stream.write_all(&chunk[..want]).is_err() {
                return;
            }
            pos += want as u64;
            self.inner
                .repl_shipped_bytes
                .fetch_add(want as u64, Ordering::Relaxed);
        }
    }

    /// Validate a `replicate` handshake: the server must have a log,
    /// the offset must be within it, and — the divergence detector —
    /// when the replica resumes mid-log, the record *ending* at the
    /// resume offset must carry exactly the `(len, crc)` header the
    /// replica holds, proving its log is a byte-for-byte prefix.
    /// Returns the clamped resume offset and the log path.
    fn replicate_handshake(
        &self,
        offset: u64,
        last_len: u32,
        last_crc: u32,
    ) -> Result<(u64, PathBuf), (&'static str, String)> {
        let magic_len = LOG_MAGIC.len() as u64;
        let Some(wal) = &self.inner.wal else {
            return Err((
                codes::UNSUPPORTED,
                "replication needs a durable primary: run it with --data-dir".to_string(),
            ));
        };
        let (log_path, committed) = {
            let wal = wal.lock().expect("wal poisoned");
            (wal.log_path(), wal.bytes)
        };
        let resume = offset.max(magic_len);
        if resume > committed {
            self.refuse_handshake();
            return Err((
                codes::DIVERGED,
                format!(
                    "resume offset {resume} is past this primary's committed log \
                     ({committed} bytes): the replica followed a different history"
                ),
            ));
        }
        if resume > magic_len {
            if last_len == 0 {
                return Err((
                    codes::BAD_REQUEST,
                    "resuming past the log head needs the replica's last record \
                     (last_len / last_crc)"
                        .to_string(),
                ));
            }
            let header_pos = resume
                .checked_sub(8 + last_len as u64)
                .filter(|&p| p >= magic_len)
                .ok_or_else(|| {
                    self.refuse_handshake();
                    (
                        codes::DIVERGED,
                        format!(
                            "no record of payload length {last_len} can end at \
                             offset {resume}"
                        ),
                    )
                })?;
            let mut header = [0u8; 8];
            let matches = File::open(&log_path)
                .and_then(|mut file| {
                    file.seek(SeekFrom::Start(header_pos))?;
                    file.read_exact(&mut header)?;
                    Ok(())
                })
                .is_ok()
                && u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) == last_len
                && u32::from_le_bytes(header[4..].try_into().expect("4 bytes")) == last_crc;
            if !matches {
                self.refuse_handshake();
                return Err((
                    codes::DIVERGED,
                    format!(
                        "record checksums disagree at resume offset {resume}: the \
                         replica's log is not a prefix of this primary's"
                    ),
                ));
            }
        }
        Ok((resume, log_path))
    }

    fn refuse_handshake(&self) {
        self.inner.repl_refusals.fetch_add(1, Ordering::Relaxed);
    }

    // ------------------------------------------------ replication: replica

    /// Start the replication apply loop (replica mode only; `None` on
    /// a primary). The returned thread connects to the primary with
    /// exponential backoff, bootstraps or resumes from the durable
    /// offset, applies shipped records through the same handlers boot
    /// replay uses, and exits on `shutdown` or divergence.
    pub fn start_replication(&self) -> Option<std::thread::JoinHandle<()>> {
        self.inner.repl.as_ref()?;
        let server = self.clone();
        Some(
            std::thread::Builder::new()
                .name("revkb-replication".to_string())
                .spawn(move || server.replication_loop())
                .expect("spawn replication thread"),
        )
    }

    fn replication_loop(&self) {
        let repl = self.inner.repl.as_ref().expect("replica state");
        let mut backoff = Backoff::new();
        while !self.is_shutting_down() {
            if repl.lock().expect("repl poisoned").diverged {
                return;
            }
            let (primary, offset, last) = {
                let s = repl.lock().expect("repl poisoned");
                (s.primary.clone(), s.offset, s.last_record)
            };
            match self.replication_session(&primary, offset, last) {
                SessionEnd::Disconnected => {
                    let mut s = repl.lock().expect("repl poisoned");
                    s.connected = false;
                }
                SessionEnd::NeverConnected => {
                    self.backoff_sleep(&mut backoff);
                    continue;
                }
                SessionEnd::Fatal => return,
            }
            backoff.reset();
        }
    }

    /// Sleep one backoff step in shutdown-sized slices so a draining
    /// replica never waits out the full delay.
    fn backoff_sleep(&self, backoff: &mut Backoff) {
        let mut remaining = backoff.delay_ms();
        while remaining > 0 && !self.is_shutting_down() {
            let slice = remaining.min(50);
            std::thread::sleep(Duration::from_millis(slice));
            remaining -= slice;
        }
    }

    /// One connect → handshake → apply session against the primary.
    fn replication_session(
        &self,
        primary: &str,
        offset: u64,
        last: Option<(u32, u32)>,
    ) -> SessionEnd {
        let repl = self.inner.repl.as_ref().expect("replica state");
        let magic_len = LOG_MAGIC.len() as u64;
        let mut stream = match TcpStream::connect(primary) {
            Ok(stream) => stream,
            Err(_) => return SessionEnd::NeverConnected,
        };
        let _ = stream.set_nodelay(true);
        if stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .is_err()
        {
            return SessionEnd::NeverConnected;
        }
        // Bootstrap (nothing durable yet) also asks for the
        // primary's artifact snapshot to pre-warm the cache, so
        // replayed revises are hits, exactly like boot recovery.
        let fresh = offset <= magic_len;
        let (last_len, last_crc) = last.unwrap_or((0, 0));
        let handshake = format!(
            "{{\"cmd\":\"replicate\",\"offset\":{offset},\"last_len\":{last_len},\
             \"last_crc\":{last_crc},\"snapshot\":{fresh}}}\n"
        );
        if stream.write_all(handshake.as_bytes()).is_err() {
            return SessionEnd::NeverConnected;
        }
        let mut splitter = RecordSplitter::new();
        let response = match self.read_handshake_line(&mut stream, &mut splitter) {
            Some(line) => line,
            None => return SessionEnd::NeverConnected,
        };
        let Ok(response) = Json::parse(&response) else {
            return SessionEnd::NeverConnected;
        };
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            let code = response.get("code").and_then(Json::as_str).unwrap_or("?");
            if code == codes::DIVERGED {
                self.mark_diverged(&format!(
                    "primary {primary} refused the resume handshake: {}",
                    response
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("checksum mismatch")
                ));
                return SessionEnd::Fatal;
            }
            // Anything else (primary without a log, mid-boot, …):
            // keep retrying with backoff.
            return SessionEnd::NeverConnected;
        }
        let result = response.get("result").cloned().unwrap_or(Json::Null);
        {
            let mut s = repl.lock().expect("repl poisoned");
            s.connected = true;
            s.sessions += 1;
            if let Some(target) = result.get("log_bytes").and_then(Json::as_u64) {
                s.target = s.target.max(target);
            }
        }
        if fresh {
            if let Some(hex) = result.get("snapshot_hex").and_then(Json::as_str) {
                self.prewarm_from_snapshot(hex);
            }
        }
        // The handshake may have read past the response line; those
        // bytes are already stream bytes and sit in the splitter.
        let mut chunk = [0u8; 16 * 1024];
        loop {
            loop {
                match splitter.next_record() {
                    Shipped::Record(frame) => {
                        if !self.apply_replicated(&frame) {
                            return SessionEnd::Fatal;
                        }
                    }
                    Shipped::Heartbeat {
                        epoch_millis: primary_millis,
                        committed,
                    } => {
                        let mut s = repl.lock().expect("repl poisoned");
                        s.observe_heartbeat(primary_millis, epoch_millis());
                        // The heartbeat carries the primary's committed
                        // log length, so the byte-lag target advances
                        // even while no records ship.
                        s.target = s.target.max(committed);
                    }
                    Shipped::NeedMore => break,
                    Shipped::Corrupt(message) => {
                        self.mark_diverged(&format!("corrupt shipped record: {message}"));
                        return SessionEnd::Fatal;
                    }
                }
            }
            if self.is_shutting_down() {
                return SessionEnd::Fatal;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return SessionEnd::Disconnected,
                Ok(n) => splitter.extend(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => return SessionEnd::Disconnected,
            }
        }
    }

    /// Read the newline-terminated handshake response; any bytes past
    /// the newline are the start of the record stream and go into
    /// `splitter`.
    fn read_handshake_line(
        &self,
        stream: &mut TcpStream,
        splitter: &mut RecordSplitter,
    ) -> Option<String> {
        let mut buffer: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if self.is_shutting_down() || Instant::now() > deadline {
                return None;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => {
                    buffer.extend_from_slice(&chunk[..n]);
                    if let Some(pos) = buffer.iter().position(|&b| b == b'\n') {
                        let line = String::from_utf8_lossy(&buffer[..pos]).into_owned();
                        splitter.extend(&buffer[pos + 1..]);
                        return Some(line);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => return None,
            }
        }
    }

    /// Pre-warm the artifact cache from the primary's hex-shipped
    /// snapshot (bootstrap only). Mirrors boot recovery: pre-warming
    /// is not demand traffic, so the hit/miss counters reset.
    fn prewarm_from_snapshot(&self, hex: &str) {
        let Some(bytes) = from_hex(hex) else {
            return;
        };
        let entries = crate::wal::decode_snapshot(&bytes);
        let count = entries.len() as u64;
        {
            let mut cache = self.inner.cache.lock().expect("cache poisoned");
            for (key, artifact) in entries {
                cache.insert(key, artifact);
            }
            cache.hits = 0;
            cache.misses = 0;
            cache.evictions = 0;
        }
        if let Some(repl) = &self.inner.repl {
            repl.lock().expect("repl poisoned").snapshot_artifacts = count;
        }
    }

    /// Apply one checksum-verified shipped frame: decode it as a v1
    /// record, replay it through the normal handlers (the `replaying`
    /// flag suppresses re-logging), append the raw bytes to the
    /// replica's own log, and advance the durable offset. Returns
    /// `false` on divergence (an undecodable payload behind a valid
    /// checksum can only mean the stream is not this log's history).
    fn apply_replicated(&self, frame: &[u8]) -> bool {
        let (ops, good) = decode_records(frame);
        if ops.len() != 1 || good != frame.len() {
            self.mark_diverged("shipped record does not decode as a v1 operation");
            return false;
        }
        // The record being applied starts at the replica's current
        // durable offset — and the replica's log is a byte-for-byte
        // prefix of the primary's, so this is exactly the offset the
        // primary's `wal.append` span recorded for the same record.
        // Stamping the replay span with it makes the two joinable.
        let origin_offset = self
            .inner
            .repl
            .as_ref()
            .map_or(0, |r| r.lock().expect("repl poisoned").offset);
        self.inner.replaying.store(true, Ordering::SeqCst);
        let applied = {
            let _span = obs::span_with("repl.replay", &[("wal_offset", origin_offset)]);
            self.replay_op(&ops[0])
        };
        self.inner.replaying.store(false, Ordering::SeqCst);
        if let Err(message) = &applied {
            obs::warn("repl", None, || {
                format!("revkb-server: replication skipped a record: {message}")
            });
        }
        if let Some(wal) = &self.inner.wal {
            let mut wal = wal.lock().expect("wal poisoned");
            if let Err(e) = wal.append_raw(frame) {
                wal.append_errors += 1;
                obs::error("wal", None, || {
                    format!("revkb-server: replica wal append failed: {e}")
                });
            }
        }
        if let Some(repl) = &self.inner.repl {
            let mut s = repl.lock().expect("repl poisoned");
            s.offset += frame.len() as u64;
            s.target = s.target.max(s.offset);
            s.last_record = Some((
                u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")),
                u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes")),
            ));
            s.last_record_at_millis = Some(epoch_millis());
            match applied {
                Ok(()) => s.records_applied += 1,
                Err(_) => s.apply_errors += 1,
            }
        }
        true
    }

    /// The divergence detector fired: remember why, stop replicating,
    /// and make the data plane refuse to serve. Public so fault
    /// harnesses can force the diverged state an operator would see.
    pub fn mark_diverged(&self, why: &str) {
        if let Some(repl) = &self.inner.repl {
            let mut s = repl.lock().expect("repl poisoned");
            s.diverged = true;
            s.connected = false;
        }
        obs::error("repl", None, || {
            format!("revkb-server: replication diverged: {why}")
        });
    }

    /// Serve line-delimited requests from `reader`, writing one
    /// response line each to `writer`, until EOF or a `shutdown`
    /// command.
    pub fn serve_stdio<R: BufRead, W: Write>(&self, reader: R, mut writer: W) -> io::Result<()> {
        for line in reader.lines() {
            let line = line?;
            if let Some(response) = self.handle_line(&line) {
                write_framed(&mut writer, response)?;
                writer.flush()?;
            }
            if self.is_shutting_down() {
                break;
            }
        }
        Ok(())
    }

    /// The configuration this server was built with.
    pub(crate) fn config(&self) -> &ServerConfig {
        &self.inner.config
    }

    /// Record a data-plane connection opening; pair with
    /// [`Server::connection_closed`].
    pub(crate) fn connection_opened(&self) {
        self.inner.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a data-plane connection closing.
    pub(crate) fn connection_closed(&self) {
        self.inner.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How one replication session against the primary ended.
enum SessionEnd {
    /// Connected and streamed, then lost the connection: reconnect
    /// immediately (backoff resets on a successful session).
    Disconnected,
    /// Never got a stream going (connect refused, handshake retry):
    /// back off before trying again.
    NeverConnected,
    /// Shutdown or divergence: stop replicating for good.
    Fatal,
}

/// Decrements the active-streams gauge when a primary-side
/// replication stream ends, however it ends.
struct StreamGuard<'a>(&'a AtomicU64);

impl Drop for StreamGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Write one response as a single framed segment (payload + trailing
/// newline in one `write_all`). Shared by every transport: a two-write
/// frame can interleave with another thread's response on a shared
/// stream, and on stdio it doubled syscalls per response.
fn write_framed<W: Write>(writer: &mut W, mut response: String) -> io::Result<()> {
    response.push('\n');
    writer.write_all(response.as_bytes())
}

fn operator_mismatch(prev: ModelBasedOp, requested: OpName) -> ExecError {
    (
        codes::OPERATOR_MISMATCH,
        format!(
            "KB was revised with {:?} and the iterated constructions are \
             single-operator chains; requested {:?}",
            OpName::Model(prev).tag(),
            requested.tag()
        ),
    )
}

/// Render a rejection with `code` (`bad_request`, `line_too_long`),
/// reusing the already-rendered id from a [`RequestError`] (the id is
/// valid JSON by construction).
fn rejection_response(code: &str, err: &RequestError, req: u64, trace: u64) -> String {
    let id = err.id.clone().unwrap_or_else(|| "null".to_string());
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"req\":{req},\"trace\":\"{}\",\"ok\":false,\"code\":\"{}\",\"error\":{}}}",
        obs::format_trace_id(trace),
        code,
        Json::str(&err.message).render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OpName;

    fn server() -> Server {
        Server::new(ServerConfig::default().with_queue(16).with_threads(2))
    }

    /// Send a request line and parse the response.
    fn call(server: &Server, line: &str) -> Json {
        let response = server.handle_line(line).expect("non-blank line");
        Json::parse(&response).expect("response is valid JSON")
    }

    fn assert_ok(resp: &Json) -> &Json {
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        resp.get("result").expect("ok response has result")
    }

    fn assert_err<'a>(resp: &'a Json, code: &str) -> &'a Json {
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "{resp:?}"
        );
        assert_eq!(
            resp.get("code").and_then(Json::as_str),
            Some(code),
            "{resp:?}"
        );
        resp
    }

    #[test]
    fn load_query_roundtrip() {
        let s = server();
        let resp = call(&s, r#"{"id":1,"cmd":"load","kb":"k","t":"a & b; a -> c"}"#);
        let result = assert_ok(&resp);
        assert_eq!(resp.get("id").and_then(Json::as_f64), Some(1.0));
        assert_eq!(result.get("formulas").and_then(Json::as_u64), Some(2));
        assert_eq!(result.get("letters").and_then(Json::as_u64), Some(3));
        let resp = call(&s, r#"{"cmd":"query","kb":"k","q":"c"}"#);
        assert_eq!(
            assert_ok(&resp).get("entails").and_then(Json::as_bool),
            Some(true)
        );
        let resp = call(
            &s,
            r#"{"cmd":"query_batch","kb":"k","qs":["a","!a","b & c"]}"#,
        );
        let answers = assert_ok(&resp)
            .get("answers")
            .and_then(Json::as_array)
            .unwrap();
        let answers: Vec<bool> = answers.iter().map(|a| a.as_bool().unwrap()).collect();
        assert_eq!(answers, vec![true, false, true]);
    }

    #[test]
    fn revise_every_operator_and_query() {
        for op in OpName::ALL {
            let s = server();
            call(&s, r#"{"cmd":"load","kb":"k","t":"a; a -> b"}"#);
            let line = format!(
                r#"{{"cmd":"revise","kb":"k","op":"{}","p":"!b"}}"#,
                op.tag()
            );
            let resp = call(&s, &line);
            let result = assert_ok(&resp);
            assert_eq!(result.get("op").and_then(Json::as_str), Some(op.tag()));
            assert_eq!(result.get("degraded").and_then(Json::as_bool), Some(false));
            // Every operator accepts the revision: ¬b holds afterwards.
            let resp = call(&s, r#"{"cmd":"query","kb":"k","q":"!b"}"#);
            assert_eq!(
                assert_ok(&resp).get("entails").and_then(Json::as_bool),
                Some(true),
                "{}",
                op.tag()
            );
        }
    }

    #[test]
    fn cache_hits_on_identical_revision() {
        let s = server();
        call(&s, r#"{"cmd":"load","kb":"k1","t":"a & b"}"#);
        let resp = call(&s, r#"{"cmd":"revise","kb":"k1","op":"dalal","p":"!a"}"#);
        assert_eq!(
            assert_ok(&resp).get("cache").and_then(Json::as_str),
            Some("miss")
        );
        // A second KB with the same theory and revision: pure cache hit.
        call(&s, r#"{"cmd":"load","kb":"k2","t":"a & b"}"#);
        let resp = call(&s, r#"{"cmd":"revise","kb":"k2","op":"dalal","p":"!a"}"#);
        assert_eq!(
            assert_ok(&resp).get("cache").and_then(Json::as_str),
            Some("hit")
        );
        // The cached engine answers identically.
        for kb in ["k1", "k2"] {
            let resp = call(&s, &format!(r#"{{"cmd":"query","kb":"{kb}","q":"b"}}"#));
            assert_eq!(
                assert_ok(&resp).get("entails").and_then(Json::as_bool),
                Some(true)
            );
        }
        let resp = call(&s, r#"{"cmd":"stats"}"#);
        let cache = assert_ok(&resp).get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn operator_rules_are_enforced() {
        let s = server();
        call(&s, r#"{"cmd":"load","kb":"k","t":"a"}"#);
        call(&s, r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!a"}"#);
        let resp = call(&s, r#"{"cmd":"revise","kb":"k","op":"weber","p":"a"}"#);
        assert_err(&resp, codes::OPERATOR_MISMATCH);
        let resp = call(&s, r#"{"cmd":"revise","kb":"k","op":"widtio","p":"a"}"#);
        assert_err(&resp, codes::OPERATOR_MISMATCH);
        // Same operator again: fine (iterated chain).
        let resp = call(&s, r#"{"cmd":"revise","kb":"k","op":"dalal","p":"a"}"#);
        assert_eq!(
            assert_ok(&resp).get("revisions").and_then(Json::as_u64),
            Some(2)
        );
        // GFUV refuses any second revision.
        call(&s, r#"{"cmd":"load","kb":"g","t":"a"}"#);
        call(&s, r#"{"cmd":"revise","kb":"g","op":"gfuv","p":"!a"}"#);
        let resp = call(&s, r#"{"cmd":"revise","kb":"g","op":"gfuv","p":"a"}"#);
        assert_err(&resp, codes::UNSUPPORTED);
    }

    #[test]
    fn widtio_iterates_through_kept_theory() {
        let s = server();
        call(&s, r#"{"cmd":"load","kb":"w","t":"a; a -> b"}"#);
        call(&s, r#"{"cmd":"revise","kb":"w","op":"widtio","p":"!b"}"#);
        // WIDTIO threw out both conflicting formulas; only ¬b remains.
        let resp = call(&s, r#"{"cmd":"query","kb":"w","q":"!b"}"#);
        assert_eq!(
            assert_ok(&resp).get("entails").and_then(Json::as_bool),
            Some(true)
        );
        let resp = call(&s, r#"{"cmd":"revise","kb":"w","op":"widtio","p":"b"}"#);
        let result = assert_ok(&resp);
        assert_eq!(result.get("revisions").and_then(Json::as_u64), Some(2));
        let resp = call(&s, r#"{"cmd":"query","kb":"w","q":"b"}"#);
        assert_eq!(
            assert_ok(&resp).get("entails").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn unknown_kb_and_malformed_requests() {
        let s = server();
        let resp = call(&s, r#"{"cmd":"query","kb":"nope","q":"a"}"#);
        assert_err(&resp, codes::UNKNOWN_KB);
        let resp = call(&s, r#"{"cmd":"drop","kb":"nope"}"#);
        assert_err(&resp, codes::UNKNOWN_KB);
        let resp = call(&s, "this is not json");
        assert_err(&resp, codes::BAD_REQUEST);
        // The id survives even when the command is garbage.
        let resp = call(&s, r#"{"id":"q-7","cmd":"frobnicate"}"#);
        assert_err(&resp, codes::BAD_REQUEST);
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("q-7"));
        // Engine-level codes come through verbatim: parse error…
        call(&s, r#"{"cmd":"load","kb":"k","t":"a"}"#);
        let resp = call(&s, r#"{"cmd":"query","kb":"k","q":"a &&& b"}"#);
        assert_err(&resp, "parse");
        // …and the out-of-alphabet guard.
        let resp = call(&s, r#"{"cmd":"query","kb":"k","q":"zebra"}"#);
        assert_err(&resp, "out_of_alphabet");
    }

    #[test]
    fn deadline_zero_times_out_deterministically() {
        let s = server();
        call(&s, r#"{"cmd":"load","kb":"k","t":"a"}"#);
        let resp = call(
            &s,
            r#"{"id":9,"deadline_ms":0,"cmd":"query","kb":"k","q":"a"}"#,
        );
        assert_err(&resp, codes::TIMEOUT);
        assert_eq!(resp.get("id").and_then(Json::as_f64), Some(9.0));
        let resp = call(&s, r#"{"cmd":"stats"}"#);
        assert_eq!(
            assert_ok(&resp).get("timeouts").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn zero_queue_rejects_everything_but_control_plane() {
        let s = Server::new(ServerConfig::default().with_queue(0));
        let resp = call(&s, r#"{"cmd":"load","kb":"k","t":"a"}"#);
        assert_err(&resp, codes::OVERLOADED);
        let resp = call(&s, r#"{"cmd":"ping"}"#);
        assert_ok(&resp);
        let resp = call(&s, r#"{"cmd":"stats"}"#);
        assert_eq!(
            assert_ok(&resp).get("overloaded").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn compile_budget_zero_degrades_but_stays_correct() {
        let s = Server::new(
            ServerConfig::default()
                .with_queue(16)
                .with_compile_timeout_ms(Some(0)),
        );
        call(&s, r#"{"cmd":"load","kb":"k","t":"a & b"}"#);
        let resp = call(&s, r#"{"cmd":"revise","kb":"k","op":"satoh","p":"!a"}"#);
        let result = assert_ok(&resp);
        assert_eq!(result.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("cache").and_then(Json::as_str), Some("degraded"));
        // Delayed incorporation still answers correctly at query time.
        let resp = call(&s, r#"{"cmd":"query","kb":"k","q":"b"}"#);
        assert_eq!(
            assert_ok(&resp).get("entails").and_then(Json::as_bool),
            Some(true)
        );
        let resp = call(&s, r#"{"cmd":"stats"}"#);
        assert_eq!(
            assert_ok(&resp).get("degraded").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn list_drop_and_shutdown() {
        let s = server();
        call(&s, r#"{"cmd":"load","kb":"b","t":"x"}"#);
        call(&s, r#"{"cmd":"load","kb":"a","t":"y"}"#);
        let resp = call(&s, r#"{"cmd":"list"}"#);
        let kbs = assert_ok(&resp)
            .get("kbs")
            .and_then(Json::as_array)
            .unwrap();
        let names: Vec<&str> = kbs
            .iter()
            .map(|kb| kb.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, vec!["a", "b"]); // sorted
        let resp = call(&s, r#"{"cmd":"drop","kb":"a"}"#);
        assert_ok(&resp);
        assert!(!s.is_shutting_down());
        let resp = call(&s, r#"{"cmd":"shutdown"}"#);
        assert_ok(&resp);
        assert!(s.is_shutting_down());
        // Non-control-plane work is now refused; ping still answers.
        let resp = call(&s, r#"{"cmd":"list"}"#);
        assert_err(&resp, codes::SHUTTING_DOWN);
        let resp = call(&s, r#"{"cmd":"ping"}"#);
        assert_ok(&resp);
    }

    #[test]
    fn req_ids_are_monotonic_from_one() {
        let s = server();
        for expect in 1..=4u64 {
            let resp = call(&s, r#"{"cmd":"ping"}"#);
            assert_eq!(
                resp.get("req").and_then(Json::as_u64),
                Some(expect),
                "{resp:?}"
            );
        }
        // Bad requests consume an id too — every line gets one.
        let resp = call(&s, "not json");
        assert_eq!(resp.get("req").and_then(Json::as_u64), Some(5));
        let resp = call(&s, r#"{"cmd":"ping"}"#);
        assert_eq!(resp.get("req").and_then(Json::as_u64), Some(6));
    }

    #[test]
    fn stats_reports_per_type_latency_without_draining() {
        let s = server();
        call(&s, r#"{"cmd":"load","kb":"k","t":"a & b"}"#);
        call(&s, r#"{"cmd":"query","kb":"k","q":"a"}"#);
        call(&s, r#"{"cmd":"query","kb":"k","q":"b"}"#);
        let resp = call(&s, r#"{"cmd":"stats"}"#);
        let latency = assert_ok(&resp).get("request_latency").unwrap();
        let query = latency.get("query").expect("query bucket present");
        assert_eq!(query.get("count").and_then(Json::as_u64), Some(2));
        let p50 = query.get("p50").and_then(Json::as_u64).unwrap();
        let p95 = query.get("p95").and_then(Json::as_u64).unwrap();
        let p99 = query.get("p99").and_then(Json::as_u64).unwrap();
        let max = query.get("max").and_then(Json::as_u64).unwrap();
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
        assert_eq!(
            latency
                .get("load")
                .unwrap()
                .get("count")
                .and_then(Json::as_u64),
            Some(1)
        );
        // A second stats call sees the same history plus the first
        // stats request itself: nothing was drained or reset.
        let resp = call(&s, r#"{"cmd":"stats"}"#);
        let latency = assert_ok(&resp).get("request_latency").unwrap();
        let query = latency.get("query").unwrap();
        assert_eq!(query.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(
            latency
                .get("stats")
                .unwrap()
                .get("count")
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn slow_log_records_over_threshold_and_is_bounded() {
        // Threshold 0: every request is "slow". Capacity 2: ring.
        let s = Server::new(
            ServerConfig::default()
                .with_queue(16)
                .with_slow_ms(0)
                .with_slow_log_cap(2),
        );
        call(&s, r#"{"cmd":"ping"}"#); // req 1 — evicted
        call(&s, r#"{"cmd":"load","kb":"k","t":"a"}"#); // req 2
        call(&s, r#"{"cmd":"query","kb":"k","q":"a"}"#); // req 3
        let resp = call(&s, r#"{"cmd":"stats"}"#);
        let slow = assert_ok(&resp)
            .get("slow_log")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(slow.len(), 2, "{slow:?}");
        let reqs: Vec<u64> = slow
            .iter()
            .map(|e| e.get("req").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(reqs, vec![2, 3]); // oldest evicted, order kept
        assert_eq!(slow[0].get("cmd").and_then(Json::as_str), Some("load"));
        assert_eq!(slow[1].get("cmd").and_then(Json::as_str), Some("query"));
        // Default threshold (1s): nothing here is slow.
        let s = server();
        call(&s, r#"{"cmd":"ping"}"#);
        let resp = call(&s, r#"{"cmd":"stats"}"#);
        let slow = assert_ok(&resp)
            .get("slow_log")
            .and_then(Json::as_array)
            .unwrap();
        assert!(slow.is_empty(), "{slow:?}");
    }

    /// A writer that records each `write` call as its own segment.
    struct SegmentWriter(Vec<Vec<u8>>);

    impl Write for SegmentWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_is_one_framed_write() {
        let s = server();
        let script = concat!(
            r#"{"id":1,"cmd":"ping"}"#,
            "\n",
            r#"{"id":2,"cmd":"load","kb":"k","t":"a"}"#,
            "\n",
        );
        let mut out = SegmentWriter(Vec::new());
        s.serve_stdio(script.as_bytes(), &mut out).unwrap();
        assert_eq!(out.0.len(), 2, "one write per response, newline included");
        for segment in &out.0 {
            assert_eq!(segment.last(), Some(&b'\n'));
            assert!(Json::parse(&String::from_utf8_lossy(&segment[..segment.len() - 1])).is_ok());
        }
    }

    #[test]
    fn stdio_loop_runs_a_scripted_session() {
        let s = server();
        let script = concat!(
            r#"{"id":1,"cmd":"load","kb":"k","t":"a & b"}"#,
            "\n\n", // blank line is ignored
            r#"{"id":2,"cmd":"revise","kb":"k","op":"weber","p":"!a"}"#,
            "\n",
            r#"{"id":3,"cmd":"query","kb":"k","q":"b"}"#,
            "\n",
            r#"{"id":4,"cmd":"shutdown"}"#,
            "\n",
            r#"{"id":5,"cmd":"ping"}"#, // after shutdown: loop exited
            "\n",
        );
        let mut out = Vec::new();
        s.serve_stdio(script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        for (i, line) in lines.iter().enumerate() {
            let resp = Json::parse(line).unwrap();
            assert_eq!(resp.get("id").and_then(Json::as_f64), Some((i + 1) as f64));
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        }
    }

    fn replica_server() -> Server {
        Server::new(
            ServerConfig::default()
                .with_queue(16)
                .with_threads(2)
                .with_replica_of(Some("127.0.0.1:1".to_string())),
        )
    }

    #[test]
    fn replica_rejects_writes_with_read_only() {
        let s = replica_server();
        for line in [
            r#"{"cmd":"load","kb":"k","t":"a & b"}"#,
            r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!a"}"#,
            r#"{"cmd":"drop","kb":"k"}"#,
        ] {
            assert_err(&call(&s, line), codes::READ_ONLY);
        }
        // Reads and the control plane still answer.
        assert_ok(&call(&s, r#"{"cmd":"ping"}"#));
        assert_ok(&call(&s, r#"{"cmd":"list"}"#));
        assert_err(
            &call(&s, r#"{"cmd":"query","kb":"k","q":"a"}"#),
            codes::UNKNOWN_KB,
        );
    }

    #[test]
    fn diverged_replica_refuses_all_data_plane_commands() {
        let s = replica_server();
        s.mark_diverged("test: forced divergence");
        for line in [
            r#"{"cmd":"query","kb":"k","q":"a"}"#,
            r#"{"cmd":"list"}"#,
            r#"{"cmd":"load","kb":"k","t":"a"}"#,
        ] {
            assert_err(&call(&s, line), codes::DIVERGED);
        }
        // The control plane must stay reachable for diagnosis.
        assert_ok(&call(&s, r#"{"cmd":"ping"}"#));
        let stats = call(&s, r#"{"cmd":"stats"}"#);
        let repl = assert_ok(&stats).get("repl").expect("repl block").clone();
        assert_eq!(repl.get("role").and_then(Json::as_str), Some("replica"));
        assert_eq!(repl.get("diverged").and_then(Json::as_bool), Some(true));
        let status = s.replication_status().expect("replica has status");
        assert!(status.diverged);
        assert!(!status.connected);
    }

    #[test]
    fn stats_reports_replication_role_on_both_sides() {
        let primary = server();
        let stats = call(&primary, r#"{"cmd":"stats"}"#);
        let repl = assert_ok(&stats).get("repl").expect("repl block").clone();
        assert_eq!(repl.get("role").and_then(Json::as_str), Some("primary"));
        assert_eq!(repl.get("streams").and_then(Json::as_u64), Some(0));
        assert!(primary.replication_status().is_none());

        let replica = replica_server();
        let stats = call(&replica, r#"{"cmd":"stats"}"#);
        let repl = assert_ok(&stats).get("repl").expect("repl block").clone();
        assert_eq!(repl.get("role").and_then(Json::as_str), Some("replica"));
        assert_eq!(
            repl.get("primary").and_then(Json::as_str),
            Some("127.0.0.1:1")
        );
        assert_eq!(repl.get("connected").and_then(Json::as_bool), Some(false));
        // No wal: the in-memory replica starts at the log-head offset.
        assert_eq!(
            repl.get("offset").and_then(Json::as_u64),
            Some(crate::wal::LOG_MAGIC.len() as u64)
        );
    }

    #[test]
    fn replicate_over_stdio_is_unsupported() {
        let s = server();
        assert_err(
            &call(&s, r#"{"cmd":"replicate","offset":0}"#),
            codes::UNSUPPORTED,
        );
    }

    #[test]
    fn readyz_flips_when_a_replica_diverges() {
        // A healthy primary is ready.
        let primary = server();
        let resp = primary.metrics_route("/readyz", "");
        assert_eq!(resp.status, 200, "healthy primary must be ready");
        assert!(resp.body.contains(r#""ready":true"#), "{}", resp.body);

        // A replica that never reached its primary is not ready…
        let replica = replica_server();
        let resp = replica.metrics_route("/readyz", "");
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("never connected"), "{}", resp.body);

        // …and a diverged replica reports the divergence as the reason.
        replica.mark_diverged("test: forced divergence");
        let resp = replica.metrics_route("/readyz", "");
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("diverged"), "{}", resp.body);
        let (ready, body) = replica.readiness();
        assert!(!ready);
        let reasons = body.get("reasons").expect("reasons array").clone();
        assert!(
            reasons.render().contains("diverged"),
            "{}",
            reasons.render()
        );
    }

    #[test]
    fn stats_exposes_kb_profiles_and_series() {
        let s = server();
        assert_ok(&call(&s, r#"{"cmd":"load","kb":"k","t":"a & b"}"#));
        assert_ok(&call(
            &s,
            r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!a"}"#,
        ));
        assert_ok(&call(&s, r#"{"cmd":"query","kb":"k","q":"b"}"#));
        let stats = call(&s, r#"{"cmd":"stats"}"#);
        let result = assert_ok(&stats);

        let profiles = result.get("kb_profiles").expect("kb_profiles").clone();
        let arr = match &profiles {
            Json::Arr(items) => items.clone(),
            other => panic!("kb_profiles must be an array, got {other:?}"),
        };
        assert_eq!(arr.len(), 1);
        let p = &arr[0];
        assert_eq!(p.get("kb").and_then(Json::as_str), Some("k"));
        assert_eq!(p.get("queries").and_then(Json::as_u64), Some(1));
        assert!(p.get("query_nodes_total").and_then(Json::as_u64).unwrap() >= 1);
        let ops = match p.get("ops").expect("ops array") {
            Json::Arr(items) => items.clone(),
            other => panic!("ops must be an array, got {other:?}"),
        };
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].get("op").and_then(Json::as_str), Some("dalal"));
        assert_eq!(ops[0].get("revises").and_then(Json::as_u64), Some(1));
        // Exactly one compile happened and it was a cache miss.
        assert_eq!(p.get("cache_misses").and_then(Json::as_u64), Some(1));

        let series = result.get("series").expect("series block").clone();
        assert!(series.get("interval_ms").and_then(Json::as_u64).is_some());
        assert!(series.get("capacity").and_then(Json::as_u64).is_some());
        assert!(
            matches!(series.get("series"), Some(Json::Arr(_))),
            "series.series must be an array"
        );
    }

    #[test]
    fn metrics_text_renders_labelled_families() {
        let s = server();
        assert_ok(&call(&s, r#"{"cmd":"load","kb":"k","t":"a & b"}"#));
        assert_ok(&call(
            &s,
            r#"{"cmd":"revise","kb":"k","op":"dalal","p":"!a"}"#,
        ));
        assert_ok(&call(&s, r#"{"cmd":"query","kb":"k","q":"b"}"#));
        let page = s.metrics_text();

        // Top-level server counters.
        assert!(
            page.contains("revkb_server_requests_total 3"),
            "missing requests counter:\n{page}"
        );
        assert!(page.contains("# TYPE revkb_server_requests_total counter"));
        // Per-KB families carry the kb label.
        assert!(
            page.contains(r#"revkb_kb_queries_total{kb="k"} 1"#),
            "missing per-KB query counter:\n{page}"
        );
        assert!(page.contains(r#"revkb_kb_op_revises_total{kb="k",op="dalal"} 1"#));
        // Histograms are cumulative and end with +Inf == _count.
        assert!(
            page.contains(r#"revkb_server_request_micros_bucket{cmd="query",le="+Inf"} 1"#),
            "missing +Inf bucket:\n{page}"
        );
        assert!(page.contains(r#"revkb_server_request_micros_count{cmd="query"} 1"#));
        // The page ends with a trailing newline (text exposition v0.0.4).
        assert!(page.ends_with('\n'));
    }

    #[test]
    fn metrics_route_serves_all_endpoints() {
        let s = server();
        assert_ok(&call(&s, r#"{"cmd":"ping"}"#));
        let metrics = s.metrics_route("/metrics", "");
        assert_eq!(metrics.status, 200);
        assert!(metrics.content_type.starts_with("text/plain"));
        let stats = s.metrics_route("/stats.json", "");
        assert_eq!(stats.status, 200);
        assert!(stats.content_type.starts_with("application/json"));
        assert!(stats.body.contains("kb_profiles"));
        let series = s.metrics_route("/series.json", "");
        assert_eq!(series.status, 200);
        assert!(series.body.contains("interval_ms"));
        let healthz = s.metrics_route("/healthz", "");
        assert_eq!(healthz.status, 200);
        assert!(
            healthz.body.contains(r#""role":"primary""#),
            "{}",
            healthz.body
        );
        let missing = s.metrics_route("/nope", "");
        assert_eq!(missing.status, 404);
    }
}
