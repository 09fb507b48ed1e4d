//! The server's metrics plane: which counters a [`Server`] keeps and
//! how it reports them.
//!
//! Every count lives in exactly one place, owned by one server and
//! always on: request accounting in [`ServerCounters`], cache counts
//! in the artifact cache, log counts in the WAL, replication state in
//! `ReplState` (replica) or `Inner`'s atomics (primary). Two servers in
//! one process therefore never share a count, and nothing here depends
//! on `REVKB_TRACE`. This module renders those counts as the `stats`
//! payload (also `/stats.json`), the Prometheus page behind `/metrics`,
//! the sampler's time series (`/series.json`), the readiness verdict,
//! and [`Server::metrics_route`], the one table of GET routes that the
//! event loop's HTTP gateway serves on the data socket. Reading never
//! moves a count.
//!
//! The one process-global part of `/metrics` is the workspace `obs`
//! registry (solver, Tseitin, BDD, session counters and the server's
//! `wal.append.micros` layer timing), exported verbatim under
//! `revkb_obs_*` when `REVKB_TRACE` is on.

use super::{kind_tag, num, ActiveRequest, Inner, Server, READY_STALE_MS};
use crate::http;
use crate::protocol::PROTOCOL_VERSION;
use crate::registry::KbProfile;
use crate::replica::epoch_millis;
use revkb_obs as obs;
use revkb_obs::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Request-type buckets for per-type latency in `stats`: the eleven
/// command tags ([`crate::protocol::Command::tag`]) plus a catch-all
/// for lines that never parsed into a command (`bad_request` must stay
/// last: it doubles as the fallback bucket).
pub const REQUEST_KINDS: [&str; 12] = [
    "load",
    "revise",
    "query",
    "query_batch",
    "list",
    "stats",
    "drop",
    "ping",
    "hello",
    "shutdown",
    "replicate",
    "bad_request",
];

fn kind_index(kind: &str) -> usize {
    REQUEST_KINDS
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(REQUEST_KINDS.len() - 1)
}

/// Always-on request accounting backing the `stats` command.
///
/// The per-type latency histograms are [`obs::LocalHistogram`]s —
/// owned, always-on, and *not* part of the global registry — so
/// reading them for a `stats` response never resets or perturbs the
/// telemetry other consumers drain.
#[derive(Debug)]
pub struct ServerCounters {
    requests: AtomicU64,
    overloaded: AtomicU64,
    timeouts: AtomicU64,
    errors: AtomicU64,
    degraded: AtomicU64,
    latency: [obs::LocalHistogram; REQUEST_KINDS.len()],
}

impl Default for ServerCounters {
    fn default() -> Self {
        ServerCounters {
            requests: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            latency: std::array::from_fn(|_| obs::LocalHistogram::new()),
        }
    }
}

impl ServerCounters {
    /// One request fully processed, taking `micros` end to end.
    /// `kind` is the command tag (or `"bad_request"`).
    pub fn request(&self, kind: &str, micros: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.latency[kind_index(kind)].record(micros);
    }

    /// One request rejected by admission control.
    pub fn overloaded(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// One request that blew its deadline.
    pub fn timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// One request answered with an error response.
    pub fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// One compilation that fell back to the degraded profile.
    pub fn degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests processed so far.
    pub fn requests_total(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Admission rejections so far.
    pub fn overloaded_total(&self) -> u64 {
        self.overloaded.load(Ordering::Relaxed)
    }

    /// Deadline misses so far.
    pub fn timeouts_total(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Error responses so far.
    pub fn errors_total(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Degraded compiles so far.
    pub fn degraded_total(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The latency histogram for one request kind (read-only view;
    /// reading never resets anything).
    #[cfg(test)]
    pub fn latency(&self, kind: &str) -> &obs::LocalHistogram {
        &self.latency[kind_index(kind)]
    }

    /// Iterate `(kind, histogram)` over the kinds that have recorded
    /// at least one request, in [`REQUEST_KINDS`] order.
    pub fn latencies(&self) -> impl Iterator<Item = (&'static str, &obs::LocalHistogram)> {
        REQUEST_KINDS
            .iter()
            .zip(self.latency.iter())
            .filter(|(_, h)| h.count() > 0)
            .map(|(k, h)| (*k, h))
    }
}

impl Server {
    /// The full `stats` payload as a JSON object — the body of the
    /// wire `stats` response and of the HTTP `/stats.json` endpoint,
    /// byte-identical between the two so dashboards can use either.
    pub fn stats_json(&self) -> Json {
        let counters = &self.inner.counters;
        let cache_json = {
            let cache = self.inner.cache.lock().expect("cache poisoned");
            Json::obj([
                ("hits", num(cache.hits)),
                ("misses", num(cache.misses)),
                ("evictions", num(cache.evictions)),
                ("entries", num(cache.len() as u64)),
                ("capacity", num(cache.capacity() as u64)),
            ])
        };
        let kbs = self.inner.registry.lock().expect("registry poisoned").len();
        // Per-request-type latency from the always-on local histograms;
        // reading them is non-destructive, so repeated `stats` calls
        // (and any telemetry drain) see consistent numbers.
        let latency_json = Json::obj(
            counters
                .latencies()
                .map(|(kind, h)| {
                    (
                        kind,
                        Json::obj([
                            ("count", num(h.count())),
                            ("max", num(h.max())),
                            ("p50", num(h.percentile(0.50).unwrap_or(0))),
                            ("p95", num(h.percentile(0.95).unwrap_or(0))),
                            ("p99", num(h.percentile(0.99).unwrap_or(0))),
                        ]),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let slow_json = self.slow_log_json();
        let wal_json = match &self.inner.wal {
            None => Json::obj([("enabled", Json::Bool(false))]),
            Some(wal) => {
                let recovery = self
                    .inner
                    .recovery
                    .lock()
                    .expect("recovery poisoned")
                    .unwrap_or_default();
                let wal = wal.lock().expect("wal poisoned");
                Json::obj([
                    ("enabled", Json::Bool(true)),
                    ("sync", Json::str(wal.sync_tag())),
                    ("records", num(wal.records)),
                    ("bytes", num(wal.bytes)),
                    ("appends", num(wal.appends)),
                    ("append_errors", num(wal.append_errors)),
                    ("fsyncs", num(wal.fsyncs)),
                    ("snapshots", num(wal.snapshots)),
                    (
                        "recovery",
                        Json::obj([
                            ("replayed", num(recovery.replayed)),
                            ("replay_errors", num(recovery.replay_errors)),
                            ("snapshot_artifacts", num(recovery.snapshot_artifacts)),
                            ("truncated_bytes", num(recovery.truncated_bytes)),
                            ("boot_micros", num(recovery.boot_micros)),
                        ]),
                    ),
                ])
            }
        };
        let repl_json = match &self.inner.repl {
            Some(repl) => {
                let s = repl.lock().expect("repl poisoned");
                let now = epoch_millis();
                Json::obj([
                    ("role", Json::str("replica")),
                    ("primary", Json::str(&s.primary)),
                    ("connected", Json::Bool(s.connected)),
                    ("diverged", Json::Bool(s.diverged)),
                    ("offset", num(s.offset)),
                    ("target", num(s.target)),
                    ("lag_bytes", num(s.lag_bytes())),
                    ("lag_millis", s.lag_millis(now).map_or(Json::Null, num)),
                    (
                        "last_record_at_millis",
                        s.last_record_at_millis.map_or(Json::Null, num),
                    ),
                    ("stale_millis", s.stale_millis(now).map_or(Json::Null, num)),
                    ("records_applied", num(s.records_applied)),
                    ("apply_errors", num(s.apply_errors)),
                    ("sessions", num(s.sessions)),
                    ("snapshot_artifacts", num(s.snapshot_artifacts)),
                ])
            }
            None => Json::obj([
                ("role", Json::str("primary")),
                (
                    "streams",
                    num(self.inner.repl_streams.load(Ordering::Relaxed)),
                ),
                (
                    "streams_total",
                    num(self.inner.repl_streams_total.load(Ordering::Relaxed)),
                ),
                (
                    "shipped_bytes",
                    num(self.inner.repl_shipped_bytes.load(Ordering::Relaxed)),
                ),
                (
                    "handshakes",
                    num(self.inner.repl_handshakes.load(Ordering::Relaxed)),
                ),
                (
                    "refusals",
                    num(self.inner.repl_refusals.load(Ordering::Relaxed)),
                ),
            ]),
        };
        Json::obj([
            ("requests", num(counters.requests_total())),
            ("overloaded", num(counters.overloaded_total())),
            ("timeouts", num(counters.timeouts_total())),
            ("errors", num(counters.errors_total())),
            ("degraded", num(counters.degraded_total())),
            (
                "uptime_millis",
                num(u64::try_from(self.inner.started.elapsed().as_millis()).unwrap_or(u64::MAX)),
            ),
            (
                "in_flight",
                num(self.inner.in_flight.load(Ordering::Relaxed) as u64),
            ),
            (
                "connections",
                num(self.inner.connections.load(Ordering::Relaxed)),
            ),
            ("kbs", num(kbs as u64)),
            ("cache", cache_json),
            ("request_latency", latency_json),
            ("slow_ms", num(self.inner.config.slow_ms)),
            ("slow_log", slow_json),
            ("wal", wal_json),
            ("repl", repl_json),
            ("kb_profiles", self.kb_profiles_json()),
            ("series", self.series_json()),
        ])
    }

    /// The `slow_log` ring as a JSON array (shared by `stats` and
    /// `/debug/requests.json`). Each entry carries the request's trace
    /// id and a phase breakdown: queue wait, compile time, and the
    /// remaining solve/dispatch time.
    fn slow_log_json(&self) -> Json {
        let log = self.inner.slow_log.lock().expect("slow log poisoned");
        Json::Arr(
            log.iter()
                .map(|e| {
                    Json::obj([
                        ("req", num(e.req)),
                        ("cmd", Json::str(e.cmd)),
                        ("trace", Json::Str(obs::format_trace_id(e.trace))),
                        ("micros", num(e.micros)),
                        ("queue_micros", num(e.queue_micros)),
                        ("compile_micros", num(e.compile_micros)),
                        (
                            "solve_micros",
                            num(e
                                .micros
                                .saturating_sub(e.queue_micros)
                                .saturating_sub(e.compile_micros)),
                        ),
                    ])
                })
                .collect(),
        )
    }

    /// Per-KB workload profiles as a JSON array (sorted by KB name) —
    /// the `kb_profiles` section of `stats`. Rolling counts of the
    /// query/revise mix, formula sizes, per-operator compile
    /// latencies, and cache behaviour, per named KB.
    pub fn kb_profiles_json(&self) -> Json {
        Json::Arr(self.map_kbs(|name, kb| {
            let ops = kb
                .profile
                .ops
                .iter()
                .map(|(tag, op)| {
                    Json::obj([
                        ("op", Json::str(*tag)),
                        ("revises", num(op.revises)),
                        ("input_nodes_total", num(op.input_nodes_total)),
                        ("input_nodes_max", num(op.input_nodes_max)),
                        ("compiles", num(op.compiles)),
                        ("compile_micros_total", num(op.compile_micros_total)),
                        ("compile_micros_max", num(op.compile_micros_max)),
                    ])
                })
                .collect();
            Json::obj([
                ("kb", Json::str(name)),
                ("kind", Json::str(kind_tag(kb.kind))),
                ("letters", num(kb.sig.len() as u64)),
                ("revisions", num(kb.revisions.len() as u64)),
                ("query_commands", num(kb.profile.query_commands)),
                ("queries", num(kb.profile.queries)),
                ("query_nodes_total", num(kb.profile.query_nodes_total)),
                ("query_nodes_max", num(kb.profile.query_nodes_max)),
                ("cache_hits", num(kb.profile.cache_hits)),
                ("cache_misses", num(kb.profile.cache_misses)),
                (
                    "cache_hit_ratio",
                    kb.profile.hit_ratio().map_or(Json::Null, Json::Num),
                ),
                ("ops", Json::Arr(ops)),
                (
                    "compiled_size",
                    kb.engine
                        .compiled_size()
                        .map_or(Json::Null, |s| num(s as u64)),
                ),
            ])
        }))
    }

    /// The sampler's ring buffers as a JSON object — the body of the
    /// HTTP `/series.json` endpoint and the `series` section of
    /// `stats`. Counter series hold per-tick deltas, gauge series raw
    /// values; timestamps are milliseconds since the sampler started.
    pub fn series_json(&self) -> Json {
        let sampler = self.inner.sampler.lock().expect("sampler poisoned");
        let (interval_ms, capacity, series) = match sampler.as_ref() {
            Some(s) => {
                let interval_ms = s.interval().as_millis() as u64;
                // One store lock at a time: a guard held across a
                // second `lock()` of the same mutex would self-deadlock.
                let capacity = {
                    let store = s.store();
                    let store = store.lock().expect("series store poisoned");
                    store.capacity()
                };
                (interval_ms, capacity, s.series())
            }
            None => (obs::sample_interval().as_millis() as u64, 0, Vec::new()),
        };
        let arr = series
            .into_iter()
            .map(|s| {
                let points = s
                    .points
                    .iter()
                    .map(|(at, v)| Json::Arr(vec![num(*at), num(*v)]))
                    .collect();
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("kind", Json::str(s.kind.tag())),
                    ("points", Json::Arr(points)),
                ])
            })
            .collect();
        Json::obj([
            ("interval_ms", num(interval_ms)),
            ("capacity", num(capacity as u64)),
            ("series", Json::Arr(arr)),
        ])
    }

    // ------------------------------------------------ metrics plane

    /// Render the Prometheus text-exposition page behind `/metrics`.
    ///
    /// This server's own state first — requests, latency histograms,
    /// cache, WAL, replication, per-KB workload profiles — then, when
    /// `REVKB_TRACE` enables the workspace registry, its instruments
    /// under the `revkb_obs_` prefix.
    pub fn metrics_text(&self) -> String {
        let mut page = http::PromText::new();
        let counters = &self.inner.counters;
        page.header(
            "server.requests.total",
            "counter",
            "Requests fully processed (any outcome).",
        );
        page.sample("server.requests.total", &[], counters.requests_total());
        page.header(
            "server.overloaded.total",
            "counter",
            "Requests rejected by admission control.",
        );
        page.sample("server.overloaded.total", &[], counters.overloaded_total());
        page.header(
            "server.timeouts.total",
            "counter",
            "Requests that exceeded their deadline.",
        );
        page.sample("server.timeouts.total", &[], counters.timeouts_total());
        page.header(
            "server.errors.total",
            "counter",
            "Requests answered with a protocol-level error.",
        );
        page.sample("server.errors.total", &[], counters.errors_total());
        page.header(
            "server.degraded.total",
            "counter",
            "Compilations that fell back to the degraded profile.",
        );
        page.sample("server.degraded.total", &[], counters.degraded_total());
        page.header(
            "server.in_flight",
            "gauge",
            "Requests currently admitted and unfinished.",
        );
        page.sample(
            "server.in_flight",
            &[],
            self.inner.in_flight.load(Ordering::Relaxed) as u64,
        );
        page.header(
            "server.connections",
            "gauge",
            "Data-plane connections currently open.",
        );
        page.sample(
            "server.connections",
            &[],
            self.inner.connections.load(Ordering::Relaxed),
        );
        page.header(
            "server.request.micros",
            "histogram",
            "End-to-end request latency in microseconds, per command.",
        );
        for (kind, h) in counters.latencies() {
            let buckets: Vec<(usize, u64)> = (0..obs::HIST_BUCKETS)
                .filter_map(|b| {
                    let c = h.bucket(b);
                    (c > 0).then_some((b, c))
                })
                .collect();
            page.histogram(
                "server.request.micros",
                &[("cmd", kind)],
                h.count(),
                h.sum(),
                &buckets,
            );
        }
        {
            let cache = self.inner.cache.lock().expect("cache poisoned");
            page.header("server.cache.hits.total", "counter", "Artifact-cache hits.");
            page.sample("server.cache.hits.total", &[], cache.hits);
            page.header(
                "server.cache.misses.total",
                "counter",
                "Artifact-cache misses.",
            );
            page.sample("server.cache.misses.total", &[], cache.misses);
            page.header(
                "server.cache.evictions.total",
                "counter",
                "Artifact-cache evictions.",
            );
            page.sample("server.cache.evictions.total", &[], cache.evictions);
            page.header(
                "server.cache.entries",
                "gauge",
                "Artifacts currently cached.",
            );
            page.sample("server.cache.entries", &[], cache.len() as u64);
        }
        if let Some(wal) = &self.inner.wal {
            let wal = wal.lock().expect("wal poisoned");
            page.header("wal.records.total", "counter", "WAL records appended.");
            page.sample("wal.records.total", &[], wal.records);
            page.header(
                "wal.bytes.total",
                "counter",
                "Committed log length in bytes.",
            );
            page.sample("wal.bytes.total", &[], wal.bytes);
            page.header("wal.appends.total", "counter", "WAL append calls.");
            page.sample("wal.appends.total", &[], wal.appends);
            page.header(
                "wal.append.errors.total",
                "counter",
                "WAL appends that failed with an I/O error.",
            );
            page.sample("wal.append.errors.total", &[], wal.append_errors);
            page.header(
                "wal.fsyncs.total",
                "counter",
                "sync_all calls issued on the WAL.",
            );
            page.sample("wal.fsyncs.total", &[], wal.fsyncs);
            page.header(
                "wal.snapshots.total",
                "counter",
                "Artifact snapshots written.",
            );
            page.sample("wal.snapshots.total", &[], wal.snapshots);
        }
        match &self.inner.repl {
            Some(repl) => {
                let s = repl.lock().expect("repl poisoned");
                let now = epoch_millis();
                page.header(
                    "repl.connected",
                    "gauge",
                    "1 while the replication stream is up.",
                );
                page.sample("repl.connected", &[], u64::from(s.connected));
                page.header(
                    "repl.diverged",
                    "gauge",
                    "1 once the divergence detector has fired.",
                );
                page.sample("repl.diverged", &[], u64::from(s.diverged));
                page.header(
                    "repl.offset",
                    "gauge",
                    "Durable replication offset in bytes.",
                );
                page.sample("repl.offset", &[], s.offset);
                page.header(
                    "repl.lag.bytes",
                    "gauge",
                    "Byte lag behind the primary's committed log.",
                );
                page.sample("repl.lag.bytes", &[], s.lag_bytes());
                if let Some(lag) = s.lag_millis(now) {
                    page.header(
                        "repl.lag.millis",
                        "gauge",
                        "Time lag behind the primary's wall clock in milliseconds.",
                    );
                    page.sample("repl.lag.millis", &[], lag);
                }
                if let Some(stale) = s.stale_millis(now) {
                    page.header(
                        "repl.stale.millis",
                        "gauge",
                        "Milliseconds since the stream last delivered anything.",
                    );
                    page.sample("repl.stale.millis", &[], stale);
                }
                page.header(
                    "repl.records.applied.total",
                    "counter",
                    "Shipped records applied by this replica.",
                );
                page.sample("repl.records.applied.total", &[], s.records_applied);
                page.header(
                    "repl.apply.errors.total",
                    "counter",
                    "Shipped records that failed to re-apply.",
                );
                page.sample("repl.apply.errors.total", &[], s.apply_errors);
                page.header(
                    "repl.sessions.total",
                    "counter",
                    "Replication sessions established.",
                );
                page.sample("repl.sessions.total", &[], s.sessions);
            }
            None => {
                page.header(
                    "repl.streams",
                    "gauge",
                    "Replication streams currently being served.",
                );
                page.sample(
                    "repl.streams",
                    &[],
                    self.inner.repl_streams.load(Ordering::Relaxed),
                );
                page.header(
                    "repl.streams.total",
                    "counter",
                    "Replication streams served (lifetime).",
                );
                page.sample(
                    "repl.streams.total",
                    &[],
                    self.inner.repl_streams_total.load(Ordering::Relaxed),
                );
                page.header(
                    "repl.shipped.bytes.total",
                    "counter",
                    "Raw WAL bytes shipped to replicas.",
                );
                page.sample(
                    "repl.shipped.bytes.total",
                    &[],
                    self.inner.repl_shipped_bytes.load(Ordering::Relaxed),
                );
                page.header(
                    "repl.handshakes.total",
                    "counter",
                    "Replication handshakes accepted.",
                );
                page.sample(
                    "repl.handshakes.total",
                    &[],
                    self.inner.repl_handshakes.load(Ordering::Relaxed),
                );
                page.header(
                    "repl.refusals.total",
                    "counter",
                    "Handshakes refused for divergence.",
                );
                page.sample(
                    "repl.refusals.total",
                    &[],
                    self.inner.repl_refusals.load(Ordering::Relaxed),
                );
            }
        }
        page.header(
            "build.info",
            "gauge",
            "Build metadata (constant 1, data in the labels).",
        );
        let protocol = PROTOCOL_VERSION.to_string();
        page.sample(
            "build.info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("git", option_env!("REVKB_GIT_SHA").unwrap_or("unknown")),
                ("protocol", &protocol),
            ],
            1,
        );
        page.header(
            "uptime.seconds",
            "counter",
            "Seconds since the server was constructed.",
        );
        page.sample(
            "uptime.seconds",
            &[],
            self.inner.started.elapsed().as_secs(),
        );
        self.kb_metrics(&mut page);
        self.obs_metrics(&mut page);
        page.finish()
    }

    /// The per-KB workload-profile families (`revkb_kb_*`, labelled by
    /// KB name and, for the per-operator families, by operator tag).
    fn kb_metrics(&self, page: &mut http::PromText) {
        struct Row {
            name: String,
            letters: u64,
            revisions: u64,
            compiled_size: Option<u64>,
            profile: KbProfile,
        }
        let rows = self.map_kbs(|name, kb| Row {
            name: name.to_string(),
            letters: kb.sig.len() as u64,
            revisions: kb.revisions.len() as u64,
            compiled_size: kb.engine.compiled_size().map(|s| s as u64),
            profile: kb.profile.clone(),
        });
        page.header(
            "kb.letters",
            "gauge",
            "Alphabet size of the KB's signature.",
        );
        for row in &rows {
            page.sample("kb.letters", &[("kb", &row.name)], row.letters);
        }
        page.header("kb.revisions.total", "counter", "Revisions applied per KB.");
        for row in &rows {
            page.sample("kb.revisions.total", &[("kb", &row.name)], row.revisions);
        }
        page.header("kb.queries.total", "counter", "Queries answered per KB.");
        for row in &rows {
            page.sample(
                "kb.queries.total",
                &[("kb", &row.name)],
                row.profile.queries,
            );
        }
        page.header(
            "kb.query.commands.total",
            "counter",
            "Query commands (single or batch) per KB.",
        );
        for row in &rows {
            page.sample(
                "kb.query.commands.total",
                &[("kb", &row.name)],
                row.profile.query_commands,
            );
        }
        page.header(
            "kb.query.nodes.total",
            "counter",
            "Formula nodes across all queries per KB.",
        );
        for row in &rows {
            page.sample(
                "kb.query.nodes.total",
                &[("kb", &row.name)],
                row.profile.query_nodes_total,
            );
        }
        page.header(
            "kb.cache.hits.total",
            "counter",
            "Artifact-cache hits attributed to the KB's revises.",
        );
        for row in &rows {
            page.sample(
                "kb.cache.hits.total",
                &[("kb", &row.name)],
                row.profile.cache_hits,
            );
        }
        page.header(
            "kb.cache.misses.total",
            "counter",
            "Artifact-cache misses attributed to the KB's revises.",
        );
        for row in &rows {
            page.sample(
                "kb.cache.misses.total",
                &[("kb", &row.name)],
                row.profile.cache_misses,
            );
        }
        page.header(
            "kb.compiled.size",
            "gauge",
            "Compiled representation size of the KB's engine, when it reports one.",
        );
        for row in &rows {
            if let Some(size) = row.compiled_size {
                page.sample("kb.compiled.size", &[("kb", &row.name)], size);
            }
        }
        page.header(
            "kb.op.revises.total",
            "counter",
            "Revisions per KB and operator.",
        );
        for row in &rows {
            for (tag, op) in &row.profile.ops {
                page.sample(
                    "kb.op.revises.total",
                    &[("kb", &row.name), ("op", tag)],
                    op.revises,
                );
            }
        }
        page.header(
            "kb.op.input.nodes.total",
            "counter",
            "Formula nodes across revision inputs, per KB and operator.",
        );
        for row in &rows {
            for (tag, op) in &row.profile.ops {
                page.sample(
                    "kb.op.input.nodes.total",
                    &[("kb", &row.name), ("op", tag)],
                    op.input_nodes_total,
                );
            }
        }
        page.header(
            "kb.op.compiles.total",
            "counter",
            "Finished compiles per KB and operator.",
        );
        for row in &rows {
            for (tag, op) in &row.profile.ops {
                page.sample(
                    "kb.op.compiles.total",
                    &[("kb", &row.name), ("op", tag)],
                    op.compiles,
                );
            }
        }
        page.header(
            "kb.op.compile.micros.total",
            "counter",
            "Microseconds spent compiling, per KB and operator.",
        );
        for row in &rows {
            for (tag, op) in &row.profile.ops {
                page.sample(
                    "kb.op.compile.micros.total",
                    &[("kb", &row.name), ("op", tag)],
                    op.compile_micros_total,
                );
            }
        }
    }

    /// The trace-gated workspace registry, exported verbatim under
    /// `revkb_obs_*`. Empty (and therefore absent) unless the process
    /// runs with `REVKB_TRACE` enabled. It is process-wide: it holds the
    /// engines' instruments and `wal.append.micros`, never a copy of a
    /// server's own counters.
    fn obs_metrics(&self, page: &mut http::PromText) {
        let snap = obs::snapshot();
        for (name, value) in &snap.counters {
            let raw = format!("obs.{name}.total");
            page.header(
                &raw,
                "counter",
                "Workspace telemetry counter (REVKB_TRACE).",
            );
            page.sample(&raw, &[], *value);
        }
        for (name, value) in &snap.gauges {
            let raw = format!("obs.{name}");
            page.header(&raw, "gauge", "Workspace telemetry gauge (REVKB_TRACE).");
            page.sample(&raw, &[], *value);
        }
        for h in &snap.histograms {
            let raw = format!("obs.{}", h.name);
            page.header(
                &raw,
                "histogram",
                "Workspace telemetry histogram (REVKB_TRACE).",
            );
            page.histogram(&raw, &[], h.count, h.sum, &h.buckets);
        }
    }

    /// Liveness/readiness verdict for `/readyz`: `(ready, body)`.
    /// Not ready while shutting down, while a primary is replaying its
    /// log, or when a replica has diverged, never connected, or lost
    /// its stream for at least [`READY_STALE_MS`] milliseconds. A
    /// short disconnect within that budget stays ready: reconnects
    /// with backoff are normal operation.
    pub fn readiness(&self) -> (bool, Json) {
        let mut reasons: Vec<String> = Vec::new();
        if self.is_shutting_down() {
            reasons.push("shutting down".to_string());
        }
        if self.inner.repl.is_none() && self.inner.replaying.load(Ordering::SeqCst) {
            reasons.push("replaying the write-ahead log".to_string());
        }
        if let Some(repl) = &self.inner.repl {
            let s = repl.lock().expect("repl poisoned");
            if s.diverged {
                reasons.push("replica diverged from its primary".to_string());
            } else if s.sessions == 0 {
                reasons.push("replica has never connected to its primary".to_string());
            } else if !s.connected {
                if let Some(stale) = s.stale_millis(epoch_millis()) {
                    if stale >= READY_STALE_MS {
                        reasons.push(format!("replication stream stale for {stale} ms"));
                    }
                }
            }
        }
        let ready = reasons.is_empty();
        let body = Json::obj([
            ("ready", Json::Bool(ready)),
            (
                "reasons",
                Json::Arr(reasons.iter().map(Json::str).collect()),
            ),
        ]);
        (ready, body)
    }

    /// Answer one `GET` outside `/v1`: the route table of the
    /// gateway's metrics and debug endpoints, with 404 for any other
    /// path. `query` is the raw query string (without the `?`), used
    /// by the `/debug/*` routes for filtering. Public so tests can
    /// exercise the endpoints without a live socket.
    pub fn metrics_route(&self, path: &str, query: &str) -> http::Response {
        fn json_body(json: Json) -> String {
            let mut body = json.render();
            body.push('\n');
            body
        }
        match path {
            "/metrics" => http::Response::ok(http::PROM_CONTENT_TYPE, self.metrics_text()),
            "/stats.json" => {
                http::Response::ok(http::JSON_CONTENT_TYPE, json_body(self.stats_json()))
            }
            "/series.json" => {
                http::Response::ok(http::JSON_CONTENT_TYPE, json_body(self.series_json()))
            }
            "/healthz" => {
                let role = if self.inner.repl.is_some() {
                    "replica"
                } else {
                    "primary"
                };
                http::Response::ok(
                    http::JSON_CONTENT_TYPE,
                    json_body(Json::obj([
                        ("ok", Json::Bool(true)),
                        ("role", Json::str(role)),
                        ("requests", num(self.inner.counters.requests_total())),
                    ])),
                )
            }
            "/readyz" => {
                let (ready, body) = self.readiness();
                http::Response {
                    status: if ready { 200 } else { 503 },
                    content_type: http::JSON_CONTENT_TYPE,
                    body: json_body(body),
                }
            }
            "/debug/trace.json" => {
                // The flight recorder's ring as a loadable Chrome
                // trace — available in every mode, REVKB_TRACE or not.
                let trace = obs::chrome_trace(&obs::flight_snapshot(), &[]);
                http::Response::ok(http::JSON_CONTENT_TYPE, trace)
            }
            "/debug/logs.json" => {
                let level = query_param(query, "level").and_then(|v| obs::Level::parse(&v));
                let trace = query_param(query, "trace").and_then(|v| obs::parse_trace_id(&v));
                let records: Vec<obs::LogRecord> = obs::log_ring_snapshot()
                    .into_iter()
                    .filter(|r| level.is_none_or(|want| r.level <= want))
                    .filter(|r| trace.is_none_or(|want| r.trace == Some(want)))
                    .collect();
                let mut body = String::with_capacity(records.len() * 96 + 32);
                body.push_str("{\"count\":");
                body.push_str(&records.len().to_string());
                body.push_str(",\"logs\":[");
                for (i, r) in records.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(&r.render_json());
                }
                body.push_str("]}\n");
                http::Response::ok(http::JSON_CONTENT_TYPE, body)
            }
            "/debug/requests.json" => {
                let now = Instant::now();
                let in_flight = {
                    let active = self.inner.active.lock().expect("active table poisoned");
                    let mut entries: Vec<(u64, ActiveRequest)> =
                        active.iter().map(|(req, e)| (*req, *e)).collect();
                    entries.sort_unstable_by_key(|(req, _)| *req);
                    Json::Arr(
                        entries
                            .into_iter()
                            .map(|(req, e)| {
                                Json::obj([
                                    ("req", num(req)),
                                    ("cmd", Json::str(e.cmd)),
                                    ("trace", Json::Str(obs::format_trace_id(e.trace))),
                                    (
                                        "running_micros",
                                        num(u64::try_from(
                                            now.saturating_duration_since(e.started).as_micros(),
                                        )
                                        .unwrap_or(u64::MAX)),
                                    ),
                                ])
                            })
                            .collect(),
                    )
                };
                http::Response::ok(
                    http::JSON_CONTENT_TYPE,
                    json_body(Json::obj([
                        ("in_flight", in_flight),
                        ("slow_ms", num(self.inner.config.slow_ms)),
                        ("slow_log", self.slow_log_json()),
                    ])),
                )
            }
            other => http::Response::not_found(other),
        }
    }
}

/// One sampler tick's worth of cumulative observations from the
/// server's own counters. The process-wide `obs` registry is not
/// sampled: it is empty with tracing off and shared between servers.
pub(super) fn sample_observations(inner: &Inner) -> Vec<obs::Observation> {
    use obs::Observation as Obs;
    let counters = &inner.counters;
    let mut out = Vec::with_capacity(24);
    out.push(Obs::counter("server.requests", counters.requests_total()));
    for (kind, h) in counters.latencies() {
        out.push(Obs::counter(format!("server.requests.{kind}"), h.count()));
    }
    out.push(Obs::counter(
        "server.overloaded",
        counters.overloaded_total(),
    ));
    out.push(Obs::counter("server.timeouts", counters.timeouts_total()));
    out.push(Obs::counter("server.errors", counters.errors_total()));
    out.push(Obs::counter("server.degraded", counters.degraded_total()));
    {
        let cache = inner.cache.lock().expect("cache poisoned");
        out.push(Obs::counter("server.cache.hits", cache.hits));
        out.push(Obs::counter("server.cache.misses", cache.misses));
        out.push(Obs::counter("server.cache.evictions", cache.evictions));
    }
    out.push(Obs::gauge(
        "server.in_flight",
        inner.in_flight.load(Ordering::Relaxed) as u64,
    ));
    out.push(Obs::gauge(
        "server.connections",
        inner.connections.load(Ordering::Relaxed),
    ));
    out.push(Obs::gauge(
        "server.kbs",
        inner.registry.lock().expect("registry poisoned").len() as u64,
    ));
    if let Some(wal) = &inner.wal {
        let wal = wal.lock().expect("wal poisoned");
        out.push(Obs::counter("wal.bytes", wal.bytes));
        out.push(Obs::counter("wal.appends", wal.appends));
        out.push(Obs::counter("wal.fsyncs", wal.fsyncs));
    }
    match &inner.repl {
        Some(repl) => {
            let s = repl.lock().expect("repl poisoned");
            out.push(Obs::counter("repl.records_applied", s.records_applied));
            out.push(Obs::gauge("repl.lag.bytes", s.lag_bytes()));
            if let Some(lag) = s.lag_millis(epoch_millis()) {
                out.push(Obs::gauge("repl.lag.millis", lag));
            }
        }
        None => {
            out.push(Obs::counter(
                "repl.shipped.bytes",
                inner.repl_shipped_bytes.load(Ordering::Relaxed),
            ));
        }
    }
    out
}

/// Value of `name` in a raw query string (`a=1&b=2`); no
/// percent-decoding — the `/debug/*` filter values (level names, hex
/// trace ids) never need it.
fn query_param(query: &str, name: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then(|| v.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_without_tracing() {
        // REVKB_TRACE is off in tests: the counters move regardless.
        let c = ServerCounters::default();
        c.request("ping", 10);
        c.request("query", 20);
        c.overloaded();
        c.timeout();
        c.error();
        c.degraded();
        assert_eq!(c.requests_total(), 2);
        assert_eq!(c.overloaded_total(), 1);
        assert_eq!(c.timeouts_total(), 1);
        assert_eq!(c.errors_total(), 1);
        assert_eq!(c.degraded_total(), 1);
    }

    #[test]
    fn per_kind_latency_is_bucketed_and_nondestructive() {
        let c = ServerCounters::default();
        c.request("query", 10);
        c.request("query", 30);
        c.request("revise", 1000);
        c.request("no-such-kind", 7); // falls into the bad_request bucket
        assert_eq!(c.latency("query").count(), 2);
        assert_eq!(c.latency("query").max(), 30);
        assert_eq!(c.latency("revise").count(), 1);
        assert_eq!(c.latency("bad_request").count(), 1);
        assert_eq!(c.latency("ping").count(), 0);
        // Reading twice gives identical answers: snapshots don't drain.
        let first: Vec<_> = c.latencies().map(|(k, h)| (k, h.count())).collect();
        let second: Vec<_> = c.latencies().map(|(k, h)| (k, h.count())).collect();
        assert_eq!(first, second);
        assert_eq!(first, vec![("revise", 1), ("query", 2), ("bad_request", 1)]);
    }
}
