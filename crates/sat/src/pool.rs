//! A sharded pool of [`QuerySession`]s: the one query engine of a
//! compiled knowledge base.
//!
//! The paper's pipeline amortises one compilation of `T * P` across
//! many queries; [`QuerySession`] already amortises the Tseitin load
//! and the learned clauses across a *sequential* query stream. A
//! [`SessionPool`] serves both single queries and batches from one
//! Tseitin load. Worker 0 is the session: it answers every single
//! query ([`SessionPool::entails`]) and every batch that takes the
//! sequential path, so singles and batches share one memo. The other
//! workers are forks of worker 0 ([`QuerySession::fork`]), made when a
//! batch first takes the parallel path; a pool that never runs one —
//! single queries only, or one configured thread — holds one solver.
//! A parallel batch answers each query some worker has memoised on
//! that worker, so a query answered in an earlier batch never reaches
//! a solver again, answers NO each query that a countermodel some
//! worker stored falsifies, and shards the rest over the workers with a simple
//! atomic work queue ([`SessionPool::par_entails_batch`]). Small
//! batches fall back to the sequential path automatically — spawning
//! threads for three queries costs more than it saves.
//!
//! Answers are **bit-identical** to the sequential path by
//! construction: every worker holds the same loaded base, entailment
//! is a semantic property of that base, and each answer is written to
//! the slot of its query index — the shard assignment can never change
//! an answer or its position.
//!
//! Worker counts come from [`PoolConfig`]; the default reads the
//! `REVKB_THREADS` environment variable and falls back to
//! [`std::thread::available_parallelism`].
//!
//! Statistics: [`PoolStats`] keeps the per-worker [`SolverStats`]
//! blocks and distinguishes **CPU time** (the sum of per-worker busy
//! time, which double-counts overlapping intervals) from **wall
//! time** (measured elapsed time across batch calls) — see
//! [`SolverStats::merge`] for why the two must not be conflated.

use crate::session::{QuerySession, SolverStats};
use revkb_logic::Formula;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "REVKB_THREADS";

/// The default worker count: `REVKB_THREADS` if set to a positive
/// integer, otherwise the machine's available parallelism (1 if even
/// that is unknown).
///
/// The available parallelism is read once per process: on Linux it
/// parses the process's cgroup files, which costs more than loading a
/// small knowledge base, and every first query of a knowledge base
/// creates a pool.
pub fn default_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Tuning knobs for a [`SessionPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Workers a parallel batch runs on (clamped to at least 1).
    pub threads: usize,
    /// Batches with fewer queries than this are answered sequentially
    /// on one worker — thread spawn and hand-off overhead dwarfs the
    /// solve time of a handful of small queries.
    pub sequential_threshold: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            threads: default_threads(),
            sequential_threshold: 8,
        }
    }
}

impl PoolConfig {
    /// A config with the given worker count and the default threshold.
    pub fn with_threads(threads: usize) -> Self {
        PoolConfig {
            threads,
            ..PoolConfig::default()
        }
    }
}

/// Aggregated statistics of a [`SessionPool`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers a parallel batch runs on (the configured count; see
    /// `per_worker` for the workers built so far).
    pub threads: usize,
    /// Batch calls answered (sequential + parallel).
    pub batches: u64,
    /// Batch calls that ran on the parallel path.
    pub parallel_batches: u64,
    /// Batch calls that fell back to the sequential path.
    pub sequential_batches: u64,
    /// Queries answered across all batches (single queries on worker
    /// 0 are counted in its `per_worker` block, not here).
    pub queries: u64,
    /// Measured elapsed time across batch calls, in microseconds.
    /// This is real wall-clock time: concurrent worker activity is
    /// counted once.
    pub wall_time_micros: u64,
    /// Elapsed time of the most recent batch call, in microseconds.
    pub last_batch_wall_micros: u64,
    /// Counters of the workers built so far: worker 0, plus the
    /// forks once a batch has taken the parallel path.
    pub per_worker: Vec<SolverStats>,
}

impl PoolStats {
    /// All per-worker counters folded into one block. Its
    /// `total_query_micros` is the **CPU-time total** (summed busy
    /// time, overlapping intervals double-counted); compare it with
    /// [`PoolStats::wall_time_micros`] to see the parallel speed-up.
    pub fn merged(&self) -> SolverStats {
        let mut merged = SolverStats::default();
        for w in &self.per_worker {
            merged.merge(w);
        }
        merged
    }

    /// Summed per-worker busy time, in microseconds (CPU-style
    /// accounting; ≥ wall time whenever workers overlap).
    pub fn cpu_time_total_micros(&self) -> u64 {
        self.merged().total_query_micros
    }

    /// Render as a JSON object (stable key order, no dependencies).
    pub fn to_json(&self) -> String {
        let per_worker = self
            .per_worker
            .iter()
            .map(SolverStats::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"threads\":{},\"batches\":{},\"parallel_batches\":{},\
             \"sequential_batches\":{},\"queries\":{},\
             \"cpu_time_total_micros\":{},\"wall_time_micros\":{},\
             \"last_batch_wall_micros\":{},\"merged\":{},\
             \"per_worker\":[{}]}}",
            self.threads,
            self.batches,
            self.parallel_batches,
            self.sequential_batches,
            self.queries,
            self.cpu_time_total_micros(),
            self.wall_time_micros,
            self.last_batch_wall_micros,
            self.merged().to_json(),
            per_worker,
        )
    }
}

/// A pool of worker [`QuerySession`]s over one compiled base: worker
/// 0 loads the base and answers single queries and sequential batches;
/// the other workers are forked from it at the first parallel batch.
///
/// ```
/// use revkb_logic::{Formula, Var};
/// use revkb_sat::{PoolConfig, SessionPool};
///
/// let v = |i| Formula::var(Var(i));
/// let base = v(0).and(v(1)).and(v(2));
/// let mut pool = SessionPool::with_config(
///     &base,
///     PoolConfig { threads: 4, sequential_threshold: 2 },
/// );
/// let queries: Vec<Formula> = (0..3).map(v).collect();
/// assert_eq!(pool.par_entails_batch(&queries), vec![true, true, true]);
/// let stats = pool.stats();
/// assert_eq!(stats.threads, 4);
/// assert_eq!(stats.queries, 3);
/// ```
#[derive(Debug)]
pub struct SessionPool {
    /// Worker 0, then the forks made at the first parallel batch.
    workers: Vec<QuerySession>,
    threads: usize,
    sequential_threshold: usize,
    batches: u64,
    parallel_batches: u64,
    sequential_batches: u64,
    queries: u64,
    wall_time_micros: u64,
    last_batch_wall_micros: u64,
}

impl SessionPool {
    /// A pool over `base` with the default configuration
    /// (`REVKB_THREADS` / available parallelism).
    pub fn new(base: &Formula) -> Self {
        Self::with_config(base, PoolConfig::default())
    }

    /// A pool over `base` with an explicit configuration.
    pub fn with_config(base: &Formula, config: PoolConfig) -> Self {
        Self::with_session(QuerySession::new(base), config)
    }

    /// A pool whose worker 0 is `first`, a session that has loaded its
    /// base already (for example [`QuerySession::with_query_alphabet`]
    /// or [`QuerySession::from_clauses`]).
    pub fn with_session(first: QuerySession, config: PoolConfig) -> Self {
        SessionPool {
            workers: vec![first],
            threads: config.threads.max(1),
            sequential_threshold: config.sequential_threshold,
            batches: 0,
            parallel_batches: 0,
            sequential_batches: 0,
            queries: 0,
            wall_time_micros: 0,
            last_batch_wall_micros: 0,
        }
    }

    /// Workers a parallel batch runs on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Answer one query on worker 0, the pool's session. It shares
    /// worker 0's memo with the sequential batches and is not counted
    /// as a batch.
    ///
    /// # Panics
    ///
    /// As [`QuerySession::entails`]: if the query collides with the
    /// base's internal Tseitin letters.
    pub fn entails(&mut self, q: &Formula) -> bool {
        self.workers[0].entails(q)
    }

    /// Counters of worker 0, the session that answers single queries.
    pub fn session_stats(&self) -> SolverStats {
        self.workers[0].stats()
    }

    /// Answer a batch sequentially on the first worker. The answer at
    /// index `i` is for `queries[i]`.
    ///
    /// # Panics
    ///
    /// As [`QuerySession::entails`]: if a query collides with the
    /// base's internal Tseitin letters.
    pub fn entails_batch(&mut self, queries: &[Formula]) -> Vec<bool> {
        let _span = revkb_obs::span("sat.pool.batch");
        let start = Instant::now();
        let answers = queries.iter().map(|q| self.workers[0].entails(q)).collect();
        self.sequential_batches += 1;
        self.finish_batch(start, queries.len());
        answers
    }

    /// Answer a batch in parallel. A query some worker has answered
    /// before is answered again from that worker's memo, and one that a
    /// countermodel some worker stored falsifies is answered NO by that
    /// worker ([`QuerySession::refuted`]); the rest are
    /// sharded over the workers through an atomic work queue, so a slow
    /// query on one worker does not hold up the rest of the batch. The
    /// answer at index `i` is for `queries[i]`, exactly as in
    /// [`SessionPool::entails_batch`] — parallelism never changes an
    /// answer or its position.
    ///
    /// Batches smaller than the configured `sequential_threshold`
    /// (and every batch on a 1-thread pool) take the sequential path.
    /// The first batch that takes the parallel path forks the other
    /// workers from worker 0, memo and learned clauses included; the
    /// base is never Tseitin-loaded again.
    ///
    /// # Panics
    ///
    /// As [`QuerySession::entails`]: if a query collides with the
    /// base's internal Tseitin letters.
    pub fn par_entails_batch(&mut self, queries: &[Formula]) -> Vec<bool> {
        if self.threads == 1 || queries.len() < self.sequential_threshold {
            return self.entails_batch(queries);
        }
        let _span = revkb_obs::span("sat.pool.batch");
        let start = Instant::now();
        while self.workers.len() < self.threads {
            let fork = self.workers[0].fork();
            self.workers.push(fork);
        }
        let mut answers = vec![false; queries.len()];
        let mut open = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            match self.workers.iter_mut().find_map(|w| w.memoised(q)) {
                Some(answer) => answers[i] = answer,
                None if self.workers.iter_mut().any(|w| w.refuted(q)) => answers[i] = false,
                None => open.push(i),
            }
        }
        let next = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, bool)>> = std::thread::scope(|scope| {
            if open.is_empty() {
                return Vec::new();
            }
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .map(|worker| {
                    let (next, open) = (&next, &open);
                    scope.spawn(move || {
                        let _span = revkb_obs::span("sat.pool.worker");
                        let mut taken = Vec::new();
                        while let Some(&i) = open.get(next.fetch_add(1, Ordering::Relaxed)) {
                            taken.push((i, worker.entails(&queries[i])));
                        }
                        taken
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(taken) => taken,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        for (i, answer) in per_worker.into_iter().flatten() {
            answers[i] = answer;
        }
        self.parallel_batches += 1;
        self.finish_batch(start, queries.len());
        answers
    }

    fn finish_batch(&mut self, start: Instant, queries: usize) {
        let micros = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.batches += 1;
        self.queries += queries as u64;
        self.wall_time_micros += micros;
        self.last_batch_wall_micros = micros;
    }

    /// Current pool statistics (per-worker blocks plus batch and
    /// wall-time accounting).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            batches: self.batches,
            parallel_batches: self.parallel_batches,
            sequential_batches: self.sequential_batches,
            queries: self.queries,
            wall_time_micros: self.wall_time_micros,
            last_batch_wall_micros: self.last_batch_wall_micros,
            per_worker: self.workers.iter().map(QuerySession::stats).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::pseudo_random_formula;
    use revkb_logic::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    fn forced_parallel(threads: usize) -> PoolConfig {
        PoolConfig {
            threads,
            sequential_threshold: 0,
        }
    }

    #[test]
    fn parallel_matches_sequential_on_random_batch() {
        let base = v(0).implies(v(1)).and(v(0)).and(v(2).or(v(3)));
        let mut seed = 0x9001u64;
        let queries: Vec<Formula> = (0..64)
            .map(|_| pseudo_random_formula(&mut seed, 3, 4))
            .collect();
        let mut seq_pool = SessionPool::with_config(&base, PoolConfig::with_threads(1));
        let mut par_pool = SessionPool::with_config(&base, forced_parallel(4));
        let seq = seq_pool.entails_batch(&queries);
        let par = par_pool.par_entails_batch(&queries);
        assert_eq!(seq, par, "parallel path changed an answer");
        // Cross-check a few against the one-shot path.
        for (q, &a) in queries.iter().zip(&seq).take(8) {
            assert_eq!(a, crate::entails(&base, q), "one-shot disagrees on {q:?}");
        }
    }

    #[test]
    fn small_batch_falls_back_to_sequential() {
        let mut pool = SessionPool::with_config(
            &v(0).and(v(1)),
            PoolConfig {
                threads: 4,
                sequential_threshold: 8,
            },
        );
        let queries = vec![v(0), v(1).not()];
        assert_eq!(pool.par_entails_batch(&queries), vec![true, false]);
        let stats = pool.stats();
        assert_eq!(stats.sequential_batches, 1);
        assert_eq!(stats.parallel_batches, 0);
        // Only worker 0 exists, and it saw the queries.
        assert_eq!(stats.per_worker.len(), 1);
        assert_eq!(stats.per_worker[0].queries, 2);
    }

    #[test]
    fn one_thread_pool_never_spawns() {
        let mut pool = SessionPool::with_config(&v(0), forced_parallel(1));
        let queries: Vec<Formula> = (0..20).map(|_| v(0)).collect();
        assert!(pool.par_entails_batch(&queries).iter().all(|&a| a));
        let stats = pool.stats();
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.sequential_batches, 1);
    }

    #[test]
    fn stats_account_batches_and_queries() {
        let base = v(0).and(v(1));
        let mut pool = SessionPool::with_config(&base, forced_parallel(3));
        let queries: Vec<Formula> = (0..30).map(|i| v(i % 2)).collect();
        pool.par_entails_batch(&queries);
        pool.entails_batch(&queries[..5]);
        let stats = pool.stats();
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.parallel_batches, 1);
        assert_eq!(stats.sequential_batches, 1);
        assert_eq!(stats.queries, 35);
        let merged = stats.merged();
        assert_eq!(merged.queries, 35);
        // One Tseitin load: workers 1 and 2 are forks of worker 0.
        assert_eq!(merged.base_loads, 1);
        assert_eq!(merged.solver_constructions, 1);
        assert_eq!(stats.per_worker.len(), 3);
        // CPU total sums worker busy time; wall time is measured once.
        assert_eq!(
            stats.cpu_time_total_micros(),
            merged.total_query_micros,
            "cpu_time_total is the merged busy-time sum"
        );
    }

    #[test]
    fn singles_share_worker_zero_and_forks_wait_for_a_parallel_batch() {
        let base = v(0).and(v(1));
        let mut pool = SessionPool::with_config(
            &base,
            PoolConfig {
                threads: 4,
                sequential_threshold: 4,
            },
        );
        assert!(pool.entails(&v(0)));
        assert!(!pool.entails(&v(0).not()));
        assert_eq!(pool.entails_batch(&[v(0), v(1)]), vec![true, true]);
        let stats = pool.stats();
        assert_eq!(
            stats.per_worker.len(),
            1,
            "no forks before a parallel batch"
        );
        assert_eq!(stats.threads, 4);
        assert_eq!((stats.batches, stats.queries), (1, 2));
        let session = pool.session_stats();
        assert_eq!((session.queries, session.cache_hits), (4, 1));

        let queries: Vec<Formula> = (0..8).map(|i| v(i % 2)).collect();
        assert!(pool.par_entails_batch(&queries).iter().all(|&a| a));
        let stats = pool.stats();
        assert_eq!(stats.per_worker.len(), 4);
        assert_eq!(stats.parallel_batches, 1);
        let merged = stats.merged();
        assert_eq!(merged.queries, 12, "every query counted once");
        assert_eq!((merged.base_loads, merged.solver_constructions), (1, 1));
        // The forks inherited worker 0's memo: every query is a hit.
        assert_eq!(merged.cache_misses, 3);

        // A repeated parallel batch meets every query on a worker that
        // answered it: all hits, each answer memoised once.
        let literal = |i: u32, on: bool| if on { v(i) } else { v(i).not() };
        let fresh: Vec<Formula> = (0..8)
            .map(|i| {
                let (a, b) = (literal(0, i & 1 == 1), literal(1, i & 2 == 2));
                if i & 4 == 4 {
                    a.and(b)
                } else {
                    a.or(b)
                }
            })
            .collect();
        let memo_len = |pool: &SessionPool| -> usize {
            pool.workers.iter().map(QuerySession::cache_len).sum()
        };
        let before = memo_len(&pool);
        let answers = pool.par_entails_batch(&fresh);
        let misses = pool.stats().merged().cache_misses;
        assert_eq!(memo_len(&pool), before + fresh.len());
        assert_eq!(pool.par_entails_batch(&fresh), answers);
        assert_eq!(
            pool.stats().merged().cache_misses,
            misses,
            "repeats are hits"
        );
        assert_eq!(memo_len(&pool), before + fresh.len());
    }

    #[test]
    fn parallel_batch_is_refuted_by_any_workers_countermodels() {
        // Every countermodel of v1 over v0 ∧ (v1 ∨ v2) sets v0, clears
        // v1 and sets v2, and so falsifies each query of the batch.
        let mut pool = SessionPool::with_config(&v(0).and(v(1).or(v(2))), forced_parallel(3));
        assert!(!pool.entails(&v(1)));
        let decisions = pool.stats().merged().decisions;
        let queries = [
            v(0).not(),
            v(2).not(),
            v(1).or(v(0).not()),
            v(1).and(v(2)),
            v(0).not().or(v(2).not()),
            v(1).or(v(2).not()),
        ];
        assert_eq!(pool.par_entails_batch(&queries), vec![false; 6]);
        let merged = pool.stats().merged();
        assert_eq!(merged.countermodel_hits, 6);
        assert_eq!(merged.decisions, decisions, "no solve");
        // Each refuted answer was memoised by the worker that found it.
        let cached: Vec<bool> = queries
            .iter()
            .map(|q| pool.workers[0].memoised(q) == Some(false))
            .collect();
        assert_eq!(cached, vec![true; 6]);
    }

    #[test]
    fn unsat_base_is_parallel_safe() {
        let base = v(0).and(v(0).not());
        let mut pool = SessionPool::with_config(&base, forced_parallel(4));
        let queries: Vec<Formula> = (0..16)
            .map(|i| if i % 2 == 0 { v(0) } else { v(0).not() })
            .collect();
        assert!(
            pool.par_entails_batch(&queries).iter().all(|&a| a),
            "⊥ entails everything, on every worker"
        );
    }

    #[test]
    fn pool_stats_json_shape() {
        let mut pool = SessionPool::with_config(&v(0), PoolConfig::with_threads(2));
        pool.entails_batch(&[v(0)]);
        let j = pool.stats().to_json();
        for key in [
            "\"threads\":2",
            "\"batches\":1",
            "\"parallel_batches\":0",
            "\"sequential_batches\":1",
            "\"queries\":1",
            "\"cpu_time_total_micros\":",
            "\"wall_time_micros\":",
            "\"merged\":{",
            "\"per_worker\":[{",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn threshold_boundary_is_parallel() {
        let base = v(0).and(v(1));
        let mut pool = SessionPool::with_config(
            &base,
            PoolConfig {
                threads: 2,
                sequential_threshold: 4,
            },
        );
        let queries: Vec<Formula> = (0..4).map(|i| v(i % 2)).collect();
        pool.par_entails_batch(&queries);
        let stats = pool.stats();
        assert_eq!(
            stats.parallel_batches, 1,
            "a batch exactly at the threshold runs in parallel"
        );
    }
}
