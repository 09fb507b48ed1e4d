//! Incremental query sessions: load a knowledge base once, answer
//! many entailment queries against it.
//!
//! The paper's two-step pipeline compiles `T * P` into `T'` once and
//! then answers every `T' ⊨ Q` with "standard machinery". The
//! one-shot [`crate::entails`] re-runs the Tseitin transform of
//! `T' ∧ ¬Q` and builds a fresh [`Solver`] for *every* query, which
//! throws away both the loaded CNF of `T'` and all learned clauses.
//! [`QuerySession`] is the incremental alternative:
//!
//! - the CNF of `T'` is Tseitin-loaded exactly once, at construction;
//! - each query encodes `¬Q` under a fresh *activation literal* `a`:
//!   the definition clauses of `Q` and the clause `¬a ∨ ¬root(Q)` are
//!   added, the solver runs under the assumption `a`, and afterwards
//!   the unit `¬a` permanently disables the query-specific clauses
//!   while every learned clause stays usable;
//! - a memo cache keyed by the query's structural hash makes repeated
//!   queries O(1);
//! - the last 64 countermodels — models of the base that falsified an
//!   earlier query — are kept as one `u64` column per query letter, so
//!   a new query that one of them falsifies is answered NO by a single
//!   bitwise evaluation ([`Formula::eval_word`]), without a Tseitin
//!   pass or a solve;
//! - a [`SolverStats`] block (decisions, conflicts, propagations,
//!   restarts, learned clauses, cache traffic, wall time) makes the
//!   hot path observable.

use crate::api::supply_above;
use crate::solver::Solver;
use revkb_logic::{
    tseitin, tseitin_definitions, Cnf, CountingSupply, Formula, Lit, SharedCnf, Var, VarSupply,
};
use std::collections::HashMap;
use std::time::Instant;

// Registry mirrors of the session counters. `SolverStats` stays the
// JSON-visible source of truth (its shape is pinned by tests); these
// feed the cross-cutting telemetry snapshot that the bench binaries
// drain.
static OBS_QUERIES: revkb_obs::Counter = revkb_obs::Counter::new("sat.session.queries");
static OBS_CACHE_HITS: revkb_obs::Counter = revkb_obs::Counter::new("sat.session.cache_hits");
static OBS_CACHE_MISSES: revkb_obs::Counter = revkb_obs::Counter::new("sat.session.cache_misses");
static OBS_COUNTERMODEL_HITS: revkb_obs::Counter =
    revkb_obs::Counter::new("sat.session.countermodel_hits");
static OBS_BASE_LOADS: revkb_obs::Counter = revkb_obs::Counter::new("sat.session.base_loads");
static OBS_DECISIONS: revkb_obs::Counter = revkb_obs::Counter::new("sat.solver.decisions");
static OBS_CONFLICTS: revkb_obs::Counter = revkb_obs::Counter::new("sat.solver.conflicts");
static OBS_PROPAGATIONS: revkb_obs::Counter = revkb_obs::Counter::new("sat.solver.propagations");
static OBS_RESTARTS: revkb_obs::Counter = revkb_obs::Counter::new("sat.solver.restarts");
static OBS_QUERY_MICROS: revkb_obs::Histogram =
    revkb_obs::Histogram::new("sat.session.query_micros");

/// Counter block for an incremental query session, merging solver
/// search counters with session-level cache and load accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Queries answered (including cache hits).
    pub queries: u64,
    /// Queries answered from the memo cache.
    pub cache_hits: u64,
    /// Queries not answered from the memo cache: each was answered
    /// from a stored countermodel or by the solver.
    pub cache_misses: u64,
    /// Cache misses answered NO from a stored countermodel, without a
    /// Tseitin pass or a solve.
    pub countermodel_hits: u64,
    /// Tseitin loads of the knowledge base (1 per session; the
    /// one-shot path pays one per query).
    pub base_loads: u64,
    /// Solvers constructed (1 per session).
    pub solver_constructions: u64,
    /// Decisions taken by the solver.
    pub decisions: u64,
    /// Conflicts encountered by the solver.
    pub conflicts: u64,
    /// Literals propagated by the solver.
    pub propagations: u64,
    /// Restarts performed by the solver.
    pub restarts: u64,
    /// Learned clauses currently retained.
    pub learnt_clauses: u64,
    /// Learned clauses deleted by DB reduction.
    pub learnts_removed: u64,
    /// Total wall time spent answering queries, in microseconds.
    pub total_query_micros: u64,
    /// Wall time of the most recent query, in microseconds.
    pub last_query_micros: u64,
}

impl SolverStats {
    /// Render as a JSON object (stable key order, no dependencies).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queries\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"countermodel_hits\":{},\"base_loads\":{},\"solver_constructions\":{},\
             \"decisions\":{},\"conflicts\":{},\"propagations\":{},\
             \"restarts\":{},\"learnt_clauses\":{},\"learnts_removed\":{},\
             \"total_query_micros\":{},\"last_query_micros\":{}}}",
            self.queries,
            self.cache_hits,
            self.cache_misses,
            self.countermodel_hits,
            self.base_loads,
            self.solver_constructions,
            self.decisions,
            self.conflicts,
            self.propagations,
            self.restarts,
            self.learnt_clauses,
            self.learnts_removed,
            self.total_query_micros,
            self.last_query_micros,
        )
    }
}

/// An incremental entailment session against a fixed base formula.
///
/// ```
/// use revkb_logic::{Formula, Var};
/// use revkb_sat::QuerySession;
///
/// let v = |i| Formula::var(Var(i));
/// let mut session = QuerySession::new(&v(0).and(v(1)));
/// assert!(session.entails(&v(0)));
/// assert!(!session.entails(&v(0).not()));
/// assert!(session.entails(&v(0))); // cache hit
/// let stats = session.stats();
/// assert_eq!(stats.base_loads, 1);
/// assert_eq!(stats.cache_hits, 1);
/// ```
#[derive(Debug)]
pub struct QuerySession {
    solver: Solver,
    supply: CountingSupply,
    /// First variable index owned by the session's Tseitin encodings;
    /// queries must stay strictly below it.
    first_internal_var: u32,
    cache: HashMap<Formula, bool>,
    /// The last [`COUNTERMODELS`] models of the base that falsified a
    /// query, projected onto the query letters: bit `j` of
    /// `columns[v]` is letter `v`'s value in countermodel `j`.
    columns: Vec<u64>,
    /// Countermodels found so far; the next goes to slot
    /// `found % COUNTERMODELS`.
    found: u64,
    stats: SolverStats,
}

/// Countermodels a session keeps: one per bit of a `u64` column.
const COUNTERMODELS: u64 = 64;

impl QuerySession {
    /// Load `base` (the compiled representation `T'`) into a fresh
    /// solver. This is the only Tseitin transform of `base` the
    /// session ever performs.
    ///
    /// Queries may use any variable of `base`. If the query alphabet
    /// is wider than `V(base)` — e.g. the knowledge base's alphabet
    /// includes letters the formula simplified away — use
    /// [`QuerySession::with_query_alphabet`] so the session's internal
    /// letters are placed above them.
    pub fn new(base: &Formula) -> Self {
        Self::with_query_alphabet(base, 0)
    }

    /// Like [`QuerySession::new`], but additionally reserves
    /// `Var(0) .. Var(num_query_vars)` for queries: internal Tseitin
    /// letters start above both `V(base)` and `num_query_vars`.
    pub fn with_query_alphabet(base: &Formula, num_query_vars: u32) -> Self {
        let _span = revkb_obs::span("sat.base_load");
        let first_internal_var = supply_above([base]).fresh_var().0.max(num_query_vars);
        let cnf = tseitin(base, &mut CountingSupply::new(first_internal_var));
        Self::load(first_internal_var, cnf.num_vars, |solver| {
            solver.add_cnf(&cnf);
        })
    }

    /// A session over a base that is already in clausal form: `cnf`,
    /// whose models restricted to the query letters are the base's
    /// models. `cnf` need not be a Tseitin encoding of any formula; no
    /// Tseitin pass runs. Queries stay within
    /// `Var(0) .. Var(num_query_vars)`; every other letter of `cnf` is
    /// the session's own.
    pub fn from_clauses(cnf: &SharedCnf, num_query_vars: u32) -> Self {
        let _span = revkb_obs::span("sat.base_load");
        Self::load(num_query_vars, cnf.num_vars(), |solver| {
            solver.add_shared_cnf(cnf);
        })
    }

    /// The one loading routine: a fresh solver that `add` fills with
    /// the base's clauses, over letters below `num_vars`, counted as one
    /// base load. Queries stay below `num_query_vars`, and their
    /// encodings draw letters above both bounds. An unsatisfiable base
    /// sets the solver's root-level contradiction flag; every later
    /// query then correctly reports entailment (⊥ entails everything).
    fn load(num_query_vars: u32, num_vars: u32, add: impl FnOnce(&mut Solver)) -> Self {
        let mut solver = Solver::new();
        add(&mut solver);
        OBS_BASE_LOADS.inc();
        QuerySession {
            solver,
            supply: CountingSupply::new(num_vars.max(num_query_vars)),
            first_internal_var: num_query_vars,
            cache: HashMap::new(),
            columns: vec![0; num_query_vars as usize],
            found: 0,
            stats: SolverStats {
                base_loads: 1,
                solver_constructions: 1,
                ..SolverStats::default()
            },
        }
    }

    /// Does the loaded base entail `q`? Answered from the memo, else
    /// NO if a stored countermodel falsifies `q`, else by a solve,
    /// whose countermodel (on a NO answer) is stored.
    ///
    /// # Panics
    ///
    /// If `q` mentions a variable the session's internal encodings
    /// own (any index at or above the base formula's watermark):
    /// such a query would silently collide with Tseitin letters, so
    /// it is rejected in every build profile.
    pub fn entails(&mut self, q: &Formula) -> bool {
        let start = Instant::now();
        let answer = match self.cache.get(q) {
            Some(&answer) => {
                self.stats.cache_hits += 1;
                OBS_CACHE_HITS.inc();
                answer
            }
            None => {
                // A countermodel's NO spares the solve.
                let answer = !self.refuted(q) && self.solve(q);
                self.stats.cache_misses += 1;
                OBS_CACHE_MISSES.inc();
                self.cache.insert(q.clone(), answer);
                answer
            }
        };
        self.stats.queries += 1;
        OBS_QUERIES.inc();
        self.record_time(start);
        answer
    }

    /// Does a stored countermodel falsify `q`? One that does counts as
    /// a countermodel hit.
    ///
    /// # Panics
    ///
    /// As [`QuerySession::entails`]: if `q` collides with the session's
    /// internal Tseitin letters.
    ///
    /// Sound because the base does not change within a session: each
    /// stored countermodel, restricted to the query letters, is a model
    /// of the base, so one that falsifies `q` shows the base does not
    /// entail `q`.
    fn refuted(&mut self, q: &Formula) -> bool {
        if let Some(v) = q.max_var().filter(|v| v.0 >= self.first_internal_var) {
            panic!(
                "QuerySession::entails: query variable {v:?} collides with the \
                 session's internal Tseitin letters (base watermark {}); query \
                 formulas must stay within the base alphabet",
                self.first_internal_var
            );
        }
        let stored = match self.found {
            n if n >= COUNTERMODELS => u64::MAX,
            n => (1 << n) - 1,
        };
        if stored == 0 || !q.eval_word(&|v| self.columns[v.index()]) & stored == 0 {
            return false;
        }
        self.stats.countermodel_hits += 1;
        OBS_COUNTERMODEL_HITS.inc();
        true
    }

    /// Solve `base ⊨ q`, storing the countermodel of a NO answer.
    fn solve(&mut self, q: &Formula) -> bool {
        // Encode ¬q under a fresh activation literal: the definition
        // clauses and the root-negation clause are gated, so the unit
        // ¬act that retires them leaves learned clauses untouched.
        let mut defs = Cnf::new();
        let root = tseitin_definitions(q, &mut defs, &mut self.supply);
        defs.push(vec![root.negated()]);
        let act = Lit::pos(self.supply.fresh_var());

        let before = self.solver.stats;
        let counterexample = {
            let _span = revkb_obs::span("sat.query");
            self.solver.solve_with_gated(&defs, act, &[])
        };
        let after = &self.solver.stats;
        OBS_DECISIONS.add(after.decisions - before.decisions);
        OBS_CONFLICTS.add(after.conflicts - before.conflicts);
        OBS_PROPAGATIONS.add(after.propagations - before.propagations);
        OBS_RESTARTS.add(after.restarts - before.restarts);
        if counterexample {
            self.store_countermodel();
        }
        !counterexample
    }

    /// Keep the solver's last model, projected onto the query letters,
    /// as a countermodel, over the oldest one once all slots are full.
    fn store_countermodel(&mut self) {
        let bit = 1 << (self.found % COUNTERMODELS);
        for (i, column) in self.columns.iter_mut().enumerate() {
            if self.solver.model_value(Var(i as u32)) {
                *column |= bit;
            } else {
                *column &= !bit;
            }
        }
        self.found += 1;
    }

    /// Is the loaded base consistent? (Answered incrementally; the
    /// result is not cached as a query.)
    pub fn base_satisfiable(&mut self) -> bool {
        self.solver.solve_under_assumptions(&[])
    }

    /// Current statistics, merged with the underlying solver's
    /// counters.
    pub fn stats(&self) -> SolverStats {
        let solver = &self.solver.stats;
        SolverStats {
            decisions: solver.decisions,
            conflicts: solver.conflicts,
            propagations: solver.propagations,
            restarts: solver.restarts,
            learnt_clauses: self.solver.num_learnts() as u64,
            learnts_removed: solver.learnts_removed,
            ..self.stats
        }
    }

    /// Number of distinct queries memoised so far.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Record the time since `start`, rounded up to whole microseconds:
    /// a memo or countermodel answer takes under one, and truncating it
    /// would read as no time at all.
    fn record_time(&mut self, start: Instant) {
        let micros = start
            .elapsed()
            .as_nanos()
            .div_ceil(1000)
            .min(u64::MAX as u128) as u64;
        self.stats.last_query_micros = micros;
        self.stats.total_query_micros += micros;
        OBS_QUERY_MICROS.record(micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revkb_logic::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn basic_entailment() {
        let mut s = QuerySession::new(&v(0).and(v(1)));
        assert!(s.entails(&v(0)));
        assert!(s.entails(&v(1)));
        assert!(s.entails(&v(0).and(v(1))));
        assert!(!s.entails(&v(0).not()));
        assert!(s.entails(&v(0).or(v(1))));
    }

    #[test]
    fn inconsistent_base_entails_everything() {
        let mut s = QuerySession::new(&v(0).and(v(0).not()));
        assert!(!s.base_satisfiable());
        assert!(s.entails(&v(0)));
        assert!(s.entails(&v(0).not()));
        assert!(s.entails(&Formula::False));
    }

    #[test]
    fn answers_survive_unsat_queries() {
        // Entailed queries make the solver run to UNSAT under the
        // activation assumption; the session must stay correct after.
        let mut s = QuerySession::new(&v(0).implies(v(1)).and(v(0)));
        assert!(s.entails(&v(1))); // UNSAT search
        assert!(!s.entails(&v(0).not())); // SAT search right after
        assert!(s.entails(&v(0).implies(v(1))));
        assert!(!s.entails(&v(1).implies(v(0)).and(v(1).not())));
    }

    #[test]
    fn cache_hits_are_counted_and_correct() {
        let mut s = QuerySession::new(&v(0).or(v(1)));
        let q = v(0).or(v(1));
        assert!(s.entails(&q));
        assert!(s.entails(&q));
        assert!(s.entails(&q));
        let stats = s.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(s.cache_len(), 1);
        // A different query after the hits is still answered correctly.
        assert!(!s.entails(&v(0)));
    }

    #[test]
    fn constants_as_queries() {
        let mut s = QuerySession::new(&v(0));
        assert!(s.entails(&Formula::True));
        assert!(!s.entails(&Formula::False));
    }

    #[test]
    #[should_panic(expected = "collides with the session's internal")]
    fn out_of_watermark_query_panics() {
        let mut s = QuerySession::new(&v(0).and(v(1)));
        s.entails(&v(1000));
    }

    #[test]
    fn clausal_base_answers_like_the_formula() {
        // The clauses of `base` with its letter 0 renamed to 9, loaded
        // as they are: the session answers as one over the renamed
        // formula, with one base load and no Tseitin pass over the base.
        let base = v(0).implies(v(1)).and(v(0).or(v(2)));
        let mut supply = revkb_logic::CountingSupply::new(10);
        let cnf = SharedCnf::from(tseitin(&base, &mut supply)).rename(&[Var(0)], &[Var(9)]);
        let renamed = base.rename(&[Var(0)], &[Var(9)]);
        let mut from_clauses = QuerySession::from_clauses(&cnf, 10);
        let mut from_formula = QuerySession::with_query_alphabet(&renamed, 10);
        for q in [v(9), v(1), v(9).implies(v(1)), v(1).or(v(2)), v(2).not()] {
            assert_eq!(from_clauses.entails(&q), from_formula.entails(&q), "{q:?}");
        }
        assert_eq!(from_clauses.stats().base_loads, 1);
        assert_eq!(from_clauses.stats().solver_constructions, 1);
    }

    /// `v0 ∧ (v1 ∨ v2)`: every countermodel of `v1` sets `v0` and
    /// clears `v1`, so it also falsifies `v1 ∨ ¬v0`.
    fn refutable() -> (QuerySession, Formula, Formula) {
        let s = QuerySession::new(&v(0).and(v(1).or(v(2))));
        (s, v(1), v(1).or(v(0).not()))
    }

    #[test]
    fn a_countermodel_answers_a_later_no_without_a_solve() {
        let (mut s, q1, q2) = refutable();
        assert!(!s.entails(&q1));
        let (before, watermark) = (s.stats(), s.supply.peek());
        assert!(!s.entails(&q2));
        let after = s.stats();
        assert_eq!(after.countermodel_hits, 1);
        assert!(after.to_json().contains("\"countermodel_hits\":1,"));
        assert_eq!(after.cache_misses, before.cache_misses + 1);
        assert_eq!(after.queries, before.queries + 1);
        assert_eq!(after.decisions, before.decisions, "no new decisions");
        assert!(after.last_query_micros >= 1, "time rounds up, not to zero");
        // Every Tseitin pass of a query draws its activation letter
        // from the supply: an unmoved supply means no Tseitin pass.
        assert_eq!(s.supply.peek(), watermark, "no Tseitin pass");
        // The refuted answer is memoised.
        assert!(!s.entails(&q2));
        assert_eq!(s.stats().cache_hits, 1);

        // An entailed query still reaches the solver and answers YES.
        let q3 = v(0).and(v(1).or(v(2)));
        assert!(s.entails(&q3));
        let last = s.stats();
        assert_eq!(last.countermodel_hits, 1);
        assert_eq!(last.cache_misses, after.cache_misses + 1);
        assert!(s.supply.peek() > watermark, "q3 was encoded and solved");
    }

    #[test]
    fn sixty_five_no_answers_wrap_the_slots() {
        // Over a base of ⊤ on 7 letters, ¬cube(k) is falsified only by
        // valuation k, so each of the 70 queries is solved and stores
        // valuation k; the last 64 stay.
        let cube = |k: u32| Formula::and_all((0..7).map(|i| Formula::lit(Var(i), k >> i & 1 == 1)));
        let mut s = QuerySession::with_query_alphabet(&Formula::True, 7);
        for k in 0..70 {
            assert!(!s.entails(&cube(k).not()), "¬cube({k})");
        }
        assert_eq!(s.stats().countermodel_hits, 0);
        // A new spelling of each, newest first (a solve overwrites the
        // oldest slot): the 64 kept valuations refute theirs, the six
        // overwritten ones are solved again.
        let tautology = v(0).or(v(0).not());
        for k in (0..70).rev() {
            assert!(!s.entails(&cube(k).not().and(tautology.clone())), "{k}");
        }
        assert_eq!(s.stats().countermodel_hits, 64);
        // No entailed query is refuted.
        assert!(s.entails(&tautology));
        assert!(s.entails(&cube(100).or(cube(100).not())));
        assert_eq!(s.stats().countermodel_hits, 64);
    }

    #[test]
    fn refuted_answers_only_from_countermodels() {
        let (mut s, q1, q2) = refutable();
        assert!(!s.refuted(&q1), "no countermodel yet");
        assert_eq!(s.stats().countermodel_hits, 0);
        assert!(!s.entails(&q1));
        assert!(s.refuted(&q2));
        assert!(!s.refuted(&v(0)), "v0 is entailed");
        assert_eq!(s.stats().countermodel_hits, 1);
    }

    #[test]
    fn unsatisfiable_base_stores_no_countermodel() {
        let mut s = QuerySession::new(&v(0).and(v(0).not()).and(v(1).or(v(2))));
        for q in [v(1), v(1).or(v(0).not()), v(2).not(), Formula::False, v(1)] {
            assert!(s.entails(&q), "⊥ entails {q:?}");
        }
        let stats = s.stats();
        assert_eq!((stats.countermodel_hits, s.found), (0, 0));
    }

    #[test]
    #[should_panic(expected = "query variable Var(1001) collides")]
    fn collision_reports_the_largest_letter() {
        let mut s = QuerySession::new(&v(0).and(v(1)));
        s.entails(&v(1000).or(v(0).and(v(1001).not())));
    }

    #[test]
    fn one_base_load_many_queries() {
        let mut s = QuerySession::new(&v(0).and(v(1)).and(v(2)));
        for i in 0..3u32 {
            assert!(s.entails(&v(i)));
            assert!(!s.entails(&v(i).not()));
        }
        let stats = s.stats();
        assert_eq!(stats.base_loads, 1);
        assert_eq!(stats.solver_constructions, 1);
        assert_eq!(stats.queries, 6);
    }
}
