//! A CDCL SAT solver in the MiniSat lineage: two-watched-literal
//! propagation, first-UIP clause learning with local minimisation,
//! EVSIDS variable activities, Luby restarts, phase saving, learnt-DB
//! reduction, and incremental solving under assumptions.
//!
//! The revision machinery issues thousands of entailment, consistency
//! and minimum-distance probes (`T' ⊨ Q`, `T' ∪ {P} ⊭ ⊥`, is
//! `T[X/Y] ∧ P` satisfiable within distance `d`?); this solver is the
//! substrate for all of them.

use crate::heap::ActivityHeap;
use revkb_logic::{Clause, Cnf, Lit, SharedCnf, Var};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`Solver`] constructions, for measuring how
/// many solvers a query path builds (the incremental `QuerySession`
/// builds one; the one-shot API builds one per call).
static CONSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Total number of [`Solver`]s constructed by this process so far.
pub fn constructions() -> u64 {
    CONSTRUCTIONS.load(Ordering::Relaxed)
}

/// Three-valued assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Unassigned.
    Undef,
}

const NO_REASON: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

#[derive(Debug, Clone, Copy)]
struct ClauseHeader {
    learnt: bool,
    deleted: bool,
    activity: f64,
}

/// Solver statistics, cumulative across `solve` calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses deleted by DB reduction.
    pub learnts_removed: u64,
}

/// The CDCL solver.
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    headers: Vec<ClauseHeader>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    heap: ActivityHeap,
    var_inc: f64,
    cla_inc: f64,
    ok: bool,
    seen: Vec<bool>,
    num_learnts: usize,
    max_learnts: usize,
    stored_model: Vec<bool>,
    /// Statistics.
    pub stats: Stats,
}

/// Outcome of a bounded CDCL search pass.
enum SearchResult {
    Sat,
    Unsat,
    Restart,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// A fresh, empty solver.
    pub fn new() -> Self {
        CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        Self {
            clauses: Vec::new(),
            headers: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            heap: ActivityHeap::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            seen: Vec::new(),
            num_learnts: 0,
            max_learnts: 2000,
            stored_model: Vec::new(),
            stats: Stats::default(),
        }
    }

    /// Number of variables the solver knows about.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Make sure variable `v` exists.
    pub fn ensure_var(&mut self, v: Var) {
        let need = v.index() + 1;
        while self.assigns.len() < need {
            self.assigns.push(LBool::Undef);
            self.polarity.push(false);
            self.level.push(0);
            self.reason.push(NO_REASON);
            self.seen.push(false);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
        }
        self.heap.grow_to(need);
    }

    /// Current value of a variable.
    pub fn value_var(&self, v: Var) -> LBool {
        self.assigns.get(v.index()).copied().unwrap_or(LBool::Undef)
    }

    /// Current value of a literal.
    pub fn value_lit(&self, l: Lit) -> LBool {
        match self.value_var(l.var()) {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause. Returns `false` if the solver becomes trivially
    /// unsatisfiable. Must be called at decision level 0 (which is
    /// always the case between `solve` calls).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "add_clause above level 0");
        if !self.ok {
            return false;
        }
        for &l in lits {
            self.ensure_var(l.var());
        }
        // Sort, dedup, drop level-0-false literals, detect tautology /
        // level-0-true literals, all in place on the one copy.
        let mut out: Clause = lits.to_vec();
        out.sort_unstable();
        out.dedup();
        let mut kept = 0;
        for i in 0..out.len() {
            let l = out[i];
            if i + 1 < out.len() && out[i + 1] == l.negated() {
                return true; // tautology
            }
            match self.value_lit(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => {}          // drop
                LBool::Undef => {
                    out[kept] = l;
                    kept += 1;
                }
            }
        }
        out.truncate(kept);
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], NO_REASON);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(out, false);
                true
            }
        }
    }

    /// Solve with the clauses of `cnf` in force for this call only:
    /// each is gated by the activation literal `act`, which must be
    /// fresh. `act` is assumed (before `assumptions`) and then retired
    /// by the unit `¬act`, which disables the clauses for good while
    /// every learned clause stays valid — how an incremental session
    /// asks one temporary question of a loaded solver.
    pub fn solve_with_gated(&mut self, cnf: &Cnf, act: Lit, assumptions: &[Lit]) -> bool {
        let mut gated = Vec::new();
        for clause in &cnf.clauses {
            gated.clear();
            gated.extend_from_slice(clause);
            gated.push(act.negated());
            self.add_clause(&gated);
        }
        let mut all = vec![act];
        all.extend_from_slice(assumptions);
        let sat = self.solve_under_assumptions(&all);
        self.add_clause(&[act.negated()]);
        sat
    }

    /// Add every clause of a CNF.
    pub fn add_cnf(&mut self, cnf: &Cnf) -> bool {
        if cnf.num_vars > 0 {
            self.ensure_var(Var(cnf.num_vars - 1));
        }
        for c in &cnf.clauses {
            if !self.add_clause(c) {
                return false;
            }
        }
        true
    }

    /// Add every clause of a [`SharedCnf`], each read under its
    /// block's renaming.
    pub fn add_shared_cnf(&mut self, cnf: &SharedCnf) -> bool {
        let num_vars = cnf.num_vars();
        if num_vars > 0 {
            self.ensure_var(Var(num_vars - 1));
        }
        cnf.for_each_clause(|c| {
            self.add_clause(c);
        });
        self.ok
    }

    fn attach_clause(&mut self, lits: Clause, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as u32;
        let w0 = Watcher {
            cref,
            blocker: lits[1],
        };
        let w1 = Watcher {
            cref,
            blocker: lits[0],
        };
        self.watches[lits[0].negated().code()].push(w0);
        self.watches[lits[1].negated().code()].push(w1);
        self.clauses.push(lits);
        self.headers.push(ClauseHeader {
            learnt,
            deleted: false,
            activity: 0.0,
        });
        if learnt {
            self.num_learnts += 1;
        }
        cref
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var();
        self.assigns[v.index()] = if l.is_positive() {
            LBool::True
        } else {
            LBool::False
        };
        self.polarity[v.index()] = l.is_positive();
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.trail.push(l);
    }

    /// Propagate queued assignments. Returns the conflicting clause
    /// reference, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut i = 0;
            let mut j = 0;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict: Option<u32> = None;

            'watchers: while i < ws.len() {
                let w = ws[i];
                // Fast path: blocker already true.
                if self.value_lit(w.blocker) == LBool::True {
                    ws[j] = w;
                    i += 1;
                    j += 1;
                    continue;
                }
                let cref = w.cref as usize;
                if self.headers[cref].deleted {
                    i += 1; // drop stale watcher
                    continue;
                }
                // Make sure the false literal is at position 1.
                let false_lit = p.negated();
                {
                    let c = &mut self.clauses[cref];
                    if c[0] == false_lit {
                        c.swap(0, 1);
                    }
                    debug_assert_eq!(c[1], false_lit);
                }
                let first = self.clauses[cref][0];
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    ws[j] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    i += 1;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cref].len();
                for k in 2..len {
                    let lk = self.clauses[cref][k];
                    if self.value_lit(lk) != LBool::False {
                        self.clauses[cref].swap(1, k);
                        self.watches[lk.negated().code()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        i += 1;
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[j] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                i += 1;
                j += 1;
                if self.value_lit(first) == LBool::False {
                    // Conflict: copy remaining watchers and bail.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        i += 1;
                        j += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(w.cref);
                } else {
                    self.unchecked_enqueue(first, w.cref);
                }
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause (with the
    /// asserting literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: u32) -> (Clause, u32) {
        let mut learnt: Clause = vec![Lit::from_code(0)]; // placeholder
        let mut path_c: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current_level = self.decision_level();
        let mut to_clear: Vec<Var> = Vec::new();

        loop {
            debug_assert_ne!(confl, NO_REASON);
            let cref = confl as usize;
            if self.headers[cref].learnt {
                self.bump_clause(cref);
            }
            let start = usize::from(p.is_some());
            for k in start..self.clauses[cref].len() {
                let q = self.clauses[cref][k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v.index()] >= current_level {
                        path_c += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            path_c -= 1;
            if path_c == 0 {
                learnt[0] = lit.negated();
                break;
            }
            confl = self.reason[lit.var().index()];
        }

        // Local minimisation: drop literals whose reason is covered by
        // the rest of the clause.
        let mut minimized: Clause = vec![learnt[0]];
        for &l in &learnt[1..] {
            if !self.literal_redundant(l) {
                minimized.push(l);
            }
        }
        let mut learnt = minimized;

        // Clear seen flags.
        for v in to_clear {
            self.seen[v.index()] = false;
        }

        // Find backtrack level: highest level among learnt[1..].
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = k;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, backtrack)
    }

    /// A learnt literal is redundant if its reason clause's other
    /// literals are all seen or at level 0 (single-step minimisation).
    fn literal_redundant(&self, l: Lit) -> bool {
        let r = self.reason[l.var().index()];
        if r == NO_REASON {
            return false;
        }
        let clause = &self.clauses[r as usize];
        clause.iter().skip(1).all(|&q| {
            let v = q.var();
            self.seen[v.index()] || self.level[v.index()] == 0
        })
    }

    fn bump_var(&mut self, v: Var) {
        if self.heap.bump(v, self.var_inc) > 1e100 {
            self.heap.rescale(1e100);
            self.var_inc /= 1e100;
        }
    }

    fn bump_clause(&mut self, cref: usize) {
        self.headers[cref].activity += self.cla_inc;
        if self.headers[cref].activity > 1e20 {
            for h in &mut self.headers {
                h.activity /= 1e20;
            }
            self.cla_inc /= 1e20;
        }
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = NO_REASON;
            self.heap.insert(v);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop() {
            if self.value_var(v) == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    /// Remove the lower-activity half of the learnt clauses (keeping
    /// reasons and binary clauses), then rebuild all watch lists.
    fn reduce_db(&mut self) {
        let mut learnt_refs: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                self.headers[i].learnt && !self.headers[i].deleted && self.clauses[i].len() > 2
            })
            .collect();
        learnt_refs.sort_by(|&a, &b| {
            self.headers[a]
                .activity
                .partial_cmp(&self.headers[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: std::collections::HashSet<u32> = self
            .trail
            .iter()
            .map(|l| self.reason[l.var().index()])
            .filter(|&r| r != NO_REASON)
            .collect();
        let remove_count = learnt_refs.len() / 2;
        for &i in learnt_refs.iter().take(remove_count) {
            if locked.contains(&(i as u32)) {
                continue;
            }
            self.headers[i].deleted = true;
            self.num_learnts -= 1;
            self.stats.learnts_removed += 1;
        }
        // Rebuild watches from scratch, dropping deleted clauses.
        for w in &mut self.watches {
            w.clear();
        }
        for i in 0..self.clauses.len() {
            if self.headers[i].deleted {
                continue;
            }
            let c = &self.clauses[i];
            self.watches[c[0].negated().code()].push(Watcher {
                cref: i as u32,
                blocker: c[1],
            });
            self.watches[c[1].negated().code()].push(Watcher {
                cref: i as u32,
                blocker: c[0],
            });
        }
    }

    /// CDCL search with a conflict budget.
    fn search(&mut self, budget: u64, assumptions: &[Lit]) -> SearchResult {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchResult::Unsat;
                }
                let (learnt, backtrack) = self.analyze(confl);
                // Backjumping may land inside the assumption prefix;
                // the decision loop below re-establishes the remaining
                // assumptions, so this is sound.
                self.cancel_until(backtrack);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], NO_REASON);
                } else {
                    let cref = self.attach_clause(learnt, true);
                    let first = self.clauses[cref as usize][0];
                    self.unchecked_enqueue(first, cref);
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.num_learnts > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts = self.max_learnts * 11 / 10;
                }
            } else {
                if conflicts >= budget {
                    self.cancel_until(0);
                    return SearchResult::Restart;
                }
                // Extend with assumptions first.
                let mut next_decision: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value_lit(a) {
                        LBool::True => {
                            // Already satisfied: dummy level keeps the
                            // level ↔ assumption-index correspondence.
                            self.new_decision_level();
                        }
                        LBool::False => {
                            return SearchResult::Unsat;
                        }
                        LBool::Undef => {
                            next_decision = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next_decision {
                    Some(a) => Some(a),
                    None => self
                        .pick_branch_var()
                        .map(|v| Lit::new(v, self.polarity[v.index()])),
                };
                match decision {
                    None => return SearchResult::Sat, // all assigned
                    Some(d) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        self.unchecked_enqueue(d, NO_REASON);
                    }
                }
            }
        }
    }

    /// Solve the current clause set. Leaves the solver reusable.
    pub fn solve(&mut self) -> bool {
        self.solve_with_assumptions(&[])
    }

    /// Alias for [`Solver::solve_under_assumptions`] (historical name).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> bool {
        self.solve_under_assumptions(assumptions)
    }

    /// Solve under unit assumptions, keeping all learned clauses for
    /// later calls. The assumptions are propagated as pseudo-decisions
    /// below any real decision; on return the solver is back at the
    /// root level and immediately reusable (incremental solving).
    /// Returns satisfiability; on SAT the model is available through
    /// [`Solver::model`] / [`Solver::model_value`] until the next
    /// mutation.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        for &a in assumptions {
            self.ensure_var(a.var());
        }
        // Level-0 propagation of anything pending.
        if self.propagate().is_some() {
            self.ok = false;
            return false;
        }
        let mut restart = 0u32;
        loop {
            let budget = 100 * luby(restart) as u64;
            match self.search(budget, assumptions) {
                SearchResult::Sat => {
                    // Snapshot the model, then return to the root level
                    // so the solver can be mutated immediately
                    // (all-SAT blocking clauses rely on this).
                    self.stored_model.clear();
                    self.stored_model
                        .extend(self.assigns.iter().map(|&a| a == LBool::True));
                    self.cancel_until(0);
                    return true;
                }
                SearchResult::Unsat => {
                    self.cancel_until(0);
                    return false;
                }
                SearchResult::Restart => {
                    self.stats.restarts += 1;
                    restart += 1;
                }
            }
        }
    }

    /// The model found by the last successful `solve*` call: a value
    /// for every variable (unconstrained variables default to false).
    pub fn model(&self) -> Vec<bool> {
        let mut m = self.stored_model.clone();
        m.resize(self.num_vars(), false);
        m
    }

    /// Model value of one variable from the last successful solve
    /// (false when unconstrained or unknown).
    pub fn model_value(&self, v: Var) -> bool {
        self.stored_model.get(v.index()).copied().unwrap_or(false)
    }

    /// True if no contradiction has been derived at level 0.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Number of learned clauses currently in the database.
    pub fn num_learnts(&self) -> usize {
        self.num_learnts
    }

    /// Number of clauses (original + learned, minus deleted) in the
    /// database.
    pub fn num_clauses(&self) -> usize {
        self.headers.iter().filter(|h| !h.deleted).count()
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
pub fn luby(mut i: u32) -> u32 {
    // Find the finite subsequence containing index i, then recurse.
    let mut k = 1u32;
    loop {
        let len = (1u32 << k) - 1;
        if i + 1 == len {
            return 1 << (k - 1);
        }
        if i + 1 < len {
            i -= (1 << (k - 1)) - 1;
            k = 1;
            continue;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revkb_logic::Lit;

    fn pos(i: u32) -> Lit {
        Lit::pos(Var(i))
    }
    fn neg(i: u32) -> Lit {
        Lit::neg(Var(i))
    }

    #[test]
    fn luby_sequence() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let actual: Vec<u32> = (0..15).map(luby).collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        s.add_clause(&[pos(0)]);
        assert!(s.solve());
        assert!(s.model_value(Var(0)));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[pos(0)]);
        assert!(!s.add_clause(&[neg(0)]));
        assert!(!s.solve());
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert!(!s.solve());
    }

    #[test]
    fn no_clauses_sat() {
        let mut s = Solver::new();
        assert!(s.solve());
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        assert!(s.add_clause(&[pos(0), neg(0)]));
        assert!(s.solve());
    }

    #[test]
    fn propagation_chain() {
        // x0, x0→x1, x1→x2, x2→x3 forces all true.
        let mut s = Solver::new();
        s.add_clause(&[pos(0)]);
        s.add_clause(&[neg(0), pos(1)]);
        s.add_clause(&[neg(1), pos(2)]);
        s.add_clause(&[neg(2), pos(3)]);
        assert!(s.solve());
        for i in 0..4 {
            assert!(s.model_value(Var(i)));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p_ij = pigeon i in hole j (var 2i + j).
        let mut s = Solver::new();
        for i in 0..3u32 {
            s.add_clause(&[pos(2 * i), pos(2 * i + 1)]);
        }
        for j in 0..2u32 {
            for i1 in 0..3u32 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[neg(2 * i1 + j), neg(2 * i2 + j)]);
                }
            }
        }
        assert!(!s.solve());
    }

    #[test]
    fn assumptions_sat_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[pos(0), pos(1)]);
        assert!(s.solve_with_assumptions(&[neg(0)]));
        assert!(s.model_value(Var(1)));
        assert!(!s.solve_with_assumptions(&[neg(0), neg(1)]));
        // Solver survives and is reusable.
        assert!(s.solve());
        assert!(s.solve_with_assumptions(&[pos(0)]));
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = Solver::new();
        s.add_clause(&[pos(0), pos(1)]);
        assert!(!s.solve_with_assumptions(&[pos(2), neg(2)]));
        assert!(s.solve());
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        s.add_clause(&[pos(0), pos(1)]);
        assert!(s.solve());
        s.add_clause(&[neg(0)]);
        assert!(s.solve());
        assert!(s.model_value(Var(1)));
        s.add_clause(&[neg(1)]);
        assert!(!s.solve());
    }

    #[test]
    fn xor_chain_forced() {
        // CNF of x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, x0 = 1 → x1 = 0, x2 = 1.
        let mut s = Solver::new();
        // x0 ⊕ x1: (x0∨x1) ∧ (¬x0∨¬x1)
        s.add_clause(&[pos(0), pos(1)]);
        s.add_clause(&[neg(0), neg(1)]);
        s.add_clause(&[pos(1), pos(2)]);
        s.add_clause(&[neg(1), neg(2)]);
        s.add_clause(&[pos(0)]);
        assert!(s.solve());
        assert!(s.model_value(Var(0)));
        assert!(!s.model_value(Var(1)));
        assert!(s.model_value(Var(2)));
    }
}
