//! The paper's two-step query-answering pipeline, packaged.
//!
//! The introduction motivates splitting `T * P ⊨ Q` into (1) an
//! *offline* compilation producing a propositional `T'`, and (2)
//! ordinary entailment `T' ⊨ Q` answered with standard machinery
//! (here: the CDCL solver). [`RevisedKb::compile`] performs step 1
//! with the construction the compactability analysis recommends for
//! each operator; [`RevisedKb::entails`] is step 2.
//!
//! [`DelayedKb`] is the strategy the conclusions recommend for
//! iterated revision: store `T` and the update formulas `P¹…Pᵐ`
//! (keeping them even after incorporation) and compile only when a
//! query actually arrives.
//!
//! Step 2 is incremental: the first query opens a
//! [`revkb_sat::QuerySession`] that Tseitin-loads the compiled `T'`
//! into one CDCL solver; later queries reuse it (activation-literal
//! encoding, learned clauses kept, answers memoised). The session's
//! counters are available through [`RevisedKb::query_stats`] and
//! [`DelayedKb::query_stats`]. Two sharp edges are made loud rather
//! than silent: queries mentioning letters outside the revision
//! alphabet are rejected in every profile
//! ([`RevisedKb::try_entails`]), and revising a [`DelayedKb`] drops
//! its compilation — and with it the session and its stats — so
//! stale answers cannot survive a revision.

use crate::compact::iterated::{
    base_vars, borgida_step, dalal_step, forbus_step, satoh_step, weber_step,
    winslett_step_expanded, Step,
};
use crate::compact::{
    borgida_bounded, dalal_compact, forbus_bounded, satoh_bounded, weber_compact, winslett_bounded,
    CompactRep,
};
use crate::semantic::ModelBasedOp;
use revkb_logic::{tseitin, Alphabet, CountingSupply, Formula, SharedCnf, Var};
use revkb_sat::supply_above;
use std::fmt;

/// Why a compilation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The operator's construction needs `|V(P)|` bounded and the
    /// given `P` is too wide for the exponential-in-`|V(P)|` formula.
    UpdateAlphabetTooLarge {
        /// The operator requested.
        op: ModelBasedOp,
        /// `|V(P)|` encountered.
        got: usize,
        /// Maximum supported width.
        max: usize,
    },
    /// The *total* revision alphabet `V(T) ∪ V(P)` is too wide for an
    /// enumeration-based backend (e.g. the BDD pipeline, which builds
    /// the full model set first).
    AlphabetTooLarge {
        /// The operator requested.
        op: ModelBasedOp,
        /// `|V(T) ∪ V(P)|` encountered.
        got: usize,
        /// Maximum supported width.
        max: usize,
    },
    /// A minimal-difference enumeration exceeded its cap.
    DeltaEnumerationOverflow,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UpdateAlphabetTooLarge { op, got, max } => write!(
                f,
                "{} compilation needs |V(P)| ≤ {max}, got {got} \
                 (the operator is not compactable in the unbounded case)",
                op.name()
            ),
            CompileError::AlphabetTooLarge { op, got, max } => write!(
                f,
                "{} compilation via model enumeration needs a total alphabet \
                 |V(T) ∪ V(P)| ≤ {max}, got {got}",
                op.name()
            ),
            CompileError::DeltaEnumerationOverflow => {
                write!(f, "minimal-difference enumeration exceeded its cap")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Widest `V(P)` accepted by the bounded (exponential-in-`|V(P)|`)
/// constructions.
pub const MAX_BOUNDED_P_VARS: usize = 12;

/// Cap on minimal-difference set enumeration.
pub const DELTA_LIMIT: usize = 1 << 20;

/// A compiled revised knowledge base: step 1's output plus step 2's
/// query interface.
#[derive(Debug, Clone)]
pub struct RevisedKb {
    op: ModelBasedOp,
    rep: CompactRep,
}

impl RevisedKb {
    /// Compile `T * P` with the construction matching the operator's
    /// compactability entry in Table 1:
    ///
    /// - Dalal → Theorem 3.4 (query-equivalent, any `|P|`);
    /// - Weber → Theorem 3.5 (query-equivalent, any `|P|`);
    /// - Winslett/Borgida/Forbus/Satoh → the Section 4 bounded
    ///   constructions (logically equivalent; requires small `V(P)` —
    ///   Table 1 says these operators are *not* compactable
    ///   unbounded, so refusing wide `P` is the honest contract).
    ///
    /// ```
    /// use revkb_revision::{ModelBasedOp, RevisedKb};
    /// use revkb_logic::{Formula, Var};
    /// let t = Formula::var(Var(0)).or(Formula::var(Var(1)));  // g ∨ b
    /// let p = Formula::var(Var(0)).not();                     // ¬g
    /// let kb = RevisedKb::compile(ModelBasedOp::Dalal, &t, &p).unwrap();
    /// assert!(kb.entails(&Formula::var(Var(1))));             // the voice was Bill's
    /// ```
    pub fn compile(op: ModelBasedOp, t: &Formula, p: &Formula) -> Result<Self, CompileError> {
        let _span = revkb_obs::span("revision.compile");
        let _op_span = revkb_obs::span(op.name());
        let rep = match op {
            ModelBasedOp::Dalal => {
                let mut supply = supply_above([t, p]);
                dalal_compact(t, p, &mut supply)
            }
            ModelBasedOp::Weber => {
                let mut supply = supply_above([t, p]);
                weber_compact(t, p, DELTA_LIMIT, &mut supply)
                    .ok_or(CompileError::DeltaEnumerationOverflow)?
            }
            bounded_op => {
                let width = p.vars().len();
                if width > MAX_BOUNDED_P_VARS {
                    return Err(CompileError::UpdateAlphabetTooLarge {
                        op: bounded_op,
                        got: width,
                        max: MAX_BOUNDED_P_VARS,
                    });
                }
                match bounded_op {
                    ModelBasedOp::Winslett => winslett_bounded(t, p),
                    ModelBasedOp::Borgida => borgida_bounded(t, p),
                    ModelBasedOp::Forbus => forbus_bounded(t, p),
                    ModelBasedOp::Satoh => satoh_bounded(t, p),
                    _ => unreachable!(),
                }
            }
        };
        Ok(Self { op, rep })
    }

    /// Compile the iterated revision `T * P¹ * … * Pᵐ` with the
    /// Section 5/6 constructions (all query-equivalent): a
    /// [`RevisionChain`] folded over the `Pⁱ`.
    pub fn compile_iterated(
        op: ModelBasedOp,
        t: &Formula,
        ps: &[Formula],
    ) -> Result<Self, CompileError> {
        Ok(RevisionChain::compile(op, t, ps)?.into_compiled())
    }

    /// Compile via the BDD pipeline: the models of
    /// `T * P¹ * … * Pᵐ`, selected on truth tables step by step
    /// ([`crate::semantic::revise_iterated_on`]) → the ROBDD built
    /// bottom-up from those models under the alphabet's order
    /// ([`revkb_bdd::BddManager::from_models`], no formula in between)
    /// → definitional formula (one fresh letter per BDD node). A single
    /// revision is `std::slice::from_ref(p)`.
    ///
    /// Exact for any operator and chain length, but requires an
    /// enumerable alphabet (`|V(T) ∪ V(P¹) ∪ … ∪ V(Pᵐ)| ≤ 20`). The
    /// result is query-equivalent over the base alphabet and has size
    /// linear in the BDD — the Section 7 data-structure view made into
    /// a compiler backend.
    pub fn compile_via_bdd(
        op: ModelBasedOp,
        t: &Formula,
        ps: &[Formula],
    ) -> Result<Self, CompileError> {
        let alpha = crate::model_set::revision_alphabet_seq(t, ps);
        if alpha.len() > 20 {
            // Not `UpdateAlphabetTooLarge`: that variant's message
            // talks about |V(P)|, but the enumeration bound here is on
            // the *whole* revision alphabet.
            return Err(CompileError::AlphabetTooLarge {
                op,
                got: alpha.len(),
                max: 20,
            });
        }
        let _span = revkb_obs::span("revision.compile_via_bdd");
        let _op_span = revkb_obs::span(op.name());
        let (mgr, node) = selected_bdd(op, &alpha, t, ps);
        let mut supply = supply_above(std::iter::once(t).chain(ps));
        let formula = revkb_bdd::to_formula_definitional(&mgr, node, &mut supply);
        Ok(Self {
            op,
            rep: CompactRep::query(formula, alpha.vars().to_vec()),
        })
    }

    /// The operator this base was compiled for.
    pub fn operator(&self) -> ModelBasedOp {
        self.op
    }

    /// The compiled representation.
    pub fn representation(&self) -> &CompactRep {
        &self.rep
    }

    /// Step 2: answer `T * P ⊨ Q` (for `Q` over the base alphabet).
    ///
    /// Queries are answered through the representation's incremental
    /// [`revkb_sat::QuerySession`]: the first query Tseitin-loads `T'`
    /// once, later queries reuse the solver and its learned clauses.
    ///
    /// # Panics
    ///
    /// If `q` mentions letters outside the base alphabet (see
    /// [`RevisedKb::try_entails`] for the fallible version).
    pub fn entails(&self, q: &Formula) -> bool {
        self.rep.entails(q)
    }

    /// Step 2, fallible: `Err` if `q` strays outside the base
    /// alphabet, where the compilation's guarantee is void.
    pub fn try_entails(&self, q: &Formula) -> Result<bool, crate::compact::QueryError> {
        self.rep.try_entails(q)
    }

    /// Step 2 for a whole batch, on the pool that answers single
    /// queries too: small batches run on its single-query session,
    /// larger ones are sharded over `REVKB_THREADS` workers forked from
    /// it. Answers come back index-aligned with `queries` and are
    /// identical to query-by-query [`RevisedKb::entails`] either way.
    ///
    /// # Panics
    ///
    /// If any query strays outside the base alphabet (see
    /// [`RevisedKb::try_entails_batch`]).
    pub fn entails_batch(&self, queries: &[Formula]) -> Vec<bool> {
        self.rep.entails_batch(queries)
    }

    /// Batch step 2, fallible: `Err` (before any work) if some query
    /// strays outside the base alphabet.
    pub fn try_entails_batch(
        &self,
        queries: &[Formula],
    ) -> Result<Vec<bool>, crate::compact::QueryError> {
        self.rep.try_entails_batch(queries)
    }

    /// Statistics of the incremental query session, if any query has
    /// been answered yet.
    pub fn query_stats(&self) -> Option<revkb_sat::SolverStats> {
        self.rep.query_stats()
    }

    /// Statistics of the batch-query pool, if any batch has been
    /// answered yet.
    pub fn pool_stats(&self) -> Option<revkb_sat::PoolStats> {
        self.rep.pool_stats()
    }

    /// Combined statistics of both query engines, uniformly shaped as
    /// [`crate::compact::EngineStats`] (also available on
    /// [`crate::compact::CompactRep`] and [`DelayedKb`]).
    pub fn stats(&self) -> crate::compact::EngineStats {
        self.rep.stats()
    }

    /// Size of the compiled representation, `|T'|`.
    pub fn size(&self) -> usize {
        self.rep.size()
    }

    /// Configure the lazy query pool (see
    /// [`crate::compact::CompactRep::set_pool_config`]).
    pub fn set_pool_config(&self, config: revkb_sat::PoolConfig) {
        self.rep.set_pool_config(config);
    }
}

/// A compiled iterated revision `T * P¹ * … * Pⁱ` that can take one
/// more step in place.
///
/// Theorem 5.1, Corollary 5.2 and the Section 6 constructions all build
/// the representation one step at a time: step `i+1` needs only the
/// running representation `Φᵢ` and `Pⁱ⁺¹`. [`RevisionChain::extend`] is
/// that step, and [`RevisedKb::compile_iterated`] and the `*_iterated`
/// constructions of [`crate::compact`] are its fold from `T`, so a chain
/// that keeps growing is compiled once, not once per prefix.
///
/// A step measures distances over the chain's base alphabet, which is
/// fixed when the chain starts, so it applies only to a `Pⁱ⁺¹` over
/// that alphabet ([`RevisionChain::admits`]); a revision bringing new
/// letters must be compiled from `T` again.
///
/// Dalal, Satoh and Weber steps leave the running representation in
/// clausal form too, encoded once per part and renamed in place of the
/// formula ([`revkb_logic::SharedCnf`]). Satoh's and Weber's are `T'`'s
/// Tseitin clauses. Dalal's hold an at-most-`kᵢ` counter where `T'`
/// holds `EXA(kᵢ, X, Yᵢ, Wᵢ)`, so they have `T'`'s models on every
/// letter but the `Wᵢ`. The next step's distance session loads them
/// instead of encoding `T'`, or the chain's query session does,
/// whichever comes first: it takes them, so the chain keeps no copy
/// beside the solver's, and a step after the first query encodes `T'`
/// with Tseitin, as a chain taken up from its formula does.
///
/// The chain is itself a query engine over its running representation
/// ([`crate::api::Engine`]), so a holder keeps one copy of `T'`.
#[derive(Debug, Clone)]
pub struct RevisionChain {
    /// The running representation over the base alphabet, with the
    /// clauses a Dalal, Satoh or Weber step left.
    kb: RevisedKb,
    /// Fresh letters for the next step: above every letter of the
    /// representation, its clauses and the base, and drawn from on
    /// across steps.
    supply: Option<CountingSupply>,
    /// Cap on each Satoh/Weber step's minimal-difference enumeration.
    delta_limit: usize,
}

impl RevisionChain {
    /// The chain whose running representation is `formula` over the
    /// base alphabet `base`: `T` itself (with `V(T) ⊆ base`), or the
    /// compiled `T'` of a chain taken up again, such as a cached
    /// artifact. Nothing is encoded until a step or a query needs it.
    pub fn new(op: ModelBasedOp, formula: Formula, base: Vec<Var>) -> Self {
        RevisionChain {
            kb: RevisedKb {
                op,
                rep: CompactRep::query(formula, base),
            },
            supply: None,
            delta_limit: DELTA_LIMIT,
        }
    }

    /// `T * P¹ * … * Pᵐ` over `V(T) ∪ V(P¹) ∪ … ∪ V(Pᵐ)`, step by step.
    pub fn compile(op: ModelBasedOp, t: &Formula, ps: &[Formula]) -> Result<Self, CompileError> {
        let _span = revkb_obs::span("revision.compile_iterated");
        let _op_span = revkb_obs::span(op.name());
        if let Some(widest) = ps.iter().max_by_key(|p| p.vars().len()) {
            check_width(op, widest)?;
        }
        let mut chain = RevisionChain::new(op, t.clone(), base_vars(t, ps));
        ps.iter().try_for_each(|p| chain.step(p))?;
        Ok(chain)
    }

    /// The fold behind the `*_iterated` constructions: no width check,
    /// fresh letters from the caller's `supply` (left advanced past the
    /// ones used), and `delta_limit` for each Satoh/Weber step.
    pub(crate) fn fold(
        op: ModelBasedOp,
        t: &Formula,
        ps: &[Formula],
        delta_limit: usize,
        supply: &mut CountingSupply,
    ) -> Result<CompactRep, CompileError> {
        let mut chain = RevisionChain::new(op, t.clone(), base_vars(t, ps));
        chain.supply = Some(supply.clone());
        chain.delta_limit = delta_limit;
        let folded = ps.iter().try_for_each(|p| chain.step(p));
        *supply = chain.supply.take().expect("set above");
        folded.map(|()| chain.kb.rep)
    }

    /// Can `p` extend this chain, i.e. is `V(p)` inside its base
    /// alphabet?
    pub fn admits(&self, p: &Formula) -> bool {
        p.vars().iter().all(|v| self.kb.rep.base.contains(v))
    }

    /// Revise the chain by one more `p`, in place. On error the running
    /// representation is unchanged.
    ///
    /// # Panics
    ///
    /// If `p` mentions a letter outside the base alphabet (see
    /// [`RevisionChain::admits`]).
    pub fn extend(&mut self, p: &Formula) -> Result<(), CompileError> {
        let _span = revkb_obs::span("revision.compile_iterated");
        let _op_span = revkb_obs::span(self.kb.op.name());
        assert!(
            self.admits(p),
            "a chain step must stay in the base alphabet"
        );
        check_width(self.kb.op, p)?;
        self.step(p)
    }

    /// The one per-operator step dispatch.
    fn step(&mut self, p: &Formula) -> Result<(), CompileError> {
        let rep = &self.kb.rep;
        let (formula, base) = (&rep.formula, &rep.base);
        let supply = self.supply.get_or_insert_with(|| {
            let top = formula.vars().into_iter().chain(base.iter().copied()).max();
            CountingSupply::new(top.map_or(0, |v| v.0 + 1))
        });
        let (limit, overflow) = (self.delta_limit, CompileError::DeltaEnumerationOverflow);
        let clausal = |(next, cnf): Step| (next, Some(cnf));
        let (next, clauses) = match self.kb.op {
            ModelBasedOp::Dalal => {
                let current = clauses_of(rep, supply);
                clausal(dalal_step(formula, &current, p, base, supply))
            }
            ModelBasedOp::Weber => {
                let step = weber_step(formula, &clauses_of(rep, supply), p, base, limit, supply);
                clausal(step.ok_or(overflow)?)
            }
            ModelBasedOp::Satoh => {
                let step = satoh_step(formula, &clauses_of(rep, supply), p, base, limit, supply);
                clausal(step.ok_or(overflow)?)
            }
            ModelBasedOp::Winslett => (winslett_step_expanded(formula, p, supply), None),
            ModelBasedOp::Borgida => (borgida_step(formula, p, supply), None),
            ModelBasedOp::Forbus => (forbus_step(formula, p, supply), None),
        };
        let base = std::mem::take(&mut self.kb.rep.base);
        let mut rep = CompactRep::query(next, base);
        if let Some(cnf) = clauses {
            rep = rep.with_clauses(cnf);
        }
        self.kb.rep = rep;
        Ok(())
    }

    /// The running representation `T'`.
    pub fn formula(&self) -> &Formula {
        &self.kb.rep.formula
    }

    /// The chain so far as a compiled knowledge base.
    pub fn compiled(&self) -> &RevisedKb {
        &self.kb
    }

    /// The chain so far as a compiled knowledge base, taken out of the
    /// chain.
    pub fn into_compiled(self) -> RevisedKb {
        self.kb
    }
}

/// The ROBDD of `M(T * P¹ * … * Pᵐ)` over `alpha`, in a manager
/// ordered by `alpha`.
fn selected_bdd(
    op: ModelBasedOp,
    alpha: &Alphabet,
    t: &Formula,
    ps: &[Formula],
) -> (revkb_bdd::BddManager, revkb_bdd::NodeId) {
    let selected = crate::semantic::revise_iterated_on(op, alpha, t, ps);
    let mut mgr = revkb_bdd::BddManager::with_order(alpha.vars().to_vec());
    let node = {
        let _bdd_span = revkb_obs::span("revision.phase.bdd_build");
        mgr.from_models(selected.masks())
    };
    (mgr, node)
}

/// The clauses of the running representation `rep`: those its last
/// step left, taken from `rep`, or one Tseitin pass now when there are
/// none, because the chain has taken no step yet, was taken up from its
/// formula, or its query session has taken them.
fn clauses_of(rep: &CompactRep, supply: &mut CountingSupply) -> SharedCnf {
    rep.take_clauses()
        .unwrap_or_else(|| SharedCnf::from(tseitin(&rep.formula, supply)))
}

/// The bounded constructions (all but Dalal's and Weber's) refuse a
/// `P` wider than [`MAX_BOUNDED_P_VARS`].
fn check_width(op: ModelBasedOp, p: &Formula) -> Result<(), CompileError> {
    let width = p.vars().len();
    if matches!(op, ModelBasedOp::Dalal | ModelBasedOp::Weber) || width <= MAX_BOUNDED_P_VARS {
        return Ok(());
    }
    Err(CompileError::UpdateAlphabetTooLarge {
        op,
        got: width,
        max: MAX_BOUNDED_P_VARS,
    })
}

/// The paper's delayed-incorporation strategy (§6.2 / Conclusions):
/// keep `T` and the revision formulas; compile lazily at query time
/// and cache the compilation.
#[derive(Debug, Clone)]
pub struct DelayedKb {
    op: ModelBasedOp,
    t: Formula,
    ps: Vec<Formula>,
    compiled: Option<RevisedKb>,
}

impl DelayedKb {
    /// Start from an initial knowledge base.
    pub fn new(op: ModelBasedOp, t: Formula) -> Self {
        Self {
            op,
            t,
            ps: Vec::new(),
            compiled: None,
        }
    }

    /// Record a revision (no computation happens yet).
    pub fn revise(&mut self, p: Formula) {
        self.ps.push(p);
        self.compiled = None;
    }

    /// The stored revision formulas (kept even after incorporation,
    /// as the paper recommends).
    pub fn pending(&self) -> &[Formula] {
        &self.ps
    }

    /// The operator every recorded revision will be compiled with.
    pub fn operator(&self) -> ModelBasedOp {
        self.op
    }

    /// The initial knowledge base `T`.
    pub fn base(&self) -> &Formula {
        &self.t
    }

    /// Compile now (if not already compiled) and return the cached
    /// compilation. [`DelayedKb::entails`] does this implicitly; the
    /// explicit form lets callers front-load the cost.
    pub fn force_compile(&mut self) -> Result<&RevisedKb, CompileError> {
        if self.compiled.is_none() {
            self.compiled = Some(RevisedKb::compile_iterated(self.op, &self.t, &self.ps)?);
        }
        Ok(self.compiled.as_ref().expect("just compiled"))
    }

    /// Answer a query, compiling (and caching) on demand. While no
    /// further revision arrives, every query reuses the cached
    /// compilation's incremental solver session.
    ///
    /// # Panics
    ///
    /// If `q` mentions letters outside the base alphabet of the
    /// compilation (see [`RevisedKb::entails`]).
    pub fn entails(&mut self, q: &Formula) -> Result<bool, CompileError> {
        Ok(self.force_compile()?.entails(q))
    }

    /// Answer a batch of queries, compiling (and caching) on demand;
    /// the batch is sharded over the compilation's worker pool.
    /// Answers come back index-aligned with `queries`.
    ///
    /// # Panics
    ///
    /// If any query mentions letters outside the base alphabet of the
    /// compilation (see [`RevisedKb::entails_batch`]).
    pub fn entails_batch(&mut self, queries: &[Formula]) -> Result<Vec<bool>, CompileError> {
        Ok(self.force_compile()?.entails_batch(queries))
    }

    /// Statistics of the cached compilation's query session, if a
    /// compilation exists and has answered at least one query. Reset
    /// by [`DelayedKb::revise`] together with the compilation cache.
    pub fn query_stats(&self) -> Option<revkb_sat::SolverStats> {
        self.compiled.as_ref().and_then(RevisedKb::query_stats)
    }

    /// Statistics of the cached compilation's batch pool, if any batch
    /// has been answered. Reset by [`DelayedKb::revise`] together with
    /// the compilation cache.
    pub fn pool_stats(&self) -> Option<revkb_sat::PoolStats> {
        self.compiled.as_ref().and_then(RevisedKb::pool_stats)
    }

    /// Combined statistics of the cached compilation's query engines,
    /// uniformly shaped as [`crate::compact::EngineStats`]; empty (not
    /// `None`) when no compilation exists, so callers can always read
    /// the same shape. Reset by [`DelayedKb::revise`] together with the
    /// compilation cache.
    pub fn stats(&self) -> crate::compact::EngineStats {
        self.compiled
            .as_ref()
            .map(RevisedKb::stats)
            .unwrap_or_default()
    }

    /// Size of the cached compilation, if any.
    pub fn compiled_size(&self) -> Option<usize> {
        self.compiled.as_ref().map(RevisedKb::size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::query_equivalent_enum;
    use crate::model_set::revision_alphabet_seq;
    use crate::semantic::{revise_iterated_on, revise_on};
    use revkb_logic::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn compile_every_operator_single() {
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0).not().or(v(1).not());
        for op in ModelBasedOp::ALL {
            let kb = RevisedKb::compile(op, &t, &p).unwrap();
            let alpha = revision_alphabet_seq(&t, std::slice::from_ref(&p));
            let oracle = revise_on(op, &alpha, &t, &p);
            assert!(
                query_equivalent_enum(
                    &kb.representation().formula,
                    &oracle.to_dnf(),
                    &kb.representation().base
                ),
                "{} compile wrong",
                op.name()
            );
            // Sample queries.
            assert_eq!(kb.entails(&v(2)), oracle.entails(&v(2)), "{}", op.name());
            assert_eq!(
                kb.entails(&v(0).or(v(1))),
                oracle.entails(&v(0).or(v(1))),
                "{}",
                op.name()
            );
        }
    }

    #[test]
    fn compile_every_operator_iterated() {
        let t = v(0).and(v(1)).and(v(2));
        let ps = vec![v(0).not().or(v(1).not()), v(2).not()];
        for op in ModelBasedOp::ALL {
            let kb = RevisedKb::compile_iterated(op, &t, &ps).unwrap();
            let alpha = revision_alphabet_seq(&t, &ps);
            let oracle = revise_iterated_on(op, &alpha, &t, &ps);
            assert!(
                query_equivalent_enum(
                    &kb.representation().formula,
                    &oracle.to_dnf(),
                    &kb.representation().base
                ),
                "iterated {} compile wrong",
                op.name()
            );
        }
    }

    #[test]
    fn bdd_pipeline_matches_constructions() {
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0).not().or(v(1).not());
        for op in ModelBasedOp::ALL {
            let via_bdd = RevisedKb::compile_via_bdd(op, &t, std::slice::from_ref(&p)).unwrap();
            let direct = RevisedKb::compile(op, &t, &p).unwrap();
            assert!(
                query_equivalent_enum(
                    &via_bdd.representation().formula,
                    &direct.representation().formula,
                    &via_bdd.representation().base
                ),
                "BDD pipeline diverges for {}",
                op.name()
            );
        }
    }

    /// Chains of 1–4 steps through the BDD pipeline, with an
    /// unsatisfiable step followed by a satisfiable one and a letter
    /// `T` lacks: query-equivalent to the truth-table oracle, and only
    /// the result's nodes (and both terminals) are ever allocated.
    #[test]
    fn bdd_pipeline_compiles_whole_chains() {
        let t = v(0).or(v(1)).and(v(2).implies(v(3)));
        let steps = [
            v(0).not().or(v(1).not()),
            v(2).and(v(2).not()),
            v(2).not().or(v(4)),
            v(0).iff(v(4).not()),
        ];
        for op in ModelBasedOp::ALL {
            for len in 1..=steps.len() {
                let ps = &steps[..len];
                let kb = RevisedKb::compile_via_bdd(op, &t, ps).unwrap();
                let alpha = revision_alphabet_seq(&t, ps);
                let oracle = revise_iterated_on(op, &alpha, &t, ps);
                let rep = kb.representation();
                assert_eq!(rep.base, alpha.vars(), "{} × {len}", op.name());
                assert!(
                    query_equivalent_enum(&rep.formula, &oracle.to_dnf(), &rep.base),
                    "BDD chain of {len} diverges for {}",
                    op.name()
                );
                let (mgr, root) = selected_bdd(op, &alpha, &t, ps);
                assert_eq!(
                    mgr.allocated(),
                    mgr.size(root).max(2),
                    "{} × {len}",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn bdd_pipeline_refuses_wide_alphabets() {
        let t = Formula::and_all((0..25u32).map(v));
        let p = v(0).not();
        let err = RevisedKb::compile_via_bdd(ModelBasedOp::Dalal, &t, &[p]).unwrap_err();
        // The refusal is about the total alphabet, not |V(P)| (which
        // is 1 here) — it must use the dedicated variant.
        assert_eq!(
            err,
            CompileError::AlphabetTooLarge {
                op: ModelBasedOp::Dalal,
                got: 25,
                max: 20,
            }
        );
    }

    #[test]
    fn bounded_ops_refuse_wide_p() {
        let t = v(0);
        let wide_p = Formula::or_all((0..20).map(v));
        let err = RevisedKb::compile(ModelBasedOp::Winslett, &t, &wide_p).unwrap_err();
        assert!(matches!(err, CompileError::UpdateAlphabetTooLarge { .. }));
        // Dalal and Weber accept it (query-compactable unbounded).
        assert!(RevisedKb::compile(ModelBasedOp::Dalal, &t, &wide_p).is_ok());
        assert!(RevisedKb::compile(ModelBasedOp::Weber, &t, &wide_p).is_ok());
    }

    #[test]
    fn delayed_kb_lazy_compilation() {
        let mut kb = DelayedKb::new(ModelBasedOp::Dalal, v(0).and(v(1)));
        assert!(kb.compiled_size().is_none());
        kb.revise(v(0).not().or(v(1).not()));
        kb.revise(v(0).not());
        assert!(kb.compiled_size().is_none());
        // After two Dalal revisions: first keeps exactly one of x0/x1,
        // then ¬x0 forces... check against the oracle.
        let ps: Vec<Formula> = kb.pending().to_vec();
        let t = v(0).and(v(1));
        let alpha = revision_alphabet_seq(&t, &ps);
        let oracle = revise_iterated_on(ModelBasedOp::Dalal, &alpha, &t, &ps);
        assert_eq!(kb.entails(&v(1)).unwrap(), oracle.entails(&v(1)));
        assert_eq!(
            kb.entails(&v(0).not()).unwrap(),
            oracle.entails(&v(0).not())
        );
        assert!(kb.compiled_size().is_some());
        // A further revision invalidates the cache.
        kb.revise(v(1).not());
        assert!(kb.compiled_size().is_none());
    }

    #[test]
    fn error_display() {
        let e = CompileError::UpdateAlphabetTooLarge {
            op: ModelBasedOp::Forbus,
            got: 30,
            max: 12,
        };
        let s = e.to_string();
        assert!(s.contains("Forbus"));
        assert!(s.contains("30"));
        assert!(
            s.contains("|V(P)|"),
            "update-width variant talks about |V(P)|"
        );

        let e = CompileError::AlphabetTooLarge {
            op: ModelBasedOp::Dalal,
            got: 25,
            max: 20,
        };
        let s = e.to_string();
        assert!(s.contains("Dalal"));
        assert!(s.contains("25"));
        assert!(
            s.contains("|V(T) ∪ V(P)|"),
            "total-alphabet variant talks about the whole alphabet, got: {s}"
        );
        assert!(
            !s.contains("|V(P)| ≤"),
            "must not claim an update-width bound"
        );
    }

    #[test]
    fn revised_kb_session_reuse_and_stats() {
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0).not().or(v(1).not());
        let kb = RevisedKb::compile(ModelBasedOp::Dalal, &t, &p).unwrap();
        assert!(kb.query_stats().is_none());
        assert!(kb.entails(&v(2)));
        assert!(kb.entails(&v(2)));
        assert_eq!(
            kb.try_entails(&v(40)),
            Err(crate::compact::QueryError::OutOfAlphabet { var: Var(40) })
        );
        let stats = kb.query_stats().unwrap();
        assert_eq!(stats.base_loads, 1);
        assert_eq!(stats.solver_constructions, 1);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn revised_kb_batch_matches_single_path() {
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0).not().or(v(1).not());
        for op in ModelBasedOp::ALL {
            let kb = RevisedKb::compile(op, &t, &p).unwrap();
            let mut seed = 0xBA7C4u64;
            let queries: Vec<Formula> = (0..24)
                .map(|_| revkb_sat::pseudo_random_formula(&mut seed, 3, 3))
                .collect();
            let batch = kb.entails_batch(&queries);
            let single: Vec<bool> = queries.iter().map(|q| kb.entails(q)).collect();
            assert_eq!(batch, single, "{} batch diverges", op.name());
            let pool = kb.pool_stats().expect("batch pool ran");
            assert_eq!(pool.queries, 24);
            assert_eq!(pool.batches, 1);
        }
    }

    #[test]
    fn revised_kb_batch_rejects_out_of_alphabet() {
        let t = v(0).and(v(1));
        let p = v(0).not();
        let kb = RevisedKb::compile(ModelBasedOp::Dalal, &t, &p).unwrap();
        assert_eq!(
            kb.try_entails_batch(&[v(0), v(33)]),
            Err(crate::compact::QueryError::OutOfAlphabet { var: Var(33) })
        );
        assert!(kb.pool_stats().is_none());
    }

    #[test]
    fn delayed_kb_batch_compiles_and_resets() {
        let mut kb = DelayedKb::new(ModelBasedOp::Dalal, v(0).and(v(1)));
        kb.revise(v(0).not());
        let answers = kb.entails_batch(&[v(1), v(0)]).unwrap();
        assert_eq!(answers, vec![true, false]);
        assert_eq!(kb.pool_stats().unwrap().queries, 2);
        kb.revise(v(1).not());
        assert!(kb.pool_stats().is_none(), "revise drops the pool");
    }

    #[test]
    fn delayed_kb_stats_reset_on_revise() {
        let mut kb = DelayedKb::new(ModelBasedOp::Dalal, v(0).and(v(1)));
        kb.revise(v(0).not());
        assert!(kb.query_stats().is_none());
        kb.entails(&v(1)).unwrap();
        assert_eq!(kb.query_stats().unwrap().queries, 1);
        kb.revise(v(1).not());
        assert!(kb.query_stats().is_none(), "revise drops the session");
    }
}
