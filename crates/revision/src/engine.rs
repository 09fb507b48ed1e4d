//! The paper's two-step query-answering pipeline, packaged.
//!
//! The introduction motivates splitting `T * P ⊨ Q` into (1) an
//! *offline* compilation producing a propositional `T'`, and (2)
//! ordinary entailment `T' ⊨ Q` answered with standard machinery
//! (here: the CDCL solver). [`compact`] performs step 1 for a single
//! revision with the construction the compactability analysis
//! recommends for each operator; [`CompactRep::entails`] is step 2.
//!
//! [`RevisionChain`] is the one model-based knowledge base: `T`, the
//! revisions `P¹…Pᵐ` (kept even after incorporation, as the
//! conclusions recommend) and the compiled representation of the
//! prefix applied so far. A revision not applied yet is pending and
//! is applied at the first query, so a base with every revision
//! pending is the paper's delayed incorporation.
//!
//! Step 2 is incremental: the first query opens a
//! [`revkb_sat::QuerySession`] that Tseitin-loads the compiled `T'`
//! into one CDCL solver; later queries reuse it (activation-literal
//! encoding, learned clauses kept, answers memoised). Two sharp edges
//! are made loud rather than silent: queries mentioning letters
//! outside the revision alphabet are rejected in every profile
//! ([`CompactRep::try_entails`]), and applying a pending revision
//! replaces the representation — and with it the session and its
//! stats — so stale answers cannot survive a revision.

use crate::compact::iterated::{
    base_vars, borgida_step, dalal_step, forbus_step, satoh_step, weber_step,
    winslett_step_expanded, Step,
};
use crate::compact::{
    borgida_bounded, dalal_compact, forbus_bounded, satoh_bounded, weber_compact, winslett_bounded,
    CompactRep,
};
use crate::model_set::revision_alphabet_seq;
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

/// Widest total alphabet `|V(T) ∪ V(P¹) ∪ … ∪ V(Pᵐ)|` the BDD backend
/// enumerates.
pub const MAX_BDD_VARS: usize = 20;

/// Which compilation route a revision takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The constructions Sections 5–6 give per operator, one step at a
    /// time ([`RevisionChain::compile`]).
    #[default]
    Direct,
    /// The BDD pipeline: exact for any operator, but needs an
    /// enumerable total alphabet (at most [`MAX_BDD_VARS`] letters).
    Bdd,
}

impl Backend {
    /// Wire/CLI tag of the backend.
    pub fn tag(self) -> &'static str {
        match self {
            Backend::Direct => "direct",
            Backend::Bdd => "bdd",
        }
    }

    /// Parse a wire/CLI tag.
    pub fn from_tag(tag: &str) -> Option<Backend> {
        match tag.to_ascii_lowercase().as_str() {
            "direct" => Some(Backend::Direct),
            "bdd" => Some(Backend::Bdd),
            _ => None,
        }
    }
}

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
/// use revkb_revision::{compact, ModelBasedOp};
/// use revkb_logic::{Formula, Var};
/// let t = Formula::var(Var(0)).or(Formula::var(Var(1)));  // g ∨ b
/// let p = Formula::var(Var(0)).not();                     // ¬g
/// let kb = compact(ModelBasedOp::Dalal, &t, &p).unwrap();
/// assert!(kb.entails(&Formula::var(Var(1))));             // the voice was Bill's
/// ```
pub fn compact(op: ModelBasedOp, t: &Formula, p: &Formula) -> Result<CompactRep, CompileError> {
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
    Ok(rep)
}

/// A model-based knowledge base: `T`, the revisions `P¹…Pᵐ` in order,
/// and the compiled representation of `T * P¹ * … * Pʲ` for the prefix
/// applied so far. The rest, `Pʲ⁺¹…Pᵐ`, is pending.
///
/// [`RevisionChain::revise`] records a revision and
/// [`RevisionChain::apply`] applies the pending ones; a query applies
/// them first ([`crate::api::Engine`]), so a chain whose revisions are
/// all pending is the paper's delayed incorporation (§6.2 and the
/// conclusions): keep `T` and the `Pⁱ`, compile when a query arrives.
///
/// [`RevisionChain::apply`] alone picks the compile route, from the
/// operator, the backend of the latest revision, `T` and the `Pⁱ`:
///
/// - **BDD**, while `V(T) ∪ V(P¹) ∪ … ∪ V(Pᵐ)` has at most
///   [`MAX_BDD_VARS`] letters: the whole chain from `T` into one ROBDD.
///   Past the cap a first revision is refused, and a later one takes
///   the direct route.
/// - **Direct**: Theorem 5.1, Corollary 5.2 and the Section 6
///   constructions all build the representation one step at a time:
///   step `i+1` needs only the running representation `Φᵢ` and
///   `Pⁱ⁺¹`. When the running representation is the direct route's and
///   the pending `Pⁱ` stay in its base alphabet
///   ([`RevisionChain::admits`]), the steps extend it; otherwise the
///   whole chain is folded from `T` over the wider alphabet. Both give
///   the same `|T'|`, so a chain that keeps growing is compiled once,
///   not once per prefix, and `|T'|` depends on nothing but the route's
///   inputs.
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
#[derive(Debug, Clone)]
pub struct RevisionChain {
    op: ModelBasedOp,
    /// The backend of the latest revision, which picks the route of
    /// the pending ones.
    backend: Backend,
    /// The initial knowledge base `T`.
    t: Formula,
    /// Every revision, applied or pending, in order.
    ps: Vec<Formula>,
    /// How many of `ps` the running representation has applied.
    applied: usize,
    /// The running representation over the base alphabet, with the
    /// clauses a Dalal, Satoh or Weber step left.
    rep: CompactRep,
    /// Whether `rep` is the direct route's, which a step can extend.
    direct: bool,
    /// Fresh letters for the next step: above every letter of the
    /// representation, its clauses and the base, and drawn from on
    /// across steps.
    supply: Option<CountingSupply>,
    /// Cap on each Satoh/Weber step's minimal-difference enumeration.
    delta_limit: usize,
}

impl RevisionChain {
    /// `T` with no revision yet: it answers as `T` itself over `V(T)`,
    /// and revisions recorded with [`RevisionChain::revise`] wait until
    /// the first query.
    pub fn delayed(op: ModelBasedOp, t: Formula) -> Self {
        let base = t.vars().into_iter().collect();
        let rep = CompactRep::logical(t.clone(), base);
        Self::with_representation(op, Backend::Direct, t, Vec::new(), rep)
    }

    /// The chain whose running representation is `formula` over the
    /// base alphabet `base`, taken as its `T`: `T` itself (with
    /// `V(T) ⊆ base`), or a compiled `T'` taken up again. Nothing is
    /// encoded until a step or a query needs it.
    pub fn new(op: ModelBasedOp, formula: Formula, base: Vec<Var>) -> Self {
        let rep = CompactRep::query(formula.clone(), base);
        Self::with_representation(op, Backend::Direct, formula, Vec::new(), rep)
    }

    /// `T * P¹ * … * Pᵐ` with `rep` as its representation, every
    /// revision applied: a compilation made elsewhere, such as a cached
    /// artifact, taken up again. `backend` is the one `rep` was
    /// compiled with.
    pub fn with_representation(
        op: ModelBasedOp,
        backend: Backend,
        t: Formula,
        ps: Vec<Formula>,
        rep: CompactRep,
    ) -> Self {
        RevisionChain {
            op,
            backend,
            t,
            applied: ps.len(),
            ps,
            direct: backend == Backend::Direct || rep.base.len() > MAX_BDD_VARS,
            rep,
            supply: None,
            delta_limit: DELTA_LIMIT,
        }
    }

    /// `T * P¹ * … * Pᵐ` over `V(T) ∪ V(P¹) ∪ … ∪ V(Pᵐ)` with the
    /// direct constructions, step by step.
    pub fn compile(op: ModelBasedOp, t: &Formula, ps: &[Formula]) -> Result<Self, CompileError> {
        let mut chain = RevisionChain::delayed(op, t.clone());
        for p in ps {
            chain.revise(p.clone(), Backend::Direct);
        }
        chain.apply()?;
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
        folded.map(|()| chain.rep)
    }

    /// Record the revision `p` as pending; `backend` picks the route of
    /// every pending revision. Nothing is compiled until
    /// [`RevisionChain::apply`] or a query.
    pub fn revise(&mut self, p: Formula, backend: Backend) {
        self.ps.push(p);
        self.backend = backend;
    }

    /// Revise the chain by one more `p` with the direct backend, and
    /// apply it at once. On error `p` is not recorded.
    pub fn extend(&mut self, p: &Formula) -> Result<(), CompileError> {
        self.revise(p.clone(), Backend::Direct);
        self.apply().inspect_err(|_| {
            self.ps.pop();
        })
    }

    /// Apply every pending revision, by the route the type docs
    /// describe. On error the chain still answers for the prefix it
    /// applied, and the rest stays pending.
    pub fn apply(&mut self) -> Result<(), CompileError> {
        if self.applied == self.ps.len() {
            return Ok(());
        }
        if self.backend == Backend::Bdd {
            let alpha = revision_alphabet_seq(&self.t, &self.ps);
            if alpha.len() <= MAX_BDD_VARS {
                self.compile_bdd(&alpha);
                return Ok(());
            }
            if self.ps.len() == 1 {
                // Not `UpdateAlphabetTooLarge`: that variant's message
                // talks about |V(P)|, but the enumeration bound here is
                // on the *whole* revision alphabet.
                return Err(CompileError::AlphabetTooLarge {
                    op: self.op,
                    got: alpha.len(),
                    max: MAX_BDD_VARS,
                });
            }
        }
        let _span = revkb_obs::span("revision.compile_iterated");
        let _op_span = revkb_obs::span(self.op.name());
        let pending = &self.ps[self.applied..];
        if !(self.direct && pending.iter().all(|p| self.admits(p))) {
            let base = base_vars(&self.t, &self.ps);
            self.rep = CompactRep::query(self.t.clone(), base);
            (self.applied, self.direct, self.supply) = (0, true, None);
        }
        if let Some(widest) = self.pending().iter().max_by_key(|p| p.vars().len()) {
            check_width(self.op, widest)?;
        }
        let ps = std::mem::take(&mut self.ps);
        let stepped = ps[self.applied..].iter().try_for_each(|p| {
            self.step(p)?;
            self.applied += 1;
            Ok(())
        });
        self.ps = ps;
        stepped
    }

    /// The whole chain from `T` through the BDD pipeline: the models of
    /// `T * P¹ * … * Pᵐ`, selected on truth tables step by step
    /// ([`crate::semantic::revise_iterated_on`]) → the ROBDD built
    /// bottom-up from those models under the alphabet's order
    /// ([`revkb_bdd::BddManager::from_models`], no formula in between)
    /// → definitional formula (one fresh letter per BDD node). The
    /// result is query-equivalent over the base alphabet and has size
    /// linear in the BDD — the Section 7 data-structure view made into
    /// a compiler backend.
    fn compile_bdd(&mut self, alpha: &Alphabet) {
        let _span = revkb_obs::span("revision.compile_via_bdd");
        let _op_span = revkb_obs::span(self.op.name());
        let (mgr, node) = selected_bdd(self.op, alpha, &self.t, &self.ps);
        let mut supply = supply_above(std::iter::once(&self.t).chain(&self.ps));
        let formula = revkb_bdd::to_formula_definitional(&mgr, node, &mut supply);
        self.rep = CompactRep::query(formula, alpha.vars().to_vec());
        (self.applied, self.direct, self.supply) = (self.ps.len(), false, None);
    }

    /// Can `p` extend this chain, i.e. is `V(p)` inside its base
    /// alphabet?
    pub fn admits(&self, p: &Formula) -> bool {
        p.vars().iter().all(|v| self.rep.base.contains(v))
    }

    /// The one per-operator step dispatch.
    fn step(&mut self, p: &Formula) -> Result<(), CompileError> {
        let rep = &self.rep;
        let (formula, base) = (&rep.formula, &rep.base);
        let supply = self.supply.get_or_insert_with(|| {
            let top = formula.vars().into_iter().chain(base.iter().copied()).max();
            CountingSupply::new(top.map_or(0, |v| v.0 + 1))
        });
        let (limit, overflow) = (self.delta_limit, CompileError::DeltaEnumerationOverflow);
        let clausal = |(next, cnf): Step| (next, Some(cnf));
        let (next, clauses) = match self.op {
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
        let base = std::mem::take(&mut self.rep.base);
        let mut rep = CompactRep::query(next, base);
        if let Some(cnf) = clauses {
            rep = rep.with_clauses(cnf);
        }
        self.rep = rep;
        Ok(())
    }

    /// The operator every revision is compiled with.
    pub fn operator(&self) -> ModelBasedOp {
        self.op
    }

    /// Every revision, applied or pending, in order.
    pub fn revisions(&self) -> &[Formula] {
        &self.ps
    }

    /// The revisions not applied yet.
    pub fn pending(&self) -> &[Formula] {
        &self.ps[self.applied..]
    }

    /// The running representation `T'` of the applied prefix.
    pub fn formula(&self) -> &Formula {
        &self.rep.formula
    }

    /// The running representation of the applied prefix, which answers
    /// queries for the whole chain once nothing is pending.
    pub fn representation(&self) -> &CompactRep {
        &self.rep
    }

    /// The running representation, taken out of the chain.
    pub fn into_representation(self) -> CompactRep {
        self.rep
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Engine;
    use crate::equivalence::query_equivalent_enum;
    use crate::model_set::revision_alphabet_seq;
    use crate::semantic::{revise_iterated_on, revise_on};
    use revkb_logic::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    /// `T * P¹ * … * Pᵐ` through the BDD backend.
    fn via_bdd(
        op: ModelBasedOp,
        t: &Formula,
        ps: &[Formula],
    ) -> Result<RevisionChain, CompileError> {
        let mut chain = RevisionChain::delayed(op, t.clone());
        for p in ps {
            chain.revise(p.clone(), Backend::Bdd);
        }
        chain.apply().map(|()| chain)
    }

    #[test]
    fn compile_every_operator_single() {
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0).not().or(v(1).not());
        for op in ModelBasedOp::ALL {
            let kb = compact(op, &t, &p).unwrap();
            let alpha = revision_alphabet_seq(&t, std::slice::from_ref(&p));
            let oracle = revise_on(op, &alpha, &t, &p);
            assert!(
                query_equivalent_enum(&kb.formula, &oracle.to_dnf(), &kb.base),
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
            let kb = RevisionChain::compile(op, &t, &ps).unwrap();
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
            let via_bdd = via_bdd(op, &t, std::slice::from_ref(&p)).unwrap();
            let direct = compact(op, &t, &p).unwrap();
            assert!(
                query_equivalent_enum(
                    &via_bdd.representation().formula,
                    &direct.formula,
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
                let kb = via_bdd(op, &t, ps).unwrap();
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
        let err = via_bdd(ModelBasedOp::Dalal, &t, &[p]).unwrap_err();
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
        let err = compact(ModelBasedOp::Winslett, &t, &wide_p).unwrap_err();
        assert!(matches!(err, CompileError::UpdateAlphabetTooLarge { .. }));
        // Dalal and Weber accept it (query-compactable unbounded).
        assert!(compact(ModelBasedOp::Dalal, &t, &wide_p).is_ok());
        assert!(compact(ModelBasedOp::Weber, &t, &wide_p).is_ok());
    }

    #[test]
    fn delayed_kb_lazy_compilation() {
        let mut kb = RevisionChain::delayed(ModelBasedOp::Dalal, v(0).and(v(1)));
        assert!(kb.compiled_size().is_none());
        kb.revise(v(0).not().or(v(1).not()), Backend::Direct);
        kb.revise(v(0).not(), Backend::Direct);
        assert!(kb.compiled_size().is_none());
        // After two Dalal revisions: first keeps exactly one of x0/x1,
        // then ¬x0 forces... check against the oracle.
        let ps: Vec<Formula> = kb.pending().to_vec();
        let t = v(0).and(v(1));
        let alpha = revision_alphabet_seq(&t, &ps);
        let oracle = revise_iterated_on(ModelBasedOp::Dalal, &alpha, &t, &ps);
        assert_eq!(kb.try_entails(&v(1)).unwrap(), oracle.entails(&v(1)));
        assert_eq!(
            kb.try_entails(&v(0).not()).unwrap(),
            oracle.entails(&v(0).not())
        );
        assert!(kb.compiled_size().is_some());
        // A further revision invalidates the cache.
        kb.revise(v(1).not(), Backend::Direct);
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
        let kb = compact(ModelBasedOp::Dalal, &t, &p).unwrap();
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
            let kb = compact(op, &t, &p).unwrap();
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
        let kb = compact(ModelBasedOp::Dalal, &t, &p).unwrap();
        assert_eq!(
            kb.try_entails_batch(&[v(0), v(33)]),
            Err(crate::compact::QueryError::OutOfAlphabet { var: Var(33) })
        );
        assert!(kb.pool_stats().is_none());
    }

    #[test]
    fn delayed_kb_batch_compiles_and_resets() {
        let mut kb = RevisionChain::delayed(ModelBasedOp::Dalal, v(0).and(v(1)));
        kb.revise(v(0).not(), Backend::Direct);
        let answers = kb.try_entails_batch(&[v(1), v(0)]).unwrap();
        assert_eq!(answers, vec![true, false]);
        assert_eq!(kb.stats().pool.unwrap().queries, 2);
        kb.revise(v(1).not(), Backend::Direct);
        assert!(kb.stats().pool.is_none(), "revise drops the pool");
    }

    #[test]
    fn delayed_kb_stats_reset_on_revise() {
        let mut kb = RevisionChain::delayed(ModelBasedOp::Dalal, v(0).and(v(1)));
        kb.revise(v(0).not(), Backend::Direct);
        assert!(kb.stats().session.is_none());
        kb.try_entails(&v(1)).unwrap();
        assert_eq!(kb.stats().session.unwrap().queries, 1);
        kb.revise(v(1).not(), Backend::Direct);
        assert!(kb.stats().session.is_none(), "revise drops the session");
    }
}
