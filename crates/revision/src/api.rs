//! The unified query-engine interface.
//!
//! Before this module, every compiled-base type had its own surface:
//! [`CompactRep`] answered with `&self` through interior mutability,
//! a delayed base needed `&mut self` and returned `CompileError`,
//! [`GfuvKb`]/[`WidtioKb`] answered without any alphabet guard. A
//! caller that wants to hold *some compiled knowledge base* — the
//! `revkb-server` registry, a bench harness, a differential test —
//! had to special-case each one.
//!
//! [`Engine`] is the union contract: answer entailment queries
//! (single and batch), fail loudly and uniformly
//! ([`crate::Error`]) on out-of-alphabet queries and failed lazy
//! compilations, report the base alphabet and the engine's statistics.
//! Every method takes `&mut self` — the weakest requirement that all
//! implementations can meet (lazy compilation genuinely mutates) — and
//! the trait is object-safe, so a server can store
//! `Box<dyn Engine + Send>` and dispatch without knowing which of the
//! paper's strategies is behind a knowledge base.

use crate::compact::CompactRep;
use crate::engine::RevisionChain;
use crate::engine_formula_based::{GfuvKb, WidtioKb, WorldBudgetExceeded};
use crate::error::Error;
use crate::formula_based::Theory;
use revkb_logic::{Formula, Var};
use revkb_sat::SolverStats;

/// A compiled (or lazily compiled) knowledge base that answers
/// entailment queries: the paper's "step 2", abstracted over every
/// "step 1" strategy the workspace implements.
pub trait Engine {
    /// A short human-readable description of the engine (operator and
    /// strategy), e.g. `"revised(Dalal)"` or `"delayed(Weber)"`.
    fn describe(&self) -> String;

    /// The base alphabet the entailment guarantee holds on. Queries
    /// must stay within it; [`Engine::try_entails`] rejects others.
    fn alphabet(&self) -> Vec<Var>;

    /// Size of the compiled representation (`|T'|`, variable
    /// occurrences), or `None` if nothing has been compiled yet.
    fn compiled_size(&self) -> Option<usize>;

    /// Counters of the engine's query session (`None` until the first
    /// query).
    fn stats(&self) -> Option<SolverStats>;

    /// Answer `T * P… ⊨ Q`, or report why the query is unanswerable
    /// (out-of-alphabet query, failed lazy compilation).
    fn try_entails(&mut self, q: &Formula) -> Result<bool, Error>;

    /// Answer a whole batch; the answer at index `i` is for
    /// `queries[i]`. `Err` means no answer was produced (the batch is
    /// checked before any work starts).
    fn try_entails_batch(&mut self, queries: &[Formula]) -> Result<Vec<bool>, Error>;

    /// The model-based knowledge base this engine is, which the next
    /// model-based revision revises ([`RevisionChain::revise`]).
    fn revision_chain(&self) -> Option<&RevisionChain> {
        None
    }

    /// The sub-theory a WIDTIO revision kept, which the next WIDTIO
    /// revision revises.
    fn kept_theory(&self) -> Option<&Theory> {
        None
    }

    /// Infallible single query.
    ///
    /// # Panics
    ///
    /// On any [`Engine::try_entails`] error: an undefined answer must
    /// not silently become a boolean.
    fn entails(&mut self, q: &Formula) -> bool {
        match self.try_entails(q) {
            Ok(answer) => answer,
            Err(e) => panic!("Engine::entails: {e}"),
        }
    }

    /// Infallible batch query.
    ///
    /// # Panics
    ///
    /// On any [`Engine::try_entails_batch`] error.
    fn entails_batch(&mut self, queries: &[Formula]) -> Vec<bool> {
        match self.try_entails_batch(queries) {
            Ok(answers) => answers,
            Err(e) => panic!("Engine::entails_batch: {e}"),
        }
    }
}

impl Engine for CompactRep {
    fn describe(&self) -> String {
        if self.logical {
            "compact-rep(logical)".to_string()
        } else {
            "compact-rep(query)".to_string()
        }
    }

    fn alphabet(&self) -> Vec<Var> {
        self.base.clone()
    }

    fn compiled_size(&self) -> Option<usize> {
        Some(self.size())
    }

    fn stats(&self) -> Option<SolverStats> {
        CompactRep::stats(self)
    }

    fn try_entails(&mut self, q: &Formula) -> Result<bool, Error> {
        CompactRep::try_entails(self, q).map_err(Error::from)
    }

    fn try_entails_batch(&mut self, queries: &[Formula]) -> Result<Vec<bool>, Error> {
        CompactRep::try_entails_batch(self, queries).map_err(Error::from)
    }
}

impl Engine for RevisionChain {
    /// `revised(<Op>)`, or `delayed(<Op>)` while a revision is pending;
    /// a chain with no revision describes its representation of `T`.
    fn describe(&self) -> String {
        let op = self.operator().name();
        match (self.revisions().is_empty(), self.pending().is_empty()) {
            (true, _) => Engine::describe(self.representation()),
            (false, true) => format!("revised({op})"),
            (false, false) => format!("delayed({op})"),
        }
    }

    fn alphabet(&self) -> Vec<Var> {
        // Before the pending revisions are applied the alphabet they
        // carry the guarantee on is already determined.
        let mut vars: std::collections::BTreeSet<Var> =
            self.representation().base.iter().copied().collect();
        for p in self.pending() {
            p.collect_vars(&mut vars);
        }
        vars.into_iter().collect()
    }

    /// `None` until a revision has been compiled, and while one is
    /// pending.
    fn compiled_size(&self) -> Option<usize> {
        let compiled = !self.revisions().is_empty() && self.pending().is_empty();
        compiled.then(|| self.representation().size())
    }

    /// `None` while a revision is pending.
    fn stats(&self) -> Option<SolverStats> {
        match self.pending() {
            [] => self.representation().stats(),
            _ => None,
        }
    }

    fn try_entails(&mut self, q: &Formula) -> Result<bool, Error> {
        self.apply()?;
        Ok(self.representation().try_entails(q)?)
    }

    fn try_entails_batch(&mut self, queries: &[Formula]) -> Result<Vec<bool>, Error> {
        self.apply()?;
        Ok(self.representation().try_entails_batch(queries)?)
    }

    fn revision_chain(&self) -> Option<&RevisionChain> {
        Some(self)
    }
}

/// The base alphabet `V(T) ∪ V(P)` of a formula-based revision, on
/// which its answers are defined.
fn formula_based_alphabet(theory: &Theory, p: &Formula) -> Vec<Var> {
    let mut vars = p.vars();
    for f in &theory.formulas {
        f.collect_vars(&mut vars);
    }
    vars.into_iter().collect()
}

/// [`GfuvKb`] as an [`Engine`]: queries run on one incremental session
/// over the materialised worlds.
///
/// `⋁W ⊨ Q` iff every world entails `Q`, so the engine answers through
/// a logically equivalent [`CompactRep`] of `⋁W` over `V(T) ∪ V(P)`:
/// `⋁W` is Tseitin-loaded once, as [`GfuvKb::shared_p_representation`],
/// and the rep's alphabet guard rejects queries the guarantee says
/// nothing about. [`GfuvKb::entails`] stays the one-shot reference, one
/// solver per world and query.
#[derive(Debug, Clone)]
pub struct GfuvEngine {
    rep: CompactRep,
    /// `|⋁W|` of the explicit representation, the paper's size measure.
    size: usize,
    worlds: usize,
}

impl GfuvEngine {
    /// Materialise `W(T,P)` up to `budget` worlds (Theorem 3.1 says
    /// this can be exponential — the budget keeps it honest).
    pub fn compile(theory: Theory, p: Formula, budget: usize) -> Result<Self, WorldBudgetExceeded> {
        let base = formula_based_alphabet(&theory, &p);
        let kb = GfuvKb::compile(theory, p, budget)?;
        Ok(Self {
            rep: CompactRep::logical(kb.shared_p_representation(), base),
            size: kb.explicit_size(),
            worlds: kb.world_count(),
        })
    }
}

impl Engine for GfuvEngine {
    fn describe(&self) -> String {
        format!("gfuv({} worlds)", self.worlds)
    }

    fn alphabet(&self) -> Vec<Var> {
        self.rep.base.clone()
    }

    fn compiled_size(&self) -> Option<usize> {
        Some(self.size)
    }

    fn stats(&self) -> Option<SolverStats> {
        self.rep.stats()
    }

    fn try_entails(&mut self, q: &Formula) -> Result<bool, Error> {
        Engine::try_entails(&mut self.rep, q)
    }

    fn try_entails_batch(&mut self, queries: &[Formula]) -> Result<Vec<bool>, Error> {
        Engine::try_entails_batch(&mut self.rep, queries)
    }
}

/// [`WidtioKb`] as an [`Engine`]: queries run on one incremental
/// session over the kept sub-theory.
///
/// WIDTIO may throw out every formula mentioning a letter, so the
/// alphabet is taken at compile time from the *inputs* — the kept
/// sub-theory alone would under-approximate it. [`WidtioKb::entails`]
/// stays the one-shot reference.
#[derive(Debug, Clone)]
pub struct WidtioEngine {
    kb: WidtioKb,
    rep: CompactRep,
}

impl WidtioEngine {
    /// Compile `T *wid P` over `V(T) ∪ V(P)`.
    pub fn compile(theory: &Theory, p: &Formula) -> Self {
        let kb = WidtioKb::compile(theory, p);
        let rep = CompactRep::logical(kb.theory().conjunction(), formula_based_alphabet(theory, p));
        Self { kb, rep }
    }

    /// The wrapped compiled sub-theory engine.
    pub fn kb(&self) -> &WidtioKb {
        &self.kb
    }
}

impl Engine for WidtioEngine {
    fn describe(&self) -> String {
        format!("widtio({} kept)", self.kb.theory().formulas.len())
    }

    fn alphabet(&self) -> Vec<Var> {
        self.rep.base.clone()
    }

    fn compiled_size(&self) -> Option<usize> {
        Some(self.kb.size())
    }

    fn stats(&self) -> Option<SolverStats> {
        self.rep.stats()
    }

    fn try_entails(&mut self, q: &Formula) -> Result<bool, Error> {
        Engine::try_entails(&mut self.rep, q)
    }

    fn try_entails_batch(&mut self, queries: &[Formula]) -> Result<Vec<bool>, Error> {
        Engine::try_entails_batch(&mut self.rep, queries)
    }

    fn kept_theory(&self) -> Option<&Theory> {
        Some(self.kb.theory())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Backend;
    use crate::semantic::ModelBasedOp;
    use revkb_logic::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn trait_object_dispatch_matches_concrete() {
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0).not().or(v(1).not());
        for op in ModelBasedOp::ALL {
            let concrete = crate::engine::compact(op, &t, &p).unwrap();
            let chain = crate::builder::ReviseBuilder::new(op).compile(&t, &p);
            let mut boxed: Box<dyn Engine> = Box::new(chain.unwrap());
            for q in [v(2), v(0).or(v(1)), v(0).and(v(1)), v(2).not()] {
                assert_eq!(
                    boxed.try_entails(&q).unwrap(),
                    concrete.entails(&q),
                    "{} diverges on {q:?}",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn delayed_kb_unified_error_instead_of_panic() {
        let mut kb = RevisionChain::delayed(ModelBasedOp::Dalal, v(0).and(v(1)));
        kb.revise(v(0).not(), Backend::Direct);
        let engine: &mut dyn Engine = &mut kb;
        // Out-of-alphabet through the trait is an Err, not a panic.
        let err = engine.try_entails(&v(9)).unwrap_err();
        assert_eq!(err.code(), "out_of_alphabet");
        assert!(engine.try_entails(&v(1)).unwrap());
    }

    #[test]
    fn delayed_kb_alphabet_known_before_compile() {
        let mut kb = RevisionChain::delayed(ModelBasedOp::Weber, v(0));
        kb.revise(v(1).not(), Backend::Direct);
        let engine: &dyn Engine = &kb;
        assert_eq!(engine.alphabet(), vec![Var(0), Var(1)]);
        assert_eq!(engine.compiled_size(), None);
    }

    #[test]
    fn formula_based_engines_guard_alphabet() {
        let theory = Theory::new([v(0), v(0).implies(v(1))]);
        let p = v(1).not();
        let mut widtio = WidtioEngine::compile(&theory, &p);
        // x0 was thrown out of the kept theory, but stays queryable.
        assert!(widtio.alphabet().contains(&Var(0)));
        assert!(!widtio.try_entails(&v(0)).unwrap());
        assert_eq!(
            widtio.try_entails(&v(5)).unwrap_err().code(),
            "out_of_alphabet"
        );

        let mut gfuv = GfuvEngine::compile(theory, p, 64).unwrap();
        assert!(gfuv.try_entails(&v(1).not()).unwrap());
        assert_eq!(
            gfuv.try_entails_batch(&[v(0), v(5)]).unwrap_err().code(),
            "out_of_alphabet"
        );
    }

    #[test]
    fn batch_equals_single_through_trait() {
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0).not().or(v(1).not());
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(crate::engine::compact(ModelBasedOp::Dalal, &t, &p).unwrap()),
            Box::new({
                let mut d = RevisionChain::delayed(ModelBasedOp::Dalal, t.clone());
                d.revise(p.clone(), Backend::Direct);
                d
            }),
        ];
        let queries = [v(0), v(1), v(2), v(0).or(v(1)), v(0).and(v(2))];
        for engine in &mut engines {
            let batch = engine.try_entails_batch(&queries).unwrap();
            let single: Vec<bool> = queries
                .iter()
                .map(|q| engine.try_entails(q).unwrap())
                .collect();
            assert_eq!(batch, single, "{}", engine.describe());
        }
    }
}
