//! The typed front door to compilation: [`ReviseBuilder`].
//!
//! The builder gathers the compile entry points behind typed options;
//! an unset option takes its documented default. Every entry point
//! returns a [`RevisionChain`], the one model-based knowledge base.
//!
//! ```
//! use revkb_revision::{Engine, ModelBasedOp, ReviseBuilder};
//! use revkb_logic::{Formula, Var};
//!
//! let t = Formula::var(Var(0)).or(Formula::var(Var(1)));
//! let p = Formula::var(Var(0)).not();
//! let mut kb = ReviseBuilder::new(ModelBasedOp::Dalal)
//!     .compile(&t, &p)
//!     .unwrap();
//! assert!(kb.entails(&Formula::var(Var(1))));
//! ```

use crate::advice::{advise, OperatorKind, Profile};
use crate::engine::{compact, Backend, RevisionChain};
use crate::error::Error;
use crate::semantic::ModelBasedOp;
use revkb_logic::Formula;

/// Typed configuration for compiling revised knowledge bases.
#[derive(Debug, Clone)]
pub struct ReviseBuilder {
    op: ModelBasedOp,
    backend: Backend,
    profile: Option<Profile>,
}

impl ReviseBuilder {
    /// A builder for the given operator with every option at its
    /// default.
    pub fn new(op: ModelBasedOp) -> Self {
        Self {
            op,
            backend: Backend::default(),
            profile: None,
        }
    }

    /// Choose the compilation pipeline (default: [`Backend::Direct`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Declare the usage profile. When set, [`ReviseBuilder::compile`]
    /// first consults Table 1 / Table 2 ([`advise`]) and refuses with
    /// [`Error::NotCompactable`] if the paper proves no compact
    /// representation can exist for this operator under the profile —
    /// failing fast instead of building an exponential artefact.
    pub fn profile(mut self, profile: Profile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// The operator this builder compiles for.
    pub fn operator(&self) -> ModelBasedOp {
        self.op
    }

    /// The Table 1 / Table 2 verdict for this builder's operator and
    /// profile, if a profile was declared.
    pub fn advice(&self) -> Option<crate::advice::Advice> {
        self.profile
            .map(|profile| advise(OperatorKind::ModelBased(self.op), profile))
    }

    fn check_profile(&self) -> Result<(), Error> {
        if let Some(crate::advice::Advice::NotCompactable {
            reference,
            consequence,
        }) = self.advice()
        {
            return Err(Error::NotCompactable {
                reference,
                consequence,
            });
        }
        Ok(())
    }

    /// Compile `T * P` (step 1 of the paper's pipeline) with every
    /// option applied: with the direct backend, Table 1's
    /// single-revision construction ([`compact`]).
    pub fn compile(&self, t: &Formula, p: &Formula) -> Result<RevisionChain, Error> {
        if self.backend == Backend::Bdd {
            return self.compile_iterated(t, std::slice::from_ref(p));
        }
        self.check_profile()?;
        let rep = compact(self.op, t, p)?;
        let ps = vec![p.clone()];
        let chain = RevisionChain::with_representation(self.op, self.backend, t.clone(), ps, rep);
        Ok(chain)
    }

    /// Compile the iterated revision `T * P¹ * … * Pᵐ` with every
    /// option applied, by the route [`RevisionChain::apply`] picks for
    /// this builder's backend. An empty `ps` yields the unrevised base.
    pub fn compile_iterated(&self, t: &Formula, ps: &[Formula]) -> Result<RevisionChain, Error> {
        self.check_profile()?;
        let mut chain = self.delayed(t.clone());
        for p in ps {
            chain.revise(p.clone(), self.backend);
        }
        chain.apply()?;
        Ok(chain)
    }

    /// A delayed-incorporation base (compile at first query) with this
    /// builder's operator.
    pub fn delayed(&self, t: Formula) -> RevisionChain {
        RevisionChain::delayed(self.op, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Engine;
    use revkb_logic::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn builder_matches_free_function_shims() {
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0).not().or(v(1).not());
        for op in ModelBasedOp::ALL {
            let mut built = ReviseBuilder::new(op).compile(&t, &p).unwrap();
            let shim = compact(op, &t, &p).unwrap();
            for q in [v(2), v(0).or(v(1))] {
                assert_eq!(built.entails(&q), shim.entails(&q), "{}", op.name());
            }
        }
    }

    #[test]
    fn hopeless_profile_is_refused() {
        // Winslett, unbounded P, no new letters: Table 1 says NO.
        let profile = Profile {
            bounded_p: false,
            allow_new_letters: false,
            iterated: false,
        };
        let err = ReviseBuilder::new(ModelBasedOp::Winslett)
            .profile(profile)
            .compile(&v(0), &v(1).not())
            .unwrap_err();
        assert_eq!(err.code(), "not_compactable");
        // Dalal under the new-letters profile is fine.
        let ok_profile = Profile {
            bounded_p: false,
            allow_new_letters: true,
            iterated: false,
        };
        assert!(ReviseBuilder::new(ModelBasedOp::Dalal)
            .profile(ok_profile)
            .compile(&v(0), &v(1).not())
            .is_ok());
    }

    #[test]
    fn bdd_backend_agrees_with_direct() {
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0).not().or(v(1).not());
        for op in ModelBasedOp::ALL {
            let mut direct = ReviseBuilder::new(op).compile(&t, &p).unwrap();
            let mut bdd = ReviseBuilder::new(op)
                .backend(Backend::Bdd)
                .compile(&t, &p)
                .unwrap();
            for q in [v(0), v(1), v(2), v(0).or(v(2))] {
                assert_eq!(
                    direct.entails(&q),
                    bdd.entails(&q),
                    "{} backend divergence",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn bdd_backend_compiles_chains() {
        let t = v(0).and(v(1)).and(v(2));
        let ps = [v(0).not().or(v(1).not()), v(2).not().or(v(3))];
        for op in ModelBasedOp::ALL {
            let bdd = ReviseBuilder::new(op).backend(Backend::Bdd);
            let mut via_bdd = RevisionChain::delayed(op, t.clone());
            for p in &ps {
                via_bdd.revise(p.clone(), Backend::Bdd);
            }
            via_bdd.apply().unwrap();
            let via_bdd = via_bdd.representation();
            let mut built = bdd.compile_iterated(&t, &ps).unwrap();
            let mut engine = bdd.compile_iterated(&t, &ps).unwrap();
            assert_eq!(
                built.representation().size(),
                via_bdd.size(),
                "{}",
                op.name()
            );
            assert_eq!(
                engine.compiled_size(),
                Some(via_bdd.size()),
                "{}",
                op.name()
            );
            let mut direct = ReviseBuilder::new(op).compile_iterated(&t, &ps).unwrap();
            for q in [v(0), v(1), v(2), v(3), v(0).or(v(3))] {
                assert_eq!(direct.entails(&q), built.entails(&q), "{}", op.name());
                assert_eq!(direct.entails(&q), engine.entails(&q), "{}", op.name());
            }
        }
    }

    #[test]
    fn engine_with_no_revisions_is_the_base() {
        let t = v(0).and(v(1));
        let mut engine = ReviseBuilder::new(ModelBasedOp::Dalal)
            .compile_iterated(&t, &[])
            .unwrap();
        assert!(engine.try_entails(&v(0)).unwrap());
        assert!(!engine.try_entails(&v(0).not()).unwrap());
        assert_eq!(
            engine.try_entails(&v(9)).unwrap_err().code(),
            "out_of_alphabet"
        );
    }

    #[test]
    fn backend_tags_round_trip() {
        for backend in [Backend::Direct, Backend::Bdd] {
            assert_eq!(Backend::from_tag(backend.tag()), Some(backend));
        }
        assert_eq!(Backend::from_tag("qbf"), None);
    }
}
