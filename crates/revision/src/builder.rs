//! The typed front door to compilation: [`ReviseBuilder`].
//!
//! The workspace grew its entry points one at a time —
//! [`RevisedKb::compile`], [`RevisedKb::compile_via_bdd`],
//! [`DelayedKb::new`], plus the `REVKB_THREADS` / `REVKB_TRACE` /
//! `REVKB_CACHE_CAP` environment knobs read at scattered call sites.
//! The builder gathers all of it behind typed options with one rule:
//! **an explicit setter wins; an unset option falls back to the
//! `REVKB_*` environment variable; an unset variable falls back to the
//! documented default.** The old free functions remain as thin,
//! supported shims — nothing is deprecated silently.
//!
//! ```
//! use revkb_revision::{ModelBasedOp, ReviseBuilder};
//! use revkb_logic::{Formula, Var};
//!
//! let t = Formula::var(Var(0)).or(Formula::var(Var(1)));
//! let p = Formula::var(Var(0)).not();
//! let kb = ReviseBuilder::new(ModelBasedOp::Dalal)
//!     .threads(2)
//!     .compile(&t, &p)
//!     .unwrap();
//! assert!(kb.entails(&Formula::var(Var(1))));
//! ```

use crate::advice::{advise, OperatorKind, Profile};
use crate::api::Engine;
use crate::compact::CompactRep;
use crate::engine::{DelayedKb, RevisedKb};
use crate::error::Error;
use crate::semantic::ModelBasedOp;
use revkb_logic::Formula;
use revkb_obs::TraceMode;
use revkb_sat::PoolConfig;

/// Environment variable giving the default compiled-artifact cache
/// capacity (see [`ReviseBuilder::cache_capacity`] and the
/// `revkb-server` registry).
pub const CACHE_CAP_ENV: &str = "REVKB_CACHE_CAP";

/// Default compiled-artifact cache capacity when neither the builder
/// option nor [`CACHE_CAP_ENV`] says otherwise.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Which compilation pipeline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The construction Table 1 recommends per operator
    /// ([`RevisedKb::compile`] / [`RevisedKb::compile_iterated`]).
    #[default]
    Direct,
    /// The BDD pipeline ([`RevisedKb::compile_via_bdd`]): exact for
    /// any operator but needs an enumerable total alphabet.
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

/// Typed, env-aware configuration for compiling revised knowledge
/// bases. See the module docs for the precedence rule.
#[derive(Debug, Clone)]
pub struct ReviseBuilder {
    op: ModelBasedOp,
    backend: Backend,
    profile: Option<Profile>,
    threads: Option<usize>,
    trace: Option<TraceMode>,
    cache_capacity: Option<usize>,
}

impl ReviseBuilder {
    /// A builder for the given operator with every option at its
    /// environment-aware default.
    pub fn new(op: ModelBasedOp) -> Self {
        Self {
            op,
            backend: Backend::default(),
            profile: None,
            threads: None,
            trace: None,
            cache_capacity: None,
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

    /// Worker threads for batch query answering (default: the
    /// `REVKB_THREADS` variable, then available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Telemetry mode, applied process-wide at compile time (default:
    /// leave whatever `REVKB_TRACE` selected untouched).
    pub fn trace(mut self, mode: TraceMode) -> Self {
        self.trace = Some(mode);
        self
    }

    /// Compiled-artifact cache capacity for registries built from this
    /// builder (default: `REVKB_CACHE_CAP`, then
    /// [`DEFAULT_CACHE_CAPACITY`]). Compilation itself does not cache;
    /// the `revkb-server` registry reads this knob.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// The operator this builder compiles for.
    pub fn operator(&self) -> ModelBasedOp {
        self.op
    }

    /// The effective worker-thread count after applying the precedence
    /// rule (explicit option → `REVKB_THREADS` → parallelism).
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(revkb_sat::default_threads)
    }

    /// The effective artifact-cache capacity (explicit option →
    /// `REVKB_CACHE_CAP` → [`DEFAULT_CACHE_CAPACITY`]).
    pub fn effective_cache_capacity(&self) -> usize {
        if let Some(cap) = self.cache_capacity {
            return cap;
        }
        if let Ok(raw) = std::env::var(CACHE_CAP_ENV) {
            if let Ok(cap) = raw.trim().parse::<usize>() {
                return cap;
            }
        }
        DEFAULT_CACHE_CAPACITY
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

    fn apply_trace(&self) {
        if let Some(mode) = self.trace {
            revkb_obs::set_mode(mode);
        }
    }

    fn configure(&self, kb: &RevisedKb) {
        if let Some(threads) = self.threads {
            kb.set_pool_config(PoolConfig::with_threads(threads));
        }
    }

    /// Compile `T * P` (step 1 of the paper's pipeline) with every
    /// option applied. Thin wrapper over [`RevisedKb::compile`] /
    /// [`RevisedKb::compile_via_bdd`].
    pub fn compile(&self, t: &Formula, p: &Formula) -> Result<RevisedKb, Error> {
        self.check_profile()?;
        self.apply_trace();
        let kb = match self.backend {
            Backend::Direct => RevisedKb::compile(self.op, t, p)?,
            Backend::Bdd => RevisedKb::compile_via_bdd(self.op, t, std::slice::from_ref(p))?,
        };
        self.configure(&kb);
        Ok(kb)
    }

    /// Compile the iterated revision `T * P¹ * … * Pᵐ` with every
    /// option applied. Thin wrapper over
    /// [`RevisedKb::compile_iterated`] / [`RevisedKb::compile_via_bdd`].
    pub fn compile_iterated(&self, t: &Formula, ps: &[Formula]) -> Result<RevisedKb, Error> {
        self.check_profile()?;
        self.apply_trace();
        let kb = match self.backend {
            Backend::Direct => RevisedKb::compile_iterated(self.op, t, ps)?,
            Backend::Bdd => RevisedKb::compile_via_bdd(self.op, t, ps)?,
        };
        self.configure(&kb);
        Ok(kb)
    }

    /// A delayed-incorporation base (compile at first query) with this
    /// builder's operator.
    pub fn delayed(&self, t: Formula) -> DelayedKb {
        self.apply_trace();
        DelayedKb::new(self.op, t)
    }

    /// Build a boxed [`Engine`] for `T` revised by `ps` — the uniform
    /// artefact the `revkb-server` registry stores. An empty `ps`
    /// yields the unrevised base itself (a logically-equivalent
    /// [`CompactRep`] of `T`), so a freshly loaded knowledge base is
    /// queryable before its first revision.
    pub fn engine(&self, t: &Formula, ps: &[Formula]) -> Result<Box<dyn Engine + Send>, Error> {
        match ps {
            [] => {
                let base: Vec<_> = t.vars().into_iter().collect();
                let rep = CompactRep::logical(t.clone(), base);
                if let Some(threads) = self.threads {
                    rep.set_pool_config(PoolConfig::with_threads(threads));
                }
                Ok(Box::new(rep))
            }
            ps => Ok(Box::new(self.compile_iterated(t, ps)?)),
        }
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
    fn builder_matches_free_function_shims() {
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0).not().or(v(1).not());
        for op in ModelBasedOp::ALL {
            let built = ReviseBuilder::new(op).compile(&t, &p).unwrap();
            let shim = RevisedKb::compile(op, &t, &p).unwrap();
            for q in [v(2), v(0).or(v(1))] {
                assert_eq!(built.entails(&q), shim.entails(&q), "{}", op.name());
            }
        }
    }

    #[test]
    fn threads_reach_the_pool() {
        let t = v(0).and(v(1));
        let p = v(0).not();
        let kb = ReviseBuilder::new(ModelBasedOp::Dalal)
            .threads(2)
            .compile(&t, &p)
            .unwrap();
        kb.entails_batch(&[v(0), v(1), v(0).or(v(1))]);
        assert_eq!(kb.pool_stats().unwrap().threads, 2);
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
            let direct = ReviseBuilder::new(op).compile(&t, &p).unwrap();
            let bdd = ReviseBuilder::new(op)
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
            let via_bdd = RevisedKb::compile_via_bdd(op, &t, &ps).unwrap();
            let built = bdd.compile_iterated(&t, &ps).unwrap();
            let mut engine = bdd.engine(&t, &ps).unwrap();
            assert_eq!(built.size(), via_bdd.size(), "{}", op.name());
            assert_eq!(
                engine.compiled_size(),
                Some(via_bdd.size()),
                "{}",
                op.name()
            );
            let direct = ReviseBuilder::new(op).compile_iterated(&t, &ps).unwrap();
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
            .engine(&t, &[])
            .unwrap();
        assert!(engine.try_entails(&v(0)).unwrap());
        assert!(!engine.try_entails(&v(0).not()).unwrap());
        assert_eq!(
            engine.try_entails(&v(9)).unwrap_err().code(),
            "out_of_alphabet"
        );
    }

    #[test]
    fn effective_cache_capacity_defaults() {
        let b = ReviseBuilder::new(ModelBasedOp::Dalal);
        // Explicit wins over everything.
        assert_eq!(b.clone().cache_capacity(3).effective_cache_capacity(), 3);
        // Without the env var the documented default applies. (The
        // env-var path is covered by the server tests, which own the
        // process environment.)
        if std::env::var(CACHE_CAP_ENV).is_err() {
            assert_eq!(b.effective_cache_capacity(), DEFAULT_CACHE_CAPACITY);
        }
    }

    #[test]
    fn backend_tags_round_trip() {
        for backend in [Backend::Direct, Backend::Bdd] {
            assert_eq!(Backend::from_tag(backend.tag()), Some(backend));
        }
        assert_eq!(Backend::from_tag("qbf"), None);
    }
}
