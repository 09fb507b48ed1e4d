//! # revkb-revision
//!
//! The primary contribution of *The Size of a Revised Knowledge Base*
//! (Cadoli, Donini, Liberatore, Schaerf — PODS'95), as a library:
//!
//! - every revision operator the paper analyses — model-based
//!   ([`semantic::ModelBasedOp`]: Winslett, Borgida, Forbus, Satoh,
//!   Dalal, Weber) and formula-based ([`formula_based`]: GFUV, Nebel,
//!   WIDTIO);
//! - a ground-truth **semantic engine** ([`semantic`]) computing
//!   `M(T * P)` by enumeration;
//! - the paper's **compact representation constructions**
//!   ([`compact`](mod@compact)): Theorems 3.4/3.5 (single unbounded, query
//!   equivalence), Section 4's formulas (5)–(9) (single bounded,
//!   logical equivalence), Theorem 5.1's `Φₘ` and formula (10)
//!   (iterated unbounded) and Section 6's QBF forms (iterated
//!   bounded);
//! - SAT-based computation of `k_{T,P}`, `δ(T,P)` and `Ω`
//!   ([`distance`]);
//! - both equivalence criteria as decision procedures
//!   ([`equivalence`]);
//! - exact two-level minimisation ([`minimize`]) as the measurable
//!   "smallest formula" proxy;
//! - Figure 1's containment lattice ([`containment`]);
//! - the two-step query-answering engine ([`engine`]): Table 1's
//!   single-revision constructor [`engine::compact`], and
//!   [`engine::RevisionChain`], the one model-based knowledge base,
//!   which keeps `T` and every `Pⁱ`, applies pending revisions at the
//!   first query, and alone picks each revision's compile route. Its
//!   online half answers queries through an incremental
//!   [`revkb_sat::QuerySession`]: the compiled `T'` is loaded into one
//!   CDCL solver, each query runs under an activation literal keeping
//!   learned clauses across queries, answers are memoised, and a
//!   [`revkb_sat::SolverStats`] block is exposed via
//!   [`compact::CompactRep::query_stats`]. Queries outside the base
//!   alphabet are rejected in every build profile
//!   ([`compact::CompactRep::try_entails`] /
//!   [`compact::QueryError::OutOfAlphabet`]) rather than silently
//!   answered against the wrong alphabet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
pub mod api;
pub mod builder;
pub mod compact;
pub mod containment;
pub mod contraction;
pub mod counterfactual;
pub mod distance;
pub mod engine;
pub mod engine_formula_based;
pub mod equivalence;
pub mod error;
pub mod formula_based;
pub mod horn;
pub mod minimize;
pub mod model_check;
pub mod model_set;
pub mod postulates;
pub mod semantic;
mod truth_table;

pub use advice::{advise, Advice, OperatorKind, Profile};
pub use api::{Engine, GfuvEngine, WidtioEngine};
pub use builder::ReviseBuilder;
pub use compact::{CompactRep, EngineStats, QueryError};
pub use containment::{check_containments, containment_matrix, FIGURE1_EDGES};
pub use contraction::{contract, contract_on};
pub use counterfactual::{holds as counterfactual_holds, might_hold, Counterfactual};
pub use engine::{compact, Backend, CompileError, RevisionChain};
pub use engine_formula_based::{GfuvKb, WidtioKb, WorldBudgetExceeded};
pub use equivalence::{
    logically_equivalent, query_equivalent_bdd, query_equivalent_enum,
    query_equivalent_enum_limited,
};
pub use error::Error;
pub use formula_based::{
    gfuv_entails, gfuv_explicit, nebel_entails, nebel_preferred_subtheories, possible_worlds,
    widtio, world_count, Theory,
};
pub use horn::{horn_formula, horn_lub, is_horn_definable};
pub use model_check::{model_check, ModelCheckError};
pub use model_set::{revision_alphabet, revision_alphabet_seq, ModelSet};
pub use postulates::{
    check_postulate, postulate_report, Counterexample, Postulate, PostulateCheck,
};
pub use semantic::{revise, revise_iterated_on, revise_masks, revise_on, ModelBasedOp};
