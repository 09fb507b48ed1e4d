//! # revkb-sat
//!
//! A from-scratch CDCL SAT solver and formula-level decision
//! procedures for the `revkb` belief-revision system.
//!
//! - [`Solver`]: incremental CDCL (two-watched literals, first-UIP
//!   learning, VSIDS, Luby restarts, phase saving, assumptions);
//! - [`satisfiable`] / [`entails`] / [`equivalent`] / [`find_model`]:
//!   formula-level queries via the Tseitin transform;
//! - [`models_projected`]: all-SAT with projection onto a
//!   sub-alphabet (the engine behind query-equivalence checking);
//! - [`QuerySession`]: incremental entailment — load a knowledge base
//!   once, answer many queries against it, with [`SolverStats`]
//!   observability. One session per compiled knowledge base answers
//!   its single queries and its batches alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod enumerate;
pub mod heap;
pub mod session;
pub mod solver;

pub use api::{
    entails, equivalent, find_model, pseudo_random_formula, satisfiable, solve_cnf, solver_for,
    supply_above, valid,
};
pub use enumerate::{all_models, count_models_projected, models_projected};
pub use session::{QuerySession, SolverStats};
pub use solver::{constructions, luby, LBool, Solver, Stats};
