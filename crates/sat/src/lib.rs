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
//!   observability;
//! - [`SessionPool`]: one session for single queries and batches,
//!   with further workers forked from it to shard a parallel batch
//!   over `REVKB_THREADS` threads, and merged [`PoolStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod enumerate;
pub mod heap;
pub mod pool;
pub mod session;
pub mod solver;

pub use api::{
    entails, equivalent, find_model, pseudo_random_formula, satisfiable, solve_cnf, solver_for,
    supply_above, valid,
};
pub use enumerate::{all_models, count_models_projected, models_projected};
pub use pool::{default_threads, PoolConfig, PoolStats, SessionPool, THREADS_ENV};
pub use session::{QuerySession, SolverStats};
pub use solver::{constructions, luby, LBool, Solver, Stats};
