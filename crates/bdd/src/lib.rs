//! # revkb-bdd
//!
//! A reduced ordered BDD engine: the canonical "generic data structure
//! with polynomial-time model checking" of the paper's Section 7.
//! BDD node counts are the data-structure size measure `|D|` in the
//! Section 7 experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod manager;

pub use extract::{from_definitional, to_formula_definitional, to_formula_shannon};
pub use manager::{BddManager, NodeId, FALSE, TRUE};
