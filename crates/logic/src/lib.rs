//! # revkb-logic
//!
//! Propositional logic kernel for the `revkb` belief-revision system
//! (Cadoli–Donini–Liberatore–Schaerf, *The Size of a Revised Knowledge
//! Base*, PODS'95).
//!
//! Provides:
//! - [`Var`] / [`Signature`]: named propositional letters;
//! - [`Formula`]: the AST, with the paper's size measure `|W|`
//!   ([`Formula::size`]) and substitution `P[X/Y]`
//!   ([`Substitution`]);
//! - [`Interpretation`] (sets of letters) and dense [`Alphabet`]
//!   bitmask model enumeration;
//! - clausal form ([`Cnf`], [`tseitin`], [`SharedCnf`]) and DIMACS I/O;
//! - a parser ([`parse`]) and pretty-printer ([`render`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cnf;
pub mod dimacs;
pub mod eval;
pub mod formula;
pub mod parser;
pub mod printer;
pub mod shared_cnf;
pub mod simplify_cnf;
pub mod subst;
pub mod transform;
pub mod var;

pub use cnf::{
    distribute_cnf, tseitin, tseitin_auto, tseitin_definitions, Clause, Cnf, CountingSupply, Lit,
    VarSupply,
};
pub use dimacs::{parse_dimacs, write_dimacs, DimacsError};
pub use eval::{tt_entails, tt_equivalent, tt_satisfiable, tt_valid, Alphabet, Interpretation};
pub use formula::{vectors_differ_everywhere, vectors_equal, Formula};
pub use parser::{parse, parse_nested, ParseError, ParseErrorKind, MAX_DEPTH};
pub use printer::render;
pub use shared_cnf::SharedCnf;
pub use simplify_cnf::{simplify_cnf, SimplifyStats};
pub use subst::Substitution;
pub use var::{Signature, Var};
