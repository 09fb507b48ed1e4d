//! The workspace-wide error type.
//!
//! Before this module existed every layer had its own enum —
//! [`QueryError`] in the compact representations, [`CompileError`] in
//! the two-step engine, [`ParseError`] in the logic crate,
//! [`WorldBudgetExceeded`] in the formula-based engines — and callers
//! that drive the whole pipeline (the CLI, the server, the benches)
//! had to invent ad-hoc unions. [`Error`] is that union, made once:
//! every constituent converts in via `From`, and every variant maps to
//! a **stable machine-readable code** ([`Error::code`]) that the
//! `revkb-server` wire protocol reuses verbatim, so a client can match
//! on `"out_of_alphabet"` without parsing prose.

use crate::compact::QueryError;
use crate::engine::CompileError;
use crate::engine_formula_based::WorldBudgetExceeded;
use revkb_logic::{ParseError, ParseErrorKind};
use std::fmt;

/// Any error the revision pipeline can produce, from parsing input
/// text to compiling a revised base to answering a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input text is not a well-formed formula.
    Parse(ParseError),
    /// A query was rejected by a compiled representation.
    Query(QueryError),
    /// A compilation was refused.
    Compile(CompileError),
    /// The GFUV possible-worlds budget was exhausted.
    WorldBudget(WorldBudgetExceeded),
    /// The requested (operator, profile) pair has no compact
    /// representation at all — Table 1 / Table 2 say compiling is
    /// hopeless, so the builder refuses up front instead of producing
    /// an exponential artefact.
    NotCompactable {
        /// The paper's reference for the impossibility.
        reference: &'static str,
        /// The complexity collapse a compact representation would
        /// imply.
        consequence: &'static str,
    },
}

impl Error {
    /// A stable, machine-readable code for the error. These strings
    /// are part of the `revkb-server` wire protocol (the `code` field
    /// of an error response) — do not rename them.
    pub fn code(&self) -> &'static str {
        match self {
            Error::Parse(e) if e.kind == ParseErrorKind::TooDeep => "formula_too_deep",
            Error::Parse(_) => "parse",
            Error::Query(QueryError::OutOfAlphabet { .. }) => "out_of_alphabet",
            Error::Compile(CompileError::UpdateAlphabetTooLarge { .. }) => {
                "update_alphabet_too_large"
            }
            Error::Compile(CompileError::AlphabetTooLarge { .. }) => "alphabet_too_large",
            Error::Compile(CompileError::DeltaEnumerationOverflow) => "delta_overflow",
            Error::WorldBudget(_) => "world_budget_exceeded",
            Error::NotCompactable { .. } => "not_compactable",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Query(e) => write!(f, "{e}"),
            Error::Compile(e) => write!(f, "{e}"),
            Error::WorldBudget(e) => write!(f, "{e}"),
            Error::NotCompactable {
                reference,
                consequence,
            } => write!(
                f,
                "no compact representation exists for this operator and \
                 profile ({reference}): one would imply {consequence}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Query(e) => Some(e),
            Error::Compile(e) => Some(e),
            Error::WorldBudget(e) => Some(e),
            Error::NotCompactable { .. } => None,
        }
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<QueryError> for Error {
    fn from(e: QueryError) -> Self {
        Error::Query(e)
    }
}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e)
    }
}

impl From<WorldBudgetExceeded> for Error {
    fn from(e: WorldBudgetExceeded) -> Self {
        Error::WorldBudget(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::ModelBasedOp;
    use revkb_logic::Var;

    #[test]
    fn codes_are_stable() {
        let cases: Vec<(Error, &str)> = vec![
            (
                Error::Parse(ParseError {
                    position: 3,
                    message: "x".into(),
                    kind: ParseErrorKind::Syntax,
                }),
                "parse",
            ),
            (
                Error::Parse(ParseError {
                    position: 1000,
                    message: "x".into(),
                    kind: ParseErrorKind::TooDeep,
                }),
                "formula_too_deep",
            ),
            (
                Error::Query(QueryError::OutOfAlphabet { var: Var(7) }),
                "out_of_alphabet",
            ),
            (
                Error::Compile(CompileError::UpdateAlphabetTooLarge {
                    op: ModelBasedOp::Forbus,
                    got: 30,
                    max: 12,
                }),
                "update_alphabet_too_large",
            ),
            (
                Error::Compile(CompileError::AlphabetTooLarge {
                    op: ModelBasedOp::Dalal,
                    got: 25,
                    max: 20,
                }),
                "alphabet_too_large",
            ),
            (
                Error::Compile(CompileError::DeltaEnumerationOverflow),
                "delta_overflow",
            ),
            (
                Error::WorldBudget(WorldBudgetExceeded { budget: 4 }),
                "world_budget_exceeded",
            ),
            (
                Error::NotCompactable {
                    reference: "Th.3.1",
                    consequence: "NP ⊆ coNP/poly",
                },
                "not_compactable",
            ),
        ];
        for (err, code) in cases {
            assert_eq!(err.code(), code, "{err}");
        }
    }

    #[test]
    fn from_impls_and_display() {
        let e: Error = QueryError::OutOfAlphabet { var: Var(3) }.into();
        assert!(e.to_string().contains("base alphabet"));
        let e: Error = CompileError::DeltaEnumerationOverflow.into();
        assert!(e.to_string().contains("enumeration"));
        let e: Error = ParseError {
            position: 0,
            message: "empty".into(),
            kind: ParseErrorKind::Syntax,
        }
        .into();
        assert!(e.to_string().contains("parse error"));
        let e = Error::NotCompactable {
            reference: "Th.3.1",
            consequence: "NP ⊆ coNP/poly (PH collapses)",
        };
        assert!(e.to_string().contains("Th.3.1"));
        use std::error::Error as _;
        assert!(e.source().is_none());
    }
}
