//! # revkb — The Size of a Revised Knowledge Base
//!
//! A full reproduction of Cadoli, Donini, Liberatore & Schaerf,
//! *The Size of a Revised Knowledge Base* (PODS 1995): every belief
//! revision / knowledge update operator the paper analyses, the
//! compact-representation constructions behind its compactability
//! results, the hard instance families behind its non-compactability
//! results, and the substrates they run on (a CDCL SAT solver, an
//! ROBDD engine, Hamming-distance circuits, QBF expansion).
//!
//! Start with [`revision::RevisionChain`] (or [`ReviseBuilder`]) for
//! the paper's two-step query-answering pipeline, or the `examples/`
//! directory for runnable scenarios.
//!
//! ```
//! use revkb::logic::{parse, Signature};
//! use revkb::revision::{revise, ModelBasedOp};
//!
//! // The paper's office example: T = george ∨ bill, P = ¬george.
//! let mut sig = Signature::new();
//! let t = parse("george | bill", &mut sig).unwrap();
//! let p = parse("!george", &mut sig).unwrap();
//! let bill = parse("bill", &mut sig).unwrap();
//!
//! // Revision (Dalal) concludes Bill is in; update (Winslett) does not.
//! assert!(revise(ModelBasedOp::Dalal, &t, &p).entails(&bill));
//! assert!(!revise(ModelBasedOp::Winslett, &t, &p).entails(&bill));
//! ```

#![forbid(unsafe_code)]

pub use revkb_bdd as bdd;
pub use revkb_circuits as circuits;
pub use revkb_instances as instances;
pub use revkb_logic as logic;
pub use revkb_obs as obs;
pub use revkb_qbf as qbf;
pub use revkb_revision as revision;
pub use revkb_sat as sat;
pub use revkb_server as server;

// The unified front door, re-exported at the crate root: one error
// type, one engine trait, one typed builder — the API the server, the
// benches, and new callers are expected to use.
pub use revkb_revision::{Backend, Engine, Error, ReviseBuilder};

/// Everything a typical caller needs, importable in one line:
///
/// ```
/// use revkb::prelude::*;
///
/// let mut sig = Signature::new();
/// let t = parse("george | bill", &mut sig).unwrap();
/// let p = parse("!george", &mut sig).unwrap();
/// let mut kb = ReviseBuilder::new(ModelBasedOp::Dalal).compile(&t, &p).unwrap();
/// assert!(kb.entails(&parse("bill", &mut sig).unwrap()));
/// ```
pub mod prelude {
    pub use revkb_logic::{parse, render, Formula, Signature, Var};
    pub use revkb_revision::{
        compact, Backend, Engine, Error, GfuvEngine, ModelBasedOp, Profile, ReviseBuilder,
        RevisionChain, Theory, WidtioEngine,
    };
    pub use revkb_server::{Server, ServerConfig};
}
