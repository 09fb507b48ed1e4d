//! Iterated belief revision for an agent (§5–§6): a robot keeps
//! revising its world model as observations arrive, using the
//! delayed-compilation strategy the paper's conclusions recommend.
//!
//! ```text
//! cargo run --example agent_beliefs
//! ```
//!
//! The robot tracks four rooms (`litᵢ` = room `i` is lit) and starts
//! believing all rooms are lit with a wiring constraint. Observations
//! arrive one at a time; queries are answered by compiling
//! `T *D P¹ *D … *D Pᵏ` into Theorem 5.1's `Φₖ` on demand. The size
//! of the compiled representation grows *polynomially* with the
//! number of revisions — the paper's Table 2 "YES" entry for Dalal
//! under query equivalence.

use revkb::logic::{Formula, Signature};
use revkb::revision::{Backend, Engine, ModelBasedOp, RevisionChain};

fn main() {
    let mut sig = Signature::new();
    let lit: Vec<Formula> = (0..4)
        .map(|i| Formula::var(sig.var(&format!("lit{i}"))))
        .collect();

    // Initial beliefs: all rooms lit, and rooms 2/3 share a breaker.
    let t = Formula::and_all(lit.iter().cloned()).and(lit[2].clone().iff(lit[3].clone()));
    println!("initial beliefs: all rooms lit; rooms 2 and 3 share a breaker");
    println!("|T| = {}\n", t.size());

    let mut kb = RevisionChain::delayed(ModelBasedOp::Dalal, t);

    let observations: Vec<(&str, Formula)> = vec![
        ("room 0 is dark", lit[0].clone().not()),
        (
            "room 2 or 3 is dark",
            lit[2].clone().not().or(lit[3].clone().not()),
        ),
        ("room 1 is dark", lit[1].clone().not()),
        ("room 0 is lit again", lit[0].clone()),
    ];

    for (label, p) in observations {
        kb.revise(p, Backend::Direct);
        println!("observe: {label}");
        let m = kb.revisions().len();
        // Query after each revision (compiles Φₘ lazily).
        let lit3 = &lit[3];
        let q = lit3.clone();
        let believes_lit3 = kb.try_entails(&q).expect("compile");
        let believes_dark3 = kb.try_entails(&q.clone().not()).expect("compile");
        let verdict = match (believes_lit3, believes_dark3) {
            (true, _) => "lit",
            (_, true) => "dark",
            _ => "unknown",
        };
        println!(
            "  after {m} revision(s): room 3 is {verdict}; compiled |Φ_{m}| = {}",
            kb.compiled_size().expect("compiled")
        );
    }

    println!();
    println!("Note how |Φₘ| grows by a bounded increment per revision —");
    println!("the paper's point that Dalal's operator stays query-compactable");
    println!("under iteration (Theorem 5.1), as long as new letters are allowed.");
}
