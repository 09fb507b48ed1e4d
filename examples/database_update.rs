//! The database scenario that motivates the bounded case (§4): a
//! large knowledge base, a small update.
//!
//! ```text
//! cargo run --example database_update
//! ```
//!
//! A personnel database records, per employee, a department bit and
//! an on-call bit, with integrity constraints linking them (every
//! engineering employee on the pager rotation, exactly one team lead
//! per department, …). The update — "employee 0 left engineering" —
//! touches two letters. The Section 4 constructions compile the
//! updated base into a *logically equivalent* formula only linearly
//! larger than the original, and queries run against the compilation.

use revkb::logic::{Formula, Signature, Var};
use revkb::revision::{compact, ModelBasedOp};

/// Build the database: for each employee `i`, letters `eng_i` (works
/// in engineering) and `oncall_i`, with constraints.
fn build_database(sig: &mut Signature, employees: usize) -> (Formula, Vec<Var>, Vec<Var>) {
    let eng: Vec<Var> = (0..employees)
        .map(|i| sig.var(&format!("eng{i}")))
        .collect();
    let oncall: Vec<Var> = (0..employees)
        .map(|i| sig.var(&format!("oncall{i}")))
        .collect();
    let mut constraints: Vec<Formula> = Vec::new();
    for i in 0..employees {
        // Engineering staff are on the pager rotation.
        constraints.push(Formula::var(eng[i]).implies(Formula::var(oncall[i])));
    }
    // The base facts: everyone currently in engineering and on call.
    for i in 0..employees {
        constraints.push(Formula::var(eng[i]));
        constraints.push(Formula::var(oncall[i]));
    }
    (Formula::and_all(constraints), eng, oncall)
}

fn main() {
    let employees = 12;
    let mut sig = Signature::new();
    let (t, eng, oncall) = build_database(&mut sig, employees);
    println!(
        "database: {} employees, |T| = {} variable occurrences",
        employees,
        t.size()
    );

    // The update touches a 2-letter alphabet: employee 0 left
    // engineering (and the constraint must be repaired).
    let p = Formula::var(eng[0]).not();
    println!("update:   P = !eng0  (|V(P)| = {})", p.vars().len());
    println!();

    println!(
        "{:<10} {:>8} {:>12} {:>14} {:>14}",
        "operator", "|T'|", "|T'|/|T|", "oncall0 open?", "eng1 kept?"
    );
    println!("{}", "-".repeat(64));
    for op in ModelBasedOp::ALL {
        let kb = compact(op, &t, &p).expect("bounded compile");
        // After the update: employee 0's on-call bit was recorded as
        // an independent fact, so it survives; employee 1's record
        // must be untouched.
        let still_oncall = kb.entails(&Formula::var(oncall[0]));
        let keeps_eng1 = kb.entails(&Formula::var(eng[1]));
        println!(
            "{:<10} {:>8} {:>11.2}x {:>14} {:>14}",
            op.name(),
            kb.size(),
            kb.size() as f64 / t.size() as f64,
            if still_oncall { "forced" } else { "open" },
            if keeps_eng1 { "yes" } else { "NO" }
        );
    }
    println!();
    println!(
        "Every compilation is polynomial in |T| — Section 4's point:\n\
         with |V(P)| bounded, all model-based operators admit compact\n\
         forms. (Dalal's row uses Theorem 3.4's EXA circuit, whose\n\
         n·log n guard dominates at this small |T| but is asymptotically\n\
         negligible.)"
    );
}
