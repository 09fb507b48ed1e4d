//! Section 7: compactability for **generic data structures** with
//! polynomial-time model checking (Definition 7.1).
//!
//! ROBDDs are the canonical such structure: `ASK(D, M)` is a single
//! root-to-terminal walk. This binary illustrates *why* Section 7
//! generalises from formulas to arbitrary data structures, and what
//! its limits are:
//!
//! 1. **Data structures can beat formulas.** On the
//!    contradictory-pairs reduction family the exact minimum DNF of
//!    the revised base provably has `2ⁿ` terms, yet the ROBDD stays
//!    linear — so a negative result about *formulas* alone would be
//!    too weak, which is exactly why Theorem 7.1 is stated for any
//!    poly-time-`ASK` structure.
//! 2. **But no structure escapes the collapse argument.** The Theorem
//!    3.6 reduction is re-verified with the BDD as the model-checking
//!    engine (`ASK(D, C_π) ⟺ π` satisfiable): a polynomial-size BDD
//!    family for the revised bases would put 3-SAT in P/poly.
//!
//! ```text
//! cargo run --release -p revkb-bench --bin section7
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use revkb_bdd::BddManager;
use revkb_bench::Series;
use revkb_instances::{
    all_instances, contradictory_pairs, gamma_max, random_satisfiable, Thm36Family,
};
use revkb_logic::Alphabet;
use revkb_revision::minimize::minimum_dnf_of;
use revkb_revision::{revise_on, ModelBasedOp};

fn main() {
    println!("== Section 7: generic data structures (ROBDD as Definition 7.1's D) ==");
    println!();

    // 1. Two-level formulas vs BDDs on the pairs family.
    let mut dnf_series = Series::new("exact min-DNF literals");
    let mut bdd_series = Series::new("ROBDD nodes (interleaved order)");
    for n in 1..=4usize {
        let family = Thm36Family::new(n, contradictory_pairs(n));
        let vars: Vec<_> = family
            .b
            .iter()
            .chain(&family.y)
            .chain(&family.c)
            .copied()
            .collect();
        let alpha = Alphabet::new(vars.clone());
        let revised = revise_on(ModelBasedOp::Dalal, &alpha, &family.t, &family.p_single);
        dnf_series.push(n as f64, minimum_dnf_of(&revised).literal_count() as f64);
        let mut mgr = BddManager::with_order(vars);
        let node = mgr.from_models(revised.masks());
        bdd_series.push(n as f64, mgr.size(node) as f64);
    }
    println!("pairs family (T*D P, n contradictory clause pairs):");
    println!(
        "  {}: {}   [{}]",
        dnf_series.label,
        dnf_series.render(),
        dnf_series.growth()
    );
    println!(
        "  {}: {}   [{}]",
        bdd_series.label,
        bdd_series.render(),
        bdd_series.growth()
    );
    println!("  → the BDD is exponentially more succinct than any DNF here,");
    println!("    which is why Definition 7.1 quantifies over ALL poly-ASK structures.");
    println!();

    // 2. The Thm 3.6 reduction with BDD model checking as ASK.
    let universe: Vec<_> = gamma_max(3).into_iter().take(4).collect();
    let family = Thm36Family::new(3, universe.clone());
    let vars: Vec<_> = family
        .b
        .iter()
        .chain(&family.y)
        .chain(&family.c)
        .copied()
        .collect();
    let alpha = Alphabet::new(vars.clone());
    let revised = revise_on(ModelBasedOp::Dalal, &alpha, &family.t, &family.p_single);
    let mut mgr = BddManager::with_order(vars);
    let node = mgr.from_models(revised.masks());
    let mut checked = 0;
    let mut agreed = 0;
    for pi in all_instances(3, &universe) {
        checked += 1;
        if mgr.model_check(node, &family.c_pi(&pi)) == pi.satisfiable() {
            agreed += 1;
        }
    }
    println!("Theorem 7.1 reduction with ASK = BDD walk:");
    println!(
        "  ASK(D, C_π) ⟺ π satisfiable verified on {agreed}/{checked} instances \
         ({} BDD nodes)",
        mgr.size(node)
    );
    assert_eq!(agreed, checked, "Theorem 7.1 reduction check failed");
    println!("  → a polynomial-size D family would place 3-SAT in P/poly.");
    println!();

    // 3. Benign random workloads for contrast.
    let mut rng = StdRng::seed_from_u64(0x5EC7);
    let mut benign = Series::new("ROBDD nodes of T*D P on random (T,P)");
    for n in [4usize, 6, 8, 10] {
        let mut total = 0usize;
        let samples = 5;
        for _ in 0..samples {
            let t = random_satisfiable(&mut rng, 3, n as u32, 0);
            let p = random_satisfiable(&mut rng, 3, n as u32, 0);
            let alpha = Alphabet::of_formulas([&t, &p]);
            let revised = revise_on(ModelBasedOp::Dalal, &alpha, &t, &p);
            let mut mgr = BddManager::with_order(alpha.vars().to_vec());
            let node = mgr.from_models(revised.masks());
            total += mgr.size(node);
        }
        benign.push(n as f64, (total / samples) as f64);
    }
    println!("contrast — random workloads:");
    println!(
        "  {}: {}   [{}]",
        benign.label,
        benign.render(),
        benign.growth()
    );
}
