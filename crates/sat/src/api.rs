//! Formula-level decision procedures built on the CDCL solver.
//!
//! These are the workhorse queries of the revision system:
//! satisfiability, entailment `T ⊨ Q`, logical equivalence, and model
//! extraction — all via the full Tseitin transform, whose auxiliary
//! letters are existentially harmless (every model of the original
//! formula extends to exactly one CNF model).

use crate::solver::Solver;
use revkb_logic::{tseitin, Cnf, CountingSupply, Formula, Interpretation, Var, VarSupply};
use std::collections::BTreeSet;

/// A fresh-variable supply placed above every variable of `fs`.
pub fn supply_above<'a, I: IntoIterator<Item = &'a Formula>>(fs: I) -> CountingSupply {
    let above = fs.into_iter().filter_map(Formula::max_var).max();
    CountingSupply::new(above.map_or(0, |v| v.0 + 1))
}

/// Build a solver loaded with the Tseitin CNF of `f`.
pub fn solver_for(f: &Formula, supply: &mut impl VarSupply) -> Solver {
    let cnf = tseitin(f, supply);
    let mut s = Solver::new();
    s.add_cnf(&cnf);
    s
}

/// Is `f` satisfiable?
///
/// ```
/// use revkb_logic::{Formula, Var};
/// let x = Formula::var(Var(0));
/// assert!(revkb_sat::satisfiable(&x));
/// assert!(!revkb_sat::satisfiable(&x.clone().and(x.not())));
/// ```
pub fn satisfiable(f: &Formula) -> bool {
    match f {
        Formula::True => return true,
        Formula::False => return false,
        _ => {}
    }
    let mut supply = supply_above([f]);
    solver_for(f, &mut supply).solve()
}

/// Does `a ⊨ b` hold? (`a ∧ ¬b` unsatisfiable.)
pub fn entails(a: &Formula, b: &Formula) -> bool {
    !satisfiable(&a.clone().and(b.clone().not()))
}

/// Are `a` and `b` logically equivalent (criterion (2) of the paper)?
pub fn equivalent(a: &Formula, b: &Formula) -> bool {
    !satisfiable(&a.clone().xor(b.clone()))
}

/// Is `f` valid?
pub fn valid(f: &Formula) -> bool {
    !satisfiable(&f.clone().not())
}

/// Find one model of `f` restricted to `V(f)`, or `None` if
/// unsatisfiable.
pub fn find_model(f: &Formula) -> Option<Interpretation> {
    let vars = f.vars();
    let mut supply = supply_above([f]);
    let mut s = solver_for(f, &mut supply);
    if !s.solve() {
        return None;
    }
    Some(
        vars.into_iter()
            .filter(|&v| s.model_value(v))
            .collect::<BTreeSet<Var>>(),
    )
}

/// Deterministic pseudo-random formula generator (LCG-driven, no
/// external RNG): the workhorse of differential tests that cross-check
/// solver paths against truth tables and each other.
///
/// The sequence is a pure function of the evolving `seed`, so test
/// failures reproduce exactly from the initial seed value.
pub fn pseudo_random_formula(seed: &mut u64, depth: u32, num_vars: u32) -> Formula {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let r = (*seed >> 33) as u32;
    if depth == 0 || r.is_multiple_of(7) {
        return Formula::lit(Var(r % num_vars), r & 1 == 0);
    }
    let a = pseudo_random_formula(seed, depth - 1, num_vars);
    let b = pseudo_random_formula(seed, depth - 1, num_vars);
    match r % 6 {
        0 => a.and(b),
        1 => a.or(b),
        2 => a.implies(b),
        3 => a.iff(b),
        4 => a.xor(b),
        _ => a.not(),
    }
}

/// Solve a raw CNF, returning one model if satisfiable.
pub fn solve_cnf(cnf: &Cnf) -> Option<Vec<bool>> {
    let mut s = Solver::new();
    if !s.add_cnf(cnf) {
        return None;
    }
    if s.solve() {
        Some(s.model())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revkb_logic::{tt_entails, tt_equivalent, tt_satisfiable, Formula, Var};

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn basic_queries() {
        assert!(satisfiable(&v(0)));
        assert!(!satisfiable(&v(0).and(v(0).not())));
        assert!(entails(&v(0).and(v(1)), &v(0)));
        assert!(!entails(&v(0).or(v(1)), &v(0)));
        assert!(equivalent(&v(0).implies(v(1)), &v(0).not().or(v(1))));
        assert!(valid(&v(0).or(v(0).not())));
        assert!(!valid(&v(0)));
    }

    #[test]
    fn constants() {
        assert!(satisfiable(&Formula::True));
        assert!(!satisfiable(&Formula::False));
        assert!(valid(&Formula::True));
    }

    #[test]
    fn find_model_satisfies() {
        let f = v(0).xor(v(1)).and(v(2).implies(v(0)));
        let m = find_model(&f).expect("satisfiable");
        assert!(f.eval(&m));
    }

    #[test]
    fn find_model_none_when_unsat() {
        assert!(find_model(&v(0).and(v(0).not())).is_none());
    }

    #[test]
    fn office_example() {
        // T = g ∨ b revised by P = ¬g: consistent, so T ∧ P ⊨ b.
        let (g, b) = (v(0), v(1));
        let t = g.clone().or(b.clone());
        let p = g.not();
        assert!(entails(&t.and(p), &b));
    }

    #[test]
    fn agrees_with_truth_tables() {
        let mut seed = 0xDEADBEEFu64;
        for _ in 0..200 {
            let f = pseudo_random_formula(&mut seed, 4, 6);
            assert_eq!(satisfiable(&f), tt_satisfiable(&f), "sat mismatch on {f:?}");
        }
        for _ in 0..100 {
            let a = pseudo_random_formula(&mut seed, 3, 5);
            let b = pseudo_random_formula(&mut seed, 3, 5);
            assert_eq!(entails(&a, &b), tt_entails(&a, &b), "entails mismatch");
            assert_eq!(equivalent(&a, &b), tt_equivalent(&a, &b), "equiv mismatch");
        }
    }
}
