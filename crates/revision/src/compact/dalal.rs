//! Theorem 3.4: Dalal's operator is query-compactable.
//!
//! With `X` the alphabet of `T` and `P`, `Y` a fresh copy of `X` and
//! `k = k_{T,P}` the minimum distance between models of `T` and models
//! of `P`:
//!
//! ```text
//! T' = T[X/Y] ∧ P ∧ EXA(k, X, Y, W)
//! ```
//!
//! is query-equivalent to `T *D P`: a model of `T'` holds a `P`-model
//! on `X`, a `T`-model on `Y`, and the `EXA` circuit pins their
//! distance to exactly `k` — so the `X`-projections of `M(T')` are
//! exactly the models of `T *D P`. The size is `O(|T| + |P| +
//! n log n)`, polynomial as Theorem 3.4 requires.

use crate::compact::degenerate_result;
use crate::compact::rep::CompactRep;
use crate::distance::{min_distance_over, union_vars};
use revkb_circuits::exa;
use revkb_logic::{Formula, VarSupply};
use revkb_sat::supply_above;

/// Build Theorem 3.4's query-equivalent representation of `T *D P`.
///
/// Degenerate conventions (the paper sets these cases aside as
/// trivially compactable): unsatisfiable `P` yields `⊥`; unsatisfiable
/// `T` (with satisfiable `P`) yields `P`.
pub fn dalal_compact(t: &Formula, p: &Formula, supply: &mut impl VarSupply) -> CompactRep {
    let xs = union_vars(t, p);
    let Some(k) = min_distance_over(t, p, &xs) else {
        return CompactRep::query(degenerate_result(p), xs);
    };
    let ys: Vec<_> = xs.iter().map(|_| supply.fresh_var()).collect();
    let t_on_y = t.rename(&xs, &ys);
    let exa_k = exa(k, &xs, &ys, supply);
    CompactRep::query(t_on_y.and(p.clone()).and(exa_k), xs)
}

/// Convenience wrapper choosing a fresh-variable watermark above both
/// formulas automatically.
///
/// ```
/// use revkb_revision::compact::dalal::dalal_compact_auto;
/// use revkb_logic::{Formula, Var};
/// let t = Formula::var(Var(0)).and(Formula::var(Var(1)));
/// let p = Formula::var(Var(0)).not().or(Formula::var(Var(1)).not());
/// let rep = dalal_compact_auto(&t, &p);   // T[X/Y] ∧ P ∧ EXA(1,X,Y,W)
/// assert!(rep.entails(&Formula::var(Var(0)).or(Formula::var(Var(1)))));
/// assert!(!rep.logical);                   // query equivalence only
/// ```
pub fn dalal_compact_auto(t: &Formula, p: &Formula) -> CompactRep {
    let mut supply = supply_above([t, p]);
    dalal_compact(t, p, &mut supply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::query_equivalent_enum;
    use crate::semantic::{revise, ModelBasedOp};
    use revkb_logic::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn paper_example_dalal_rep() {
        // §2.2.2 example: T *D P selects exactly N1 = {a,b}.
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0)
            .not()
            .and(v(1).not())
            .and(v(3).not())
            .or(v(2).not().and(v(1)).and(v(0).xor(v(3))));
        let rep = dalal_compact_auto(&t, &p);
        // Query equivalence against the semantic oracle.
        let oracle = revise(ModelBasedOp::Dalal, &t, &p);
        assert!(query_equivalent_enum(
            &rep.formula,
            &oracle.to_dnf(),
            &rep.base
        ));
        // Spot queries: a ∧ b holds in N1; c does not.
        assert!(rep.entails(&v(0).and(v(1))));
        assert!(rep.entails(&v(2).not()));
    }

    #[test]
    fn consistent_case_reduces_to_conjunction() {
        let t = v(0).or(v(1));
        let p = v(0).not();
        let rep = dalal_compact_auto(&t, &p);
        // T ∧ P ≡ ¬g ∧ b: query-equivalent over {g, b}.
        assert!(query_equivalent_enum(
            &rep.formula,
            &t.clone().and(p.clone()),
            &rep.base
        ));
        assert!(rep.entails(&v(1)));
    }

    #[test]
    fn degenerate_cases() {
        let unsat = v(0).and(v(0).not());
        let p = v(1);
        let rep = dalal_compact_auto(&unsat, &p);
        assert!(revkb_sat::equivalent(&rep.formula, &p));
        let rep2 = dalal_compact_auto(&p, &unsat);
        assert!(!revkb_sat::satisfiable(&rep2.formula));
    }

    #[test]
    fn size_polynomial_in_inputs() {
        // |T'| should stay well under quadratic in n for a chain
        // family T = ⋀ xᵢ, P = ¬x₁ ∨ … (n growing).
        let mut sizes = Vec::new();
        for n in [4u32, 8, 16] {
            let t = Formula::and_all((0..n).map(v));
            let p = Formula::or_all((0..n).map(|i| v(i).not()));
            let rep = dalal_compact_auto(&t, &p);
            sizes.push(rep.size());
        }
        for w in sizes.windows(2) {
            assert!(
                (w[1] as f64) < 4.0 * w[0] as f64,
                "Dalal rep growth too steep: {sizes:?}"
            );
        }
    }

    #[test]
    fn rep_has_aux_letters_but_base_queries_work() {
        let t = v(0).and(v(1));
        let p = v(0).not().or(v(1).not());
        let rep = dalal_compact_auto(&t, &p);
        assert!(!rep.aux_vars().is_empty());
        assert!(!rep.logical);
        // k = 1: exactly one letter flips.
        assert!(rep.entails(&v(0).or(v(1))));
        assert!(rep.entails(&v(0).and(v(1)).not()));
    }
}
