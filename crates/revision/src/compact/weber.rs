//! Theorem 3.5: Weber's operator is query-compactable.
//!
//! With `Ω = ⋃δ(T,P)` (every letter appearing in some minimal
//! difference) and `Z` a fresh copy of `Ω`:
//!
//! ```text
//! T' = T[Ω/Z] ∧ P
//! ```
//!
//! is query-equivalent to `T *Web P`. The representation only adds
//! `|P|` to the size of `T` — the paper notes it is even more compact
//! than Dalal's.

use crate::compact::degenerate_result;
use crate::compact::rep::CompactRep;
use crate::distance::{delta_sets_over, omega_of, union_vars};
use revkb_logic::{Formula, VarSupply};
use revkb_sat::supply_above;

/// Build Theorem 3.5's query-equivalent representation of `T *Web P`.
///
/// `delta_limit` caps the enumeration of minimal difference sets used
/// to compute `Ω` (there can be exponentially many; their union is
/// what matters). Returns `None` if the cap is hit.
///
/// Degenerate conventions as for
/// [`crate::compact::dalal::dalal_compact`].
pub fn weber_compact(
    t: &Formula,
    p: &Formula,
    delta_limit: usize,
    supply: &mut impl VarSupply,
) -> Option<CompactRep> {
    let xs = union_vars(t, p);
    let delta = delta_sets_over(t, p, &xs, delta_limit)?;
    if delta.is_empty() {
        return Some(CompactRep::query(degenerate_result(p), xs));
    }
    let omega = omega_of(delta);
    let zs: Vec<_> = omega.iter().map(|_| supply.fresh_var()).collect();
    let t_sub = t.rename(&omega, &zs);
    Some(CompactRep::query(t_sub.and(p.clone()), xs))
}

/// Convenience wrapper with an automatic fresh-variable watermark and
/// a generous enumeration cap.
pub fn weber_compact_auto(t: &Formula, p: &Formula) -> Option<CompactRep> {
    let mut supply = supply_above([t, p]);
    weber_compact(t, p, 100_000, &mut supply)
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
    fn paper_example_weber_rep() {
        // §2.2.2 example: Ω = {a,b,c} and T *Web P ≡ P.
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0)
            .not()
            .and(v(1).not())
            .and(v(3).not())
            .or(v(2).not().and(v(1)).and(v(0).xor(v(3))));
        let rep = weber_compact_auto(&t, &p).unwrap();
        let oracle = revise(ModelBasedOp::Weber, &t, &p);
        assert!(query_equivalent_enum(
            &rep.formula,
            &oracle.to_dnf(),
            &rep.base
        ));
        // Here Weber's revision coincides with P.
        assert!(query_equivalent_enum(&rep.formula, &p, &rep.base));
    }

    #[test]
    fn consistent_case() {
        let t = v(0).or(v(1));
        let p = v(0).not();
        // Ω = ∅, so T' = T ∧ P.
        let rep = weber_compact_auto(&t, &p).unwrap();
        assert!(query_equivalent_enum(
            &rep.formula,
            &t.clone().and(p.clone()),
            &rep.base
        ));
    }

    #[test]
    fn size_linear_in_t() {
        // |T'| = |T| + |P|: substitution does not change size.
        for n in [4u32, 8, 16] {
            let t = Formula::and_all((0..n).map(v));
            let p = v(0).not();
            let rep = weber_compact_auto(&t, &p).unwrap();
            assert_eq!(rep.size(), t.size() + p.size());
        }
    }

    #[test]
    fn random_cross_check_with_oracle() {
        let mut seed = 99u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        fn build(rnd: &mut impl FnMut() -> u32, depth: u32, nv: u32) -> Formula {
            let r = rnd();
            if depth == 0 || r.is_multiple_of(6) {
                return Formula::lit(Var(r % nv), r & 1 == 0);
            }
            let a = build(rnd, depth - 1, nv);
            let b = build(rnd, depth - 1, nv);
            match r % 4 {
                0 => a.and(b),
                1 => a.or(b),
                2 => a.xor(b),
                _ => a.implies(b),
            }
        }
        let mut checked = 0;
        for _ in 0..40 {
            let t = build(&mut rnd, 3, 4);
            let p = build(&mut rnd, 3, 4);
            if !revkb_sat::satisfiable(&t) || !revkb_sat::satisfiable(&p) {
                continue;
            }
            let rep = weber_compact_auto(&t, &p).unwrap();
            let oracle = revise(ModelBasedOp::Weber, &t, &p);
            assert!(
                query_equivalent_enum(&rep.formula, &oracle.to_dnf(), &rep.base),
                "Weber rep mismatch for {t:?} * {p:?}"
            );
            checked += 1;
        }
        assert!(checked >= 10, "too few satisfiable samples");
    }

    #[test]
    fn degenerate_cases() {
        let unsat = v(0).and(v(0).not());
        let p = v(1);
        let rep = weber_compact_auto(&unsat, &p).unwrap();
        assert!(revkb_sat::equivalent(&rep.formula, &p));
        let rep2 = weber_compact_auto(&p, &unsat).unwrap();
        assert!(!revkb_sat::satisfiable(&rep2.formula));
    }
}
