//! Section 4: logically equivalent, linear-size representations when
//! `|P|` is bounded by a constant.
//!
//! The constructions exploit Proposition 2.1 (all relevant differences
//! stay inside `V(P)`) and Proposition 4.2 (`M ⊨ F` iff
//! `M△H ⊨ F[H/H̄]`) to enumerate the at most `2^|V(P)|` candidate
//! difference sets `S ⊆ V(P)` *in the formula itself*:
//!
//! - formula (5), Winslett: `P ∧ ⋁_S (T[S/S̄] ∧ ⋀_{∅≠C⊆S} ¬P[C/C̄])`
//! - Corollary 4.4, Borgida: `T ∧ P` if consistent, else formula (5)
//! - formula (6), Forbus: as (5) with the cardinality guard
//!   `|C△S| < |S|`
//! - formula (7), Satoh: `P ∧ ⋁_{S ∈ δ(T,P)} T[S/S̄]`
//! - formula (8), Dalal: `P ∧ ⋁_{|S| = k_{T,P}} T[S/S̄]`
//! - formula (9), Weber: `P ∧ ⋁_{S ⊆ Ω} T[S/S̄]`
//!
//! Every disjunct contains one flipped copy of `T`, so the size is
//! `O(2^{2k} · (|T| + |P|))` — *linear in `|T|`* for fixed `k`.
//! Unlike the Section 3 constructions these introduce **no new
//! letters**: they are logically equivalent (criterion (2)).

use crate::compact::degenerate_result;
use crate::compact::rep::CompactRep;
use crate::distance::{both_satisfiable, delta_sets_over, min_distance_over, omega_of, union_vars};
use revkb_logic::{Formula, Var};

/// All subsets of `vars`, as vectors (ascending by mask).
fn subsets(vars: &[Var]) -> Vec<Vec<Var>> {
    assert!(
        vars.len() < 24,
        "V(P) too large for the bounded construction"
    );
    (0..1u64 << vars.len())
        .map(|mask| {
            vars.iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect()
        })
        .collect()
}

fn as_mask(vars: &[Var], subset: &[Var]) -> u64 {
    subset
        .iter()
        .map(|v| 1u64 << vars.iter().position(|x| x == v).expect("subset of vars"))
        .fold(0, |a, b| a | b)
}

/// The degenerate inputs the paper sets aside, once the caller knows
/// that `T` or `P` is unsatisfiable.
fn degenerate(p: &Formula, base: Vec<Var>) -> CompactRep {
    CompactRep::logical(degenerate_result(p), base)
}

/// Formula (5): `T *Win P` as a logically equivalent formula of size
/// linear in `|T|` (Proposition 4.3).
pub fn winslett_bounded(t: &Formula, p: &Formula) -> CompactRep {
    let base = union_vars(t, p);
    if !both_satisfiable(t, p) {
        return degenerate(p, base);
    }
    let pvars: Vec<Var> = p.vars().into_iter().collect();
    let disjuncts = subsets(&pvars).into_iter().map(|s| {
        let s_mask = as_mask(&pvars, &s);
        let t_flipped = t.flip(&s);
        // No model of P strictly closer: for every nonempty C ⊆ S,
        // ¬P[C/C̄].
        let guards = Formula::and_all(subsets(&s).into_iter().filter_map(|c| {
            if c.is_empty() {
                None
            } else {
                Some(p.flip(&c).not())
            }
        }));
        let _ = s_mask;
        t_flipped.and(guards)
    });
    CompactRep::logical(p.clone().and(Formula::or_all(disjuncts)), base)
}

/// Corollary 4.4: `T *B P` — `T ∧ P` when consistent, formula (5)
/// otherwise. Logically equivalent, size linear in `|T|`.
pub fn borgida_bounded(t: &Formula, p: &Formula) -> CompactRep {
    // A consistent `T ∧ P` has both sides satisfiable; otherwise
    // Winslett's construction also covers the degenerate inputs.
    if revkb_sat::satisfiable(&t.clone().and(p.clone())) {
        CompactRep::logical(t.clone().and(p.clone()), union_vars(t, p))
    } else {
        winslett_bounded(t, p)
    }
}

/// Formula (6): `T *F P` — as Winslett's but with the cardinality
/// guard `|C△S| < |S|` (Theorem 4.5).
pub fn forbus_bounded(t: &Formula, p: &Formula) -> CompactRep {
    let base = union_vars(t, p);
    if !both_satisfiable(t, p) {
        return degenerate(p, base);
    }
    let pvars: Vec<Var> = p.vars().into_iter().collect();
    let all_subsets = subsets(&pvars);
    let disjuncts = all_subsets.iter().map(|s| {
        let s_mask = as_mask(&pvars, s);
        let t_flipped = t.flip(s);
        let guards = Formula::and_all(all_subsets.iter().filter_map(|c| {
            let c_mask = as_mask(&pvars, c);
            if (c_mask ^ s_mask).count_ones() < s_mask.count_ones() {
                Some(p.flip(c).not())
            } else {
                None
            }
        }));
        t_flipped.and(guards)
    });
    CompactRep::logical(p.clone().and(Formula::or_all(disjuncts)), base)
}

/// Formula (7): `T *S P = P ∧ ⋁_{S ∈ δ(T,P)} T[S/S̄]` (Theorem 4.6).
pub fn satoh_bounded(t: &Formula, p: &Formula) -> CompactRep {
    let base = union_vars(t, p);
    let delta =
        delta_sets_over(t, p, &base, 1 << 22).expect("δ enumeration exceeded the bounded-case cap");
    if delta.is_empty() {
        return degenerate(p, base);
    }
    let disjuncts = delta.into_iter().map(|s| {
        let s_vec: Vec<Var> = s.into_iter().collect();
        t.flip(&s_vec)
    });
    CompactRep::logical(p.clone().and(Formula::or_all(disjuncts)), base)
}

/// Formula (8): `T *D P = P ∧ ⋁_{S ⊆ V(P), |S| = k_{T,P}} T[S/S̄]`
/// (Theorem 4.6). Minimal-distance difference sets always lie inside
/// `V(P)`, so `S` ranges over `V(P)` only.
pub fn dalal_bounded(t: &Formula, p: &Formula) -> CompactRep {
    let base = union_vars(t, p);
    let Some(k) = min_distance_over(t, p, &base) else {
        return degenerate(p, base);
    };
    let pvars: Vec<Var> = p.vars().into_iter().collect();
    let disjuncts = subsets(&pvars)
        .into_iter()
        .filter(|s| s.len() == k)
        .map(|s| t.flip(&s));
    CompactRep::logical(p.clone().and(Formula::or_all(disjuncts)), base)
}

/// Formula (9): `T *Web P = P ∧ ⋁_{S ⊆ Ω} T[S/S̄]` (Theorem 4.6;
/// this is Weber's own definition read off directly).
pub fn weber_bounded(t: &Formula, p: &Formula) -> CompactRep {
    let base = union_vars(t, p);
    let delta =
        delta_sets_over(t, p, &base, 1 << 22).expect("δ enumeration exceeded the bounded-case cap");
    if delta.is_empty() {
        return degenerate(p, base);
    }
    let omega = omega_of(delta);
    let disjuncts = subsets(&omega).into_iter().map(|s| t.flip(&s));
    CompactRep::logical(p.clone().and(Formula::or_all(disjuncts)), base)
}

/// The paper's §4.2 simplification: "all representations can be
/// simplified by omitting in the disjunction all `T[S/S̄]` which are
/// inconsistent with `P`."
///
/// Operates on the shape the constructions produce — a top-level
/// conjunction whose last-level disjunctions enumerate the flip cases:
/// each disjunct is kept iff it is satisfiable together with the rest
/// of the conjunction. Logical equivalence is preserved (only
/// context-unsatisfiable disjuncts are dropped); the size usually
/// shrinks substantially because most `S ⊆ V(P)` flips contradict `P`.
pub fn prune_disjuncts(rep: &CompactRep) -> CompactRep {
    let Formula::And(parts) = &rep.formula else {
        return rep.clone();
    };
    let pruned_parts: Vec<Formula> = parts
        .iter()
        .enumerate()
        .map(|(i, part)| {
            let Formula::Or(disjuncts) = part else {
                return part.clone();
            };
            let context = Formula::and_all(
                parts
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, q)| q.clone()),
            );
            Formula::or_all(disjuncts.iter().filter_map(|d| {
                let probe = context.clone().and(d.clone());
                if revkb_sat::satisfiable(&probe) {
                    Some(d.clone())
                } else {
                    None
                }
            }))
        })
        .collect();
    CompactRep::new(
        Formula::and_all(pruned_parts),
        rep.base.clone(),
        rep.logical,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_set::ModelSet;
    use crate::semantic::{revise_on, ModelBasedOp};
    use revkb_logic::Alphabet;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    fn check(op: ModelBasedOp, t: &Formula, p: &Formula) {
        let rep = match op {
            ModelBasedOp::Winslett => winslett_bounded(t, p),
            ModelBasedOp::Borgida => borgida_bounded(t, p),
            ModelBasedOp::Forbus => forbus_bounded(t, p),
            ModelBasedOp::Satoh => satoh_bounded(t, p),
            ModelBasedOp::Dalal => dalal_bounded(t, p),
            ModelBasedOp::Weber => weber_bounded(t, p),
        };
        assert!(rep.logical, "bounded reps are logically equivalent");
        let alpha = Alphabet::new(rep.base.clone());
        let oracle = revise_on(op, &alpha, t, p);
        let got = ModelSet::of_formula(alpha, &rep.formula);
        assert_eq!(
            got,
            oracle,
            "bounded {} rep wrong for {t:?} * {p:?}\nformula: {:?}",
            op.name(),
            rep.formula
        );
    }

    #[test]
    fn paper_section_4_1_example() {
        // §4.1 example: T = a∧b∧c∧d∧e, P = ¬a ∨ ¬b; Forbus models
        // {a,c,d,e} and {b,c,d,e}.
        let t = Formula::and_all((0..5).map(v));
        let p = v(0).not().or(v(1).not());
        check(ModelBasedOp::Forbus, &t, &p);
        let rep = forbus_bounded(&t, &p);
        // The two expected models.
        let alpha = Alphabet::new(rep.base.clone());
        let ms = ModelSet::of_formula(alpha, &rep.formula);
        assert_eq!(ms.len(), 2);
        assert!(rep.formula.size() <= 40 * t.size(), "not linear in |T|");
    }

    #[test]
    fn paper_section_4_2_example() {
        // §4.2 example: same T, P; T*S = T*D has models {a,c,d,e},
        // {b,c,d,e}; T*Web additionally {c,d,e}.
        let t = Formula::and_all((0..5).map(v));
        let p = v(0).not().or(v(1).not());
        for op in [
            ModelBasedOp::Satoh,
            ModelBasedOp::Dalal,
            ModelBasedOp::Weber,
        ] {
            check(op, &t, &p);
        }
        let weber = weber_bounded(&t, &p);
        let alpha = Alphabet::new(weber.base.clone());
        let ms = ModelSet::of_formula(alpha, &weber.formula);
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn winslett_bounded_single_letter_update() {
        // §6's example: T = x1∧…∧x5, P = ¬x1: unique result model.
        let t = Formula::and_all((0..5).map(v));
        let p = v(0).not();
        check(ModelBasedOp::Winslett, &t, &p);
        check(ModelBasedOp::Borgida, &t, &p);
    }

    #[test]
    fn all_ops_on_random_bounded_instances() {
        let mut seed = 21u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        fn build(rnd: &mut impl FnMut() -> u32, depth: u32, nv: u32, lo: u32) -> Formula {
            let r = rnd();
            if depth == 0 || r.is_multiple_of(6) {
                return Formula::lit(Var(lo + r % nv), r & 1 == 0);
            }
            let a = build(rnd, depth - 1, nv, lo);
            let b = build(rnd, depth - 1, nv, lo);
            match r % 4 {
                0 => a.and(b),
                1 => a.or(b),
                2 => a.xor(b),
                _ => a.implies(b),
            }
        }
        let mut checked = 0;
        for _ in 0..30 {
            // T over 5 letters, P over the first 2 (bounded).
            let t = build(&mut rnd, 3, 5, 0);
            let p = build(&mut rnd, 2, 2, 0);
            if !revkb_sat::satisfiable(&t) || !revkb_sat::satisfiable(&p) {
                continue;
            }
            for op in ModelBasedOp::ALL {
                check(op, &t, &p);
            }
            checked += 1;
        }
        assert!(checked >= 8, "too few satisfiable samples: {checked}");
    }

    #[test]
    fn size_linear_in_t_for_fixed_p() {
        // Sweep |T| with P fixed: representation size must grow
        // linearly (ratio to |T| bounded).
        let p = v(0).not().or(v(1).not());
        let mut ratios = Vec::new();
        for n in [6u32, 12, 24] {
            let t = Formula::and_all((0..n).map(v));
            let rep = forbus_bounded(&t, &p);
            ratios.push(rep.size() as f64 / t.size() as f64);
        }
        let spread = ratios.iter().cloned().fold(f64::MIN, f64::max)
            / ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1.6, "ratio not stable: {ratios:?}");
    }

    #[test]
    fn pruning_preserves_equivalence_and_shrinks() {
        // §4.1 example: T = a∧b∧c∧d∧e, P = ¬a ∨ ¬b.
        let t = Formula::and_all((0..5).map(v));
        let p = v(0).not().or(v(1).not());
        for op in ModelBasedOp::ALL {
            let rep = match op {
                ModelBasedOp::Winslett => winslett_bounded(&t, &p),
                ModelBasedOp::Borgida => borgida_bounded(&t, &p),
                ModelBasedOp::Forbus => forbus_bounded(&t, &p),
                ModelBasedOp::Satoh => satoh_bounded(&t, &p),
                ModelBasedOp::Dalal => dalal_bounded(&t, &p),
                ModelBasedOp::Weber => weber_bounded(&t, &p),
            };
            let pruned = prune_disjuncts(&rep);
            assert!(
                revkb_sat::equivalent(&rep.formula, &pruned.formula),
                "{} pruning changed semantics",
                op.name()
            );
            assert!(
                pruned.size() <= rep.size(),
                "{} pruning grew the formula",
                op.name()
            );
        }
        // Winslett's (5) contains flips contradicting P: real shrink.
        let rep = winslett_bounded(&t, &p);
        let pruned = prune_disjuncts(&rep);
        assert!(pruned.size() < rep.size(), "expected a strict shrink");
    }

    #[test]
    fn pruning_is_identity_on_non_conjunctions() {
        let rep = CompactRep::logical(v(0).or(v(1)), vec![Var(0), Var(1)]);
        let pruned = prune_disjuncts(&rep);
        assert_eq!(pruned.formula, rep.formula);
    }

    #[test]
    fn degenerate_inputs() {
        let unsat = v(0).and(v(0).not());
        let p = v(1);
        for f in [
            winslett_bounded(&unsat, &p),
            forbus_bounded(&unsat, &p),
            satoh_bounded(&unsat, &p),
            dalal_bounded(&unsat, &p),
            weber_bounded(&unsat, &p),
            borgida_bounded(&unsat, &p),
        ] {
            assert!(revkb_sat::equivalent(&f.formula, &p));
        }
        let rep = winslett_bounded(&p, &unsat);
        assert!(!revkb_sat::satisfiable(&rep.formula));
    }
}
