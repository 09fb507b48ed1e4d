//! Sections 5–6: compact representations for *iterated* revision.
//!
//! **Unbounded case (Section 5):**
//! - [`dalal_iterated`] — Theorem 5.1's `Φₘ`: one fresh copy `Yᵢ` of
//!   the alphabet per step, chained `EXA(kᵢ, Yᵢ, Yᵢ₊₁, Wᵢ)` distance
//!   constraints, with each `kᵢ` computed offline against the running
//!   representation.
//! - [`weber_iterated`] — Corollary 5.2's formula (10): substitute the
//!   running `Ωᵢ` by fresh letters `Zᵢ`, conjoin `Pⁱ`.
//!
//! **Bounded case (Section 6):** formulas (12)–(16) express one
//! bounded revision step as a universally quantified condition over
//! the (constant-size) alphabet of `Pⁱ`, which [`revkb_qbf::Qbf::expand`]
//! turns into a propositional formula (Theorem 6.3):
//! - [`winslett_iterated_qbf`] / [`winslett_iterated`] — formulas
//!   (15)/(16); Borgida shares the construction (Cor 6.4).
//! - [`forbus_iterated`] — formula (14), with the `DIST < DIST`
//!   comparator realised by the gate-free bounded-alphabet circuits.
//! - [`satoh_iterated`] — **deviation from the paper**: formula (13)
//!   as printed quantifies the competing `T`-model only over `V(P)`
//!   while sharing the remaining letters with the outer model, which
//!   misses competitors that differ from the outer model outside
//!   `V(P)`; [`satoh_qbf_paper`] builds the printed formula and the
//!   test `paper_formula_13_counterexample` exhibits concrete `T`, `P`
//!   on which it is *not* query-equivalent to `T *S P`. We instead
//!   compute `δᵢ` offline (as Theorem 3.4 computes `k` offline) and
//!   encode Satoh's step as
//!   `Rᵢ₋₁[V(Pⁱ)/Yᵢ] ∧ Pⁱ ∧ ⋁_{S ∈ δᵢ} (differ(V(Pⁱ),Yᵢ) = S)`,
//!   which keeps one copy of the running representation per step and
//!   stays polynomial in `|T| + m`.

use crate::compact::degenerate_result;
use crate::compact::rep::CompactRep;
use crate::distance::{at_most_differences, delta_sets_in, min_distance_in, omega_of, Sides};
use crate::engine::{RevisionChain, DELTA_LIMIT};
use crate::semantic::ModelBasedOp;
use revkb_circuits::{distance_less_direct, exa};
use revkb_logic::{tseitin, CountingSupply, Formula, SharedCnf, Substitution, Var, VarSupply};
use revkb_qbf::Qbf;
use revkb_sat::supply_above;
use std::collections::BTreeSet;

/// `V(T) ∪ V(P¹) ∪ … ∪ V(Pᵐ)` in `Var` order.
pub fn base_vars(t: &Formula, ps: &[Formula]) -> Vec<Var> {
    let mut vars = t.vars();
    for p in ps {
        p.collect_vars(&mut vars);
    }
    vars.into_iter().collect()
}

/// The paper's `F_⊆(S₁,S₂,S₃,S₄) = ⋀ⱼ ((s₁ⱼ ≢ s₂ⱼ) → (s₃ⱼ ≢ s₄ⱼ))`:
/// the letters on which `S₁` and `S₂` differ are among those on which
/// `S₃` and `S₄` differ.
pub fn f_subset(s1: &[Var], s2: &[Var], s3: &[Var], s4: &[Var]) -> Formula {
    assert!(s1.len() == s2.len() && s2.len() == s3.len() && s3.len() == s4.len());
    Formula::and_all((0..s1.len()).map(|j| {
        Formula::var(s1[j])
            .xor(Formula::var(s2[j]))
            .implies(Formula::var(s3[j]).xor(Formula::var(s4[j])))
    }))
}

/// "The difference set between `xs` and `ys` is exactly `S`."
fn differ_exactly(xs: &[Var], ys: &[Var], s: &BTreeSet<Var>) -> Formula {
    Formula::and_all(xs.iter().zip(ys).map(|(&x, &y)| {
        if s.contains(&x) {
            Formula::var(x).xor(Formula::var(y))
        } else {
            Formula::var(x).iff(Formula::var(y))
        }
    }))
}

/// A step's result: the next running representation and a clausal
/// form of it, which is the previous step's clauses renamed plus
/// clauses for the new parts alone: their Tseitin clauses, except that
/// Dalal's `EXA` is replaced by an at-most-`kᵢ` counter (see
/// [`dalal_step`]). The clauses have the representation's models on
/// every letter of it but Dalal's `Wᵢ`, the base's included, which are
/// all a distance session or a query session asks about.
pub(crate) type Step = (Formula, SharedCnf);

/// The result of a step on a degenerate pair (see
/// [`degenerate_result`]), with its clauses.
fn degenerate_step(p: &Formula, supply: &mut CountingSupply) -> Step {
    let result = degenerate_result(p);
    let cnf = SharedCnf::from(tseitin(&result, supply));
    (result, cnf)
}

/// `δ` between the running representation (its clauses `prev_cnf`)
/// and `Pⁱ` (its clauses `p_cnf`), measured over `xs`: one session in
/// which the representation's letters `xs` are renamed to letters of
/// the session's own.
fn step_delta(
    prev_cnf: &SharedCnf,
    p_cnf: &SharedCnf,
    xs: &[Var],
    delta_limit: usize,
    supply: &CountingSupply,
) -> Option<Vec<BTreeSet<Var>>> {
    let mut own = supply.clone();
    let ys: Vec<Var> = xs.iter().map(|_| own.fresh_var()).collect();
    let a = prev_cnf.rename(xs, &ys);
    let sides = Sides {
        a: &a,
        b: p_cnf,
        xs,
        ys: &ys,
        supply: own,
    };
    delta_sets_in(sides, delta_limit)
}

/// One step of Theorem 5.1: `Φᵢ = Φᵢ₋₁[X/Yᵢ] ∧ Pⁱ ∧ EXA(kᵢ, X, Yᵢ, Wᵢ)`
/// over the base letters `X = xs`, with `kᵢ` computed offline against
/// `prev = Φᵢ₋₁`, whose clauses are `prev_cnf`. The distance session
/// loads `prev_cnf[X/Yᵢ]` and the clauses of `Pⁱ`, the first two parts
/// of `Φᵢ`'s clauses.
///
/// The third part is not `EXA`'s Tseitin clauses but "`X` and `Yᵢ`
/// differ in at most `kᵢ` places" ([`at_most_differences`], on letters
/// drawn after `EXA`'s): `kᵢ` is the minimum distance, so no model of
/// the first two parts is closer, and the clauses have `Φᵢ`'s models on
/// every letter but `Wᵢ`.
pub(crate) fn dalal_step(
    prev: &Formula,
    prev_cnf: &SharedCnf,
    p: &Formula,
    xs: &[Var],
    supply: &mut CountingSupply,
) -> Step {
    let ys: Vec<Var> = xs.iter().map(|_| supply.fresh_var()).collect();
    let renamed = prev_cnf.rename(xs, &ys);
    let p_cnf = SharedCnf::from(tseitin(p, supply));
    let sides = Sides {
        a: &renamed,
        b: &p_cnf,
        xs,
        ys: &ys,
        supply: supply.clone(),
    };
    let Some(k) = min_distance_in(sides) else {
        return degenerate_step(p, supply);
    };
    let exa_k = exa(k, xs, &ys, supply);
    let within_k = SharedCnf::from(at_most_differences(xs, &ys, k, supply));
    (
        prev.rename(xs, &ys).and(p.clone()).and(exa_k),
        renamed.and(p_cnf).and(within_k),
    )
}

/// Theorem 5.1: `Φₘ`, the query-equivalent representation of
/// `T *D P¹ *D … *D Pᵐ`. Polynomial in `|T| + Σ|Pⁱ|`.
pub fn dalal_iterated(t: &Formula, ps: &[Formula], supply: &mut CountingSupply) -> CompactRep {
    fold_infallible(ModelBasedOp::Dalal, t, ps, supply)
}

/// One step of Corollary 5.2's formula (10): substitute the letters
/// `Ωᵢ` of the running representation (clauses `prev_cnf`) by fresh
/// letters, conjoin `Pⁱ`. `None` when the `δᵢ` enumeration exceeds
/// `delta_limit`.
pub(crate) fn weber_step(
    prev: &Formula,
    prev_cnf: &SharedCnf,
    p: &Formula,
    xs: &[Var],
    delta_limit: usize,
    supply: &mut CountingSupply,
) -> Option<Step> {
    let p_cnf = SharedCnf::from(tseitin(p, supply));
    let delta = step_delta(prev_cnf, &p_cnf, xs, delta_limit, supply)?;
    if delta.is_empty() {
        return Some(degenerate_step(p, supply));
    }
    let omega = omega_of(delta);
    let zs: Vec<Var> = omega.iter().map(|_| supply.fresh_var()).collect();
    Some((
        prev.rename(&omega, &zs).and(p.clone()),
        prev_cnf.rename(&omega, &zs).and(p_cnf),
    ))
}

/// Corollary 5.2 (formula 10): the query-equivalent representation of
/// `T *Web P¹ *Web … *Web Pᵐ`, size linear in `|T| + Σ|Pⁱ|`.
/// `delta_limit` caps each step's minimal-difference enumeration.
pub fn weber_iterated(
    t: &Formula,
    ps: &[Formula],
    delta_limit: usize,
    supply: &mut CountingSupply,
) -> Option<CompactRep> {
    RevisionChain::fold(ModelBasedOp::Weber, t, ps, delta_limit, supply).ok()
}

/// One Winslett step as a QBF (formulas 12/15/16): given the running
/// representation `prev` (over base + auxiliary letters), produce
/// `prev[V(P)/Y] ∧ P ∧ ∀Z.((F_P(Z) ∧ F_⊆(Z,Y,Y,V(P))) → F_⊆(V(P),Y,Y,Z))`.
fn winslett_step(prev: Qbf, p: &Formula, supply: &mut impl VarSupply) -> Qbf {
    let pvars: Vec<Var> = p.vars().into_iter().collect();
    let ys: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let zs: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let renamed = prev.substitute(&Substitution::renaming(&pvars, &ys));
    let f_p_z = p.rename(&pvars, &zs);
    let premise = f_p_z.and(f_subset(&zs, &ys, &ys, &pvars));
    let conclusion = f_subset(&pvars, &ys, &ys, &zs);
    renamed
        .and(Qbf::prop(p.clone()))
        .and(Qbf::forall(zs, Qbf::prop(premise.implies(conclusion))))
}

/// Formulas (15)/(16): the query-equivalent QBF for
/// `T *Win P¹ *Win … *Win Pᵐ` (also Borgida's upper bound, Cor 6.4).
pub fn winslett_iterated_qbf(t: &Formula, ps: &[Formula], supply: &mut impl VarSupply) -> Qbf {
    let mut cur = Qbf::prop(t.clone());
    for p in ps {
        cur = winslett_step(cur, p, supply);
    }
    cur
}

/// One Winslett step, expanded (Theorem 6.3): [`winslett_step`] on
/// the running representation, with its `∀Z` block expanded. Renaming
/// commutes with expansion, so folding this step gives exactly the
/// expansion of [`winslett_iterated_qbf`].
pub(crate) fn winslett_step_expanded(
    prev: &Formula,
    p: &Formula,
    supply: &mut impl VarSupply,
) -> Formula {
    winslett_step(Qbf::prop(prev.clone()), p, supply).expand()
}

/// Theorem 6.1 + 6.3: the propositional expansion of
/// [`winslett_iterated_qbf`], polynomial in `|T| + m` for bounded
/// `|Pⁱ|`.
pub fn winslett_iterated(t: &Formula, ps: &[Formula], supply: &mut CountingSupply) -> CompactRep {
    fold_infallible(ModelBasedOp::Winslett, t, ps, supply)
}

/// One Forbus step (formula 14 with gate-free bounded-alphabet
/// distance comparison), expanded:
/// `prev[V(P)/Y] ∧ P ∧ ∀Z.(F_P(Z) → ¬ DIST(Z,Y) < DIST(V(P),Y))`.
pub(crate) fn forbus_step(prev: &Formula, p: &Formula, supply: &mut impl VarSupply) -> Formula {
    let pvars: Vec<Var> = p.vars().into_iter().collect();
    let ys: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let zs: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let renamed = prev.rename(&pvars, &ys);
    let f_p_z = p.rename(&pvars, &zs);
    let closer = distance_less_direct(&zs, &pvars, &ys);
    let no_closer = Qbf::forall(zs, Qbf::prop(f_p_z.implies(closer.not())));
    renamed.and(p.clone()).and(no_closer.expand())
}

/// Theorem 6.2 (Forbus part): the query-equivalent propositional
/// representation of `T *F P¹ *F … *F Pᵐ`, polynomial in `|T| + m`
/// for bounded `|Pⁱ|`.
pub fn forbus_iterated(t: &Formula, ps: &[Formula], supply: &mut CountingSupply) -> CompactRep {
    fold_infallible(ModelBasedOp::Forbus, t, ps, supply)
}

/// The paper's formula (13), verbatim, for a *single* Satoh revision:
///
/// ```text
/// T[V(P)/Y] ∧ P ∧ ∀W.∀Z.((F_P(Z) ∧ T[V(P)/W] ∧ F_⊆(Z,W,Y,V(P)))
///                          → F_⊆(V(P),Y,W,Z))
/// ```
///
/// **Known issue (documented reproduction finding):** the universally
/// quantified competing `T`-model is only re-assigned on `V(P)` and
/// shares every other letter with the outer model, so competitors that
/// differ from the outer model outside `V(P)` are missed and the
/// formula can accept models Satoh rejects. See the test
/// `paper_formula_13_counterexample`.
pub fn satoh_qbf_paper(t: &Formula, p: &Formula, supply: &mut impl VarSupply) -> Qbf {
    let pvars: Vec<Var> = p.vars().into_iter().collect();
    let ys: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let ws: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let zs: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let t_y = t.rename(&pvars, &ys);
    let t_w = t.rename(&pvars, &ws);
    let f_p_z = p.rename(&pvars, &zs);
    let premise = f_p_z.and(t_w).and(f_subset(&zs, &ws, &ys, &pvars));
    let conclusion = f_subset(&pvars, &ys, &ws, &zs);
    Qbf::prop(t_y.and(p.clone())).and(Qbf::forall(
        ws,
        Qbf::forall(zs, Qbf::prop(premise.implies(conclusion))),
    ))
}

/// One Satoh step of our corrected construction: `δᵢ` (the ⊆-minimal
/// global difference sets between the running theory and `Pⁱ`,
/// computed offline with the SAT solver, all inside `V(Pⁱ)`) is baked
/// into the formula:
///
/// ```text
/// prev[V(P)/Y] ∧ P ∧ ⋁_{S ∈ δᵢ} differ(V(P), Y) = S
/// ```
///
/// `prev_cnf` is `prev`'s clauses; the step returns the result's.
pub(crate) fn satoh_step(
    prev: &Formula,
    prev_cnf: &SharedCnf,
    p: &Formula,
    xs: &[Var],
    delta_limit: usize,
    supply: &mut CountingSupply,
) -> Option<Step> {
    let p_cnf = SharedCnf::from(tseitin(p, supply));
    let delta = step_delta(prev_cnf, &p_cnf, xs, delta_limit, supply)?;
    if delta.is_empty() {
        return Some(degenerate_step(p, supply));
    }
    let pvars: Vec<Var> = p.vars().into_iter().collect();
    let ys: Vec<Var> = pvars.iter().map(|_| supply.fresh_var()).collect();
    let selector = Formula::or_all(delta.iter().map(|s| differ_exactly(&pvars, &ys, s)));
    let selector_cnf = SharedCnf::from(tseitin(&selector, supply));
    Some((
        prev.rename(&pvars, &ys).and(p.clone()).and(selector),
        prev_cnf.rename(&pvars, &ys).and(p_cnf).and(selector_cnf),
    ))
}

/// Query-equivalent representation of `T *S P¹ *S … *S Pᵐ` for
/// bounded `|Pⁱ|` (Theorem 6.2, via the corrected construction
/// documented at module level). Polynomial in `|T| + m`: each step
/// adds `O(2^k · k + |Pⁱ|)` to the running formula.
pub fn satoh_iterated(
    t: &Formula,
    ps: &[Formula],
    delta_limit: usize,
    supply: &mut CountingSupply,
) -> Option<CompactRep> {
    RevisionChain::fold(ModelBasedOp::Satoh, t, ps, delta_limit, supply).ok()
}

/// One Borgida step: the conjunction when `Pⁱ` is consistent with the
/// running representation, and an expanded Winslett step (formula 16)
/// otherwise.
pub(crate) fn borgida_step(prev: &Formula, p: &Formula, supply: &mut impl VarSupply) -> Formula {
    let both = prev.clone().and(p.clone());
    if revkb_sat::satisfiable(&both) {
        both
    } else {
        winslett_step_expanded(prev, p, supply)
    }
}

/// Iterated Borgida (Corollary 6.4's upper bound, stepwise): each step
/// is the conjunction when consistent with the running representation,
/// and a Winslett step (formula 16) otherwise. Query-equivalent,
/// polynomial in `|T| + m` for bounded `|Pⁱ|`.
pub fn borgida_iterated(t: &Formula, ps: &[Formula], supply: &mut CountingSupply) -> CompactRep {
    fold_infallible(ModelBasedOp::Borgida, t, ps, supply)
}

/// [`RevisionChain::fold`] for the operators whose steps enumerate no
/// difference sets, and so cannot overflow.
fn fold_infallible(
    op: ModelBasedOp,
    t: &Formula,
    ps: &[Formula],
    supply: &mut CountingSupply,
) -> CompactRep {
    RevisionChain::fold(op, t, ps, DELTA_LIMIT, supply)
        .expect("a step without a difference enumeration cannot overflow")
}

/// Convenience: iterated Borgida with an automatic supply.
pub fn borgida_iterated_auto(t: &Formula, ps: &[Formula]) -> CompactRep {
    let mut supply = supply_above(std::iter::once(t).chain(ps));
    borgida_iterated(t, ps, &mut supply)
}

/// Convenience: iterated Dalal with an automatic supply.
pub fn dalal_iterated_auto(t: &Formula, ps: &[Formula]) -> CompactRep {
    let mut supply = supply_above(std::iter::once(t).chain(ps));
    dalal_iterated(t, ps, &mut supply)
}

/// Convenience: iterated Weber with an automatic supply.
pub fn weber_iterated_auto(t: &Formula, ps: &[Formula]) -> Option<CompactRep> {
    let mut supply = supply_above(std::iter::once(t).chain(ps));
    weber_iterated(t, ps, 100_000, &mut supply)
}

/// Convenience: iterated Winslett with an automatic supply.
pub fn winslett_iterated_auto(t: &Formula, ps: &[Formula]) -> CompactRep {
    let mut supply = supply_above(std::iter::once(t).chain(ps));
    winslett_iterated(t, ps, &mut supply)
}

/// Convenience: iterated Forbus with an automatic supply.
pub fn forbus_iterated_auto(t: &Formula, ps: &[Formula]) -> CompactRep {
    let mut supply = supply_above(std::iter::once(t).chain(ps));
    forbus_iterated(t, ps, &mut supply)
}

/// Convenience: iterated Satoh with an automatic supply.
pub fn satoh_iterated_auto(t: &Formula, ps: &[Formula]) -> Option<CompactRep> {
    let mut supply = supply_above(std::iter::once(t).chain(ps));
    satoh_iterated(t, ps, 100_000, &mut supply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::query_equivalent_enum;
    use crate::semantic::revise_iterated_on;
    use revkb_logic::Alphabet;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    fn check_iterated(op: ModelBasedOp, rep: &CompactRep, t: &Formula, ps: &[Formula]) {
        let alpha = Alphabet::new(rep.base.clone());
        let oracle = revise_iterated_on(op, &alpha, t, ps);
        assert!(
            query_equivalent_enum(&rep.formula, &oracle.to_dnf(), &rep.base),
            "iterated {} mismatch for {t:?} * {ps:?}",
            op.name()
        );
    }

    #[test]
    fn paper_section_5_example_weber() {
        // §5 example: T = x1∧…∧x5, P¹ = ¬x1 ∨ ¬x2, P² = ¬x5.
        // T *Web P¹ *Web P² has models {x1,x3,x4},{x2,x3,x4},{x3,x4}.
        let t = Formula::and_all((0..5).map(v));
        let p1 = v(0).not().or(v(1).not());
        let p2 = v(4).not();
        let ps = vec![p1, p2];
        let rep = weber_iterated_auto(&t, &ps).unwrap();
        check_iterated(ModelBasedOp::Weber, &rep, &t, &ps);
        let alpha = Alphabet::new(rep.base.clone());
        let oracle = revise_iterated_on(ModelBasedOp::Weber, &alpha, &t, &ps);
        assert_eq!(oracle.len(), 3);
    }

    #[test]
    fn dalal_iterated_two_steps() {
        let t = Formula::and_all((0..4).map(v));
        let p1 = v(0).not().or(v(1).not());
        let p2 = v(3).not();
        let ps = vec![p1, p2];
        let rep = dalal_iterated_auto(&t, &ps);
        check_iterated(ModelBasedOp::Dalal, &rep, &t, &ps);
    }

    #[test]
    fn dalal_iterated_single_step_matches_thm_3_4() {
        let t = v(0).and(v(1));
        let p = v(0).not().or(v(1).not());
        let rep_seq = dalal_iterated_auto(&t, std::slice::from_ref(&p));
        let rep_one = crate::compact::dalal::dalal_compact_auto(&t, &p);
        assert!(query_equivalent_enum(
            &rep_seq.formula,
            &rep_one.formula,
            &rep_seq.base
        ));
    }

    #[test]
    fn winslett_iterated_section_6_example() {
        // §6 example: T = x1∧…∧x5, P = ¬x1: single model
        // {x2,x3,x4,x5}.
        let t = Formula::and_all((0..5).map(v));
        let p = v(0).not();
        let ps = vec![p];
        let rep = winslett_iterated_auto(&t, &ps);
        check_iterated(ModelBasedOp::Winslett, &rep, &t, &ps);
        assert!(rep.entails(&v(1).and(v(2)).and(v(3)).and(v(4))));
        assert!(rep.entails(&v(0).not()));
    }

    #[test]
    fn winslett_iterated_multi_step() {
        let t = Formula::and_all((0..4).map(v));
        let ps = vec![v(0).not(), v(1).not().or(v(0)), v(2).xor(v(3))];
        let rep = winslett_iterated_auto(&t, &ps);
        check_iterated(ModelBasedOp::Winslett, &rep, &t, &ps);
    }

    #[test]
    fn stepwise_expansion_is_the_qbf_expansion() {
        // Expanding each Winslett step as it is taken gives the very
        // formula that expanding formula (15)/(16) for the whole chain
        // gives.
        let t = Formula::and_all((0..4).map(v)).and(v(4).or(v(5)));
        let ps = vec![v(0).not(), v(1).not().or(v(4)), v(2).xor(v(5)), v(3).not()];
        let mut supply = supply_above(std::iter::once(&t).chain(&ps));
        let stepwise = winslett_iterated(&t, &ps, &mut supply.clone());
        assert_eq!(
            stepwise.formula,
            winslett_iterated_qbf(&t, &ps, &mut supply).expand()
        );
    }

    #[test]
    fn forbus_iterated_multi_step() {
        let t = Formula::and_all((0..4).map(v));
        let ps = vec![v(0).not().or(v(1).not()), v(2).not(), v(0).xor(v(1))];
        let rep = forbus_iterated_auto(&t, &ps);
        check_iterated(ModelBasedOp::Forbus, &rep, &t, &ps);
    }

    #[test]
    fn borgida_iterated_mixed_consistency() {
        // A sequence where some steps are consistent (conjunction) and
        // some are not (Winslett step): Borgida must switch per step.
        let t = Formula::and_all((0..3).map(v));
        let ps = vec![
            v(0).not(),          // inconsistent with T: update step
            v(1).not().or(v(2)), // consistent: conjunction step
            v(1).not(),          // inconsistent: update step
        ];
        let rep = borgida_iterated_auto(&t, &ps);
        check_iterated(ModelBasedOp::Borgida, &rep, &t, &ps);
    }

    #[test]
    fn borgida_iterated_matches_winslett_when_all_inconsistent() {
        let t = Formula::and_all((0..3).map(v));
        let ps = vec![v(0).not(), v(1).not()];
        let b = borgida_iterated_auto(&t, &ps);
        let w = winslett_iterated_auto(&t, &ps);
        assert!(query_equivalent_enum(&b.formula, &w.formula, &b.base));
    }

    #[test]
    fn satoh_iterated_multi_step() {
        let t = Formula::and_all((0..4).map(v));
        let ps = vec![v(0).not().or(v(1).not()), v(2).not().or(v(3).not())];
        let rep = satoh_iterated_auto(&t, &ps).unwrap();
        check_iterated(ModelBasedOp::Satoh, &rep, &t, &ps);
    }

    #[test]
    fn satoh_single_step_matches_semantic() {
        let t = v(0).iff(v(1)).and(v(2));
        let p = v(0).xor(v(2));
        let rep = satoh_iterated_auto(&t, std::slice::from_ref(&p)).unwrap();
        check_iterated(ModelBasedOp::Satoh, &rep, &t, std::slice::from_ref(&p));
    }

    /// Reproduction finding: the paper's formula (13) is not query-
    /// equivalent to `T *S P` in general. With
    /// `T = (q∧a∧b₁) ∨ (¬q∧¬a∧b₁∧b₂)` and `P = ¬b₁ ∧ ¬b₂`:
    /// `δ(T,P) = {{b₁}}`, so `T *S P` has the single model `{q,a}`;
    /// but formula (13) also accepts `∅` because the competing
    /// `T`-model `{q,a,b₁}` differs from `∅` on `q,a ∉ V(P)` and the
    /// `∀W` quantifier cannot reach it.
    #[test]
    fn paper_formula_13_counterexample() {
        let (q, a, b1, b2) = (v(0), v(1), v(2), v(3));
        let t = q.clone().and(a.clone()).and(b1.clone()).or(q
            .clone()
            .not()
            .and(a.clone().not())
            .and(b1.clone())
            .and(b2.clone()));
        let p = b1.clone().not().and(b2.clone().not());
        let base: Vec<Var> = vec![Var(0), Var(1), Var(2), Var(3)];

        // Ground truth: T *S P = {{q,a}}.
        let alpha = Alphabet::new(base.clone());
        let oracle = crate::semantic::revise_on(ModelBasedOp::Satoh, &alpha, &t, &p);
        assert_eq!(oracle.len(), 1);

        // The paper's formula (13).
        let mut supply = supply_above([&t, &p]);
        let qbf = satoh_qbf_paper(&t, &p, &mut supply);
        let expanded = qbf.expand();
        assert!(
            !query_equivalent_enum(&expanded, &oracle.to_dnf(), &base),
            "formula (13) unexpectedly agreed — counterexample no longer applies"
        );
        // Specifically: it accepts the empty model, which Satoh rejects.
        let projected =
            revkb_sat::models_projected(&expanded, &base, 1 << 16).expect("projection small");
        assert!(projected.iter().any(|m| m.is_empty()));
        assert!(!oracle.contains_mask(0));

        // Our corrected construction agrees with the oracle.
        let rep = satoh_iterated_auto(&t, std::slice::from_ref(&p)).unwrap();
        assert!(query_equivalent_enum(&rep.formula, &oracle.to_dnf(), &base));
    }

    #[test]
    fn iterated_growth_is_additive() {
        // Size of the iterated reps should grow roughly linearly in m
        // for bounded P.
        let t = Formula::and_all((0..6).map(v));
        let ps: Vec<Formula> = (0..4).map(|i| v(i % 6).not()).collect();
        let mut sizes = Vec::new();
        for m in 1..=4 {
            let rep = dalal_iterated_auto(&t, &ps[..m]);
            sizes.push(rep.size());
        }
        let increments: Vec<i64> = sizes
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        let max_inc = *increments.iter().max().unwrap();
        let min_inc = *increments.iter().min().unwrap();
        assert!(
            max_inc <= 3 * min_inc.max(1),
            "increments not roughly constant: {sizes:?}"
        );
        // Weber's per-step growth is tiny (just |Pⁱ|).
        let mut weber_sizes = Vec::new();
        for m in 1..=4 {
            let rep = weber_iterated_auto(&t, &ps[..m]).unwrap();
            weber_sizes.push(rep.size());
        }
        for w in weber_sizes.windows(2) {
            assert!(w[1] - w[0] <= 4, "Weber growth too steep: {weber_sizes:?}");
        }
    }

    #[test]
    fn empty_sequence_is_identity() {
        let t = v(0).and(v(1));
        let rep = dalal_iterated_auto(&t, &[]);
        assert!(revkb_sat::equivalent(&rep.formula, &t));
        let repw = weber_iterated_auto(&t, &[]).unwrap();
        assert!(revkb_sat::equivalent(&repw.formula, &t));
    }

    #[test]
    fn degenerate_steps() {
        let t = v(0);
        let unsat = v(1).and(v(1).not());
        let ps = vec![unsat, v(2)];
        // After an unsatisfiable revision the next step revises ⊥,
        // which by convention yields P.
        let rep = dalal_iterated_auto(&t, &ps);
        assert!(revkb_sat::equivalent(&rep.formula, &v(2)));
    }
}
