//! SAT-based computation of the paper's proximity measures: the
//! minimum Hamming distance `k_{T,P}` (Dalal), the set `δ(T,P)` of
//! ⊆-minimal differences (Satoh) and `Ω = ⋃δ(T,P)` (Weber).
//!
//! These are the quantities the query-compactable constructions
//! pre-compute *offline* (step 1 of the paper's two-step query
//! answering). Unlike the enumeration oracle in [`crate::semantic`],
//! everything here runs on the CDCL solver and scales to alphabets far
//! beyond `2ⁿ` enumeration:
//!
//! - `k_{T,P}`: probe `T[X/Y] ∧ P ∧ EXA(d, X, Y, W)` for `d = 0, 1, …`
//! - `δ(T,P)`: find a satisfying difference, shrink it to a ⊆-minimal
//!   one, block all its supersets, repeat.
//!
//! Each call is one incremental session: `T[X/Y] ∧ P` is
//! Tseitin-loaded once into one solver, and every probe or shrink
//! constraint is encoded under a fresh activation literal, solved
//! under that assumption and retired by a unit clause — the pattern of
//! [`revkb_sat::QuerySession`]. The two sides share no letter, so the
//! session's first solve also decides whether both are satisfiable,
//! and callers use that answer instead of checking each side first.

use revkb_circuits::CircuitBuilder;
use revkb_logic::{
    tseitin, tseitin_definitions, Cnf, CountingSupply, Formula, Lit, Substitution, Var, VarSupply,
};
use revkb_sat::{supply_above, Solver};
use std::collections::{BTreeSet, HashMap};

/// A model of a formula, as the value of each of its letters.
pub(crate) type Witness = Vec<(Var, bool)>;

/// One incremental SAT session over `a[X/Y] ∧ b`, where `X = xs` and
/// `Y` are fresh copies: each model pairs a model of `a` (on `Y`) with
/// a model of `b` (on `X`).
struct PairSession {
    solver: Solver,
    supply: CountingSupply,
    xs: Vec<Var>,
    ys: Vec<Var>,
    /// Each letter of `a` with its copy in the session.
    copies: Vec<(Var, Var)>,
}

impl PairSession {
    /// Load `a[X/Y] ∧ b` and solve it once. `None` when it is
    /// unsatisfiable, i.e. when `a` or `b` is; otherwise the first
    /// model is available through [`PairSession::diff`]. A `hint` (a
    /// model of `a`) seeds the phases of the copies, so the first
    /// solve finds a model of `a[X/Y]` by propagation.
    fn open(a: &Formula, b: &Formula, xs: &[Var], hint: &[(Var, bool)]) -> Option<Self> {
        let mut supply = supply_above([a, b]);
        let (a_renamed, copies) = rename_apart(a, &mut supply);
        let copy_of: HashMap<Var, Var> = copies.iter().copied().collect();
        let ys: Vec<Var> = xs
            .iter()
            .map(|x| {
                copy_of
                    .get(x)
                    .copied()
                    .unwrap_or_else(|| supply.fresh_var())
            })
            .collect();
        let mut solver = Solver::new();
        solver.add_cnf(&tseitin(&a_renamed.and(b.clone()), &mut supply));
        for (v, value) in hint {
            if let Some(&copy) = copy_of.get(v) {
                solver.hint_phase(copy, *value);
            }
        }
        if !solver.solve() {
            return None;
        }
        Some(PairSession {
            solver,
            supply,
            xs: xs.to_vec(),
            ys,
            copies,
        })
    }

    /// Positions of `xs` on which the last model's `X` and `Y` differ.
    fn diff(&self) -> BTreeSet<usize> {
        let value = |v| self.solver.model_value(v);
        (0..self.xs.len())
            .filter(|&i| value(self.xs[i]) != value(self.ys[i]))
            .collect()
    }

    /// Solve with `f` asserted for this call only, plus the unit
    /// `assumptions`: `f` is encoded under a fresh activation literal
    /// that is retired afterwards ([`Solver::solve_with_gated`]).
    fn solve_with(&mut self, f: &Formula, assumptions: &[Lit]) -> bool {
        let cnf = tseitin(f, &mut self.supply);
        let act = Lit::pos(self.supply.fresh_var());
        self.solver.solve_with_gated(&cnf, act, assumptions)
    }
}

/// Rename *all* letters of `t` to fresh ones so it shares nothing with
/// the other side; returns `t` renamed and each letter with its copy.
fn rename_apart(t: &Formula, supply: &mut impl VarSupply) -> (Formula, Vec<(Var, Var)>) {
    let copies: Vec<(Var, Var)> = t
        .vars()
        .into_iter()
        .map(|v| (v, supply.fresh_var()))
        .collect();
    let mut sub = Substitution::new();
    for &(v, copy) in &copies {
        sub = sub.bind(v, Formula::var(copy));
    }
    (sub.apply(t), copies)
}

/// Are `a` and `b` both satisfiable? One solver over `a` renamed apart
/// from `b`, conjoined with `b`.
pub(crate) fn both_satisfiable(a: &Formula, b: &Formula) -> bool {
    PairSession::open(a, b, &[], &[]).is_some()
}

/// A closest pair between the models of `a` and `b`, at distance `k`
/// over `xs`: the values on `xs` of `b`'s side (`x`) and of `a`'s side
/// (`y`), and the values of `a`'s other letters.
pub(crate) struct Closest {
    pub(crate) k: usize,
    pub(crate) x: Vec<bool>,
    pub(crate) y: Vec<bool>,
    pub(crate) rest: Witness,
}

/// `k_{T,P}` generalised: the minimum Hamming distance, measured over
/// the letters `xs`, between models of `a` and models of `b`.
/// Letters of `a`/`b` outside `xs` are free. Returns `None` when
/// either formula is unsatisfiable.
///
/// This is exactly what iterated Dalal needs: `a` may be a compact
/// representation with auxiliary letters, whose projection onto `xs`
/// is the current revised theory.
///
/// The session's first model bounds `k` from above by its own
/// distance, so only the distances below it are probed. The probes
/// share one popcount circuit over the difference bits of `X` and `Y`,
/// loaded once: `EXA(d, X, Y, W)` is that circuit plus "the count is
/// `d`", which is a cube over the count bits and so is asked as solver
/// assumptions.
pub fn min_distance_over(a: &Formula, b: &Formula, xs: &[Var]) -> Option<usize> {
    closest_over(a, b, xs, &[]).map(|closest| closest.k)
}

/// [`min_distance_over`], also returning the closest pair it found.
/// `hint` is a model of `a` (possibly partial, possibly empty) that
/// seeds the session's first solve.
pub(crate) fn closest_over(
    a: &Formula,
    b: &Formula,
    xs: &[Var],
    hint: &[(Var, bool)],
) -> Option<Closest> {
    let _span = revkb_obs::span("revision.phase.distance_circuit");
    let mut session = PairSession::open(a, b, xs, hint)?;
    let upper = session.diff().len();
    let k = if upper == 0 {
        0
    } else {
        let count = load_popcount(&mut session);
        (0..upper)
            .find(|&d| {
                count_is(&count, d).is_some_and(|cube| session.solver.solve_with_assumptions(&cube))
            })
            .unwrap_or(upper)
    };
    // The last satisfiable solve was the probe at `k` or, when none
    // was, the first solve (at distance `upper = k`).
    let value = |v| session.solver.model_value(v);
    Some(Closest {
        k,
        x: session.xs.iter().map(|&x| value(x)).collect(),
        y: session.ys.iter().map(|&y| value(y)).collect(),
        rest: session
            .copies
            .iter()
            .filter(|(v, _)| !xs.contains(v))
            .map(|&(v, copy)| (v, value(copy)))
            .collect(),
    })
}

/// Load the popcount of the session's difference bits, one Tseitin
/// definition per gate: the defining literal of a gate stands for its
/// letter in the later gates, so no gate letter or `≡` is encoded.
/// Returns the count's bits, each a literal or a constant.
fn load_popcount(session: &mut PairSession) -> Vec<Formula> {
    let mut circuit = CircuitBuilder::new(&mut session.supply);
    let bits = circuit.diff_bits(&session.xs, &session.ys);
    let count = circuit.popcount(&bits);
    let gates = circuit.into_gates();
    let mut defs = Cnf::new();
    let mut wires = Substitution::new();
    for (w, gate) in gates {
        let lit = tseitin_definitions(&wires.apply(&gate), &mut defs, &mut session.supply);
        wires = wires.bind(w, Formula::lit(lit.var(), lit.is_positive()));
    }
    session.solver.add_cnf(&defs);
    count.iter().map(|bit| wires.apply(bit)).collect()
}

/// "The count is `d`" as unit assumptions on the count's bits, or
/// `None` when a constant bit rules `d` out.
fn count_is(count: &[Formula], d: usize) -> Option<Vec<Lit>> {
    if d >> count.len() != 0 {
        return None;
    }
    let mut cube = Vec::new();
    for (i, bit) in count.iter().enumerate() {
        let want = d >> i & 1 == 1;
        match bit {
            Formula::True | Formula::False => {
                if (*bit == Formula::True) != want {
                    return None;
                }
            }
            Formula::Var(v) => cube.push(Lit::new(*v, want)),
            Formula::Not(inner) => match **inner {
                Formula::Var(v) => cube.push(Lit::new(v, !want)),
                _ => unreachable!("count bits are literals"),
            },
            _ => unreachable!("count bits are literals"),
        }
    }
    Some(cube)
}

/// `k_{T,P}`: minimum distance between models of `t` and models of
/// `p`, over `V(T) ∪ V(P)`.
///
/// ```
/// use revkb_revision::distance::min_distance;
/// use revkb_logic::{Formula, Var};
/// let t = Formula::var(Var(0)).and(Formula::var(Var(1)));
/// let p = Formula::var(Var(0)).not().and(Formula::var(Var(1)).not());
/// assert_eq!(min_distance(&t, &p), Some(2));
/// ```
pub fn min_distance(t: &Formula, p: &Formula) -> Option<usize> {
    let xs: Vec<Var> = union_vars(t, p);
    min_distance_over(t, p, &xs)
}

/// Enumerate `δ(T,P)` — the ⊆-minimal difference sets between models
/// of `a` and models of `b`, measured over `xs` — up to `limit` sets,
/// in sorted order. Returns `None` if the limit was exceeded, and an
/// empty list exactly when `a` or `b` is unsatisfiable (two
/// satisfiable formulas have at least one minimal difference).
pub fn delta_sets_over(
    a: &Formula,
    b: &Formula,
    xs: &[Var],
    limit: usize,
) -> Option<Vec<BTreeSet<Var>>> {
    let _span = revkb_obs::span("revision.phase.distance_circuit");
    let Some(mut session) = PairSession::open(a, b, xs, &[]) else {
        return Some(Vec::new());
    };
    // differs[i] ≡ (x_i ≢ y_i), defined once for the whole session.
    let mut defs = Cnf::new();
    let differs: Vec<Lit> = xs
        .iter()
        .zip(session.ys.clone())
        .map(|(&x, y)| {
            let bit = Formula::var(x).xor(Formula::var(y));
            tseitin_definitions(&bit, &mut defs, &mut session.supply)
        })
        .collect();
    session.solver.add_cnf(&defs);
    let not_differs = |i: usize| Formula::lit(differs[i].var(), !differs[i].is_positive());

    let mut found: Vec<BTreeSet<Var>> = Vec::new();
    loop {
        // Shrink the current difference to a ⊆-minimal one: ask for a
        // strictly smaller one (agree outside diff, and on at least one
        // letter of diff).
        let mut diff = session.diff();
        while !diff.is_empty() {
            let agree_outside: Vec<Lit> = (0..xs.len())
                .filter(|i| !diff.contains(i))
                .map(|i| differs[i].negated())
                .collect();
            let agree_somewhere = Formula::or_all(diff.iter().map(|&i| not_differs(i)));
            if !session.solve_with(&agree_somewhere, &agree_outside) {
                break; // diff is minimal
            }
            diff = session.diff();
        }
        if found.len() >= limit {
            return None;
        }
        // An empty minimal diff means the two formulas intersect:
        // δ = {∅} and we are done.
        if diff.is_empty() {
            found.push(BTreeSet::new());
            return Some(found);
        }
        // Block every superset of diff for good: future pairs must
        // agree on at least one letter of diff.
        let block: Vec<Lit> = diff.iter().map(|&i| differs[i].negated()).collect();
        session.solver.add_clause(&block);
        found.push(diff.into_iter().map(|i| xs[i]).collect());
        if !session.solver.solve() {
            found.sort();
            return Some(found);
        }
    }
}

/// `δ(T,P)` over `V(T) ∪ V(P)`, up to `limit` sets.
pub fn delta_sets(t: &Formula, p: &Formula, limit: usize) -> Option<Vec<BTreeSet<Var>>> {
    let xs = union_vars(t, p);
    delta_sets_over(t, p, &xs, limit)
}

/// `Ω = ⋃ δ`: the letters of a list of difference sets, in `Var`
/// order.
pub(crate) fn omega_of(delta: Vec<BTreeSet<Var>>) -> Vec<Var> {
    let omega: BTreeSet<Var> = delta.into_iter().flatten().collect();
    omega.into_iter().collect()
}

/// `Ω = ⋃ δ(T,P)` over `xs`, up to `limit` difference sets.
pub fn omega_over(a: &Formula, b: &Formula, xs: &[Var], limit: usize) -> Option<BTreeSet<Var>> {
    delta_sets_over(a, b, xs, limit).map(|sets| sets.into_iter().flatten().collect())
}

/// `Ω` over `V(T) ∪ V(P)`.
pub fn omega(t: &Formula, p: &Formula, limit: usize) -> Option<BTreeSet<Var>> {
    let xs = union_vars(t, p);
    omega_over(t, p, &xs, limit)
}

/// `V(T) ∪ V(P)` in `Var` order.
pub fn union_vars(t: &Formula, p: &Formula) -> Vec<Var> {
    let mut vars = t.vars();
    p.collect_vars(&mut vars);
    vars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic;
    use revkb_logic::Alphabet;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    /// Cross-check the SAT path against the enumeration oracle;
    /// returns `|δ(T,P)|`.
    fn check_against_oracle(t: &Formula, p: &Formula) -> usize {
        let alpha = Alphabet::of_formulas([t, p]);
        let t_models = alpha.models(t);
        let p_models = alpha.models(p);
        let expected_k = semantic::k_global(&t_models, &p_models).map(|k| k as usize);
        assert_eq!(
            min_distance(t, p),
            expected_k,
            "k mismatch for {t:?}, {p:?}"
        );

        // δ comes back sorted, so the order is pinned too.
        let mut expected_delta: Vec<BTreeSet<Var>> = semantic::delta(&t_models, &p_models)
            .into_iter()
            .map(|mask| alpha.mask_to_interpretation(mask))
            .collect();
        expected_delta.sort();
        let got_delta = delta_sets(t, p, 10_000).unwrap();
        assert_eq!(
            both_satisfiable(t, p),
            !t_models.is_empty() && !p_models.is_empty()
        );
        if t_models.is_empty() || p_models.is_empty() {
            assert!(got_delta.is_empty());
        } else {
            assert_eq!(got_delta, expected_delta, "δ mismatch for {t:?}, {p:?}");
            let expected_omega: BTreeSet<Var> = alpha
                .mask_to_interpretation(semantic::omega_mask(&t_models, &p_models))
                .into_iter()
                .collect();
            assert_eq!(omega(t, p, 10_000).unwrap(), expected_omega);
        }
        got_delta.len()
    }

    #[test]
    fn paper_example_distances() {
        // §2.2.2 example: k_{T,P} = 1, δ = {{c},{a,b}}, Ω = {a,b,c}.
        let t = v(0).and(v(1)).and(v(2));
        let p = v(0)
            .not()
            .and(v(1).not())
            .and(v(3).not())
            .or(v(2).not().and(v(1)).and(v(0).xor(v(3))));
        assert_eq!(min_distance(&t, &p), Some(1));
        let d = delta_sets(&t, &p, 100).unwrap();
        let expected: Vec<BTreeSet<Var>> = vec![
            [Var(0), Var(1)].into_iter().collect(),
            [Var(2)].into_iter().collect(),
        ];
        assert_eq!(d, expected, "δ is returned in sorted order");
        let om = omega(&t, &p, 100).unwrap();
        let expected_om: BTreeSet<Var> = [Var(0), Var(1), Var(2)].into_iter().collect();
        assert_eq!(om, expected_om);
        check_against_oracle(&t, &p);
    }

    #[test]
    fn consistent_pair_distance_zero() {
        let t = v(0).or(v(1));
        let p = v(0).not();
        assert_eq!(min_distance(&t, &p), Some(0));
        let d = delta_sets(&t, &p, 100).unwrap();
        assert_eq!(d, vec![BTreeSet::new()]);
        assert_eq!(omega(&t, &p, 100).unwrap(), BTreeSet::new());
    }

    #[test]
    fn unsat_sides() {
        let t = v(0).and(v(0).not());
        let p = v(1);
        assert_eq!(min_distance(&t, &p), None);
        assert_eq!(min_distance(&p, &t), None);
        assert!(delta_sets(&t, &p, 100).unwrap().is_empty());
    }

    #[test]
    fn random_cross_check() {
        let mut seed = 7u64;
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
        // Random pairs mostly intersect (δ = {∅}), so each P is also
        // checked against a theory with few models, pinned on all but
        // one letter, which usually leaves several minimal differences
        // and so tests the order δ comes back in.
        let mut several = 0;
        for nv in [4, 5, 6] {
            for _ in 0..40 {
                let t = build(&mut rnd, 4, nv);
                let p = build(&mut rnd, 4, nv);
                check_against_oracle(&t, &p);
                let pinned =
                    Formula::and_all((1..nv).map(|i| Formula::lit(Var(i), rnd() & 1 == 0)));
                let few = pinned.and(build(&mut rnd, 2, nv));
                if check_against_oracle(&few, &p) >= 2 {
                    several += 1;
                }
            }
        }
        assert!(several >= 10, "only {several} cases with |δ| ≥ 2");
    }

    #[test]
    fn min_distance_over_subset_of_letters() {
        // Distance measured only over {x0}: T = x0 ∧ x1, P = ¬x0 ∧ ¬x1
        // has distance 1 over {x0} but 2 over both letters.
        let t = v(0).and(v(1));
        let p = v(0).not().and(v(1).not());
        assert_eq!(min_distance_over(&t, &p, &[Var(0)]), Some(1));
        assert_eq!(min_distance(&t, &p), Some(2));
    }

    /// A Dalal chain step hands the next one a model of `Φᵢ`, and the
    /// next session seeds its phases with it: on a fixed `Φ₂` over 12
    /// letters (a planted random 3-CNF `T` with at most 32 models, two
    /// cube revisions) the first solve of `Φ₂[X/Y] ∧ P³` needs no
    /// conflict at all, where the cold one needs dozens, and the
    /// distance comes out the same.
    #[test]
    fn witness_warm_starts_the_next_session() {
        let mut seed = 99u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        let xs: Vec<Var> = (0..12).map(Var).collect();
        let alpha = Alphabet::new(xs.clone());
        let mut lit = || Formula::lit(Var((rnd() % 12) as u32), rnd() & 1 == 0);
        let anchor = 0b1011_0110_0101;
        let mut clauses = Vec::new();
        while alpha.models(&Formula::and_all(clauses.clone())).len() > 32 {
            let mut clause: Vec<Formula> = (0..3).map(|_| lit()).collect();
            if !clause.iter().any(|l| alpha.eval_mask(l, anchor)) {
                clause[0] = clause[0].clone().not();
            }
            clauses.push(Formula::or_all(clause));
        }
        let t = Formula::and_all(clauses);
        let ps: Vec<Formula> = (0..3)
            .map(|_| Formula::and_all((0..3).map(|_| lit())))
            .collect();

        let mut supply = supply_above(std::iter::once(&t).chain(&ps));
        let mut witness = Witness::new();
        let mut phi = t.clone();
        for p in &ps[..2] {
            phi = crate::compact::iterated::dalal_step(&phi, p, &xs, &mut witness, &mut supply);
        }
        let first_solve_conflicts = |hint: &[(Var, bool)]| {
            let session = PairSession::open(&phi, &ps[2], &xs, hint).expect("satisfiable");
            session.solver.stats.conflicts
        };
        let (cold, warm) = (first_solve_conflicts(&[]), first_solve_conflicts(&witness));
        assert!(cold >= 10, "the cold solve took only {cold} conflicts");
        assert_eq!(
            warm, 0,
            "the warm solve took {warm} conflicts, the cold one {cold}"
        );
        let k = |hint: &[(Var, bool)]| closest_over(&phi, &ps[2], &xs, hint).unwrap().k;
        assert_eq!(k(&witness), k(&[]));
    }

    #[test]
    fn delta_limit_truncation() {
        // T = x0∧x1∧x2, P = exactly-one-false: three singleton minimal
        // diffs.
        let t = v(0).and(v(1)).and(v(2));
        let p = Formula::or_all(
            (0..3)
                .map(|i| Formula::and_all((0..3).map(|j| if i == j { v(j).not() } else { v(j) }))),
        );
        assert_eq!(delta_sets(&t, &p, 100).unwrap().len(), 3);
        assert!(delta_sets(&t, &p, 2).is_none());
    }
}
