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
//! - `k_{T,P}`: the session's first model bounds it from above by its
//!   own distance `u`; a unary counter of the differences between `X`
//!   and `Y`, capped at `u`, then asks "the distance is at most `d`"
//!   for `d = 0, 1, …` as one assumption each.
//! - `δ(T,P)`: find a satisfying difference, shrink it to a ⊆-minimal
//!   one, block all its supersets, repeat.
//!
//! Each call is one incremental session over `T[X/Y] ∧ P`, loaded once
//! into one solver from clauses ([`Sides`]): the general entry points
//! Tseitin-encode `T` and `P` and rename `T` apart, and a revision
//! chain hands over the clauses it already keeps, renamed without
//! encoding anything again. Every probe or shrink constraint is
//! encoded under a fresh activation literal or asked as an assumption,
//! the pattern of [`revkb_sat::QuerySession`]. The two sides share no
//! letter, so the session's first solve also decides whether both are
//! satisfiable, and callers use that answer instead of checking each
//! side first.
//!
//! The same counter, with its output at `k + 1` forced false, is the
//! clausal form a Dalal chain keeps for its step's "`X` and `Yᵢ` differ
//! in at most `kᵢ` places" ([`at_most_differences`]): as `kᵢ` is the
//! minimum distance, it has the models of the step's `EXA(kᵢ, X, Yᵢ,
//! Wᵢ)` on every letter but `Wᵢ`.

use revkb_logic::{
    tseitin, tseitin_definitions, Cnf, CountingSupply, Formula, Lit, SharedCnf, Var, VarSupply,
};
use revkb_sat::{supply_above, Solver};
use std::collections::BTreeSet;

/// Distance probes asked by `k_{T,P}` sessions ([`min_distance_in`]), and
/// the conflicts those sessions met, first solve included: the
/// deterministic work counts of Dalal's offline step.
static OBS_K_PROBES: revkb_obs::Counter = revkb_obs::Counter::new("revision.k_session.probes");
static OBS_K_CONFLICTS: revkb_obs::Counter =
    revkb_obs::Counter::new("revision.k_session.conflicts");

/// The two sides of a distance computation, in clausal form: `a` with
/// its measured letters renamed to `ys`, and `b` over `xs`. The sides
/// share no letter.
pub(crate) struct Sides<'a> {
    pub(crate) a: &'a SharedCnf,
    pub(crate) b: &'a SharedCnf,
    pub(crate) xs: &'a [Var],
    pub(crate) ys: &'a [Var],
    /// Fresh letters above both sides, for the session's own encodings.
    pub(crate) supply: CountingSupply,
}

/// The sides of the general entry points: `a` and `b` Tseitin-encoded,
/// with every letter of `a` renamed to a fresh copy. A letter of `xs`
/// outside `a` gets a fresh, free copy too.
struct Apart {
    a: SharedCnf,
    b: SharedCnf,
    ys: Vec<Var>,
    supply: CountingSupply,
}

impl Apart {
    fn new(a: &Formula, b: &Formula, xs: &[Var]) -> Self {
        let mut supply = supply_above([a, b]);
        let a_cnf = SharedCnf::from(tseitin(a, &mut supply));
        let b = SharedCnf::from(tseitin(b, &mut supply));
        let a_vars: Vec<Var> = a.vars().into_iter().collect();
        let copies: Vec<Var> = a_vars.iter().map(|_| supply.fresh_var()).collect();
        let ys = xs
            .iter()
            .map(|x| match a_vars.binary_search(x) {
                Ok(i) => copies[i],
                Err(_) => supply.fresh_var(),
            })
            .collect();
        let a = a_cnf.rename(&a_vars, &copies);
        Apart { a, b, ys, supply }
    }

    fn sides<'s>(&'s self, xs: &'s [Var]) -> Sides<'s> {
        Sides {
            a: &self.a,
            b: &self.b,
            xs,
            ys: &self.ys,
            supply: self.supply.clone(),
        }
    }
}

/// One incremental SAT session over the conjunction of two [`Sides`]:
/// each model pairs a model of `a` (on `Y`) with a model of `b` (on
/// `X`).
struct PairSession {
    solver: Solver,
    supply: CountingSupply,
    xs: Vec<Var>,
    ys: Vec<Var>,
}

impl PairSession {
    /// Load both sides and solve once. `None` when the conjunction is
    /// unsatisfiable, i.e. when `a` or `b` is; otherwise the first
    /// model is available through [`PairSession::diff`].
    fn open(sides: Sides<'_>) -> Option<Self> {
        let mut solver = Solver::new();
        solver.add_shared_cnf(sides.a);
        solver.add_shared_cnf(sides.b);
        if !solver.solve() {
            return None;
        }
        Some(PairSession {
            solver,
            supply: sides.supply,
            xs: sides.xs.to_vec(),
            ys: sides.ys.to_vec(),
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

    /// Load a unary counter of the positions where `X` and `Y` differ,
    /// capped at `cap` ([`unary_counter`]).
    fn load_counter(&mut self, cap: usize) -> Vec<Lit> {
        let mut cnf = Cnf::new();
        let bits = difference_bits(&self.xs, &self.ys, &mut self.supply, &mut cnf);
        let at_least = unary_counter(&bits, cap, &mut self.supply, &mut cnf);
        self.solver.add_cnf(&cnf);
        at_least
    }
}

/// One letter per position, forced true where `xs` and `ys` differ:
/// `(xᵢ ⊕ yᵢ) → dᵢ`, the only direction a count from above needs.
fn difference_bits(xs: &[Var], ys: &[Var], supply: &mut impl VarSupply, cnf: &mut Cnf) -> Vec<Lit> {
    xs.iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let d = Lit::pos(supply.fresh_var());
            cnf.push(vec![Lit::neg(x), Lit::pos(y), d]);
            cnf.push(vec![Lit::pos(x), Lit::neg(y), d]);
            d
        })
        .collect()
}

/// A totalizer (Bailleux–Boufkhad) over `bits`, capped at `cap ≥ 1`,
/// written as clauses into `cnf`: returns `o` with `o[j]` forced true
/// whenever at least `j + 1` of the bits are, for `j < min(|bits|, cap)`.
/// Only that direction is encoded, so every assignment of the bits
/// extends to the counter's letters, and assuming `¬o[d]` leaves
/// exactly the assignments with at most `d` bits true.
fn unary_counter(bits: &[Lit], cap: usize, supply: &mut impl VarSupply, cnf: &mut Cnf) -> Vec<Lit> {
    if bits.len() <= 1 {
        return bits.to_vec();
    }
    let (left, right) = bits.split_at(bits.len() / 2);
    let left = unary_counter(left, cap, supply, cnf);
    let right = unary_counter(right, cap, supply, cnf);
    let out: Vec<Lit> = (0..(left.len() + right.len()).min(cap))
        .map(|_| Lit::pos(supply.fresh_var()))
        .collect();
    for (i, &l) in left.iter().enumerate() {
        cnf.push(vec![!l, out[i]]);
        for (j, &r) in right
            .iter()
            .enumerate()
            .take(out.len().saturating_sub(i + 1))
        {
            cnf.push(vec![!l, !r, out[i + j + 1]]);
        }
    }
    for (j, &r) in right.iter().enumerate() {
        cnf.push(vec![!r, out[j]]);
    }
    out
}

/// Clauses saying that `xs` and `ys` differ in at most `k` positions,
/// with letters of their own from `supply`: pairwise equalities for
/// `k = 0`, nothing for `k ≥ |xs|`, and otherwise the unary counter of
/// the differences capped at `k + 1` ([`unary_counter`]) with its last
/// output false. Every `(X, Y)` within `k` extends to the counter's
/// letters, and no other does.
pub(crate) fn at_most_differences(
    xs: &[Var],
    ys: &[Var],
    k: usize,
    supply: &mut impl VarSupply,
) -> Cnf {
    let mut cnf = Cnf::new();
    if k == 0 {
        for (&x, &y) in xs.iter().zip(ys) {
            cnf.push(vec![Lit::neg(x), Lit::pos(y)]);
            cnf.push(vec![Lit::pos(x), Lit::neg(y)]);
        }
    } else if k < xs.len() {
        let bits = difference_bits(xs, ys, supply, &mut cnf);
        let at_least = unary_counter(&bits, k + 1, supply, &mut cnf);
        cnf.push(vec![!at_least[k]]);
    }
    cnf
}

/// Are `a` and `b` both satisfiable? One solver over `a` renamed apart
/// from `b`, conjoined with `b`.
pub(crate) fn both_satisfiable(a: &Formula, b: &Formula) -> bool {
    PairSession::open(Apart::new(a, b, &[]).sides(&[])).is_some()
}

/// `k_{T,P}` generalised: the minimum Hamming distance, measured over
/// the letters `xs`, between models of `a` and models of `b`.
/// Letters of `a`/`b` outside `xs` are free. Returns `None` when
/// either formula is unsatisfiable.
///
/// This is exactly what iterated Dalal needs: `a` may be a compact
/// representation with auxiliary letters, whose projection onto `xs`
/// is the current revised theory.
pub fn min_distance_over(a: &Formula, b: &Formula, xs: &[Var]) -> Option<usize> {
    min_distance_in(Apart::new(a, b, xs).sides(xs))
}

/// [`min_distance_over`] on two [`Sides`].
///
/// The first model bounds `k` from above by its own distance `u`, so
/// only the distances below `u` are probed, in increasing order, each
/// as one assumption on a unary counter capped at `u`.
pub(crate) fn min_distance_in(sides: Sides<'_>) -> Option<usize> {
    let _span = revkb_obs::span("revision.phase.distance_circuit");
    let mut session = PairSession::open(sides)?;
    let upper = session.diff().len();
    let k = if upper == 0 {
        0
    } else {
        let at_least = session.load_counter(upper);
        (0..upper)
            .find(|&d| {
                OBS_K_PROBES.inc();
                session.solver.solve_with_assumptions(&[!at_least[d]])
            })
            .unwrap_or(upper)
    };
    OBS_K_CONFLICTS.add(session.solver.stats.conflicts);
    Some(k)
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
    delta_sets_in(Apart::new(a, b, xs).sides(xs), limit)
}

/// [`delta_sets_over`] on two [`Sides`].
pub(crate) fn delta_sets_in(sides: Sides<'_>, limit: usize) -> Option<Vec<BTreeSet<Var>>> {
    let _span = revkb_obs::span("revision.phase.distance_circuit");
    let xs = sides.xs;
    let Some(mut session) = PairSession::open(sides) else {
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

    /// The unary counter and the at-most builder on it, exhaustively:
    /// for up to 8 positions, every cap and every `d` below it, assuming
    /// "at most `d`" leaves exactly the `(X, Y)` with at most `d`
    /// differences, and every `(X, Y)` extends to the counter's letters;
    /// for every `k` in `0..=n`, [`at_most_differences`]' models over
    /// `(X, Y)` are exactly the pairs with at most `k` differences, with
    /// no letter of its own at `k = 0` and no clause at `k = n`.
    #[test]
    fn unary_counter_counts_exactly() {
        for n in 1..=8u32 {
            let xs: Vec<Var> = (0..n).map(Var).collect();
            let ys: Vec<Var> = (n..2 * n).map(Var).collect();
            let ones = (1u32 << n) - 1;
            // Every (X, Y) on the small widths; above them every X
            // against two Y, which still gives every difference.
            let pairs: Vec<u32> = if n <= 4 {
                (0..1 << (2 * n)).collect()
            } else {
                (0..1 << n).flat_map(|x| [x, x | ones << n]).collect()
            };
            let distance = |pair: u32| ((pair ^ pair >> n) & ones).count_ones() as usize;
            let assign = |pair: u32| -> Vec<Lit> {
                (0..2 * n)
                    .map(|i| Lit::new(Var(i), pair >> i & 1 == 1))
                    .collect()
            };
            for cap in 1..=n as usize {
                let mut supply = CountingSupply::new(2 * n);
                let mut cnf = Cnf::new();
                let bits = difference_bits(&xs, &ys, &mut supply, &mut cnf);
                let at_least = unary_counter(&bits, cap, &mut supply, &mut cnf);
                assert_eq!(at_least.len(), cap, "n = {n}");
                // Each clause has a positive counter letter, so setting
                // them all true extends any (X, Y).
                let own = |l: &Lit| l.is_positive() && l.var().0 >= 2 * n;
                assert!(cnf.clauses.iter().all(|c| c.iter().any(own)));
                let mut solver = Solver::new();
                solver.add_cnf(&cnf);
                for &pair in &pairs {
                    let mut probe = assign(pair);
                    probe.push(Lit::pos(Var(0)));
                    for (d, &o) in at_least.iter().enumerate() {
                        *probe.last_mut().expect("pushed") = !o;
                        assert_eq!(
                            solver.solve_with_assumptions(&probe),
                            distance(pair) <= d,
                            "n = {n}, cap = {cap}, d = {d}, (X, Y) = {pair:b}"
                        );
                    }
                }
            }
            for k in 0..=n as usize {
                let mut supply = CountingSupply::new(2 * n);
                let cnf = at_most_differences(&xs, &ys, k, &mut supply);
                if k == 0 {
                    assert_eq!(supply.peek(), Var(2 * n), "n = {n}: k = 0 draws no letter");
                }
                if k == n as usize {
                    assert!(cnf.is_empty(), "n = {n}: k = n adds no clause");
                }
                let mut solver = Solver::new();
                solver.add_cnf(&cnf);
                for &pair in &pairs {
                    assert_eq!(
                        solver.solve_with_assumptions(&assign(pair)),
                        distance(pair) <= k,
                        "n = {n}, k = {k}, (X, Y) = {pair:b}"
                    );
                }
            }
        }
    }

    /// `k` and query answers on the representations Dalal chains build,
    /// against the enumeration oracle: random 2–3-step chains over 6
    /// letters, whose `Φ` carries the auxiliary letters of every step,
    /// and one chain whose steps are at distance `|X|`. Each `Φ` is
    /// revised once more by a `P`, through the general entry point and
    /// through the chain's own clauses, and asked every literal and
    /// every two-literal clause over its letters, through the query
    /// session that loads the chain's clauses and through a chain taken
    /// up from `Φ` (as a cache hit is). Some chains end in an
    /// unsatisfiable step, and some `P` are unsatisfiable or consistent
    /// with `Φ`, so `None` and `k = 0` come up as well.
    #[test]
    fn chain_distances_match_the_oracle() {
        use crate::engine::RevisionChain;
        use crate::semantic::{revise_iterated_on, ModelBasedOp};
        let mut seed = 0xD15_7A9Cu64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let xs: Vec<Var> = (0..6).map(Var).collect();
        let alpha = Alphabet::new(xs.clone());
        let contradiction = v(0).and(v(0).not());
        let literals: Vec<Formula> = (0..12)
            .map(|i| Formula::lit(Var(i / 2), i % 2 == 0))
            .collect();
        let mut queries = literals.clone();
        for (i, a) in literals.iter().enumerate() {
            for b in &literals[i + 1..] {
                if a.vars() != b.vars() {
                    queries.push(a.clone().or(b.clone()));
                }
            }
        }
        assert_eq!(queries.len(), 12 + 60);
        let mut cases: Vec<(Formula, Vec<Formula>, Formula)> = Vec::new();
        let mut lit = || Formula::lit(Var(rnd() % 6), rnd() & 1 == 0);
        for case in 0..60 {
            let t = Formula::and_all((0..4).map(|_| Formula::or_all([lit(), lit()])));
            let steps = 2 + case % 2;
            let mut ps: Vec<Formula> = (0..steps)
                .map(|_| Formula::and_all((0..2).map(|_| lit())))
                .collect();
            if case % 10 == 9 {
                ps[steps - 1] = contradiction.clone();
            }
            let p = match case % 7 {
                6 => contradiction.clone(),
                _ => Formula::and_all((0..1 + case % 3).map(|_| lit())),
            };
            cases.push((t, ps, p));
        }
        // k = |X| at both steps: the kept clauses hold no counter.
        let all = |value| Formula::and_all(xs.iter().map(|&x| Formula::lit(x, value)));
        cases.push((all(true), vec![all(false), all(true)], v(0).and(v(1))));

        let (mut seen, mut with_aux) = ((0, 0, 0), 0);
        for (case, (t, ps, p)) in cases.iter().enumerate() {
            let mut chain = RevisionChain::new(ModelBasedOp::Dalal, t.clone(), xs.clone());
            for q in ps {
                chain.extend(q).expect("Dalal steps cannot overflow");
            }
            let phi = chain.formula();
            let phi_models = revise_iterated_on(ModelBasedOp::Dalal, &alpha, t, ps);
            let expected =
                semantic::k_global(phi_models.masks(), &alpha.models(p)).map(|k| k as usize);
            assert_eq!(min_distance_over(phi, p, &xs), expected, "case {case}");

            // The query session that loads the kept clauses takes them.
            let queried = chain.clone();
            let taken_up = RevisionChain::new(ModelBasedOp::Dalal, phi.clone(), xs.clone());
            for q in &queries {
                let want = phi_models.masks().iter().all(|&m| alpha.eval_mask(q, m));
                let (kb, resumed) = (queried.compiled(), taken_up.compiled());
                assert_eq!(kb.entails(q), want, "case {case}, {q:?} on the clauses");
                assert_eq!(resumed.entails(q), want, "case {case}, {q:?} on Φ");
            }
            assert!(queried.compiled().representation().take_clauses().is_none());

            let rep = chain.compiled().representation();
            let cnf = rep.take_clauses().expect("a Dalal chain keeps its clauses");
            let mut supply = CountingSupply::new(cnf.num_vars().max(6));
            let ys: Vec<Var> = xs.iter().map(|_| supply.fresh_var()).collect();
            let a = cnf.rename(&xs, &ys);
            let b = SharedCnf::from(tseitin(p, &mut supply));
            let sides = Sides {
                a: &a,
                b: &b,
                xs: &xs,
                ys: &ys,
                supply,
            };
            assert_eq!(
                min_distance_in(sides),
                expected,
                "case {case}, through the clauses"
            );
            match expected {
                None => seen.0 += 1,
                Some(0) => seen.1 += 1,
                Some(_) => seen.2 += 1,
            }
            with_aux += usize::from(!rep.aux_vars().is_empty());
        }
        assert!(
            seen.0 >= 5 && seen.1 >= 5 && seen.2 >= 5,
            "(None, k = 0, k > 0) came up {seen:?} times"
        );
        assert!(with_aux >= 40, "only {with_aux} Φ carry auxiliary letters");
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
