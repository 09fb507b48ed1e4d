//! The semantic (ground-truth) engine: model-based revision operators
//! computed by explicit enumeration, exactly as defined in §2.2.2 of
//! the paper.
//!
//! All six model-based operators select among the models of `P` by
//! proximity to the models of `T`:
//!
//! - pointwise (update-style): **Winslett** `*Win`, **Borgida** `*B`,
//!   **Forbus** `*F`;
//! - global (revision-style): **Satoh** `*S`, **Dalal** `*D`,
//!   **Weber** `*Web`.
//!
//! Proximities are built from `μ(M,P) = min⊆ {M△N | N ⊨ P}` and
//! `δ(T,P) = min⊆ ⋃_{M ⊨ T} μ(M,P)`.
//!
//! Enumeration is exponential in the alphabet — this module is the
//! *oracle* the scalable constructions are validated against, and is
//! also used directly by the benchmarks on small alphabets.
//!
//! Degenerate cases: the paper assumes both `T` and `P` satisfiable
//! (other cases are "clearly compactable"). We fix the convention:
//! if `P` is unsatisfiable the result is unsatisfiable; if `T` is
//! unsatisfiable (but `P` is not) the result is `P`.

use crate::model_set::{revision_alphabet, ModelSet};
use crate::truth_table::Table;
use revkb_logic::{Alphabet, Formula};

/// The model-based revision operators of §2.2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelBasedOp {
    /// Winslett's standard-semantics update `*Win` \[27\].
    Winslett,
    /// Borgida's operator `*B` \[4\]: `T ∧ P` when consistent, else
    /// Winslett.
    Borgida,
    /// Forbus' cardinality-based update `*F` \[11\].
    Forbus,
    /// Satoh's global set-inclusion revision `*S` \[25\].
    Satoh,
    /// Dalal's global cardinality revision `*D` \[7\].
    Dalal,
    /// Weber's revision `*Web` \[26\].
    Weber,
}

impl ModelBasedOp {
    /// All six operators, for sweeps.
    pub const ALL: [ModelBasedOp; 6] = [
        ModelBasedOp::Winslett,
        ModelBasedOp::Borgida,
        ModelBasedOp::Forbus,
        ModelBasedOp::Satoh,
        ModelBasedOp::Dalal,
        ModelBasedOp::Weber,
    ];

    /// Short name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelBasedOp::Winslett => "Winslett",
            ModelBasedOp::Borgida => "Borgida",
            ModelBasedOp::Forbus => "Forbus",
            ModelBasedOp::Satoh => "Satoh",
            ModelBasedOp::Dalal => "Dalal",
            ModelBasedOp::Weber => "Weber",
        }
    }

    /// Parse an operator name as accepted on the command line and the
    /// server wire protocol (case-insensitive, common abbreviations).
    pub fn from_name(name: &str) -> Option<ModelBasedOp> {
        match name.to_ascii_lowercase().as_str() {
            "winslett" | "win" => Some(ModelBasedOp::Winslett),
            "borgida" | "b" => Some(ModelBasedOp::Borgida),
            "forbus" | "f" => Some(ModelBasedOp::Forbus),
            "satoh" | "s" => Some(ModelBasedOp::Satoh),
            "dalal" | "d" => Some(ModelBasedOp::Dalal),
            "weber" | "web" => Some(ModelBasedOp::Weber),
            _ => None,
        }
    }

    /// Is proximity computed pointwise per model of `T` (update-style)
    /// rather than globally (revision-style)?
    pub fn is_pointwise(self) -> bool {
        matches!(
            self,
            ModelBasedOp::Winslett | ModelBasedOp::Borgida | ModelBasedOp::Forbus
        )
    }
}

/// Keep only the ⊆-minimal masks of `sets` (each mask a set of
/// letters). `O(s²)` — fine for enumeration scales.
pub fn min_subsets(mut sets: Vec<u64>) -> Vec<u64> {
    sets.sort_unstable();
    sets.dedup();
    let minimal: Vec<u64> = sets
        .iter()
        .copied()
        .filter(|&a| !sets.iter().any(|&b| b != a && b & !a == 0))
        .collect();
    minimal
}

/// `μ(M, P)`: the ⊆-minimal symmetric differences between `m` and the
/// models `p_models` of `P` (all masks over one alphabet).
pub fn mu(m: u64, p_models: &[u64]) -> Vec<u64> {
    min_subsets(p_models.iter().map(|&n| m ^ n).collect())
}

/// `k_{M,P}`: the minimum cardinality of differences between `m` and
/// models of `P`. `None` when `P` has no models.
pub fn k_m(m: u64, p_models: &[u64]) -> Option<u32> {
    p_models.iter().map(|&n| (m ^ n).count_ones()).min()
}

/// `δ(T, P) = min⊆ ⋃_{M ⊨ T} μ(M, P)`: the globally ⊆-minimal
/// differences between models of `T` and models of `P`.
pub fn delta(t_models: &[u64], p_models: &[u64]) -> Vec<u64> {
    // min⊆ of the union of pointwise-minimal sets equals min⊆ over all
    // pairwise differences.
    let all: Vec<u64> = t_models
        .iter()
        .flat_map(|&m| p_models.iter().map(move |&n| m ^ n))
        .collect();
    min_subsets(all)
}

/// `k_{T,P}`: minimum Hamming distance between models of `T` and
/// models of `P`. `None` when either side is empty.
pub fn k_global(t_models: &[u64], p_models: &[u64]) -> Option<u32> {
    t_models
        .iter()
        .flat_map(|&m| p_models.iter().map(move |&n| (m ^ n).count_ones()))
        .min()
}

/// `Ω = ⋃ δ(T, P)` as a letter mask.
pub fn omega_mask(t_models: &[u64], p_models: &[u64]) -> u64 {
    delta(t_models, p_models).into_iter().fold(0, |a, b| a | b)
}

/// Compute `M(T *op P)` over a given alphabet, by enumeration: both
/// model sets are truth tables ([`Alphabet::model_words`]) and the
/// models are selected on them with hypercube moves, not pair by pair
/// as [`revise_masks`] does.
pub fn revise_on(op: ModelBasedOp, alphabet: &Alphabet, t: &Formula, p: &Formula) -> ModelSet {
    let _span = revkb_obs::span("revision.phase.model_set");
    let selected = select(op, &table_of(alphabet, t), &table_of(alphabet, p));
    ModelSet::new(alphabet.clone(), selected.masks())
}

/// Compute `M(T *op P)` over the union alphabet `V(T) ∪ V(P)`.
///
/// ```
/// use revkb_revision::{revise, ModelBasedOp};
/// use revkb_logic::{Formula, Var};
/// // The office example: T = g ∨ b, P = ¬g.
/// let t = Formula::var(Var(0)).or(Formula::var(Var(1)));
/// let p = Formula::var(Var(0)).not();
/// // Dalal (revision) concludes b; Winslett (update) does not.
/// assert!(revise(ModelBasedOp::Dalal, &t, &p).entails(&Formula::var(Var(1))));
/// assert!(!revise(ModelBasedOp::Winslett, &t, &p).entails(&Formula::var(Var(1))));
/// ```
pub fn revise(op: ModelBasedOp, t: &Formula, p: &Formula) -> ModelSet {
    let alphabet = revision_alphabet(t, p);
    revise_on(op, &alphabet, t, p)
}

/// Operator semantics on raw mask sets (both over the same alphabet),
/// pair by pair: the definitions of §2.2.2 written out over `μ`, `δ`
/// and `k`. This is the reference [`revise_on`]'s truth-table
/// selection is tested against; it materialises all `|T|·|P|`
/// differences.
pub fn revise_masks(op: ModelBasedOp, t_models: &[u64], p_models: &[u64]) -> Vec<u64> {
    if p_models.is_empty() {
        return Vec::new();
    }
    if t_models.is_empty() {
        return p_models.to_vec();
    }
    match op {
        ModelBasedOp::Winslett => {
            // N ∈ M(P) with ∃M ⊨ T : M△N ∈ μ(M,P).
            let mut out = Vec::new();
            for &m in t_models {
                let minimal = mu(m, p_models);
                for &d in &minimal {
                    out.push(m ^ d);
                }
            }
            out
        }
        ModelBasedOp::Borgida => {
            let both: Vec<u64> = t_models
                .iter()
                .copied()
                .filter(|m| p_models.binary_search(m).is_ok())
                .collect();
            if !both.is_empty() {
                both
            } else {
                revise_masks(ModelBasedOp::Winslett, t_models, p_models)
            }
        }
        ModelBasedOp::Forbus => {
            let mut out = Vec::new();
            for &m in t_models {
                let k = k_m(m, p_models).expect("p_models nonempty");
                for &n in p_models {
                    if (m ^ n).count_ones() == k {
                        out.push(n);
                    }
                }
            }
            out
        }
        ModelBasedOp::Satoh => {
            let d = delta(t_models, p_models);
            p_models
                .iter()
                .copied()
                .filter(|&n| t_models.iter().any(|&m| d.contains(&(m ^ n))))
                .collect()
        }
        ModelBasedOp::Dalal => {
            let k = k_global(t_models, p_models).expect("both nonempty");
            p_models
                .iter()
                .copied()
                .filter(|&n| t_models.iter().any(|&m| (m ^ n).count_ones() == k))
                .collect()
        }
        ModelBasedOp::Weber => {
            let omega = omega_mask(t_models, p_models);
            p_models
                .iter()
                .copied()
                .filter(|&n| t_models.iter().any(|&m| (m ^ n) & !omega == 0))
                .collect()
        }
    }
}

/// Iterated revision `T *op P¹ *op … *op Pᵐ` over a fixed alphabet
/// (left-associative, §2.2.3), by enumeration. The result of each step
/// becomes the theory for the next; it stays a truth table throughout.
pub fn revise_iterated_on(
    op: ModelBasedOp,
    alphabet: &Alphabet,
    t: &Formula,
    ps: &[Formula],
) -> ModelSet {
    let _span = revkb_obs::span("revision.phase.model_set");
    let mut current = table_of(alphabet, t);
    for p in ps {
        current = select(op, &current, &table_of(alphabet, p));
    }
    ModelSet::new(alphabet.clone(), current.masks())
}

fn table_of(alphabet: &Alphabet, f: &Formula) -> Table {
    Table::from_words(alphabet.len(), alphabet.model_words(f))
}

/// [`revise_masks`] on truth tables. Every operator is a few passes of
/// hypercube moves over the tables rather than a walk over pairs:
///
/// - Dalal grows the ball around `M(T)` one distance at a time until it
///   meets `M(P)`;
/// - Winslett relabels `M(P)` by each model `m` of `T` (`x ↦ x ⊕ m`),
///   so the differences from `m` become the members, keeps the
///   `⊆`-minimal ones and relabels back;
/// - Satoh and Weber take every difference `m ⊕ n` at once, relabelling
///   `M(P)` by each model of `T`, and keep the `⊆`-minimal ones,
///   `δ(T,P)`; Satoh then moves `M(T)` by each member of `δ`, Weber
///   closes `M(T)` under flips of the letters of `Ω`;
/// - Forbus takes each model's own minimum distance `k_{M,P}`.
fn select(op: ModelBasedOp, t: &Table, p: &Table) -> Table {
    if p.is_empty() || t.is_empty() {
        return p.clone();
    }
    match op {
        // `n ⊨ P` is selected for `m ⊨ T` when no other model of `P`
        // lies between them: none differs from `n` only where `m` does.
        ModelBasedOp::Winslett => {
            let mut out = Table::empty_like(p);
            let (mut diffs, mut up) = (Table::empty_like(p), Table::empty_like(p));
            for m in t.iter() {
                diffs.clear();
                diffs.or_xor_by(p, m);
                diffs.keep_minimal(&mut up);
                out.or_xor_by(&diffs, m);
            }
            out
        }
        ModelBasedOp::Borgida => {
            let both = t.and(p);
            if both.is_empty() {
                select(ModelBasedOp::Winslett, t, p)
            } else {
                both
            }
        }
        ModelBasedOp::Forbus => {
            let p_models = p.masks();
            let mut out = Table::empty_like(p);
            for m in t.iter() {
                let k = k_m(m, &p_models).expect("p_models nonempty");
                for &n in &p_models {
                    if (m ^ n).count_ones() == k {
                        out.insert(n);
                    }
                }
            }
            out
        }
        ModelBasedOp::Dalal => {
            let mut ball = t.clone();
            while !ball.intersects(p) {
                ball = ball.grow();
            }
            ball.and(p)
        }
        ModelBasedOp::Satoh | ModelBasedOp::Weber => {
            let (mut delta, mut scratch) = (Table::empty_like(p), Table::empty_like(p));
            for m in t.iter() {
                delta.or_xor_by(p, m);
            }
            delta.keep_minimal(&mut scratch);
            let reached = if op == ModelBasedOp::Satoh {
                let mut moved = Table::empty_like(p);
                for d in delta.iter() {
                    moved.or_xor_by(t, d);
                }
                moved
            } else {
                let omega = delta.iter().fold(0, |a, d| a | d);
                let mut closed = t.clone();
                for i in (0..64).filter(|i| omega >> i & 1 == 1) {
                    scratch.copy_from(&closed);
                    closed.or_xor_by(&scratch, 1 << i);
                }
                closed
            };
            reached.and(p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revkb_logic::{Signature, Var};

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    /// The pairwise reference, iterated, with each step's result
    /// sorted and deduplicated.
    fn reference_iterated(op: ModelBasedOp, t: &[u64], ps: &[Vec<u64>]) -> Vec<u64> {
        let mut current = t.to_vec();
        for p in ps {
            current = revise_masks(op, &current, p);
            current.sort_unstable();
            current.dedup();
        }
        current
    }

    /// Truth-table selection against the pairwise reference, on seeded
    /// random mask sets over 0–14 letters (alphabets in scrambled
    /// order, so mask bit `i` is not letter `i`): sparse and dense
    /// sets, `T` with fewer and with more models than `P`, empty `T`
    /// and `P`, overlapping `T` and `P` (Borgida's conjunction case),
    /// and `P` a whole layer of the hypercube, whose differences from a
    /// model form wide antichains.
    #[test]
    fn table_selection_matches_pairwise_reference() {
        let mut seed = 0x5E1EC7u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        let mut cases = 0;
        for n in 0..=14usize {
            let size = 1u64 << n;
            let mut vars: Vec<Var> = (0..n as u32).map(|i| Var(3 * i + 1)).collect();
            for i in (1..n).rev() {
                vars.swap(i, rnd() as usize % (i + 1));
            }
            let alpha = Alphabet::new(vars);
            let mut random_set = |cap: u64| -> Vec<u64> {
                let len = rnd() % (cap.min(size) + 1);
                let mut set: Vec<u64> = (0..len).map(|_| rnd() % size).collect();
                set.sort_unstable();
                set.dedup();
                set
            };
            let layer: Vec<u64> = (0..size)
                .filter(|m| m.count_ones() as usize == n / 2)
                .collect();
            let mut pairs = vec![(Vec::new(), random_set(8)), (random_set(8), Vec::new())];
            for _ in 0..4 {
                pairs.push((random_set(12), random_set(40)));
                pairs.push((random_set(40), random_set(6)));
            }
            let (t, p) = (random_set(20), random_set(20));
            let shared: Vec<u64> = t.iter().chain(&p).copied().step_by(2).collect();
            pairs.push((t.iter().chain(&shared).copied().collect(), p));
            if n <= 12 {
                pairs.push((random_set(3), layer.clone()));
            }
            for (t, p) in pairs {
                let mut t = t;
                t.sort_unstable();
                t.dedup();
                let (tf, pf) = (
                    ModelSet::new(alpha.clone(), t.clone()).to_dnf(),
                    ModelSet::new(alpha.clone(), p.clone()).to_dnf(),
                );
                let p2 = random_set(30);
                let p2f = ModelSet::new(alpha.clone(), p2.clone()).to_dnf();
                for op in ModelBasedOp::ALL {
                    let expected = reference_iterated(op, &t, std::slice::from_ref(&p));
                    let got = revise_on(op, &alpha, &tf, &pf);
                    assert_eq!(
                        got.masks(),
                        &expected[..],
                        "{} n={n} T={t:?} P={p:?}",
                        op.name()
                    );
                    let expected = reference_iterated(op, &t, &[p.clone(), p2.clone()]);
                    let got = revise_iterated_on(op, &alpha, &tf, &[pf.clone(), p2f.clone()]);
                    assert_eq!(got.masks(), &expected[..], "iterated {} n={n}", op.name());
                    cases += 1;
                }
            }
        }
        assert!(cases > 500);
    }

    #[test]
    fn min_subsets_keeps_antichain() {
        assert_eq!(min_subsets(vec![0b11, 0b01, 0b10]), vec![0b01, 0b10]);
        assert_eq!(min_subsets(vec![0b111, 0b101]), vec![0b101]);
        assert_eq!(min_subsets(vec![0b0]), vec![0b0]);
        assert_eq!(min_subsets(vec![0b01, 0b0, 0b10]), vec![0b0]);
    }

    /// §2.2.2's running example: T = a∧b∧c, P = (¬a∧¬b∧¬d) ∨
    /// (¬c∧b∧(a ≢ d)) over {a,b,c,d}.
    fn paper_example() -> (Signature, Formula, Formula, Alphabet) {
        let mut sig = Signature::new();
        let (a, b, c, d) = (sig.var("a"), sig.var("b"), sig.var("c"), sig.var("d"));
        let t = Formula::var(a).and(Formula::var(b)).and(Formula::var(c));
        let p1 = Formula::var(a)
            .not()
            .and(Formula::var(b).not())
            .and(Formula::var(d).not());
        let p2 = Formula::var(c)
            .not()
            .and(Formula::var(b))
            .and(Formula::var(a).xor(Formula::var(d)));
        let p = p1.or(p2);
        let alpha = Alphabet::new(vec![a, b, c, d]);
        (sig, t, p, alpha)
    }

    /// Models named as in the paper: N1 = {a,b}, N2 = {c},
    /// N3 = {b,d}, N4 = ∅.
    fn named_masks(alpha: &Alphabet, sig: &Signature) -> (u64, u64, u64, u64) {
        let m = |names: &[&str]| -> u64 {
            let interp: revkb_logic::Interpretation =
                names.iter().map(|n| sig.lookup(n).unwrap()).collect();
            alpha.interpretation_to_mask(&interp)
        };
        (m(&["a", "b"]), m(&["c"]), m(&["b", "d"]), m(&[]))
    }

    #[test]
    fn paper_example_p_has_four_models() {
        let (sig, _t, p, alpha) = paper_example();
        let (n1, n2, n3, n4) = named_masks(&alpha, &sig);
        let mut expected = vec![n1, n2, n3, n4];
        expected.sort_unstable();
        assert_eq!(alpha.models(&p), expected);
    }

    #[test]
    fn paper_example_winslett_selects_n1_n2_n3() {
        let (sig, t, p, alpha) = paper_example();
        let (n1, n2, n3, _n4) = named_masks(&alpha, &sig);
        let got = revise_on(ModelBasedOp::Winslett, &alpha, &t, &p);
        let mut expected = [n1, n2, n3];
        expected.sort_unstable();
        assert_eq!(got.masks(), &expected[..]);
        // Borgida coincides (T ∧ P inconsistent).
        let b = revise_on(ModelBasedOp::Borgida, &alpha, &t, &p);
        assert_eq!(b.masks(), &expected[..]);
    }

    #[test]
    fn paper_example_forbus_selects_n1_n3() {
        // Paper: k_{M1,P} = 2 selects N1, N3; k_{M2,P} = 1 selects N1;
        // so T *F P has models N1 and N3.
        let (sig, t, p, alpha) = paper_example();
        let (n1, _n2, n3, _n4) = named_masks(&alpha, &sig);
        let got = revise_on(ModelBasedOp::Forbus, &alpha, &t, &p);
        let mut expected = [n1, n3];
        expected.sort_unstable();
        assert_eq!(got.masks(), &expected[..]);
    }

    #[test]
    fn paper_example_satoh_selects_n1_n2() {
        let (sig, t, p, alpha) = paper_example();
        let (n1, n2, _n3, _n4) = named_masks(&alpha, &sig);
        let got = revise_on(ModelBasedOp::Satoh, &alpha, &t, &p);
        let mut expected = [n1, n2];
        expected.sort_unstable();
        assert_eq!(got.masks(), &expected[..]);
    }

    #[test]
    fn paper_example_dalal_selects_n1() {
        let (sig, t, p, alpha) = paper_example();
        let (n1, _n2, _n3, _n4) = named_masks(&alpha, &sig);
        let got = revise_on(ModelBasedOp::Dalal, &alpha, &t, &p);
        assert_eq!(got.masks(), &[n1]);
    }

    #[test]
    fn paper_example_weber_selects_all_models_of_p() {
        let (_sig, t, p, alpha) = paper_example();
        let got = revise_on(ModelBasedOp::Weber, &alpha, &t, &p);
        assert_eq!(got.masks(), &alpha.models(&p)[..]);
    }

    #[test]
    fn paper_example_mu_and_delta() {
        let (sig, t, p, alpha) = paper_example();
        let t_models = alpha.models(&t);
        let p_models = alpha.models(&p);
        // μ(M2 = {a,b,c}, P) = {{c}, {a,b}}.
        let m2 = alpha.interpretation_to_mask(
            &["a", "b", "c"]
                .iter()
                .map(|n| sig.lookup(n).unwrap())
                .collect(),
        );
        let mask_of = |names: &[&str]| -> u64 {
            alpha.interpretation_to_mask(&names.iter().map(|n| sig.lookup(n).unwrap()).collect())
        };
        let mut mu2 = mu(m2, &p_models);
        mu2.sort_unstable();
        let mut expected = vec![mask_of(&["c"]), mask_of(&["a", "b"])];
        expected.sort_unstable();
        assert_eq!(mu2, expected);
        // δ(T,P) = {{c},{a,b}}; Ω = {a,b,c}.
        let mut d = delta(&t_models, &p_models);
        d.sort_unstable();
        assert_eq!(d, expected);
        assert_eq!(omega_mask(&t_models, &p_models), mask_of(&["a", "b", "c"]));
        // k_{T,P} = 1.
        assert_eq!(k_global(&t_models, &p_models), Some(1));
    }

    #[test]
    fn consistent_case_all_revision_ops_give_conjunction() {
        // Office example: T = g ∨ b, P = ¬g consistent with T:
        // revision-style operators give T ∧ P = ¬g ∧ b.
        let t = v(0).or(v(1));
        let p = v(0).not();
        for op in [
            ModelBasedOp::Borgida,
            ModelBasedOp::Satoh,
            ModelBasedOp::Dalal,
            ModelBasedOp::Weber,
        ] {
            let got = revise(op, &t, &p);
            let alpha = got.alphabet().clone();
            let expected = ModelSet::of_formula(alpha, &t.clone().and(p.clone()));
            assert_eq!(got, expected, "{}", op.name());
        }
    }

    #[test]
    fn update_office_example_keeps_ignorance() {
        // Update semantics: T = g∨b updated with ¬g does NOT conclude b
        // (the paper's update example): {¬g,¬b} model survives because
        // the T-model {g} updates to ∅... concretely ∅ must be a model
        // of T *Win ¬g.
        let t = v(0).or(v(1));
        let p = v(0).not();
        let got = revise(ModelBasedOp::Winslett, &t, &p);
        let empty = revkb_logic::Interpretation::new();
        assert!(got.contains(&empty));
        // So T *Win P does not entail b.
        assert!(!got.entails(&v(1)));
    }

    #[test]
    fn success_postulate_result_entails_p() {
        // All operators: M(T*P) ⊆ M(P).
        let t = v(0).iff(v(1)).and(v(2).or(v(0)));
        let p = v(0).xor(v(2));
        let alpha = revision_alphabet(&t, &p);
        let p_set = ModelSet::of_formula(alpha.clone(), &p);
        for op in ModelBasedOp::ALL {
            let got = revise_on(op, &alpha, &t, &p);
            assert!(got.is_subset_of(&p_set), "{}", op.name());
            assert!(!got.is_empty(), "{} empty", op.name());
        }
    }

    #[test]
    fn unsat_p_gives_empty() {
        let t = v(0);
        let p = v(1).and(v(1).not());
        for op in ModelBasedOp::ALL {
            assert!(revise(op, &t, &p).is_empty());
        }
    }

    #[test]
    fn unsat_t_gives_p() {
        let t = v(0).and(v(0).not());
        let p = v(1).or(v(0));
        for op in ModelBasedOp::ALL {
            let got = revise(op, &t, &p);
            let expected = ModelSet::of_formula(got.alphabet().clone(), &p);
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn iterated_single_step_matches_revise() {
        let t = v(0).and(v(1));
        let p = v(0).not().or(v(1).not());
        let alpha = revision_alphabet(&t, &p);
        for op in ModelBasedOp::ALL {
            let once = revise_on(op, &alpha, &t, &p);
            let seq = revise_iterated_on(op, &alpha, &t, std::slice::from_ref(&p));
            assert_eq!(once, seq, "{}", op.name());
        }
    }

    #[test]
    fn iterated_two_steps() {
        // T = x0∧x1∧x2; P1 = ¬x0∨¬x1; P2 = ¬x2. After both Dalal
        // steps the models keep two of the original letters.
        let t = v(0).and(v(1)).and(v(2));
        let p1 = v(0).not().or(v(1).not());
        let p2 = v(2).not();
        let alpha = revision_alphabet(&t, &p1);
        let got = revise_iterated_on(ModelBasedOp::Dalal, &alpha, &t, &[p1, p2]);
        // Step 1: models {x0,x2},{x1,x2}; step 2: drop x2 → {x0},{x1}.
        let expected = ModelSet::of_formula(alpha, &v(0).xor(v(1)).and(v(2).not()));
        assert_eq!(got, expected);
    }

    #[test]
    fn prop_2_1_bounded_difference_pointwise() {
        // Proposition 2.1 for the pointwise operators with arbitrary T:
        // for every model M of T there is a model N of T*P with
        // M△N ⊆ V(P). (Pointwise minimal differences always stay
        // inside V(P) and every one of them is realised.)
        let t = v(0).iff(v(1)).and(v(2).or(v(3)));
        let p = v(0).xor(v(3));
        let alpha = revision_alphabet(&t, &p);
        let t_models = alpha.models(&t);
        let pvars_mask = alpha.subset_mask(&p.vars().into_iter().collect::<Vec<_>>());
        for op in [ModelBasedOp::Winslett, ModelBasedOp::Forbus] {
            let result = revise_on(op, &alpha, &t, &p);
            for &m in &t_models {
                assert!(
                    result.masks().iter().any(|&n| (m ^ n) & !pvars_mask == 0),
                    "Prop 2.1 fails for {} at model {m:b}",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn prop_2_1_complete_theory_all_operators() {
        // Proposition 2.1 in the form the non-compactability proofs use
        // it (T a maximal consistent set of literals, i.e. one model):
        // holds for all six operators.
        let t = v(0).and(v(1).not()).and(v(2)).and(v(3));
        let p = v(0).xor(v(3)).or(v(1));
        let alpha = revision_alphabet(&t, &p);
        let t_models = alpha.models(&t);
        assert_eq!(t_models.len(), 1);
        let pvars_mask = alpha.subset_mask(&p.vars().into_iter().collect::<Vec<_>>());
        for op in ModelBasedOp::ALL {
            let result = revise_on(op, &alpha, &t, &p);
            for &m in &t_models {
                assert!(
                    result.masks().iter().any(|&n| (m ^ n) & !pvars_mask == 0),
                    "Prop 2.1 fails for {} at model {m:b}",
                    op.name()
                );
            }
        }
    }
}
