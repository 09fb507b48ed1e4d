//! Dense model sets: the result type of the semantic (ground-truth)
//! revision engine.
//!
//! A [`ModelSet`] is a set of interpretations over a fixed
//! [`Alphabet`], stored as sorted `u64` bitmasks. The semantic engine
//! computes `M(T * P)` for every operator by explicit enumeration;
//! everything else in the system (compact constructions, the
//! query-answering engine) is validated against these sets.

use revkb_logic::{Alphabet, Formula, Interpretation, Var};

/// A set of models over a fixed alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSet {
    alphabet: Alphabet,
    /// Sorted, deduplicated masks.
    models: Vec<u64>,
}

impl ModelSet {
    /// Build from an alphabet and a list of masks (sorted/deduped here).
    pub fn new(alphabet: Alphabet, mut models: Vec<u64>) -> Self {
        models.sort_unstable();
        models.dedup();
        Self { alphabet, models }
    }

    /// The models of `f` over `alphabet`.
    pub fn of_formula(alphabet: Alphabet, f: &Formula) -> Self {
        let models = alphabet.models(f);
        Self { alphabet, models }
    }

    /// The underlying alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The masks, sorted.
    pub fn masks(&self) -> &[u64] {
        &self.models
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when the set is empty (an unsatisfiable result).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Membership of a mask.
    pub fn contains_mask(&self, mask: u64) -> bool {
        self.models.binary_search(&mask).is_ok()
    }

    /// Membership of an interpretation (the paper's model checking
    /// `M ⊨ T * P`). Letters outside the alphabet must be absent.
    pub fn contains(&self, m: &Interpretation) -> bool {
        if m.iter().any(|v| !self.alphabet.contains(*v)) {
            return false;
        }
        self.contains_mask(self.alphabet.interpretation_to_mask(m))
    }

    /// The models as interpretations.
    pub fn interpretations(&self) -> Vec<Interpretation> {
        self.models
            .iter()
            .map(|&m| self.alphabet.mask_to_interpretation(m))
            .collect()
    }

    /// Does every model satisfy `q`? (`T * P ⊨ Q`; `q` must use only
    /// letters of the alphabet — foreign letters read as false.)
    pub fn entails(&self, q: &Formula) -> bool {
        self.models.iter().all(|&m| self.alphabet.eval_mask(q, m))
    }

    /// Subset relation against another set over the same alphabet.
    ///
    /// # Panics
    /// If the alphabets differ.
    pub fn is_subset_of(&self, other: &ModelSet) -> bool {
        assert_eq!(
            self.alphabet, other.alphabet,
            "model sets over different alphabets"
        );
        self.models.iter().all(|&m| other.contains_mask(m))
    }

    /// Exact canonical formula: the disjunction of the models as full
    /// minterms (exponential; ground truth for small alphabets).
    pub fn to_dnf(&self) -> Formula {
        Formula::or_all(self.models.iter().map(|&m| {
            Formula::and_all(
                self.alphabet
                    .vars()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| Formula::lit(v, m >> i & 1 == 1)),
            )
        }))
    }

    /// Intersection with another set over the same alphabet.
    pub fn intersect(&self, other: &ModelSet) -> ModelSet {
        assert_eq!(self.alphabet, other.alphabet);
        let models = self
            .models
            .iter()
            .copied()
            .filter(|&m| other.contains_mask(m))
            .collect();
        ModelSet::new(self.alphabet.clone(), models)
    }
}

/// The union alphabet `V(T) ∪ V(P)` over which model-based operators
/// are defined, in `Var` order.
pub fn revision_alphabet(t: &Formula, p: &Formula) -> Alphabet {
    Alphabet::of_formulas([t, p])
}

/// The union alphabet of a theory and a sequence of revisions.
pub fn revision_alphabet_seq(t: &Formula, ps: &[Formula]) -> Alphabet {
    Alphabet::of_formulas(std::iter::once(t).chain(ps))
}

/// Like [`revision_alphabet`] but with extra letters forced into the
/// alphabet (the paper sometimes fixes the alphabet up front).
pub fn alphabet_with(t: &Formula, p: &Formula, extra: &[Var]) -> Alphabet {
    let mut vars = t.vars();
    p.collect_vars(&mut vars);
    vars.extend(extra.iter().copied());
    Alphabet::new(vars.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn construction_and_membership() {
        let alpha = Alphabet::new(vec![Var(0), Var(1)]);
        let ms = ModelSet::of_formula(alpha, &v(0).or(v(1)));
        assert_eq!(ms.len(), 3);
        assert!(ms.contains_mask(0b01));
        assert!(!ms.contains_mask(0b00));
        let interp: Interpretation = [Var(1)].into_iter().collect();
        assert!(ms.contains(&interp));
    }

    #[test]
    fn contains_rejects_foreign_letters() {
        let alpha = Alphabet::new(vec![Var(0)]);
        let ms = ModelSet::of_formula(alpha, &v(0));
        let foreign: Interpretation = [Var(0), Var(9)].into_iter().collect();
        assert!(!ms.contains(&foreign));
    }

    #[test]
    fn entailment() {
        let alpha = Alphabet::new(vec![Var(0), Var(1)]);
        let ms = ModelSet::of_formula(alpha, &v(0).and(v(1)));
        assert!(ms.entails(&v(0)));
        assert!(ms.entails(&v(1)));
        assert!(!ms.entails(&v(0).not()));
        // Empty set entails everything.
        let empty = ModelSet::new(Alphabet::new(vec![Var(0)]), vec![]);
        assert!(empty.entails(&Formula::False));
    }

    #[test]
    fn dnf_roundtrip() {
        let alpha = Alphabet::new(vec![Var(0), Var(1), Var(2)]);
        let f = v(0).xor(v(1)).or(v(2));
        let ms = ModelSet::of_formula(alpha.clone(), &f);
        let dnf = ms.to_dnf();
        let ms2 = ModelSet::of_formula(alpha, &dnf);
        assert_eq!(ms, ms2);
    }

    /// `BddManager::from_models` builds the same canonical node as
    /// rebuilding the minterm DNF with `apply`, in the same manager,
    /// and allocates nothing beyond the result's own nodes (both
    /// terminals always exist, so a constant result leaves two).
    #[test]
    fn bdd_from_models_matches_dnf_rebuild() {
        let mut seed = 0xB0D_5EEDu64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for n in [0usize, 1, 5, 6, 7, 12] {
            // Scrambled letters: the manager's order is the alphabet's.
            let alpha = Alphabet::new((0..n as u32).rev().map(|i| Var(3 * i + 1)).collect());
            let all = 1u64 << n;
            let mut sets = vec![Vec::new(), (0..all).collect()];
            for density in [1, 4, 32, 60] {
                for _ in 0..3 {
                    sets.push((0..all).filter(|_| next() % 64 < density).collect());
                }
            }
            for masks in sets {
                let ms = ModelSet::new(alpha.clone(), masks);
                let mut mgr = revkb_bdd::BddManager::with_order(alpha.vars().to_vec());
                let root = mgr.from_models(ms.masks());
                assert_eq!(mgr.allocated(), mgr.size(root).max(2), "n = {n}");
                assert_eq!(mgr.from_formula(&ms.to_dnf()), root, "n = {n}");
                assert_eq!(mgr.count_models(root), ms.len() as u128);
            }
        }
    }

    #[test]
    fn subset_and_intersect() {
        let alpha = Alphabet::new(vec![Var(0), Var(1)]);
        let big = ModelSet::of_formula(alpha.clone(), &v(0).or(v(1)));
        let small = ModelSet::of_formula(alpha.clone(), &v(0).and(v(1)));
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        let inter = big.intersect(&small);
        assert_eq!(inter, small);
    }

    #[test]
    fn dedup_on_new() {
        let alpha = Alphabet::new(vec![Var(0)]);
        let ms = ModelSet::new(alpha, vec![1, 0, 1]);
        assert_eq!(ms.masks(), &[0, 1]);
    }
}
