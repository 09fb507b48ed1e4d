//! Interpretations, evaluation and dense model enumeration.
//!
//! The paper identifies an interpretation with the set of letters it
//! maps to true; [`Interpretation`] follows that convention. For the
//! semantic ground-truth engine we also provide a dense view: an
//! [`Alphabet`] fixes an ordering of at most 64 letters and represents
//! each interpretation as a `u64` bitmask, so `2ⁿ` enumeration and
//! symmetric-difference arithmetic become single machine operations.

use crate::formula::Formula;
use crate::var::Var;
use std::collections::BTreeSet;

/// An interpretation as the set of letters mapped to true.
pub type Interpretation = BTreeSet<Var>;

impl Formula {
    /// Evaluate under an arbitrary valuation function.
    pub fn eval_fn(&self, val: &impl Fn(Var) -> bool) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Var(v) => val(*v),
            Formula::Not(f) => !f.eval_fn(val),
            Formula::And(fs) => fs.iter().all(|f| f.eval_fn(val)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval_fn(val)),
            Formula::Implies(a, b) => !a.eval_fn(val) || b.eval_fn(val),
            Formula::Iff(a, b) => a.eval_fn(val) == b.eval_fn(val),
            Formula::Xor(a, b) => a.eval_fn(val) != b.eval_fn(val),
        }
    }

    /// Evaluate under 64 valuations at once: `col(v)` is letter `v`'s
    /// column, whose bit `j` is its value in valuation `j`, and bit `j`
    /// of the result is the formula's value in valuation `j`.
    ///
    /// ```
    /// use revkb_logic::{Formula, Var};
    ///
    /// let f = Formula::var(Var(0)).implies(Formula::var(Var(1)));
    /// // Valuation j sets letter 0 to bit 0 of j, letter 1 to bit 1.
    /// let col = |v: Var| [0b1010u64, 0b1100][v.index()];
    /// assert_eq!(f.eval_word(&col) & 0b1111, 0b1101);
    /// ```
    pub fn eval_word(&self, col: &impl Fn(Var) -> u64) -> u64 {
        match self {
            Formula::True => u64::MAX,
            Formula::False => 0,
            Formula::Var(v) => col(*v),
            Formula::Not(f) => !f.eval_word(col),
            Formula::And(fs) => fs.iter().fold(u64::MAX, |acc, f| acc & f.eval_word(col)),
            Formula::Or(fs) => fs.iter().fold(0, |acc, f| acc | f.eval_word(col)),
            Formula::Implies(a, b) => !a.eval_word(col) | b.eval_word(col),
            Formula::Iff(a, b) => !(a.eval_word(col) ^ b.eval_word(col)),
            Formula::Xor(a, b) => a.eval_word(col) ^ b.eval_word(col),
        }
    }

    /// Evaluate under a set-of-true-letters interpretation
    /// (`M ⊨ φ` in the paper's notation).
    pub fn eval(&self, m: &Interpretation) -> bool {
        self.eval_fn(&|v| m.contains(&v))
    }
}

/// A fixed ordering of at most 64 letters, giving each interpretation a
/// dense `u64` bitmask encoding (bit `i` = truth of the `i`-th letter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    vars: Vec<Var>,
    positions: std::collections::HashMap<Var, usize>,
}

impl Alphabet {
    /// Build an alphabet from an ordered list of distinct letters.
    ///
    /// # Panics
    /// If there are more than 64 letters or duplicates.
    pub fn new(vars: Vec<Var>) -> Self {
        assert!(
            vars.len() <= 64,
            "dense alphabets support at most 64 letters"
        );
        let mut positions = std::collections::HashMap::with_capacity(vars.len());
        for (i, &v) in vars.iter().enumerate() {
            let prev = positions.insert(v, i);
            assert!(prev.is_none(), "duplicate letter in alphabet");
        }
        Self { vars, positions }
    }

    /// The alphabet `V(φ)` of a formula, in `Var` order.
    pub fn of_formula(f: &Formula) -> Self {
        Self::new(f.vars().into_iter().collect())
    }

    /// The union of the alphabets of several formulas, in `Var` order.
    pub fn of_formulas<'a, I: IntoIterator<Item = &'a Formula>>(fs: I) -> Self {
        let mut vars = BTreeSet::new();
        for f in fs {
            f.collect_vars(&mut vars);
        }
        Self::new(vars.into_iter().collect())
    }

    /// Number of letters.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when the alphabet has no letters.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The letters, in mask-bit order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Bit position of `v`, if it belongs to the alphabet.
    pub fn position(&self, v: Var) -> Option<usize> {
        self.positions.get(&v).copied()
    }

    /// True when `v` belongs to the alphabet.
    pub fn contains(&self, v: Var) -> bool {
        self.positions.contains_key(&v)
    }

    /// Total number of interpretations `2ⁿ`.
    ///
    /// # Panics
    /// If the alphabet has 64 letters (the count overflows `u64`); all
    /// enumeration entry points are intended for much smaller alphabets.
    pub fn interpretation_count(&self) -> u64 {
        assert!(self.len() < 64, "interpretation count overflows u64");
        1u64 << self.len()
    }

    /// Convert a mask to the paper's set-of-letters interpretation.
    pub fn mask_to_interpretation(&self, mask: u64) -> Interpretation {
        self.vars
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &v)| v)
            .collect()
    }

    /// Convert a set-of-letters interpretation to a mask. Letters outside
    /// the alphabet are ignored (they are false by convention).
    pub fn interpretation_to_mask(&self, m: &Interpretation) -> u64 {
        let mut mask = 0u64;
        for v in m {
            if let Some(i) = self.position(*v) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Evaluate `f` under `mask`; letters of `f` outside the alphabet
    /// are false.
    pub fn eval_mask(&self, f: &Formula, mask: u64) -> bool {
        f.eval_fn(&|v| match self.position(v) {
            Some(i) => mask & (1 << i) != 0,
            None => false,
        })
    }

    /// Enumerate all models of `f` over this alphabet, as masks, in
    /// increasing mask order, read off [`Alphabet::model_words`].
    ///
    /// # Panics
    /// If the alphabet has 64 or more letters. This is the ground-truth
    /// path; use the SAT solver for large alphabets.
    pub fn models(&self, f: &Formula) -> Vec<u64> {
        let mut out = Vec::new();
        for (w, &word) in self.model_words(f).iter().enumerate() {
            let mut word = word;
            while word != 0 {
                out.push(64 * w as u64 + u64::from(word.trailing_zeros()));
                word &= word - 1;
            }
        }
        out
    }

    /// The models of `f` as a `2ⁿ`-bit truth table: bit `j` of word `w`
    /// is `f` under mask `64·w + j`. An alphabet under six letters has
    /// one, partial, word whose bits from `2ⁿ` on are clear.
    ///
    /// Each node of `f` is evaluated once, on the whole table: a letter
    /// is a fixed bit pattern (letters outside the alphabet are false),
    /// and a connective combines its operands' tables word by word. So
    /// the cost is `|f| · ⌈2ⁿ / 64⌉` word operations, with one buffer
    /// per level of `f`'s nesting.
    ///
    /// # Panics
    /// As [`Alphabet::models`].
    pub fn model_words(&self, f: &Formula) -> Vec<u64> {
        let count = self.interpretation_count();
        let mut tables = WordTables {
            alphabet: self,
            len: count.div_ceil(64) as usize,
            spare: Vec::new(),
        };
        let mut words = tables.eval(f);
        if count < 64 {
            words[0] &= (1 << count) - 1;
        }
        words
    }

    /// Hamming distance between two interpretations (the cardinality of
    /// the symmetric difference, `|M △ N|`).
    #[inline]
    pub fn distance(a: u64, b: u64) -> u32 {
        (a ^ b).count_ones()
    }

    /// Symmetric difference `M △ N` as a mask.
    #[inline]
    pub fn diff(a: u64, b: u64) -> u64 {
        a ^ b
    }

    /// Project a mask onto the letters of `sub` (a sub-alphabet): the
    /// resulting mask is expressed in `sub`'s bit order. Letters of
    /// `sub` absent from `self` come out false.
    pub fn project_mask(&self, mask: u64, sub: &Alphabet) -> u64 {
        let mut out = 0u64;
        for (j, &v) in sub.vars.iter().enumerate() {
            if let Some(i) = self.position(v) {
                if mask & (1 << i) != 0 {
                    out |= 1 << j;
                }
            }
        }
        out
    }

    /// The mask selecting the positions of the given letters (letters
    /// outside the alphabet are ignored).
    pub fn subset_mask(&self, vars: &[Var]) -> u64 {
        let mut out = 0u64;
        for &v in vars {
            if let Some(i) = self.position(v) {
                out |= 1 << i;
            }
        }
        out
    }
}

/// Truth tables of formula nodes over one alphabet, for
/// [`Alphabet::model_words`]: each a `Vec` of `len` words, recycled
/// through `spare` once its parent has combined it.
///
/// This is [`Formula::eval_word`] lifted to whole tables, kept apart
/// from it because one pass per node over all words beats one
/// `eval_word` walk of the formula per word once a table has more than
/// a few words: on random 3-CNFs (x86-64 Xeon, release build) the
/// per-word walk took 2.4–3.7× as long at 12 letters (64 words) and
/// 4.3–4.8× at 16–20 letters, and won only at 8 letters or fewer.
struct WordTables<'a> {
    alphabet: &'a Alphabet,
    len: usize,
    spare: Vec<Vec<u64>>,
}

impl WordTables<'_> {
    /// A table of `len` words, every word `fill`.
    fn filled(&mut self, fill: u64) -> Vec<u64> {
        let mut t = self.spare.pop().unwrap_or_default();
        t.clear();
        t.resize(self.len, fill);
        t
    }

    /// The table of letter `v`. Bit `j` of `LOW_LETTERS[i]` is bit `i`
    /// of `j`: a letter at position `i < 6` varies within each word, a
    /// higher one is constant across a word (bit `i - 6` of its index).
    fn letter(&mut self, v: Var) -> Vec<u64> {
        const LOW_LETTERS: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        match self.alphabet.position(v) {
            Some(i) if i < 6 => self.filled(LOW_LETTERS[i]),
            Some(i) => {
                let mut t = self.filled(0);
                for (w, word) in t.iter_mut().enumerate() {
                    if w >> (i - 6) & 1 == 1 {
                        *word = u64::MAX;
                    }
                }
                t
            }
            None => self.filled(0),
        }
    }

    /// Fold `g`'s table into `acc` with `op`, then recycle it.
    fn fold(&mut self, acc: &mut [u64], g: &Formula, op: impl Fn(u64, u64) -> u64) {
        let t = self.eval(g);
        for (a, b) in acc.iter_mut().zip(&t) {
            *a = op(*a, *b);
        }
        self.spare.push(t);
    }

    fn eval(&mut self, f: &Formula) -> Vec<u64> {
        match f {
            Formula::True => self.filled(u64::MAX),
            Formula::False => self.filled(0),
            Formula::Var(v) => self.letter(*v),
            Formula::Not(g) => {
                let mut t = self.eval(g);
                t.iter_mut().for_each(|w| *w = !*w);
                t
            }
            Formula::And(fs) => {
                let mut acc = self.filled(u64::MAX);
                for g in fs {
                    self.fold(&mut acc, g, |a, b| a & b);
                }
                acc
            }
            Formula::Or(fs) => {
                let mut acc = self.filled(0);
                for g in fs {
                    self.fold(&mut acc, g, |a, b| a | b);
                }
                acc
            }
            Formula::Implies(a, b) => {
                let mut acc = self.eval(a);
                self.fold(&mut acc, b, |a, b| !a | b);
                acc
            }
            Formula::Iff(a, b) => {
                let mut acc = self.eval(a);
                self.fold(&mut acc, b, |a, b| !(a ^ b));
                acc
            }
            Formula::Xor(a, b) => {
                let mut acc = self.eval(a);
                self.fold(&mut acc, b, |a, b| a ^ b);
                acc
            }
        }
    }
}

/// Truth-table logical equivalence of two formulas over the union of
/// their alphabets. Exponential; intended for testing and small inputs.
pub fn tt_equivalent(a: &Formula, b: &Formula) -> bool {
    let alpha = Alphabet::of_formulas([a, b]);
    assert!(alpha.len() <= 24, "tt_equivalent is for small alphabets");
    let count = 1u64 << alpha.len();
    (0..count).all(|m| alpha.eval_mask(a, m) == alpha.eval_mask(b, m))
}

/// Truth-table validity check. Exponential; for testing and small inputs.
pub fn tt_valid(f: &Formula) -> bool {
    tt_equivalent(f, &Formula::True)
}

/// Truth-table satisfiability check. Exponential; for testing and small
/// inputs.
pub fn tt_satisfiable(f: &Formula) -> bool {
    let alpha = Alphabet::of_formula(f);
    assert!(alpha.len() <= 24, "tt_satisfiable is for small alphabets");
    let count = 1u64 << alpha.len();
    (0..count).any(|m| alpha.eval_mask(f, m))
}

/// Truth-table entailment `a ⊨ b` over the union alphabet. Exponential.
pub fn tt_entails(a: &Formula, b: &Formula) -> bool {
    let alpha = Alphabet::of_formulas([a, b]);
    assert!(alpha.len() <= 24, "tt_entails is for small alphabets");
    let count = 1u64 << alpha.len();
    (0..count).all(|m| !alpha.eval_mask(a, m) || alpha.eval_mask(b, m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn eval_on_sets() {
        let f = v(0).and(v(1).not());
        let m: Interpretation = [Var(0)].into_iter().collect();
        assert!(f.eval(&m));
        let m2: Interpretation = [Var(0), Var(1)].into_iter().collect();
        assert!(!f.eval(&m2));
    }

    #[test]
    fn eval_shorthands() {
        let f = v(0).iff(v(1));
        let both: Interpretation = [Var(0), Var(1)].into_iter().collect();
        let neither: Interpretation = Interpretation::new();
        let one: Interpretation = [Var(0)].into_iter().collect();
        assert!(f.eval(&both));
        assert!(f.eval(&neither));
        assert!(!f.eval(&one));
        let g = v(0).implies(v(1));
        assert!(g.eval(&neither));
        assert!(!g.eval(&one));
    }

    #[test]
    fn eval_word_is_eval_fn_per_bit() {
        // Bit j of letter i's column is bit i of j: the 64 columns
        // spell all 2⁶ valuations of letters 0..6.
        let col = |v: Var| (0..64u64).fold(0, |w, j| w | ((j >> v.index()) & 1) << j);
        let f = v(0)
            .xor(v(1))
            .iff(v(2).implies(v(3)))
            .or(Formula::and_all([v(4), v(5).not(), Formula::True]))
            .and(Formula::False.not());
        let word = f.eval_word(&col);
        for j in 0..64 {
            let expected = f.eval_fn(&|v| (j >> v.index()) & 1 == 1);
            assert_eq!(word >> j & 1 == 1, expected, "valuation {j}");
        }
    }

    #[test]
    fn model_enumeration() {
        let f = v(0).or(v(1));
        let alpha = Alphabet::of_formula(&f);
        let models = alpha.models(&f);
        assert_eq!(models, vec![0b01, 0b10, 0b11]);
    }

    #[test]
    fn interpretation_roundtrip() {
        let alpha = Alphabet::new(vec![Var(3), Var(7), Var(9)]);
        let m: Interpretation = [Var(3), Var(9)].into_iter().collect();
        let mask = alpha.interpretation_to_mask(&m);
        assert_eq!(mask, 0b101);
        assert_eq!(alpha.mask_to_interpretation(mask), m);
    }

    #[test]
    fn distance_and_diff() {
        assert_eq!(Alphabet::distance(0b101, 0b011), 2);
        assert_eq!(Alphabet::diff(0b101, 0b011), 0b110);
    }

    #[test]
    fn projection() {
        let big = Alphabet::new(vec![Var(0), Var(1), Var(2)]);
        let small = Alphabet::new(vec![Var(2), Var(0)]);
        // mask 0b110 on big = {Var1, Var2}; projected to (Var2, Var0) = 0b01.
        assert_eq!(big.project_mask(0b110, &small), 0b01);
    }

    #[test]
    fn subset_mask_ignores_foreign_letters() {
        let alpha = Alphabet::new(vec![Var(0), Var(1)]);
        assert_eq!(alpha.subset_mask(&[Var(1), Var(42)]), 0b10);
    }

    #[test]
    fn tt_checks() {
        let f = v(0).or(v(0).not());
        assert!(tt_valid(&f));
        assert!(tt_satisfiable(&v(0)));
        assert!(!tt_satisfiable(&v(0).and(v(0).not())));
        assert!(tt_entails(&v(0).and(v(1)), &v(0)));
        assert!(!tt_entails(&v(0), &v(1)));
        assert!(tt_equivalent(&v(0).implies(v(1)), &v(0).not().or(v(1))));
    }

    /// Seeded random formula over letters `0..num_vars`, using every
    /// connective and both constants (a local LCG keeps the crate free
    /// of dependencies).
    fn random_formula(seed: &mut u64, depth: u32, num_vars: u32) -> Formula {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (*seed >> 33) as u32;
        if depth == 0 || r.is_multiple_of(9) {
            return match r % 13 {
                0 => Formula::True,
                1 => Formula::False,
                _ => Formula::lit(Var(r / 13 % num_vars), r & 1 == 0),
            };
        }
        let mut next = || random_formula(seed, depth - 1, num_vars);
        match r % 7 {
            0 => Formula::And(vec![next(), next(), next()]),
            1 => Formula::Or(vec![next(), next(), next()]),
            2 => next().implies(next()),
            3 => next().iff(next()),
            4 => next().xor(next()),
            5 => Formula::Not(std::sync::Arc::new(next())),
            _ => next().and(next()),
        }
    }

    #[test]
    fn word_parallel_models_match_per_mask_evaluation() {
        let mut seed = 0x5EED_F00Du64;
        for n in 0..=14u32 {
            // Letters 0..n form the alphabet (scrambled order); formulas
            // also mention two foreign letters n and n+1, read as false.
            let mut vars: Vec<Var> = (0..n).map(Var).collect();
            vars.reverse();
            vars.rotate_left(n as usize / 3);
            let alpha = Alphabet::new(vars);
            let cases = if n <= 10 { 40 } else { 8 };
            for _ in 0..cases {
                let f = random_formula(&mut seed, 5, n + 2);
                let expected: Vec<u64> = (0..alpha.interpretation_count())
                    .filter(|&m| alpha.eval_mask(&f, m))
                    .collect();
                assert_eq!(alpha.models(&f), expected, "n = {n}, f = {f:?}");
            }
        }
    }

    #[test]
    fn model_words_match_eval_mask_bit_for_bit() {
        let mut seed = 0x7AB1_E5EEDu64;
        for n in [0u32, 1, 5, 6, 7, 13] {
            // Letters 3, 5, 7, … in reverse order form the alphabet;
            // formulas over 0..2n+4 also mention even letters and ones
            // past the alphabet, all outside it.
            let alpha = Alphabet::new((0..n).rev().map(|i| Var(2 * i + 3)).collect());
            let count = alpha.interpretation_count();
            for _ in 0..24 {
                let f = random_formula(&mut seed, 6, 2 * n + 4);
                let words = alpha.model_words(&f);
                assert_eq!(words.len() as u64, count.div_ceil(64), "n = {n}");
                for (w, &word) in words.iter().enumerate() {
                    for j in 0..64 {
                        let mask = 64 * w as u64 + j;
                        let expected = mask < count && alpha.eval_mask(&f, mask);
                        assert_eq!(word >> j & 1 == 1, expected, "n = {n}, mask {mask}, {f:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn eval_mask_treats_foreign_vars_false() {
        let alpha = Alphabet::new(vec![Var(0)]);
        let f = v(0).and(v(5).not());
        assert!(alpha.eval_mask(&f, 0b1));
    }
}
