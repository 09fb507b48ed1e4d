//! Model sets as truth tables: `2ⁿ`-bit sets, 64 masks to a word, as
//! [`revkb_logic::Alphabet::model_words`] computes them.
//!
//! The model-based operators select models of `P` by how models of `T`
//! move on the hypercube, and every move is a bit permutation of the
//! table: flipping letter `i` swaps bit runs of length `2ⁱ` inside each
//! word for `i < 6`, and swaps whole words for higher letters. So
//! relabelling a set by `x ↦ x ⊕ m`, growing it by Hamming distance
//! one, or closing it upward under `⊆` costs a few passes over
//! `⌈2ⁿ/64⌉` words instead of a walk over pairs of models.

/// Bit `j` of `LOW[i]` is bit `i` of `j`: the masks, within one word,
/// in which letter `i < 6` is true.
const LOW: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Move every mask of a word across low letter `i`.
fn flip_low(w: u64, i: usize) -> u64 {
    let s = 1 << i;
    ((w & !LOW[i]) << s) | ((w & LOW[i]) >> s)
}

/// Words in the truth table of an `n`-letter alphabet.
fn word_count(n: usize) -> usize {
    if n <= 6 {
        1
    } else {
        1 << (n - 6)
    }
}

/// A set of masks over an `n`-letter alphabet, as a truth table. Bits
/// past `2ⁿ` (only present when `n < 6`) are always clear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Table {
    n: usize,
    words: Vec<u64>,
}

impl Table {
    /// The empty set.
    pub(crate) fn empty(n: usize) -> Self {
        Table {
            n,
            words: vec![0; word_count(n)],
        }
    }

    /// The empty set over `other`'s alphabet.
    pub(crate) fn empty_like(other: &Table) -> Self {
        Table::empty(other.n)
    }

    /// A table from [`revkb_logic::Alphabet::model_words`].
    pub(crate) fn from_words(n: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), word_count(n));
        Table { n, words }
    }

    /// A table holding each of `masks` (all below `2ⁿ`).
    #[cfg(test)]
    pub(crate) fn from_masks(n: usize, masks: &[u64]) -> Self {
        let mut table = Table::empty(n);
        for &m in masks {
            table.insert(m);
        }
        table
    }

    pub(crate) fn insert(&mut self, m: u64) {
        self.words[(m >> 6) as usize] |= 1 << (m & 63);
    }

    /// The members, in increasing order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let base = 64 * w as u64;
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |bits| base + u64::from(bits.trailing_zeros()))
        })
    }

    /// The members, in increasing order.
    pub(crate) fn masks(&self) -> Vec<u64> {
        self.iter().collect()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub(crate) fn intersects(&self, other: &Table) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    pub(crate) fn and(&self, other: &Table) -> Table {
        let words = self.words.iter().zip(&other.words).map(|(a, b)| a & b);
        Table::from_words(self.n, words.collect())
    }

    pub(crate) fn or_assign(&mut self, other: &Table) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `{x ⊕ m | x ∈ self}`: every member moved across the letters of
    /// `m`. The high letters of `m` pick the source word, the low ones
    /// permute bits inside it.
    pub(crate) fn xor_by(&self, m: u64) -> Table {
        let high = (m >> 6) as usize;
        let low: Vec<usize> = (0..6).filter(|&i| m >> i & 1 == 1).collect();
        let words = (0..self.words.len()).map(|j| {
            low.iter()
                .fold(self.words[j ^ high], |w, &i| flip_low(w, i))
        });
        Table::from_words(self.n, words.collect())
    }

    /// `{x ⊕ {i} | x ∈ self}`: every member moved across letter `i`.
    pub(crate) fn flipped(&self, i: usize) -> Table {
        if i < 6 {
            let words = self.words.iter().map(|&w| flip_low(w, i));
            return Table::from_words(self.n, words.collect());
        }
        let stride = 1 << (i - 6);
        let words = (0..self.words.len()).map(|j| self.words[j ^ stride]);
        Table::from_words(self.n, words.collect())
    }

    /// `self` plus every mask at Hamming distance one from a member.
    pub(crate) fn grow(&self) -> Table {
        let mut out = self.clone();
        for i in 0..self.n {
            out.or_assign(&self.flipped(i));
        }
        out
    }

    /// `{x ∪ {i} | x ∈ self, i ∉ x}`: every member without letter `i`
    /// moved up across it.
    fn raised(&self, i: usize) -> Table {
        let mut out = Table::empty(self.n);
        if i < 6 {
            for (o, &w) in out.words.iter_mut().zip(&self.words) {
                *o = (w & !LOW[i]) << (1 << i);
            }
        } else {
            let stride = 1 << (i - 6);
            for j in (0..self.words.len()).filter(|j| j & stride == 0) {
                out.words[j | stride] = self.words[j];
            }
        }
        out
    }

    /// The upward closure under `⊆`, each mask read as a set of
    /// letters: every superset of a member.
    fn upward(&self) -> Table {
        let mut up = self.clone();
        for i in 0..self.n {
            let raised = up.raised(i);
            up.or_assign(&raised);
        }
        up
    }

    /// The `⊆`-minimal members: a member is dropped when some other
    /// member is a strict subset, i.e. when it lies strictly above the
    /// upward closure.
    pub(crate) fn minimal(&self) -> Table {
        let up = self.upward();
        let mut strictly_above = Table::empty(self.n);
        for i in 0..self.n {
            strictly_above.or_assign(&up.raised(i));
        }
        self.minus(&strictly_above)
    }

    /// The members not in `other`.
    fn minus(&self, other: &Table) -> Table {
        let words = self.words.iter().zip(&other.words).map(|(a, b)| a & !b);
        Table::from_words(self.n, words.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moves_match_mask_arithmetic() {
        for n in [0usize, 3, 6, 8] {
            let masks: Vec<u64> = (0..1u64 << n)
                .filter(|m| m % 3 == 1 || m % 7 == 0)
                .collect();
            let table = Table::from_masks(n, &masks);
            assert_eq!(table.masks(), masks);
            for m in [0u64, 1, 5, 0x41, 0xA3] {
                let m = m & ((1u64 << n) - 1);
                let mut moved: Vec<u64> = masks.iter().map(|&x| x ^ m).collect();
                moved.sort_unstable();
                assert_eq!(table.xor_by(m).masks(), moved, "n={n} m={m:#x}");
            }
            let mut grown: Vec<u64> = masks
                .iter()
                .flat_map(|&x| std::iter::once(x).chain((0..n).map(move |i| x ^ 1 << i)))
                .collect();
            grown.sort_unstable();
            grown.dedup();
            assert_eq!(table.grow().masks(), grown, "n={n}");
        }
    }
}
