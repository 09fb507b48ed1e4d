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

    /// Make `self` the empty set.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Make `self` a copy of `other`, in place.
    pub(crate) fn copy_from(&mut self, other: &Table) {
        self.words.copy_from_slice(&other.words);
    }

    /// Add `{x ⊕ m | x ∈ src}`: every member of `src` moved across the
    /// letters of `m`. The high letters of `m` pick the source word, the
    /// low ones permute bits inside it.
    pub(crate) fn or_xor_by(&mut self, src: &Table, m: u64) {
        let high = (m >> 6) as usize;
        let low = m & 63;
        for (j, out) in self.words.iter_mut().enumerate() {
            let mut w = src.words[j ^ high];
            let mut rest = low;
            while rest != 0 {
                w = flip_low(w, rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
            *out |= w;
        }
    }

    /// `self` plus every mask at Hamming distance one from a member.
    pub(crate) fn grow(&self) -> Table {
        let mut out = self.clone();
        for i in 0..self.n {
            out.or_xor_by(self, 1 << i);
        }
        out
    }

    /// Keep only the `⊆`-minimal members, each mask read as a set of
    /// letters. `up` (over the same alphabet) is scratch space: it ends
    /// up holding the upward closure, every superset of a member, and a
    /// member goes when removing one of its letters lands in it.
    pub(crate) fn keep_minimal(&mut self, up: &mut Table) {
        let strides = || (self.n.min(6)..self.n).map(|i| 1 << (i - 6));
        up.copy_from(self);
        // Raise across each letter in turn, in place: a word's bits
        // without letter `i` are read, those with it are written.
        for (i, &low) in LOW.iter().enumerate().take(self.n) {
            for w in &mut up.words {
                *w |= (*w & !low) << (1 << i);
            }
        }
        for stride in strides() {
            for j in (0..up.words.len()).filter(|j| j & stride == 0) {
                up.words[j | stride] |= up.words[j];
            }
        }
        for (i, &low) in LOW.iter().enumerate().take(self.n) {
            for (w, &u) in self.words.iter_mut().zip(&up.words) {
                *w &= !((u & !low) << (1 << i));
            }
        }
        for stride in strides() {
            for j in (0..up.words.len()).filter(|j| j & stride == 0) {
                self.words[j | stride] &= !up.words[j];
            }
        }
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
                let mut out = Table::from_masks(n, &[0]);
                out.or_xor_by(&table, m);
                moved.push(0);
                moved.sort_unstable();
                moved.dedup();
                assert_eq!(out.masks(), moved, "n={n} m={m:#x}");
            }
            // Scratch left dirty by an earlier call must not matter.
            let mut up = Table::from_masks(n, &[(1 << n) - 1]);
            // The bottom and top masks: nothing in between raises the top.
            let ends = [0, (1 << n) - 1];
            for set in [&masks[..], &masks[masks.len() / 2..], &ends, &[]] {
                let mut minimal = Table::from_masks(n, set);
                minimal.keep_minimal(&mut up);
                let expected = crate::semantic::min_subsets(set.to_vec());
                assert_eq!(minimal.masks(), expected, "n={n}");
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
