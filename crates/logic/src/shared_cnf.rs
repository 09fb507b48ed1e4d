//! A CNF read under many namings: shared blocks of clauses, each with
//! its own renaming of letters.
//!
//! Iterated revision renames the running representation at every step
//! (`Φᵢ[X/Yᵢ₊₁]`) and conjoins new parts to it. Kept as a
//! [`SharedCnf`], each part's clauses are written once, by one Tseitin
//! pass, and never copied again: [`SharedCnf::rename`] composes the
//! renaming into every block's letter map, [`SharedCnf::and`] appends
//! blocks, and clones share the clauses. Reading the clauses
//! ([`SharedCnf::for_each_clause`]) applies each block's map on the fly.

use crate::cnf::{Cnf, Lit};
use crate::var::Var;
use std::sync::Arc;

/// The clauses of one block, back to back.
#[derive(Debug)]
struct Clauses {
    lits: Vec<Lit>,
    /// `ends[i]` is one past the last literal of clause `i`.
    ends: Vec<u32>,
    /// One past the highest variable index mentioned.
    num_vars: u32,
}

#[derive(Debug, Clone)]
struct Block {
    clauses: Arc<Clauses>,
    /// The block's letters that read as other letters, sorted by the
    /// block's letter; every other letter reads as itself.
    names: Vec<(Var, Var)>,
}

impl Block {
    fn num_vars(&self) -> u32 {
        let renamed = self.names.iter().map(|&(_, to)| to.0 + 1);
        renamed.fold(self.clauses.num_vars, u32::max)
    }
}

/// A CNF as shared clause blocks, each read through a renaming of its
/// letters.
///
/// ```
/// use revkb_logic::{tseitin_auto, Formula, SharedCnf, Var};
/// let f = Formula::var(Var(0)).or(Formula::var(Var(1)));
/// let cnf = SharedCnf::from(tseitin_auto(&f));
/// let renamed = cnf.rename(&[Var(0)], &[Var(7)]);
/// let mut clauses = Vec::new();
/// renamed.for_each_clause(|c| clauses.push(c.to_vec()));
/// assert!(clauses.iter().flatten().any(|l| l.var() == Var(7)));
/// assert!(clauses.iter().flatten().all(|l| l.var() != Var(0)));
/// assert_eq!(renamed.len(), cnf.len());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedCnf {
    blocks: Vec<Block>,
}

impl From<Cnf> for SharedCnf {
    fn from(cnf: Cnf) -> Self {
        let mut lits = Vec::with_capacity(cnf.literal_count());
        let mut ends = Vec::with_capacity(cnf.len());
        for clause in &cnf.clauses {
            lits.extend_from_slice(clause);
            ends.push(lits.len() as u32);
        }
        let clauses = Clauses {
            lits,
            ends,
            num_vars: cnf.num_vars,
        };
        SharedCnf {
            blocks: vec![Block {
                clauses: Arc::new(clauses),
                names: Vec::new(),
            }],
        }
    }
}

impl SharedCnf {
    /// The conjunction of `self` and `other`: their blocks, side by
    /// side.
    pub fn and(mut self, other: SharedCnf) -> SharedCnf {
        self.blocks.extend(other.blocks);
        self
    }

    /// `self[xs/ys]`: every letter that reads as `xs[i]` reads as
    /// `ys[i]` instead. The clauses are shared with `self`, not
    /// copied.
    ///
    /// # Panics
    ///
    /// If `xs` and `ys` differ in length.
    pub fn rename(&self, xs: &[Var], ys: &[Var]) -> SharedCnf {
        assert_eq!(xs.len(), ys.len(), "a renaming pairs up its letters");
        let mut pairs: Vec<(Var, Var)> = xs.iter().copied().zip(ys.iter().copied()).collect();
        pairs.sort_unstable();
        let read = |v: Var| match pairs.binary_search_by_key(&v, |&(x, _)| x) {
            Ok(i) => pairs[i].1,
            Err(_) => v,
        };
        let blocks = self
            .blocks
            .iter()
            .map(|block| {
                let mut names: Vec<(Var, Var)> =
                    block.names.iter().map(|&(v, to)| (v, read(to))).collect();
                // Letters of the block that read as themselves so far.
                for &(x, y) in &pairs {
                    let unnamed = block.names.binary_search_by_key(&x, |&(v, _)| v).is_err();
                    if unnamed && x.0 < block.clauses.num_vars {
                        names.push((x, y));
                    }
                }
                names.retain(|&(v, to)| v != to);
                names.sort_unstable();
                Block {
                    clauses: Arc::clone(&block.clauses),
                    names,
                }
            })
            .collect();
        SharedCnf { blocks }
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.clauses.ends.len()).sum()
    }

    /// True when there are no clauses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the highest variable index the clauses read as.
    pub fn num_vars(&self) -> u32 {
        self.blocks.iter().map(Block::num_vars).max().unwrap_or(0)
    }

    /// Call `f` on every clause, its letters renamed.
    pub fn for_each_clause(&self, mut f: impl FnMut(&[Lit])) {
        let mut buf = Vec::new();
        for block in &self.blocks {
            let Clauses { lits, ends, .. } = &*block.clauses;
            let mut start = 0;
            if block.names.is_empty() {
                for &end in ends {
                    f(&lits[start..end as usize]);
                    start = end as usize;
                }
                continue;
            }
            // A dense table of the renamed letters: index → new name.
            let top = block.names.last().map_or(0, |&(v, _)| v.index() + 1);
            let mut table = vec![None; top];
            for &(v, to) in &block.names {
                table[v.index()] = Some(to);
            }
            for &end in ends {
                buf.clear();
                buf.extend(lits[start..end as usize].iter().map(|&l| {
                    match table.get(l.var().index()).copied().flatten() {
                        Some(to) => Lit::new(to, l.is_positive()),
                        None => l,
                    }
                }));
                f(&buf);
                start = end as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::tseitin;
    use crate::{CountingSupply, Formula};

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    fn lits(cnf: &SharedCnf) -> Vec<Vec<Lit>> {
        let mut clauses = Vec::new();
        cnf.for_each_clause(|c| clauses.push(c.to_vec()));
        clauses
    }

    #[test]
    fn renaming_is_the_tseitin_of_the_renamed_formula() {
        // Renaming the clauses twice gives exactly the clauses of the
        // formula renamed twice, encoded with the same letters.
        let f = v(0).and(v(1).or(v(2).not())).xor(v(0));
        let encode = |f: &Formula| tseitin(f, &mut CountingSupply::new(100));
        let shared = SharedCnf::from(encode(&f));
        let once = shared.rename(&[Var(0), Var(1)], &[Var(10), Var(11)]);
        let twice = once.rename(&[Var(10), Var(2)], &[Var(20), Var(21)]);
        let f_twice = f
            .rename(&[Var(0), Var(1)], &[Var(10), Var(11)])
            .rename(&[Var(10), Var(2)], &[Var(20), Var(21)]);
        assert_eq!(lits(&twice), encode(&f_twice).clauses);
        assert_eq!(
            lits(&shared),
            encode(&f).clauses,
            "the original is untouched"
        );
        assert_eq!(twice.num_vars(), encode(&f_twice).num_vars);
    }

    #[test]
    fn blocks_keep_their_own_names() {
        let a = SharedCnf::from(tseitin(&v(0).or(v(1)), &mut CountingSupply::new(10)));
        let b = SharedCnf::from(tseitin(&v(0).and(v(2)), &mut CountingSupply::new(20)));
        let both = a.rename(&[Var(0)], &[Var(5)]).and(b.clone());
        assert_eq!(both.len(), a.len() + b.len());
        let clauses = lits(&both);
        let (from_a, from_b) = clauses.split_at(a.len());
        assert!(from_a.iter().flatten().all(|l| l.var() != Var(0)));
        assert!(from_b.iter().flatten().any(|l| l.var() == Var(0)));
        // Renaming back reads the clauses as written.
        let back = both.rename(&[Var(5)], &[Var(0)]);
        assert_eq!(lits(&back), lits(&a.and(b)));
    }
}
