//! The propositional formula AST.
//!
//! Connectives mirror the paper's notation: `¬`, `∧`, `∨`, plus the
//! shorthands `x → y` (for `¬x ∨ y`), `x ≡ y` (for `(x∧y)∨(¬x∧¬y)`) and
//! `x ≢ y` (for `(x∨y)∧(¬x∨¬y)`). Shorthands are kept as AST nodes for
//! readability but [`Formula::size`] accounts for them expanded, exactly
//! as the paper defines `|W|` — the number of variable occurrences of
//! the (shorthand-free) formula.
//!
//! Subformulas are reference-counted ([`std::sync::Arc`]) so cloning a
//! formula — which the substitution and construction machinery does
//! constantly — is cheap and shares structure.

use crate::var::Var;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A propositional formula.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// `⊤` — validity.
    True,
    /// `⊥` — falsity.
    False,
    /// A propositional letter.
    Var(Var),
    /// Negation `¬φ`.
    Not(Arc<Formula>),
    /// Conjunction `φ₁ ∧ … ∧ φₖ` (empty conjunction is `⊤`).
    And(Vec<Formula>),
    /// Disjunction `φ₁ ∨ … ∨ φₖ` (empty disjunction is `⊥`).
    Or(Vec<Formula>),
    /// Implication `φ → ψ`, shorthand for `¬φ ∨ ψ`.
    Implies(Arc<Formula>, Arc<Formula>),
    /// Equivalence `φ ≡ ψ`, shorthand for `(φ∧ψ) ∨ (¬φ∧¬ψ)`.
    Iff(Arc<Formula>, Arc<Formula>),
    /// Non-equivalence `φ ≢ ψ`, shorthand for `(φ∨ψ) ∧ (¬φ∨¬ψ)`.
    Xor(Arc<Formula>, Arc<Formula>),
}

impl Formula {
    /// The letter `v` as a formula.
    pub fn var(v: Var) -> Formula {
        Formula::Var(v)
    }

    /// The literal `v` or `¬v`.
    pub fn lit(v: Var, positive: bool) -> Formula {
        if positive {
            Formula::Var(v)
        } else {
            Formula::Var(v).not()
        }
    }

    /// `¬self`, with double negations collapsed.
    ///
    /// Deliberately an inherent method rather than `std::ops::Not`:
    /// the whole codebase builds formulas by fluent chaining
    /// (`a.and(b).not()`), and an operator impl would force `!`
    /// syntax into those chains.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => inner.as_ref().clone(),
            other => Formula::Not(Arc::new(other)),
        }
    }

    /// `self ∧ other`, flattening nested conjunctions and folding constants.
    pub fn and(self, other: Formula) -> Formula {
        Formula::and_all([self, other])
    }

    /// `self ∨ other`, flattening nested disjunctions and folding constants.
    pub fn or(self, other: Formula) -> Formula {
        Formula::or_all([self, other])
    }

    /// `self → other`.
    pub fn implies(self, other: Formula) -> Formula {
        Formula::Implies(Arc::new(self), Arc::new(other))
    }

    /// `self ≡ other`.
    pub fn iff(self, other: Formula) -> Formula {
        Formula::Iff(Arc::new(self), Arc::new(other))
    }

    /// `self ≢ other` (exclusive or).
    pub fn xor(self, other: Formula) -> Formula {
        Formula::Xor(Arc::new(self), Arc::new(other))
    }

    /// Conjunction of all formulas in `items`; `⊤` if empty.
    ///
    /// Nested `And`s are flattened; `⊤` conjuncts are dropped and a `⊥`
    /// conjunct collapses the whole conjunction.
    pub fn and_all<I: IntoIterator<Item = Formula>>(items: I) -> Formula {
        let mut parts = Vec::new();
        for f in items {
            match f {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => parts.extend(inner),
                other => parts.push(other),
            }
        }
        match parts.len() {
            0 => Formula::True,
            1 => parts.pop().unwrap(),
            _ => Formula::And(parts),
        }
    }

    /// Disjunction of all formulas in `items`; `⊥` if empty.
    pub fn or_all<I: IntoIterator<Item = Formula>>(items: I) -> Formula {
        let mut parts = Vec::new();
        for f in items {
            match f {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => parts.extend(inner),
                other => parts.push(other),
            }
        }
        match parts.len() {
            0 => Formula::False,
            1 => parts.pop().unwrap(),
            _ => Formula::Or(parts),
        }
    }

    /// The paper's size measure `|W|`: the number of variable
    /// occurrences, with the `→`, `≡`, `≢` shorthands counted expanded
    /// (so `x ≡ y` has size 4, matching `(x∧y)∨(¬x∧¬y)`).
    ///
    /// ```
    /// use revkb_logic::{Formula, Var};
    /// let x = Formula::var(Var(0));
    /// let y = Formula::var(Var(1));
    /// assert_eq!(x.clone().and(y.clone().not()).size(), 2);
    /// assert_eq!(x.iff(y).size(), 4); // counted expanded
    /// ```
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False => 0,
            Formula::Var(_) => 1,
            Formula::Not(f) => f.size(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().map(Formula::size).sum(),
            Formula::Implies(a, b) => a.size() + b.size(),
            Formula::Iff(a, b) | Formula::Xor(a, b) => 2 * (a.size() + b.size()),
        }
    }

    /// Number of AST nodes (a secondary, structural size measure).
    pub fn node_count(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Var(_) => 1,
            Formula::Not(f) => 1 + f.node_count(),
            Formula::And(fs) | Formula::Or(fs) => {
                1 + fs.iter().map(Formula::node_count).sum::<usize>()
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) | Formula::Xor(a, b) => {
                1 + a.node_count() + b.node_count()
            }
        }
    }

    /// The set `V(φ)` of letters occurring in the formula.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// The largest letter of `V(φ)`, if it has one, found without
    /// building the set.
    pub fn max_var(&self) -> Option<Var> {
        match self {
            Formula::True | Formula::False => None,
            Formula::Var(v) => Some(*v),
            Formula::Not(f) => f.max_var(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().filter_map(Formula::max_var).max(),
            Formula::Implies(a, b) | Formula::Iff(a, b) | Formula::Xor(a, b) => {
                a.max_var().max(b.max_var())
            }
        }
    }

    /// Accumulate `V(φ)` into `out` without allocating a fresh set.
    pub fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Var(v) => {
                out.insert(*v);
            }
            Formula::Not(f) => f.collect_vars(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_vars(out);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) | Formula::Xor(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// True when the formula is the constant `⊤`.
    pub fn is_true(&self) -> bool {
        matches!(self, Formula::True)
    }

    /// True when the formula is the constant `⊥`.
    pub fn is_false(&self) -> bool {
        matches!(self, Formula::False)
    }

    /// Rewrite the shorthands `→`, `≡`, `≢` into `¬/∧/∨`, recursively.
    ///
    /// The result is what the paper's `|W|` measures; [`Formula::size`]
    /// of the result equals `size` of the original.
    pub fn expand_shorthands(&self) -> Formula {
        match self {
            Formula::True | Formula::False | Formula::Var(_) => self.clone(),
            Formula::Not(f) => f.expand_shorthands().not(),
            Formula::And(fs) => Formula::and_all(fs.iter().map(Formula::expand_shorthands)),
            Formula::Or(fs) => Formula::or_all(fs.iter().map(Formula::expand_shorthands)),
            Formula::Implies(a, b) => {
                let a = a.expand_shorthands();
                let b = b.expand_shorthands();
                a.not().or(b)
            }
            Formula::Iff(a, b) => {
                let a = a.expand_shorthands();
                let b = b.expand_shorthands();
                let both = a.clone().and(b.clone());
                let neither = a.not().and(b.not());
                both.or(neither)
            }
            Formula::Xor(a, b) => {
                let a = a.expand_shorthands();
                let b = b.expand_shorthands();
                let one = a.clone().or(b.clone());
                let not_both = a.not().or(b.not());
                one.and(not_both)
            }
        }
    }
}

/// Conjunction of equivalences forcing two equal-length letter vectors
/// to agree: `⋀ᵢ (xᵢ ≡ yᵢ)`. Panics if the slices differ in length.
pub fn vectors_equal(xs: &[Var], ys: &[Var]) -> Formula {
    assert_eq!(xs.len(), ys.len(), "vector length mismatch");
    Formula::and_all(
        xs.iter()
            .zip(ys)
            .map(|(&x, &y)| Formula::var(x).iff(Formula::var(y))),
    )
}

/// Conjunction of non-equivalences `⋀ᵢ (xᵢ ≢ yᵢ)` (Nebel's `P₁`).
pub fn vectors_differ_everywhere(xs: &[Var], ys: &[Var]) -> Formula {
    assert_eq!(xs.len(), ys.len(), "vector length mismatch");
    Formula::and_all(
        xs.iter()
            .zip(ys)
            .map(|(&x, &y)| Formula::var(x).xor(Formula::var(y))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn max_var_is_the_last_of_vars() {
        let f = v(3).implies(v(0).or(v(7).not()).and(v(5)).iff(v(2).xor(v(6))));
        assert_eq!(f.max_var(), f.vars().last().copied());
        assert_eq!(f.max_var(), Some(Var(7)));
        assert_eq!(Formula::True.max_var(), None);
    }

    #[test]
    fn constructors_fold_constants() {
        assert_eq!(Formula::True.and(v(0)), v(0));
        assert_eq!(Formula::False.and(v(0)), Formula::False);
        assert_eq!(Formula::False.or(v(0)), v(0));
        assert_eq!(Formula::True.or(v(0)), Formula::True);
        assert_eq!(Formula::True.not(), Formula::False);
    }

    #[test]
    fn double_negation_collapses() {
        assert_eq!(v(0).not().not(), v(0));
    }

    #[test]
    fn and_flattens() {
        let f = v(0).and(v(1)).and(v(2));
        match f {
            Formula::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
    }

    #[test]
    fn empty_connectives() {
        assert_eq!(Formula::and_all([]), Formula::True);
        assert_eq!(Formula::or_all([]), Formula::False);
    }

    #[test]
    fn size_counts_occurrences() {
        // x1 ∧ (x2 ∨ ¬x3) has 3 occurrences.
        let f = v(1).and(v(2).or(v(3).not()));
        assert_eq!(f.size(), 3);
        // Same letter twice counts twice.
        let g = v(1).and(v(1));
        assert_eq!(g.size(), 2);
    }

    #[test]
    fn size_of_shorthands_matches_expansion() {
        let f = v(0).iff(v(1));
        assert_eq!(f.size(), 4);
        assert_eq!(f.expand_shorthands().size(), f.size());
        let g = v(0).xor(v(1));
        assert_eq!(g.size(), 4);
        assert_eq!(g.expand_shorthands().size(), g.size());
        let h = v(0).implies(v(1));
        assert_eq!(h.size(), 2);
        assert_eq!(h.expand_shorthands().size(), h.size());
    }

    #[test]
    fn vars_deduplicates() {
        let f = v(0).and(v(1)).or(v(0).not());
        let vars = f.vars();
        assert_eq!(vars.len(), 2);
        assert!(vars.contains(&Var(0)));
        assert!(vars.contains(&Var(1)));
    }

    #[test]
    fn vector_helpers() {
        let xs = [Var(0), Var(1)];
        let ys = [Var(2), Var(3)];
        let eq = vectors_equal(&xs, &ys);
        assert_eq!(eq.size(), 8);
        let ne = vectors_differ_everywhere(&xs, &ys);
        assert_eq!(ne.size(), 8);
    }

    #[test]
    fn node_count_structural() {
        let f = v(0).and(v(1));
        assert_eq!(f.node_count(), 3);
    }
}
