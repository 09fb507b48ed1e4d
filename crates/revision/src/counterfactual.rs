//! Counterfactual queries over revision operators — the §2.2.4
//! connection to Eiter–Gottlob's *nested counterfactuals* \[9\].
//!
//! A counterfactual `P > Q` ("if `P` were the case, `Q` would hold")
//! is evaluated through revision: `T ⊨ P > Q` iff `T * P ⊨ Q`.
//! Right-nesting composes revisions — `P¹ > (P² > Q)` holds iff
//! `T * P¹ * P² ⊨ Q` — which is exactly the iterated revision whose
//! compactability Sections 5–6 analyse. Two evaluation paths are
//! provided and cross-checked:
//!
//! - [`holds`]: the semantic path (enumeration oracle per step);
//! - [`holds_compiled`]: the compiled path for right-nested chains
//!   (one call into the Section 5/6 constructions).

use crate::semantic::{revise_iterated_on, ModelBasedOp};
use revkb_logic::{Alphabet, Formula};

/// A (right-nestable) counterfactual query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Counterfactual {
    /// A plain propositional consequence `Q`.
    Fact(Formula),
    /// `P > C`: "if `P` were the case, `C` would hold".
    Would(Formula, Box<Counterfactual>),
}

impl Counterfactual {
    /// A plain fact.
    pub fn fact(q: Formula) -> Self {
        Counterfactual::Fact(q)
    }

    /// `p > self`.
    pub fn would(p: Formula, inner: Counterfactual) -> Self {
        Counterfactual::Would(p, Box::new(inner))
    }

    /// Build a right-nested chain `p₁ > (p₂ > (… > q))`.
    pub fn chain<I: IntoIterator<Item = Formula>>(ps: I, q: Formula) -> Self {
        let ps: Vec<Formula> = ps.into_iter().collect();
        let mut c = Counterfactual::Fact(q);
        for p in ps.into_iter().rev() {
            c = Counterfactual::Would(p, Box::new(c));
        }
        c
    }

    /// The antecedent chain and the final consequent of a right-nested
    /// counterfactual.
    pub fn unroll(&self) -> (Vec<&Formula>, &Formula) {
        let mut ps = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                Counterfactual::Fact(q) => return (ps, q),
                Counterfactual::Would(p, inner) => {
                    ps.push(p);
                    cur = inner;
                }
            }
        }
    }

    /// Every formula mentioned in the query.
    pub fn formulas(&self) -> Vec<&Formula> {
        let (mut ps, q) = self.unroll();
        ps.push(q);
        ps
    }
}

/// Evaluate `T ⊨ C` under `op`, semantically (enumeration per nesting
/// level). Exact; exponential in the shared alphabet.
pub fn holds(op: ModelBasedOp, t: &Formula, c: &Counterfactual) -> bool {
    let mut vars = t.vars();
    for f in c.formulas() {
        f.collect_vars(&mut vars);
    }
    let alpha = Alphabet::new(vars.into_iter().collect());
    holds_on(op, &alpha, t, c)
}

fn holds_on(op: ModelBasedOp, alpha: &Alphabet, t: &Formula, c: &Counterfactual) -> bool {
    let (ps, q) = c.unroll();
    let owned: Vec<Formula> = ps.into_iter().cloned().collect();
    let revised = revise_iterated_on(op, alpha, t, &owned);
    revised.entails(q)
}

/// Evaluate a right-nested counterfactual through the compiled
/// iterated representation (Sections 5–6): polynomial-size for the
/// compactable cells of Table 2. Returns the engine's error when the
/// operator/profile combination refuses to compile.
pub fn holds_compiled(
    op: ModelBasedOp,
    t: &Formula,
    c: &Counterfactual,
) -> Result<bool, crate::engine::CompileError> {
    let (ps, q) = c.unroll();
    let owned: Vec<Formula> = ps.into_iter().cloned().collect();
    let kb = crate::engine::RevisionChain::compile(op, t, &owned)?;
    Ok(kb.representation().entails(q))
}

/// Evaluate all levels of the "might" dual as well: `P ⋄ Q` ("if `P`
/// were the case, `Q` might hold") — ¬(P > ¬Q).
pub fn might_hold(op: ModelBasedOp, t: &Formula, p: &Formula, q: &Formula) -> bool {
    !holds(
        op,
        t,
        &Counterfactual::would(p.clone(), Counterfactual::fact(q.clone().not())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_set::revision_alphabet_seq;
    use revkb_logic::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn simple_counterfactual_is_revision_entailment() {
        // Office: T = g ∨ b; "if George were out, Bill would be in"
        // holds under revision, not under update.
        let t = v(0).or(v(1));
        let c = Counterfactual::would(v(0).not(), Counterfactual::fact(v(1)));
        assert!(holds(ModelBasedOp::Dalal, &t, &c));
        assert!(!holds(ModelBasedOp::Winslett, &t, &c));
        // Might-dual: under update, Bill *might* be out.
        assert!(might_hold(
            ModelBasedOp::Winslett,
            &t,
            &v(0).not(),
            &v(1).not()
        ));
        assert!(!might_hold(
            ModelBasedOp::Dalal,
            &t,
            &v(0).not(),
            &v(1).not()
        ));
    }

    #[test]
    fn nested_counterfactual_matches_iterated_revision() {
        let t = Formula::and_all((0..3).map(v));
        let ps = vec![v(0).not().or(v(1).not()), v(2).not()];
        let q = v(0).or(v(1));
        let c = Counterfactual::chain(ps.clone(), q.clone());
        for op in ModelBasedOp::ALL {
            let alpha = revision_alphabet_seq(&t, &ps);
            let expected = revise_iterated_on(op, &alpha, &t, &ps).entails(&q);
            assert_eq!(holds(op, &t, &c), expected, "{}", op.name());
        }
    }

    #[test]
    fn compiled_path_agrees_with_semantic() {
        let t = Formula::and_all((0..4).map(v));
        let ps = vec![v(0).not(), v(1).not().or(v(2).not())];
        for q in [v(3), v(0).or(v(3)), v(1).and(v(2))] {
            let c = Counterfactual::chain(ps.clone(), q);
            for op in ModelBasedOp::ALL {
                let semantic = holds(op, &t, &c);
                let compiled = holds_compiled(op, &t, &c).expect("compiles");
                assert_eq!(semantic, compiled, "{} diverges", op.name());
            }
        }
    }

    #[test]
    fn chain_unroll_roundtrip() {
        let c = Counterfactual::chain([v(0), v(1)], v(2));
        let (ps, q) = c.unroll();
        assert_eq!(ps.len(), 2);
        assert_eq!(*q, v(2));
        assert_eq!(c.formulas().len(), 3);
    }

    #[test]
    fn zero_antecedents_is_plain_entailment() {
        let t = v(0).and(v(1));
        let c = Counterfactual::fact(v(0));
        for op in ModelBasedOp::ALL {
            assert!(holds(op, &t, &c));
        }
    }
}
