//! Query answering for the formula-based operators (GFUV, Nebel,
//! WIDTIO).
//!
//! GFUV has no compact representation to compile into (Theorem 3.1) —
//! the honest engine therefore materialises `W(T,P)` once (with an
//! explicit budget, since it can be exponential) and answers
//! entailment by iterating over the worlds: the paper's
//! "delay and pay at query time" trade-off made explicit. WIDTIO, by
//! contrast, compiles to a sub-theory (always compact).

use crate::formula_based::{possible_worlds, widtio, Theory};
use revkb_logic::Formula;

/// Error: the possible-worlds budget was exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldBudgetExceeded {
    /// The budget that was exceeded.
    pub budget: usize,
}

impl std::fmt::Display for WorldBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "more than {} possible worlds (Theorem 3.1: GFUV has no compact \
             representation; raise the budget or switch operator)",
            self.budget
        )
    }
}

impl std::error::Error for WorldBudgetExceeded {}

/// A GFUV-revised knowledge base with the possible worlds
/// materialised.
#[derive(Debug, Clone)]
pub struct GfuvKb {
    theory: Theory,
    p: Formula,
    /// Worlds as index sets into `theory.formulas`.
    worlds: Vec<Vec<usize>>,
}

impl GfuvKb {
    /// Materialise `W(T,P)` up to `budget` worlds.
    pub fn compile(theory: Theory, p: Formula, budget: usize) -> Result<Self, WorldBudgetExceeded> {
        let worlds = possible_worlds(&theory, &p, budget).ok_or(WorldBudgetExceeded { budget })?;
        Ok(Self { theory, p, worlds })
    }

    /// Number of possible worlds.
    pub fn world_count(&self) -> usize {
        self.worlds.len()
    }

    /// The world `T'` as the conjunction `⋀T' ∧ P`.
    fn world_formula(&self, world: &[usize]) -> Formula {
        Formula::and_all(
            world
                .iter()
                .map(|&i| self.theory.formulas[i].clone())
                .chain([self.p.clone()]),
        )
    }

    /// `T *GFUV P ⊨ Q`: consequence in every world.
    pub fn entails(&self, q: &Formula) -> bool {
        self.worlds
            .iter()
            .all(|w| revkb_sat::entails(&self.world_formula(w), q))
    }

    /// The explicit representation `(⋁ ⋀T') ∧ P` and its size — what
    /// Theorem 3.1 says cannot stay polynomial.
    pub fn explicit_representation(&self) -> Formula {
        Formula::or_all(self.worlds.iter().map(|w| self.world_formula(w)))
    }

    /// `|⋁W|`, the size of [`GfuvKb::explicit_representation`], summed
    /// world by world without building the disjunction.
    pub fn explicit_size(&self) -> usize {
        self.worlds
            .iter()
            .map(|w| self.world_formula(w).size())
            .sum()
    }

    /// `P ∧ ⋁ ⋀T'`: equivalent to [`GfuvKb::explicit_representation`],
    /// with `P` stated once instead of once per world — the form a
    /// solver loads.
    pub fn shared_p_representation(&self) -> Formula {
        let worlds = self
            .worlds
            .iter()
            .map(|w| Formula::and_all(w.iter().map(|&i| self.theory.formulas[i].clone())));
        Formula::and_all([self.p.clone(), Formula::or_all(worlds)])
    }

    /// The inputs.
    pub fn inputs(&self) -> (&Theory, &Formula) {
        (&self.theory, &self.p)
    }
}

/// A WIDTIO-revised knowledge base: compiled once, always compact.
#[derive(Debug, Clone)]
pub struct WidtioKb {
    kept: Theory,
}

impl WidtioKb {
    /// Compile `T *wid P` (the intersection of all possible worlds,
    /// plus `P`).
    pub fn compile(theory: &Theory, p: &Formula) -> Self {
        Self {
            kept: widtio(theory, p),
        }
    }

    /// The compiled sub-theory.
    pub fn theory(&self) -> &Theory {
        &self.kept
    }

    /// `T *wid P ⊨ Q`.
    pub fn entails(&self, q: &Formula) -> bool {
        revkb_sat::entails(&self.kept.conjunction(), q)
    }

    /// Size of the compiled base — always `≤ |T| + |P|`.
    pub fn size(&self) -> usize {
        self.kept.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula_based::gfuv_entails;
    use revkb_logic::Var;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn gfuv_kb_matches_direct_entailment() {
        let t = Theory::new([v(0), v(0).implies(v(1)), v(2)]);
        let p = v(1).not();
        let kb = GfuvKb::compile(t.clone(), p.clone(), 100).unwrap();
        for q in [v(0), v(1), v(2), v(0).or(v(1)), v(2).and(v(1).not())] {
            assert_eq!(kb.entails(&q), gfuv_entails(&t, &p, &q), "query {q:?}");
        }
    }

    #[test]
    fn gfuv_budget_exceeded_reports() {
        let ex = crate::formula_based::Theory::new((0..8u32).map(v));
        let p = Formula::and_all((0..4u32).map(|i| v(i).xor(v(4 + i))));
        let err = GfuvKb::compile(ex, p, 4).unwrap_err();
        assert_eq!(err.budget, 4);
        assert!(err.to_string().contains("Theorem 3.1"));
    }

    #[test]
    fn widtio_kb_compact_and_correct() {
        let t = Theory::new([v(0), v(0).implies(v(1))]);
        let p = v(1).not();
        let kb = WidtioKb::compile(&t, &p);
        assert!(kb.size() <= t.size() + p.size());
        // WIDTIO drops both conflicting formulas: only ¬x1 remains.
        assert!(kb.entails(&v(1).not()));
        assert!(!kb.entails(&v(0)));
    }

    #[test]
    fn shared_p_representation_is_equivalent() {
        let t = Theory::new([v(0), v(0).implies(v(1)), v(2), v(1).or(v(3))]);
        for p in [v(1).not(), v(0).not().or(v(2).not()), v(4).and(v(4).not())] {
            let kb = GfuvKb::compile(t.clone(), p.clone(), 100).unwrap();
            let explicit = kb.explicit_representation();
            let shared = kb.shared_p_representation();
            assert!(revkb_sat::entails(&explicit, &shared), "{p:?}");
            assert!(revkb_sat::entails(&shared, &explicit), "{p:?}");
            assert_eq!(kb.explicit_size(), explicit.size(), "{p:?}");
        }
    }

    #[test]
    fn explicit_representation_counts() {
        let t = Theory::new([v(0), v(1)]);
        let p = v(0).not().or(v(1).not());
        let kb = GfuvKb::compile(t, p, 100).unwrap();
        assert_eq!(kb.world_count(), 2);
        let explicit = kb.explicit_representation();
        assert!(revkb_sat::satisfiable(&explicit));
        assert_eq!(kb.explicit_size(), explicit.size());
    }
}
