//! Property tests (proptest) of the full compile-then-query pipeline:
//! for random revision scenarios, every operator's compiled
//! representation must be (query- or logically-) equivalent to the
//! semantic oracle, for single and iterated revision (E9–E13 in
//! DESIGN.md).

use proptest::prelude::*;
use revkb::logic::{Alphabet, Formula, Var};
use revkb::revision::{
    compact, query_equivalent_enum, revise_iterated_on, revise_on, ModelBasedOp, ModelSet,
    RevisionChain,
};

/// Strategy: a random formula over `vars` letters with bounded depth.
fn formula_strategy(num_vars: u32, depth: u32) -> BoxedStrategy<Formula> {
    let leaf = (0..num_vars, any::<bool>())
        .prop_map(|(v, pos)| Formula::lit(Var(v), pos))
        .boxed();
    leaf.prop_recursive(depth, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.xor(b)),
            inner.prop_map(|a| a.not()),
        ]
        .boxed()
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// Single revision, all six operators: compiled representation ≍
    /// semantic oracle.
    #[test]
    fn compiled_matches_oracle_single(
        t in formula_strategy(5, 3),
        p in formula_strategy(2, 2),
    ) {
        prop_assume!(revkb::sat::satisfiable(&t));
        prop_assume!(revkb::sat::satisfiable(&p));
        for op in ModelBasedOp::ALL {
            let rep = &compact(op, &t, &p).unwrap();
            let alpha = Alphabet::new(rep.base.clone());
            let oracle = revise_on(op, &alpha, &t, &p);
            if rep.logical {
                // Logically equivalent: same model set over the base.
                let got = ModelSet::of_formula(alpha, &rep.formula);
                prop_assert_eq!(&got, &oracle, "{} logical mismatch", op.name());
            }
            prop_assert!(
                query_equivalent_enum(&rep.formula, &oracle.to_dnf(), &rep.base),
                "{} query mismatch for {:?} * {:?}", op.name(), t, p
            );
        }
    }

    /// Iterated revision (two bounded steps), all six operators.
    #[test]
    fn compiled_matches_oracle_iterated(
        t in formula_strategy(4, 3),
        p1 in formula_strategy(2, 2),
        p2 in formula_strategy(2, 2),
    ) {
        prop_assume!(revkb::sat::satisfiable(&t));
        prop_assume!(revkb::sat::satisfiable(&p1));
        prop_assume!(revkb::sat::satisfiable(&p2));
        let ps = vec![p1, p2];
        for op in ModelBasedOp::ALL {
            let kb = RevisionChain::compile(op, &t, &ps).unwrap();
            let rep = kb.representation();
            let alpha = Alphabet::new(rep.base.clone());
            let oracle = revise_iterated_on(op, &alpha, &t, &ps);
            prop_assert!(
                query_equivalent_enum(&rep.formula, &oracle.to_dnf(), &rep.base),
                "iterated {} mismatch for {:?} * {:?}", op.name(), t, ps
            );
        }
    }

    /// The success postulate `T * P ⊨ P` holds through the pipeline.
    #[test]
    fn success_postulate(
        t in formula_strategy(5, 3),
        p in formula_strategy(2, 2),
    ) {
        prop_assume!(revkb::sat::satisfiable(&t));
        prop_assume!(revkb::sat::satisfiable(&p));
        for op in ModelBasedOp::ALL {
            let kb = compact(op, &t, &p).unwrap();
            prop_assert!(kb.entails(&p), "{} violates success", op.name());
        }
    }

    /// When `T ∧ P` is consistent, the revision-style operators
    /// (Borgida, Satoh, Dalal, Weber) coincide with the conjunction.
    #[test]
    fn consistent_revision_is_conjunction(
        t in formula_strategy(4, 3),
        p in formula_strategy(2, 2),
    ) {
        let conj = t.clone().and(p.clone());
        prop_assume!(revkb::sat::satisfiable(&conj));
        for op in [
            ModelBasedOp::Borgida,
            ModelBasedOp::Satoh,
            ModelBasedOp::Dalal,
            ModelBasedOp::Weber,
        ] {
            let rep = &compact(op, &t, &p).unwrap();
            prop_assert!(
                query_equivalent_enum(&rep.formula, &conj, &rep.base),
                "{} should equal T ∧ P when consistent", op.name()
            );
        }
    }
}
