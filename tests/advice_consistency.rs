//! The advisor's promises are kept: whenever `advise` says
//! *compactable* for a profile, the engine actually compiles
//! conforming inputs — and the result matches the semantic oracle.

use proptest::prelude::*;
use revkb::logic::{Alphabet, Formula, Var};
use revkb::revision::{
    advise, compact, query_equivalent_enum, revise_iterated_on, revise_on, Advice, ModelBasedOp,
    OperatorKind, Profile, RevisionChain,
};

fn formula_strategy(num_vars: u32, depth: u32) -> BoxedStrategy<Formula> {
    let leaf = (0..num_vars, any::<bool>())
        .prop_map(|(v, pos)| Formula::lit(Var(v), pos))
        .boxed();
    leaf.prop_recursive(depth, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.xor(b)),
        ]
        .boxed()
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Bounded single revision: advised compactable for all operators;
    /// the engine compiles and matches the oracle.
    #[test]
    fn bounded_single_promise(
        t in formula_strategy(5, 3),
        p in formula_strategy(2, 2),
    ) {
        prop_assume!(revkb::sat::satisfiable(&t));
        prop_assume!(revkb::sat::satisfiable(&p));
        let profile = Profile { bounded_p: true, allow_new_letters: false, iterated: false };
        for op in ModelBasedOp::ALL {
            let advice = advise(OperatorKind::ModelBased(op), profile);
            prop_assert!(advice.is_compactable(), "{} should be compactable", op.name());
            let rep = &compact(op, &t, &p).expect("promised compilable");
            let alpha = Alphabet::new(rep.base.clone());
            let oracle = revise_on(op, &alpha, &t, &p);
            prop_assert!(query_equivalent_enum(&rep.formula, &oracle.to_dnf(), &rep.base));
        }
    }

    /// Unbounded + new letters: only Dalal/Weber are promised; the
    /// engine honours exactly that set for wide updates.
    #[test]
    fn unbounded_promise(seed in 0u64..1000) {
        let _ = seed;
        let profile = Profile { bounded_p: false, allow_new_letters: true, iterated: false };
        let wide_p = Formula::or_all((0..20u32).map(|i| Formula::var(Var(i))));
        let t = Formula::var(Var(0)).and(Formula::var(Var(1)));
        for op in ModelBasedOp::ALL {
            let advice = advise(OperatorKind::ModelBased(op), profile);
            let compiles = compact(op, &t, &wide_p).is_ok();
            prop_assert_eq!(
                advice.is_compactable(),
                compiles,
                "advice and engine disagree for {}", op.name()
            );
        }
    }

    /// Iterated bounded with new letters: every operator promised and
    /// delivered.
    #[test]
    fn iterated_bounded_promise(
        t in formula_strategy(4, 3),
        p1 in formula_strategy(2, 2),
        p2 in formula_strategy(2, 2),
    ) {
        prop_assume!(revkb::sat::satisfiable(&t));
        prop_assume!(revkb::sat::satisfiable(&p1));
        prop_assume!(revkb::sat::satisfiable(&p2));
        let profile = Profile { bounded_p: true, allow_new_letters: true, iterated: true };
        let ps = vec![p1, p2];
        for op in ModelBasedOp::ALL {
            prop_assert!(advise(OperatorKind::ModelBased(op), profile).is_compactable());
            let kb = RevisionChain::compile(op, &t, &ps).expect("promised compilable");
            let rep = kb.representation();
            let alpha = Alphabet::new(rep.base.clone());
            let oracle = revise_iterated_on(op, &alpha, &t, &ps);
            prop_assert!(query_equivalent_enum(&rep.formula, &oracle.to_dnf(), &rep.base));
        }
    }
}

/// NO cells carry the right collapse consequence.
#[test]
fn collapse_consequences_match_theorems() {
    // Logical-equivalence NOs cite NP ⊆ P/poly (Thm 2.3 route);
    // query-equivalence NOs cite NP ⊆ coNP/poly (Thm 2.2 route).
    let logical_no = advise(
        OperatorKind::ModelBased(ModelBasedOp::Dalal),
        Profile {
            bounded_p: false,
            allow_new_letters: false,
            iterated: false,
        },
    );
    match logical_no {
        Advice::NotCompactable { consequence, .. } => {
            assert!(consequence.contains("P/poly"));
            assert!(!consequence.contains("coNP"));
        }
        _ => panic!("expected NO"),
    }
    let query_no = advise(
        OperatorKind::ModelBased(ModelBasedOp::Forbus),
        Profile {
            bounded_p: false,
            allow_new_letters: true,
            iterated: false,
        },
    );
    match query_no {
        Advice::NotCompactable { consequence, .. } => {
            assert!(consequence.contains("coNP/poly"));
        }
        _ => panic!("expected NO"),
    }
}
