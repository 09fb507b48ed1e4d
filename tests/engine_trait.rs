//! The unified `Engine` trait is a faithful façade: trait-object
//! dispatch must answer exactly like the concrete engines it wraps,
//! for every operator the paper analyses, and the unified error type
//! must keep the stable codes the server protocol re-exports verbatim.

use revkb::prelude::*;
use revkb::revision::{gfuv_entails, widtio};
use revkb::sat::entails as sat_entails;

fn v(i: u32) -> Formula {
    Formula::var(Var(i))
}

/// The shared scenario: T = a ∧ b ∧ (b → c), P = ¬b ∨ ¬c.
fn scenario() -> (Formula, Formula, Vec<Formula>) {
    let t = v(0).and(v(1)).and(v(1).implies(v(2)));
    let p = v(1).not().or(v(2).not());
    let queries = vec![
        v(0),
        v(1),
        v(2),
        v(0).or(v(1)),
        v(1).and(v(2)),
        v(1).implies(v(2)),
        v(0).xor(v(1)),
    ];
    (t, p, queries)
}

#[test]
fn boxed_engines_match_concrete_for_all_model_based_ops() {
    let (t, p, queries) = scenario();
    for op in ModelBasedOp::ALL {
        let concrete = compact(op, &t, &p).unwrap();
        let mut boxed: Box<dyn Engine + Send> = Box::new(
            ReviseBuilder::new(op)
                .compile_iterated(&t, std::slice::from_ref(&p))
                .unwrap(),
        );
        let batch = boxed.try_entails_batch(&queries).unwrap();
        for (q, &answer) in queries.iter().zip(&batch) {
            assert_eq!(answer, concrete.entails(q), "{} on {q:?}", op.name());
            assert_eq!(answer, boxed.try_entails(q).unwrap(), "{}", op.name());
        }
    }
}

#[test]
fn delayed_engine_matches_eager_compilation() {
    let (t, p, queries) = scenario();
    for op in ModelBasedOp::ALL {
        let eager = compact(op, &t, &p).unwrap();
        let mut delayed = ReviseBuilder::new(op).delayed(t.clone());
        delayed.revise(p.clone(), Backend::Direct);
        let engine: &mut dyn Engine = &mut delayed;
        assert_eq!(engine.compiled_size(), None, "not compiled before query");
        for q in &queries {
            assert_eq!(
                engine.try_entails(q).unwrap(),
                eager.entails(q),
                "{} on {q:?}",
                op.name()
            );
        }
        assert!(engine.compiled_size().is_some(), "compiled after query");
    }
}

#[test]
fn gfuv_engine_matches_direct_entailment() {
    let theory = Theory::new([v(0), v(0).implies(v(1)), v(2)]);
    let p = v(1).not();
    let mut engine: Box<dyn Engine + Send> =
        Box::new(GfuvEngine::compile(theory.clone(), p.clone(), 1024).unwrap());
    for q in [v(0), v(1), v(2), v(0).or(v(2)), v(2).and(v(1).not())] {
        assert_eq!(
            engine.try_entails(&q).unwrap(),
            gfuv_entails(&theory, &p, &q),
            "gfuv diverges on {q:?}"
        );
    }
}

#[test]
fn widtio_engine_matches_direct_entailment() {
    let theory = Theory::new([v(0), v(0).implies(v(1)), v(2)]);
    let p = v(1).not();
    let mut engine: Box<dyn Engine + Send> = Box::new(WidtioEngine::compile(&theory, &p));
    let kept = widtio(&theory, &p).conjunction();
    for q in [v(0), v(1), v(2), v(1).not(), v(2).or(v(0))] {
        assert_eq!(
            engine.try_entails(&q).unwrap(),
            sat_entails(&kept, &q),
            "widtio diverges on {q:?}"
        );
    }
}

#[test]
fn unrevised_engine_is_the_base_theory() {
    let (t, _, _) = scenario();
    let mut engine = ReviseBuilder::new(ModelBasedOp::Dalal)
        .compile_iterated(&t, &[])
        .unwrap();
    assert!(engine.try_entails(&v(2)).unwrap());
    assert!(!engine.try_entails(&v(2).not()).unwrap());
    assert_eq!(engine.describe(), "compact-rep(logical)");
}

#[test]
fn error_codes_are_stable_across_the_api() {
    // The server protocol forwards `Error::code` verbatim; these
    // strings are wire format and must never drift.
    let (t, p, _) = scenario();
    let mut engine = ReviseBuilder::new(ModelBasedOp::Dalal)
        .compile_iterated(&t, std::slice::from_ref(&p))
        .unwrap();
    assert_eq!(
        engine.try_entails(&v(40)).unwrap_err().code(),
        "out_of_alphabet"
    );

    let mut sig = Signature::new();
    let parse_err: Error = parse("a &&& b", &mut sig).unwrap_err().into();
    assert_eq!(parse_err.code(), "parse");
    let deep_err: Error = parse(&format!("{}a", "!".repeat(10_000)), &mut sig)
        .unwrap_err()
        .into();
    assert_eq!(deep_err.code(), "formula_too_deep");

    let hopeless = Profile {
        bounded_p: false,
        allow_new_letters: false,
        iterated: false,
    };
    let err = ReviseBuilder::new(ModelBasedOp::Winslett)
        .profile(hopeless)
        .compile(&t, &p)
        .unwrap_err();
    assert_eq!(err.code(), "not_compactable");

    let big = Theory::new((0..8u32).map(v));
    let p8 = Formula::and_all((0..4u32).map(|i| v(i).xor(v(4 + i))));
    let budget_err: Error = GfuvEngine::compile(big, p8, 2).unwrap_err().into();
    assert_eq!(budget_err.code(), "world_budget_exceeded");
}

#[test]
fn engines_are_send() {
    // The server registry moves engines across threads; losing the
    // Send bound would break it at a distance. Compile-time check.
    fn assert_send<T: Send>(_: &T) {}
    let (t, p, _) = scenario();
    let engine = ReviseBuilder::new(ModelBasedOp::Weber)
        .compile_iterated(&t, std::slice::from_ref(&p))
        .unwrap();
    assert_send(&engine);
}
