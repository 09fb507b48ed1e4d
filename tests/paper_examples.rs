//! End-to-end checks of every worked example in the paper (E16 in
//! DESIGN.md), driven through the public API of the root crate.

use revkb::instances::{
    office_example, running_example, section4_example, section5_example, section6_example,
    syntax_example,
};
use revkb::logic::{Formula, Interpretation};
use revkb::revision::{
    compact, gfuv_entails, gfuv_explicit, query_equivalent_enum, revise, revise_iterated_on,
    ModelBasedOp, RevisionChain,
};

/// §1 office example: revision concludes Bill; update stays agnostic.
#[test]
fn office_example_revision_vs_update() {
    let s = office_example();
    let bill = Formula::var(s.sig.lookup("bill").unwrap());
    for op in [
        ModelBasedOp::Dalal,
        ModelBasedOp::Satoh,
        ModelBasedOp::Weber,
        ModelBasedOp::Borgida,
    ] {
        let kb = compact(op, &s.t, &s.p).unwrap();
        assert!(kb.entails(&bill), "{} should conclude bill", op.name());
    }
    for op in [ModelBasedOp::Winslett, ModelBasedOp::Forbus] {
        let kb = compact(op, &s.t, &s.p).unwrap();
        assert!(!kb.entails(&bill), "{} should stay agnostic", op.name());
        assert!(kb.entails(&s.p), "success postulate");
    }
}

/// §2.2.1: `T₁ = {a,b}` and `T₂ = {a, a→b}` are logically equivalent
/// but revise differently under GFUV (and WIDTIO).
#[test]
fn syntax_sensitivity() {
    let (sig, t1, t2, p) = syntax_example();
    let a = Formula::var(sig.lookup("a").unwrap());
    assert!(revkb::sat::equivalent(&t1.conjunction(), &t2.conjunction()));
    assert!(gfuv_entails(&t1, &p, &a));
    assert!(!gfuv_entails(&t2, &p, &a));
    let e1 = gfuv_explicit(&t1, &p, 100).unwrap();
    let e2 = gfuv_explicit(&t2, &p, 100).unwrap();
    assert!(!revkb::sat::equivalent(&e1, &e2));
}

/// §2.2.2 running example: the exact per-operator model sets from the
/// paper's tables of symmetric differences.
#[test]
fn running_example_model_sets() {
    let s = running_example();
    let name = |n: &str| s.sig.lookup(n).unwrap();
    let interp = |names: &[&str]| -> Interpretation { names.iter().map(|n| name(n)).collect() };
    let n1 = interp(&["a", "b"]);
    let n2 = interp(&["c"]);
    let n3 = interp(&["b", "d"]);
    let n4 = interp(&[]);

    let expectations: Vec<(ModelBasedOp, Vec<&Interpretation>)> = vec![
        (ModelBasedOp::Winslett, vec![&n1, &n2, &n3]),
        (ModelBasedOp::Borgida, vec![&n1, &n2, &n3]),
        (ModelBasedOp::Forbus, vec![&n1, &n3]),
        (ModelBasedOp::Satoh, vec![&n1, &n2]),
        (ModelBasedOp::Dalal, vec![&n1]),
        (ModelBasedOp::Weber, vec![&n1, &n2, &n3, &n4]),
    ];
    for (op, expected) in expectations {
        let got = revise(op, &s.t, &s.p);
        assert_eq!(got.len(), expected.len(), "{} count", op.name());
        for m in expected {
            assert!(got.contains(m), "{} misses {m:?}", op.name());
        }
    }
}

/// §4 example: `T = a∧b∧c∧d∧e`, `P = ¬a ∨ ¬b` — Forbus/Satoh/Dalal
/// give two models, Weber three.
#[test]
fn section4_example_counts() {
    let s = section4_example();
    assert_eq!(revise(ModelBasedOp::Forbus, &s.t, &s.p).len(), 2);
    assert_eq!(revise(ModelBasedOp::Satoh, &s.t, &s.p).len(), 2);
    assert_eq!(revise(ModelBasedOp::Dalal, &s.t, &s.p).len(), 2);
    assert_eq!(revise(ModelBasedOp::Weber, &s.t, &s.p).len(), 3);
    // Dalal and Satoh coincide here, as the paper notes.
    assert_eq!(
        revise(ModelBasedOp::Dalal, &s.t, &s.p),
        revise(ModelBasedOp::Satoh, &s.t, &s.p)
    );
}

/// §5 example: iterated Weber over `P¹ = ¬x₁∨¬x₂`, `P² = ¬x₅` has
/// exactly the three models the paper lists, and the compiled formula
/// (10) is query-equivalent to them.
#[test]
fn section5_iterated_weber() {
    let (sig, t, ps) = section5_example();
    let kb = RevisionChain::compile(ModelBasedOp::Weber, &t, &ps).unwrap();
    let alpha = revkb::revision::revision_alphabet_seq(&t, &ps);
    let oracle = revise_iterated_on(ModelBasedOp::Weber, &alpha, &t, &ps);
    assert_eq!(oracle.len(), 3);
    let name = |n: &str| sig.lookup(n).unwrap();
    for names in [
        vec!["x1", "x3", "x4"],
        vec!["x2", "x3", "x4"],
        vec!["x3", "x4"],
    ] {
        let m: Interpretation = names.iter().map(|n| name(n)).collect();
        assert!(oracle.contains(&m), "missing {names:?}");
    }
    assert!(query_equivalent_enum(
        &kb.representation().formula,
        &oracle.to_dnf(),
        &kb.representation().base
    ));
}

/// §6 example: `T = x₁∧…∧x₅ *Win ¬x₁` has the single model
/// `{x₂,x₃,x₄,x₅}`, reproduced by the formula (12)/(16) pipeline.
#[test]
fn section6_winslett_single_model() {
    let s = section6_example();
    let kb = RevisionChain::compile(ModelBasedOp::Winslett, &s.t, std::slice::from_ref(&s.p))
        .unwrap()
        .into_representation();
    let x = |n: &str| Formula::var(s.sig.lookup(n).unwrap());
    assert!(kb.entails(&x("x2").and(x("x3")).and(x("x4")).and(x("x5"))));
    assert!(kb.entails(&x("x1").not()));
}
