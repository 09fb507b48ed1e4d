//! Failure-injection coverage: every advertised error path across the
//! workspace fires correctly and leaves the system usable.

use revkb::logic::{parse, parse_dimacs, Formula, Signature, Var};
use revkb::revision::{
    compact, model_check, CompileError, GfuvKb, ModelBasedOp, ModelCheckError, RevisionChain,
    Theory,
};

#[test]
fn parse_errors_carry_positions() {
    let mut sig = Signature::new();
    let err = parse("a & (b |", &mut sig).unwrap_err();
    assert!(err.position > 0);
    assert!(!err.message.is_empty());
    // The signature is still usable after a failed parse.
    assert!(parse("a & b", &mut sig).is_ok());
}

#[test]
fn dimacs_errors_carry_line_numbers() {
    let err = parse_dimacs("p cnf 2 1\n1 oops 0\n").unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.to_string().contains("line 2"));
}

#[test]
fn compile_refuses_unbounded_pointwise() {
    let t = Formula::var(Var(0));
    let wide = Formula::or_all((0..30).map(|i| Formula::var(Var(i))));
    for op in [
        ModelBasedOp::Winslett,
        ModelBasedOp::Borgida,
        ModelBasedOp::Forbus,
        ModelBasedOp::Satoh,
    ] {
        let err = compact(op, &t, &wide).unwrap_err();
        match err {
            CompileError::UpdateAlphabetTooLarge { op: eop, got, .. } => {
                assert_eq!(eop, op);
                assert_eq!(got, 30);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The error message names the operator and the width.
        let msg = compact(op, &t, &wide).unwrap_err().to_string();
        assert!(msg.contains(op.name()));
        assert!(msg.contains("30"));
    }
}

#[test]
fn compile_iterated_refuses_wide_steps() {
    let t = Formula::var(Var(0));
    let ps = vec![
        Formula::var(Var(1)).not(),
        Formula::or_all((0..30).map(|i| Formula::var(Var(i)))),
    ];
    assert!(RevisionChain::compile(ModelBasedOp::Forbus, &t, &ps).is_err());
    // Dalal's iterated construction handles any width.
    assert!(RevisionChain::compile(ModelBasedOp::Dalal, &t, &ps).is_ok());
}

#[test]
fn gfuv_budget_error_is_recoverable() {
    // Nebel's family with m = 6: 64 worlds.
    let ex = revkb::instances::NebelExample::new(6);
    let err = GfuvKb::compile(ex.t.clone(), ex.p.clone(), 10).unwrap_err();
    assert_eq!(err.budget, 10);
    // Raising the budget succeeds on the same inputs.
    let kb = GfuvKb::compile(ex.t, ex.p, 100).unwrap();
    assert_eq!(kb.world_count(), 64);
}

#[test]
fn model_check_errors_for_wide_pointwise() {
    let t = Formula::var(Var(0));
    let wide = Formula::or_all((0..30).map(|i| Formula::var(Var(i))));
    let m: revkb::logic::Interpretation = [Var(0)].into_iter().collect();
    match model_check(ModelBasedOp::Winslett, &m, &t, &wide) {
        Err(ModelCheckError::UpdateAlphabetTooLarge { got, max }) => {
            assert_eq!(got, 30);
            assert!(max < 30);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn solver_survives_contradiction_then_rejects_everything() {
    use revkb::logic::Lit;
    let mut s = revkb::sat::Solver::new();
    s.add_clause(&[Lit::pos(Var(0))]);
    assert!(!s.add_clause(&[Lit::neg(Var(0))]));
    // Once contradictory, all further operations stay consistent.
    assert!(!s.add_clause(&[Lit::pos(Var(1))]));
    assert!(!s.solve());
    assert!(!s.solve_with_assumptions(&[Lit::pos(Var(2))]));
}

#[test]
fn empty_theory_and_constants() {
    // Revising an empty (⊤) theory: everything collapses to P.
    let t = Formula::True;
    let p = Formula::var(Var(0)).not();
    for op in ModelBasedOp::ALL {
        let result = revkb::revision::revise(op, &t, &p);
        assert!(result.entails(&p));
        assert!(!result.is_empty());
    }
    // GFUV with the empty set of formulas.
    let empty = Theory::new([]);
    assert!(revkb::revision::gfuv_entails(&empty, &p, &p));
    assert!(!revkb::revision::gfuv_entails(
        &empty,
        &p,
        &Formula::var(Var(1))
    ));
}

#[test]
fn widtio_with_unsat_p_keeps_only_p() {
    let t = Theory::new([Formula::var(Var(0))]);
    let unsat = Formula::var(Var(1)).and(Formula::var(Var(1)).not());
    let kept = revkb::revision::widtio(&t, &unsat);
    // No worlds exist; convention keeps nothing but P itself.
    assert_eq!(kept.len(), 1);
    assert!(!revkb::sat::satisfiable(&kept.conjunction()));
}

#[test]
fn query_outside_base_is_caught_in_debug() {
    // CompactRep::entails debug-asserts the query alphabet; in release
    // it still answers soundly for in-base queries.
    let t = Formula::var(Var(0)).and(Formula::var(Var(1)));
    let p = Formula::var(Var(0)).not();
    let kb = compact(ModelBasedOp::Dalal, &t, &p).unwrap();
    assert!(kb.entails(&Formula::var(Var(1))));
}
