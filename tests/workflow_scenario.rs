//! A long end-to-end scenario exercising the whole public surface in
//! one narrative: a monitoring agent maintains a knowledge base about
//! a small cluster through observations, queries, counterfactuals,
//! contraction and approximate compilation.
//!
//! Note the classic belief-revision subtlety the scenario leans on:
//! integrity constraints stored in `T` are themselves revisable
//! beliefs — a minimal-change revision happily drops them. Robust
//! observations therefore *conjoin the constraints into `P`* (the
//! standard "update under integrity constraints" pattern), and the
//! first test below demonstrates both behaviours.

use revkb::logic::{parse, Formula, Signature};
use revkb::revision::{
    contract, counterfactual::holds_compiled, horn_lub, is_horn_definable, revise, Backend,
    Counterfactual, Engine, GfuvKb, ModelBasedOp, RevisionChain, Theory, WidtioKb,
};

struct Cluster {
    sig: Signature,
    base: Formula,
    ic: Formula,
}

fn cluster() -> Cluster {
    let mut sig = Signature::new();
    // Three nodes; node 1 is primary; invariants: some node holds the
    // primary role and primaries must be up.
    let ic = parse(
        "(prim1 | prim2 | prim3) & (prim1 -> up1) & (prim2 -> up2) & (prim3 -> up3)",
        &mut sig,
    )
    .expect("parse invariants");
    let base = parse("up1 & up2 & up3 & prim1 & !prim2 & !prim3", &mut sig)
        .expect("parse facts")
        .and(ic.clone());
    Cluster { sig, base, ic }
}

#[test]
fn naive_observation_drops_the_invariants() {
    // Revising with the bare fact ¬up1 minimally flips one bit — and
    // keeps node 1 as primary, violating the (revised-away) invariant.
    let mut c = cluster();
    let bare = parse("!up1", &mut c.sig).unwrap();
    let revised = revise(ModelBasedOp::Dalal, &c.base, &bare);
    let prim1 = parse("prim1", &mut c.sig).unwrap();
    assert!(revised.entails(&prim1), "minimal change keeps prim1");
    // Conjoining the invariants into P restores the intended reading.
    let guarded = bare.and(c.ic.clone());
    let revised = revise(ModelBasedOp::Dalal, &c.base, &guarded);
    assert!(revised.entails(&prim1.not()), "primary must move");
}

#[test]
fn monitoring_agent_full_workflow() {
    let mut c = cluster();
    let mut kb = RevisionChain::delayed(ModelBasedOp::Dalal, c.base.clone());

    // Observation 1: node 1 went down (invariants conjoined).
    let node1_down = parse("!up1", &mut c.sig).unwrap().and(c.ic.clone());
    kb.revise(node1_down.clone(), Backend::Direct);
    let prim1 = parse("prim1", &mut c.sig).unwrap();
    assert!(kb.try_entails(&prim1.clone().not()).unwrap());
    let some_primary = parse("prim1 | prim2 | prim3", &mut c.sig).unwrap();
    assert!(kb.try_entails(&some_primary).unwrap());

    // Observation 2: node 2 is NOT the new primary.
    let not_prim2 = parse("!prim2", &mut c.sig).unwrap().and(c.ic.clone());
    kb.revise(not_prim2, Backend::Direct);
    let prim3 = parse("prim3", &mut c.sig).unwrap();
    assert!(
        kb.try_entails(&prim3).unwrap(),
        "primary must be node 3 now"
    );

    // Counterfactual against the *original* base, via the compiled
    // iterated pipeline: "if node 1 went down and then node 3 too,
    // would node 2 be primary?"
    let node3_down = parse("!up3", &mut c.sig).unwrap().and(c.ic.clone());
    let prim2 = parse("prim2", &mut c.sig).unwrap();
    let cf = Counterfactual::chain([node1_down.clone(), node3_down], prim2.clone());
    assert!(holds_compiled(ModelBasedOp::Dalal, &c.base, &cf).unwrap());

    // Contraction: retract the belief that node 1 is the primary; the
    // factual node states survive (inclusion only weakens).
    let contracted = contract(ModelBasedOp::Dalal, &c.base, &prim1);
    assert!(!contracted.entails(&prim1));
    let all_up = parse("up1 & up2 & up3", &mut c.sig).unwrap();
    assert!(contracted.entails(&all_up));

    // Formula-based view of the first observation: possible worlds and
    // WIDTIO on the base as a *set* of formulas.
    let bare_down = parse("!up1", &mut c.sig).unwrap();
    let theory = Theory::new([
        parse("up1 & up2 & up3", &mut c.sig).unwrap(),
        parse("prim1", &mut c.sig).unwrap(),
        parse("prim1 -> up1", &mut c.sig).unwrap(),
    ]);
    let gfuv = GfuvKb::compile(theory.clone(), bare_down.clone(), 64).unwrap();
    assert!(gfuv.world_count() >= 2, "conflict splits the theory");
    let widtio = WidtioKb::compile(&theory, &bare_down);
    assert!(widtio.entails(&bare_down));

    // Approximate compilation: the revised base, Horn-approximated,
    // stays sound on a Horn query.
    let revised = revise(ModelBasedOp::Dalal, &c.base, &node1_down);
    let lub = horn_lub(&revised);
    let up2 = parse("up2", &mut c.sig).unwrap();
    if lub.entails(&up2) {
        assert!(revised.entails(&up2), "Horn LUB must stay sound");
    }
    let _ = is_horn_definable(&revised);
}

#[test]
fn revision_and_update_agree_on_guarded_failover() {
    // With the invariants carried in P, both revision (Dalal) and
    // update (Winslett) fail over cleanly — and both leave the choice
    // of new primary open.
    let mut c = cluster();
    let node1_down = parse("!up1", &mut c.sig).unwrap().and(c.ic.clone());
    let up2 = parse("up2", &mut c.sig).unwrap();
    let prim2 = parse("prim2", &mut c.sig).unwrap();
    let prim3 = parse("prim3", &mut c.sig).unwrap();
    for op in [ModelBasedOp::Dalal, ModelBasedOp::Winslett] {
        let result = revise(op, &c.base, &node1_down);
        assert!(result.entails(&up2), "{} loses up2", op.name());
        assert!(!result.entails(&prim2), "{} invents prim2", op.name());
        assert!(!result.entails(&prim3), "{} invents prim3", op.name());
        assert!(
            result.entails(&prim2.clone().or(prim3.clone())),
            "{} loses the failover disjunction",
            op.name()
        );
    }
}
