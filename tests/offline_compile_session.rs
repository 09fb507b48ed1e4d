//! Offline compilation as a sequence of consistency checks: each
//! non-degenerate step of an iterated Dalal, Satoh or Weber chain
//! computes its `k`, `δ` or `Ω` in one incremental SAT session, so it
//! builds exactly one solver. The compiled `T'` must stay
//! query-equivalent to the semantic oracle, and its size `|T'|` is
//! pinned: `k`, `δ` and `Ω` are the same sets however they are
//! computed, so the representation must not change. That holds for
//! the whole chain compiled at once, for a chain extended one step at
//! a time, and for one taken up again from its compiled `T'` before
//! every step.
//!
//! Dalal's offline step is pinned by its work too: the distance probes
//! its `k`-sessions ask and the conflicts they meet are deterministic,
//! so they are pinned exactly for the whole chain.
//!
//! This file holds exactly one test because it measures exact deltas
//! of process-wide counters.

use revkb::logic::{Alphabet, Formula, Var};
use revkb::obs::{self, TraceMode};
use revkb::revision::equivalence::query_equivalent_enum;
use revkb::revision::semantic::{delta, k_global};
use revkb::revision::{revise_iterated_on, ModelBasedOp, RevisedKb, RevisionChain};
use revkb::sat;

fn x(i: u32) -> Formula {
    Formula::var(Var(i))
}

#[test]
fn one_solver_per_non_degenerate_step() {
    let mode = obs::mode();
    obs::set_mode(TraceMode::Summary);
    // Eight letters, three steps, every step consistent on its own.
    let t = Formula::and_all([x(0), x(1), x(2), x(3), x(4).or(x(5)), x(6).implies(x(7))]);
    let ps = vec![
        // Distance 2 from T: x0 and x1 both flip.
        x(0).not().and(x(1).not()).and(x(6).or(x(2))),
        // δ = {{x2}, {x3}}: two minimal differences.
        x(2).not().or(x(3).not()),
        x(4).xor(x(6)).and(x(7).not().or(x(0))),
    ];
    let alpha = Alphabet::new((0..8).map(Var).collect());

    // The chain has the shape the test claims.
    assert_eq!(k_global(&alpha.models(&t), &alpha.models(&ps[0])), Some(2));
    let after_one = revise_iterated_on(ModelBasedOp::Satoh, &alpha, &t, &ps[..1]);
    assert_eq!(delta(after_one.masks(), &alpha.models(&ps[1])).len(), 2);

    // Sizes recorded before the offline half became incremental.
    for (op, pinned_size) in [
        (ModelBasedOp::Dalal, 1190),
        (ModelBasedOp::Satoh, 68),
        (ModelBasedOp::Weber, 20),
    ] {
        let oracle = revise_iterated_on(op, &alpha, &t, &ps);
        assert!(!oracle.is_empty());

        let before = sat::constructions();
        obs::reset();
        let whole = RevisedKb::compile_iterated(op, &t, &ps).expect("compiles");
        let solvers = sat::constructions() - before;
        let work = obs::drain();
        let count = |name| work.counter(name).unwrap_or(0);
        let k_work = (
            count("revision.k_session.probes"),
            count("revision.k_session.conflicts"),
        );
        let pinned_k_work = if op == ModelBasedOp::Dalal {
            (6, 1)
        } else {
            (0, 0)
        };
        assert_eq!(
            k_work,
            pinned_k_work,
            "{}: (probes, conflicts) of the k-sessions",
            op.name()
        );
        assert_eq!(
            solvers,
            ps.len() as u64,
            "{}: one solver per non-degenerate step",
            op.name()
        );

        // The same chain extended step by step, and taken up again
        // from its compiled formula before each step (as a cached
        // artifact is).
        let mut stepwise = RevisionChain::new(op, t.clone(), alpha.vars().to_vec());
        let mut resumed = stepwise.clone();
        for p in &ps {
            let before = sat::constructions();
            stepwise.extend(p).expect("extends");
            resumed = RevisionChain::new(op, resumed.formula().clone(), alpha.vars().to_vec());
            resumed.extend(p).expect("extends");
            assert_eq!(
                sat::constructions() - before,
                2,
                "{}: one solver per step and chain",
                op.name()
            );
        }

        for (how, kb) in [
            ("whole", whole),
            ("stepwise", stepwise.into_compiled()),
            ("resumed", resumed.into_compiled()),
        ] {
            let rep = kb.representation();
            assert_eq!(rep.base, alpha.vars());
            assert!(
                query_equivalent_enum(&rep.formula, &oracle.to_dnf(), &rep.base),
                "{} ({how}): compiled T' is not query-equivalent to the oracle",
                op.name()
            );
            assert_eq!(
                kb.size(),
                pinned_size,
                "{} ({how}): |T'| changed",
                op.name()
            );
        }
    }
    obs::set_mode(mode);
}
