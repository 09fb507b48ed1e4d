//! The paper's explicit compactability constructions.
//!
//! | Construction | Paper | Criterion | Case |
//! |---|---|---|---|
//! | [`dalal::dalal_compact`] | Thm 3.4 | query equivalence | general |
//! | [`weber::weber_compact`] | Thm 3.5 | query equivalence | general |
//! | [`bounded`] (formulas 5–9) | Prop 4.3, Cor 4.4, Thm 4.5, Thm 4.6 | logical equivalence | bounded `\|P\|` |
//! | [`iterated::dalal_iterated`] | Thm 5.1 (`Φₘ`) | query equivalence | iterated general |
//! | [`iterated::weber_iterated`] | Cor 5.2 (formula 10) | query equivalence | iterated general |
//! | [`iterated`] QBF forms (12)–(16) | Thm 6.1–6.3, Cor 6.4 | query equivalence | iterated bounded |
//! | [`widtio_compact`] | §3 opening remark | logical equivalence | always |

pub mod bounded;
pub mod dalal;
pub mod iterated;
pub mod rep;
pub mod weber;

pub use bounded::{
    borgida_bounded, dalal_bounded, forbus_bounded, prune_disjuncts, satoh_bounded, weber_bounded,
    winslett_bounded,
};
pub use dalal::{dalal_compact, dalal_compact_auto};
pub use iterated::{
    borgida_iterated, borgida_iterated_auto, dalal_iterated, dalal_iterated_auto, forbus_iterated,
    forbus_iterated_auto, satoh_iterated, satoh_iterated_auto, satoh_qbf_paper, weber_iterated,
    weber_iterated_auto, winslett_iterated, winslett_iterated_auto, winslett_iterated_qbf,
};
pub use rep::{CompactRep, QueryError};
pub use weber::{weber_compact, weber_compact_auto};

use crate::formula_based::{widtio, Theory};
use revkb_logic::Formula;

/// The result of a revision step the paper sets aside as degenerate,
/// for a caller that already knows `T` or `P` to be unsatisfiable:
/// `⊥` when `P` is unsatisfiable, else `P` (the conventions of
/// [`crate::semantic`]). Costs at most one satisfiability check.
pub(crate) fn degenerate_result(p: &Formula) -> Formula {
    if revkb_sat::satisfiable(p) {
        p.clone()
    } else {
        Formula::False
    }
}

/// WIDTIO is trivially logically compactable: `|T *wid P| ≤ |T| + |P|`
/// by definition (it keeps a subset of `T`'s formulas plus `P`).
pub fn widtio_compact(t: &Theory, p: &Formula) -> Formula {
    widtio(t, p).conjunction()
}
