//! Extraction of propositional formulas from BDDs.
//!
//! Two routes:
//!
//! - [`to_formula_shannon`]: structural Shannon expansion — logically
//!   equivalent, but sharing is lost, so the formula can be
//!   exponentially larger than the BDD.
//! - [`to_formula_definitional`]: one fresh letter per reachable node
//!   with its if-then-else definition — **linear in the BDD size** and
//!   *query-equivalent* over the original alphabet. This is the
//!   Section 7 bridge run backwards: a polynomial-size data structure
//!   with poly-time `ASK` yields a polynomial-size query-equivalent
//!   formula, which is why the paper's query-compactability lower
//!   bounds automatically apply to BDDs too.
//!
//! [`from_definitional`] is the second route's inverse: it rebuilds the
//! diagram from the definitional formula, as a compiled knowledge base
//! taken up from its stored formula does.

use crate::manager::{BddManager, NodeId, FALSE, TRUE};
use revkb_logic::{Formula, Var, VarSupply};
use std::collections::{HashMap, HashSet};

/// Shannon-expansion extraction: logically equivalent, may blow up.
pub fn to_formula_shannon(mgr: &BddManager, node: NodeId) -> Formula {
    let mut memo: HashMap<NodeId, Formula> = HashMap::new();
    rec_shannon(mgr, node, &mut memo)
}

fn rec_shannon(mgr: &BddManager, node: NodeId, memo: &mut HashMap<NodeId, Formula>) -> Formula {
    if node == TRUE {
        return Formula::True;
    }
    if node == FALSE {
        return Formula::False;
    }
    if let Some(f) = memo.get(&node) {
        return f.clone();
    }
    let (v, lo, hi) = mgr.node_parts(node);
    let lo_f = rec_shannon(mgr, lo, memo);
    let hi_f = rec_shannon(mgr, hi, memo);
    let var = Formula::var(v);
    let f = var.clone().and(hi_f).or(var.not().and(lo_f));
    memo.insert(node, f.clone());
    f
}

/// Definitional extraction: returns a formula over the BDD's letters
/// plus one fresh letter per reachable internal node, of size linear
/// in the node count, query-equivalent to the BDD's function over the
/// original alphabet.
///
/// Shape: `⋀_nodes (w_n ≡ (xᵥ ? w_hi : w_lo)) ∧ w_root`, with the
/// terminals folded to constants.
pub fn to_formula_definitional(
    mgr: &BddManager,
    node: NodeId,
    supply: &mut impl VarSupply,
) -> Formula {
    let _span = revkb_obs::span("bdd.extract");
    if node == TRUE {
        return Formula::True;
    }
    if node == FALSE {
        return Formula::False;
    }
    // Assign a definition letter per reachable internal node.
    let mut order: Vec<NodeId> = Vec::new();
    let mut seen: HashMap<NodeId, Var> = HashMap::new();
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        if n == TRUE || n == FALSE || seen.contains_key(&n) {
            continue;
        }
        seen.insert(n, supply.fresh_var());
        order.push(n);
        let (_, lo, hi) = mgr.node_parts(n);
        stack.push(lo);
        stack.push(hi);
    }
    let wire = |n: NodeId, seen: &HashMap<NodeId, Var>| -> Formula {
        match n {
            TRUE => Formula::True,
            FALSE => Formula::False,
            other => Formula::var(seen[&other]),
        }
    };
    let defs = order.iter().map(|&n| {
        let (v, lo, hi) = mgr.node_parts(n);
        let var = Formula::var(v);
        let body = var
            .clone()
            .and(wire(hi, &seen))
            .or(var.not().and(wire(lo, &seen)));
        Formula::var(seen[&n]).iff(body)
    });
    Formula::and_all(defs.chain([wire(node, &seen)]))
}

/// The inverse of [`to_formula_definitional`]: the ROBDD that a
/// definitional formula defines over `order`, in a manager ordered by
/// `order`, or `None` if `formula` is not of that shape.
///
/// The shape is `⊤`, `⊥`, or `⋀ (w ≡ body_w) ∧ w_root`: each conjunct
/// but one defines a letter `w` outside `order`, once, by a body over
/// `order` and other defined letters, and the last is the defined
/// letter `w_root`. Definitions are resolved by dependency from the
/// root, so neither their position among the conjuncts nor the body's
/// shape matters (`ite(x, w_hi, w_lo)` evaluates to one node), and a
/// cycle or an undefined letter gives `None`. Under one order a
/// function has one ROBDD, so the result has the compiled diagram's
/// nodes.
pub fn from_definitional(formula: &Formula, order: &[Var]) -> Option<(BddManager, NodeId)> {
    let mut mgr = BddManager::with_order(order.iter().copied());
    let conjuncts = match formula {
        Formula::True => return Some((mgr, TRUE)),
        Formula::False => return Some((mgr, FALSE)),
        Formula::And(parts) => parts.as_slice(),
        other => std::slice::from_ref(other),
    };
    let mut defs: HashMap<Var, &Formula> = HashMap::new();
    let mut root = None;
    for conjunct in conjuncts {
        match conjunct {
            Formula::Iff(w, body) => match **w {
                Formula::Var(w) if !mgr.has_var(w) && defs.insert(w, body).is_none() => {}
                _ => return None,
            },
            Formula::Var(w) if root.is_none() => root = Some(*w),
            _ => return None,
        }
    }
    // Depth-first from the root: a letter is built once every defined
    // letter of its body is, and one met again while it waits for them
    // closes a cycle.
    let root = root?;
    let mut built: HashMap<Var, NodeId> = HashMap::new();
    let mut waiting = HashSet::new();
    let mut stack = vec![(root, false)];
    while let Some((w, ready)) = stack.pop() {
        if built.contains_key(&w) {
            continue;
        }
        let body = defs.get(&w)?;
        if ready {
            let node = mgr.build_formula(body, &mut |mgr, v| {
                if mgr.has_var(v) {
                    Some(mgr.var(v))
                } else {
                    built.get(&v).copied()
                }
            })?;
            built.insert(w, node);
        } else if waiting.insert(w) {
            stack.push((w, true));
            let defined = body.vars().into_iter().filter(|&v| !mgr.has_var(v));
            stack.extend(defined.map(|v| (v, false)));
        } else {
            return None;
        }
    }
    Some((mgr, built[&root]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use revkb_logic::{Alphabet, CountingSupply};

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn shannon_roundtrip() {
        let mut mgr = BddManager::new();
        for f in [
            v(0).xor(v(1)).or(v(2)),
            v(0).implies(v(1)).iff(v(2)),
            Formula::True,
            v(0).and(v(0).not()),
        ] {
            let node = mgr.from_formula(&f);
            let g = to_formula_shannon(&mgr, node);
            assert!(revkb_logic::tt_equivalent(&f, &g), "roundtrip of {f:?}");
        }
    }

    #[test]
    fn definitional_is_query_equivalent() {
        let f = v(0).xor(v(1)).or(v(2).and(v(3)));
        let mut mgr = BddManager::new();
        let node = mgr.from_formula(&f);
        let mut supply = CountingSupply::new(100);
        let g = to_formula_definitional(&mgr, node, &mut supply);
        // Projection of M(g) onto the original letters = M(f).
        let base: Vec<Var> = f.vars().into_iter().collect();
        let full = Alphabet::of_formulas([&g, &f]);
        let base_alpha = Alphabet::new(base.clone());
        let mut projected: Vec<u64> = full
            .models(&g)
            .into_iter()
            .map(|m| full.project_mask(m, &base_alpha))
            .collect();
        projected.sort_unstable();
        projected.dedup();
        assert_eq!(projected, base_alpha.models(&f));
    }

    /// A seeded random formula over `Var(0)..Var(8)`.
    fn random_formula(seed: &mut u64, depth: u32) -> Formula {
        let r = next(seed);
        if depth == 0 || r.is_multiple_of(5) {
            return Formula::lit(Var(r % 8), r & 1 == 0);
        }
        let (a, b) = (
            random_formula(seed, depth - 1),
            random_formula(seed, depth - 1),
        );
        match r % 4 {
            0 => a.and(b),
            1 => a.or(b),
            2 => a.xor(b),
            _ => a.iff(b),
        }
    }

    fn next(seed: &mut u64) -> u32 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 33) as u32
    }

    #[test]
    fn definitional_round_trips_to_the_same_diagram() {
        let order: Vec<Var> = (0..8).map(Var).collect();
        let mut seed = 0xB0DD_5EED;
        let mut formulas: Vec<Formula> = (0..60).map(|_| random_formula(&mut seed, 4)).collect();
        formulas.extend([Formula::True, Formula::False]);
        for f in formulas {
            let mut mgr = BddManager::with_order(order.iter().copied());
            let root = mgr.from_formula(&f);
            let definitional = to_formula_definitional(&mgr, root, &mut CountingSupply::new(100));
            // The definitions in another order, the root wire among them.
            let mut shuffled = definitional.clone();
            if let Formula::And(parts) = &mut shuffled {
                for i in (1..parts.len()).rev() {
                    parts.swap(i, next(&mut seed) as usize % (i + 1));
                }
            }
            for g in [definitional, shuffled] {
                let (rebuilt, node) = from_definitional(&g, &order).expect("definitional");
                assert_eq!(rebuilt.size(node), mgr.size(root), "{f:?}");
                assert_eq!(rebuilt.all_models(node), mgr.all_models(root), "{f:?}");
            }
        }
    }

    #[test]
    fn other_shapes_are_not_definitional() {
        let order: Vec<Var> = (0..3).map(Var).collect();
        let def = |w: u32, body: Formula| v(w).iff(body);
        for f in [
            v(0).and(v(1).or(v(2))),
            v(0),
            // A base letter defined.
            def(0, v(1)).and(v(0)),
            // A cycle.
            Formula::and_all([def(8, v(9)), def(9, v(8).not()), v(8)]),
            // A letter used but not defined.
            def(8, v(0).and(v(9))).and(v(8)),
            // A letter defined twice.
            Formula::and_all([def(8, v(0)), def(8, v(1)), v(8)]),
            // Two roots.
            Formula::and_all([def(8, v(0)), v(8), v(8)]),
        ] {
            assert!(from_definitional(&f, &order).is_none(), "{f:?}");
        }
    }

    #[test]
    fn definitional_size_linear_in_nodes() {
        // A function whose BDD is small: the definitional form stays
        // proportional to the node count.
        let n = 10u32;
        let f = Formula::and_all((0..n).map(|i| v(i).or(v((i + 1) % n))));
        let mut mgr = BddManager::with_order((0..n).map(Var));
        let node = mgr.from_formula(&f);
        let nodes = mgr.size(node);
        let mut supply = CountingSupply::new(1000);
        let g = to_formula_definitional(&mgr, node, &mut supply);
        assert!(
            g.size() <= 8 * nodes,
            "definitional size {} not linear in {} nodes",
            g.size(),
            nodes
        );
    }

    #[test]
    fn terminals_extract_to_constants() {
        let mgr = BddManager::new();
        let mut supply = CountingSupply::new(0);
        assert_eq!(
            to_formula_definitional(&mgr, TRUE, &mut supply),
            Formula::True
        );
        assert_eq!(
            to_formula_definitional(&mgr, FALSE, &mut supply),
            Formula::False
        );
        assert_eq!(to_formula_shannon(&mgr, TRUE), Formula::True);
    }
}
