//! The ROBDD manager: shared node store with a unique table and an
//! operation cache.
//!
//! Section 7 of the paper generalises (non-)compactability from
//! propositional formulas to *any* data structure admitting a
//! polynomial-time model-checking algorithm (`ASK`). Reduced ordered
//! BDDs are the canonical such structure: `ASK(D, M)` is a single
//! root-to-terminal walk. The revision experiments use BDD node counts
//! as the data-structure size measure.

use revkb_logic::{Formula, Interpretation, Var};
use std::collections::HashMap;

static APPLY_HITS: revkb_obs::Counter = revkb_obs::Counter::new("bdd.apply.cache_hits");
static APPLY_MISSES: revkb_obs::Counter = revkb_obs::Counter::new("bdd.apply.cache_misses");
static NODES_ALLOCATED: revkb_obs::Counter = revkb_obs::Counter::new("bdd.unique.nodes_allocated");
/// High-watermark of the unique-table size across all managers.
static UNIQUE_SIZE: revkb_obs::Gauge = revkb_obs::Gauge::new("bdd.unique.size");

/// A BDD node reference (index into the manager's node store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// The `⊥` terminal.
pub const FALSE: NodeId = NodeId(0);
/// The `⊤` terminal.
pub const TRUE: NodeId = NodeId(1);

const TERMINAL_LEVEL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    /// Position of the decision variable in the manager's ordering.
    level: u32,
    /// Successor when the variable is false.
    low: NodeId,
    /// Successor when the variable is true.
    high: NodeId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CacheOp {
    And,
    Or,
    Xor,
    Ite,
    Exists,
    Compose,
}

/// A reduced ordered BDD manager.
///
/// The variable ordering is the order in which variables are first
/// introduced (or fixed up front with [`BddManager::with_order`]).
/// All [`NodeId`]s produced by one manager are canonical: two nodes are
/// semantically equal iff they are the same id.
///
/// ```
/// use revkb_bdd::BddManager;
/// use revkb_logic::{Formula, Var};
/// let mut mgr = BddManager::new();
/// let a = mgr.from_formula(&Formula::var(Var(0)).implies(Formula::var(Var(1))));
/// let b = mgr.from_formula(&Formula::var(Var(0)).not().or(Formula::var(Var(1))));
/// assert_eq!(a, b); // canonicity
/// ```
#[derive(Debug, Clone)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: HashMap<Node, NodeId>,
    cache: HashMap<(CacheOp, NodeId, NodeId, NodeId), NodeId>,
    order: Vec<Var>,
    var_level: HashMap<Var, u32>,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// A manager with an empty ordering (variables interned on first
    /// use, in first-use order).
    pub fn new() -> Self {
        let nodes = vec![
            Node {
                level: TERMINAL_LEVEL,
                low: FALSE,
                high: FALSE,
            },
            Node {
                level: TERMINAL_LEVEL,
                low: TRUE,
                high: TRUE,
            },
        ];
        Self {
            nodes,
            unique: HashMap::new(),
            cache: HashMap::new(),
            order: Vec::new(),
            var_level: HashMap::new(),
        }
    }

    /// A manager with the given variable ordering fixed up front.
    pub fn with_order<I: IntoIterator<Item = Var>>(order: I) -> Self {
        let mut m = Self::new();
        for v in order {
            m.level_of(v);
        }
        m
    }

    /// Number of variables known to the manager.
    pub fn num_vars(&self) -> usize {
        self.order.len()
    }

    /// The ordering (level → variable).
    pub fn ordering(&self) -> &[Var] {
        &self.order
    }

    /// Level of `v`, interning it at the end of the order if new.
    pub fn level_of(&mut self, v: Var) -> u32 {
        if let Some(&l) = self.var_level.get(&v) {
            return l;
        }
        let l = self.order.len() as u32;
        self.order.push(v);
        self.var_level.insert(v, l);
        l
    }

    /// The variable at `level`.
    pub fn var_at(&self, level: u32) -> Var {
        self.order[level as usize]
    }

    fn mk(&mut self, level: u32, low: NodeId, high: NodeId) -> NodeId {
        if low == high {
            return low;
        }
        let node = Node { level, low, high };
        if let Some(&id) = self.unique.get(&node) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, id);
        NODES_ALLOCATED.inc();
        UNIQUE_SIZE.set_max(self.nodes.len() as u64);
        id
    }

    /// Operation-cache lookup with hit/miss telemetry.
    fn cache_get(&self, key: &(CacheOp, NodeId, NodeId, NodeId)) -> Option<NodeId> {
        match self.cache.get(key) {
            Some(&r) => {
                APPLY_HITS.inc();
                Some(r)
            }
            None => {
                APPLY_MISSES.inc();
                None
            }
        }
    }

    /// The BDD for the single variable `v`.
    pub fn var(&mut self, v: Var) -> NodeId {
        let level = self.level_of(v);
        self.mk(level, FALSE, TRUE)
    }

    /// The BDD for the literal `v` / `¬v`.
    pub fn literal(&mut self, v: Var, positive: bool) -> NodeId {
        let level = self.level_of(v);
        if positive {
            self.mk(level, FALSE, TRUE)
        } else {
            self.mk(level, TRUE, FALSE)
        }
    }

    fn level(&self, id: NodeId) -> u32 {
        self.nodes[id.0 as usize].level
    }

    fn low(&self, id: NodeId) -> NodeId {
        self.nodes[id.0 as usize].low
    }

    fn high(&self, id: NodeId) -> NodeId {
        self.nodes[id.0 as usize].high
    }

    /// Negation `¬f`.
    pub fn not(&mut self, f: NodeId) -> NodeId {
        self.ite(f, FALSE, TRUE)
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == g {
            return f;
        }
        if f == FALSE || g == FALSE {
            return FALSE;
        }
        if f == TRUE {
            return g;
        }
        if g == TRUE {
            return f;
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.cache_get(&(CacheOp::And, a, b, FALSE)) {
            return r;
        }
        let (level, fl, fh, gl, gh) = self.cofactors(f, g);
        let low = self.and(fl, gl);
        let high = self.and(fh, gh);
        let r = self.mk(level, low, high);
        self.cache.insert((CacheOp::And, a, b, FALSE), r);
        r
    }

    /// Disjunction `f ∨ g`.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == g {
            return f;
        }
        if f == TRUE || g == TRUE {
            return TRUE;
        }
        if f == FALSE {
            return g;
        }
        if g == FALSE {
            return f;
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.cache_get(&(CacheOp::Or, a, b, FALSE)) {
            return r;
        }
        let (level, fl, fh, gl, gh) = self.cofactors(f, g);
        let low = self.or(fl, gl);
        let high = self.or(fh, gh);
        let r = self.mk(level, low, high);
        self.cache.insert((CacheOp::Or, a, b, FALSE), r);
        r
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == g {
            return FALSE;
        }
        if f == FALSE {
            return g;
        }
        if g == FALSE {
            return f;
        }
        if f == TRUE {
            return self.not(g);
        }
        if g == TRUE {
            return self.not(f);
        }
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.cache_get(&(CacheOp::Xor, a, b, FALSE)) {
            return r;
        }
        let (level, fl, fh, gl, gh) = self.cofactors(f, g);
        let low = self.xor(fl, gl);
        let high = self.xor(fh, gh);
        let r = self.mk(level, low, high);
        self.cache.insert((CacheOp::Xor, a, b, FALSE), r);
        r
    }

    /// Equivalence `f ≡ g`.
    pub fn iff(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let nf = self.not(f);
        self.or(nf, g)
    }

    /// If-then-else `ite(f, g, h) = (f∧g) ∨ (¬f∧h)`.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        if f == TRUE {
            return g;
        }
        if f == FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == TRUE && h == FALSE {
            return f;
        }
        if let Some(r) = self.cache_get(&(CacheOp::Ite, f, g, h)) {
            return r;
        }
        let level = self.level(f).min(self.level(g)).min(self.level(h));
        let (fl, fh) = self.cofactor_at(f, level);
        let (gl, gh) = self.cofactor_at(g, level);
        let (hl, hh) = self.cofactor_at(h, level);
        let low = self.ite(fl, gl, hl);
        let high = self.ite(fh, gh, hh);
        let r = self.mk(level, low, high);
        self.cache.insert((CacheOp::Ite, f, g, h), r);
        r
    }

    fn cofactor_at(&self, f: NodeId, level: u32) -> (NodeId, NodeId) {
        if self.level(f) == level {
            (self.low(f), self.high(f))
        } else {
            (f, f)
        }
    }

    fn cofactors(&self, f: NodeId, g: NodeId) -> (u32, NodeId, NodeId, NodeId, NodeId) {
        let level = self.level(f).min(self.level(g));
        let (fl, fh) = self.cofactor_at(f, level);
        let (gl, gh) = self.cofactor_at(g, level);
        (level, fl, fh, gl, gh)
    }

    /// Restrict: fix `v` to `value` in `f`.
    pub fn restrict(&mut self, f: NodeId, v: Var, value: bool) -> NodeId {
        let level = self.level_of(v);
        self.restrict_level(f, level, value)
    }

    fn restrict_level(&mut self, f: NodeId, level: u32, value: bool) -> NodeId {
        if self.level(f) > level {
            return f;
        }
        if self.level(f) == level {
            return if value { self.high(f) } else { self.low(f) };
        }
        // level(f) < target level: rebuild.
        let key = (
            CacheOp::Compose,
            f,
            NodeId(level),
            if value { TRUE } else { FALSE },
        );
        if let Some(r) = self.cache_get(&key) {
            return r;
        }
        let node_level = self.level(f);
        let (l0, h0) = (self.low(f), self.high(f));
        let low = self.restrict_level(l0, level, value);
        let high = self.restrict_level(h0, level, value);
        let r = self.mk(node_level, low, high);
        self.cache.insert(key, r);
        r
    }

    /// Existential quantification `∃vars. f`.
    pub fn exists(&mut self, f: NodeId, vars: &[Var]) -> NodeId {
        let mut levels: Vec<u32> = vars.iter().map(|&v| self.level_of(v)).collect();
        levels.sort_unstable();
        levels.dedup();
        self.exists_levels(f, &levels)
    }

    fn exists_levels(&mut self, f: NodeId, levels: &[u32]) -> NodeId {
        if f == TRUE || f == FALSE || levels.is_empty() {
            return f;
        }
        let flevel = self.level(f);
        // Drop quantified levels above (before) this node.
        let idx = levels.partition_point(|&l| l < flevel);
        let levels = &levels[idx..];
        if levels.is_empty() {
            return f;
        }
        // Cache on (f, first remaining level, count) — conservative key
        // using a synthetic node id for the level set is incorrect in
        // general, so cache only full suffix calls keyed by first level
        // and suffix length packed into NodeIds.
        let key = (
            CacheOp::Exists,
            f,
            NodeId(levels[0]),
            NodeId(levels.len() as u32),
        );
        if let Some(r) = self.cache_get(&key) {
            return r;
        }
        let (l0, h0) = (self.low(f), self.high(f));
        let r = if flevel == levels[0] {
            let low = self.exists_levels(l0, &levels[1..]);
            let high = self.exists_levels(h0, &levels[1..]);
            self.or(low, high)
        } else {
            let low = self.exists_levels(l0, levels);
            let high = self.exists_levels(h0, levels);
            self.mk(flevel, low, high)
        };
        self.cache.insert(key, r);
        r
    }

    /// Universal quantification `∀vars. f`.
    pub fn forall(&mut self, f: NodeId, vars: &[Var]) -> NodeId {
        let nf = self.not(f);
        let e = self.exists(nf, vars);
        self.not(e)
    }

    /// Composition `f[v/g]`: substitute the function `g` for `v`.
    pub fn compose(&mut self, f: NodeId, v: Var, g: NodeId) -> NodeId {
        let level = self.level_of(v);
        let f_high = self.restrict_level(f, level, true);
        let f_low = self.restrict_level(f, level, false);
        self.ite(g, f_high, f_low)
    }

    /// Build the BDD of a formula.
    pub fn from_formula(&mut self, f: &Formula) -> NodeId {
        match f {
            Formula::True => TRUE,
            Formula::False => FALSE,
            Formula::Var(v) => self.var(*v),
            Formula::Not(inner) => {
                let x = self.from_formula(inner);
                self.not(x)
            }
            Formula::And(fs) => {
                let mut acc = TRUE;
                for g in fs {
                    let x = self.from_formula(g);
                    acc = self.and(acc, x);
                    if acc == FALSE {
                        break;
                    }
                }
                acc
            }
            Formula::Or(fs) => {
                let mut acc = FALSE;
                for g in fs {
                    let x = self.from_formula(g);
                    acc = self.or(acc, x);
                    if acc == TRUE {
                        break;
                    }
                }
                acc
            }
            Formula::Implies(a, b) => {
                let x = self.from_formula(a);
                let y = self.from_formula(b);
                self.implies(x, y)
            }
            Formula::Iff(a, b) => {
                let x = self.from_formula(a);
                let y = self.from_formula(b);
                self.iff(x, y)
            }
            Formula::Xor(a, b) => {
                let x = self.from_formula(a);
                let y = self.from_formula(b);
                self.xor(x, y)
            }
        }
    }

    /// Build the BDD whose models are `masks`, bit `i` of a mask giving
    /// the variable at level `i` of the ordering (so the manager's
    /// ordering must hold every letter the masks use, and at most 64).
    ///
    /// Bottom-up, with no `apply`: the masks are split on the top
    /// variable, each half built one level down, and the two joined by
    /// one unique-table lookup. That is at most one lookup per distinct
    /// prefix of a mask, `O(|masks| · n)`, and every node it allocates
    /// is reachable from the result.
    pub fn from_models(&mut self, masks: &[u64]) -> NodeId {
        let n = self.order.len();
        assert!(n <= 64, "mask bits address at most 64 levels");
        debug_assert!(
            n == 64 || masks.iter().all(|m| m >> n == 0),
            "a mask sets a bit past the ordering"
        );
        self.models_below(0, &mut masks.to_vec())
    }

    fn models_below(&mut self, level: u32, masks: &mut [u64]) -> NodeId {
        if masks.is_empty() {
            return FALSE;
        }
        if level as usize == self.order.len() {
            return TRUE;
        }
        // Masks with the variable false first, then those with it true.
        let mut split = 0;
        for i in 0..masks.len() {
            if masks[i] >> level & 1 == 0 {
                masks.swap(i, split);
                split += 1;
            }
        }
        let (low, high) = masks.split_at_mut(split);
        let low = self.models_below(level + 1, low);
        let high = self.models_below(level + 1, high);
        self.mk(level, low, high)
    }

    /// Model check `M ⊨ f` — the paper's `ASK(D, M)`, a single
    /// root-to-terminal walk (Definition 7.1's polynomial-time bound).
    pub fn model_check(&self, f: NodeId, m: &Interpretation) -> bool {
        let mut cur = f;
        while cur != TRUE && cur != FALSE {
            let v = self.var_at(self.level(cur));
            cur = if m.contains(&v) {
                self.high(cur)
            } else {
                self.low(cur)
            };
        }
        cur == TRUE
    }

    /// Number of distinct nodes reachable from `f` (including the
    /// terminals): the data-structure size `|D|` of Section 7.
    pub fn size(&self, f: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if n != TRUE && n != FALSE {
                stack.push(self.low(n));
                stack.push(self.high(n));
            }
        }
        seen.len()
    }

    /// Number of models of `f` over the manager's full ordering.
    pub fn count_models(&self, f: NodeId) -> u128 {
        let total_levels = self.order.len() as u32;
        let mut memo: HashMap<NodeId, u128> = HashMap::new();
        let c = self.count_rec(f, &mut memo);
        // Scale for variables above the root.
        let root_level = if f == TRUE || f == FALSE {
            total_levels
        } else {
            self.level(f)
        };
        c << root_level
    }

    fn count_rec(&self, f: NodeId, memo: &mut HashMap<NodeId, u128>) -> u128 {
        let total = self.order.len() as u32;
        if f == FALSE {
            return 0;
        }
        if f == TRUE {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let level = self.level(f);
        let count_child = |this: &Self, child: NodeId, memo: &mut HashMap<NodeId, u128>| {
            let child_level = if child == TRUE || child == FALSE {
                total
            } else {
                this.level(child)
            };
            let c = this.count_rec(child, memo);
            c << (child_level - level - 1)
        };
        let c = count_child(self, self.low(f), memo) + count_child(self, self.high(f), memo);
        memo.insert(f, c);
        c
    }

    /// One model of `f` (letters set true), or `None` if `f = ⊥`.
    pub fn any_model(&self, f: NodeId) -> Option<Interpretation> {
        if f == FALSE {
            return None;
        }
        let mut m = Interpretation::new();
        let mut cur = f;
        while cur != TRUE {
            let v = self.var_at(self.level(cur));
            if self.low(cur) != FALSE {
                cur = self.low(cur);
            } else {
                m.insert(v);
                cur = self.high(cur);
            }
        }
        Some(m)
    }

    /// All models of `f` over the full ordering, as interpretations.
    /// Exponential; for small managers.
    pub fn all_models(&self, f: NodeId) -> Vec<Interpretation> {
        let mut out = Vec::new();
        let mut partial = Vec::new();
        self.enum_rec(f, 0, &mut partial, &mut out);
        out
    }

    fn enum_rec(
        &self,
        f: NodeId,
        level: u32,
        partial: &mut Vec<Var>,
        out: &mut Vec<Interpretation>,
    ) {
        if f == FALSE {
            return;
        }
        let total = self.order.len() as u32;
        if level == total {
            debug_assert_eq!(f, TRUE);
            out.push(partial.iter().copied().collect());
            return;
        }
        let v = self.var_at(level);
        let (lo, hi) = if f != TRUE && self.level(f) == level {
            (self.low(f), self.high(f))
        } else {
            (f, f)
        };
        self.enum_rec(lo, level + 1, partial, out);
        partial.push(v);
        self.enum_rec(hi, level + 1, partial, out);
        partial.pop();
    }

    /// Total nodes allocated by the manager (monotone).
    pub fn allocated(&self) -> usize {
        self.nodes.len()
    }

    /// Decompose an internal node into `(variable, low, high)`.
    ///
    /// # Panics
    /// If `id` is a terminal.
    pub fn node_parts(&self, id: NodeId) -> (Var, NodeId, NodeId) {
        assert!(id != TRUE && id != FALSE, "terminals have no parts");
        let n = self.nodes[id.0 as usize];
        (self.var_at(n.level), n.low, n.high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revkb_logic::Formula;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn terminals() {
        let mut m = BddManager::new();
        assert_eq!(m.from_formula(&Formula::True), TRUE);
        assert_eq!(m.from_formula(&Formula::False), FALSE);
        assert_eq!(m.not(TRUE), FALSE);
    }

    #[test]
    fn canonicity_equivalent_formulas_same_node() {
        let mut m = BddManager::new();
        let a = m.from_formula(&v(0).implies(v(1)));
        let b = m.from_formula(&v(0).not().or(v(1)));
        assert_eq!(a, b);
        let c = m.from_formula(&v(0).and(v(0).not()));
        assert_eq!(c, FALSE);
    }

    #[test]
    fn model_check_walks() {
        let mut m = BddManager::new();
        let f = m.from_formula(&v(0).xor(v(1)));
        let m01: Interpretation = [Var(0)].into_iter().collect();
        let m2: Interpretation = [Var(0), Var(1)].into_iter().collect();
        assert!(m.model_check(f, &m01));
        assert!(!m.model_check(f, &m2));
        assert!(!m.model_check(f, &Interpretation::new()));
    }

    #[test]
    fn count_models_xor_chain() {
        let mut m = BddManager::new();
        // x0 ⊕ x1 ⊕ x2 has 4 models over 3 vars.
        let f = m.from_formula(&v(0).xor(v(1)).xor(v(2)));
        assert_eq!(m.count_models(f), 4);
        assert_eq!(m.count_models(TRUE), 8);
        assert_eq!(m.count_models(FALSE), 0);
    }

    #[test]
    fn count_models_skipped_levels() {
        let mut m = BddManager::with_order([Var(0), Var(1), Var(2)]);
        let f = m.from_formula(&v(1)); // x1, free x0 x2
        assert_eq!(m.count_models(f), 4);
    }

    #[test]
    fn exists_forall() {
        let mut m = BddManager::new();
        let f = m.from_formula(&v(0).and(v(1)));
        let e = m.exists(f, &[Var(0)]);
        let expect = m.from_formula(&v(1));
        assert_eq!(e, expect);
        let a = m.forall(f, &[Var(0)]);
        assert_eq!(a, FALSE);
        let g = m.from_formula(&v(0).or(v(1)));
        let ag = m.forall(g, &[Var(0)]);
        assert_eq!(ag, expect);
    }

    #[test]
    fn exists_multiple_vars() {
        let mut m = BddManager::new();
        let f = m.from_formula(&v(0).and(v(1)).and(v(2)));
        let e = m.exists(f, &[Var(0), Var(2)]);
        let expect = m.from_formula(&v(1));
        assert_eq!(e, expect);
    }

    #[test]
    fn restrict_and_compose() {
        let mut m = BddManager::new();
        let f = m.from_formula(&v(0).iff(v(1)));
        let r1 = m.restrict(f, Var(0), true);
        assert_eq!(r1, m.from_formula(&v(1)));
        let r0 = m.restrict(f, Var(0), false);
        assert_eq!(r0, m.from_formula(&v(1).not()));
        // f[x0 / (x2 ∧ x3)] == (x2∧x3) ↔ x1
        let g = m.from_formula(&v(2).and(v(3)));
        let comp = m.compose(f, Var(0), g);
        let expect = m.from_formula(&v(2).and(v(3)).iff(v(1)));
        assert_eq!(comp, expect);
    }

    #[test]
    fn any_model_and_all_models() {
        let mut m = BddManager::new();
        let formula = v(0).xor(v(1));
        let f = m.from_formula(&formula);
        let model = m.any_model(f).unwrap();
        assert!(formula.eval(&model));
        let all = m.all_models(f);
        assert_eq!(all.len(), 2);
        assert!(m.any_model(FALSE).is_none());
    }

    #[test]
    fn size_counts_reachable() {
        let mut m = BddManager::new();
        let f = m.from_formula(&v(0));
        assert_eq!(m.size(f), 3); // node + 2 terminals
        assert_eq!(m.size(TRUE), 1);
    }

    #[test]
    fn agrees_with_truth_tables() {
        use revkb_logic::Alphabet;
        let mut seed = 42u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for _ in 0..100 {
            // random formula over 5 vars, depth 4
            fn build(rnd: &mut impl FnMut() -> u32, depth: u32) -> Formula {
                let r = rnd();
                if depth == 0 || r.is_multiple_of(7) {
                    return Formula::lit(Var(r % 5), r & 1 == 0);
                }
                let a = build(rnd, depth - 1);
                let b = build(rnd, depth - 1);
                match r % 5 {
                    0 => a.and(b),
                    1 => a.or(b),
                    2 => a.implies(b),
                    3 => a.xor(b),
                    _ => a.iff(b),
                }
            }
            let f = build(&mut rnd, 4);
            let mut m = BddManager::with_order((0..5).map(Var));
            let node = m.from_formula(&f);
            let alpha = Alphabet::new((0..5).map(Var).collect());
            for mask in 0..32u64 {
                let interp = alpha.mask_to_interpretation(mask);
                assert_eq!(
                    m.model_check(node, &interp),
                    alpha.eval_mask(&f, mask),
                    "mismatch on {f:?} at {mask:b}"
                );
            }
            let expected_count = alpha.models(&f).len() as u128;
            assert_eq!(m.count_models(node), expected_count);
        }
    }
}
