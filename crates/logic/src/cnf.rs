//! Clausal form: literals, clauses, CNF, and the Tseitin transform.
//!
//! [`Lit`] uses the MiniSat packed encoding (`var << 1 | sign`), which
//! the SAT solver indexes watch lists with. The full (two-sided)
//! Tseitin transform is used rather than the polarity-optimised one:
//! with definitional clauses in both directions, every model of the
//! original formula extends to *exactly one* model of the CNF, and
//! every CNF model restricts to a model of the formula — which is what
//! the query-equivalence machinery (projection of auxiliary letters)
//! relies on.

use crate::formula::Formula;
use crate::var::Var;
use std::fmt;

/// Number of Tseitin encodings performed (KB loads and per-query
/// definitional encodings both funnel through
/// [`tseitin_definitions`]).
static TSEITIN_RUNS: revkb_obs::Counter = revkb_obs::Counter::new("logic.tseitin.runs");
static TSEITIN_CLAUSES: revkb_obs::Counter = revkb_obs::Counter::new("logic.tseitin.clauses");
static TSEITIN_AUX_VARS: revkb_obs::Counter = revkb_obs::Counter::new("logic.tseitin.aux_vars");

/// A literal: a variable with a polarity, packed MiniSat-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// Build from a variable and a polarity flag.
    #[inline]
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True for positive literals.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[inline]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// The packed code (for watch-list indexing).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Lit::code`].
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negated()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// A clause: a disjunction of literals.
pub type Clause = Vec<Lit>;

/// A CNF formula: a conjunction of clauses over variables `0..num_vars`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// The clauses.
    pub clauses: Vec<Clause>,
    /// One past the highest variable index mentioned (watermark).
    pub num_vars: u32,
}

impl Cnf {
    /// An empty (valid) CNF.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a clause, raising the variable watermark as needed.
    pub fn push(&mut self, clause: Clause) {
        for l in &clause {
            self.num_vars = self.num_vars.max(l.var().0 + 1);
        }
        self.clauses.push(clause);
    }

    /// Raise the watermark so `v` is within range.
    pub fn register_var(&mut self, v: Var) {
        self.num_vars = self.num_vars.max(v.0 + 1);
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True when there are no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Total number of literal occurrences.
    pub fn literal_count(&self) -> usize {
        self.clauses.iter().map(|c| c.len()).sum()
    }

    /// Merge another CNF into this one (conjunction).
    pub fn extend(&mut self, other: Cnf) {
        self.num_vars = self.num_vars.max(other.num_vars);
        self.clauses.extend(other.clauses);
    }

    /// View the CNF as a [`Formula`].
    pub fn to_formula(&self) -> Formula {
        Formula::and_all(
            self.clauses
                .iter()
                .map(|c| Formula::or_all(c.iter().map(|l| Formula::lit(l.var(), l.is_positive())))),
        )
    }
}

/// A supply of fresh variables for definitional encodings.
pub trait VarSupply {
    /// Produce a variable not used before by this supply or the caller.
    fn fresh_var(&mut self) -> Var;
}

/// A watermark-based supply: hands out `next, next+1, …`.
#[derive(Debug, Clone)]
pub struct CountingSupply {
    next: u32,
}

impl CountingSupply {
    /// Start handing out variables from `next`.
    pub fn new(next: u32) -> Self {
        Self { next }
    }

    /// The variable the next [`VarSupply::fresh_var`] call returns.
    pub fn peek(&self) -> Var {
        Var(self.next)
    }

    /// Start just above every variable of `f`.
    pub fn above_formula(f: &Formula) -> Self {
        let next = f.vars().iter().map(|v| v.0 + 1).max().unwrap_or(0);
        Self { next }
    }
}

impl VarSupply for CountingSupply {
    fn fresh_var(&mut self) -> Var {
        let v = Var(self.next);
        self.next += 1;
        v
    }
}

impl VarSupply for crate::var::Signature {
    fn fresh_var(&mut self) -> Var {
        self.fresh("_ts")
    }
}

/// Tseitin-transform `f` into an equisatisfiable CNF.
///
/// Returns the CNF (including the unit clause asserting the root) —
/// the definitional letters come from `supply`. Every model of `f`
/// (over `V(f)`) extends to exactly one model of the result, and every
/// model of the result restricts to a model of `f`.
pub fn tseitin(f: &Formula, supply: &mut impl VarSupply) -> Cnf {
    let _span = revkb_obs::span("logic.tseitin");
    let mut cnf = Cnf::new();
    let root = tseitin_definitions(f, &mut cnf, supply);
    cnf.push(vec![root]);
    cnf
}

/// Tseitin-encode `f` into `cnf` *without asserting it*, returning
/// the defining literal of the root.
///
/// The pushed clauses are two-sided definitions (`d ↔ subformula`),
/// so they are satisfiable under every assignment of `V(f)` and can
/// be added to an incremental solver permanently: asserting the
/// returned literal (or its negation) later — e.g. as a solver
/// assumption — constrains the solver to models of `f` (resp. `¬f`).
/// This is the encoding step behind `revkb_sat::QuerySession`.
pub fn tseitin_definitions(f: &Formula, cnf: &mut Cnf, supply: &mut impl VarSupply) -> Lit {
    for v in f.vars() {
        cnf.register_var(v);
    }
    let clauses_before = cnf.len();
    let mut counting = CountingFresh {
        inner: supply,
        fresh: 0,
    };
    let root = encode(f, cnf, &mut counting);
    TSEITIN_RUNS.inc();
    TSEITIN_CLAUSES.add((cnf.len() - clauses_before) as u64);
    TSEITIN_AUX_VARS.add(counting.fresh);
    root
}

/// Wraps a supply to count how many definitional letters an encoding
/// consumed (one local increment per fresh var; negligible either way).
struct CountingFresh<'a, S: VarSupply> {
    inner: &'a mut S,
    fresh: u64,
}

impl<S: VarSupply> VarSupply for CountingFresh<'_, S> {
    fn fresh_var(&mut self) -> Var {
        self.fresh += 1;
        self.inner.fresh_var()
    }
}

/// Tseitin-transform with an automatic fresh-variable watermark placed
/// above `V(f)`.
///
/// ```
/// use revkb_logic::{tseitin_auto, Formula, Var};
/// let f = Formula::var(Var(0)).xor(Formula::var(Var(1)));
/// let cnf = tseitin_auto(&f);
/// assert!(cnf.len() > 0);
/// // Equisatisfiable with the original.
/// assert!(revkb_logic::tt_satisfiable(&cnf.to_formula()));
/// ```
pub fn tseitin_auto(f: &Formula) -> Cnf {
    let mut supply = CountingSupply::above_formula(f);
    tseitin(f, &mut supply)
}

/// Encode `f` as a literal, pushing definitional clauses into `cnf`.
fn encode(f: &Formula, cnf: &mut Cnf, supply: &mut impl VarSupply) -> Lit {
    match f {
        Formula::True => {
            // A fresh letter constrained true.
            let v = supply.fresh_var();
            cnf.push(vec![Lit::pos(v)]);
            Lit::pos(v)
        }
        Formula::False => {
            let v = supply.fresh_var();
            cnf.push(vec![Lit::pos(v)]);
            Lit::neg(v)
        }
        Formula::Var(v) => Lit::pos(*v),
        Formula::Not(inner) => encode(inner, cnf, supply).negated(),
        Formula::And(fs) => {
            let lits: Vec<Lit> = fs.iter().map(|g| encode(g, cnf, supply)).collect();
            let d = Lit::pos(supply.fresh_var());
            // d → each lᵢ ; (⋀ lᵢ) → d.
            let mut back: Clause = lits.iter().map(|l| l.negated()).collect();
            back.push(d);
            for &l in &lits {
                cnf.push(vec![d.negated(), l]);
            }
            cnf.push(back);
            d
        }
        Formula::Or(fs) => {
            let lits: Vec<Lit> = fs.iter().map(|g| encode(g, cnf, supply)).collect();
            let d = Lit::pos(supply.fresh_var());
            // lᵢ → d ; d → (⋁ lᵢ).
            let mut fwd: Clause = lits.clone();
            fwd.push(d.negated());
            for &l in &lits {
                cnf.push(vec![l.negated(), d]);
            }
            cnf.push(fwd);
            d
        }
        Formula::Implies(a, b) => {
            let la = encode(a, cnf, supply);
            let lb = encode(b, cnf, supply);
            let d = Lit::pos(supply.fresh_var());
            // d ↔ (¬a ∨ b)
            cnf.push(vec![d.negated(), la.negated(), lb]);
            cnf.push(vec![d, la]);
            cnf.push(vec![d, lb.negated()]);
            d
        }
        Formula::Iff(a, b) => {
            let la = encode(a, cnf, supply);
            let lb = encode(b, cnf, supply);
            let d = Lit::pos(supply.fresh_var());
            // d ↔ (a ↔ b)
            cnf.push(vec![d.negated(), la.negated(), lb]);
            cnf.push(vec![d.negated(), la, lb.negated()]);
            cnf.push(vec![d, la, lb]);
            cnf.push(vec![d, la.negated(), lb.negated()]);
            d
        }
        Formula::Xor(a, b) => {
            let la = encode(a, cnf, supply);
            let lb = encode(b, cnf, supply);
            let d = Lit::pos(supply.fresh_var());
            // d ↔ (a ⊕ b)
            cnf.push(vec![d.negated(), la, lb]);
            cnf.push(vec![d.negated(), la.negated(), lb.negated()]);
            cnf.push(vec![d, la.negated(), lb]);
            cnf.push(vec![d, la, lb.negated()]);
            d
        }
    }
}

/// Convert to CNF by distribution (worst-case exponential). Used for
/// small formulas and as a test oracle; the scalable path is
/// [`tseitin`].
pub fn distribute_cnf(f: &Formula) -> Cnf {
    let nnf = f.expand_shorthands().nnf();
    let mut cnf = Cnf::new();
    for v in f.vars() {
        cnf.register_var(v);
    }
    match dist(&nnf) {
        None => {
            // Unsatisfiable: the empty clause.
            cnf.push(vec![]);
        }
        Some(clauses) => {
            for c in clauses {
                cnf.push(c);
            }
        }
    }
    cnf
}

/// Distribution on an NNF formula. Returns `None` for `⊥` (forcing the
/// empty clause), `Some(vec![])` for `⊤`.
fn dist(f: &Formula) -> Option<Vec<Clause>> {
    match f {
        Formula::True => Some(vec![]),
        Formula::False => None,
        Formula::Var(v) => Some(vec![vec![Lit::pos(*v)]]),
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Var(v) => Some(vec![vec![Lit::neg(*v)]]),
            other => panic!("dist expects NNF, found negation of {other:?}"),
        },
        Formula::And(fs) => {
            let mut out = Vec::new();
            for g in fs {
                out.extend(dist(g)?);
            }
            Some(out)
        }
        Formula::Or(fs) => {
            let mut acc: Vec<Clause> = vec![vec![]];
            for g in fs {
                let sub = match dist(g) {
                    None => continue, // ⊥ disjunct contributes nothing
                    Some(s) => s,
                };
                if sub.is_empty() {
                    // ⊤ disjunct makes the whole disjunction valid.
                    return Some(vec![]);
                }
                let mut next = Vec::with_capacity(acc.len() * sub.len());
                for base in &acc {
                    for clause in &sub {
                        let mut merged = base.clone();
                        merged.extend(clause.iter().copied());
                        next.push(merged);
                    }
                }
                acc = next;
            }
            if acc == vec![Vec::<Lit>::new()] {
                // No disjunct contributed: the disjunction was ⊥.
                None
            } else {
                Some(acc)
            }
        }
        other => panic!("dist expects NNF without shorthands, found {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{tt_equivalent, tt_satisfiable, Alphabet};

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn lit_packing() {
        let l = Lit::pos(Var(5));
        assert_eq!(l.var(), Var(5));
        assert!(l.is_positive());
        assert_eq!(!l, Lit::neg(Var(5)));
        assert_eq!(Lit::from_code(l.code()), l);
        assert_eq!(Lit::new(Var(3), false), Lit::neg(Var(3)));
    }

    #[test]
    fn cnf_roundtrip_formula() {
        let mut cnf = Cnf::new();
        cnf.push(vec![Lit::pos(Var(0)), Lit::neg(Var(1))]);
        cnf.push(vec![Lit::pos(Var(1))]);
        let f = cnf.to_formula();
        assert!(tt_equivalent(&f, &v(0).and(v(1))));
        assert_eq!(cnf.num_vars, 2);
        assert_eq!(cnf.literal_count(), 3);
    }

    /// Models of the Tseitin CNF, projected onto original variables,
    /// must equal the models of the original formula.
    fn check_tseitin_projection(f: &Formula) {
        let cnf = tseitin_auto(f);
        let g = cnf.to_formula();
        let orig_alpha = Alphabet::of_formula(f);
        let full_alpha = Alphabet::of_formulas([&g, f]);
        assert!(full_alpha.len() <= 22, "test formula too large");
        let mut projected: Vec<u64> = full_alpha
            .models(&g)
            .into_iter()
            .map(|m| full_alpha.project_mask(m, &orig_alpha))
            .collect();
        projected.sort_unstable();
        projected.dedup();
        let expected = orig_alpha.models(f);
        assert_eq!(projected, expected, "projection mismatch for {f:?}");
    }

    #[test]
    fn tseitin_projection_simple() {
        check_tseitin_projection(&v(0).and(v(1).or(v(2).not())));
        check_tseitin_projection(&v(0).iff(v(1)));
        check_tseitin_projection(&v(0).xor(v(1)).implies(v(2)));
        check_tseitin_projection(&v(0).and(v(0).not()));
        check_tseitin_projection(&Formula::True.or(v(1)));
    }

    #[test]
    fn tseitin_extension_unique() {
        // Each model of f extends to exactly one model of the CNF.
        let f = v(0).xor(v(1)).or(v(2));
        let cnf = tseitin_auto(&f);
        let g = cnf.to_formula();
        let orig_alpha = Alphabet::of_formula(&f);
        let full_alpha = Alphabet::of_formulas([&g, &f]);
        let models = full_alpha.models(&g);
        let mut seen = std::collections::HashMap::new();
        for m in models {
            let p = full_alpha.project_mask(m, &orig_alpha);
            *seen.entry(p).or_insert(0) += 1;
        }
        for (_, count) in seen {
            assert_eq!(count, 1, "non-unique Tseitin extension");
        }
    }

    #[test]
    fn distribute_matches_semantics() {
        for f in [
            v(0).or(v(1)).and(v(2).or(v(0).not())),
            v(0).iff(v(1)),
            v(0).implies(v(1)).implies(v(2)),
            v(0).and(v(0).not()),
            Formula::True,
            Formula::False,
            v(0).xor(v(1)).xor(v(2)),
        ] {
            let cnf = distribute_cnf(&f);
            assert!(
                tt_equivalent(&f, &cnf.to_formula()),
                "distribution changed semantics of {f:?}"
            );
        }
    }

    #[test]
    fn distribute_unsat_gives_empty_clause() {
        let f = v(0).and(v(0).not());
        let cnf = distribute_cnf(&f);
        assert!(!tt_satisfiable(&cnf.to_formula()));
    }

    #[test]
    fn counting_supply_above_formula() {
        let f = v(7).or(v(2));
        let mut s = CountingSupply::above_formula(&f);
        assert_eq!(s.fresh_var(), Var(8));
        assert_eq!(s.fresh_var(), Var(9));
    }
}
