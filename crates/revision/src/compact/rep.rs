//! The result type of a compact construction.

use revkb_bdd::{from_definitional, BddManager, NodeId, FALSE};
use revkb_logic::{Formula, Lit, SharedCnf, Var};
use revkb_sat::{QuerySession, SolverStats};
use std::cell::RefCell;
use std::time::Instant;

/// Error answering a query through a [`CompactRep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query mentions a letter outside the representation's base
    /// alphabet: the compactness guarantee (query equivalence to
    /// `T * P`) says nothing about such formulas, so an answer would
    /// be silently meaningless — auxiliary letters of `T'` are
    /// implementation detail, not knowledge.
    OutOfAlphabet {
        /// The offending letter.
        var: Var,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::OutOfAlphabet { var } => write!(
                f,
                "query mentions {var:?}, which is outside the representation's \
                 base alphabet; answers are only guaranteed for queries over \
                 the base letters"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// A compact representation `T'` of a revised knowledge base, together
/// with the base alphabet on which its guarantee holds.
///
/// For *query-equivalent* representations (criterion (1)), `T'` may
/// use letters outside `base`; its consequences restricted to `base`
/// formulas coincide with those of `T * P`. For *logically equivalent*
/// representations (criterion (2)), `formula` uses only `base` letters
/// and `T' ≡ T * P`.
///
/// Entailment queries are answered by one lazily filled slot, which
/// single queries and batches share:
///
/// - a BDD backend's representation answers on its ROBDD: the one its
///   compile handed over ([`CompactRep::with_diagram`]), or, when it was
///   taken up from its stored formula ([`CompactRep::on_diagram`]), the
///   one [`revkb_bdd::from_definitional`] rebuilds at the first query.
///   A query in clausal form is one walk per clause
///   ([`revkb_bdd::BddManager::entails_clause`]); any other asks
///   whether `T' ∧ ¬Q` is `⊥`. No solver is built and nothing is
///   memoised;
/// - every other representation answers through a [`QuerySession`]:
///   the first query loads `formula` once, from the clauses the
///   construction kept when it kept them (the session then owns the
///   only copy, and the representation lets them go), and by a Tseitin
///   pass otherwise. Queries share its learned clauses, memo and
///   countermodels.
///
/// Mutating `formula` after the first query is a footgun — the slot
/// keeps answering for the formula it loaded; construct a fresh
/// `CompactRep` instead.
#[derive(Debug)]
pub struct CompactRep {
    /// The representation formula `T'`.
    pub formula: Formula,
    /// The base alphabet `X = V(T) ∪ V(P…)`.
    pub base: Vec<Var>,
    /// Whether the construction guarantees logical equivalence
    /// (criterion (2)); otherwise only query equivalence (criterion
    /// (1)) is guaranteed.
    pub logical: bool,
    /// `formula` in clausal form, when the construction kept clauses
    /// and no query session or later step has taken them yet. Their
    /// models are `formula`'s on every base letter (see
    /// [`CompactRep::with_clauses`]).
    clauses: RefCell<Option<SharedCnf>>,
    /// Whether `formula` is a BDD backend's definitional formula, whose
    /// ROBDD answers the queries.
    bdd: bool,
    /// What answers the queries: empty until the first one, unless the
    /// compile handed its diagram over.
    answerer: RefCell<Option<Answerer>>,
}

/// What answers a [`CompactRep`]'s queries.
#[derive(Debug)]
enum Answerer {
    Session(Box<QuerySession>),
    Diagram(Box<Diagram>),
}

impl Answerer {
    fn diagram(mgr: BddManager, root: NodeId) -> Self {
        Answerer::Diagram(Box::new(Diagram {
            mgr,
            root,
            stats: None,
        }))
    }

    fn entails(&mut self, q: &Formula) -> bool {
        match self {
            Answerer::Session(session) => session.entails(q),
            Answerer::Diagram(diagram) => diagram.entails(q),
        }
    }
}

/// A BDD backend's ROBDD `root` of `mgr`, which answers queries with
/// no solver.
#[derive(Debug)]
struct Diagram {
    mgr: BddManager,
    root: NodeId,
    /// `None` until the first query.
    stats: Option<SolverStats>,
}

impl Diagram {
    fn entails(&mut self, q: &Formula) -> bool {
        let start = Instant::now();
        let answer = match cnf_clauses(q) {
            Some(clauses) => clauses
                .iter()
                .all(|c| self.mgr.entails_clause(self.root, c)),
            None => {
                let q = self.mgr.from_formula(q);
                let not_q = self.mgr.not(q);
                self.mgr.and(self.root, not_q) == FALSE
            }
        };
        let micros = start.elapsed().as_nanos().div_ceil(1000) as u64;
        let stats = self.stats.get_or_insert_with(SolverStats::default);
        stats.queries += 1;
        stats.cache_misses += 1;
        stats.last_query_micros = micros;
        stats.total_query_micros += micros;
        answer
    }
}

/// The clauses of `q` when it is a literal, a clause or a conjunction
/// of them (`⊤` has none, and `⊥` is the empty clause).
fn cnf_clauses(q: &Formula) -> Option<Vec<Vec<Lit>>> {
    fn literal(f: &Formula) -> Option<Lit> {
        match f {
            Formula::Var(v) => Some(Lit::pos(*v)),
            Formula::Not(inner) => match &**inner {
                Formula::Var(v) => Some(Lit::neg(*v)),
                _ => None,
            },
            _ => None,
        }
    }
    fn clause(f: &Formula) -> Option<Vec<Lit>> {
        match f {
            Formula::Or(lits) => lits.iter().map(literal).collect(),
            Formula::False => Some(Vec::new()),
            f => literal(f).map(|l| vec![l]),
        }
    }
    match q {
        Formula::And(clauses) => clauses.iter().map(clause).collect(),
        Formula::True => Some(Vec::new()),
        q => clause(q).map(|c| vec![c]),
    }
}

impl Clone for CompactRep {
    fn clone(&self) -> Self {
        // The clone starts with an empty slot rather than a copy of the
        // solver or diagram: cloning is used to build derived
        // representations, not to share query workloads.
        let mut rep = Self::new(self.formula.clone(), self.base.clone(), self.logical);
        *rep.clauses.borrow_mut() = self.clauses.borrow().clone();
        rep.bdd = self.bdd;
        rep
    }
}

impl CompactRep {
    /// A representation with the given equivalence guarantee.
    pub fn new(formula: Formula, base: Vec<Var>, logical: bool) -> Self {
        Self {
            formula,
            base,
            logical,
            clauses: RefCell::new(None),
            bdd: false,
            answerer: RefCell::new(None),
        }
    }

    /// A query-equivalent representation.
    pub fn query(formula: Formula, base: Vec<Var>) -> Self {
        Self::new(formula, base, false)
    }

    /// A logically equivalent representation.
    pub fn logical(formula: Formula, base: Vec<Var>) -> Self {
        Self::new(formula, base, true)
    }

    /// The same representation, which answers on the ROBDD
    /// `root` of `mgr`: the diagram `formula` was extracted from by
    /// [`revkb_bdd::to_formula_definitional`].
    pub(crate) fn with_diagram(mut self, mgr: BddManager, root: NodeId) -> Self {
        self.bdd = true;
        *self.answerer.get_mut() = Some(Answerer::diagram(mgr, root));
        self
    }

    /// The same representation, which rebuilds at its first query the
    /// ROBDD that `formula`, a BDD backend's definitional formula,
    /// defines over `base`, and answers on it. A formula not of that
    /// shape is answered through a query session instead.
    pub(crate) fn on_diagram(mut self) -> Self {
        self.bdd = true;
        self
    }

    /// Whether the representation answers on a BDD backend's diagram.
    pub(crate) fn is_diagram(&self) -> bool {
        self.bdd
    }

    /// The same representation, whose query session loads `cnf`
    /// instead of encoding `formula`. `cnf` need not be `formula`'s
    /// Tseitin clauses: its models must be `formula`'s on every base
    /// letter, as [`QuerySession::from_clauses`] asks. A Dalal chain's,
    /// for one, replace `EXA`'s circuit by an at-most-`k` counter.
    pub(crate) fn with_clauses(self, cnf: SharedCnf) -> Self {
        *self.clauses.borrow_mut() = Some(cnf);
        self
    }

    /// Take the clauses given by [`CompactRep::with_clauses`], unless
    /// the query session or an earlier call took them already.
    pub(crate) fn take_clauses(&self) -> Option<SharedCnf> {
        self.clauses.borrow_mut().take()
    }

    /// The paper's size measure `|T'|` (variable occurrences).
    pub fn size(&self) -> usize {
        self.formula.size()
    }

    /// Answer `T * P ⊨ Q` through the representation (step 2 of the
    /// paper's two-step query answering), or report why the query is
    /// not answerable.
    ///
    /// Queries must stay within the base alphabet: a query mentioning
    /// other letters — auxiliary letters of the construction, or
    /// letters the knowledge base has never heard of — yields
    /// [`QueryError::OutOfAlphabet`] instead of a silently meaningless
    /// boolean.
    pub fn try_entails(&self, q: &Formula) -> Result<bool, QueryError> {
        self.check_alphabet(q)?;
        Ok(self.with_answerer(|answerer| answerer.entails(q)))
    }

    fn check_alphabet(&self, q: &Formula) -> Result<(), QueryError> {
        match q.vars().into_iter().find(|v| !self.base.contains(v)) {
            Some(var) => Err(QueryError::OutOfAlphabet { var }),
            None => Ok(()),
        }
    }

    fn with_answerer<R>(&self, f: impl FnOnce(&mut Answerer) -> R) -> R {
        let mut slot = self.answerer.borrow_mut();
        let answerer = slot.get_or_insert_with(|| {
            let diagram = self
                .bdd
                .then(|| from_definitional(&self.formula, &self.base));
            if let Some((mgr, root)) = diagram.flatten() {
                return Answerer::diagram(mgr, root);
            }
            // Reserve the whole base alphabet for queries, not just
            // V(formula): the construction may have simplified a base
            // letter away, yet queries over it remain legitimate.
            let num_query_vars = self.base.iter().map(|v| v.0 + 1).max().unwrap_or(0);
            Answerer::Session(Box::new(match self.take_clauses() {
                Some(cnf) => QuerySession::from_clauses(&cnf, num_query_vars),
                None => QuerySession::with_query_alphabet(&self.formula, num_query_vars),
            }))
        });
        f(answerer)
    }

    /// Answer `T * P ⊨ Q` through the representation.
    ///
    /// # Panics
    ///
    /// If `q` uses letters outside the base alphabet — in **every**
    /// build profile, not just with debug assertions: an out-of-
    /// alphabet query has no defined answer, and returning one anyway
    /// was a silent-wrong-answer path. Use [`CompactRep::try_entails`]
    /// to handle the condition gracefully.
    pub fn entails(&self, q: &Formula) -> bool {
        match self.try_entails(q) {
            Ok(answer) => answer,
            Err(e) => panic!("CompactRep::entails: {e}"),
        }
    }

    /// Answer a batch of queries `T * P ⊨ Qᵢ` in order on the
    /// representation's query session or diagram, or report the first
    /// out-of-alphabet query. The answer at index `i` is for
    /// `queries[i]`.
    ///
    /// Every query is alphabet-checked **before** any is answered, so
    /// an `Err` means no work was done and no session state changed.
    pub fn try_entails_batch(&self, queries: &[Formula]) -> Result<Vec<bool>, QueryError> {
        for q in queries {
            self.check_alphabet(q)?;
        }
        Ok(self.with_answerer(|answerer| queries.iter().map(|q| answerer.entails(q)).collect()))
    }

    /// Answer a batch of queries through the query session or diagram.
    ///
    /// # Panics
    ///
    /// If any query uses letters outside the base alphabet (see
    /// [`CompactRep::try_entails_batch`]).
    pub fn entails_batch(&self, queries: &[Formula]) -> Vec<bool> {
        match self.try_entails_batch(queries) {
            Ok(answers) => answers,
            Err(e) => panic!("CompactRep::entails_batch: {e}"),
        }
    }

    /// Counters of the query session or diagram, if any query or batch
    /// has been answered yet. A diagram loads no base and builds no
    /// solver, and every query it answers counts as a cache miss.
    pub fn stats(&self) -> Option<SolverStats> {
        match self.answerer.borrow().as_ref()? {
            Answerer::Session(session) => Some(session.stats()),
            Answerer::Diagram(diagram) => diagram.stats,
        }
    }

    /// The auxiliary letters used beyond the base alphabet.
    pub fn aux_vars(&self) -> Vec<Var> {
        self.formula
            .vars()
            .into_iter()
            .filter(|v| !self.base.contains(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn entails_uses_incremental_session() {
        let rep = CompactRep::logical(v(0).and(v(1)), vec![Var(0), Var(1)]);
        assert!(rep.stats().is_none(), "session is lazy");
        assert!(rep.entails(&v(0)));
        assert!(!rep.entails(&v(0).not()));
        assert!(rep.entails(&v(0)));
        let stats = rep.stats().expect("session exists after queries");
        assert_eq!(stats.base_loads, 1);
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn try_entails_rejects_out_of_alphabet() {
        let rep = CompactRep::logical(v(0), vec![Var(0)]);
        assert_eq!(
            rep.try_entails(&v(7)),
            Err(QueryError::OutOfAlphabet { var: Var(7) })
        );
        // The error message names the guarantee, not just the letter.
        let msg = rep.try_entails(&v(7)).unwrap_err().to_string();
        assert!(msg.contains("base alphabet"));
    }

    #[test]
    #[should_panic(expected = "outside the representation's base alphabet")]
    fn entails_panics_out_of_alphabet() {
        let rep = CompactRep::logical(v(0), vec![Var(0)]);
        rep.entails(&v(7));
    }

    #[test]
    fn batch_matches_single_queries() {
        let rep = CompactRep::logical(v(0).and(v(1)), vec![Var(0), Var(1)]);
        let queries = vec![v(0), v(1).not(), v(0).and(v(1)), v(0).or(v(1)).not()];
        let batch = rep.entails_batch(&queries);
        let single: Vec<bool> = queries.iter().map(|q| rep.entails(q)).collect();
        assert_eq!(batch, single);
        let stats = rep.stats().expect("session ran");
        assert_eq!((stats.queries, stats.cache_hits), (8, 4));
    }

    #[test]
    fn singles_and_batches_share_one_session() {
        let rep = CompactRep::logical(v(0).and(v(1)), vec![Var(0), Var(1)]);
        assert!(rep.entails(&v(0)));
        assert_eq!(rep.entails_batch(&[v(0), v(1)]), vec![true, true]);
        let stats = rep.stats().expect("session ran");
        assert_eq!(
            (stats.base_loads, stats.queries, stats.cache_hits),
            (1, 3, 1),
            "the batch ran on the single-query session and hit its memo"
        );
    }

    #[test]
    fn batch_rejects_out_of_alphabet_before_answering() {
        let rep = CompactRep::logical(v(0), vec![Var(0)]);
        assert_eq!(
            rep.try_entails_batch(&[v(0), v(9)]),
            Err(QueryError::OutOfAlphabet { var: Var(9) })
        );
        assert!(rep.stats().is_none(), "no session built on rejection");
    }

    /// `x0 ∧ (x1 ∨ x2)`'s definitional formula over `x0..x3`, and its
    /// diagram.
    fn definitional() -> (Formula, Vec<Var>, BddManager, NodeId) {
        let base: Vec<Var> = (0..4).map(Var).collect();
        let mut mgr = BddManager::with_order(base.iter().copied());
        let root = mgr.from_formula(&v(0).and(v(1).or(v(2))));
        let mut supply = revkb_logic::CountingSupply::new(4);
        let formula = revkb_bdd::to_formula_definitional(&mgr, root, &mut supply);
        (formula, base, mgr, root)
    }

    #[test]
    fn diagram_answers_every_query_shape_without_a_session() {
        let (formula, base, mgr, root) = definitional();
        let compiled = CompactRep::query(formula.clone(), base.clone()).with_diagram(mgr, root);
        let rebuilt = CompactRep::query(formula, base).on_diagram();
        let cases = [
            (v(0), true),                              // literal
            (v(1).or(v(2)), true),                     // clause
            (v(1).or(v(3)), false),                    // clause
            (v(0).and(v(1).or(v(2))), true),           // CNF
            (v(0).and(v(1)), false),                   // cube
            (v(3).or(v(3).not()), true),               // tautology
            (Formula::False, false),                   // empty clause
            (v(1).xor(v(2)).or(v(1).and(v(2))), true), // apply route
            (v(1).iff(v(2)), false),                   // apply route
        ];
        for rep in [compiled, rebuilt] {
            assert!(rep.stats().is_none(), "no query yet");
            for (q, expected) in &cases {
                assert_eq!(rep.entails(q), *expected, "{q:?}");
            }
            let stats = rep.stats().expect("queries ran");
            assert_eq!((stats.queries, stats.cache_misses), (9, 9));
            assert_eq!((stats.base_loads, stats.solver_constructions), (0, 0));
        }
    }

    #[test]
    fn a_formula_not_definitional_answers_through_a_session() {
        let rep =
            CompactRep::query(v(0).and(v(1).or(v(2))), vec![Var(0), Var(1), Var(2)]).on_diagram();
        assert!(rep.entails(&v(0)));
        assert!(!rep.entails(&v(1)));
        assert_eq!(rep.stats().map(|s| s.base_loads), Some(1));
    }

    #[test]
    fn clone_resets_session() {
        let rep = CompactRep::query(v(0), vec![Var(0)]);
        assert!(rep.entails(&v(0)));
        let cloned = rep.clone();
        assert!(cloned.stats().is_none());
        assert!(cloned.entails(&v(0)));
    }
}
