//! The result type of a compact construction.

use revkb_logic::{Formula, SharedCnf, Var};
use revkb_sat::{QuerySession, SolverStats};
use std::cell::RefCell;

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
/// Entailment queries go through one lazily created [`QuerySession`]:
/// the first query or batch loads `formula` once, from the clauses the
/// construction kept when it kept them (the session then owns the only
/// copy, and the representation lets them go), and by a Tseitin pass
/// otherwise. Single queries and batches share its learned clauses,
/// memo and countermodels. Mutating `formula` after the first query is
/// a footgun — the session keeps answering for the formula it loaded;
/// construct a fresh `CompactRep` instead.
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
    /// Lazily created query session over `formula`, for single
    /// queries and batches alike.
    session: RefCell<Option<QuerySession>>,
}

impl Clone for CompactRep {
    fn clone(&self) -> Self {
        // The clone starts with a fresh (unloaded) session rather than
        // a copy of the solver state: cloning is used to build derived
        // representations, not to share query workloads.
        let rep = Self::new(self.formula.clone(), self.base.clone(), self.logical);
        *rep.clauses.borrow_mut() = self.clauses.borrow().clone();
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
            session: RefCell::new(None),
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
        Ok(self.with_session(|session| session.entails(q)))
    }

    fn check_alphabet(&self, q: &Formula) -> Result<(), QueryError> {
        match q.vars().into_iter().find(|v| !self.base.contains(v)) {
            Some(var) => Err(QueryError::OutOfAlphabet { var }),
            None => Ok(()),
        }
    }

    fn with_session<R>(&self, f: impl FnOnce(&mut QuerySession) -> R) -> R {
        let mut slot = self.session.borrow_mut();
        let session = slot.get_or_insert_with(|| {
            // Reserve the whole base alphabet for queries, not just
            // V(formula): the construction may have simplified a base
            // letter away, yet queries over it remain legitimate.
            let num_query_vars = self.base.iter().map(|v| v.0 + 1).max().unwrap_or(0);
            match self.take_clauses() {
                Some(cnf) => QuerySession::from_clauses(&cnf, num_query_vars),
                None => QuerySession::with_query_alphabet(&self.formula, num_query_vars),
            }
        });
        f(session)
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
    /// representation's query session, or report the first
    /// out-of-alphabet query. The answer at index `i` is for
    /// `queries[i]`.
    ///
    /// Every query is alphabet-checked **before** any is answered, so
    /// an `Err` means no work was done and no session state changed.
    pub fn try_entails_batch(&self, queries: &[Formula]) -> Result<Vec<bool>, QueryError> {
        for q in queries {
            self.check_alphabet(q)?;
        }
        Ok(self.with_session(|session| queries.iter().map(|q| session.entails(q)).collect()))
    }

    /// Answer a batch of queries through the query session.
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

    /// Counters of the query session, if any query or batch has been
    /// answered yet.
    pub fn stats(&self) -> Option<SolverStats> {
        self.session.borrow().as_ref().map(QuerySession::stats)
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

    #[test]
    fn clone_resets_session() {
        let rep = CompactRep::query(v(0), vec![Var(0)]);
        assert!(rep.entails(&v(0)));
        let cloned = rep.clone();
        assert!(cloned.stats().is_none());
        assert!(cloned.entails(&v(0)));
    }
}
