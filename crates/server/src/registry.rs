//! The named-KB registry and the compiled-artifact cache.
//!
//! Compiled revised bases are the expensive artefact the paper is
//! about — the whole point of a resident service is to keep them warm.
//! Two layers do that here:
//!
//! 1. each [`KbState`] keeps its current engine (and with it the
//!    incremental solver session) alive across requests, and
//! 2. the [`ArtifactCache`] remembers compilation *outputs* across
//!    KB lifetimes, keyed by a canonical encoding of
//!    `(operator, backend, T, P¹…Pᵐ)`, so re-loading and re-revising
//!    the same base — a common pattern when many clients mirror one
//!    upstream KB — skips the compile entirely.
//!
//! The cache key is the canonical *encoding*, not just its hash:
//! a 64-bit fingerprint would make a hash collision silently answer
//! queries against the wrong knowledge base, which is exactly the
//! class of bug this workspace refuses to have.

use crate::protocol::OpName;
use revkb_logic::{Formula, Signature};
use revkb_revision::api::Engine;
use revkb_revision::Backend;
use std::collections::{HashMap, VecDeque};

/// Write a canonical, parse-order-independent encoding of `f` into
/// `out`. Two structurally equal formulas (same tree, same `Var`
/// indices) encode identically; nothing else does.
pub fn canonical_formula(f: &Formula, out: &mut String) {
    match f {
        Formula::True => out.push('1'),
        Formula::False => out.push('0'),
        Formula::Var(v) => {
            out.push('v');
            out.push_str(&v.0.to_string());
        }
        Formula::Not(inner) => {
            out.push('!');
            canonical_formula(inner, out);
        }
        Formula::And(items) => {
            out.push_str("&(");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                canonical_formula(item, out);
            }
            out.push(')');
        }
        Formula::Or(items) => {
            out.push_str("|(");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                canonical_formula(item, out);
            }
            out.push(')');
        }
        Formula::Implies(a, b) => {
            out.push_str(">(");
            canonical_formula(a, out);
            out.push(',');
            canonical_formula(b, out);
            out.push(')');
        }
        Formula::Iff(a, b) => {
            out.push_str("=(");
            canonical_formula(a, out);
            out.push(',');
            canonical_formula(b, out);
            out.push(')');
        }
        Formula::Xor(a, b) => {
            out.push_str("^(");
            canonical_formula(a, out);
            out.push(',');
            canonical_formula(b, out);
            out.push(')');
        }
    }
}

/// Parse a string produced by [`canonical_formula`] back into the
/// formula it encodes. Returns `None` on anything that is not a
/// complete, well-formed encoding. This is the inverse the snapshot
/// file format relies on: artifacts persist as their canonical
/// encodings, so the bytes on disk are the same bytes the cache keys
/// are made of.
pub fn parse_canonical(s: &str) -> Option<Formula> {
    fn parse(bytes: &[u8], pos: &mut usize) -> Option<Formula> {
        let head = *bytes.get(*pos)?;
        *pos += 1;
        match head {
            b'1' => Some(Formula::True),
            b'0' => Some(Formula::False),
            b'v' => {
                let start = *pos;
                while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                    *pos += 1;
                }
                let n: u32 = std::str::from_utf8(&bytes[start..*pos])
                    .ok()?
                    .parse()
                    .ok()?;
                Some(Formula::var(revkb_logic::Var(n)))
            }
            b'!' => Some(parse(bytes, pos)?.not()),
            b'&' | b'|' => {
                let items = parse_list(bytes, pos)?;
                Some(if head == b'&' {
                    Formula::And(items)
                } else {
                    Formula::Or(items)
                })
            }
            b'>' | b'=' | b'^' => {
                let mut items = parse_list(bytes, pos)?;
                if items.len() != 2 {
                    return None;
                }
                let b = items.pop()?;
                let a = items.pop()?;
                Some(match head {
                    b'>' => a.implies(b),
                    b'=' => a.iff(b),
                    _ => a.xor(b),
                })
            }
            _ => None,
        }
    }

    // `(` items `)` — comma-separated, possibly empty (`&()` is ⊤,
    // `|()` is ⊥, exactly as the encoder renders them).
    fn parse_list(bytes: &[u8], pos: &mut usize) -> Option<Vec<Formula>> {
        if bytes.get(*pos) != Some(&b'(') {
            return None;
        }
        *pos += 1;
        let mut items = Vec::new();
        if bytes.get(*pos) == Some(&b')') {
            *pos += 1;
            return Some(items);
        }
        loop {
            items.push(parse(bytes, pos)?);
            match bytes.get(*pos)? {
                b',' => *pos += 1,
                b')' => {
                    *pos += 1;
                    return Some(items);
                }
                _ => return None,
            }
        }
    }

    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let f = parse(bytes, &mut pos)?;
    (pos == bytes.len()).then_some(f)
}

/// The canonical cache key of a compilation request.
pub fn cache_key(op: OpName, backend: Backend, t: &[Formula], ps: &[Formula]) -> String {
    let mut key = String::new();
    key.push_str(op.tag());
    key.push('|');
    key.push_str(backend.tag());
    key.push('|');
    for (i, f) in t.iter().enumerate() {
        if i > 0 {
            key.push(';');
        }
        canonical_formula(f, &mut key);
    }
    key.push('|');
    for (i, p) in ps.iter().enumerate() {
        if i > 0 {
            key.push(';');
        }
        canonical_formula(p, &mut key);
    }
    key
}

/// A cached compilation output: everything needed to rebuild a fresh
/// [`revkb_revision::CompactRep`] (solver sessions are per-KB state
/// and deliberately not cached).
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The compiled representation formula `T'`.
    pub formula: Formula,
    /// The base alphabet the guarantee holds on.
    pub base: Vec<revkb_logic::Var>,
    /// Whether `T'` is logically equivalent (criterion (2)) rather
    /// than just query-equivalent (criterion (1)).
    pub logical: bool,
}

/// One cache slot: the artifact plus the sequence number of its most
/// recent touch.
#[derive(Debug)]
struct CacheEntry {
    artifact: Artifact,
    seq: u64,
}

/// A bounded least-recently-used map from [`cache_key`] strings to
/// [`Artifact`]s, with hit/miss/eviction counters.
///
/// Recency is O(1) amortized: every touch stamps the entry with a
/// fresh monotonic sequence number and pushes `(seq, key)` onto the
/// back of a queue, without removing the key's earlier queue entries.
/// Eviction pops from the front, skipping pairs whose sequence number
/// is stale (the key was touched again later, or removed). The queue
/// is compacted whenever it grows past twice the live entry count, so
/// its size stays O(len) and each queue slot is pushed and popped at
/// most once — unlike the previous implementation, whose
/// `VecDeque::position` scan made every warm hit O(capacity).
#[derive(Debug)]
pub struct ArtifactCache {
    capacity: usize,
    map: HashMap<String, CacheEntry>,
    /// Touch queue, oldest first; entries may be stale.
    order: VecDeque<(u64, String)>,
    next_seq: u64,
    /// Lookups that found an artifact.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries pushed out by the capacity bound.
    pub evictions: u64,
}

impl ArtifactCache {
    /// An empty cache holding at most `capacity` artifacts. Capacity 0
    /// disables caching (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
            next_seq: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Artifacts currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterate the cached `(key, artifact)` pairs in unspecified
    /// order (used by WAL snapshots).
    pub fn entries(&self) -> impl Iterator<Item = (&String, &Artifact)> {
        self.map.iter().map(|(k, e)| (k, &e.artifact))
    }

    fn touch(&mut self, key: &str) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(entry) = self.map.get_mut(key) {
            entry.seq = seq;
        }
        self.order.push_back((seq, key.to_string()));
        // Stale pairs accumulate one per touch; compacting when they
        // outnumber live entries keeps the queue O(len) while doing
        // O(1) amortized work per touch.
        if self.order.len() > 2 * self.map.len() + 8 {
            let map = &self.map;
            self.order
                .retain(|(seq, key)| map.get(key).is_some_and(|e| e.seq == *seq));
        }
    }

    /// Look up a compilation output, refreshing its recency.
    pub fn get(&mut self, key: &str) -> Option<Artifact> {
        match self.map.get(key) {
            Some(entry) => {
                self.hits += 1;
                let artifact = entry.artifact.clone();
                self.touch(key);
                Some(artifact)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store a compilation output, evicting the least recently used
    /// entry if the cache is full.
    pub fn insert(&mut self, key: String, artifact: Artifact) {
        if self.capacity == 0 {
            return;
        }
        let replaced = self
            .map
            .insert(key.clone(), CacheEntry { artifact, seq: 0 })
            .is_some();
        self.touch(&key);
        if !replaced && self.map.len() > self.capacity {
            // Pop stale pairs until the front is a live LRU entry.
            while let Some((seq, oldest)) = self.order.pop_front() {
                if self.map.get(&oldest).is_some_and(|e| e.seq == seq) {
                    self.map.remove(&oldest);
                    self.evictions += 1;
                    break;
                }
            }
        }
    }

    /// Insert artifacts restored from a snapshot (boot recovery, a
    /// replica's bootstrap), then zero the hit, miss and eviction
    /// counters: pre-warming is not demand traffic, so it must not
    /// skew the counters clients reason about.
    pub fn prewarm(&mut self, entries: Vec<(String, Artifact)>) {
        for (key, artifact) in entries {
            self.insert(key, artifact);
        }
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }
}

/// Node count of a formula tree — the size measure the workload
/// profiles use for revision and query inputs (connectives and leaves
/// both count one, matching the paper's formula-length measure up to a
/// constant factor).
pub fn formula_size(f: &Formula) -> u64 {
    match f {
        Formula::True | Formula::False | Formula::Var(_) => 1,
        Formula::Not(inner) => 1 + formula_size(inner),
        Formula::And(items) | Formula::Or(items) => 1 + items.iter().map(formula_size).sum::<u64>(),
        Formula::Implies(a, b) | Formula::Iff(a, b) | Formula::Xor(a, b) => {
            1 + formula_size(a) + formula_size(b)
        }
    }
}

/// Per-operator revise statistics inside a [`KbProfile`].
#[derive(Debug, Default, Clone, Copy)]
pub struct OpProfile {
    /// Revise commands accepted with this operator.
    pub revises: u64,
    /// Total node size of the revision input formulas.
    pub input_nodes_total: u64,
    /// Largest single revision input, in nodes.
    pub input_nodes_max: u64,
    /// Fresh compiles (cache misses that actually compiled).
    pub compiles: u64,
    /// Total compile latency across those compiles, in microseconds.
    pub compile_micros_total: u64,
    /// Slowest single compile, in microseconds.
    pub compile_micros_max: u64,
}

/// Rolling workload profile of one named KB: its query/revise mix,
/// input sizes, per-operator compile latencies, and cache behaviour.
/// Updated under the KB's own mutex on the hot paths (plain counter
/// bumps, no allocation beyond the first use of an operator) and
/// surfaced through `stats` and `/metrics` with a `kb` label — the
/// measured input a future cost-based planner chooses representations
/// from.
#[derive(Debug, Default, Clone)]
pub struct KbProfile {
    /// `query` / `query_batch` commands served.
    pub query_commands: u64,
    /// Individual query formulas answered (each batch member counts).
    pub queries: u64,
    /// Total node size of query formulas.
    pub query_nodes_total: u64,
    /// Largest single query formula, in nodes.
    pub query_nodes_max: u64,
    /// Artifact-cache hits attributable to this KB's revises.
    pub cache_hits: u64,
    /// Artifact-cache misses attributable to this KB's revises.
    pub cache_misses: u64,
    /// Per-operator revise statistics, in first-use order (tags are
    /// `OpName` tags, so the set is small and a Vec beats a map).
    pub ops: Vec<(&'static str, OpProfile)>,
}

impl KbProfile {
    /// The profile bucket for operator `tag`, created on first use.
    pub fn op_mut(&mut self, tag: &'static str) -> &mut OpProfile {
        if let Some(idx) = self.ops.iter().position(|(t, _)| *t == tag) {
            return &mut self.ops[idx].1;
        }
        self.ops.push((tag, OpProfile::default()));
        &mut self.ops.last_mut().expect("just pushed").1
    }

    /// Record one query command answering `count` formulas whose node
    /// sizes total `nodes_total` with maximum `nodes_max`.
    pub fn note_queries(&mut self, count: u64, nodes_total: u64, nodes_max: u64) {
        self.query_commands += 1;
        self.queries += count;
        self.query_nodes_total += nodes_total;
        self.query_nodes_max = self.query_nodes_max.max(nodes_max);
    }

    /// Record one accepted revise with operator `tag` whose input
    /// formula has `input_nodes` nodes.
    pub fn note_revise(&mut self, tag: &'static str, input_nodes: u64) {
        let op = self.op_mut(tag);
        op.revises += 1;
        op.input_nodes_total += input_nodes;
        op.input_nodes_max = op.input_nodes_max.max(input_nodes);
    }

    /// Record one fresh compile for operator `tag` taking `micros`.
    pub fn note_compile(&mut self, tag: &'static str, micros: u64) {
        let op = self.op_mut(tag);
        op.compiles += 1;
        op.compile_micros_total += micros;
        op.compile_micros_max = op.compile_micros_max.max(micros);
    }

    /// Artifact-cache hit ratio over this KB's revises, `None` before
    /// the cache was ever consulted for it.
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

/// What kind of engine a KB currently runs (fixed by the first
/// revision; the iterated constructions are single-operator chains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KbKind {
    /// Loaded, never revised: queries go against `T` itself.
    Unrevised,
    /// Revised with a model-based operator (possibly iterated).
    ModelBased(revkb_revision::ModelBasedOp),
    /// Revised once with GFUV.
    Gfuv,
    /// Revised with WIDTIO (possibly iterated).
    Widtio,
}

/// One named knowledge base: its parse signature (letter names are
/// per-KB), the loaded theory, the revision history, and the current
/// query engine.
pub struct KbState {
    /// The KB's name in the registry.
    pub name: String,
    /// Letter names for this KB's formulas.
    pub sig: Signature,
    /// The loaded theory (`;`-separated formulas at load time).
    pub theory: Vec<Formula>,
    /// Applied revision formulas, in order.
    pub revisions: Vec<Formula>,
    /// The engine kind (fixed by the first revise).
    pub kind: KbKind,
    /// The current query engine.
    pub engine: Box<dyn Engine + Send>,
    /// Whether the current engine came from a degraded (fallback)
    /// compilation after a timed-out preferred backend.
    pub degraded: bool,
    /// Queries answered against this KB since it was loaded.
    pub queries: u64,
    /// Rolling workload profile (query/revise mix, input sizes,
    /// compile latencies) surfaced by `stats` and `/metrics`.
    pub profile: KbProfile,
}

impl KbState {
    /// A freshly loaded, unrevised KB answering queries against `T`.
    pub fn new(name: String, sig: Signature, theory: Vec<Formula>) -> Self {
        let t = Formula::and_all(theory.iter().cloned());
        let base: Vec<_> = t.vars().into_iter().collect();
        let engine: Box<dyn Engine + Send> = Box::new(revkb_revision::CompactRep::logical(t, base));
        Self {
            name,
            sig,
            theory,
            revisions: Vec::new(),
            kind: KbKind::Unrevised,
            engine,
            degraded: false,
            queries: 0,
            profile: KbProfile::default(),
        }
    }

    /// The conjunction of the loaded theory.
    pub fn t(&self) -> Formula {
        Formula::and_all(self.theory.iter().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revkb_logic::Var;
    use revkb_revision::ModelBasedOp;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    fn artifact(i: u32) -> Artifact {
        Artifact {
            formula: v(i),
            base: vec![Var(i)],
            logical: true,
        }
    }

    #[test]
    fn canonical_encoding_distinguishes_structure() {
        let mut pairs = Vec::new();
        for f in [
            v(0),
            v(1),
            v(0).not(),
            v(0).and(v(1)),
            v(0).or(v(1)),
            v(1).and(v(0)),
            v(0).implies(v(1)),
            v(0).iff(v(1)),
            v(0).xor(v(1)),
            Formula::True,
            Formula::False,
        ] {
            let mut enc = String::new();
            canonical_formula(&f, &mut enc);
            pairs.push((f, enc));
        }
        for (i, (fi, ei)) in pairs.iter().enumerate() {
            for (j, (fj, ej)) in pairs.iter().enumerate() {
                assert_eq!(i == j, ei == ej, "{fi:?} vs {fj:?}: {ei} vs {ej}");
            }
        }
    }

    #[test]
    fn cache_key_separates_operator_backend_and_history() {
        let t = [v(0).and(v(1))];
        let p1 = [v(0).not()];
        let p2 = [v(0).not(), v(1).not()];
        let k1 = cache_key(OpName::Model(ModelBasedOp::Dalal), Backend::Direct, &t, &p1);
        let k2 = cache_key(OpName::Model(ModelBasedOp::Weber), Backend::Direct, &t, &p1);
        let k3 = cache_key(OpName::Model(ModelBasedOp::Dalal), Backend::Bdd, &t, &p1);
        let k4 = cache_key(OpName::Model(ModelBasedOp::Dalal), Backend::Direct, &t, &p2);
        let again = cache_key(OpName::Model(ModelBasedOp::Dalal), Backend::Direct, &t, &p1);
        assert_eq!(k1, again);
        assert!(k1 != k2 && k1 != k3 && k1 != k4 && k2 != k3);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ArtifactCache::new(2);
        cache.insert("a".into(), artifact(0));
        cache.insert("b".into(), artifact(1));
        assert!(cache.get("a").is_some()); // refresh a; b is now LRU
        cache.insert("c".into(), artifact(2)); // evicts b
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions, 1);
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut cache = ArtifactCache::new(2);
        cache.insert("a".into(), artifact(0));
        cache.insert("b".into(), artifact(1));
        cache.insert("a".into(), artifact(5)); // overwrite, no eviction
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions, 0);
        assert_eq!(cache.get("a").unwrap().formula, v(5));
        // "b" is LRU now.
        cache.insert("c".into(), artifact(2));
        assert!(cache.get("b").is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ArtifactCache::new(0);
        cache.insert("a".into(), artifact(0));
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
        assert_eq!(cache.misses, 1);
    }

    #[test]
    fn canonical_encoding_round_trips_through_parse() {
        let cases = [
            Formula::True,
            Formula::False,
            v(0),
            v(123),
            v(0).not(),
            v(0).and(v(1)).not(),
            Formula::And(vec![]),
            Formula::Or(vec![]),
            Formula::And(vec![v(0), v(1), v(2)]),
            Formula::Or(vec![v(0).not(), v(1).and(v(2))]),
            v(0).implies(v(1)),
            v(0).iff(v(1).xor(v(2))),
            v(3).xor(v(4).implies(Formula::True)),
        ];
        for f in cases {
            let mut enc = String::new();
            canonical_formula(&f, &mut enc);
            let parsed = parse_canonical(&enc).unwrap_or_else(|| panic!("parse {enc}"));
            assert_eq!(parsed, f, "round trip of {enc}");
            let mut re = String::new();
            canonical_formula(&parsed, &mut re);
            assert_eq!(re, enc);
        }
    }

    #[test]
    fn parse_canonical_rejects_malformed_encodings() {
        for bad in [
            "",
            "v",
            "vx",
            "2",
            "&",
            "&(",
            "&(v0",
            "&(v0,)",
            ">(v0)",
            ">(v0,v1,v2)",
            "v0v1",
            "v0 ",
            "!(",
            "=(,v0)",
        ] {
            assert!(parse_canonical(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn large_cache_keeps_exact_lru_order_under_heavy_touching() {
        // Regression for the O(capacity) recency scan: at this size
        // the old implementation made the loop below take quadratic
        // time, and any recency bug shows up as a wrong eviction.
        let n = 4096usize;
        let mut cache = ArtifactCache::new(n);
        for i in 0..n {
            cache.insert(format!("k{i}"), artifact(i as u32));
        }
        // Touch every entry except k0 several times, in a stride that
        // interleaves touches; k0 must stay the exact LRU victim.
        for round in 0..4u32 {
            for i in 1..n {
                let i = (i * 7919) % n;
                if i != 0 {
                    assert!(cache.get(&format!("k{i}")).is_some(), "round {round} k{i}");
                }
            }
        }
        assert_eq!(cache.len(), n);
        assert_eq!(cache.evictions, 0);
        cache.insert("straw".into(), artifact(9999));
        assert_eq!(cache.evictions, 1);
        assert!(cache.get("k0").is_none(), "k0 was the LRU victim");
        assert!(cache.get("k1").is_some());
        assert_eq!(cache.len(), n);
        // The touch queue stays bounded by the compaction rule.
        assert!(cache.order.len() <= 2 * cache.len() + 8);
    }

    #[test]
    fn entries_iterates_live_artifacts_only() {
        let mut cache = ArtifactCache::new(2);
        cache.insert("a".into(), artifact(0));
        cache.insert("b".into(), artifact(1));
        cache.insert("c".into(), artifact(2)); // evicts a
        let mut keys: Vec<_> = cache.entries().map(|(k, _)| k.clone()).collect();
        keys.sort();
        assert_eq!(keys, ["b", "c"]);
    }

    #[test]
    fn formula_size_counts_nodes() {
        assert_eq!(formula_size(&Formula::True), 1);
        assert_eq!(formula_size(&v(0)), 1);
        assert_eq!(formula_size(&v(0).not()), 2);
        assert_eq!(formula_size(&v(0).and(v(1))), 3);
        assert_eq!(formula_size(&Formula::And(vec![v(0), v(1), v(2)])), 4);
        assert_eq!(formula_size(&v(0).implies(v(1).xor(v(2)))), 5);
    }

    #[test]
    fn kb_profile_accumulates_workload_statistics() {
        let mut p = KbProfile::default();
        assert_eq!(p.hit_ratio(), None);
        p.note_queries(3, 12, 6);
        p.note_queries(1, 2, 2);
        assert_eq!(p.query_commands, 2);
        assert_eq!(p.queries, 4);
        assert_eq!(p.query_nodes_total, 14);
        assert_eq!(p.query_nodes_max, 6);
        p.note_revise("dalal", 5);
        p.note_revise("dalal", 9);
        p.note_revise("widtio", 2);
        p.note_compile("dalal", 100);
        p.note_compile("dalal", 40);
        p.cache_hits += 3;
        p.cache_misses += 1;
        let dalal = p.op_mut("dalal");
        assert_eq!(dalal.revises, 2);
        assert_eq!(dalal.input_nodes_total, 14);
        assert_eq!(dalal.input_nodes_max, 9);
        assert_eq!(dalal.compiles, 2);
        assert_eq!(dalal.compile_micros_total, 140);
        assert_eq!(dalal.compile_micros_max, 100);
        assert_eq!(p.op_mut("widtio").revises, 1);
        assert_eq!(p.ops.len(), 2);
        assert_eq!(p.hit_ratio(), Some(0.75));
    }

    #[test]
    fn fresh_kb_answers_against_t() {
        let mut sig = Signature::new();
        let t = revkb_logic::parse("a & b", &mut sig).unwrap();
        let mut kb = KbState::new("k".into(), sig, vec![t]);
        assert_eq!(kb.kind, KbKind::Unrevised);
        assert!(kb.engine.try_entails(&v(0)).unwrap());
        assert!(!kb.engine.try_entails(&v(0).not()).unwrap());
    }
}
