//! The provenance graph: derivation records, well-founded derivability,
//! and polynomial extraction — partitioned by the engine's shard routing.
//!
//! One [`Derivation`] is recorded per distinct rule firing. The graph is
//! finite even for recursive mapping programs (at most one record per
//! `(rule, body-binding)`), which is why Orchestra stores provenance this
//! way rather than as unfolded polynomials.
//!
//! ## Partitioning
//!
//! Since the partitioned-merge refactor the graph is split into one
//! [`ProvShard`] per engine shard, and a derivation lives in the shard of
//! its **head** node ([`NodeId::shard`] — a pure function of tuple
//! content). Each shard owns its derivation store, its head adjacency
//! (which carries the dedup fingerprints) and its body adjacency, so the
//! engine's merge phase hands one [`ProvShardWriter`] to each per-shard
//! sink and records rule firings with **no** cross-shard coordination.
//! The only cross-shard state a firing produces — "body node *b* (shard
//! *t*) is used by derivation *d* (shard *s ≠ t*)" — is staged in the
//! writer's outbox in recording order and spliced afterwards by one
//! sequential pass over the writers in shard order
//! ([`splice_cross_edges`](ProvGraph::splice_cross_edges)), so each
//! target's `by_body` list grows in fixed `(source, recording)` order.
//!
//! **Recording order** is shard-major: [`derivations`](ProvGraph::derivations)
//! yields shard 0's records in local recording order, then shard 1's, and
//! so on. Each shard's local sequence is deterministic (sinks drain their
//! routed firings in fixed task order), so the flattened sequence is
//! byte-comparable across engines fed the same input.

use crate::ast::RuleId;
use crate::node::NodeId;
use orchestra_provenance::{Monomial, Polynomial, Semiring};
use orchestra_relational::{FxHashSet, FxHasher};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// One rule firing: `head` was derived by `rule` from the `body` nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Derivation {
    /// The rule that fired.
    pub rule: RuleId,
    /// The derived node.
    pub head: NodeId,
    /// The body nodes, in rule-body order.
    pub body: Vec<NodeId>,
}

/// Reference to a derivation record: owning shard in the high bits, local
/// index in the low bits — the same packing rule as [`NodeId`], so one
/// `u32` per adjacency entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct DerivRef(u32);

impl DerivRef {
    #[inline]
    fn new(shard: usize, local: usize) -> DerivRef {
        // 2^24 derivations per shard is an accepted engine limit
        // (mirrors the NodeId packing).
        assert!(
            local <= ((1usize << NodeId::LOCAL_BITS) - 1),
            "derivation shard overflow"
        );
        DerivRef(((shard as u32) << NodeId::LOCAL_BITS) | local as u32)
    }

    #[inline]
    fn shard(self) -> usize {
        (self.0 >> NodeId::LOCAL_BITS) as usize
    }

    #[inline]
    fn local(self) -> usize {
        (self.0 & ((1 << NodeId::LOCAL_BITS) - 1)) as usize
    }
}

/// A staged cross-shard body edge: "body node `body` (in a shard other
/// than the derivation's) is used by derivation `dref`". Opaque to the
/// engine — it only hands outboxes back to the graph.
#[derive(Debug, Clone, Copy)]
pub struct CrossEdge {
    body: NodeId,
    dref: DerivRef,
}

/// One shard of the provenance graph (see module docs). All indexes are
/// keyed by **local** node index; `by_body` entries may reference
/// derivations in other shards (a body node used by a foreign head).
#[derive(Debug, Clone, Default)]
pub struct ProvShard {
    derivations: Vec<Derivation>,
    /// local head node index → `(local index, fingerprint(rule, body))`
    /// of each of its derivations. A derivation always lives in its
    /// head's shard, so these entries are plain local indexes. The
    /// fingerprints are the dedup filter: a head's list is short (one
    /// entry per distinct rule body deriving it) and contiguous, so a
    /// scan of it beats a probe into a graph-wide hash set.
    by_head: Vec<Vec<(u32, u64)>>,
    /// local body node index → derivations (any shard) using it.
    by_body: Vec<Vec<DerivRef>>,
}

impl ProvShard {
    /// Record a derivation owned by this shard (`d.head.shard()` is this
    /// shard). Own-shard body edges are applied directly; cross-shard
    /// edges are pushed onto `outbox` in body order. Returns `true` if new.
    fn record(
        &mut self,
        shard: usize,
        d: Derivation,
        fp: u64,
        outbox: &mut Vec<CrossEdge>,
    ) -> bool {
        debug_assert_eq!(d.head.shard(), shard, "derivation routed to wrong shard");
        let local_head = d.head.local();
        if let Some(recorded) = self.by_head.get(local_head) {
            // A fingerprint match is confirmed structurally: collisions
            // must not drop genuine derivations.
            if recorded
                .iter()
                .any(|&(i, f)| f == fp && self.derivations[i as usize] == d)
            {
                return false;
            }
        }
        let local = self.derivations.len();
        let dref = DerivRef::new(shard, local);
        push_adj(&mut self.by_head, local_head, (local as u32, fp));
        for b in &d.body {
            if b.shard() == shard {
                push_adj(&mut self.by_body, b.local(), dref);
            } else {
                outbox.push(CrossEdge { body: *b, dref });
            }
        }
        self.derivations.push(d);
        true
    }
}

/// The provenance graph over interned nodes, partitioned per shard (see
/// module docs).
#[derive(Debug, Clone, Default)]
pub struct ProvGraph {
    /// Grown lazily for the sequential API (hand-built graphs with flat
    /// shard-0 ids never see a second shard); the engine pre-grows to its
    /// configured shard count via [`ensure_shards`](Self::ensure_shards).
    shards: Vec<ProvShard>,
    /// Nodes asserted as base facts (EDB / peer-published inserts).
    /// Probed on every deletion and lineage step; the readers that walk
    /// it sort it first, so node-id order is all they ever see.
    base: FxHashSet<NodeId>,
}

/// The dedup fingerprint of a derivation's `(rule, body)` — pure, so the
/// engine's join phase can precompute it before the merge.
///
/// Hashed with the seedless word hasher ([`FxHasher`]): the body is
/// engine-assigned node ids and the rule id comes from the mapping
/// program, and a fingerprint match is always confirmed by comparing the
/// derivations themselves, so a collision costs one comparison and never
/// drops a derivation.
pub fn derivation_fingerprint(rule: &RuleId, body: &[NodeId]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    rule.hash(&mut h);
    // Matches `Vec<NodeId>`'s Hash (length prefix + elements).
    body.hash(&mut h);
    h.finish()
}

fn fingerprint(d: &Derivation) -> u64 {
    derivation_fingerprint(&d.rule, &d.body)
}

fn push_adj<T>(adj: &mut Vec<Vec<T>>, i: usize, entry: T) {
    if adj.len() <= i {
        adj.resize_with(i + 1, Vec::new);
    }
    adj[i].push(entry);
}

/// A disjoint mutable view of one provenance shard, for the engine's
/// partitioned merge: sink `s` records every firing whose head routes to
/// shard `s` without touching any other shard. Cross-shard body edges
/// accumulate in the writer's outbox in recording order; once the writers
/// are done the engine hands every outbox back to
/// [`ProvGraph::splice_cross_edges`].
#[derive(Debug)]
pub struct ProvShardWriter<'a> {
    shard: usize,
    inner: &'a mut ProvShard,
    /// Staged cross-shard body edges, in recording order.
    outbox: Vec<CrossEdge>,
}

impl ProvShardWriter<'_> {
    /// Record a derivation routed to this shard, with its `(rule, body)`
    /// fingerprint precomputed (see [`derivation_fingerprint`]). Returns
    /// `true` if new.
    pub fn add_derivation_fp(&mut self, d: Derivation, fp: u64) -> bool {
        debug_assert_eq!(fp, fingerprint(&d), "mismatched precomputed fingerprint");
        self.inner.record(self.shard, d, fp, &mut self.outbox)
    }

    /// The staged cross-shard edges, in recording order.
    pub fn into_outbox(self) -> Vec<CrossEdge> {
        self.outbox
    }
}

impl ProvGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ProvGraph::default()
    }

    /// Grow to at least `n` shards (never shrinks). The engine calls this
    /// once with its configured shard count so [`shard_writers`](Self::shard_writers)
    /// yields one writer per sink.
    pub fn ensure_shards(&mut self, n: usize) {
        if self.shards.len() < n {
            self.shards.resize_with(n, ProvShard::default);
        }
    }

    /// Number of shards materialized so far.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One disjoint mutable writer per materialized shard, in shard
    /// order. Writers are built lazily, so skipping one costs nothing.
    pub fn shard_writers(&mut self) -> impl Iterator<Item = ProvShardWriter<'_>> {
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(shard, inner)| ProvShardWriter {
                shard,
                inner,
                outbox: Vec::new(),
            })
    }

    /// Apply staged cross-shard body edges in one sequential pass, in the
    /// order given. Passing the writers' outboxes in shard order makes
    /// every target's `by_body` list grow in `(source shard, recording)`
    /// order.
    pub fn splice_cross_edges(&mut self, edges: impl IntoIterator<Item = CrossEdge>) {
        for e in edges {
            push_adj(
                &mut self.shards[e.body.shard()].by_body,
                e.body.local(),
                e.dref,
            );
        }
    }

    /// Mark a node as a base fact.
    pub fn add_base(&mut self, node: NodeId) {
        self.base.insert(node);
    }

    /// Remove a node's base mark (it may remain derivable via rules).
    pub fn remove_base(&mut self, node: NodeId) -> bool {
        self.base.remove(&node)
    }

    /// True iff the node is currently a base fact.
    pub fn is_base(&self, node: NodeId) -> bool {
        self.base.contains(&node)
    }

    /// The current base set, in node-id order.
    pub fn base_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.base.iter().copied().collect();
        nodes.sort_unstable();
        nodes
    }

    /// Record a derivation (deduplicated). Returns `true` if new.
    pub fn add_derivation(&mut self, d: Derivation) -> bool {
        let fp = fingerprint(&d);
        self.add_derivation_fp(d, fp)
    }

    /// [`add_derivation`](Self::add_derivation) with the `(rule, body)`
    /// fingerprint precomputed (see [`derivation_fingerprint`]) — the
    /// sequential recording path (deletion replay, hand-built graphs):
    /// routes to the head's shard and applies cross-shard body edges
    /// inline.
    pub fn add_derivation_fp(&mut self, d: Derivation, fp: u64) -> bool {
        debug_assert_eq!(fp, fingerprint(&d), "mismatched precomputed fingerprint");
        let max_shard = d
            .body
            .iter()
            .map(|b| b.shard())
            .chain([d.head.shard()])
            .max()
            .unwrap_or(0);
        self.ensure_shards(max_shard + 1);
        let s = d.head.shard();
        let mut outbox = Vec::new();
        let added = self.shards[s].record(s, d, fp, &mut outbox);
        self.splice_cross_edges(outbox);
        added
    }

    #[inline]
    fn deref_derivation(&self, r: DerivRef) -> &Derivation {
        &self.shards[r.shard()].derivations[r.local()]
    }

    /// All derivations of a node.
    pub fn derivations_of(&self, node: NodeId) -> impl Iterator<Item = &Derivation> {
        let shard = self.shards.get(node.shard());
        shard
            .and_then(|s| s.by_head.get(node.local()))
            .into_iter()
            .flatten()
            .map(move |&(i, _)| {
                // analyze: allow(panic) -- `shard` is Some whenever the adjacency entry exists
                &shard.unwrap().derivations[i as usize]
            })
    }

    /// All derivations using a node in their body.
    pub fn uses_of(&self, node: NodeId) -> impl Iterator<Item = &Derivation> {
        self.shards
            .get(node.shard())
            .and_then(|s| s.by_body.get(node.local()))
            .into_iter()
            .flatten()
            .map(move |&r| self.deref_derivation(r))
    }

    /// Total number of derivation records.
    pub fn num_derivations(&self) -> usize {
        self.shards.iter().map(|s| s.derivations.len()).sum()
    }

    /// All derivation records, in **shard-major recording order** (shard
    /// 0's records in local order, then shard 1's, …). Each shard's local
    /// sequence is deterministic under the engine's merge, so this
    /// sequence is comparable across engines fed the same input.
    pub fn derivations(&self) -> impl Iterator<Item = &Derivation> {
        self.shards.iter().flat_map(|s| s.derivations.iter())
    }

    /// Well-founded derivability: the least set containing the (alive) base
    /// facts and closed under derivations. `dead` removes base facts
    /// *before* the fixpoint — this is exactly the provenance-based
    /// deletion-propagation test: cyclic derivations with no base support
    /// die, matching the least-fixpoint semantics of the mapping program.
    pub fn derivable_set(&self, dead: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        // Worklist over derivations with a per-shard satisfied-body
        // counter, indexed [shard][local derivation].
        let mut remaining: Vec<Vec<usize>> = self
            .shards
            .iter()
            .map(|s| s.derivations.iter().map(|d| d.body.len()).collect())
            .collect();
        let mut derivable: BTreeSet<NodeId> = BTreeSet::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for b in self.base_nodes() {
            if !dead.contains(&b) && derivable.insert(b) {
                queue.push_back(b);
            }
        }
        // Derivations with empty bodies cannot exist (rules are safe with
        // non-empty bodies), but guard anyway.
        for s in &self.shards {
            for d in &s.derivations {
                if d.body.is_empty() && derivable.insert(d.head) {
                    queue.push_back(d.head);
                }
            }
        }
        while let Some(n) = queue.pop_front() {
            let Some(uses) = self
                .shards
                .get(n.shard())
                .and_then(|s| s.by_body.get(n.local()))
            else {
                continue;
            };
            for &r in uses {
                let d = self.deref_derivation(r);
                // A node occurring k times in one body decrements k times,
                // matching body.len() counting.
                let slot = &mut remaining[r.shard()][r.local()];
                *slot = slot.saturating_sub(d.body.iter().filter(|&&b| b == n).count());
                if *slot == 0 {
                    let head = d.head;
                    if derivable.insert(head) {
                        queue.push_back(head);
                    }
                }
            }
        }
        derivable
    }

    /// True iff `node` is well-foundedly derivable after deleting `dead`
    /// base facts.
    pub fn is_derivable(&self, node: NodeId, dead: &BTreeSet<NodeId>) -> bool {
        self.derivable_set(dead).contains(&node)
    }

    /// The provenance polynomial of a node in N\[X\], X = base node ids,
    /// summing over **simple proofs** (proof trees that do not repeat a
    /// node along any root-to-leaf path — finite even for recursive
    /// programs; for non-recursive programs this is exactly the standard
    /// polynomial).
    pub fn polynomial(&self, node: NodeId) -> Polynomial<NodeId> {
        let mut path: FxHashSet<NodeId> = FxHashSet::default();
        self.poly_rec(node, &mut path)
    }

    fn poly_rec(&self, node: NodeId, path: &mut FxHashSet<NodeId>) -> Polynomial<NodeId> {
        let mut acc = if self.base.contains(&node) {
            Polynomial::var(node)
        } else {
            Polynomial::zero()
        };
        if !path.insert(node) {
            // Node already on the current path: no simple proof this way.
            return Polynomial::zero();
        }
        for d in self.derivations_of(node) {
            let mut term = Polynomial::one();
            for &b in &d.body {
                let sub = self.poly_rec(b, path);
                if sub.is_zero() {
                    term = Polynomial::zero();
                    break;
                }
                term = term.times(&sub);
            }
            acc.plus_assign(&term);
        }
        path.remove(&node);
        acc
    }

    /// Evaluate the node's provenance in any commutative semiring by
    /// assigning values to base nodes (over simple proofs, like
    /// [`polynomial`](Self::polynomial)).
    pub fn eval<S: Semiring>(&self, node: NodeId, f: impl Fn(NodeId) -> S) -> S {
        self.polynomial(node).eval(|v| f(*v))
    }

    /// The base nodes of the node's **canonical proof**: follow each
    /// node's chronologically first derivation (or its own base fact).
    ///
    /// Because the first derivation of a node was recorded when the node
    /// first appeared, its body nodes all predate it — the canonical proof
    /// is well-founded by construction, so this runs in linear time with
    /// no cycle handling. Update translation uses it to attribute origins
    /// and derive antecedents: it names exactly the transactions whose
    /// data actually produced the tuple, without the exponential cost of
    /// enumerating every simple proof ([`polynomial`](Self::polynomial))
    /// and without the over-approximation of raw reachability
    /// ([`lineage`](Self::lineage)), which pseudo-cyclic derivations in
    /// recursive mapping programs would pollute.
    pub fn first_proof_lineage(&self, node: NodeId) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        let mut visited: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if !visited.insert(n) {
                continue;
            }
            if self.base.contains(&n) {
                out.insert(n);
                continue;
            }
            if let Some(d) = self.derivations_of(n).next() {
                stack.extend(d.body.iter().copied());
            }
        }
        out
    }

    /// The set of base nodes a node's provenance mentions (its lineage).
    pub fn lineage(&self, node: NodeId) -> BTreeSet<NodeId> {
        // Reachability to base nodes through derivations.
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut out: BTreeSet<NodeId> = BTreeSet::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        queue.push_back(node);
        seen.insert(node);
        while let Some(n) = queue.pop_front() {
            if self.base.contains(&n) {
                out.insert(n);
            }
            for d in self.derivations_of(n) {
                for &b in &d.body {
                    if seen.insert(b) {
                        queue.push_back(b);
                    }
                }
            }
        }
        out
    }

    /// Monomial of one derivation's direct body (helper for displays).
    pub fn derivation_monomial(d: &Derivation) -> Monomial<NodeId> {
        Monomial::from_pairs(d.body.iter().map(|&b| (b, 1)))
    }
}

impl fmt::Display for Derivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ⇐ {}(", self.head, self.rule)?;
        for (i, b) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_provenance::Boolean;
    use std::sync::Arc;

    fn rid(s: &str) -> RuleId {
        Arc::from(s)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn deriv(rule: &str, head: u32, body: &[u32]) -> Derivation {
        Derivation {
            rule: rid(rule),
            head: n(head),
            body: body.iter().map(|&b| n(b)).collect(),
        }
    }

    fn sderiv(rule: &str, head: NodeId, body: &[NodeId]) -> Derivation {
        Derivation {
            rule: rid(rule),
            head,
            body: body.to_vec(),
        }
    }

    /// base 0, 1; 2 ⇐ m1(0,1); 3 ⇐ m2(2); 3 ⇐ m3(1).
    fn diamond() -> ProvGraph {
        let mut g = ProvGraph::new();
        g.add_base(n(0));
        g.add_base(n(1));
        g.add_derivation(deriv("m1", 2, &[0, 1]));
        g.add_derivation(deriv("m2", 3, &[2]));
        g.add_derivation(deriv("m3", 3, &[1]));
        g
    }

    #[test]
    fn dedup_derivations() {
        let mut g = ProvGraph::new();
        assert!(g.add_derivation(deriv("m", 1, &[0])));
        assert!(!g.add_derivation(deriv("m", 1, &[0])));
        assert_eq!(g.num_derivations(), 1);
    }

    #[test]
    fn base_flags() {
        let mut g = ProvGraph::new();
        g.add_base(n(0));
        assert!(g.is_base(n(0)));
        assert!(g.remove_base(n(0)));
        assert!(!g.is_base(n(0)));
        assert!(!g.remove_base(n(0)));
    }

    #[test]
    fn derivable_set_full() {
        let g = diamond();
        let d = g.derivable_set(&BTreeSet::new());
        assert_eq!(d, BTreeSet::from([n(0), n(1), n(2), n(3)]));
    }

    #[test]
    fn derivable_set_after_deletion() {
        let g = diamond();
        // Kill node 0: 2 dies (needs both 0 and 1), 3 survives via m3(1).
        let d = g.derivable_set(&BTreeSet::from([n(0)]));
        assert_eq!(d, BTreeSet::from([n(1), n(3)]));
        // Kill node 1: everything but 0 dies.
        let d = g.derivable_set(&BTreeSet::from([n(1)]));
        assert_eq!(d, BTreeSet::from([n(0)]));
        assert!(g.is_derivable(n(3), &BTreeSet::from([n(0)])));
        assert!(!g.is_derivable(n(2), &BTreeSet::from([n(0)])));
    }

    #[test]
    fn cyclic_support_is_not_well_founded() {
        // 1 ⇐ m(2), 2 ⇐ m'(1): a cycle with no base support must die.
        let mut g = ProvGraph::new();
        g.add_derivation(deriv("m", 1, &[2]));
        g.add_derivation(deriv("m'", 2, &[1]));
        let d = g.derivable_set(&BTreeSet::new());
        assert!(d.is_empty());
        // Give 1 base support: both become derivable.
        g.add_base(n(1));
        let d = g.derivable_set(&BTreeSet::new());
        assert_eq!(d, BTreeSet::from([n(1), n(2)]));
    }

    #[test]
    fn duplicate_body_node_requires_single_derivation() {
        // 2 ⇐ m(0,0): node 0 appears twice in the body.
        let mut g = ProvGraph::new();
        g.add_base(n(0));
        g.add_derivation(deriv("m", 2, &[0, 0]));
        let d = g.derivable_set(&BTreeSet::new());
        assert!(d.contains(&n(2)));
    }

    #[test]
    fn polynomial_of_base_node() {
        let g = diamond();
        assert_eq!(g.polynomial(n(0)), Polynomial::var(n(0)));
    }

    #[test]
    fn polynomial_of_derived_nodes() {
        let g = diamond();
        // node 2 = x0 · x1.
        let p2 = g.polynomial(n(2));
        assert_eq!(p2, Polynomial::var(n(0)).times(&Polynomial::var(n(1))));
        // node 3 = x0·x1 + x1.
        let p3 = g.polynomial(n(3));
        assert_eq!(p3.num_terms(), 2);
        assert!(p3.mentions(&n(0)));
        assert!(p3.mentions(&n(1)));
    }

    #[test]
    fn polynomial_handles_cycles_via_simple_proofs() {
        // Identity loop: A(t) base; B(t) ⇐ id1(A(t)); A(t) ⇐ id2(B(t)).
        let mut g = ProvGraph::new();
        g.add_base(n(0)); // A(t)
        g.add_derivation(deriv("id1", 1, &[0])); // B(t) from A(t)
        g.add_derivation(deriv("id2", 0, &[1])); // A(t) from B(t)
        let pa = g.polynomial(n(0));
        // Simple proofs of A(t): base only (the round trip repeats A(t)).
        assert_eq!(pa, Polynomial::var(n(0)));
        let pb = g.polynomial(n(1));
        assert_eq!(pb, Polynomial::var(n(0)));
    }

    #[test]
    fn derived_and_base_node_sums_both() {
        // Node 1 is base AND derivable from 0.
        let mut g = ProvGraph::new();
        g.add_base(n(0));
        g.add_base(n(1));
        g.add_derivation(deriv("m", 1, &[0]));
        let p = g.polynomial(n(1));
        // x1 + x0.
        assert_eq!(p, Polynomial::var(n(1)).plus(&Polynomial::var(n(0))));
    }

    #[test]
    fn eval_boolean_matches_derivability() {
        let g = diamond();
        for dead in [
            BTreeSet::new(),
            BTreeSet::from([n(0)]),
            BTreeSet::from([n(1)]),
            BTreeSet::from([n(0), n(1)]),
        ] {
            for node in [n(2), n(3)] {
                let via_poly = g.eval(node, |b| Boolean(!dead.contains(&b)));
                assert_eq!(
                    via_poly.0,
                    g.is_derivable(node, &dead),
                    "node {node}, dead {dead:?}"
                );
            }
        }
    }

    #[test]
    fn lineage_reaches_base() {
        let g = diamond();
        assert_eq!(g.lineage(n(3)), BTreeSet::from([n(0), n(1)]));
        assert_eq!(g.lineage(n(0)), BTreeSet::from([n(0)]));
    }

    #[test]
    fn uses_and_derivations_of() {
        let g = diamond();
        assert_eq!(g.derivations_of(n(3)).count(), 2);
        assert_eq!(g.uses_of(n(1)).count(), 2); // m1 and m3
        assert_eq!(g.uses_of(n(3)).count(), 0);
    }

    #[test]
    fn display_derivation() {
        let d = deriv("m1", 2, &[0, 1]);
        assert_eq!(d.to_string(), "n2 ⇐ m1(n0,n1)");
    }

    #[test]
    fn first_proof_lineage_follows_first_derivation() {
        let mut g = ProvGraph::new();
        g.add_base(n(0));
        g.add_base(n(1));
        // Node 2 first derived from 0, later also from 1.
        g.add_derivation(deriv("m1", 2, &[0]));
        g.add_derivation(deriv("m2", 2, &[1]));
        assert_eq!(g.first_proof_lineage(n(2)), BTreeSet::from([n(0)]));
        // Full lineage sees both.
        assert_eq!(g.lineage(n(2)), BTreeSet::from([n(0), n(1)]));
    }

    #[test]
    fn first_proof_lineage_of_base_is_itself() {
        let mut g = ProvGraph::new();
        g.add_base(n(0));
        // Base nodes stop the walk even if they are also derived.
        g.add_base(n(1));
        g.add_derivation(deriv("m", 1, &[0]));
        assert_eq!(g.first_proof_lineage(n(1)), BTreeSet::from([n(1)]));
        assert_eq!(g.first_proof_lineage(n(0)), BTreeSet::from([n(0)]));
    }

    #[test]
    fn first_proof_lineage_excludes_pseudo_cyclic_support() {
        // The scenario-4 pattern: node 3's first proof uses bases 0,1;
        // a later derivation routes through node 4, which derives from an
        // unrelated base 2. Reachability would include 2; the canonical
        // proof must not.
        let mut g = ProvGraph::new();
        g.add_base(n(0));
        g.add_base(n(1));
        g.add_base(n(2));
        g.add_derivation(deriv("join", 3, &[0, 1])); // first proof
        g.add_derivation(deriv("echo", 4, &[2]));
        g.add_derivation(deriv("rejoin", 3, &[4])); // later alternative
        assert_eq!(g.first_proof_lineage(n(3)), BTreeSet::from([n(0), n(1)]));
        assert_eq!(g.lineage(n(3)), BTreeSet::from([n(0), n(1), n(2)]));
    }

    #[test]
    fn first_proof_lineage_of_unsupported_node_is_empty() {
        let mut g = ProvGraph::new();
        g.add_derivation(deriv("m", 1, &[0])); // body 0 is not base
        assert!(g.first_proof_lineage(n(1)).is_empty());
    }

    #[test]
    fn cross_shard_derivations_route_to_head_shard() {
        // Heads in shards 1 and 2, bodies scattered across shards 0–2.
        let mut g = ProvGraph::new();
        let b0 = NodeId::new(0, 0);
        let b1 = NodeId::new(1, 0);
        let h1 = NodeId::new(1, 1);
        let h2 = NodeId::new(2, 0);
        g.add_base(b0);
        g.add_base(b1);
        g.add_derivation(sderiv("m1", h1, &[b0, b1]));
        g.add_derivation(sderiv("m2", h2, &[h1, b0]));
        assert_eq!(g.num_derivations(), 2);
        // Adjacency works across the shard boundary in both directions.
        assert_eq!(g.derivations_of(h1).count(), 1);
        assert_eq!(g.uses_of(b0).count(), 2, "b0 used by m1 (s1) and m2 (s2)");
        assert_eq!(g.uses_of(h1).count(), 1);
        // Well-founded derivability sees through shards.
        let full = g.derivable_set(&BTreeSet::new());
        assert_eq!(full, BTreeSet::from([b0, b1, h1, h2]));
        let dead = g.derivable_set(&BTreeSet::from([b1]));
        assert_eq!(dead, BTreeSet::from([b0]), "h1 and h2 lose support");
        assert_eq!(g.lineage(h2), BTreeSet::from([b0, b1]));
        assert_eq!(g.first_proof_lineage(h2), BTreeSet::from([b0, b1]));
        // Dedup is per (head shard, fingerprint).
        assert!(!g.add_derivation(sderiv("m1", h1, &[b0, b1])));
    }

    #[test]
    fn hashed_base_set_reads_in_node_id_order() {
        // 5 shards × 40 locals, marked in a scattered (multiplicative
        // permutation) order, plus one derived head per shard.
        let all: Vec<NodeId> = (0..5)
            .flat_map(|s| (0..40).map(move |l| NodeId::new(s, l)))
            .collect();
        let mut g = ProvGraph::new();
        for i in 0..all.len() {
            g.add_base(all[(i * 77) % all.len()]);
        }
        let heads: Vec<NodeId> = (0..5).map(|s| NodeId::new(s, 100)).collect();
        for (s, &h) in heads.iter().enumerate().rev() {
            g.add_derivation(sderiv("m", h, &[all[(s * 41) % all.len()]]));
        }
        assert_eq!(g.base_nodes(), all, "base_nodes() is in node-id order");

        let mut expect: Vec<NodeId> = all.iter().chain(&heads).copied().collect();
        expect.sort_unstable();
        let got: Vec<NodeId> = g.derivable_set(&BTreeSet::new()).into_iter().collect();
        assert_eq!(got, expect, "derivable_set walks in node-id order");

        // is_base / remove_base round-trip for every third node.
        let gone: Vec<NodeId> = all.iter().copied().step_by(3).collect();
        for &n in gone.iter().rev() {
            assert!(g.is_base(n));
            assert!(g.remove_base(n));
            assert!(!g.is_base(n));
            assert!(!g.remove_base(n));
        }
        let kept: Vec<NodeId> = all.iter().copied().filter(|n| !gone.contains(n)).collect();
        assert_eq!(g.base_nodes(), kept);
        for &n in &gone {
            g.add_base(n);
        }
        assert_eq!(g.base_nodes(), all);
    }

    #[test]
    fn derivations_iterate_shard_major() {
        let mut g = ProvGraph::new();
        let h2 = NodeId::new(2, 0);
        let h0 = NodeId::new(0, 0);
        let b = NodeId::new(1, 0);
        g.add_derivation(sderiv("late_shard", h2, &[b]));
        g.add_derivation(sderiv("early_shard", h0, &[b]));
        let rules: Vec<&str> = g.derivations().map(|d| d.rule.as_ref()).collect();
        // Shard-major: shard 0's record first even though it was added second.
        assert_eq!(rules, ["early_shard", "late_shard"]);
    }

    #[test]
    fn writer_pass_matches_sequential_recording() {
        // The same derivations recorded (a) sequentially and (b) through
        // per-shard writers + outbox splice must produce identical
        // adjacency, dedup, and iteration order.
        let b0 = NodeId::new(0, 0);
        let b1 = NodeId::new(1, 0);
        let h1 = NodeId::new(1, 1);
        let h2 = NodeId::new(2, 0);
        let ds = [
            sderiv("m1", h1, &[b0, b1]),
            sderiv("m2", h2, &[h1, b0]),
            sderiv("m1", h1, &[b0, b1]), // duplicate
        ];

        let mut seq = ProvGraph::new();
        seq.ensure_shards(3);
        let added_seq: Vec<bool> = ds.iter().map(|d| seq.add_derivation(d.clone())).collect();

        let mut par = ProvGraph::new();
        par.ensure_shards(3);
        let mut added_par = Vec::new();
        let mut writers: Vec<_> = par.shard_writers().collect();
        for d in &ds {
            let fp = derivation_fingerprint(&d.rule, &d.body);
            added_par.push(writers[d.head.shard()].add_derivation_fp(d.clone(), fp));
        }
        let outboxes: Vec<_> = writers
            .into_iter()
            .map(ProvShardWriter::into_outbox)
            .collect();
        par.splice_cross_edges(outboxes.into_iter().flatten());

        assert_eq!(added_seq, added_par);
        assert_eq!(added_seq, vec![true, true, false]);
        let a: Vec<_> = seq.derivations().collect();
        let b: Vec<_> = par.derivations().collect();
        assert_eq!(a, b);
        for node in [b0, b1, h1, h2] {
            let ua: Vec<_> = seq.uses_of(node).collect();
            let ub: Vec<_> = par.uses_of(node).collect();
            assert_eq!(ua, ub, "uses_of({node})");
            let da: Vec<_> = seq.derivations_of(node).collect();
            let db: Vec<_> = par.derivations_of(node).collect();
            assert_eq!(da, db, "derivations_of({node})");
        }
    }
}
