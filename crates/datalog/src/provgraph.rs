//! The provenance graph: derivation records, polynomial extraction and
//! lineage.
//!
//! One [`Derivation`] is recorded per distinct rule firing. The graph is
//! finite even for recursive mapping programs (at most one record per
//! `(rule, body-binding)`), which is why Orchestra stores provenance this
//! way rather than as unfolded polynomials.
//!
//! Derivations are kept in **recording order**
//! ([`derivations`](ProvGraph::derivations)); the engine records them in
//! an order that is a pure function of its input, so the sequence is
//! byte-comparable across engines fed the same input.
//!
//! ## Layout
//!
//! Every fact lives in a flat, index-addressed array, so recording a
//! firing allocates nothing beyond the amortized growth of those arrays:
//!
//! * **Records**, one fixed-size record per derivation in recording
//!   order: the rule's dense index (the engine's compiled rule index;
//!   the graph keeps the [`RuleId`]s), the head, the body's offset and
//!   length in the body arena, the next derivation of the same head, and
//!   the dedup fingerprint.
//! * **The body arena**: every body's node ids back to back, and next to
//!   each body slot its derivation and the next slot that uses the same
//!   node.
//! * **Per node**, the first and last derivation it heads and the first
//!   and last body slot that uses it. Lists grow at the tail, so
//!   [`derivations_of`](ProvGraph::derivations_of) lists a node's
//!   derivations oldest first and [`uses_of`](ProvGraph::uses_of) lists
//!   its uses in recording order, once per body occurrence.
//!
//! Records and slots are linked by index rather than packed per node, so
//! unlinking one onto a free list would move no other.

use crate::ast::RuleId;
use crate::node::NodeId;
use orchestra_provenance::{Polynomial, Semiring};
use orchestra_relational::{FxHashSet, FxHasher};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};

/// One rule firing: `head` was derived by `rule` from the `body` nodes —
/// a view borrowed from the [`ProvGraph`] that recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Derivation<'g> {
    /// The rule that fired.
    pub rule: &'g RuleId,
    /// The derived node.
    pub head: NodeId,
    /// The body nodes, in rule-body order.
    pub body: &'g [NodeId],
}

/// The end of a list threaded through records or body slots.
const NIL: u32 = u32::MAX;

/// One derivation (see the module docs' layout).
#[derive(Debug, Clone, Copy)]
struct Record {
    rule: u32,
    head: NodeId,
    body_at: u32,
    body_len: u32,
    /// The next derivation of `head`, or `NIL`.
    next: u32,
    /// The dedup filter: a head's list is short (one record per distinct
    /// rule body deriving it), so walking it beats a probe into a
    /// graph-wide hash set.
    fp: u32,
}

/// What a body slot belongs to: its derivation, and the next slot that
/// uses the same node (or `NIL`).
#[derive(Debug, Clone, Copy)]
struct Use {
    deriv: u32,
    next: u32,
}

/// The two ends of one list, `NIL` while it is empty.
#[derive(Debug, Clone, Copy)]
struct Ends {
    first: u32,
    last: u32,
}

impl Ends {
    const EMPTY: Ends = Ends {
        first: NIL,
        last: NIL,
    };

    /// Append `new` to the list, linking it from the old last item's
    /// `next` field (picked out of `items` by `next`).
    fn push<T>(&mut self, items: &mut [T], next: fn(&mut T) -> &mut u32, new: u32) {
        match self.last {
            NIL => self.first = new,
            last => *next(&mut items[last as usize]) = new,
        }
        self.last = new;
    }
}

/// A node's lists: the derivations it heads and the body slots using it.
#[derive(Debug, Clone, Copy)]
struct NodeLinks {
    heads: Ends,
    uses: Ends,
}

impl NodeLinks {
    const EMPTY: NodeLinks = NodeLinks {
        heads: Ends::EMPTY,
        uses: Ends::EMPTY,
    };
}

/// The provenance graph over interned nodes (see module docs).
#[derive(Debug, Clone)]
pub struct ProvGraph {
    /// Rule index → rule id.
    rules: Vec<RuleId>,
    /// Derivation index → record, in recording order.
    records: Vec<Record>,
    /// The body arena, and per body slot its [`Use`].
    body: Vec<NodeId>,
    uses: Vec<Use>,
    /// Node index → its lists; grown on demand.
    links: Vec<NodeLinks>,
    /// Nodes asserted as base facts (EDB / peer-published inserts).
    /// Probed on every deletion and lineage step; the readers that walk
    /// it sort it first, so node-id order is all they ever see.
    base: FxHashSet<NodeId>,
}

/// The dedup fingerprint of a derivation's `(rule, body)`.
///
/// Hashed with the seedless word hasher ([`FxHasher`]): the rule index
/// and the body's node ids are engine-assigned, and a fingerprint match
/// is always confirmed by comparing the records themselves, so a
/// collision costs one comparison and never drops a derivation.
fn fingerprint(rule: u32, body: &[NodeId]) -> u32 {
    let mut h = FxHasher::default();
    h.write_u32(rule);
    NodeId::hash_slice(body, &mut h);
    // The low bits are the product's well-mixed high bits.
    h.finish() as u32
}

/// The index the next entry of an array of `len` gets, if the `extra`
/// entries from there on all get indexes below `NIL`, so lists can link
/// them.
fn next_index(len: usize, extra: usize) -> Option<u32> {
    u32::try_from(len + extra).ok().map(|_| len as u32)
}

impl ProvGraph {
    /// An empty graph whose rule index `i` names `rules[i]`.
    pub(crate) fn new(rules: Vec<RuleId>) -> Self {
        ProvGraph {
            rules,
            records: Vec::new(),
            body: Vec::new(),
            uses: Vec::new(),
            links: Vec::new(),
            base: FxHashSet::default(),
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
    #[cfg(test)]
    fn base_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.base.iter().copied().collect();
        nodes.sort_unstable();
        nodes
    }

    /// Record that the rule with index `rule` derived `head` from the
    /// `body` nodes, in rule-body order (deduplicated). Returns `true` if
    /// new. A duplicate firing allocates nothing, and a new one only
    /// grows the graph's arrays.
    pub(crate) fn add_derivation(&mut self, rule: u32, head: NodeId, body: &[NodeId]) -> bool {
        debug_assert!((rule as usize) < self.rules.len(), "unknown rule index");
        let fp = fingerprint(rule, body);
        // A fingerprint match is confirmed structurally: collisions must
        // not drop genuine derivations.
        if self
            .records_of(head)
            .any(|r| r.fp == fp && r.rule == rule && self.body_of(r) == body)
        {
            return false;
        }
        #[expect(
            clippy::expect_used,
            reason = "u32 indexes (4B derivations or body slots per engine) are an accepted engine limit"
        )]
        let (i, at) = next_index(self.records.len(), 1)
            .zip(next_index(self.body.len(), body.len()))
            .expect("derivation overflow");
        let top = body.iter().fold(head.index(), |m, b| m.max(b.index()));
        if self.links.len() <= top {
            self.links.resize(top + 1, NodeLinks::EMPTY);
        }
        self.links[head.index()]
            .heads
            .push(&mut self.records, |r| &mut r.next, i);
        self.records.push(Record {
            rule,
            head,
            body_at: at,
            body_len: body.len() as u32,
            next: NIL,
            fp,
        });
        for (slot, &b) in (at..).zip(body) {
            self.links[b.index()]
                .uses
                .push(&mut self.uses, |u| &mut u.next, slot);
            self.body.push(b);
            self.uses.push(Use {
                deriv: i,
                next: NIL,
            });
        }
        true
    }

    fn body_of(&self, r: &Record) -> &[NodeId] {
        &self.body[r.body_at as usize..][..r.body_len as usize]
    }

    fn view(&self, r: &Record) -> Derivation<'_> {
        Derivation {
            rule: &self.rules[r.rule as usize],
            head: r.head,
            body: self.body_of(r),
        }
    }

    /// The records of the derivations of `node`, oldest first.
    fn records_of(&self, node: NodeId) -> impl Iterator<Item = &Record> {
        let mut d = self.links.get(node.index()).map_or(NIL, |l| l.heads.first);
        std::iter::from_fn(move || {
            let r = self.records.get(d as usize)?;
            d = r.next;
            Some(r)
        })
    }

    /// The derivation index behind each body slot using `node`, in
    /// recording order.
    fn uses_by_index(&self, node: NodeId) -> impl Iterator<Item = u32> + '_ {
        let mut s = self.links.get(node.index()).map_or(NIL, |l| l.uses.first);
        std::iter::from_fn(move || {
            let u = self.uses.get(s as usize)?;
            s = u.next;
            Some(u.deriv)
        })
    }

    /// All derivations of a node, oldest first.
    pub fn derivations_of(&self, node: NodeId) -> impl Iterator<Item = Derivation<'_>> {
        self.records_of(node).map(|r| self.view(r))
    }

    /// All derivations using a node in their body, in recording order,
    /// once per occurrence of the node in the body.
    pub fn uses_of(&self, node: NodeId) -> impl Iterator<Item = Derivation<'_>> {
        self.uses_by_index(node)
            .map(|d| self.view(&self.records[d as usize]))
    }

    /// Total number of derivation records.
    pub fn num_derivations(&self) -> usize {
        self.records.len()
    }

    /// All derivation records, in recording order (see module docs).
    pub fn derivations(&self) -> impl Iterator<Item = Derivation<'_>> {
        self.records.iter().map(|r| self.view(r))
    }

    /// Well-founded derivability: the least set containing the (alive) base
    /// facts and closed under derivations. `dead` removes base facts
    /// *before* the fixpoint — this is exactly the provenance-based
    /// deletion-propagation test: cyclic derivations with no base support
    /// die, matching the least-fixpoint semantics of the mapping program.
    /// The engine runs the same test restricted to a deletion's affected
    /// region; this whole-graph form is the referee its tests use.
    #[cfg(test)]
    fn derivable_set(&self, dead: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        // Worklist over derivations with an unsatisfied-body-slot counter
        // per derivation.
        let mut remaining: Vec<u32> = self.records.iter().map(|r| r.body_len).collect();
        let mut derivable: BTreeSet<NodeId> = BTreeSet::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for b in self.base_nodes() {
            if !dead.contains(&b) && derivable.insert(b) {
                queue.push_back(b);
            }
        }
        // Derivations with empty bodies cannot exist (rules are safe with
        // non-empty bodies), but guard anyway.
        for r in &self.records {
            if r.body_len == 0 && derivable.insert(r.head) {
                queue.push_back(r.head);
            }
        }
        while let Some(n) = queue.pop_front() {
            // One use per body occurrence: a node occurring k times in a
            // body satisfies k slots.
            for d in self.uses_by_index(n) {
                let slot = &mut remaining[d as usize];
                *slot = slot.saturating_sub(1);
                if *slot == 0 {
                    let head = self.records[d as usize].head;
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
    #[cfg(test)]
    fn is_derivable(&self, node: NodeId, dead: &BTreeSet<NodeId>) -> bool {
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
            for &b in d.body {
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
                for &b in d.body {
                    if seen.insert(b) {
                        queue.push_back(b);
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for Derivation<'_> {
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

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&b| n(b)).collect()
    }

    /// The index of the rule named `rule`, registering the name on first
    /// use.
    fn rule_ix(g: &mut ProvGraph, rule: &str) -> u32 {
        let i = match g.rules.iter().position(|r| r.as_ref() == rule) {
            Some(i) => i,
            None => {
                g.rules.push(rid(rule));
                g.rules.len() - 1
            }
        };
        i as u32
    }

    /// Record `head ⇐ rule(body)`.
    fn add(g: &mut ProvGraph, rule: &str, head: u32, body: &[u32]) -> bool {
        let r = rule_ix(g, rule);
        g.add_derivation(r, n(head), &nodes(body))
    }

    /// base 0, 1; 2 ⇐ m1(0,1); 3 ⇐ m2(2); 3 ⇐ m3(1).
    fn diamond() -> ProvGraph {
        let mut g = ProvGraph::new(Vec::new());
        g.add_base(n(0));
        g.add_base(n(1));
        add(&mut g, "m1", 2, &[0, 1]);
        add(&mut g, "m2", 3, &[2]);
        add(&mut g, "m3", 3, &[1]);
        g
    }

    #[test]
    fn dedup_derivations() {
        let mut g = ProvGraph::new(Vec::new());
        assert!(add(&mut g, "m", 1, &[0]));
        assert!(!add(&mut g, "m", 1, &[0]));
        assert_eq!(g.num_derivations(), 1);
    }

    #[test]
    fn base_flags() {
        let mut g = ProvGraph::new(Vec::new());
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
        let mut g = ProvGraph::new(Vec::new());
        add(&mut g, "m", 1, &[2]);
        add(&mut g, "m'", 2, &[1]);
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
        let mut g = ProvGraph::new(Vec::new());
        g.add_base(n(0));
        add(&mut g, "m", 2, &[0, 0]);
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
        let mut g = ProvGraph::new(Vec::new());
        g.add_base(n(0)); // A(t)
        add(&mut g, "id1", 1, &[0]); // B(t) from A(t)
        add(&mut g, "id2", 0, &[1]); // A(t) from B(t)
        let pa = g.polynomial(n(0));
        // Simple proofs of A(t): base only (the round trip repeats A(t)).
        assert_eq!(pa, Polynomial::var(n(0)));
        let pb = g.polynomial(n(1));
        assert_eq!(pb, Polynomial::var(n(0)));
    }

    #[test]
    fn derived_and_base_node_sums_both() {
        // Node 1 is base AND derivable from 0.
        let mut g = ProvGraph::new(Vec::new());
        g.add_base(n(0));
        g.add_base(n(1));
        add(&mut g, "m", 1, &[0]);
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
                let via_poly = g.polynomial(node).eval(|b| Boolean(!dead.contains(b)));
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
        let rule = rid("m1");
        let body = nodes(&[0, 1]);
        let d = Derivation {
            rule: &rule,
            head: n(2),
            body: &body,
        };
        assert_eq!(d.to_string(), "n2 ⇐ m1(n0,n1)");
    }

    #[test]
    fn first_proof_lineage_follows_first_derivation() {
        let mut g = ProvGraph::new(Vec::new());
        g.add_base(n(0));
        g.add_base(n(1));
        // Node 2 first derived from 0, later also from 1.
        add(&mut g, "m1", 2, &[0]);
        add(&mut g, "m2", 2, &[1]);
        assert_eq!(g.first_proof_lineage(n(2)), BTreeSet::from([n(0)]));
        // Full lineage sees both.
        assert_eq!(g.lineage(n(2)), BTreeSet::from([n(0), n(1)]));
    }

    #[test]
    fn first_proof_lineage_of_base_is_itself() {
        let mut g = ProvGraph::new(Vec::new());
        g.add_base(n(0));
        // Base nodes stop the walk even if they are also derived.
        g.add_base(n(1));
        add(&mut g, "m", 1, &[0]);
        assert_eq!(g.first_proof_lineage(n(1)), BTreeSet::from([n(1)]));
        assert_eq!(g.first_proof_lineage(n(0)), BTreeSet::from([n(0)]));
    }

    #[test]
    fn first_proof_lineage_excludes_pseudo_cyclic_support() {
        // The scenario-4 pattern: node 3's first proof uses bases 0,1;
        // a later derivation routes through node 4, which derives from an
        // unrelated base 2. Reachability would include 2; the canonical
        // proof must not.
        let mut g = ProvGraph::new(Vec::new());
        g.add_base(n(0));
        g.add_base(n(1));
        g.add_base(n(2));
        add(&mut g, "join", 3, &[0, 1]); // first proof
        add(&mut g, "echo", 4, &[2]);
        add(&mut g, "rejoin", 3, &[4]); // later alternative
        assert_eq!(g.first_proof_lineage(n(3)), BTreeSet::from([n(0), n(1)]));
        assert_eq!(g.lineage(n(3)), BTreeSet::from([n(0), n(1), n(2)]));
    }

    #[test]
    fn first_proof_lineage_of_unsupported_node_is_empty() {
        let mut g = ProvGraph::new(Vec::new());
        add(&mut g, "m", 1, &[0]); // body 0 is not base
        assert!(g.first_proof_lineage(n(1)).is_empty());
    }

    #[test]
    fn hashed_base_set_reads_in_node_id_order() {
        // 200 nodes, marked in a scattered (multiplicative permutation)
        // order, plus five derived heads.
        let all: Vec<NodeId> = (0..200).map(n).collect();
        let mut g = ProvGraph::new(Vec::new());
        for i in 0..all.len() {
            g.add_base(all[(i * 77) % all.len()]);
        }
        let heads: Vec<NodeId> = (0..5).map(|s| n(300 + s)).collect();
        for (s, &h) in heads.iter().enumerate().rev() {
            let m = rule_ix(&mut g, "m");
            g.add_derivation(m, h, &[all[(s * 41) % all.len()]]);
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
    fn derivations_iterate_in_recording_order() {
        let mut g = ProvGraph::new(Vec::new());
        add(&mut g, "late_head", 2, &[1]);
        add(&mut g, "early_head", 0, &[1]);
        let rules: Vec<&str> = g.derivations().map(|d| d.rule.as_ref()).collect();
        // Recording order, not head order.
        assert_eq!(rules, ["late_head", "early_head"]);
    }

    /// An owned reference for the flat store: every distinct derivation
    /// as `(rule, head, body)`, in recording order.
    type Model = Vec<(u32, NodeId, Vec<NodeId>)>;

    fn model_first_proof(m: &Model, base: &BTreeSet<NodeId>, node: NodeId) -> BTreeSet<NodeId> {
        let (mut out, mut seen, mut stack) = (BTreeSet::new(), BTreeSet::new(), vec![node]);
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            if base.contains(&x) {
                out.insert(x);
            } else if let Some((_, _, body)) = m.iter().find(|(_, h, _)| *h == x) {
                stack.extend(body.iter().copied());
            }
        }
        out
    }

    fn model_lineage(m: &Model, base: &BTreeSet<NodeId>, node: NodeId) -> BTreeSet<NodeId> {
        let (mut seen, mut stack) = (BTreeSet::from([node]), vec![node]);
        while let Some(x) = stack.pop() {
            for (_, _, body) in m.iter().filter(|(_, h, _)| *h == x) {
                for &b in body {
                    if seen.insert(b) {
                        stack.push(b);
                    }
                }
            }
        }
        seen.intersection(base).copied().collect()
    }

    fn model_poly(
        m: &Model,
        base: &BTreeSet<NodeId>,
        node: NodeId,
        path: &mut Vec<NodeId>,
    ) -> Polynomial<NodeId> {
        let mut acc = if base.contains(&node) {
            Polynomial::var(node)
        } else {
            Polynomial::zero()
        };
        if path.contains(&node) {
            return Polynomial::zero();
        }
        path.push(node);
        for (_, _, body) in m.iter().filter(|(_, h, _)| *h == node) {
            let mut term = Polynomial::one();
            for &b in body {
                term = term.times(&model_poly(m, base, b, path));
            }
            acc.plus_assign(&term);
        }
        path.pop();
        acc
    }

    /// Random `add_derivation` sequences — small node ranges, so bodies
    /// repeat nodes and firings repeat — read back through every
    /// accessor against the owned model.
    #[test]
    fn flat_store_matches_owned_model() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const RULES: [&str; 3] = ["r0", "r1", "r2"];
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let width = rng.random_range(2..7u32);
            let mut g = ProvGraph::new(RULES.iter().map(|r| rid(r)).collect());
            let mut m: Model = Vec::new();
            let base: BTreeSet<NodeId> =
                (0..width).filter(|_| rng.random_bool(0.4)).map(n).collect();
            for &b in &base {
                g.add_base(b);
            }
            for step in 0..rng.random_range(1..30usize) {
                let rule = rng.random_range(0..RULES.len() as u32);
                let head = n(rng.random_range(0..width));
                let body: Vec<NodeId> = (0..rng.random_range(1..4usize))
                    .map(|_| n(rng.random_range(0..width)))
                    .collect();
                let known = m.iter().any(|(r, h, b)| (*r, *h, b) == (rule, head, &body));
                assert_eq!(
                    g.add_derivation(rule, head, &body),
                    !known,
                    "seed {seed} step {step}"
                );
                if !known {
                    m.push((rule, head, body));
                }
            }
            let owned = |d: Derivation<'_>| {
                let r = RULES.iter().position(|r| **r == **d.rule).unwrap() as u32;
                (r, d.head, d.body.to_vec())
            };
            assert_eq!(g.num_derivations(), m.len());
            assert_eq!(
                g.derivations().map(owned).collect::<Model>(),
                m,
                "seed {seed}"
            );
            for node in (0..width + 1).map(n) {
                let heads: Model = m.iter().filter(|(_, h, _)| *h == node).cloned().collect();
                let of: Model = g.derivations_of(node).map(owned).collect();
                assert_eq!(of, heads, "seed {seed} derivations_of {node}");
                assert_eq!(
                    g.derivations_of(node).next().map(owned),
                    heads.first().cloned()
                );
                // One use per body occurrence, in recording order.
                let uses: Model = m
                    .iter()
                    .flat_map(|d| d.2.iter().filter(|&&b| b == node).map(move |_| d.clone()))
                    .collect();
                assert_eq!(
                    g.uses_of(node).map(owned).collect::<Model>(),
                    uses,
                    "seed {seed}"
                );
                assert_eq!(
                    g.first_proof_lineage(node),
                    model_first_proof(&m, &base, node)
                );
                assert_eq!(g.lineage(node), model_lineage(&m, &base, node));
                let poly = model_poly(&m, &base, node, &mut Vec::new());
                assert_eq!(g.polynomial(node), poly, "seed {seed} polynomial {node}");
            }
        }
    }
}
