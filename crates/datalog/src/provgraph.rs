//! The provenance graph: derivation records, well-founded derivability,
//! and polynomial extraction.
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

use crate::ast::RuleId;
use crate::node::NodeId;
use orchestra_provenance::{Polynomial, Semiring};
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

/// The provenance graph over interned nodes (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ProvGraph {
    derivations: Vec<Derivation>,
    /// head node index → `(derivation index, fingerprint(rule, body))`
    /// of each of its derivations. The fingerprints are the dedup
    /// filter: a head's list is short (one entry per distinct rule body
    /// deriving it) and contiguous, so a scan of it beats a probe into a
    /// graph-wide hash set.
    by_head: Vec<Vec<(u32, u64)>>,
    /// body node index → indexes of the derivations using it.
    by_body: Vec<Vec<u32>>,
    /// Nodes asserted as base facts (EDB / peer-published inserts).
    /// Probed on every deletion and lineage step; the readers that walk
    /// it sort it first, so node-id order is all they ever see.
    base: FxHashSet<NodeId>,
}

/// The dedup fingerprint of a derivation's `(rule, body)`.
///
/// Hashed with the seedless word hasher ([`FxHasher`]): the body is
/// engine-assigned node ids and the rule id comes from the mapping
/// program, and a fingerprint match is always confirmed by comparing the
/// derivations themselves, so a collision costs one comparison and never
/// drops a derivation.
fn derivation_fingerprint(rule: &RuleId, body: &[NodeId]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    rule.hash(&mut h);
    // Matches `Vec<NodeId>`'s Hash (length prefix + elements).
    body.hash(&mut h);
    h.finish()
}

fn push_adj<T>(adj: &mut Vec<Vec<T>>, i: usize, entry: T) {
    if adj.len() <= i {
        adj.resize_with(i + 1, Vec::new);
    }
    adj[i].push(entry);
}

impl ProvGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ProvGraph::default()
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

    /// Record that `rule` derived `head` from the `body` nodes, in
    /// rule-body order (deduplicated). Returns `true` if new. The body is
    /// borrowed, so a duplicate firing allocates nothing.
    pub fn add_derivation(&mut self, rule: &RuleId, head: NodeId, body: &[NodeId]) -> bool {
        let fp = derivation_fingerprint(rule, body);
        if let Some(recorded) = self.by_head.get(head.index()) {
            // A fingerprint match is confirmed structurally: collisions
            // must not drop genuine derivations.
            if recorded.iter().any(|&(i, f)| {
                let d = &self.derivations[i as usize];
                f == fp && d.rule == *rule && d.body == body
            }) {
                return false;
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "u32 indexes (4B derivations per engine) are an accepted engine limit"
        )]
        let i = u32::try_from(self.derivations.len()).expect("derivation overflow");
        push_adj(&mut self.by_head, head.index(), (i, fp));
        for b in body {
            push_adj(&mut self.by_body, b.index(), i);
        }
        self.derivations.push(Derivation {
            rule: RuleId::clone(rule),
            head,
            body: body.to_vec(),
        });
        true
    }

    /// All derivations of a node.
    pub fn derivations_of(&self, node: NodeId) -> impl Iterator<Item = &Derivation> {
        self.by_head
            .get(node.index())
            .into_iter()
            .flatten()
            .map(|&(i, _)| &self.derivations[i as usize])
    }

    /// All derivations using a node in their body.
    pub fn uses_of(&self, node: NodeId) -> impl Iterator<Item = &Derivation> {
        self.by_body
            .get(node.index())
            .into_iter()
            .flatten()
            .map(|&i| &self.derivations[i as usize])
    }

    /// Total number of derivation records.
    pub fn num_derivations(&self) -> usize {
        self.derivations.len()
    }

    /// All derivation records, in recording order (see module docs).
    pub fn derivations(&self) -> impl Iterator<Item = &Derivation> {
        self.derivations.iter()
    }

    /// Well-founded derivability: the least set containing the (alive) base
    /// facts and closed under derivations. `dead` removes base facts
    /// *before* the fixpoint — this is exactly the provenance-based
    /// deletion-propagation test: cyclic derivations with no base support
    /// die, matching the least-fixpoint semantics of the mapping program.
    pub fn derivable_set(&self, dead: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        // Worklist over derivations with a satisfied-body counter per
        // derivation.
        let mut remaining: Vec<usize> = self.derivations.iter().map(|d| d.body.len()).collect();
        let mut derivable: BTreeSet<NodeId> = BTreeSet::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for b in self.base_nodes() {
            if !dead.contains(&b) && derivable.insert(b) {
                queue.push_back(b);
            }
        }
        // Derivations with empty bodies cannot exist (rules are safe with
        // non-empty bodies), but guard anyway.
        for d in &self.derivations {
            if d.body.is_empty() && derivable.insert(d.head) {
                queue.push_back(d.head);
            }
        }
        while let Some(n) = queue.pop_front() {
            let Some(uses) = self.by_body.get(n.index()) else {
                continue;
            };
            for &i in uses {
                let d = &self.derivations[i as usize];
                // A node occurring k times in one body decrements k times,
                // matching body.len() counting.
                let slot = &mut remaining[i as usize];
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

    /// Record `head ⇐ rule(body)`.
    fn add(g: &mut ProvGraph, rule: &str, head: u32, body: &[u32]) -> bool {
        let d = deriv(rule, head, body);
        g.add_derivation(&d.rule, d.head, &d.body)
    }

    /// base 0, 1; 2 ⇐ m1(0,1); 3 ⇐ m2(2); 3 ⇐ m3(1).
    fn diamond() -> ProvGraph {
        let mut g = ProvGraph::new();
        g.add_base(n(0));
        g.add_base(n(1));
        add(&mut g, "m1", 2, &[0, 1]);
        add(&mut g, "m2", 3, &[2]);
        add(&mut g, "m3", 3, &[1]);
        g
    }

    #[test]
    fn dedup_derivations() {
        let mut g = ProvGraph::new();
        assert!(add(&mut g, "m", 1, &[0]));
        assert!(!add(&mut g, "m", 1, &[0]));
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
        let mut g = ProvGraph::new();
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
        let mut g = ProvGraph::new();
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
        let mut g = ProvGraph::new();
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
        let d = deriv("m1", 2, &[0, 1]);
        assert_eq!(d.to_string(), "n2 ⇐ m1(n0,n1)");
    }

    #[test]
    fn first_proof_lineage_follows_first_derivation() {
        let mut g = ProvGraph::new();
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
        let mut g = ProvGraph::new();
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
        let mut g = ProvGraph::new();
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
        let mut g = ProvGraph::new();
        add(&mut g, "m", 1, &[0]); // body 0 is not base
        assert!(g.first_proof_lineage(n(1)).is_empty());
    }

    #[test]
    fn hashed_base_set_reads_in_node_id_order() {
        // 200 nodes, marked in a scattered (multiplicative permutation)
        // order, plus five derived heads.
        let all: Vec<NodeId> = (0..200).map(n).collect();
        let mut g = ProvGraph::new();
        for i in 0..all.len() {
            g.add_base(all[(i * 77) % all.len()]);
        }
        let heads: Vec<NodeId> = (0..5).map(|s| n(300 + s)).collect();
        for (s, &h) in heads.iter().enumerate().rev() {
            g.add_derivation(&rid("m"), h, &[all[(s * 41) % all.len()]]);
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
        let mut g = ProvGraph::new();
        add(&mut g, "late_head", 2, &[1]);
        add(&mut g, "early_head", 0, &[1]);
        let rules: Vec<&str> = g.derivations().map(|d| d.rule.as_ref()).collect();
        // Recording order, not head order.
        assert_eq!(rules, ["late_head", "early_head"]);
    }
}
