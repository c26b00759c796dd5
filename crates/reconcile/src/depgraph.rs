//! The transaction dependency graph, over dense ids.
//!
//! "Data dependencies between operations in different transactions …
//! induce a dependency graph on the transactions themselves that must be
//! respected when considering which transactions to accept or reject." (§2)
//!
//! Every [`TxnId`] is looked up once, where it enters — a transaction
//! being inserted, or an antecedent it cites — and gets a dense `u32` in
//! first-seen order. A cited transaction that has not arrived yet (the
//! archive may deliver out of order) is a *forward reference* until its
//! own insert fills in its antecedents. Adjacency is two `Vec`s indexed
//! by the dense id, and the walks mark visited nodes in one
//! epoch-stamped array kept across calls, so once the scratch has grown
//! a walk allocates nothing.
//!
//! A transaction can be *sealed* once nothing will walk or order its
//! dependents again: its dependent list is dropped and later inserts
//! citing it record no edge back. Its antecedent edges stay.
//!
//! Dense ids follow first sight, not `TxnId` order. The walks return
//! sets in no particular order; the one order this module fixes — the
//! ready set of [`DepGraph::topo_order`] — breaks ties by `TxnId`.

use crate::error::ReconcileError;
use crate::Result;
use orchestra_updates::TxnId;
use std::collections::{BTreeSet, HashMap};

/// The dependency DAG of every transaction a reconciler has seen. Edges
/// point from a transaction to its antecedents (the transactions it
/// depends on) and back.
#[derive(Debug, Clone, Default)]
pub(crate) struct DepGraph {
    /// `TxnId` → dense id. Only probed, never walked; the ids come from
    /// other peers, so std's keyed hasher.
    index: HashMap<TxnId, u32>,
    /// Dense id → `TxnId`.
    ids: Vec<TxnId>,
    stage: Vec<Stage>,
    antecedents: Vec<Box<[u32]>>,
    dependents: Vec<Vec<u32>>,
    /// Walk scratch: a node is visited iff its stamp equals `epoch`.
    stamp: Vec<u32>,
    epoch: u32,
    /// Walk scratch: the depth-first stack, and topological in-degrees.
    stack: Vec<u32>,
    degree: Vec<u32>,
}

impl DepGraph {
    /// Number of transactions, forward references included.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The dense id of a known transaction.
    pub(crate) fn get(&self, id: &TxnId) -> Option<u32> {
        self.index.get(id).copied()
    }

    /// The `TxnId` of a dense id.
    pub(crate) fn id(&self, n: u32) -> &TxnId {
        &self.ids[n as usize]
    }

    /// Order two dense ids by their `TxnId`s.
    pub(crate) fn cmp_ids(&self, a: u32, b: u32) -> std::cmp::Ordering {
        self.id(a).cmp(self.id(b))
    }

    /// Direct antecedents.
    pub(crate) fn antecedents(&self, n: u32) -> &[u32] {
        &self.antecedents[n as usize]
    }

    fn intern(&mut self, id: &TxnId) -> u32 {
        if let Some(&n) = self.index.get(id) {
            return n;
        }
        // analyze: allow(panic) -- u32 ids: a reconciler never sees 2^32 transactions
        let n = u32::try_from(self.ids.len()).expect("fewer than 2^32 transactions");
        self.index.insert(id.clone(), n);
        self.ids.push(id.clone());
        self.stage.push(Stage::Cited);
        self.antecedents.push(Box::default());
        self.dependents.push(Vec::new());
        n
    }

    /// Insert a transaction with its antecedents and return its dense id.
    /// Antecedents not seen yet become forward references; a forward
    /// reference is filled in by its own insert. Inserting the same
    /// transaction twice is an error.
    pub(crate) fn insert(&mut self, id: &TxnId, antecedents: &BTreeSet<TxnId>) -> Result<u32> {
        if self
            .get(id)
            .is_some_and(|n| self.stage[n as usize] != Stage::Cited)
        {
            return Err(ReconcileError::DuplicateCandidate(id.to_string()));
        }
        let n = self.intern(id);
        let ants: Box<[u32]> = antecedents.iter().map(|a| self.intern(a)).collect();
        for &a in ants.iter() {
            if self.stage[a as usize] != Stage::Sealed {
                self.dependents[a as usize].push(n);
            }
        }
        self.antecedents[n as usize] = ants;
        self.stage[n as usize] = Stage::Inserted;
        Ok(n)
    }

    /// Drop `n`'s dependent edges, now and for transactions inserted
    /// later: the caller will never walk or order its dependents again.
    pub(crate) fn seal(&mut self, n: u32) {
        self.stage[n as usize] = Stage::Sealed;
        self.dependents[n as usize] = Vec::new();
    }

    /// Start a walk: every node unvisited.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.stamp.resize(self.ids.len(), 0);
    }

    /// Mark `n` visited; true iff it was not yet.
    fn visit(stamp: &mut [u32], epoch: u32, n: u32) -> bool {
        let s = &mut stamp[n as usize];
        let fresh = *s != epoch;
        *s = epoch;
        fresh
    }

    /// `n`'s antecedent closure (excluding `n`) into `out`, neither
    /// including nor expanding the nodes `stop` holds for.
    pub(crate) fn antecedent_closure(
        &mut self,
        n: u32,
        stop: impl Fn(u32) -> bool,
        out: &mut Vec<u32>,
    ) {
        self.begin();
        let DepGraph {
            antecedents,
            stamp,
            epoch,
            ..
        } = self;
        closure(antecedents, stamp, *epoch, n, stop, out);
    }

    /// Every transaction that transitively depends on `n` (excluding `n`)
    /// into `out`. The closure must not reach a sealed transaction.
    pub(crate) fn dependent_closure(&mut self, n: u32, out: &mut Vec<u32>) {
        self.begin();
        let DepGraph {
            dependents,
            stage,
            stamp,
            epoch,
            ..
        } = self;
        closure(dependents, stamp, *epoch, n, |_| false, out);
        debug_assert!(
            out.iter().all(|&d| stage[d as usize] != Stage::Sealed),
            "a dependent walk reached a sealed transaction"
        );
    }

    /// Is `target` in `from`'s antecedent closure? A depth-first walk that
    /// stops at the first sighting and does not expand the nodes `prune`
    /// holds for.
    pub(crate) fn reaches(&mut self, from: u32, target: u32, prune: impl Fn(u32) -> bool) -> bool {
        self.begin();
        let DepGraph {
            antecedents,
            stamp,
            epoch,
            stack,
            ..
        } = self;
        Self::visit(stamp, *epoch, from);
        stack.clear();
        stack.push(from);
        while let Some(cur) = stack.pop() {
            for &a in antecedents[cur as usize].iter() {
                if a == target {
                    return true;
                }
                if !prune(a) && Self::visit(stamp, *epoch, a) {
                    stack.push(a);
                }
            }
        }
        false
    }

    /// A dependency order of `subset` (distinct nodes) over the edges
    /// inside it, into `out`: Kahn's algorithm with a first-in first-out
    /// ready queue that takes the initially ready nodes, and the nodes
    /// each step makes ready, in `TxnId` order.
    pub(crate) fn topo_order(&mut self, subset: &[u32], out: &mut Vec<u32>) -> Result<()> {
        self.begin();
        self.degree.resize(self.ids.len(), 0);
        for &m in subset {
            Self::visit(&mut self.stamp, self.epoch, m);
        }
        let DepGraph {
            ids,
            antecedents,
            dependents,
            stamp,
            epoch,
            degree,
            ..
        } = self;
        let by_id = |a: &u32, b: &u32| ids[*a as usize].cmp(&ids[*b as usize]);
        out.clear();
        for &m in subset {
            let inside = antecedents[m as usize]
                .iter()
                .filter(|&&a| stamp[a as usize] == *epoch)
                .count();
            degree[m as usize] = inside as u32;
            if inside == 0 {
                out.push(m);
            }
        }
        out.sort_unstable_by(by_id);
        let mut next = 0;
        while next < out.len() {
            let cur = out[next];
            next += 1;
            let ready_from = out.len();
            for &d in dependents[cur as usize].iter() {
                if stamp[d as usize] == *epoch {
                    let deg = &mut degree[d as usize];
                    *deg = deg.saturating_sub(1);
                    if *deg == 0 {
                        out.push(d);
                    }
                }
            }
            out[ready_from..].sort_unstable_by(by_id);
        }
        if out.len() != subset.len() {
            return Err(ReconcileError::Updates(
                "dependency cycle among transactions".into(),
            ));
        }
        Ok(())
    }
}

/// How far a transaction has come.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Only cited so far: a forward reference.
    Cited,
    /// Inserted, with its antecedents.
    Inserted,
    /// Inserted, and its dependent edges dropped.
    Sealed,
}

/// Breadth-first closure of `n` over `edges`, excluding `n` and the
/// nodes `stop` holds for.
fn closure<E: AsRef<[u32]>>(
    edges: &[E],
    stamp: &mut [u32],
    epoch: u32,
    n: u32,
    stop: impl Fn(u32) -> bool,
    out: &mut Vec<u32>,
) {
    out.clear();
    DepGraph::visit(stamp, epoch, n);
    let mut cur = n;
    let mut next = 0;
    loop {
        for &m in edges[cur as usize].as_ref() {
            if !stop(m) && DepGraph::visit(stamp, epoch, m) {
                out.push(m);
            }
        }
        let Some(&m) = out.get(next) else { break };
        cur = m;
        next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_updates::PeerId;
    use proptest::prelude::*;

    fn id(peer: &str, seq: u64) -> TxnId {
        TxnId::new(PeerId::new(peer), seq)
    }

    fn insert(g: &mut DepGraph, t: TxnId, ants: &[TxnId]) -> u32 {
        g.insert(&t, &ants.iter().cloned().collect()).unwrap()
    }

    /// The `TxnId`s of dense ids, as a set.
    fn ids(g: &DepGraph, ns: &[u32]) -> BTreeSet<TxnId> {
        ns.iter().map(|&n| g.id(n).clone()).collect()
    }

    fn topo(g: &mut DepGraph, subset: &[u32]) -> Result<Vec<TxnId>> {
        let mut out = Vec::new();
        g.topo_order(subset, &mut out)?;
        Ok(out.iter().map(|&n| g.id(n).clone()).collect())
    }

    /// A1 ← A2 ← A3, and B1 ← A3 (A3 depends on both A2 and B1).
    fn chain() -> (DepGraph, [u32; 4]) {
        let mut g = DepGraph::default();
        let a1 = insert(&mut g, id("A", 1), &[]);
        let a2 = insert(&mut g, id("A", 2), &[id("A", 1)]);
        let b1 = insert(&mut g, id("B", 1), &[]);
        let a3 = insert(&mut g, id("A", 3), &[id("A", 2), id("B", 1)]);
        (g, [a1, a2, b1, a3])
    }

    #[test]
    fn insert_and_lookup() {
        let (g, [a1, a2, b1, a3]) = chain();
        assert_eq!(g.len(), 4);
        assert_eq!(g.get(&id("A", 2)), Some(a2));
        assert_eq!(g.id(a2), &id("A", 2));
        assert_eq!(g.get(&id("C", 1)), None);
        assert_eq!(
            ids(&g, g.antecedents(a3)),
            BTreeSet::from([id("A", 2), id("B", 1)])
        );
        assert_eq!(g.dependents[a1 as usize], vec![a2]);
        assert_eq!(g.dependents[b1 as usize], vec![a3]);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (mut g, _) = chain();
        assert!(matches!(
            g.insert(&id("A", 1), &BTreeSet::new()),
            Err(ReconcileError::DuplicateCandidate(_))
        ));
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn antecedent_closure_is_transitive() {
        let (mut g, [a1, a2, b1, a3]) = chain();
        let mut out = Vec::new();
        g.antecedent_closure(a3, |_| false, &mut out);
        assert_eq!(
            ids(&g, &out),
            BTreeSet::from([id("A", 1), id("A", 2), id("B", 1)])
        );
        g.antecedent_closure(a1, |_| false, &mut out);
        assert!(out.is_empty());
        // A stopped node is neither included nor expanded.
        g.antecedent_closure(a3, |n| n == a2, &mut out);
        assert_eq!(out, vec![b1]);
    }

    #[test]
    fn dependent_closure_is_transitive() {
        let (mut g, [a1, _, b1, a3]) = chain();
        let mut out = Vec::new();
        g.dependent_closure(a1, &mut out);
        assert_eq!(ids(&g, &out), BTreeSet::from([id("A", 2), id("A", 3)]));
        g.dependent_closure(b1, &mut out);
        assert_eq!(ids(&g, &out), BTreeSet::from([id("A", 3)]));
        g.dependent_closure(a3, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn reaches_stops_at_the_target_and_skips_pruned_nodes() {
        let (mut g, [a1, a2, b1, a3]) = chain();
        assert!(g.reaches(a3, a1, |_| false));
        assert!(g.reaches(a3, b1, |_| false));
        assert!(!g.reaches(a1, a3, |_| false));
        assert!(!g.reaches(b1, a1, |_| false));
        // Pruning A2 cuts A3 off from A1, but not from A2 itself.
        assert!(!g.reaches(a3, a1, |n| n == a2));
        assert!(g.reaches(a3, a2, |n| n == a2));
    }

    #[test]
    fn forward_reference_creates_placeholder() {
        let mut g = DepGraph::default();
        // A2 arrives before its antecedent A1.
        let a2 = insert(&mut g, id("A", 2), &[id("A", 1)]);
        let a1 = g.get(&id("A", 1)).expect("placeholder node exists");
        assert_eq!(g.stage[a1 as usize], Stage::Cited);
        assert!(g.antecedents(a1).is_empty());
        let mut out = Vec::new();
        g.dependent_closure(a1, &mut out);
        assert_eq!(out, vec![a2]);
        // The real A1 later arrives and fills in the placeholder, keeping
        // its dense id.
        assert_eq!(insert(&mut g, id("A", 1), &[id("B", 7)]), a1);
        assert_eq!(g.stage[a1 as usize], Stage::Inserted);
        assert_eq!(ids(&g, g.antecedents(a1)), BTreeSet::from([id("B", 7)]));
        // But inserting it twice for real is still an error.
        assert!(matches!(
            g.insert(&id("A", 1), &BTreeSet::new()),
            Err(ReconcileError::DuplicateCandidate(_))
        ));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let (mut g, all) = chain();
        let order = topo(&mut g, &all).unwrap();
        let pos = |t: &TxnId| order.iter().position(|x| x == t).unwrap();
        assert!(pos(&id("A", 1)) < pos(&id("A", 2)));
        assert!(pos(&id("A", 2)) < pos(&id("A", 3)));
        assert!(pos(&id("B", 1)) < pos(&id("A", 3)));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn topo_order_of_subset() {
        let (mut g, [a1, _, _, a3]) = chain();
        assert_eq!(
            topo(&mut g, &[a3, a1]).unwrap(),
            vec![id("A", 1), id("A", 3)]
        );
    }

    #[test]
    fn ready_ties_break_by_txn_id_not_dense_id() {
        let mut g = DepGraph::default();
        // Dense ids in first-seen order: C1, B1, A1, then A2 ← C1 and
        // B2 ← C1 (B2 seen first).
        let c1 = insert(&mut g, id("C", 1), &[]);
        let b1 = insert(&mut g, id("B", 1), &[]);
        let a1 = insert(&mut g, id("A", 1), &[]);
        let b2 = insert(&mut g, id("B", 2), &[id("C", 1)]);
        let a2 = insert(&mut g, id("A", 2), &[id("C", 1)]);
        assert_eq!(
            topo(&mut g, &[c1, b1, a1, b2, a2]).unwrap(),
            vec![id("A", 1), id("B", 1), id("C", 1), id("A", 2), id("B", 2)]
        );
    }

    #[test]
    fn cycle_detected() {
        let mut g = DepGraph::default();
        let a1 = insert(&mut g, id("A", 1), &[id("A", 2)]);
        let a2 = insert(&mut g, id("A", 2), &[id("A", 1)]);
        assert!(matches!(
            topo(&mut g, &[a1, a2]),
            Err(ReconcileError::Updates(_))
        ));
    }

    #[test]
    fn empty_graph() {
        let mut g = DepGraph::default();
        assert_eq!(g.len(), 0);
        assert!(topo(&mut g, &[]).unwrap().is_empty());
    }

    #[test]
    fn walks_survive_the_stamp_wrapping_around() {
        let (mut g, [a1, a2, b1, a3]) = chain();
        g.epoch = u32::MAX - 1;
        let mut out = Vec::new();
        for _ in 0..4 {
            g.antecedent_closure(a3, |_| false, &mut out);
            assert_eq!(out.len(), 3);
            assert!(g.reaches(a2, a1, |_| false));
            assert!(!g.reaches(b1, a1, |_| false));
        }
        assert!(g.epoch < 16, "wrapped");
    }

    fn pid(n: usize) -> TxnId {
        id("P", n as u64)
    }

    /// A random DAG: node i may depend only on nodes < i.
    fn dag_strategy() -> impl Strategy<Value = Vec<BTreeSet<usize>>> {
        proptest::collection::vec(proptest::collection::btree_set(0usize..12, 0..4), 1..12)
            .prop_map(|nodes| {
                nodes
                    .into_iter()
                    .enumerate()
                    .map(|(i, deps)| deps.into_iter().filter(|&d| d < i).collect())
                    .collect()
            })
    }

    fn build(dag: &[BTreeSet<usize>]) -> DepGraph {
        let mut g = DepGraph::default();
        for (i, deps) in dag.iter().enumerate() {
            g.insert(&pid(i), &deps.iter().map(|&d| pid(d)).collect())
                .unwrap();
        }
        g
    }

    fn node(g: &DepGraph, i: usize) -> u32 {
        g.get(&pid(i)).unwrap()
    }

    proptest! {
        /// A topological order puts every antecedent before its dependent.
        #[test]
        fn topo_order_respects_edges(dag in dag_strategy()) {
            let mut g = build(&dag);
            let all: Vec<u32> = (0..dag.len()).map(|i| node(&g, i)).collect();
            let order = topo(&mut g, &all).unwrap();
            let pos = |t: &TxnId| order.iter().position(|x| x == t).unwrap();
            for (i, deps) in dag.iter().enumerate() {
                for &d in deps {
                    prop_assert!(pos(&pid(d)) < pos(&pid(i)), "{d} before {i}");
                }
            }
            prop_assert_eq!(order.len(), dag.len());
        }

        /// The antecedent closure contains the direct antecedents and is
        /// transitively closed.
        #[test]
        fn antecedent_closure_is_closed(dag in dag_strategy()) {
            let mut g = build(&dag);
            let mut out = Vec::new();
            for (i, deps) in dag.iter().enumerate() {
                g.antecedent_closure(node(&g, i), |_| false, &mut out);
                let closure = ids(&g, &out);
                for &d in deps {
                    prop_assert!(closure.contains(&pid(d)));
                }
                // Transitivity: antecedents of members are members.
                for &m in &out {
                    for &a in g.antecedents(m) {
                        prop_assert!(closure.contains(g.id(a)));
                    }
                }
                prop_assert!(!closure.contains(&pid(i)), "closure excludes self");
            }
        }

        /// The dependent closure is the inverse of the antecedent closure.
        #[test]
        fn closures_are_inverse(dag in dag_strategy()) {
            let mut g = build(&dag);
            let (mut deps, mut ants) = (Vec::new(), Vec::new());
            for i in 0..dag.len() {
                for j in 0..dag.len() {
                    g.dependent_closure(node(&g, j), &mut deps);
                    g.antecedent_closure(node(&g, i), |_| false, &mut ants);
                    prop_assert_eq!(deps.contains(&node(&g, i)), ants.contains(&node(&g, j)));
                }
            }
        }

        /// A subset's order covers the subset and puts every antecedent
        /// inside the subset before its dependent. (Edges that leave the
        /// subset do not order it: the reconciler orders groups by the
        /// edges among their members.)
        #[test]
        fn subset_order_is_consistent(
            dag in dag_strategy(),
            picks in proptest::collection::btree_set(0usize..12, 0..8),
        ) {
            let mut g = build(&dag);
            let subset: Vec<u32> = picks
                .into_iter()
                .filter(|&p| p < dag.len())
                .map(|p| node(&g, p))
                .collect();
            let order = topo(&mut g, &subset).unwrap();
            prop_assert_eq!(ids(&g, &subset), order.iter().cloned().collect::<BTreeSet<_>>());
            prop_assert_eq!(order.len(), subset.len());
            let pos = |t: &TxnId| order.iter().position(|x| x == t);
            for &m in &subset {
                for &a in g.antecedents(m) {
                    if let Some(before) = pos(g.id(a)) {
                        prop_assert!(before < pos(g.id(m)).unwrap());
                    }
                }
            }
        }
    }
}
