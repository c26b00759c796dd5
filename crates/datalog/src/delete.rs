//! Deletion: Orchestra's provenance-based derivability test.
//!
//! Deleting a set of base tuples re-evaluates no rule. It runs over the
//! stored provenance graph, restricted to the subgraph the deleted base
//! tuples reach: one affected closure seeded with all of them, one
//! well-founded derivability pass that treats unaffected alive nodes as
//! given, and one kill of the affected nodes left underivable, in node-id
//! order. Recomputation from the surviving base facts is the referee the
//! parity suites hold it to.

use crate::engine::{ChangeKind, Facts};
use crate::node::NodeId;
use orchestra_relational::SymRel;
use std::collections::VecDeque;

/// Deletion marks, per node, in [`DeleteScratch::marks`].
const AFFECTED: u8 = 1;
const DERIVABLE: u8 = 2;

/// Deletion's working state, kept on the engine across calls: per-node
/// marks instead of hash sets, reset node by node after each call, so a
/// call costs what its affected region costs.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeleteScratch {
    /// Node index → `AFFECTED` / `DERIVABLE` bits; zero outside a call.
    marks: Vec<u8>,
    /// The affected region in discovery order, seeds first.
    affected: Vec<NodeId>,
    queue: VecDeque<NodeId>,
    dead: Vec<NodeId>,
}

impl DeleteScratch {
    /// Seed the next deletion with a node whose base mark was just
    /// cleared. A base mark clears once, so each seed enters once.
    pub(crate) fn seed(&mut self, node: NodeId) {
        self.affected.push(node);
        self.queue.push_back(node);
    }
}

/// Delete from the seeds placed in `del`: restrict attention to the
/// subgraph forward-reachable from them and recompute well-founded
/// derivability there, treating unaffected alive nodes as given. Every
/// affected node left underivable leaves its relation and is logged as
/// removed. Returns the number of seeds.
pub(crate) fn delete_provenance_based(
    data: &mut [SymRel<NodeId>],
    facts: &mut Facts,
    del: &mut DeleteScratch,
) -> usize {
    let DeleteScratch {
        marks,
        affected,
        queue,
        dead,
    } = del;
    let seeds = affected.len();
    if marks.len() < facts.nodes.len() {
        marks.resize(facts.nodes.len(), 0);
    }
    for a in affected.iter() {
        marks[a.index()] = AFFECTED;
    }
    // Affected = forward closure through derivation uses.
    while let Some(nd) = queue.pop_front() {
        for d in facts.graph.uses_of(nd) {
            let m = &mut marks[d.head.index()];
            if *m & AFFECTED == 0 {
                *m |= AFFECTED;
                affected.push(d.head);
                queue.push_back(d.head);
            }
        }
    }
    // Worklist: start from support outside the affected region and from
    // base facts inside it. Derivability is a least fixpoint, so the
    // order nodes are visited in cannot change which ones it reaches.
    let (graph, nodes) = (&facts.graph, &facts.nodes);
    for &a in affected.iter() {
        let supported = graph.is_base(a)
            || graph.derivations_of(a).any(|d| {
                d.body
                    .iter()
                    .all(|b| marks[b.index()] & AFFECTED == 0 && nodes.is_alive(*b))
            });
        if supported {
            marks[a.index()] |= DERIVABLE;
            queue.push_back(a);
        }
    }
    while let Some(nd) = queue.pop_front() {
        for d in graph.uses_of(nd) {
            let head = marks[d.head.index()];
            let fires = head & AFFECTED != 0
                && head & DERIVABLE == 0
                && d.body.iter().all(|b| {
                    let m = marks[b.index()];
                    m & DERIVABLE != 0 || (m & AFFECTED == 0 && nodes.is_alive(*b))
                });
            if fires {
                marks[d.head.index()] |= DERIVABLE;
                queue.push_back(d.head);
            }
        }
    }
    // Kill affected-but-underivable nodes, in node-id order: the change
    // log must replay identically across engines fed the same input,
    // whatever order the closure discovered them in.
    dead.clear();
    dead.extend(
        affected
            .iter()
            .copied()
            .filter(|a| marks[a.index()] & DERIVABLE == 0 && nodes.is_alive(*a)),
    );
    dead.sort_unstable();
    for a in affected.drain(..) {
        marks[a.index()] = 0;
    }
    for &nd in dead.iter() {
        let nodes = &mut facts.nodes;
        let (Some(pos), Some((rel, _))) = (nodes.position(nd), nodes.resolve(nd)) else {
            continue;
        };
        // The relation's last tuple fills the hole: its node moves.
        if let Some(moved) = data[rel.index()].swap_remove(pos) {
            nodes.set_position(moved, Some(pos));
        }
        nodes.set_position(nd, None);
        facts.stats.tuples_removed += 1;
        facts.changes.push((nd, ChangeKind::Removed));
    }
    seeds
}
