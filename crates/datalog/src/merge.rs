//! The partitioned merge phase: per-shard sinks for the engine's rounds.
//!
//! Every mutation the merge performs is keyed by the head tuple, and head
//! tuples already have a deterministic home — the content-based shard
//! [`ShardedRel::shard_of`] assigns them. So the node table, the
//! provenance graph, and the relation storage are all partitioned by that
//! same routing, and one `ShardSink` per shard drains its slice of every
//! task's firings, writing that shard and nothing else:
//!
//! * [`NodeShard`] — shard `s` of the node table; node ids pack
//!   `(shard, local)` so per-shard assignment needs no coordination.
//! * [`ProvShardWriter`] — shard `s` of the provenance graph; derivations
//!   live with their head, cross-shard body edges are staged in the
//!   writer's outbox in recording order.
//! * [`RelShardWriter`] — shard `s` of every relation.
//!
//! The merge is sized to the round, not to the shard count: sinks are
//! built only for the shards some firing of the round lands in (a round
//! of a handful of firings touches a handful of shards), and the staged
//! cross-shard edges are spliced by one sequential pass over the sinks'
//! outboxes ([`ProvGraph::splice_cross_edges`]) once the sinks are folded.
//!
//! Determinism: routing is a pure function of tuple content, each sink
//! drains its buckets in the round's fixed task order, and the engine
//! folds the sinks' private counters/changes/deltas/outboxes back in
//! shard order — so every mutation's order is a pure function of the
//! input.

use crate::ast::RuleId;
use crate::engine::{Change, ChangeKind};
use crate::node::{NodeId, NodeShard, NodeTable, RelId};
use crate::provgraph::{Derivation, ProvGraph, ProvShardWriter};
use orchestra_relational::{RelShardWriter, ShardedRel, Sym, SymTuple, ValueInterner};
use std::sync::Arc;

/// One staged rule firing, produced by the join phase and drained by its
/// head shard's sink. Skolem head positions are left as
/// [`Sym::NONE`] with their argument symbols staged alongside when the
/// null was not in the round's snapshot interner, so the join phase never
/// mutates the interner.
pub(crate) struct Firing {
    /// The head tuple; `Sym::NONE` at unresolved Skolem positions.
    pub head: SymTuple,
    /// `(head column, argument symbols)` for each Skolem head slot whose
    /// null the join could not resolve read-only.
    pub skolems: Vec<(u32, Vec<Sym>)>,
    /// The head's node id as of the round snapshot (`None` when the head
    /// was not alive then — it may still get interned by an earlier task
    /// draining into the same shard sink).
    pub head_node: Option<NodeId>,
    /// Node ids of the matched body tuples, in rule-body order
    /// (derivation identity depends on the order).
    pub body_nodes: Vec<NodeId>,
    /// Precomputed `(rule, body)` dedup fingerprint.
    pub fp: u64,
}

/// Everything one join task hands back to the merge phase: staged firings
/// routed to their head's shard, plus the task's private counters (folded
/// in by the merge).
#[derive(Default)]
pub(crate) struct TaskOut {
    /// `routed[s]` holds this task's firings whose head lives in shard
    /// `s`, in discovery order. Left empty (not sized) when the task
    /// fired nothing routable.
    pub routed: Vec<Vec<Firing>>,
    /// Firings whose head contains a labeled null absent from the round
    /// snapshot: only these pay the sequential Skolem pass.
    pub unrouted: Vec<Firing>,
    /// Index probes issued by the task.
    pub probes: u64,
    /// Labeled nulls the task resolved read-only against the snapshot
    /// interner (folded into the fast-path counter by the merge).
    pub skolem_hits: u64,
}

/// A disjoint mutable view of shard `s` across every partitioned
/// structure the merge writes: the node table, the provenance graph, and
/// each relation — plus private output buffers the engine folds back in
/// shard order after every sink has drained.
pub(crate) struct ShardSink<'a> {
    nodes: &'a mut NodeShard,
    /// Public to let the engine collect the staged cross-shard edges
    /// when it folds the sink.
    pub prov: ProvShardWriter<'a>,
    rels: Vec<RelShardWriter<'a, NodeId>>,
    /// Change-log entries staged by this sink, in drain order.
    pub changes: Vec<Change>,
    /// Next-round delta tuples staged by this sink, in drain order.
    pub next_delta: Vec<(RelId, SymTuple)>,
    /// Private counters, folded into `EngineStats` in shard order.
    pub firings: u64,
    pub derivations: u64,
    pub tuples_added: u64,
}

/// Split the node table, provenance graph, and relation storage into one
/// [`ShardSink`] per shard `s` with `touched[s]`, in shard order. Shards
/// the round does not touch get no sink. All three structures must
/// already agree on the shard count (the engine fixes it at
/// construction).
pub(crate) fn shard_sinks<'a>(
    nodes: &'a mut NodeTable,
    graph: &'a mut ProvGraph,
    data: &'a mut [ShardedRel<NodeId>],
    touched: &[bool],
) -> Vec<ShardSink<'a>> {
    debug_assert_eq!(
        nodes.shard_count(),
        graph.shard_count(),
        "node/prov shard mismatch"
    );
    // One lazy writer iterator per relation, advanced in lockstep with
    // the shards below: untouched shards cost one skipped step each.
    let mut rel_writers: Vec<_> = data
        .iter_mut()
        .map(|rel| {
            debug_assert_eq!(rel.shard_count(), touched.len(), "relation shard mismatch");
            rel.shard_writers()
        })
        .collect();
    nodes
        .shards_mut()
        .zip(graph.shard_writers())
        .zip(touched)
        .filter_map(|((nodes, prov), &touched)| {
            let rels = rel_writers.iter_mut().filter_map(Iterator::next);
            if !touched {
                rels.for_each(drop);
                return None;
            }
            Some(ShardSink {
                nodes,
                prov,
                rels: rels.collect(),
                changes: Vec::new(),
                next_delta: Vec::new(),
                firings: 0,
                derivations: 0,
                tuples_added: 0,
            })
        })
        .collect()
}

impl ShardSink<'_> {
    /// Drain one task's firings for this sink's shard, in their staged
    /// order: intern the head node, record the derivation, apply the
    /// insert, and stage the change-log entry and next-round delta.
    ///
    /// Every firing handed here has a fully resolved head (the engine's
    /// sequential Skolem pass ran first) routed to this shard, so the
    /// writes below touch this shard only.
    pub fn drain_task(
        &mut self,
        rule_id: &RuleId,
        head_rel: RelId,
        firings: Vec<Firing>,
        interner: &ValueInterner,
        rel_names: &[Arc<str>],
    ) {
        for firing in firings {
            self.firings += 1;
            // A head alive at the round snapshot needs no insert
            // (propagation is insert-only) and no interning — the join
            // already resolved its node.
            let head_node = match firing.head_node {
                Some(n) => n,
                None => self.nodes.intern(head_rel, &firing.head),
            };
            let fresh_deriv = self.prov.add_derivation_fp(
                Derivation {
                    rule: Arc::clone(rule_id),
                    head: head_node,
                    body: firing.body_nodes,
                },
                firing.fp,
            );
            if fresh_deriv {
                self.derivations += 1;
            }
            if firing.head_node.is_some() {
                continue; // Was alive at snapshot: nothing to add.
            }
            if self.rels[head_rel.index()].insert_if_absent(firing.head.clone(), head_node) {
                self.tuples_added += 1;
                self.changes.push(Change {
                    relation: Arc::clone(&rel_names[head_rel.index()]),
                    tuple: interner.resolve_tuple(&firing.head),
                    kind: ChangeKind::Added,
                    node: head_node,
                });
                self.next_delta.push((head_rel, firing.head));
            }
        }
    }
}
