//! Replay estimates for the two layers that sit inside `Cdss` and cannot
//! be timed in place from outside: `datalog` and `reconcile`.
//!
//! A traced run records the calls it made (the op log) and reads the
//! archive back; this module pushes that transaction stream through a
//! standalone `Engine` compiled from the same mappings and through one
//! standalone `Reconciler` per peer under the same trust policies,
//! timing only the engine calls and the reconciler calls. Every peer's
//! translation engine runs the same program over the same history, so
//! one replay engine stands for all of them: a transaction's ingest time
//! is charged once to its publish and once to every reconcile that
//! translated it. The result is an estimate — cache state differs from
//! the live run — that in-program spans (ROADMAP item 2) will replace.

use crate::run::{Call, Op, ReplaySpec};
use orchestra_core::{qualified_schema, qualify};
use orchestra_datalog::{Change, ChangeKind, DeletionAlgorithm, Engine, EvalOptions, NodeId, Rule};
use orchestra_reconcile::{Candidate, CandidateUpdate, Reconciler, TrustPolicy};
use orchestra_relational::{DatabaseSchema, Tuple};
use orchestra_updates::{PeerId, Transaction, TxnId, Update};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Busy seconds of the timed section's share of the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayTotals {
    pub datalog_s: f64,
    pub reconcile_s: f64,
}

struct ReplayPeer {
    schema: DatabaseSchema,
    policy: TrustPolicy,
    reconciler: Reconciler,
    /// Qualified relation name → local name, this peer's namespace only.
    local_names: HashMap<Arc<str>, Arc<str>>,
    /// Translated candidates awaiting this peer's next reconcile, each
    /// with the engine time its transaction took to ingest.
    pending: VecDeque<(Candidate, f64)>,
}

struct Replay {
    engine: Engine,
    node_txn: HashMap<NodeId, TxnId>,
    peers: BTreeMap<PeerId, ReplayPeer>,
}

impl Replay {
    fn new(spec: &ReplaySpec) -> Replay {
        let mut combined = DatabaseSchema::new("cdss");
        for (id, schema, _) in &spec.peers {
            for rel in qualified_schema(id, schema).expect("schemas qualified once already") {
                combined.add_relation(rel).expect("peer names are distinct");
            }
        }
        let rules: Vec<Rule> = spec
            .mappings
            .iter()
            .flat_map(|tgd| tgd.compile().expect("mappings compiled once already"))
            .collect();
        let eval = EvalOptions {
            threads: 1,
            ..EvalOptions::default()
        };
        let engine =
            Engine::with_options(combined, rules, true, eval).expect("same program as the CDSS");
        let peers = spec
            .peers
            .iter()
            .map(|(id, schema, policy)| {
                let local_names = schema
                    .relations()
                    .map(|r| (Arc::from(qualify(id, r.name()).as_str()), r.name_arc()))
                    .collect();
                let peer = ReplayPeer {
                    schema: schema.clone(),
                    policy: policy.clone(),
                    reconciler: Reconciler::new(schema.clone()),
                    local_names,
                    pending: VecDeque::new(),
                };
                (id.clone(), peer)
            })
            .collect();
        Replay {
            engine,
            node_txn: HashMap::new(),
            peers,
        }
    }

    /// The engine half of `Peer::ingest_and_translate`: apply the
    /// transaction as base-fact operations, propagate, drain. Returns the
    /// changes and the seconds the engine calls took.
    fn ingest(&mut self, txn: &Transaction) -> (Vec<Change>, f64) {
        let t0 = Instant::now();
        for u in &txn.updates {
            let qrel = qualify(&txn.id.peer, u.relation());
            let algo = DeletionAlgorithm::ProvenanceBased;
            let inserted = match u {
                Update::Insert { tuple, .. } => Some(tuple),
                Update::Delete { tuple, .. } => {
                    self.engine
                        .remove_base(&qrel, tuple, algo)
                        .expect("replayed delete");
                    None
                }
                Update::Modify { old, new, .. } => {
                    self.engine
                        .remove_base(&qrel, old, algo)
                        .expect("replayed modify");
                    Some(new)
                }
            };
            if let Some(tuple) = inserted {
                let node = self
                    .engine
                    .insert_base(&qrel, tuple.clone())
                    .expect("replayed insert");
                self.node_txn.insert(node, txn.id.clone());
            }
        }
        self.engine.propagate().expect("replayed propagate");
        let changes = self.engine.drain_changes();
        (changes, t0.elapsed().as_secs_f64())
    }

    fn origins_of(&self, node: NodeId) -> BTreeSet<PeerId> {
        self.engine
            .graph()
            .first_proof_lineage(node)
            .into_iter()
            .filter_map(|base| Some(self.node_txn.get(&base)?.peer.clone()))
            .collect()
    }

    /// The packaging half of `Peer::ingest_and_translate` for one
    /// receiving peer: restrict the changes to its namespace and pair a
    /// removal and an addition on one key into a modify. Untimed — in the
    /// live run this is `core`'s own work.
    fn candidate_for(&self, peer: &ReplayPeer, txn: &Transaction, changes: &[Change]) -> Candidate {
        let mut removed: BTreeMap<(Arc<str>, Tuple), (Tuple, NodeId)> = BTreeMap::new();
        let mut added: Vec<(Arc<str>, Tuple, NodeId)> = Vec::new();
        for ch in changes {
            let Some(local) = peer.local_names.get(&ch.relation) else {
                continue;
            };
            match ch.kind {
                ChangeKind::Added => added.push((Arc::clone(local), ch.tuple.clone(), ch.node)),
                ChangeKind::Removed => {
                    let rel = peer.schema.relation(local).expect("local relation");
                    let key = rel.key_of(&ch.tuple);
                    removed.insert((Arc::clone(local), key), (ch.tuple.clone(), ch.node));
                }
            }
        }
        let mut updates: Vec<CandidateUpdate> = Vec::new();
        for (rel, tuple, node) in added {
            let key = peer
                .schema
                .relation(&rel)
                .expect("local relation")
                .key_of(&tuple);
            let mut origins = self.origins_of(node);
            match removed.remove(&(Arc::clone(&rel), key)) {
                Some((old, old_node)) => {
                    origins.extend(self.origins_of(old_node));
                    updates.push(CandidateUpdate::new(
                        Update::modify(rel, old, tuple),
                        origins,
                    ));
                }
                None => updates.push(CandidateUpdate::new(Update::insert(rel, tuple), origins)),
            }
        }
        for ((rel, _), (tuple, node)) in removed {
            updates.push(CandidateUpdate::new(
                Update::delete(rel, tuple),
                self.origins_of(node),
            ));
        }
        Candidate::from_updates(txn.id.clone(), txn.epoch, updates, txn.antecedents.clone())
    }
}

/// Replay `ops` over `txns` (the archive in publish order) and return
/// the engine and reconciler seconds of the timed ops.
pub fn replay(spec: &ReplaySpec, txns: &[Transaction], ops: &[Op]) -> ReplayTotals {
    let mut r = Replay::new(spec);
    let mut totals = ReplayTotals::default();
    let mut next_txn = 0usize;
    for op in ops {
        let timed = op.timed;
        match &op.call {
            Call::Publish { peer, txns: n } => {
                for txn in &txns[next_txn..(next_txn + n).min(txns.len())] {
                    let (changes, secs) = r.ingest(txn);
                    if timed {
                        totals.datalog_s += secs;
                    }
                    if let Some(own) = r.peers.get_mut(peer) {
                        own.reconciler
                            .note_local(txn)
                            .expect("own transaction noted once");
                    }
                    let candidates: Vec<(PeerId, Candidate)> = r
                        .peers
                        .iter()
                        .filter(|(id, _)| *id != peer)
                        .map(|(id, p)| (id.clone(), r.candidate_for(p, txn, &changes)))
                        .collect();
                    for (id, c) in candidates {
                        if let Some(p) = r.peers.get_mut(&id) {
                            p.pending.push_back((c, secs));
                        }
                    }
                }
                next_txn += n;
            }
            Call::Reconcile {
                peer,
                candidates: n,
            } => {
                let Some(p) = r.peers.get_mut(peer) else {
                    continue;
                };
                let take = (*n).min(p.pending.len());
                let (batch, secs): (Vec<Candidate>, Vec<f64>) = p.pending.drain(..take).unzip();
                let t0 = Instant::now();
                let outcome = p.reconciler.reconcile(batch, &p.policy);
                let reconcile_s = t0.elapsed().as_secs_f64();
                std::hint::black_box(&outcome);
                if timed {
                    totals.datalog_s += secs.iter().sum::<f64>();
                    totals.reconcile_s += reconcile_s;
                }
            }
            Call::Resolve { peer, winner } => {
                let Some(p) = r.peers.get_mut(peer) else {
                    continue;
                };
                let t0 = Instant::now();
                let outcome = p.reconciler.resolve(winner);
                let reconcile_s = t0.elapsed().as_secs_f64();
                std::hint::black_box(&outcome);
                if timed {
                    totals.reconcile_s += reconcile_s;
                }
            }
        }
    }
    totals
}
