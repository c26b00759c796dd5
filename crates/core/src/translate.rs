//! Update translation: pushing published transactions through the mapping
//! program and packaging the per-transaction change sets as candidates.
//!
//! "Since the CDSS model relies on propagation of updates rather than data
//! through the system, there must be a method to translate updates over
//! one schema to updates over a different schema. … The rules must also
//! maintain enough provenance or lineage information that (1)
//! reconciliation can choose between transactions based on user
//! preferences, and (2) efficient incremental recomputation of the target
//! data instance and provenance is possible." (§3)
//!
//! Implementation: each transaction's tuple-level updates — those on
//! relations inside the reconciling peer's program slice, the only ones
//! that can reach it — are validated against the engine's schema as a
//! whole, then applied as base-fact operations on the origin peer's
//! qualified relations in the reconciling peer's incremental engine; the
//! engine's change log — restricted to the reconciling peer's namespace —
//! *is* the translated transaction. Deletions propagate with the
//! provenance-based algorithm (the whole point of storing provenance),
//! one set per run of consecutive removals; per-update origins come from
//! the provenance graph's lineage.

use crate::mapping::qualify;
use crate::peer::Peer;
use crate::Result;
use orchestra_datalog::{ChangeKind, NodeId};
use orchestra_reconcile::{Candidate, CandidateUpdate};
use orchestra_relational::Tuple;
use orchestra_updates::{PeerId, Transaction, Update};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

impl Peer {
    /// Ingest one published transaction into this peer's translation
    /// engine and return the candidate it translates to — `None` when the
    /// transaction was published by this peer itself (its effects are
    /// already local). Only updates on relations in the peer's program
    /// slice reach the engine; a transaction with none translates to the
    /// empty candidate without an engine call.
    ///
    /// Every in-slice tuple is validated before the first engine call, so
    /// a malformed transaction errors without touching the engine (it is
    /// still recorded as ingested: a retry could only fail again).
    pub(crate) fn ingest_and_translate(&mut self, txn: &Transaction) -> Result<Option<Candidate>> {
        self.ingested.insert(txn.id.clone());
        let mut fed: Vec<(String, &Update)> = Vec::new();
        for u in &txn.updates {
            let qrel = qualify(&txn.id.peer, u.relation());
            let Ok(schema) = self.engine.schema().relation(&qrel) else {
                continue; // Outside the slice: it can derive nothing here.
            };
            for t in u.read_version().into_iter().chain(u.written_version()) {
                schema.validate(t)?;
            }
            fed.push((qrel, u));
        }
        // Apply the updates as base-fact operations in the origin peer's
        // namespace. Each maximal run of removals (a `Delete` or the old
        // half of a `Modify`) is removed as one set; an insert ends the
        // run, so the updates still take effect in their order.
        let mut removals: Vec<(&str, &Tuple)> = Vec::new();
        for (qrel, u) in &fed {
            if let Some(old) = u.read_version() {
                removals.push((qrel, old));
            }
            if let Some(new) = u.written_version() {
                if !removals.is_empty() {
                    self.engine.remove_bases(&removals)?;
                    removals.clear();
                }
                let node = self.engine.insert_base(qrel, new.clone())?;
                self.node_txn.insert(node, txn.id.clone());
            }
        }
        if !removals.is_empty() {
            self.engine.remove_bases(&removals)?;
        }
        self.changes.clear();
        if !fed.is_empty() {
            self.engine.propagate()?;
            self.engine.drain_change_log(&mut self.changes);
        }

        if txn.id.peer == self.id {
            return Ok(None);
        }

        // Restrict to this peer's namespace and strip the qualifier: one
        // `RelId`-indexed lookup per change (see `Peer::local_by_rel`),
        // and only the changes kept are resolved back to values.
        let mut added: Vec<(Arc<str>, Tuple, NodeId)> = Vec::new();
        let mut removed: Vec<(Arc<str>, Tuple, NodeId)> = Vec::new();
        for &(node, kind) in &self.changes {
            let Some((rel, st)) = self.engine.nodes().resolve(node) else {
                continue;
            };
            let Some(Some(local)) = self.local_by_rel.get(rel.index()) else {
                continue;
            };
            let entry = (
                Arc::clone(local),
                self.engine.interner().resolve_tuple(st),
                node,
            );
            match kind {
                ChangeKind::Added => added.push(entry),
                ChangeKind::Removed => removed.push(entry),
            }
        }

        // Pair removals and additions on the same key into modifies.
        let updates = self.pair_changes(added, removed)?;
        Ok(Some(Candidate::from_updates(
            txn.id.clone(),
            txn.epoch,
            updates,
            txn.antecedents.clone(),
        )))
    }

    /// Convert raw change lists into candidate updates, pairing a removal
    /// and an addition with the same (relation, key) into one `Modify`.
    fn pair_changes(
        &self,
        added: Vec<(Arc<str>, Tuple, NodeId)>,
        removed: Vec<(Arc<str>, Tuple, NodeId)>,
    ) -> Result<Vec<CandidateUpdate>> {
        let mut removed_by_key: BTreeMap<(Arc<str>, Tuple), (Tuple, NodeId)> = BTreeMap::new();
        for (rel, tuple, node) in removed {
            let schema = self.schema.relation(&rel)?;
            let key = schema.key_of(&tuple);
            removed_by_key.insert((rel, key), (tuple, node));
        }
        let mut out: Vec<CandidateUpdate> = Vec::new();
        for (rel, tuple, node) in added {
            let schema = self.schema.relation(&rel)?;
            let key = schema.key_of(&tuple);
            let origins = self.origins_of(node);
            match removed_by_key.remove(&(Arc::clone(&rel), key)) {
                Some((old, old_node)) => {
                    let mut all = origins;
                    all.extend(self.origins_of(old_node));
                    out.push(CandidateUpdate::new(Update::modify(rel, old, tuple), all));
                }
                None => {
                    out.push(CandidateUpdate::new(Update::insert(rel, tuple), origins));
                }
            }
        }
        for ((rel, _), (tuple, node)) in removed_by_key {
            let origins = self.origins_of(node);
            out.push(CandidateUpdate::new(Update::delete(rel, tuple), origins));
        }
        Ok(out)
    }

    /// The origin peers of a node: the publishers of the base facts in its
    /// **canonical proof** (the chronologically first derivation chain).
    ///
    /// Raw graph reachability would over-approximate: recursive mapping
    /// programs (identity cycles, join ∘ split round trips) make unrelated
    /// tuples graph-reachable through non-well-founded pseudo-derivations,
    /// wrongly attributing origins — and, worse, creating antecedent edges
    /// onto causally unrelated (even conflicting) transactions. The full
    /// simple-proof polynomial is exact but exponential in pathological
    /// graphs; the canonical proof is linear-time and names exactly the
    /// data that actually produced the tuple. Callers who need *all*
    /// alternative origins can evaluate [`Peer::provenance`] directly.
    pub(crate) fn origins_of(&self, node: NodeId) -> BTreeSet<PeerId> {
        let mut out = BTreeSet::new();
        for base in self.engine.graph().first_proof_lineage(node) {
            if let Some(txn_id) = self.node_txn.get(&base) {
                out.insert(txn_id.peer.clone());
            }
        }
        out
    }

    /// Antecedents of a locally published update list, derived from the
    /// provenance of the tuple versions being read: the transactions whose
    /// base facts appear in their canonical proofs (see
    /// [`origins_of`](Peer::origins_of) for why not reachability).
    pub(crate) fn derive_antecedents(
        &self,
        updates: &[Update],
    ) -> Result<BTreeSet<orchestra_updates::TxnId>> {
        let mut out = BTreeSet::new();
        for u in updates {
            let Some(read) = u.read_version() else {
                continue;
            };
            let qualified = qualify(&self.id, u.relation());
            let Some(node) = self.engine.node_id(&qualified, read) else {
                continue;
            };
            for base in self.engine.graph().first_proof_lineage(node) {
                if let Some(txn_id) = self.node_txn.get(&base) {
                    out.insert(txn_id.clone());
                }
            }
        }
        Ok(out)
    }
}
