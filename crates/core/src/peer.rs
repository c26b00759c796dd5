//! Per-peer state: local instance, policy, reconciler, and the peer's own
//! incremental view of its slice of the mapping program.

use crate::Result;
use orchestra_datalog::{ChangeKind, Engine, NodeId, Query, RuleId};
use orchestra_obs::GaugeHandle;
use orchestra_reconcile::{
    Candidate, Decision, ReconcileOutcome, Reconciler, ResolveOutcome, TrustPolicy,
};
use orchestra_relational::{DatabaseSchema, FxHashMap, Instance, Tuple};
use orchestra_store::FetchCursor;
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// One CDSS participant.
///
/// A peer owns three kinds of state, mirroring §2 of the paper:
///
/// * the **local instance** — fully autonomous and editable; queries run
///   here ([`Peer::query`]). It is the only copy of the peer's data. Its
///   relations keep a **pending-edit log**: a key is pending while its
///   tuple differs from the one the rest of the system last saw there,
///   and [`Cdss::publish`](crate::Cdss::publish) announces exactly the
///   pending keys. Edits through [`Peer::instance_mut`] are logged;
///   updates the system applies — accepted transactions during an
///   exchange or a [`resolve`](crate::Cdss::resolve), the peer's own
///   transactions restored from the archive — are public already, so
///   they change both sides and leave their keys not pending (a pending
///   local edit on a key an accepted update overwrites is superseded,
///   never published). A publish marks the whole instance published only
///   after the archive accepted the batch: if the store fails, every edit
///   stays pending and the next publish announces it;
/// * the **reconciler** — persistent decisions (accepted / rejected /
///   deferred) over other peers' transactions, plus open conflicts;
/// * the **translation engine** — the peer's materialized view of the
///   published transactions it has seen, pushed through **its slice** of
///   the mapping program, with provenance. This is per-peer (not global)
///   because peers are intermittently connected and each may have seen a
///   different prefix of the published history. The slice
///   ([`Peer::program_slice`]) is the backward closure of the peer's own
///   relations over the mappings — the relations a tuple of which can
///   reach this peer's instance — and the compiled rules deriving into
///   them; an update to any other relation is never fed to the engine,
///   and a transaction with no update inside the slice does not touch it
///   at all (it is still recorded as ingested and reconciled as the
///   empty candidate it always translated to). The closure is
///   transitive, so whatever an in-slice tuple was derived from is
///   in-slice too: provenance, origins, and the antecedents of every
///   in-slice transaction are what the whole program would give. In a
///   network whose mappings run both ways (identity pairs, Figure 2's
///   `MA→C` + `MC→A`) every relation reaches every other and the slice
///   is the whole program; in a one-way chain it is everything upstream.
#[derive(Debug)]
pub struct Peer {
    pub(crate) id: PeerId,
    pub(crate) schema: DatabaseSchema,
    pub(crate) instance: Instance,
    pub(crate) policy: TrustPolicy,
    /// Changed only through [`Peer::note_local`], [`Peer::reconcile`] and
    /// [`Peer::resolve`], which keep `reconcile_gauges` current.
    reconciler: Reconciler,
    /// `reconcile.open_candidates` / `reconcile.known_txns`: this peer's
    /// share of the two gauges, set after every reconciler call.
    reconcile_gauges: [GaugeHandle; 2],
    pub(crate) engine: Engine,
    /// What `engine` was compiled from.
    slice: ProgramSlice,
    /// `core.peer.slice_relations` / `core.peer.slice_rules`: this peer's
    /// share of the two gauges, held so it lasts as long as the peer.
    _slice_gauges: [GaugeHandle; 2],
    /// Base node → the transaction that published it (provenance →
    /// transaction lineage). Keyed by engine-assigned ids, so it hashes
    /// with the word hasher.
    pub(crate) node_txn: FxHashMap<NodeId, TxnId>,
    /// Engine relation (by `RelId` index) → local name (`"R"`) for the
    /// relations of this peer's own namespace (`"Peer.R"`), `None` for
    /// every other. Translating an engine change into a local update is
    /// one index, not a name hash, prefix strip or string allocation.
    pub(crate) local_by_rel: Vec<Option<Arc<str>>>,
    /// The engine's change log, drained here once per ingest; kept so
    /// draining allocates nothing once it has grown.
    pub(crate) changes: Vec<(NodeId, ChangeKind)>,
    /// Transactions already ingested into this peer's engine. Only
    /// probed, never walked; the ids come from other peers, so std's
    /// keyed hasher.
    pub(crate) ingested: HashSet<TxnId>,
    /// Next local transaction sequence number.
    pub(crate) next_seq: u64,
    /// Epoch up to which this peer has fully reconciled.
    pub(crate) last_epoch: Epoch,
    /// Where the next exchange resumes when the last one hit an
    /// unreachable payload: frozen **at** the gap, so the blocked
    /// transaction is retried before anything newer is consumed.
    pub(crate) resume: Option<FetchCursor>,
    /// While blocked: the gaps skipped so far plus the reachable
    /// transactions held back behind them (persisted so a cheap poll can
    /// skip re-scanning the suffix yet still hold new dependents back).
    pub(crate) held: BTreeSet<TxnId>,
    /// While blocked: the last archive position this peer has scanned.
    /// A poll that finds the gap still dead resumes scanning *new*
    /// history from here instead of re-cloning everything past the gap.
    pub(crate) scanned_hw: Option<(Epoch, TxnId)>,
}

/// The part of the mapping program one peer's translation engine was
/// compiled from (see [`Peer::program_slice`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSlice {
    /// Qualified `"Peer.Relation"` names the engine materialises, in
    /// name order: the peer's own relations and everything upstream.
    pub relations: Vec<Arc<str>>,
    /// Ids of the compiled rules the engine evaluates, in program order.
    pub rules: Vec<RuleId>,
}

impl Peer {
    /// `engine` must have been compiled from `rules` (the ids of its
    /// rule list) over the slice schema it reports.
    pub(crate) fn new(
        id: PeerId,
        schema: DatabaseSchema,
        policy: TrustPolicy,
        engine: Engine,
        rules: Vec<RuleId>,
    ) -> Peer {
        let slice = ProgramSlice {
            relations: engine.schema().relations().map(|r| r.name_arc()).collect(),
            rules,
        };
        let relations_gauge = orchestra_obs::gauge("core.peer.slice_relations");
        relations_gauge.set(slice.relations.len() as i64);
        let rules_gauge = orchestra_obs::gauge("core.peer.slice_rules");
        rules_gauge.set(slice.rules.len() as i64);
        let mut local_by_rel: Vec<Option<Arc<str>>> = vec![None; slice.relations.len()];
        for r in schema.relations() {
            if let Some(rel) = engine.rel_id(&crate::mapping::qualify(&id, r.name())) {
                local_by_rel[rel.index()] = Some(r.name_arc());
            }
        }
        Peer {
            reconciler: Reconciler::new(schema.clone()),
            reconcile_gauges: [
                orchestra_obs::gauge("reconcile.open_candidates"),
                orchestra_obs::gauge("reconcile.known_txns"),
            ],
            instance: Instance::new(schema.clone()),
            id,
            schema,
            policy,
            engine,
            slice,
            _slice_gauges: [relations_gauge, rules_gauge],
            local_by_rel,
            changes: Vec::new(),
            node_txn: FxHashMap::default(),
            ingested: HashSet::new(),
            next_seq: 0,
            last_epoch: Epoch::zero(),
            resume: None,
            held: BTreeSet::new(),
            scanned_hw: None,
        }
    }

    /// The peer's id.
    pub fn id(&self) -> &PeerId {
        &self.id
    }

    /// The peer's local schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// The live local instance (read-only view).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Mutable access to the local instance — local autonomy: users edit
    /// freely between update exchanges, and the next
    /// [`Cdss::publish`](crate::Cdss::publish) announces the net effect.
    pub fn instance_mut(&mut self) -> &mut Instance {
        &mut self.instance
    }

    /// The peer's trust policy.
    pub fn policy(&self) -> &TrustPolicy {
        &self.policy
    }

    /// Replace the trust policy (applies to future reconciliations).
    pub fn set_policy(&mut self, policy: TrustPolicy) {
        self.policy = policy;
    }

    /// Register one of this peer's own transactions with the reconciler
    /// (see [`Reconciler::note_local`]).
    pub(crate) fn note_local(&mut self, txn: &Transaction) -> Result<()> {
        let noted = self.reconciler.note_local(txn);
        self.set_reconcile_gauges();
        Ok(noted?)
    }

    /// One reconciliation pass over translated candidates under this
    /// peer's trust policy.
    pub(crate) fn reconcile(&mut self, candidates: Vec<Candidate>) -> Result<ReconcileOutcome> {
        let outcome = self.reconciler.reconcile(candidates, &self.policy);
        self.set_reconcile_gauges();
        Ok(outcome?)
    }

    /// Resolve deferred conflicts in favor of `winner`.
    pub(crate) fn resolve(&mut self, winner: &TxnId) -> Result<ResolveOutcome> {
        let outcome = self.reconciler.resolve(winner);
        self.set_reconcile_gauges();
        Ok(outcome?)
    }

    fn set_reconcile_gauges(&self) {
        let [open, known] = &self.reconcile_gauges;
        open.set(self.reconciler.open_candidates() as i64);
        known.set(self.reconciler.known_txns() as i64);
    }

    /// The decision recorded for a transaction, if any.
    pub fn decision(&self, id: &TxnId) -> Option<Decision> {
        self.reconciler.decision(id)
    }

    /// Currently deferred transactions.
    pub fn deferred(&self) -> Vec<TxnId> {
        self.reconciler.deferred()
    }

    /// Open conflicts awaiting [`crate::Cdss::resolve`].
    pub fn open_conflicts(&self) -> &[(TxnId, TxnId)] {
        self.reconciler.open_conflicts()
    }

    /// Epoch up to which this peer has reconciled.
    pub fn last_reconciled_epoch(&self) -> Epoch {
        self.last_epoch
    }

    /// The archive position the next exchange resumes from, when the last
    /// one was blocked by an unreachable payload (`None` = caught up; see
    /// [`crate::ReconcileReport::blocked_on`]).
    pub fn resume_cursor(&self) -> Option<&FetchCursor> {
        self.resume.as_ref()
    }

    /// Run a conjunctive query over the local instance.
    pub fn query(&self, query: &Query) -> Result<Vec<Tuple>> {
        Ok(query.eval(&self.instance)?)
    }

    /// The provenance polynomial of a tuple in this peer's translated view
    /// (over the engine's interned node ids), if the tuple is alive there.
    /// A dead tuple — never derived, or removed — has no provenance.
    pub fn provenance(
        &self,
        relation: &str,
        tuple: &Tuple,
    ) -> Option<orchestra_provenance::Polynomial<NodeId>> {
        let qualified = crate::mapping::qualify(&self.id, relation);
        self.engine.provenance(&qualified, tuple)
    }

    /// The fact behind a provenance node: its qualified relation and
    /// tuple. Node ids are local to this peer's engine — two peers (or one
    /// peer rebuilt) number the same facts differently — so this is what
    /// makes a [`Peer::provenance`] polynomial comparable or printable.
    pub fn resolve_node(&self, node: NodeId) -> Option<(&Arc<str>, Tuple)> {
        self.engine.resolve_node(node)
    }

    /// Map a base provenance node to the transaction that published it.
    pub fn node_transaction(&self, node: NodeId) -> Option<&TxnId> {
        self.node_txn.get(&node)
    }

    /// The slice of the mapping program this peer's translation engine
    /// was compiled from: fixed at build time by the mappings alone, and
    /// the whole program wherever the mappings run both ways. Read-only —
    /// it reports what the engine holds, it does not configure it.
    pub fn program_slice(&self) -> &ProgramSlice {
        &self.slice
    }

    /// The peer's translation-engine statistics.
    pub fn engine_stats(&self) -> orchestra_datalog::EngineStats {
        self.engine.stats()
    }
}
