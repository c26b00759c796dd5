//! The CDSS system object: peers + mappings + store + logical clock.

use crate::error::CoreError;
use crate::mapping::{backward_closure, qualified_schema, qualify, slice_program};
use crate::peer::Peer;
use crate::Result;
use orchestra_datalog::{DatalogError, Engine, EvalOptions, Rule, Tgd};
use orchestra_reconcile::{ResolveOutcome, TrustPolicy};
use orchestra_relational::{DatabaseSchema, Instance, Tuple};
use orchestra_store::{
    CursorBound, FetchCursor, InMemoryStore, StoreError, StoreStats, UpdateStore,
    DEFAULT_PAGE_LIMIT,
};
use orchestra_updates::{Epoch, LogicalClock, PeerId, Transaction, TxnId, Update};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Tunables for one update exchange ([`Cdss::reconcile_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeOptions {
    /// Maximum transactions materialized per archive page: the exchange
    /// loops page by page, so its peak memory is bounded by this limit
    /// regardless of how much history the peer has missed.
    pub page_limit: usize,
}

impl Default for ExchangeOptions {
    fn default() -> Self {
        ExchangeOptions {
            page_limit: DEFAULT_PAGE_LIMIT,
        }
    }
}

/// Decision summary of one exchange, by transaction **id**.
///
/// Ids only, deliberately: accepted payloads are translated and applied
/// page by page, then dropped, so a full-history catch-up never retains
/// them — the report must not reintroduce the unbounded
/// `Vec<Transaction>` the paged exchange exists to avoid. Fetch a
/// payload back through [`orchestra_store::UpdateStore::fetch`], or a
/// decision through [`Peer::decision`](crate::Peer::decision), if needed.
#[derive(Debug, Clone, Default)]
pub struct ExchangeOutcome {
    /// Accepted and applied this exchange.
    pub accepted: Vec<TxnId>,
    /// Rejected this exchange (trust policy or conflict with history).
    pub rejected: Vec<TxnId>,
    /// Deferred this exchange (conflicts awaiting [`Cdss::resolve`],
    /// missing antecedents).
    pub deferred: Vec<TxnId>,
}

/// What one [`Cdss::reconcile`] call did.
#[derive(Debug, Clone)]
pub struct ReconcileReport {
    /// The epoch this exchange advanced to (unchanged when the exchange
    /// found no work — idle reconciles no longer inflate the clock).
    pub epoch: Epoch,
    /// Reachable transactions fetched from the store across all pages.
    pub fetched: usize,
    /// Candidates produced by translation (excludes the peer's own).
    pub candidates: usize,
    /// The reconciliation decisions.
    pub outcome: ExchangeOutcome,
    /// Tuple-level updates applied to the local instance.
    pub applied_updates: usize,
    /// Archive pages scanned by this exchange.
    pub pages: usize,
    /// Unreachable payloads this peer still needs that the scan skipped
    /// past (reachable later history was still processed where safe).
    pub skipped_unavailable: usize,
    /// Reachable transactions held back because they causally depend on a
    /// skipped one; they are re-fetched once the gap heals.
    pub held_back: usize,
    /// The first unreachable transaction, if any: the peer's resume
    /// cursor is frozen at this position, so the next exchange retries it
    /// before consuming anything newer. `None` = fully caught up.
    pub blocked_on: Option<TxnId>,
    /// True when the archive itself became unreachable (a dead or flaky
    /// network peer — `fetch_page` failed outright rather than reporting
    /// per-payload gaps). The exchange kept whatever progress it made and
    /// froze the resume cursor at the first unfetched position; the next
    /// exchange retries from there.
    pub unreachable: bool,
}

/// What one [`Cdss::resolve`] call did.
#[derive(Debug, Clone)]
pub struct ResolveReport {
    /// The resolution decisions.
    pub outcome: ResolveOutcome,
    /// Tuple-level updates applied to the local instance.
    pub applied_updates: usize,
}

/// Aggregate system counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CdssStats {
    /// Current epoch value.
    pub epoch: u64,
    /// Transactions published across all peers.
    pub published_txns: u64,
    /// Store counters.
    pub store: StoreStats,
}

/// Builder for a [`Cdss`].
#[derive(Debug, Default)]
pub struct CdssBuilder {
    peers: Vec<(PeerId, DatabaseSchema, TrustPolicy)>,
    mappings: Vec<Tgd>,
    eval: EvalOptions,
}

impl CdssBuilder {
    /// Add a peer with its local schema and trust policy.
    pub fn peer(
        mut self,
        name: impl AsRef<str>,
        schema: DatabaseSchema,
        policy: TrustPolicy,
    ) -> Self {
        self.peers
            .push((PeerId::new(name.as_ref()), schema, policy));
        self
    }

    /// Add a schema mapping (over qualified `"Peer.Relation"` names).
    pub fn mapping(mut self, tgd: Tgd) -> Self {
        self.mappings.push(tgd);
        self
    }

    /// Set the evaluation thread count for every peer's translation
    /// engine. Engines evaluate on the calling thread: 1 (or 0, read as 1)
    /// is accepted, and [`build`](Self::build) refuses anything larger
    /// with [`DatalogError::SingleThreaded`]. The method stays only because
    /// the repo benchmark's workloads (`loopbench/src/workloads/`
    /// `chain.rs`, `bio.rs`, `star.rs`) call it, and goes with the next
    /// harness change to those files.
    pub fn eval_threads(mut self, threads: usize) -> Self {
        self.eval.threads = threads.max(1);
        self
    }

    /// Add bidirectional identity mappings between two peers added
    /// earlier, which must share a schema (the paper's `MA↔B`, `MC↔D`).
    pub fn identity(mut self, a: impl AsRef<str>, b: impl AsRef<str>) -> Result<Self> {
        let a = PeerId::new(a.as_ref());
        let b = PeerId::new(b.as_ref());
        let schema_a = self
            .peers
            .iter()
            .find(|(id, _, _)| *id == a)
            .map(|(_, s, _)| s.clone())
            .ok_or_else(|| CoreError::UnknownPeer(a.name().to_string()))?;
        let schema_b = self
            .peers
            .iter()
            .find(|(id, _, _)| *id == b)
            .map(|(_, s, _)| s.clone())
            .ok_or_else(|| CoreError::UnknownPeer(b.name().to_string()))?;
        if schema_a != schema_b {
            return Err(CoreError::Config(format!(
                "identity mappings require a shared schema ({} vs {})",
                schema_a.name(),
                schema_b.name()
            )));
        }
        self.mappings
            .extend(crate::mapping::identity_mappings(&a, &b, &schema_a)?);
        Ok(self)
    }

    /// Build with the default centralized in-memory store.
    pub fn build(self) -> Result<Cdss> {
        self.build_with_store(Box::new(InMemoryStore::new()))
    }

    /// Build with a caller-provided store (e.g. the simulated DHT).
    pub fn build_with_store(self, store: Box<dyn UpdateStore>) -> Result<Cdss> {
        self.build_with_shared(Arc::from(store))
    }

    /// Build with a store the caller keeps a handle on — what a gossiping
    /// node needs: the mesh layer serves and merges the same archive this
    /// CDSS reconciles from.
    pub fn build_with_shared(self, store: Arc<dyn UpdateStore>) -> Result<Cdss> {
        if self.peers.is_empty() {
            return Err(CoreError::Config("a CDSS needs at least one peer".into()));
        }
        // Combined namespace: every peer's relations, qualified.
        let mut combined = DatabaseSchema::new("cdss");
        for (id, schema, _) in &self.peers {
            for rel in qualified_schema(id, schema)? {
                combined
                    .add_relation(rel)
                    .map_err(|_| CoreError::DuplicatePeer(id.name().to_string()))?;
            }
        }
        // Compile the mapping program once. A head must name a declared
        // relation — then its owner's slice holds the rule, and that
        // engine checks the rest of it (body relations, arities).
        let mut rules: Vec<Rule> = Vec::new();
        for tgd in &self.mappings {
            rules.extend(tgd.compile()?);
        }
        if let Some(r) = rules.iter().find(|r| !combined.contains(&r.head.relation)) {
            return Err(DatalogError::UnknownRelation(r.head.relation.to_string()).into());
        }
        // One incremental engine per peer (peers see different prefixes of
        // the published history), each compiled from that peer's slice of
        // the program — the relations that can reach its own and the
        // rules deriving into them — so no peer derives, or tracks the
        // provenance of, tuples it can never read.
        let mut peers = BTreeMap::new();
        for (id, schema, policy) in self.peers {
            let (slice_schema, slice_rules) =
                slice_program(&id, &schema, &combined, &self.mappings, &rules)?;
            let rule_ids = slice_rules.iter().map(|r| r.id.clone()).collect();
            let engine = Engine::with_options(slice_schema, slice_rules, true, self.eval)?;
            if peers.contains_key(&id) {
                return Err(CoreError::DuplicatePeer(id.name().to_string()));
            }
            peers.insert(id.clone(), Peer::new(id, schema, policy, engine, rule_ids));
        }
        // Start the clock at or past everything already archived: a CDSS
        // attached to a populated (e.g. durable) store must not publish
        // into epochs behind existing history — the store would reject
        // them as stale, and cursors would never see them.
        let mut clock = LogicalClock::new();
        if let Some(latest) = store.latest_epoch() {
            clock.observe(latest);
        }
        Ok(Cdss {
            peers,
            mappings: self.mappings,
            store,
            clock,
            published_txns: 0,
        })
    }
}

/// The collaborative data sharing system.
pub struct Cdss {
    peers: BTreeMap<PeerId, Peer>,
    mappings: Vec<Tgd>,
    store: Arc<dyn UpdateStore>,
    clock: LogicalClock,
    published_txns: u64,
}

impl Cdss {
    /// Start building a CDSS.
    pub fn builder() -> CdssBuilder {
        CdssBuilder::default()
    }

    /// Borrow a peer.
    pub fn peer(&self, id: &PeerId) -> Result<&Peer> {
        self.peers
            .get(id)
            .ok_or_else(|| CoreError::UnknownPeer(id.to_string()))
    }

    /// Mutably borrow a peer (local edits happen here).
    pub fn peer_mut(&mut self, id: &PeerId) -> Result<&mut Peer> {
        self.peers
            .get_mut(id)
            .ok_or_else(|| CoreError::UnknownPeer(id.to_string()))
    }

    /// All peer ids, in order.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.peers.keys().cloned().collect()
    }

    /// The mapping program.
    pub fn mappings(&self) -> &[Tgd] {
        &self.mappings
    }

    /// The shared update store.
    pub fn store(&self) -> &dyn UpdateStore {
        &*self.store
    }

    /// A second handle on the update store — for serving it over the
    /// network or merging gossip into it while this CDSS keeps
    /// reconciling from it.
    pub fn shared_store(&self) -> Arc<dyn UpdateStore> {
        Arc::clone(&self.store)
    }

    /// Tell the CDSS that transactions spanning `[min_epoch, max_epoch]`
    /// were merged into the archive *behind its back* (an anti-entropy
    /// absorb). Reconciliation assumes the archive only grows past each
    /// peer's frontier; an absorb can backfill epochs a cursor already
    /// passed, so every peer whose frontier is beyond `min_epoch` is
    /// rewound to scan from there again — the `ingested` set makes the
    /// rescan skip everything already applied, so nothing is applied
    /// twice. The clock also observes `max_epoch`: later publishes must
    /// land past everything archived.
    pub fn note_absorbed(&mut self, min_epoch: Epoch, max_epoch: Epoch) {
        self.clock.observe(max_epoch);
        let backfill = FetchCursor::at_epoch(min_epoch);
        for peer in self.peers.values_mut() {
            let frontier = peer
                .resume
                .clone()
                .unwrap_or_else(|| FetchCursor::after_epoch(peer.last_epoch));
            let rewound = min_cursor(frontier.clone(), backfill.clone());
            if rewound != frontier {
                peer.resume = Some(rewound);
                // Held-back ids and the scanned high-water describe the
                // pre-absorb scan; the rescan re-derives both.
                peer.held.clear();
                peer.scanned_hw = None;
            }
        }
    }

    /// The relations this CDSS's peers need history for, as
    /// owner-qualified `"Peer.Relation"` names: every local relation of
    /// every peer, closed backwards over the mapping program
    /// ([`backward_closure`] — the same closure each peer's translation
    /// engine is sliced by). A mesh node uses this as its interest set:
    /// updates to any other relation can never reach any local instance
    /// here, so there is no reason to store or ship them.
    #[expect(
        clippy::expect_used,
        reason = "peer_ids() enumerates self.peers, so every id resolves"
    )]
    pub fn interest_set(&self) -> Vec<String> {
        self.interest_set_for(&self.peer_ids())
            .expect("own peer ids are known")
    }

    /// [`interest_set`](Cdss::interest_set) restricted to a subset of
    /// peers — what a mesh node *hosting* only some of the declared
    /// peers needs: the schema and mapping program are global knowledge,
    /// but only the hosted peers' instances live here. It is the union
    /// of those peers' program slices
    /// ([`Peer::program_slice`](crate::Peer::program_slice)): both are
    /// [`backward_closure`] over the same mappings.
    pub fn interest_set_for(&self, peers: &[PeerId]) -> Result<Vec<String>> {
        let mut seeds: Vec<Arc<str>> = Vec::new();
        for id in peers {
            let peer = self.peer(id)?;
            seeds.extend(
                peer.schema()
                    .relations()
                    .map(|r| Arc::from(qualify(id, r.name()).as_str())),
            );
        }
        let need = backward_closure(seeds, &self.mappings);
        Ok(need.iter().map(|r| r.to_string()).collect())
    }

    /// The current logical epoch.
    pub fn current_epoch(&self) -> Epoch {
        self.clock.current()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CdssStats {
        CdssStats {
            epoch: self.clock.current().value(),
            published_txns: self.published_txns,
            store: self.store.stats(),
        }
    }

    /// Publish a peer's pending local edits (its instance's pending-edit
    /// log) as **one** transaction. Returns `None` when there is nothing
    /// to publish. Use [`publish_transaction`] for explicit transaction
    /// boundaries.
    ///
    /// [`publish_transaction`]: Cdss::publish_transaction
    pub fn publish(&mut self, peer_id: &PeerId) -> Result<Option<TxnId>> {
        let peer = self.peer(peer_id)?;
        // Per relation in schema (name) order: inserts and modifies in key
        // order, then deletes in key order.
        let mut updates: Vec<Update> = Vec::new();
        for rel in peer.instance.relations() {
            let name = rel.schema().name_arc();
            let mut deletes: Vec<Update> = Vec::new();
            for (published, current) in rel.pending() {
                match (published.cloned(), current.cloned()) {
                    (None, Some(new)) => updates.push(Update::insert(name.clone(), new)),
                    (Some(old), Some(new)) => updates.push(Update::modify(name.clone(), old, new)),
                    (Some(old), None) => deletes.push(Update::delete(name.clone(), old)),
                    (None, None) => {} // Not an edit; the log never holds one.
                }
            }
            updates.append(&mut deletes);
        }
        if updates.is_empty() {
            return Ok(None);
        }
        let ids = self.publish_batch(peer_id, vec![updates])?;
        Ok(ids.into_iter().next())
    }

    /// Apply updates to the peer's local instance and publish them as one
    /// transaction (explicit transaction boundary — the unit the CDSS
    /// propagates, translates, and reconciles atomically).
    #[expect(
        clippy::expect_used,
        reason = "publish_transactions returns one id per input batch and exactly one batch is passed"
    )]
    pub fn publish_transaction(&mut self, peer_id: &PeerId, updates: Vec<Update>) -> Result<TxnId> {
        let ids = self.publish_transactions(peer_id, vec![updates])?;
        Ok(ids.into_iter().next().expect("one txn"))
    }

    /// Apply and publish several transactions in a single epoch.
    pub fn publish_transactions(
        &mut self,
        peer_id: &PeerId,
        txns: Vec<Vec<Update>>,
    ) -> Result<Vec<TxnId>> {
        {
            // The whole batch is checked before any of it is applied: a
            // malformed transaction leaves the instance as it was.
            let peer = self.peer_mut(peer_id)?;
            validate_batch(&peer.schema, &txns)?;
            for u in txns.iter().flatten() {
                u.apply(&mut peer.instance).map_err(CoreError::from)?;
            }
        }
        self.publish_checked(peer_id, txns)
    }

    /// Check every transaction of a batch against the publishing peer's
    /// schema, then publish it ([`publish_checked`](Cdss::publish_checked)):
    /// a malformed transaction anywhere fails the batch before anything
    /// changes. The path [`publish`](Cdss::publish) takes.
    fn publish_batch(
        &mut self,
        peer_id: &PeerId,
        txn_updates: Vec<Vec<Update>>,
    ) -> Result<Vec<TxnId>> {
        validate_batch(&self.peer(peer_id)?.schema, &txn_updates)?;
        self.publish_checked(peer_id, txn_updates)
    }

    /// Core publication path: stamp ids and provenance-derived
    /// antecedents, ingest into the peer's own engine, archive in the
    /// store and — only once the store accepted the batch — mark the keys
    /// the batch wrote published. Pending edits on other keys stay
    /// pending, and a store failure leaves every edit pending, so the
    /// next [`publish`](Cdss::publish) announces them.
    ///
    /// Every update must have been checked against the peer's schema
    /// (`validate_batch`) before anything changed: a malformed
    /// transaction found here would fail the batch after the engine, the
    /// sequence counter and the reconciler had seen the transactions
    /// ahead of it — accepted history the archive never received. A
    /// batch of nothing but empty transactions leaves the clock alone
    /// (like an idle reconcile).
    fn publish_checked(
        &mut self,
        peer_id: &PeerId,
        mut txn_updates: Vec<Vec<Update>>,
    ) -> Result<Vec<TxnId>> {
        let peer = self
            .peers
            .get_mut(peer_id)
            .ok_or_else(|| CoreError::UnknownPeer(peer_id.to_string()))?;
        txn_updates.retain(|updates| !updates.is_empty());
        if txn_updates.is_empty() {
            return Ok(Vec::new());
        }
        let epoch = self.clock.advance();
        let mut built: Vec<Transaction> = Vec::new();
        let mut ids: Vec<TxnId> = Vec::new();
        let mut written: Vec<(Arc<str>, Tuple)> = Vec::new();
        for updates in txn_updates {
            for u in &updates {
                let schema = peer.instance.relation(u.relation())?.schema();
                written.push((Arc::clone(u.relation()), u.key(schema)));
            }
            // Antecedents from provenance of the versions being read;
            // sequential ingestion lets later transactions in the batch
            // depend on earlier ones.
            let ants: BTreeSet<TxnId> = peer.derive_antecedents(&updates)?;
            peer.next_seq += 1;
            let id = TxnId::new(peer.id.clone(), peer.next_seq);
            let txn = Transaction::new(id, epoch, updates).with_antecedents(ants);
            peer.ingest_and_translate(&txn)?;
            // The peer's own transaction counts as accepted history so
            // foreign dependents can resolve their antecedents against it.
            peer.note_local(&txn)?;
            ids.push(txn.id.clone());
            built.push(txn);
        }
        self.store.publish(epoch, built)?;
        self.published_txns += ids.len() as u64;
        for (relation, key) in &written {
            peer.instance
                .relation_mut(relation)?
                .mark_key_published(key);
        }
        Ok(ids)
    }

    /// Perform update exchange for one peer: page through newly published
    /// transactions, translate them through the mapping program, reconcile
    /// under the peer's trust policy, and apply accepted transactions to
    /// the local instance. Equivalent to [`reconcile_with`] under
    /// [`ExchangeOptions::default`].
    ///
    /// [`reconcile_with`]: Cdss::reconcile_with
    pub fn reconcile(&mut self, peer_id: &PeerId) -> Result<ReconcileReport> {
        self.reconcile_with(peer_id, ExchangeOptions::default())
    }

    /// Update exchange with explicit tunables.
    ///
    /// The exchange loops through the archive in bounded pages (never
    /// materializing more than [`ExchangeOptions::page_limit`]
    /// transactions at a time) and makes **partial progress** under
    /// degraded availability: an unreachable payload no longer fails the
    /// call. Instead the peer's resume cursor freezes *at the gap* (so a
    /// later exchange retries it once a replica returns), reachable
    /// history keeps flowing — except transactions causally dependent on
    /// the gap, which are held back — and the report records the blocking
    /// transaction and skip counts. The logical clock only advances when
    /// the exchange actually did work, so idle reconcile loops no longer
    /// inflate epochs.
    ///
    /// **Conflict window**: same-priority conflicting claims observed in
    /// one page defer both for [`Cdss::resolve`] (§3) — the steady-state
    /// case, since any exchange of ≤ `page_limit` transactions is one
    /// page. Claims split across pages of a long catch-up follow the same
    /// streaming semantics as claims split across separate exchanges:
    /// the first claim *observed* is accepted, the later one is rejected
    /// against accepted history — normally `(epoch, id)` order, though
    /// under partial availability a claim held back behind a gap is
    /// observed only after the gap heals, as if published later. Conflict
    /// decisions are therefore per-peer and observation-order dependent,
    /// as they inherently are across exchanges in an intermittently
    /// connected CDSS. Raise `page_limit` when a catch-up must treat its
    /// whole history as one concurrent window (at proportional memory
    /// cost).
    pub fn reconcile_with(
        &mut self,
        peer_id: &PeerId,
        opts: ExchangeOptions,
    ) -> Result<ReconcileReport> {
        // One trace per exchange: page spans below (and, through a
        // RemoteStore backend, the serving peer's spans) share this id.
        let _trace = orchestra_obs::trace_mint();
        let Cdss {
            peers,
            store,
            clock,
            ..
        } = self;
        let peer = peers
            .get_mut(peer_id)
            .ok_or_else(|| CoreError::UnknownPeer(peer_id.to_string()))?;
        let page_limit = opts.page_limit.max(1);
        let (prev_last_epoch, prev_resume) = (peer.last_epoch, peer.resume.clone());
        let prev_ingested = peer.ingested.len();
        let mut cursor = prev_resume
            .clone()
            .unwrap_or_else(|| FetchCursor::after_epoch(peer.last_epoch));
        let mut scan = Scan {
            report: ReconcileReport {
                epoch: clock.current(),
                fetched: 0,
                candidates: 0,
                outcome: ExchangeOutcome::default(),
                applied_updates: 0,
                pages: 0,
                skipped_unavailable: 0,
                held_back: 0,
                blocked_on: None,
                unreachable: false,
            },
            blocked: None,
            held: BTreeSet::new(),
            parked: Vec::new(),
            max_seen: None,
            hw: None,
        };

        // Blocked from a previous exchange: cheaply probe the frozen gap
        // first. If it is *still* unreachable, restore the persisted held
        // set and jump the scan to the high-water mark — only new history
        // gets fetched, instead of re-cloning the whole suffix past the
        // gap on every poll. If the gap healed, fall through to a full
        // rescan from the gap (the held set is rebuilt as it goes).
        if prev_resume.is_some() {
            let probe = match store.fetch_page(&cursor, 1) {
                Ok(p) => p,
                Err(StoreError::Unavailable { .. }) => {
                    // The archive itself is unreachable (dead or flaky
                    // network peer) while this peer is already blocked:
                    // leave every durable field frozen exactly as it was
                    // and report the outage. The frozen cursor still
                    // names the gap, so `blocked_on` is preserved.
                    if let CursorBound::At(id) = cursor.bound() {
                        scan.report.blocked_on = Some(id.clone());
                    }
                    scan.report.unreachable = true;
                    return Ok(scan.report);
                }
                Err(e) => return Err(e.into()),
            };
            scan.report.pages += 1;
            if let Some((ep, id)) = probe.unavailable.first() {
                if scan.gap(peer, *ep, id) {
                    scan.held.extend(peer.held.iter().cloned());
                    scan.hw = peer.scanned_hw.clone();
                    // A blocked exchange always scanned at least the gap
                    // itself, so the high-water mark is set; without one
                    // the scan stays at the gap.
                    if let Some((e, last)) = &peer.scanned_hw {
                        cursor = FetchCursor::after_txn(*e, last.clone());
                    }
                }
            }
        }

        loop {
            let _page_span =
                orchestra_obs::span!("reconcile.page", peer = peer_id, epoch = clock.current());
            let page = match store.fetch_page(&cursor, page_limit) {
                Ok(p) => p,
                Err(StoreError::Unavailable { .. }) => {
                    // Transport outage mid-exchange: keep the progress
                    // already applied and freeze the resume cursor at the
                    // first unfetched position (below), so the next
                    // exchange picks up exactly at the cut.
                    scan.report.unreachable = true;
                    break;
                }
                Err(e) => return Err(e.into()),
            };
            scan.report.pages += 1;
            scan.report.fetched += page.txns.len();
            // Pages come in (epoch, id) order: the last reachable
            // transaction carries the page's highest reachable epoch, and
            // the later of the two trailing positions is the page's
            // high-water mark.
            if let Some(t) = page.txns.last() {
                scan.max_seen = scan.max_seen.max(Some(t.epoch));
                scan.hw = scan.hw.take().max(Some((t.epoch, t.id.clone())));
            }
            if let Some(u) = page.unavailable.last() {
                scan.hw = scan.hw.take().max(Some(u.clone()));
            }
            for (ep, id) in &page.unavailable {
                scan.gap(peer, *ep, id);
            }
            // Previously parked forward references re-enter with this
            // page: if their antecedents are in it, causal_order slots
            // them right after.
            let mut batch = page.txns;
            batch.append(&mut scan.parked);
            scan.take_in(peer, batch, true)?;
            match page.next_cursor {
                Some(c) => cursor = c,
                None => break,
            }
        }

        // Forward references that never resolved: their antecedents are
        // not archived (ghosts). Run them through the reconciler so they
        // get the deferred decision the one-shot exchange gave them.
        // Except when the archive went unreachable mid-scan: the unseen
        // pages may hold exactly those antecedents, and deferrals are
        // sticky — so instead the resume position below rewinds to cover
        // the parked transactions and they are re-fetched after the cut.
        if !scan.parked.is_empty() && !scan.report.unreachable {
            let batch = std::mem::take(&mut scan.parked);
            scan.take_in(peer, batch, false)?;
        }

        // Where the next exchange must resume: the first payload gap if
        // one was found — rewound further to cover any parked forward
        // reference whose final pass never ran because the archive went
        // unreachable — or, on a transport cut with no gap, the first
        // unfetched page of the interrupted scan.
        let gap = scan
            .blocked
            .as_ref()
            .map(|(e, id)| FetchCursor::at_txn(*e, id.clone()));
        let parked = scan.parked.iter().map(|t| (t.epoch, &t.id)).min();
        let parked = parked.map(|(e, id)| FetchCursor::at_txn(e, id.clone()));
        let cut = scan.report.unreachable.then_some(cursor);
        let freeze = [gap, parked, cut].into_iter().flatten().reduce(min_cursor);
        match &freeze {
            Some(at) => {
                // Freeze durable progress at the blocking position: the
                // next exchange re-probes exactly this position first.
                // Reachable work past it was already applied where safe;
                // the held set and high-water mark persist so the next
                // poll only probes the gap and fetches history it has
                // not seen.
                let caught_up = Epoch::new(at.epoch().value().saturating_sub(1));
                peer.last_epoch = peer.last_epoch.max(caught_up);
                peer.held = scan.held;
                peer.scanned_hw = scan.hw.max(peer.scanned_hw.take());
            }
            None => {
                peer.held.clear();
                peer.scanned_hw = None;
                if let Some(m) = scan.max_seen {
                    peer.last_epoch = peer.last_epoch.max(m);
                }
            }
        }
        peer.resume = freeze;
        // §2: the clock advances per update exchange — but only exchanges
        // that did something: ingested a transaction, or moved the peer's
        // durable position. A blocked retry that learns nothing new and
        // an idle poll both leave the clock alone, so polling loops no
        // longer inflate epochs (and epoch-indexed snapshots) unboundedly.
        let progress = peer.ingested.len() != prev_ingested
            || peer.last_epoch != prev_last_epoch
            || peer.resume != prev_resume;
        if let Some(m) = scan.max_seen {
            // Keep the system clock ahead of everything in the archive, so
            // a CDSS rebuilt from a durable store never restamps epochs.
            clock.observe(m);
        }
        scan.report.epoch = if progress {
            clock.advance()
        } else {
            clock.current()
        };
        scan.report.blocked_on = scan.blocked.map(|(_, id)| id);
        Ok(scan.report)
    }

    /// Reconcile every peer once, in name order. Convenience for tests,
    /// examples and benchmarks; returns the per-peer reports.
    pub fn reconcile_all(&mut self) -> Result<Vec<(PeerId, ReconcileReport)>> {
        let ids = self.peer_ids();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let report = self.reconcile(&id)?;
            out.push((id, report));
        }
        Ok(out)
    }

    /// Manually resolve deferred conflicts at a peer in favor of `winner`
    /// (§3: the winner's deferred dependents apply automatically; the
    /// losers' dependents are rejected).
    pub fn resolve(&mut self, peer_id: &PeerId, winner: &TxnId) -> Result<ResolveReport> {
        let peer = self.peer_mut(peer_id)?;
        let outcome = peer.resolve(winner)?;
        let applied_updates = apply(&mut peer.instance, &outcome.accepted)?;
        Ok(ResolveReport {
            outcome,
            applied_updates,
        })
    }
}

/// Check every update of every transaction in a batch against the
/// publishing peer's schema (known relation, arity, types, key-preserving
/// modifies).
fn validate_batch(schema: &DatabaseSchema, txns: &[Vec<Update>]) -> Result<()> {
    for u in txns.iter().flatten() {
        let rel = schema.relation(u.relation())?;
        u.validate(rel).map_err(CoreError::from)?;
    }
    Ok(())
}

/// One exchange in progress: the report it returns, which every page adds
/// to, and the scan state behind it.
struct Scan {
    report: ReconcileReport,
    /// The first unreachable position this peer still needs.
    blocked: Option<(Epoch, TxnId)>,
    /// Transactions this peer must not consume yet: skipped gaps plus
    /// (transitively) everything reachable that depends on one. Scan
    /// order is (epoch, id), which well-formed publication keeps causal,
    /// so a dependent is always examined after its antecedent has entered
    /// this set. Persisted on the peer while blocked.
    held: BTreeSet<TxnId>,
    /// Reachable transactions whose antecedents may still be ahead in scan
    /// order (forward references): retried with each later page, flushed
    /// through the reconciler after the scan completes.
    parked: Vec<Transaction>,
    /// The highest epoch scanned.
    max_seen: Option<Epoch>,
    /// The last archive position scanned (the high-water mark).
    hw: Option<(Epoch, TxnId)>,
}

impl Scan {
    /// Record an unreachable position, whether the probe of a blocked peer
    /// or a page found it. Returns `false` when it is no gap: the peer
    /// ingested the transaction before its payload went missing.
    fn gap(&mut self, peer: &mut Peer, epoch: Epoch, id: &TxnId) -> bool {
        self.max_seen = self.max_seen.max(Some(epoch));
        if peer.ingested.contains(id) {
            return false;
        }
        self.blocked.get_or_insert_with(|| (epoch, id.clone()));
        burn_own_id(peer, id);
        self.held.insert(id.clone());
        self.report.skipped_unavailable += 1;
        true
    }

    /// Run one batch of archive transactions through the peer's exchange
    /// pipeline: filter out transactions already ingested, hold back
    /// anything causally downstream of a gap, park forward references for
    /// a later page (when `park`), translate the rest, reconcile, and
    /// apply accepted work to the local instance. Page-sized batches keep
    /// the exchange's peak memory independent of how much history the
    /// peer missed; the reconciler's persistent decisions make per-page
    /// passes equivalent to one whole-history pass.
    ///
    /// A transaction that fails to translate (malformed) stops the batch,
    /// but not before what the batch ingested ahead of it is reconciled
    /// and applied: the engine has taken those in, and a retry skips them
    /// as ingested. The error is returned after that; the transactions
    /// behind the bad one are untouched and come again with the retry.
    fn take_in(&mut self, peer: &mut Peer, txns: Vec<Transaction>, park: bool) -> Result<()> {
        // The page is already an owned copy from the store — filter it in
        // place instead of cloning every transaction a second time.
        let fresh: Vec<Transaction> = txns
            .into_iter()
            .filter(|t| !peer.ingested.contains(&t.id))
            .collect();
        let mut kept: Vec<Transaction> = Vec::new();
        let mut candidates = Vec::new();
        let mut failed = None;
        for txn in causal_order(fresh) {
            if txn.antecedents.iter().any(|a| self.held.contains(a)) {
                // Depends on an unavailable gap (directly or through
                // another held transaction): not safe to consume yet. The
                // frozen resume cursor guarantees it is re-fetched after
                // the gap heals, in causal order.
                burn_own_id(peer, &txn.id);
                self.held.insert(txn.id.clone());
                self.report.held_back += 1;
                continue;
            }
            // An antecedent that is neither ingested nor decided can be a
            // forward reference: a transaction later in scan order (CDSS
            // publication keeps (epoch, id) order causal, but a direct
            // store publisher may interleave peers within one epoch).
            // Feeding it to the reconciler now would record a *sticky*
            // deferral, so park the transaction and retry it with the
            // next page — the final pass (`park` false) lets genuinely
            // ghost antecedents reach the reconciler and defer, as the
            // one-shot exchange always did.
            if park
                && txn
                    .antecedents
                    .iter()
                    .any(|a| !peer.ingested.contains(a) && peer.decision(a).is_none())
            {
                self.parked.push(txn);
                continue;
            }
            let admitted = match peer.ingest_and_translate(&txn) {
                Ok(Some(c)) => {
                    candidates.push(c);
                    Ok(())
                }
                // One of this peer's own transactions arriving *from the
                // archive* — possible only after the peer lost its local
                // state and rebuilt from the shared store (normally its
                // own transactions are ingested at publish time and
                // filtered out above). Restore what publishing had
                // established: the accepted decision (so foreign
                // dependents can resolve their antecedents) and the
                // sequence counter. The local effects are applied below,
                // interleaved with accepted foreign transactions in
                // causal order.
                Ok(None) => peer.note_local(&txn).map(|()| burn_own_id(peer, &txn.id)),
                Err(e) => Err(e),
            };
            if let Err(e) = admitted {
                failed = Some(e);
                break;
            }
            kept.push(txn);
        }
        self.report.candidates += candidates.len();

        let outcome = peer.reconcile(candidates)?;
        let own = |t: &Transaction| t.id.peer == peer.id;
        self.report.applied_updates += if !kept.iter().any(own) {
            // Normal path: accepted transactions in dependency order.
            apply(&mut peer.instance, &outcome.accepted)?
        } else {
            // Archive rebuild: the peer's own restored transactions and
            // newly accepted foreign ones must be applied in one causal
            // sequence — applying the own writes first would let a
            // causally *earlier* foreign write to the same key clobber
            // the peer's own later version. Accepted transactions from
            // earlier epochs' pools (not in this batch) are causally
            // older still and go first. Accepted foreign transactions
            // are applied in their *translated* form (the reconciler's
            // copies); the peer's own restored ones are already in its
            // schema.
            let in_batch: BTreeSet<&TxnId> = kept.iter().map(|t| &t.id).collect();
            let translated: BTreeMap<&TxnId, &Transaction> =
                outcome.accepted.iter().map(|t| (&t.id, t)).collect();
            let older = outcome
                .accepted
                .iter()
                .filter(|t| !in_batch.contains(&t.id));
            let causal = kept.iter().filter_map(|t| {
                if own(t) {
                    Some(t)
                } else {
                    translated.get(&t.id).copied()
                }
            });
            apply(&mut peer.instance, older.chain(causal))?
        };
        // Keep ids, drop payloads: the accepted transactions are already
        // applied, and retaining them across a long catch-up would grow
        // with history instead of page size.
        let report = &mut self.report.outcome;
        report
            .accepted
            .extend(outcome.accepted.into_iter().map(|t| t.id));
        report.rejected.extend(outcome.rejected);
        report.deferred.extend(outcome.deferred);
        failed.map_or(Ok(()), Err)
    }
}

/// Keep the peer from minting an id of its own that the archive already
/// holds, whether the exchange restored, held back or skipped past that
/// transaction: the store would reject the next publish as a duplicate
/// after the local instance was mutated.
fn burn_own_id(peer: &mut Peer, id: &TxnId) {
    if id.peer == peer.id {
        peer.next_seq = peer.next_seq.max(id.seq);
    }
}

/// Apply accepted transactions to a peer's local instance, in the order
/// given, as published history (see [`Peer`]); returns the number of
/// tuple-level updates applied.
fn apply<'a>(
    instance: &mut Instance,
    txns: impl IntoIterator<Item = &'a Transaction>,
) -> Result<usize> {
    let mut applied = 0;
    for u in txns.into_iter().flat_map(|t| &t.updates) {
        u.apply_published(instance).map_err(CoreError::from)?;
        applied += 1;
    }
    Ok(applied)
}

/// The earlier of two cursors in archive position order: `Start` of an
/// epoch precedes its transactions, and `At(id)` (inclusive) precedes
/// `After(id)` (exclusive) at the same id — so the minimum is the cursor
/// whose scan covers everything the other's does.
fn min_cursor(a: FetchCursor, b: FetchCursor) -> FetchCursor {
    fn key(c: &FetchCursor) -> (Epoch, Option<(&TxnId, u8)>) {
        let bound = match c.bound() {
            CursorBound::Start => None,
            CursorBound::At(id) => Some((id, 0)),
            CursorBound::After(id) => Some((id, 1)),
        };
        (c.epoch(), bound)
    }
    if key(&b) < key(&a) {
        b
    } else {
        a
    }
}

/// Order transactions so that in-batch antecedents come before dependents;
/// ties broken by (epoch, id). Transactions whose antecedents are outside
/// the batch are unconstrained by them.
fn causal_order(txns: Vec<Transaction>) -> Vec<Transaction> {
    let ids: BTreeSet<TxnId> = txns.iter().map(|t| t.id.clone()).collect();
    let mut by_id: BTreeMap<TxnId, Transaction> =
        txns.into_iter().map(|t| (t.id.clone(), t)).collect();
    let mut in_deg: BTreeMap<TxnId, usize> = BTreeMap::new();
    let mut dependents: BTreeMap<TxnId, Vec<TxnId>> = BTreeMap::new();
    for (id, txn) in &by_id {
        let deg = txn.antecedents.iter().filter(|a| ids.contains(a)).count();
        in_deg.insert(id.clone(), deg);
        for a in &txn.antecedents {
            if ids.contains(a) {
                dependents.entry(a.clone()).or_default().push(id.clone());
            }
        }
    }
    // Kahn with a deterministic ready queue ordered by (epoch, id).
    let mut ready: VecDeque<TxnId> = {
        let mut v: Vec<TxnId> = in_deg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(id, _)| id.clone())
            .collect();
        v.sort_by_key(|id| (by_id[id].epoch, id.clone()));
        v.into()
    };
    let mut out = Vec::with_capacity(by_id.len());
    while let Some(id) = ready.pop_front() {
        if let Some(deps) = dependents.get(&id) {
            for d in deps.clone() {
                #[expect(
                    clippy::expect_used,
                    reason = "dependents and in_deg are built over the same key set in the loop above"
                )]
                let e = in_deg.get_mut(&d).expect("node");
                *e -= 1;
                if *e == 0 {
                    ready.push_back(d);
                }
            }
        }
        if let Some(txn) = by_id.remove(&id) {
            out.push(txn);
        }
    }
    // A causality cycle cannot arise from well-formed publication, but an
    // adversarial store could fabricate one; append leftovers in id order
    // rather than dropping them.
    out.extend(by_id.into_values());
    out
}

impl std::fmt::Debug for Cdss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cdss")
            .field("peers", &self.peers.keys().collect::<Vec<_>>())
            .field("mappings", &self.mappings.len())
            .field("epoch", &self.clock.current())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::{tuple, RelationSchema, ValueType};

    fn txn(peer: &str, seq: u64, epoch: u64, ants: &[(&str, u64)]) -> Transaction {
        Transaction::new(
            TxnId::new(PeerId::new(peer), seq),
            Epoch::new(epoch),
            vec![],
        )
        .with_antecedents(ants.iter().map(|(p, s)| TxnId::new(PeerId::new(*p), *s)))
    }

    #[test]
    fn causal_order_puts_antecedents_first() {
        // D#1 at epoch 1 depends on nothing; C#1 at epoch 1 depends on
        // D#1 — id order alone would put C first.
        let txns = vec![txn("C", 1, 1, &[("D", 1)]), txn("D", 1, 1, &[])];
        let ordered = causal_order(txns);
        assert_eq!(ordered[0].id, TxnId::new(PeerId::new("D"), 1));
        assert_eq!(ordered[1].id, TxnId::new(PeerId::new("C"), 1));
    }

    #[test]
    fn causal_order_ties_break_by_epoch_then_id() {
        let txns = vec![
            txn("B", 1, 2, &[]),
            txn("A", 1, 3, &[]),
            txn("C", 1, 1, &[]),
        ];
        let ordered = causal_order(txns);
        let ids: Vec<String> = ordered.iter().map(|t| t.id.to_string()).collect();
        assert_eq!(ids, vec!["C#1", "B#1", "A#1"]);
    }

    #[test]
    fn causal_order_external_antecedents_do_not_block() {
        // Antecedent outside the batch: the transaction is unconstrained.
        let txns = vec![txn("A", 2, 2, &[("Ghost", 9)])];
        let ordered = causal_order(txns);
        assert_eq!(ordered.len(), 1);
    }

    #[test]
    fn causal_order_survives_fabricated_cycles() {
        // An adversarial archive could fabricate a cycle; nothing may be
        // dropped.
        let txns = vec![txn("A", 1, 1, &[("B", 1)]), txn("B", 1, 1, &[("A", 1)])];
        let ordered = causal_order(txns);
        assert_eq!(ordered.len(), 2);
    }

    #[test]
    fn eval_threads_accepts_one_and_refuses_more() {
        let builder = |threads: usize| {
            Cdss::builder()
                .peer("A", kv(), orchestra_reconcile::TrustPolicy::open(1))
                .peer("B", kv(), orchestra_reconcile::TrustPolicy::open(1))
                .identity("A", "B")
                .unwrap()
                .eval_threads(threads)
        };
        match builder(2).build() {
            Err(CoreError::Datalog(msg)) => {
                assert_eq!(
                    msg,
                    DatalogError::SingleThreaded { requested: 2 }.to_string()
                )
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("two evaluation threads were accepted"),
        }
        let mut cdss = builder(1).build().unwrap();
        let a = PeerId::new("A");
        let b = PeerId::new("B");
        {
            let inst = cdss.peer_mut(&a).unwrap().instance_mut();
            for k in 0..16i64 {
                inst.insert("R", tuple![k, k]).unwrap();
            }
        }
        cdss.publish(&a).unwrap().unwrap();
        let report = cdss.reconcile(&b).unwrap();
        assert_eq!(report.outcome.accepted.len(), 1);
        assert_eq!(
            cdss.peer(&b)
                .unwrap()
                .instance()
                .relation("R")
                .unwrap()
                .len(),
            16
        );
    }

    fn kv() -> DatabaseSchema {
        let rel = RelationSchema::from_parts_keyed(
            "R",
            &[("k", ValueType::Int), ("v", ValueType::Int)],
            &["k"],
        );
        DatabaseSchema::new("kv")
            .with_relation(rel.unwrap())
            .unwrap()
    }

    #[test]
    fn publishing_nothing_leaves_the_clock_alone() {
        let open = orchestra_reconcile::TrustPolicy::open(1);
        let mut cdss = Cdss::builder().peer("A", kv(), open).build().unwrap();
        let a = PeerId::new("A");
        let first = vec![Update::insert("R", tuple![1, 10])];
        cdss.publish_transaction(&a, first).unwrap();
        let epoch = cdss.current_epoch();
        assert_eq!(cdss.publish_transactions(&a, vec![]).unwrap(), vec![]);
        let empties = vec![vec![], vec![]];
        assert_eq!(cdss.publish_transactions(&a, empties).unwrap(), vec![]);
        assert_eq!(cdss.current_epoch(), epoch);
        assert_eq!(cdss.stats().published_txns, 1);
        // Empty transactions inside a real batch are still dropped, and
        // the batch takes the very next epoch and id.
        let mixed = vec![vec![], vec![Update::insert("R", tuple![2, 20])], vec![]];
        let ids = cdss.publish_transactions(&a, mixed).unwrap();
        assert_eq!(ids, vec![TxnId::new(a.clone(), 2)]);
        let stored = cdss.store().fetch(&ids[0]).unwrap().unwrap();
        assert_eq!(stored.epoch.value(), epoch.value() + 1);
    }

    #[test]
    fn a_malformed_transaction_fails_its_batch_before_anything_changes() {
        let open = orchestra_reconcile::TrustPolicy::open(1);
        let mut cdss = Cdss::builder()
            .peer("A", kv(), open.clone())
            .peer("B", kv(), open)
            .identity("A", "B")
            .unwrap()
            .build()
            .unwrap();
        let a = PeerId::new("A");
        let first = vec![Update::insert("R", tuple![1, 10])];
        let t1 = cdss.publish_transaction(&a, first).unwrap();

        // What a failed publish must leave exactly as it was.
        let state = |cdss: &Cdss| {
            let peer = cdss.peer(&a).unwrap();
            (
                peer.engine_stats(),
                peer.next_seq,
                peer.decision(&TxnId::new(a.clone(), 2)),
                peer.instance().clone(),
                cdss.current_epoch(),
                cdss.store().len(),
            )
        };
        let before = state(&cdss);
        assert_eq!((before.1, before.2), (1, None));
        // The second transaction has the wrong arity; the first is fine.
        let batch = || {
            vec![
                vec![Update::modify("R", tuple![1, 10], tuple![1, 11])],
                vec![Update::insert("R", tuple![3])],
            ]
        };
        assert!(cdss.publish_transactions(&a, batch()).is_err());
        assert_eq!(state(&cdss), before);
        // `publish_batch` on its own — the path `publish` takes, where
        // nothing was applied to the instance first — checks it too.
        assert!(cdss.publish_batch(&a, batch()).is_err());
        assert_eq!(state(&cdss), before);

        // The next publish takes the id the failed batch did not burn and
        // cites only history the archive holds.
        let next = vec![Update::modify("R", tuple![1, 10], tuple![1, 12])];
        let t2 = cdss.publish_transaction(&a, next).unwrap();
        assert_eq!(t2, TxnId::new(a.clone(), 2));
        let stored = cdss.store().fetch(&t2).unwrap().unwrap();
        assert_eq!(stored.antecedents.into_iter().collect::<Vec<_>>(), vec![t1]);
    }

    #[test]
    fn diff_publish_pairs_modifies_and_orders_epochs() {
        let schema = DatabaseSchema::new("kv")
            .with_relation(
                RelationSchema::from_parts_keyed(
                    "R",
                    &[("k", ValueType::Int), ("v", ValueType::Int)],
                    &["k"],
                )
                .unwrap(),
            )
            .unwrap();
        let mut cdss = Cdss::builder()
            .peer("A", schema, orchestra_reconcile::TrustPolicy::open(1))
            .build()
            .unwrap();
        let a = PeerId::new("A");
        // First epoch: insert two keys.
        {
            let inst = cdss.peer_mut(&a).unwrap().instance_mut();
            inst.insert("R", tuple![1, 10]).unwrap();
            inst.insert("R", tuple![2, 20]).unwrap();
        }
        let t1 = cdss.publish(&a).unwrap().unwrap();
        // Second epoch: modify one, delete the other, add a third.
        {
            let inst = cdss.peer_mut(&a).unwrap().instance_mut();
            inst.upsert("R", tuple![1, 11]).unwrap();
            inst.delete("R", &tuple![2, 20]).unwrap();
            inst.insert("R", tuple![3, 30]).unwrap();
        }
        let t2 = cdss.publish(&a).unwrap().unwrap();
        let stored = cdss.store().fetch(&t2).unwrap().unwrap();
        assert_eq!(stored.updates.len(), 3);
        let mut kinds: Vec<&str> = stored
            .updates
            .iter()
            .map(|u| match u {
                Update::Insert { .. } => "ins",
                Update::Delete { .. } => "del",
                Update::Modify { .. } => "mod",
            })
            .collect();
        kinds.sort();
        assert_eq!(kinds, vec!["del", "ins", "mod"]);
        assert!(stored.antecedents.contains(&t1));
        assert!(stored.epoch > cdss.store().fetch(&t1).unwrap().unwrap().epoch);
    }
}
