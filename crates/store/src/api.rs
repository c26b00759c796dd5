//! The update-store contract.

use orchestra_updates::{Epoch, Transaction, TxnId};
use std::collections::BTreeMap;
use std::fmt;

/// Default page size for [`UpdateStore::fetch_page`] and [`pages`]: the
/// most transactions a store materializes in memory per call.
pub const DEFAULT_PAGE_LIMIT: usize = 1024;

/// Errors raised by update stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A transaction with this id was already archived (ids are immutable
    /// once published), or appeared twice in one publish batch.
    DuplicateTxn(String),
    /// A transaction's payload could not be stored or retrieved: at fetch
    /// time every replica holding it is offline; at publish time no alive
    /// storage node was available to hold it.
    Unavailable {
        /// The unreachable transaction.
        txn: String,
    },
    /// A publish targeted an epoch older than the newest archived one.
    /// Inserting history *behind* existing epochs would be silently
    /// invisible to any cursor already past that position, so the archive
    /// enforces epoch-monotone appends.
    StaleEpoch {
        /// The rejected publish epoch.
        epoch: u64,
        /// The newest epoch already archived.
        latest: u64,
    },
    /// The store was configured inconsistently (e.g. zero nodes).
    InvalidConfig(String),
    /// A filesystem operation failed (durable store only). The `io::Error`
    /// is flattened to strings so `StoreError` stays `Clone + Eq`.
    Io {
        /// The operation attempted (`"open segment"`, `"fsync"`, …).
        op: String,
        /// The file or directory involved.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// On-disk data failed validation (durable store only): a checksum
    /// mismatch, an undecodable record, or a sealed file ending mid-frame.
    Corrupt {
        /// The corrupt file.
        path: String,
        /// Byte offset of the bad frame/record.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateTxn(id) => write!(f, "transaction `{id}` already archived"),
            StoreError::Unavailable { txn } => {
                write!(f, "transaction `{txn}` unavailable: no alive replica")
            }
            StoreError::StaleEpoch { epoch, latest } => write!(
                f,
                "publish epoch e{epoch} is behind the newest archived epoch e{latest}: \
                 appends must be epoch-monotone"
            ),
            StoreError::InvalidConfig(msg) => write!(f, "invalid store config: {msg}"),
            StoreError::Io { op, path, message } => {
                write!(f, "io error during {op} on `{path}`: {message}")
            }
            StoreError::Corrupt {
                path,
                offset,
                reason,
            } => {
                write!(f, "corrupt store file `{path}` at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Counters exposed by store implementations for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Transactions archived.
    pub published: u64,
    /// Transactions returned by fetches.
    pub fetched: u64,
    /// Storage-node probes performed (replicated store only).
    pub probes: u64,
    /// Lookups that found no alive replica.
    pub misses: u64,
    /// Pages served by [`UpdateStore::fetch_page`].
    pub pages: u64,
    /// Transactions reported unreachable by paged scans.
    pub unavailable: u64,
    /// Transactions published onto fewer replicas than the configured
    /// replication factor (replicated store only).
    pub degraded: u64,
}

/// Internally synchronized [`StoreStats`] so read paths can count under a
/// shared read lock (concurrent fetches must not serialize on a write
/// lock just to bump counters).
///
/// Each field is a shard of the corresponding `store.*` counter in the
/// `orchestra-obs` registry: `snapshot()` reads this instance's own
/// shard (per-store view, same semantics as before), while the registry
/// aggregates every live store plus all dropped ones.
#[derive(Debug)]
pub(crate) struct AtomicStats {
    pub published: orchestra_obs::CounterHandle,
    pub fetched: orchestra_obs::CounterHandle,
    pub probes: orchestra_obs::CounterHandle,
    pub misses: orchestra_obs::CounterHandle,
    pub pages: orchestra_obs::CounterHandle,
    pub unavailable: orchestra_obs::CounterHandle,
    pub degraded: orchestra_obs::CounterHandle,
}

impl Default for AtomicStats {
    fn default() -> Self {
        AtomicStats {
            published: orchestra_obs::counter("store.published"),
            fetched: orchestra_obs::counter("store.fetched"),
            probes: orchestra_obs::counter("store.probes"),
            misses: orchestra_obs::counter("store.misses"),
            pages: orchestra_obs::counter("store.pages"),
            unavailable: orchestra_obs::counter("store.unavailable"),
            degraded: orchestra_obs::counter("store.degraded"),
        }
    }
}

impl AtomicStats {
    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            published: self.published.get(),
            fetched: self.fetched.get(),
            probes: self.probes.get(),
            misses: self.misses.get(),
            pages: self.pages.get(),
            unavailable: self.unavailable.get(),
            degraded: self.degraded.get(),
        }
    }
}

/// Per-relation slice of a [`StoreDigest`]. Relations are keyed by their
/// *owner-qualified* name `<publisher>.<relation>` (the publisher is the
/// transaction's `id.peer`), so two peers' same-named relations digest
/// independently.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelationDigest {
    /// Latest epoch with archived transactions touching this relation.
    pub latest_epoch: Option<Epoch>,
    /// Archived transactions touching this relation.
    ///
    /// Because every publisher stamps a dense, monotonically increasing
    /// sequence and the archive scan order `(epoch, id)` preserves it,
    /// the set of a publisher's transactions touching one relation held
    /// by any honest node is a *prefix* of that subsequence — so two
    /// nodes interested in the relation can compare counts directly: the
    /// larger count strictly contains the smaller.
    pub txns: u64,
}

/// A compact, comparable summary of an archive — what a mesh peer
/// advertises to its neighbors so anti-entropy rounds can decide *whether*
/// and *what* to pull without shipping history.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreDigest {
    /// Archived transactions (reachable or not).
    pub len: u64,
    /// The newest archived epoch, if any.
    pub latest_epoch: Option<Epoch>,
    /// Per-publisher high-water marks: the largest archived sequence
    /// number per source peer. Sequences are dense (1, 2, 3, …) per
    /// publisher, which makes prefix-completeness checkable from marks.
    pub sources: BTreeMap<String, u64>,
    /// Per owner-qualified relation (`<publisher>.<relation>`) summaries.
    pub relations: BTreeMap<String, RelationDigest>,
}

impl StoreDigest {
    /// Fold one archived transaction (with its payload) into the digest.
    /// Each relation the transaction touches is credited once, however
    /// many of its updates land there — `txns` counts transactions.
    pub fn observe(&mut self, txn: &Transaction) {
        self.observe_position(txn.epoch, &txn.id);
        self.observe_relations(txn);
    }

    /// Credit the relations of a transaction whose position is already
    /// counted — a quarantined payload restored by a heal.
    pub(crate) fn observe_relations(&mut self, txn: &Transaction) {
        // Transactions touch few relations: dedupe by name first and
        // format one owner-qualified key per distinct relation.
        let mut touched: Vec<&str> = Vec::new();
        for u in &txn.updates {
            let rel: &str = u.relation();
            if !touched.contains(&rel) {
                touched.push(rel);
            }
        }
        let publisher = txn.id.peer.name();
        for rel in touched {
            let r = self
                .relations
                .entry(format!("{publisher}.{rel}"))
                .or_default();
            r.latest_epoch = Some(r.latest_epoch.map_or(txn.epoch, |e| e.max(txn.epoch)));
            r.txns += 1;
        }
    }

    /// Fold an archived *position* whose payload is unreachable: it still
    /// counts toward `len`, `latest_epoch` and the source high-water mark
    /// (the id is archived), but no relation is credited.
    pub fn observe_position(&mut self, epoch: Epoch, id: &TxnId) {
        self.len += 1;
        self.latest_epoch = Some(self.latest_epoch.map_or(epoch, |e| e.max(epoch)));
        let hw = self.sources.entry(id.peer.name().to_string()).or_default();
        *hw = (*hw).max(id.seq);
    }

    /// The high-water sequence archived for `source` (0 when unseen).
    pub fn source_hw(&self, source: &str) -> u64 {
        self.sources.get(source).copied().unwrap_or(0)
    }

    /// Transactions archived for the owner-qualified `relation` (0 when
    /// unseen).
    pub fn relation_txns(&self, relation: &str) -> u64 {
        self.relations.get(relation).map_or(0, |r| r.txns)
    }
}

/// What [`UpdateStore::absorb`] did with an anti-entropy batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbsorbReport {
    /// Transactions newly archived by this call.
    pub absorbed: u64,
    /// Transactions skipped because their id was already archived (or
    /// repeated within the batch) — the idempotent-merge case.
    pub duplicates: u64,
    /// Quarantined positions whose payloads this batch restored (durable
    /// store only): the id was already archived but its frame had been
    /// scrubbed out as corrupt, so the incoming copy re-materializes it.
    /// Healed transactions are neither `absorbed` (the position was
    /// already counted) nor `duplicates` (the payload was genuinely
    /// needed).
    pub healed: u64,
}

/// Where a cursor stands inside its epoch. Public so codecs (the durable
/// archive's on-disk format, the network wire protocol) can give cursors
/// a stable binary representation without this module knowing about
/// serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CursorBound {
    /// At the first transaction of the epoch.
    Start,
    /// At this transaction, inclusive.
    At(TxnId),
    /// Strictly after this transaction.
    After(TxnId),
}

/// A resumable position in the archive's deterministic `(epoch, txn id)`
/// order.
///
/// Cursors are plain values: they survive process restarts (the durable
/// store's order is rebuilt identically on recovery) and stay valid
/// across interleaved publishes because stores enforce epoch-monotone
/// appends ([`StoreError::StaleEpoch`]) — history never lands behind a
/// scanned epoch. One caveat remains: appending more transactions *into*
/// the newest epoch is allowed, so a cursor parked mid-way through that
/// epoch can miss late arrivals sorting below it. Publishers that need
/// strict cursor completeness use a fresh epoch per batch, as the CDSS
/// logical clock does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchCursor {
    epoch: Epoch,
    bound: CursorBound,
}

impl FetchCursor {
    /// Start at the first transaction of `epoch` (or any later epoch).
    pub fn at_epoch(epoch: Epoch) -> Self {
        FetchCursor {
            epoch,
            bound: CursorBound::Start,
        }
    }

    /// Everything published **after** `since`: the cursor a peer resumes
    /// from when it last reconciled at epoch `since`.
    pub fn after_epoch(since: Epoch) -> Self {
        FetchCursor::at_epoch(since.next())
    }

    /// Resume **at** transaction `id` of `epoch`, inclusive — used to
    /// freeze an exchange at an unreachable transaction so a later call
    /// retries exactly that position.
    pub fn at_txn(epoch: Epoch, id: TxnId) -> Self {
        FetchCursor {
            epoch,
            bound: CursorBound::At(id),
        }
    }

    /// Resume strictly after transaction `id` of `epoch`.
    pub fn after_txn(epoch: Epoch, id: TxnId) -> Self {
        FetchCursor {
            epoch,
            bound: CursorBound::After(id),
        }
    }

    /// The epoch this cursor points into.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Where the cursor stands inside its epoch.
    pub fn bound(&self) -> &CursorBound {
        &self.bound
    }

    /// Rebuild a cursor from its parts — the decode half of a binary
    /// round-trip (see `orchestra_store::durable::codec::put_cursor`).
    pub fn from_parts(epoch: Epoch, bound: CursorBound) -> Self {
        FetchCursor { epoch, bound }
    }
}

impl fmt::Display for FetchCursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.bound {
            CursorBound::Start => write!(f, "{}^", self.epoch),
            CursorBound::At(id) => write!(f, "{}@{id}", self.epoch),
            CursorBound::After(id) => write!(f, "{}>{id}", self.epoch),
        }
    }
}

/// One page of the archive, in `(epoch, txn id)` order.
///
/// `txns` and `unavailable` partition the positions scanned: together
/// they hold at most the `limit` passed to [`UpdateStore::fetch_page`].
/// Page boundaries depend only on the archive contents, the cursor, and
/// the limit — never on replica liveness — so a scan repeated under
/// different churn visits identical positions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FetchPage {
    /// Transactions whose payloads were reachable.
    pub txns: Vec<Transaction>,
    /// Positions whose payloads were unreachable (every replica offline),
    /// in scan order.
    pub unavailable: Vec<(Epoch, TxnId)>,
    /// Cursor for the next page, or `None` when the scan reached the end
    /// of the archive.
    pub next_cursor: Option<FetchCursor>,
}

impl FetchPage {
    /// Positions scanned by this page (reachable + unreachable).
    pub fn scanned(&self) -> usize {
        self.txns.len() + self.unavailable.len()
    }
}

/// The archive of published transactions shared by all CDSS peers.
///
/// Implementations are internally synchronized (`&self` methods): many
/// peers publish and reconcile against one shared store.
pub trait UpdateStore: Send + Sync {
    /// Archive a batch of transactions published in the given epoch.
    /// Atomic: a duplicate id (against the archive or within the batch)
    /// or an unavailable replica set rejects the whole batch.
    fn publish(&self, epoch: Epoch, txns: Vec<Transaction>) -> crate::Result<()>;

    /// One page of archived transactions starting at `cursor`, in
    /// deterministic `(epoch, txn id)` order, scanning at most `limit`
    /// positions (`limit` is clamped to at least 1).
    ///
    /// Unreachable payloads do **not** fail the call: they are reported
    /// in [`FetchPage::unavailable`] and the scan continues, so a single
    /// dead replica never blocks access to the rest of the history.
    fn fetch_page(&self, cursor: &FetchCursor, limit: usize) -> crate::Result<FetchPage>;

    /// Fetch one transaction by id, if archived and reachable.
    fn fetch(&self, id: &TxnId) -> crate::Result<Option<Transaction>>;

    /// Number of archived transactions (metadata view; counts unreachable
    /// payloads too).
    fn len(&self) -> usize;

    /// True iff nothing is archived.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest epoch with archived transactions, if any.
    fn latest_epoch(&self) -> Option<Epoch>;

    /// Counters snapshot.
    fn stats(&self) -> StoreStats;

    /// Summarize the whole archive as a [`StoreDigest`] — the
    /// advertisement a mesh peer gossips to its neighbors.
    ///
    /// The value is maintained, not recomputed: a backend builds it with
    /// one walk of its epoch index on the first call, then folds every
    /// later publish, absorb and heal into it, so a call costs
    /// O(sources + relations) — a clone — however long the archive.
    /// Stores nobody asks for a digest pay nothing. Quarantined positions
    /// count toward `len`, `latest_epoch` and the source marks but credit
    /// no relation; a digest never touches the fetch/page counters.
    fn digest(&self) -> crate::Result<StoreDigest>;

    /// Merge anti-entropy transactions into the archive, keeping the
    /// epochs their publishers stamped. Unlike
    /// [`publish`](Self::publish), `absorb` is **idempotent**
    /// (already-archived ids are silently skipped, so
    /// re-pulling an overlapping page is harmless) and **not epoch
    /// monotone** (a gossip pull from a second neighbor can legitimately
    /// carry history older than the newest local epoch — it lands behind
    /// existing cursors, which is why mesh consumers rewind after a
    /// backfill; see `orchestra-mesh`).
    ///
    /// Not every backend supports it: the default returns
    /// [`StoreError::InvalidConfig`].
    fn absorb(&self, txns: Vec<Transaction>) -> crate::Result<AbsorbReport> {
        let _ = txns;
        Err(StoreError::InvalidConfig(
            "this backend does not support anti-entropy absorb".into(),
        ))
    }

    /// Archived positions whose payloads were quarantined as corrupt, in
    /// `(epoch, txn id)` order — the gaps a mesh node asks its neighbors
    /// to re-fill. Backends without local storage (and therefore without
    /// bit-rot) report none.
    fn quarantined(&self) -> Vec<(Epoch, TxnId)> {
        Vec::new()
    }
}

/// Iterate a store's pages from `cursor`: the loop every caller of
/// [`UpdateStore::fetch_page`] would otherwise hand-roll. Yields each
/// [`FetchPage`] until the archive is exhausted; a fetch error is yielded
/// once and ends the iteration. Works on concrete stores and
/// `dyn UpdateStore` alike. Each page is its own `fetch_page` call, so a
/// walk is not a point-in-time snapshot (see [`FetchCursor`]).
pub fn pages<S: UpdateStore + ?Sized>(
    store: &S,
    cursor: FetchCursor,
    limit: usize,
) -> Pages<'_, S> {
    Pages {
        store,
        cursor: Some(cursor),
        limit,
    }
}

/// Iterator over a store's pages — see [`pages`].
#[derive(Debug)]
pub struct Pages<'a, S: UpdateStore + ?Sized> {
    store: &'a S,
    cursor: Option<FetchCursor>,
    limit: usize,
}

impl<S: UpdateStore + ?Sized> Iterator for Pages<'_, S> {
    type Item = crate::Result<FetchPage>;

    fn next(&mut self) -> Option<Self::Item> {
        let cursor = self.cursor.take()?;
        match self.store.fetch_page(&cursor, self.limit) {
            Ok(page) => {
                self.cursor = page.next_cursor.clone();
                Some(Ok(page))
            }
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_updates::PeerId;

    fn id(peer: &str, seq: u64) -> TxnId {
        TxnId::new(PeerId::new(peer), seq)
    }

    #[test]
    fn error_display() {
        assert!(StoreError::DuplicateTxn("A#1".into())
            .to_string()
            .contains("already archived"));
        assert!(StoreError::Unavailable { txn: "A#1".into() }
            .to_string()
            .contains("unavailable"));
        assert!(StoreError::InvalidConfig("zero nodes".into())
            .to_string()
            .contains("zero nodes"));
    }

    #[test]
    fn stats_default() {
        let s = StoreStats::default();
        assert_eq!(s.published, 0);
        assert_eq!(s.misses, 0);
        assert_eq!(s.pages, 0);
        assert_eq!(s.unavailable, 0);
        assert_eq!(s.degraded, 0);
    }

    #[test]
    fn atomic_stats_snapshot() {
        let a = AtomicStats::default();
        a.published.add(2);
        a.fetched.add(3);
        a.pages.add(1);
        a.unavailable.add(4);
        a.degraded.add(5);
        let s = a.snapshot();
        assert_eq!(s.published, 2);
        assert_eq!(s.fetched, 3);
        assert_eq!(s.pages, 1);
        assert_eq!(s.unavailable, 4);
        assert_eq!(s.degraded, 5);
    }

    #[test]
    fn observe_credits_each_touched_relation_once() {
        use orchestra_relational::tuple;
        use orchestra_updates::Update;
        // The fold as it was: one formatted key per update, deduplicated
        // through a set.
        fn per_update(d: &mut StoreDigest, txn: &Transaction) {
            d.observe_position(txn.epoch, &txn.id);
            let touched: std::collections::BTreeSet<String> = txn
                .updates
                .iter()
                .map(|u| format!("{}.{}", txn.id.peer.name(), u.relation()))
                .collect();
            for key in touched {
                let r = d.relations.entry(key).or_default();
                r.latest_epoch = Some(r.latest_epoch.map_or(txn.epoch, |e| e.max(txn.epoch)));
                r.txns += 1;
            }
        }
        let rels = ["R", "S", "R", "T", "R", "S"];
        let txns: Vec<Transaction> = (1..=6u64)
            .map(|seq| {
                let updates = rels[..seq as usize]
                    .iter()
                    .enumerate()
                    .map(|(i, r)| Update::insert(*r, tuple![i as i64]))
                    .collect();
                Transaction::new(
                    id(["A", "B"][seq as usize % 2], seq),
                    Epoch::new(seq),
                    updates,
                )
            })
            .collect();
        let (mut new, mut old) = (StoreDigest::default(), StoreDigest::default());
        for t in &txns {
            new.observe(t);
            per_update(&mut old, t);
        }
        assert_eq!(new, old);
        assert_eq!(new.relation_txns("A.R"), 3);
        assert_eq!(new.relation_txns("B.T"), 1);
    }

    #[test]
    fn cursor_display() {
        assert_eq!(FetchCursor::at_epoch(Epoch::new(2)).to_string(), "e2^");
        assert_eq!(
            FetchCursor::at_txn(Epoch::new(2), id("A", 1)).to_string(),
            "e2@A#1"
        );
        assert_eq!(
            FetchCursor::after_txn(Epoch::new(2), id("A", 1)).to_string(),
            "e2>A#1"
        );
    }
}
