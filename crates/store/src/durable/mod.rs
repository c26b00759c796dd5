//! The durable update archive: a crash-recoverable [`UpdateStore`] backed
//! by a write-ahead log of checksummed frames, sealed segments, and
//! epoch-indexed compaction snapshots.
//!
//! The paper's CDSS assumes "published transactions are stored in a
//! peer-to-peer distributed database" that peers fetch from after
//! arbitrary offline periods. [`InMemoryStore`](crate::InMemoryStore) and
//! [`ReplicatedStore`](crate::ReplicatedStore) model the *distribution*
//! aspects of that archive; this module supplies the missing property —
//! **durability**. Every published batch is appended as one checksummed
//! frame before `publish` returns, so:
//!
//! * a restarted peer process reopens the archive and finds exactly the
//!   batches that were durable at the crash (the torn tail of a
//!   mid-append crash is truncated away, never half-applied);
//! * archives larger than RAM remain fetchable ([`CacheMode::DiskOnly`]
//!   keeps only a location index in memory);
//! * recovery cost is bounded by the live WAL suffix: [`compact`] folds
//!   sealed segments into a snapshot file and deletes them.
//!
//! ```no_run
//! use orchestra_store::{DurableStore, UpdateStore};
//! use orchestra_updates::Epoch;
//!
//! let store = DurableStore::open("/var/lib/orchestra/archive").unwrap();
//! let all = store.fetch_since(Epoch::zero()).unwrap(); // survives restarts
//! ```
//!
//! [`compact`]: DurableStore::compact

pub mod codec;
pub mod segment;
pub mod snapshot;
pub mod wal;

pub use wal::SyncPolicy;

use crate::api::{
    check_batch_ids, check_epoch_monotone, collect_page, index_epoch_ids, AtomicStats,
};
use crate::api::{
    AbsorbReport, FetchCursor, FetchPage, StoreDigest, StoreError, StoreStats, UpdateStore,
    DEFAULT_PAGE_LIMIT,
};
use orchestra_updates::{Epoch, Transaction, TxnId};
use parking_lot::RwLock;
use snapshot::{list_snapshots, snapshot_file_name};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use wal::{read_batch_from, Wal};

/// Whether fetched transactions are served from RAM or re-read from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Tiered mode: decoded transactions stay cached in memory, so the
    /// hot fetch path never touches disk. The default.
    #[default]
    Cached,
    /// Keep only the location index in memory and decode from disk per
    /// fetch: supports archives larger than RAM.
    DiskOnly,
}

/// Tunables for [`DurableStore::open_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_max_bytes: u64,
    /// When appends reach stable storage.
    pub sync_policy: SyncPolicy,
    /// Read-path tiering.
    pub cache: CacheMode,
    /// Automatically [`compact`](DurableStore::compact) after this many
    /// publishes (`None` = manual compaction only).
    pub compact_every_batches: Option<u64>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            segment_max_bytes: 8 * 1024 * 1024,
            sync_policy: SyncPolicy::Always,
            cache: CacheMode::Cached,
            compact_every_batches: None,
        }
    }
}

/// Durability/compaction counters beyond the common [`StoreStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurableStats {
    /// Live WAL segments (sealed + active).
    pub segments: usize,
    /// Bytes in the active segment.
    pub active_segment_bytes: u64,
    /// The current snapshot's covered-through segment, if any.
    pub snapshot_watermark: Option<u64>,
    /// Transactions replayed from disk at open.
    pub recovered_txns: u64,
    /// Torn bytes truncated from the WAL tail at open.
    pub torn_bytes_truncated: u64,
    /// Compactions performed since open.
    pub compactions: u64,
    /// Auto-compactions that failed (the triggering publishes still
    /// succeeded; see [`DurableStore::last_compaction_error`]).
    pub failed_compactions: u64,
    /// Corrupt frames skipped — at open (their ids are unknown and simply
    /// absent) or during compaction streaming.
    pub corrupt_frames_skipped: u64,
    /// Archived positions currently quarantined by [`DurableStore::scrub`]:
    /// the id is known but its payload was corrupt on disk, awaiting a
    /// healthy copy from a mesh neighbor.
    pub quarantined: u64,
    /// Quarantined positions healed by [`UpdateStore::absorb`] since open.
    pub healed: u64,
}

/// What one [`DurableStore::scrub`] pass found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Files (segments + snapshot) whose frames were verified.
    pub files_scanned: usize,
    /// Corrupt frames found in this pass.
    pub corrupt_frames: usize,
    /// Transactions newly moved to quarantine by this pass.
    pub quarantined: usize,
}

/// Where one transaction's batch frame lives on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FileRef {
    Segment(u64),
    Snapshot(u64),
}

#[derive(Debug, Clone, Copy)]
struct Location {
    file: FileRef,
    offset: u64,
    /// Position of the transaction within its batch.
    index: u32,
}

#[derive(Debug)]
struct Inner {
    wal: Wal,
    /// TxnId → on-disk location (always resident: the metadata tier).
    index: HashMap<TxnId, Location>,
    /// Epoch → txn ids, for `fetch_since` range scans.
    by_epoch: BTreeMap<Epoch, Vec<TxnId>>,
    /// Decoded-transaction tier (populated only in [`CacheMode::Cached`]).
    cache: HashMap<TxnId, Transaction>,
    /// Archived positions whose on-disk frame failed its checksum: the id
    /// stays listed in `by_epoch` (pages report it unavailable) but has
    /// no `index` location and no cache entry until `absorb` re-delivers
    /// a healthy copy from a neighbor.
    quarantined: HashMap<TxnId, Epoch>,
    /// The maintained digest: built by the first `digest()` call, folded
    /// forward by `publish`, `absorb` and heals, dropped by a scrub that
    /// quarantines (the next call rebuilds it). Never built at open.
    digest: Option<StoreDigest>,
    snapshot_watermark: Option<u64>,
    batches_since_compact: u64,
    last_compact_error: Option<StoreError>,
    dstats: DurableStats,
}

/// The WAL-backed durable archive. See the [module docs](self).
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    opts: DurableOptions,
    inner: RwLock<Inner>,
    stats: AtomicStats,
    /// Held for the store's lifetime: an exclusive advisory lock on the
    /// archive directory. Two stores appending to one WAL would corrupt
    /// each other's offsets and compact files out from under each other.
    _lock: fs::File,
}

impl DurableStore {
    /// Open (or create) the archive in `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> crate::Result<Self> {
        DurableStore::open_with(dir, DurableOptions::default())
    }

    /// Open (or create) the archive in `dir`.
    ///
    /// Recovery: load the newest snapshot (older ones and segments it
    /// covers are garbage from an interrupted compaction and are
    /// deleted), replay every newer segment, and truncate a torn tail on
    /// the active segment.
    pub fn open_with(dir: impl AsRef<Path>, opts: DurableOptions) -> crate::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| segment::io_err("create_dir_all", &dir, &e))?;
        let lock = lock_dir(&dir)?;

        // Tmp files from a crashed snapshot write are invisible to
        // recovery by construction; sweep them so they don't accumulate.
        remove_stale_tmp_files(&dir)?;

        let mut index = HashMap::new();
        let mut by_epoch: BTreeMap<Epoch, Vec<TxnId>> = BTreeMap::new();
        let mut cache = HashMap::new();

        let snaps = list_snapshots(&dir)?;
        let watermark = snaps.last().copied();
        if let Some(w) = watermark {
            // Stream-validate the newest snapshot *before* deleting any
            // older one: until this load succeeds, an older snapshot may
            // be the only surviving copy of compacted data.
            snapshot::stream_snapshot(&dir, w, |batch| {
                index_batch(
                    &mut index,
                    &mut by_epoch,
                    &mut cache,
                    opts.cache,
                    FileRef::Snapshot(w),
                    batch.offset,
                    batch.epoch,
                    batch.txns,
                );
                Ok(())
            })?;
            // Stale lower snapshots: compaction deletes them after the
            // rename; finish the job if a crash intervened.
            for &old in snaps.iter().filter(|&&s| s != w) {
                let path = dir.join(snapshot_file_name(old));
                fs::remove_file(&path).map_err(|e| segment::io_err("remove", &path, &e))?;
            }
        }

        let (wal, recovery) = Wal::open(&dir, watermark, opts.segment_max_bytes, opts.sync_policy)?;
        for batch in recovery.batches {
            index_batch(
                &mut index,
                &mut by_epoch,
                &mut cache,
                opts.cache,
                FileRef::Segment(batch.segment),
                batch.offset,
                batch.epoch,
                batch.txns,
            );
        }
        let recovered_txns = index.len() as u64;

        let dstats = DurableStats {
            segments: wal.segment_count(),
            active_segment_bytes: wal.active_len(),
            snapshot_watermark: watermark,
            recovered_txns,
            torn_bytes_truncated: recovery.torn_bytes_truncated,
            corrupt_frames_skipped: recovery.corrupt_frames_skipped,
            ..DurableStats::default()
        };
        Ok(DurableStore {
            dir,
            opts,
            inner: RwLock::new(Inner {
                wal,
                index,
                by_epoch,
                cache,
                quarantined: HashMap::new(),
                digest: None,
                snapshot_watermark: watermark,
                batches_since_compact: 0,
                last_compact_error: None,
                dstats,
            }),
            stats: AtomicStats::default(),
            _lock: lock,
        })
    }

    /// The archive directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The options the archive was opened with.
    pub fn options(&self) -> DurableOptions {
        self.opts
    }

    /// Durability counters.
    pub fn durable_stats(&self) -> DurableStats {
        let inner = self.inner.read();
        DurableStats {
            segments: inner.wal.segment_count(),
            active_segment_bytes: inner.wal.active_len(),
            snapshot_watermark: inner.snapshot_watermark,
            quarantined: inner.quarantined.len() as u64,
            ..inner.dstats
        }
    }

    /// Verify every frame in every live archive file (sealed segments,
    /// the active segment, and the current snapshot) against its
    /// checksum, and **quarantine** the transactions of any frame that
    /// fails: their locations leave the index (and cache — a healthy RAM
    /// copy must not mask rotten durable bytes), but the positions stay
    /// listed so paged scans report them [`FetchPage::unavailable`]
    /// rather than silently shrinking history. A mesh node treats those
    /// positions as gossip gaps and re-pulls them from neighbors, healing
    /// them through [`UpdateStore::absorb`].
    pub fn scrub(&self) -> crate::Result<ScrubReport> {
        let _span = orchestra_obs::span!("store.scrub");
        let mut inner = self.inner.write();
        let mut report = ScrubReport::default();

        // Every file the index can point into, with its FileRef.
        let mut files: Vec<FileRef> = Vec::new();
        if let Some(w) = inner.snapshot_watermark {
            files.push(FileRef::Snapshot(w));
        }
        files.extend(
            inner
                .wal
                .sealed_segments()
                .iter()
                .map(|&s| FileRef::Segment(s)),
        );
        files.push(FileRef::Segment(inner.wal.active_seq()));

        // Collect each file's corrupt byte regions. The active segment
        // may legitimately end mid-frame only under relaxed sync policies
        // mid-crash; at scrub time (a live, consistent store) every frame
        // should be complete, so no torn-tail allowance anywhere — an
        // incomplete tail frame simply becomes a corrupt region and its
        // batch is quarantined.
        let mut regions: Vec<(FileRef, segment::CorruptRegion)> = Vec::new();
        for &file in &files {
            let path = self.file_path(file);
            if !path.exists() {
                continue; // an empty active segment may not exist yet
            }
            let scan = segment::scan_segment_lossy(&path, false)?;
            report.files_scanned += 1;
            report.corrupt_frames += scan.corrupt.len();
            regions.extend(scan.corrupt.into_iter().map(|r| (file, r)));
        }
        if regions.is_empty() {
            return Ok(report);
        }

        // Quarantine every indexed transaction whose frame lies in a
        // corrupt region (open-ended regions swallow the whole suffix).
        let hit = |loc: &Location| {
            regions.iter().any(|(file, r)| {
                loc.file == *file
                    && match r.len {
                        Some(len) => loc.offset >= r.offset && loc.offset < r.offset + len,
                        None => loc.offset >= r.offset,
                    }
            })
        };
        let ids: Vec<TxnId> = inner
            .index
            .iter()
            .filter(|(_, loc)| hit(loc))
            .map(|(id, _)| id.clone())
            .collect();
        let id_set: std::collections::HashSet<&TxnId> = ids.iter().collect();
        let mut epochs: HashMap<TxnId, Epoch> = HashMap::new();
        for (&epoch, list) in &inner.by_epoch {
            for id in list {
                if id_set.contains(id) {
                    epochs.insert(id.clone(), epoch);
                }
            }
        }
        for id in ids {
            let epoch = epochs
                .get(&id)
                .copied()
                .expect("indexed ids are listed in by_epoch"); // analyze: allow(panic) -- index and by_epoch are updated in lockstep
            inner.index.remove(&id);
            inner.cache.remove(&id);
            inner.quarantined.insert(id, epoch);
            report.quarantined += 1;
        }
        if report.quarantined > 0 {
            // Quarantined positions stop crediting their relations.
            inner.digest = None;
        }
        orchestra_obs::counter!("store.scrub.quarantined", report.quarantined as u64);
        Ok(report)
    }

    /// Force all appended batches to stable storage (a no-op under
    /// [`SyncPolicy::Always`], which syncs in `publish`).
    pub fn sync(&self) -> crate::Result<()> {
        self.inner.write().wal.sync()
    }

    /// The most recent compaction trouble, if any: an auto-compaction
    /// failure (auto-compaction runs inside `publish` but never fails the
    /// publish itself — the batch is already durable), or a post-success
    /// cleanup failure (the compaction itself committed; stragglers are
    /// swept by the next open). Cleared by the next clean compaction.
    pub fn last_compaction_error(&self) -> Option<StoreError> {
        self.inner.read().last_compact_error.clone()
    }

    /// Fold everything sealed so far into a snapshot and delete the
    /// covered segments, bounding the next open's replay to the live
    /// suffix. Returns the new watermark, or `None` when there was
    /// nothing to compact.
    pub fn compact(&self) -> crate::Result<Option<u64>> {
        let mut inner = self.inner.write();
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut Inner) -> crate::Result<Option<u64>> {
        let active_empty = inner.wal.active_len() == 0;
        if inner.wal.sealed_segments().is_empty() && active_empty {
            return Ok(None); // nothing new since the last snapshot
        }
        // A fresh attempt supersedes any parked error from earlier
        // attempts (it is re-set below if this one also has trouble).
        inner.last_compact_error = None;
        let covered = if active_empty {
            inner.wal.active_seq() - 1
        } else {
            inner.wal.rotate()?
        };

        // Stream every durable batch in publish order — current snapshot
        // first, then each sealed segment — into the new snapshot file,
        // one batch resident at a time (archives can exceed RAM). Reading
        // from disk (not the cache) keeps compaction identical in both
        // cache modes. Locations are collected and applied to the index
        // only after the new snapshot is durably published.
        let mut writer = snapshot::SnapshotWriter::begin(&self.dir, covered)?;
        let mut repoints: Vec<(TxnId, Location)> = Vec::with_capacity(inner.index.len());
        let copy_batch = |writer: &mut snapshot::SnapshotWriter,
                          repoints: &mut Vec<(TxnId, Location)>,
                          epoch: Epoch,
                          txns: &[Transaction]|
         -> crate::Result<()> {
            let offset = writer.append_batch(epoch, txns)?;
            for (i, t) in txns.iter().enumerate() {
                repoints.push((
                    t.id.clone(),
                    Location {
                        file: FileRef::Snapshot(covered),
                        offset,
                        index: i as u32,
                    },
                ));
            }
            Ok(())
        };
        if let Some(w) = inner.snapshot_watermark {
            snapshot::stream_snapshot(&self.dir, w, |b| {
                copy_batch(&mut writer, &mut repoints, b.epoch, &b.txns)
            })?;
        }
        let mut corrupt_skipped = 0u64;
        for &seq in inner.wal.sealed_segments() {
            let path = self.dir.join(segment::segment_file_name(seq));
            let file = fs::File::open(&path).map_err(|e| segment::io_err("open", &path, &e))?;
            let mut reader = crate::frame::FrameReader::new(std::io::BufReader::new(file), 0);
            loop {
                let (_, outcome) = reader
                    .next_frame()
                    .map_err(|e| segment::io_err("read", &path, &e))?;
                let payload = match outcome {
                    crate::frame::FrameRead::Ok { payload, .. } => payload,
                    crate::frame::FrameRead::Eof => break,
                    // A scrubbed-out (quarantined) or still-undetected
                    // corrupt frame must not wedge compaction: skip it.
                    // Its transactions either sit in quarantine (no
                    // location — unaffected by the repoint) or are healed
                    // copies living in *later* frames.
                    crate::frame::FrameRead::Corrupt {
                        resync: Some(_), ..
                    } => {
                        corrupt_skipped += 1;
                        continue;
                    }
                    // Unframeable suffix: nothing further can be read.
                    _ => {
                        corrupt_skipped += 1;
                        break;
                    }
                };
                let Ok((epoch, txns)) = codec::decode_batch(&payload) else {
                    corrupt_skipped += 1;
                    continue;
                };
                copy_batch(&mut writer, &mut repoints, epoch, &txns)?;
            }
        }
        writer.finish()?;

        // The new snapshot is durable: commit the in-memory state FIRST
        // (re-point the index, advance the watermark) so a failure in the
        // cleanup below cannot leave the watermark behind the data — a
        // later compaction starting from a stale watermark would write a
        // snapshot missing the batches only the new one holds.
        for (id, loc) in repoints {
            inner.index.insert(id, loc);
        }
        let old_watermark = inner.snapshot_watermark.replace(covered);
        inner.batches_since_compact = 0;
        inner.dstats.compactions += 1;
        inner.dstats.corrupt_frames_skipped += corrupt_skipped;

        // Cleanup of now-covered files. The compaction has already
        // succeeded, so a cleanup failure must not be reported as a
        // failed compaction — the state is consistent, the stragglers
        // only cost disk space, and the next open deletes them itself.
        // Park any cleanup error where operators can see it.
        let cleanup = (|| -> crate::Result<()> {
            if let Some(old) = old_watermark {
                if old != covered {
                    let path = self.dir.join(snapshot_file_name(old));
                    fs::remove_file(&path).map_err(|e| segment::io_err("remove", &path, &e))?;
                }
            }
            inner.wal.remove_covered(covered)?;
            segment::sync_dir(&self.dir)
        })();
        if let Err(e) = cleanup {
            inner.last_compact_error = Some(e);
        }
        Ok(Some(covered))
    }

    /// Resolve archived positions to their payloads in order — cache
    /// first, then one decode per batch frame — calling `f` with `None`
    /// for a quarantined position.
    fn for_each_payload(
        &self,
        inner: &Inner,
        positions: &[(Epoch, TxnId)],
        mut f: impl FnMut(Epoch, &TxnId, Option<&Transaction>),
    ) -> crate::Result<()> {
        // Group disk reads per batch frame so a cold page decodes each
        // frame once, not once per transaction.
        let mut frame_cache: HashMap<(FileRef, u64), Vec<Transaction>> = HashMap::new();
        for (epoch, id) in positions {
            if let Some(t) = inner.cache.get(id) {
                f(*epoch, id, Some(t));
                continue;
            }
            if inner.quarantined.contains_key(id) {
                f(*epoch, id, None);
                continue;
            }
            // analyze: allow(panic) -- index and by_epoch are updated in lockstep
            let loc = *inner.index.get(id).expect("by_epoch ids are indexed");
            let key = (loc.file, loc.offset);
            if let std::collections::hash_map::Entry::Vacant(e) = frame_cache.entry(key) {
                let (_, batch) = read_batch_from(&self.file_path(loc.file), loc.offset)?;
                e.insert(batch);
            }
            let batch = &frame_cache[&key]; // analyze: allow(panic) -- entry for key inserted just above when vacant
            let t = batch
                .get(loc.index as usize)
                .ok_or_else(|| StoreError::Corrupt {
                    path: self.file_path(loc.file).display().to_string(),
                    offset: loc.offset,
                    reason: format!("batch shorter than indexed position {}", loc.index),
                })?;
            f(*epoch, id, Some(t));
        }
        Ok(())
    }

    fn load_txn(&self, inner: &Inner, id: &TxnId) -> crate::Result<Option<Transaction>> {
        if let Some(t) = inner.cache.get(id) {
            return Ok(Some(t.clone()));
        }
        let Some(loc) = inner.index.get(id) else {
            return Ok(None);
        };
        let (_, txns) = read_batch_from(&self.file_path(loc.file), loc.offset)?;
        match txns.into_iter().nth(loc.index as usize) {
            Some(t) => Ok(Some(t)),
            None => Err(StoreError::Corrupt {
                path: self.file_path(loc.file).display().to_string(),
                offset: loc.offset,
                reason: format!("batch shorter than indexed position {}", loc.index),
            }),
        }
    }

    fn file_path(&self, file: FileRef) -> PathBuf {
        match file {
            FileRef::Segment(seq) => self.dir.join(segment::segment_file_name(seq)),
            FileRef::Snapshot(seq) => self.dir.join(snapshot_file_name(seq)),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn index_batch(
    index: &mut HashMap<TxnId, Location>,
    by_epoch: &mut BTreeMap<Epoch, Vec<TxnId>>,
    cache: &mut HashMap<TxnId, Transaction>,
    mode: CacheMode,
    file: FileRef,
    offset: u64,
    epoch: Epoch,
    txns: Vec<Transaction>,
) {
    if txns.is_empty() {
        return;
    }
    let mut ids = Vec::with_capacity(txns.len());
    for (i, t) in txns.into_iter().enumerate() {
        // First indexed location wins. A failed-fsync retry can land the
        // same batch in two on-disk frames; recovery must list the
        // position exactly once or paged scans would apply it twice.
        if index.contains_key(&t.id) {
            continue;
        }
        index.insert(
            t.id.clone(),
            Location {
                file,
                offset,
                index: i as u32,
            },
        );
        ids.push(t.id.clone());
        if mode == CacheMode::Cached {
            cache.insert(t.id.clone(), t);
        }
    }
    index_epoch_ids(by_epoch, epoch, ids);
}

impl UpdateStore for DurableStore {
    fn publish(&self, epoch: Epoch, txns: Vec<Transaction>) -> crate::Result<()> {
        if txns.is_empty() {
            return Ok(()); // Vacuous: nothing a cursor could miss.
        }
        let _span = orchestra_obs::span!("store.publish", txns = txns.len(), epoch = epoch);
        let mut inner = self.inner.write();
        // Quarantined ids are still *archived* (their position exists);
        // re-publishing one must be rejected like any duplicate — only
        // `absorb` may re-deliver the payload (as a heal).
        check_batch_ids(&txns, |id| {
            inner.index.contains_key(id) || inner.quarantined.contains_key(id)
        })?;
        check_epoch_monotone(epoch, inner.by_epoch.keys().next_back().copied())?;
        let mut stamped = txns;
        for t in &mut stamped {
            t.epoch = epoch;
        }

        // Durability first: the batch is on the log (synced per policy)
        // before any in-memory state changes.
        let (seg, offset) = inner.wal.append_batch(epoch, &stamped)?;

        let Inner {
            index,
            by_epoch,
            cache,
            digest,
            ..
        } = &mut *inner;
        if let Some(d) = digest {
            stamped.iter().for_each(|t| d.observe(t));
        }
        let n = stamped.len() as u64;
        index_batch(
            index,
            by_epoch,
            cache,
            self.opts.cache,
            FileRef::Segment(seg),
            offset,
            epoch,
            stamped,
        );
        self.stats.add_published(n);
        inner.batches_since_compact += 1;

        if let Some(every) = self.opts.compact_every_batches {
            if inner.batches_since_compact >= every.max(1) {
                // The batch is already durable and indexed, so an
                // auto-compaction failure must not fail this publish — a
                // caller retrying "failed" data would hit DuplicateTxn.
                // Record the error (surfaced via `last_compaction_error`)
                // and retry at the next threshold crossing.
                if let Err(e) = self.compact_locked(&mut inner) {
                    inner.dstats.failed_compactions += 1;
                    inner.last_compact_error = Some(e);
                }
            }
        }
        Ok(())
    }

    fn absorb(&self, txns: Vec<Transaction>) -> crate::Result<AbsorbReport> {
        let _span = orchestra_obs::span!("store.absorb", txns = txns.len());
        let mut inner = self.inner.write();
        let mut report = AbsorbReport::default();
        // Group fresh transactions by the epoch their publisher stamped;
        // each group becomes one WAL batch record — recovery and
        // compaction replay batches by their recorded epoch, so neither
        // cares that gossip merges arrive out of epoch order. Healing
        // re-deliveries for quarantined positions are kept apart: their
        // ids already sit in `by_epoch`, so they must be re-indexed
        // without re-listing the position.
        let mut groups: BTreeMap<Epoch, Vec<Transaction>> = BTreeMap::new();
        let mut heals: BTreeMap<Epoch, Vec<Transaction>> = BTreeMap::new();
        let mut incoming: std::collections::BTreeSet<TxnId> = std::collections::BTreeSet::new();
        for t in txns {
            if inner.index.contains_key(&t.id) || !incoming.insert(t.id.clone()) {
                report.duplicates += 1;
                continue;
            }
            if let Some(&epoch) = inner.quarantined.get(&t.id) {
                if t.epoch == epoch {
                    report.healed += 1;
                    heals.entry(epoch).or_default().push(t);
                } else {
                    // Same id, different epoch: not the transaction the
                    // archive listed. Refuse the splice.
                    report.duplicates += 1;
                }
                continue;
            }
            report.absorbed += 1;
            groups.entry(t.epoch).or_default().push(t);
        }
        for (epoch, batch) in groups {
            // Durability first, exactly like `publish`.
            let (seg, offset) = inner.wal.append_batch(epoch, &batch)?;
            let Inner {
                index,
                by_epoch,
                cache,
                digest,
                ..
            } = &mut *inner;
            if let Some(d) = digest {
                batch.iter().for_each(|t| d.observe(t));
            }
            index_batch(
                index,
                by_epoch,
                cache,
                self.opts.cache,
                FileRef::Segment(seg),
                offset,
                epoch,
                batch,
            );
            inner.batches_since_compact += 1;
        }
        for (epoch, batch) in heals {
            // The healthy copy is appended like fresh history (the old
            // corrupt frame stays where it is and is dropped by the next
            // compaction), but the position is NOT re-listed in
            // `by_epoch` — it never left. Zero duplicate applies: a
            // cursor that already passed the position saw it as
            // unavailable, and rewinding consumers skip already-applied
            // ids by id.
            let (seg, offset) = inner.wal.append_batch(epoch, &batch)?;
            for (i, t) in batch.into_iter().enumerate() {
                if let Some(d) = &mut inner.digest {
                    d.observe_relations(&t);
                }
                inner.quarantined.remove(&t.id);
                inner.index.insert(
                    t.id.clone(),
                    Location {
                        file: FileRef::Segment(seg),
                        offset,
                        index: i as u32,
                    },
                );
                if self.opts.cache == CacheMode::Cached {
                    inner.cache.insert(t.id.clone(), t);
                }
            }
            inner.batches_since_compact += 1;
        }
        inner.dstats.healed += report.healed;
        self.stats.add_published(report.absorbed);
        Ok(report)
    }

    fn quarantined(&self) -> Vec<(Epoch, TxnId)> {
        let inner = self.inner.read();
        let mut out: Vec<(Epoch, TxnId)> = inner
            .quarantined
            .iter()
            .map(|(id, &e)| (e, id.clone()))
            .collect();
        out.sort();
        out
    }

    fn fetch_page(&self, cursor: &FetchCursor, limit: usize) -> crate::Result<FetchPage> {
        // Read lock only: concurrent reconciles page the archive in
        // parallel; the epoch index locates each batch frame without
        // decoding anything outside this page.
        let inner = self.inner.read();
        let (positions, next_cursor) = collect_page(&inner.by_epoch, cursor, limit);
        let mut txns = Vec::with_capacity(positions.len());
        let mut unavailable = Vec::new();
        self.for_each_payload(&inner, &positions, |epoch, id, payload| match payload {
            Some(t) => txns.push(t.clone()),
            // The position is archived but its frame was scrubbed out as
            // corrupt: report it like a dead replica so partial progress
            // (frozen cursors) degrades gracefully instead of the page
            // erroring.
            None => unavailable.push((epoch, id.clone())),
        })?;
        self.stats.add_fetched(txns.len() as u64);
        self.stats.add_unavailable(unavailable.len() as u64);
        self.stats.add_pages(1);
        Ok(FetchPage {
            txns,
            unavailable,
            next_cursor,
        })
    }

    fn fetch(&self, id: &TxnId) -> crate::Result<Option<Transaction>> {
        let inner = self.inner.read();
        if inner.quarantined.contains_key(id) {
            self.stats.add_misses(1);
            return Err(StoreError::Unavailable {
                txn: id.to_string(),
            });
        }
        let got = self.load_txn(&inner, id)?;
        if got.is_some() {
            self.stats.add_fetched(1);
        }
        Ok(got)
    }

    fn len(&self) -> usize {
        // Quarantined positions are still archived (their ids are
        // listed); only their payloads are awaiting repair.
        let inner = self.inner.read();
        inner.index.len() + inner.quarantined.len()
    }

    fn latest_epoch(&self) -> Option<Epoch> {
        self.inner.read().by_epoch.keys().next_back().copied()
    }

    fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    fn digest(&self) -> crate::Result<StoreDigest> {
        if let Some(d) = &self.inner.read().digest {
            return Ok(d.clone());
        }
        let mut inner = self.inner.write();
        if let Some(d) = &inner.digest {
            return Ok(d.clone());
        }
        // One walk of the epoch index, a page of positions at a time so a
        // disk-only archive decodes a bounded set of frames.
        let mut d = StoreDigest::default();
        let mut cursor = Some(FetchCursor::at_epoch(Epoch::zero()));
        while let Some(at) = cursor {
            let (positions, next) = collect_page(&inner.by_epoch, &at, DEFAULT_PAGE_LIMIT);
            self.for_each_payload(&inner, &positions, |epoch, id, payload| match payload {
                Some(t) => d.observe(t),
                None => d.observe_position(epoch, id),
            })?;
            cursor = next;
        }
        inner.digest = Some(d.clone());
        Ok(d)
    }
}

/// Take an exclusive advisory lock on `<dir>/LOCK` for the store's
/// lifetime. On Unix this is `flock(2)` (released automatically when the
/// file closes, including on crash); elsewhere it degrades to creating
/// the file without exclusion.
fn lock_dir(dir: &Path) -> crate::Result<fs::File> {
    let path = dir.join("LOCK");
    let file = fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| segment::io_err("open lock file", &path, &e))?;
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        // Declared directly (libc is always linked) to keep the workspace
        // dependency-free.
        extern "C" {
            fn flock(fd: std::ffi::c_int, operation: std::ffi::c_int) -> std::ffi::c_int;
        }
        const LOCK_EX: std::ffi::c_int = 2;
        const LOCK_NB: std::ffi::c_int = 4;
        // SAFETY: `flock(2)` only reads the descriptor, which `file`
        // keeps open for the duration of the call; the declared
        // signature matches the libc prototype on every unix target.
        if unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) } != 0 {
            return Err(StoreError::Io {
                op: "lock".into(),
                path: path.display().to_string(),
                message: "archive is already open in another store or process \
                          (two writers would corrupt the WAL)"
                    .into(),
            });
        }
    }
    Ok(file)
}

fn remove_stale_tmp_files(dir: &Path) -> crate::Result<()> {
    let entries = fs::read_dir(dir).map_err(|e| segment::io_err("read_dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| segment::io_err("read_dir", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with('.') && name.ends_with(".tmp") {
            let path = entry.path();
            fs::remove_file(&path).map_err(|e| segment::io_err("remove", &path, &e))?;
        }
    }
    Ok(())
}
