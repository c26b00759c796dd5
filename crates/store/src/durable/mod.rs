//! The durable update archive: a crash-recoverable [`UpdateStore`] backed
//! by a write-ahead log of checksummed frames in size-rotated segments.
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
//! * reads never touch the disk: open decodes every durable batch once,
//!   and pages and point fetches are served from those payloads;
//! * the WAL is the only on-disk format: open replays every segment, so
//!   its cost grows with the archive (a directory holding a `snap-*.snap`
//!   compaction snapshot from an older build is refused, not ignored).
//!
//! ```no_run
//! use orchestra_store::{pages, DurableStore, FetchCursor, DEFAULT_PAGE_LIMIT};
//! use orchestra_updates::Epoch;
//!
//! let store = DurableStore::open("/var/lib/orchestra/archive").unwrap();
//! // Survives restarts: everything archived, one page at a time.
//! for page in pages(&store, FetchCursor::at_epoch(Epoch::zero()), DEFAULT_PAGE_LIMIT) {
//!     let page = page.unwrap();
//! }
//! ```

pub mod codec;
pub mod segment;
pub mod wal;

pub use wal::SyncPolicy;

use crate::api::{
    check_batch_ids, check_epoch_monotone, collect_page, index_epoch_ids, AtomicStats,
};
use crate::api::{
    AbsorbReport, FetchCursor, FetchPage, StoreDigest, StoreError, StoreStats, UpdateStore,
};
use orchestra_updates::{Epoch, Transaction, TxnId};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use wal::Wal;

/// Tunables for [`DurableStore::open_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_max_bytes: u64,
    /// When appends reach stable storage.
    pub sync_policy: SyncPolicy,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            segment_max_bytes: 8 * 1024 * 1024,
            sync_policy: SyncPolicy::Always,
        }
    }
}

/// Durability counters beyond the common [`StoreStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurableStats {
    /// Live WAL segments (sealed + active).
    pub segments: usize,
    /// Bytes in the active segment.
    pub active_segment_bytes: u64,
    /// Transactions replayed from disk at open.
    pub recovered_txns: u64,
    /// Torn bytes truncated from the WAL tail at open.
    pub torn_bytes_truncated: u64,
    /// Corrupt frames skipped at open (their ids are unknown and simply
    /// absent).
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
    /// Segment files whose frames were verified.
    pub files_scanned: usize,
    /// Corrupt frames found in this pass.
    pub corrupt_frames: usize,
    /// Transactions newly moved to quarantine by this pass.
    pub quarantined: usize,
}

/// Where one transaction's batch frame lives on disk.
#[derive(Debug, Clone, Copy)]
struct Location {
    segment: u64,
    offset: u64,
}

/// One archived transaction: its decoded payload, which every read is
/// served from, and where its batch frame lives, which scrub checks.
#[derive(Debug)]
struct Archived {
    at: Location,
    txn: Transaction,
}

#[derive(Debug)]
struct Inner {
    wal: Wal,
    /// Every archived transaction with a healthy payload, by id.
    txns: HashMap<TxnId, Archived>,
    /// Epoch → txn ids, for paged range scans.
    by_epoch: BTreeMap<Epoch, Vec<TxnId>>,
    /// Archived positions whose on-disk frame failed its checksum: the id
    /// stays listed in `by_epoch` (pages report it unavailable) but has
    /// no `txns` entry until `absorb` re-delivers a healthy copy from a
    /// neighbor.
    quarantined: HashMap<TxnId, Epoch>,
    /// The maintained digest: built by the first `digest()` call, folded
    /// forward by `publish`, `absorb` and heals, dropped by a scrub that
    /// quarantines (the next call rebuilds it). Never built at open.
    digest: Option<StoreDigest>,
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
    /// each other's offsets.
    _lock: fs::File,
}

impl DurableStore {
    /// Open (or create) the archive in `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> crate::Result<Self> {
        DurableStore::open_with(dir, DurableOptions::default())
    }

    /// Open (or create) the archive in `dir`.
    ///
    /// Recovery: replay every segment and truncate a torn tail on the
    /// active one. A directory holding a compaction snapshot
    /// (`snap-*.snap`, written by older builds) is refused with
    /// [`StoreError::Corrupt`] naming it: the segments it covered are
    /// gone, so opening without it would silently drop that history.
    pub fn open_with(dir: impl AsRef<Path>, opts: DurableOptions) -> crate::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| segment::io_err("create_dir_all", &dir, &e))?;
        let lock = lock_dir(&dir)?;
        refuse_snapshots(&dir)?;

        let mut txns = HashMap::new();
        let mut by_epoch: BTreeMap<Epoch, Vec<TxnId>> = BTreeMap::new();
        let (wal, recovery) = Wal::open(&dir, opts.segment_max_bytes, opts.sync_policy)?;
        for batch in recovery.batches {
            let at = Location {
                segment: batch.segment,
                offset: batch.offset,
            };
            archive_batch(&mut txns, &mut by_epoch, at, batch.epoch, batch.txns);
        }
        let recovered_txns = txns.len() as u64;

        let dstats = DurableStats {
            segments: wal.segment_count(),
            active_segment_bytes: wal.active_len(),
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
                txns,
                by_epoch,
                quarantined: HashMap::new(),
                digest: None,
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
            quarantined: inner.quarantined.len() as u64,
            ..inner.dstats
        }
    }

    /// Verify every frame in every segment (sealed and active) against
    /// its checksum, and **quarantine** the transactions of any frame that
    /// fails: their payloads leave the archive (a healthy RAM copy must
    /// not mask rotten durable bytes), but the positions stay
    /// listed so paged scans report them [`FetchPage::unavailable`]
    /// rather than silently shrinking history. A mesh node treats those
    /// positions as gossip gaps and re-pulls them from neighbors, healing
    /// them through [`UpdateStore::absorb`].
    pub fn scrub(&self) -> crate::Result<ScrubReport> {
        let _span = orchestra_obs::span!("store.scrub");
        let mut inner = self.inner.write();
        let mut report = ScrubReport::default();

        // Every segment an archived transaction's frame can live in.
        let mut segments = inner.wal.sealed_segments().to_vec();
        segments.push(inner.wal.active_seq());

        // Collect each file's corrupt byte regions. The active segment
        // may legitimately end mid-frame only under relaxed sync policies
        // mid-crash; at scrub time (a live, consistent store) every frame
        // should be complete, so no torn-tail allowance anywhere — an
        // incomplete tail frame simply becomes a corrupt region and its
        // batch is quarantined.
        let mut regions: Vec<(u64, segment::CorruptRegion)> = Vec::new();
        for seq in segments {
            let path = self.dir.join(segment::segment_file_name(seq));
            if !path.exists() {
                continue; // an empty active segment may not exist yet
            }
            let scan = segment::scan_segment_lossy(&path, false)?;
            report.files_scanned += 1;
            report.corrupt_frames += scan.corrupt.len();
            regions.extend(scan.corrupt.into_iter().map(|r| (seq, r)));
        }
        if regions.is_empty() {
            return Ok(report);
        }

        // Quarantine every archived transaction whose frame lies in a
        // corrupt region (open-ended regions swallow the whole suffix).
        let hit = |loc: &Location| {
            regions.iter().any(|(seq, r)| {
                loc.segment == *seq
                    && match r.len {
                        Some(len) => loc.offset >= r.offset && loc.offset < r.offset + len,
                        None => loc.offset >= r.offset,
                    }
            })
        };
        let Inner {
            txns, quarantined, ..
        } = &mut *inner;
        txns.retain(|id, a| {
            if !hit(&a.at) {
                return true;
            }
            // Every writer stamps a transaction with the epoch of the
            // batch it is listed under.
            quarantined.insert(id.clone(), a.txn.epoch);
            report.quarantined += 1;
            false
        });
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
}

/// Archive one durable batch frame's transactions and list their
/// positions under `epoch`.
fn archive_batch(
    archived: &mut HashMap<TxnId, Archived>,
    by_epoch: &mut BTreeMap<Epoch, Vec<TxnId>>,
    at: Location,
    epoch: Epoch,
    txns: Vec<Transaction>,
) {
    let mut ids = Vec::with_capacity(txns.len());
    for txn in txns {
        // First archived copy wins. A failed-fsync retry can land the
        // same batch in two on-disk frames; recovery must list the
        // position exactly once or paged scans would apply it twice.
        if let std::collections::hash_map::Entry::Vacant(e) = archived.entry(txn.id.clone()) {
            ids.push(txn.id.clone());
            e.insert(Archived { at, txn });
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
            inner.txns.contains_key(id) || inner.quarantined.contains_key(id)
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
            txns,
            by_epoch,
            digest,
            ..
        } = &mut *inner;
        if let Some(d) = digest {
            stamped.iter().for_each(|t| d.observe(t));
        }
        let n = stamped.len() as u64;
        let at = Location {
            segment: seg,
            offset,
        };
        archive_batch(txns, by_epoch, at, epoch, stamped);
        self.stats.add_published(n);
        Ok(())
    }

    fn absorb(&self, txns: Vec<Transaction>) -> crate::Result<AbsorbReport> {
        let _span = orchestra_obs::span!("store.absorb", txns = txns.len());
        let mut inner = self.inner.write();
        let mut report = AbsorbReport::default();
        // Group fresh transactions by the epoch their publisher stamped;
        // each group becomes one WAL batch record — recovery replays
        // batches by their recorded epoch, so it does not care that
        // gossip merges arrive out of epoch order. Healing
        // re-deliveries for quarantined positions are kept apart: their
        // ids already sit in `by_epoch`, so they must be re-archived
        // without re-listing the position.
        let mut groups: BTreeMap<Epoch, Vec<Transaction>> = BTreeMap::new();
        let mut heals: BTreeMap<Epoch, Vec<Transaction>> = BTreeMap::new();
        let mut incoming: std::collections::BTreeSet<TxnId> = std::collections::BTreeSet::new();
        for t in txns {
            if inner.txns.contains_key(&t.id) || !incoming.insert(t.id.clone()) {
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
                txns,
                by_epoch,
                digest,
                ..
            } = &mut *inner;
            if let Some(d) = digest {
                batch.iter().for_each(|t| d.observe(t));
            }
            let at = Location {
                segment: seg,
                offset,
            };
            archive_batch(txns, by_epoch, at, epoch, batch);
        }
        for (epoch, batch) in heals {
            // The healthy copy is appended like fresh history (the old
            // corrupt frame stays where it is, and open skips it), but
            // the position is NOT re-listed in
            // `by_epoch` — it never left. Zero duplicate applies: a
            // cursor that already passed the position saw it as
            // unavailable, and rewinding consumers skip already-applied
            // ids by id.
            let (seg, offset) = inner.wal.append_batch(epoch, &batch)?;
            let at = Location {
                segment: seg,
                offset,
            };
            for txn in batch {
                if let Some(d) = &mut inner.digest {
                    d.observe_relations(&txn);
                }
                inner.quarantined.remove(&txn.id);
                inner.txns.insert(txn.id.clone(), Archived { at, txn });
            }
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
        // parallel, and nothing outside this page is cloned.
        let inner = self.inner.read();
        let (positions, next_cursor) = collect_page(&inner.by_epoch, cursor, limit);
        let mut txns = Vec::with_capacity(positions.len());
        let mut unavailable = Vec::new();
        for (epoch, id) in positions {
            match inner.txns.get(&id) {
                Some(a) => txns.push(a.txn.clone()),
                // The position is archived but its frame was scrubbed out
                // as corrupt: report it like a dead replica so partial
                // progress (frozen cursors) degrades gracefully instead of
                // the page erroring.
                None => unavailable.push((epoch, id)),
            }
        }
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
        let got = inner.txns.get(id).map(|a| a.txn.clone());
        if got.is_some() {
            self.stats.add_fetched(1);
        }
        Ok(got)
    }

    fn len(&self) -> usize {
        // Quarantined positions are still archived (their ids are
        // listed); only their payloads are awaiting repair.
        let inner = self.inner.read();
        inner.txns.len() + inner.quarantined.len()
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
        // One walk of the epoch index, in page order.
        let mut d = StoreDigest::default();
        for (&epoch, ids) in &inner.by_epoch {
            for id in ids {
                match inner.txns.get(id) {
                    Some(a) => d.observe(&a.txn),
                    None => d.observe_position(epoch, id),
                }
            }
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

/// Refuse an archive directory that holds a compaction snapshot
/// (`snap-*.snap`): older builds folded sealed segments into one and
/// deleted them, and this build reads the WAL alone.
fn refuse_snapshots(dir: &Path) -> crate::Result<()> {
    let entries = fs::read_dir(dir).map_err(|e| segment::io_err("read_dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| segment::io_err("read_dir", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("snap-") && name.ends_with(".snap") {
            return Err(StoreError::Corrupt {
                path: entry.path().display().to_string(),
                offset: 0,
                reason: "compaction snapshot from an older build: this build reads \
                         only WAL segments, and opening without the history the \
                         snapshot holds would drop it"
                    .into(),
            });
        }
    }
    Ok(())
}
