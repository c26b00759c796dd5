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

#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

pub mod codec;
pub mod segment;
pub mod wal;

pub use wal::SyncPolicy;

use crate::api::{
    AbsorbReport, AtomicStats, FetchCursor, FetchPage, StoreDigest, StoreError, StoreStats,
    UpdateStore,
};
use crate::archive::Archive;
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

/// Where one transaction's batch frame lives on disk: each payload's
/// metadata in the archive, which scrub checks.
#[derive(Debug, Clone, Copy, Default)]
struct Location {
    segment: u64,
    offset: u64,
}

#[derive(Debug)]
struct Inner {
    wal: Wal,
    /// Served from the payloads decoded at open; reads never touch disk.
    archive: Archive<Location>,
    /// Archived positions whose on-disk frame failed its checksum: the
    /// archive lists the position (pages report it unavailable) without
    /// a payload until `absorb` re-delivers a healthy copy from a
    /// neighbor.
    quarantined: HashMap<TxnId, Epoch>,
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

        let mut archive = Archive::default();
        let (wal, recovery) = Wal::open(&dir, opts.segment_max_bytes, opts.sync_policy)?;
        for batch in recovery.batches {
            let at = Location {
                segment: batch.segment,
                offset: batch.offset,
            };
            archive.append(batch.epoch, batch.txns.into_iter().map(|t| (t, at)));
        }
        let recovered_txns = archive.len() as u64;

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
                archive,
                quarantined: HashMap::new(),
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
        let evicted = inner.archive.evict(hit);
        report.quarantined = evicted.len();
        inner
            .quarantined
            .extend(evicted.into_iter().map(|(epoch, id)| (id, epoch)));
        orchestra_obs::counter!("store.scrub.quarantined", report.quarantined as u64);
        Ok(report)
    }

    /// Force all appended batches to stable storage (a no-op under
    /// [`SyncPolicy::Always`], which syncs in `publish`).
    pub fn sync(&self) -> crate::Result<()> {
        self.inner.write().wal.sync()
    }
}

/// Append one batch frame to the WAL (synced per policy): durability
/// comes before any change to the archive.
fn log(wal: &mut Wal, epoch: Epoch, batch: &[Transaction]) -> crate::Result<Location> {
    let (segment, offset) = wal.append_batch(epoch, batch)?;
    Ok(Location { segment, offset })
}

impl UpdateStore for DurableStore {
    fn publish(&self, epoch: Epoch, mut txns: Vec<Transaction>) -> crate::Result<()> {
        if txns.is_empty() {
            return Ok(()); // Vacuous: nothing a cursor could miss.
        }
        let _span = orchestra_obs::span!("store.publish", txns = txns.len(), epoch = epoch);
        let inner = &mut *self.inner.write();
        // Quarantined ids are still *archived* (their position exists);
        // re-publishing one must be rejected like any duplicate — only
        // `absorb` may re-deliver the payload (as a heal).
        let quarantined = &inner.quarantined;
        inner
            .archive
            .check_publish(epoch, &mut txns, |id| quarantined.contains_key(id))?;
        let at = log(&mut inner.wal, epoch, &txns)?;
        let n = inner
            .archive
            .append(epoch, txns.into_iter().map(|t| (t, at)));
        self.stats.published.add(n);
        Ok(())
    }

    fn absorb(&self, txns: Vec<Transaction>) -> crate::Result<AbsorbReport> {
        let _span = orchestra_obs::span!("store.absorb", txns = txns.len());
        let Inner {
            wal,
            archive,
            quarantined,
            dstats,
        } = &mut *self.inner.write();
        let mut report = AbsorbReport::default();
        // Each epoch group becomes one WAL batch record: recovery replays
        // batches by their recorded epoch, so it does not care that
        // gossip merges arrive out of epoch order. Re-deliveries for
        // quarantined positions come back apart: their ids are already
        // listed, so they are healed without re-listing the position.
        let (groups, listed) =
            archive.absorb_groups(txns, |id| quarantined.contains_key(id), &mut report);
        let mut heals: BTreeMap<Epoch, Vec<Transaction>> = BTreeMap::new();
        for t in listed {
            if quarantined.get(&t.id) == Some(&t.epoch) {
                report.healed += 1;
                heals.entry(t.epoch).or_default().push(t);
            } else {
                // Same id, different epoch: not the transaction the
                // archive listed. Refuse the splice.
                report.duplicates += 1;
            }
        }
        for (epoch, batch) in groups {
            let at = log(wal, epoch, &batch)?;
            archive.append(epoch, batch.into_iter().map(|t| (t, at)));
        }
        for (epoch, batch) in heals {
            // The healthy copy is appended like fresh history (the old
            // corrupt frame stays where it is, and open skips it). Zero
            // duplicate applies: a cursor that already passed the
            // position saw it as unavailable, and rewinding consumers
            // skip already-applied ids by id.
            let at = log(wal, epoch, &batch)?;
            for txn in batch {
                quarantined.remove(&txn.id);
                archive.heal(txn, at);
            }
        }
        dstats.healed += report.healed;
        self.stats.published.add(report.absorbed);
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
        // parallel. A quarantined position has no payload and is
        // reported like a dead replica, so frozen cursors degrade
        // gracefully instead of the page erroring.
        let page = self.inner.read().archive.page(cursor, limit, |_| true);
        self.stats.fetched.add(page.txns.len() as u64);
        self.stats.unavailable.add(page.unavailable.len() as u64);
        self.stats.pages.add(1);
        Ok(page)
    }

    fn fetch(&self, id: &TxnId) -> crate::Result<Option<Transaction>> {
        let inner = self.inner.read();
        if inner.quarantined.contains_key(id) {
            self.stats.misses.add(1);
            return Err(StoreError::Unavailable {
                txn: id.to_string(),
            });
        }
        let got = inner.archive.get(id).map(|e| e.txn.clone());
        if got.is_some() {
            self.stats.fetched.add(1);
        }
        Ok(got)
    }

    fn len(&self) -> usize {
        self.inner.read().archive.len()
    }

    fn latest_epoch(&self) -> Option<Epoch> {
        self.inner.read().archive.latest_epoch()
    }

    fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    fn digest(&self) -> crate::Result<StoreDigest> {
        if let Some(d) = self.inner.read().archive.cached_digest() {
            return Ok(d.clone());
        }
        Ok(self.inner.write().archive.digest().clone())
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
