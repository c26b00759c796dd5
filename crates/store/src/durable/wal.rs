//! The write-ahead log: an append-only chain of segment files with a
//! configurable durability/rotation policy.
//!
//! One publish batch = one checksummed frame (see `codec`), so batch
//! atomicity falls out of frame atomicity: a crash mid-append leaves a
//! torn final frame, recovery truncates it, and the archive reopens with
//! exactly the durable prefix of whole batches.

use super::codec::{decode_batch, encode_batch};
use super::segment::{
    list_segments, scan_segment_lossy, segment_file_name, truncate_segment, ActiveSegment,
};
use crate::api::StoreError;
use crate::frame::{frame, MAX_FRAME_LEN};
use orchestra_updates::{Epoch, Transaction};
use std::fs;
use std::path::{Path, PathBuf};

/// When appended frames are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every publish: a returned `publish` is durable. The
    /// default, and the only policy under which the crash-recovery
    /// guarantee covers every acknowledged batch.
    #[default]
    Always,
    /// fsync every `n`-th publish (and on rotation and
    /// [`DurableStore::sync`](crate::DurableStore::sync)): a loss window
    /// of at most `n - 1` acknowledged batches, much higher throughput.
    EveryN(u32),
}

/// One batch replayed from the log during recovery.
#[derive(Debug, Clone)]
pub struct RecoveredBatch {
    /// Segment the batch lives in.
    pub segment: u64,
    /// Frame offset within that segment.
    pub offset: u64,
    /// The publish epoch.
    pub epoch: Epoch,
    /// The batch's transactions.
    pub txns: Vec<Transaction>,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Replayable batches from all live segments, in append order.
    pub batches: Vec<RecoveredBatch>,
    /// Bytes of torn tail truncated from the active segment.
    pub torn_bytes_truncated: u64,
    /// Live segments scanned.
    pub segments_scanned: usize,
    /// Corrupt frames (checksum-invalid or undecodable) skipped during
    /// recovery. Their transactions are simply absent from the reopened
    /// archive — a mesh peer's anti-entropy refills them — rather than
    /// failing the whole open.
    pub corrupt_frames_skipped: u64,
}

/// The append-only segmented log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    active: ActiveSegment,
    sealed: Vec<u64>,
    segment_max_bytes: u64,
    sync_policy: SyncPolicy,
    appends_since_sync: u32,
}

impl Wal {
    /// Open the log in `dir`, replaying every segment.
    ///
    /// The highest-numbered segment may end in a torn frame, which is
    /// truncated away. A checksum-invalid frame anywhere is **skipped**
    /// (and counted in [`WalRecovery::corrupt_frames_skipped`]) rather
    /// than failing the open: no single rotten frame holds the rest of
    /// the archive hostage, and the missing history is re-pullable from
    /// mesh neighbors. When corruption makes a suffix of the *active*
    /// segment unframeable, that suffix is truncated so later appends
    /// land at a verified boundary.
    pub fn open(
        dir: &Path,
        segment_max_bytes: u64,
        sync_policy: SyncPolicy,
    ) -> crate::Result<(Wal, WalRecovery)> {
        let live = list_segments(dir)?;
        let mut recovery = WalRecovery::default();
        let mut active_len = 0u64;
        for (i, &seq) in live.iter().enumerate() {
            let is_last = i + 1 == live.len();
            let path = dir.join(segment_file_name(seq));
            let scan = scan_segment_lossy(&path, is_last)?;
            recovery.corrupt_frames_skipped += scan.corrupt.len() as u64;
            // An open-ended corrupt region (implausible length prefix, or
            // a non-tail torn frame) makes everything after it
            // unframeable. On the active segment, truncate that garbage
            // away exactly like a torn tail, so appends resume at a
            // verified frame boundary; on a sealed segment the suffix is
            // simply lost (already counted above).
            let unframeable_suffix = scan.corrupt.last().is_some_and(|r| r.len.is_none());
            if scan.torn_bytes > 0 || (is_last && unframeable_suffix) {
                let file_len = fs::metadata(&path)
                    .map_err(|e| super::segment::io_err("stat", &path, &e))?
                    .len();
                truncate_segment(&path, scan.valid_len)?;
                recovery.torn_bytes_truncated += file_len - scan.valid_len;
            }
            for f in scan.frames {
                let Ok((epoch, txns)) = decode_batch(&f.payload) else {
                    // CRC-valid but undecodable: corrupt in a way the
                    // checksum happens to cover. Same policy: skip it.
                    recovery.corrupt_frames_skipped += 1;
                    continue;
                };
                recovery.batches.push(RecoveredBatch {
                    segment: seq,
                    offset: f.offset,
                    epoch,
                    txns,
                });
            }
            if is_last {
                active_len = scan.valid_len;
            }
            recovery.segments_scanned += 1;
        }

        let (active_seq, sealed) = match live.split_last() {
            Some((&last, rest)) => (last, rest.to_vec()),
            None => (1, Vec::new()), // a fresh log
        };
        let active = ActiveSegment::open(dir, active_seq, active_len)?;
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                active,
                sealed,
                segment_max_bytes,
                sync_policy,
                appends_since_sync: 0,
            },
            recovery,
        ))
    }

    /// Append one publish batch; returns `(segment, offset)` of its frame.
    pub fn append_batch(
        &mut self,
        epoch: Epoch,
        txns: &[Transaction],
    ) -> crate::Result<(u64, u64)> {
        orchestra_obs::time_histogram!("store.wal.append_micros", {
            if !self.active.is_empty() && self.active.len() >= self.segment_max_bytes {
                self.rotate()?;
            }
            let payload = encode_batch(epoch, txns);
            if payload.len() as u64 > u64::from(MAX_FRAME_LEN) {
                return Err(StoreError::InvalidConfig(format!(
                    "publish batch encodes to {} bytes, exceeding the {} byte frame cap \
                     — split the batch",
                    payload.len(),
                    MAX_FRAME_LEN
                )));
            }
            let framed = frame(&payload);
            let offset = self.active.append(&framed)?;
            match self.sync_policy {
                SyncPolicy::Always => self.sync_active()?,
                SyncPolicy::EveryN(n) => {
                    self.appends_since_sync += 1;
                    if self.appends_since_sync >= n.max(1) {
                        self.sync_active()?;
                        self.appends_since_sync = 0;
                    }
                }
            }
            Ok((self.active.seq, offset))
        })
    }

    /// fsync the active segment, recording a `store.wal.fsync` span and
    /// the `store.wal.fsync_micros` latency histogram.
    fn sync_active(&mut self) -> crate::Result<()> {
        let _span = orchestra_obs::span!("store.wal.fsync", segment = self.active.seq);
        orchestra_obs::time_histogram!("store.wal.fsync_micros", self.active.sync())
    }

    /// Seal the active segment and start a new one.
    fn rotate(&mut self) -> crate::Result<()> {
        // Failpoint `store.wal.rotate`: fail before sealing — the active
        // segment stays active and appendable, so a caller retry simply
        // rotates later.
        if orchestra_fault::check("store.wal.rotate").is_some() {
            return Err(super::segment::injected_err("rotate", self.active.path()));
        }
        orchestra_obs::counter!("store.wal.rotations", 1);
        self.sync_active()?;
        let sealed_seq = self.active.seq;
        self.sealed.push(sealed_seq);
        self.active = ActiveSegment::open(&self.dir, sealed_seq + 1, 0)?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Force outstanding appends to stable storage.
    pub fn sync(&mut self) -> crate::Result<()> {
        self.appends_since_sync = 0;
        self.sync_active()
    }

    /// The active segment's sequence number.
    pub fn active_seq(&self) -> u64 {
        self.active.seq
    }

    /// Bytes in the active segment.
    pub fn active_len(&self) -> u64 {
        self.active.len()
    }

    /// Sealed segments still on disk, ascending.
    pub fn sealed_segments(&self) -> &[u64] {
        &self.sealed
    }

    /// Total live segment count (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::tuple;
    use orchestra_updates::{PeerId, TxnId, Update};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("orchestra-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn txn(seq: u64) -> Transaction {
        Transaction::new(
            TxnId::new(PeerId::new("P"), seq),
            Epoch::new(1),
            vec![Update::insert("R", tuple![seq as i64])],
        )
    }

    #[test]
    fn append_recover_roundtrip() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut wal, rec) = Wal::open(&dir, 1 << 20, SyncPolicy::Always).unwrap();
            assert!(rec.batches.is_empty());
            wal.append_batch(Epoch::new(1), &[txn(1), txn(2)]).unwrap();
            wal.append_batch(Epoch::new(2), &[txn(3)]).unwrap();
        }
        let (_, rec) = Wal::open(&dir, 1 << 20, SyncPolicy::Always).unwrap();
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.batches[0].txns.len(), 2);
        assert_eq!(rec.batches[1].epoch, Epoch::new(2));
        assert_eq!(rec.torn_bytes_truncated, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_at_threshold() {
        let dir = tmp_dir("rotate");
        let (mut wal, _) = Wal::open(&dir, 64, SyncPolicy::Always).unwrap();
        for i in 0..10 {
            wal.append_batch(Epoch::new(1), &[txn(i)]).unwrap();
        }
        assert!(wal.segment_count() > 1, "tiny threshold forces rotation");
        // Reopen sees all batches across segments.
        drop(wal);
        let (wal, rec) = Wal::open(&dir, 64, SyncPolicy::Always).unwrap();
        assert_eq!(rec.batches.len(), 10);
        assert!(rec.segments_scanned > 1);
        assert_eq!(wal.segment_count(), rec.segments_scanned);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let dir = tmp_dir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, 1 << 20, SyncPolicy::Always).unwrap();
            wal.append_batch(Epoch::new(1), &[txn(1)]).unwrap();
            wal.append_batch(Epoch::new(2), &[txn(2)]).unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the tail.
        let seg = dir.join(segment_file_name(1));
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();

        let (mut wal, rec) = Wal::open(&dir, 1 << 20, SyncPolicy::Always).unwrap();
        assert_eq!(rec.batches.len(), 1, "only the intact batch survives");
        assert!(rec.torn_bytes_truncated > 0);
        // The log is append-able again and the repaired tail is reused.
        wal.append_batch(Epoch::new(3), &[txn(3)]).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, 1 << 20, SyncPolicy::Always).unwrap();
        assert_eq!(rec.batches.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
