//! WAL segment files: naming, listing, scanning, and torn-tail repair.
//!
//! The log is a sequence of segment files `wal-<seq>.seg` (seq is a
//! monotonically increasing, zero-padded u64). All segments but the
//! highest-numbered one are **sealed**: they were rotated out at the size
//! threshold and must scan cleanly end to end — any invalid frame in a
//! sealed segment is real corruption. The highest-numbered segment is
//! **active**: a crash can leave a torn frame at its tail, which recovery
//! truncates away (the frame never had its batch acknowledged as durable
//! under `SyncPolicy::Always`, and under weaker policies was explicitly
//! unfenced).

use crate::api::StoreError;
use crate::frame::{FrameRead, FrameReader};
use std::fs;
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};

/// File extension for WAL segments.
pub const SEGMENT_EXT: &str = "seg";

/// Name of the segment file with the given sequence number.
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:016x}.{SEGMENT_EXT}")
}

/// Parse a segment file name back to its sequence number.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?;
    let hex = rest.strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Sequence numbers of all segments in `dir`, ascending.
pub fn list_segments(dir: &Path) -> crate::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read_dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read_dir", dir, &e))?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(seq) = parse_segment_file_name(name) {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// A checksum-verified frame recovered from a segment scan.
#[derive(Debug, Clone)]
pub struct ScannedFrame {
    /// Byte offset of the frame header within the segment file.
    pub offset: u64,
    /// The verified payload.
    pub payload: Vec<u8>,
}

/// A contiguous stretch of a file a lossy scan could not validate.
#[derive(Debug, Clone)]
pub struct CorruptRegion {
    /// Byte offset where the bad frame begins.
    pub offset: u64,
    /// Bytes the region spans, when the frame structure was still
    /// parseable (a checksum mismatch). `None` means the region extends
    /// to end of file: the length prefix itself was implausible, so
    /// nothing past `offset` can be framed.
    pub len: Option<u64>,
    /// What was wrong.
    pub reason: String,
}

/// The outcome of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// All checksum-valid frames, in file order.
    pub frames: Vec<ScannedFrame>,
    /// Size of the valid prefix (where the next frame would begin).
    pub valid_len: u64,
    /// Bytes past `valid_len` that form a torn frame (zero on a clean
    /// scan).
    pub torn_bytes: u64,
    /// Corrupt frames skipped over, in file order.
    pub corrupt: Vec<CorruptRegion>,
}

/// Scan the segment at `path`, **skipping over** corrupt frames instead
/// of failing: each one is reported in [`SegmentScan::corrupt`] and the
/// scan resynchronizes at the next frame boundary (the length prefix
/// locates it even when the payload is rotten). When the length prefix
/// itself is implausible — or a non-tail torn frame appears — nothing
/// past that point can be framed, so the remainder of the file becomes
/// one open-ended corrupt region.
///
/// `allow_torn_tail` is true only for the active (highest-numbered)
/// segment: a trailing partial frame there is crash residue
/// (`torn_bytes`), not corruption. On a sealed segment it is an
/// open-ended corrupt region.
pub fn scan_segment_lossy(path: &Path, allow_torn_tail: bool) -> crate::Result<SegmentScan> {
    let file_len = fs::metadata(path)
        .map_err(|e| io_err("stat", path, &e))?
        .len();
    let file = fs::File::open(path).map_err(|e| io_err("open", path, &e))?;
    let mut reader = FrameReader::new(BufReader::new(file), 0);
    let mut frames = Vec::new();
    let mut corrupt = Vec::new();
    loop {
        let (offset, outcome) = reader.next_frame().map_err(|e| io_err("read", path, &e))?;
        match outcome {
            FrameRead::Ok { payload, .. } => {
                frames.push(ScannedFrame { offset, payload });
            }
            FrameRead::Eof => {
                return Ok(SegmentScan {
                    frames,
                    valid_len: offset,
                    torn_bytes: 0,
                    corrupt,
                });
            }
            FrameRead::Torn if allow_torn_tail => {
                return Ok(SegmentScan {
                    frames,
                    valid_len: offset,
                    torn_bytes: file_len - offset,
                    corrupt,
                });
            }
            FrameRead::Torn => {
                corrupt.push(CorruptRegion {
                    offset,
                    len: None,
                    reason: "sealed segment ends mid-frame".into(),
                });
                return Ok(SegmentScan {
                    frames,
                    valid_len: offset,
                    torn_bytes: 0,
                    corrupt,
                });
            }
            FrameRead::Corrupt { reason, resync } => {
                let open_ended = resync.is_none();
                corrupt.push(CorruptRegion {
                    offset,
                    len: resync,
                    reason,
                });
                if open_ended {
                    return Ok(SegmentScan {
                        frames,
                        valid_len: offset,
                        torn_bytes: 0,
                        corrupt,
                    });
                }
                // resync = Some(_): the reader already advanced past the
                // bad frame; keep scanning.
            }
        }
    }
}

/// Truncate the file at `path` to `len` bytes (torn-tail repair), syncing
/// the result.
pub fn truncate_segment(path: &Path, len: u64) -> crate::Result<()> {
    let f = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err("open for truncate", path, &e))?;
    f.set_len(len).map_err(|e| io_err("truncate", path, &e))?;
    f.sync_all().map_err(|e| io_err("fsync", path, &e))?;
    Ok(())
}

/// An open, append-only segment.
#[derive(Debug)]
pub struct ActiveSegment {
    /// This segment's sequence number.
    pub seq: u64,
    path: PathBuf,
    file: fs::File,
    len: u64,
    /// Set when a failed append could not be rolled back: the on-disk
    /// length no longer matches `len`, so further appends would land after
    /// garbage and be silently lost to the next recovery's truncation.
    poisoned: bool,
}

impl ActiveSegment {
    /// Create (or reopen for append) the segment `seq` in `dir`, starting
    /// at byte `len` (which must be the verified valid prefix).
    pub fn open(dir: &Path, seq: u64, len: u64) -> crate::Result<Self> {
        let path = dir.join(segment_file_name(seq));
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open segment", &path, &e))?;
        // Persist the directory entry: fsyncing the file alone does not
        // make its *name* durable, and an acknowledged batch must not
        // vanish with the whole segment on power loss.
        sync_dir(dir)?;
        Ok(ActiveSegment {
            seq,
            path,
            file,
            len,
            poisoned: false,
        })
    }

    /// Bytes currently in the segment.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff no frames were written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append raw framed bytes; returns the offset the frame begins at.
    ///
    /// A failed `write_all` may have landed a partial frame; the file is
    /// rolled back to the last good frame boundary so a later append is
    /// not indexed past garbage (recovery would truncate at the garbage
    /// and silently drop the later, acknowledged frame). If the rollback
    /// itself fails, the segment is poisoned and refuses further appends.
    pub fn append(&mut self, framed: &[u8]) -> crate::Result<u64> {
        if self.poisoned {
            return Err(StoreError::Io {
                op: "append".into(),
                path: self.path.display().to_string(),
                message: "segment poisoned by an earlier unrecoverable append failure".into(),
            });
        }
        let offset = self.len;
        // Failpoint `store.wal.append`: `err` fails before any byte lands
        // (clean); `torn` lands a partial frame and then exercises the
        // same rollback path a real short write takes.
        match orchestra_fault::check("store.wal.append") {
            Some(orchestra_fault::Action::Torn) => {
                let cut = framed.len() / 2;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "cut = framed.len() / 2 is in bounds"
                )]
                let _ = self.file.write_all(&framed[..cut]);
                let err = injected_err("append", &self.path);
                if self.file.set_len(offset).is_err() {
                    self.poisoned = true;
                }
                return Err(err);
            }
            Some(_) => return Err(injected_err("append", &self.path)),
            None => {}
        }
        if let Err(e) = self.file.write_all(framed) {
            let err = io_err("append", &self.path, &e);
            if self.file.set_len(offset).is_err() {
                self.poisoned = true;
            }
            return Err(err);
        }
        self.len += framed.len() as u64;
        Ok(offset)
    }

    /// Flush file data (and metadata) to stable storage.
    pub fn sync(&mut self) -> crate::Result<()> {
        // Failpoint `store.wal.fsync`: the appended bytes ARE on the file
        // (only the durability barrier "failed"), which is exactly the
        // dangerous half-state a real fsync failure leaves behind — a
        // retried publish re-appends the frame, and recovery must
        // deduplicate it (first indexed location wins).
        if orchestra_fault::check("store.wal.fsync").is_some() {
            return Err(injected_err("fsync", &self.path));
        }
        self.file
            .sync_all()
            .map_err(|e| io_err("fsync", &self.path, &e))
    }
}

pub(super) fn injected_err(op: &str, path: &Path) -> StoreError {
    StoreError::Io {
        op: op.to_string(),
        path: path.display().to_string(),
        message: "injected failpoint".into(),
    }
}

pub(super) fn io_err(op: &str, path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        op: op.to_string(),
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// fsync a directory so file creations/renames/unlinks within it are
/// durable — without this, a power loss can drop a freshly created
/// segment's directory entry even though its *contents* were fsynced.
pub fn sync_dir(dir: &Path) -> crate::Result<()> {
    // Directory fsync is a POSIX-ism; on platforms where opening a
    // directory fails this is best-effort.
    if let Ok(d) = fs::File::open(dir) {
        d.sync_all().map_err(|e| io_err("fsync dir", dir, &e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::frame;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("orchestra-segment-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn names_roundtrip() {
        assert_eq!(parse_segment_file_name(&segment_file_name(0)), Some(0));
        assert_eq!(
            parse_segment_file_name(&segment_file_name(u64::MAX)),
            Some(u64::MAX)
        );
        assert_eq!(parse_segment_file_name("wal-zz.seg"), None);
        assert_eq!(parse_segment_file_name("snap-0000000000000001.snap"), None);
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut seg = ActiveSegment::open(&dir, 1, 0).unwrap();
        let a = frame(b"alpha");
        let b = frame(b"beta");
        assert_eq!(seg.append(&a).unwrap(), 0);
        assert_eq!(seg.append(&b).unwrap(), a.len() as u64);
        seg.sync().unwrap();

        let scan = scan_segment_lossy(&dir.join(segment_file_name(1)), false).unwrap();
        assert!(scan.corrupt.is_empty());
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[0].payload, b"alpha");
        assert_eq!(scan.frames[1].payload, b"beta");
        assert_eq!(scan.valid_len, (a.len() + b.len()) as u64);
        assert_eq!(scan.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_tolerated_only_when_active() {
        let dir = tmp_dir("torn");
        let path = dir.join(segment_file_name(3));
        let good = frame(b"keep me");
        let torn = &frame(b"lost to the crash")[..9];
        let mut bytes = good.clone();
        bytes.extend_from_slice(torn);
        fs::write(&path, &bytes).unwrap();

        let scan = scan_segment_lossy(&path, true).unwrap();
        assert!(scan.corrupt.is_empty());
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_len, good.len() as u64);
        assert_eq!(scan.torn_bytes, torn.len() as u64);

        // On a sealed segment the same tail is corruption: one open-ended
        // region where the torn frame begins.
        let sealed = scan_segment_lossy(&path, false).unwrap();
        assert_eq!(sealed.frames.len(), 1);
        assert_eq!(sealed.torn_bytes, 0);
        assert_eq!(sealed.corrupt.len(), 1);
        assert_eq!(sealed.corrupt[0].offset, good.len() as u64);
        assert_eq!(sealed.corrupt[0].len, None);

        truncate_segment(&path, scan.valid_len).unwrap();
        let rescanned = scan_segment_lossy(&path, false).unwrap();
        assert!(rescanned.corrupt.is_empty());
        assert_eq!(rescanned.frames.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_sorts() {
        let dir = tmp_dir("list");
        for seq in [5u64, 1, 9] {
            fs::write(dir.join(segment_file_name(seq)), b"").unwrap();
        }
        fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        assert_eq!(list_segments(&dir).unwrap(), vec![1, 5, 9]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
