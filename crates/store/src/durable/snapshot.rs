//! Compaction snapshots: the archive's full contents up to a segment
//! watermark, stored as one checksummed file so recovery replays only the
//! live WAL suffix.
//!
//! A snapshot `snap-<seq>.snap` covers every segment with sequence number
//! `<= seq`. It is published atomically (write to a temp file, fsync,
//! rename) so a crash mid-snapshot leaves the previous snapshot and the
//! full segment chain intact. The file reuses the WAL frame format: a
//! header frame (magic, version, watermark, batch count) followed by one
//! batch frame per publish batch, in original publish order.

use super::codec::{decode_batch, encode_batch};
use super::segment::io_err;
use crate::api::StoreError;
use crate::frame::{frame, FrameRead, FrameReader};
use orchestra_updates::{Epoch, Transaction};
use std::fs;
use std::io::{BufReader, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// File extension for snapshots.
pub const SNAPSHOT_EXT: &str = "snap";

const MAGIC: &[u8; 4] = b"OSNP";
const VERSION: u8 = 1;

/// Name of the snapshot covering segments `<= seq`.
pub fn snapshot_file_name(seq: u64) -> String {
    format!("snap-{seq:016x}.{SNAPSHOT_EXT}")
}

/// Parse a snapshot file name back to its covered-through watermark.
pub fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snap-")?;
    let hex = rest.strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Watermarks of all snapshots in `dir`, ascending.
pub fn list_snapshots(dir: &Path) -> crate::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read_dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read_dir", dir, &e))?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(seq) = parse_snapshot_file_name(name) {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// One batch inside a snapshot, with its frame offset (the location scrub
/// checks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBatch {
    /// Byte offset of the batch's frame within the snapshot file.
    pub offset: u64,
    /// The publish epoch.
    pub epoch: Epoch,
    /// The batch's transactions.
    pub txns: Vec<Transaction>,
}

fn header_payload(covered_seq: u64, batch_count: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(21);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&covered_seq.to_le_bytes());
    out.extend_from_slice(&batch_count.to_le_bytes());
    out
}

fn parse_header(payload: &[u8], path: &Path) -> crate::Result<(u64, u64)> {
    let corrupt = |reason: String| StoreError::Corrupt {
        path: path.display().to_string(),
        offset: 0,
        reason,
    };
    if payload.len() != 21 {
        return Err(corrupt(format!(
            "header is {} bytes, want 21",
            payload.len()
        )));
    }
    // analyze: allow(panic) -- header length checked (21 bytes) just above
    if &payload[0..4] != MAGIC {
        return Err(corrupt("bad snapshot magic".into()));
    }
    // analyze: allow(panic) -- header length checked (21 bytes) just above
    if payload[4] != VERSION {
        return Err(corrupt(format!(
            "unsupported snapshot version {}",
            payload[4] // analyze: allow(panic) -- header length checked (21 bytes) just above
        )));
    }
    // analyze: allow(panic) -- 8-byte slice of the length-checked 21-byte header; try_into is infallible
    let covered = u64::from_le_bytes(payload[5..13].try_into().expect("8 bytes"));
    // analyze: allow(panic) -- 8-byte slice of the length-checked 21-byte header; try_into is infallible
    let count = u64::from_le_bytes(payload[13..21].try_into().expect("8 bytes"));
    Ok((covered, count))
}

/// Incrementally builds a snapshot file, holding one batch in memory at a
/// time; the result becomes visible only on [`finish`](Self::finish)
/// (temp file + rename), so a crash mid-build changes nothing.
pub struct SnapshotWriter {
    dir: PathBuf,
    tmp_path: PathBuf,
    final_path: PathBuf,
    file: fs::File,
    covered_seq: u64,
    count: u64,
    pos: u64,
}

impl SnapshotWriter {
    /// Start building the snapshot covering segments `<= covered_seq`.
    pub fn begin(dir: &Path, covered_seq: u64) -> crate::Result<Self> {
        let final_path = dir.join(snapshot_file_name(covered_seq));
        let tmp_path = dir.join(format!(".{}.tmp", snapshot_file_name(covered_seq)));
        let mut file = fs::File::create(&tmp_path).map_err(|e| io_err("create", &tmp_path, &e))?;
        // Placeholder header (count patched in finish; the header frame
        // has a fixed size, so an in-place rewrite is safe).
        let header = frame(&header_payload(covered_seq, 0));
        file.write_all(&header)
            .map_err(|e| io_err("write", &tmp_path, &e))?;
        Ok(SnapshotWriter {
            dir: dir.to_path_buf(),
            tmp_path,
            final_path,
            file,
            covered_seq,
            count: 0,
            pos: header.len() as u64,
        })
    }

    /// Append one batch; returns the frame offset it will have in the
    /// finished snapshot.
    pub fn append_batch(&mut self, epoch: Epoch, txns: &[Transaction]) -> crate::Result<u64> {
        // Failpoint `store.snapshot.write`: the tmp file is abandoned and
        // swept at the next open; the previous snapshot stays published.
        if orchestra_fault::check("store.snapshot.write").is_some() {
            return Err(super::segment::injected_err("write", &self.tmp_path));
        }
        let framed = frame(&encode_batch(epoch, txns));
        self.file
            .write_all(&framed)
            .map_err(|e| io_err("write", &self.tmp_path, &e))?;
        let offset = self.pos;
        self.pos += framed.len() as u64;
        self.count += 1;
        Ok(offset)
    }

    /// Patch the final batch count into the header, fsync, and atomically
    /// publish the snapshot.
    pub fn finish(mut self) -> crate::Result<()> {
        // Failpoint `store.snapshot.finish`: fail just before the atomic
        // rename — the worst possible moment, with the full file written.
        if orchestra_fault::check("store.snapshot.finish").is_some() {
            return Err(super::segment::injected_err("rename", &self.final_path));
        }
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek", &self.tmp_path, &e))?;
        self.file
            .write_all(&frame(&header_payload(self.covered_seq, self.count)))
            .map_err(|e| io_err("write header", &self.tmp_path, &e))?;
        self.file
            .sync_all()
            .map_err(|e| io_err("fsync", &self.tmp_path, &e))?;
        fs::rename(&self.tmp_path, &self.final_path)
            .map_err(|e| io_err("rename", &self.final_path, &e))?;
        sync_dir(&self.dir)
    }
}

/// Stream the snapshot with the given watermark, invoking `visit` per
/// batch in publish order — one batch resident at a time. Fully validates
/// frames, header, and batch count; returns the batch count.
pub fn stream_snapshot(
    dir: &Path,
    covered_seq: u64,
    mut visit: impl FnMut(SnapshotBatch) -> crate::Result<()>,
) -> crate::Result<u64> {
    let path = dir.join(snapshot_file_name(covered_seq));
    let corrupt = |offset: u64, reason: String| StoreError::Corrupt {
        path: path.display().to_string(),
        offset,
        reason,
    };
    let file = fs::File::open(&path).map_err(|e| io_err("open", &path, &e))?;
    let mut reader = FrameReader::new(BufReader::new(file), 0);
    let next_frame = |reader: &mut FrameReader<BufReader<fs::File>>| {
        let (offset, outcome) = reader.next_frame().map_err(|e| io_err("read", &path, &e))?;
        match outcome {
            FrameRead::Ok { payload, .. } => Ok((offset, Some(payload))),
            FrameRead::Eof => Ok((offset, None)),
            FrameRead::Torn => Err(corrupt(offset, "snapshot ends mid-frame".into())),
            FrameRead::Corrupt { reason, .. } => Err(corrupt(offset, reason)),
        }
    };

    let (_, header) = next_frame(&mut reader)?;
    let header = header.ok_or_else(|| corrupt(0, "empty snapshot file".into()))?;
    let (stored_covered, count) = parse_header(&header, &path)?;
    if stored_covered != covered_seq {
        return Err(corrupt(
            0,
            format!("watermark mismatch: file says {stored_covered}, name says {covered_seq}"),
        ));
    }

    let mut seen = 0u64;
    loop {
        let (frame_start, payload) = next_frame(&mut reader)?;
        let Some(payload) = payload else { break };
        let (epoch, txns) = decode_batch(&payload)
            .map_err(|e| corrupt(frame_start, format!("undecodable batch: {e}")))?;
        visit(SnapshotBatch {
            offset: frame_start,
            epoch,
            txns,
        })?;
        seen += 1;
    }
    if seen != count {
        return Err(corrupt(
            reader.offset(),
            format!("batch count mismatch: header says {count}, found {seen}"),
        ));
    }
    Ok(seen)
}

pub use super::segment::sync_dir;

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::tuple;
    use orchestra_updates::{PeerId, TxnId, Update};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("orchestra-snapshot-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(epoch: u64, peer: &str, seq: u64) -> (Epoch, Vec<Transaction>) {
        (
            Epoch::new(epoch),
            vec![Transaction::new(
                TxnId::new(PeerId::new(peer), seq),
                Epoch::new(epoch),
                vec![Update::insert("R", tuple![seq as i64])],
            )],
        )
    }

    #[test]
    fn names_roundtrip() {
        assert_eq!(parse_snapshot_file_name(&snapshot_file_name(12)), Some(12));
        assert_eq!(parse_snapshot_file_name("wal-0000000000000001.seg"), None);
    }

    /// Write `batches` through a [`SnapshotWriter`]; returns each batch's
    /// frame offset.
    fn write(dir: &Path, covered_seq: u64, batches: &[(Epoch, Vec<Transaction>)]) -> Vec<u64> {
        let mut writer = SnapshotWriter::begin(dir, covered_seq).unwrap();
        let offsets = batches
            .iter()
            .map(|(epoch, txns)| writer.append_batch(*epoch, txns).unwrap())
            .collect();
        writer.finish().unwrap();
        offsets
    }

    /// Every batch of the snapshot, or the error that stopped the stream.
    fn load(dir: &Path, covered_seq: u64) -> crate::Result<Vec<SnapshotBatch>> {
        let mut batches = Vec::new();
        stream_snapshot(dir, covered_seq, |b| {
            batches.push(b);
            Ok(())
        })?;
        Ok(batches)
    }

    #[test]
    fn write_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let batches = vec![batch(1, "A", 1), batch(2, "B", 1), batch(2, "A", 2)];
        let offsets = write(&dir, 7, &batches);
        assert_eq!(offsets.len(), 3);
        assert_eq!(list_snapshots(&dir).unwrap(), vec![7]);
        let loaded = load(&dir, 7).unwrap();
        assert_eq!(loaded.len(), 3);
        for ((batch, loaded), offset) in batches.iter().zip(&loaded).zip(&offsets) {
            assert_eq!(loaded.epoch, batch.0);
            assert_eq!(loaded.txns, batch.1);
            assert_eq!(loaded.offset, *offset);
        }
        // The name carries the watermark; a file whose header disagrees
        // is refused.
        fs::rename(
            dir.join(snapshot_file_name(7)),
            dir.join(snapshot_file_name(8)),
        )
        .unwrap();
        assert!(matches!(load(&dir, 8), Err(StoreError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_is_corrupt() {
        let dir = tmp_dir("truncated");
        write(&dir, 3, &[batch(1, "A", 1), batch(2, "A", 2)]);
        let path = dir.join(snapshot_file_name(3));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(load(&dir, 3), Err(StoreError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_batches_detected_via_count() {
        let dir = tmp_dir("count");
        // Hand-assemble a snapshot claiming 2 batches but holding 1.
        let path = dir.join(snapshot_file_name(1));
        let mut bytes = frame(&header_payload(1, 2));
        let (ep, txns) = batch(1, "A", 1);
        bytes.extend_from_slice(&frame(&encode_batch(ep, &txns)));
        fs::write(&path, bytes).unwrap();
        assert!(matches!(load(&dir, 1), Err(StoreError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }
}
