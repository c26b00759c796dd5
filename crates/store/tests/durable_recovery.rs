//! Crash-recovery guarantees of the durable archive:
//!
//! * kill-and-reopen: every published epoch is refetchable after restart,
//!   with no checksum failures, across segment rotations;
//! * torn-tail repair: truncating the WAL mid-frame loses exactly the torn
//!   batch and nothing else;
//! * sealed-file corruption is detected, never silently dropped;
//! * reads are served from memory: an archive whose directory is gone
//!   still pages and fetches every payload;
//! * a directory holding a compaction snapshot from an older build is
//!   refused, not opened without the history the snapshot holds.

use orchestra_relational::tuple;
use orchestra_store::durable::segment::{list_segments, segment_file_name};
use orchestra_store::frame::frame;
use orchestra_store::{
    pages, DurableOptions, DurableStore, FetchCursor, StoreError, SyncPolicy, UpdateStore,
    DEFAULT_PAGE_LIMIT,
};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "orchestra-recovery-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn txn(peer: &str, seq: u64) -> Transaction {
    Transaction::new(
        TxnId::new(PeerId::new(peer), seq),
        Epoch::zero(),
        vec![
            Update::insert("R", tuple![seq as i64, format!("v{seq}")]),
            Update::modify(
                "R",
                tuple![seq as i64, format!("v{seq}")],
                tuple![seq as i64, format!("w{seq}")],
            ),
        ],
    )
}

fn tiny_segments() -> DurableOptions {
    DurableOptions {
        segment_max_bytes: 64, // force a rotation on nearly every publish
        sync_policy: SyncPolicy::Always,
    }
}

/// Every transaction archived after `since`, through the paged read path;
/// none may be unavailable.
fn all_since(store: &DurableStore, since: Epoch) -> Vec<Transaction> {
    let mut out = Vec::new();
    for page in pages(store, FetchCursor::after_epoch(since), DEFAULT_PAGE_LIMIT) {
        let page = page.unwrap();
        assert!(page.unavailable.is_empty(), "{:?}", page.unavailable);
        out.extend(page.txns);
    }
    out
}

/// The core acceptance test: publish across several "process lifetimes"
/// (open → publish → drop), and after every reopen, every epoch ever
/// published is refetchable with correct contents.
#[test]
fn kill_and_reopen_preserves_every_epoch() {
    let dir = fresh_dir("kill-reopen");
    let opts = tiny_segments();
    let mut published: Vec<(u64, u64)> = Vec::new(); // (epoch, seq)
    for generation in 0..5u64 {
        let store = DurableStore::open_with(&dir, opts).unwrap();
        // Everything from prior generations is already there.
        let recovered = all_since(&store, Epoch::zero());
        assert_eq!(recovered.len(), published.len(), "gen {generation}");
        for ((epoch, seq), t) in published.iter().zip(&recovered) {
            assert_eq!(t.epoch, Epoch::new(*epoch));
            assert_eq!(t.id.seq, *seq);
            assert_eq!(t.updates.len(), 2, "payloads intact");
        }
        // Publish a few more epochs, crossing segment boundaries.
        for e in 0..3u64 {
            let epoch = generation * 3 + e + 1;
            let seq = epoch; // unique per publish
            orchestra_fault::disarmed(|| store.publish(Epoch::new(epoch), vec![txn("P", seq)]))
                .unwrap();
            published.push((epoch, seq));
        }
        assert_eq!(store.latest_epoch(), Some(Epoch::new(generation * 3 + 3)));
        drop(store); // "kill"
    }
    let store = DurableStore::open_with(&dir, opts).unwrap();
    assert_eq!(store.len(), published.len());
    let all = all_since(&store, Epoch::zero());
    assert_eq!(all.len(), published.len());
    // Epoch-filtered fetch still honors the boundary after recovery.
    let late = all_since(&store, Epoch::new(10));
    assert_eq!(
        late.len(),
        published.iter().filter(|(e, _)| *e > 10).count()
    );
    assert!(store.durable_stats().recovered_txns == published.len() as u64);
    fs::remove_dir_all(&dir).unwrap();
}

/// Chop the active segment mid-frame (a crash during append): reopening
/// yields exactly the durable prefix, and the store keeps working.
#[test]
fn torn_wal_tail_recovers_durable_prefix() {
    let dir = fresh_dir("torn");
    let opts = DurableOptions {
        segment_max_bytes: 1 << 20, // single segment
        ..tiny_segments()
    };
    {
        let store = DurableStore::open_with(&dir, opts).unwrap();
        for seq in 1..=4u64 {
            orchestra_fault::disarmed(|| store.publish(Epoch::new(seq), vec![txn("P", seq)]))
                .unwrap();
        }
    }
    let seg = dir.join(segment_file_name(1));
    let bytes = fs::read(&seg).unwrap();
    // Cut into the last frame but leave its header intact: a torn tail.
    fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();

    let store = DurableStore::open_with(&dir, opts).unwrap();
    let stats = store.durable_stats();
    assert!(stats.torn_bytes_truncated > 0, "tail was repaired");
    let all = all_since(&store, Epoch::zero());
    assert_eq!(all.len(), 3, "exactly the durable prefix survives");
    assert_eq!(store.latest_epoch(), Some(Epoch::new(3)));

    // The repaired log accepts appends and round-trips once more.
    orchestra_fault::disarmed(|| store.publish(Epoch::new(9), vec![txn("P", 9)])).unwrap();
    drop(store);
    let store = DurableStore::open_with(&dir, opts).unwrap();
    assert_eq!(all_since(&store, Epoch::zero()).len(), 4);
    assert_eq!(store.latest_epoch(), Some(Epoch::new(9)));
    fs::remove_dir_all(&dir).unwrap();
}

/// Truncating to a bare frame header (no payload at all) is also torn.
#[test]
fn torn_tail_at_header_boundary() {
    let dir = fresh_dir("torn-header");
    let opts = tiny_segments();
    {
        let store = DurableStore::open_with(&dir, opts).unwrap();
        orchestra_fault::disarmed(|| store.publish(Epoch::new(1), vec![txn("P", 1)])).unwrap();
    }
    let segs = list_segments(&dir).unwrap();
    let seg = dir.join(segment_file_name(*segs.last().unwrap()));
    let mut bytes = fs::read(&seg).unwrap();
    let valid = bytes.len();
    // Append 5 garbage bytes: a header fragment of a frame never written.
    bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01]);
    fs::write(&seg, &bytes).unwrap();

    let store = DurableStore::open_with(&dir, opts).unwrap();
    assert_eq!(all_since(&store, Epoch::zero()).len(), 1);
    assert_eq!(fs::metadata(&seg).unwrap().len(), valid as u64, "tail gone");
    fs::remove_dir_all(&dir).unwrap();
}

/// Bit-rot inside a *sealed* complete frame no longer fails the open: the
/// rotten frame is skipped (and counted), the rest of the archive loads,
/// and the store keeps accepting appends. The missing history is exactly
/// what a mesh neighbor re-fills via anti-entropy.
#[test]
fn corrupt_sealed_frame_quarantined_on_open() {
    let dir = fresh_dir("corrupt");
    let opts = tiny_segments();
    {
        let store = DurableStore::open_with(&dir, opts).unwrap();
        for seq in 1..=6u64 {
            orchestra_fault::disarmed(|| store.publish(Epoch::new(seq), vec![txn("P", seq)]))
                .unwrap();
        }
        assert!(store.durable_stats().segments > 1, "rotation happened");
    }
    let first = dir.join(segment_file_name(
        *list_segments(&dir).unwrap().first().unwrap(),
    ));
    let mut bytes = fs::read(&first).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(&first, &bytes).unwrap();

    let store = DurableStore::open_with(&dir, opts).unwrap();
    let stats = store.durable_stats();
    assert!(
        stats.corrupt_frames_skipped > 0,
        "the flip was noticed: {stats:?}"
    );
    let survivors = all_since(&store, Epoch::zero());
    assert!(
        !survivors.is_empty() && survivors.len() < 6,
        "unaffected frames load, the rotten one is absent: {}",
        survivors.len()
    );
    // The archive stays writable past the damage.
    orchestra_fault::disarmed(|| store.publish(Epoch::new(7), vec![txn("P", 7)])).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

/// A live `scrub()` detects bit-rot without a restart, quarantines the
/// affected positions (reported unavailable, fetch refuses them), and a
/// later `absorb` of a healthy copy heals them — with the position listed
/// exactly once throughout (zero duplicate applies).
#[test]
fn scrub_quarantines_and_absorb_heals() {
    let dir = fresh_dir("scrub-heal");
    let opts = tiny_segments();
    let store = DurableStore::open_with(&dir, opts).unwrap();
    let mut originals = Vec::new();
    for seq in 1..=6u64 {
        let mut t = txn("P", seq);
        orchestra_fault::disarmed(|| store.publish(Epoch::new(seq), vec![t.clone()])).unwrap();
        // Keep the copy a neighbor would hold: stamped with the publish
        // epoch (publish re-stamps in the archive).
        t.epoch = Epoch::new(seq);
        originals.push(t);
    }

    // Rot a byte inside the first sealed segment, behind the store's back.
    let first = dir.join(segment_file_name(
        *list_segments(&dir).unwrap().first().unwrap(),
    ));
    let mut bytes = fs::read(&first).unwrap();
    bytes[20] ^= 0x40;
    fs::write(&first, &bytes).unwrap();

    let report = store.scrub().unwrap();
    assert!(report.corrupt_frames > 0, "{report:?}");
    assert!(report.quarantined > 0, "{report:?}");
    let gaps = store.quarantined();
    assert_eq!(gaps.len(), report.quarantined);

    // Quarantined positions: len unchanged, pages report unavailable,
    // point fetch refuses, re-publish refuses.
    assert_eq!(store.len(), 6, "positions never leave the archive");
    let mut seen = 0usize;
    let mut unavailable = Vec::new();
    for page in pages(&store, FetchCursor::at_epoch(Epoch::zero()), 4) {
        let page = page.unwrap();
        seen += page.scanned();
        unavailable.extend(page.unavailable.clone());
    }
    assert_eq!(seen, 6, "every position still scanned exactly once");
    assert_eq!(unavailable, gaps);
    let (_, gap_id) = &gaps[0];
    assert!(matches!(
        store.fetch(gap_id),
        Err(StoreError::Unavailable { .. })
    ));
    let gap_txn = originals
        .iter()
        .find(|t| &t.id == gap_id)
        .expect("quarantined id is one of ours")
        .clone();
    assert!(matches!(
        store.publish(Epoch::new(9), vec![gap_txn.clone()]),
        Err(StoreError::DuplicateTxn(_))
    ));

    // Heal: absorb healthy copies (as a neighbor's PULL_PAGES would
    // deliver them). Positions are restored, nothing double-applies.
    let healthy: Vec<_> = gaps
        .iter()
        .map(|(_, id)| originals.iter().find(|t| &t.id == id).unwrap().clone())
        .collect();
    let r = orchestra_fault::disarmed(|| store.absorb(healthy)).unwrap();
    assert_eq!(r.healed as usize, gaps.len());
    assert_eq!(r.absorbed, 0);
    assert_eq!(r.duplicates, 0);
    assert!(store.quarantined().is_empty());
    assert_eq!(store.durable_stats().quarantined, 0);
    let all = all_since(&store, Epoch::zero());
    assert_eq!(all.len(), 6, "healed archive is whole again");
    assert_eq!(store.fetch(gap_id).unwrap().unwrap().id, *gap_id);

    // A second scrub finds the old rotten frame still on disk but has
    // nothing new to quarantine (the healed copies supersede it), and a
    // reopen skips the rotten frame and loads the healed copies.
    let again = store.scrub().unwrap();
    assert!(again.corrupt_frames > 0, "{again:?}");
    assert_eq!(again.quarantined, 0, "{again:?}");
    drop(store);
    let store = DurableStore::open_with(&dir, opts).unwrap();
    assert!(store.durable_stats().corrupt_frames_skipped > 0);
    assert_eq!(all_since(&store, Epoch::zero()).len(), 6);
    assert_eq!(store.scrub().unwrap().quarantined, 0);
    fs::remove_dir_all(&dir).unwrap();
}

/// Torn-tail torture sweep: truncate the WAL at *every* byte offset of
/// the final frame, and bit-flip every byte of it, one mutation per
/// recovery. Recovery must never panic and never lose a committed prior
/// frame.
#[test]
fn torn_tail_torture_sweep() {
    let dir = fresh_dir("torture");
    let opts = tiny_segments();
    {
        let store = DurableStore::open_with(&dir, opts).unwrap();
        for seq in 1..=3u64 {
            orchestra_fault::disarmed(|| store.publish(Epoch::new(seq), vec![txn("P", seq)]))
                .unwrap();
        }
    }
    let segs = list_segments(&dir).unwrap();
    let last_seg = dir.join(segment_file_name(*segs.last().unwrap()));
    let pristine: std::collections::HashMap<_, _> = segs
        .iter()
        .map(|&s| {
            let p = dir.join(segment_file_name(s));
            (p.clone(), fs::read(&p).unwrap())
        })
        .collect();
    let tail = fs::read(&last_seg).unwrap();
    // `tiny_segments` rotates at 64 bytes, so the final segment holds
    // exactly one frame — every offset in it belongs to the final frame.
    let frame_len = tail.len();
    assert!(frame_len > 8, "final segment holds a whole frame");

    let restore = |dir: &std::path::Path| {
        for (p, bytes) in &pristine {
            fs::write(p, bytes).unwrap();
        }
        // Recovery may have truncated or appended nothing else; the LOCK
        // file is harmless to leave in place.
        let _ = dir;
    };

    // Sweep 1: truncate at every byte offset of the final frame.
    for cut in 0..frame_len {
        fs::write(&last_seg, &tail[..cut]).unwrap();
        let store = DurableStore::open_with(&dir, opts)
            .unwrap_or_else(|e| panic!("truncation at byte {cut} failed the open: {e}"));
        let survivors = all_since(&store, Epoch::zero());
        assert!(
            survivors.len() >= 2,
            "truncation at {cut} lost a committed prior frame: {} survivors",
            survivors.len()
        );
        assert!(survivors.iter().any(|t| t.id == txn("P", 1).id));
        assert!(survivors.iter().any(|t| t.id == txn("P", 2).id));
        drop(store);
        restore(&dir);
    }

    // Sweep 2: flip every single byte of the final frame.
    for flip in 0..frame_len {
        let mut mutated = tail.clone();
        mutated[flip] ^= 0x01;
        fs::write(&last_seg, &mutated).unwrap();
        let store = DurableStore::open_with(&dir, opts)
            .unwrap_or_else(|e| panic!("bit-flip at byte {flip} failed the open: {e}"));
        let survivors = all_since(&store, Epoch::zero());
        assert!(
            survivors.iter().any(|t| t.id == txn("P", 1).id)
                && survivors.iter().any(|t| t.id == txn("P", 2).id),
            "bit-flip at {flip} lost a committed prior frame"
        );
        drop(store);
        restore(&dir);
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Reads never touch the disk: with the archive spread over several
/// segments, and its directory renamed away, every payload still pages
/// and fetches.
#[test]
fn reads_never_touch_the_disk() {
    let dir = fresh_dir("no-disk-reads");
    let store = DurableStore::open_with(&dir, tiny_segments()).unwrap();
    for seq in 1..=9u64 {
        orchestra_fault::disarmed(|| store.publish(Epoch::new(seq), vec![txn("P", seq)])).unwrap();
    }
    assert!(store.durable_stats().segments > 1, "several segments");

    let moved = dir.with_extension("moved");
    fs::rename(&dir, &moved).unwrap();
    let all = all_since(&store, Epoch::zero());
    let seqs: Vec<u64> = all.iter().map(|t| t.id.seq).collect();
    assert_eq!(seqs, (1..=9).collect::<Vec<_>>());
    for seq in 1..=9u64 {
        let want = txn("P", seq);
        let got = store.fetch(&want.id).unwrap().expect("archived");
        assert_eq!(got.updates, want.updates);
    }
    fs::rename(&moved, &dir).unwrap();
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// Duplicate detection must consult recovered state, not just the current
/// process's publishes.
#[test]
fn duplicates_rejected_across_restarts() {
    let dir = fresh_dir("dup");
    {
        let store = DurableStore::open(&dir).unwrap();
        orchestra_fault::disarmed(|| store.publish(Epoch::new(1), vec![txn("P", 1)])).unwrap();
    }
    let store = DurableStore::open(&dir).unwrap();
    let err = store.publish(Epoch::new(2), vec![txn("P", 1)]);
    assert!(matches!(err, Err(StoreError::DuplicateTxn(_))));
    fs::remove_dir_all(&dir).unwrap();
}

/// The relaxed sync policy trades the crash guarantee for throughput but
/// still recovers cleanly from an orderly shutdown.
#[test]
fn relaxed_sync_policies_roundtrip() {
    let dir = fresh_dir("sync-policy");
    let opts = DurableOptions {
        sync_policy: SyncPolicy::EveryN(3),
        ..DurableOptions::default()
    };
    {
        let store = DurableStore::open_with(&dir, opts).unwrap();
        for seq in 1..=7u64 {
            orchestra_fault::disarmed(|| store.publish(Epoch::new(seq), vec![txn("P", seq)]))
                .unwrap();
        }
        orchestra_fault::disarmed(|| store.sync()).unwrap();
    }
    let store = DurableStore::open_with(&dir, opts).unwrap();
    assert_eq!(all_since(&store, Epoch::zero()).len(), 7);
    fs::remove_dir_all(&dir).unwrap();
}

/// Two concurrent stores on one directory would corrupt each other's
/// WAL offsets: the second open must be refused while the first lives,
/// and succeed once it's dropped.
#[cfg(unix)]
#[test]
fn concurrent_open_refused_by_lock() {
    let dir = fresh_dir("lock");
    let first = DurableStore::open(&dir).unwrap();
    match DurableStore::open(&dir) {
        Err(StoreError::Io { op, message, .. }) => {
            assert_eq!(op, "lock");
            assert!(message.contains("already open"), "{message}");
        }
        other => panic!("expected lock refusal, got {other:?}"),
    }
    drop(first);
    DurableStore::open(&dir).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

/// An empty directory opens as an empty archive; opening is idempotent.
#[test]
fn empty_and_reopen_idempotent() {
    let dir = fresh_dir("empty");
    {
        let store = DurableStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.latest_epoch(), None);
    }
    let store = DurableStore::open(&dir).unwrap();
    assert!(store.is_empty());
    assert_eq!(store.durable_stats().recovered_txns, 0);
    fs::remove_dir_all(&dir).unwrap();
}

/// A paging cursor taken in one process lifetime resumes in the next:
/// the (epoch, id) order is rebuilt identically by recovery — including
/// across segment rotations — so paged and one-shot reads agree even
/// when a restart interrupts the walk.
#[test]
fn fetch_page_cursor_resumes_across_restart() {
    let dir = fresh_dir("cursor-resume");
    let opts = tiny_segments();
    {
        let store = DurableStore::open_with(&dir, opts).unwrap();
        for ep in 1..=6u64 {
            let batch = (0..4).map(|i| txn("P", ep * 10 + i)).collect();
            orchestra_fault::disarmed(|| store.publish(Epoch::new(ep), batch)).unwrap();
        }
    }

    // First lifetime: read the full history one-shot, then walk the
    // first two pages and remember where we stopped.
    let (one_shot, mid_cursor) = {
        let store = DurableStore::open_with(&dir, opts).unwrap();
        let one_shot = all_since(&store, Epoch::zero());
        assert_eq!(one_shot.len(), 24);
        let p1 = store
            .fetch_page(&FetchCursor::after_epoch(Epoch::zero()), 5)
            .unwrap();
        let p2 = store.fetch_page(&p1.next_cursor.unwrap(), 5).unwrap();
        assert_eq!(
            one_shot[..10],
            p1.txns.iter().chain(&p2.txns).cloned().collect::<Vec<_>>()[..],
        );
        (one_shot, p2.next_cursor.unwrap())
    };

    // Second lifetime: resume the walk from the saved cursor — the tail
    // matches exactly.
    let store = DurableStore::open_with(&dir, opts).unwrap();
    let tail: Vec<_> = pages(&store, mid_cursor, 5)
        .flat_map(|p| p.unwrap().txns)
        .collect();
    assert_eq!(tail, one_shot[10..]);
    fs::remove_dir_all(&dir).unwrap();
}

/// Anti-entropy absorb writes WAL batches with the epochs their
/// publishers stamped — possibly *behind* the newest local epoch. The
/// merged order must survive a reopen, and re-absorbing the same
/// transactions must stay idempotent across restarts.
#[test]
fn absorbed_out_of_order_epochs_survive_reopen() {
    let dir = fresh_dir("absorb");
    let scan_epochs = |store: &DurableStore| -> Vec<u64> {
        all_since(store, Epoch::zero())
            .iter()
            .map(|t| t.epoch.value())
            .collect()
    };
    {
        let store = DurableStore::open_with(&dir, tiny_segments()).unwrap();
        orchestra_fault::disarmed(|| store.publish(Epoch::new(6), vec![txn("A", 1)])).unwrap();
        // Gossip backfill: older epochs land behind the local frontier.
        let mut b1 = txn("B", 1);
        b1.epoch = Epoch::new(2);
        let mut b2 = txn("B", 2);
        b2.epoch = Epoch::new(9);
        let r = orchestra_fault::disarmed(|| store.absorb(vec![b1, b2, txn("A", 1)])).unwrap();
        assert_eq!((r.absorbed, r.duplicates), (2, 1));
        assert_eq!(scan_epochs(&store), vec![2, 6, 9]);
    }
    // Reopen replays the WAL: same merged order, still idempotent.
    {
        let store = DurableStore::open_with(&dir, tiny_segments()).unwrap();
        assert_eq!(scan_epochs(&store), vec![2, 6, 9]);
        let mut again = txn("B", 1);
        again.epoch = Epoch::new(2);
        let r = orchestra_fault::disarmed(|| store.absorb(vec![again])).unwrap();
        assert_eq!((r.absorbed, r.duplicates), (0, 1));
        assert_eq!(scan_epochs(&store), vec![2, 6, 9]);
    }
    // And once more after the refused re-absorb.
    let store = DurableStore::open_with(&dir, tiny_segments()).unwrap();
    assert_eq!(scan_epochs(&store), vec![2, 6, 9]);
    assert_eq!(store.len(), 3);
    fs::remove_dir_all(&dir).unwrap();
}

/// A failed rotation (failpoint `store.wal.rotate`) fails the publish
/// that needed it before anything is sealed or appended: the active
/// segment stays active and appendable, the history stays readable, and
/// the retried publish rotates for real.
#[test]
fn rotate_failure_keeps_active_segment_appendable() {
    let dir = fresh_dir("rotate");
    let opts = DurableOptions {
        segment_max_bytes: 1, // every publish into a non-empty segment rotates
        ..tiny_segments()
    };
    let store = orchestra_fault::disarmed(|| DurableStore::open_with(&dir, opts)).unwrap();
    for seq in 1..=3u64 {
        orchestra_fault::disarmed(|| store.publish(Epoch::new(seq), vec![txn("P", seq)])).unwrap();
    }
    let segments = store.durable_stats().segments;

    {
        let _fp = orchestra_fault::scoped("store.wal.rotate=err@1x1", 11);
        match store.publish(Epoch::new(4), vec![txn("P", 4)]) {
            Err(StoreError::Io { message, .. }) => assert_eq!(message, "injected failpoint"),
            other => panic!("expected the injected rotate failure, got {other:?}"),
        }
    }
    assert_eq!(store.durable_stats().segments, segments, "nothing sealed");
    assert_eq!(all_since(&store, Epoch::zero()).len(), 3);

    orchestra_fault::disarmed(|| store.publish(Epoch::new(4), vec![txn("P", 4)])).unwrap();
    assert_eq!(store.durable_stats().segments, segments + 1, "rotated");
    assert_eq!(all_since(&store, Epoch::zero()).len(), 4);
    drop(store);

    let store = orchestra_fault::disarmed(|| DurableStore::open_with(&dir, opts)).unwrap();
    assert_eq!(all_since(&store, Epoch::zero()).len(), 4);
    fs::remove_dir_all(&dir).unwrap();
}

/// A directory holding a compaction snapshot (`snap-*.snap`) from an
/// older build is refused with an error naming the file: the segments
/// it covered are gone, so opening the WAL alone would silently drop
/// that history. The file is left where it was.
#[test]
fn snapshot_from_an_older_build_is_refused() {
    let dir = fresh_dir("old-snapshot");
    fs::create_dir_all(&dir).unwrap();
    // A well-formed empty snapshot covering segment 1, as older builds
    // wrote it: one header frame of magic, version 1, watermark and
    // batch count.
    let mut header = b"OSNP\x01".to_vec();
    header.extend_from_slice(&1u64.to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes());
    let snap = dir.join("snap-0000000000000001.snap");
    fs::write(&snap, frame(&header)).unwrap();

    match DurableStore::open(&dir) {
        Err(StoreError::Corrupt { path, .. }) => assert_eq!(path, snap.display().to_string()),
        other => panic!("expected the snapshot to be refused, got {other:?}"),
    }
    assert!(snap.exists());
    fs::remove_dir_all(&dir).unwrap();
}
