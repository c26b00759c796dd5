//! Fault-injection coverage for the two compaction-path failpoints
//! that nothing else exercised: `store.wal.rotate` (fail before the
//! active segment is sealed) and `store.snapshot.finish` (fail just
//! before the atomic rename, with the full snapshot body written).
//! Both must leave every published epoch readable, and a retry after
//! the schedule drains must succeed end to end.

use orchestra_relational::tuple;
use orchestra_store::{
    pages, DurableOptions, DurableStore, FetchCursor, StoreError, SyncPolicy, UpdateStore,
    DEFAULT_PAGE_LIMIT,
};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Failpoint configurations are process-wide: while one test's scope is
/// armed, the other's unscoped `publish`/`compact` calls would hit it
/// (and use up its one firing). One test at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "orchestra-fault-compact-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn txn(seq: u64) -> Transaction {
    Transaction::new(
        TxnId::new(PeerId::new("P"), seq),
        Epoch::zero(),
        vec![Update::insert("R", tuple![seq as i64, format!("v{seq}")])],
    )
}

fn opts() -> DurableOptions {
    DurableOptions {
        segment_max_bytes: 1 << 20,
        sync_policy: SyncPolicy::Always,
    }
}

/// How many transactions a walk of every page delivers.
fn readable(store: &DurableStore) -> usize {
    pages(
        store,
        FetchCursor::at_epoch(Epoch::zero()),
        DEFAULT_PAGE_LIMIT,
    )
    .map(|p| p.unwrap().txns.len())
    .sum()
}

fn assert_injected(err: StoreError) {
    match err {
        StoreError::Io { ref message, .. } if message == "injected failpoint" => {}
        other => panic!("expected injected failpoint error, got {other:?}"),
    }
}

#[test]
fn rotate_failure_keeps_active_segment_appendable() {
    let _serial = serial();
    let dir = fresh_dir("rotate");
    let store = DurableStore::open_with(&dir, opts()).unwrap();
    for seq in 1..=3u64 {
        orchestra_fault::disarmed(|| store.publish(Epoch::new(seq), vec![txn(seq)])).unwrap();
    }

    {
        let _fp = orchestra_fault::scoped("store.wal.rotate=err@1x1", 11);
        assert_injected(store.compact().unwrap_err());
    }

    // The failed rotation sealed nothing: the store keeps accepting
    // publishes and the whole history stays readable.
    orchestra_fault::disarmed(|| store.publish(Epoch::new(4), vec![txn(4)])).unwrap();
    assert_eq!(readable(&store), 4);

    // With the schedule drained, the retry compacts for real.
    let covered = orchestra_fault::disarmed(|| store.compact()).unwrap();
    assert!(covered.is_some(), "retry must compact");
    drop(store);

    let store = DurableStore::open_with(&dir, opts()).unwrap();
    assert_eq!(readable(&store), 4);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_finish_failure_never_publishes_a_partial_snapshot() {
    let _serial = serial();
    let dir = fresh_dir("finish");
    let store = DurableStore::open_with(&dir, opts()).unwrap();
    for seq in 1..=3u64 {
        orchestra_fault::disarmed(|| store.publish(Epoch::new(seq), vec![txn(seq)])).unwrap();
    }

    {
        // Fires at the worst possible moment: the full snapshot body is
        // on disk, only the atomic rename is missing.
        let _fp = orchestra_fault::scoped("store.snapshot.finish=err@1x1", 13);
        assert_injected(store.compact().unwrap_err());
    }

    // No partial snapshot became visible; the WAL still carries
    // everything.
    assert_eq!(readable(&store), 3);
    drop(store);

    // Reopen sweeps the abandoned tmp file, and a clean compaction run
    // publishes the snapshot it could not before.
    let store = DurableStore::open_with(&dir, opts()).unwrap();
    assert_eq!(readable(&store), 3);
    orchestra_fault::disarmed(|| store.publish(Epoch::new(4), vec![txn(4)])).unwrap();
    assert!(orchestra_fault::disarmed(|| store.compact())
        .unwrap()
        .is_some());
    assert_eq!(readable(&store), 4);
    let leftovers: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "tmp files swept: {leftovers:?}");
    fs::remove_dir_all(&dir).unwrap();
}
