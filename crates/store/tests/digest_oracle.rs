//! Oracle test for the maintained [`StoreDigest`]: every backend keeps
//! its digest beside its epoch index — built by one walk on the first
//! `digest()` call, folded forward by `publish`, `absorb` and heals,
//! dropped by a scrub that quarantines — instead of re-summarizing the
//! archive on every call.
//!
//! The reference is the fold `UpdateStore::digest` used to run by
//! default: page the whole archive front to back, crediting reachable
//! payloads and counting unreachable positions. Random schedules of
//! publishes, absorbs (out-of-order epochs, duplicates, in-batch
//! repeats), rejected publishes, and — on the durable archive — fsync
//! retries, bit rot with scrub and heal, and reopen are run
//! against every backend, and after every step `digest()` must equal
//! the page walk.

use orchestra_net::{PeerServer, RemoteStore};
use orchestra_relational::tuple;
use orchestra_store::durable::segment::{list_segments, segment_file_name};
use orchestra_store::{
    pages, DurableOptions, DurableStore, FetchCursor, InMemoryStore, ReplicatedStore, StoreDigest,
    StoreError, SyncPolicy, UpdateStore, DEFAULT_PAGE_LIMIT,
};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Failpoint configurations are process-wide: while the fsync step's
/// scope is armed, another test's publish would consume it. One test at
/// a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "orchestra-digest-oracle-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The reference: the page-walk fold the trait used to provide.
fn page_walk(store: &dyn UpdateStore) -> StoreDigest {
    let mut d = StoreDigest::default();
    for page in pages(
        store,
        FetchCursor::at_epoch(Epoch::zero()),
        DEFAULT_PAGE_LIMIT,
    ) {
        let page = page.expect("page walk");
        for t in &page.txns {
            d.observe(t);
        }
        for (e, id) in &page.unavailable {
            d.observe_position(*e, id);
        }
    }
    d
}

#[derive(Debug, Clone, Copy)]
enum Backend {
    Memory,
    Durable,
    Replicated,
}

enum Store {
    Memory(InMemoryStore),
    Durable {
        /// `None` only while being reopened.
        store: Option<Box<DurableStore>>,
        dir: PathBuf,
        opts: DurableOptions,
    },
    Replicated(ReplicatedStore),
}

impl Store {
    fn open(backend: Backend) -> Store {
        match backend {
            Backend::Memory => Store::Memory(InMemoryStore::new()),
            Backend::Replicated => Store::Replicated(ReplicatedStore::new(5, 2).unwrap()),
            Backend::Durable => {
                let dir = fresh_dir("sched");
                let opts = DurableOptions {
                    // Seal a segment every couple of batches, so bit rot
                    // has sealed frames to land in.
                    segment_max_bytes: 256,
                    sync_policy: SyncPolicy::Always,
                };
                let store = Some(Box::new(DurableStore::open_with(&dir, opts).unwrap()));
                Store::Durable { store, dir, opts }
            }
        }
    }

    fn api(&self) -> &dyn UpdateStore {
        match self {
            Store::Memory(s) => s,
            Store::Durable { store, .. } => &**store.as_ref().expect("open"),
            Store::Replicated(s) => s,
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Store::Durable { store, dir, .. } = self {
            drop(store.take());
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// Generates steps and remembers every transaction it ever handed to the
/// store (stamped with its archive epoch), for duplicates and heals.
struct Schedule {
    rng: TestRng,
    next_seq: HashMap<&'static str, u64>,
    epoch: u64,
    originals: Vec<Transaction>,
}

const PUBLISHERS: [&str; 3] = ["P", "Q", "G"];
const RELATIONS: [&str; 3] = ["R", "S", "T"];

impl Schedule {
    fn pick(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }

    /// A transaction touching one to three relations, often with several
    /// updates landing in the same one.
    fn txn(&mut self, epoch: u64) -> Transaction {
        let peer = PUBLISHERS[self.pick(PUBLISHERS.len())];
        let seq = self.next_seq.entry(peer).or_insert(0);
        *seq += 1;
        let id = TxnId::new(PeerId::new(peer), *seq);
        let updates = (0..1 + self.pick(4))
            .map(|i| {
                let rel = RELATIONS[self.pick(RELATIONS.len())];
                Update::insert(rel, tuple![i as i64, self.pick(9) as i64])
            })
            .collect();
        Transaction::new(id, Epoch::new(epoch), updates)
    }

    fn batch(&mut self, epoch: u64) -> Vec<Transaction> {
        let n = 1 + self.pick(3);
        let batch: Vec<Transaction> = (0..n).map(|_| self.txn(epoch)).collect();
        self.originals.extend(batch.iter().cloned());
        batch
    }

    /// A transaction the store really holds (some handed over were
    /// refused or failed).
    fn archived(&mut self, store: &dyn UpdateStore) -> Option<Transaction> {
        for _ in 0..8 {
            if self.originals.is_empty() {
                return None;
            }
            let at = self.pick(self.originals.len());
            let t = self.originals[at].clone();
            if matches!(store.fetch(&t.id), Ok(Some(_))) {
                return Some(t);
            }
        }
        None
    }
}

fn step(store: &mut Store, sched: &mut Schedule, seed: u64) {
    let durable = matches!(store, Store::Durable { .. });
    let kind = sched.pick(if durable { 8 } else { 4 });
    match kind {
        // Publish into a fresh epoch, or append into the newest one.
        0 | 1 => {
            if sched.epoch == 0 || sched.pick(4) > 0 {
                sched.epoch += 1;
            }
            let batch = sched.batch(sched.epoch);
            // Ignored: a background fault may fail it, and the oracle
            // compares whatever the archive then holds.
            let _ = store.api().publish(Epoch::new(sched.epoch), batch);
        }
        // Absorb: fresh history at old and new epochs, a duplicate of
        // archived history, and a repeat within the batch.
        2 => {
            let mut batch = Vec::new();
            for _ in 0..1 + sched.pick(3) {
                let epoch = 1 + sched.pick(sched.epoch as usize + 2) as u64;
                let t = sched.txn(epoch);
                sched.originals.push(t.clone());
                batch.push(t);
            }
            if let Some(dup) = sched.archived(store.api()) {
                batch.push(dup);
            }
            let repeat = batch[sched.pick(batch.len())].clone();
            batch.push(repeat);
            let before = store.api().digest().unwrap();
            if let Err(e) = store.api().absorb(batch) {
                if matches!(store, Store::Replicated(_)) {
                    assert!(matches!(e, StoreError::InvalidConfig(_)), "{e}");
                    assert_eq!(store.api().digest().unwrap(), before);
                }
            }
        }
        // Rejected publishes leave the digest unchanged.
        3 => {
            let before = store.api().digest().unwrap();
            if let Some(dup) = sched.archived(store.api()) {
                let err = store.api().publish(Epoch::new(sched.epoch + 1), vec![dup]);
                assert!(matches!(err, Err(StoreError::DuplicateTxn(_))), "{err:?}");
            }
            if store.api().latest_epoch() > Some(Epoch::new(1)) {
                let stale = sched.txn(1);
                let err = store.api().publish(Epoch::new(1), vec![stale]);
                assert!(matches!(err, Err(StoreError::StaleEpoch { .. })), "{err:?}");
            }
            assert_eq!(store.api().digest().unwrap(), before);
        }
        _ => durable_step(store, sched, kind, seed),
    }
}

fn durable_step(store: &mut Store, sched: &mut Schedule, kind: usize, seed: u64) {
    let Store::Durable { store, dir, opts } = store else {
        unreachable!("durable steps run on the durable archive only");
    };
    if kind == 7 {
        // Close and reopen: the digest is rebuilt on the next call.
        drop(store.take());
        *store = Some(Box::new(DurableStore::open_with(&*dir, *opts).unwrap()));
        return;
    }
    let s: &DurableStore = store.as_ref().expect("open");
    match kind {
        // A failed fsync leaves the batch's frame on disk; the retry
        // appends it again. The position counts once, now and after a
        // reopen replays both frames.
        4 => {
            sched.epoch += 1;
            let batch = sched.batch(sched.epoch);
            let before = s.digest().unwrap().len;
            {
                let _fp = orchestra_fault::scoped("store.wal.fsync=err@1x1", seed);
                assert!(s.publish(Epoch::new(sched.epoch), batch.clone()).is_err());
            }
            assert_eq!(s.digest().unwrap().len, before);
            if s.publish(Epoch::new(sched.epoch), batch.clone()).is_ok() {
                assert_eq!(s.digest().unwrap().len, before + batch.len() as u64);
            }
        }
        // Bit rot in a sealed segment, found by a scrub.
        5 => {
            let segs = list_segments(dir).unwrap();
            if segs.len() >= 2 {
                let seg = segs[sched.pick(segs.len() - 1)];
                let path = dir.join(segment_file_name(seg));
                let mut bytes = fs::read(&path).unwrap();
                if !bytes.is_empty() {
                    let at = sched.pick(bytes.len());
                    bytes[at] ^= 0x10;
                    fs::write(&path, &bytes).unwrap();
                }
            }
            s.scrub().unwrap();
        }
        // Heal: healthy copies of quarantined positions (plus an
        // ordinary duplicate) arrive by absorb.
        _ => {
            let mut batch: Vec<Transaction> = Vec::new();
            for (_, id) in s.quarantined() {
                if sched.pick(4) > 0 {
                    batch.extend(sched.originals.iter().find(|t| t.id == id).cloned());
                }
            }
            if let Some(dup) = sched.archived(s) {
                batch.push(dup);
            }
            let _ = s.absorb(batch);
        }
    }
}

/// Run one schedule, checking the digest against the page walk after
/// every step once checking starts — from the first step, or (to cover
/// the first-call build over existing history) from a random later one.
fn run_schedule(backend: Backend, seed: u64, steps: usize) -> Result<(), TestCaseError> {
    let mut sched = Schedule {
        rng: TestRng::from_seed(seed),
        next_seq: HashMap::new(),
        epoch: 0,
        originals: Vec::new(),
    };
    let mut store = Store::open(backend);
    let check_from = if sched.pick(2) == 0 {
        0
    } else {
        sched.pick(steps)
    };
    for i in 0..steps {
        // Steps that need a digest before acting take it themselves; the
        // lazy-build cases start on plain publishes until `check_from`.
        if i < check_from {
            if sched.epoch == 0 || sched.pick(4) > 0 {
                sched.epoch += 1;
            }
            let batch = sched.batch(sched.epoch);
            let _ = store.api().publish(Epoch::new(sched.epoch), batch);
            continue;
        }
        step(&mut store, &mut sched, seed);
        let want = page_walk(store.api());
        let got = store.api().digest().unwrap();
        prop_assert_eq!(got, want, "{:?} seed {} step {}", backend, seed, i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn in_memory_digest_matches_the_page_walk(seed in 0u64..u64::MAX) {
        let _serial = serial();
        run_schedule(Backend::Memory, seed, 30)?;
    }

    #[test]
    fn replicated_digest_matches_the_page_walk(seed in 0u64..u64::MAX) {
        let _serial = serial();
        run_schedule(Backend::Replicated, seed, 30)?;
    }

    #[test]
    fn durable_cached_digest_matches_the_page_walk(seed in 0u64..u64::MAX) {
        let _serial = serial();
        run_schedule(Backend::Durable, seed, 30)?;
    }
}

/// A digest is answered without paging: it never moves the fetch/page
/// counters, on the first (building) call or any later one.
#[test]
fn digest_reads_no_pages() {
    let _serial = serial();
    let dir = fresh_dir("counters");
    let durable = DurableStore::open(&dir).unwrap();
    let stores: Vec<Box<dyn UpdateStore>> = vec![
        Box::new(InMemoryStore::new()),
        Box::new(ReplicatedStore::new(4, 2).unwrap()),
        Box::new(durable),
    ];
    for store in &stores {
        for e in 1..=3u64 {
            let t = Transaction::new(
                TxnId::new(PeerId::new("P"), e),
                Epoch::zero(),
                vec![Update::insert("R", tuple![e as i64, 0i64])],
            );
            orchestra_fault::disarmed(|| store.publish(Epoch::new(e), vec![t])).unwrap();
        }
        let before = store.stats();
        let d = store.digest().unwrap();
        store.digest().unwrap();
        assert_eq!(d.len, 3);
        assert_eq!(d.relation_txns("P.R"), 3);
        assert_eq!(store.stats(), before);
    }
    drop(stores);
    let _ = fs::remove_dir_all(&dir);
}

/// Over the wire, a neighbor's digest is the served store's own.
#[test]
fn remote_digest_over_loopback_matches_the_served_store() {
    let _serial = serial();
    let dir = fresh_dir("remote");
    let durable = Arc::new(DurableStore::open(&dir).unwrap());
    let memory = Arc::new(InMemoryStore::new());
    let served: Vec<Arc<dyn UpdateStore>> = vec![memory, durable];
    for store in served {
        let server = PeerServer::bind("127.0.0.1:0", Arc::clone(&store)).unwrap();
        let remote = RemoteStore::connect(server.local_addr()).unwrap();
        let mut sched = Schedule {
            rng: TestRng::from_seed(7),
            next_seq: HashMap::new(),
            epoch: 0,
            originals: Vec::new(),
        };
        for e in 1..=6u64 {
            let batch = sched.batch(e);
            orchestra_fault::disarmed(|| remote.publish(Epoch::new(e), batch)).unwrap();
            assert_eq!(remote.digest().unwrap(), store.digest().unwrap());
        }
        orchestra_fault::disarmed(|| store.absorb(vec![sched.txn(2)])).unwrap();
        assert_eq!(remote.digest().unwrap(), store.digest().unwrap());
        assert_eq!(remote.digest().unwrap(), page_walk(&*store));
        server.shutdown();
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The one place the maintained digest and the old page walk disagree:
/// a replicated store whose holders are all dead still credits the
/// transaction's relations (the digest summarizes the metadata index),
/// where the walk saw only an unreachable position.
#[test]
fn replicated_digest_credits_relations_of_unreachable_payloads() {
    let s = ReplicatedStore::new(2, 1).unwrap();
    let txns: Vec<Transaction> = (1..=8u64)
        .map(|seq| {
            Transaction::new(
                TxnId::new(PeerId::new("P"), seq),
                Epoch::zero(),
                vec![Update::insert("R", tuple![seq as i64, 0i64])],
            )
        })
        .collect();
    orchestra_fault::disarmed(|| s.publish(Epoch::new(1), txns)).unwrap();
    let alive = s.digest().unwrap();
    s.take_node_down(0);
    assert!(s.availability() < 1.0, "some payloads now unreachable");
    let d = s.digest().unwrap();
    assert_eq!(d, alive, "liveness does not move the digest");
    assert_eq!(d.relation_txns("P.R"), 8);
    let walked = page_walk(&s);
    assert_eq!(walked.len, 8);
    assert!(walked.relation_txns("P.R") < 8);
}
