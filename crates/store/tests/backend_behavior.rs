//! The `UpdateStore` contract, run identically against every backend.
//!
//! Whatever holds for the reference [`InMemoryStore`] must hold for the
//! simulated DHT (with every node up) and for the durable archive —
//! publishing, epoch-filtered fetches, deterministic order, atomic
//! duplicate rejection, and counters.

use orchestra_relational::tuple;
use orchestra_store::{
    DurableStore, FetchCursor, InMemoryStore, ReplicatedStore, StoreError, UpdateStore,
    DEFAULT_PAGE_LIMIT,
};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn txn(peer: &str, seq: u64) -> Transaction {
    Transaction::new(
        TxnId::new(PeerId::new(peer), seq),
        Epoch::zero(),
        vec![Update::insert("R", tuple![seq as i64])],
    )
}

fn fresh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "orchestra-behavior-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Backend {
    name: &'static str,
    store: Box<dyn UpdateStore>,
    dir: Option<PathBuf>,
}

impl Drop for Backend {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One fresh store per backend flavor.
fn backends() -> Vec<Backend> {
    let durable_dir = fresh_dir();
    vec![
        Backend {
            name: "memory",
            store: Box::new(InMemoryStore::new()),
            dir: None,
        },
        Backend {
            name: "replicated",
            store: Box::new(ReplicatedStore::new(16, 3).unwrap()),
            dir: None,
        },
        Backend {
            name: "durable",
            store: Box::new(DurableStore::open(&durable_dir).unwrap()),
            dir: Some(durable_dir),
        },
    ]
}

#[test]
fn publish_and_fetch_after_epoch() {
    for b in backends() {
        let s = &*b.store;
        orchestra_fault::disarmed(|| s.publish(Epoch::new(1), vec![txn("A", 1), txn("B", 1)]))
            .unwrap();
        orchestra_fault::disarmed(|| s.publish(Epoch::new(2), vec![txn("A", 2)])).unwrap();
        let all = all_since(s, Epoch::zero());
        assert_eq!(all.len(), 3, "{}", b.name);
        assert!(
            all.iter().all(|t| t.epoch >= Epoch::new(1)),
            "{}: epochs stamp onto transactions",
            b.name
        );
        let recent = all_since(s, Epoch::new(1));
        assert_eq!(recent.len(), 1, "{}", b.name);
        assert_eq!(recent[0].id, TxnId::new(PeerId::new("A"), 2), "{}", b.name);
    }
}

#[test]
fn fetch_order_is_deterministic() {
    for b in backends() {
        let s = &*b.store;
        orchestra_fault::disarmed(|| s.publish(Epoch::new(1), vec![txn("B", 1), txn("A", 1)]))
            .unwrap();
        orchestra_fault::disarmed(|| s.publish(Epoch::new(2), vec![txn("C", 1)])).unwrap();
        let all = all_since(s, Epoch::zero());
        let names: Vec<&str> = all.iter().map(|t| t.id.peer.name()).collect();
        assert_eq!(names, ["A", "B", "C"], "{}: (epoch, id) order", b.name);
    }
}

#[test]
fn duplicate_rejected_atomically() {
    for b in backends() {
        let s = &*b.store;
        orchestra_fault::disarmed(|| s.publish(Epoch::new(1), vec![txn("A", 1)])).unwrap();
        let err = s.publish(Epoch::new(2), vec![txn("C", 1), txn("A", 1)]);
        assert!(
            matches!(err, Err(StoreError::DuplicateTxn(_))),
            "{}",
            b.name
        );
        assert_eq!(s.len(), 1, "{}: batch failed atomically", b.name);
    }
}

#[test]
fn fetch_by_id() {
    for b in backends() {
        let s = &*b.store;
        orchestra_fault::disarmed(|| s.publish(Epoch::new(1), vec![txn("A", 1)])).unwrap();
        let got = s.fetch(&TxnId::new(PeerId::new("A"), 1)).unwrap();
        assert!(got.is_some(), "{}", b.name);
        assert!(
            s.fetch(&TxnId::new(PeerId::new("Z"), 9)).unwrap().is_none(),
            "{}",
            b.name
        );
    }
}

#[test]
fn latest_epoch_and_len() {
    for b in backends() {
        let s = &*b.store;
        assert!(s.is_empty(), "{}", b.name);
        assert_eq!(s.latest_epoch(), None, "{}", b.name);
        orchestra_fault::disarmed(|| s.publish(Epoch::new(3), vec![txn("A", 1)])).unwrap();
        orchestra_fault::disarmed(|| s.publish(Epoch::new(5), vec![txn("A", 2)])).unwrap();
        assert_eq!(s.latest_epoch(), Some(Epoch::new(5)), "{}", b.name);
        assert_eq!(s.len(), 2, "{}", b.name);
    }
}

#[test]
fn stats_count() {
    for b in backends() {
        let s = &*b.store;
        orchestra_fault::disarmed(|| s.publish(Epoch::new(1), vec![txn("A", 1), txn("A", 2)]))
            .unwrap();
        all_since(s, Epoch::zero());
        let st = s.stats();
        assert_eq!(st.published, 2, "{}", b.name);
        assert_eq!(st.fetched, 2, "{}", b.name);
        assert!(st.pages >= 1, "{}: paged scan counted", b.name);
    }
}

#[test]
fn empty_fetch() {
    for b in backends() {
        assert!(all_since(&*b.store, Epoch::zero()).is_empty(), "{}", b.name);
    }
}

/// Drain the archive through `fetch_page` with the given limit,
/// returning the concatenated transactions and the page count.
fn drain_pages(
    s: &dyn UpdateStore,
    since: Epoch,
    limit: usize,
) -> (Vec<orchestra_updates::Transaction>, usize) {
    let mut out = Vec::new();
    let mut pages = 0usize;
    for page in orchestra_store::pages(s, FetchCursor::after_epoch(since), limit) {
        let page = page.unwrap();
        assert!(page.scanned() <= limit.max(1), "page respects the limit");
        assert!(page.unavailable.is_empty(), "all nodes up: no gaps");
        out.extend(page.txns);
        pages += 1;
    }
    (out, pages)
}

/// Every transaction archived after `since`, in default-size pages.
fn all_since(s: &dyn UpdateStore, since: Epoch) -> Vec<Transaction> {
    drain_pages(s, since, DEFAULT_PAGE_LIMIT).0
}

/// Seed a store with an awkward shape: uneven epochs, interleaved peers,
/// publish order different from id order.
fn seed_pages(s: &dyn UpdateStore) {
    orchestra_fault::disarmed(|| {
        s.publish(Epoch::new(1), vec![txn("B", 1), txn("A", 1), txn("C", 1)])
    })
    .unwrap();
    orchestra_fault::disarmed(|| s.publish(Epoch::new(2), vec![txn("A", 2)])).unwrap();
    orchestra_fault::disarmed(|| s.publish(Epoch::new(4), (3..9).map(|i| txn("A", i)).collect()))
        .unwrap();
    orchestra_fault::disarmed(|| s.publish(Epoch::new(7), vec![txn("C", 2), txn("B", 2)])).unwrap();
}

#[test]
fn paged_fetch_matches_one_shot_fetch_at_every_page_size() {
    for b in backends() {
        let s = &*b.store;
        seed_pages(s);
        // One default-size page holds the whole seed.
        let one_shot = all_since(s, Epoch::zero());
        assert_eq!(one_shot.len(), 12, "{}", b.name);
        for limit in [1usize, 2, 3, 5, 7, 12, 100] {
            let (paged, pages) = drain_pages(s, Epoch::zero(), limit);
            assert_eq!(paged, one_shot, "{}: limit {limit}", b.name);
            assert_eq!(
                pages,
                12usize.div_ceil(limit),
                "{}: limit {limit} page count",
                b.name
            );
        }
        // Epoch-filtered paging matches at any page size too.
        let late = all_since(s, Epoch::new(2));
        let (paged_late, _) = drain_pages(s, Epoch::new(2), 4);
        assert_eq!(paged_late, late, "{}", b.name);
        assert!(s.stats().pages > 0, "{}: pages counted", b.name);
    }
}

#[test]
fn page_boundaries_are_deterministic() {
    for b in backends() {
        let s = &*b.store;
        seed_pages(s);
        // The same walk twice produces identical pages and cursors.
        let walk = || {
            let mut cursors = Vec::new();
            let mut cursor = FetchCursor::after_epoch(Epoch::zero());
            loop {
                let page = s.fetch_page(&cursor, 5).unwrap();
                cursors.push(format!("{cursor}"));
                match page.next_cursor {
                    Some(c) => cursor = c,
                    None => break,
                }
            }
            cursors
        };
        assert_eq!(walk(), walk(), "{}", b.name);
    }
}

#[test]
fn pages_are_stable_across_interleaved_publishes() {
    // A cursor taken mid-walk stays valid when new epochs land before the
    // next page is fetched: positions already scanned never change.
    for b in backends() {
        let s = &*b.store;
        orchestra_fault::disarmed(|| s.publish(Epoch::new(1), vec![txn("A", 1), txn("A", 2)]))
            .unwrap();
        let p1 = s
            .fetch_page(&FetchCursor::after_epoch(Epoch::zero()), 1)
            .unwrap();
        assert_eq!(p1.txns.len(), 1, "{}", b.name);
        orchestra_fault::disarmed(|| s.publish(Epoch::new(2), vec![txn("B", 1)])).unwrap();
        let rest: Vec<_> = orchestra_store::pages(s, p1.next_cursor.unwrap(), 10)
            .flat_map(|p| p.unwrap().txns)
            .collect();
        let ids: Vec<String> = rest.iter().map(|t| t.id.to_string()).collect();
        assert_eq!(ids, ["A#2", "B#1"], "{}", b.name);
    }
}

#[test]
fn in_batch_duplicate_rejected_atomically() {
    for b in backends() {
        let s = &*b.store;
        let err = s.publish(Epoch::new(1), vec![txn("A", 1), txn("B", 1), txn("A", 1)]);
        assert!(
            matches!(err, Err(StoreError::DuplicateTxn(_))),
            "{}: in-batch duplicate must be rejected",
            b.name
        );
        assert_eq!(s.len(), 0, "{}: nothing archived", b.name);
        assert!(
            all_since(s, Epoch::zero()).is_empty(),
            "{}: no double-indexed ghost entries",
            b.name
        );
        // The same id can then be published cleanly exactly once.
        orchestra_fault::disarmed(|| s.publish(Epoch::new(1), vec![txn("A", 1)])).unwrap();
        assert_eq!(all_since(s, Epoch::zero()).len(), 1, "{}", b.name);
    }
}

#[test]
fn stale_epoch_publish_rejected() {
    // Publishing behind the newest archived epoch would plant history that
    // advanced cursors can never see; every backend rejects it. Appending
    // into the newest epoch stays allowed.
    for b in backends() {
        let s = &*b.store;
        orchestra_fault::disarmed(|| s.publish(Epoch::new(5), vec![txn("A", 1)])).unwrap();
        let err = s.publish(Epoch::new(3), vec![txn("B", 1)]);
        assert!(
            matches!(
                err,
                Err(StoreError::StaleEpoch {
                    epoch: 3,
                    latest: 5
                })
            ),
            "{}",
            b.name
        );
        assert_eq!(s.len(), 1, "{}: stale batch not archived", b.name);
        orchestra_fault::disarmed(|| s.publish(Epoch::new(5), vec![txn("B", 1)])).unwrap();
        orchestra_fault::disarmed(|| s.publish(Epoch::new(6), vec![txn("C", 1)])).unwrap();
        assert_eq!(all_since(s, Epoch::zero()).len(), 3, "{}", b.name);
        // An empty batch is a vacuous no-op at any epoch: nothing a
        // cursor could miss, so no staleness to enforce.
        orchestra_fault::disarmed(|| s.publish(Epoch::new(1), vec![])).unwrap();
    }
}

#[test]
fn updates_and_antecedents_survive_the_store() {
    // Full payload fidelity: modify/delete updates and antecedent sets
    // come back exactly as published, from every backend.
    for b in backends() {
        let s = &*b.store;
        let rich = Transaction::new(
            TxnId::new(PeerId::new("A"), 1),
            Epoch::zero(),
            vec![
                Update::insert("R", tuple![1, "a"]),
                Update::modify("R", tuple![1, "a"], tuple![1, "b"]),
                Update::delete("S", tuple![2.5, false]),
            ],
        )
        .with_antecedents([TxnId::new(PeerId::new("B"), 3)]);
        orchestra_fault::disarmed(|| s.publish(Epoch::new(1), vec![rich.clone()])).unwrap();
        let got = s.fetch(&rich.id).unwrap().unwrap();
        assert_eq!(got.updates, rich.updates, "{}", b.name);
        assert_eq!(got.antecedents, rich.antecedents, "{}", b.name);
    }
}
