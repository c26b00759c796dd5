//! The centralized in-memory archive.

use crate::api::{
    check_batch_ids, check_epoch_monotone, collect_page, index_epoch_ids, AtomicStats,
};
use crate::api::{AbsorbReport, FetchCursor, FetchPage, StoreDigest, StoreStats, UpdateStore};
use orchestra_updates::{Epoch, Transaction, TxnId};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Default)]
struct Inner {
    /// Epoch → txn ids, each epoch's list kept sorted (the paged scan
    /// order is `(epoch, id)`).
    by_epoch: BTreeMap<Epoch, Vec<TxnId>>,
    by_id: HashMap<TxnId, Transaction>,
    /// The maintained digest: built by the first `digest()` call, then
    /// folded forward by `publish` and `absorb`.
    digest: Option<StoreDigest>,
}

/// A centralized, always-available archive — the reference implementation
/// and the store used by most tests and examples.
#[derive(Debug, Default)]
pub struct InMemoryStore {
    inner: RwLock<Inner>,
    stats: AtomicStats,
}

impl InMemoryStore {
    /// An empty archive.
    pub fn new() -> Self {
        InMemoryStore::default()
    }
}

impl UpdateStore for InMemoryStore {
    fn publish(&self, epoch: Epoch, txns: Vec<Transaction>) -> crate::Result<()> {
        if txns.is_empty() {
            return Ok(()); // Vacuous: nothing a cursor could miss.
        }
        let mut inner = self.inner.write();
        check_batch_ids(&txns, |id| inner.by_id.contains_key(id))?;
        check_epoch_monotone(epoch, inner.by_epoch.keys().next_back().copied())?;
        let n = txns.len() as u64;
        let mut ids = Vec::with_capacity(txns.len());
        for mut t in txns {
            t.epoch = epoch;
            if let Some(d) = &mut inner.digest {
                d.observe(&t);
            }
            ids.push(t.id.clone());
            inner.by_id.insert(t.id.clone(), t);
        }
        index_epoch_ids(&mut inner.by_epoch, epoch, ids);
        self.stats.add_published(n);
        Ok(())
    }

    fn fetch_page(&self, cursor: &FetchCursor, limit: usize) -> crate::Result<FetchPage> {
        let inner = self.inner.read();
        let (positions, next_cursor) = collect_page(&inner.by_epoch, cursor, limit);
        let txns: Vec<Transaction> = positions
            .iter()
            .map(|(_, id)| inner.by_id[id].clone())
            .collect();
        self.stats.add_fetched(txns.len() as u64);
        self.stats.add_pages(1);
        Ok(FetchPage {
            txns,
            unavailable: Vec::new(),
            next_cursor,
        })
    }

    fn fetch(&self, id: &TxnId) -> crate::Result<Option<Transaction>> {
        let inner = self.inner.read();
        let got = inner.by_id.get(id).cloned();
        if got.is_some() {
            self.stats.add_fetched(1);
        }
        Ok(got)
    }

    fn len(&self) -> usize {
        self.inner.read().by_id.len()
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
        let Inner { by_id, digest, .. } = &mut *inner;
        let d = digest.get_or_insert_with(|| {
            let mut d = StoreDigest::default();
            for t in by_id.values() {
                d.observe(t);
            }
            d
        });
        Ok(d.clone())
    }

    fn absorb(&self, txns: Vec<Transaction>) -> crate::Result<AbsorbReport> {
        let mut inner = self.inner.write();
        let Inner {
            by_epoch,
            by_id,
            digest,
        } = &mut *inner;
        let mut report = AbsorbReport::default();
        let mut per_epoch: BTreeMap<Epoch, Vec<TxnId>> = BTreeMap::new();
        for t in txns {
            // Keep the epoch the publisher stamped — an anti-entropy
            // merge preserves the global (epoch, id) order even when it
            // arrives out of epoch order.
            match by_id.entry(t.id.clone()) {
                std::collections::hash_map::Entry::Occupied(_) => report.duplicates += 1,
                std::collections::hash_map::Entry::Vacant(v) => {
                    per_epoch.entry(t.epoch).or_default().push(t.id.clone());
                    if let Some(d) = digest {
                        d.observe(&t);
                    }
                    v.insert(t);
                    report.absorbed += 1;
                }
            }
        }
        for (epoch, ids) in per_epoch {
            index_epoch_ids(by_epoch, epoch, ids);
        }
        self.stats.add_published(report.absorbed);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::StoreError;
    use orchestra_relational::tuple;
    use orchestra_updates::{PeerId, Update};

    fn txn(peer: &str, seq: u64) -> Transaction {
        Transaction::new(
            TxnId::new(PeerId::new(peer), seq),
            Epoch::zero(),
            vec![Update::insert("R", tuple![seq as i64])],
        )
    }

    /// Every transaction archived after `since`, through the paged read
    /// path (an in-memory store reaches every payload).
    fn since(s: &InMemoryStore, since: Epoch) -> Vec<Transaction> {
        crate::api::pages(
            s,
            FetchCursor::after_epoch(since),
            crate::DEFAULT_PAGE_LIMIT,
        )
        .flat_map(|p| p.unwrap().txns)
        .collect()
    }

    #[test]
    fn publish_and_fetch_after_epoch() {
        let s = InMemoryStore::new();
        s.publish(Epoch::new(1), vec![txn("A", 1), txn("B", 1)])
            .unwrap();
        s.publish(Epoch::new(2), vec![txn("A", 2)]).unwrap();
        let all = since(&s, Epoch::zero());
        assert_eq!(all.len(), 3);
        // Epochs stamp onto transactions.
        assert!(all.iter().all(|t| t.epoch >= Epoch::new(1)));
        let recent = since(&s, Epoch::new(1));
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].id, TxnId::new(PeerId::new("A"), 2));
    }

    #[test]
    fn fetch_order_is_deterministic() {
        let s = InMemoryStore::new();
        s.publish(Epoch::new(1), vec![txn("B", 1), txn("A", 1)])
            .unwrap();
        let all = since(&s, Epoch::zero());
        assert_eq!(all[0].id.peer.name(), "A");
        assert_eq!(all[1].id.peer.name(), "B");
    }

    #[test]
    fn duplicate_rejected_atomically() {
        let s = InMemoryStore::new();
        s.publish(Epoch::new(1), vec![txn("A", 1)]).unwrap();
        let err = s.publish(Epoch::new(2), vec![txn("C", 1), txn("A", 1)]);
        assert!(matches!(err, Err(StoreError::DuplicateTxn(_))));
        // The batch failed atomically: C#1 was not archived.
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn in_batch_duplicate_rejected() {
        let s = InMemoryStore::new();
        let err = s.publish(Epoch::new(1), vec![txn("A", 1), txn("A", 1)]);
        assert!(matches!(err, Err(StoreError::DuplicateTxn(_))));
        assert_eq!(s.len(), 0, "nothing archived");
        assert!(since(&s, Epoch::zero()).is_empty());
    }

    #[test]
    fn fetch_by_id() {
        let s = InMemoryStore::new();
        s.publish(Epoch::new(1), vec![txn("A", 1)]).unwrap();
        let got = s.fetch(&TxnId::new(PeerId::new("A"), 1)).unwrap();
        assert!(got.is_some());
        assert!(s.fetch(&TxnId::new(PeerId::new("Z"), 9)).unwrap().is_none());
    }

    #[test]
    fn latest_epoch_and_len() {
        let s = InMemoryStore::new();
        assert!(s.is_empty());
        assert_eq!(s.latest_epoch(), None);
        s.publish(Epoch::new(3), vec![txn("A", 1)]).unwrap();
        s.publish(Epoch::new(5), vec![txn("A", 2)]).unwrap();
        assert_eq!(s.latest_epoch(), Some(Epoch::new(5)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn stats_count() {
        let s = InMemoryStore::new();
        s.publish(Epoch::new(1), vec![txn("A", 1), txn("A", 2)])
            .unwrap();
        since(&s, Epoch::zero());
        let st = s.stats();
        assert_eq!(st.published, 2);
        assert_eq!(st.fetched, 2);
        assert!(st.pages >= 1, "paged scan counted");
    }

    #[test]
    fn empty_fetch() {
        let s = InMemoryStore::new();
        assert!(since(&s, Epoch::zero()).is_empty());
    }

    #[test]
    fn digest_summarizes_sources_and_relations() {
        let s = InMemoryStore::new();
        s.publish(Epoch::new(1), vec![txn("A", 1), txn("B", 1)])
            .unwrap();
        s.publish(Epoch::new(3), vec![txn("A", 2)]).unwrap();
        let d = s.digest().unwrap();
        assert_eq!(d.len, 3);
        assert_eq!(d.latest_epoch, Some(Epoch::new(3)));
        assert_eq!(d.source_hw("A"), 2);
        assert_eq!(d.source_hw("B"), 1);
        assert_eq!(d.source_hw("Z"), 0);
        assert_eq!(d.relation_txns("A.R"), 2);
        assert_eq!(d.relation_txns("B.R"), 1);
        assert_eq!(
            d.relations["A.R"].latest_epoch,
            Some(Epoch::new(3)),
            "relation epoch tracks the newest touch"
        );
    }

    #[test]
    fn absorb_merges_out_of_order_epochs_and_dedups() {
        let s = InMemoryStore::new();
        s.publish(Epoch::new(5), vec![txn("A", 1)]).unwrap();
        // A gossip pull carrying older history plus an overlap.
        let mut old = txn("B", 1);
        old.epoch = Epoch::new(2);
        let mut dup = txn("A", 1);
        dup.epoch = Epoch::new(5);
        let mut newer = txn("B", 2);
        newer.epoch = Epoch::new(7);
        let r = s
            .absorb(vec![old.clone(), dup, newer.clone(), old.clone()])
            .unwrap();
        assert_eq!(r.absorbed, 2);
        assert_eq!(r.duplicates, 2);
        assert_eq!(s.len(), 3);
        // The merged archive scans in global (epoch, id) order.
        let all = since(&s, Epoch::zero());
        let order: Vec<u64> = all.iter().map(|t| t.epoch.value()).collect();
        assert_eq!(order, vec![2, 5, 7]);
        assert_eq!(all[0].id, old.id);
        // publish stays epoch-monotone even after an absorb backfill.
        assert!(matches!(
            s.publish(Epoch::new(3), vec![txn("C", 1)]),
            Err(StoreError::StaleEpoch { .. })
        ));
    }

    #[test]
    fn fetch_page_walks_the_archive() {
        let s = InMemoryStore::new();
        s.publish(Epoch::new(1), vec![txn("B", 1), txn("A", 1)])
            .unwrap();
        s.publish(Epoch::new(2), vec![txn("A", 2)]).unwrap();
        let p1 = s
            .fetch_page(&FetchCursor::at_epoch(Epoch::zero()), 2)
            .unwrap();
        assert_eq!(p1.txns.len(), 2);
        assert_eq!(p1.txns[0].id.peer.name(), "A");
        assert!(p1.unavailable.is_empty());
        let p2 = s.fetch_page(&p1.next_cursor.unwrap(), 2).unwrap();
        assert_eq!(p2.txns.len(), 1);
        assert!(p2.next_cursor.is_none());
    }
}
