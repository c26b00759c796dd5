//! The centralized in-memory archive.

use crate::api::{AbsorbReport, AtomicStats, FetchCursor, FetchPage, StoreDigest, StoreStats};
use crate::archive::Archive;
use crate::UpdateStore;
use orchestra_updates::{Epoch, Transaction, TxnId};
use parking_lot::RwLock;

/// A centralized, always-available archive — the reference implementation
/// and the store used by most tests and examples.
#[derive(Debug, Default)]
pub struct InMemoryStore {
    archive: RwLock<Archive<()>>,
    stats: AtomicStats,
}

impl InMemoryStore {
    /// An empty archive.
    pub fn new() -> Self {
        InMemoryStore::default()
    }
}

impl UpdateStore for InMemoryStore {
    fn publish(&self, epoch: Epoch, mut txns: Vec<Transaction>) -> crate::Result<()> {
        if txns.is_empty() {
            return Ok(()); // Vacuous: nothing a cursor could miss.
        }
        let mut archive = self.archive.write();
        archive.check_publish(epoch, &mut txns, |_| false)?;
        let n = archive.append(epoch, txns.into_iter().map(|t| (t, ())));
        self.stats.published.add(n);
        Ok(())
    }

    fn fetch_page(&self, cursor: &FetchCursor, limit: usize) -> crate::Result<FetchPage> {
        let page = self.archive.read().page(cursor, limit, |_| true);
        self.stats.fetched.add(page.txns.len() as u64);
        self.stats.pages.add(1);
        Ok(page)
    }

    fn fetch(&self, id: &TxnId) -> crate::Result<Option<Transaction>> {
        let got = self.archive.read().get(id).map(|e| e.txn.clone());
        if got.is_some() {
            self.stats.fetched.add(1);
        }
        Ok(got)
    }

    fn len(&self) -> usize {
        self.archive.read().len()
    }

    fn latest_epoch(&self) -> Option<Epoch> {
        self.archive.read().latest_epoch()
    }

    fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    fn digest(&self) -> crate::Result<StoreDigest> {
        if let Some(d) = self.archive.read().cached_digest() {
            return Ok(d.clone());
        }
        Ok(self.archive.write().digest().clone())
    }

    fn absorb(&self, txns: Vec<Transaction>) -> crate::Result<AbsorbReport> {
        // Keep the epoch the publisher stamped: an anti-entropy merge
        // preserves the global (epoch, id) order even when it arrives out
        // of epoch order.
        let mut archive = self.archive.write();
        let mut report = AbsorbReport::default();
        let (groups, _) = archive.absorb_groups(txns, |_| false, &mut report);
        for (epoch, batch) in groups {
            archive.append(epoch, batch.into_iter().map(|t| (t, ())));
        }
        self.stats.published.add(report.absorbed);
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
    fn in_batch_duplicate_rejected() {
        let s = InMemoryStore::new();
        let err = s.publish(Epoch::new(1), vec![txn("A", 1), txn("A", 1)]);
        assert!(matches!(err, Err(StoreError::DuplicateTxn(_))));
        assert_eq!(s.len(), 0, "nothing archived");
        assert!(since(&s, Epoch::zero()).is_empty());
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
