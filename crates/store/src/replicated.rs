//! The simulated peer-to-peer replicated store.
//!
//! `N` virtual storage nodes sit on a consistent-hash ring. A transaction's
//! payload is written to the first `R` **alive** nodes clockwise from its
//! hash point at publish time. Nodes can later be taken offline; a fetch
//! probes the holders recorded at publish time and succeeds if any is
//! alive. The epoch→ids metadata index is modeled as always available (in
//! a real DHT it would itself be replicated; the experiments measure
//! *payload* availability, which is where replication factor and churn
//! interact).

use crate::api::{AtomicStats, FetchCursor, FetchPage, StoreDigest, StoreError, StoreStats};
use crate::archive::Archive;
use crate::UpdateStore;
use orchestra_updates::{Epoch, Transaction, TxnId};
use parking_lot::RwLock;

/// FNV-1a over the id string — deterministic ring placement, no RNG.
fn ring_hash(id: &TxnId) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.to_string().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[derive(Debug)]
struct Inner {
    nodes_alive: Vec<bool>,
    /// Each payload's metadata is the storage nodes holding it. The
    /// digest summarizes the index, so holder liveness never changes it.
    archive: Archive<Vec<usize>>,
}

/// The simulated DHT store.
#[derive(Debug)]
pub struct ReplicatedStore {
    num_nodes: usize,
    replication: usize,
    inner: RwLock<Inner>,
    stats: AtomicStats,
}

impl ReplicatedStore {
    /// Create a store over `num_nodes` virtual nodes with replication
    /// factor `replication` (clamped to `num_nodes`).
    pub fn new(num_nodes: usize, replication: usize) -> crate::Result<Self> {
        if num_nodes == 0 {
            return Err(StoreError::InvalidConfig(
                "store needs at least one node".into(),
            ));
        }
        if replication == 0 {
            return Err(StoreError::InvalidConfig(
                "replication factor must be at least 1".into(),
            ));
        }
        Ok(ReplicatedStore {
            num_nodes,
            replication: replication.min(num_nodes),
            inner: RwLock::new(Inner {
                nodes_alive: vec![true; num_nodes],
                archive: Archive::default(),
            }),
            stats: AtomicStats::default(),
        })
    }

    /// Number of virtual storage nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Take a storage node offline (subsequent fetches cannot probe it).
    pub fn take_node_down(&self, node: usize) {
        if let Some(slot) = self.inner.write().nodes_alive.get_mut(node) {
            *slot = false;
        }
    }

    /// Bring a storage node back online.
    pub fn bring_node_up(&self, node: usize) {
        if let Some(slot) = self.inner.write().nodes_alive.get_mut(node) {
            *slot = true;
        }
    }

    /// Number of alive nodes.
    pub fn alive_nodes(&self) -> usize {
        self.inner.read().nodes_alive.iter().filter(|&&a| a).count()
    }

    /// The storage nodes recorded as holding a transaction's payload at
    /// publish time, if archived. Introspection for tests, experiments,
    /// and operators staging targeted churn.
    pub fn holders(&self, id: &TxnId) -> Option<Vec<usize>> {
        self.inner.read().archive.get(id).map(|e| e.meta.clone())
    }

    /// Fraction of archived transactions whose payload is currently
    /// reachable (≥1 alive holder).
    pub fn availability(&self) -> f64 {
        let inner = self.inner.read();
        if inner.archive.len() == 0 {
            return 1.0;
        }
        let reachable = inner
            .archive
            .entries()
            .filter(|e| e.meta.iter().any(|&h| inner.nodes_alive[h]))
            .count();
        reachable as f64 / inner.archive.len() as f64
    }

    /// The holders chosen for a given id: first `replication` alive nodes
    /// clockwise from the hash point (at publish time).
    fn choose_holders(&self, alive: &[bool], id: &TxnId) -> Vec<usize> {
        let start = (ring_hash(id) % self.num_nodes as u64) as usize;
        let mut holders = Vec::with_capacity(self.replication);
        for off in 0..self.num_nodes {
            let node = (start + off) % self.num_nodes;
            if alive[node] {
                holders.push(node);
                if holders.len() == self.replication {
                    break;
                }
            }
        }
        holders
    }

    /// Probe a payload's holders in order until an alive one answers,
    /// counting each probe; false when every holder is down.
    fn probe(alive: &[bool], holders: &[usize], probes: &mut u64) -> bool {
        for &h in holders {
            *probes += 1;
            if alive[h] {
                return true;
            }
        }
        false
    }
}

impl UpdateStore for ReplicatedStore {
    fn publish(&self, epoch: Epoch, mut txns: Vec<Transaction>) -> crate::Result<()> {
        if txns.is_empty() {
            return Ok(()); // Vacuous: nothing a cursor could miss.
        }
        let mut inner = self.inner.write();
        inner.archive.check_publish(epoch, &mut txns, |_| false)?;
        // Choose every replica set up front so the batch is atomic: if any
        // transaction has no alive node to land on, nothing is archived —
        // a publish that "succeeds" with zero holders would archive a
        // payload that is permanently unreachable.
        let mut placements: Vec<Vec<usize>> = Vec::with_capacity(txns.len());
        let mut degraded = 0u64;
        for t in &txns {
            let holders = self.choose_holders(&inner.nodes_alive, &t.id);
            if holders.is_empty() {
                return Err(StoreError::Unavailable {
                    txn: t.id.to_string(),
                });
            }
            if holders.len() < self.replication {
                degraded += 1;
            }
            placements.push(holders);
        }
        let probes = placements.iter().map(|h| h.len() as u64).sum();
        let n = inner
            .archive
            .append(epoch, txns.into_iter().zip(placements));
        self.stats.probes.add(probes);
        self.stats.published.add(n);
        self.stats.degraded.add(degraded);
        Ok(())
    }

    fn fetch_page(&self, cursor: &FetchCursor, limit: usize) -> crate::Result<FetchPage> {
        let inner = self.inner.read();
        let mut probes = 0u64;
        let page = inner.archive.page(cursor, limit, |holders| {
            ReplicatedStore::probe(&inner.nodes_alive, holders, &mut probes)
        });
        self.stats.probes.add(probes);
        self.stats.fetched.add(page.txns.len() as u64);
        self.stats.misses.add(page.unavailable.len() as u64);
        self.stats.unavailable.add(page.unavailable.len() as u64);
        self.stats.pages.add(1);
        Ok(page)
    }

    fn fetch(&self, id: &TxnId) -> crate::Result<Option<Transaction>> {
        let inner = self.inner.read();
        let Some(e) = inner.archive.get(id) else {
            return Ok(None);
        };
        let mut probes = 0u64;
        let found = ReplicatedStore::probe(&inner.nodes_alive, &e.meta, &mut probes);
        self.stats.probes.add(probes);
        if found {
            self.stats.fetched.add(1);
            Ok(Some(e.txn.clone()))
        } else {
            self.stats.misses.add(1);
            Err(StoreError::Unavailable {
                txn: id.to_string(),
            })
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::tuple;
    use orchestra_updates::{PeerId, Update};

    fn txn(peer: &str, seq: u64) -> Transaction {
        Transaction::new(
            TxnId::new(PeerId::new(peer), seq),
            Epoch::zero(),
            vec![Update::insert("R", tuple![seq as i64])],
        )
    }

    /// Walk every page after `since`: the reachable payloads and the
    /// unreachable positions.
    fn walk(s: &ReplicatedStore, since: Epoch) -> (Vec<Transaction>, Vec<(Epoch, TxnId)>) {
        let (mut txns, mut gaps) = (Vec::new(), Vec::new());
        for page in crate::api::pages(
            s,
            FetchCursor::after_epoch(since),
            crate::DEFAULT_PAGE_LIMIT,
        ) {
            let page = page.unwrap();
            txns.extend(page.txns);
            gaps.extend(page.unavailable);
        }
        (txns, gaps)
    }

    /// Every transaction archived after `since`; all must be reachable.
    fn all_since(s: &ReplicatedStore, since: Epoch) -> Vec<Transaction> {
        let (txns, gaps) = walk(s, since);
        assert!(gaps.is_empty(), "unreachable: {gaps:?}");
        txns
    }

    #[test]
    fn config_validation() {
        assert!(ReplicatedStore::new(0, 1).is_err());
        assert!(ReplicatedStore::new(4, 0).is_err());
        let s = ReplicatedStore::new(4, 10).unwrap();
        assert_eq!(s.replication(), 4, "replication clamped to node count");
    }

    #[test]
    fn publish_fetch_roundtrip() {
        let s = ReplicatedStore::new(8, 3).unwrap();
        s.publish(Epoch::new(1), (0..10).map(|i| txn("A", i)).collect())
            .unwrap();
        let all = all_since(&s, Epoch::zero());
        assert_eq!(all.len(), 10);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn survives_churn_within_replication_factor() {
        let s = ReplicatedStore::new(10, 3).unwrap();
        s.publish(Epoch::new(1), (0..50).map(|i| txn("B", i)).collect())
            .unwrap();
        // Take down 2 nodes (< replication factor): everything reachable.
        s.take_node_down(0);
        s.take_node_down(5);
        assert_eq!(s.alive_nodes(), 8);
        let all = all_since(&s, Epoch::zero());
        assert_eq!(all.len(), 50);
        assert_eq!(s.availability(), 1.0);
    }

    #[test]
    fn unreplicated_store_loses_data_on_churn() {
        let s = ReplicatedStore::new(4, 1).unwrap();
        s.publish(Epoch::new(1), (0..40).map(|i| txn("C", i)).collect())
            .unwrap();
        for n in 0..2 {
            s.take_node_down(n);
        }
        // With R=1 and half the nodes down, some payloads are gone.
        assert!(s.availability() < 1.0);
        assert!(!walk(&s, Epoch::zero()).1.is_empty());
        assert!(s.stats().misses > 0);
        assert!(s.stats().unavailable > 0);
    }

    #[test]
    fn paged_fetch_skips_gaps_instead_of_failing() {
        let s = ReplicatedStore::new(4, 1).unwrap();
        s.publish(Epoch::new(1), (0..40).map(|i| txn("C", i)).collect())
            .unwrap();
        for n in 0..2 {
            s.take_node_down(n);
        }
        // The paged fetch makes partial progress past the gaps.
        let (mut reachable, mut lost) = (0usize, 0usize);
        for page in crate::api::pages(&s, FetchCursor::after_epoch(Epoch::zero()), 7) {
            let page = page.unwrap();
            reachable += page.txns.len();
            lost += page.unavailable.len();
        }
        assert_eq!(reachable + lost, 40, "every position is scanned");
        assert!(reachable > 0 && lost > 0);
        // Recovery: the frozen position becomes fetchable again.
        let (_, first_lost) = crate::api::pages(&s, FetchCursor::after_epoch(Epoch::zero()), 7)
            .find_map(|p| p.unwrap().unavailable.first().cloned())
            .expect("gap exists");
        for n in 0..2 {
            s.bring_node_up(n);
        }
        let retry = s
            .fetch_page(&FetchCursor::at_txn(Epoch::new(1), first_lost.clone()), 1)
            .unwrap();
        assert_eq!(retry.txns.len(), 1);
        assert_eq!(retry.txns[0].id, first_lost);
    }

    #[test]
    fn node_recovery_restores_availability() {
        let s = ReplicatedStore::new(4, 1).unwrap();
        s.publish(Epoch::new(1), (0..40).map(|i| txn("D", i)).collect())
            .unwrap();
        for n in 0..4 {
            s.take_node_down(n);
        }
        assert_eq!(s.availability(), 0.0);
        for n in 0..4 {
            s.bring_node_up(n);
        }
        assert_eq!(s.availability(), 1.0);
        assert_eq!(all_since(&s, Epoch::zero()).len(), 40);
    }

    #[test]
    fn origin_peer_offline_is_irrelevant() {
        // Scenario 5's property: the *publisher* going away does not matter;
        // only storage nodes do. Publishing then never touching the
        // publisher again still lets others fetch.
        let s = ReplicatedStore::new(8, 2).unwrap();
        s.publish(Epoch::new(1), vec![txn("Beijing", 1), txn("Beijing", 2)])
            .unwrap();
        // (No "Beijing" node exists to take down — peers ≠ storage nodes.)
        let all = all_since(&s, Epoch::zero());
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn fetch_single_and_duplicate_rejection() {
        let s = ReplicatedStore::new(4, 2).unwrap();
        s.publish(Epoch::new(1), vec![txn("A", 1)]).unwrap();
        assert!(s.fetch(&TxnId::new(PeerId::new("A"), 1)).unwrap().is_some());
        assert!(s.fetch(&TxnId::new(PeerId::new("A"), 9)).unwrap().is_none());
        assert!(matches!(
            s.publish(Epoch::new(2), vec![txn("A", 1)]),
            Err(StoreError::DuplicateTxn(_))
        ));
        assert!(matches!(
            s.publish(Epoch::new(2), vec![txn("B", 1), txn("B", 1)]),
            Err(StoreError::DuplicateTxn(_))
        ));
        assert_eq!(s.len(), 1, "in-batch duplicate rejected atomically");
    }

    #[test]
    fn publish_routes_around_dead_nodes() {
        let s = ReplicatedStore::new(4, 2).unwrap();
        // Kill two nodes *before* publishing: replicas land on the alive two.
        s.take_node_down(0);
        s.take_node_down(1);
        s.publish(Epoch::new(1), (0..20).map(|i| txn("E", i)).collect())
            .unwrap();
        assert_eq!(s.availability(), 1.0);
        // Killing the remaining nodes loses everything.
        s.take_node_down(2);
        s.take_node_down(3);
        assert_eq!(s.availability(), 0.0);
        // Bringing back an originally-dead node does not help: it holds no
        // payloads.
        s.bring_node_up(0);
        assert_eq!(s.availability(), 0.0);
    }

    #[test]
    fn publish_with_zero_alive_nodes_fails_atomically() {
        let s = ReplicatedStore::new(4, 2).unwrap();
        for n in 0..4 {
            s.take_node_down(n);
        }
        let err = s.publish(Epoch::new(1), vec![txn("A", 1), txn("A", 2)]);
        assert!(matches!(err, Err(StoreError::Unavailable { .. })));
        assert_eq!(s.len(), 0, "nothing archived — no unreachable ghosts");
        assert_eq!(s.stats().published, 0);
        // With a node back, the same publish succeeds (degraded: 1 < 2).
        s.bring_node_up(0);
        s.publish(Epoch::new(1), vec![txn("A", 1), txn("A", 2)])
            .unwrap();
        assert_eq!(s.availability(), 1.0);
        assert_eq!(s.stats().degraded, 2, "both txns under-replicated");
    }

    #[test]
    fn degraded_counter_tracks_under_replication() {
        let s = ReplicatedStore::new(4, 3).unwrap();
        s.publish(Epoch::new(1), vec![txn("A", 1)]).unwrap();
        assert_eq!(s.stats().degraded, 0);
        s.take_node_down(0);
        s.take_node_down(1);
        // Only 2 alive < replication 3: every new publish is degraded.
        s.publish(Epoch::new(2), vec![txn("A", 2), txn("A", 3)])
            .unwrap();
        assert_eq!(s.stats().degraded, 2);
    }

    #[test]
    fn holders_are_recorded_at_publish_time() {
        let s = ReplicatedStore::new(8, 3).unwrap();
        s.publish(Epoch::new(1), vec![txn("A", 1)]).unwrap();
        let held = s.holders(&TxnId::new(PeerId::new("A"), 1)).unwrap();
        assert_eq!(held.len(), 3);
        assert!(s.holders(&TxnId::new(PeerId::new("Z"), 1)).is_none());
    }

    #[test]
    fn latest_epoch_and_probe_stats() {
        let s = ReplicatedStore::new(4, 2).unwrap();
        s.publish(Epoch::new(2), vec![txn("A", 1)]).unwrap();
        assert_eq!(s.latest_epoch(), Some(Epoch::new(2)));
        all_since(&s, Epoch::zero());
        let st = s.stats();
        assert!(st.probes >= 3, "publish probes + fetch probes");
        assert_eq!(st.fetched, 1);
    }

    #[test]
    fn ring_hash_is_deterministic() {
        let a = ring_hash(&TxnId::new(PeerId::new("A"), 1));
        let b = ring_hash(&TxnId::new(PeerId::new("A"), 1));
        let c = ring_hash(&TxnId::new(PeerId::new("A"), 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
