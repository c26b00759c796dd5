//! The archive index every backend shares.
//!
//! An [`Archive`] lists archived positions in `(epoch, txn id)` order,
//! keeps the payloads by id and maintains the archive's
//! [`StoreDigest`]. The three backends hold one behind their lock and
//! differ only in `M`, the record of where a payload lives: `()` in RAM,
//! the holder nodes of the simulated DHT, the WAL frame of the durable
//! store. A position can be listed without a payload (the durable store
//! evicts the payload of a corrupt frame and keeps its position); pages
//! report such a position unavailable.

#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

use crate::api::{AbsorbReport, CursorBound, FetchCursor, FetchPage, StoreDigest, StoreError};
use orchestra_updates::{Epoch, Transaction, TxnId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One archived payload and where its backend keeps it.
#[derive(Debug)]
pub(crate) struct Entry<M> {
    pub txn: Transaction,
    pub meta: M,
}

/// The index, payloads and digest of one archive. See the [module
/// docs](self).
#[derive(Debug, Default)]
pub(crate) struct Archive<M> {
    /// Epoch → txn ids, each epoch's list kept sorted (the page order is
    /// `(epoch, id)`).
    by_epoch: BTreeMap<Epoch, Vec<TxnId>>,
    by_id: HashMap<TxnId, Entry<M>>,
    /// Positions listed in `by_epoch`, with or without a payload.
    listed: usize,
    /// The maintained digest: built by the first [`Archive::digest`]
    /// call, then folded forward by every append and heal; dropped by an
    /// eviction. Never built at open.
    digest: Option<StoreDigest>,
}

impl<M> Archive<M> {
    /// Archived positions, payloads missing or not.
    pub fn len(&self) -> usize {
        self.listed
    }

    /// The newest archived epoch.
    pub fn latest_epoch(&self) -> Option<Epoch> {
        self.by_epoch.keys().next_back().copied()
    }

    /// The payload archived under `id`, if it has one.
    pub fn get(&self, id: &TxnId) -> Option<&Entry<M>> {
        self.by_id.get(id)
    }

    /// Every payload, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry<M>> {
        self.by_id.values()
    }

    /// Check a publish batch and stamp it with `epoch`. The whole batch
    /// is refused when an id is archived, `also_listed` (a position the
    /// backend lists without a payload) or repeated within the batch, or
    /// when `epoch` is behind the newest archived epoch: cursors already
    /// past it would never see the batch. Appending *into* the newest
    /// epoch stays allowed, so a cursor parked mid-way through it can
    /// miss late arrivals sorting below it; the CDSS logical clock uses a
    /// fresh epoch per batch.
    pub fn check_publish(
        &self,
        epoch: Epoch,
        txns: &mut [Transaction],
        also_listed: impl Fn(&TxnId) -> bool,
    ) -> crate::Result<()> {
        let mut seen = HashSet::new();
        for t in txns.iter() {
            if self.by_id.contains_key(&t.id) || also_listed(&t.id) || !seen.insert(&t.id) {
                return Err(StoreError::DuplicateTxn(t.id.to_string()));
            }
        }
        if let Some(latest) = self.latest_epoch().filter(|&latest| epoch < latest) {
            return Err(StoreError::StaleEpoch {
                epoch: epoch.value(),
                latest: latest.value(),
            });
        }
        for t in txns {
            t.epoch = epoch;
        }
        Ok(())
    }

    /// Archive payloads and list their positions under `epoch`. The first
    /// copy of an id wins: a failed-fsync retry can land one batch in two
    /// WAL frames, and recovery must list the position once or pages
    /// would serve it twice. Returns how many were new.
    pub fn append(
        &mut self,
        epoch: Epoch,
        entries: impl IntoIterator<Item = (Transaction, M)>,
    ) -> u64 {
        let entries = entries.into_iter();
        let mut ids = Vec::with_capacity(entries.size_hint().0);
        for (txn, meta) in entries {
            if let std::collections::hash_map::Entry::Vacant(slot) =
                self.by_id.entry(txn.id.clone())
            {
                if let Some(d) = &mut self.digest {
                    d.observe(&txn);
                }
                ids.push(txn.id.clone());
                slot.insert(Entry { txn, meta });
            }
        }
        self.listed += ids.len();
        let new = ids.len() as u64;
        index_epoch_ids(&mut self.by_epoch, epoch, ids);
        new
    }

    /// Split an anti-entropy batch. Transactions new to the archive come
    /// back grouped by the epoch their publisher stamped (counted
    /// `absorbed`); ids archived or repeated within the batch are dropped
    /// (counted `duplicates`); ids `also_listed` come back apart, for the
    /// backend to judge (a durable heal).
    pub fn absorb_groups(
        &self,
        txns: Vec<Transaction>,
        also_listed: impl Fn(&TxnId) -> bool,
        report: &mut AbsorbReport,
    ) -> (BTreeMap<Epoch, Vec<Transaction>>, Vec<Transaction>) {
        let mut groups: BTreeMap<Epoch, Vec<Transaction>> = BTreeMap::new();
        let mut listed = Vec::new();
        let mut seen = HashSet::new();
        for t in txns {
            if self.by_id.contains_key(&t.id) || !seen.insert(t.id.clone()) {
                report.duplicates += 1;
            } else if also_listed(&t.id) {
                listed.push(t);
            } else {
                report.absorbed += 1;
                groups.entry(t.epoch).or_default().push(t);
            }
        }
        (groups, listed)
    }

    /// One page from `cursor`, scanning at most `limit` positions
    /// (clamped to at least 1). A payload `reach` accepts is cloned into
    /// the page; a position without a payload, or whose payload `reach`
    /// refuses, is reported unavailable. `reach` runs before the clone,
    /// so a miss never pays for one.
    pub fn page(
        &self,
        cursor: &FetchCursor,
        limit: usize,
        mut reach: impl FnMut(&M) -> bool,
    ) -> FetchPage {
        let limit = limit.max(1);
        let mut page = FetchPage::default();
        let mut last = None;
        for (&epoch, ids) in self.by_epoch.range(cursor.epoch()..) {
            // Each epoch's ids are sorted, so the cursor bound is a
            // binary search, not a scan.
            let skip = match cursor.bound() {
                _ if epoch != cursor.epoch() => 0,
                CursorBound::Start => 0,
                CursorBound::At(id) => ids.partition_point(|x| x < id),
                CursorBound::After(id) => ids.partition_point(|x| x <= id),
            };
            for id in ids.iter().skip(skip) {
                if page.scanned() == limit {
                    // A position lies beyond the page: resume after the
                    // last one scanned.
                    page.next_cursor =
                        last.map(|(e, id): (Epoch, &TxnId)| FetchCursor::after_txn(e, id.clone()));
                    return page;
                }
                match self.by_id.get(id) {
                    Some(e) if reach(&e.meta) => page.txns.push(e.txn.clone()),
                    _ => page.unavailable.push((epoch, id.clone())),
                }
                last = Some((epoch, id));
            }
        }
        page
    }

    /// The maintained digest, if one has been built.
    pub fn cached_digest(&self) -> Option<&StoreDigest> {
        self.digest.as_ref()
    }

    /// The digest, built on first use by one walk of the index in page
    /// order: a position without a payload counts toward `len`,
    /// `latest_epoch` and its source mark but credits no relation.
    pub fn digest(&mut self) -> &StoreDigest {
        let Archive {
            by_epoch,
            by_id,
            digest,
            ..
        } = self;
        digest.get_or_insert_with(|| {
            let mut d = StoreDigest::default();
            for (&epoch, ids) in by_epoch.iter() {
                for id in ids {
                    match by_id.get(id) {
                        Some(e) => d.observe(&e.txn),
                        None => d.observe_position(epoch, id),
                    }
                }
            }
            d
        })
    }

    /// Drop the payloads whose metadata `hit` selects and keep their
    /// positions listed, returning those positions. They stop crediting
    /// their relations, so the digest is dropped for the next call to
    /// rebuild.
    pub fn evict(&mut self, mut hit: impl FnMut(&M) -> bool) -> Vec<(Epoch, TxnId)> {
        let mut evicted = Vec::new();
        self.by_id.retain(|id, e| {
            let keep = !hit(&e.meta);
            if !keep {
                // Every writer stamps a payload with the epoch it is
                // listed under.
                evicted.push((e.txn.epoch, id.clone()));
            }
            keep
        });
        if !evicted.is_empty() {
            self.digest = None;
        }
        evicted
    }

    /// Restore the payload of a position listed without one.
    pub fn heal(&mut self, txn: Transaction, meta: M) {
        if let Some(d) = &mut self.digest {
            d.observe_relations(&txn);
        }
        self.by_id.insert(txn.id.clone(), Entry { txn, meta });
    }
}

/// List a batch's ids under `epoch`, keeping each epoch's list sorted
/// for [`Archive::page`]'s binary search.
fn index_epoch_ids(by_epoch: &mut BTreeMap<Epoch, Vec<TxnId>>, epoch: Epoch, mut ids: Vec<TxnId>) {
    // Nothing new (recovery replaying a batch a failed fsync left in two
    // frames): no empty epoch entry.
    if ids.is_empty() {
        return;
    }
    ids.sort_unstable();
    let list = by_epoch.entry(epoch).or_default();
    let interleaved =
        matches!((list.last(), ids.first()), (Some(last), Some(first)) if last > first);
    list.extend(ids);
    if interleaved {
        // The stable sort finds the two sorted runs and merges them
        // linearly instead of re-sorting what was already in place.
        list.sort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::tuple;
    use orchestra_updates::{PeerId, Update};

    fn id(peer: &str, seq: u64) -> TxnId {
        TxnId::new(PeerId::new(peer), seq)
    }

    fn txn(peer: &str, seq: u64, epoch: u64) -> Transaction {
        Transaction::new(
            id(peer, seq),
            Epoch::new(epoch),
            vec![Update::insert("R", tuple![seq as i64])],
        )
    }

    /// Every payload from the start, in page order.
    fn all(a: &Archive<()>) -> Vec<Transaction> {
        a.page(&FetchCursor::at_epoch(Epoch::zero()), usize::MAX, |_| true)
            .txns
    }

    fn sample_index() -> BTreeMap<Epoch, Vec<TxnId>> {
        let mut m = BTreeMap::new();
        m.insert(Epoch::new(1), vec![id("A", 1), id("B", 1)]);
        m.insert(Epoch::new(3), vec![id("A", 2), id("A", 3), id("C", 1)]);
        m
    }

    /// An archive listing `sample_index`'s positions.
    fn sample() -> Archive<()> {
        let mut a = Archive::default();
        for (epoch, ids) in sample_index() {
            a.append(
                epoch,
                ids.into_iter()
                    .map(|id| (Transaction::new(id, epoch, vec![]), ())),
            );
        }
        a
    }

    /// One page's positions and follow-up cursor.
    fn collect_page(
        a: &Archive<()>,
        cursor: &FetchCursor,
        limit: usize,
    ) -> (Vec<(Epoch, TxnId)>, Option<FetchCursor>) {
        let page = a.page(cursor, limit, |_| true);
        let positions = page.txns.into_iter().map(|t| (t.epoch, t.id)).collect();
        (positions, page.next_cursor)
    }

    #[test]
    fn collect_page_walks_in_order() {
        let m = sample();
        let (p1, c1) = collect_page(&m, &FetchCursor::at_epoch(Epoch::zero()), 2);
        assert_eq!(
            p1,
            vec![(Epoch::new(1), id("A", 1)), (Epoch::new(1), id("B", 1))]
        );
        let (p2, c2) = collect_page(&m, &c1.unwrap(), 2);
        assert_eq!(
            p2,
            vec![(Epoch::new(3), id("A", 2)), (Epoch::new(3), id("A", 3))]
        );
        let (p3, c3) = collect_page(&m, &c2.unwrap(), 2);
        assert_eq!(p3, vec![(Epoch::new(3), id("C", 1))]);
        assert!(c3.is_none());
    }

    #[test]
    fn collect_page_exact_boundary_peeks_ahead() {
        let m = sample();
        // Limit lands exactly on the final position: no follow-up cursor.
        let (all, next) = collect_page(&m, &FetchCursor::at_epoch(Epoch::zero()), 5);
        assert_eq!(all.len(), 5);
        assert!(next.is_none());
    }

    #[test]
    fn collect_page_cursor_bounds() {
        let m = sample();
        let (at, _) = collect_page(&m, &FetchCursor::at_txn(Epoch::new(3), id("A", 3)), 10);
        assert_eq!(
            at,
            vec![(Epoch::new(3), id("A", 3)), (Epoch::new(3), id("C", 1))]
        );
        let (after, _) = collect_page(&m, &FetchCursor::after_txn(Epoch::new(3), id("A", 3)), 10);
        assert_eq!(after, vec![(Epoch::new(3), id("C", 1))]);
        let (since, _) = collect_page(&m, &FetchCursor::after_epoch(Epoch::new(1)), 10);
        assert_eq!(since.len(), 3);
        let (empty, next) = collect_page(&m, &FetchCursor::at_epoch(Epoch::new(9)), 10);
        assert!(empty.is_empty());
        assert!(next.is_none());
    }

    #[test]
    fn collect_page_zero_limit_clamps_to_one() {
        let m = sample();
        let (p, next) = collect_page(&m, &FetchCursor::at_epoch(Epoch::zero()), 0);
        assert_eq!(p.len(), 1);
        assert!(next.is_some());
    }

    #[test]
    fn index_epoch_ids_merges_interleaved_appends() {
        let mut m: BTreeMap<Epoch, Vec<TxnId>> = BTreeMap::new();
        let e = Epoch::new(1);
        index_epoch_ids(&mut m, e, vec![id("M", 1), id("D", 1)]);
        assert_eq!(m[&e], vec![id("D", 1), id("M", 1)]);
        // Second append interleaves below and above the existing run.
        index_epoch_ids(&mut m, e, vec![id("Z", 1), id("A", 1), id("G", 1)]);
        assert_eq!(
            m[&e],
            vec![id("A", 1), id("D", 1), id("G", 1), id("M", 1), id("Z", 1)]
        );
        // Append entirely above the run: fast path, no merge needed.
        index_epoch_ids(&mut m, e, vec![id("ZZ", 1)]);
        assert_eq!(m[&e].len(), 6);
        assert!(m[&e].windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn index_epoch_ids_ignores_an_empty_batch() {
        let mut m = sample_index();
        index_epoch_ids(&mut m, Epoch::new(3), vec![]);
        index_epoch_ids(&mut m, Epoch::new(9), vec![]);
        assert_eq!(m, sample_index(), "no merge, no empty epoch entry");
    }

    #[test]
    fn batch_id_check_catches_in_batch_duplicates() {
        let mut a: Archive<()> = Archive::default();
        let e = Epoch::new(1);
        assert!(a
            .check_publish(e, &mut [txn("A", 1, 0), txn("A", 2, 0)], |_| false)
            .is_ok());
        assert!(matches!(
            a.check_publish(e, &mut [txn("A", 1, 0), txn("A", 1, 0)], |_| false),
            Err(StoreError::DuplicateTxn(_))
        ));
        assert!(matches!(
            a.check_publish(e, &mut [txn("A", 1, 0)], |_| true),
            Err(StoreError::DuplicateTxn(_))
        ));
        a.append(e, [(txn("A", 1, 1), ())]);
        assert!(matches!(
            a.check_publish(e, &mut [txn("A", 1, 0)], |_| false),
            Err(StoreError::DuplicateTxn(_))
        ));
    }

    #[test]
    fn absorb_merges_out_of_order_epochs_and_dedups() {
        let mut a: Archive<()> = Archive::default();
        a.append(Epoch::new(5), [(txn("A", 1, 5), ())]);
        // A gossip pull carrying older history plus an overlap.
        let (old, newer) = (txn("B", 1, 2), txn("B", 2, 7));
        let mut report = AbsorbReport::default();
        let batch = vec![old.clone(), txn("A", 1, 5), newer, old.clone()];
        let (groups, listed) = a.absorb_groups(batch, |_| false, &mut report);
        assert!(listed.is_empty());
        assert_eq!((report.absorbed, report.duplicates), (2, 2));
        for (epoch, batch) in groups {
            a.append(epoch, batch.into_iter().map(|t| (t, ())));
        }
        assert_eq!(a.len(), 3);
        // The merged archive scans in global (epoch, id) order.
        let order: Vec<u64> = all(&a).iter().map(|t| t.epoch.value()).collect();
        assert_eq!(order, vec![2, 5, 7]);
        assert_eq!(all(&a)[0].id, old.id);
        // Publishing stays epoch-monotone after a backfill.
        assert!(matches!(
            a.check_publish(Epoch::new(3), &mut [txn("C", 1, 0)], |_| false),
            Err(StoreError::StaleEpoch { .. })
        ));
    }

    #[test]
    fn digest_summarizes_sources_and_relations() {
        let mut a: Archive<()> = Archive::default();
        a.append(Epoch::new(1), [(txn("A", 1, 1), ()), (txn("B", 1, 1), ())]);
        a.append(Epoch::new(3), [(txn("A", 2, 3), ())]);
        let d = a.digest().clone();
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
        // An evicted payload keeps its position but credits no relation.
        assert_eq!(a.evict(|_| true).len(), 3);
        assert!(a.cached_digest().is_none(), "eviction drops the digest");
        let d = a.digest().clone();
        assert_eq!((d.len, d.relation_txns("A.R")), (3, 0));
        let page = a.page(&FetchCursor::at_epoch(Epoch::zero()), 10, |_| true);
        assert_eq!((page.txns.len(), page.unavailable.len()), (0, 3));
    }
}
