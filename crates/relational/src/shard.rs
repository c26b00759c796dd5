//! Hash-partitioned relation storage for the datalog engine.
//!
//! A [`ShardedRel`] splits one relation's tuples into a **fixed** number
//! of shards by a deterministic hash of the relation's *partition
//! columns* (its dominant join/index key, chosen by the engine from the
//! compiled join plans). Each shard owns
//!
//! * a **sequence-ordered** tuple table (`Vec` + position map): scan
//!   order is a pure function of the mutation sequence (appends go to
//!   the back; a removal swaps the last tuple into the hole), so two
//!   instances fed the same mutations iterate identically — unlike
//!   `HashMap` iteration with its per-instance seed — which is what
//!   lets two engines fed the same input replay byte-identically;
//! * its own secondary **probe tables** (fixed-width `[Sym]` key →
//!   posting list), maintained incrementally through inserts/removals
//!   exactly like the pre-sharding engine index.
//!
//! A probe whose bound columns **cover** the partition columns touches a
//! single shard (the common case — the partition columns *are* the most
//! probed key); any other probe fans out across shards in shard order.
//! Shard routing uses a seedless FNV-1a over the `u32` symbols, so two
//! engines fed the same interning sequence place every tuple identically.
//!
//! Everything a shard needs to absorb a write — the position map, the
//! sequence vector, and its index postings — lives **inside** the shard;
//! the relation level only keeps the registry of which column sets are
//! indexed. That split is what lets [`ShardedRel::shard_writers`] hand
//! out one disjoint `&mut` view per shard, so the engine's merge phase
//! can drain one sink per shard.

use crate::fxhash::FxHashMap;
use crate::intern::{Sym, SymTuple};

/// Default shard count for partitioned relations.
pub const DEFAULT_SHARDS: usize = 16;

/// One secondary index: fixed-width symbol key → posting list.
type SymIndex = FxHashMap<Box<[Sym]>, Vec<SymTuple>>;

/// Deterministic, seedless FNV-1a over symbol words.
#[inline]
fn fnv1a(syms: impl Iterator<Item = Sym>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in syms {
        h = (h ^ u64::from(s.0)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[derive(Debug, Clone)]
struct Shard<P> {
    /// Tuple → index into `order`.
    pos: FxHashMap<SymTuple, u32>,
    /// Live tuples with their payloads, in sequence order: appends at
    /// the back, removals swap the last tuple into the hole — the order
    /// is a pure function of the mutation sequence.
    order: Vec<(SymTuple, P)>,
    /// This shard's slice of every secondary index, parallel to the
    /// relation-level `index_cols` registry. Emptied buckets are dropped
    /// eagerly so churny delete/reinsert workloads cannot grow an index
    /// without bound.
    indexes: Vec<SymIndex>,
}

impl<P: Copy> Shard<P> {
    fn empty() -> Shard<P> {
        Shard {
            pos: FxHashMap::default(),
            order: Vec::new(),
            indexes: Vec::new(),
        }
    }

    /// The not-present arm of the inserts: index maintenance + append.
    fn insert_fresh(&mut self, index_cols: &[Box<[usize]>], t: SymTuple, payload: P) {
        for (slot, cols) in index_cols.iter().enumerate() {
            self.indexes[slot]
                .entry(key_of(&t, cols))
                .or_default()
                .push(t.clone());
        }
        // analyze: allow(panic) -- u32 per-shard capacity (4B tuples) is an accepted engine limit
        let p = u32::try_from(self.order.len()).expect("shard overflow");
        self.pos.insert(t.clone(), p);
        self.order.push((t, payload));
    }

    fn insert_if_absent(&mut self, index_cols: &[Box<[usize]>], t: SymTuple, payload: P) -> bool {
        if self.pos.contains_key(&t) {
            return false;
        }
        self.insert_fresh(index_cols, t, payload);
        true
    }

    fn remove(&mut self, index_cols: &[Box<[usize]>], t: &SymTuple) -> Option<P> {
        let p = self.pos.remove(t)? as usize;
        let (_, payload) = self.order.swap_remove(p);
        if let Some((moved, _)) = self.order.get(p) {
            // analyze: allow(panic) -- `order` and `pos` are mutated in lockstep; every stored tuple is indexed
            *self.pos.get_mut(moved).expect("moved tuple indexed") = p as u32;
        }
        for (slot, cols) in index_cols.iter().enumerate() {
            let idx = &mut self.indexes[slot];
            let key = key_of(t, cols);
            if let Some(list) = idx.get_mut(&key) {
                if let Some(i) = list.iter().position(|x| x == t) {
                    list.swap_remove(i);
                }
                if list.is_empty() {
                    idx.remove(&key);
                }
            }
        }
        Some(payload)
    }
}

fn key_of(t: &SymTuple, cols: &[usize]) -> Box<[Sym]> {
    cols.iter().map(|&c| t[c]).collect()
}

/// One relation, hash-partitioned into a fixed number of shards (see
/// module docs). `P` is the per-tuple payload (the engine stores the
/// tuple's provenance node id).
#[derive(Debug, Clone)]
pub struct ShardedRel<P> {
    /// Partition columns; empty ⇒ partition on the whole tuple.
    part_cols: Box<[usize]>,
    /// Registry of indexed column sets, in `ensure_index` order; each
    /// shard's `indexes` vector is parallel to this. A fan-out probe
    /// hashes `cols` once against `index_of`, not once per shard.
    index_cols: Vec<Box<[usize]>>,
    index_of: FxHashMap<Box<[usize]>, usize>,
    shards: Vec<Shard<P>>,
}

/// A disjoint mutable view of **one shard** of a relation, for the
/// engine's partitioned merge: the caller has already routed the tuple
/// (bucket `s` only ever receives tuples whose [`ShardedRel::shard_of`]
/// is `s`), so writes go straight to the shard without re-hashing the
/// partition columns and without touching any other shard.
#[derive(Debug)]
pub struct RelShardWriter<'a, P> {
    index_cols: &'a [Box<[usize]>],
    shard: &'a mut Shard<P>,
}

impl<P: Copy> RelShardWriter<'_, P> {
    /// Insert unless present (the present tuple keeps its payload).
    /// Returns `true` when the tuple was newly inserted. The tuple MUST
    /// route to this writer's shard.
    #[inline]
    pub fn insert_if_absent(&mut self, t: SymTuple, payload: P) -> bool {
        self.shard.insert_if_absent(self.index_cols, t, payload)
    }

    /// The payload stored with a tuple, if present in this shard.
    #[inline]
    pub fn get(&self, t: &SymTuple) -> Option<P> {
        let s = &*self.shard;
        s.pos.get(t).map(|&p| s.order[p as usize].1)
    }
}

impl<P: Copy> ShardedRel<P> {
    /// An empty relation with `shards` partitions, hash-split on
    /// `part_cols` (empty ⇒ the whole tuple).
    pub fn new(shards: usize, part_cols: Vec<usize>) -> ShardedRel<P> {
        let shards = shards.max(1);
        ShardedRel {
            part_cols: part_cols.into(),
            index_cols: Vec::new(),
            index_of: FxHashMap::default(),
            shards: (0..shards).map(|_| Shard::empty()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The partition columns (empty ⇒ whole tuple).
    pub fn part_cols(&self) -> &[usize] {
        &self.part_cols
    }

    /// The shard a tuple belongs to.
    #[inline]
    pub fn shard_of(&self, t: &SymTuple) -> usize {
        let h = if self.part_cols.is_empty() {
            fnv1a(t.syms().iter().copied())
        } else {
            fnv1a(self.part_cols.iter().map(|&c| t[c]))
        };
        (h as usize) % self.shards.len()
    }

    /// The shard that owns any tuple whose partition columns carry the
    /// symbols `key[positions[i]]` — `positions[i]` is the offset of the
    /// i-th partition column inside a probe key. Only meaningful when the
    /// probe covers the partition columns (the caller establishes that).
    #[inline]
    pub fn shard_for_key(&self, positions: &[usize], key: &[Sym]) -> usize {
        let h = fnv1a(positions.iter().map(|&p| key[p]));
        (h as usize) % self.shards.len()
    }

    /// Total live tuples across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.order.len()).sum()
    }

    /// True iff no shard holds a tuple.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.order.is_empty())
    }

    /// True iff the tuple is present.
    pub fn contains(&self, t: &SymTuple) -> bool {
        self.shards[self.shard_of(t)].pos.contains_key(t)
    }

    /// The payload stored with a tuple, if present.
    pub fn get(&self, t: &SymTuple) -> Option<P> {
        let s = &self.shards[self.shard_of(t)];
        s.pos.get(t).map(|&p| s.order[p as usize].1)
    }

    /// Like [`get`](ShardedRel::get) for a caller that already routed the
    /// tuple (`shard` MUST be [`shard_of`](ShardedRel::shard_of) of `t`):
    /// skips re-hashing the partition columns.
    pub fn get_in(&self, shard: usize, t: &SymTuple) -> Option<P> {
        let s = &self.shards[shard];
        s.pos.get(t).map(|&p| s.order[p as usize].1)
    }

    /// Insert a tuple with its payload (idempotent: re-inserting updates
    /// the payload without duplicating index entries).
    pub fn insert(&mut self, t: SymTuple, payload: P) {
        let si = self.shard_of(&t);
        let shard = &mut self.shards[si];
        if let Some(&p) = shard.pos.get(&t) {
            shard.order[p as usize].1 = payload;
            return;
        }
        shard.insert_fresh(&self.index_cols, t, payload);
    }

    /// Insert unless present (the present tuple keeps its payload).
    /// Returns `true` when the tuple was newly inserted — one shard
    /// routing and one membership probe, where a `contains` + `insert`
    /// pair would pay both twice (the engine's merge-phase hot path).
    pub fn insert_if_absent(&mut self, t: SymTuple, payload: P) -> bool {
        let si = self.shard_of(&t);
        self.shards[si].insert_if_absent(&self.index_cols, t, payload)
    }

    /// Remove a tuple, returning its payload if it was present.
    pub fn remove(&mut self, t: &SymTuple) -> Option<P> {
        let si = self.shard_of(t);
        self.shards[si].remove(&self.index_cols, t)
    }

    /// Build the secondary index on `cols` (per shard) if missing.
    /// Returns `true` when the index was newly built.
    pub fn ensure_index(&mut self, cols: &[usize]) -> bool {
        if self.index_of.contains_key(cols) {
            return false;
        }
        let slot = self.index_cols.len();
        self.index_cols.push(Box::from(cols));
        self.index_of.insert(Box::from(cols), slot);
        for s in &mut self.shards {
            let mut idx = SymIndex::default();
            for (t, _) in &s.order {
                idx.entry(key_of(t, cols)).or_default().push(t.clone());
            }
            debug_assert_eq!(s.indexes.len(), slot);
            s.indexes.push(idx);
        }
        true
    }

    /// Probe one shard's index. Missing index or key ⇒ empty. The result
    /// borrows only the relation (`'s`), not the probe key, so callers can
    /// reuse their key buffer while iterating the posting list.
    #[inline]
    pub fn probe_shard<'s>(&'s self, shard: usize, cols: &[usize], key: &[Sym]) -> &'s [SymTuple] {
        self.index_of
            .get(cols)
            .and_then(|&slot| self.shards[shard].indexes[slot].get(key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Probe every shard's index in shard order, appending the non-empty
    /// posting lists to `out` (used when the probe's bound columns do not
    /// cover the partition columns, so no single shard can answer). The
    /// column set is hashed once; only the per-shard key lookups repeat.
    pub fn probe_slices_into<'s>(
        &'s self,
        cols: &[usize],
        key: &[Sym],
        out: &mut Vec<&'s [SymTuple]>,
    ) {
        let Some(&slot) = self.index_of.get(cols) else {
            return;
        };
        for s in &self.shards {
            if let Some(list) = s.indexes[slot].get(key) {
                if !list.is_empty() {
                    out.push(list.as_slice());
                }
            }
        }
    }

    /// One disjoint mutable writer per shard, in shard order. Each writer
    /// can absorb routed inserts independently of every other shard, which
    /// is what the engine's partitioned merge fans out over. Writers are
    /// built lazily, so skipping one costs nothing.
    pub fn shard_writers(&mut self) -> impl Iterator<Item = RelShardWriter<'_, P>> {
        let index_cols = &self.index_cols;
        self.shards
            .iter_mut()
            .map(move |shard| RelShardWriter { index_cols, shard })
    }

    /// Iterate all live tuples in shard-major sequence order (**not**
    /// insertion order once anything was removed — removal swaps the
    /// last tuple into the hole). Given the same mutation sequence, two
    /// instances iterate identically — the determinism the engine's
    /// replay rests on.
    pub fn iter(&self) -> impl Iterator<Item = (&SymTuple, &P)> {
        self.shards
            .iter()
            .flat_map(|s| s.order.iter().map(|(t, p)| (t, p)))
    }

    /// Iterate all live tuples (without payloads) in shard-major
    /// sequence order (see [`iter`](Self::iter)).
    pub fn iter_tuples(&self) -> impl Iterator<Item = &SymTuple> {
        self.shards
            .iter()
            .flat_map(|s| s.order.iter().map(|(t, _)| t))
    }

    /// Iterate one shard's live tuples in sequence order (see
    /// [`iter`](Self::iter)).
    pub fn iter_shard(&self, shard: usize) -> impl Iterator<Item = (&SymTuple, &P)> {
        self.shards[shard].order.iter().map(|(t, p)| (t, p))
    }

    /// Number of live buckets across all shards' indexes (introspection
    /// hook for the empty-bucket leak regression test).
    pub fn index_buckets(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.indexes.iter())
            .map(FxHashMap::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::ValueInterner;
    use crate::value::Value;

    fn st(i: &mut ValueInterner, vals: &[i64]) -> SymTuple {
        let t: crate::Tuple = vals.iter().map(|&v| Value::Int(v)).collect();
        i.intern_tuple(&t)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut i = ValueInterner::new();
        let mut r: ShardedRel<u32> = ShardedRel::new(4, vec![0]);
        let a = st(&mut i, &[1, 10]);
        let b = st(&mut i, &[2, 20]);
        r.insert(a.clone(), 7);
        r.insert(b.clone(), 8);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&a));
        assert_eq!(r.get(&a), Some(7));
        assert_eq!(r.remove(&a), Some(7));
        assert_eq!(r.remove(&a), None);
        assert!(!r.contains(&a));
        assert_eq!(r.get(&b), Some(8));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn reinsert_updates_payload_without_index_duplicates() {
        let mut i = ValueInterner::new();
        let mut r: ShardedRel<u32> = ShardedRel::new(4, vec![0]);
        let a = st(&mut i, &[1, 10]);
        r.ensure_index(&[0]);
        r.insert(a.clone(), 1);
        r.insert(a.clone(), 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(&a), Some(2));
        let s = r.shard_of(&a);
        let key = [a[0]];
        assert_eq!(r.probe_shard(s, &[0], &key).len(), 1);
    }

    #[test]
    fn covering_probe_hits_single_shard() {
        let mut i = ValueInterner::new();
        let mut r: ShardedRel<u32> = ShardedRel::new(8, vec![0]);
        for k in 0..50i64 {
            let t = st(&mut i, &[k, k * 2]);
            r.insert(t, k as u32);
        }
        r.ensure_index(&[0]);
        for k in 0..50i64 {
            let t = st(&mut i, &[k, k * 2]);
            let key = [t[0]];
            // Partition col 0 sits at position 0 of the probe key.
            let shard = r.shard_for_key(&[0], &key);
            assert_eq!(shard, r.shard_of(&t));
            let hits = r.probe_shard(shard, &[0], &key);
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0], t);
        }
    }

    #[test]
    fn non_covering_probe_fans_out() {
        let mut i = ValueInterner::new();
        let mut r: ShardedRel<u32> = ShardedRel::new(8, vec![0]);
        // Many keys, same second column.
        let common = 99i64;
        for k in 0..40i64 {
            r.insert(st(&mut i, &[k, common]), 0);
        }
        r.insert(st(&mut i, &[1000, 7]), 0);
        r.ensure_index(&[1]);
        let c = st(&mut i, &[0, common]);
        let key = [c[1]];
        let mut slices: Vec<&[SymTuple]> = Vec::new();
        r.probe_slices_into(&[1], &key, &mut slices);
        let hits: usize = slices.iter().map(|s| s.len()).sum();
        assert_eq!(hits, 40);
    }

    #[test]
    fn iteration_is_shard_major_sequence_order_and_deterministic() {
        let mut i = ValueInterner::new();
        let build = |i: &mut ValueInterner| {
            let mut r: ShardedRel<u32> = ShardedRel::new(4, vec![0]);
            for k in 0..30i64 {
                r.insert(st(i, &[k, 0]), k as u32);
            }
            r.remove(&st(i, &[7, 0]));
            r.remove(&st(i, &[23, 0]));
            r.insert(st(i, &[7, 0]), 77);
            r
        };
        let a = build(&mut i);
        let b = build(&mut i);
        let seq_a: Vec<(SymTuple, u32)> = a.iter().map(|(t, p)| (t.clone(), *p)).collect();
        let seq_b: Vec<(SymTuple, u32)> = b.iter().map(|(t, p)| (t.clone(), *p)).collect();
        assert_eq!(seq_a, seq_b, "same mutations ⇒ same iteration order");
        assert_eq!(a.len(), 29);
    }

    #[test]
    fn per_shard_iteration_covers_everything_once() {
        let mut i = ValueInterner::new();
        let mut r: ShardedRel<u32> = ShardedRel::new(4, vec![0]);
        for k in 0..25i64 {
            r.insert(st(&mut i, &[k, 1]), 0);
        }
        let total: usize = (0..r.shard_count()).map(|s| r.iter_shard(s).count()).sum();
        assert_eq!(total, 25);
        assert_eq!(r.iter().count(), 25);
    }

    #[test]
    fn removal_drops_empty_index_buckets() {
        let mut i = ValueInterner::new();
        let mut r: ShardedRel<u32> = ShardedRel::new(2, vec![0]);
        r.ensure_index(&[0]);
        for k in 0..20i64 {
            r.insert(st(&mut i, &[k, 0]), 0);
        }
        for k in 0..20i64 {
            r.remove(&st(&mut i, &[k, 0]));
        }
        assert_eq!(r.index_buckets(), 0, "no leaked empty buckets");
        assert!(r.is_empty());
    }

    #[test]
    fn whole_tuple_partition_when_no_part_cols() {
        let mut i = ValueInterner::new();
        let mut r: ShardedRel<u32> = ShardedRel::new(4, vec![]);
        for k in 0..10i64 {
            r.insert(st(&mut i, &[k]), 0);
        }
        assert_eq!(r.len(), 10);
        let spread: usize = (0..4).filter(|&s| r.iter_shard(s).count() > 0).count();
        assert!(spread >= 2, "tuples spread across shards");
    }

    #[test]
    fn ensure_index_reports_first_build_only() {
        let mut r: ShardedRel<u32> = ShardedRel::new(2, vec![0]);
        assert!(r.ensure_index(&[1]));
        assert!(!r.ensure_index(&[1]));
        assert!(r.ensure_index(&[0, 1]));
    }

    #[test]
    fn shard_writers_route_free_inserts_match_routed_inserts() {
        let mut i = ValueInterner::new();
        let mut routed: ShardedRel<u32> = ShardedRel::new(4, vec![0]);
        let mut written: ShardedRel<u32> = ShardedRel::new(4, vec![0]);
        routed.ensure_index(&[0]);
        written.ensure_index(&[0]);
        let tuples: Vec<SymTuple> = (0..40i64).map(|k| st(&mut i, &[k, k + 1])).collect();
        for (k, t) in tuples.iter().enumerate() {
            routed.insert_if_absent(t.clone(), k as u32);
        }
        // Pre-route, then write through per-shard writers.
        let mut buckets: Vec<Vec<(SymTuple, u32)>> = vec![Vec::new(); 4];
        for (k, t) in tuples.iter().enumerate() {
            buckets[written.shard_of(t)].push((t.clone(), k as u32));
        }
        let mut writers: Vec<_> = written.shard_writers().collect();
        for (s, bucket) in buckets.into_iter().enumerate() {
            for (t, p) in bucket {
                assert!(writers[s].insert_if_absent(t.clone(), p));
                assert!(!writers[s].insert_if_absent(t.clone(), p), "idempotent");
                assert_eq!(writers[s].get(&t), Some(p));
            }
        }
        drop(writers);
        let a: Vec<(SymTuple, u32)> = routed.iter().map(|(t, p)| (t.clone(), *p)).collect();
        let b: Vec<(SymTuple, u32)> = written.iter().map(|(t, p)| (t.clone(), *p)).collect();
        assert_eq!(a, b, "writer path is byte-identical to routed inserts");
        assert_eq!(routed.index_buckets(), written.index_buckets());
    }
}
