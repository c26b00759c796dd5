//! Relation storage for the datalog engine.
//!
//! A [`SymRel`] holds one relation's interned tuples with a per-tuple
//! payload:
//!
//! * a **sequence-ordered** tuple table (`Vec` + position map): scan
//!   order is a pure function of the mutation sequence (appends go to
//!   the back; a removal swaps the last tuple into the hole), so two
//!   instances fed the same mutations iterate identically — unlike
//!   `HashMap` iteration with its per-instance seed — which is what
//!   lets two engines fed the same input replay byte-identically;
//! * secondary **probe indexes** (fixed-width `[Sym]` key → posting
//!   list), one per probed column set, maintained incrementally through
//!   inserts and removals.

use crate::fxhash::FxHashMap;
use crate::intern::{Sym, SymTuple};

/// One secondary index: fixed-width symbol key → posting list.
type SymIndex = FxHashMap<Box<[Sym]>, Vec<SymTuple>>;

fn key_of(t: &SymTuple, cols: &[usize]) -> Box<[Sym]> {
    cols.iter().map(|&c| t[c]).collect()
}

/// One relation's tuples with their payloads and probe indexes (see
/// module docs). `P` is the per-tuple payload (the engine stores the
/// tuple's provenance node id).
#[derive(Debug, Clone)]
pub struct SymRel<P> {
    /// Tuple → index into `order`.
    pos: FxHashMap<SymTuple, u32>,
    /// Live tuples with their payloads, in sequence order.
    order: Vec<(SymTuple, P)>,
    /// Probed column set → its index. Emptied buckets are dropped eagerly
    /// so churny delete/reinsert workloads cannot grow an index without
    /// bound.
    indexes: FxHashMap<Box<[usize]>, SymIndex>,
}

impl<P> Default for SymRel<P> {
    fn default() -> Self {
        SymRel {
            pos: FxHashMap::default(),
            order: Vec::new(),
            indexes: FxHashMap::default(),
        }
    }
}

impl<P: Copy> SymRel<P> {
    /// An empty relation.
    pub fn new() -> SymRel<P> {
        SymRel::default()
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True iff no tuple is live.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// True iff the tuple is present.
    pub fn contains(&self, t: &SymTuple) -> bool {
        self.pos.contains_key(t)
    }

    /// The payload stored with a tuple, if present.
    pub fn get(&self, t: &SymTuple) -> Option<P> {
        self.pos.get(t).map(|&p| self.order[p as usize].1)
    }

    /// Insert a tuple with its payload (idempotent: re-inserting updates
    /// the payload without duplicating index entries).
    pub fn insert(&mut self, t: SymTuple, payload: P) {
        match self.pos.get(&t) {
            Some(&p) => self.order[p as usize].1 = payload,
            None => self.insert_fresh(t, payload),
        }
    }

    /// Insert unless present (the present tuple keeps its payload).
    /// Returns `true` when the tuple was newly inserted — one membership
    /// probe, where a `contains` + `insert` pair would pay two (the
    /// engine's merge-phase hot path).
    pub fn insert_if_absent(&mut self, t: SymTuple, payload: P) -> bool {
        if self.pos.contains_key(&t) {
            return false;
        }
        self.insert_fresh(t, payload);
        true
    }

    /// The not-present arm of the inserts: index maintenance + append.
    fn insert_fresh(&mut self, t: SymTuple, payload: P) {
        for (cols, idx) in &mut self.indexes {
            idx.entry(key_of(&t, cols)).or_default().push(t.clone());
        }
        // analyze: allow(panic) -- u32 capacity (4B tuples) per relation is an accepted engine limit
        let p = u32::try_from(self.order.len()).expect("relation overflow");
        self.pos.insert(t.clone(), p);
        self.order.push((t, payload));
    }

    /// Remove a tuple, returning its payload if it was present.
    pub fn remove(&mut self, t: &SymTuple) -> Option<P> {
        let p = self.pos.remove(t)? as usize;
        let (_, payload) = self.order.swap_remove(p);
        if let Some((moved, _)) = self.order.get(p) {
            // analyze: allow(panic) -- `order` and `pos` are mutated in lockstep; every stored tuple is indexed
            *self.pos.get_mut(moved).expect("moved tuple indexed") = p as u32;
        }
        for (cols, idx) in &mut self.indexes {
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

    /// Build the secondary index on `cols` if missing. Returns `true`
    /// when the index was newly built.
    pub fn ensure_index(&mut self, cols: &[usize]) -> bool {
        if self.indexes.contains_key(cols) {
            return false;
        }
        let mut idx = SymIndex::default();
        for (t, _) in &self.order {
            idx.entry(key_of(t, cols)).or_default().push(t.clone());
        }
        self.indexes.insert(Box::from(cols), idx);
        true
    }

    /// The tuples whose `cols` carry `key`. Missing index or key ⇒ empty.
    /// The result borrows only the relation (`'s`), not the probe key, so
    /// callers can reuse their key buffer while iterating the posting
    /// list.
    #[inline]
    pub fn probe<'s>(&'s self, cols: &[usize], key: &[Sym]) -> &'s [SymTuple] {
        self.indexes
            .get(cols)
            .and_then(|idx| idx.get(key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterate all live tuples in sequence order (**not** insertion order
    /// once anything was removed — removal swaps the last tuple into the
    /// hole). Given the same mutation sequence, two instances iterate
    /// identically — the determinism the engine's replay rests on.
    pub fn iter(&self) -> impl Iterator<Item = (&SymTuple, &P)> {
        self.order.iter().map(|(t, p)| (t, p))
    }

    /// Iterate all live tuples (without payloads) in sequence order (see
    /// [`iter`](Self::iter)).
    pub fn iter_tuples(&self) -> impl Iterator<Item = &SymTuple> {
        self.order.iter().map(|(t, _)| t)
    }

    /// Number of live buckets across all indexes (introspection hook for
    /// the empty-bucket leak regression test).
    pub fn index_buckets(&self) -> usize {
        self.indexes.values().map(FxHashMap::len).sum()
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
        let mut r: SymRel<u32> = SymRel::new();
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
        assert!(!r.insert_if_absent(b.clone(), 9), "present tuple");
        assert_eq!(r.get(&b), Some(8), "keeps its payload");
        assert!(r.insert_if_absent(a.clone(), 9));
        assert_eq!(r.get(&a), Some(9));
    }

    #[test]
    fn reinsert_updates_payload_without_index_duplicates() {
        let mut i = ValueInterner::new();
        let mut r: SymRel<u32> = SymRel::new();
        let a = st(&mut i, &[1, 10]);
        r.ensure_index(&[0]);
        r.insert(a.clone(), 1);
        r.insert(a.clone(), 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(&a), Some(2));
        let key = [a[0]];
        assert_eq!(r.probe(&[0], &key).len(), 1);
    }

    #[test]
    fn iteration_is_sequence_order_and_deterministic() {
        let mut i = ValueInterner::new();
        let build = |i: &mut ValueInterner| {
            let mut r: SymRel<u32> = SymRel::new();
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
    fn removal_drops_empty_index_buckets() {
        let mut i = ValueInterner::new();
        let mut r: SymRel<u32> = SymRel::new();
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
    fn ensure_index_reports_first_build_only() {
        let mut r: SymRel<u32> = SymRel::new();
        assert!(r.ensure_index(&[1]));
        assert!(!r.ensure_index(&[1]));
        assert!(r.ensure_index(&[0, 1]));
    }
}
