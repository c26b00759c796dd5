//! Relation storage for the datalog engine.
//!
//! A [`SymRel`] holds one relation's interned tuples with a per-tuple
//! payload:
//!
//! * a **sequence-ordered** tuple table: scan order is a pure function of
//!   the mutation sequence (appends go to the back; a removal swaps the
//!   last tuple into the hole), so two instances fed the same mutations
//!   iterate identically — unlike `HashMap` iteration with its
//!   per-instance seed — which is what lets two engines fed the same
//!   input replay byte-identically;
//! * secondary **probe indexes** (fixed-width `[Sym]` key → posting
//!   list of `(tuple, payload)` entries), one per probed column set,
//!   maintained incrementally through pushes and removals.
//!
//! The table is addressed by **position**: [`push`](SymRel::push)
//! returns the slot a tuple landed in and
//! [`swap_remove`](SymRel::swap_remove) takes one. It answers no
//! membership question itself — the datalog engine's node table already
//! maps every tuple to its node, and keeps each live node's position, so
//! a second tuple-keyed map here would hash every fact twice.

use crate::fxhash::FxHashMap;
use crate::intern::{Sym, SymTuple};

/// One secondary index: fixed-width symbol key → posting list.
type SymIndex<P> = FxHashMap<Box<[Sym]>, Vec<(SymTuple, P)>>;

/// Write `t`'s `cols` into `key` (cleared first).
fn fill_key(key: &mut Vec<Sym>, t: &SymTuple, cols: &[usize]) {
    key.clear();
    key.extend(cols.iter().map(|&c| t[c]));
}

/// One relation's tuples with their payloads and probe indexes (see
/// module docs). `P` is the per-tuple payload (the engine stores the
/// tuple's provenance node id).
#[derive(Debug, Clone)]
pub struct SymRel<P> {
    /// Live tuples with their payloads, in sequence order.
    order: Vec<(SymTuple, P)>,
    /// Probed column set → its index. Emptied buckets are dropped eagerly
    /// so churny delete/reinsert workloads cannot grow an index without
    /// bound.
    indexes: FxHashMap<Box<[usize]>, SymIndex<P>>,
    /// Reused index-key buffer: maintaining an index allocates only when
    /// a key gets its first posting.
    key: Vec<Sym>,
}

impl<P> Default for SymRel<P> {
    fn default() -> Self {
        SymRel {
            order: Vec::new(),
            indexes: FxHashMap::default(),
            key: Vec::new(),
        }
    }
}

impl<P: Copy + Eq> SymRel<P> {
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

    /// Append a tuple with its payload and return its position. The
    /// caller guarantees the tuple is not present (the engine's node
    /// table decides that).
    pub fn push(&mut self, t: SymTuple, payload: P) -> u32 {
        for (cols, idx) in &mut self.indexes {
            fill_key(&mut self.key, &t, cols);
            match idx.get_mut(self.key.as_slice()) {
                Some(list) => list.push((t.clone(), payload)),
                None => {
                    idx.insert(Box::from(self.key.as_slice()), vec![(t.clone(), payload)]);
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "u32 capacity (4B tuples) per relation is an accepted engine limit"
        )]
        let p = u32::try_from(self.order.len()).expect("relation overflow");
        self.order.push((t, payload));
        p
    }

    /// Remove the tuple at `pos`; the last tuple moves into the hole.
    /// Returns the moved tuple's payload — its position is now `pos` —
    /// or `None` when `pos` was the last slot (or out of range).
    pub fn swap_remove(&mut self, pos: u32) -> Option<P> {
        let p = pos as usize;
        if p >= self.order.len() {
            return None;
        }
        let (t, _) = self.order.swap_remove(p);
        for (cols, idx) in &mut self.indexes {
            fill_key(&mut self.key, &t, cols);
            if let Some(list) = idx.get_mut(self.key.as_slice()) {
                if let Some(i) = list.iter().position(|(x, _)| *x == t) {
                    list.swap_remove(i);
                }
                if list.is_empty() {
                    idx.remove(self.key.as_slice());
                }
            }
        }
        self.order.get(p).map(|(_, moved)| *moved)
    }

    /// Build the secondary index on `cols` if missing. Returns `true`
    /// when the index was newly built.
    pub fn ensure_index(&mut self, cols: &[usize]) -> bool {
        if self.indexes.contains_key(cols) {
            return false;
        }
        let mut idx = SymIndex::default();
        for (t, p) in &self.order {
            fill_key(&mut self.key, t, cols);
            idx.entry(Box::from(self.key.as_slice()))
                .or_insert_with(Vec::new)
                .push((t.clone(), *p));
        }
        self.indexes.insert(Box::from(cols), idx);
        true
    }

    /// The entries whose `cols` carry `key`. Missing index or key ⇒
    /// empty. The result borrows only the relation (`'s`), not the probe
    /// key, so callers can reuse their key buffer while iterating the
    /// posting list.
    #[inline]
    pub fn probe<'s>(&'s self, cols: &[usize], key: &[Sym]) -> &'s [(SymTuple, P)] {
        self.indexes
            .get(cols)
            .and_then(|idx| idx.get(key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All live entries in sequence order (**not** insertion order once
    /// anything was removed — removal swaps the last tuple into the
    /// hole). Given the same mutation sequence, two instances list
    /// identically — the determinism the engine's replay rests on.
    #[inline]
    pub fn entries(&self) -> &[(SymTuple, P)] {
        &self.order
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

    /// The position of `t`, by walking the table (tests only: the engine
    /// keeps positions on its node table).
    fn pos_of(r: &SymRel<u32>, t: &SymTuple) -> Option<u32> {
        r.entries()
            .iter()
            .position(|(x, _)| x == t)
            .map(|p| p as u32)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut i = ValueInterner::new();
        let mut r: SymRel<u32> = SymRel::new();
        let a = st(&mut i, &[1, 10]);
        let b = st(&mut i, &[2, 20]);
        assert_eq!(r.push(a.clone(), 7), 0);
        assert_eq!(r.push(b.clone(), 8), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.entries().first(), Some(&(a.clone(), 7)));
        // Removing `a` moves `b` (payload 8) into slot 0.
        assert_eq!(r.swap_remove(0), Some(8));
        assert_eq!(pos_of(&r, &a), None);
        assert_eq!(r.entries().first(), Some(&(b.clone(), 8)));
        assert_eq!(r.len(), 1);
        assert_eq!(r.swap_remove(5), None, "out of range");
        assert_eq!(r.len(), 1);
        assert_eq!(r.push(a.clone(), 9), 1);
        assert_eq!(r.entries().get(1), Some(&(a.clone(), 9)));
        // Removing the last slot moves nothing.
        assert_eq!(r.swap_remove(1), None);
        assert_eq!(r.entries().get(1), None);
        assert_eq!(
            r.entries().first(),
            Some(&(b.clone(), 8)),
            "keeps its payload"
        );
    }

    #[test]
    fn reinsert_updates_payload_without_index_duplicates() {
        let mut i = ValueInterner::new();
        let mut r: SymRel<u32> = SymRel::new();
        let a = st(&mut i, &[1, 10]);
        r.ensure_index(&[0]);
        let p = r.push(a.clone(), 1);
        r.swap_remove(p);
        r.push(a.clone(), 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.entries().first(), Some(&(a.clone(), 2)));
        let key = [a[0]];
        assert_eq!(r.probe(&[0], &key), &[(a.clone(), 2)]);
    }

    #[test]
    fn iteration_is_sequence_order_and_deterministic() {
        let mut i = ValueInterner::new();
        let build = |i: &mut ValueInterner| {
            let mut r: SymRel<u32> = SymRel::new();
            for k in 0..30i64 {
                r.push(st(i, &[k, 0]), k as u32);
            }
            let seven = st(i, &[7, 0]);
            r.swap_remove(pos_of(&r, &seven).unwrap());
            let p = pos_of(&r, &st(i, &[23, 0])).unwrap();
            r.swap_remove(p);
            r.push(seven, 77);
            r
        };
        let a = build(&mut i);
        let b = build(&mut i);
        assert_eq!(a.entries(), b.entries(), "same mutations ⇒ same order");
        assert_eq!(a.len(), 29);
        // Each removal moved the then-last tuple into its hole.
        let payloads: Vec<u32> = a.entries().iter().map(|(_, p)| *p).collect();
        assert_eq!(payloads[7], 29);
        assert_eq!(payloads[23], 28);
        assert_eq!(payloads[28], 77);
    }

    #[test]
    fn removal_drops_empty_index_buckets() {
        let mut i = ValueInterner::new();
        let mut r: SymRel<u32> = SymRel::new();
        r.ensure_index(&[0]);
        for k in 0..20i64 {
            r.push(st(&mut i, &[k, 0]), 0);
        }
        for k in 0..20i64 {
            let p = pos_of(&r, &st(&mut i, &[k, 0])).unwrap();
            r.swap_remove(p);
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
