//! Interning `(relation, tuple)` pairs into dense, shard-partitioned
//! node ids.
//!
//! Every tuple the engine ever sees — base (published by a peer) or derived
//! (produced by a mapping) — gets one [`NodeId`]. Node ids are the
//! variables of provenance polynomials and the vertices of the provenance
//! graph, so keeping them dense `u32`s keeps those structures small.
//!
//! Since the partitioned-merge refactor a node id is a **(shard, local)**
//! pair packed into one `u32`: the high [`NodeId::SHARD_BITS`] bits carry
//! the shard that owns the node (the same content-based shard the tuple
//! routes to in its relation's [`ShardedRel`]), the low bits carry a dense
//! per-shard sequence number. Each shard assigns local ids independently,
//! which is what lets the engine's merge phase intern nodes through one
//! sink per shard with **no** cross-shard coordination — and because
//! shard routing is a pure function of tuple content, the id every node
//! ends up with depends only on the input.
//!
//! The **global ordering rule** is the derived `Ord` on the packed word:
//! shard-major, then per-shard assignment order. Everything downstream
//! that sorts nodes (deletion replay, lineage rendering) inherits
//! determinism from this rule.
//!
//! Since the interned-value refactor the table keys on the engine's
//! *symbol* representation: relations are dense [`RelId`]s and tuples are
//! [`SymTuple`]s, so interning a node is one integer-keyed hash probe —
//! no string hashing, no structural tuple walks. Translating back to
//! names and [`Value`](orchestra_relational::Value)s is the engine's job
//! (it owns the
//! [`ValueInterner`](orchestra_relational::ValueInterner)).
//!
//! [`ShardedRel`]: orchestra_relational::ShardedRel

use orchestra_relational::{FxHashMap, SymTuple};
use std::collections::hash_map::Entry;
use std::fmt;

/// Dense identifier of a relation within one engine (index into the
/// engine's relation table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

impl RelId {
    /// The dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of an interned `(relation, tuple)` pair: shard in the high
/// bits, dense per-shard sequence number in the low bits (see module
/// docs). The derived `Ord` on the packed word — shard-major, then
/// assignment order — is the engine's global node ordering rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// High bits of the packed word reserved for the owning shard.
    pub const SHARD_BITS: u32 = 8;
    /// Maximum shard count the packed representation supports; the
    /// engine clamps its shard option to this.
    pub const MAX_SHARDS: usize = 1 << Self::SHARD_BITS;
    /// Low bits carrying the per-shard local index (~16.7M nodes/shard).
    pub const LOCAL_BITS: u32 = 32 - Self::SHARD_BITS;
    const LOCAL_MASK: u32 = (1 << Self::LOCAL_BITS) - 1;

    /// Pack a `(shard, local)` pair.
    #[inline]
    pub fn new(shard: usize, local: u32) -> NodeId {
        debug_assert!(shard < Self::MAX_SHARDS);
        debug_assert!(local <= Self::LOCAL_MASK);
        NodeId(((shard as u32) << Self::LOCAL_BITS) | local)
    }

    /// The shard that owns this node.
    #[inline]
    pub fn shard(self) -> usize {
        (self.0 >> Self::LOCAL_BITS) as usize
    }

    /// The dense index within the owning shard.
    #[inline]
    pub fn local(self) -> usize {
        (self.0 & Self::LOCAL_MASK) as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Shard 0 keeps the historical flat rendering (single-shard
        // engines and hand-built graphs print `n0`, `n1`, …); other
        // shards make the partition visible.
        if self.shard() == 0 {
            write!(f, "n{}", self.local())
        } else {
            write!(f, "n{}.{}", self.shard(), self.local())
        }
    }
}

/// One shard of the interning table: its own dense id sequence and its
/// own per-relation probe maps. Shards intern independently — handing
/// one `&mut NodeShard` to each merge sink is race-free by construction.
#[derive(Debug, Clone)]
pub struct NodeShard {
    /// This shard's index, baked into every id it assigns.
    shard: u32,
    /// Local index → pair, in assignment order.
    by_id: Vec<(RelId, SymTuple)>,
    /// Indexed by `RelId`; grown on demand.
    by_rel: Vec<FxHashMap<SymTuple, NodeId>>,
}

impl NodeShard {
    fn new(shard: u32) -> NodeShard {
        NodeShard {
            shard,
            by_id: Vec::new(),
            by_rel: Vec::new(),
        }
    }

    /// Intern a pair, returning its id (existing or fresh). The caller
    /// has already routed the tuple to this shard.
    pub fn intern(&mut self, rel: RelId, tuple: &SymTuple) -> NodeId {
        let ri = rel.index();
        if self.by_rel.len() <= ri {
            self.by_rel.resize_with(ri + 1, FxHashMap::default);
        }
        match self.by_rel[ri].entry(tuple.clone()) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let local = self.by_id.len();
                // 2^24 nodes per shard (~16.7M, ~4B per engine across 256
                // shards) is an accepted engine limit.
                assert!(local <= NodeId::LOCAL_MASK as usize, "node shard overflow");
                let id = NodeId::new(self.shard as usize, local as u32);
                self.by_id.push((rel, tuple.clone()));
                *e.insert(id)
            }
        }
    }

    /// Look up an existing id without interning.
    #[inline]
    pub fn get(&self, rel: RelId, tuple: &SymTuple) -> Option<NodeId> {
        self.by_rel.get(rel.index())?.get(tuple).copied()
    }

    /// Number of nodes interned by this shard.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True iff this shard interned nothing.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

/// The interning table: `(RelId, SymTuple)` → [`NodeId`], partitioned by
/// the caller-supplied shard (the engine routes with the tuple's
/// relation-level [`shard_of`](orchestra_relational::ShardedRel::shard_of),
/// so a node's shard is a pure function of tuple content). A fresh table
/// has one shard, matching the historical flat id space; the engine grows
/// it to its configured shard count up front.
#[derive(Debug, Clone)]
pub struct NodeTable {
    shards: Vec<NodeShard>,
}

impl Default for NodeTable {
    fn default() -> Self {
        NodeTable {
            shards: vec![NodeShard::new(0)],
        }
    }
}

impl NodeTable {
    /// An empty single-shard table.
    pub fn new() -> Self {
        NodeTable::default()
    }

    /// An empty table with `shards` partitions (clamped to
    /// [`NodeId::MAX_SHARDS`]).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.clamp(1, NodeId::MAX_SHARDS);
        NodeTable {
            shards: (0..shards).map(|s| NodeShard::new(s as u32)).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Intern a pair in `shard`, returning its id (existing or fresh).
    #[inline]
    pub fn intern(&mut self, shard: usize, rel: RelId, tuple: &SymTuple) -> NodeId {
        self.shards[shard].intern(rel, tuple)
    }

    /// Look up an existing id without interning. `shard` must be the
    /// tuple's content-routed shard (a wrong shard simply misses).
    #[inline]
    pub fn get(&self, shard: usize, rel: RelId, tuple: &SymTuple) -> Option<NodeId> {
        self.shards.get(shard)?.get(rel, tuple)
    }

    /// The `(relation, tuple)` behind an id.
    pub fn resolve(&self, id: NodeId) -> Option<(RelId, &SymTuple)> {
        self.shards
            .get(id.shard())?
            .by_id
            .get(id.local())
            .map(|(r, t)| (*r, t))
    }

    /// Total interned nodes across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(NodeShard::len).sum()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(NodeShard::is_empty)
    }

    /// Every interned id, in the deterministic global order (shard-major,
    /// then per-shard assignment order) — the same order `Ord` on
    /// [`NodeId`] induces within one table.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.shards.iter().flat_map(|sh| {
            (0..sh.by_id.len()).map(move |local| NodeId::new(sh.shard as usize, local as u32))
        })
    }

    /// One disjoint mutable sub-table per shard, in shard order — the
    /// merge phase hands sink `s` the writer for shard `s` so every sink
    /// interns nodes without coordination.
    pub fn shards_mut(&mut self) -> impl Iterator<Item = &mut NodeShard> {
        self.shards.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::{tuple, ValueInterner};

    #[test]
    fn intern_is_idempotent() {
        let mut i = ValueInterner::new();
        let mut t = NodeTable::new();
        let st = i.intern_tuple(&tuple![1, 2]);
        let a = t.intern(0, RelId(0), &st);
        let b = t.intern(0, RelId(0), &st);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_pairs_get_distinct_ids() {
        let mut i = ValueInterner::new();
        let mut t = NodeTable::new();
        let one = i.intern_tuple(&tuple![1]);
        let two = i.intern_tuple(&tuple![2]);
        let a = t.intern(0, RelId(0), &one);
        let b = t.intern(0, RelId(1), &one);
        let c = t.intern(0, RelId(0), &two);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut i = ValueInterner::new();
        let mut t = NodeTable::new();
        let st = i.intern_tuple(&tuple![1, "x"]);
        let id = t.intern(0, RelId(3), &st);
        let (rel, tup) = t.resolve(id).unwrap();
        assert_eq!(rel, RelId(3));
        assert_eq!(tup, &st);
        assert!(t.resolve(NodeId(99)).is_none());
    }

    #[test]
    fn get_without_interning() {
        let mut i = ValueInterner::new();
        let mut t = NodeTable::new();
        let st = i.intern_tuple(&tuple![1]);
        assert_eq!(t.get(0, RelId(0), &st), None);
        let id = t.intern(0, RelId(0), &st);
        assert_eq!(t.get(0, RelId(0), &st), Some(id));
        assert_eq!(t.get(0, RelId(7), &st), None, "unknown relation");
        assert_eq!(t.len(), 1, "get does not intern");
    }

    #[test]
    fn display_and_empty() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(RelId(2).to_string(), "r2");
        assert!(NodeTable::new().is_empty());
    }

    #[test]
    fn packed_shard_local_roundtrip_and_ordering() {
        let a = NodeId::new(0, 5);
        let b = NodeId::new(2, 0);
        let c = NodeId::new(2, 9);
        assert_eq!(a.shard(), 0);
        assert_eq!(a.local(), 5);
        assert_eq!(c.shard(), 2);
        assert_eq!(c.local(), 9);
        // Global ordering rule: shard-major, then assignment order.
        assert!(a < b && b < c);
        // Shard 0 keeps the flat rendering; others show the partition.
        assert_eq!(a.to_string(), "n5");
        assert_eq!(c.to_string(), "n2.9");
    }

    #[test]
    fn sharded_table_interns_independently_per_shard() {
        let mut i = ValueInterner::new();
        let mut t = NodeTable::with_shards(4);
        assert_eq!(t.shard_count(), 4);
        let x = i.intern_tuple(&tuple![1]);
        let y = i.intern_tuple(&tuple![2]);
        let a = t.intern(1, RelId(0), &x);
        let b = t.intern(3, RelId(0), &y);
        assert_eq!(a, NodeId::new(1, 0));
        assert_eq!(b, NodeId::new(3, 0), "local sequences are per-shard");
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a).unwrap().1, &x);
        assert_eq!(t.resolve(b).unwrap().1, &y);
        assert_eq!(t.get(1, RelId(0), &x), Some(a));
        assert_eq!(t.get(0, RelId(0), &x), None, "wrong shard misses");
        // Disjoint writers per shard.
        let mut ws: Vec<_> = t.shards_mut().collect();
        assert_eq!(ws.len(), 4);
        let z = ws[2].intern(RelId(1), &x);
        assert_eq!(z, NodeId::new(2, 0));
        assert_eq!(ws[2].get(RelId(1), &x), Some(z));
    }

    #[test]
    fn with_shards_clamps_to_packed_capacity() {
        assert_eq!(NodeTable::with_shards(0).shard_count(), 1);
        assert_eq!(
            NodeTable::with_shards(100_000).shard_count(),
            NodeId::MAX_SHARDS
        );
    }
}
