//! Interning `(relation, tuple)` pairs into dense node ids.
//!
//! Every tuple the engine ever sees — base (published by a peer) or derived
//! (produced by a mapping) — gets one [`NodeId`]. Node ids are the
//! variables of provenance polynomials and the vertices of the provenance
//! graph, so keeping them dense `u32`s keeps those structures small.
//!
//! `NodeId(n)` is the n-th tuple the engine interned, and the **global
//! ordering rule** is that first-intern order. The engine interns in an
//! order that is a pure function of its input (task order, then discovery
//! order within a task), so everything downstream that sorts nodes
//! (deletion replay, lineage rendering) inherits determinism from it.
//!
//! The table keys on the engine's *symbol* representation: relations are
//! dense [`RelId`]s and tuples are [`SymTuple`]s, so interning a node is
//! one integer-keyed hash probe — no string hashing, no structural tuple
//! walks. Translating back to names and
//! [`Value`](orchestra_relational::Value)s is the engine's job (it owns
//! the [`ValueInterner`](orchestra_relational::ValueInterner)).

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

/// Identifier of an interned `(relation, tuple)` pair: `NodeId(n)` is the
/// engine's n-th interned tuple. The derived `Ord` is first-intern order,
/// the engine's global node ordering rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The interning table: `(RelId, SymTuple)` → [`NodeId`], assigned
/// densely in first-intern order.
#[derive(Debug, Clone, Default)]
pub struct NodeTable {
    /// Node index → pair, in assignment order.
    by_id: Vec<(RelId, SymTuple)>,
    /// Indexed by `RelId`; grown on demand.
    by_rel: Vec<FxHashMap<SymTuple, NodeId>>,
}

impl NodeTable {
    /// An empty table.
    pub fn new() -> Self {
        NodeTable::default()
    }

    /// Intern a pair, returning its id (existing or fresh).
    pub fn intern(&mut self, rel: RelId, tuple: &SymTuple) -> NodeId {
        let ri = rel.index();
        if self.by_rel.len() <= ri {
            self.by_rel.resize_with(ri + 1, FxHashMap::default);
        }
        match self.by_rel[ri].entry(tuple.clone()) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                // analyze: allow(panic) -- u32 ids (4B nodes per engine) are an accepted engine limit
                let id = NodeId(u32::try_from(self.by_id.len()).expect("node table overflow"));
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

    /// The `(relation, tuple)` behind an id.
    pub fn resolve(&self, id: NodeId) -> Option<(RelId, &SymTuple)> {
        self.by_id.get(id.index()).map(|(r, t)| (*r, t))
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
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
        let a = t.intern(RelId(0), &st);
        let b = t.intern(RelId(0), &st);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_pairs_get_distinct_ids() {
        let mut i = ValueInterner::new();
        let mut t = NodeTable::new();
        let one = i.intern_tuple(&tuple![1]);
        let two = i.intern_tuple(&tuple![2]);
        let a = t.intern(RelId(0), &one);
        let b = t.intern(RelId(1), &one);
        let c = t.intern(RelId(0), &two);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut i = ValueInterner::new();
        let mut t = NodeTable::new();
        let st = i.intern_tuple(&tuple![1, "x"]);
        let id = t.intern(RelId(3), &st);
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
        assert_eq!(t.get(RelId(0), &st), None);
        let id = t.intern(RelId(0), &st);
        assert_eq!(t.get(RelId(0), &st), Some(id));
        assert_eq!(t.get(RelId(7), &st), None, "unknown relation");
        assert_eq!(t.len(), 1, "get does not intern");
    }

    #[test]
    fn display_and_empty() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(RelId(2).to_string(), "r2");
        assert!(NodeTable::new().is_empty());
    }
}
