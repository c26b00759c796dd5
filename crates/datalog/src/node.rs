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
//! walks — and a probe can borrow a `[Sym]` row from a reused buffer.
//!
//! Each relation's index is an open-addressed table of 8-byte buckets:
//! the row's 32-bit hash and its node id + 1, with 0 marking an empty
//! bucket. The rows themselves live once, in the id-ordered pair list,
//! and a probe whose hash matches compares the row there. Interning
//! probes once and, on a miss, fills the empty bucket that probe ended
//! at; growing re-places the buckets from their stored hashes without
//! reading a row.
//!
//! The table is also the engine's **membership** structure: next to each
//! node it keeps the node's position in its relation's
//! [`SymRel`](orchestra_relational::SymRel), or a dead mark while the
//! tuple is absent. "Is this tuple present, and what is its node?" is
//! one probe here; "is this node alive?" is an index lookup. Translating
//! back to names and
//! [`Value`](orchestra_relational::Value)s is the engine's job (it owns
//! the [`ValueInterner`](orchestra_relational::ValueInterner)).

use orchestra_relational::{FxHasher, Sym, SymTuple};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Position of a node whose tuple is absent from its relation.
const DEAD: u32 = u32::MAX;

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

/// One bucket of a [`RowIndex`]: a row's hash and its node id + 1, or
/// all zero while empty.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    hash: u32,
    id1: u32,
}

/// One relation's `[Sym]` row → [`NodeId`] index (see module docs):
/// open addressing with triangular probing over a power-of-two bucket
/// array, at most three quarters full.
#[derive(Debug, Clone, Default)]
struct RowIndex {
    buckets: Vec<Bucket>,
    /// Occupied buckets.
    len: usize,
}

/// The 32-bit hash a [`RowIndex`] files a row under. The low bits (the
/// bucket index) are the FxHash product's well-mixed high bits.
fn row_hash(syms: &[Sym]) -> u32 {
    let mut h = FxHasher::default();
    Sym::hash_slice(syms, &mut h);
    h.finish() as u32
}

impl RowIndex {
    /// The first bucket on `hash`'s probe sequence that is empty or holds
    /// a node filed under `hash` that `is_row` accepts. The bucket array
    /// must not be empty.
    fn slot(&self, hash: u32, is_row: impl Fn(u32) -> bool) -> usize {
        let mask = self.buckets.len() - 1;
        let mut i = hash as usize & mask;
        // Triangular steps visit every bucket of a power-of-two array,
        // and one always stays empty, so the loop ends.
        for step in 1.. {
            let b = self.buckets[i];
            if b.id1 == 0 || (b.hash == hash && is_row(b.id1 - 1)) {
                break;
            }
            i = (i + step) & mask;
        }
        i
    }

    /// The node of the row `syms` filed under `hash`, reading rows from
    /// `by_id`; or, if it is absent, `Err` with the empty bucket where it
    /// goes.
    fn find(&self, hash: u32, syms: &[Sym], by_id: &[(RelId, SymTuple)]) -> Result<NodeId, usize> {
        if self.buckets.is_empty() {
            return Err(0);
        }
        let i = self.slot(hash, |id| by_id[id as usize].1.syms() == syms);
        match self.buckets[i].id1 {
            0 => Err(i),
            id1 => Ok(NodeId(id1 - 1)),
        }
    }

    /// Fill the empty bucket `at` (found by [`find`](Self::find)) with the
    /// node whose id + 1 is `id1`, first doubling the array if one more
    /// entry would fill it past three quarters.
    fn fill(&mut self, mut at: usize, hash: u32, id1: u32) {
        if (self.len + 1) * 4 > self.buckets.len() * 3 {
            let grown = vec![Bucket::default(); (self.buckets.len() * 2).max(16)];
            let old = std::mem::replace(&mut self.buckets, grown);
            for b in old.into_iter().filter(|b| b.id1 != 0) {
                let i = self.slot(b.hash, |_| false);
                self.buckets[i] = b;
            }
            at = self.slot(hash, |_| false);
        }
        self.buckets[at] = Bucket { hash, id1 };
        self.len += 1;
    }
}

/// The interning table: `(RelId, SymTuple)` → [`NodeId`], assigned
/// densely in first-intern order, plus each node's position in its
/// relation while the tuple is present (see module docs).
#[derive(Debug, Clone, Default)]
pub struct NodeTable {
    /// Node index → pair, in assignment order.
    by_id: Vec<(RelId, SymTuple)>,
    /// Node index → position in its relation's table, `DEAD` while absent.
    pos: Vec<u32>,
    /// Indexed by `RelId`; grown on demand.
    by_rel: Vec<RowIndex>,
}

impl NodeTable {
    /// An empty table.
    pub fn new() -> Self {
        NodeTable::default()
    }

    /// Intern a pair, returning its id (existing or fresh). A fresh node
    /// starts dead.
    pub fn intern(&mut self, rel: RelId, tuple: &SymTuple) -> NodeId {
        self.intern_with(rel, tuple.syms(), || tuple.clone())
    }

    /// [`intern`](Self::intern) from a borrowed row: the [`SymTuple`] is
    /// built (one allocation) only when the pair was never interned.
    pub(crate) fn intern_syms(&mut self, rel: RelId, syms: &[Sym]) -> NodeId {
        self.intern_with(rel, syms, || SymTuple::from_slice(syms))
    }

    /// One probe for `syms`; on a miss, the pair `(rel, tuple())` becomes
    /// the next node.
    fn intern_with(
        &mut self,
        rel: RelId,
        syms: &[Sym],
        tuple: impl FnOnce() -> SymTuple,
    ) -> NodeId {
        let ri = rel.index();
        if self.by_rel.len() <= ri {
            self.by_rel.resize_with(ri + 1, RowIndex::default);
        }
        let index = &mut self.by_rel[ri];
        let hash = row_hash(syms);
        let at = match index.find(hash, syms, &self.by_id) {
            Ok(id) => return id,
            Err(at) => at,
        };
        // Bucket 0 means empty, so the stored id + 1 must fit too.
        #[expect(
            clippy::expect_used,
            reason = "u32 ids (4B nodes per engine) are an accepted engine limit"
        )]
        let id1 = u32::try_from(self.by_id.len() + 1).expect("node table overflow");
        index.fill(at, hash, id1);
        self.by_id.push((rel, tuple()));
        self.pos.push(DEAD);
        NodeId(id1 - 1)
    }

    /// Look up an existing id without interning.
    #[inline]
    pub fn get(&self, rel: RelId, syms: &[Sym]) -> Option<NodeId> {
        let index = self.by_rel.get(rel.index())?;
        index.find(row_hash(syms), syms, &self.by_id).ok()
    }

    /// The node's position in its relation's table, `None` while its
    /// tuple is absent (or the id is unknown).
    #[inline]
    pub(crate) fn position(&self, id: NodeId) -> Option<u32> {
        self.pos.get(id.index()).copied().filter(|&p| p != DEAD)
    }

    /// True iff the node's tuple is present in its relation.
    #[inline]
    pub(crate) fn is_alive(&self, id: NodeId) -> bool {
        self.position(id).is_some()
    }

    /// Record where the node's tuple now sits (`Some`), or that it left
    /// its relation (`None`). Unknown ids are ignored.
    pub(crate) fn set_position(&mut self, id: NodeId, pos: Option<u32>) {
        if let Some(slot) = self.pos.get_mut(id.index()) {
            *slot = pos.unwrap_or(DEAD);
        }
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
        assert_eq!(t.get(RelId(0), st.syms()), None);
        let id = t.intern(RelId(0), &st);
        assert_eq!(t.get(RelId(0), st.syms()), Some(id));
        assert_eq!(t.get(RelId(7), st.syms()), None, "unknown relation");
        assert_eq!(t.len(), 1, "get does not intern");
        assert_eq!(t.intern_syms(RelId(0), st.syms()), id, "borrowed row hits");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn positions_start_dead_and_follow_the_relation() {
        let mut i = ValueInterner::new();
        let mut t = NodeTable::new();
        let st = i.intern_tuple(&tuple![1]);
        let id = t.intern_syms(RelId(0), st.syms());
        assert!(!t.is_alive(id), "a fresh node is dead");
        t.set_position(id, Some(4));
        assert_eq!(t.position(id), Some(4));
        t.set_position(id, None);
        assert_eq!(t.position(id), None);
        assert_eq!(t.position(NodeId(9)), None, "unknown id");
    }

    #[test]
    fn display_and_empty() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(RelId(2).to_string(), "r2");
        assert!(NodeTable::new().is_empty());
    }

    /// Random rows over several relations and arities, with repeats,
    /// interned through several growth boundaries: ids follow a
    /// first-seen reference, and `get` finds exactly the interned rows
    /// without interning any.
    #[test]
    fn row_index_matches_first_seen_model() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::BTreeMap;
        let arity = |rel: u32| 1 + rel as usize % 3;
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = NodeTable::new();
            let mut model: BTreeMap<(u32, Vec<Sym>), NodeId> = BTreeMap::new();
            let row = |rng: &mut StdRng, rel: u32| -> Vec<Sym> {
                (0..arity(rel))
                    .map(|_| Sym(rng.random_range(0..40u32)))
                    .collect()
            };
            // Past 3 000 nodes in the largest relation: several doublings.
            for _ in 0..12_000 {
                let rel = rng.random_range(0..5u32);
                let syms = row(&mut rng, rel);
                let next = NodeId(model.len() as u32);
                let want = *model.entry((rel, syms.clone())).or_insert(next);
                let got = if rng.random_bool(0.5) {
                    t.intern_syms(RelId(rel), &syms)
                } else {
                    t.intern(RelId(rel), &SymTuple::from_slice(&syms))
                };
                assert_eq!(got, want, "seed {seed}");
                assert_eq!(
                    t.resolve(got).map(|(r, st)| (r, st.syms())),
                    Some((RelId(rel), &syms[..]))
                );
            }
            assert_eq!(t.len(), model.len());
            for _ in 0..2_000 {
                let rel = rng.random_range(0..7u32);
                let syms = row(&mut rng, rel);
                let want = model.get(&(rel, syms.clone())).copied();
                assert_eq!(t.get(RelId(rel), &syms), want, "seed {seed}");
            }
            assert_eq!(t.len(), model.len(), "get does not intern");
            for ((rel, syms), id) in &model {
                assert_eq!(t.get(RelId(*rel), syms), Some(*id));
            }
        }
    }
}
