//! Fixture: hash-order iteration through the word-hashed aliases.
//! Mounted at `crates/datalog/src/provgraph.rs` by the harness. A
//! seedless hash iterates the same way every run, but that order still
//! depends on the hash, not on the keys — a merge that emits in it must
//! be flagged exactly like one over std's `HashSet`.

use orchestra_relational::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;

pub struct Graph {
    base: FxHashSet<u32>,
}

impl Graph {
    /// BAD: writes node ids in hash order.
    pub fn write_base(&self, out: &mut Vec<u32>) {
        for n in self.base.iter() {
            out.push(*n);
        }
    }

    /// BAD: a local word-hashed map drained into the output.
    pub fn merge_heads(&self, out: &mut Vec<(u32, u32)>) {
        let mut heads = FxHashMap::default();
        heads.insert(1u32, 2u32);
        for (h, b) in heads.drain() {
            out.push((h, b));
        }
    }

    /// OK: collected into an ordered set before anything sees the order.
    pub fn emit_sorted(&self) -> BTreeSet<u32> {
        self.base.iter().copied().collect::<BTreeSet<u32>>()
    }
}
