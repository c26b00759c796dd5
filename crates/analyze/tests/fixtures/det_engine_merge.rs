//! Fixture: the engine's merge drain. Mounted at
//! `crates/datalog/src/engine.rs` by the harness — `drain_*` functions
//! there are determinism-critical (they decide change-log and provenance
//! recording order), so a hash-order iteration inside one must be
//! flagged, while the order-insensitive twin stays clean.

use std::collections::HashMap;

pub struct MergeQueue {
    pending: HashMap<u64, Vec<u64>>,
}

impl MergeQueue {
    /// BAD: emits in hash order — the change log would differ run to run.
    pub fn drain_pending(&mut self, out: &mut Vec<u64>) {
        for (_fp, nodes) in self.pending.drain() {
            out.extend(nodes);
        }
    }

    /// OK: order-insensitive reduction over the same container.
    pub fn merge_count(&self) -> u64 {
        self.pending.values().map(|v| v.len() as u64).sum()
    }

    /// OK: not a marker function — bookkeeping reads are out of scope.
    pub fn contains(&self, fp: u64) -> bool {
        self.pending.contains_key(&fp)
    }
}
