//! Seeded, self-contained op generators.
//!
//! Nothing here touches the system under test: a generator turns a seed
//! into a stream of abstract ops and keeps the state those ops should
//! leave behind (the *model*), which the output checks compare the real
//! peers against. The workloads translate ops into `Update`s.

use std::collections::{BTreeMap, VecDeque};

/// splitmix64: tiny, seedable, and good enough to pick keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Mix a workload name into the run seed so two workloads under one
/// `--seed` do not draw the same stream.
pub fn seed_for(seed: u64, workload: &str) -> u64 {
    let mut h = OpHash::default();
    h.u64(seed);
    h.str(workload);
    h.0
}

/// FNV-1a over the generated ops: the report prints it, so "same seed,
/// same load" is checkable from two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpHash(pub u64);

impl Default for OpHash {
    fn default() -> Self {
        OpHash(0xcbf2_9ce4_8422_2325)
    }
}

impl OpHash {
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    pub fn u64(&mut self, v: u64) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }
    pub fn str(&mut self, s: &str) {
        s.bytes().for_each(|b| self.byte(b));
        self.byte(0xff);
    }
    pub fn kv(&mut self, op: KvOp) {
        let (tag, a, b, c) = match op {
            KvOp::Insert { k, v } => (1, k, v, 0),
            KvOp::Modify { k, old, new } => (2, k, old, new),
            KvOp::Delete { k, v } => (3, k, v, 0),
        };
        self.byte(tag);
        self.i64(a);
        self.i64(b);
        self.i64(c);
    }
}

/// One tuple-level op over a keyed `R(k, v)` relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    Insert { k: i64, v: i64 },
    Modify { k: i64, old: i64, new: i64 },
    Delete { k: i64, v: i64 },
}

/// The kv editor. Keys live in small **groups** and a transaction edits
/// inside one group, the way a curator edits the records of one entry:
/// a transaction's antecedents are then the earlier transactions on that
/// group, not a random sample of all history. (With keys picked uniformly
/// over the instance every transaction reads six unrelated transactions'
/// writes, antecedent closures reach most of the archive within seconds,
/// and reconcile latency rises 5x inside one 8 s run — a history-length
/// effect that would drown the per-call costs this benchmark is after.)
#[derive(Debug, Clone)]
pub struct KvGen {
    rng: Rng,
    /// Live keys by group, oldest group first.
    groups: VecDeque<Vec<i64>>,
    /// The model: what the head's instance must hold.
    pub model: BTreeMap<i64, i64>,
    next_key: i64,
    pub hash: OpHash,
}

impl KvGen {
    pub fn new(seed: u64) -> KvGen {
        KvGen {
            rng: Rng::new(seed),
            groups: VecDeque::new(),
            model: BTreeMap::new(),
            next_key: 0,
            hash: OpHash::default(),
        }
    }

    fn insert(&mut self) -> KvOp {
        let k = self.next_key;
        self.next_key += 1;
        let v = self.rng.below(1_000_000) as i64;
        self.model.insert(k, v);
        self.record(KvOp::Insert { k, v })
    }

    fn record(&mut self, op: KvOp) -> KvOp {
        self.hash.kv(op);
        op
    }

    /// One transaction that creates a group of `size` fresh keys.
    pub fn new_group_txn(&mut self, size: usize) -> Vec<KvOp> {
        let ops: Vec<KvOp> = (0..size).map(|_| self.insert()).collect();
        self.groups.push_back(
            ops.iter()
                .map(|op| match *op {
                    KvOp::Insert { k, .. } => k,
                    _ => unreachable!("a new group is all inserts"),
                })
                .collect(),
        );
        ops
    }

    /// One transaction that deletes the oldest group, key by key.
    pub fn drop_oldest_group_txn(&mut self) -> Vec<KvOp> {
        let Some(group) = self.groups.pop_front() else {
            return Vec::new();
        };
        group
            .into_iter()
            .map(|k| {
                let v = self.model.remove(&k).expect("live key is in the model");
                self.record(KvOp::Delete { k, v })
            })
            .collect()
    }

    /// One steady-state transaction of `n` ops inside one random group: a
    /// quarter inserts, a quarter deletes, half modifies, each on its own
    /// key — so the group (and the instance) keeps its size while its
    /// contents churn. Groups must hold at least `3n/4` keys.
    pub fn mixed_txn(&mut self, n: usize) -> Vec<KvOp> {
        let quarter = n / 4;
        let g = self.rng.below(self.groups.len() as u64) as usize;
        // Partial shuffle: the first `n - quarter` slots become the keys
        // this transaction deletes and modifies.
        let reads = n - quarter;
        for i in 0..reads {
            let len = self.groups[g].len();
            let j = i + self.rng.below((len - i) as u64) as usize;
            self.groups[g].swap(i, j);
        }
        let mut out = Vec::with_capacity(n);
        let doomed: Vec<i64> = self.groups[g].drain(..quarter).collect();
        for k in doomed {
            let v = self.model.remove(&k).expect("live key is in the model");
            out.push(self.record(KvOp::Delete { k, v }));
        }
        for i in 0..reads - quarter {
            let k = self.groups[g][i];
            let new = self.rng.below(1_000_000) as i64;
            let old = self.model.insert(k, new).expect("live key is in the model");
            out.push(self.record(KvOp::Modify { k, old, new }));
        }
        for _ in 0..quarter {
            let op = self.insert();
            if let KvOp::Insert { k, .. } = op {
                self.groups[g].push(k);
            }
            out.push(op);
        }
        out
    }

    pub fn live(&self) -> usize {
        self.model.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_hash(seed: u64) -> (u64, usize) {
        let mut g = KvGen::new(seed);
        for _ in 0..60 {
            g.new_group_txn(8);
        }
        for _ in 0..200 {
            g.mixed_txn(8);
        }
        g.drop_oldest_group_txn();
        (g.hash.0, g.live())
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(stream_hash(7), stream_hash(7));
        assert_ne!(stream_hash(7).0, stream_hash(8).0);
        assert_ne!(seed_for(7, "steady-chain"), seed_for(7, "wire-chain"));
    }

    #[test]
    fn mixed_transactions_keep_the_instance_flat_and_the_model_exact() {
        let mut g = KvGen::new(1);
        for _ in 0..12 {
            g.new_group_txn(8);
        }
        let mut replayed: BTreeMap<i64, i64> = g.model.clone();
        for _ in 0..300 {
            for op in g.mixed_txn(8) {
                match op {
                    KvOp::Insert { k, v } => assert!(replayed.insert(k, v).is_none()),
                    KvOp::Modify { k, old, new } => {
                        assert_eq!(replayed.insert(k, new), Some(old))
                    }
                    KvOp::Delete { k, v } => assert_eq!(replayed.remove(&k), Some(v)),
                }
            }
        }
        assert_eq!(g.live(), 96, "inserts and deletes balance");
        assert!(g.groups.iter().all(|grp| grp.len() == 8), "per group too");
        assert_eq!(replayed, g.model);
    }
}
