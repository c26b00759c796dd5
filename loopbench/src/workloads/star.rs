//! `conflict-star`: a hub and seven spokes over bidirectional copy
//! mappings. Spokes write their own keys and, every cycle, two pairs of
//! them write the same fresh *hot* key with different values, each as an
//! insert → modify → modify antecedent chain. The hub ranks spokes in
//! three trust tiers; it reconciles, its administrator resolves half of
//! the same-tier conflicts, then the spokes reconcile. Deferrals are
//! outcomes, not failures.

use super::chain::{kv_schema, kv_state, kv_updates};
use crate::gen::{seed_for, KvOp, OpHash, Rng};
use crate::run::{archive_of, Config, Counters, Finish, Recorder, ReplaySpec, Workload};
use crate::trace::{Layer, TimedStore};
use orchestra_core::{Cdss, ExchangeOptions};
use orchestra_reconcile::{TrustCondition, TrustPolicy};
use orchestra_store::{InMemoryStore, UpdateStore};
use orchestra_updates::{PeerId, Update};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

const SPOKES: usize = 7;
/// Hot keys per cycle, each contended by two spokes.
const HOT_KEYS: usize = 2;
/// A contended key is deleted by both contenders this many cycles later,
/// so instances stay flat.
const HOT_LIFETIME: usize = 2;
/// Own keys a spoke inserts (and deletes) per cycle: one chained key plus
/// two plain transactions of three.
const OWN_PER_CYCLE: usize = 7;
/// Own keys per spoke when timing starts.
const PRELOAD_KEYS: usize = 448;

/// The hub's tiers: spokes 1–2 outrank 3–4, which outrank the rest.
fn tier(spoke: usize) -> u32 {
    match spoke {
        1 | 2 => 3,
        3 | 4 => 2,
        _ => 1,
    }
}

fn spoke_name(spoke: usize) -> PeerId {
    PeerId::new(format!("P{spoke}"))
}

/// One contended key and how the model says it ends.
#[derive(Debug, Clone)]
struct Hot {
    k: i64,
    /// The two contenders (spoke numbers, `a < b`) and their final values.
    a: usize,
    b: usize,
    va: i64,
    vb: i64,
    /// Whose write the hub ends up with: the higher tier's, or — same
    /// tier — `a`'s if the administrator resolved it, else nobody's.
    hub_winner: Option<usize>,
}

/// What the spokes publish in one cycle.
struct Plan {
    /// Per spoke (index 0 = spoke 1): its transactions, in publish order.
    txns: Vec<Vec<Vec<KvOp>>>,
    /// `(spoke, index of its hot chain's first transaction)` per conflict
    /// the hub administrator resolves this cycle.
    resolves: Vec<(usize, usize)>,
}

#[derive(Debug)]
struct StarGen {
    rng: Rng,
    /// Live own keys per spoke (index 0 = spoke 1), oldest first.
    own: Vec<VecDeque<(i64, i64)>>,
    next_own: Vec<i64>,
    next_hot: i64,
    /// Hot keys still alive, oldest cycle first.
    hot: VecDeque<Vec<Hot>>,
    hash: OpHash,
}

impl StarGen {
    fn new(seed: u64) -> StarGen {
        StarGen {
            rng: Rng::new(seed),
            own: vec![VecDeque::new(); SPOKES],
            next_own: (1..=SPOKES as i64).map(|s| s * 1_000_000_000).collect(),
            next_hot: 1_000_000_000_000,
            hot: VecDeque::new(),
            hash: OpHash::default(),
        }
    }

    fn value(&mut self) -> i64 {
        self.rng.below(1_000_000) as i64
    }

    fn record(&mut self, spoke: usize, txn: &[KvOp]) {
        self.hash.byte(spoke as u8);
        txn.iter().for_each(|op| self.hash.kv(*op));
    }

    /// Insert → modify → modify on one key: an antecedent chain of depth
    /// three. Returns the transactions and the final value.
    fn chain(&mut self, k: i64) -> (Vec<Vec<KvOp>>, i64) {
        let (v0, v1, v2) = (self.value(), self.value(), self.value());
        let txns = vec![
            vec![KvOp::Insert { k, v: v0 }],
            vec![KvOp::Modify {
                k,
                old: v0,
                new: v1,
            }],
            vec![KvOp::Modify {
                k,
                old: v1,
                new: v2,
            }],
        ];
        (txns, v2)
    }

    fn fresh_own(&mut self, spoke: usize) -> i64 {
        let k = self.next_own[spoke - 1];
        self.next_own[spoke - 1] += 1;
        k
    }

    /// Preload: one transaction of `OWN_PER_CYCLE` fresh own keys.
    fn preload_txn(&mut self, spoke: usize) -> Vec<KvOp> {
        let txn: Vec<KvOp> = (0..OWN_PER_CYCLE)
            .map(|_| {
                let (k, v) = (self.fresh_own(spoke), self.value());
                self.own[spoke - 1].push_back((k, v));
                KvOp::Insert { k, v }
            })
            .collect();
        self.record(spoke, &txn);
        txn
    }

    fn plan_cycle(&mut self) -> Plan {
        let mut txns: Vec<Vec<Vec<KvOp>>> = vec![Vec::new(); SPOKES];
        let mut resolves = Vec::new();
        // Hot keys first, so a contender's chain sits at a known index.
        let mut round = Vec::with_capacity(HOT_KEYS);
        for _ in 0..HOT_KEYS {
            let a = 1 + self.rng.below(SPOKES as u64) as usize;
            let mut b = 1 + self.rng.below(SPOKES as u64 - 1) as usize;
            if b >= a {
                b += 1;
            }
            let (a, b) = (a.min(b), a.max(b));
            let k = self.next_hot;
            self.next_hot += 1;
            let (chain_a, va) = self.chain(k);
            let (chain_b, vb) = self.chain(k);
            let same_tier = tier(a) == tier(b);
            // Every other same-tier conflict gets resolved.
            let resolve = same_tier && k % 2 == 0;
            let hub_winner = if !same_tier {
                Some(if tier(a) > tier(b) { a } else { b })
            } else {
                resolve.then_some(a)
            };
            if resolve {
                resolves.push((a, txns[a - 1].len()));
            }
            txns[a - 1].extend(chain_a);
            txns[b - 1].extend(chain_b);
            round.push(Hot {
                k,
                a,
                b,
                va,
                vb,
                hub_winner,
            });
        }
        self.hot.push_back(round);
        // Both contenders delete their copy of keys that reached the end
        // of their lifetime.
        if self.hot.len() > HOT_LIFETIME {
            for h in self.hot.pop_front().unwrap_or_default() {
                txns[h.a - 1].push(vec![KvOp::Delete { k: h.k, v: h.va }]);
                txns[h.b - 1].push(vec![KvOp::Delete { k: h.k, v: h.vb }]);
            }
        }
        for spoke in 1..=SPOKES {
            // One chained own key, two plain transactions of three, and
            // one transaction deleting as many of the oldest own keys.
            let k = self.fresh_own(spoke);
            let (chain, v) = self.chain(k);
            txns[spoke - 1].extend(chain);
            self.own[spoke - 1].push_back((k, v));
            for _ in 0..2 {
                let txn: Vec<KvOp> = (0..(OWN_PER_CYCLE - 1) / 2)
                    .map(|_| {
                        let (k, v) = (self.fresh_own(spoke), self.value());
                        self.own[spoke - 1].push_back((k, v));
                        KvOp::Insert { k, v }
                    })
                    .collect();
                txns[spoke - 1].push(txn);
            }
            let doomed: Vec<KvOp> = (0..OWN_PER_CYCLE)
                .filter_map(|_| self.own[spoke - 1].pop_front())
                .map(|(k, v)| KvOp::Delete { k, v })
                .collect();
            txns[spoke - 1].push(doomed);
        }
        for (i, spoke_txns) in txns.iter().enumerate() {
            for txn in spoke_txns {
                self.record(i + 1, txn);
            }
        }
        Plan { txns, resolves }
    }

    /// What `peer` (0 = hub, else the spoke number) must hold: every
    /// spoke's live own keys, plus of the live hot keys its own write (a
    /// contender keeps its own and rejects the other's), the hub's winner
    /// (the hub), or nothing (a bystander sees two equally trusted claims
    /// and defers both).
    fn expected(&self, peer: usize) -> BTreeMap<i64, i64> {
        let mut m: BTreeMap<i64, i64> = self.own.iter().flatten().copied().collect();
        for h in self.hot.iter().flatten() {
            let holder = if peer == 0 { h.hub_winner } else { Some(peer) };
            match holder {
                Some(s) if s == h.a => m.insert(h.k, h.va),
                Some(s) if s == h.b => m.insert(h.k, h.vb),
                _ => None,
            };
        }
        m
    }
}

pub struct Star {
    cdss: Cdss,
    gen: StarGen,
    hub: PeerId,
    spokes: Vec<PeerId>,
    archive: Arc<dyn UpdateStore>,
    setup_hash: u64,
}

impl Star {
    pub fn setup(cfg: &Config, rec: &mut Recorder, name: &str) -> Star {
        let archive: Arc<dyn UpdateStore> = Arc::new(InMemoryStore::new());
        let store = match &cfg.tracer {
            Some(t) => TimedStore::wrap(Arc::clone(&archive), t, Layer::Store),
            None => Arc::clone(&archive),
        };
        let mut hub_policy = TrustPolicy::open(1);
        for spoke in 1..=SPOKES {
            hub_policy = hub_policy.with(TrustCondition::peer(spoke_name(spoke), tier(spoke)));
        }
        let mut b = Cdss::builder()
            .eval_threads(1)
            .peer("Hub", kv_schema(), hub_policy);
        for spoke in 1..=SPOKES {
            b = b.peer(spoke_name(spoke).name(), kv_schema(), TrustPolicy::open(1));
        }
        for spoke in 1..=SPOKES {
            b = b
                .identity("Hub", spoke_name(spoke).name())
                .expect("hub and spokes share the kv schema");
        }
        let cdss = b.build_with_shared(store).expect("build star");
        let mut w = Star {
            cdss,
            gen: StarGen::new(seed_for(cfg.seed, name)),
            hub: PeerId::new("Hub"),
            spokes: (1..=SPOKES).map(spoke_name).collect(),
            archive,
            setup_hash: 0,
        };
        let preload_txns = cfg.scaled(PRELOAD_KEYS, 2 * OWN_PER_CYCLE) / OWN_PER_CYCLE;
        for spoke in 1..=SPOKES {
            let txns = (0..preload_txns)
                .map(|_| kv_updates(w.gen.preload_txn(spoke)))
                .collect();
            rec.publish(&mut w.cdss, &w.spokes[spoke - 1], txns);
        }
        w.reconcile_spokes_after_hub(rec, &[]);
        // Enough cycles for hot keys to start expiring before timing.
        for _ in 0..=HOT_LIFETIME {
            w.cycle(rec);
        }
        w.setup_hash = w.gen.hash.0;
        w
    }

    /// Hub reconciles, resolves the given conflicts, spokes reconcile.
    fn reconcile_spokes_after_hub(
        &mut self,
        rec: &mut Recorder,
        winners: &[orchestra_updates::TxnId],
    ) {
        rec.reconcile(&mut self.cdss, &self.hub, ExchangeOptions::default());
        for winner in winners {
            rec.resolve(&mut self.cdss, &self.hub, winner);
        }
        for p in &self.spokes {
            rec.reconcile(&mut self.cdss, p, ExchangeOptions::default());
        }
    }
}

impl Workload for Star {
    fn cycle(&mut self, rec: &mut Recorder) {
        let plan = self.gen.plan_cycle();
        let batches: Vec<Vec<Vec<Update>>> = plan
            .txns
            .into_iter()
            .map(|txns| txns.into_iter().map(kv_updates).collect())
            .collect();
        let start = Instant::now();
        let mut ids = Vec::with_capacity(SPOKES);
        for (p, txns) in self.spokes.iter().zip(batches) {
            ids.push(rec.publish(&mut self.cdss, p, txns).unwrap_or_default());
        }
        let winners: Vec<orchestra_updates::TxnId> = plan
            .resolves
            .iter()
            .filter_map(|&(spoke, at)| ids[spoke - 1].get(at).cloned())
            .collect();
        self.reconcile_spokes_after_hub(rec, &winners);
        rec.converged(start);
    }

    fn counters(&self) -> Counters {
        Counters::of_cdss(&self.cdss)
    }

    fn op_hash(&self) -> u64 {
        self.setup_hash
    }

    fn finish(self: Box<Self>, rec: &mut Recorder) -> Finish {
        let peers = std::iter::once(&self.hub).chain(&self.spokes);
        for (i, p) in peers.enumerate() {
            let got = kv_state(&self.cdss, p);
            let want = self.gen.expected(i);
            rec.check(got == want, || {
                let wrong = want.iter().filter(|(k, v)| got.get(k) != Some(v)).count()
                    + got.keys().filter(|k| !want.contains_key(k)).count();
                format!(
                    "{p} holds {} tuples, the op generator expects {} ({wrong} keys differ)",
                    got.len(),
                    want.len()
                )
            });
        }
        let replay = rec
            .tracer
            .is_some()
            .then(|| (ReplaySpec::of_cdss(&self.cdss), archive_of(&*self.archive)));
        Finish {
            replay,
            ..Finish::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> StarGen {
        let mut g = StarGen::new(seed);
        for spoke in 1..=SPOKES {
            for _ in 0..4 {
                g.preload_txn(spoke);
            }
        }
        for _ in 0..50 {
            g.plan_cycle();
        }
        g
    }

    #[test]
    fn same_seed_same_plan_and_instances_stay_flat() {
        assert_eq!(run(3).hash, run(3).hash);
        assert_ne!(run(3).hash, run(4).hash);
        let g = run(3);
        assert!(g.own.iter().all(|keys| keys.len() == 4 * OWN_PER_CYCLE));
        assert_eq!(g.hot.len(), HOT_LIFETIME);
    }

    #[test]
    fn a_contended_key_ends_where_the_trust_tiers_say() {
        let g = run(5);
        for h in g.hot.iter().flatten() {
            assert_eq!(g.expected(h.a).get(&h.k), Some(&h.va), "a keeps its own");
            assert_eq!(g.expected(h.b).get(&h.k), Some(&h.vb), "b keeps its own");
            let bystander = (1..=SPOKES).find(|s| *s != h.a && *s != h.b).unwrap();
            assert_eq!(g.expected(bystander).get(&h.k), None, "bystanders defer");
            let at_hub = g.expected(0).get(&h.k).copied();
            match tier(h.a).cmp(&tier(h.b)) {
                std::cmp::Ordering::Greater => assert_eq!(at_hub, Some(h.va)),
                std::cmp::Ordering::Less => assert_eq!(at_hub, Some(h.vb)),
                std::cmp::Ordering::Equal => {
                    assert_eq!(
                        at_hub,
                        (h.k % 2 == 0).then_some(h.va),
                        "every other resolved"
                    )
                }
            }
        }
    }
}
