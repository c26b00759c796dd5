//! `bulk-durable`: the chain over a `DurableStore`, used the other way
//! round from `steady-chain` — the delta is as large as the instance. The
//! head publishes 256-update batches, each inserting two fresh groups and
//! deleting the two oldest; downstream peers catch up every 20 batches,
//! page by page, by which time the whole instance has been replaced.

use super::chain::{
    chain_builder, check_chain, kv_state, kv_updates, peer_name, updates_in, CHAIN_PEERS,
};
use crate::gen::{seed_for, KvGen};
use crate::run::{archive_of, Config, Counters, Finish, Recorder, ReplaySpec, Workload};
use crate::trace::{Layer, TimedStore};
use orchestra_core::{Cdss, ExchangeOptions};
use orchestra_store::{DurableOptions, DurableStore, SyncPolicy, UpdateStore};
use orchestra_updates::{PeerId, Update};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One batch: 4 transactions of 64 updates — two insert a fresh group
/// each, two delete the oldest group each, so every batch (and every
/// catch-up) is the same mix and the instance stays at its preload size.
const GROUPS_PER_BATCH: usize = 2;
const UPDATES_PER_TXN: usize = 64;
/// Downstream catches up after this many batches…
const BATCHES_PER_CYCLE: usize = 20;
/// …in pages of this many transactions, so a catch-up is several pages.
const PAGE_LIMIT: usize = 16;

fn durable_options() -> DurableOptions {
    DurableOptions {
        sync_policy: SyncPolicy::EveryN(64),
        ..DurableOptions::default()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub struct Bulk {
    cdss: Cdss,
    gen: KvGen,
    peers: Vec<PeerId>,
    published_updates: u64,
    applied: Vec<u64>,
    store: Arc<DurableStore>,
    dir: PathBuf,
    batches_per_cycle: usize,
    setup_hash: u64,
}

impl Bulk {
    /// Open an empty archive, build the chain over it, fill it with as
    /// many groups as one cycle replaces, and run one cycle so the log and
    /// every index exist before timing.
    pub fn setup(cfg: &Config, rec: &mut Recorder, name: &str) -> Bulk {
        let dir = cfg.work_dir.join("archive");
        let store =
            Arc::new(DurableStore::open_with(&dir, durable_options()).expect("open archive"));
        let shared: Arc<dyn UpdateStore> = store.clone();
        let shared = match &cfg.tracer {
            Some(t) => TimedStore::wrap(shared, t, Layer::Store),
            None => shared,
        };
        let cdss = chain_builder(CHAIN_PEERS)
            .build_with_shared(shared)
            .expect("build chain");
        let mut w = Bulk {
            cdss,
            gen: KvGen::new(seed_for(cfg.seed, name)),
            peers: (0..CHAIN_PEERS).map(peer_name).collect(),
            published_updates: 0,
            applied: vec![0; CHAIN_PEERS],
            store,
            dir,
            batches_per_cycle: cfg.scaled(BATCHES_PER_CYCLE, 2),
            setup_hash: 0,
        };
        for _ in 0..w.batches_per_cycle {
            let txns: Vec<Vec<Update>> = (0..2 * GROUPS_PER_BATCH)
                .map(|_| kv_updates(w.gen.new_group_txn(UPDATES_PER_TXN)))
                .collect();
            w.published_updates += updates_in(&txns);
            rec.publish(&mut w.cdss, &w.peers[0], txns);
        }
        w.cycle(rec);
        w.setup_hash = w.gen.hash.0;
        w
    }
}

impl Workload for Bulk {
    /// The head publishes its batches, then every downstream peer
    /// catches up.
    fn cycle(&mut self, rec: &mut Recorder) {
        let start = Instant::now();
        for _ in 0..self.batches_per_cycle {
            let mut txns: Vec<Vec<Update>> = Vec::with_capacity(2 * GROUPS_PER_BATCH);
            for _ in 0..GROUPS_PER_BATCH {
                txns.push(kv_updates(self.gen.new_group_txn(UPDATES_PER_TXN)));
                txns.push(kv_updates(self.gen.drop_oldest_group_txn()));
            }
            self.published_updates += updates_in(&txns);
            rec.publish(&mut self.cdss, &self.peers[0], txns);
        }
        let opts = ExchangeOptions {
            page_limit: PAGE_LIMIT,
            ..ExchangeOptions::default()
        };
        for (i, p) in self.peers.iter().enumerate().skip(1) {
            if let Some(r) = rec.reconcile(&mut self.cdss, p, opts) {
                self.applied[i] += r.applied_updates as u64;
            }
        }
        rec.converged(start);
    }

    fn counters(&self) -> Counters {
        Counters::of_cdss(&self.cdss)
    }

    fn op_hash(&self) -> u64 {
        self.setup_hash
    }

    fn finish(self: Box<Self>, rec: &mut Recorder) -> Finish {
        check_chain(
            rec,
            &self.cdss,
            &self.peers,
            &self.gen.model,
            self.published_updates,
            &self.applied,
        );
        let tail = &self.peers[CHAIN_PEERS - 1];
        let live_tail = kv_state(&self.cdss, tail);
        let replay = rec
            .tracer
            .is_some()
            .then(|| (ReplaySpec::of_cdss(&self.cdss), archive_of(&*self.store)));
        // Every tuple written or deleted carries two 8-byte ints.
        let user_bytes = self.published_updates * 16;

        // Close everything, reopen the archive from disk, and rebuild the
        // tail peer from the archive alone.
        let Bulk {
            cdss, store, dir, ..
        } = *self;
        drop(cdss);
        if let Err(e) = store.sync() {
            rec.fail(format!("sync before close: {e}"));
        }
        drop(store);
        let disk_bytes = dir_bytes(&dir);
        let t0 = Instant::now();
        let reopened = DurableStore::open_with(&dir, durable_options());
        let reopen_s = t0.elapsed().as_secs_f64();
        match reopened {
            Ok(store) => {
                let mut fresh = chain_builder(CHAIN_PEERS)
                    .build_with_store(Box::new(store))
                    .expect("build chain over the reopened archive");
                let rebuilt = fresh.reconcile(tail).map(|_| kv_state(&fresh, tail));
                rec.check(rebuilt.as_ref().ok() == Some(&live_tail), || {
                    format!("{tail} rebuilt from the archive alone differs from the live peer")
                });
            }
            Err(e) => rec.check(false, || format!("reopen archive: {e}")),
        }
        Finish {
            replay,
            reopen_s,
            disk_bytes_per_user_byte: disk_bytes as f64 / user_bytes.max(1) as f64,
            ..Finish::default()
        }
    }
}
