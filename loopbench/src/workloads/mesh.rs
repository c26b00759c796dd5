//! `mesh-converge`: the chain spread over four in-process `MeshNode`s,
//! one peer each, every node with its own archive behind its own
//! `PeerServer`. The head's node publishes; the one driver thread then
//! runs gossip sweeps — each node in turn does one anti-entropy round
//! and reconciles its peer, which is `MeshNode::converge_step` taken
//! apart so its two halves can be timed — until every node's digest
//! matches. The only workload with `mesh` on the blocking path.

use super::chain::{
    chain_builder, edit_txns, kv_state, peer_name, preload_txns, updates_in, CHAIN_PEERS,
};
use crate::gen::{seed_for, KvGen};
use crate::run::{archive_of, Config, Count, Counters, Finish, Recorder, ReplaySpec, Workload};
use crate::stats::median;
use crate::trace::{Layer, TimedStore};
use orchestra_core::ExchangeOptions;
use orchestra_mesh::{MeshNode, MeshOptions};
use orchestra_store::{InMemoryStore, UpdateStore};
use orchestra_updates::{PeerId, Update};
use std::sync::Arc;
use std::time::Instant;

const PRELOAD_TUPLES: usize = 2_000;
/// Neighbor picks are seeded; a fixed seed keeps the gossip schedule the
/// same whatever `--seed` feeds the op generator.
const GOSSIP_SEED: u64 = 0x6d65_7368;
/// A publish that has not spread after this many sweeps is a failure.
const SWEEP_CAP: usize = 32;

pub struct Mesh {
    nodes: Vec<MeshNode>,
    /// Each node's archive, undecorated.
    archives: Vec<Arc<dyn UpdateStore>>,
    gen: KvGen,
    peers: Vec<PeerId>,
    published_updates: u64,
    applied: Vec<u64>,
    sweeps: Vec<f64>,
    setup_hash: u64,
}

impl Mesh {
    pub fn setup(cfg: &Config, rec: &mut Recorder, name: &str) -> Mesh {
        let peers: Vec<PeerId> = (0..CHAIN_PEERS).map(peer_name).collect();
        let mut nodes = Vec::with_capacity(CHAIN_PEERS);
        let mut archives = Vec::with_capacity(CHAIN_PEERS);
        for peer in &peers {
            let archive: Arc<dyn UpdateStore> = Arc::new(InMemoryStore::new());
            let store = match &cfg.tracer {
                Some(t) => TimedStore::wrap(Arc::clone(&archive), t, Layer::Store),
                None => Arc::clone(&archive),
            };
            // Every participant declares the whole chain; it hosts one peer.
            let cdss = chain_builder(CHAIN_PEERS)
                .build_with_shared(store)
                .expect("build chain");
            // Default fan-out and serving threads: with one request in
            // flight, at most one serving thread is runnable at a time.
            let opts = MeshOptions {
                seed: GOSSIP_SEED,
                ..MeshOptions::default()
            };
            let node =
                MeshNode::start_hosting(peer.name(), cdss, vec![peer.clone()], "127.0.0.1:0", opts)
                    .expect("start mesh node");
            nodes.push(node);
            archives.push(archive);
        }
        let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            for (j, addr) in addrs.iter().enumerate() {
                if i != j {
                    node.join(addr.as_str()).expect("join neighbor");
                }
            }
        }
        let mut w = Mesh {
            nodes,
            archives,
            gen: KvGen::new(seed_for(cfg.seed, name)),
            peers,
            published_updates: 0,
            applied: vec![0; CHAIN_PEERS],
            sweeps: Vec::new(),
            setup_hash: 0,
        };
        let tuples = cfg.scaled(PRELOAD_TUPLES, 100);
        while w.gen.live() < tuples {
            let txns = preload_txns(&mut w.gen, tuples);
            w.publish_and_converge(rec, txns);
        }
        for _ in 0..2 {
            w.cycle(rec);
        }
        w.sweeps.clear();
        w.setup_hash = w.gen.hash.0;
        w
    }

    /// Do all nodes hold the same archive? Only the head publishes, so
    /// equal lengths and newest epochs mean equal contents; the loop uses
    /// this instead of full digests, whose cost grows with the archive
    /// and would be the benchmark's own, not the mesh's. The output check
    /// at the end compares the digests themselves.
    fn converged(&self) -> bool {
        let mut marks = self.archives.iter().map(|a| (a.len(), a.latest_epoch()));
        let first = marks.next();
        marks.all(|m| Some(m) == first)
    }

    fn digests_match(&self) -> bool {
        let mut digests = self.archives.iter().map(|a| a.digest().ok());
        let first = digests.next().flatten();
        first.is_some() && digests.all(|d| d == first)
    }

    /// The head's node publishes, then sweeps run until every node holds
    /// what the head archived.
    fn publish_and_converge(&mut self, rec: &mut Recorder, txns: Vec<Vec<Update>>) {
        self.published_updates += updates_in(&txns);
        let start = Instant::now();
        rec.publish(self.nodes[0].cdss_mut(), &self.peers[0], txns);
        let mut sweeps = 0usize;
        while !self.converged() {
            if sweeps == SWEEP_CAP {
                rec.fail(format!("no convergence after {SWEEP_CAP} gossip sweeps"));
                break;
            }
            sweeps += 1;
            for (i, node) in self.nodes.iter_mut().enumerate() {
                let span = rec
                    .tracer
                    .as_ref()
                    .and_then(|t| t.enter(Layer::Mesh, "round"));
                let round = node.run_round();
                drop(span);
                if rec.on {
                    rec.attempted += 1;
                }
                match round {
                    Ok(r) if r.failures == 0 => {}
                    Ok(r) => rec.fail(format!("{} neighbor failures in a round", r.failures)),
                    Err(e) => rec.fail(format!("gossip round: {e}")),
                }
                let report =
                    rec.reconcile(node.cdss_mut(), &self.peers[i], ExchangeOptions::default());
                if let Some(r) = report {
                    self.applied[i] += r.applied_updates as u64;
                }
            }
        }
        rec.converged(start);
        if rec.on {
            self.sweeps.push(sweeps as f64);
        }
    }
}

impl Workload for Mesh {
    fn cycle(&mut self, rec: &mut Recorder) {
        let txns = edit_txns(&mut self.gen);
        self.publish_and_converge(rec, txns);
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for (node, peer) in self.nodes.iter().zip(&self.peers) {
            c.add_cdss(node.cdss(), std::slice::from_ref(peer));
            c.add_net(node.net_stats());
            let m = node.stats();
            c.bump(Count::MeshPulls, m.pulls);
            c.bump(Count::MeshAbsorbed, m.txns_absorbed);
            c.bump(Count::MeshDuplicates, m.duplicates);
        }
        c
    }

    fn op_hash(&self) -> u64 {
        self.setup_hash
    }

    fn finish(self: Box<Self>, rec: &mut Recorder) -> Finish {
        rec.check(self.digests_match(), || {
            "node digests differ after the last cycle".to_string()
        });
        // Every node's hosted peer, gathered into one view of the chain.
        let head = kv_state(self.nodes[0].cdss(), &self.peers[0]);
        rec.check(head == self.gen.model, || {
            format!(
                "head holds {} tuples, the op generator expects {}",
                head.len(),
                self.gen.model.len()
            )
        });
        for (i, (node, p)) in self.nodes.iter().zip(&self.peers).enumerate().skip(1) {
            rec.check(kv_state(node.cdss(), p) == head, || {
                format!("{p} differs from the chain head")
            });
            rec.check(self.applied[i] == self.published_updates, || {
                format!(
                    "{p} applied {} updates for {} published (duplicate or lost applies)",
                    self.applied[i], self.published_updates
                )
            });
        }
        let replay = rec.tracer.is_some().then(|| {
            (
                ReplaySpec::of_cdss(self.nodes[0].cdss()),
                archive_of(&*self.archives[0]),
            )
        });
        let rounds_to_converge = median(&self.sweeps).unwrap_or(0.0);
        for node in self.nodes {
            drop(node.shutdown());
        }
        Finish {
            replay,
            rounds_to_converge,
            ..Finish::default()
        }
    }
}
