//! `steady-chain` and `wire-chain`: a 4-peer chain of copy mappings in
//! steady state — small edits against a large, flat instance. The two
//! differ only in where the archive lives: in process, or behind a
//! loopback `PeerServer`.

use crate::gen::{seed_for, KvGen, KvOp};
use crate::run::{archive_of, Config, Counters, Finish, Recorder, ReplaySpec, Workload};
use crate::trace::{Layer, TimedStore};
use orchestra_core::{Cdss, CdssBuilder, ExchangeOptions};
use orchestra_datalog::Tgd;
use orchestra_net::{PeerServer, RemoteStore};
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, ValueType};
use orchestra_store::{InMemoryStore, UpdateStore};
use orchestra_updates::{PeerId, Update};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub const CHAIN_PEERS: usize = 4;
/// One curator edit: 8 transactions of 8 updates.
const TXNS_PER_CYCLE: usize = 8;
const UPDATES_PER_TXN: usize = 8;

/// The keyed `R(k, v)` schema every synthetic peer uses.
pub fn kv_schema() -> DatabaseSchema {
    DatabaseSchema::new("kv")
        .with_relation(
            RelationSchema::from_parts_keyed(
                "R",
                &[("k", ValueType::Int), ("v", ValueType::Int)],
                &["k"],
            )
            .expect("static schema"),
        )
        .expect("static schema")
}

pub fn peer_name(i: usize) -> PeerId {
    PeerId::new(format!("P{i}"))
}

/// `P0 → P1 → … → P(n-1)` over the kv schema, every peer trusting every
/// other, one evaluation thread (the load generator and the engine must
/// not compete for the host's cores).
pub fn chain_builder(n: usize) -> CdssBuilder {
    let mut b = Cdss::builder().eval_threads(1);
    for i in 0..n {
        b = b.peer(peer_name(i).name(), kv_schema(), TrustPolicy::open(1));
    }
    for i in 0..n - 1 {
        b = b.mapping(
            Tgd::identity(
                format!("M{i}->{}", i + 1),
                format!("P{i}.R"),
                format!("P{}.R", i + 1),
                2,
            )
            .expect("identity mapping over a static schema"),
        );
    }
    b
}

pub fn kv_updates(ops: Vec<KvOp>) -> Vec<Update> {
    ops.into_iter()
        .map(|op| match op {
            KvOp::Insert { k, v } => Update::insert("R", tuple![k, v]),
            KvOp::Modify { k, old, new } => Update::modify("R", tuple![k, old], tuple![k, new]),
            KvOp::Delete { k, v } => Update::delete("R", tuple![k, v]),
        })
        .collect()
}

/// A peer's `R`, as the model's map.
pub fn kv_state(cdss: &Cdss, peer: &PeerId) -> BTreeMap<i64, i64> {
    let Ok(rel) = cdss
        .peer(peer)
        .and_then(|p| Ok(p.instance().relation("R")?))
    else {
        return BTreeMap::new();
    };
    rel.iter()
        .filter_map(|t| Some((t[0].as_int()?, t[1].as_int()?)))
        .collect()
}

/// Keys per group: one steady-state transaction edits six of them and
/// swaps two more.
const GROUP: usize = 8;

/// One curator edit: 8 transactions of 8 updates, each inside one group.
pub fn edit_txns(gen: &mut KvGen) -> Vec<Vec<Update>> {
    (0..TXNS_PER_CYCLE)
        .map(|_| kv_updates(gen.mixed_txn(UPDATES_PER_TXN)))
        .collect()
}

/// The next preload publish: up to 128 fresh groups, one transaction
/// each, stopping once the instance holds `tuples`.
pub fn preload_txns(gen: &mut KvGen, tuples: usize) -> Vec<Vec<Update>> {
    let mut txns = Vec::new();
    while txns.len() < 128 && gen.live() < tuples {
        txns.push(kv_updates(gen.new_group_txn(GROUP)));
    }
    txns
}

pub fn updates_in(txns: &[Vec<Update>]) -> u64 {
    txns.iter().map(|t| t.len() as u64).sum()
}

/// Head publishes fresh groups until the chain holds `tuples`, then every
/// downstream peer catches up.
pub fn preload(
    rec: &mut Recorder,
    cdss: &mut Cdss,
    gen: &mut KvGen,
    peers: &[PeerId],
    tuples: usize,
    applied: &mut [u64],
) -> u64 {
    let mut published = 0u64;
    while gen.live() < tuples {
        let txns = preload_txns(gen, tuples);
        published += updates_in(&txns);
        rec.publish(cdss, &peers[0], txns);
    }
    for (i, p) in peers.iter().enumerate().skip(1) {
        if let Some(r) = rec.reconcile(cdss, p, ExchangeOptions::default()) {
            applied[i] += r.applied_updates as u64;
        }
    }
    published
}

/// The chain's output checks: head equals the generator's model, every
/// downstream peer equals the head, and every published update was
/// applied exactly once per receiving peer.
pub fn check_chain(
    rec: &mut Recorder,
    cdss: &Cdss,
    peers: &[PeerId],
    model: &BTreeMap<i64, i64>,
    published_updates: u64,
    applied: &[u64],
) {
    let head = kv_state(cdss, &peers[0]);
    rec.check(&head == model, || {
        format!(
            "head holds {} tuples, the op generator expects {}",
            head.len(),
            model.len()
        )
    });
    for (i, p) in peers.iter().enumerate().skip(1) {
        let state = kv_state(cdss, p);
        rec.check(state == head, || format!("{p} differs from the chain head"));
        rec.check(applied[i] == published_updates, || {
            format!(
                "{p} applied {} updates for {published_updates} published (duplicate or lost applies)",
                applied[i]
            )
        });
    }
}

pub struct Chain {
    cdss: Cdss,
    gen: KvGen,
    peers: Vec<PeerId>,
    published_updates: u64,
    applied: Vec<u64>,
    /// The archive itself (undecorated), for the replay's read-back.
    archive: Arc<dyn UpdateStore>,
    /// `wire-chain`: the loopback server and the client end.
    wire: Option<(PeerServer, Arc<RemoteStore>)>,
    setup_hash: u64,
}

impl Chain {
    /// Build, preload to `tuples`, and run two cycles so first-use costs
    /// (index builds, connection set-up) are paid before timing.
    pub fn setup(
        cfg: &Config,
        rec: &mut Recorder,
        name: &str,
        tuples: usize,
        over_wire: bool,
    ) -> Chain {
        let tracer = cfg.tracer.as_ref();
        let archive: Arc<dyn UpdateStore> = Arc::new(InMemoryStore::new());
        let served = match tracer {
            Some(t) => TimedStore::wrap(Arc::clone(&archive), t, Layer::Store),
            None => Arc::clone(&archive),
        };
        let (store, wire) = if over_wire {
            // Default serving threads: the closed loop has one request in
            // flight, so with the driver at most two threads are runnable.
            let server = PeerServer::bind("127.0.0.1:0", served).expect("bind loopback server");
            let remote = Arc::new(
                RemoteStore::connect(server.local_addr()).expect("connect to loopback server"),
            );
            let client: Arc<dyn UpdateStore> = remote.clone();
            let client = match tracer {
                Some(t) => TimedStore::wrap(client, t, Layer::Net),
                None => client,
            };
            (client, Some((server, remote)))
        } else {
            (served, None)
        };
        let cdss = chain_builder(CHAIN_PEERS)
            .build_with_shared(store)
            .expect("build chain");
        let mut w = Chain {
            cdss,
            gen: KvGen::new(seed_for(cfg.seed, name)),
            peers: (0..CHAIN_PEERS).map(peer_name).collect(),
            published_updates: 0,
            applied: vec![0; CHAIN_PEERS],
            archive,
            wire,
            setup_hash: 0,
        };
        w.published_updates += preload(
            rec,
            &mut w.cdss,
            &mut w.gen,
            &w.peers,
            tuples,
            &mut w.applied,
        );
        for _ in 0..2 {
            w.cycle(rec);
        }
        w.setup_hash = w.gen.hash.0;
        w
    }
}

impl Workload for Chain {
    fn cycle(&mut self, rec: &mut Recorder) {
        let txns = edit_txns(&mut self.gen);
        self.published_updates += updates_in(&txns);
        let start = Instant::now();
        rec.publish(&mut self.cdss, &self.peers[0], txns);
        for (i, p) in self.peers.iter().enumerate().skip(1) {
            if let Some(r) = rec.reconcile(&mut self.cdss, p, ExchangeOptions::default()) {
                self.applied[i] += r.applied_updates as u64;
            }
        }
        rec.converged(start);
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::of_cdss(&self.cdss);
        if let Some((_, remote)) = &self.wire {
            c.add_net(remote.net_stats());
        }
        c
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
        let replay = rec
            .tracer
            .is_some()
            .then(|| (ReplaySpec::of_cdss(&self.cdss), archive_of(&*self.archive)));
        let Chain { cdss, wire, .. } = *self;
        drop(cdss);
        if let Some((server, remote)) = wire {
            drop(remote);
            server.shutdown();
        }
        Finish {
            replay,
            ..Finish::default()
        }
    }
}
