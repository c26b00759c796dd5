//! E13 — the fault-injection cluster: gossip, corrupt, heal, converge.
//!
//! One process, many [`MeshNode`]s over real loopback sockets (the
//! failpoint registry is process-global, so unlike E12 the whole
//! cluster lives in a single process and every node shares the
//! deterministic fault schedule). The scenario:
//!
//! 1. **publish** — every peer publishes its transactions, faults off,
//! 2. **gossip under fire** — a scoped failpoint config injects
//!    exchange aborts, wire bit-flips on both client and server sends,
//!    abandoned responses, torn WAL appends, and fsync failures while
//!    the mesh gossips; every injection is counted,
//! 3. **converge clean** — faults off, rounds run until every archive
//!    holds every transaction,
//! 4. **bit rot + heal** — a byte is flipped in a sealed WAL segment of
//!    every node but one; `scrub()` quarantines the damaged positions,
//!    and gossip rounds repair them from intact neighbors with
//!    checksum-verified frames (re-indexed, never re-applied),
//! 5. **churn** — one node is shut down; survivors count neighbor
//!    failures against the dead address, drop it from the membership,
//!    publish more, and converge through a wave of mid-frame connection
//!    cuts; a cold replacement then joins on a fresh port/dir and pulls
//!    the full history out of the mesh,
//! 6. **audit** — every node reconciles its hosted peer repeatedly;
//!    the accepted-transaction sets are checked for duplicates.
//!
//! `BENCH_e13.json` records `faults_injected` (> 0), `quarantined` ==
//! `healed`, `duplicate_applies` == 0, and `converged` == true: the
//! cluster absorbs deterministic corruption at every layer and ends
//! byte-identical, with no transaction applied twice to any peer
//! instance.

use crate::json::{BenchReport, Json};
use orchestra_core::Cdss;
use orchestra_datalog::{Atom, Tgd};
use orchestra_mesh::{InterestMode, MeshNode, MeshOptions};
use orchestra_net::RemoteOptions;
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, ValueType};
use orchestra_store::durable::segment::{list_segments, segment_file_name};
use orchestra_store::{DurableOptions, DurableStore, UpdateStore};
use orchestra_updates::{PeerId, TxnId, Update};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per published transaction.
const ROWS_PER_TXN: u64 = 4;

/// Failpoint schedule for the gossip-under-fire phase: faults at every
/// injection layer the framework wires — mesh round, client wire,
/// server wire, WAL append, WAL fsync.
const FIRE_SPEC: &str = "mesh.exchange=err@0.12,net.client.send=flip@0.05,\
                         net.client.recv=err@0.04,net.server.send=flip@0.04,\
                         store.wal.append=torn@0.04,store.wal.fsync=err@0.04";

/// Failpoint schedule for the churn phase: mid-frame connection cuts
/// while survivors gossip around the hole.
const CUT_SPEC: &str = "net.client.send=cut@0.25";

/// Scenario knobs.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Mesh nodes (one hosted peer each).
    pub nodes: usize,
    /// Transactions each peer publishes in the initial phase.
    pub publish_txns: u64,
    /// Transactions each survivor publishes during churn.
    pub churn_txns: u64,
    /// Gossip sweeps run with the fire-phase failpoints active.
    pub fire_sweeps: usize,
    /// Sweep cap per convergence/heal phase.
    pub round_cap: usize,
    /// Deterministic seed: failpoint PRNG + mesh neighbor selection.
    pub seed: u64,
}

impl FaultConfig {
    /// Full scenario: 5 nodes; smoke: 3 nodes, smaller workload.
    pub fn for_smoke(smoke: bool) -> FaultConfig {
        FaultConfig {
            nodes: if smoke { 3 } else { 5 },
            publish_txns: if smoke { 5 } else { 16 },
            churn_txns: if smoke { 3 } else { 6 },
            fire_sweeps: if smoke { 5 } else { 10 },
            round_cap: 60,
            seed: 1307,
        }
    }
}

fn peer_name(n: usize) -> String {
    format!("f{n:02}")
}

fn schema() -> DatabaseSchema {
    DatabaseSchema::new("kv")
        .with_relation(
            RelationSchema::from_parts_keyed(
                "R",
                &[("k", ValueType::Int), ("v", ValueType::Int)],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap()
        .with_relation(
            RelationSchema::from_parts_keyed(
                "S",
                &[("k", ValueType::Int), ("v", ValueType::Int)],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap()
}

fn copy_r(src: &str, dst: &str) -> Tgd {
    Tgd::new(
        format!("M{src}->{dst}/R"),
        vec![Atom::vars(format!("{src}.R"), &["k", "v"])],
        vec![Atom::vars(format!("{dst}.R"), &["k", "v"])],
    )
    .unwrap()
}

/// Global mapping picture: all peers, `R` copied along the peer chain.
fn cluster_builder(nodes: usize) -> orchestra_core::CdssBuilder {
    let mut b = Cdss::builder();
    for n in 0..nodes {
        b = b.peer(peer_name(n), schema(), TrustPolicy::open(1));
    }
    for n in 1..nodes {
        b = b.mapping(copy_r(&peer_name(n - 1), &peer_name(n)));
    }
    b
}

/// Two retries per request, so the injected wire faults exercise the
/// client's retry path and its publish witness read-back.
fn remote_opts() -> RemoteOptions {
    RemoteOptions {
        connect_timeout: Duration::from_millis(300),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        retries: 2,
    }
}

struct FaultNode {
    node: MeshNode,
    peer: PeerId,
    durable: Arc<DurableStore>,
    dir: std::path::PathBuf,
    pub_seq: u64,
    /// Every transaction id this node's peer instance ever accepted —
    /// the zero-duplicate-applies ledger.
    applied: BTreeSet<TxnId>,
    duplicate_applies: u64,
}

/// Start mesh node `n` on a fresh durable archive (tiny segments, so
/// even the smoke run seals several — the bit-rot phase needs sealed
/// segments to chew on).
fn start_node(n: usize, total: usize, cfg: &FaultConfig, tag: &str) -> FaultNode {
    let name = peer_name(n);
    let dir =
        std::env::temp_dir().join(format!("orchestra-e13-{}-{tag}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = Arc::new(
        DurableStore::open_with(
            &dir,
            DurableOptions {
                segment_max_bytes: 600,
                ..DurableOptions::default()
            },
        )
        .expect("open durable archive"),
    );
    let shared: Arc<dyn UpdateStore> = Arc::clone(&durable) as Arc<dyn UpdateStore>;
    let cdss = cluster_builder(total)
        .build_with_shared(shared)
        .expect("build cdss");
    let node = MeshNode::start_hosting(
        format!("{name}{tag}"),
        cdss,
        vec![PeerId::new(name.clone())],
        "127.0.0.1:0",
        MeshOptions {
            // Fanout covers the whole clique so every neighbor —
            // including a dead one — is contacted every round.
            fanout: total,
            page_limit: 8,
            seed: cfg.seed,
            interest: InterestMode::Everything,
            remote: remote_opts(),
            ..MeshOptions::default()
        },
    )
    .expect("start mesh node");
    FaultNode {
        node,
        peer: PeerId::new(name),
        durable,
        dir,
        pub_seq: 0,
        applied: BTreeSet::new(),
        duplicate_applies: 0,
    }
}

fn publish(fnode: &mut FaultNode, txns: u64) {
    for t in 0..txns {
        let rel = if t % 2 == 0 { "R" } else { "S" };
        let base = (fnode.pub_seq * ROWS_PER_TXN) as i64;
        fnode.pub_seq += 1;
        let updates: Vec<Update> = (0..ROWS_PER_TXN)
            .map(|j| Update::insert(rel, tuple![base + j as i64, fnode.pub_seq as i64]))
            .collect();
        fnode
            .node
            .cdss_mut()
            .publish_transaction(&fnode.peer, updates)
            .expect("publish");
    }
}

/// One gossip sweep across the cluster. Locally-surfacing injected
/// faults (torn appends, failed fsyncs during absorb) abort a node's
/// round; they are counted, and the next sweep retries — the archive's
/// append rollback + first-location dedup make the retry safe.
fn sweep(nodes: &mut [FaultNode]) -> (u64, u64, u64) {
    let (mut absorbed, mut failures, mut local_aborts) = (0u64, 0u64, 0u64);
    for fnode in nodes.iter_mut() {
        match fnode.node.run_round() {
            Ok(r) => {
                absorbed += r.absorbed;
                failures += r.failures as u64;
            }
            Err(_) => local_aborts += 1,
        }
    }
    (absorbed, failures, local_aborts)
}

/// Sweep until every archive holds `expected` transactions (len counts
/// quarantined positions, so this is also heal-safe) or the cap hits.
fn converge(nodes: &mut [FaultNode], expected: u64, cap: usize) -> (usize, bool) {
    for round in 0..cap {
        if nodes
            .iter()
            .all(|f| f.node.archive().len() as u64 == expected)
        {
            return (round, true);
        }
        if std::env::var_os("E13_DEBUG").is_some() {
            for f in nodes.iter() {
                eprintln!(
                    "e13 debug: round {round} {} len={} (want {expected}) q={} cursors={:?}",
                    f.node.name(),
                    f.node.archive().len(),
                    f.node.archive().quarantined().len(),
                    f.node
                        .neighbors()
                        .iter()
                        .map(|a| (
                            a.clone(),
                            f.node.neighbor_cursor(a).is_some(),
                            f.node.neighbor_error(a).is_some()
                        ))
                        .collect::<Vec<_>>(),
                );
            }
        }
        sweep(nodes);
    }
    let ok = nodes
        .iter()
        .all(|f| f.node.archive().len() as u64 == expected);
    (cap, ok)
}

/// Reconcile every node's hosted peer `passes` times, extending each
/// node's accepted-id ledger and counting re-applies (must stay 0).
fn audit(nodes: &mut [FaultNode], passes: usize) {
    for _ in 0..passes {
        for fnode in nodes.iter_mut() {
            let report = fnode
                .node
                .cdss_mut()
                .reconcile(&fnode.peer)
                .expect("reconcile");
            for id in &report.outcome.accepted {
                if !fnode.applied.insert(id.clone()) {
                    fnode.duplicate_applies += 1;
                }
            }
        }
    }
}

/// Flip one byte in the middle of the node's first sealed WAL segment.
fn bit_rot(fnode: &FaultNode) {
    let mut seqs = list_segments(&fnode.dir).expect("list segments");
    seqs.sort_unstable();
    assert!(
        seqs.len() >= 2,
        "{}: need a sealed segment to corrupt ({} present)",
        fnode.node.name(),
        seqs.len()
    );
    let path = fnode.dir.join(segment_file_name(seqs[0]));
    let mut bytes = std::fs::read(&path).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, bytes).expect("rot segment");
}

/// Run E13 and return the report (written to `BENCH_e13.json` by the
/// harness when `--json-dir` is set).
pub fn e13_fault_cluster(smoke: bool, variant: &str) -> BenchReport {
    let cfg = FaultConfig::for_smoke(smoke);
    let mut report = BenchReport::new("e13", variant, smoke);
    let started = Instant::now();

    println!(
        "\nE13 — fault injection + self-healing ({} nodes, seed {})",
        cfg.nodes, cfg.seed
    );

    let mut nodes: Vec<FaultNode> = (0..cfg.nodes)
        .map(|n| start_node(n, cfg.nodes, &cfg, ""))
        .collect();
    let addrs: Vec<String> = nodes.iter().map(|f| f.node.addr().to_string()).collect();
    for (i, fnode) in nodes.iter_mut().enumerate() {
        for (j, addr) in addrs.iter().enumerate() {
            if i != j {
                fnode.node.join(addr.clone()).expect("join");
            }
        }
    }

    // 1. Publish, faults off — publishing through the CDSS under write
    // faults would burn sequence numbers on failure (the archive write
    // happens after local ingest), so injected WAL faults target the
    // gossip absorb path, which retries safely.
    for fnode in nodes.iter_mut() {
        publish(fnode, cfg.publish_txns);
    }
    let initial_total = cfg.nodes as u64 * cfg.publish_txns;

    // 2. Gossip under fire.
    let mut local_aborts = 0u64;
    let mut fire_failures = 0u64;
    let fire_injected;
    {
        let _guard = orchestra_fault::scoped(FIRE_SPEC, cfg.seed);
        for _ in 0..cfg.fire_sweeps {
            let (_, failures, aborts) = sweep(&mut nodes);
            fire_failures += failures;
            local_aborts += aborts;
        }
        fire_injected = orchestra_fault::injected_total();
        for site in orchestra_fault::report() {
            println!(
                "  injected {:>3}× {} ({:?})",
                site.fired, site.site, site.action
            );
        }
    }
    println!(
        "  fire phase: {} faults injected, {} neighbor failures, {} local aborts",
        fire_injected, fire_failures, local_aborts
    );

    // 3. Converge clean.
    let (clean_rounds, clean_ok) = converge(&mut nodes, initial_total, cfg.round_cap);
    println!("  converged clean in {clean_rounds} rounds (all {initial_total} txns everywhere)");
    assert!(clean_ok, "cluster failed to converge after the fire phase");
    audit(&mut nodes, 1);

    // 4. Bit rot + scrub + heal: every node but f00 loses part of a
    // sealed segment; f00 stays intact so every position has a clean
    // source. Quarantined positions gossip as gaps and are re-fetched.
    let mut quarantined_total = 0u64;
    for fnode in nodes.iter().skip(1) {
        bit_rot(fnode);
        let scrub = fnode.durable.scrub().expect("scrub");
        quarantined_total += scrub.quarantined as u64;
    }
    assert!(quarantined_total > 0, "bit rot produced no quarantine");
    let healed_before: u64 = nodes.iter().map(|f| f.node.stats().healed).sum();
    let mut heal_rounds = 0usize;
    while nodes
        .iter()
        .any(|f| !f.node.archive().quarantined().is_empty())
    {
        assert!(heal_rounds < cfg.round_cap, "heal did not complete");
        sweep(&mut nodes);
        heal_rounds += 1;
    }
    let healed_total: u64 =
        nodes.iter().map(|f| f.node.stats().healed).sum::<u64>() - healed_before;
    println!(
        "  bit rot: {quarantined_total} positions quarantined, {healed_total} healed from the mesh in {heal_rounds} rounds"
    );
    assert_eq!(
        healed_total, quarantined_total,
        "every quarantined position must heal"
    );

    // 5. Churn: the last node dies. Survivors fail to reach the dead
    // address, drop it, publish more, and converge through a wave of
    // injected connection cuts; a cold replacement then rejoins.
    let dead = nodes.pop().expect("cluster has nodes");
    let dead_addr = dead.node.addr().to_string();
    let dead_row = node_row(&dead, started);
    let dead_dir = dead.dir.clone();
    drop(dead.node.shutdown());
    drop(dead.durable);

    let neighbor_failures = |nodes: &[FaultNode]| -> u64 {
        nodes.iter().map(|f| f.node.stats().neighbor_failures).sum()
    };
    let failures_before = neighbor_failures(&nodes);
    let dead_sweeps = Instant::now();
    for _ in 0..3 {
        sweep(&mut nodes); // dead neighbor still in the membership
    }
    let dead_sweeps_ms = dead_sweeps.elapsed().as_secs_f64() * 1e3;
    let churn_neighbor_failures = neighbor_failures(&nodes) - failures_before;
    for fnode in nodes.iter_mut() {
        fnode.node.leave(&dead_addr);
    }
    for fnode in nodes.iter_mut() {
        publish(fnode, cfg.churn_txns);
    }
    let cut_injected;
    {
        let _guard = orchestra_fault::scoped(CUT_SPEC, cfg.seed + 1);
        for _ in 0..3 {
            sweep(&mut nodes);
        }
        cut_injected = orchestra_fault::injected_total();
    }
    let final_total = initial_total + (cfg.nodes as u64 - 1) * cfg.churn_txns;
    let (churn_rounds, churn_ok) = converge(&mut nodes, final_total, cfg.round_cap);
    assert!(churn_ok, "survivors failed to converge around the hole");

    let mut replacement = start_node(cfg.nodes - 1, cfg.nodes, &cfg, "r");
    let _ = std::fs::remove_dir_all(&dead_dir);
    for addr in nodes.iter().map(|f| f.node.addr().to_string()) {
        replacement.node.join(addr).expect("replacement joins");
    }
    let replacement_addr = replacement.node.addr().to_string();
    for fnode in nodes.iter_mut() {
        fnode.node.join(replacement_addr.clone()).expect("rejoin");
    }
    nodes.push(replacement);
    let (rejoin_rounds, rejoin_ok) = converge(&mut nodes, final_total, cfg.round_cap);
    println!(
        "  churn: {churn_neighbor_failures} neighbor failures against the dead node \
         in 3 sweeps ({dead_sweeps_ms:.1} ms); \
         {cut_injected} cuts injected; survivors converged in {churn_rounds} rounds, \
         cold replacement in {rejoin_rounds}"
    );
    assert!(rejoin_ok, "replacement failed to pull the full history");

    // 6. Audit: repeated reconciles accept nothing twice.
    audit(&mut nodes, 2);
    let duplicate_applies: u64 = nodes.iter().map(|f| f.duplicate_applies).sum();
    let converged = nodes
        .iter()
        .all(|f| f.node.archive().len() as u64 == final_total);
    println!(
        "  audit: {} nodes at {final_total} txns, {duplicate_applies} duplicate applies",
        nodes.len()
    );

    let faults_injected = fire_injected + cut_injected;
    let served_corrupt: u64 = nodes
        .iter()
        .map(|f| f.node.server_stats().corrupt_frames)
        .sum();

    report.row(dead_row);
    for fnode in &nodes {
        report.row(node_row(fnode, started));
    }
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    report.tuples_per_sec = final_total as f64 * ROWS_PER_TXN as f64 / secs;
    report.rounds =
        (cfg.fire_sweeps + clean_rounds + heal_rounds + churn_rounds + rejoin_rounds) as u64;
    report.summary_extra("nodes", cfg.nodes);
    report.summary_extra("failpoint_seed", cfg.seed);
    report.summary_extra("faults_injected", faults_injected);
    report.summary_extra("fire_local_aborts", local_aborts);
    report.summary_extra("fire_neighbor_failures", fire_failures);
    report.summary_extra("quarantined", quarantined_total);
    report.summary_extra("healed", healed_total);
    report.summary_extra("heal_rounds", heal_rounds);
    report.summary_extra("duplicate_applies", duplicate_applies);
    report.summary_extra("converged", converged);
    report.summary_extra("published_txns", final_total);
    report.summary_extra("churn_neighbor_failures", churn_neighbor_failures);
    report.summary_extra("served_corrupt_frames", served_corrupt);
    let total_pulls: u64 = nodes.iter().map(|f| f.node.stats().pulls).sum();
    report.summary_extra("store_pages", total_pulls);
    // Quarantined positions were wire-visible gaps until healed.
    report.summary_extra("store_unavailable", quarantined_total);
    report.summary_extra("converge_rounds_clean", clean_rounds);
    report.summary_extra("converge_rounds_churn", churn_rounds);
    report.summary_extra("converge_rounds_rejoin", rejoin_rounds);

    for fnode in nodes.drain(..) {
        let dir = fnode.dir.clone();
        drop(fnode.node.shutdown());
        drop(fnode.durable);
        let _ = std::fs::remove_dir_all(dir);
    }

    report
}

/// One `rows[]` entry for a node's final counters.
fn node_row(fnode: &FaultNode, started: Instant) -> Vec<(&'static str, Json)> {
    let stats = fnode.node.stats();
    let served = fnode.node.server_stats();
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    vec![
        ("node", Json::from(fnode.node.name().to_string())),
        ("seed", Json::from(fnode.node.seed())),
        ("len", Json::from(fnode.node.archive().len())),
        (
            "tuples_per_sec",
            Json::Num(fnode.node.archive().len() as f64 * ROWS_PER_TXN as f64 / secs),
        ),
        ("absorbed", Json::from(stats.txns_absorbed)),
        ("duplicates", Json::from(stats.duplicates)),
        ("healed", Json::from(stats.healed)),
        ("pulls", Json::from(stats.pulls)),
        ("neighbor_failures", Json::from(stats.neighbor_failures)),
        ("served_corrupt_frames", Json::from(served.corrupt_frames)),
        ("served_timed_out_conns", Json::from(served.timed_out_conns)),
        ("duplicate_applies", Json::from(fnode.duplicate_applies)),
    ]
}
