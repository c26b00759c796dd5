//! E12 — the mesh cluster scenario: epidemic anti-entropy across real OS
//! processes.
//!
//! The parent (`e12_mesh_cluster`) spawns `children` copies of the
//! `experiments` binary in a hidden child mode (`e12_child_main`), each
//! hosting several [`MeshNode`]s — one simulated peer per node — and
//! drives them through a scripted scenario over a stdin/stdout line
//! protocol:
//!
//! 1. **publish + converge** — every peer publishes, gossip rounds run
//!    until every node's digest matches the expected per-relation counts
//!    (restricted to its interest set),
//! 2. **churn** — one child process is killed outright; survivors keep
//!    publishing and converging around the hole (dead-neighbor failures
//!    are counted, frozen cursors and all),
//! 3. **rejoin** — a fresh process takes the dead one's place on new
//!    ports; everyone re-wires membership and the cold rejoiner pulls
//!    its own lost history back out of the mesh.
//!
//! Peers are arranged in `nodes_per_child` mapping groups, each group a
//! chain of `R`-copy mappings across the processes, so interest-based
//! nodes replicate only their chain prefix (plus their private `S`)
//! while one archival node per process replicates everything. The
//! emitted `BENCH_e12.json` records convergence latency per phase and
//! bytes shipped per node — interest-based peers must ship strictly
//! less than full-replication peers.

use crate::json::{BenchReport, Json};
use orchestra_core::Cdss;
use orchestra_datalog::{Atom, Tgd};
use orchestra_mesh::{InterestMode, MeshNode, MeshOptions};
use orchestra_net::{RemoteOptions, RemoteStore};
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, ValueType};
use orchestra_store::{DurableStore, UpdateStore};
use orchestra_updates::{PeerId, Update};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per published transaction (bulk so payload bytes dominate the
/// digest chatter in the shipped-bytes comparison).
const ROWS_PER_TXN: u64 = 48;

/// Cluster geometry and workload knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Child OS processes.
    pub children: usize,
    /// Mesh nodes (= simulated peers) per child.
    pub nodes_per_child: usize,
    /// Transactions each peer publishes per publish phase (alternating
    /// its `R` and `S`).
    pub publish_txns: u64,
    /// Gossip round sweeps allowed per convergence phase.
    pub round_cap: usize,
    /// Scan positions per `PullPages` request.
    pub page_limit: u64,
    /// Deterministic base seed for neighbor selection.
    pub seed: u64,
}

impl ClusterConfig {
    /// The scenario sizes: 4 processes × 4 nodes = 16 simulated peers
    /// (smoke: 4 × 2 = 8, same shape, smaller workload).
    pub fn for_smoke(smoke: bool) -> ClusterConfig {
        ClusterConfig {
            children: 4,
            nodes_per_child: if smoke { 2 } else { 4 },
            publish_txns: if smoke { 4 } else { 6 },
            round_cap: 40,
            page_limit: 16,
            seed: 42,
        }
    }

    fn total_nodes(&self) -> usize {
        self.children * self.nodes_per_child
    }
}

/// Peer `n`'s name — also its mesh node name.
fn peer_name(n: usize) -> String {
    format!("p{n:02}")
}

/// Two keyed relations per peer; mappings only ever read `R`, so `S`
/// stays with its publisher (and the archival nodes) under derived
/// interest.
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

/// The global picture every participant declares: all peers, and per
/// mapping group `k` a chain of `R` copies across the processes
/// (`p[0*npc+k].R → p[1*npc+k].R → …`). Node `c*npc+k` lives on child
/// `c`, so every chain hop crosses a process boundary.
fn cluster_builder(cfg: &ClusterConfig) -> orchestra_core::CdssBuilder {
    let mut b = Cdss::builder();
    for n in 0..cfg.total_nodes() {
        b = b.peer(peer_name(n), schema(), TrustPolicy::open(1));
    }
    for k in 0..cfg.nodes_per_child {
        for c in 1..cfg.children {
            b = b.mapping(copy_r(
                &peer_name((c - 1) * cfg.nodes_per_child + k),
                &peer_name(c * cfg.nodes_per_child + k),
            ));
        }
    }
    b
}

/// The durable archive directory of child `child_idx`'s archival node
/// (its node 0) when the child runs as process `pid`.
fn archive_dir(pid: u32, child_idx: usize) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("orchestra-e12-{pid}-{child_idx}-0"))
}

fn cluster_remote_opts() -> RemoteOptions {
    RemoteOptions {
        connect_timeout: Duration::from_millis(400),
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        // No retries: a gossip round that cannot reach a child counts a
        // neighbor failure and the next round tries again. A killed
        // child's port refuses the connect at once on loopback, so the
        // short connect timeout is only paid against a host that drops
        // packets.
        retries: 0,
    }
}

// ---------------------------------------------------------------------
// Child half
// ---------------------------------------------------------------------

struct ChildNode {
    node: MeshNode,
    peer: PeerId,
    /// `Some` for the archival node: its durable archive's directory,
    /// removed at `STOP`.
    durable_dir: Option<std::path::PathBuf>,
    /// Monotone publish counter → unique row keys per peer.
    pub_seq: u64,
}

impl ChildNode {
    fn mode(&self) -> &'static str {
        if self.node.interest().is_empty() {
            "full"
        } else {
            "interest"
        }
    }
}

/// The hidden child mode: host `nodes_per_child` mesh nodes and obey
/// the parent's line protocol on stdin/stdout. Args (all positional):
/// `child_idx children nodes_per_child publish_txns page_limit seed`.
pub fn e12_child_main(args: &[String]) {
    let num = |i: usize| -> u64 { args[i].parse().expect("e12 child arg") };
    let child_idx = num(0) as usize;
    let cfg = ClusterConfig {
        children: num(1) as usize,
        nodes_per_child: num(2) as usize,
        publish_txns: num(3),
        round_cap: 0, // parent-side knob only
        page_limit: num(4),
        seed: num(5),
    };

    let mut nodes: Vec<ChildNode> = Vec::new();
    for k in 0..cfg.nodes_per_child {
        let global = child_idx * cfg.nodes_per_child + k;
        let name = peer_name(global);
        // One archival (full-replication, durable) node per process;
        // the rest replicate their interest closure in memory.
        let archival = k == 0;
        let opts = MeshOptions {
            fanout: 3,
            page_limit: cfg.page_limit,
            seed: cfg.seed,
            interest: if archival {
                InterestMode::Everything
            } else {
                InterestMode::Derived
            },
            remote: cluster_remote_opts(),
            ..MeshOptions::default()
        };
        let builder = cluster_builder(&cfg);
        let (cdss, durable_dir) = if archival {
            let dir = archive_dir(std::process::id(), child_idx);
            let _ = std::fs::remove_dir_all(&dir);
            let store: Arc<dyn UpdateStore> =
                Arc::new(DurableStore::open(&dir).expect("open durable archive"));
            (
                builder.build_with_shared(store).expect("build cdss"),
                Some(dir),
            )
        } else {
            (builder.build().expect("build cdss"), None)
        };
        let node = MeshNode::start_hosting(
            name.clone(),
            cdss,
            vec![PeerId::new(name.clone())],
            "127.0.0.1:0",
            opts,
        )
        .expect("start mesh node");
        nodes.push(ChildNode {
            node,
            peer: PeerId::new(name),
            durable_dir,
            pub_seq: 0,
        });
    }

    let stdout = std::io::stdout();
    let reply = |line: String| {
        let mut out = stdout.lock();
        writeln!(out, "{line}").expect("child stdout");
        out.flush().expect("child stdout flush");
    };

    let ready: Vec<String> = nodes
        .iter()
        .map(|cn| format!("{}={}", cn.node.name(), cn.node.addr()))
        .collect();
    reply(format!("READY {}", ready.join(" ")));

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.expect("child stdin");
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("TOPO") => {
                let members: BTreeMap<&str, &str> = parts
                    .map(|p| p.split_once('=').expect("TOPO name=addr"))
                    .collect();
                for cn in &mut nodes {
                    let own = cn.node.name().to_string();
                    let want: Vec<&str> = members
                        .iter()
                        .filter(|(name, _)| **name != own)
                        .map(|(_, addr)| *addr)
                        .collect();
                    for stale in cn.node.neighbors() {
                        if !want.contains(&stale.as_str()) {
                            cn.node.leave(&stale);
                        }
                    }
                    for addr in want {
                        cn.node.join(addr).expect("join neighbor");
                    }
                }
                reply("OK".to_string());
            }
            Some("PUBLISH") => {
                let n: u64 = parts.next().unwrap().parse().unwrap();
                let mut counts: BTreeMap<String, u64> = BTreeMap::new();
                for cn in &mut nodes {
                    for t in 0..n {
                        let rel = if t % 2 == 0 { "R" } else { "S" };
                        let base = (cn.pub_seq * ROWS_PER_TXN) as i64;
                        cn.pub_seq += 1;
                        let updates: Vec<Update> = (0..ROWS_PER_TXN)
                            .map(|j| {
                                Update::insert(rel, tuple![base + j as i64, cn.pub_seq as i64])
                            })
                            .collect();
                        cn.node
                            .cdss_mut()
                            .publish_transaction(&cn.peer, updates)
                            .expect("publish");
                        *counts
                            .entry(format!("{}.{rel}", cn.peer.name()))
                            .or_insert(0) += 1;
                    }
                }
                let body: Vec<String> =
                    counts.iter().map(|(rel, c)| format!("{rel}={c}")).collect();
                reply(format!("PUBLISHED {}", body.join(" ")));
            }
            Some("ROUND") => {
                let (mut absorbed, mut failures, mut dups) = (0u64, 0u64, 0u64);
                for cn in &mut nodes {
                    let r = cn.node.run_round().expect("gossip round");
                    absorbed += r.absorbed;
                    failures += r.failures as u64;
                    dups += r.duplicates;
                }
                reply(format!(
                    "ROUNDED absorbed={absorbed} failures={failures} dups={dups}"
                ));
            }
            Some("CHECK") => {
                let expected: Vec<(String, u64)> = parts
                    .map(|p| {
                        let (rel, c) = p.split_once('=').expect("CHECK rel=count");
                        (rel.to_string(), c.parse().unwrap())
                    })
                    .collect();
                let mut converged = 0usize;
                for cn in &nodes {
                    let digest = cn.node.archive().digest().expect("local digest");
                    let interest = cn.node.interest();
                    let mut ok = true;
                    for (rel, count) in expected
                        .iter()
                        .filter(|(rel, _)| interest.is_empty() || interest.iter().any(|r| r == rel))
                    {
                        let got = digest.relation_txns(rel);
                        if got != *count {
                            ok = false;
                            if std::env::var_os("E12_DEBUG").is_some() {
                                eprintln!(
                                    "e12 debug: {} lacks {rel}: {got}/{count}",
                                    cn.node.name()
                                );
                            }
                        }
                    }
                    converged += ok as usize;
                }
                reply(format!("CONV {converged}/{}", nodes.len()));
            }
            Some("STATS") => {
                for cn in &nodes {
                    let s = cn.node.stats();
                    let served = cn.node.server_stats();
                    let net = cn.node.net_stats();
                    reply(format!(
                        "STAT name={} mode={} len={} sent={} recv={} pulls={} \
                         absorbed={} dups={} skipped={} failures={} rounds={} interest={} \
                         served_digests={} served_pulls={}",
                        cn.node.name(),
                        cn.mode(),
                        cn.node.archive().len(),
                        net.bytes_sent,
                        net.bytes_received,
                        s.pulls,
                        s.txns_absorbed,
                        s.duplicates,
                        s.skipped_positions,
                        s.neighbor_failures,
                        s.rounds,
                        cn.node.interest().len(),
                        served.digests_served,
                        served.pull_pages,
                    ));
                }
                reply("END".to_string());
            }
            Some("STOP") => {
                for cn in nodes.drain(..) {
                    drop(cn.node.shutdown());
                    if let Some(dir) = &cn.durable_dir {
                        let _ = std::fs::remove_dir_all(dir);
                    }
                }
                reply("BYE".to_string());
                return;
            }
            _ => panic!("e12 child: unknown command {line:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Parent half
// ---------------------------------------------------------------------

struct ChildProc {
    idx: usize,
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// node name → served address, from the child's READY line.
    addrs: BTreeMap<String, String>,
}

impl ChildProc {
    fn spawn(idx: usize, cfg: &ClusterConfig) -> ChildProc {
        let exe = std::env::current_exe().expect("current_exe");
        let mut child = Command::new(exe)
            .arg("--e12-child")
            .args(
                [
                    idx,
                    cfg.children,
                    cfg.nodes_per_child,
                    cfg.publish_txns as usize,
                    cfg.page_limit as usize,
                    cfg.seed as usize,
                ]
                .map(|v| v.to_string()),
            )
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn e12 child");
        let stdin = child.stdin.take().unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).expect("child READY");
        let mut addrs = BTreeMap::new();
        let mut parts = line.split_whitespace();
        assert_eq!(parts.next(), Some("READY"), "child {idx}: {line:?}");
        for pair in parts {
            let (name, addr) = pair.split_once('=').expect("READY name=addr");
            addrs.insert(name.to_string(), addr.to_string());
        }
        ChildProc {
            idx,
            child,
            stdin,
            stdout,
            addrs,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("child stdin");
        self.stdin.flush().expect("child stdin flush");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("child reply");
        assert!(!line.is_empty(), "child {} died mid-protocol", self.idx);
        line.trim().to_string()
    }

    /// SIGKILL the child. It never gets `STOP`, its own cleanup, so
    /// its archive directory is removed here.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(archive_dir(self.child.id(), self.idx));
    }
}

/// Send `line` to every child, then collect one reply line from each —
/// the children run the command concurrently across processes.
fn command_all(children: &mut [ChildProc], line: &str) -> Vec<String> {
    for c in children.iter_mut() {
        c.send(line);
    }
    children.iter_mut().map(|c| c.recv()).collect()
}

/// `key=value` pairs from a reply tail.
fn kv_pairs(reply: &str) -> BTreeMap<String, String> {
    reply
        .split_whitespace()
        .filter_map(|p| p.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Broadcast the full membership to every live child.
fn broadcast_topo(children: &mut [ChildProc]) {
    let members: Vec<String> = children
        .iter()
        .flat_map(|c| c.addrs.iter().map(|(n, a)| format!("{n}={a}")))
        .collect();
    let line = format!("TOPO {}", members.join(" "));
    for reply in command_all(children, &line) {
        assert_eq!(reply, "OK");
    }
}

/// One publish phase: every live peer publishes, and the expectation
/// table absorbs the per-relation counts.
fn publish_phase(children: &mut [ChildProc], txns: u64, expected: &mut BTreeMap<String, u64>) {
    let line = format!("PUBLISH {txns}");
    for reply in command_all(children, &line) {
        for (rel, count) in kv_pairs(&reply) {
            *expected.entry(rel).or_insert(0) += count.parse::<u64>().unwrap();
        }
    }
}

/// What one convergence phase measured.
struct Convergence {
    rounds: usize,
    millis: f64,
    failures: u64,
    converged: bool,
}

/// Run gossip round sweeps until every node's digest matches the
/// expectation table (restricted to its interest), or the cap is hit.
fn converge(
    children: &mut [ChildProc],
    expected: &BTreeMap<String, u64>,
    cap: usize,
) -> Convergence {
    let check_line = format!(
        "CHECK {}",
        expected
            .iter()
            .map(|(rel, c)| format!("{rel}={c}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let start = Instant::now();
    let mut failures = 0u64;
    for round in 1..=cap {
        for reply in command_all(children, "ROUND") {
            let kv = kv_pairs(&reply);
            failures += kv["failures"].parse::<u64>().unwrap();
        }
        let done = command_all(children, &check_line).iter().all(|reply| {
            let frac = reply.strip_prefix("CONV ").expect("CONV reply");
            let (got, want) = frac.split_once('/').unwrap();
            got == want
        });
        if done {
            return Convergence {
                rounds: round,
                millis: start.elapsed().as_secs_f64() * 1e3,
                failures,
                converged: true,
            };
        }
    }
    Convergence {
        rounds: cap,
        millis: start.elapsed().as_secs_f64() * 1e3,
        failures,
        converged: false,
    }
}

/// E12 — run the full cluster scenario and report it.
pub fn e12_mesh_cluster(smoke: bool, variant: &str) -> BenchReport {
    let cfg = ClusterConfig::for_smoke(smoke);
    println!("── E12: mesh cluster — epidemic exchange across OS processes ──");
    println!(
        "{} processes × {} nodes = {} simulated peers (archival node per process; page limit {})",
        cfg.children,
        cfg.nodes_per_child,
        cfg.total_nodes(),
        cfg.page_limit,
    );

    let run_start = Instant::now();
    let mut children: Vec<ChildProc> = (0..cfg.children)
        .map(|i| ChildProc::spawn(i, &cfg))
        .collect();
    broadcast_topo(&mut children);
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();

    // Phase 1: everyone publishes; gossip to full convergence.
    publish_phase(&mut children, cfg.publish_txns, &mut expected);
    let initial = converge(&mut children, &expected, cfg.round_cap);
    println!(
        "  initial convergence: {} round sweeps, {:.0} ms (failures {})",
        initial.rounds, initial.millis, initial.failures
    );

    // Phase 2: churn — kill the last child process outright; the
    // survivors publish and converge around the hole.
    let dead = children.pop().unwrap();
    let dead_idx = dead.idx;
    dead.kill();
    publish_phase(&mut children, cfg.publish_txns, &mut expected);
    let churn = converge(&mut children, &expected, cfg.round_cap);
    println!(
        "  churn convergence ({} survivors): {} round sweeps, {:.0} ms, {} dead-neighbor failures",
        children.len() * cfg.nodes_per_child,
        churn.rounds,
        churn.millis,
        churn.failures
    );
    assert!(
        churn.failures > 0,
        "killing a process produced no observed neighbor failures"
    );

    // Phase 3: rejoin — a cold replacement process takes the dead one's
    // slot on fresh ports; everyone re-wires, and the rejoiner pulls its
    // own lost history back out of the mesh.
    children.push(ChildProc::spawn(dead_idx, &cfg));
    broadcast_topo(&mut children);
    let rejoin = converge(&mut children, &expected, cfg.round_cap + 20);
    println!(
        "  rejoin convergence: {} round sweeps, {:.0} ms (failures {})",
        rejoin.rounds, rejoin.millis, rejoin.failures
    );

    // Collect per-node stats and shut the cluster down.
    let mut report = BenchReport::new("e12", variant, smoke);
    let total_secs = run_start.elapsed().as_secs_f64().max(1e-9);
    let published_txns: u64 = expected.values().sum();
    let mut bytes_by_mode: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let (mut total_pulls, mut total_absorbed, mut total_dups) = (0u64, 0u64, 0u64);
    for c in children.iter_mut() {
        c.send("STATS");
        loop {
            let line = c.recv();
            if line == "END" {
                break;
            }
            let kv = kv_pairs(&line);
            let num = |key: &str| kv[key].parse::<u64>().unwrap();
            bytes_by_mode
                .entry(kv["mode"].clone())
                .or_default()
                .push(num("recv"));
            total_pulls += num("pulls");
            total_absorbed += num("absorbed");
            total_dups += num("dups");
            report.row([
                ("node", Json::from(kv["name"].as_str())),
                ("process", Json::from(c.idx)),
                ("mode", Json::from(kv["mode"].as_str())),
                ("archive_len", Json::from(num("len"))),
                ("bytes_sent", Json::from(num("sent"))),
                ("bytes_received", Json::from(num("recv"))),
                ("pulls", Json::from(num("pulls"))),
                ("absorbed", Json::from(num("absorbed"))),
                ("duplicates", Json::from(num("dups"))),
                ("skipped_positions", Json::from(num("skipped"))),
                ("neighbor_failures", Json::from(num("failures"))),
                ("gossip_rounds", Json::from(num("rounds"))),
                ("interest_relations", Json::from(num("interest"))),
                ("served_digests", Json::from(num("served_digests"))),
                ("served_pulls", Json::from(num("served_pulls"))),
                (
                    "tuples_per_sec",
                    Json::from(num("absorbed") as f64 * ROWS_PER_TXN as f64 / total_secs),
                ),
            ]);
        }
    }
    // Wire-level cluster introspection: pull one registry snapshot per
    // child process through the METRICS opcode (every node of a
    // process shares its process-global registry, so one poll per
    // process avoids double counting). The polling itself exercises the
    // parent-side net client, so the block's own `net_events` moves too.
    let mut cluster_nodes_polled = 0u64;
    let (mut cluster_pages_pulled, mut cluster_server_requests) = (0u64, 0u64);
    for c in children.iter() {
        let Some(addr) = c.addrs.values().next() else {
            continue;
        };
        let snap = RemoteStore::connect_with(addr, cluster_remote_opts())
            .and_then(|remote| remote.metrics());
        let Ok(snap) = snap else { continue };
        cluster_nodes_polled += 1;
        for (name, value) in &snap.counters {
            match name.as_str() {
                "mesh.round.pages_pulled" => cluster_pages_pulled += value,
                "server.requests" => cluster_server_requests += value,
                _ => {}
            }
        }
    }
    let mut obs = crate::json::obs_block();
    if let Json::Obj(fields) = &mut obs {
        fields.insert(
            "cluster_nodes_polled".into(),
            Json::from(cluster_nodes_polled),
        );
        fields.insert(
            "cluster_pages_pulled".into(),
            Json::from(cluster_pages_pulled),
        );
        fields.insert(
            "cluster_server_requests".into(),
            Json::from(cluster_server_requests),
        );
    }
    for c in children.iter_mut() {
        c.send("STOP");
        assert_eq!(c.recv(), "BYE");
    }
    for mut c in children {
        let _ = c.child.wait();
    }

    let avg = |mode: &str| -> f64 {
        let v = &bytes_by_mode[mode];
        v.iter().sum::<u64>() as f64 / v.len() as f64
    };
    let (full_avg, interest_avg) = (avg("full"), avg("interest"));
    let full_min = *bytes_by_mode["full"].iter().min().unwrap();
    let interest_max = *bytes_by_mode["interest"].iter().max().unwrap();
    println!(
        "  bytes pulled per node: full-replication avg {:.0}, interest avg {:.0} ({:.1}× less)",
        full_avg,
        interest_avg,
        full_avg / interest_avg.max(1.0),
    );
    assert!(
        interest_avg < full_avg,
        "interest-based nodes must ship strictly less than full-replication nodes \
         ({interest_avg:.0} vs {full_avg:.0})"
    );

    report.tuples_per_sec = published_txns as f64 * ROWS_PER_TXN as f64 / total_secs;
    report.summary_extra("processes", cfg.children);
    report.summary_extra("sim_peers", cfg.total_nodes());
    report.summary_extra("full_nodes", bytes_by_mode.get("full").map_or(0, Vec::len));
    report.summary_extra(
        "interest_nodes",
        bytes_by_mode.get("interest").map_or(0, Vec::len),
    );
    report.summary_extra("published_txns", published_txns);
    report.summary_extra(
        "converged",
        initial.converged && churn.converged && rejoin.converged,
    );
    report.summary_extra("converge_rounds_initial", initial.rounds);
    report.summary_extra("converge_ms_initial", initial.millis);
    report.summary_extra("converge_rounds_churn", churn.rounds);
    report.summary_extra("converge_ms_churn", churn.millis);
    report.summary_extra("converge_rounds_rejoin", rejoin.rounds);
    report.summary_extra("converge_ms_rejoin", rejoin.millis);
    report.summary_extra("churn_failures", churn.failures);
    report.summary_extra("bytes_recv_full_avg", full_avg);
    report.summary_extra("bytes_recv_interest_avg", interest_avg);
    report.summary_extra("bytes_recv_full_min", full_min);
    report.summary_extra("bytes_recv_interest_max", interest_max);
    report.summary_extra("bytes_ratio", full_avg / interest_avg.max(1.0));
    report.summary_extra("absorbed_txns", total_absorbed);
    report.summary_extra("duplicate_txns", total_dups);
    report.summary_extra("store_pages", total_pulls);
    report.summary_extra("store_unavailable", 0u64);
    report.summary_extra("obs", obs);
    assert!(
        report.to_json().get("summary").unwrap().get("converged") == Some(&Json::Bool(true)),
        "cluster failed to converge (initial={} churn={} rejoin={})",
        initial.converged,
        churn.converged,
        rejoin.converged
    );
    println!();
    report
}
