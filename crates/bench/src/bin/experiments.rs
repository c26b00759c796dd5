//! The experiment harness: regenerates every table/figure of the
//! reproduction (DESIGN.md §3, results recorded in EXPERIMENTS.md).
//!
//! Usage:
//! ```text
//! cargo run --release -p orchestra-bench --bin experiments              # all
//! cargo run --release -p orchestra-bench --bin experiments -- e4 e6    # some
//! cargo run --release -p orchestra-bench --bin experiments -- \
//!     e1 e4 e7 --json-dir . --variant interned                          # emit BENCH_*.json
//! cargo run --release -p orchestra-bench --bin experiments -- \
//!     e1 --smoke --json-dir target/bench                                # CI smoke
//! cargo run --release -p orchestra-bench --bin experiments -- \
//!     --bind 0.0.0.0:7654                                               # serve an archive
//! cargo run --release -p orchestra-bench --bin experiments -- \
//!     e10 --connect peer-a:7654                                         # E10 vs a real peer
//! ```
//!
//! With `--json-dir`, experiments E1/E4/E7/E8/E10/E11/E12/E13 additionally
//! write machine-readable `BENCH_*.json` (tuples/sec, semi-naive rounds,
//! rule firings, paged fetch + availability counters, thread-scaling
//! speedups and stats-parity flags, mesh-cluster convergence latency +
//! bytes shipped, and a peak-RSS proxy); `--smoke` shrinks the workloads
//! for CI, `--variant <tag>` labels the run (e.g. `paged` vs
//! `interned`). E12 spawns child OS processes of this same binary (a
//! hidden `--e12-child` mode) to run the gossiping mesh across real
//! process boundaries.

use orchestra_bench::json::{BenchReport, Json};
use orchestra_bench::*;
use orchestra_core::demo;
use orchestra_datalog::{DeletionAlgorithm, Engine, EngineStats, EvalOptions};
use orchestra_net::{PeerServer, RemoteOptions, RemoteStore};
use orchestra_provenance::{Boolean, Counting, Semiring, Tropical};
use orchestra_reconcile::{Reconciler, TrustPolicy};
use orchestra_relational::tuple;
use orchestra_store::{
    CacheMode, DurableOptions, DurableStore, FetchCursor, ReplicatedStore, SyncPolicy, UpdateStore,
};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use std::path::PathBuf;
use std::sync::Arc;

/// Harness configuration parsed from the command line.
pub struct Opts {
    names: Vec<String>,
    /// Reduced workloads for CI smoke runs.
    pub smoke: bool,
    /// Where to write `BENCH_*.json` (omitted → tables only).
    pub json_dir: Option<PathBuf>,
    /// Run tag recorded in the JSON (`interned`, `paged`, …).
    pub variant: String,
    /// Serve an archive over TCP at this address instead of running
    /// experiments (the server half of a two-process E10).
    pub bind: Option<String>,
    /// Run E10 against an already-running peer server at this address
    /// instead of spawning loopback threads.
    pub connect: Option<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut opts = Opts {
            names: Vec::new(),
            smoke: false,
            json_dir: None,
            variant: "dev".to_string(),
            bind: None,
            connect: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" => opts.smoke = true,
                "--json-dir" => {
                    opts.json_dir = Some(PathBuf::from(
                        it.next().expect("--json-dir needs a path").clone(),
                    ))
                }
                "--variant" => {
                    opts.variant = it.next().expect("--variant needs a tag").clone();
                }
                "--bind" => {
                    opts.bind = Some(it.next().expect("--bind needs an address").clone());
                }
                "--connect" => {
                    opts.connect = Some(it.next().expect("--connect needs an address").clone());
                }
                name => opts.names.push(name.to_string()),
            }
        }
        opts
    }

    fn want(&self, name: &str) -> bool {
        self.names.is_empty() || self.names.iter().any(|a| a.eq_ignore_ascii_case(name))
    }

    fn emit(&self, report: &BenchReport) {
        if let Some(dir) = &self.json_dir {
            let path = report.write_to(dir).expect("write BENCH json");
            println!("  → wrote {}", path.display());
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Hidden child mode: one process of the E12 mesh cluster, driven by
    // the parent over stdin/stdout. Checked before option parsing so the
    // positional child arguments never collide with experiment names.
    if args.first().map(String::as_str) == Some("--e12-child") {
        orchestra_bench::mesh_cluster::e12_child_main(&args[1..]);
        return;
    }

    let opts = Opts::parse(&args);

    if let Some(addr) = &opts.bind {
        serve_archive(addr);
        return;
    }

    println!("Orchestra CDSS reproduction — experiment harness");
    println!("(shapes, not absolute numbers, are the reproduction target; see EXPERIMENTS.md)\n");

    if opts.want("e1") {
        e1_end_to_end(&opts);
    }
    if opts.want("e2") {
        e2_bionetwork();
    }
    if opts.want("e3") {
        e3_scenarios();
    }
    if opts.want("e4") {
        e4_incremental(&opts);
    }
    if opts.want("e5") {
        e5_prov_overhead();
    }
    if opts.want("e6") {
        e6_deletion();
    }
    if opts.want("e7") {
        e7_reconcile(&opts);
    }
    if opts.want("e8") {
        e8_store(&opts);
    }
    if opts.want("e9") {
        e9_semiring();
    }
    if opts.want("e10") {
        e10_network(&opts);
    }
    if opts.want("e11") {
        e11_threads(&opts);
    }
    if opts.want("e12") {
        let report = orchestra_bench::mesh_cluster::e12_mesh_cluster(opts.smoke, &opts.variant);
        opts.emit(&report);
    }
    if opts.want("e13") {
        let report = orchestra_bench::fault_cluster::e13_fault_cluster(opts.smoke, &opts.variant);
        opts.emit(&report);
    }
}

/// `--bind`: run the server half of a two-process E10 — an empty
/// in-memory archive served over TCP until the process is killed. The
/// client half runs `experiments e10 --connect <this address>` on any
/// machine that can reach it.
fn serve_archive(addr: &str) {
    let server = PeerServer::bind(addr, Arc::new(orchestra_store::InMemoryStore::new()))
        .unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
    println!(
        "serving an in-memory archive at {} (protocol v{}) — ctrl-c to stop",
        server.local_addr(),
        orchestra_net::PROTOCOL_VERSION
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Sum the translation-engine stats over all peers of a CDSS.
fn cdss_engine_stats(cdss: &orchestra_core::Cdss) -> EngineStats {
    let mut total = EngineStats::default();
    for id in cdss.peer_ids() {
        total += cdss.peer(&id).unwrap().engine_stats();
    }
    total
}

/// E1 — Figure 1 architecture: end-to-end publish→translate→reconcile
/// epochs over chain and star topologies.
pub fn e1_end_to_end(opts: &Opts) -> BenchReport {
    println!("── E1: end-to-end update exchange (Fig. 1 architecture) ──");
    println!(
        "{:<10} {:>6} {:>9} {:>12} {:>14} {:>12}",
        "topology", "peers", "updates", "publish ms", "reconcile ms", "tuples/s"
    );
    let mut report = BenchReport::new("e1", &opts.variant, opts.smoke);
    let (chain_peers, chain_updates): (&[usize], &[usize]) = if opts.smoke {
        (&[2], &[32])
    } else {
        (&[2, 4, 8], &[64, 256])
    };
    let (mut total_tuples, mut total_secs) = (0f64, 0f64);
    let (mut store_pages, mut store_unavailable) = (0u64, 0u64);
    let mut agg = EngineStats::default();
    for &peers in chain_peers {
        for &updates in chain_updates {
            // Chain: publish at head, reconcile down the chain.
            let mut cdss = chain_cdss(peers);
            let head = PeerId::new("P0");
            let (_, t_pub) = timed(|| publish_inserts(&mut cdss, &head, 0, updates, 8));
            let (_, t_rec) = timed(|| {
                for i in 1..peers {
                    cdss.reconcile(&PeerId::new(format!("P{i}"))).unwrap();
                }
            });
            let tail_tuples = peer_total(&cdss, &format!("P{}", peers - 1));
            assert_eq!(tail_tuples, updates, "all updates reach the chain tail");
            let sst = cdss.stats().store;
            store_pages += sst.pages;
            store_unavailable += sst.unavailable;
            let stats = cdss_engine_stats(&cdss);
            agg.index_probes += stats.index_probes;
            // Symbol count is a gauge of one CDSS, not a flow: take the
            // largest configuration rather than summing across runs.
            agg.interner_symbols = agg.interner_symbols.max(stats.interner_symbols);
            agg.interner_hits += stats.interner_hits;
            let delivered = (updates * peers) as f64;
            let secs = (t_pub + t_rec).as_secs_f64();
            let tps = delivered / secs.max(1e-9);
            total_tuples += delivered;
            total_secs += secs;
            report.rounds += stats.rounds;
            report.firings += stats.firings;
            report.row([
                ("topology", Json::from("chain")),
                ("peers", Json::from(peers)),
                ("updates", Json::from(updates)),
                ("publish_ms", Json::Num(t_pub.as_secs_f64() * 1e3)),
                ("reconcile_ms", Json::Num(t_rec.as_secs_f64() * 1e3)),
                ("tuples_per_sec", Json::Num(tps)),
                ("rounds", Json::from(stats.rounds)),
                ("firings", Json::from(stats.firings)),
            ]);
            println!(
                "{:<10} {:>6} {:>9} {:>12} {:>14} {:>12.0}",
                "chain",
                peers,
                updates,
                ms(t_pub),
                ms(t_rec),
                tps
            );
        }
    }
    let star_peers: &[usize] = if opts.smoke { &[4] } else { &[4, 8] };
    let star_updates = if opts.smoke { 32usize } else { 128 };
    for &peers in star_peers {
        let updates = star_updates;
        let mut cdss = star_cdss(peers);
        let (_, t_pub) = timed(|| {
            for i in 1..peers {
                publish_inserts(
                    &mut cdss,
                    &PeerId::new(format!("P{i}")),
                    (i as i64) * 10_000,
                    updates / (peers - 1),
                    8,
                );
            }
        });
        let (_, t_rec) = timed(|| {
            cdss.reconcile(&PeerId::new("Hub")).unwrap();
            for i in 1..peers {
                cdss.reconcile(&PeerId::new(format!("P{i}"))).unwrap();
            }
        });
        let sst = cdss.stats().store;
        store_pages += sst.pages;
        store_unavailable += sst.unavailable;
        let stats = cdss_engine_stats(&cdss);
        agg.index_probes += stats.index_probes;
        agg.interner_symbols = agg.interner_symbols.max(stats.interner_symbols);
        agg.interner_hits += stats.interner_hits;
        let delivered: f64 = cdss
            .peer_ids()
            .iter()
            .map(|id| peer_total(&cdss, id.name()) as f64)
            .sum();
        let secs = (t_pub + t_rec).as_secs_f64();
        let tps = delivered / secs.max(1e-9);
        total_tuples += delivered;
        total_secs += secs;
        report.rounds += stats.rounds;
        report.firings += stats.firings;
        report.row([
            ("topology", Json::from("star")),
            ("peers", Json::from(peers)),
            ("updates", Json::from(updates)),
            ("publish_ms", Json::Num(t_pub.as_secs_f64() * 1e3)),
            ("reconcile_ms", Json::Num(t_rec.as_secs_f64() * 1e3)),
            ("tuples_per_sec", Json::Num(tps)),
            ("rounds", Json::from(stats.rounds)),
            ("firings", Json::from(stats.firings)),
        ]);
        println!(
            "{:<10} {:>6} {:>9} {:>12} {:>14} {:>12.0}",
            "star",
            peers,
            updates,
            ms(t_pub),
            ms(t_rec),
            tps
        );
    }
    println!();
    report.tuples_per_sec = total_tuples / total_secs.max(1e-9);
    report.summary_extra("index_probes", agg.index_probes);
    report.summary_extra("interner_symbols", agg.interner_symbols);
    report.summary_extra("interner_hits", agg.interner_hits);
    report.summary_extra("store_pages", store_pages);
    report.summary_extra("store_unavailable", store_unavailable);
    opts.emit(&report);
    report
}

/// E2 — Figure 2 network: the bioinformatics CDSS under growing load.
fn e2_bionetwork() {
    println!("── E2: Figure 2 bioinformatics network ──");
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>12}",
        "seqs", "publish ms", "dresden ms", "crete ms", "ops rows"
    );
    for &n in &[16usize, 64, 256, 1024] {
        let (mut cdss, t_pub) = timed(|| bio_cdss_seeded(n));
        let dresden = PeerId::new("Dresden");
        let crete = PeerId::new("Crete");
        let (_, t_d) = timed(|| cdss.reconcile(&dresden).unwrap());
        let (_, t_c) = timed(|| cdss.reconcile(&crete).unwrap());
        let ops = cdss
            .peer(&dresden)
            .unwrap()
            .instance()
            .relation("OPS")
            .unwrap()
            .len();
        assert_eq!(ops, n, "every sequence joins into one OPS row");
        println!(
            "{:>8} {:>12} {:>14} {:>14} {:>12}",
            n,
            ms(t_pub),
            ms(t_d),
            ms(t_c),
            ops
        );
    }
    println!();
}

/// E3 — §4 scenarios: a pass/fail table (the full assertions live in
/// tests/demo_scenarios.rs; this reruns the library-level checks).
fn e3_scenarios() {
    println!("── E3: demonstration scenarios (§4) ──");
    type Check = (&'static str, fn() -> bool);
    let checks: [Check; 5] = [
        ("1: Alaska↔Dresden translation", scenario1_ok),
        ("2: priority rejection + cascade", scenario2_ok),
        ("3: distrusted antecedent pulled in", scenario3_ok),
        ("4: deferral + manual resolution", scenario4_ok),
        ("5: offline publisher, archived updates", scenario5_ok),
    ];
    for (name, f) in checks {
        println!(
            "  scenario {name:<42} {}",
            if f() { "PASS" } else { "FAIL" }
        );
    }
    println!();
}

fn scenario1_ok() -> bool {
    let mut cdss = demo::figure2().unwrap();
    cdss.publish_transaction(
        &PeerId::new("Alaska"),
        vec![
            Update::insert("O", tuple!["HIV", 1]),
            Update::insert("P", tuple!["gp120", 2]),
            Update::insert("S", tuple![1, 2, "MRV"]),
        ],
    )
    .unwrap();
    cdss.reconcile(&PeerId::new("Dresden")).unwrap();
    cdss.peer(&PeerId::new("Dresden"))
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap()
        .contains(&tuple!["HIV", "gp120", "MRV"])
}

fn scenario2_ok() -> bool {
    let mut cdss = demo::figure2().unwrap();
    cdss.publish_transaction(
        &PeerId::new("Beijing"),
        vec![
            Update::insert("O", tuple!["HIV", 1]),
            Update::insert("P", tuple!["gp120", 2]),
            Update::insert("S", tuple![1, 2, "B"]),
        ],
    )
    .unwrap();
    let d1 = cdss
        .publish_transaction(
            &PeerId::new("Dresden"),
            vec![Update::insert("OPS", tuple!["HIV", "gp120", "D"])],
        )
        .unwrap();
    let r = cdss.reconcile(&PeerId::new("Crete")).unwrap();
    let first = r.outcome.rejected.contains(&d1);
    let d2 = cdss
        .publish_transaction(
            &PeerId::new("Dresden"),
            vec![Update::modify(
                "OPS",
                tuple!["HIV", "gp120", "D"],
                tuple!["HIV", "gp120", "D2"],
            )],
        )
        .unwrap();
    let r = cdss.reconcile(&PeerId::new("Crete")).unwrap();
    first && r.outcome.rejected.contains(&d2)
}

fn scenario3_ok() -> bool {
    let mut cdss = demo::figure2().unwrap();
    let a = cdss
        .publish_transaction(
            &PeerId::new("Alaska"),
            vec![
                Update::insert("O", tuple!["HIV", 1]),
                Update::insert("P", tuple!["gp120", 2]),
                Update::insert("S", tuple![1, 2, "V1"]),
            ],
        )
        .unwrap();
    cdss.reconcile(&PeerId::new("Beijing")).unwrap();
    let b = cdss
        .publish_transaction(
            &PeerId::new("Beijing"),
            vec![Update::modify("S", tuple![1, 2, "V1"], tuple![1, 2, "V2"])],
        )
        .unwrap();
    let r = cdss.reconcile(&PeerId::new("Crete")).unwrap();
    r.outcome.accepted.contains(&a) && r.outcome.accepted.contains(&b)
}

fn scenario4_ok() -> bool {
    let mut cdss = demo::figure2().unwrap();
    cdss.publish_transaction(
        &PeerId::new("Alaska"),
        vec![
            Update::insert("O", tuple!["HIV", 1]),
            Update::insert("P", tuple!["gp120", 2]),
        ],
    )
    .unwrap();
    cdss.reconcile(&PeerId::new("Beijing")).unwrap();
    let a = cdss
        .publish_transaction(
            &PeerId::new("Alaska"),
            vec![Update::insert("S", tuple![1, 2, "A"])],
        )
        .unwrap();
    let b = cdss
        .publish_transaction(
            &PeerId::new("Beijing"),
            vec![Update::insert("S", tuple![1, 2, "B"])],
        )
        .unwrap();
    let r = cdss.reconcile(&PeerId::new("Dresden")).unwrap();
    let deferred = r.outcome.deferred.contains(&a) && r.outcome.deferred.contains(&b);
    let res = cdss.resolve(&PeerId::new("Dresden"), &b).unwrap();
    deferred && res.outcome.accepted.iter().any(|t| t.id == b) && res.outcome.rejected.contains(&a)
}

fn scenario5_ok() -> bool {
    let store = ReplicatedStore::new(8, 3).unwrap();
    let mut cdss = demo::figure2_with_store(Box::new(store)).unwrap();
    cdss.publish_transaction(
        &PeerId::new("Beijing"),
        vec![Update::insert("O", tuple!["Mouse", 1])],
    )
    .unwrap();
    let r = cdss.reconcile(&PeerId::new("Alaska")).unwrap();
    r.outcome.accepted.len() == 1
}

/// E4 — incremental vs full recomputation of update exchange.
pub fn e4_incremental(opts: &Opts) -> BenchReport {
    println!("── E4: incremental vs full recomputation (companion [5]) ──");
    println!(
        "{:>8} {:>8} {:>14} {:>12} {:>10} {:>12}",
        "base", "delta", "full ms", "incr ms", "speedup", "tuples/s"
    );
    let mut report = BenchReport::new("e4", &opts.variant, opts.smoke);
    let (bases, deltas): (&[usize], &[usize]) = if opts.smoke {
        (&[128], &[8, 32])
    } else {
        (&[512], &[8, 32, 128, 512])
    };
    let (schema, rules) = bio_engine_parts();
    let (mut total_tuples, mut total_secs) = (0f64, 0f64);
    let mut agg = EngineStats::default();
    for &base in bases {
        for &delta in deltas {
            let base_facts = bio_base_facts(base);
            let delta_facts: Vec<_> = bio_base_facts(base + delta)
                .into_iter()
                .skip(base_facts.len())
                .collect();
            // Warm engine, then incremental delta.
            let mut warm = warm_engine(schema.clone(), rules.clone(), &base_facts, true);
            let before = warm.stats();
            let tuples_before = warm.total_tuples();
            let (_, t_incr) = timed(|| {
                for (rel, t) in &delta_facts {
                    warm.insert_base(rel, t.clone()).unwrap();
                }
                warm.propagate().unwrap();
            });
            let after = warm.stats();
            agg.index_builds += after.index_builds - before.index_builds;
            agg.index_probes += after.index_probes - before.index_probes;
            agg.interner_symbols = agg.interner_symbols.max(after.interner_symbols);
            agg.interner_hits += after.interner_hits - before.interner_hits;
            agg.skolem_fast_path += after.skolem_fast_path - before.skolem_fast_path;
            let incr_tuples = (warm.total_tuples() - tuples_before) as f64;
            // Full recomputation from scratch.
            let (full, t_full) = timed(|| {
                let mut all = base_facts.clone();
                all.extend(delta_facts.iter().cloned());
                warm_engine(schema.clone(), rules.clone(), &all, true)
            });
            assert_eq!(full.total_tuples(), warm.total_tuples());
            let incr_secs = t_incr.as_secs_f64();
            let tps = incr_tuples / incr_secs.max(1e-9);
            total_tuples += incr_tuples;
            total_secs += incr_secs;
            let rounds = after.rounds - before.rounds;
            let firings = after.firings - before.firings;
            report.rounds += rounds;
            report.firings += firings;
            report.row([
                ("base", Json::from(base)),
                ("delta", Json::from(delta)),
                ("full_ms", Json::Num(t_full.as_secs_f64() * 1e3)),
                ("incr_ms", Json::Num(incr_secs * 1e3)),
                (
                    "speedup",
                    Json::Num(t_full.as_secs_f64() / incr_secs.max(1e-9)),
                ),
                ("tuples_per_sec", Json::Num(tps)),
                ("rounds", Json::from(rounds)),
                ("firings", Json::from(firings)),
            ]);
            println!(
                "{:>8} {:>8} {:>14} {:>12} {:>10} {:>12.0}",
                base,
                delta,
                ms(t_full),
                ms(t_incr),
                ratio(t_full, t_incr),
                tps
            );
        }
    }
    println!(
        "  engine counters (incremental runs): {} index builds, {} probes, \
         {} interned symbols, {} intern hits, {} skolem fast-path",
        agg.index_builds,
        agg.index_probes,
        agg.interner_symbols,
        agg.interner_hits,
        agg.skolem_fast_path
    );
    println!();
    report.tuples_per_sec = total_tuples / total_secs.max(1e-9);
    report.summary_extra("index_builds", agg.index_builds);
    report.summary_extra("index_probes", agg.index_probes);
    report.summary_extra("interner_symbols", agg.interner_symbols);
    report.summary_extra("interner_hits", agg.interner_hits);
    report.summary_extra("skolem_fast_path", agg.skolem_fast_path);
    // E4 drives the engine directly (no archive): the pagination and
    // availability counters exist in every report for uniform tooling.
    report.summary_extra("store_pages", 0u64);
    report.summary_extra("store_unavailable", 0u64);
    opts.emit(&report);
    report
}

/// E5 — provenance overhead: full N\[X\] graph vs no provenance.
fn e5_prov_overhead() {
    println!("── E5: provenance tracking overhead (companion [5]) ──");
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>12}",
        "seqs", "no-prov ms", "with-prov ms", "overhead", "derivations"
    );
    let (schema, rules) = bio_engine_parts();
    for &n in &[128usize, 512, 2048] {
        let facts = bio_base_facts(n);
        let (_e0, t0) = timed(|| warm_engine(schema.clone(), rules.clone(), &facts, false));
        let (e1, t1) = timed(|| warm_engine(schema.clone(), rules.clone(), &facts, true));
        println!(
            "{:>8} {:>14} {:>14} {:>10} {:>12}",
            n,
            ms(t0),
            ms(t1),
            ratio(t1, t0),
            e1.stats().derivations
        );
    }
    println!();
}

/// E6 — deletion propagation: provenance-based vs DRed.
fn e6_deletion() {
    println!("── E6: deletion propagation, provenance vs DRed (companion [5]) ──");
    println!(
        "{:>8} {:>10} {:>14} {:>12} {:>10}",
        "seqs", "deleted", "dred ms", "prov ms", "speedup"
    );
    let (schema, rules) = bio_engine_parts();
    for &n in &[256usize, 1024] {
        for &frac in &[0.05f64, 0.25] {
            let facts = bio_base_facts(n);
            // Delete S rows (the join collapses).
            let victims: Vec<_> = facts
                .iter()
                .filter(|(rel, _)| *rel == "Alaska.S")
                .take(((n as f64) * frac) as usize)
                .cloned()
                .collect();
            let mut dred = warm_engine(schema.clone(), rules.clone(), &facts, true);
            let (_, t_dred) = timed(|| {
                for (rel, t) in &victims {
                    dred.remove_base(rel, t, DeletionAlgorithm::DRed).unwrap();
                }
            });
            let mut prov = warm_engine(schema.clone(), rules.clone(), &facts, true);
            let (_, t_prov) = timed(|| {
                for (rel, t) in &victims {
                    prov.remove_base(rel, t, DeletionAlgorithm::ProvenanceBased)
                        .unwrap();
                }
            });
            assert_eq!(dred.total_tuples(), prov.total_tuples());
            println!(
                "{:>8} {:>10} {:>14} {:>12} {:>10}",
                n,
                victims.len(),
                ms(t_dred),
                ms(t_prov),
                ratio(t_dred, t_prov)
            );
        }
    }
    println!();
}

/// E7 — reconciliation scaling (companion \[11\]).
pub fn e7_reconcile(opts: &Opts) -> BenchReport {
    println!("── E7: reconciliation scaling (companion [11]) ──");
    println!(
        "{:>8} {:>9} {:>8} {:>12} {:>12} {:>9} {:>9} {:>9} {:>10}",
        "txns",
        "conflict%",
        "depth",
        "greedy ms",
        "naive ms",
        "accept",
        "defer",
        "reject",
        "txns/s"
    );
    let mut report = BenchReport::new("e7", &opts.variant, opts.smoke);
    let (sizes, pcts): (&[usize], &[u32]) = if opts.smoke {
        (&[256], &[0, 20])
    } else {
        (&[256, 1024, 4096], &[0, 5, 20, 50])
    };
    let (mut total_txns, mut total_secs) = (0f64, 0f64);
    for &n in sizes {
        for &pct in pcts {
            let depth = 3usize;
            let cands = reconcile_candidates(n, pct, depth, 42);
            let schema = kv_schema();
            let (_, t_naive) = timed(|| naive_reconcile(&cands, &schema));
            let mut r = Reconciler::new(schema);
            let (_, t_greedy) =
                timed(|| r.reconcile(cands.clone(), &TrustPolicy::open(1)).unwrap());
            let accepted = cands
                .iter()
                .filter(|c| r.decision(c.id()) == Some(orchestra_reconcile::Decision::Accepted))
                .count();
            let deferred = r.deferred().len();
            let rejected = cands
                .iter()
                .filter(|c| r.decision(c.id()) == Some(orchestra_reconcile::Decision::Rejected))
                .count();
            let secs = t_greedy.as_secs_f64();
            let tps = n as f64 / secs.max(1e-9);
            total_txns += n as f64;
            total_secs += secs;
            report.row([
                ("txns", Json::from(n)),
                ("conflict_pct", Json::from(pct as u64)),
                ("depth", Json::from(depth)),
                ("greedy_ms", Json::Num(secs * 1e3)),
                ("naive_ms", Json::Num(t_naive.as_secs_f64() * 1e3)),
                ("accepted", Json::from(accepted)),
                ("deferred", Json::from(deferred)),
                ("rejected", Json::from(rejected)),
                // Single-update transactions: txns/sec is tuples/sec.
                ("tuples_per_sec", Json::Num(tps)),
            ]);
            println!(
                "{:>8} {:>9} {:>8} {:>12} {:>12} {:>9} {:>9} {:>9} {:>10.0}",
                n,
                pct,
                depth,
                ms(t_greedy),
                ms(t_naive),
                accepted,
                deferred,
                rejected,
                tps
            );
        }
    }
    println!();
    report.tuples_per_sec = total_txns / total_secs.max(1e-9);
    // E7 drives the reconciler directly (no archive): counters present
    // for uniform tooling, always zero here.
    report.summary_extra("store_pages", 0u64);
    report.summary_extra("store_unavailable", 0u64);
    opts.emit(&report);
    report
}

/// E8 — archived availability under churn × replication factor, measured
/// through the paged read path: the scan makes partial progress past dead
/// payloads instead of failing, so the table reports how much of the
/// archive each configuration can still deliver (and in how many pages).
pub fn e8_store(opts: &Opts) -> BenchReport {
    println!("── E8: store availability under churn (scenario 5 at scale) ──");
    println!(
        "{:>6} {:>12} {:>10} {:>11} {:>9} {:>7} {:>10} {:>12}",
        "repl", "churn", "avail %", "reachable", "unavail", "pages", "probes", "tuples/s"
    );
    let mut report = BenchReport::new("e8", &opts.variant, opts.smoke);
    let n_nodes = 64usize;
    let n_txns: u64 = if opts.smoke { 200 } else { 1000 };
    let page_limit = 256usize;
    let (repls, churns): (&[usize], &[usize]) = if opts.smoke {
        (&[1, 3], &[25])
    } else {
        (&[1, 2, 3, 5], &[10, 25, 50])
    };
    let (mut total_reachable, mut total_secs) = (0f64, 0f64);
    let (mut total_pages, mut total_unavail) = (0u64, 0u64);
    for &repl in repls {
        for &churn_pct in churns {
            let store = ReplicatedStore::new(n_nodes, repl).unwrap();
            let txns: Vec<Transaction> = (0..n_txns)
                .map(|i| {
                    Transaction::new(
                        TxnId::new(PeerId::new("pub"), i),
                        Epoch::new(1),
                        vec![Update::insert("R", tuple![i as i64, 0])],
                    )
                })
                .collect();
            store.publish(Epoch::new(1), txns).unwrap();
            let down = n_nodes * churn_pct / 100;
            for node in 0..down {
                // Deterministic spread of failures.
                store.take_node_down((node * 7) % n_nodes);
            }
            let avail = store.availability() * 100.0;
            let ((reachable, unavailable, pages), t_scan) = timed(|| {
                let start = FetchCursor::after_epoch(Epoch::zero());
                let (mut ok, mut lost, mut pages) = (0u64, 0u64, 0u64);
                for page in orchestra_store::pages(&store, start, page_limit) {
                    let page = page.unwrap();
                    ok += page.txns.len() as u64;
                    lost += page.unavailable.len() as u64;
                    pages += 1;
                }
                (ok, lost, pages)
            });
            assert_eq!(reachable + unavailable, n_txns, "every position scanned");
            let secs = t_scan.as_secs_f64();
            let tps = reachable as f64 / secs.max(1e-9);
            total_reachable += reachable as f64;
            total_secs += secs;
            total_pages += pages;
            total_unavail += unavailable;
            report.row([
                ("repl", Json::from(repl)),
                ("churn_pct", Json::from(churn_pct)),
                ("availability_pct", Json::Num(avail)),
                ("reachable", Json::from(reachable)),
                ("unavailable", Json::from(unavailable)),
                ("pages", Json::from(pages)),
                ("probes", Json::from(store.stats().probes)),
                ("tuples_per_sec", Json::Num(tps)),
            ]);
            println!(
                "{:>6} {:>11}% {:>10.2} {:>11} {:>9} {:>7} {:>10} {:>12.0}",
                repl,
                churn_pct,
                avail,
                reachable,
                unavailable,
                pages,
                store.stats().probes,
                tps
            );
        }
    }
    println!();
    e8_durable(n_txns);
    report.tuples_per_sec = total_reachable / total_secs.max(1e-9);
    report.summary_extra("store_pages", total_pages);
    report.summary_extra("store_unavailable", total_unavail);
    opts.emit(&report);
    report
}

/// E8b — the durable archive: publish cost per sync policy, fetch cost per
/// cache tier, and crash-recovery (reopen) cost raw vs compacted.
fn e8_durable(n_txns: u64) {
    println!("── E8b: durable archive (WAL + snapshots) ──");
    println!(
        "{:>16} {:>12} {:>12} {:>12} {:>12}",
        "sync policy", "publish ms", "fetch ms", "reopen ms", "txns"
    );
    let make_txns = || -> Vec<Transaction> {
        (0..n_txns)
            .map(|i| {
                Transaction::new(
                    TxnId::new(PeerId::new("pub"), i),
                    Epoch::new(1),
                    vec![Update::insert("R", tuple![i as i64, 0])],
                )
            })
            .collect()
    };
    for (label, policy) in [
        ("fsync-always", SyncPolicy::Always),
        ("fsync-every-64", SyncPolicy::EveryN(64)),
        ("fsync-never", SyncPolicy::Never),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "orchestra-e8-durable-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurableOptions {
            sync_policy: policy,
            ..DurableOptions::default()
        };
        let store = DurableStore::open_with(&dir, opts).unwrap();
        let batches: Vec<Vec<Transaction>> = make_txns().chunks(100).map(|c| c.to_vec()).collect();
        let (_, t_pub) = timed(|| {
            for (i, batch) in batches.into_iter().enumerate() {
                store.publish(Epoch::new(i as u64 + 1), batch).unwrap();
            }
            store.sync().unwrap();
        });
        let (fetched, t_fetch) = timed(|| store.fetch_since(Epoch::zero()).unwrap().len());
        assert_eq!(fetched as u64, n_txns);
        drop(store);
        let (reopened, t_reopen) = timed(|| DurableStore::open_with(&dir, opts).unwrap());
        assert_eq!(reopened.len() as u64, n_txns);
        println!(
            "{:>16} {:>12} {:>12} {:>12} {:>12}",
            label,
            ms(t_pub),
            ms(t_fetch),
            ms(t_reopen),
            reopened.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!(
        "\n{:>16} {:>14} {:>14}",
        "read tier", "cold fetch ms", "reopen ms"
    );
    for (label, cache, compact) in [
        ("cached+wal", CacheMode::Cached, false),
        ("disk-only+wal", CacheMode::DiskOnly, false),
        ("disk-only+snap", CacheMode::DiskOnly, true),
    ] {
        let dir =
            std::env::temp_dir().join(format!("orchestra-e8-tier-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurableOptions {
            cache,
            segment_max_bytes: 64 * 1024,
            ..DurableOptions::default()
        };
        let store = DurableStore::open_with(&dir, opts).unwrap();
        for (i, batch) in make_txns().chunks(100).enumerate() {
            store
                .publish(Epoch::new(i as u64 + 1), batch.to_vec())
                .unwrap();
        }
        if compact {
            store.compact().unwrap();
        }
        let (n, t_fetch) = timed(|| store.fetch_since(Epoch::zero()).unwrap().len());
        assert_eq!(n as u64, n_txns);
        drop(store);
        let (reopened, t_reopen) = timed(|| DurableStore::open_with(&dir, opts).unwrap());
        assert_eq!(reopened.len() as u64, n_txns);
        println!("{:>16} {:>14} {:>14}", label, ms(t_fetch), ms(t_reopen));
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!();
}

/// E9 — semiring algebra microbenchmarks (companion \[6\]).
fn e9_semiring() {
    println!("── E9: provenance polynomial operations (companion [6]) ──");
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>14} {:>14}",
        "terms", "vars", "plus ms", "times ms", "eval(B) ms", "eval(Trop) ms"
    );
    for &(terms, vars) in &[(16usize, 8u32), (64, 16), (256, 32)] {
        let a = random_polynomial(terms, vars, 1);
        let b = random_polynomial(terms, vars, 2);
        let (_, t_plus) = timed(|| {
            for _ in 0..100 {
                let _ = a.plus(&b);
            }
        });
        let (_, t_times) = timed(|| {
            for _ in 0..10 {
                let _ = a.times(&b);
            }
        });
        let (_, t_bool) = timed(|| {
            for _ in 0..100 {
                let _ = a.eval(|v| Boolean(v % 3 != 0));
            }
        });
        let (_, t_trop) = timed(|| {
            for _ in 0..100 {
                let _ = a.eval(|v| Tropical::cost((*v as u64) % 7));
            }
        });
        // Sanity: counting evaluation with all-1 equals sum of coefficients.
        let total: u64 = a.iter().map(|(_, c)| c).sum();
        assert_eq!(a.eval(|_| Counting(1)), Counting(total));
        println!(
            "{:>8} {:>8} {:>12} {:>12} {:>14} {:>14}",
            terms,
            vars,
            ms(t_plus),
            ms(t_times),
            ms(t_bool),
            ms(t_trop)
        );
    }
    println!();
}

/// E10 — networked peers: the E8 paged-availability workload with the
/// archive on the other side of real TCP sockets. Loopback by default
/// (server threads in this process); `--connect <addr>` points the
/// client half at a real peer started with `--bind <addr>` on another
/// machine. Reports publish/scan throughput over the wire, round trips,
/// and the transport→`Unavailable` mapping a dead endpoint produces.
pub fn e10_network(opts: &Opts) -> BenchReport {
    println!("── E10: networked peers (UpdateStore over TCP) ──");
    println!(
        "{:>10} {:>7} {:>6} {:>12} {:>10} {:>7} {:>11} {:>12}",
        "mode", "txns", "limit", "publish ms", "scan ms", "pages", "roundtrips", "tuples/s"
    );
    let mut report = BenchReport::new("e10", &opts.variant, opts.smoke);
    let n_txns: u64 = if opts.smoke { 200 } else { 2000 };
    let limits: &[usize] = if opts.smoke { &[64] } else { &[64, 256, 1024] };
    let client_opts = RemoteOptions::default();

    // Unique publisher name so repeated runs against one long-lived
    // `--bind` server never collide on transaction ids.
    let publisher = format!("pub-{}", std::process::id());
    let make_txns = |epoch_base: u64| -> Vec<Vec<Transaction>> {
        (0..n_txns)
            .map(|i| {
                Transaction::new(
                    TxnId::new(PeerId::new(&publisher), epoch_base * 1_000_000 + i),
                    Epoch::new(1),
                    vec![Update::insert("R", tuple![i as i64, 0])],
                )
            })
            .collect::<Vec<_>>()
            .chunks(100)
            .map(|c| c.to_vec())
            .collect()
    };

    let (mut total_tuples, mut total_secs) = (0f64, 0f64);
    let (mut total_pages, mut total_unavail, mut total_round_trips) = (0u64, 0u64, 0u64);
    for (li, &limit) in limits.iter().enumerate() {
        // Loopback mode spins a fresh server per row; connect mode
        // reuses the external peer (epochs advance past its history).
        let local = if opts.connect.is_none() {
            Some(
                PeerServer::bind(
                    "127.0.0.1:0",
                    Arc::new(orchestra_store::InMemoryStore::new()),
                )
                .expect("bind loopback"),
            )
        } else {
            None
        };
        let addr = match (&opts.connect, &local) {
            (Some(addr), _) => addr.clone(),
            (None, Some(server)) => server.local_addr().to_string(),
            _ => unreachable!(),
        };
        let remote =
            RemoteStore::connect_with(addr.as_str(), client_opts).expect("connect to archive");
        // One probe serves both the epoch base and the scan start.
        let (_, latest, _, _) = remote.probe().expect("probe archive");
        let epoch_base = latest.map_or(0, |e| e.value());
        let batches = make_txns(epoch_base + li as u64);
        let scan_from = latest.unwrap_or_else(Epoch::zero);
        let (_, t_pub) = timed(|| {
            for (i, batch) in batches.into_iter().enumerate() {
                remote
                    .publish(Epoch::new(epoch_base + i as u64 + 1), batch)
                    .expect("publish over tcp");
            }
        });
        let before_rt = remote.net_stats().round_trips;
        let ((reachable, pages), t_scan) = timed(|| {
            let (mut ok, mut pages) = (0u64, 0u64);
            for page in orchestra_store::pages(&remote, FetchCursor::after_epoch(scan_from), limit)
            {
                let page = page.expect("paged scan over tcp");
                ok += page.txns.len() as u64;
                pages += 1;
            }
            (ok, pages)
        });
        assert_eq!(reachable, n_txns, "every published txn scanned back");
        let round_trips = remote.net_stats().round_trips - before_rt;
        let secs = t_scan.as_secs_f64();
        let tps = reachable as f64 / secs.max(1e-9);
        total_tuples += reachable as f64;
        total_secs += secs;
        total_pages += pages;
        total_round_trips += remote.net_stats().round_trips;
        let mode = if opts.connect.is_some() {
            "remote"
        } else {
            "loopback"
        };
        report.row([
            ("mode", Json::from(mode)),
            ("txns", Json::from(n_txns)),
            ("page_limit", Json::from(limit)),
            ("publish_ms", Json::Num(t_pub.as_secs_f64() * 1e3)),
            ("scan_ms", Json::Num(secs * 1e3)),
            ("pages", Json::from(pages)),
            ("round_trips", Json::from(round_trips)),
            ("tuples_per_sec", Json::Num(tps)),
        ]);
        println!(
            "{:>10} {:>7} {:>6} {:>12} {:>10} {:>7} {:>11} {:>12.0}",
            mode,
            n_txns,
            limit,
            ms(t_pub),
            ms(t_scan),
            pages,
            round_trips,
            tps
        );
        if let Some(server) = local {
            server.shutdown();
        }
    }

    // Churn over the wire (loopback only: it needs the server-side churn
    // handle): a replicated backend with a third of its nodes down still
    // serves pages, reporting the unreachable positions remotely.
    if opts.connect.is_none() {
        let dht = Arc::new(ReplicatedStore::new(64, 1).expect("ring"));
        dht.publish(
            Epoch::new(1),
            (0..n_txns)
                .map(|i| {
                    Transaction::new(
                        TxnId::new(PeerId::new("churn"), i),
                        Epoch::new(1),
                        vec![Update::insert("R", tuple![i as i64, 0])],
                    )
                })
                .collect(),
        )
        .expect("seed churn archive");
        for node in 0..(64 / 3) {
            dht.take_node_down((node * 7) % 64);
        }
        let server = PeerServer::bind("127.0.0.1:0", dht).expect("bind churn server");
        let remote = RemoteStore::connect_with(server.local_addr(), client_opts).expect("connect");
        let ((reachable, unavailable, pages), t_scan) = timed(|| {
            let (mut ok, mut lost, mut pages) = (0u64, 0u64, 0u64);
            for page in
                orchestra_store::pages(&remote, FetchCursor::after_epoch(Epoch::zero()), 256)
            {
                let page = page.expect("churn scan over tcp");
                ok += page.txns.len() as u64;
                lost += page.unavailable.len() as u64;
                pages += 1;
            }
            (ok, lost, pages)
        });
        assert_eq!(reachable + unavailable, n_txns);
        assert!(unavailable > 0, "churn must produce wire-visible gaps");
        let secs = t_scan.as_secs_f64();
        total_pages += pages;
        total_unavail += unavailable;
        total_round_trips += remote.net_stats().round_trips;
        report.row([
            ("mode", Json::from("loopback-churn")),
            ("txns", Json::from(n_txns)),
            ("page_limit", Json::from(256u64)),
            ("reachable", Json::from(reachable)),
            ("unavailable", Json::from(unavailable)),
            ("pages", Json::from(pages)),
            (
                "tuples_per_sec",
                Json::Num(reachable as f64 / secs.max(1e-9)),
            ),
        ]);
        println!(
            "{:>10} {:>7} {:>6} {:>12} {:>10} {:>7} {:>11} {:>12.0}  ({} unavailable over the wire)",
            "churn",
            n_txns,
            256,
            "-",
            ms(t_scan),
            pages,
            remote.net_stats().round_trips,
            reachable as f64 / secs.max(1e-9),
            unavailable
        );
        server.shutdown();

        // Dead endpoint: every transport failure maps to the
        // `Unavailable` error the reconcile loop absorbs.
        let dead = PeerServer::bind(
            "127.0.0.1:0",
            Arc::new(orchestra_store::InMemoryStore::new()),
        )
        .expect("bind");
        let dead_addr = dead.local_addr();
        dead.shutdown();
        let fast = RemoteOptions {
            connect_timeout: std::time::Duration::from_millis(200),
            retries: 1,
            ..RemoteOptions::default()
        };
        let remote = RemoteStore::lazy_with(dead_addr, fast).expect("lazy attach");
        let mut unavailable_mapped = 0u64;
        for _ in 0..3 {
            match remote.fetch_page(&FetchCursor::after_epoch(Epoch::zero()), 8) {
                Err(orchestra_store::StoreError::Unavailable { .. }) => unavailable_mapped += 1,
                other => panic!("dead endpoint must map to Unavailable, got {other:?}"),
            }
        }
        assert_eq!(remote.net_stats().unavailable_mapped, unavailable_mapped);
        report.summary_extra("unavailable_mapped", unavailable_mapped);
        println!(
            "  dead endpoint: {unavailable_mapped}/3 calls mapped to StoreError::Unavailable\n"
        );
    } else {
        report.summary_extra("unavailable_mapped", 0u64);
        println!();
    }

    report.tuples_per_sec = total_tuples / total_secs.max(1e-9);
    report.summary_extra("store_pages", total_pages);
    report.summary_extra("store_unavailable", total_unavail);
    report.summary_extra("round_trips", total_round_trips);
    report.summary_extra("obs", orchestra_bench::json::obs_block());
    opts.emit(&report);
    report
}

/// Cumulative `engine.round.{plan,join,merge}_micros` histogram sums
/// from the process-global obs registry (zeros when obs is compiled
/// off). Callers diff two readings to attribute wall-clock to phases.
fn round_phase_micros() -> [u64; 3] {
    let snap = orchestra_obs::snapshot_filtered("engine.round.");
    let mut out = [0u64; 3];
    for h in &snap.histograms {
        let slot = match h.name.as_str() {
            "engine.round.plan_micros" => 0,
            "engine.round.join_micros" => 1,
            "engine.round.merge_micros" => 2,
            _ => continue,
        };
        out[slot] = h.sum;
    }
    out
}

/// E11 — shard-parallel thread scaling: propagate two workloads at
/// 1/2/4/8 evaluation threads over hash-partitioned relations:
///
/// * `tc` — transitive closure of a dense random graph. Recursion- and
///   provenance-heavy: every firing is a distinct derivation record, so
///   the deterministic sequential merge is a large fraction of the round
///   and scaling is modest by design (the price of byte-identical
///   provenance at any thread count).
/// * `tri` — the triangle query over a denser graph. Probe-bound: the
///   join phase scans two-hop candidates in parallel while firings stay
///   rare, so scaling tracks the host's cores.
///
/// The same code path runs at every thread count — `threads = 1` is the
/// inline arm, not a second engine — so the experiment also pins **stats
/// parity**: firings, derivations, rounds, probes, and the fixpoint are
/// identical at any thread count; only wall-clock differs. Speedups are
/// naturally ceilinged by `host_parallelism` (recorded in the summary).
///
/// Each row also carries the per-phase wall-clock split from the obs
/// round histograms (`engine.round.{plan,join,merge}_micros`) — in
/// particular `merge_frac`, the merge phase's share of the round. Before
/// the partitioned merge this fraction was the Amdahl ceiling on `tc`;
/// now it should shrink as threads go up.
///
/// `ORCHESTRA_EVAL_THREADS` is honored as an explicit override: set it
/// to a comma-separated list (e.g. `1,2,8`) to pick the exact thread
/// counts the sweep runs — CI uses this to smoke-test stats parity.
pub fn e11_threads(opts: &Opts) -> BenchReport {
    println!("── E11: shard-parallel propagate, thread scaling ──");
    println!(
        "{:<9} {:<8} {:>7} {:>9} {:>13} {:>12} {:>9} {:>7} {:>9}",
        "workload",
        "threads",
        "shards",
        "tuples",
        "propagate ms",
        "tuples/s",
        "speedup",
        "merge%",
        "stats=1t"
    );
    let mut report = BenchReport::new("e11", &opts.variant, opts.smoke);
    let (shards, iters) = if opts.smoke {
        (8usize, 1usize)
    } else {
        (16, 5)
    };
    let thread_counts: Vec<usize> = std::env::var("ORCHESTRA_EVAL_THREADS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse::<usize>().ok())
                .filter(|&t| t > 0)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    let thread_counts: &[usize] = &thread_counts;
    let workloads: Vec<(&'static str, _, _, Vec<_>)> = {
        let (tc_db, tc_rules, tc_edges) = if opts.smoke {
            tc_parts(64, 320, 11)
        } else {
            tc_parts(240, 1500, 11)
        };
        let (tri_db, tri_rules, tri_edges) = if opts.smoke {
            triangle_parts(120, 1800, 13)
        } else {
            triangle_parts(640, 14000, 13)
        };
        vec![
            ("tc", tc_db, tc_rules, tc_edges),
            ("tri", tri_db, tri_rules, tri_edges),
        ]
    };
    let mut best_tps = 0f64;
    let mut parity = true;
    // threads → best speedup across workloads.
    let mut speedups: std::collections::BTreeMap<usize, f64> = Default::default();
    for (name, db, rules, edges) in &workloads {
        let mut baseline: Option<(f64, EngineStats, usize)> = None;
        for &threads in thread_counts {
            let eval = EvalOptions {
                threads,
                shards,
                ..EvalOptions::default()
            };
            // Best of `iters` fresh runs (results are deterministic; only
            // wall-clock is noisy).
            let mut best = std::time::Duration::MAX;
            let mut total = 0usize;
            let mut stats = EngineStats::default();
            let phases_before = round_phase_micros();
            for _ in 0..iters {
                let mut engine =
                    Engine::with_options(db.clone(), rules.clone(), true, eval).unwrap();
                for t in edges {
                    engine.insert_base("edge", t.clone()).unwrap();
                }
                let (_, dt) = timed(|| engine.propagate().unwrap());
                best = best.min(dt);
                total = engine.total_tuples();
                // Count alive tuples through the borrowing per-shard
                // scan — the read path reconcile/bench consumers use.
                let scanned: usize = ["edge", "path", "tri"]
                    .iter()
                    .map(|r| engine.scan(r).count())
                    .sum();
                assert_eq!(scanned, total);
                stats = engine.stats();
            }
            let phases_after = round_phase_micros();
            // The obs registry is process-global and cumulative, so the
            // phase split is the delta across this cell's `iters` runs
            // (averaged back to one propagate).
            let [plan_ms, join_ms, merge_ms] = std::array::from_fn(|i| {
                phases_after[i].saturating_sub(phases_before[i]) as f64 / 1e3 / iters as f64
            });
            let phase_total = plan_ms + join_ms + merge_ms;
            let merge_frac = if phase_total > 0.0 {
                merge_ms / phase_total
            } else {
                0.0
            };
            let secs = best.as_secs_f64().max(1e-9);
            let tps = total as f64 / secs;
            let (t1_tps, stats_match) = match &baseline {
                None => {
                    baseline = Some((tps, stats, total));
                    (tps, true)
                }
                Some((t1, s1, tot1)) => {
                    assert_eq!(total, *tot1, "fixpoint differs across thread counts");
                    (*t1, stats == *s1)
                }
            };
            parity &= stats_match;
            let speedup = tps / t1_tps.max(1e-9);
            let entry = speedups.entry(threads).or_insert(0.0);
            *entry = entry.max(speedup);
            best_tps = best_tps.max(tps);
            println!(
                "{:<9} {:<8} {:>7} {:>9} {:>13} {:>12.0} {:>9.2} {:>6.0}% {:>9}",
                name,
                threads,
                shards,
                total,
                ms(best),
                tps,
                speedup,
                merge_frac * 100.0,
                stats_match
            );
            report.row([
                ("workload", Json::from(*name)),
                ("threads", Json::from(threads)),
                ("shards", Json::from(shards)),
                ("tuples", Json::from(total)),
                ("propagate_ms", Json::from(best.as_secs_f64() * 1e3)),
                ("tuples_per_sec", Json::from(tps)),
                ("speedup_vs_1t", Json::from(speedup)),
                ("stats_match_1t", Json::from(stats_match)),
                ("plan_ms", Json::from(plan_ms)),
                ("join_ms", Json::from(join_ms)),
                ("merge_ms", Json::from(merge_ms)),
                ("merge_frac", Json::from(merge_frac)),
                ("firings", Json::from(stats.firings)),
                ("rounds", Json::from(stats.rounds)),
            ]);
            report.rounds = report.rounds.max(stats.rounds);
            report.firings = report.firings.max(stats.firings);
        }
    }
    report.tuples_per_sec = best_tps;
    report.summary_extra("shards", shards);
    report.summary_extra("stats_parity", parity);
    for (t, s) in &speedups {
        match t {
            2 => report.summary_extra("speedup_2t", *s),
            4 => report.summary_extra("speedup_4t", *s),
            8 => report.summary_extra("speedup_8t", *s),
            _ => {}
        }
    }
    report.summary_extra(
        "host_parallelism",
        std::thread::available_parallelism().map_or(1usize, |n| n.get()),
    );
    report.summary_extra("store_pages", 0u64);
    report.summary_extra("store_unavailable", 0u64);
    opts.emit(&report);
    println!();
    report
}
