//! The experiment harness: prints the tables for the experiments the
//! repo benchmark (`loopbench`, see `BENCHMARK.json`) does not run.
//!
//! | name | what it times |
//! |---|---|
//! | e4 | incremental propagation vs full recomputation |
//! | e8 | replicated-store availability under churn; durable sync/cache tiers |
//! | e9 | provenance-polynomial (semiring) operations |
//! | e12 | the gossiping mesh across OS processes |
//! | e13 | the fault matrix: injected faults at every layer, healed |
//!
//! Usage:
//! ```text
//! cargo run --release -p orchestra-bench --bin experiments              # all
//! cargo run --release -p orchestra-bench --bin experiments -- e4 e9    # some
//! cargo run --release -p orchestra-bench --bin experiments -- \
//!     e4 e8 --json-dir . --variant paged                                # emit BENCH_*.json
//! cargo run --release -p orchestra-bench --bin experiments -- \
//!     e8 --smoke --json-dir target/bench                                # CI smoke
//! ```
//!
//! With `--json-dir`, experiments E4/E8/E12/E13 additionally write
//! machine-readable `BENCH_*.json` (tuples/sec, semi-naive rounds, rule
//! firings, paged fetch + availability counters, mesh-cluster convergence
//! latency + bytes shipped, and a peak-RSS proxy); `--smoke` shrinks the
//! workloads for CI, `--variant <tag>` labels the run. E12 spawns child OS processes of
//! this same binary (a hidden `--e12-child` mode) to run the gossiping
//! mesh across real process boundaries. Any other experiment name is an
//! error: the harness lists the valid ones and exits non-zero.

use orchestra_bench::json::{BenchReport, Json};
use orchestra_bench::*;
use orchestra_datalog::EngineStats;
use orchestra_provenance::{Boolean, Counting, Semiring, Tropical};
use orchestra_relational::tuple;
use orchestra_store::{
    CacheMode, DurableOptions, DurableStore, FetchCursor, ReplicatedStore, SyncPolicy, UpdateStore,
};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use std::path::PathBuf;

/// The experiments this harness runs, in run order.
const EXPERIMENTS: [&str; 5] = ["e4", "e8", "e9", "e12", "e13"];

/// Harness configuration parsed from the command line.
pub struct Opts {
    names: Vec<String>,
    /// Reduced workloads for CI smoke runs.
    pub smoke: bool,
    /// Where to write `BENCH_*.json` (omitted → tables only).
    pub json_dir: Option<PathBuf>,
    /// Run tag recorded in the JSON (`interned`, `paged`, …).
    pub variant: String,
}

impl Opts {
    /// Parse the command line; an unknown experiment name or a flag
    /// missing its value is an error naming what is valid.
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            names: Vec::new(),
            smoke: false,
            json_dir: None,
            variant: "dev".to_string(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" => opts.smoke = true,
                "--json-dir" => {
                    opts.json_dir = Some(PathBuf::from(it.next().ok_or("--json-dir needs a path")?))
                }
                "--variant" => {
                    opts.variant = it.next().ok_or("--variant needs a tag")?.clone();
                }
                name if EXPERIMENTS.iter().any(|e| e.eq_ignore_ascii_case(name)) => {
                    opts.names.push(name.to_string())
                }
                name => {
                    return Err(format!(
                        "unknown experiment `{name}`; valid: {}",
                        EXPERIMENTS.join(" ")
                    ))
                }
            }
        }
        Ok(opts)
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

    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("experiments: {msg}");
            std::process::exit(2);
        }
    };

    println!("Orchestra CDSS reproduction — experiment harness");
    println!("(shapes, not absolute numbers, are the reproduction target)\n");

    if opts.want("e4") {
        e4_incremental(&opts);
    }
    if opts.want("e8") {
        e8_store(&opts);
    }
    if opts.want("e9") {
        e9_semiring();
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
            let mut warm = warm_engine(schema.clone(), rules.clone(), &base_facts);
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
                warm_engine(schema.clone(), rules.clone(), &all)
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

#[cfg(test)]
mod tests {
    use super::Opts;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn only_the_harness_experiments_parse() {
        let opts = parse(&["e4", "E13", "--smoke", "--json-dir", "out", "e12"]).unwrap();
        assert_eq!(opts.names, ["e4", "E13", "e12"]);
        assert!(opts.smoke && opts.want("e13") && !opts.want("e8"));
        for stale in ["e5", "e6", "e7", "e11", "e99"] {
            let err = parse(&["e4", stale]).err().expect("stale name rejected");
            assert!(err.contains(stale), "{err}");
            assert!(err.contains("e4 e8 e9 e12 e13"), "{err}");
        }
        assert!(parse(&["--json-dir"]).is_err());
    }
}
