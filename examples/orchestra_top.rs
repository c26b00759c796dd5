//! `orchestra-top` — poll every node of a cluster over the wire and
//! watch its metrics move.
//!
//! Each argument is a peer address; the tool polls the `METRICS`
//! opcode on every one of them each interval and prints the counters
//! that moved since the previous poll (a remote answers with its whole
//! process registry — store, mesh, engine, fault — not just the
//! server). Start a cluster, e.g. two `mesh_gossip` terminals, then:
//!
//! ```text
//! cargo run --example orchestra_top -- 127.0.0.1:7801 127.0.0.1:7802
//! ```
//!
//! Flags:
//! * `--interval <secs>` — poll period (default 2)
//! * `--once` — one poll, then exit (handy for scripts)
//! * `--prefix <p>` — only names starting with `p` (e.g. `store.wal.`)
//! * `--full` — dump the whole snapshot (text form) instead of movers
//! * `--json` — dump the whole snapshot as JSON instead of movers
//!
//! The `core.peer.slice_*` gauges — how many relations and compiled
//! rules the node's translation engines hold — are printed directly
//! above the `engine.*` counters whenever those moved, so work done can
//! be read against program held.
//!
//! See `docs/observability.md` for the metric catalog.

use orchestra_net::{RemoteOptions, RemoteStore};
use std::collections::BTreeMap;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut addrs: Vec<String> = Vec::new();
    let mut interval = 2.0f64;
    let mut once = false;
    let mut prefix = String::new();
    let mut full = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().expect("flag needs a value");
        match a.as_str() {
            "--interval" => interval = val().parse()?,
            "--once" => once = true,
            "--prefix" => prefix = val(),
            "--full" => full = true,
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                panic!("unknown flag {flag} (see the example header)")
            }
            addr => addrs.push(addr.to_string()),
        }
    }
    if addrs.is_empty() {
        eprintln!("usage: orchestra_top [flags] <addr>...");
        std::process::exit(2);
    }

    let opts = RemoteOptions {
        connect_timeout: Duration::from_millis(500),
        retries: 0,
        ..RemoteOptions::default()
    };
    // Lazy connections: a node that is down just shows as unreachable
    // this tick and is retried on the next one.
    let nodes: Vec<(String, RemoteStore)> = addrs
        .into_iter()
        .map(|a| {
            let remote = RemoteStore::lazy_with(a.as_str(), opts)?;
            Ok((a, remote))
        })
        .collect::<Result<_, orchestra_store::StoreError>>()?;

    let mut last: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); nodes.len()];
    let mut tick = 0u64;
    loop {
        for (i, (addr, remote)) in nodes.iter().enumerate() {
            let snap = match remote.metrics() {
                Ok(s) => s.filtered(&prefix),
                Err(e) => {
                    println!("== {addr}: unreachable ({e})");
                    continue;
                }
            };
            println!("== {addr} (tick {tick})");
            if json {
                println!("{}", snap.to_json());
                continue;
            }
            if full {
                print!("{}", snap.render_text());
                continue;
            }
            let mut moved = 0usize;
            let is_slice = |name: &str| name.starts_with("core.peer.slice_");
            let mut engine_moved = false;
            for (name, v) in &snap.counters {
                let prev = last[i].get(name).copied().unwrap_or(0);
                if tick == 0 || *v != prev {
                    if name.starts_with("engine.") && !engine_moved {
                        // Heading the engine block: the program those engines hold.
                        engine_moved = true;
                        for (name, v) in snap.gauges.iter().filter(|(n, _)| is_slice(n)) {
                            println!("  {name:<40} ={v}");
                        }
                    }
                    println!("  {name:<40} +{:<8} (total {v})", v - prev.min(*v));
                    moved += 1;
                }
                last[i].insert(name.clone(), *v);
            }
            for (name, v) in &snap.gauges {
                if *v != 0 && !(engine_moved && is_slice(name)) {
                    println!("  {name:<40} ={v}");
                    moved += 1;
                }
            }
            for h in &snap.histograms {
                if let Some(mean) = h.sum.checked_div(h.count) {
                    println!("  {:<40} n={} mean={}us", h.name, h.count, mean);
                    moved += 1;
                }
            }
            if moved == 0 {
                println!("  (idle)");
            }
        }
        if once {
            return Ok(());
        }
        tick += 1;
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}
