//! CI smoke: run the experiment harness on a reduced workload and
//! validate the shape of the emitted `BENCH_*.json` files, including the
//! pagination/availability counters, the E12 mesh-cluster report
//! (OS-process count, simulated peers, churn evidence, convergence flags,
//! per-node server counters, and the interest-vs-full shipped-bytes
//! comparison), and the E13 fault-injection report (faults injected at
//! every layer, quarantined == healed, zero duplicate applies, full
//! convergence).

use orchestra_bench::json::{validate_report_shape, Json};
use std::process::Command;

#[test]
fn smoke_run_emits_valid_bench_json() {
    let exe = env!("CARGO_BIN_EXE_experiments");
    let dir = std::env::temp_dir().join(format!("orchestra-bench-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(exe)
        .args([
            "e4",
            "e8",
            "e12",
            "e13",
            "--smoke",
            "--variant",
            "ci-smoke",
            "--json-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run experiments harness");
    assert!(
        out.status.success(),
        "harness failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    for exp in ["e4", "e8", "e12", "e13"] {
        let path = dir.join(format!("BENCH_{exp}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{exp}: unparseable JSON: {e}"));
        let errors = validate_report_shape(&doc);
        assert!(errors.is_empty(), "{exp}: bad shape: {errors:?}\n{text}");
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some(exp));
        assert_eq!(doc.get("variant").unwrap().as_str(), Some("ci-smoke"));
        assert_eq!(doc.get("smoke"), Some(&Json::Bool(true)));
        let summary = doc.get("summary").unwrap();
        // Throughput must be a positive finite number on any real machine.
        let tps = summary.get("tuples_per_sec").unwrap().as_f64().unwrap();
        assert!(
            tps.is_finite() && tps > 0.0,
            "{exp}: tuples_per_sec = {tps}"
        );
        // Every report carries the pagination/availability counters.
        let pages = summary
            .get("store_pages")
            .unwrap_or_else(|| panic!("{exp}: summary missing `store_pages`"))
            .as_f64()
            .unwrap();
        let unavailable = summary
            .get("store_unavailable")
            .unwrap_or_else(|| panic!("{exp}: summary missing `store_unavailable`"))
            .as_f64()
            .unwrap();
        match exp {
            // E8's churn rows must show partial progress: pages scanned,
            // and (with R=1 under churn) some payloads unreachable.
            "e8" => {
                assert!(pages > 0.0, "{exp}: no pages recorded");
                assert!(unavailable > 0.0, "{exp}: churn produced no gaps");
                for row in doc.get("rows").unwrap().as_arr().unwrap() {
                    let reachable = row.get("reachable").unwrap().as_f64().unwrap();
                    let lost = row.get("unavailable").unwrap().as_f64().unwrap();
                    let row_pages = row.get("pages").unwrap().as_f64().unwrap();
                    assert!(row_pages > 0.0, "{exp}: row without pages");
                    assert!(reachable + lost > 0.0, "{exp}: empty scan row");
                }
            }
            // E12 gossips across real OS processes: the run must span
            // ≥ 4 processes and ≥ 8 simulated peers, observe the churn
            // (dead-neighbor failures while a process was down), compact
            // every archival store, converge in every phase, and show
            // interest-based nodes shipping strictly fewer bytes than
            // full-replication nodes. Every row carries the served-side
            // per-message-type counters (the v2 PROBE surface).
            "e12" => {
                assert!(pages > 0.0, "{exp}: no pull pages recorded");
                assert_eq!(unavailable, 0.0, "{exp}: unexpected store gaps");
                let s = |key: &str| {
                    summary
                        .get(key)
                        .unwrap_or_else(|| panic!("{exp}: summary missing `{key}`"))
                        .as_f64()
                        .unwrap()
                };
                assert!(s("processes") >= 4.0, "{exp}: needs ≥ 4 OS processes");
                assert!(s("sim_peers") >= 8.0, "{exp}: needs ≥ 8 simulated peers");
                assert_eq!(
                    summary.get("converged"),
                    Some(&Json::Bool(true)),
                    "{exp}: cluster failed to converge"
                );
                assert!(s("churn_failures") > 0.0, "{exp}: churn left no trace");
                assert!(
                    s("compactions") >= 4.0,
                    "{exp}: archival stores not compacted"
                );
                assert!(
                    s("bytes_recv_interest_avg") < s("bytes_recv_full_avg"),
                    "{exp}: interest-based nodes must ship less than full replication"
                );
                let rows = doc.get("rows").unwrap().as_arr().unwrap();
                assert!(rows.len() >= 8, "{exp}: expected a row per mesh node");
                let mut modes = std::collections::BTreeSet::new();
                for row in rows {
                    modes.insert(row.get("mode").unwrap().as_str().unwrap().to_string());
                    assert!(
                        row.get("archive_len").unwrap().as_f64().unwrap() > 0.0,
                        "{exp}: empty archive after convergence"
                    );
                    for key in ["served_digests", "served_pulls", "served_subscriptions"] {
                        assert!(
                            row.get(key)
                                .unwrap_or_else(|| panic!("{exp}: row missing `{key}`"))
                                .as_f64()
                                .is_some(),
                            "{exp}: non-numeric `{key}`"
                        );
                    }
                }
                assert_eq!(
                    modes.into_iter().collect::<Vec<_>>(),
                    ["full", "interest"],
                    "{exp}: both replication modes must be present"
                );
                // The parent polls one METRICS snapshot per child
                // process mid-shutdown: every process must answer, and
                // the cluster-wide gossip counters must be visible.
                let obs = summary
                    .get("obs")
                    .unwrap_or_else(|| panic!("{exp}: summary missing `obs`"));
                assert_eq!(
                    obs.get("enabled"),
                    Some(&Json::Bool(true)),
                    "{exp}: default build must report obs enabled"
                );
                assert!(
                    obs.get("cluster_nodes_polled").unwrap().as_f64().unwrap() >= 4.0,
                    "{exp}: METRICS poll reached fewer than 4 processes"
                );
                assert!(
                    obs.get("cluster_pages_pulled").unwrap().as_f64().unwrap() > 0.0,
                    "{exp}: no gossip pulls visible over METRICS"
                );
            }
            // E13 injects deterministic faults at every layer and
            // must come out whole: faults actually fired, every
            // quarantined position healed from the mesh, the breaker
            // tripped against the dead node, no transaction applied
            // twice, and the cluster fully converged.
            "e13" => {
                assert!(pages > 0.0, "{exp}: no pull pages recorded");
                let s = |key: &str| {
                    summary
                        .get(key)
                        .unwrap_or_else(|| panic!("{exp}: summary missing `{key}`"))
                        .as_f64()
                        .unwrap()
                };
                assert!(s("faults_injected") > 0.0, "{exp}: no faults injected");
                assert!(s("quarantined") > 0.0, "{exp}: bit rot left no quarantine");
                assert_eq!(
                    s("healed"),
                    s("quarantined"),
                    "{exp}: not every quarantined position healed"
                );
                assert_eq!(s("duplicate_applies"), 0.0, "{exp}: duplicate applies");
                assert!(s("breaker_opened") > 0.0, "{exp}: breaker never opened");
                assert_eq!(
                    summary.get("converged"),
                    Some(&Json::Bool(true)),
                    "{exp}: cluster failed to converge"
                );
                for row in doc.get("rows").unwrap().as_arr().unwrap() {
                    for key in [
                        "len",
                        "healed",
                        "backoff_waits",
                        "breaker_opened",
                        "served_corrupt_frames",
                        "served_timed_out_conns",
                        "duplicate_applies",
                    ] {
                        assert!(
                            row.get(key)
                                .unwrap_or_else(|| panic!("{exp}: row missing `{key}`"))
                                .as_f64()
                                .is_some(),
                            "{exp}: non-numeric `{key}`"
                        );
                    }
                }
            }
            // E4 drives the engine directly: present but zero.
            _ => {
                assert_eq!(pages, 0.0, "{exp}: unexpected store traffic");
                assert_eq!(unavailable, 0.0, "{exp}: unexpected store gaps");
            }
        }
        // The engine-backed experiment must report engine work.
        if exp == "e4" {
            let firings = summary.get("firings").unwrap().as_f64().unwrap();
            assert!(firings > 0.0, "{exp}: no rule firings recorded");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
