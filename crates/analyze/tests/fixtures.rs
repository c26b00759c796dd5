//! Fixture-corpus tests: every lint gets a positive case (the seeded
//! violation is found) and a negative case (the compliant twin stays
//! clean). The fixtures live under `tests/fixtures/` — a directory the
//! workspace walker deliberately skips, so the deliberate violations
//! never leak into a real `--workspace` run — and are mounted into
//! synthetic [`Workspace`] values at whatever path each lint scopes
//! by.

use orchestra_analyze::files::{classify, DocFile, FileEntry, Workspace};
use orchestra_analyze::findings::{Finding, LintId};
use orchestra_analyze::report::Report;
use orchestra_analyze::{analyze_workspace, Options};
use std::path::PathBuf;

fn entry(rel: &str, src: &str) -> FileEntry {
    let (kind, crate_name) = classify(rel);
    FileEntry {
        rel_path: rel.to_string(),
        kind,
        crate_name,
        src: src.to_string(),
    }
}

fn ws(files: Vec<FileEntry>, docs: Vec<(&str, &str)>) -> Workspace {
    Workspace {
        root: PathBuf::from("<fixture>"),
        files,
        docs: docs
            .into_iter()
            .map(|(rel, src)| DocFile {
                rel_path: rel.to_string(),
                src: src.to_string(),
            })
            .collect(),
    }
}

fn run(ws: &Workspace, lints: &[LintId]) -> Report {
    analyze_workspace(
        ws,
        &Options {
            lints: lints.to_vec(),
        },
    )
}

fn of(report: &Report, lint: LintId) -> Vec<&Finding> {
    report.findings.iter().filter(|f| f.lint == lint).collect()
}

// ---- lock-order ---------------------------------------------------------

#[test]
fn lock_order_positive_cycle_and_self_edge() {
    let w = ws(
        vec![entry(
            "crates/store/src/fixture.rs",
            include_str!("fixtures/lock_cycle.rs"),
        )],
        vec![],
    );
    let r = run(&w, &[LintId::LockOrder]);
    let hits = of(&r, LintId::LockOrder);
    assert_eq!(hits.len(), 2, "{}", r.render_text());
    assert!(
        hits.iter()
            .any(|f| f.message.contains("self-deadlock") && f.message.contains("Node.a")),
        "{}",
        r.render_text()
    );
    assert!(
        hits.iter().any(|f| f.message.contains("lock-order cycle")
            && f.message.contains("Node.a")
            && f.message.contains("Node.b")),
        "{}",
        r.render_text()
    );
}

#[test]
fn lock_order_negative_consistent_order() {
    let w = ws(
        vec![entry(
            "crates/store/src/fixture.rs",
            include_str!("fixtures/lock_clean.rs"),
        )],
        vec![],
    );
    let r = run(&w, &[LintId::LockOrder]);
    assert_eq!(of(&r, LintId::LockOrder).len(), 0, "{}", r.render_text());
}

// ---- determinism --------------------------------------------------------

#[test]
fn determinism_positive_hash_iteration_in_merge() {
    let w = ws(
        vec![entry(
            "crates/datalog/src/engine.rs",
            include_str!("fixtures/det_bad.rs"),
        )],
        vec![],
    );
    let r = run(&w, &[LintId::Determinism]);
    let hits = of(&r, LintId::Determinism);
    assert_eq!(hits.len(), 1, "{}", r.render_text());
    assert!(hits[0].message.contains("buckets"));
    assert!(hits[0].message.contains("merge_counts"));
}

#[test]
fn determinism_covers_engine_merge_drain() {
    // The merge drain lives in `crates/datalog/src/engine.rs`, which is
    // in the lint's critical set: a hash-order drain there is flagged,
    // its order-insensitive twin and non-marker reads are not.
    let w = ws(
        vec![entry(
            "crates/datalog/src/engine.rs",
            include_str!("fixtures/det_engine_merge.rs"),
        )],
        vec![],
    );
    let r = run(&w, &[LintId::Determinism]);
    let hits = of(&r, LintId::Determinism);
    assert_eq!(hits.len(), 1, "{}", r.render_text());
    assert!(hits[0].message.contains("pending"), "{}", r.render_text());
    assert!(
        hits[0].message.contains("drain_pending"),
        "{}",
        r.render_text()
    );
}

#[test]
fn determinism_node_table_module_is_critical() {
    // The node table assigns NodeIds, so it also decides global order;
    // the same bad pattern mounted at `crates/datalog/src/node.rs` must
    // be caught.
    let w = ws(
        vec![entry(
            "crates/datalog/src/node.rs",
            include_str!("fixtures/det_bad.rs"),
        )],
        vec![],
    );
    let r = run(&w, &[LintId::Determinism]);
    assert_eq!(of(&r, LintId::Determinism).len(), 1, "{}", r.render_text());
}

#[test]
fn determinism_sees_word_hashed_aliases() {
    // `FxHashMap` / `FxHashSet` are hash containers too: iterating one
    // in a marker function of a critical module is flagged; the sorted
    // twin is not.
    let w = ws(
        vec![entry(
            "crates/datalog/src/provgraph.rs",
            include_str!("fixtures/det_fx_alias.rs"),
        )],
        vec![],
    );
    let r = run(&w, &[LintId::Determinism]);
    let (hits, text) = (of(&r, LintId::Determinism), r.render_text());
    assert_eq!(hits.len(), 2, "{text}");
    for (hit, what) in hits.iter().zip(["`base`", "`heads`"]) {
        assert!(hit.message.contains(what), "{text}");
    }
    assert!(hits[0].message.contains("write_base"), "{text}");
    assert!(hits[1].message.contains("merge_heads"), "{text}");
}

#[test]
fn determinism_negative_sorted_sinks_are_clean() {
    let w = ws(
        vec![entry(
            "crates/datalog/src/engine.rs",
            include_str!("fixtures/det_ok.rs"),
        )],
        vec![],
    );
    let r = run(&w, &[LintId::Determinism]);
    assert_eq!(r.total(), 0, "{}", r.render_text());
}

// ---- failpoint ----------------------------------------------------------

#[test]
fn failpoint_positive_duplicate_and_unexercised() {
    let evidence = r#"
        #[test]
        fn storm() {
            let _g = orchestra_fault::scoped("store.fix.write=err@1");
            let _h = orchestra_fault::scoped("store.fix.covered=delay@0.5");
        }
    "#;
    let w = ws(
        vec![
            entry(
                "crates/store/src/fixture.rs",
                include_str!("fixtures/failpoints.rs"),
            ),
            entry("crates/store/tests/fixture_storm.rs", evidence),
        ],
        vec![],
    );
    let r = run(&w, &[LintId::Failpoint]);
    let hits = of(&r, LintId::Failpoint);
    assert_eq!(hits.len(), 2, "{}", r.render_text());
    assert!(
        hits.iter()
            .any(|f| f.message.contains("store.fix.write") && f.message.contains("unique")),
        "{}",
        r.render_text()
    );
    assert!(
        hits.iter().any(
            |f| f.message.contains("store.fix.orphan") && f.message.contains("never exercised")
        ),
        "{}",
        r.render_text()
    );
}

#[test]
fn failpoint_negative_ci_matrix_counts_as_evidence() {
    let lib = r#"pub fn one() { orchestra_fault::check("store.fix.solo"); }"#;
    let w = ws(
        vec![entry("crates/store/src/fixture.rs", lib)],
        vec![(
            ".github/workflows/ci.yml",
            "env:\n  ORCHESTRA_FAULT: store.fix.solo=err@1\n",
        )],
    );
    let r = run(&w, &[LintId::Failpoint]);
    assert_eq!(r.total(), 0, "{}", r.render_text());
}

// ---- doc-drift ----------------------------------------------------------

#[test]
fn doc_drift_positive_opcodes_and_counters() {
    let wire = "\
# Wire

| op | direction | message |
|----|-----------|---------|
| `0x01` | C → S | PING |
| `0x03` | C → S | GHOST |
| `0x04` | C → S | PONG |

The PROBE_OK body reports `pings`.
";
    // `StoreStats.pongs` and the `2×uvarint` arity are missing from the doc.
    let stats = "pub struct StoreStats {\n    pub pings: u64,\n    pub pongs: u64,\n}\n";
    let w = ws(
        vec![
            entry(
                "crates/net/src/proto.rs",
                include_str!("fixtures/proto_drift.rs"),
            ),
            entry("crates/store/src/api.rs", stats),
        ],
        vec![("docs/wire-protocol.md", wire)],
    );
    let r = run(&w, &[LintId::DocDrift]);
    let msgs: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(r.total(), 5, "{}", r.render_text());
    assert!(msgs
        .iter()
        .any(|m| m.contains("OP_ORPHAN") && m.contains("no row")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("PONG") && m.contains("OP_RENAMED")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("GHOST") && m.contains("does not exist")));
    assert!(msgs.iter().any(|m| m.contains("`pongs`")));
    assert!(msgs.iter().any(|m| m.contains("2×uvarint")));
}

#[test]
fn doc_drift_failpoint_table_both_directions() {
    let lib = r#"
pub fn a() { orchestra_fault::check("store.docd.present"); }
pub fn b() { orchestra_fault::check("store.docd.missing"); }
"#;
    let arch = "\
## Failpoints

| site | effect |
|------|--------|
| `store.docd.present` | wal write errors |
| `store.docd.ghost` | removed long ago |
";
    let w = ws(
        vec![entry("crates/store/src/fixture.rs", lib)],
        vec![("docs/architecture.md", arch)],
    );
    let r = run(&w, &[LintId::DocDrift]);
    let msgs: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(r.total(), 2, "{}", r.render_text());
    assert!(msgs
        .iter()
        .any(|m| m.contains("store.docd.missing") && m.contains("not listed")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("store.docd.ghost") && m.contains("does not exist")));
}

#[test]
fn doc_drift_negative_synced_docs_are_clean() {
    let proto = "pub const OP_PING: u8 = 0x01;\n";
    let stats = "pub struct StoreStats { pub pings: u64 }\n";
    let wire = "\
| op | direction | message |
|----|-----------|---------|
| `0x01` | C → S | PING |

PROBE_OK carries `pings` as 1×uvarint.
";
    let w = ws(
        vec![
            entry("crates/net/src/proto.rs", proto),
            entry("crates/store/src/api.rs", stats),
        ],
        vec![("docs/wire-protocol.md", wire)],
    );
    let r = run(&w, &[LintId::DocDrift]);
    assert_eq!(r.total(), 0, "{}", r.render_text());
}

#[test]
fn doc_drift_metric_catalog_both_directions() {
    let lib = r#"
pub fn hot() {
    orchestra_obs::counter!("store.fix.cataloged", 1);
    orchestra_obs::counter!("store.fix.uncataloged", 1);
    orchestra_obs::time_histogram!("store.fix.lat_micros", ());
}
pub fn register() -> orchestra_obs::GaugeHandle {
    orchestra_obs::gauge("store.fix.level")
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        orchestra_obs::counter!("store.fix.testonly", 1);
        orchestra_obs::counter!("test.fix.harness", 1);
    }
}
"#;
    let obs_doc = "\
## Metrics

| name | kind | meaning |
|------|------|---------|
| `store.fix.cataloged` | counter | listed |
| `store.fix.lat_micros` | histogram | listed |
| `store.fix.level` | gauge | listed |
| `store.fix.ghost` | counter | removed long ago |
| `fault.fired.<site>` | counter | placeholder family, skipped |
| `store.fix.roundspan` | span | span rows are exempt |
";
    let w = ws(
        vec![entry("crates/store/src/fixture.rs", lib)],
        vec![("docs/observability.md", obs_doc)],
    );
    let r = run(&w, &[LintId::DocDrift]);
    let msgs: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(r.total(), 2, "{}", r.render_text());
    assert!(msgs
        .iter()
        .any(|m| m.contains("store.fix.uncataloged") && m.contains("not cataloged")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("store.fix.ghost") && m.contains("not registered")));
}

#[test]
fn doc_drift_metrics_require_the_catalog_doc() {
    let lib = r#"pub fn hot() { orchestra_obs::counter!("store.fix.orphan", 1); }"#;
    let w = ws(vec![entry("crates/store/src/fixture.rs", lib)], vec![]);
    let r = run(&w, &[LintId::DocDrift]);
    assert_eq!(r.total(), 1, "{}", r.render_text());
    assert!(r.findings[0]
        .message
        .contains("docs/observability.md` is missing"));
}

// ---- bad-annotation -----------------------------------------------------

#[test]
fn torn_and_stale_annotations_reported() {
    let w = ws(
        vec![entry(
            "crates/store/src/fixture.rs",
            include_str!("fixtures/torn_allow.rs"),
        )],
        vec![],
    );
    let r = run(&w, &[LintId::Determinism, LintId::BadAnnotation]);
    let hits = of(&r, LintId::BadAnnotation);
    assert_eq!(hits.len(), 2, "{}", r.render_text());
    assert!(hits.iter().any(|f| f.message.contains("torn")));
    assert!(hits.iter().any(|f| f.message.contains("unused")));
    // bad-annotation findings are themselves unannotatable: the gate fails.
    assert_eq!(r.unannotated(), 2);
}

#[test]
fn allow_for_a_lint_that_did_not_run_is_not_stale() {
    // Under a `--lint` filter the determinism lint never consumes its allows;
    // they must not be reported as unused (torn ones still are).
    let w = ws(
        vec![entry(
            "crates/store/src/fixture.rs",
            include_str!("fixtures/torn_allow.rs"),
        )],
        vec![],
    );
    let r = run(&w, &[LintId::LockOrder, LintId::BadAnnotation]);
    let hits = of(&r, LintId::BadAnnotation);
    assert_eq!(hits.len(), 1, "{}", r.render_text());
    assert!(hits[0].message.contains("torn"));
}
