//! Property-based tests over cross-crate invariants:
//!
//! * incremental insertion propagation ≡ full recomputation,
//! * deletion ≡ recomputation from the surviving base facts,
//! * reconciliation safety (no conflicting accepted set; antecedent
//!   closure),
//! * two-peer CDSS convergence under random workloads.

use orchestra_datalog::{Atom, Engine, Rule};
use orchestra_reconcile::{Candidate, Decision, Reconciler, TrustPolicy};
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, Tuple, ValueType};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use proptest::prelude::*;

fn tc_schema() -> DatabaseSchema {
    DatabaseSchema::new("g")
        .with_relation(
            RelationSchema::from_parts("edge", &[("a", ValueType::Int), ("b", ValueType::Int)])
                .unwrap(),
        )
        .unwrap()
        .with_relation(
            RelationSchema::from_parts("path", &[("a", ValueType::Int), ("b", ValueType::Int)])
                .unwrap(),
        )
        .unwrap()
}

/// A relation's alive tuples, sorted (engines with different histories
/// scan in different orders).
fn rows(e: &Engine, relation: &str) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = e.scan_resolved(relation).collect();
    out.sort();
    out
}

fn tc_rules() -> Vec<Rule> {
    vec![
        Rule::new(
            "base",
            Atom::vars("path", &["x", "y"]),
            vec![Atom::vars("edge", &["x", "y"])],
            vec![],
        )
        .unwrap(),
        Rule::new(
            "step",
            Atom::vars("path", &["x", "z"]),
            vec![
                Atom::vars("edge", &["x", "y"]),
                Atom::vars("path", &["y", "z"]),
            ],
            vec![],
        )
        .unwrap(),
    ]
}

fn edges_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..6, 0i64..6), 0..15)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inserting edges one at a time (propagating after each) produces
    /// exactly the same materialized state as inserting all at once.
    #[test]
    fn incremental_equals_full(edges in edges_strategy()) {
        let mut inc = Engine::new(tc_schema(), tc_rules()).unwrap();
        for (a, b) in &edges {
            inc.insert_base("edge", tuple![*a, *b]).unwrap();
            inc.propagate().unwrap();
        }
        let mut full = Engine::new(tc_schema(), tc_rules()).unwrap();
        for (a, b) in &edges {
            full.insert_base("edge", tuple![*a, *b]).unwrap();
        }
        full.propagate().unwrap();
        prop_assert_eq!(rows(&inc, "path"), rows(&full, "path"));
        prop_assert_eq!(rows(&inc, "edge"), rows(&full, "edge"));
    }

    /// Deletion agrees with recomputation from the surviving base facts,
    /// on both the derived and the base relation.
    #[test]
    fn deletion_algorithms_agree(
        edges in edges_strategy(),
        delete_idx in proptest::collection::vec(any::<prop::sample::Index>(), 1..5),
    ) {
        let mut prov = Engine::new(tc_schema(), tc_rules()).unwrap();
        for (a, b) in &edges {
            prov.insert_base("edge", tuple![*a, *b]).unwrap();
        }
        prov.propagate().unwrap();

        // Choose deletions (dedup via set).
        let mut to_delete: Vec<Tuple> = Vec::new();
        if !edges.is_empty() {
            for idx in &delete_idx {
                let (a, b) = edges[idx.index(edges.len())];
                let t = tuple![a, b];
                if !to_delete.contains(&t) {
                    to_delete.push(t);
                }
            }
        }
        for t in &to_delete {
            prov.remove_bases(&[("edge", t)]).unwrap();
        }

        // Ground truth: recompute from surviving edges.
        let mut fresh = Engine::new(tc_schema(), tc_rules()).unwrap();
        for (a, b) in &edges {
            let t = tuple![*a, *b];
            if !to_delete.contains(&t) {
                fresh.insert_base("edge", t).unwrap();
            }
        }
        fresh.propagate().unwrap();
        prop_assert_eq!(rows(&prov, "path"), rows(&fresh, "path"));
        prop_assert_eq!(rows(&prov, "edge"), rows(&fresh, "edge"));
    }
}

fn kv_schema() -> DatabaseSchema {
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
}

/// A randomly generated transaction workload: (peer#, key, value) per txn.
fn txn_workload() -> impl Strategy<Value = Vec<(u8, i64, i64)>> {
    proptest::collection::vec((0u8..4, 0i64..4, 0i64..8), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Reconciliation safety: the accepted set never contains two
    /// causally-unrelated transactions writing different values to one
    /// key; every decision is deterministic across replays.
    #[test]
    fn reconciliation_accepts_consistent_sets(workload in txn_workload()) {
        let run = || {
            let mut r = Reconciler::new(kv_schema());
            let mut cands = Vec::new();
            for (i, (peer, k, v)) in workload.iter().enumerate() {
                let id = TxnId::new(PeerId::new(format!("P{peer}")), i as u64 + 1);
                let txn = Transaction::new(
                    id,
                    Epoch::new(1),
                    vec![Update::insert("R", tuple![*k, *v])],
                );
                cands.push(Candidate::from_txn(txn));
            }
            let outcome = r.reconcile(cands, &TrustPolicy::open(1)).unwrap();
            (r, outcome)
        };
        let (r, outcome) = run();

        // (a) accepted writes are single-valued per key.
        let mut value_per_key: std::collections::BTreeMap<i64, i64> = Default::default();
        for t in &outcome.accepted {
            for u in &t.updates {
                if let Update::Insert { tuple: tu, .. } = u {
                    let k = tu[0].as_int().unwrap();
                    let v = tu[1].as_int().unwrap();
                    if let Some(prev) = value_per_key.insert(k, v) {
                        prop_assert_eq!(prev, v, "two accepted values for key {}", k);
                    }
                }
            }
        }

        // (b) decisions partition: every candidate got at most one
        // decision, and accepted+rejected+deferred are disjoint.
        let accepted: std::collections::BTreeSet<_> =
            outcome.accepted.iter().map(|t| t.id.clone()).collect();
        for id in &outcome.rejected {
            prop_assert!(!accepted.contains(id));
        }
        for id in &outcome.deferred {
            prop_assert!(!accepted.contains(id));
            prop_assert!(!outcome.rejected.contains(id));
            prop_assert_eq!(r.decision(id), Some(Decision::Deferred));
        }

        // (c) determinism: replay yields identical decisions.
        let (_, outcome2) = run();
        let ids = |o: &orchestra_reconcile::ReconcileOutcome| {
            (
                o.accepted.iter().map(|t| t.id.clone()).collect::<Vec<_>>(),
                o.rejected.clone(),
                o.deferred.clone(),
            )
        };
        prop_assert_eq!(ids(&outcome), ids(&outcome2));
    }

    /// Resolving every open conflict (always in favor of the smaller id)
    /// leaves no deferred transactions behind.
    #[test]
    fn resolution_drains_deferrals(workload in txn_workload()) {
        let mut r = Reconciler::new(kv_schema());
        let mut cands = Vec::new();
        for (i, (peer, k, v)) in workload.iter().enumerate() {
            let id = TxnId::new(PeerId::new(format!("P{peer}")), i as u64 + 1);
            cands.push(Candidate::from_txn(Transaction::new(
                id,
                Epoch::new(1),
                vec![Update::insert("R", tuple![*k, *v])],
            )));
        }
        r.reconcile(cands, &TrustPolicy::open(1)).unwrap();
        // Repeatedly resolve the first open conflict.
        let mut guard = 0;
        while let Some((a, _b)) = r.open_conflicts().first().cloned() {
            let winner = if r.decision(&a) == Some(Decision::Deferred) {
                a
            } else {
                // Conflict already collapsed by a previous resolution.
                break;
            };
            r.resolve(&winner).unwrap();
            guard += 1;
            prop_assert!(guard < 100, "resolution must terminate");
        }
        prop_assert!(r.open_conflicts().is_empty() || guard > 0);
    }
}

/// Two peers with identity mappings and non-conflicting workloads end up
/// with identical instances regardless of publish interleaving.
#[test]
fn two_peer_convergence_randomized() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cdss = orchestra_core::Cdss::builder()
            .peer("A", kv_schema(), TrustPolicy::open(1))
            .peer("B", kv_schema(), TrustPolicy::open(1))
            .identity("A", "B")
            .unwrap()
            .build()
            .unwrap();
        let a = PeerId::new("A");
        let b = PeerId::new("B");
        // Peer A owns even keys, peer B odd keys, one fresh key per round:
        // no conflicting writes are possible.
        for round in 0..5i64 {
            let v = rng.random_range(0..100i64);
            cdss.publish_transaction(&a, vec![Update::insert("R", tuple![round * 2, v])])
                .unwrap();
            let v = rng.random_range(0..100i64);
            cdss.publish_transaction(&b, vec![Update::insert("R", tuple![round * 2 + 1, v])])
                .unwrap();
            if rng.random_bool(0.5) {
                cdss.reconcile(&a).unwrap();
            }
            if rng.random_bool(0.5) {
                cdss.reconcile(&b).unwrap();
            }
        }
        cdss.reconcile(&a).unwrap();
        cdss.reconcile(&b).unwrap();
        let ra = cdss
            .peer(&a)
            .unwrap()
            .instance()
            .relation("R")
            .unwrap()
            .to_vec();
        let rb = cdss
            .peer(&b)
            .unwrap()
            .instance()
            .relation("R")
            .unwrap()
            .to_vec();
        assert_eq!(ra, rb, "seed {seed}");
    }
}
