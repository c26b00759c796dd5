//! The reconciler's size gauges, read from an obs snapshot: every peer
//! holds its share of `reconcile.open_candidates` (candidates whose
//! transaction the reconciler holds: undecided or deferred) and
//! `reconcile.known_txns` (transactions it has seen), and the registry
//! sums the shares of the live peers.
//!
//! The one test in this file owns the process-global registry, so the
//! totals it reads are exactly its own peers'.

use orchestra_core::Cdss;
use orchestra_datalog::Tgd;
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, ValueType};
use orchestra_updates::{PeerId, TxnId};

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
}

/// `(open_candidates, known_txns)` as the registry reports them.
fn gauges() -> (i64, i64) {
    let snap = orchestra_obs::snapshot_filtered("reconcile.");
    let read = |name: &str| {
        snap.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    (
        read("reconcile.open_candidates"),
        read("reconcile.known_txns"),
    )
}

#[test]
fn reconciler_gauges_track_open_and_known_transactions() {
    // B and C feed A through copy mappings at equal trust.
    let mut b = Cdss::builder();
    for peer in ["A", "B", "C"] {
        b = b.peer(peer, schema(), TrustPolicy::open(1));
    }
    for src in ["B", "C"] {
        let tgd = Tgd::identity(format!("{src}->A"), format!("{src}.R"), "A.R", 2);
        b = b.mapping(tgd.unwrap());
    }
    let mut cdss = b.build().unwrap();
    let (a, pb, pc) = (PeerId::new("A"), PeerId::new("B"), PeerId::new("C"));
    assert_eq!(gauges(), (0, 0));

    // Each publisher notes its own transaction: known, never open.
    cdss.peer_mut(&pb)
        .unwrap()
        .instance_mut()
        .insert("R", tuple![1, 1])
        .unwrap();
    cdss.publish(&pb).unwrap();
    cdss.peer_mut(&pc)
        .unwrap()
        .instance_mut()
        .insert("R", tuple![1, 2])
        .unwrap();
    cdss.publish(&pc).unwrap();
    assert_eq!(gauges(), (0, 2));

    // A sees both; they conflict on key 1 and defer, so A holds both.
    let report = cdss.reconcile(&a).unwrap();
    assert_eq!(report.outcome.deferred.len(), 2);
    assert_eq!(gauges(), (2, 4));

    // Resolving accepts B's and rejects C's: nothing stays open, every
    // transaction stays known.
    cdss.resolve(&a, &TxnId::new(pb, 1)).unwrap();
    assert_eq!(gauges(), (0, 4));

    // A peer's share lives as long as the peer.
    drop(cdss);
    assert_eq!(gauges(), (0, 0));
}
