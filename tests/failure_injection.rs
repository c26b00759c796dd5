//! Failure injection: what happens to update exchange when the archive
//! degrades, when peers submit malformed input, and at API misuse points.

use orchestra_core::{demo, Cdss, CoreError};
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, ValueType};
use orchestra_store::{ReplicatedStore, StoreError, UpdateStore};
use orchestra_updates::{Epoch, PeerId, Update};
use std::sync::Arc;

/// When the archive loses all replicas of a payload, reconciliation no
/// longer errors: it reports the blocking transaction, freezes the peer's
/// resume cursor at the gap, and leaves the instance untouched; after the
/// nodes recover, the next reconcile resumes from the cursor and applies
/// everything.
#[test]
fn reconcile_survives_store_outage_and_recovers() {
    let dht = Arc::new(ReplicatedStore::new(4, 1).unwrap());
    let mut cdss = demo::figure2_with_store(dht.clone()).unwrap();
    let alaska = PeerId::new("Alaska");
    let dresden = PeerId::new("Dresden");

    let txn = cdss
        .publish_transaction(
            &alaska,
            vec![
                Update::insert("O", tuple!["HIV", 1]),
                Update::insert("P", tuple!["gp120", 2]),
                Update::insert("S", tuple![1, 2, "AAA"]),
            ],
        )
        .unwrap();

    // Kill every storage node: the payload is unreachable.
    for n in 0..4 {
        dht.take_node_down(n);
    }
    let report = cdss.reconcile(&dresden).unwrap();
    assert_eq!(report.blocked_on, Some(txn.clone()), "gap identified");
    assert_eq!(report.skipped_unavailable, 1);
    assert_eq!(report.fetched, 0);
    assert!(report.outcome.accepted.is_empty());
    let peer = cdss.peer(&dresden).unwrap();
    assert!(peer.resume_cursor().is_some(), "cursor frozen at the gap");
    assert_eq!(
        peer.instance().total_tuples(),
        0,
        "blocked reconcile left no partial state"
    );

    // A retry while the outage persists learns nothing new: no epoch burn.
    let epoch_before = cdss.current_epoch();
    let retry = cdss.reconcile(&dresden).unwrap();
    assert_eq!(retry.blocked_on, Some(txn));
    assert_eq!(cdss.current_epoch(), epoch_before, "idle retry is free");

    // Nodes come back: the next reconcile resumes from the frozen cursor.
    for n in 0..4 {
        dht.bring_node_up(n);
    }
    let report = cdss.reconcile(&dresden).unwrap();
    assert_eq!(report.outcome.accepted.len(), 1);
    assert_eq!(report.blocked_on, None);
    assert!(cdss.peer(&dresden).unwrap().resume_cursor().is_none());
    assert!(cdss
        .peer(&dresden)
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap()
        .contains(&tuple!["HIV", "gp120", "AAA"]));
}

/// Publishing malformed updates fails loudly, before anything is archived.
#[test]
fn malformed_updates_rejected_at_publish() {
    let mut cdss = demo::figure2().unwrap();
    let alaska = PeerId::new("Alaska");

    // Wrong arity.
    let err = cdss.publish_transaction(&alaska, vec![Update::insert("O", tuple!["HIV"])]);
    assert!(err.is_err());
    // Unknown relation.
    let err = cdss.publish_transaction(&alaska, vec![Update::insert("Zed", tuple![1])]);
    assert!(err.is_err());
    // Modify that changes the key.
    let err = cdss.publish_transaction(
        &alaska,
        vec![Update::modify("O", tuple!["HIV", 1], tuple!["HIV", 2])],
    );
    assert!(err.is_err());
    assert_eq!(cdss.store().len(), 0, "nothing was archived");
}

/// Unknown peers are rejected across the public API surface.
#[test]
fn unknown_peer_errors() {
    let mut cdss = demo::figure2().unwrap();
    let ghost = PeerId::new("Ghost");
    assert!(matches!(
        cdss.publish(&ghost),
        Err(CoreError::UnknownPeer(_))
    ));
    assert!(matches!(
        cdss.reconcile(&ghost),
        Err(CoreError::UnknownPeer(_))
    ));
    assert!(cdss.peer(&ghost).is_err());
    assert!(matches!(
        cdss.resolve(&ghost, &orchestra_updates::TxnId::new(PeerId::new("A"), 1)),
        Err(CoreError::UnknownPeer(_))
    ));
}

/// Builder misconfiguration is caught at build time.
#[test]
fn builder_validation() {
    // No peers.
    assert!(matches!(Cdss::builder().build(), Err(CoreError::Config(_))));
    // Identity mappings between peers with different schemas.
    let s1 = DatabaseSchema::new("a")
        .with_relation(RelationSchema::from_parts("R", &[("x", ValueType::Int)]).unwrap())
        .unwrap();
    let s2 = DatabaseSchema::new("b")
        .with_relation(RelationSchema::from_parts("Q", &[("x", ValueType::Int)]).unwrap())
        .unwrap();
    let err = Cdss::builder()
        .peer("A", s1.clone(), TrustPolicy::open(1))
        .peer("B", s2, TrustPolicy::open(1))
        .identity("A", "B");
    assert!(matches!(err, Err(CoreError::Config(_))));
    // Identity with an unknown peer.
    let err = Cdss::builder()
        .peer("A", s1.clone(), TrustPolicy::open(1))
        .identity("A", "Nope");
    assert!(matches!(err, Err(CoreError::UnknownPeer(_))));
    // Duplicate peer names.
    let err = Cdss::builder()
        .peer("A", s1.clone(), TrustPolicy::open(1))
        .peer("A", s1, TrustPolicy::open(1))
        .build();
    assert!(err.is_err());
}

/// Resolving a non-deferred transaction is an error and changes nothing.
#[test]
fn resolve_requires_deferred_state() {
    let mut cdss = demo::figure2().unwrap();
    let alaska = PeerId::new("Alaska");
    let dresden = PeerId::new("Dresden");
    let txn = cdss
        .publish_transaction(&alaska, vec![Update::insert("O", tuple!["HIV", 1])])
        .unwrap();
    cdss.reconcile(&dresden).unwrap();
    // Accepted, not deferred.
    let err = cdss.resolve(&dresden, &txn);
    assert!(matches!(err, Err(CoreError::Reconcile(_))));
}

/// The store rejects duplicate transaction ids even across publishers —
/// archived history is immutable.
#[test]
fn store_rejects_duplicate_ids() {
    let store = ReplicatedStore::new(4, 2).unwrap();
    let txn = orchestra_updates::Transaction::new(
        orchestra_updates::TxnId::new(PeerId::new("X"), 1),
        Epoch::new(1),
        vec![Update::insert("R", tuple![1])],
    );
    store.publish(Epoch::new(1), vec![txn.clone()]).unwrap();
    assert!(matches!(
        store.publish(Epoch::new(2), vec![txn]),
        Err(StoreError::DuplicateTxn(_))
    ));
}
