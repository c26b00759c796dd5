//! The five demonstration scenarios of §4 of the paper, verbatim, as
//! integration tests over the full Figure 2 CDSS (experiment E3).

use orchestra_core::demo;
use orchestra_reconcile::Decision;
use orchestra_relational::{tuple, Value};
use orchestra_store::ReplicatedStore;
use orchestra_updates::{PeerId, TxnId, Update};
use std::sync::Arc;

fn peers() -> (PeerId, PeerId, PeerId, PeerId) {
    (
        PeerId::new("Alaska"),
        PeerId::new("Beijing"),
        PeerId::new("Crete"),
        PeerId::new("Dresden"),
    )
}

/// Scenario 1: "Updates made by Alaska get translated into Dresden's
/// schema and applied, and vice versa."
#[test]
fn scenario1_alaska_dresden_roundtrip() {
    let mut cdss = demo::figure2().unwrap();
    let (alaska, _beijing, _crete, dresden) = peers();

    // Alaska → Dresden: a Σ1 triple becomes one OPS row.
    cdss.publish_transaction(
        &alaska,
        vec![
            Update::insert("O", tuple!["HIV", 1]),
            Update::insert("P", tuple!["gp120", 2]),
            Update::insert("S", tuple![1, 2, "MRVKEKYQ"]),
        ],
    )
    .unwrap();
    let report = cdss.reconcile(&dresden).unwrap();
    assert_eq!(report.outcome.accepted.len(), 1);
    let ops = cdss
        .peer(&dresden)
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap();
    assert!(ops.contains(&tuple!["HIV", "gp120", "MRVKEKYQ"]));

    // Vice versa: Dresden publishes an OPS row; Alaska receives the split
    // Σ1 relations with invented (labeled-null) ids.
    cdss.publish_transaction(
        &dresden,
        vec![Update::insert("OPS", tuple!["Rat", "p53", "MEEPQSDPSV"])],
    )
    .unwrap();
    let report = cdss.reconcile(&alaska).unwrap();
    assert!(!report.outcome.accepted.is_empty());
    let peer = cdss.peer(&alaska).unwrap();
    let o = peer.instance().relation("O").unwrap();
    let rat_row = o
        .iter()
        .find(|t| t[0] == Value::str("Rat"))
        .expect("Rat organism translated to Alaska");
    assert!(rat_row[1].is_labeled_null(), "organism id was invented");
    let s = peer.instance().relation("S").unwrap();
    assert!(
        s.iter()
            .any(|t| t[2] == Value::str("MEEPQSDPSV") && t[0].is_labeled_null()),
        "sequence row with invented ids"
    );
}

/// Scenario 2: "Beijing and Dresden publish conflicting updates, and
/// Crete therefore rejects Dresden's. Dresden then publishes more updates
/// which depend on its earlier ones, which Crete must also reject."
#[test]
fn scenario2_priority_rejection_and_cascade() {
    let mut cdss = demo::figure2().unwrap();
    let (_alaska, beijing, crete, dresden) = peers();

    // Beijing's Σ1 data joins to OPS('HIV','gp120','SEQ-BEIJING').
    cdss.publish_transaction(
        &beijing,
        vec![
            Update::insert("O", tuple!["HIV", 1]),
            Update::insert("P", tuple!["gp120", 2]),
            Update::insert("S", tuple![1, 2, "SEQ-BEIJING"]),
        ],
    )
    .unwrap();
    // Dresden's conflicting row for the same (org, prot) key.
    let dresden_txn = cdss
        .publish_transaction(
            &dresden,
            vec![Update::insert("OPS", tuple!["HIV", "gp120", "SEQ-DRESDEN"])],
        )
        .unwrap();

    // Crete prefers Beijing (priority 2) over Dresden (priority 1).
    let report = cdss.reconcile(&crete).unwrap();
    assert!(report.outcome.rejected.contains(&dresden_txn));
    let ops = cdss
        .peer(&crete)
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap();
    assert!(ops.contains(&tuple!["HIV", "gp120", "SEQ-BEIJING"]));
    assert!(!ops.contains(&tuple!["HIV", "gp120", "SEQ-DRESDEN"]));

    // Dresden now modifies its own (rejected-at-Crete) row: the new
    // transaction depends on the earlier one.
    let follow_up = cdss
        .publish_transaction(
            &dresden,
            vec![Update::modify(
                "OPS",
                tuple!["HIV", "gp120", "SEQ-DRESDEN"],
                tuple!["HIV", "gp120", "SEQ-DRESDEN-V2"],
            )],
        )
        .unwrap();
    // The dependency was derived from provenance automatically.
    let stored = cdss.store().fetch(&follow_up).unwrap().unwrap();
    assert!(stored.antecedents.contains(&dresden_txn));

    let report = cdss.reconcile(&crete).unwrap();
    assert!(report.outcome.rejected.contains(&follow_up), "cascade");
    assert_eq!(
        cdss.peer(&crete).unwrap().decision(&follow_up),
        Some(Decision::Rejected)
    );
}

/// Scenario 3: "Alaska publishes an insertion of several data points in
/// the same transaction. Beijing publishes a modification of one of them.
/// Crete then reconciles, and ends up accepting both the transaction from
/// Beijing and the antecedent from Alaska, even though Crete does not
/// trust Alaska."
#[test]
fn scenario3_trusted_txn_pulls_distrusted_antecedent() {
    let mut cdss = demo::figure2().unwrap();
    let (alaska, beijing, crete, _dresden) = peers();

    let alaska_txn = cdss
        .publish_transaction(
            &alaska,
            vec![
                Update::insert("O", tuple!["HIV", 1]),
                Update::insert("P", tuple!["gp120", 2]),
                Update::insert("P", tuple!["gp41", 3]),
                Update::insert("S", tuple![1, 2, "SEQ-V1"]),
                Update::insert("S", tuple![1, 3, "SEQ-V2"]),
            ],
        )
        .unwrap();

    // Beijing reconciles (receives Alaska's data via the identity
    // mapping), then modifies one of the data points.
    cdss.reconcile(&beijing).unwrap();
    let beijing_txn = cdss
        .publish_transaction(
            &beijing,
            vec![Update::modify(
                "S",
                tuple![1, 2, "SEQ-V1"],
                tuple![1, 2, "SEQ-V1-FIXED"],
            )],
        )
        .unwrap();
    let stored = cdss.store().fetch(&beijing_txn).unwrap().unwrap();
    assert!(
        stored.antecedents.contains(&alaska_txn),
        "provenance-derived dependency on Alaska's transaction"
    );

    // Crete reconciles: Alaska alone would be distrusted, but Beijing's
    // trusted modification pulls the antecedent in.
    let report = cdss.reconcile(&crete).unwrap();
    let accepted = &report.outcome.accepted;
    assert!(accepted.contains(&alaska_txn), "antecedent accepted");
    assert!(accepted.contains(&beijing_txn), "trusted txn accepted");
    // Dependency order: Alaska before Beijing.
    let pos_a = accepted.iter().position(|t| *t == alaska_txn).unwrap();
    let pos_b = accepted.iter().position(|t| *t == beijing_txn).unwrap();
    assert!(pos_a < pos_b);

    let ops = cdss
        .peer(&crete)
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap();
    assert!(ops.contains(&tuple!["HIV", "gp120", "SEQ-V1-FIXED"]));
    assert!(ops.contains(&tuple!["HIV", "gp41", "SEQ-V2"]));
    assert!(!ops.contains(&tuple!["HIV", "gp120", "SEQ-V1"]));
}

/// Scenario 4: "Beijing and Alaska publish conflicting updates. Dresden
/// reconciles and defers both of them … Crete reconciles and publishes a
/// modification of Beijing's update. Dresden reconciles again and defers
/// Crete's update. Dresden then resolves the conflict [in favor of
/// Beijing], and accepts Crete's transaction automatically."
#[test]
fn scenario4_deferral_and_manual_resolution() {
    let mut cdss = demo::figure2().unwrap();
    let (alaska, beijing, crete, dresden) = peers();

    // Shared context so both Σ1 peers' sequences join to the same OPS key:
    // Alaska establishes the organism and protein ids.
    cdss.publish_transaction(
        &alaska,
        vec![
            Update::insert("O", tuple!["HIV", 1]),
            Update::insert("P", tuple!["gp120", 2]),
        ],
    )
    .unwrap();
    // Beijing learns the ids (via identity mapping) before diverging.
    cdss.reconcile(&beijing).unwrap();

    // Conflicting, causally independent sequence claims.
    let alaska_txn = cdss
        .publish_transaction(
            &alaska,
            vec![Update::insert("S", tuple![1, 2, "SEQ-ALASKA"])],
        )
        .unwrap();
    let beijing_txn = cdss
        .publish_transaction(
            &beijing,
            vec![Update::insert("S", tuple![1, 2, "SEQ-BEIJING"])],
        )
        .unwrap();

    // Dresden trusts both equally: both deferred.
    let report = cdss.reconcile(&dresden).unwrap();
    assert!(report.outcome.deferred.contains(&alaska_txn));
    assert!(report.outcome.deferred.contains(&beijing_txn));
    assert_eq!(cdss.peer(&dresden).unwrap().open_conflicts().len(), 1);
    assert!(cdss
        .peer(&dresden)
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap()
        .is_empty());

    // Crete reconciles (accepts Beijing per its policy) and publishes a
    // modification of Beijing's update.
    cdss.reconcile(&crete).unwrap();
    assert!(cdss
        .peer(&crete)
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap()
        .contains(&tuple!["HIV", "gp120", "SEQ-BEIJING"]));
    let crete_txn = cdss
        .publish_transaction(
            &crete,
            vec![Update::modify(
                "OPS",
                tuple!["HIV", "gp120", "SEQ-BEIJING"],
                tuple!["HIV", "gp120", "SEQ-CRETE"],
            )],
        )
        .unwrap();
    let stored = cdss.store().fetch(&crete_txn).unwrap().unwrap();
    assert!(stored.antecedents.contains(&beijing_txn));

    // Dresden reconciles again: Crete's txn depends on deferred Beijing.
    let report = cdss.reconcile(&dresden).unwrap();
    assert!(report.outcome.deferred.contains(&crete_txn));

    // The administrator resolves in favor of Beijing: Beijing + Crete
    // apply automatically, Alaska's claim is rejected.
    let res = cdss.resolve(&dresden, &beijing_txn).unwrap();
    let accepted: Vec<TxnId> = res.outcome.accepted.iter().map(|t| t.id.clone()).collect();
    assert!(accepted.contains(&beijing_txn));
    assert!(accepted.contains(&crete_txn), "accepted automatically");
    assert!(res.outcome.rejected.contains(&alaska_txn));

    let ops = cdss
        .peer(&dresden)
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap();
    assert!(ops.contains(&tuple!["HIV", "gp120", "SEQ-CRETE"]));
    assert!(!ops.contains(&tuple!["HIV", "gp120", "SEQ-ALASKA"]));
    assert!(cdss.peer(&dresden).unwrap().open_conflicts().is_empty());
}

/// Scenario 5: "Beijing publishes a number of updates and then goes
/// offline. Alaska can reconcile and still retrieve Beijing's updates
/// from the CDSS."
#[test]
fn scenario5_offline_publisher_archived_updates() {
    // Use the simulated DHT so "the CDSS stores the updates" is literal:
    // the archive survives storage-node churn within the replication
    // factor, and the publisher plays no role in retrieval.
    let dht = Arc::new(ReplicatedStore::new(8, 3).unwrap());
    let mut cdss = demo::figure2_with_store(dht.clone()).unwrap();
    let (alaska, beijing, _crete, _dresden) = peers();

    let ids = cdss
        .publish_transactions(
            &beijing,
            vec![
                vec![
                    Update::insert("O", tuple!["Mouse", 10]),
                    Update::insert("P", tuple!["Tp53", 20]),
                ],
                vec![Update::insert("S", tuple![10, 20, "MEEPQSD"])],
            ],
        )
        .unwrap();

    // Beijing "goes offline": it takes no further part. Two of the eight
    // storage nodes fail as well, both holding Beijing's first
    // transaction: fewer than R = 3, so one replica of every payload
    // survives. (Peers are not storage nodes; this is infrastructure
    // churn.)
    let holders = dht.holders(&ids[0]).unwrap();
    dht.take_node_down(holders[0]);
    dht.take_node_down(holders[1]);
    assert_eq!(dht.alive_nodes(), 6);
    assert_eq!(dht.availability(), 1.0);
    let report = cdss.reconcile(&alaska).unwrap();
    assert_eq!(
        report.blocked_on, None,
        "a surviving replica serves each payload"
    );
    assert_eq!(report.fetched, 2);
    assert_eq!(report.outcome.accepted.len(), 2);
    let peer = cdss.peer(&alaska).unwrap();
    assert!(peer
        .instance()
        .relation("O")
        .unwrap()
        .contains(&tuple!["Mouse", 10]));
    assert!(peer
        .instance()
        .relation("S")
        .unwrap()
        .contains(&tuple![10, 20, "MEEPQSD"]));
}

/// The logical clock advances with every update exchange (§2).
#[test]
fn logical_clock_advances_per_exchange() {
    let mut cdss = demo::figure2().unwrap();
    let (alaska, _b, _c, dresden) = peers();
    let e0 = cdss.current_epoch();
    cdss.publish_transaction(&alaska, vec![Update::insert("O", tuple!["X", 1])])
        .unwrap();
    let e1 = cdss.current_epoch();
    assert!(e1 > e0);
    cdss.reconcile(&dresden).unwrap();
    let e2 = cdss.current_epoch();
    assert!(e2 > e1);
}

/// Publishing via snapshot diff: local edits made directly on the
/// instance are picked up, paired into modifies, and published once.
#[test]
fn diff_based_publish() {
    let mut cdss = demo::figure2().unwrap();
    let (alaska, _b, _c, dresden) = peers();

    // Local autonomy: edit the instance directly.
    {
        let peer = cdss.peer_mut(&alaska).unwrap();
        let inst = peer.instance_mut();
        inst.insert("O", tuple!["HIV", 1]).unwrap();
        inst.insert("P", tuple!["gp120", 2]).unwrap();
        inst.insert("S", tuple![1, 2, "V1"]).unwrap();
    }
    let txn1 = cdss.publish(&alaska).unwrap().expect("pending edits");
    // Nothing more to publish.
    assert!(cdss.publish(&alaska).unwrap().is_none());

    // A second round of edits: modify by key.
    {
        let peer = cdss.peer_mut(&alaska).unwrap();
        peer.instance_mut().upsert("S", tuple![1, 2, "V2"]).unwrap();
    }
    let txn2 = cdss.publish(&alaska).unwrap().expect("pending edits");
    let stored = cdss.store().fetch(&txn2).unwrap().unwrap();
    assert_eq!(stored.updates.len(), 1);
    assert!(matches!(stored.updates[0], Update::Modify { .. }));
    assert!(
        stored.antecedents.contains(&txn1),
        "modify depends on insert"
    );

    cdss.reconcile(&dresden).unwrap();
    let ops = cdss
        .peer(&dresden)
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap();
    assert!(ops.contains(&tuple!["HIV", "gp120", "V2"]));
    assert!(!ops.contains(&tuple!["HIV", "gp120", "V1"]));
}
