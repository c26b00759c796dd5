//! Quickstart: the smallest useful CDSS — two lab databases sharing one
//! table through an identity mapping.
//!
//! Run with `cargo run --example quickstart`; it asserts that LabB
//! applies LabA's two inserts, that LabB's edit cites LabA's transaction
//! as its antecedent, and that LabA ends with LabB's reviewed row.

use orchestra_core::Cdss;
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, ValueType};
use orchestra_updates::{PeerId, Update};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A schema shared by both peers: gene(symbol*, description).
    let schema = DatabaseSchema::new("genes").with_relation(RelationSchema::from_parts_keyed(
        "gene",
        &[("symbol", ValueType::Str), ("descr", ValueType::Str)],
        &["symbol"],
    )?)?;

    // 2. Two peers that trust each other, joined by identity mappings.
    let mut cdss = Cdss::builder()
        .peer("LabA", schema.clone(), TrustPolicy::open(1))
        .peer("LabB", schema, TrustPolicy::open(1))
        .identity("LabA", "LabB")?
        .build()?;
    let lab_a = PeerId::new("LabA");
    let lab_b = PeerId::new("LabB");

    // 3. LabA publishes a transaction.
    let txn_a = cdss.publish_transaction(
        &lab_a,
        vec![
            Update::insert("gene", tuple!["TP53", "tumor protein p53"]),
            Update::insert("gene", tuple!["MDM2", "E3 ubiquitin ligase"]),
        ],
    )?;
    println!("LabA published {txn_a} at epoch {}", cdss.current_epoch());

    // 4. LabB reconciles: the CDSS fetches, translates and applies.
    let report = cdss.reconcile(&lab_b)?;
    println!(
        "LabB reconciled: {} candidate(s), {} accepted, {} tuple updates applied",
        report.candidates,
        report.outcome.accepted.len(),
        report.applied_updates
    );
    assert_eq!(report.outcome.accepted, std::slice::from_ref(&txn_a));
    assert_eq!(report.applied_updates, 2, "both of LabA's inserts applied");

    // 5. Local autonomy: LabB edits its own copy and shares back.
    {
        let peer = cdss.peer_mut(&lab_b)?;
        peer.instance_mut()
            .upsert("gene", tuple!["TP53", "tumor suppressor p53 (reviewed)"])?;
    }
    let txn = cdss.publish(&lab_b)?.expect("pending local edits");
    println!(
        "LabB published {txn} (from its pending-edit log, with provenance-derived dependency)"
    );
    let stored = cdss.store().fetch(&txn)?.unwrap();
    println!(
        "  antecedents: {:?}",
        stored
            .antecedents
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    assert_eq!(
        stored.antecedents,
        [txn_a].into(),
        "LabB's edit depends on LabA's"
    );

    cdss.reconcile(&lab_a)?;
    println!("\nLabA's instance after the round trip:");
    println!("{}", cdss.peer(&lab_a)?.instance());
    assert!(cdss
        .peer(&lab_a)?
        .instance()
        .relation("gene")?
        .contains(&tuple!["TP53", "tumor suppressor p53 (reviewed)"]));
    Ok(())
}
