//! A tour of update-exchange provenance: one translated tuple, its N\[X\]
//! polynomial (PODS'07), the published base tuples behind it, and Boolean
//! evaluation deciding whether it survives without one publisher.
//!
//! Run with `cargo run --example provenance_tour`.

use orchestra_core::demo;
use orchestra_provenance::Boolean;
use orchestra_relational::tuple;
use orchestra_updates::{PeerId, Update};
use std::collections::BTreeSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cdss = demo::figure2()?;
    let alaska = PeerId::new("Alaska");
    let beijing = PeerId::new("Beijing");
    let dresden = PeerId::new("Dresden");

    // Two independent supports for the same OPS row at Dresden: Alaska's
    // triple and Beijing's triple (different ids, same org/prot/seq).
    cdss.publish_transaction(
        &alaska,
        vec![
            Update::insert("O", tuple!["HIV-1", 1]),
            Update::insert("P", tuple!["gp120", 2]),
            Update::insert("S", tuple![1, 2, "MRVKEKYQ"]),
        ],
    )?;
    cdss.publish_transaction(
        &beijing,
        vec![
            Update::insert("O", tuple!["HIV-1", 7]),
            Update::insert("P", tuple!["gp120", 8]),
            Update::insert("S", tuple![7, 8, "MRVKEKYQ"]),
        ],
    )?;
    cdss.reconcile(&dresden)?;

    let peer = cdss.peer(&dresden)?;
    let target = tuple!["HIV-1", "gp120", "MRVKEKYQ"];
    let poly = peer
        .provenance("OPS", &target)
        .expect("translated tuple has provenance");

    println!("═══ Provenance of Dresden's OPS{target} ═══\n");
    println!("N[X] polynomial over base-tuple tokens:\n  {poly}\n");

    println!("Each token is a published base tuple:");
    let mut alaska_tokens = BTreeSet::new();
    for v in poly.variables() {
        let publisher = &peer
            .node_transaction(v)
            .expect("token has a publisher")
            .peer;
        let (relation, fact) = peer.resolve_node(v).expect("token resolves");
        println!("  {v} = {relation}{fact} ← published by {publisher}");
        if *publisher == alaska {
            alaska_tokens.insert(v);
        }
    }

    // Boolean evaluation: map a token to false to ask whether the row is
    // still derivable once its base tuple is gone.
    let with_everything = poly.eval(|_| Boolean(true));
    let without_alaska = poly.eval(|v| Boolean(!alaska_tokens.contains(v)));
    println!("\nderivable with every token:   {with_everything}");
    println!("derivable without Alaska's:   {without_alaska}");
    assert!(with_everything.0);
    assert!(without_alaska.0, "Beijing's triple alone derives the row");
    Ok(())
}
