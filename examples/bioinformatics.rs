//! The paper's Figure 2 bioinformatics CDSS, narrated end to end — the
//! CLI stand-in for the demonstration's Java GUI (Figure 3): it prints
//! the mappings, each peer's state, and the original vs. translated
//! updates at every step, and asserts what each step claims.
//!
//! Run with `cargo run --example bioinformatics`.

use orchestra_core::demo;
use orchestra_relational::{tuple, Value};
use orchestra_updates::{PeerId, Update};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cdss = demo::figure2()?;
    let alaska = PeerId::new("Alaska");
    let beijing = PeerId::new("Beijing");
    let crete = PeerId::new("Crete");
    let dresden = PeerId::new("Dresden");

    println!("═══ The CDSS of Figure 2 ═══");
    println!("Peers: Alaska (Σ1), Beijing (Σ1), Crete (Σ2), Dresden (Σ2)");
    println!("\nSchema mappings:");
    for m in cdss.mappings() {
        println!("  {m}");
    }
    println!("\nTrust: Alaska, Beijing, Dresden trust everyone (priority 1);");
    println!("       Crete trusts only Beijing (2) and Dresden (1).");

    // ── Alaska curates Σ1 data ────────────────────────────────────────
    println!("\n═══ Alaska publishes HIV reference sequences (one transaction) ═══");
    let txn = cdss.publish_transaction(
        &alaska,
        vec![
            Update::insert("O", tuple!["HIV-1", 1]),
            Update::insert("P", tuple!["gp120", 10]),
            Update::insert("P", tuple!["gp41", 11]),
            Update::insert("S", tuple![1, 10, "MRVKEKYQHLWRWGWRWGTM"]),
            Update::insert("S", tuple![1, 11, "AVGIGALFLGFLGAAGSTMG"]),
        ],
    )?;
    println!("published: {}", cdss.store().fetch(&txn)?.unwrap());

    // ── Dresden reconciles: Σ1 → Σ2 join ─────────────────────────────
    println!("\n═══ Dresden reconciles (MA→C join, then MC→D identity) ═══");
    let report = cdss.reconcile(&dresden)?;
    for t in &report.outcome.accepted {
        println!("translated + accepted: {t}");
    }
    println!("{}", cdss.peer(&dresden)?.instance());
    let ops = cdss.peer(&dresden)?.instance().relation("OPS")?;
    assert_eq!(ops.len(), 2, "one OPS row per joined HIV sequence");
    assert!(ops.contains(&tuple!["HIV-1", "gp120", "MRVKEKYQHLWRWGWRWGTM"]));
    assert!(ops.contains(&tuple!["HIV-1", "gp41", "AVGIGALFLGFLGAAGSTMG"]));

    // ── Dresden contributes back: Σ2 → Σ1 split invents ids ──────────
    println!("═══ Dresden publishes a new organism (OPS row) ═══");
    let txn = cdss.publish_transaction(
        &dresden,
        vec![Update::insert(
            "OPS",
            tuple!["Rattus norvegicus", "p53", "MEEPQSDPSVEPPLSQETFS"],
        )],
    )?;
    println!("published: {}", cdss.store().fetch(&txn)?.unwrap());

    println!("\n═══ Alaska reconciles (MD→C identity, MC→A split) ═══");
    let report = cdss.reconcile(&alaska)?;
    for t in &report.outcome.accepted {
        println!("translated + accepted: {t}");
    }
    println!("note the invented labeled-null ids (Skolem terms over `org`/`prot`):");
    println!("{}", cdss.peer(&alaska)?.instance());
    let alaska_db = cdss.peer(&alaska)?.instance();
    let rat = Value::str("Rattus norvegicus");
    let o = alaska_db.relation("O")?;
    assert!(
        o.contains(&tuple!["HIV-1", 1]),
        "Alaska's own row is untouched"
    );
    let rat_org = o.iter().find(|t| t[0] == rat).expect("Rat organism row");
    assert!(rat_org[1].is_labeled_null(), "invented organism id");
    let p = alaska_db.relation("P")?;
    let p53 = p
        .iter()
        .find(|t| t[0] == Value::str("p53"))
        .expect("p53 row");
    assert!(p53[1].is_labeled_null(), "invented protein id");
    let s = alaska_db.relation("S")?;
    assert_eq!(s.len(), 3);
    let rat_seq = s
        .iter()
        .find(|t| t[2] == Value::str("MEEPQSDPSVEPPLSQETFS"))
        .expect("Rat sequence row");
    assert_eq!((&rat_seq[0], &rat_seq[1]), (&rat_org[1], &p53[1]));

    // ── Trust in action at Crete ──────────────────────────────────────
    println!("═══ Crete reconciles: trusts Beijing/Dresden, distrusts Alaska ═══");
    let report = cdss.reconcile(&crete)?;
    println!(
        "accepted {} transaction(s), rejected {:?}, deferred {:?}",
        report.outcome.accepted.len(),
        report.outcome.rejected,
        report.outcome.deferred,
    );
    println!("Dresden's Rat row arrived; Alaska's HIV rows did not:");
    println!("{}", cdss.peer(&crete)?.instance());
    let ops = cdss.peer(&crete)?.instance().relation("OPS")?;
    assert!(ops.contains(&tuple!["Rattus norvegicus", "p53", "MEEPQSDPSVEPPLSQETFS"]));
    assert!(
        ops.iter().all(|t| t[0] != Value::str("HIV-1")),
        "Crete distrusts Alaska"
    );

    // ── Beijing syncs everything ──────────────────────────────────────
    println!("═══ Beijing reconciles (identity from Alaska + split round trip) ═══");
    cdss.reconcile(&beijing)?;
    println!("{}", cdss.peer(&beijing)?.instance());

    let stats = cdss.stats();
    println!(
        "═══ system stats ═══\nepoch {}  published txns {}  store archived {}",
        stats.epoch,
        stats.published_txns,
        cdss.store().len()
    );
    Ok(())
}
