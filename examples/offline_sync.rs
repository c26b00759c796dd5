//! Intermittent connectivity — the paper's demonstration scenario 5 over
//! the simulated peer-to-peer store: Beijing publishes and "goes offline";
//! storage nodes churn; Alaska still retrieves everything because the
//! archive is replicated. The final act swaps in the durable WAL-backed
//! store and shows the archive surviving a full process "restart".
//!
//! Run with `cargo run --example offline_sync`.

use orchestra_core::demo;
use orchestra_relational::tuple;
use orchestra_store::{DurableStore, ReplicatedStore, UpdateStore};
use orchestra_updates::{PeerId, Update};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 12-node simulated DHT with replication factor 3.
    let dht = Arc::new(ReplicatedStore::new(12, 3)?);
    let mut cdss = demo::figure2_with_store(dht.clone())?;
    let alaska = PeerId::new("Alaska");
    let beijing = PeerId::new("Beijing");

    println!("═══ Beijing publishes two transactions, then goes offline ═══");
    let ids = cdss.publish_transactions(
        &beijing,
        vec![
            vec![
                Update::insert("O", tuple!["Mouse", 10]),
                Update::insert("P", tuple!["Tp53", 20]),
            ],
            vec![Update::insert("S", tuple![10, 20, "MEEPQSDPSV"])],
        ],
    )?;
    println!("  archived: {ids:?}");
    println!(
        "  store: {} txns on {} nodes (replication ×{})",
        dht.len(),
        dht.num_nodes(),
        dht.replication()
    );

    println!("\n═══ Storage churn: 2 of 12 nodes fail ═══");
    dht.take_node_down(3);
    dht.take_node_down(7);
    println!(
        "  alive nodes: {}, payload availability: {:.0}%",
        dht.alive_nodes(),
        dht.availability() * 100.0
    );

    println!("\n═══ Alaska reconciles — Beijing plays no part in retrieval ═══");
    let report = cdss.reconcile(&alaska)?;
    println!(
        "  fetched {} txns, accepted {}, applied {} updates",
        report.fetched,
        report.outcome.accepted.len(),
        report.applied_updates
    );
    println!("{}", cdss.peer(&alaska)?.instance());

    let stats = dht.stats();
    println!(
        "store stats: published {}  fetched {}  probes {}  misses {}",
        stats.published, stats.fetched, stats.probes, stats.misses
    );

    println!("═══ Contrast: replication factor 1 under the same churn ═══");
    let fragile = ReplicatedStore::new(12, 1)?;
    fragile.publish(
        orchestra_updates::Epoch::new(1),
        (0..50)
            .map(|i| {
                orchestra_updates::Transaction::new(
                    orchestra_updates::TxnId::new(PeerId::new("B"), i),
                    orchestra_updates::Epoch::new(1),
                    vec![Update::insert("O", tuple![format!("org{i}"), i as i64])],
                )
            })
            .collect(),
    )?;
    for n in 0..4 {
        fragile.take_node_down(n);
    }
    println!(
        "  after 4/12 node failures with R=1: availability {:.0}%",
        fragile.availability() * 100.0
    );
    // The paged read path makes partial progress: every reachable payload
    // is delivered, every gap is reported with its position so a peer can
    // freeze its cursor there and retry later.
    let start = orchestra_store::FetchCursor::after_epoch(orchestra_updates::Epoch::zero());
    let (mut reachable, mut lost, mut pages) = (0usize, 0usize, 0usize);
    for page in orchestra_store::pages(&fragile, start, 16) {
        let page = page?;
        reachable += page.txns.len();
        lost += page.unavailable.len();
        pages += 1;
    }
    println!(
        "  the paged fetch makes partial progress: {reachable}/{} payloads \
         delivered across {pages} pages, {lost} gaps reported for retry",
        reachable + lost
    );

    println!("\n═══ Durable archive: the store itself survives a restart ═══");
    let dir = std::env::temp_dir().join(format!("orchestra-offline-sync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let published = {
        // First "process lifetime": Beijing publishes to the WAL-backed
        // archive, then everything is dropped — the crash/restart.
        let store = DurableStore::open(&dir)?;
        let mut cdss = demo::figure2_with_store(Arc::new(store))?;
        cdss.publish_transaction(
            &beijing,
            vec![
                Update::insert("O", tuple!["Rat", 30]),
                Update::insert("P", tuple!["Ins1", 40]),
                Update::insert("S", tuple![30, 40, "MALWMRLLPL"]),
            ],
        )?;
        cdss.store().len()
    };
    // Second lifetime: reopen recovers the archive from disk.
    let store = DurableStore::open(&dir)?;
    let recovered = store.durable_stats().recovered_txns;
    println!(
        "  reopened from {}: {recovered} txns recovered, latest epoch {:?}",
        dir.display(),
        store.latest_epoch()
    );
    assert_eq!(recovered, published as u64, "every published txn recovered");
    let start = orchestra_store::FetchCursor::at_epoch(orchestra_updates::Epoch::zero());
    let mut fetchable = 0;
    for page in orchestra_store::pages(&store, start, 16) {
        let page = page?;
        assert!(page.unavailable.is_empty(), "{:?}", page.unavailable);
        for t in &page.txns {
            assert_eq!(store.fetch(&t.id)?.as_ref(), Some(t), "fetch by id");
        }
        fetchable += page.txns.len();
    }
    assert_eq!(fetchable, published, "every archived txn fetchable");
    let mut cdss = demo::figure2_with_store(Arc::new(store))?;
    let report = cdss.reconcile(&alaska)?;
    println!(
        "  Alaska reconciles against the recovered archive: fetched {}, applied {} updates",
        report.fetched, report.applied_updates
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
