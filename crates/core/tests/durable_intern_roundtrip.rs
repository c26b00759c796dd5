//! Interned values × durability: symbols are process-local, state is not.
//!
//! The engine's `ValueInterner` assigns dense symbols in first-seen order,
//! so symbol ids are meaningless outside one engine instance. These tests
//! pin down the two guarantees that make that safe:
//!
//! 1. **Ordering independence** — engines whose interners assign
//!    completely different symbols to the same values (forced here by
//!    warming one engine with decoy values first) still compute identical
//!    fixpoints, including identical labeled nulls.
//! 2. **Kill-and-reopen round-trip** — a CDSS backed by the durable WAL
//!    store can be dropped and rebuilt from disk: the recovered exchange
//!    reaches an identical fixpoint through a *fresh* interner, because
//!    the codec serializes values structurally (never symbol ids) —
//!    including explicit labeled nulls flowing through published
//!    transactions.

use orchestra_core::{demo, Cdss};
use orchestra_datalog::{Atom, Term};
use orchestra_datalog::{DeletionAlgorithm, Engine, Tgd};
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use orchestra_store::{DurableOptions, DurableStore, SyncPolicy, UpdateStore};
use orchestra_updates::{PeerId, Update};
use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn fixpoint_is_independent_of_interner_ordering() {
    // OPS(org, prot, seq) split into O(org, #oid(org)) — labeled nulls.
    let db = DatabaseSchema::new("t")
        .with_relation(
            RelationSchema::from_parts(
                "OPS",
                &[
                    ("org", ValueType::Str),
                    ("prot", ValueType::Str),
                    ("seq", ValueType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap()
        .with_relation(
            RelationSchema::from_parts("O", &[("org", ValueType::Str), ("oid", ValueType::Str)])
                .unwrap(),
        )
        .unwrap()
        .with_relation(RelationSchema::from_parts("decoy", &[("v", ValueType::Str)]).unwrap())
        .unwrap();
    let m = Tgd::new(
        "split",
        vec![Atom::vars("OPS", &["org", "prot", "seq"])],
        vec![Atom::new(
            "O",
            vec![
                Term::var("org"),
                Term::skolem("oid", vec![Term::var("org")]),
            ],
        )],
    )
    .unwrap();

    let facts = [
        tuple!["HIV", "gp120", "MRV"],
        tuple!["HIV", "gp41", "AVG"],
        tuple!["Mouse", "p53", "CCT"],
    ];

    // Engine A: plain.
    let mut a = Engine::new(db.clone(), m.compile().unwrap()).unwrap();
    for f in &facts {
        a.insert_base("OPS", f.clone()).unwrap();
    }
    a.propagate().unwrap();

    // Engine B: intern a pile of decoy values first (then retract them),
    // so every shared value gets a different symbol than in A.
    let mut b = Engine::new(db, m.compile().unwrap()).unwrap();
    for i in 0..40 {
        b.insert_base("decoy", tuple![format!("decoy-{i}")])
            .unwrap();
    }
    b.propagate().unwrap();
    for i in 0..40 {
        b.remove_base(
            "decoy",
            &tuple![format!("decoy-{i}")],
            DeletionAlgorithm::ProvenanceBased,
        )
        .unwrap();
    }
    for f in &facts {
        b.insert_base("OPS", f.clone()).unwrap();
    }
    b.propagate().unwrap();

    // The interners genuinely disagree on symbol assignment…
    assert!(b.interner().len() > a.interner().len());
    // …but every observable is identical, labeled nulls included.
    let rows = |e: &Engine, rel: &str| e.scan_resolved(rel).collect::<BTreeSet<Tuple>>();
    assert_eq!(rows(&a, "OPS"), rows(&b, "OPS"));
    assert_eq!(rows(&a, "O"), rows(&b, "O"));
    let o = rows(&a, "O");
    assert!(!o.is_empty() && o.iter().all(|t| t[1].is_labeled_null()));
}

/// Every peer's local instance, relation by relation, in a stable order.
fn all_instances(cdss: &Cdss) -> Vec<(String, String, Vec<Tuple>)> {
    let mut out = Vec::new();
    for id in cdss.peer_ids() {
        let peer = cdss.peer(&id).unwrap();
        for rel in peer.instance().relations() {
            out.push((
                id.name().to_string(),
                rel.schema().name().to_string(),
                rel.to_vec(),
            ));
        }
    }
    out
}

fn seed_exchange(cdss: &mut Cdss) {
    let crete = PeerId::new("Crete");
    let beijing = PeerId::new("Beijing");
    // OPS rows published at Crete force the split mapping to invent
    // labeled nulls inside every σ1 peer's engine.
    cdss.publish_transaction(
        &crete,
        vec![
            Update::insert("OPS", tuple!["HIV", "gp120", "MRV"]),
            Update::insert("OPS", tuple!["HIV", "gp41", "AVG"]),
        ],
    )
    .unwrap();
    // An *explicit* labeled null published through the store exercises the
    // codec's structural Skolem encoding end to end.
    cdss.publish_transaction(
        &beijing,
        vec![Update::insert(
            "O",
            Tuple::new(vec![
                Value::str("Ebola"),
                Value::skolem("ext_oid", vec![Value::str("Ebola")]),
            ]),
        )],
    )
    .unwrap();
    for peer in ["Alaska", "Beijing", "Crete", "Dresden"] {
        cdss.reconcile(&PeerId::new(peer)).unwrap();
    }
}

#[test]
fn durable_store_roundtrips_interned_state_across_reopen() {
    let dir =
        std::env::temp_dir().join(format!("orchestra-intern-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurableOptions {
        sync_policy: SyncPolicy::Always,
        ..DurableOptions::default()
    };

    // Run 1: publish + reconcile, snapshot the fixpoint, then "kill".
    let before = {
        let store = DurableStore::open_with(&dir, opts).unwrap();
        let mut cdss = demo::figure2_with_store(Arc::new(store)).unwrap();
        seed_exchange(&mut cdss);
        all_instances(&cdss)
        // cdss (and its store handle) dropped here without further ado.
    };
    // Sanity: the exchange actually produced labeled nulls somewhere.
    assert!(
        before
            .iter()
            .any(|(_, _, ts)| ts.iter().any(Tuple::has_labeled_null)),
        "expected labeled nulls in the reconciled state"
    );

    // Run 2: recover from disk into a completely fresh CDSS (fresh
    // engines, fresh interners — symbol assignment starts from zero) and
    // replay the same exchange from the archived transactions.
    let store = DurableStore::open_with(&dir, opts).unwrap();
    assert!(store.len() > 0, "archive survived the reopen");
    let mut cdss = demo::figure2_with_store(Arc::new(store)).unwrap();
    for peer in ["Alaska", "Beijing", "Crete", "Dresden"] {
        cdss.reconcile(&PeerId::new(peer)).unwrap();
    }
    let after = all_instances(&cdss);
    assert_eq!(before, after, "kill-and-reopen changed the fixpoint");

    // The recovered engines can keep exchanging: publish one more OPS row
    // and check it joins the previously recovered labeled-null world.
    cdss.publish_transaction(
        &PeerId::new("Crete"),
        vec![Update::insert("OPS", tuple!["HIV", "p24", "GGA"])],
    )
    .unwrap();
    cdss.reconcile(&PeerId::new("Alaska")).unwrap();
    let alaska = cdss.peer(&PeerId::new("Alaska")).unwrap();
    // Same organism ⇒ the recovered engine re-invents the *same* labeled
    // null for HIV's oid, so O still has one HIV row.
    let o_rows: Vec<Tuple> = alaska
        .instance()
        .relation("O")
        .unwrap()
        .iter()
        .filter(|t| t[0] == Value::str("HIV"))
        .cloned()
        .collect();
    assert_eq!(o_rows.len(), 1, "HIV oid null must be stable: {o_rows:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn archive_rebuild_applies_own_and_foreign_writes_in_causal_order() {
    use orchestra_reconcile::TrustPolicy;

    // P0 —identity→ P1 over a keyed kv schema. P0 publishes k=1,v=10;
    // P1 reconciles (accepting the translated write), modifies it to
    // v=20, and publishes. P1 then loses all local state and rebuilds
    // from the archive: its own later modify must win over the causally
    // earlier foreign insert, exactly as before the crash.
    let kv = DatabaseSchema::new("kv")
        .with_relation(
            RelationSchema::from_parts_keyed(
                "R",
                &[("k", ValueType::Int), ("v", ValueType::Int)],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap();
    let build = |store: Box<dyn UpdateStore>| {
        Cdss::builder()
            .peer("P0", kv.clone(), TrustPolicy::open(1))
            .peer("P1", kv.clone(), TrustPolicy::open(1))
            .identity("P0", "P1")
            .unwrap()
            .build_with_store(store)
            .unwrap()
    };
    let dir = std::env::temp_dir().join(format!("orchestra-causal-rebuild-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurableOptions {
        sync_policy: SyncPolicy::Always,
        ..DurableOptions::default()
    };
    let p0 = PeerId::new("P0");
    let p1 = PeerId::new("P1");

    let expected = {
        let mut cdss = build(Box::new(DurableStore::open_with(&dir, opts).unwrap()));
        cdss.publish_transaction(&p0, vec![Update::insert("R", tuple![1, 10])])
            .unwrap();
        cdss.reconcile(&p1).unwrap();
        cdss.publish_transaction(&p1, vec![Update::modify("R", tuple![1, 10], tuple![1, 20])])
            .unwrap();
        cdss.peer(&p1)
            .unwrap()
            .instance()
            .relation("R")
            .unwrap()
            .to_vec()
    };
    assert_eq!(expected, vec![tuple![1, 20]]);

    // Rebuild from the archive; P1's reconcile replays the foreign insert
    // AND restores its own modify — causal order decides the final value.
    let mut cdss = build(Box::new(DurableStore::open_with(&dir, opts).unwrap()));
    cdss.reconcile(&p1).unwrap();
    let rebuilt = cdss
        .peer(&p1)
        .unwrap()
        .instance()
        .relation("R")
        .unwrap()
        .to_vec();
    assert_eq!(rebuilt, expected, "own later write must survive rebuild");

    let _ = std::fs::remove_dir_all(&dir);
}
