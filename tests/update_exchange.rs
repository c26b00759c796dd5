//! Cross-crate integration tests for update exchange: translation through
//! mapping chains, convergence between peers, deletion propagation, and
//! provenance-carried trust.

use orchestra_core::demo;
use orchestra_core::Cdss;
use orchestra_datalog::{Atom, Tgd};
use orchestra_provenance::Semiring as _;
use orchestra_reconcile::{TrustCondition, TrustPolicy};
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, Value, ValueType};
use orchestra_updates::{PeerId, Transaction, TxnId, Update};
use std::collections::BTreeSet;

fn p(name: &str) -> PeerId {
    PeerId::new(name)
}

/// Peers sharing a schema converge to the same instance after exchanging
/// updates, regardless of reconciliation order.
#[test]
fn shared_schema_peers_converge() {
    let mut cdss = demo::figure2().unwrap();
    // Alaska and Beijing both publish disjoint Σ1 data.
    cdss.publish_transaction(
        &p("Alaska"),
        vec![
            Update::insert("O", tuple!["HIV", 1]),
            Update::insert("P", tuple!["gp120", 2]),
            Update::insert("S", tuple![1, 2, "AAA"]),
        ],
    )
    .unwrap();
    cdss.publish_transaction(
        &p("Beijing"),
        vec![
            Update::insert("O", tuple!["Mouse", 3]),
            Update::insert("P", tuple!["Tp53", 4]),
            Update::insert("S", tuple![3, 4, "BBB"]),
        ],
    )
    .unwrap();
    cdss.reconcile(&p("Beijing")).unwrap();
    cdss.reconcile(&p("Alaska")).unwrap();

    // Data-exchange semantics: each peer's instance is a *universal
    // solution*, unique only up to homomorphism — the concrete (null-free)
    // portions must agree exactly, while labeled-null rows (invented by
    // the Σ2 → Σ1 split mapping on the round trip through Crete's schema)
    // may differ in which peer's data they echo.
    let concrete = |peer: &str, rel: &str| -> Vec<_> {
        cdss.peer(&p(peer))
            .unwrap()
            .instance()
            .relation(rel)
            .unwrap()
            .iter()
            .filter(|t| !t.has_labeled_null())
            .cloned()
            .collect::<Vec<_>>()
    };
    for rel in ["O", "P", "S"] {
        assert_eq!(concrete("Alaska", rel), concrete("Beijing", rel), "{rel}");
    }
    assert_eq!(concrete("Alaska", "O").len(), 2);
    // The round trip exists: Beijing holds a labeled-null echo of
    // Alaska's organism (invented by MC→A), and vice versa.
    let has_null_echo = |peer: &str| {
        cdss.peer(&p(peer))
            .unwrap()
            .instance()
            .relation("O")
            .unwrap()
            .iter()
            .any(|t| t.has_labeled_null())
    };
    assert!(has_null_echo("Beijing"));
    assert!(has_null_echo("Alaska"));
}

/// Σ2 peers converge through the identity mapping as well.
#[test]
fn sigma2_peers_converge() {
    let mut cdss = demo::figure2().unwrap();
    cdss.publish_transaction(
        &p("Dresden"),
        vec![Update::insert("OPS", tuple!["Rat", "p53", "CCC"])],
    )
    .unwrap();
    // Crete trusts Dresden (priority 1).
    cdss.reconcile(&p("Crete")).unwrap();
    let crete_ops = cdss
        .peer(&p("Crete"))
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap();
    assert!(crete_ops.contains(&tuple!["Rat", "p53", "CCC"]));
}

/// A deletion published at the origin propagates through the mapping
/// chain: the derived OPS row disappears at Σ2 peers.
#[test]
fn deletion_propagates_through_join() {
    let mut cdss = demo::figure2().unwrap();
    let txn = cdss
        .publish_transaction(
            &p("Alaska"),
            vec![
                Update::insert("O", tuple!["HIV", 1]),
                Update::insert("P", tuple!["gp120", 2]),
                Update::insert("S", tuple![1, 2, "AAA"]),
            ],
        )
        .unwrap();
    cdss.reconcile(&p("Dresden")).unwrap();
    assert!(cdss
        .peer(&p("Dresden"))
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap()
        .contains(&tuple!["HIV", "gp120", "AAA"]));

    // Alaska deletes the sequence row: the join no longer produces OPS.
    let del = cdss
        .publish_transaction(&p("Alaska"), vec![Update::delete("S", tuple![1, 2, "AAA"])])
        .unwrap();
    let stored = cdss.store().fetch(&del).unwrap().unwrap();
    assert!(
        stored.antecedents.contains(&txn),
        "delete depends on insert"
    );

    let report = cdss.reconcile(&p("Dresden")).unwrap();
    assert_eq!(report.outcome.accepted.len(), 1);
    assert!(!cdss
        .peer(&p("Dresden"))
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap()
        .contains(&tuple!["HIV", "gp120", "AAA"]));
}

/// A tuple derivable from two independent origins survives deletion of
/// one of them (provenance-based deletion propagation at work).
#[test]
fn alternative_derivations_survive_partial_deletion() {
    let mut cdss = demo::figure2().unwrap();
    // Alaska and Beijing independently support the same OPS row.
    let a_txn = cdss
        .publish_transaction(
            &p("Alaska"),
            vec![
                Update::insert("O", tuple!["HIV", 1]),
                Update::insert("P", tuple!["gp120", 2]),
                Update::insert("S", tuple![1, 2, "SAME"]),
            ],
        )
        .unwrap();
    cdss.publish_transaction(
        &p("Beijing"),
        vec![
            Update::insert("O", tuple!["HIV", 7]),
            Update::insert("P", tuple!["gp120", 8]),
            Update::insert("S", tuple![7, 8, "SAME"]),
        ],
    )
    .unwrap();
    cdss.reconcile(&p("Dresden")).unwrap();
    assert!(cdss
        .peer(&p("Dresden"))
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap()
        .contains(&tuple!["HIV", "gp120", "SAME"]));

    // Alaska retracts its copy; Beijing's derivation still supports OPS.
    cdss.publish_transaction(
        &p("Alaska"),
        vec![Update::delete("S", tuple![1, 2, "SAME"])],
    )
    .unwrap();
    let report = cdss.reconcile(&p("Dresden")).unwrap();
    // The delete transaction translates to no visible change at Dresden.
    assert_eq!(
        report.applied_updates, 0,
        "no deletion reaches Dresden while Beijing's copy lives"
    );
    assert!(cdss
        .peer(&p("Dresden"))
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap()
        .contains(&tuple!["HIV", "gp120", "SAME"]));
    let _ = a_txn;
}

/// Content-based trust conditions: a peer can trust only updates about
/// organisms it studies.
#[test]
fn content_based_trust_filters_updates() {
    use orchestra_relational::Predicate;
    let mut cdss = demo::figure2().unwrap();
    // Re-policy Dresden: only HIV-related OPS updates are trusted.
    cdss.peer_mut(&p("Dresden"))
        .unwrap()
        .set_policy(TrustPolicy::closed().with(TrustCondition::content(
            "OPS",
            Predicate::col_eq(0, "HIV"),
            1,
        )));
    cdss.publish_transaction(
        &p("Crete"),
        vec![Update::insert("OPS", tuple!["HIV", "gp120", "AAA"])],
    )
    .unwrap();
    cdss.publish_transaction(
        &p("Crete"),
        vec![Update::insert("OPS", tuple!["Rat", "p53", "BBB"])],
    )
    .unwrap();
    cdss.reconcile(&p("Dresden")).unwrap();
    let ops = cdss
        .peer(&p("Dresden"))
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap();
    assert!(ops.contains(&tuple!["HIV", "gp120", "AAA"]));
    assert!(
        !ops.contains(&tuple!["Rat", "p53", "BBB"]),
        "distrusted content"
    );
}

/// Deep-origin trust: a peer can distrust data *derived from* another
/// peer even when a trusted peer publishes it.
#[test]
fn derived_from_trust_condition() {
    let mut cdss = demo::figure2().unwrap();
    // Dresden trusts only updates derived from Beijing's data.
    cdss.peer_mut(&p("Dresden"))
        .unwrap()
        .set_policy(TrustPolicy::closed().with(TrustCondition::derived_from(p("Beijing"), 1)));
    cdss.publish_transaction(
        &p("Beijing"),
        vec![
            Update::insert("O", tuple!["HIV", 1]),
            Update::insert("P", tuple!["gp120", 2]),
            Update::insert("S", tuple![1, 2, "FROM-BEIJING"]),
        ],
    )
    .unwrap();
    cdss.publish_transaction(
        &p("Alaska"),
        vec![
            Update::insert("O", tuple!["Rat", 3]),
            Update::insert("P", tuple!["p53", 4]),
            Update::insert("S", tuple![3, 4, "FROM-ALASKA"]),
        ],
    )
    .unwrap();
    cdss.reconcile(&p("Dresden")).unwrap();
    let ops = cdss
        .peer(&p("Dresden"))
        .unwrap()
        .instance()
        .relation("OPS")
        .unwrap();
    assert!(ops.contains(&tuple!["HIV", "gp120", "FROM-BEIJING"]));
    assert!(!ops.contains(&tuple!["Rat", "p53", "FROM-ALASKA"]));
}

/// Provenance is queryable at the peer level: a translated tuple's
/// polynomial mentions the origin bases, and evaluates under Boolean
/// restriction like the theory says.
#[test]
fn peer_level_provenance_inspection() {
    let mut cdss = demo::figure2().unwrap();
    cdss.publish_transaction(
        &p("Alaska"),
        vec![
            Update::insert("O", tuple!["HIV", 1]),
            Update::insert("P", tuple!["gp120", 2]),
            Update::insert("S", tuple![1, 2, "AAA"]),
        ],
    )
    .unwrap();
    cdss.reconcile(&p("Dresden")).unwrap();
    let peer = cdss.peer(&p("Dresden")).unwrap();
    let poly = peer
        .provenance("OPS", &tuple!["HIV", "gp120", "AAA"])
        .expect("provenance of translated tuple");
    assert!(!poly.is_zero());
    // The polynomial's variables resolve to Alaska's transaction.
    let vars = poly.variables();
    assert!(!vars.is_empty());
    for v in &vars {
        let txn = peer.node_transaction(*v).expect("base node has publisher");
        assert_eq!(txn.peer, p("Alaska"));
    }
}

/// A three-peer chain with a custom (non-Figure-2) topology: updates flow
/// A → B → C through composed mappings with a filter.
#[test]
fn chain_topology_with_filter() {
    use orchestra_datalog::{Filter, Term};
    use orchestra_relational::CmpOp;

    fn rel(name: &str) -> DatabaseSchema {
        DatabaseSchema::new("s")
            .with_relation(
                RelationSchema::from_parts_keyed(
                    name,
                    &[("k", ValueType::Int), ("v", ValueType::Int)],
                    &["k"],
                )
                .unwrap(),
            )
            .unwrap()
    }

    let mut cdss = Cdss::builder()
        .peer("A", rel("R"), TrustPolicy::open(1))
        .peer("B", rel("R"), TrustPolicy::open(1))
        .peer("C", rel("R"), TrustPolicy::open(1))
        .mapping(
            Tgd::new(
                "A->B",
                vec![Atom::vars("A.R", &["k", "v"])],
                vec![Atom::vars("B.R", &["k", "v"])],
            )
            .unwrap(),
        )
        .mapping(
            // Only rows with v > 10 flow from B to C.
            Tgd::with_filters(
                "B->C",
                vec![Atom::vars("B.R", &["k", "v"])],
                vec![Atom::vars("C.R", &["k", "v"])],
                vec![Filter::new(Term::var("v"), CmpOp::Gt, Term::val(10))],
            )
            .unwrap(),
        )
        .build()
        .unwrap();

    cdss.publish_transaction(
        &p("A"),
        vec![
            Update::insert("R", tuple![1, 5]),
            Update::insert("R", tuple![2, 50]),
        ],
    )
    .unwrap();
    cdss.reconcile(&p("B")).unwrap();
    cdss.reconcile(&p("C")).unwrap();

    let b = cdss
        .peer(&p("B"))
        .unwrap()
        .instance()
        .relation("R")
        .unwrap();
    assert_eq!(b.len(), 2);
    let c = cdss
        .peer(&p("C"))
        .unwrap()
        .instance()
        .relation("R")
        .unwrap();
    assert_eq!(c.len(), 1, "filter admits only v > 10");
    assert!(c.contains(&tuple![2, 50]));
}

/// The same labeled null is reused across epochs: re-publishing more
/// sequences for an organism does not invent a second organism id.
#[test]
fn labeled_nulls_are_stable_across_epochs() {
    let mut cdss = demo::figure2().unwrap();
    cdss.publish_transaction(
        &p("Dresden"),
        vec![Update::insert("OPS", tuple!["Rat", "p53", "S1"])],
    )
    .unwrap();
    cdss.reconcile(&p("Alaska")).unwrap();
    cdss.publish_transaction(
        &p("Dresden"),
        vec![Update::insert("OPS", tuple!["Rat", "mdm2", "S2"])],
    )
    .unwrap();
    cdss.reconcile(&p("Alaska")).unwrap();

    let peer = cdss.peer(&p("Alaska")).unwrap();
    let o = peer.instance().relation("O").unwrap();
    // One organism row despite two epochs of Rat data.
    let rats: Vec<_> = o.iter().filter(|t| t[0] == Value::str("Rat")).collect();
    assert_eq!(rats.len(), 1);
    // Two sequences, both keyed by the same invented organism id.
    let s = peer.instance().relation("S").unwrap();
    let oids: std::collections::BTreeSet<Value> = s.iter().map(|t| t[0].clone()).collect();
    assert_eq!(oids.len(), 1);
    assert!(oids.iter().next().unwrap().is_labeled_null());
}

/// Reconciling with no new transactions is a no-op.
#[test]
fn empty_reconcile_is_noop() {
    let mut cdss = demo::figure2().unwrap();
    let report = cdss.reconcile(&p("Alaska")).unwrap();
    assert_eq!(report.fetched, 0);
    assert_eq!(report.candidates, 0);
    assert!(report.outcome.accepted.is_empty());
    // Re-reconciling after an exchange fetches nothing new.
    cdss.publish_transaction(
        &p("Dresden"),
        vec![Update::insert("OPS", tuple!["x", "y", "z"])],
    )
    .unwrap();
    cdss.reconcile(&p("Alaska")).unwrap();
    let report = cdss.reconcile(&p("Alaska")).unwrap();
    assert_eq!(report.candidates, 0);
}

/// The key/value schema `R(k, v)` keyed on `k`.
fn kv() -> DatabaseSchema {
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

/// Two peers over the kv schema, A's `R` copied into B's.
fn kv_pair() -> Cdss {
    Cdss::builder()
        .peer("A", kv(), TrustPolicy::open(1))
        .peer("B", kv(), TrustPolicy::open(1))
        .mapping(Tgd::identity("A->B", "A.R", "B.R", 2).unwrap())
        .build()
        .unwrap()
}

fn rows(cdss: &Cdss, peer: &str) -> BTreeSet<orchestra_relational::Tuple> {
    cdss.peer(&p(peer))
        .unwrap()
        .instance()
        .relation("R")
        .unwrap()
        .iter()
        .cloned()
        .collect()
}

/// A transaction with one malformed tuple is rejected whole: none of its
/// well-formed updates reaches the engine, so nothing leaks into the
/// candidates of later transactions and the peers stay converged.
#[test]
fn malformed_transaction_leaves_no_trace_in_the_engine() {
    let mut cdss = kv_pair();
    cdss.publish_transaction(
        &p("A"),
        vec![
            Update::insert("R", tuple![1, 10]),
            Update::insert("R", tuple![2, 20]),
        ],
    )
    .unwrap();
    cdss.reconcile(&p("B")).unwrap();

    // Written to the archive directly: a well-formed delete followed by
    // an insert of the wrong arity.
    let epoch = cdss.current_epoch();
    let raw = Transaction::new(
        TxnId::new(p("A"), 100),
        epoch,
        vec![
            Update::delete("R", tuple![1, 10]),
            Update::insert("R", tuple![9, 9, 9]),
        ],
    );
    cdss.store().publish(epoch, vec![raw]).unwrap();
    assert!(
        cdss.reconcile(&p("B")).is_err(),
        "the malformed insert fails"
    );
    cdss.reconcile(&p("B")).unwrap();

    let good = cdss
        .publish_transaction(&p("A"), vec![Update::insert("R", tuple![3, 30])])
        .unwrap();
    let report = cdss.reconcile(&p("B")).unwrap();
    assert!(
        report.outcome.accepted.contains(&good),
        "{:?}",
        report.outcome
    );
    assert_eq!(rows(&cdss, "B"), rows(&cdss, "A"));
    assert_eq!(rows(&cdss, "B").len(), 3);
}

/// Inserting and then deleting a tuple in one transaction leaves it
/// absent downstream: the delete ends up after the insert it follows.
#[test]
fn insert_then_delete_in_one_transaction_leaves_tuple_absent() {
    let mut cdss = kv_pair();
    cdss.publish_transaction(
        &p("A"),
        vec![
            Update::insert("R", tuple![1, 10]),
            Update::insert("R", tuple![5, 50]),
            Update::delete("R", tuple![5, 50]),
        ],
    )
    .unwrap();
    cdss.reconcile(&p("B")).unwrap();
    assert_eq!(rows(&cdss, "B"), BTreeSet::from([tuple![1, 10]]));
    assert_eq!(rows(&cdss, "B"), rows(&cdss, "A"));
}

/// Deleting and then re-inserting a tuple in one transaction leaves it
/// present downstream: the insert ends the run of removals.
#[test]
fn delete_then_insert_in_one_transaction_leaves_tuple_present() {
    let mut cdss = kv_pair();
    cdss.publish_transaction(
        &p("A"),
        vec![
            Update::insert("R", tuple![1, 10]),
            Update::insert("R", tuple![2, 20]),
        ],
    )
    .unwrap();
    cdss.reconcile(&p("B")).unwrap();
    cdss.publish_transaction(
        &p("A"),
        vec![
            Update::delete("R", tuple![2, 20]),
            Update::delete("R", tuple![1, 10]),
            Update::insert("R", tuple![1, 10]),
        ],
    )
    .unwrap();
    cdss.reconcile(&p("B")).unwrap();
    assert_eq!(rows(&cdss, "B"), BTreeSet::from([tuple![1, 10]]));
    assert_eq!(rows(&cdss, "B"), rows(&cdss, "A"));
}

/// A chain of modifies on one key within one transaction ends at its
/// last version downstream; the intermediate version never surfaces.
#[test]
fn modify_chain_in_one_transaction_ends_at_last_version() {
    let mut cdss = kv_pair();
    cdss.publish_transaction(&p("A"), vec![Update::insert("R", tuple![1, 10])])
        .unwrap();
    cdss.reconcile(&p("B")).unwrap();
    cdss.publish_transaction(
        &p("A"),
        vec![
            Update::modify("R", tuple![1, 10], tuple![1, 20]),
            Update::modify("R", tuple![1, 20], tuple![1, 30]),
        ],
    )
    .unwrap();
    cdss.reconcile(&p("B")).unwrap();
    assert_eq!(rows(&cdss, "B"), BTreeSet::from([tuple![1, 30]]));
    assert_eq!(rows(&cdss, "B"), rows(&cdss, "A"));
}
