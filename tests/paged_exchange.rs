//! The paged, partial-progress update exchange: bounded pages, gaps that
//! stall *at the gap* instead of failing the exchange, held-back causal
//! dependents, cursor resume after a dead holder returns, and the
//! no-work-no-epoch rule.

use orchestra_core::{Cdss, ExchangeOptions, ExchangeOutcome, ReconcileReport};
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, ValueType};
use orchestra_store::{ReplicatedStore, UpdateStore};
use orchestra_updates::{Epoch, PeerId, TxnId, Update};
use std::sync::Arc;

/// Two peers sharing a keyed schema through identity mappings: whatever A
/// publishes should end up mirrored at B.
fn kv_cdss(store: Arc<dyn UpdateStore>) -> Cdss {
    let schema = DatabaseSchema::new("kv")
        .with_relation(
            RelationSchema::from_parts_keyed(
                "R",
                &[("k", ValueType::Int), ("v", ValueType::Int)],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap();
    Cdss::builder()
        .peer("A", schema.clone(), TrustPolicy::open(1))
        .peer("B", schema, TrustPolicy::open(1))
        .identity("A", "B")
        .unwrap()
        .build_with_shared(store)
        .unwrap()
}

/// Every field of a [`ReconcileReport`], so that one `assert_eq!` pins
/// the whole report.
#[derive(Debug, PartialEq)]
struct Pinned {
    epoch: u64,
    fetched: usize,
    candidates: usize,
    accepted: Vec<TxnId>,
    rejected: Vec<TxnId>,
    deferred: Vec<TxnId>,
    applied_updates: usize,
    pages: usize,
    skipped_unavailable: usize,
    held_back: usize,
    blocked_on: Option<TxnId>,
    unreachable: bool,
}

fn pin(report: &ReconcileReport) -> Pinned {
    // Destructured whole: a field added to the report fails to compile
    // here instead of going unpinned.
    let ReconcileReport {
        epoch,
        fetched,
        candidates,
        outcome:
            ExchangeOutcome {
                accepted,
                rejected,
                deferred,
            },
        applied_updates,
        pages,
        skipped_unavailable,
        held_back,
        blocked_on,
        unreachable,
    } = report.clone();
    Pinned {
        epoch: epoch.value(),
        fetched,
        candidates,
        accepted,
        rejected,
        deferred,
        applied_updates,
        pages,
        skipped_unavailable,
        held_back,
        blocked_on,
        unreachable,
    }
}

/// The churn scenario a fail-on-first-gap read could not survive: one
/// dead payload in the middle of the history. The peer now makes
/// partial progress past the reachable prefix *and* reachable later
/// epochs, holds back only the gap's causal dependents, and resumes
/// cleanly from the frozen cursor once the holder returns.
#[test]
fn peer_makes_partial_progress_past_a_dead_payload_and_resumes() {
    let dht = Arc::new(ReplicatedStore::new(64, 1).unwrap());
    let mut cdss = kv_cdss(dht.clone());
    let (a, b) = (PeerId::new("A"), PeerId::new("B"));

    let _t1 = cdss
        .publish_transaction(&a, vec![Update::insert("R", tuple![1, 10])])
        .unwrap();
    let _t2 = cdss
        .publish_transaction(&a, vec![Update::insert("R", tuple![2, 20])])
        .unwrap();
    let t3 = cdss
        .publish_transaction(&a, vec![Update::insert("R", tuple![3, 30])])
        .unwrap();
    // t4 modifies the row t3 created: its antecedent set contains t3.
    let t4 = cdss
        .publish_transaction(&a, vec![Update::modify("R", tuple![3, 30], tuple![3, 31])])
        .unwrap();
    let _t5 = cdss
        .publish_transaction(&a, vec![Update::insert("R", tuple![5, 50])])
        .unwrap();
    let stored_t4 = cdss.store().fetch(&t4).unwrap().unwrap();
    assert!(
        stored_t4.antecedents.contains(&t3),
        "precondition: t4 causally depends on t3"
    );

    // Kill exactly t3's holder (R=1: one holder per payload). The 64-node
    // ring plus deterministic FNV placement keeps the other four payloads
    // on other nodes; the precondition pins that.
    let victim = dht.holders(&t3).unwrap()[0];
    for other in [&_t1, &_t2, &t4, &_t5] {
        assert_ne!(
            dht.holders(other).unwrap()[0],
            victim,
            "precondition: only t3 lives on the victim node"
        );
    }
    dht.take_node_down(victim);

    // B reconciles: no error, reachable history applies, the gap blocks.
    let report = cdss.reconcile(&b).unwrap();
    assert_eq!(report.blocked_on, Some(t3.clone()), "gap identified");
    assert_eq!(report.skipped_unavailable, 1);
    assert_eq!(report.held_back, 1, "t4 held back behind the gap");
    assert_eq!(report.fetched, 4, "t1, t2, t4, t5 reachable");
    assert_eq!(report.outcome.accepted.len(), 3, "t1, t2, t5 applied");
    assert_eq!(
        pin(&report),
        Pinned {
            epoch: 6,
            fetched: 4,
            candidates: 3,
            accepted: vec![_t1.clone(), _t2.clone(), _t5.clone()],
            rejected: vec![],
            deferred: vec![],
            applied_updates: 3,
            pages: 1,
            skipped_unavailable: 1,
            held_back: 1,
            blocked_on: Some(t3.clone()),
            unreachable: false,
        }
    );
    {
        let r = cdss.peer(&b).unwrap().instance().relation("R").unwrap();
        assert!(r.contains(&tuple![1, 10]));
        assert!(r.contains(&tuple![2, 20]));
        assert!(r.contains(&tuple![5, 50]));
        assert!(
            !r.iter().any(|t| t[0] == tuple![3, 0][0]),
            "no row for key 3"
        );
    }
    let frozen = cdss.peer(&b).unwrap().resume_cursor().cloned();
    assert!(frozen.is_some(), "cursor frozen at the gap");

    // Retrying while the holder is still dead: same block, no re-cloning
    // of the already-scanned suffix (the poll probes the gap and checks
    // for new history only), no epoch burned.
    let epoch_before = cdss.current_epoch();
    let retry = cdss.reconcile(&b).unwrap();
    assert_eq!(retry.blocked_on, Some(t3.clone()));
    assert_eq!(
        retry.fetched, 0,
        "blocked poll probes the gap + new history only — no suffix rescan"
    );
    assert_eq!(retry.outcome.accepted.len(), 0);
    assert_eq!(
        pin(&retry),
        Pinned {
            epoch: 6,
            fetched: 0,
            candidates: 0,
            accepted: vec![],
            rejected: vec![],
            deferred: vec![],
            applied_updates: 0,
            pages: 2,
            skipped_unavailable: 1,
            held_back: 0,
            blocked_on: Some(t3.clone()),
            unreachable: false,
        }
    );
    assert_eq!(cdss.current_epoch(), epoch_before, "no epoch inflation");
    assert_eq!(
        cdss.peer(&b).unwrap().resume_cursor().cloned(),
        frozen,
        "cursor unchanged while blocked"
    );

    // History published *during* the outage still flows while blocked —
    // unless it depends on held work. t6 is independent; t7 modifies the
    // held row, so it must wait with t4.
    let _t6 = cdss
        .publish_transaction(&a, vec![Update::insert("R", tuple![6, 60])])
        .unwrap();
    let _t7 = cdss
        .publish_transaction(&a, vec![Update::modify("R", tuple![3, 31], tuple![3, 32])])
        .unwrap();
    let blocked_flow = cdss.reconcile(&b).unwrap();
    assert_eq!(blocked_flow.blocked_on, Some(t3.clone()));
    assert_eq!(blocked_flow.outcome.accepted.len(), 1, "t6 applies");
    assert_eq!(blocked_flow.held_back, 1, "t7 waits behind the gap");
    assert_eq!(
        pin(&blocked_flow),
        Pinned {
            epoch: 9,
            fetched: 2,
            candidates: 1,
            accepted: vec![_t6.clone()],
            rejected: vec![],
            deferred: vec![],
            applied_updates: 1,
            pages: 2,
            skipped_unavailable: 1,
            held_back: 1,
            blocked_on: Some(t3.clone()),
            unreachable: false,
        }
    );
    assert!(cdss
        .peer(&b)
        .unwrap()
        .instance()
        .relation("R")
        .unwrap()
        .contains(&tuple![6, 60]));

    // The holder returns: the next exchange resumes at the frozen cursor
    // and drains the gap plus its held-back dependents, converging on A.
    dht.bring_node_up(victim);
    let report = cdss.reconcile(&b).unwrap();
    assert_eq!(report.blocked_on, None);
    assert_eq!(report.skipped_unavailable, 0);
    assert_eq!(report.outcome.accepted.len(), 3, "t3, t4, t7 arrive");
    assert_eq!(
        pin(&report),
        Pinned {
            epoch: 10,
            fetched: 5,
            candidates: 3,
            accepted: vec![t3.clone(), t4.clone(), _t7.clone()],
            rejected: vec![],
            deferred: vec![],
            applied_updates: 3,
            pages: 2,
            skipped_unavailable: 0,
            held_back: 0,
            blocked_on: None,
            unreachable: false,
        }
    );
    assert!(cdss.peer(&b).unwrap().resume_cursor().is_none());
    assert_eq!(
        cdss.peer(&b).unwrap().instance().relation("R").unwrap(),
        cdss.peer(&a).unwrap().instance().relation("R").unwrap(),
        "B converged on A's instance, including the modified row (3, 31)"
    );
}

/// Idle reconcile loops used to burn one epoch per peer per call,
/// inflating epoch-indexed state unboundedly. Now the clock only moves
/// when an exchange does work.
#[test]
fn idle_reconcile_loops_do_not_inflate_epochs() {
    let mut cdss = kv_cdss(Arc::new(orchestra_store::InMemoryStore::new()));
    let (a, b) = (PeerId::new("A"), PeerId::new("B"));
    cdss.publish_transaction(&a, vec![Update::insert("R", tuple![1, 10])])
        .unwrap();
    cdss.reconcile_all().unwrap();
    let settled = cdss.current_epoch();
    for _ in 0..25 {
        let reports = cdss.reconcile_all().unwrap();
        for (_, r) in &reports {
            assert_eq!(r.fetched, 0);
            assert_eq!(r.candidates, 0);
        }
    }
    assert_eq!(
        cdss.current_epoch(),
        settled,
        "25 idle polling rounds moved the clock"
    );
    // A real exchange still advances it.
    cdss.publish_transaction(&a, vec![Update::insert("R", tuple![2, 20])])
        .unwrap();
    let report = cdss.reconcile(&b).unwrap();
    assert!(report.epoch > settled);
    assert!(cdss.current_epoch() > settled);
}

/// The conflict-detection window is the page, by design: same-priority
/// conflicting claims observed in one page (the steady-state case — any
/// exchange of up to `page_limit` transactions) defer both for the
/// administrator, exactly as before. Claims split across pages of one
/// long catch-up behave like claims split across separate exchanges
/// always have: the earlier one is accepted into history, the later one
/// rejected as conflicting with it. Accumulating candidates across pages
/// would restore the whole-catch-up window but reintroduce the O(history)
/// memory the paged exchange exists to eliminate.
#[test]
fn conflict_window_is_the_page() {
    let schema = DatabaseSchema::new("kv")
        .with_relation(
            RelationSchema::from_parts_keyed(
                "R",
                &[("k", ValueType::Int), ("v", ValueType::Int)],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap();
    let make = || {
        let mut cdss = Cdss::builder()
            .peer("A", schema.clone(), TrustPolicy::open(1))
            .peer("B", schema.clone(), TrustPolicy::open(1))
            .peer("C", schema.clone(), TrustPolicy::open(1))
            .identity("A", "B")
            .unwrap()
            .identity("C", "B")
            .unwrap()
            .build()
            .unwrap();
        // A and C concurrently claim key 9 with different values.
        let ta = cdss
            .publish_transaction(&PeerId::new("A"), vec![Update::insert("R", tuple![9, 1])])
            .unwrap();
        let tc = cdss
            .publish_transaction(&PeerId::new("C"), vec![Update::insert("R", tuple![9, 2])])
            .unwrap();
        (cdss, ta, tc)
    };
    let b = PeerId::new("B");

    // Both claims inside one page: deferred for the administrator (§3).
    let (mut cdss, ta, tc) = make();
    let r = cdss.reconcile(&b).unwrap();
    assert!(r.outcome.deferred.contains(&ta) && r.outcome.deferred.contains(&tc));
    assert!(r.outcome.accepted.is_empty() && r.outcome.rejected.is_empty());

    // Split across pages: streaming semantics — first in (epoch, id)
    // order wins, the later claim is rejected against accepted history,
    // deterministically.
    let (mut cdss, ta, tc) = make();
    let r = cdss
        .reconcile_with(&b, ExchangeOptions { page_limit: 1 })
        .unwrap();
    assert_eq!(r.outcome.accepted, vec![ta]);
    assert_eq!(r.outcome.rejected, vec![tc]);
    assert!(r.outcome.deferred.is_empty());
}

/// The exchange never materializes more than one page of history: a peer
/// catching up on N **conflict-free** transactions with page limit L
/// scans ceil(N/L) pages, and the result is identical to a one-page
/// exchange (conflicting histories have a page-sized conflict window —
/// see [`conflict_window_is_the_page`]).
#[test]
fn exchange_is_paged_and_page_size_invariant() {
    let make = || {
        let mut cdss = kv_cdss(Arc::new(orchestra_store::InMemoryStore::new()));
        let a = PeerId::new("A");
        for i in 0..10i64 {
            cdss.publish_transaction(&a, vec![Update::insert("R", tuple![i, i * 10])])
                .unwrap();
        }
        cdss
    };
    let b = PeerId::new("B");

    let mut paged = make();
    let report = paged
        .reconcile_with(&b, ExchangeOptions { page_limit: 3 })
        .unwrap();
    assert_eq!(report.pages, 4, "10 txns / limit 3 → 4 pages");
    assert_eq!(report.fetched, 10);
    assert_eq!(report.outcome.accepted.len(), 10);

    let mut one_shot = make();
    one_shot.reconcile(&b).unwrap();
    assert_eq!(
        paged.peer(&b).unwrap().instance().relation("R").unwrap(),
        one_shot.peer(&b).unwrap().instance().relation("R").unwrap(),
        "page size does not change the outcome"
    );

    // Caught up: the next paged exchange scans a single empty page.
    let idle = paged
        .reconcile_with(&b, ExchangeOptions { page_limit: 3 })
        .unwrap();
    assert_eq!(idle.pages, 1);
    assert_eq!(idle.fetched, 0);
}

/// Archive rebuild with the peer's own transaction stuck behind (or in)
/// the gap: the rebuilt peer must never reuse an archived id. Before the
/// fix, `next_seq` was only restored from own transactions that were
/// reachable *and* consumable, so the next publish collided with the
/// archive (`DuplicateTxn`) after already mutating the local instance.
#[test]
fn rebuilt_peer_never_reuses_ids_archived_behind_a_gap() {
    let dht = Arc::new(ReplicatedStore::new(64, 1).unwrap());

    // First lifetime: A publishes t1..t3, where t3 modifies t2's row (so
    // t3 causally depends on t2).
    let a = PeerId::new("A");
    let (t2, t3) = {
        let mut cdss = kv_cdss(dht.clone());
        cdss.publish_transaction(&a, vec![Update::insert("R", tuple![1, 10])])
            .unwrap();
        let t2 = cdss
            .publish_transaction(&a, vec![Update::insert("R", tuple![2, 20])])
            .unwrap();
        let t3 = cdss
            .publish_transaction(&a, vec![Update::modify("R", tuple![2, 20], tuple![2, 21])])
            .unwrap();
        (t2, t3)
        // cdss dropped: A "loses" its local state; the archive survives.
    };

    // t2's payload becomes unreachable; t3 is reachable but depends on it.
    let victim = dht.holders(&t2).unwrap()[0];
    assert_ne!(dht.holders(&t3).unwrap()[0], victim, "precondition");
    dht.take_node_down(victim);

    // Second lifetime: A rebuilds from the archive while blocked.
    let mut cdss = kv_cdss(dht.clone());
    let report = cdss.reconcile(&a).unwrap();
    assert_eq!(report.blocked_on, Some(t2.clone()));
    assert_eq!(report.held_back, 1, "own t3 held behind the gap");

    // The next publish must mint a fresh id (A#4), not collide with the
    // archived A#2/A#3.
    let t4 = cdss
        .publish_transaction(&a, vec![Update::insert("R", tuple![9, 90])])
        .unwrap();
    assert_eq!(t4.seq, 4, "archived ids are burned even while unreachable");

    // After the holder returns, the rebuild completes and the gap's
    // history lands alongside the new publish.
    dht.bring_node_up(victim);
    cdss.reconcile(&a).unwrap();
    let r = cdss.peer(&a).unwrap().instance().relation("R").unwrap();
    assert!(r.contains(&tuple![1, 10]));
    assert!(r.contains(&tuple![2, 21]), "t2+t3 restored after heal");
    assert!(r.contains(&tuple![9, 90]));
}

/// A direct store publisher (unlike the CDSS clock) may interleave peers
/// within one epoch, so a transaction can sort *before* its same-epoch
/// antecedent. When a page boundary splits such a pair, the dependent is
/// parked and retried with the next page instead of being fed to the
/// reconciler early (which would record a sticky deferral and silently
/// drop it). Genuinely ghost antecedents still defer, as always.
#[test]
fn forward_reference_across_page_boundary_is_not_lost() {
    // Seed the archive directly: epoch 1 holds C#1 and A#1, where A#1
    // depends on C#1 but "A" sorts before "C" in scan order.
    let store = orchestra_store::InMemoryStore::new();
    let tc = orchestra_updates::Transaction::new(
        TxnId::new(PeerId::new("C"), 1),
        Epoch::new(1),
        vec![Update::insert("R", tuple![1, 10])],
    );
    let ta = orchestra_updates::Transaction::new(
        TxnId::new(PeerId::new("A"), 1),
        Epoch::new(1),
        vec![Update::insert("R", tuple![2, 20])],
    )
    .with_antecedents([tc.id.clone()]);
    // A ghost-antecedent transaction defers forever, exactly as before.
    let tg = orchestra_updates::Transaction::new(
        TxnId::new(PeerId::new("A"), 2),
        Epoch::new(2),
        vec![Update::insert("R", tuple![3, 30])],
    )
    .with_antecedents([TxnId::new(PeerId::new("Ghost"), 9)]);
    store
        .publish(Epoch::new(1), vec![tc.clone(), ta.clone()])
        .unwrap();
    store.publish(Epoch::new(2), vec![tg.clone()]).unwrap();

    let schema = DatabaseSchema::new("kv")
        .with_relation(
            RelationSchema::from_parts_keyed(
                "R",
                &[("k", ValueType::Int), ("v", ValueType::Int)],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap();
    let mut cdss = Cdss::builder()
        .peer("A", schema.clone(), TrustPolicy::open(1))
        .peer("B", schema.clone(), TrustPolicy::open(1))
        .peer("C", schema, TrustPolicy::open(1))
        .identity("A", "B")
        .unwrap()
        .identity("C", "B")
        .unwrap()
        .build_with_store(Box::new(store))
        .unwrap();

    // page_limit 1 puts A#1 (the dependent) on its own page before C#1.
    let b = PeerId::new("B");
    let report = cdss
        .reconcile_with(&b, ExchangeOptions { page_limit: 1 })
        .unwrap();
    assert!(
        report.outcome.accepted.contains(&ta.id) && report.outcome.accepted.contains(&tc.id),
        "forward reference resolved within the exchange: {:?}",
        report.outcome
    );
    assert_eq!(report.outcome.deferred, vec![tg.id.clone()], "ghost defers");
    assert_eq!(
        pin(&report),
        Pinned {
            epoch: 3,
            fetched: 3,
            candidates: 3,
            accepted: vec![tc.id.clone(), ta.id.clone()],
            rejected: vec![],
            deferred: vec![tg.id.clone()],
            applied_updates: 2,
            pages: 3,
            skipped_unavailable: 0,
            held_back: 0,
            blocked_on: None,
            unreachable: false,
        }
    );
    let r = cdss.peer(&b).unwrap().instance().relation("R").unwrap();
    assert!(r.contains(&tuple![1, 10]) && r.contains(&tuple![2, 20]));
    assert!(!r.contains(&tuple![3, 30]), "ghost's dependent not applied");
}
