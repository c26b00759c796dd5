//! Gossip integration: real mesh nodes on loopback sockets.
//!
//! * A three-node line topology `A – B – C` (no direct A↔C link)
//!   converges to identical archives from randomized publish
//!   interleavings — epidemic pull moves
//!   history across hops neither endpoint shares.
//! * Interest-based partial replication: nodes store and ship only the
//!   backward mapping closure of their hosted peers' relations;
//!   uninteresting history never lands on them.
//! * Fault handling: a neighbor dying mid-scan freezes the cursor, the
//!   round still completes against the remaining neighbors, and the
//!   rejoined neighbor is drained from the frozen cursor with zero
//!   duplicate applies.
//! * Work proportional to new history: fresh scans start at the node's
//!   floor — backfill absorbed behind a drained scan is still pulled, a
//!   mid-archive start still advances floors, and a round fetches the new
//!   transactions plus a constant from the served archive.

use orchestra_core::{Cdss, CoreError};
use orchestra_datalog::{Atom, Tgd};
use orchestra_mesh::{InterestMode, MeshNode, MeshOptions, RoundReport};
use orchestra_net::RemoteOptions;
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, ValueType};
use orchestra_store::{AbsorbReport, FetchCursor, FetchPage, StoreDigest, StoreStats, UpdateStore};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Two keyed relations; mappings only ever read `R`, so `S` stays
/// node-local under derived interest.
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
        .with_relation(
            RelationSchema::from_parts_keyed(
                "S",
                &[("k", ValueType::Int), ("v", ValueType::Int)],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap()
}

/// Copy mapping `src.R → dst.R` (the line topology's hop).
fn copy_r(src: &str, dst: &str) -> Tgd {
    Tgd::new(
        format!("M{src}->{dst}/R"),
        vec![Atom::vars(format!("{src}.R"), &["k", "v"])],
        vec![Atom::vars(format!("{dst}.R"), &["k", "v"])],
    )
    .unwrap()
}

/// Every mesh participant declares the same global picture: peers A, B,
/// C and the chain of `R` mappings A→B→C. Each *node* then hosts one.
fn line_cdss() -> Cdss {
    Cdss::builder()
        .peer("A", schema(), TrustPolicy::open(1))
        .peer("B", schema(), TrustPolicy::open(1))
        .peer("C", schema(), TrustPolicy::open(1))
        .mapping(copy_r("A", "B"))
        .mapping(copy_r("B", "C"))
        .build()
        .unwrap()
}

fn fast_remote() -> RemoteOptions {
    RemoteOptions {
        connect_timeout: Duration::from_millis(300),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        pool_capacity: 2,
        retries: 0,
        ..RemoteOptions::default()
    }
}

fn mesh_opts(seed: u64, interest: InterestMode) -> MeshOptions {
    MeshOptions {
        fanout: 2,
        page_limit: 3, // Force multi-page drains at test scale.
        seed,
        interest,
        remote: fast_remote(),
        ..MeshOptions::default()
    }
}

/// Start node `host` (hosting only that peer), wire the line topology
/// later via `join`.
fn node(host: &str, seed: u64, interest: InterestMode) -> MeshNode {
    MeshNode::start_hosting(
        host,
        line_cdss(),
        vec![PeerId::new(host)],
        "127.0.0.1:0",
        mesh_opts(seed, interest),
    )
    .unwrap()
}

/// All ids in an archive, in scan order.
fn archive_ids(store: &dyn UpdateStore) -> Vec<TxnId> {
    store
        .fetch_since(Epoch::zero())
        .unwrap()
        .into_iter()
        .map(|t| t.id)
        .collect()
}

/// The line topology converges to byte-identical archives on every node
/// from randomized publish interleavings — property-tested over seeds.
/// Each case spins up three real
/// TCP-serving nodes, so the case count stays small.
mod line_topology_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn line_topology_converges_from_random_interleavings(seed in 0u64..1024) {
            line_round_trip(seed);
        }
    }
}

fn line_round_trip(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed * 7919);
    let mut a = node("A", seed, InterestMode::Everything);
    let mut b = node("B", seed, InterestMode::Everything);
    let mut c = node("C", seed, InterestMode::Everything);
    // Line topology: A–B and B–C, never A–C.
    a.join(b.addr().to_string()).unwrap();
    b.join(a.addr().to_string()).unwrap();
    b.join(c.addr().to_string()).unwrap();
    c.join(b.addr().to_string()).unwrap();

    // Random interleaving of publishes (each node through its hosted
    // peer) and gossip rounds.
    let mut published = 0u64;
    for step in 0..30 {
        let which = rng.random_range(0..4u32);
        match which {
            0..=2 => {
                let n: &mut MeshNode = match which {
                    0 => &mut a,
                    1 => &mut b,
                    _ => &mut c,
                };
                let host = n.hosted()[0].clone();
                let rel = if rng.random_bool(0.75) { "R" } else { "S" };
                n.cdss_mut()
                    .publish_transaction(
                        &host,
                        vec![Update::insert(rel, tuple![step as i64, seed as i64])],
                    )
                    .unwrap();
                published += 1;
            }
            _ => {
                for n in [&mut a, &mut b, &mut c] {
                    n.run_round().unwrap();
                }
            }
        }
    }
    assert!(published > 0, "interleaving published something");

    // Epidemic convergence: a bounded number of further rounds makes all
    // three archives identical.
    let mut converged = false;
    for _ in 0..12 {
        for n in [&mut a, &mut b, &mut c] {
            n.run_round().unwrap();
        }
        let ids = archive_ids(a.cdss().store());
        if ids.len() as u64 == published
            && ids == archive_ids(b.cdss().store())
            && ids == archive_ids(c.cdss().store())
        {
            converged = true;
            break;
        }
    }
    assert!(
        converged,
        "seed={seed}: archives diverged: A={} B={} C={} want={published}",
        a.cdss().store().len(),
        b.cdss().store().len(),
        c.cdss().store().len(),
    );

    // Instances converge too: C's hosted peer sees every `R` row that A
    // published, translated down the mapping chain A→B→C.
    for n in [&mut a, &mut b, &mut c] {
        let hosted = n.hosted()[0].clone();
        n.cdss_mut().reconcile(&hosted).unwrap();
    }
    let a_r = a
        .cdss()
        .peer(&PeerId::new("A"))
        .unwrap()
        .instance()
        .relation("R")
        .map(|r| r.len())
        .unwrap_or(0);
    let c_r = c
        .cdss()
        .peer(&PeerId::new("C"))
        .unwrap()
        .instance()
        .relation("R")
        .map(|r| r.len())
        .unwrap_or(0);
    assert!(
        c_r >= a_r,
        "seed={seed}: C's R instance misses A's rows ({c_r} < {a_r})"
    );
}

/// Derived interest keeps uninteresting history off a node entirely: the
/// chain's tail never stores `S` transactions (no mapping reads them),
/// and the mesh ships strictly fewer transactions to it than to a
/// full-replication node.
#[test]
fn interest_filtering_keeps_unmapped_history_off_the_node() {
    let mut a = node("A", 11, InterestMode::Everything);
    let mut b = node("B", 12, InterestMode::Derived);
    let mut c = node("C", 13, InterestMode::Derived);
    a.join(b.addr().to_string()).unwrap();
    b.join(a.addr().to_string()).unwrap();
    b.join(c.addr().to_string()).unwrap();
    c.join(b.addr().to_string()).unwrap();

    // The derived interest is the backward mapping closure.
    let mut want_b = vec!["A.R".to_string(), "B.R".to_string(), "B.S".to_string()];
    want_b.sort();
    let mut got_b = b.interest().to_vec();
    got_b.sort();
    assert_eq!(got_b, want_b);
    assert!(
        c.interest().contains(&"A.R".to_string()),
        "{:?}",
        c.interest()
    );
    assert!(!c.interest().contains(&"A.S".to_string()));

    // A publishes both mapped (R) and unmapped (S) history.
    let pa = PeerId::new("A");
    for k in 0..6i64 {
        a.cdss_mut()
            .publish_transaction(&pa, vec![Update::insert("R", tuple![k, k])])
            .unwrap();
        a.cdss_mut()
            .publish_transaction(&pa, vec![Update::insert("S", tuple![k, k])])
            .unwrap();
    }

    for _ in 0..6 {
        for n in [&mut a, &mut b, &mut c] {
            n.run_round().unwrap();
        }
    }

    // Everything interesting arrived…
    let c_digest = c.cdss().store().digest().unwrap();
    assert_eq!(c_digest.relation_txns("A.R"), 6, "{c_digest:?}");
    // …and nothing else: the unmapped S history never landed on B or C.
    assert_eq!(c_digest.relation_txns("A.S"), 0);
    assert_eq!(c.cdss().store().len(), 6);
    let b_digest = b.cdss().store().digest().unwrap();
    assert_eq!(b_digest.relation_txns("A.S"), 0);
    assert!(
        (b.cdss().store().len() as u64) < a.cdss().store().digest().unwrap().len,
        "partial replica stores strictly less than the publisher"
    );

    // C's instance still derives every mapped row through the chain.
    let pc = PeerId::new("C");
    c.cdss_mut().reconcile(&pc).unwrap();
    let c_rows = c
        .cdss()
        .peer(&pc)
        .unwrap()
        .instance()
        .relation("R")
        .map(|r| r.len())
        .unwrap_or(0);
    assert_eq!(c_rows, 6, "mapped history reached the tail instance");
}

/// One round, re-run while an exchange failed: the fault-matrix CI cell
/// injects `mesh.exchange` errors, which abandon an exchange before it
/// does anything, so a retry is all they cost. Absorb counts are summed.
fn clean_round(n: &mut MeshNode) -> RoundReport {
    let mut total = RoundReport::default();
    for _ in 0..20 {
        let r = n.run_round().unwrap();
        total.absorbed += r.absorbed;
        total.duplicates += r.duplicates;
        if r.failures == 0 {
            return total;
        }
    }
    panic!("{}: no round without an exchange failure in 20", n.name());
}

/// Backfill behind a drained scan: C drains B, then B absorbs history
/// from A at epochs older than the end of C's scan. C's next scan starts
/// at its floor for A, not past where the last scan ended, so one round
/// pulls the backfill.
#[test]
fn backfill_behind_a_drained_scan_is_pulled_next_round() {
    let mut a = node("A", 41, InterestMode::Everything);
    let mut b = node("B", 42, InterestMode::Everything);
    let mut c = node("C", 43, InterestMode::Everything);
    b.join(a.addr().to_string()).unwrap();
    c.join(b.addr().to_string()).unwrap();
    let (pa, pb) = (PeerId::new("A"), PeerId::new("B"));

    a.cdss_mut()
        .publish_transaction(&pa, vec![Update::insert("R", tuple![0, 0])])
        .unwrap();
    clean_round(&mut b);
    for k in 1..6i64 {
        b.cdss_mut()
            .publish_transaction(&pb, vec![Update::insert("S", tuple![k, k])])
            .unwrap();
    }
    clean_round(&mut c);
    assert_eq!(archive_ids(c.cdss().store()), archive_ids(b.cdss().store()));
    assert_eq!(c.neighbor_cursor(&b.addr().to_string()), None, "drained");
    let drained_end = b.cdss().store().latest_epoch().unwrap();

    // A publishes more; B absorbs it behind the end of C's drained scan.
    for k in 1..3i64 {
        a.cdss_mut()
            .publish_transaction(&pa, vec![Update::insert("R", tuple![k, k])])
            .unwrap();
    }
    assert_eq!(clean_round(&mut b).absorbed, 2);
    let backfill: Vec<Transaction> = b
        .cdss()
        .store()
        .fetch_since(Epoch::zero())
        .unwrap()
        .into_iter()
        .filter(|t| t.id.peer == pa && t.id.seq > 1)
        .collect();
    assert_eq!(backfill.len(), 2);
    assert!(
        backfill.iter().all(|t| t.epoch < drained_end),
        "the backfill lands behind the drained scan's end"
    );

    let report = clean_round(&mut c);
    assert_eq!(report.absorbed, 2, "{report:?}");
    assert_eq!(report.duplicates, 0);
    assert_eq!(archive_ids(c.cdss().store()), archive_ids(b.cdss().store()));
}

/// A fresh scan of a newly joined neighbor starts mid-archive, at the
/// floor learned from another neighbor. The positions it skipped count
/// as witnessed, so the scan still advances the node's floor past what
/// it pulled instead of breaking on the skipped prefix.
#[test]
fn a_scan_starting_mid_archive_advances_the_floor() {
    let mut a = node("A", 61, InterestMode::Everything);
    let mut y = node("B", 62, InterestMode::Everything);
    let mut z = node("C", 63, InterestMode::Everything);
    // Only A publishes; which peer the other nodes host does not matter.
    let mut x = node("C", 64, InterestMode::Everything);
    y.join(a.addr().to_string()).unwrap();
    z.join(a.addr().to_string()).unwrap();
    x.join(y.addr().to_string()).unwrap();
    let pa = PeerId::new("A");
    let publish = |a: &mut MeshNode, k: i64| {
        a.cdss_mut()
            .publish_transaction(&pa, vec![Update::insert("R", tuple![k, k])])
            .unwrap();
    };
    for k in 0..3 {
        publish(&mut a, k);
    }
    clean_round(&mut y);
    clean_round(&mut z);
    clean_round(&mut x);
    assert_eq!(x.considered(), vec![("A".to_string(), 3)]);

    for k in 3..5 {
        publish(&mut a, k);
    }
    clean_round(&mut z);
    x.join(z.addr().to_string()).unwrap();
    let served = z.cdss().store().stats().fetched;
    let report = clean_round(&mut x);
    assert_eq!(report.absorbed, 2, "{report:?}");
    assert!(
        z.cdss().store().stats().fetched - served <= 3,
        "the scan of Z started at A#3's epoch, not at zero"
    );
    assert_eq!(x.considered(), vec![("A".to_string(), 5)]);
}

/// A gossip round pays for the new history, not all of it: in a line
/// `A – B – C`, after each single-transaction publish at A, the archive
/// a neighbor serves is fetched from at most once per new transaction
/// plus a constant (the floor position's epoch is rescanned), however
/// long the archive has grown.
#[test]
fn a_round_fetches_the_new_history_plus_a_constant() {
    let mut a = node("A", 51, InterestMode::Everything);
    let mut b = node("B", 52, InterestMode::Everything);
    let mut c = node("C", 53, InterestMode::Everything);
    a.join(b.addr().to_string()).unwrap();
    b.join(a.addr().to_string()).unwrap();
    b.join(c.addr().to_string()).unwrap();
    c.join(b.addr().to_string()).unwrap();
    let pa = PeerId::new("A");
    for k in 0..40i64 {
        a.cdss_mut()
            .publish_transaction(&pa, vec![Update::insert("R", tuple![k, k])])
            .unwrap();
        let served = a.cdss().store().stats().fetched;
        assert_eq!(clean_round(&mut b).absorbed, 1);
        let fetched = a.cdss().store().stats().fetched - served;
        assert!(
            fetched <= 1 + 2,
            "publish {k}: B's round fetched {fetched} from A"
        );

        let served = b.cdss().store().stats().fetched;
        assert_eq!(clean_round(&mut c).absorbed, 1);
        let fetched = b.cdss().store().stats().fetched - served;
        assert!(
            fetched <= 1 + 2,
            "publish {k}: C's round fetched {fetched} from B"
        );
    }
    assert_eq!(c.cdss().store().len(), 40);
}

/// An archive wrapper that plays dead on command: after `arm()`, every
/// page scan fails as `Unavailable` — the same surface a crashed
/// neighbor process presents over the wire.
#[derive(Debug)]
struct FlakyStore {
    inner: orchestra_store::InMemoryStore,
    /// Pages still allowed to succeed; negative = unlimited.
    budget: AtomicI64,
}

impl FlakyStore {
    fn new() -> Self {
        FlakyStore {
            inner: orchestra_store::InMemoryStore::new(),
            budget: AtomicI64::new(-1),
        }
    }
    fn arm(&self, pages: i64) {
        self.budget.store(pages, Ordering::SeqCst);
    }
    fn heal(&self) {
        self.budget.store(-1, Ordering::SeqCst);
    }
}

impl UpdateStore for FlakyStore {
    fn publish(&self, epoch: Epoch, txns: Vec<Transaction>) -> orchestra_store::Result<()> {
        self.inner.publish(epoch, txns)
    }
    fn fetch_page(&self, cursor: &FetchCursor, limit: usize) -> orchestra_store::Result<FetchPage> {
        let left = self.budget.load(Ordering::SeqCst);
        if left == 0 {
            return Err(orchestra_store::StoreError::Unavailable {
                txn: "<flaky archive down>".to_string(),
            });
        }
        if left > 0 {
            self.budget.fetch_sub(1, Ordering::SeqCst);
        }
        self.inner.fetch_page(cursor, limit)
    }
    fn fetch(&self, id: &TxnId) -> orchestra_store::Result<Option<Transaction>> {
        self.inner.fetch(id)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn latest_epoch(&self) -> Option<Epoch> {
        self.inner.latest_epoch()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
    fn digest(&self) -> orchestra_store::Result<StoreDigest> {
        self.inner.digest()
    }
    fn absorb(&self, txns: Vec<Transaction>) -> orchestra_store::Result<AbsorbReport> {
        self.inner.absorb(txns)
    }
}

/// Kill a neighbor mid-scan: the round completes against the remaining
/// neighbor, the dead neighbor's cursor freezes at the gap, and after
/// the neighbor heals the drain resumes from the frozen cursor — zero
/// duplicate absorbs, zero duplicate applies.
#[test]
fn dead_neighbor_freezes_cursor_and_resumes_clean() {
    let flaky = Arc::new(FlakyStore::new());
    let b_cdss = Cdss::builder()
        .peer("A", schema(), TrustPolicy::open(1))
        .peer("B", schema(), TrustPolicy::open(1))
        .peer("C", schema(), TrustPolicy::open(1))
        .mapping(copy_r("A", "B"))
        .mapping(copy_r("B", "C"))
        .build_with_shared(flaky.clone())
        .unwrap();
    let mut b = MeshNode::start_hosting(
        "B",
        b_cdss,
        vec![PeerId::new("B")],
        "127.0.0.1:0",
        mesh_opts(2, InterestMode::Everything),
    )
    .unwrap();
    let mut a = node("A", 1, InterestMode::Everything);
    let mut c = node("C", 3, InterestMode::Everything);
    let (b_addr, c_addr) = (b.addr().to_string(), c.addr().to_string());
    a.join(b_addr.clone()).unwrap();
    a.join(c_addr.clone()).unwrap();

    // B holds 7 transactions (3 pages at page_limit=3), C holds 2.
    let (pb, pc) = (PeerId::new("B"), PeerId::new("C"));
    for k in 0..7i64 {
        b.cdss_mut()
            .publish_transaction(&pb, vec![Update::insert("R", tuple![k, k])])
            .unwrap();
    }
    for k in 100..102i64 {
        c.cdss_mut()
            .publish_transaction(&pc, vec![Update::insert("R", tuple![k, k])])
            .unwrap();
    }

    // B dies after serving one page of the scan.
    flaky.arm(1);
    let report = a.run_round().unwrap();
    assert_eq!(report.contacted, 2, "both neighbors contacted");
    assert_eq!(report.failures, 1, "B died mid-scan");
    assert_eq!(
        report.absorbed,
        3 + 2,
        "one page from B plus all of C landed despite the failure"
    );
    let frozen = a
        .neighbor_cursor(&b_addr)
        .expect("cursor frozen mid-scan at the gap");
    assert!(
        matches!(
            a.neighbor_error(&b_addr),
            Some(orchestra_store::StoreError::Unavailable { .. })
        ),
        "failure recorded as unavailability"
    );

    // Still dead: the cursor does not move.
    flaky.arm(0);
    let report = a.run_round().unwrap();
    assert_eq!(report.failures, 1);
    assert_eq!(report.absorbed, 0);
    assert_eq!(a.neighbor_cursor(&b_addr), Some(frozen.clone()));

    // B heals (rejoin): the drain resumes from the frozen cursor and
    // ships only the missing tail — nothing is absorbed twice.
    flaky.heal();
    let report = a.run_round().unwrap();
    assert_eq!(report.failures, 0);
    assert_eq!(report.absorbed, 4, "exactly the unseen tail");
    assert_eq!(report.duplicates, 0, "zero duplicate absorbs on resume");
    assert_eq!(a.neighbor_cursor(&b_addr), None, "drain completed");
    assert_eq!(a.cdss().store().len(), 9);

    // Zero duplicate applies: across every reconcile, no transaction is
    // accepted twice.
    let pa = PeerId::new("A");
    let mut seen: BTreeSet<TxnId> = BTreeSet::new();
    for _ in 0..3 {
        let report = a.cdss_mut().reconcile(&pa).unwrap();
        for id in &report.outcome.accepted {
            assert!(seen.insert(id.clone()), "{id} applied twice");
        }
    }
    assert_eq!(seen.len(), 9, "every transaction applied exactly once");

    // A healthy mesh keeps converging end to end.
    let step: Result<_, CoreError> = a.converge_step();
    assert!(step.is_ok(), "{step:?}");
}

/// Self-healing over the mesh: bit rot in a node's durable archive is
/// quarantined by the scrubber, gossiped as a gap, and repaired with
/// checksum-verified bytes pulled from a neighbor — without a single
/// transaction being re-applied to any peer instance.
#[test]
fn quarantined_positions_heal_from_a_neighbor_without_reapplying() {
    use orchestra_store::durable::segment::{list_segments, segment_file_name};
    use orchestra_store::{DurableOptions, DurableStore, StoreError};

    let dir = std::env::temp_dir().join(format!("orchestra-mesh-heal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = Arc::new(
        DurableStore::open_with(
            &dir,
            DurableOptions {
                segment_max_bytes: 64, // Seal a segment per publish.
                ..DurableOptions::default()
            },
        )
        .unwrap(),
    );
    let a_cdss = Cdss::builder()
        .peer("A", schema(), TrustPolicy::open(1))
        .peer("B", schema(), TrustPolicy::open(1))
        .peer("C", schema(), TrustPolicy::open(1))
        .mapping(copy_r("A", "B"))
        .mapping(copy_r("B", "C"))
        .build_with_shared(durable.clone())
        .unwrap();
    let mut a = MeshNode::start_hosting(
        "A",
        a_cdss,
        vec![PeerId::new("A")],
        "127.0.0.1:0",
        mesh_opts(11, InterestMode::Everything),
    )
    .unwrap();
    let mut b = node("B", 12, InterestMode::Everything);
    a.join(b.addr().to_string()).unwrap();
    b.join(a.addr().to_string()).unwrap();

    let pa = PeerId::new("A");
    for k in 0..6i64 {
        a.cdss_mut()
            .publish_transaction(&pa, vec![Update::insert("R", tuple![k, k])])
            .unwrap();
    }
    a.cdss_mut().reconcile(&pa).unwrap();
    for _ in 0..4 {
        b.run_round().unwrap();
        if b.cdss().store().len() == 6 {
            break;
        }
    }
    assert_eq!(b.cdss().store().len(), 6, "B replicated A's history");

    // Bit rot in A's first sealed segment; the scrub quarantines the
    // affected positions instead of erroring.
    let first = dir.join(segment_file_name(
        *list_segments(&dir).unwrap().first().unwrap(),
    ));
    let mut bytes = std::fs::read(&first).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&first, &bytes).unwrap();
    let scrub = durable.scrub().unwrap();
    assert!(scrub.quarantined > 0, "{scrub:?}");
    let holes = durable.quarantined();
    assert_eq!(holes.len(), scrub.quarantined);
    let (_, gap) = holes[0].clone();
    assert!(matches!(
        durable.fetch(&gap),
        Err(StoreError::Unavailable { .. })
    ));

    // Gossip treats the quarantined positions as gaps and splices the
    // repair bytes back in — re-indexed, not re-absorbed.
    let mut healed = 0u64;
    for _ in 0..4 {
        let report = a.run_round().unwrap();
        healed += report.healed;
        assert_eq!(report.absorbed, 0, "nothing new absorbed: {report:?}");
        if durable.quarantined().is_empty() {
            break;
        }
    }
    assert_eq!(healed as usize, holes.len(), "every hole healed");
    assert!(durable.quarantined().is_empty());
    assert_eq!(a.stats().healed, healed);
    assert_eq!(durable.fetch(&gap).unwrap().unwrap().id, gap);
    assert_eq!(
        archive_ids(a.cdss().store()),
        archive_ids(b.cdss().store()),
        "archives converged after the repair"
    );

    // Zero duplicate applies: the healed positions never left the epoch
    // scan order, so reconciliation has nothing new to accept.
    for _ in 0..2 {
        let report = a.cdss_mut().reconcile(&pa).unwrap();
        assert!(
            report.outcome.accepted.is_empty(),
            "healed bytes re-applied: {:?}",
            report.outcome.accepted
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// PR 9 acceptance: a three-node cluster answers `METRICS` over the
/// wire mid-gossip, and a single propagated trace id reconstructs one
/// cross-peer exchange end to end — B's round phases, A's serving-side
/// page scan (recorded on A's server thread), and the durable WAL
/// fsync of the page B absorbed.
#[test]
fn metrics_poll_and_one_trace_reconstruct_a_cross_peer_exchange() {
    use orchestra_net::RemoteStore;
    use orchestra_store::{DurableOptions, DurableStore};

    let dir = std::env::temp_dir().join(format!("orchestra-mesh-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = Arc::new(DurableStore::open_with(&dir, DurableOptions::default()).unwrap());
    // B's archive is durable, so absorbing A's history crosses the WAL
    // and the traced exchange includes fsync spans.
    let b_cdss = Cdss::builder()
        .peer("A", schema(), TrustPolicy::open(1))
        .peer("B", schema(), TrustPolicy::open(1))
        .peer("C", schema(), TrustPolicy::open(1))
        .mapping(copy_r("A", "B"))
        .mapping(copy_r("B", "C"))
        .build_with_shared(durable)
        .unwrap();
    let mut a = node("A", 31, InterestMode::Everything);
    let mut b = MeshNode::start_hosting(
        "B",
        b_cdss,
        vec![PeerId::new("B")],
        "127.0.0.1:0",
        mesh_opts(32, InterestMode::Everything),
    )
    .unwrap();
    let mut c = node("C", 33, InterestMode::Everything);
    a.join(b.addr().to_string()).unwrap();
    b.join(a.addr().to_string()).unwrap();
    b.join(c.addr().to_string()).unwrap();
    c.join(b.addr().to_string()).unwrap();

    let pa = PeerId::new("A");
    for k in 0..5i64 {
        a.cdss_mut()
            .publish_transaction(&pa, vec![Update::insert("R", tuple![k, k])])
            .unwrap();
    }

    // `run_round` executes on this thread, so every client-side span of
    // the exchange shares this thread's ring. A marker span pins down
    // which ring that is, since other tests' threads also record.
    let my_thread = {
        drop(orchestra_obs::span!("test.mesh.thread_marker"));
        orchestra_obs::snapshot()
            .spans
            .iter()
            .rev()
            .find(|s| s.name == "test.mesh.thread_marker")
            .expect("marker span recorded")
            .thread
    };

    let mut absorbed = false;
    for _ in 0..6 {
        if b.run_round().unwrap().absorbed > 0 {
            absorbed = true;
            break;
        }
    }
    assert!(absorbed, "B never pulled A's history");

    // Mid-gossip, every node answers METRICS over the wire (the nodes
    // share this process's registry, but each reply crosses its own
    // socket and exercises its own server).
    for n in [&a, &b, &c] {
        let remote = RemoteStore::connect_with(n.addr(), fast_remote()).unwrap();
        let snap = remote.metrics().unwrap();
        assert!(
            snap.counters
                .iter()
                .any(|(name, v)| name == "mesh.round.pages_pulled" && *v > 0),
            "node {} snapshot misses pull counters",
            n.name()
        );
    }

    // The newest round span on this thread is the absorbing round; its
    // trace id stitches the whole exchange.
    let snap = orchestra_obs::snapshot();
    let round = snap
        .spans
        .iter()
        .filter(|s| s.name == "mesh.round" && s.thread == my_thread && s.trace != 0)
        .max_by_key(|s| s.seq)
        .expect("B's round span recorded");
    let trace = round.trace;
    let in_trace: Vec<&str> = snap
        .spans
        .iter()
        .filter(|s| s.trace == trace)
        .map(|s| s.name.as_str())
        .collect();
    for phase in [
        "mesh.round",
        "mesh.digest",
        "mesh.pull",
        "server.pull_pages",
        "store.absorb",
        "store.wal.fsync",
    ] {
        assert!(
            in_trace.contains(&phase),
            "trace {trace:#x} misses `{phase}`: {in_trace:?}"
        );
    }
    // The serving half really ran elsewhere: A's server thread adopted
    // the id off the wire.
    let served = snap
        .spans
        .iter()
        .find(|s| s.trace == trace && s.name == "server.pull_pages")
        .expect("serving span present");
    assert_ne!(served.thread, round.thread, "pull served in-thread?");

    let _ = a.shutdown();
    let _ = b.shutdown();
    let _ = c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
