//! Networked update exchange: two CDSS sites in separate OS threads
//! sharing one archive over TCP loopback through
//! `PeerServer`/`RemoteStore`.
//!
//! The scenarios mirror `tests/paged_exchange.rs`: the same churn/resume
//! semantics — partial progress past a dead payload, frozen resume
//! cursors, held-back causal dependents, identical
//! `ReconcileReport { pages, skipped_unavailable, held_back, blocked_on }`
//! outcomes — must hold when the store is on the other end of a socket.
//! On top of that, the network adds a failure mode the in-memory path
//! cannot have: the *whole archive* vanishing mid-exchange. Those tests
//! kill the `PeerServer` and restart it, proving the client's frozen
//! cursor picks up at the gap with no duplicate applies.

use orchestra_core::{Cdss, ExchangeOptions, ReconcileReport};
use orchestra_net::{PeerServer, RemoteOptions, RemoteStore};
use orchestra_reconcile::TrustPolicy;
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, ValueType};
use orchestra_store::{FetchCursor, FetchPage, InMemoryStore, ReplicatedStore, UpdateStore};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use std::net::SocketAddr;
use std::sync::Arc;
use std::sync::Mutex as StdMutex;
use std::time::Duration;

/// Client options tuned for tests: fail fast, one retry.
fn fast_opts() -> RemoteOptions {
    RemoteOptions {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        retries: 1,
    }
}

fn kv_schema() -> DatabaseSchema {
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

/// One site's CDSS: peers A and B with identity mappings, the archive
/// behind `addr`. Each site is its own process-equivalent — its own
/// engines, reconciler state, clock — sharing only the archive.
fn kv_site(addr: SocketAddr) -> Cdss {
    let schema = kv_schema();
    let store = RemoteStore::lazy_with(addr, fast_opts()).unwrap();
    Cdss::builder()
        .peer("A", schema.clone(), TrustPolicy::open(1))
        .peer("B", schema, TrustPolicy::open(1))
        .identity("A", "B")
        .unwrap()
        .build_with_store(Box::new(store))
        .unwrap()
}

/// The `paged_exchange` churn scenario, over real sockets: site A (its
/// own OS thread) publishes through the wire into a replicated archive;
/// site B reconciles through the wire, makes partial progress past a
/// payload whose only holder is down, and resumes from the frozen cursor
/// when the holder returns — with the same `ReconcileReport` outcomes as
/// the in-memory path.
#[test]
fn two_sites_reconcile_over_tcp_with_churn_and_resume() {
    let dht = Arc::new(ReplicatedStore::new(64, 1).unwrap());
    let server = PeerServer::bind("127.0.0.1:0", dht.clone()).unwrap();
    let addr = server.local_addr();

    // Site A runs in its own OS thread and publishes t1..t5 over TCP.
    let publisher = std::thread::spawn(move || {
        let mut site_a = kv_site(addr);
        let a = PeerId::new("A");
        let t1 = site_a
            .publish_transaction(&a, vec![Update::insert("R", tuple![1, 10])])
            .unwrap();
        let t2 = site_a
            .publish_transaction(&a, vec![Update::insert("R", tuple![2, 20])])
            .unwrap();
        let t3 = site_a
            .publish_transaction(&a, vec![Update::insert("R", tuple![3, 30])])
            .unwrap();
        let t4 = site_a
            .publish_transaction(&a, vec![Update::modify("R", tuple![3, 30], tuple![3, 31])])
            .unwrap();
        let t5 = site_a
            .publish_transaction(&a, vec![Update::insert("R", tuple![5, 50])])
            .unwrap();
        (site_a, [t1, t2, t3, t4, t5])
    });
    let (site_a, [t1, t2, t3, t4, t5]) = publisher.join().unwrap();

    // The causal link survived the wire: t4 read what t3 wrote.
    let stored_t4 = dht.fetch(&t4).unwrap().unwrap();
    assert!(stored_t4.antecedents.contains(&t3), "t4 depends on t3");

    // Kill exactly t3's holder (replication factor 1).
    let victim = dht.holders(&t3).unwrap()[0];
    for other in [&t1, &t2, &t4, &t5] {
        assert_ne!(dht.holders(other).unwrap()[0], victim, "only t3 on victim");
    }
    dht.take_node_down(victim);

    // Site B reconciles over TCP: partial progress, gap identified.
    let mut site_b = kv_site(addr);
    let b = PeerId::new("B");
    let report = site_b.reconcile(&b).unwrap();
    assert_eq!(report.blocked_on, Some(t3.clone()), "gap identified");
    assert_eq!(report.skipped_unavailable, 1);
    assert_eq!(report.held_back, 1, "t4 held back behind the gap");
    assert_eq!(report.fetched, 4, "t1, t2, t4, t5 reachable");
    assert_eq!(report.outcome.accepted.len(), 3, "t1, t2, t5 applied");
    assert!(!report.unreachable, "the archive endpoint itself is up");
    {
        let r = site_b.peer(&b).unwrap().instance().relation("R").unwrap();
        assert!(r.contains(&tuple![1, 10]));
        assert!(r.contains(&tuple![2, 20]));
        assert!(r.contains(&tuple![5, 50]));
        assert!(!r.iter().any(|t| t[0] == tuple![3, 0][0]), "no key 3");
    }
    let frozen = site_b.peer(&b).unwrap().resume_cursor().cloned();
    assert!(frozen.is_some(), "cursor frozen at the gap");

    // Blocked retry: same semantics as in-memory — probe the gap, fetch
    // nothing new, burn no epoch.
    let epoch_before = site_b.current_epoch();
    let retry = site_b.reconcile(&b).unwrap();
    assert_eq!(retry.blocked_on, Some(t3.clone()));
    assert_eq!(retry.fetched, 0, "no suffix rescan over the wire either");
    assert_eq!(site_b.current_epoch(), epoch_before, "no epoch inflation");
    assert_eq!(site_b.peer(&b).unwrap().resume_cursor().cloned(), frozen);

    // The holder returns: resume drains the gap + held dependent and B
    // converges on what site A published.
    dht.bring_node_up(victim);
    let report = site_b.reconcile(&b).unwrap();
    assert_eq!(report.blocked_on, None);
    assert_eq!(report.outcome.accepted.len(), 2, "t3, t4 arrive");
    assert!(site_b.peer(&b).unwrap().resume_cursor().is_none());
    assert_eq!(
        site_b.peer(&b).unwrap().instance().relation("R").unwrap(),
        site_a
            .peer(&PeerId::new("A"))
            .unwrap()
            .instance()
            .relation("R")
            .unwrap(),
        "site B converged on site A's instance across the wire"
    );
    server.shutdown();
}

/// A store wrapper that pulls the plug on the server after a fixed number
/// of successful `fetch_page` calls — deterministic "server dies
/// mid-exchange" injection.
struct KillSwitch {
    inner: RemoteStore,
    server: StdMutex<Option<PeerServer>>,
    kill_after_pages: StdMutex<Option<usize>>,
}

impl KillSwitch {
    fn arm(&self, pages: usize, server: PeerServer) {
        *self.server.lock().unwrap() = Some(server);
        *self.kill_after_pages.lock().unwrap() = Some(pages);
    }
}

/// Forwarding handle so the test keeps an [`Arc`] to arm the switch
/// after the store is boxed into the CDSS.
struct SharedKill(Arc<KillSwitch>);

impl UpdateStore for SharedKill {
    fn publish(&self, epoch: Epoch, txns: Vec<Transaction>) -> orchestra_store::Result<()> {
        self.0.inner.publish(epoch, txns)
    }
    fn fetch_page(&self, cursor: &FetchCursor, limit: usize) -> orchestra_store::Result<FetchPage> {
        let page = self.0.inner.fetch_page(cursor, limit)?;
        let mut remaining = self.0.kill_after_pages.lock().unwrap();
        if let Some(n) = remaining.as_mut() {
            *n = n.saturating_sub(1);
            if *n == 0 {
                *remaining = None;
                drop(remaining);
                if let Some(server) = self.0.server.lock().unwrap().take() {
                    server.shutdown();
                }
            }
        }
        Ok(page)
    }
    fn fetch(&self, id: &TxnId) -> orchestra_store::Result<Option<Transaction>> {
        self.0.inner.fetch(id)
    }
    fn len(&self) -> usize {
        self.0.inner.len()
    }
    fn latest_epoch(&self) -> Option<Epoch> {
        self.0.inner.latest_epoch()
    }
    fn stats(&self) -> orchestra_store::StoreStats {
        self.0.inner.stats()
    }
    fn digest(&self) -> orchestra_store::Result<orchestra_store::StoreDigest> {
        self.0.inner.digest()
    }
}

/// Fault injection (the network analogue of the PR 3 churn test): the
/// `PeerServer` dies *mid-exchange* — after the client has applied some
/// pages but before the scan completes — and is later restarted on the
/// same port over the same archive. The exchange must absorb the outage
/// (no error, `unreachable` reported, progress kept), freeze the resume
/// cursor at the first unfetched position, and the post-restart exchange
/// must pick up exactly there with no duplicate applies.
#[test]
fn server_killed_mid_exchange_restart_resumes_at_gap_without_duplicates() {
    // Seed the archive through a direct connection.
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind("127.0.0.1:0", backend.clone()).unwrap();
    let addr = server.local_addr();
    let n = 12i64;
    {
        let mut seeder = kv_site(addr);
        let a = PeerId::new("A");
        for i in 0..n {
            seeder
                .publish_transaction(&a, vec![Update::insert("R", tuple![i, i * 10])])
                .unwrap();
        }
    }

    // Site B reads through a kill switch armed to shut the server down
    // after 3 pages of 2 transactions each.
    let switch = Arc::new(KillSwitch {
        inner: RemoteStore::connect_with(addr, fast_opts()).unwrap(),
        server: StdMutex::new(None),
        kill_after_pages: StdMutex::new(None),
    });
    switch.arm(3, server);
    let mut site_b = Cdss::builder()
        .peer("A", kv_schema(), TrustPolicy::open(1))
        .peer("B", kv_schema(), TrustPolicy::open(1))
        .identity("A", "B")
        .unwrap()
        .build_with_store(Box::new(SharedKill(Arc::clone(&switch))))
        .unwrap();
    let b = PeerId::new("B");

    let first: ReconcileReport = site_b
        .reconcile_with(&b, ExchangeOptions { page_limit: 2 })
        .unwrap();
    assert!(first.unreachable, "outage reported, not errored");
    assert_eq!(first.pages, 3, "three pages landed before the cut");
    assert_eq!(first.fetched, 6);
    assert_eq!(first.outcome.accepted.len(), 6, "progress kept");
    assert_eq!(first.blocked_on, None, "no payload gap, a transport cut");
    let frozen = site_b.peer(&b).unwrap().resume_cursor().cloned();
    assert!(
        frozen.is_some(),
        "cursor frozen at the first unfetched page"
    );

    // While down: polls degrade gracefully, state stays frozen.
    let down = site_b
        .reconcile_with(&b, ExchangeOptions { page_limit: 2 })
        .unwrap();
    assert!(down.unreachable);
    assert_eq!(down.fetched, 0);
    assert_eq!(down.pages, 0, "the probe of the frozen cursor failed");
    assert_eq!(down.epoch, first.epoch, "an outage poll burns no epoch");
    assert_eq!(down.outcome.accepted.len(), 0);
    assert_eq!(site_b.peer(&b).unwrap().resume_cursor().cloned(), frozen);

    // Restart on the same port over the same archive; the next exchange
    // resumes at the gap and the two exchanges together apply every
    // transaction exactly once.
    let server = PeerServer::bind(addr, backend).unwrap();
    let second = site_b
        .reconcile_with(&b, ExchangeOptions { page_limit: 2 })
        .unwrap();
    assert!(!second.unreachable);
    assert_eq!(second.blocked_on, None);
    assert_eq!(
        second.outcome.accepted.len(),
        (n as usize) - 6,
        "exactly the unseen suffix, no duplicates"
    );
    let seen: std::collections::BTreeSet<_> = first
        .outcome
        .accepted
        .iter()
        .chain(second.outcome.accepted.iter())
        .collect();
    assert_eq!(seen.len(), n as usize, "no id applied twice");
    assert!(site_b.peer(&b).unwrap().resume_cursor().is_none());
    let r = site_b.peer(&b).unwrap().instance().relation("R").unwrap();
    assert_eq!(r.len(), n as usize);
    for i in 0..n {
        assert!(r.contains(&tuple![i, i * 10]), "row {i} present once");
    }
    server.shutdown();
}

/// A site built while the archive endpoint is down comes up degraded but
/// functional: reconcile absorbs the outage (no error), and once the
/// server appears the same site catches up normally.
#[test]
fn site_survives_starting_before_its_peer_server() {
    // Reserve a port nothing listens on, then release it.
    let probe = PeerServer::bind("127.0.0.1:0", Arc::new(InMemoryStore::new())).unwrap();
    let addr = probe.local_addr();
    probe.shutdown();

    let mut site = kv_site(addr);
    let b = PeerId::new("B");
    let report = site.reconcile(&b).unwrap();
    assert!(report.unreachable, "dead endpoint absorbed, not errored");
    assert_eq!(report.fetched, 0);

    // The server appears (fresh archive) and another site publishes.
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind(addr, backend).unwrap();
    {
        let mut site_a = kv_site(addr);
        site_a
            .publish_transaction(&PeerId::new("A"), vec![Update::insert("R", tuple![7, 70])])
            .unwrap();
    }
    let report = site.reconcile(&b).unwrap();
    assert!(!report.unreachable);
    assert_eq!(report.outcome.accepted.len(), 1);
    assert!(site
        .peer(&b)
        .unwrap()
        .instance()
        .relation("R")
        .unwrap()
        .contains(&tuple![7, 70]));
    server.shutdown();
}
