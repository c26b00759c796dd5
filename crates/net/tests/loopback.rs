//! Loopback integration: a real `PeerServer` on 127.0.0.1 with real
//! `RemoteStore` clients — the store contract over actual sockets, error
//! pass-through, transport→Unavailable mapping, restart recovery,
//! concurrent clients, and graceful shutdown.

use orchestra_net::{PeerServer, RemoteOptions, RemoteStore, ServerOptions};
use orchestra_relational::tuple;
use orchestra_store::{
    pages, FetchCursor, InMemoryStore, ReplicatedStore, StoreError, UpdateStore, DEFAULT_PAGE_LIMIT,
};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use std::sync::Arc;
use std::time::Duration;

fn txn(peer: &str, seq: u64) -> Transaction {
    Transaction::new(
        TxnId::new(PeerId::new(peer), seq),
        Epoch::zero(),
        vec![Update::insert("R", tuple![seq as i64, 0])],
    )
}

/// Options tuned for tests: short timeouts, quick retries.
fn fast_opts() -> RemoteOptions {
    RemoteOptions {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        retries: 1,
    }
}

#[test]
fn store_contract_over_loopback() {
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind("127.0.0.1:0", backend.clone()).unwrap();
    let remote = RemoteStore::connect_with(server.local_addr(), fast_opts()).unwrap();

    assert!(remote.is_empty());
    assert_eq!(remote.latest_epoch(), None);

    remote
        .publish(Epoch::new(1), vec![txn("B", 1), txn("A", 1)])
        .unwrap();
    remote.publish(Epoch::new(2), vec![txn("A", 2)]).unwrap();

    assert_eq!(remote.len(), 3);
    assert_eq!(remote.latest_epoch(), Some(Epoch::new(2)));

    // Paged scan over the wire matches the backend's deterministic order.
    let p1 = remote
        .fetch_page(&FetchCursor::at_epoch(Epoch::zero()), 2)
        .unwrap();
    assert_eq!(p1.txns.len(), 2);
    assert_eq!(p1.txns[0].id.peer.name(), "A");
    let p2 = remote.fetch_page(&p1.next_cursor.unwrap(), 2).unwrap();
    assert_eq!(p2.txns.len(), 1);
    assert!(p2.next_cursor.is_none());

    // Sequence 0 is an id like any other: an unfiltered page ships it.
    remote.publish(Epoch::new(3), vec![txn("C", 0)]).unwrap();

    // A whole walk over the wire matches the backend's own walk.
    let walk = |store: &dyn UpdateStore| -> Vec<Transaction> {
        pages(
            store,
            FetchCursor::at_epoch(Epoch::zero()),
            DEFAULT_PAGE_LIMIT,
        )
        .flat_map(|p| p.unwrap().txns)
        .collect()
    };
    let all = walk(&remote);
    assert_eq!(all.len(), 4);
    assert_eq!(all, walk(&*backend));

    // Point fetch, hit and miss.
    let got = remote.fetch(&TxnId::new(PeerId::new("A"), 2)).unwrap();
    assert_eq!(got.unwrap().id.seq, 2);
    assert!(remote
        .fetch(&TxnId::new(PeerId::new("Z"), 9))
        .unwrap()
        .is_none());

    // Remote stats are the backend's counters.
    assert_eq!(remote.stats().published, 4);

    // One connection carries every request of the store.
    let net = remote.net_stats();
    assert!(net.round_trips >= 8, "round trips counted: {net:?}");
    assert_eq!(net.connects, 1, "the connection was not reused: {net:?}");
    server.shutdown();
}

#[test]
fn application_errors_travel_the_wire_intact() {
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind("127.0.0.1:0", backend).unwrap();
    let remote = RemoteStore::connect_with(server.local_addr(), fast_opts()).unwrap();

    remote.publish(Epoch::new(5), vec![txn("A", 1)]).unwrap();

    // Duplicate id: the same error a local backend raises.
    let dup = remote.publish(Epoch::new(6), vec![txn("A", 1)]);
    assert!(matches!(dup, Err(StoreError::DuplicateTxn(_))), "{dup:?}");

    // Stale epoch: field values survive the round trip.
    let stale = remote.publish(Epoch::new(3), vec![txn("A", 2)]);
    assert_eq!(
        stale,
        Err(StoreError::StaleEpoch {
            epoch: 3,
            latest: 5
        })
    );

    // An application error does not poison the connection.
    remote.publish(Epoch::new(6), vec![txn("A", 2)]).unwrap();
    assert_eq!(remote.len(), 2);
}

/// The lost-response hazard: a publish whose response never arrives is
/// retried and answered `DuplicateTxn` although it committed. The client
/// disambiguates by reading the batch back, so re-publishing identical
/// bytes is idempotent — while a genuine conflict (same id, different
/// content) still errors.
#[test]
fn republishing_identical_batch_is_idempotent_but_conflicts_still_error() {
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind("127.0.0.1:0", backend).unwrap();
    let remote = RemoteStore::connect_with(server.local_addr(), fast_opts()).unwrap();

    let batch = vec![txn("A", 1), txn("A", 2)];
    remote.publish(Epoch::new(1), batch.clone()).unwrap();
    // Same bytes again — what a retry after a lost response looks like.
    remote.publish(Epoch::new(1), batch).unwrap();
    assert_eq!(remote.len(), 2, "nothing archived twice");

    // Same id, different content: a real conflict, surfaced as such.
    let conflicting = Transaction::new(
        TxnId::new(PeerId::new("A"), 1),
        Epoch::zero(),
        vec![Update::insert("R", tuple![99, 99])],
    );
    let err = remote.publish(Epoch::new(1), vec![conflicting]);
    assert!(matches!(err, Err(StoreError::DuplicateTxn(_))), "{err:?}");
    server.shutdown();
}

#[test]
fn payload_unavailability_flows_through_pages() {
    // A replicated backend with churn behind the server: the page's
    // unavailable positions arrive at the client exactly as they would
    // from a local store.
    let dht = Arc::new(ReplicatedStore::new(16, 1).unwrap());
    dht.publish(Epoch::new(1), vec![txn("A", 1), txn("A", 2)])
        .unwrap();
    let victim = dht.holders(&TxnId::new(PeerId::new("A"), 1)).unwrap()[0];
    dht.take_node_down(victim);
    let expected = dht
        .fetch_page(&FetchCursor::at_epoch(Epoch::zero()), 16)
        .unwrap();

    let server = PeerServer::bind("127.0.0.1:0", dht.clone()).unwrap();
    let remote = RemoteStore::connect_with(server.local_addr(), fast_opts()).unwrap();
    let page = remote
        .fetch_page(&FetchCursor::at_epoch(Epoch::zero()), 16)
        .unwrap();
    assert_eq!(page, expected, "byte-identical page over the wire");
    assert!(!page.unavailable.is_empty(), "churn visible remotely");
}

#[test]
fn dead_server_maps_to_unavailable() {
    // Bind then immediately shut down to get a port nothing listens on.
    let server = PeerServer::bind("127.0.0.1:0", Arc::new(InMemoryStore::new())).unwrap();
    let addr = server.local_addr();
    server.shutdown();

    let remote = RemoteStore::lazy_with(addr, fast_opts()).unwrap();
    let err = remote.fetch_page(&FetchCursor::at_epoch(Epoch::zero()), 8);
    assert!(
        matches!(err, Err(StoreError::Unavailable { .. })),
        "{err:?}"
    );
    let err = remote.publish(Epoch::new(1), vec![txn("A", 1)]);
    assert!(
        matches!(err, Err(StoreError::Unavailable { .. })),
        "{err:?}"
    );
    // Metadata probes degrade to "nothing observable", not panics.
    assert_eq!(remote.len(), 0);
    assert_eq!(remote.latest_epoch(), None);
    assert!(remote.net_stats().unavailable_mapped >= 2);
}

#[test]
fn client_survives_a_server_restart_on_the_same_port() {
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind("127.0.0.1:0", backend.clone()).unwrap();
    let addr = server.local_addr();
    let remote = RemoteStore::connect_with(addr, fast_opts()).unwrap();
    remote.publish(Epoch::new(1), vec![txn("A", 1)]).unwrap();
    server.shutdown();

    // Down: transport failure surfaces as Unavailable.
    assert!(matches!(
        remote.publish(Epoch::new(2), vec![txn("A", 2)]),
        Err(StoreError::Unavailable { .. })
    ));

    // Restart on the same port with the same backend (the archive is the
    // durable thing; the endpoint is just a door).
    let server = PeerServer::bind(addr, backend).unwrap();
    remote.publish(Epoch::new(2), vec![txn("A", 2)]).unwrap();
    assert_eq!(remote.len(), 2);
    let net = remote.net_stats();
    assert!(net.transport_errors >= 1, "{net:?}");
    server.shutdown();
}

#[test]
fn concurrent_clients_share_one_archive() {
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind_with(
        "127.0.0.1:0",
        backend,
        ServerOptions {
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for t in 0..4u64 {
        handles.push(std::thread::spawn(move || {
            let remote = RemoteStore::connect_with(addr, fast_opts()).unwrap();
            for i in 0..10u64 {
                remote
                    .publish(Epoch::new(1), vec![txn(&format!("P{t}"), i + 1)])
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let remote = RemoteStore::connect_with(addr, fast_opts()).unwrap();
    assert_eq!(remote.len(), 40, "every publish archived exactly once");
    let page = remote
        .fetch_page(&FetchCursor::at_epoch(Epoch::zero()), 64)
        .unwrap();
    assert_eq!(page.txns.len(), 40);
    assert!(page.next_cursor.is_none());
    server.shutdown();
}

#[test]
fn graceful_shutdown_finishes_in_flight_requests() {
    let backend = Arc::new(InMemoryStore::new());
    for _ in 0..3 {
        let server = PeerServer::bind_with(
            "127.0.0.1:0",
            backend.clone(),
            ServerOptions {
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let remote = RemoteStore::connect_with(server.local_addr(), fast_opts()).unwrap();
        remote.publish(Epoch::new(1), vec![]).unwrap();
        // Shutdown must join quickly even with an idle cached connection
        // open (the poll tick notices the flag, not a 60s idle timeout).
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "graceful shutdown stalled"
        );
    }
}

/// Idle keep-alive clients never delay a newcomer: with more idle client
/// connections open than a fixed worker pool would have threads, a fresh
/// connect + probe still round-trips in a few milliseconds.
#[test]
fn idle_pooled_connections_do_not_starve_new_ones() {
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind("127.0.0.1:0", backend).unwrap();
    let addr = server.local_addr();
    let idle: Vec<RemoteStore> = (0..8)
        .map(|_| RemoteStore::connect_with(addr, fast_opts()).unwrap())
        .collect();

    let mut times: Vec<Duration> = (0..10)
        .map(|_| {
            let start = std::time::Instant::now();
            let remote = RemoteStore::connect_with(addr, fast_opts()).unwrap();
            remote.probe().unwrap();
            start.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(40),
        "fresh connect + probe median {median:?} behind {} idle clients: {times:?}",
        idle.len()
    );
    server.shutdown();
}

/// Shutdown does not wait out `read_timeout` behind a client that stalled
/// mid-frame: closing the read half ends the blocked read at once.
#[test]
fn shutdown_is_prompt_with_a_client_stalled_mid_frame() {
    use std::io::Write;
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind("127.0.0.1:0", backend).unwrap();
    assert_eq!(
        ServerOptions::default().read_timeout,
        Duration::from_secs(10)
    );
    let _idle = RemoteStore::connect_with(server.local_addr(), fast_opts()).unwrap();
    // One byte of a frame header, then silence.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&[0x07]).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let start = std::time::Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}

#[test]
fn anti_entropy_exchange_over_loopback() {
    use orchestra_net::PullPage;
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind("127.0.0.1:0", backend).unwrap();
    let remote = RemoteStore::connect_with(server.local_addr(), fast_opts()).unwrap();

    remote
        .publish(Epoch::new(1), vec![txn("A", 1), txn("B", 1)])
        .unwrap();
    remote.publish(Epoch::new(2), vec![txn("A", 2)]).unwrap();

    // The digest summarizes the archive without shipping payloads.
    let d = remote.digest().unwrap();
    assert_eq!(d.len, 3);
    assert_eq!(d.latest_epoch, Some(Epoch::new(2)));
    assert_eq!(d.source_hw("A"), 2);
    assert_eq!(d.source_hw("B"), 1);
    assert_eq!(d.relation_txns("A.R"), 2);
    assert_eq!(d.relation_txns("B.R"), 1);

    // Interest-filtered pull: B's positions come back as skipped ids in
    // scan order, so the puller's prefix bookkeeping stays exact.
    let page = remote
        .pull_pages(
            &FetchCursor::at_epoch(Epoch::zero()),
            16,
            &["A.R".to_string()],
            &[],
        )
        .unwrap();
    assert_eq!(page.txns.len(), 2);
    assert!(page.txns.iter().all(|t| t.id.peer.name() == "A"));
    assert_eq!(page.skipped, vec![TxnId::new(PeerId::new("B"), 1)]);
    assert!(page.unavailable.is_empty());
    assert!(page.next_cursor.is_none());

    // A have floor turns the puller's already-held prefix into skips too.
    let page = remote
        .pull_pages(
            &FetchCursor::at_epoch(Epoch::zero()),
            16,
            &[],
            &[("A".to_string(), 1)],
        )
        .unwrap();
    let shipped: Vec<_> = page.txns.iter().map(|t| t.id.clone()).collect();
    assert_eq!(
        shipped,
        vec![
            TxnId::new(PeerId::new("B"), 1),
            TxnId::new(PeerId::new("A"), 2)
        ]
    );
    assert_eq!(page.skipped, vec![TxnId::new(PeerId::new("A"), 1)]);

    // An empty scan window is an empty page, not an error.
    let empty = remote
        .pull_pages(&FetchCursor::after_epoch(Epoch::new(2)), 16, &[], &[])
        .unwrap();
    assert_eq!(empty, PullPage::default());

    // The per-message-type counters ride back on the probe.
    let (len, _, _, c) = remote.probe().unwrap();
    assert_eq!(len, 3);
    assert_eq!(c.digests_served, 1);
    assert_eq!(c.pull_pages, 3);
    server.shutdown();
}

/// Against a dead endpoint an operation makes `retries + 1` attempts,
/// each a counted transport error, and is mapped to `Unavailable` once.
#[test]
fn retries_against_a_dead_endpoint_back_off() {
    let server = PeerServer::bind("127.0.0.1:0", Arc::new(InMemoryStore::new())).unwrap();
    let addr = server.local_addr();
    server.shutdown();

    let opts = RemoteOptions {
        connect_timeout: Duration::from_millis(200),
        retries: 2,
        ..fast_opts()
    };
    let remote = RemoteStore::lazy_with(addr, opts).unwrap();
    let err = remote.fetch(&TxnId::new(PeerId::new("A"), 1));
    assert!(
        matches!(err, Err(StoreError::Unavailable { .. })),
        "{err:?}"
    );
    let net = remote.net_stats();
    assert_eq!(net.transport_errors, 3, "one error per attempt: {net:?}");
    assert_eq!(net.unavailable_mapped, 1, "{net:?}");
}

/// A frame that starts and then stalls past `read_timeout` closes the
/// connection and is counted as a timeout, distinct from corruption.
#[test]
fn stalled_mid_frame_connection_counts_as_timed_out() {
    use std::io::Write;
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind_with(
        "127.0.0.1:0",
        backend,
        ServerOptions {
            read_timeout: Duration::from_millis(100),
            ..ServerOptions::default()
        },
    )
    .unwrap();

    // One byte of a frame header, then silence.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&[0x07]).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.timed_out_conns >= 1 {
            assert_eq!(stats.corrupt_frames, 0, "{stats:?}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stall never counted: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// There is one protocol version: a `HELLO` carrying any other number —
/// older or newer — is answered with `ERR` and the connection is closed.
#[test]
fn hello_with_another_version_gets_err_and_a_close() {
    use orchestra_net::{Request, Response, PROTOCOL_VERSION};
    use orchestra_store::frame::{frame, FrameRead, FrameReader};
    use std::io::{Read, Write};

    assert_eq!(PROTOCOL_VERSION, 4);
    let server = PeerServer::bind("127.0.0.1:0", Arc::new(InMemoryStore::new())).unwrap();
    for version in [0, 1, 2, 3, PROTOCOL_VERSION + 1] {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let hello = Request::Hello { version, trace: 0 };
        raw.write_all(&frame(&hello.encode())).unwrap();
        match FrameReader::new(&mut raw, 0).next_frame().unwrap() {
            (_, FrameRead::Ok { payload, .. }) => match Response::decode(&payload).unwrap() {
                Response::Err(StoreError::InvalidConfig(msg)) => {
                    assert!(msg.contains(&format!("version {version}")), "{msg}");
                }
                other => panic!("expected ERR for version {version}, got {other:?}"),
            },
            (_, other) => panic!("no response frame: {other:?}"),
        }
        // Nothing further is served on this connection.
        raw.write_all(&frame(&Request::Probe.encode())).ok();
        let mut rest = Vec::new();
        let _ = raw.read_to_end(&mut rest);
        assert!(rest.is_empty(), "version {version} was served after ERR");
    }
    assert_eq!(server.stats().protocol_errors, 5);
    assert_eq!(server.stats().requests, 0);
    server.shutdown();
}

/// The client's half of the version check: a server answering `HELLO`
/// with another version is an incompatible peer, reported as such (not
/// as an unreachable one, which would be retried and absorbed).
#[test]
fn client_rejects_a_server_speaking_another_version() {
    use orchestra_net::{Response, PROTOCOL_VERSION};
    use orchestra_store::frame::{frame, FrameReader};
    use std::io::Write;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let old_server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        FrameReader::new(&mut conn, 0).next_frame().unwrap();
        let hello_ok = Response::HelloOk {
            version: PROTOCOL_VERSION - 1,
        };
        conn.write_all(&frame(&hello_ok.encode())).unwrap();
    });
    match RemoteStore::connect_with(addr, fast_opts()) {
        Err(StoreError::InvalidConfig(msg)) => {
            let old = format!("version {}", PROTOCOL_VERSION - 1);
            assert!(msg.contains(&old), "{msg}");
        }
        other => panic!("expected a version error, got {other:?}"),
    }
    old_server.join().unwrap();
}

#[test]
fn garbage_speaking_client_is_rejected_not_served() {
    use std::io::{Read, Write};
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind("127.0.0.1:0", backend).unwrap();
    // No HELLO, just bytes that happen to be a valid frame.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let bogus = orchestra_store::frame::frame(b"not a protocol message");
    raw.write_all(&bogus).unwrap();
    let mut buf = Vec::new();
    let _ = raw.read_to_end(&mut buf); // Server answers with ERR and closes.
    assert!(!buf.is_empty(), "server sent a rejection before closing");
    let stats = server.stats();
    assert!(stats.protocol_errors >= 1, "{stats:?}");
    server.shutdown();
}

/// `METRICS` over the wire is the same registry the process sees
/// locally, round-tripped faithfully by the codec.
#[test]
fn metrics_over_the_wire_match_in_process_snapshot() {
    let backend = Arc::new(InMemoryStore::new());
    let server = PeerServer::bind("127.0.0.1:0", backend).unwrap();
    let remote = RemoteStore::connect_with(server.local_addr(), fast_opts()).unwrap();
    remote.publish(Epoch::new(1), vec![txn("A", 1)]).unwrap();

    // A name only this test touches: wire and local must agree on it
    // exactly even while parallel tests mutate the rest of the registry.
    orchestra_obs::add_named("test.loopback.metrics_probe", 41);
    orchestra_obs::add_named("test.loopback.metrics_probe", 1);

    let wire = remote.metrics().unwrap();
    let local = orchestra_obs::snapshot_filtered("test.loopback.");
    let filtered: Vec<(String, u64)> = wire
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("test.loopback."))
        .cloned()
        .collect();
    assert_eq!(filtered, local.counters);
    assert_eq!(
        filtered,
        vec![("test.loopback.metrics_probe".to_string(), 42)]
    );

    // The shared names ride along, and arrive name-sorted like a local
    // snapshot.
    assert!(
        wire.counters
            .iter()
            .any(|(n, v)| n == "server.requests" && *v > 0),
        "wire snapshot misses server counters"
    );
    assert!(wire.counters.windows(2).all(|w| w[0].0 < w[1].0));
    server.shutdown();
}

/// A request carrying the caller's trace id stitches the server's
/// spans into the caller's trace — across a real socket, onto a
/// different thread.
#[test]
fn propagated_trace_stitches_server_spans_into_client_trace() {
    let backend = Arc::new(InMemoryStore::new());
    backend.publish(Epoch::new(1), vec![txn("A", 1)]).unwrap();
    let server = PeerServer::bind("127.0.0.1:0", backend).unwrap();
    let remote = RemoteStore::connect_with(server.local_addr(), fast_opts()).unwrap();

    let trace = {
        let guard = orchestra_obs::trace_mint();
        let _client_span = orchestra_obs::span!("test.loopback.clientside");
        remote
            .pull_pages(&FetchCursor::at_epoch(Epoch::zero()), 16, &[], &[])
            .unwrap();
        guard.id
    };

    let snap = orchestra_obs::snapshot();
    let client = snap
        .spans
        .iter()
        .find(|s| s.trace == trace && s.name == "test.loopback.clientside")
        .expect("client span recorded under the minted trace");
    let served = snap
        .spans
        .iter()
        .find(|s| s.trace == trace && s.name == "server.pull_pages")
        .expect("server span adopted the trace that rode the wire");
    assert_ne!(served.thread, client.thread, "pull served in-thread?");
    server.shutdown();
}
