//! The client's failpoints, alone in their own test process: failpoint
//! scopes are process-wide, so an armed `net.client.*` site would also
//! fire on the requests of any test running alongside. Each test does all
//! of its socket work inside a scope: the set-up and the read-back
//! disarmed, the operation under test armed.

use orchestra_net::{PeerServer, RemoteOptions, RemoteStore};
use orchestra_relational::tuple;
use orchestra_store::{InMemoryStore, UpdateStore};
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

/// A loopback server over `backend` and a connected client with one
/// retry.
fn serve(backend: Arc<InMemoryStore>) -> (PeerServer, RemoteStore) {
    let opts = RemoteOptions {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        retries: 1,
    };
    orchestra_fault::disarmed(|| {
        let server = PeerServer::bind("127.0.0.1:0", backend).unwrap();
        let remote = RemoteStore::connect_with(server.local_addr(), opts).unwrap();
        (server, remote)
    })
}

/// Injected wire corruption: a client failpoint flips one payload byte
/// after the checksum is computed; the server must reject the frame,
/// count it as corrupt (not a stall), and the client's retries recover.
#[test]
fn injected_corrupt_frames_are_counted_and_retried_through() {
    let backend = Arc::new(InMemoryStore::new());
    backend.publish(Epoch::new(1), vec![txn("A", 1)]).unwrap();
    let (server, remote) = serve(backend);

    {
        let _fp = orchestra_fault::scoped("net.client.send=flip@1x2", 7);
        // Injection 1 corrupts the cached connection's attempt, injection 2
        // corrupts the retry's HELLO; the second fresh dial goes clean.
        assert!(remote
            .fetch(&TxnId::new(PeerId::new("A"), 1))
            .unwrap()
            .is_some());
        assert_eq!(orchestra_fault::injected_total(), 2);
    }

    let stats = server.stats();
    assert_eq!(stats.corrupt_frames, 2, "{stats:?}");
    assert!(stats.protocol_errors >= 2, "{stats:?}");
    server.shutdown();
}

/// A publish whose response is lost is retried on a fresh connection;
/// the server answers the retry `DuplicateTxn`, and the client's witness
/// read-back turns that into the success it was.
#[test]
fn a_publish_whose_response_is_lost_is_retried_once() {
    let backend = Arc::new(InMemoryStore::new());
    let (server, remote) = serve(backend.clone());

    {
        let _fp = orchestra_fault::scoped("net.client.recv=err@1x1", 11);
        remote
            .publish(Epoch::new(1), vec![txn("A", 1), txn("A", 2)])
            .unwrap();
        assert_eq!(orchestra_fault::injected_total(), 1);
    }
    assert_eq!(backend.len(), 2, "the batch is archived once");
    let net = remote.net_stats();
    assert_eq!(net.transport_errors, 1, "{net:?}");
    assert_eq!(net.unavailable_mapped, 0, "{net:?}");
    server.shutdown();
}
