//! The server's send failpoint, alone in its own test process: failpoint
//! scopes are process-wide, so an armed `net.server.send` would also cut
//! the responses of any test running alongside.

use orchestra_net::{PeerServer, RemoteOptions, RemoteStore};
use orchestra_relational::tuple;
use orchestra_store::{InMemoryStore, UpdateStore};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A response cut in half reaches the client as a torn frame, the client
/// retries on a fresh connection, the server counts both attempts, and
/// shutdown stays prompt.
#[test]
fn server_send_cut_is_retried_through() {
    let backend = Arc::new(InMemoryStore::new());
    let id = TxnId::new(PeerId::new("A"), 1);
    backend
        .publish(
            Epoch::new(1),
            vec![Transaction::new(
                id.clone(),
                Epoch::zero(),
                vec![Update::insert("R", tuple![1, 0])],
            )],
        )
        .unwrap();
    let server = PeerServer::bind("127.0.0.1:0", backend).unwrap();
    let opts = RemoteOptions {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        retries: 1,
    };
    let remote = RemoteStore::connect_with(server.local_addr(), opts).unwrap();

    {
        let _fp = orchestra_fault::scoped("net.server.send=cut@1x1", 7);
        assert!(remote.fetch(&id).unwrap().is_some());
        assert_eq!(orchestra_fault::injected_total(), 1);
    }
    assert_eq!(server.stats().requests, 2, "{:?}", server.stats());
    assert!(remote.net_stats().transport_errors >= 1);

    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}
