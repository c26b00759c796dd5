//! # orchestra-net
//!
//! CDSS peers across process and machine boundaries: a versioned,
//! checksummed binary wire protocol for the [`UpdateStore`] surface, a
//! [`PeerServer`] that exposes any backend over `std::net` TCP, and a
//! [`RemoteStore`] client that implements the trait over one connection.
//!
//! The paper's deployment puts published transactions "in a peer-to-peer
//! distributed database"; until now every backend in this reproduction
//! lived inside one process. This crate is the boundary crossing:
//!
//! * **Wire protocol** ([`proto`]) — length-prefixed CRC32 frames (the
//!   exact framing the durable WAL uses on disk, from
//!   [`orchestra_store::frame`]) carrying `Hello`/`Publish`/`PullPages`/
//!   `Fetch`/`Probe`, with transactions and cursors encoded by the same
//!   codec that writes them to disk. See `docs/wire-protocol.md`.
//! * **[`PeerServer`]** — a TCP listener serving a shared
//!   `Arc<dyn UpdateStore>`, one blocking thread per connection, with
//!   per-connection timeouts and graceful shutdown.
//! * **[`RemoteStore`]** — the client half: every transport failure
//!   (refused, timeout, cut, checksum) maps to
//!   [`StoreError::Unavailable`](orchestra_store::StoreError::Unavailable),
//!   which the reconcile loop already absorbs by freezing the peer's
//!   resume cursor — so a dead peer degrades an exchange instead of
//!   failing it, and the cursor picks up at the gap when the peer
//!   returns.
//!
//! ```no_run
//! use orchestra_net::{PeerServer, RemoteStore};
//! use orchestra_store::{InMemoryStore, UpdateStore};
//! use std::sync::Arc;
//!
//! // Machine A: serve the archive.
//! let server = PeerServer::bind("0.0.0.0:7654", Arc::new(InMemoryStore::new())).unwrap();
//!
//! // Machine B: reconcile against it.
//! let store = RemoteStore::connect("peer-a.example:7654").unwrap();
//! let n = store.len(); // one Probe round trip
//! # let _ = (server, n);
//! ```
//!
//! [`UpdateStore`]: orchestra_store::UpdateStore

pub mod client;
pub mod proto;
pub mod server;

pub use client::{NetStats, RemoteOptions, RemoteStore};
pub use proto::{PullPage, Request, Response, ServerCounters, MAGIC, PROTOCOL_VERSION};
pub use server::{PeerServer, ServerOptions, ServerStats};

/// Crate-wide result alias (network operations surface store errors).
pub type Result<T> = std::result::Result<T, orchestra_store::StoreError>;
