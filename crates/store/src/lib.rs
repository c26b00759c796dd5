//! # orchestra-store
//!
//! The distributed archive of published transactions.
//!
//! In the paper (Figure 1) "the published transactions are stored in a
//! peer-to-peer distributed database, though one can also use other methods
//! to store the published updates". The store's contract is what matters to
//! the CDSS:
//!
//! 1. **Archival**: published transactions are retained so that peers that
//!    reconcile later — possibly after the publisher went offline — can
//!    still retrieve them (demonstration scenario 5: "Beijing publishes a
//!    number of updates and then goes offline. Alaska can reconcile and
//!    still retrieve Beijing's updates from the CDSS").
//! 2. **Epoch indexing**: a reconciling peer asks for "everything published
//!    since my last reconciliation epoch".
//! 3. **Bounded, partial-progress reads**: [`UpdateStore::fetch_page`]
//!    walks the archive in `(epoch, txn id)` order through a resumable
//!    [`FetchCursor`], materializing at most one page at a time, and
//!    reports unreachable payloads in [`FetchPage::unavailable`] instead
//!    of failing the scan — one dead replica never blocks the rest of the
//!    history. [`pages`] iterates those pages for callers that want the
//!    whole range since a cursor; there is no one-shot fetch.
//!
//! Three implementations of the [`UpdateStore`] trait. All three share
//! one archive index — the `(epoch, txn id)` order, the payloads by id,
//! the publish checks, the page walk and the digest — and differ only in
//! where a payload lives:
//!
//! * [`InMemoryStore`] — a centralized archive (the "other methods" case);
//!   also the reference implementation for tests.
//! * [`ReplicatedStore`] — a **simulated DHT**: `N` virtual storage nodes
//!   on a consistent-hash ring, each transaction replicated on the first
//!   `R` alive nodes clockwise from its hash point; nodes can be taken
//!   down/up to model churn. No real networking is involved — the paper's
//!   deployment detail we substitute per DESIGN.md — but the observable
//!   behaviour (availability under churn as a function of replication
//!   factor, probe counts) is preserved for experiment E8.
//! * [`DurableStore`] — a **crash-recoverable archive on local disk**:
//!   checksummed frames on a write-ahead log with size-based segment
//!   rotation and torn-tail recovery; open decodes every batch, and reads
//!   are served from those payloads, never from disk. The backend that
//!   lets peers restart without losing the archive (see [`durable`]).

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::undocumented_unsafe_blocks,
    )
)]

pub mod api;
mod archive;
pub mod durable;
pub mod frame;
pub mod memory;
pub mod replicated;

pub use api::{
    pages, AbsorbReport, CursorBound, FetchCursor, FetchPage, Pages, RelationDigest, StoreDigest,
    StoreError, StoreStats, UpdateStore, DEFAULT_PAGE_LIMIT,
};
pub use durable::{DurableOptions, DurableStats, DurableStore, ScrubReport, SyncPolicy};
pub use memory::InMemoryStore;
pub use replicated::ReplicatedStore;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
