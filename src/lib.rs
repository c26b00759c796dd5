//! # orchestra-suite
//!
//! Workspace umbrella for the Orchestra CDSS reproduction: re-exports the
//! member crates and hosts the cross-crate integration tests (`tests/`)
//! and runnable examples (`examples/`).
//!
//! See the individual crates for the system layers:
//!
//! * [`orchestra_relational`] — storage substrate
//! * [`orchestra_provenance`] — semiring provenance
//! * [`orchestra_datalog`] — mapping/chase engine
//! * [`orchestra_updates`] — updates, transactions, dependency graphs
//! * [`orchestra_store`] — the (simulated) P2P update archive
//! * [`orchestra_net`] — wire protocol + peer server/client
//! * [`orchestra_mesh`] — epidemic anti-entropy across mesh nodes
//! * [`orchestra_reconcile`] — trust + reconciliation
//! * [`orchestra_core`] — the CDSS itself

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

pub use orchestra_core as core;
pub use orchestra_datalog as datalog;
pub use orchestra_mesh as mesh;
pub use orchestra_net as net;
pub use orchestra_provenance as provenance;
pub use orchestra_reconcile as reconcile;
pub use orchestra_relational as relational;
pub use orchestra_store as store;
pub use orchestra_updates as updates;
