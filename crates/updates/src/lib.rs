//! # orchestra-updates
//!
//! The update and transaction model of the Orchestra CDSS.
//!
//! Section 2 of the paper makes two modeling commitments that distinguish a
//! CDSS from classical data integration/exchange:
//!
//! 1. **Transactions are the unit of propagation.** Information about one
//!    real-world entity spans tuples in several relations; transactional
//!    atomicity must survive translation and reconciliation, so updates stay
//!    grouped in [`Transaction`]s end to end.
//! 2. **Data dependencies between transactions induce a dependency graph**
//!    that reconciliation must respect: a transaction that modifies a tuple
//!    inserted by an *antecedent* transaction can only be accepted if the
//!    antecedent is, and must be rejected/deferred if the antecedent is.
//!    Transactions carry their antecedent sets; the graph itself lives in
//!    the reconciler (`orchestra-reconcile`), the one component that walks
//!    it.
//!
//! This crate provides:
//!
//! * [`Update`] — tuple-level insert / delete / modify, keyed by the
//!   relation's declared key,
//! * [`Transaction`] / [`TxnId`] — grouped updates with explicit antecedent
//!   sets and origin peer, and a transaction's write set
//!   ([`Transaction::write_set`]) for conflict detection,
//! * [`Epoch`] / [`LogicalClock`] — the logical clock advanced by each
//!   update exchange.

pub mod clock;
pub mod error;
pub mod txn;
pub mod update;

pub use clock::{Epoch, LogicalClock};
pub use error::UpdateError;
pub use txn::{PeerId, Transaction, TxnId, WriteKey};
pub use update::{Update, WriteOutcome};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, UpdateError>;
