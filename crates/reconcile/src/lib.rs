//! # orchestra-reconcile
//!
//! The reconciliation engine of the Orchestra CDSS, implementing the
//! algorithm of Taylor & Ives, *Reconciling while tolerating disagreement
//! in collaborative data sharing* (SIGMOD 2006) — the paper's reference
//! \[11\] — as summarized in §3 of the demonstration paper:
//!
//! 1. Update translation produces **candidate transactions** that may be
//!    mutually incompatible, inapplicable (rejected/missing antecedents),
//!    or untrusted.
//! 2. Candidates are combined with the antecedent transactions needed to
//!    apply them into **applicable transaction groups**.
//! 3. **Trust conditions** — predicates over the contents and provenance
//!    of updates — assign numeric priorities to applicable groups.
//! 4. A **greedy algorithm** accepts the highest-priority mutually
//!    consistent set; same-priority conflicting transactions are
//!    **deferred** for the administrator, and transactions that modify
//!    data from deferred transactions are deferred transitively.
//! 5. The administrator later **resolves** a deferred conflict by choosing
//!    a winner: deferred transactions transitively depending on the winner
//!    are applied automatically, and those depending on the loser are
//!    rejected.
//!
//! The engine is deliberately independent of the mapping layer: it
//! consumes [`Candidate`]s (translated transactions plus per-update origin
//! provenance) and produces apply-ready decisions, so it can be tested and
//! measured in isolation (`tests/bounded_walks.rs` checks it against a
//! whole-closure reference, `tests/reconcile_cost.rs` prints its cost).
//!
//! **What a [`Reconciler`] keeps.** Every transaction it sees gets a dense
//! id; per transaction it then keeps the id, its dependency edges and a
//! few bytes of decision state (decision, *settled* mark), for as long as
//! it lives — antecedent checks and `decision` ask about any transaction
//! ever seen, and the history check walks settled antecedent edges. A
//! candidate's transaction and write set are kept only while it is open
//! work: undecided (distrusted ones included) or deferred. Accepting it
//! moves the transaction into the [`ReconcileOutcome`] and its writes into
//! the accepted-write history, which holds one entry per written key;
//! rejecting it drops both.

pub mod candidate;
mod depgraph;
pub mod engine;
pub mod error;
pub mod state;
pub mod trust;

pub use candidate::{Candidate, CandidateUpdate};
pub use engine::{ReconcileOutcome, Reconciler, ResolveOutcome};
pub use error::ReconcileError;
pub use state::Decision;
pub use trust::{TrustCondition, TrustPolicy};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ReconcileError>;

/// Priority level assigned by trust policies. Zero means *distrusted*: the
/// transaction is never applied on its own (it can still be pulled in as
/// the antecedent of a trusted transaction — demonstration scenario 3).
pub type Priority = u32;

/// The priority meaning "distrusted".
pub const DISTRUSTED: Priority = 0;
