//! # orchestra-core
//!
//! The Orchestra collaborative data sharing system (CDSS) — the primary
//! contribution of Green, Karvounarakis, Taylor, Biton, Ives & Tannen,
//! *Orchestra: Facilitating Collaborative Data Sharing*, SIGMOD 2007.
//!
//! A CDSS is "a network of collaborators (participants or peers at
//! independent sites), each of which has a local database instance and may
//! be intermittently connected. Each site spends the majority of its time
//! operating in a locally autonomous mode … Upon an administrator's
//! request, the CDSS performs an update exchange" (§2). Update exchange is
//! `publish → translate → reconcile`:
//!
//! * **Publish** ([`Cdss::publish`]): a peer's pending local edits (its
//!   instance's pending-edit log) are grouped into a transaction whose
//!   antecedents are derived from the *provenance* of the tuples it
//!   modifies, and archived in the shared [update store].
//! * **Translate** (internal, [`translate`]): newly published transactions
//!   are pushed through the schema mapping program by each reconciling
//!   peer's incremental [datalog engine]; the per-transaction change sets
//!   in the peer's schema become candidate transactions, each update
//!   annotated with its origin peers (from provenance).
//! * **Reconcile** ([`Cdss::reconcile`]): candidates are filtered through
//!   the peer's [trust policy] and the greedy [reconciliation engine];
//!   accepted transactions are applied to the local instance. Same-
//!   priority conflicts are deferred until [`Cdss::resolve`].
//!
//! Each update exchange advances the system's logical clock.
//!
//! [update store]: orchestra_store::UpdateStore
//! [datalog engine]: orchestra_datalog::Engine
//! [trust policy]: orchestra_reconcile::TrustPolicy
//!
//! ## Quickstart
//!
//! ```
//! use orchestra_core::{Cdss, demo};
//! use orchestra_relational::tuple;
//! use orchestra_updates::{PeerId, Update};
//!
//! // The paper's Figure 2 network: Alaska, Beijing (Σ1), Crete, Dresden (Σ2).
//! let mut cdss = demo::figure2().unwrap();
//! let alaska = PeerId::new("Alaska");
//! let dresden = PeerId::new("Dresden");
//!
//! // Alaska inserts an organism/protein/sequence triple and publishes.
//! cdss.publish_transaction(&alaska, vec![
//!     Update::insert("O", tuple!["HIV", 1]),
//!     Update::insert("P", tuple!["gp120", 2]),
//!     Update::insert("S", tuple![1, 2, "MRVKEKYQ"]),
//! ]).unwrap();
//!
//! // Dresden reconciles: the triple is joined into its OPS table.
//! cdss.reconcile(&dresden).unwrap();
//! let ops = cdss.peer(&dresden).unwrap().instance().relation("OPS").unwrap();
//! assert!(ops.contains(&tuple!["HIV", "gp120", "MRVKEKYQ"]));
//! ```

pub mod cdss;
pub mod demo;
pub mod error;
pub mod mapping;
pub mod peer;
pub mod translate;

pub use cdss::{
    Cdss, CdssBuilder, CdssStats, ExchangeOptions, ExchangeOutcome, ReconcileReport, ResolveReport,
};
pub use error::CoreError;
pub use mapping::{identity_mappings, qualified_schema, qualify};
pub use orchestra_datalog::EvalOptions;
pub use peer::{Peer, ProgramSlice};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
