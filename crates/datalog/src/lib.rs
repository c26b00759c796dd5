//! # orchestra-datalog
//!
//! The mapping and chase engine of the Orchestra CDSS: schema mappings
//! (tuple-generating dependencies) are compiled to datalog rules with Skolem
//! functions and evaluated by a semi-naive fixpoint engine that maintains a
//! **provenance graph** alongside the data — the formulation of Green,
//! Karvounarakis, Ives & Tannen, *Update exchange with mappings and
//! provenance* (the Orchestra paper's reference \[5\]).
//!
//! ## Why a provenance graph rather than polynomials directly?
//!
//! CDSS mapping programs are recursive (the paper's Figure 2 has identity
//! mappings `MA↔B`, `MC↔D` in both directions), so unfolded provenance
//! polynomials are infinite formal power series. Orchestra instead stores
//! one *derivation* record per rule firing — `(rule, body tuples) → head
//! tuple` — which is finite, supports well-founded derivability testing for
//! deletion propagation, and unfolds on demand into N\[X\] polynomials over
//! simple proofs ([`ProvGraph::polynomial`]).
//!
//! ## Layout
//!
//! * [`ast`] — terms, atoms, rules, filters; rules may carry Skolem terms
//!   in their heads.
//! * [`tgd`] — tuple-generating dependencies and their compilation to
//!   rules (skolemizing existential head variables).
//! * [`node`] — interning of `(relation, tuple)` pairs into dense node ids.
//! * [`provgraph`] — the derivation graph in flat, index-addressed
//!   arrays, polynomial extraction and lineage.
//! * [`engine`] — the semi-naive fixpoint engine: its state, its API and
//!   the round driver, with incremental insert propagation,
//!   provenance-based deletion propagation and a change log for update
//!   translation. Its parts:
//!   * `compile` — rule compilation and join plans, fixed once the
//!     engine is built;
//!   * `join` — one semi-naive round: the plan interpreter that records
//!     each rule firing where it finds it;
//!   * `delete` — provenance-based deletion.

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

pub mod ast;
mod compile;
mod delete;
pub mod engine;
pub mod error;
mod join;
pub mod node;
pub mod provgraph;
pub mod tgd;

pub use ast::{Atom, Filter, Rule, RuleId, Term};
pub use engine::{Change, ChangeKind, DeletionAlgorithm, Engine, EngineStats, EvalOptions};
pub use error::DatalogError;
pub use node::{NodeId, NodeTable, RelId};
pub use provgraph::{Derivation, ProvGraph};
pub use tgd::Tgd;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DatalogError>;
