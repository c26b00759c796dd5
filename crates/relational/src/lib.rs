//! # orchestra-relational
//!
//! The in-memory relational storage substrate underneath the Orchestra CDSS.
//!
//! The original Orchestra prototype (SIGMOD 2007 demonstration) ran its update
//! exchange programs over a commercial RDBMS. This crate replaces that backend
//! with a self-contained, deterministic, laptop-scale engine providing exactly
//! the pieces the CDSS layers need:
//!
//! * [`Value`] — a typed value domain including **labeled nulls** (Skolem
//!   values), which the mapping layer invents for existentially quantified
//!   variables in tuple-generating dependencies (e.g. `MC→A` in the paper's
//!   Figure 2 must invent `oid`/`pid` identifiers when splitting `OPS` back
//!   into `O`, `P`, `S`).
//! * [`Tuple`] — an immutable, cheaply clonable row.
//! * [`RelationSchema`] / [`DatabaseSchema`] — named, typed relation
//!   signatures with declared keys (keys drive update semantics and conflict
//!   detection in reconciliation).
//! * [`Relation`] — a keyed tuple store that logs, per key, the edits made
//!   since it was last published.
//! * [`Instance`] — a database instance (one per peer); `publish` reads
//!   its relations' pending-edit logs.
//! * [`Predicate`] — column-versus-literal comparisons and their boolean
//!   combinations over tuples; trust conditions in the reconciliation layer
//!   are built from these.
//! * [`ValueInterner`] / [`Sym`] / [`SymTuple`] — dense `u32` symbols for
//!   values, the representation the datalog engine's join pipeline runs on
//!   (integer equality/hashing, fixed-width index keys).
//! * [`SymRel`] — one relation's sequence-ordered, position-addressed
//!   table of `(tuple, payload)` entries with its `[Sym]` probe indexes,
//!   the storage the datalog engine runs on (membership lives in the
//!   engine's node table, not here).
//! * [`FxHashMap`] / [`FxHashSet`] ([`fxhash`]) — maps hashed with a
//!   seedless word hasher, for keys the engine assigns itself.
//!
//! Instances have no file format of their own. What persists is the
//! archive of published transactions, in `orchestra-store`'s binary
//! codec; a peer's instance is rebuilt from it.

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

pub mod error;
pub mod fxhash;
pub mod instance;
pub mod intern;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod symrel;
pub mod tuple;
pub mod value;

pub use error::RelationalError;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use instance::Instance;
pub use intern::{InternerStats, Sym, SymTuple, ValueInterner};
pub use predicate::{CmpOp, Predicate};
pub use relation::Relation;
pub use schema::{ColumnDef, DatabaseSchema, RelationSchema};
pub use symrel::SymRel;
pub use tuple::Tuple;
pub use value::{SkolemValue, Value, ValueType};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RelationalError>;
