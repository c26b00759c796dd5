//! The lint catalog. Each lint exposes a `run` over the parsed library
//! files (plus the workspace for the doc/coverage lints) and returns
//! raw findings; the driver in `lib.rs` applies allow-annotations and
//! assembles the report.

pub mod determinism;
pub mod doc_drift;
pub mod failpoints;
pub mod lock_order;
