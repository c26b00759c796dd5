//! # orchestra-provenance
//!
//! Semiring provenance for the Orchestra CDSS, after Green, Karvounarakis &
//! Tannen, *Provenance Semirings* (PODS 2007) — reference \[6\] of the SIGMOD
//! 2007 Orchestra demonstration paper.
//!
//! Orchestra's update exchange annotates every tuple it derives through a
//! schema mapping with a **provenance polynomial** in N\[X\]: variables are
//! base-tuple tokens, multiplication records joint use in a join, addition
//! records alternative derivations, and coefficients/exponents count
//! multiplicities. N\[X\] is the *most general* annotation: any evaluation in
//! a commutative semiring factors through it (the fundamental property this
//! crate tests as `eval_commutes_with_plus/times`).
//!
//! The CDSS needs this generality for two reasons the paper calls out:
//!
//! 1. **Trust**: a peer's trust conditions map each base token to
//!    `true`/`false` (or to a cost); evaluating the polynomial under the
//!    [`Boolean`] (or [`Tropical`])
//!    semiring decides whether a translated update is trusted — without
//!    re-running the mappings.
//! 2. **Incremental maintenance**: when base tuples are deleted, evaluating
//!    each derived tuple's polynomial with the deleted tokens set to 0
//!    decides derivability — the provenance-based deletion propagation
//!    `orchestra-datalog` runs.
//!
//! Besides N\[X\] ([`Polynomial`]) the crate ships the coarser models of the
//! provenance hierarchy — `B[X]` (drop coefficients), `Trio(X)` (drop
//! exponents), [`Why`] (witness sets), and [`lineage`](Polynomial::lineage)
//! — together with the concrete semirings used by the experiments.

pub mod monomial;
pub mod polynomial;
pub mod semiring;
pub mod why;

pub use monomial::Monomial;
pub use polynomial::Polynomial;
pub use semiring::{Boolean, Counting, Fuzzy, Security, Semiring, Tropical};
pub use why::{PosBool, Why};
