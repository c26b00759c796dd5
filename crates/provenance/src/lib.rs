//! # orchestra-provenance
//!
//! Semiring provenance for the Orchestra CDSS, after Green, Karvounarakis &
//! Tannen, *Provenance Semirings* (PODS 2007) — reference \[6\] of the SIGMOD
//! 2007 Orchestra demonstration paper.
//!
//! A tuple that update exchange derives through schema mappings has a
//! **provenance polynomial** in N\[X\]: variables are base-tuple tokens,
//! multiplication records joint use in a join, addition records
//! alternative derivations, and coefficients/exponents count
//! multiplicities. N\[X\] is the *most general* annotation: any evaluation
//! in a commutative semiring factors through it (the fundamental property
//! this crate tests as `eval_commutes_with_plus_and_times`).
//!
//! The polynomial is the queryable view of a tuple's provenance behind
//! `Peer::provenance` (extracted from `orchestra-datalog`'s provenance
//! graph on request). The CDSS's own uses of provenance do not evaluate
//! it: trust reads the origins of a tuple's canonical proof
//! (`ProvGraph::first_proof_lineage`), and deletion propagation walks the
//! graph's derivation marks. Evaluating the polynomial under [`Boolean`]
//! with some tokens mapped to `false` answers the same derivability
//! question deletion does, which is how the tests check one against the
//! other.

mod monomial;
mod polynomial;
mod semiring;

pub use monomial::Monomial;
pub use polynomial::Polynomial;
pub use semiring::{Boolean, Semiring};
