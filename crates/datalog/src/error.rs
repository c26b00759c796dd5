//! Errors for the mapping/chase layer.

use std::fmt;

/// Errors raised while compiling mappings or evaluating programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// A rule is not *safe*: a head (or filter) variable does not occur in
    /// any positive body atom.
    UnsafeRule { rule: String, variable: String },
    /// An atom's arity disagrees with the relation schema.
    ArityMismatch {
        relation: String,
        expected: usize,
        actual: usize,
    },
    /// A relation referenced by a rule is not declared to the engine.
    UnknownRelation(String),
    /// A tgd is malformed (empty head/body, etc.).
    InvalidTgd(String),
    /// A rule holds a Skolem term somewhere other than a head column, or
    /// one with a Skolem argument.
    MisplacedSkolem { rule: String, term: String },
    /// An error bubbled up from the relational layer.
    Relational(String),
    /// An engine was asked to run without provenance tracking, which it
    /// cannot: deletion and trust read the provenance graph.
    ProvenanceRequired,
    /// An engine was asked to evaluate on more than one thread, which it
    /// cannot: every round runs on the calling thread.
    SingleThreaded { requested: usize },
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::UnsafeRule { rule, variable } => {
                write!(
                    f,
                    "unsafe rule `{rule}`: variable `{variable}` not bound by body"
                )
            }
            DatalogError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch for `{relation}`: expected {expected}, got {actual}"
            ),
            DatalogError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            DatalogError::InvalidTgd(msg) => write!(f, "invalid tgd: {msg}"),
            DatalogError::MisplacedSkolem { rule, term } => write!(
                f,
                "rule `{rule}`: Skolem term `{term}` may only be a head column over variables and constants"
            ),
            DatalogError::Relational(msg) => write!(f, "relational error: {msg}"),
            DatalogError::ProvenanceRequired => write!(
                f,
                "provenance tracking cannot be turned off: deletion and trust read the provenance graph"
            ),
            DatalogError::SingleThreaded { requested } => write!(
                f,
                "evaluation runs on one thread: {requested} threads requested"
            ),
        }
    }
}

impl std::error::Error for DatalogError {}

impl From<orchestra_relational::RelationalError> for DatalogError {
    fn from(e: orchestra_relational::RelationalError) -> Self {
        DatalogError::Relational(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = DatalogError::UnsafeRule {
            rule: "m1".into(),
            variable: "x".into(),
        };
        assert!(e.to_string().contains("unsafe rule"));
        assert!(DatalogError::UnknownRelation("R".into())
            .to_string()
            .contains("unknown relation"));
        assert!(DatalogError::InvalidTgd("no head".into())
            .to_string()
            .contains("no head"));
        assert!(DatalogError::ProvenanceRequired
            .to_string()
            .contains("provenance"));
        assert!(DatalogError::SingleThreaded { requested: 2 }
            .to_string()
            .contains("2 threads"));
    }

    #[test]
    fn from_relational() {
        let e: DatalogError =
            orchestra_relational::RelationalError::UnknownRelation("R".into()).into();
        assert!(matches!(e, DatalogError::Relational(_)));
    }
}
