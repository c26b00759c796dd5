//! Errors for the update/transaction layer.

use std::fmt;

/// Errors raised while constructing or applying updates and transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// A `Modify` whose old and new tuples disagree on the key columns —
    /// key changes must be expressed as delete + insert.
    KeyChangedInModify { relation: String },
    /// The update refers to a relation absent from the schema.
    UnknownRelation(String),
    /// Applying an update failed at the storage layer.
    Storage(String),
    /// A transaction was declared with a duplicate id.
    DuplicateTxn(String),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::KeyChangedInModify { relation } => write!(
                f,
                "modify in `{relation}` changes key columns; use delete+insert"
            ),
            UpdateError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            UpdateError::Storage(msg) => write!(f, "storage error: {msg}"),
            UpdateError::DuplicateTxn(id) => write!(f, "duplicate transaction `{id}`"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<orchestra_relational::RelationalError> for UpdateError {
    fn from(e: orchestra_relational::RelationalError) -> Self {
        UpdateError::Storage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(UpdateError::KeyChangedInModify {
            relation: "R".into()
        }
        .to_string()
        .contains("changes key columns"));
        assert!(UpdateError::UnknownRelation("R".into())
            .to_string()
            .contains("unknown relation"));
        assert!(UpdateError::DuplicateTxn("t".into())
            .to_string()
            .contains("duplicate"));
    }

    #[test]
    fn converts_relational_errors() {
        let e: UpdateError =
            orchestra_relational::RelationalError::UnknownRelation("R".into()).into();
        assert!(matches!(e, UpdateError::Storage(_)));
    }
}
