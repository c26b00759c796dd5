//! Tuple-level updates.

use crate::error::UpdateError;
use crate::Result;
use orchestra_relational::{Instance, RelationSchema, Tuple};
use std::fmt;
use std::sync::Arc;

/// A single tuple-level update against one relation.
///
/// `Modify` is first-class (not sugar for delete+insert) because the CDSS
/// dependency semantics care: modifying a tuple *depends on* the
/// transaction that produced the tuple's current version, whereas an
/// insert of a fresh key does not.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Update {
    /// Insert a new tuple.
    Insert {
        /// Target relation name.
        relation: Arc<str>,
        /// The inserted tuple.
        tuple: Tuple,
    },
    /// Delete an existing tuple (exact version).
    Delete {
        /// Target relation name.
        relation: Arc<str>,
        /// The deleted tuple (the version being removed).
        tuple: Tuple,
    },
    /// Replace the tuple with key `key(old)` by `new` (same key).
    Modify {
        /// Target relation name.
        relation: Arc<str>,
        /// The prior version.
        old: Tuple,
        /// The new version; must agree with `old` on the key columns.
        new: Tuple,
    },
}

/// The net effect of a transaction on one key: the final tuple version, or
/// deletion. Used for conflict detection between transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The key ends up holding this tuple.
    Present(Tuple),
    /// The key ends up absent.
    Absent,
}

impl Update {
    /// Insert constructor.
    pub fn insert(relation: impl Into<Arc<str>>, tuple: Tuple) -> Update {
        Update::Insert {
            relation: relation.into(),
            tuple,
        }
    }

    /// Delete constructor.
    pub fn delete(relation: impl Into<Arc<str>>, tuple: Tuple) -> Update {
        Update::Delete {
            relation: relation.into(),
            tuple,
        }
    }

    /// Modify constructor.
    pub fn modify(relation: impl Into<Arc<str>>, old: Tuple, new: Tuple) -> Update {
        Update::Modify {
            relation: relation.into(),
            old,
            new,
        }
    }

    /// The relation this update targets.
    pub fn relation(&self) -> &Arc<str> {
        match self {
            Update::Insert { relation, .. }
            | Update::Delete { relation, .. }
            | Update::Modify { relation, .. } => relation,
        }
    }

    /// The tuple version this update *reads* (the one it depends on):
    /// `Delete`/`Modify` read the old version; `Insert` reads nothing.
    pub fn read_version(&self) -> Option<&Tuple> {
        match self {
            Update::Insert { .. } => None,
            Update::Delete { tuple, .. } => Some(tuple),
            Update::Modify { old, .. } => Some(old),
        }
    }

    /// The tuple version this update *writes*: `Insert`/`Modify` write the
    /// new version; `Delete` writes nothing.
    pub fn written_version(&self) -> Option<&Tuple> {
        match self {
            Update::Insert { tuple, .. } => Some(tuple),
            Update::Delete { .. } => None,
            Update::Modify { new, .. } => Some(new),
        }
    }

    /// The key this update writes, given the relation's schema.
    pub fn key(&self, schema: &RelationSchema) -> Tuple {
        match self {
            Update::Insert { tuple, .. } => schema.key_of(tuple),
            Update::Delete { tuple, .. } => schema.key_of(tuple),
            Update::Modify { old, .. } => schema.key_of(old),
        }
    }

    /// The outcome this update leaves at its key.
    pub fn outcome(&self) -> WriteOutcome {
        match self {
            Update::Insert { tuple, .. } => WriteOutcome::Present(tuple.clone()),
            Update::Delete { .. } => WriteOutcome::Absent,
            Update::Modify { new, .. } => WriteOutcome::Present(new.clone()),
        }
    }

    /// Validate against the relation schema: tuple shapes, and for `Modify`
    /// that the key is unchanged.
    pub fn validate(&self, schema: &RelationSchema) -> Result<()> {
        match self {
            Update::Insert { tuple, .. } | Update::Delete { tuple, .. } => {
                schema.validate(tuple)?;
            }
            Update::Modify { relation, old, new } => {
                schema.validate(old)?;
                schema.validate(new)?;
                if schema.key_of(old) != schema.key_of(new) {
                    return Err(UpdateError::KeyChangedInModify {
                        relation: relation.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The inverse update (used to roll back and for compensation).
    pub fn inverted(&self) -> Update {
        match self {
            Update::Insert { relation, tuple } => Update::Delete {
                relation: Arc::clone(relation),
                tuple: tuple.clone(),
            },
            Update::Delete { relation, tuple } => Update::Insert {
                relation: Arc::clone(relation),
                tuple: tuple.clone(),
            },
            Update::Modify { relation, old, new } => Update::Modify {
                relation: Arc::clone(relation),
                old: new.clone(),
                new: old.clone(),
            },
        }
    }

    /// Apply this update to an instance as a **local edit**: it stays in
    /// the instance's pending-edit log until the next publish.
    ///
    /// Application is *lenient about versions* but strict about presence:
    /// inserting over an existing different version upserts (last-writer
    /// wins — reconciliation has already decided this update should apply);
    /// deleting a missing tuple is a no-op; modifying a missing key inserts
    /// the new version (the antecedent insert may have been translated into
    /// this same reconciliation batch).
    pub fn apply(&self, instance: &mut Instance) -> Result<()> {
        let rel = instance.relation_mut(self.relation())?;
        match self {
            Update::Insert { tuple, .. } | Update::Modify { new: tuple, .. } => {
                rel.upsert(tuple.clone())?;
            }
            Update::Delete { tuple, .. } => {
                rel.delete(tuple);
            }
        }
        Ok(())
    }

    /// Apply this update, with [`apply`](Update::apply)'s leniency, as one
    /// that is **already public** — an accepted transaction from the
    /// archive. It changes the instance's current and published state
    /// alike, so it never shows up in the pending-edit log, and a pending
    /// local edit on a key it overwrites is superseded.
    pub fn apply_published(&self, instance: &mut Instance) -> Result<()> {
        let rel = instance.relation_mut(self.relation())?;
        match self {
            Update::Insert { tuple, .. } | Update::Modify { new: tuple, .. } => {
                rel.upsert_published(tuple.clone())?;
            }
            Update::Delete { tuple, .. } => rel.delete_published(tuple),
        }
        Ok(())
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Update::Insert { relation, tuple } => write!(f, "+{relation}{tuple}"),
            Update::Delete { relation, tuple } => write!(f, "-{relation}{tuple}"),
            Update::Modify { relation, old, new } => {
                write!(f, "~{relation}{old}→{new}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::{tuple, DatabaseSchema, ValueType};

    fn schema() -> RelationSchema {
        RelationSchema::from_parts_keyed(
            "S",
            &[("k", ValueType::Int), ("v", ValueType::Str)],
            &["k"],
        )
        .unwrap()
    }

    fn db() -> DatabaseSchema {
        DatabaseSchema::new("T").with_relation(schema()).unwrap()
    }

    #[test]
    fn accessors() {
        let u = Update::insert("S", tuple![1, "a"]);
        assert_eq!(&**u.relation(), "S");
        assert_eq!(u.read_version(), None);
        assert_eq!(u.written_version(), Some(&tuple![1, "a"]));
        let d = Update::delete("S", tuple![1, "a"]);
        assert_eq!(d.read_version(), Some(&tuple![1, "a"]));
        assert_eq!(d.written_version(), None);
        let m = Update::modify("S", tuple![1, "a"], tuple![1, "b"]);
        assert_eq!(m.read_version(), Some(&tuple![1, "a"]));
        assert_eq!(m.written_version(), Some(&tuple![1, "b"]));
    }

    #[test]
    fn keys_and_outcomes() {
        let s = schema();
        let m = Update::modify("S", tuple![1, "a"], tuple![1, "b"]);
        assert_eq!(m.key(&s), tuple![1]);
        assert_eq!(m.outcome(), WriteOutcome::Present(tuple![1, "b"]));
        let d = Update::delete("S", tuple![1, "a"]);
        assert_eq!(d.outcome(), WriteOutcome::Absent);
        assert_eq!(
            Update::insert("S", tuple![2, "x"]).outcome(),
            WriteOutcome::Present(tuple![2, "x"])
        );
    }

    #[test]
    fn validate_modify_key_change_rejected() {
        let s = schema();
        let bad = Update::modify("S", tuple![1, "a"], tuple![2, "a"]);
        assert!(matches!(
            bad.validate(&s),
            Err(UpdateError::KeyChangedInModify { .. })
        ));
        let good = Update::modify("S", tuple![1, "a"], tuple![1, "b"]);
        assert!(good.validate(&s).is_ok());
    }

    #[test]
    fn validate_checks_tuple_shape() {
        let s = schema();
        assert!(Update::insert("S", tuple![1]).validate(&s).is_err());
        assert!(Update::delete("S", tuple!["x", "y"]).validate(&s).is_err());
    }

    #[test]
    fn inversion_roundtrips() {
        let u = Update::modify("S", tuple![1, "a"], tuple![1, "b"]);
        assert_eq!(u.inverted().inverted(), u);
        assert_eq!(
            Update::insert("S", tuple![1, "a"]).inverted(),
            Update::delete("S", tuple![1, "a"])
        );
    }

    #[test]
    fn apply_insert_delete_modify() {
        let mut inst = Instance::new(db());
        Update::insert("S", tuple![1, "a"])
            .apply(&mut inst)
            .unwrap();
        assert!(inst.relation("S").unwrap().contains(&tuple![1, "a"]));
        Update::modify("S", tuple![1, "a"], tuple![1, "b"])
            .apply(&mut inst)
            .unwrap();
        assert!(inst.relation("S").unwrap().contains(&tuple![1, "b"]));
        Update::delete("S", tuple![1, "b"])
            .apply(&mut inst)
            .unwrap();
        assert!(inst.relation("S").unwrap().is_empty());
    }

    #[test]
    fn apply_is_lenient_about_missing_targets() {
        let mut inst = Instance::new(db());
        // Delete of absent tuple: no-op.
        Update::delete("S", tuple![1, "a"])
            .apply(&mut inst)
            .unwrap();
        // Modify of absent key: materializes new version.
        Update::modify("S", tuple![2, "a"], tuple![2, "b"])
            .apply(&mut inst)
            .unwrap();
        assert!(inst.relation("S").unwrap().contains(&tuple![2, "b"]));
        // Insert over a different version: upsert wins.
        Update::insert("S", tuple![2, "c"])
            .apply(&mut inst)
            .unwrap();
        assert!(inst.relation("S").unwrap().contains(&tuple![2, "c"]));
    }

    #[test]
    fn apply_logs_a_pending_edit_and_apply_published_does_not() {
        let pending = |inst: &Instance| inst.relation("S").unwrap().pending().count();
        let mut inst = Instance::new(db());
        Update::insert("S", tuple![1, "a"])
            .apply(&mut inst)
            .unwrap();
        assert_eq!(pending(&inst), 1);
        // The public version of the same key supersedes the local edit.
        Update::insert("S", tuple![1, "b"])
            .apply_published(&mut inst)
            .unwrap();
        assert!(inst.relation("S").unwrap().contains(&tuple![1, "b"]));
        assert_eq!(pending(&inst), 0);
        Update::modify("S", tuple![1, "b"], tuple![1, "c"])
            .apply_published(&mut inst)
            .unwrap();
        Update::delete("S", tuple![1, "c"])
            .apply_published(&mut inst)
            .unwrap();
        assert!(inst.relation("S").unwrap().is_empty());
        assert_eq!(pending(&inst), 0);
        assert!(Update::insert("X", tuple![1])
            .apply_published(&mut inst)
            .is_err());
    }

    #[test]
    fn display() {
        assert_eq!(
            Update::insert("S", tuple![1, "a"]).to_string(),
            "+S(1, 'a')"
        );
        assert_eq!(
            Update::delete("S", tuple![1, "a"]).to_string(),
            "-S(1, 'a')"
        );
        assert_eq!(
            Update::modify("S", tuple![1, "a"], tuple![1, "b"]).to_string(),
            "~S(1, 'a')→(1, 'b')"
        );
    }
}
