//! Database instances.
//!
//! Each CDSS peer owns one [`Instance`] over its local schema and edits it
//! freely. What it has to announce at its next publish is whatever its
//! relations' pending-edit logs hold (see [`Relation`]); there is no second
//! copy of the data to diff against.

use crate::error::RelationalError;
use crate::relation::Relation;
use crate::schema::DatabaseSchema;
use crate::tuple::Tuple;
use crate::Result;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A database instance: one [`Relation`] per relation in a [`DatabaseSchema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    schema: DatabaseSchema,
    relations: BTreeMap<Arc<str>, Relation>,
}

impl Instance {
    /// Create an empty instance of a schema.
    pub fn new(schema: DatabaseSchema) -> Self {
        let relations = schema
            .relations()
            .map(|r| (r.name_arc(), Relation::new(r.clone())))
            .collect();
        Instance { schema, relations }
    }

    /// The instance's schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// Borrow a relation.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| RelationalError::UnknownRelation(name.to_string()))
    }

    /// Mutably borrow a relation.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| RelationalError::UnknownRelation(name.to_string()))
    }

    /// Insert a tuple into a relation (strict key semantics).
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<bool> {
        self.relation_mut(relation)?.insert(tuple)
    }

    /// Insert-or-replace by key.
    pub fn upsert(&mut self, relation: &str, tuple: Tuple) -> Result<Option<Tuple>> {
        self.relation_mut(relation)?.upsert(tuple)
    }

    /// Delete an exact tuple; `Ok(true)` if it was present.
    pub fn delete(&mut self, relation: &str, tuple: &Tuple) -> Result<bool> {
        Ok(self.relation_mut(relation)?.delete(tuple))
    }

    /// Total number of tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Iterate relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// Remove all tuples from all relations (schema retained).
    pub fn clear(&mut self) {
        for r in self.relations.values_mut() {
            r.clear();
        }
    }

    /// Declare every relation's current contents published
    /// ([`Relation::mark_published`]).
    pub fn mark_published(&mut self) {
        for r in self.relations.values_mut() {
            r.mark_published();
        }
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instance of {} {{", self.schema.name())?;
        for (name, rel) in &self.relations {
            writeln!(f, "  {name} ({} tuples):", rel.len())?;
            for t in rel.iter() {
                writeln!(f, "    {t}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use crate::value::ValueType;

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new("T")
            .with_relation(
                RelationSchema::from_parts("R", &[("a", ValueType::Int), ("b", ValueType::Int)])
                    .unwrap(),
            )
            .unwrap()
            .with_relation(
                RelationSchema::from_parts_keyed(
                    "S",
                    &[("k", ValueType::Int), ("v", ValueType::Str)],
                    &["k"],
                )
                .unwrap(),
            )
            .unwrap()
    }

    #[test]
    fn empty_instance_has_all_relations() {
        let inst = Instance::new(schema());
        assert!(inst.relation("R").unwrap().is_empty());
        assert!(inst.relation("S").unwrap().is_empty());
        assert!(inst.relation("X").is_err());
        assert_eq!(inst.total_tuples(), 0);
    }

    #[test]
    fn insert_delete_roundtrip() {
        let mut inst = Instance::new(schema());
        assert!(inst.insert("R", tuple![1, 2]).unwrap());
        assert_eq!(inst.total_tuples(), 1);
        assert!(inst.delete("R", &tuple![1, 2]).unwrap());
        assert_eq!(inst.total_tuples(), 0);
    }

    #[test]
    fn upsert_by_key() {
        let mut inst = Instance::new(schema());
        inst.insert("S", tuple![1, "a"]).unwrap();
        let old = inst.upsert("S", tuple![1, "b"]).unwrap();
        assert_eq!(old, Some(tuple![1, "a"]));
        assert_eq!(
            inst.relation("S").unwrap().get_by_key(&tuple![1]),
            Some(&tuple![1, "b"])
        );
    }

    #[test]
    fn mark_published_empties_every_log() {
        let mut inst = Instance::new(schema());
        inst.insert("R", tuple![1, 1]).unwrap();
        inst.insert("S", tuple![1, "x"]).unwrap();
        inst.mark_published();
        assert!(inst.relations().all(|r| r.pending().next().is_none()));
        assert_eq!(inst.total_tuples(), 2);
    }

    #[test]
    fn clear_retains_schema() {
        let mut inst = Instance::new(schema());
        inst.insert("R", tuple![1, 1]).unwrap();
        inst.clear();
        assert_eq!(inst.total_tuples(), 0);
        assert!(inst.relation("R").is_ok());
    }

    #[test]
    fn display_renders_tuples() {
        let mut inst = Instance::new(schema());
        inst.insert("R", tuple![1, 2]).unwrap();
        let s = inst.to_string();
        assert!(s.contains("instance of T"));
        assert!(s.contains("(1, 2)"));
    }
}
