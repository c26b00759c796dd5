//! Keyed relation storage.

use crate::error::RelationalError;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::Result;
use std::collections::BTreeMap;

/// One stored relation: a set of tuples keyed by the schema's key columns.
///
/// * Tuples are stored in a `BTreeMap` keyed by the key projection, giving
///   deterministic iteration order everywhere (tests, examples, and
///   experiment output never depend on hash seeds).
/// * Every edit is recorded in a **pending-edit log**: per key touched
///   since it was last [marked published](Relation::mark_key_published),
///   the tuple that key held then (or `None`). A key whose current tuple is
///   back to that pre-image is dropped from the log, so the log is exactly
///   the set of keys on which the relation differs from its published
///   state — what a peer has to announce at its next publish. The
///   `*_published` mutators change both states at once and are how the
///   system applies updates that are already public.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    tuples: BTreeMap<Tuple, Tuple>,
    /// Key → the tuple it held when last published; never equal to the
    /// current tuple at that key.
    pending: BTreeMap<Tuple, Option<Tuple>>,
}

impl Relation {
    /// Create an empty relation for the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            tuples: BTreeMap::new(),
            pending: BTreeMap::new(),
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterate over tuples in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.values()
    }

    /// True iff the exact tuple is present.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples
            .get(&self.schema.key_of(tuple))
            .is_some_and(|t| t == tuple)
    }

    /// True iff some tuple with the given key projection is present.
    pub fn contains_key(&self, key: &Tuple) -> bool {
        self.tuples.contains_key(key)
    }

    /// The tuple with the given key projection, if any.
    pub fn get_by_key(&self, key: &Tuple) -> Option<&Tuple> {
        self.tuples.get(key)
    }

    /// Insert a tuple.
    ///
    /// * Errors with [`RelationalError::KeyConflict`] if a **different**
    ///   tuple with the same key exists.
    /// * Returns `Ok(false)` if the identical tuple was already present
    ///   (idempotent re-insert), `Ok(true)` if newly inserted.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.schema.validate(&tuple)?;
        let key = self.schema.key_of(&tuple);
        match self.tuples.get(&key) {
            Some(existing) if *existing == tuple => Ok(false),
            Some(_) => Err(RelationalError::KeyConflict {
                relation: self.schema.name().to_string(),
                key: key.to_string(),
            }),
            None => {
                self.tuples.insert(key.clone(), tuple);
                self.log_edit(key, None);
                Ok(true)
            }
        }
    }

    /// Insert, replacing any existing tuple with the same key. Returns the
    /// replaced tuple, if any.
    pub fn upsert(&mut self, tuple: Tuple) -> Result<Option<Tuple>> {
        self.schema.validate(&tuple)?;
        let key = self.schema.key_of(&tuple);
        let old = self.tuples.insert(key.clone(), tuple);
        self.log_edit(key, old.as_ref());
        Ok(old)
    }

    /// Delete the exact tuple. Returns `true` if it was present. A tuple
    /// with the same key but different non-key values is **not** deleted
    /// (the caller is operating on a stale version — surfacing that matters
    /// for update-translation correctness).
    pub fn delete(&mut self, tuple: &Tuple) -> bool {
        let key = self.schema.key_of(tuple);
        if self.tuples.get(&key) == Some(tuple) {
            self.tuples.remove(&key);
            self.log_edit(key, Some(tuple));
            true
        } else {
            false
        }
    }

    /// Delete whatever tuple has the given key projection. Returns it.
    pub fn delete_by_key(&mut self, key: &Tuple) -> Option<Tuple> {
        let old = self.tuples.remove(key);
        if old.is_some() {
            self.log_edit(key.clone(), old.as_ref());
        }
        old
    }

    /// Remove all tuples.
    pub fn clear(&mut self) {
        for (key, old) in std::mem::take(&mut self.tuples) {
            self.log_edit(key, Some(&old));
        }
    }

    /// Record that `key` held `before` until the edit that just changed
    /// it: the first edit since the last publish keeps `before` as the
    /// key's pre-image, and an edit that restores the pre-image drops the
    /// entry again.
    fn log_edit(&mut self, key: Tuple, before: Option<&Tuple>) {
        use std::collections::btree_map::Entry;
        let now = self.tuples.get(&key);
        match self.pending.entry(key) {
            Entry::Vacant(e) => {
                if now != before {
                    e.insert(before.cloned());
                }
            }
            Entry::Occupied(e) => {
                if e.get().as_ref() == now {
                    e.remove();
                }
            }
        }
    }

    /// The pending-edit log in key order: `(published tuple, current
    /// tuple)` for every key on which the two differ.
    pub fn pending(&self) -> impl Iterator<Item = (Option<&Tuple>, Option<&Tuple>)> {
        self.pending
            .iter()
            .map(|(key, pre)| (pre.as_ref(), self.tuples.get(key)))
    }

    /// Declare the tuple the key projection `key` holds now published
    /// (or its absence): the key leaves the log, and every other key's
    /// entry stays.
    pub fn mark_key_published(&mut self, key: &Tuple) {
        self.pending.remove(key);
    }

    /// [`upsert`](Relation::upsert) into the current **and** the published
    /// state, which leaves the key not pending whatever edit it carried.
    pub fn upsert_published(&mut self, tuple: Tuple) -> Result<()> {
        self.schema.validate(&tuple)?;
        let key = self.schema.key_of(&tuple);
        self.pending.remove(&key);
        self.tuples.insert(key, tuple);
        Ok(())
    }

    /// [`delete`](Relation::delete) from the current **and** the published
    /// state, each only where it holds exactly `tuple`: a pending edit on
    /// the key survives unless the deletion happens to reconcile the two.
    pub fn delete_published(&mut self, tuple: &Tuple) {
        let key = self.schema.key_of(tuple);
        if self.tuples.get(&key) == Some(tuple) {
            self.tuples.remove(&key);
        }
        if let Some(pre) = self.pending.get_mut(&key) {
            if pre.as_ref() == Some(tuple) {
                *pre = None;
            }
            if pre.as_ref() == self.tuples.get(&key) {
                self.pending.remove(&key);
            }
        }
    }

    /// All tuples, cloned, in key order.
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.tuples.values().cloned().collect()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use crate::value::ValueType;

    fn keyed() -> Relation {
        Relation::new(
            RelationSchema::from_parts_keyed(
                "S",
                &[
                    ("oid", ValueType::Int),
                    ("pid", ValueType::Int),
                    ("seq", ValueType::Str),
                ],
                &["oid", "pid"],
            )
            .unwrap(),
        )
    }

    fn setsem() -> Relation {
        Relation::new(
            RelationSchema::from_parts("R", &[("a", ValueType::Int), ("b", ValueType::Int)])
                .unwrap(),
        )
    }

    #[test]
    fn insert_and_contains() {
        let mut r = keyed();
        assert!(r.insert(tuple![1, 2, "AAG"]).unwrap());
        assert!(r.contains(&tuple![1, 2, "AAG"]));
        assert!(!r.contains(&tuple![1, 2, "CCG"]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn reinsert_identical_is_idempotent() {
        let mut r = keyed();
        assert!(r.insert(tuple![1, 2, "AAG"]).unwrap());
        assert!(!r.insert(tuple![1, 2, "AAG"]).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn key_conflict_on_different_nonkey() {
        let mut r = keyed();
        r.insert(tuple![1, 2, "AAG"]).unwrap();
        assert!(matches!(
            r.insert(tuple![1, 2, "CCG"]),
            Err(RelationalError::KeyConflict { .. })
        ));
    }

    #[test]
    fn upsert_replaces() {
        let mut r = keyed();
        r.insert(tuple![1, 2, "AAG"]).unwrap();
        let old = r.upsert(tuple![1, 2, "CCG"]).unwrap();
        assert_eq!(old, Some(tuple![1, 2, "AAG"]));
        assert!(r.contains(&tuple![1, 2, "CCG"]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn delete_exact_only() {
        let mut r = keyed();
        r.insert(tuple![1, 2, "AAG"]).unwrap();
        assert!(!r.delete(&tuple![1, 2, "CCG"]), "stale version not deleted");
        assert!(r.delete(&tuple![1, 2, "AAG"]));
        assert!(r.is_empty());
    }

    #[test]
    fn delete_by_key() {
        let mut r = keyed();
        r.insert(tuple![1, 2, "AAG"]).unwrap();
        assert_eq!(r.delete_by_key(&tuple![1, 2]), Some(tuple![1, 2, "AAG"]));
        assert_eq!(r.delete_by_key(&tuple![1, 2]), None);
    }

    #[test]
    fn get_by_key() {
        let mut r = keyed();
        r.insert(tuple![7, 8, "GGC"]).unwrap();
        assert_eq!(r.get_by_key(&tuple![7, 8]), Some(&tuple![7, 8, "GGC"]));
        assert_eq!(r.get_by_key(&tuple![7, 9]), None);
        assert!(r.contains_key(&tuple![7, 8]));
    }

    #[test]
    fn set_semantics_whole_tuple_key() {
        let mut r = setsem();
        r.insert(tuple![1, 2]).unwrap();
        // Same key columns but whole tuple differs => different key => both live.
        r.insert(tuple![1, 3]).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut r = setsem();
        r.insert(tuple![3, 0]).unwrap();
        r.insert(tuple![1, 0]).unwrap();
        r.insert(tuple![2, 0]).unwrap();
        let firsts: Vec<i64> = r.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(firsts, vec![1, 2, 3]);
    }

    #[test]
    fn insert_validates_schema() {
        let mut r = keyed();
        assert!(r.insert(tuple![1, 2]).is_err(), "arity");
        assert!(r.insert(tuple!["x", 2, "s"]).is_err(), "type");
    }

    #[test]
    fn clear_empties() {
        let mut r = setsem();
        r.insert(tuple![1, 1]).unwrap();
        r.clear();
        assert!(r.is_empty());
    }

    fn log(r: &Relation) -> Vec<(Option<Tuple>, Option<Tuple>)> {
        r.pending().map(|(p, c)| (p.cloned(), c.cloned())).collect()
    }

    #[test]
    fn log_keeps_one_pre_image_per_key_and_drops_reverted_edits() {
        let mut r = keyed();
        r.insert(tuple![1, 2, "A"]).unwrap();
        r.insert(tuple![3, 4, "B"]).unwrap();
        r.mark_key_published(&tuple![1, 2]);
        assert_eq!(log(&r), vec![(None, Some(tuple![3, 4, "B"]))]);
        r.mark_key_published(&tuple![3, 4]);
        assert!(log(&r).is_empty());

        // Two edits of one key: the pre-image is the published tuple.
        r.upsert(tuple![1, 2, "A2"]).unwrap();
        r.upsert(tuple![1, 2, "A3"]).unwrap();
        assert_eq!(
            log(&r),
            vec![(Some(tuple![1, 2, "A"]), Some(tuple![1, 2, "A3"]))]
        );
        // Reverting drops the entry; so does delete-then-reinsert.
        r.upsert(tuple![1, 2, "A"]).unwrap();
        assert!(r.delete(&tuple![3, 4, "B"]));
        assert_eq!(log(&r), vec![(Some(tuple![3, 4, "B"]), None)]);
        r.insert(tuple![3, 4, "B"]).unwrap();
        assert!(log(&r).is_empty());
        // Insert-then-delete of a fresh key leaves nothing either.
        r.insert(tuple![5, 6, "C"]).unwrap();
        assert_eq!(log(&r), vec![(None, Some(tuple![5, 6, "C"]))]);
        r.delete_by_key(&tuple![5, 6]);
        assert!(log(&r).is_empty());
        // A no-op upsert is not an edit.
        r.upsert(tuple![1, 2, "A"]).unwrap();
        assert!(log(&r).is_empty());
    }

    #[test]
    fn clear_logs_every_published_tuple_as_deleted() {
        let mut r = keyed();
        r.insert(tuple![1, 2, "A"]).unwrap();
        r.mark_key_published(&tuple![1, 2]);
        r.insert(tuple![3, 4, "B"]).unwrap();
        r.clear();
        assert_eq!(log(&r), vec![(Some(tuple![1, 2, "A"]), None)]);
    }

    #[test]
    fn published_mutators_change_both_states() {
        let mut r = keyed();
        // Over a pending local edit, a published upsert wins and settles.
        r.insert(tuple![1, 2, "mine"]).unwrap();
        r.upsert_published(tuple![1, 2, "theirs"]).unwrap();
        assert!(r.contains(&tuple![1, 2, "theirs"]));
        assert!(log(&r).is_empty());
        // A published delete of the version this relation edited away from
        // removes only the published side: the local tuple is now an insert.
        r.upsert(tuple![1, 2, "edited"]).unwrap();
        r.delete_published(&tuple![1, 2, "theirs"]);
        assert_eq!(log(&r), vec![(None, Some(tuple![1, 2, "edited"]))]);
        // ... and one naming the current version removes only that side.
        r.mark_key_published(&tuple![1, 2]);
        r.upsert(tuple![1, 2, "again"]).unwrap();
        r.delete_published(&tuple![1, 2, "again"]);
        assert_eq!(log(&r), vec![(Some(tuple![1, 2, "edited"]), None)]);
        // Not pending: both sides go together.
        r.mark_key_published(&tuple![1, 2]);
        r.insert(tuple![7, 8, "x"]).unwrap();
        r.mark_key_published(&tuple![7, 8]);
        r.delete_published(&tuple![7, 8, "x"]);
        assert!(r.is_empty() && log(&r).is_empty());
        assert!(r.upsert_published(tuple![1, 2]).is_err(), "validates");
    }

    #[test]
    fn relation_equality_ignores_the_pending_log() {
        let mut a = setsem();
        let mut b = setsem();
        a.insert(tuple![1, 2]).unwrap();
        b.insert(tuple![1, 2]).unwrap();
        a.mark_key_published(&tuple![1, 2]);
        assert_eq!(a, b);
    }
}
