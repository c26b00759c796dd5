//! Mapping helpers: peer-qualified relation names and identity mappings.
//!
//! Each peer's local schema uses plain relation names (`O`, `OPS`); the
//! system-wide mapping program evaluates over a combined namespace where
//! every relation is qualified as `"<Peer>.<Relation>"`. Mappings are
//! authored directly over qualified names (see [`crate::demo::figure2`]
//! for the paper's program).
//!
//! No peer evaluates that whole program: [`backward_closure`] says which
//! relations can reach a peer's own, and `slice_program` cuts the
//! combined schema and the compiled rules down to them.

use crate::Result;
use orchestra_datalog::{Rule, Tgd};
use orchestra_relational::{ColumnDef, DatabaseSchema, RelationSchema};
use orchestra_updates::PeerId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The qualified name of a peer's relation in the combined namespace.
pub fn qualify(peer: &PeerId, relation: &str) -> String {
    format!("{}.{relation}", peer.name())
}

/// Build the peer's portion of the combined schema: every relation
/// re-declared under its qualified name (keys preserved — conflict
/// detection and update pairing use them).
pub fn qualified_schema(peer: &PeerId, local: &DatabaseSchema) -> Result<Vec<RelationSchema>> {
    let mut out = Vec::with_capacity(local.len());
    for rel in local.relations() {
        let cols: Vec<ColumnDef> = rel.columns().to_vec();
        let qualified =
            RelationSchema::with_key(qualify(peer, rel.name()), cols, rel.key().to_vec())?;
        out.push(qualified);
    }
    Ok(out)
}

/// Identity mappings in **both** directions between two peers sharing a
/// schema — the paper's `MA↔B` and `MC↔D`. One tgd per relation per
/// direction, named `"M<A>-><B>/<Rel>"`.
pub fn identity_mappings(a: &PeerId, b: &PeerId, shared: &DatabaseSchema) -> Result<Vec<Tgd>> {
    let mut out = Vec::with_capacity(shared.len() * 2);
    for rel in shared.relations() {
        let arity = rel.arity();
        out.push(Tgd::identity(
            format!("M{}->{}/{}", a.name(), b.name(), rel.name()),
            qualify(a, rel.name()),
            qualify(b, rel.name()),
            arity,
        )?);
        out.push(Tgd::identity(
            format!("M{}->{}/{}", b.name(), a.name(), rel.name()),
            qualify(b, rel.name()),
            qualify(a, rel.name()),
            arity,
        )?);
    }
    Ok(out)
}

/// The backward closure of `seeds` over the mapping program: the seeds
/// plus, transitively, every relation read by the body of a mapping that
/// derives into a relation already in the set. A tuple of any other
/// relation can never contribute to a tuple of a seed relation, so this
/// is everything a holder of the seeds needs — both what a mesh node
/// replicates ([`Cdss::interest_set_for`](crate::Cdss::interest_set_for))
/// and what a peer's translation engine materialises (the builder
/// slices each peer's program by it).
///
/// Computed over the tgds; the closure over the compiled rules is the
/// same set, because every rule compiled from a tgd keeps the tgd's body.
pub fn backward_closure(
    seeds: impl IntoIterator<Item = Arc<str>>,
    mappings: &[Tgd],
) -> BTreeSet<Arc<str>> {
    let mut need: BTreeSet<Arc<str>> = seeds.into_iter().collect();
    loop {
        let mut grew = false;
        for tgd in mappings {
            if tgd.head.iter().any(|h| need.contains(&h.relation)) {
                for atom in &tgd.body {
                    grew |= need.insert(Arc::clone(&atom.relation));
                }
            }
        }
        if !grew {
            return need;
        }
    }
}

/// One peer's slice of the mapping program, ready to compile into its
/// engine: of the `combined` schema only the relations in the backward
/// closure of the peer's own, and of the compiled `rules` only those
/// whose head relation lies in that closure, both in their original
/// order. A multi-head tgd contributes just the heads that are needed;
/// a peer nothing maps into gets no rule at all. Where the mappings run
/// both ways every peer's closure is the whole program, and the slice is
/// exactly `(combined, rules)`.
pub(crate) fn slice_program(
    peer: &PeerId,
    local: &DatabaseSchema,
    combined: &DatabaseSchema,
    mappings: &[Tgd],
    rules: &[Rule],
) -> Result<(DatabaseSchema, Vec<Rule>)> {
    let own = local
        .relations()
        .map(|r| Arc::from(qualify(peer, r.name()).as_str()));
    let closure = backward_closure(own, mappings);
    let mut schema = DatabaseSchema::new(combined.name());
    for rel in combined.relations() {
        if closure.contains(rel.name()) {
            schema.add_relation(rel.clone())?;
        }
    }
    let rules = rules
        .iter()
        .filter(|r| closure.contains(&r.head.relation))
        .cloned()
        .collect();
    Ok((schema, rules))
}

/// Split a qualified name back into `(peer, relation)`.
pub fn unqualify(qualified: &str) -> Option<(&str, &str)> {
    qualified.split_once('.')
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_relational::ValueType;

    fn sigma1() -> DatabaseSchema {
        DatabaseSchema::new("Σ1")
            .with_relation(
                RelationSchema::from_parts_keyed(
                    "O",
                    &[("org", ValueType::Str), ("oid", ValueType::Int)],
                    &["oid"],
                )
                .unwrap(),
            )
            .unwrap()
            .with_relation(
                RelationSchema::from_parts_keyed(
                    "P",
                    &[("prot", ValueType::Str), ("pid", ValueType::Int)],
                    &["pid"],
                )
                .unwrap(),
            )
            .unwrap()
    }

    #[test]
    fn qualify_and_unqualify() {
        let p = PeerId::new("Alaska");
        assert_eq!(qualify(&p, "O"), "Alaska.O");
        assert_eq!(unqualify("Alaska.O"), Some(("Alaska", "O")));
        assert_eq!(unqualify("nope"), None);
    }

    #[test]
    fn qualified_schema_preserves_keys() {
        let p = PeerId::new("Alaska");
        let rels = qualified_schema(&p, &sigma1()).unwrap();
        assert_eq!(rels.len(), 2);
        let o = rels.iter().find(|r| r.name() == "Alaska.O").unwrap();
        assert_eq!(o.key(), &[1], "oid key preserved");
        assert_eq!(o.arity(), 2);
    }

    #[test]
    fn identity_mappings_both_directions() {
        let a = PeerId::new("Alaska");
        let b = PeerId::new("Beijing");
        let ms = identity_mappings(&a, &b, &sigma1()).unwrap();
        assert_eq!(ms.len(), 4); // 2 relations × 2 directions
        let names: Vec<String> = ms.iter().map(|m| m.name.to_string()).collect();
        assert!(names.contains(&"MAlaska->Beijing/O".to_string()));
        assert!(names.contains(&"MBeijing->Alaska/P".to_string()));
        // Each identity mapping compiles to a single rule copying terms.
        for m in &ms {
            let rules = m.compile().unwrap();
            assert_eq!(rules.len(), 1);
            assert_eq!(rules[0].head.terms, rules[0].body[0].terms);
        }
    }
}
