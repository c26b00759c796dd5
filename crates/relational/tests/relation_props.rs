//! Property tests for keyed relation storage: a `Relation` behaves like a
//! model map from key projection to tuple, under any operation sequence,
//! and its pending-edit log like a diff against a model copy of the
//! published state.

use orchestra_relational::{tuple, Relation, RelationSchema, Tuple, ValueType};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Upsert(i64, i64),
    DeleteExact(i64, i64),
    DeleteByKey(i64),
    UpsertPublished(i64, i64),
    DeletePublished(i64, i64),
    MarkPublished,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..8, 0i64..4).prop_map(|(k, v)| Op::Insert(k, v)),
        (0i64..8, 0i64..4).prop_map(|(k, v)| Op::Upsert(k, v)),
        (0i64..8, 0i64..4).prop_map(|(k, v)| Op::DeleteExact(k, v)),
        (0i64..8).prop_map(Op::DeleteByKey),
        (0i64..8, 0i64..4).prop_map(|(k, v)| Op::UpsertPublished(k, v)),
        (0i64..8, 0i64..4).prop_map(|(k, v)| Op::DeletePublished(k, v)),
        Just(Op::MarkPublished),
    ]
}

fn keyed_relation() -> Relation {
    Relation::new(
        RelationSchema::from_parts_keyed(
            "R",
            &[("k", ValueType::Int), ("v", ValueType::Int)],
            &["k"],
        )
        .unwrap(),
    )
}

proptest! {
    /// Relation ≡ BTreeMap<key, value> under arbitrary operation sequences.
    #[test]
    fn relation_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let mut rel = keyed_relation();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        let mut published: BTreeMap<i64, i64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let r = rel.insert(tuple![k, v]);
                    match model.get(&k) {
                        None => {
                            prop_assert!(r.unwrap());
                            model.insert(k, v);
                        }
                        Some(&mv) if mv == v => prop_assert!(!r.unwrap(), "idempotent"),
                        Some(_) => prop_assert!(r.is_err(), "key conflict"),
                    }
                }
                Op::Upsert(k, v) => {
                    let old = rel.upsert(tuple![k, v]).unwrap();
                    let model_old = model.insert(k, v);
                    prop_assert_eq!(old.map(|t| t[1].as_int().unwrap()), model_old);
                }
                Op::DeleteExact(k, v) => {
                    let did = rel.delete(&tuple![k, v]);
                    let model_did = model.get(&k) == Some(&v);
                    prop_assert_eq!(did, model_did);
                    if model_did {
                        model.remove(&k);
                    }
                }
                Op::DeleteByKey(k) => {
                    let old = rel.delete_by_key(&tuple![k]);
                    let model_old = model.remove(&k);
                    prop_assert_eq!(old.map(|t| t[1].as_int().unwrap()), model_old);
                }
                Op::UpsertPublished(k, v) => {
                    rel.upsert_published(tuple![k, v]).unwrap();
                    model.insert(k, v);
                    published.insert(k, v);
                }
                Op::DeletePublished(k, v) => {
                    rel.delete_published(&tuple![k, v]);
                    for side in [&mut model, &mut published] {
                        if side.get(&k) == Some(&v) {
                            side.remove(&k);
                        }
                    }
                }
                Op::MarkPublished => {
                    rel.mark_published();
                    published = model.clone();
                }
            }
            // Invariants after every step.
            prop_assert_eq!(rel.len(), model.len());
            for (k, v) in &model {
                prop_assert!(rel.contains(&tuple![*k, *v]));
                prop_assert_eq!(rel.get_by_key(&tuple![*k]), Some(&tuple![*k, *v]));
            }
            // The log is the key-ordered diff of the two model maps.
            let got: Vec<(Option<Tuple>, Option<Tuple>)> =
                rel.pending().map(|(p, c)| (p.cloned(), c.cloned())).collect();
            let want: Vec<(Option<Tuple>, Option<Tuple>)> = (0i64..8)
                .filter(|k| published.get(k) != model.get(k))
                .map(|k| {
                    let row = |m: &BTreeMap<i64, i64>| m.get(&k).map(|v| tuple![k, *v]);
                    (row(&published), row(&model))
                })
                .collect();
            prop_assert_eq!(got, want);
        }
        // Iteration is key-ordered and matches the model exactly.
        let got: Vec<Tuple> = rel.iter().cloned().collect();
        let want: Vec<Tuple> = model.iter().map(|(k, v)| tuple![*k, *v]).collect();
        prop_assert_eq!(got, want);
    }
}
