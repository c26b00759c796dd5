//! The engine's size gauges, read from an obs snapshot: every engine
//! holds its share of `engine.live_nodes`, `engine.interned_nodes`,
//! `engine.derivation_records` and `engine.interner_symbols`, set at
//! build and after each `propagate` / `remove_bases`, and the registry
//! sums the shares of the live engines.
//!
//! The one test in this file owns the process-global registry, so the
//! totals it reads are exactly its own engines'.

use orchestra_datalog::{Atom, Engine, Rule};
use orchestra_relational::{tuple, DatabaseSchema, RelationSchema, ValueType};

/// `[live, interned, derivation records, interner symbols]` as the
/// registry reports them.
fn gauges() -> [i64; 4] {
    let snap = orchestra_obs::snapshot_filtered("engine.");
    let read = |name: &str| {
        snap.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    [
        read("engine.live_nodes"),
        read("engine.interned_nodes"),
        read("engine.derivation_records"),
        read("engine.interner_symbols"),
    ]
}

/// The same four sizes, read from the engine itself.
fn sizes(e: &Engine) -> [i64; 4] {
    [
        e.total_tuples() as i64,
        e.nodes().len() as i64,
        e.graph().num_derivations() as i64,
        e.interner().len() as i64,
    ]
}

fn sum(a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]
}

/// path(x,y) :- edge(x,y).  path(x,z) :- edge(x,y), path(y,z).
fn edge_path_engine() -> Engine {
    let mut db = DatabaseSchema::new("g");
    for name in ["edge", "path"] {
        let cols = [("a", ValueType::Str), ("b", ValueType::Str)];
        db.add_relation(RelationSchema::from_parts(name, &cols).unwrap())
            .unwrap();
    }
    let base = Rule::new(
        "base",
        Atom::vars("path", &["x", "y"]),
        vec![Atom::vars("edge", &["x", "y"])],
        vec![],
    )
    .unwrap();
    let step = Rule::new(
        "step",
        Atom::vars("path", &["x", "z"]),
        vec![
            Atom::vars("edge", &["x", "y"]),
            Atom::vars("path", &["y", "z"]),
        ],
        vec![],
    )
    .unwrap();
    Engine::new(db, vec![base, step]).unwrap()
}

#[test]
fn engine_gauges_track_each_engines_sizes() {
    assert_eq!(gauges(), [0; 4]);

    // A chain a -> b -> c -> d: 3 edges, 6 paths, 6 derivations.
    let mut a = edge_path_engine();
    assert_eq!(gauges(), [0; 4], "a rule without constants interns nothing");
    for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
        a.insert_base("edge", tuple![x, y]).unwrap();
    }
    a.propagate().unwrap();
    assert_eq!(sizes(&a), [9, 9, 6, 4]);
    assert_eq!(gauges(), sizes(&a));

    // A clone holds a share of its own: both count, and growing the clone
    // moves only its share.
    let mut b = a.clone();
    assert_eq!(gauges(), sum(sizes(&a), sizes(&a)));
    b.insert_base("edge", tuple!["d", "e"]).unwrap();
    b.propagate().unwrap();
    assert_eq!(sizes(&b), [14, 14, 10, 5]);
    assert_eq!(gauges(), sum(sizes(&a), sizes(&b)));

    // A removal kills tuples but keeps their nodes and derivations.
    b.remove_bases(&[("edge", &tuple!["a", "b"])]).unwrap();
    assert_eq!(sizes(&b), [9, 14, 10, 5]);
    assert_eq!(gauges(), sum(sizes(&a), sizes(&b)));

    // An engine's share lives as long as the engine.
    drop(a);
    assert_eq!(gauges(), sizes(&b));
    drop(b);
    assert_eq!(gauges(), [0; 4]);
}
