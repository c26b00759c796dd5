//! The engine's per-tuple constant: time and heap allocations per
//! removal, insert and propagate on a 4-relation copy chain.
//!
//! `propagate_allocation_budget` runs in every test pass: at about 128 k
//! nodes, recording a modify's new facts may allocate at most
//! [`PROPAGATE_ALLOCS`] times per modify — the new heads' tuples plus the
//! amortized growth of the engine's flat arrays. Allocations are counted
//! per thread, so tests running beside it do not count.
//!
//! `per_tuple_cost` is a diagnostic, ignored by default and asserting
//! nothing — its times depend on the host. It measures once at about
//! 128 k nodes and again at about 3 M, takes about 10 s and peaks near
//! 0.9 GB of resident memory. Run it with
//!
//! ```text
//! cargo test --release -p orchestra-datalog --test engine_cost -- --ignored --nocapture
//! ```
//!
//! The setup is 20 k base tuples in `R0(k, v)` copied through `R1`, `R2`
//! and `R3`, then transactions of 6 modifies: one `remove_bases` of the
//! 6 old tuples, 6 `insert_base` calls and one `propagate`. Every new
//! version carries a fresh value, so each modify kills 4 nodes and
//! interns 4 new ones, and the node table grows by 24 per transaction.

use orchestra_datalog::{Atom, Engine, Rule};
use orchestra_relational::{DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Counts allocations (and reallocations) per thread.
struct Counting;

thread_local! {
    /// Const-initialized and without a destructor, so the allocator can
    /// bump it on any thread at any time without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` cannot fail for a const cell without a destructor; an
    // uncounted allocation would only flatter the budget test.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RELS: [&str; 4] = ["R0", "R1", "R2", "R3"];
const KEYS: i64 = 20_000;
const MODIFIES: usize = 6;
/// Transactions per measured window.
const WINDOW: usize = 2_000;
/// The most allocations per modify `propagate` may make at 128 k nodes.
const PROPAGATE_ALLOCS: f64 = 4.0;

/// Allocations made so far on the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn chain_engine() -> Engine {
    let mut db = DatabaseSchema::new("cost");
    for name in RELS {
        let cols = [("k", ValueType::Int), ("v", ValueType::Int)];
        db.add_relation(RelationSchema::from_parts(name, &cols).unwrap())
            .unwrap();
    }
    let rules = RELS
        .windows(2)
        .map(|w| {
            Rule::new(
                format!("{}->{}", w[0], w[1]),
                Atom::vars(w[1], &["k", "v"]),
                vec![Atom::vars(w[0], &["k", "v"])],
                vec![],
            )
            .unwrap()
        })
        .collect();
    Engine::new(db, rules).unwrap()
}

fn row(k: i64, v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::Int(v)])
}

/// The chain's base state and the next transaction to run.
struct Chain {
    engine: Engine,
    /// Current version of each key.
    versions: Vec<i64>,
    /// Walks the keys in a fixed permutation (7 919 is coprime to
    /// `KEYS`), so a transaction's 6 keys are distinct.
    cursor: i64,
    next_version: i64,
}

/// Time and allocations per phase, summed over a window.
#[derive(Default)]
struct Cost {
    removal: (Duration, u64),
    insert: (Duration, u64),
    propagate: (Duration, u64),
}

impl Chain {
    fn new() -> Chain {
        let mut engine = chain_engine();
        for k in 0..KEYS {
            engine.insert_base("R0", row(k, 0)).unwrap();
        }
        engine.propagate().unwrap();
        Chain {
            engine,
            versions: vec![0; KEYS as usize],
            cursor: 0,
            next_version: 1,
        }
    }

    /// Run one transaction of 6 modifies, charging each phase to `cost`.
    fn txn(&mut self, cost: &mut Cost) {
        let mut olds = Vec::with_capacity(MODIFIES);
        let mut news = Vec::with_capacity(MODIFIES);
        for _ in 0..MODIFIES {
            let k = (self.cursor * 7_919) % KEYS;
            self.cursor += 1;
            let slot = &mut self.versions[k as usize];
            olds.push(row(k, *slot));
            *slot = self.next_version;
            self.next_version += 1;
            news.push(row(k, *slot));
        }
        let removals: Vec<(&str, &Tuple)> = olds.iter().map(|t| ("R0", t)).collect();
        let phase = |acc: &mut (Duration, u64), f: &mut dyn FnMut()| {
            let (a0, t0) = (allocs(), Instant::now());
            f();
            acc.0 += t0.elapsed();
            acc.1 += allocs() - a0;
        };
        phase(&mut cost.removal, &mut || {
            self.engine.remove_bases(&removals).unwrap();
        });
        phase(&mut cost.insert, &mut || {
            for t in news.drain(..) {
                self.engine.insert_base("R0", t).unwrap();
            }
        });
        phase(&mut cost.propagate, &mut || {
            self.engine.propagate().unwrap();
        });
        self.engine.drain_changes();
    }

    /// Run one window, print its cost per modify and return the
    /// allocations per modify in `propagate`.
    fn report(&mut self) -> f64 {
        let before = self.engine.stats();
        let nodes = self.engine.nodes().len();
        let mut cost = Cost::default();
        for _ in 0..WINDOW {
            self.txn(&mut cost);
        }
        let after = self.engine.stats();
        let n = (WINDOW * MODIFIES) as f64;
        let per = |(d, a): (Duration, u64)| (d.as_secs_f64() * 1e6 / n, a as f64 / n);
        let (rt, ra) = per(cost.removal);
        let (it, ia) = per(cost.insert);
        let (pt, pa) = per(cost.propagate);
        println!(
            "{nodes} nodes: per modify removal {rt:.2} µs ({ra:.1} allocs, {:.1} deaths), \
             insert {it:.2} µs ({ia:.1} allocs), propagate {pt:.2} µs ({pa:.1} allocs, {:.1} firings)",
            (after.tuples_removed - before.tuples_removed) as f64 / n,
            (after.firings - before.firings) as f64 / n,
        );
        pa
    }

    /// Run untimed transactions until the node table holds `nodes`.
    fn grow_to(&mut self, nodes: usize) {
        let mut sink = Cost::default();
        while self.engine.nodes().len() < nodes {
            self.txn(&mut sink);
        }
    }
}

#[test]
fn propagate_allocation_budget() {
    let mut chain = Chain::new();
    chain.grow_to(128_000);
    let per_modify = chain.report();
    assert!(
        per_modify <= PROPAGATE_ALLOCS,
        "propagate made {per_modify:.2} allocations per modify, budget {PROPAGATE_ALLOCS}"
    );
}

#[test]
#[ignore = "diagnostic: prints per-operation cost, asserts nothing"]
fn per_tuple_cost() {
    let mut chain = Chain::new();
    chain.grow_to(128_000);
    chain.report();
    chain.grow_to(3_000_000);
    chain.report();
}
