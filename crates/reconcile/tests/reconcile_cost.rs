//! The reconciler's cost, as a diagnostic: time and heap allocations
//! per candidate, and the heap it keeps per transaction, after 10 k and
//! after 100 k settled transactions of a steady workload.
//!
//! Ignored by default and asserting nothing — the numbers depend on the
//! host. It takes a few seconds. Run it with
//!
//! ```text
//! cargo test --release -p orchestra-reconcile --test reconcile_cost -- --ignored --nocapture
//! ```
//!
//! The workload is three publishers taking turns over 20 k keys of
//! `R(k, v)`: each transaction modifies 16 distinct keys drawn at random
//! and cites the transactions that last wrote them (about 16), so every
//! candidate is accepted and settles. Candidates arrive in pages of 64, one `reconcile` call each.
//! Each run starts from a fresh reconciler; "retained" is what dropping
//! the reconciler at the end frees, divided by the transactions it saw
//! (the accepted-write history is bounded by the 20 k keys, so the
//! per-transaction figure falls towards the per-transaction history as
//! the run grows).

use orchestra_reconcile::{Candidate, Reconciler, TrustPolicy};
use orchestra_relational::{DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use orchestra_updates::{Epoch, PeerId, Transaction, TxnId, Update};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts allocations (and reallocations) of this test binary, and the
/// bytes it holds.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: usize = 20_000;
const MODIFIES: usize = 16;
const PUBLISHERS: [&str; 3] = ["P0", "P1", "P2"];
const PAGE: usize = 64;

fn schema() -> DatabaseSchema {
    let cols = [("k", ValueType::Int), ("v", ValueType::Int)];
    DatabaseSchema::new("cost")
        .with_relation(RelationSchema::from_parts_keyed("R", &cols, &["k"]).unwrap())
        .unwrap()
}

fn row(k: usize, v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k as i64), Value::Int(v)])
}

/// The publishers' shared state: each key's version and last writer.
struct Workload {
    versions: Vec<i64>,
    writers: Vec<Option<TxnId>>,
    /// xorshift64 state for the key draws.
    rng: u64,
    txns: u64,
}

impl Workload {
    fn new() -> Workload {
        Workload {
            versions: vec![0; KEYS],
            writers: vec![None; KEYS],
            rng: 0x9E37_79B9_7F4A_7C15,
            txns: 0,
        }
    }

    fn key(&mut self) -> usize {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng % KEYS as u64) as usize
    }

    fn candidate(&mut self) -> Candidate {
        let peer = PeerId::new(PUBLISHERS[self.txns as usize % PUBLISHERS.len()]);
        let id = TxnId::new(peer, self.txns / PUBLISHERS.len() as u64 + 1);
        self.txns += 1;
        let mut keys = BTreeSet::new();
        while keys.len() < MODIFIES {
            keys.insert(self.key());
        }
        let mut updates = Vec::with_capacity(MODIFIES);
        let mut antecedents = BTreeSet::new();
        for k in keys {
            let old = row(k, self.versions[k]);
            self.versions[k] = self.txns as i64;
            updates.push(Update::modify("R", old, row(k, self.versions[k])));
            antecedents.extend(self.writers[k].replace(id.clone()));
        }
        Candidate::from_txn(
            Transaction::new(id, Epoch::new(self.txns), updates).with_antecedents(antecedents),
        )
    }
}

/// Run `txns` transactions through a fresh reconciler and print what
/// they cost.
fn run(txns: usize) {
    let policy = TrustPolicy::open(1);
    let mut workload = Workload::new();
    let mut reconciler = Reconciler::new(schema());
    let (mut time, mut allocs, mut accepted) = (Duration::ZERO, 0u64, 0usize);
    for _ in 0..txns / PAGE {
        let page: Vec<Candidate> = (0..PAGE).map(|_| workload.candidate()).collect();
        let (a0, t0) = (ALLOCS.load(Ordering::Relaxed), Instant::now());
        let outcome = reconciler.reconcile(page, &policy).unwrap();
        time += t0.elapsed();
        allocs += ALLOCS.load(Ordering::Relaxed) - a0;
        accepted += outcome.accepted.len();
    }
    let seen = (txns / PAGE * PAGE) as f64;
    let live = LIVE.load(Ordering::Relaxed);
    drop(reconciler);
    let retained = live - LIVE.load(Ordering::Relaxed);
    println!(
        "{seen} txns ({accepted} accepted): per candidate {:.2} µs, {:.1} allocs; \
         retained {:.1} MB, {:.0} B per txn",
        time.as_secs_f64() * 1e6 / seen,
        allocs as f64 / seen,
        retained as f64 / 1e6,
        retained as f64 / seen,
    );
}

#[test]
#[ignore = "diagnostic: prints per-candidate cost and retained heap, asserts nothing"]
fn per_candidate_cost() {
    run(10_000);
    run(100_000);
}
