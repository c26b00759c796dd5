//! The global metrics registry: counters, gauges, and fixed-bucket
//! latency histograms, addressed by canonical dotted names
//! (`store.wal.fsync_micros`, `engine.live_nodes`, …).
//!
//! Counters and gauges are **sharded**: each [`CounterHandle`] owns a
//! private atomic cell, so the hot path is a single relaxed
//! `fetch_add` with no cross-instance contention, and a handle can
//! still report its *own* count (the migrated per-instance stat
//! structs depend on that). The registry view folds all live shards
//! plus a `retired` total that absorbs dropped shards — so the global
//! value is monotone across instance lifetimes: a `RemoteStore`
//! recreated after a reconnect starts a fresh shard, but the registry
//! total never goes backwards.
//!
//! Gauges deliberately do **not** fold on drop: a dropped shard's
//! contribution vanishes, which is the right semantics for
//! "currently held" values like `engine.live_nodes`.
//!
//! Histograms are process-global per name (one set of bucket atomics;
//! recording is a couple of relaxed `fetch_add`s, no allocation).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};

/// Recover from a poisoned mutex: the registry holds only atomics, so
/// a panicking holder cannot leave it logically torn.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

pub(crate) struct CounterEntry {
    /// Sum folded in from dropped shards.
    retired: AtomicU64,
    shards: Mutex<Vec<Weak<CounterShard>>>,
}

impl CounterEntry {
    fn new() -> Self {
        CounterEntry {
            retired: AtomicU64::new(0),
            shards: Mutex::new(Vec::new()),
        }
    }

    /// Registry-wide value: retired + every live shard, pruning dead
    /// weak references as a side effect.
    pub(crate) fn total(&self) -> u64 {
        let mut sum = self.retired.load(Ordering::Relaxed);
        let mut shards = relock(&self.shards);
        shards.retain(|w| match w.upgrade() {
            Some(s) => {
                sum = sum.wrapping_add(s.cell.load(Ordering::Relaxed));
                true
            }
            None => false,
        });
        sum
    }
}

struct CounterShard {
    cell: AtomicU64,
    entry: Arc<CounterEntry>,
}

impl Drop for CounterShard {
    fn drop(&mut self) {
        self.entry
            .retired
            .fetch_add(self.cell.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A sharded counter. Cloning shares the shard; dropping the last
/// clone folds the shard's count into the registry's retired total.
#[derive(Clone)]
pub struct CounterHandle {
    shard: Arc<CounterShard>,
}

impl std::fmt::Debug for CounterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CounterHandle({})", self.get())
    }
}

impl CounterHandle {
    /// One relaxed `fetch_add` — the entire hot path.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shard.cell.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// This handle's own count (per-instance view; the registry total
    /// may be larger).
    #[inline]
    pub fn get(&self) -> u64 {
        self.shard.cell.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

pub(crate) struct GaugeEntry {
    shards: Mutex<Vec<Weak<GaugeShard>>>,
}

impl GaugeEntry {
    fn new() -> Self {
        GaugeEntry {
            shards: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn total(&self) -> i64 {
        let mut sum = 0i64;
        let mut shards = relock(&self.shards);
        shards.retain(|w| match w.upgrade() {
            Some(s) => {
                sum = sum.wrapping_add(s.cell.load(Ordering::Relaxed));
                true
            }
            None => false,
        });
        sum
    }
}

struct GaugeShard {
    cell: AtomicI64,
}

/// A sharded gauge. A dropped shard's contribution vanishes from the
/// registry total — correct for "currently …" values.
#[derive(Clone)]
pub struct GaugeHandle {
    shard: Arc<GaugeShard>,
    // Kept alive only so the registry can observe the shard.
    _entry: Arc<GaugeEntry>,
}

impl std::fmt::Debug for GaugeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GaugeHandle({})", self.get())
    }
}

impl GaugeHandle {
    #[inline]
    pub fn add(&self, n: i64) {
        self.shard.cell.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.shard.cell.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.shard.cell.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.shard.cell.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Bucket count: powers of two from 1µs to 2^21µs (~2.1s), plus one
/// overflow bucket. Boundaries are implicit — `bucket_bound(i)` — so
/// the wire snapshot only carries counts.
pub const HIST_BUCKETS: usize = 23;

/// Upper bound (inclusive, in microseconds) of bucket `i`; the last
/// bucket is unbounded.
pub fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Bucket index for a recorded value: first bucket whose bound is
/// `>= v`.
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    let idx = 64 - ((v - 1).leading_zeros() as usize);
    idx.min(HIST_BUCKETS - 1)
}

pub(crate) struct HistogramEntry {
    counts: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramEntry {
    fn new() -> Self {
        HistogramEntry {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    pub(crate) fn read(&self) -> (u64, u64, Vec<u64>) {
        let counts = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        (
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            counts,
        )
    }
}

/// A process-global histogram of microsecond latencies.
#[derive(Clone)]
pub struct HistogramHandle {
    entry: Arc<HistogramEntry>,
}

impl std::fmt::Debug for HistogramHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HistogramHandle")
    }
}

impl HistogramHandle {
    /// Record one observation (microseconds).
    #[inline]
    pub fn record(&self, v: u64) {
        let e = &self.entry;
        e.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        e.sum.fetch_add(v, Ordering::Relaxed);
        e.count.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

pub(crate) struct Registry {
    pub(crate) counters: BTreeMap<String, Arc<CounterEntry>>,
    pub(crate) gauges: BTreeMap<String, Arc<GaugeEntry>>,
    pub(crate) histograms: BTreeMap<String, Arc<HistogramEntry>>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

pub(crate) fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let m = REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        })
    });
    f(&mut relock(m))
}

/// Register (or re-open) the counter `name` and return a fresh shard
/// handle for it.
pub fn counter(name: &str) -> CounterHandle {
    let entry = with_registry(|r| {
        r.counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(CounterEntry::new()))
            .clone()
    });
    let shard = Arc::new(CounterShard {
        cell: AtomicU64::new(0),
        entry: entry.clone(),
    });
    relock(&entry.shards).push(Arc::downgrade(&shard));
    CounterHandle { shard }
}

/// Register (or re-open) the gauge `name` and return a fresh shard
/// handle for it.
pub fn gauge(name: &str) -> GaugeHandle {
    let entry = with_registry(|r| {
        r.gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(GaugeEntry::new()))
            .clone()
    });
    let shard = Arc::new(GaugeShard {
        cell: AtomicI64::new(0),
    });
    relock(&entry.shards).push(Arc::downgrade(&shard));
    GaugeHandle {
        shard,
        _entry: entry,
    }
}

/// The process-global histogram `name`.
pub fn histogram(name: &str) -> HistogramHandle {
    let entry = with_registry(|r| {
        r.histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramEntry::new()))
            .clone()
    });
    HistogramHandle { entry }
}

/// Bump a counter by a name computed at runtime (cold paths only — a
/// registry lock per call; hot paths use cached handles). Used for
/// dynamic families like `fault.fired.<site>`.
pub fn add_named(name: &str, n: u64) {
    let entry = with_registry(|r| {
        r.counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(CounterEntry::new()))
            .clone()
    });
    entry.retired.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_folds_into_registry_on_drop() {
        let h = counter("test.registry.fold");
        h.add(5);
        assert_eq!(h.get(), 5);
        let h2 = counter("test.registry.fold");
        h2.add(7);
        assert_eq!(h2.get(), 7);
        let total = with_registry(|r| r.counters["test.registry.fold"].total());
        assert_eq!(total, 12);
        drop(h);
        let total = with_registry(|r| r.counters["test.registry.fold"].total());
        assert_eq!(total, 12, "dropping a shard must not lose its count");
        // A clone keeps the shard alive: dropping one of two clones
        // must not fold early (that would double-count).
        let c1 = counter("test.registry.fold.clone");
        c1.add(3);
        let c2 = c1.clone();
        drop(c1);
        let total = with_registry(|r| r.counters["test.registry.fold.clone"].total());
        assert_eq!(total, 3);
        c2.add(1);
        drop(c2);
        let total = with_registry(|r| r.counters["test.registry.fold.clone"].total());
        assert_eq!(total, 4);
    }

    #[test]
    fn gauge_shard_vanishes_on_drop() {
        let g1 = gauge("test.registry.gauge");
        let g2 = gauge("test.registry.gauge");
        g1.set(1);
        g2.set(1);
        let total = with_registry(|r| r.gauges["test.registry.gauge"].total());
        assert_eq!(total, 2);
        drop(g1);
        let total = with_registry(|r| r.gauges["test.registry.gauge"].total());
        assert_eq!(total, 1, "a dropped gauge shard's contribution vanishes");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket i covers (2^(i-1), 2^i]; bucket 0 covers [0, 1].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        // 2^21 µs is the last bounded bucket; everything above lands
        // in the overflow bucket.
        assert_eq!(bucket_index(1 << 21), 21);
        assert_eq!(bucket_index((1 << 21) + 1), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Bounds are consistent with the index function.
        for i in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_bound(i)), i);
            assert_eq!(bucket_index(bucket_bound(i) + 1), i + 1);
        }
        assert_eq!(bucket_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_records_sum_and_count() {
        let h = histogram("test.registry.hist");
        h.record(1);
        h.record(100);
        h.record(3_000_000);
        let (count, sum, counts) = with_registry(|r| r.histograms["test.registry.hist"].read());
        assert_eq!(count, 3);
        assert_eq!(sum, 3_000_101);
        assert_eq!(counts.iter().sum::<u64>(), 3);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[bucket_index(100)], 1);
        assert_eq!(counts[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn add_named_accumulates() {
        add_named("test.registry.named", 2);
        add_named("test.registry.named", 3);
        let total = with_registry(|r| r.counters["test.registry.named"].total());
        assert_eq!(total, 5);
    }
}
