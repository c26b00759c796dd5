//! Structured span tracing with cross-peer trace ids.
//!
//! A span records name, start offset (µs since the process-wide obs
//! epoch), duration, attributes, and the **trace id** that was current
//! on its thread. Completed spans land in a bounded per-thread ring
//! buffer (no contention on the hot path: each thread locks only its
//! own ring, and only to push).
//!
//! Trace ids are minted once per logical operation (a mesh gossip
//! round, a reconcile call) and travel with the thread via a
//! thread-local; the network layer copies the current id onto v2
//! `HELLO`/`PULL_PAGES` frames and the server **adopts** it around
//! request execution — so one cross-peer exchange stitches into a
//! single trace across every node's snapshot.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread ring capacity: old spans are dropped, newest kept.
pub const RING_CAP: usize = 1024;

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    /// Trace id current when the span started (0 = untraced).
    pub trace: u64,
    /// Microseconds since the process obs epoch.
    pub start_us: u64,
    pub dur_us: u64,
    /// Small dense id of the recording thread.
    pub thread: u64,
    /// Global completion sequence number (total order across threads).
    pub seq: u64,
    pub attrs: Vec<(&'static str, String)>,
}

type Ring = Arc<Mutex<VecDeque<SpanRecord>>>;

static RINGS: OnceLock<Mutex<Vec<Ring>>> = OnceLock::new();
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL_RING: RefCell<Option<(u64, Ring)>> = const { RefCell::new(None) };
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Microseconds since the first obs call in this process.
pub fn now_micros() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn with_local_ring(f: impl FnOnce(u64, &Ring)) {
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let (tid, ring) = slot.get_or_insert_with(|| {
            let tid = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            let ring: Ring = Arc::new(Mutex::new(VecDeque::with_capacity(64)));
            let rings = RINGS.get_or_init(|| Mutex::new(Vec::new()));
            rings
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(ring.clone());
            (tid, ring)
        });
        f(*tid, ring);
    });
}

fn push_record(mut rec: SpanRecord) {
    with_local_ring(|tid, ring| {
        rec.thread = tid;
        rec.seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut ring = ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() >= RING_CAP {
            ring.pop_front();
        }
        ring.push_back(rec);
    });
}

/// Drain a copy of every thread's ring, in (thread, arrival) order.
/// The caller sorts by `seq` for a global timeline.
pub(crate) fn collect_spans() -> Vec<SpanRecord> {
    let Some(rings) = RINGS.get() else {
        return Vec::new();
    };
    let rings = rings.lock().unwrap_or_else(|p| p.into_inner());
    let mut out = Vec::new();
    for ring in rings.iter() {
        let ring = ring.lock().unwrap_or_else(|p| p.into_inner());
        out.extend(ring.iter().cloned());
    }
    out
}

/// RAII guard returned by [`crate::span!`]; records the span when
/// dropped.
pub struct SpanGuard {
    name: &'static str,
    trace: u64,
    start: Instant,
    start_us: u64,
    attrs: Vec<(&'static str, String)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        push_record(SpanRecord {
            name: self.name,
            trace: self.trace,
            start_us: self.start_us,
            dur_us: self.start.elapsed().as_micros() as u64,
            thread: 0,
            seq: 0,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

/// Open a span. Prefer the [`crate::span!`] macro, which formats the
/// attributes for you.
pub fn span_start(name: &'static str, attrs: Vec<(&'static str, String)>) -> SpanGuard {
    SpanGuard {
        name,
        trace: trace_current(),
        start: Instant::now(),
        start_us: now_micros(),
        attrs,
    }
}

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

/// Restores the thread's previous trace id on drop.
pub struct TraceGuard {
    prev: u64,
    active: bool,
    /// The id this guard installed (0 when adopting no trace).
    pub id: u64,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.active {
            CURRENT_TRACE.with(|c| c.set(self.prev));
        }
    }
}

fn set_trace(id: u64) -> TraceGuard {
    let prev = CURRENT_TRACE.with(|c| c.replace(id));
    TraceGuard {
        prev,
        active: true,
        id,
    }
}

fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let pid = std::process::id() as u64;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0xdead_beef);
        splitmix64((pid << 32) ^ nanos)
    })
}

/// splitmix64 — the same mixer `orchestra-fault` uses; good avalanche,
/// no dependencies.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mint a fresh trace id and make it current on this thread until the
/// guard drops. Ids mix the process id and wall clock at first use, so
/// they are unique across the nodes of a multi-process cluster with
/// overwhelming probability.
pub fn trace_mint() -> TraceGuard {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut id = splitmix64(seed() ^ n);
    if id == 0 {
        id = 1;
    }
    set_trace(id)
}

/// Adopt a trace id received over the wire (server side). Adopting 0
/// is a no-op guard.
pub fn trace_adopt(id: u64) -> TraceGuard {
    if id == 0 {
        return TraceGuard {
            prev: 0,
            active: false,
            id: 0,
        };
    }
    set_trace(id)
}

/// The trace id current on this thread (0 = none).
pub fn trace_current() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_nesting_restores_previous() {
        assert_eq!(trace_current(), 0);
        let outer = trace_mint();
        assert_ne!(outer.id, 0);
        assert_eq!(trace_current(), outer.id);
        {
            let inner = trace_adopt(42);
            assert_eq!(inner.id, 42);
            assert_eq!(trace_current(), 42);
        }
        assert_eq!(trace_current(), outer.id);
        drop(outer);
        assert_eq!(trace_current(), 0);
    }

    #[test]
    fn minted_ids_are_distinct_and_nonzero() {
        let mut ids = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let g = trace_mint();
            assert_ne!(g.id, 0);
            ids.insert(g.id);
        }
        assert_eq!(ids.len(), 64);
    }

    #[test]
    fn spans_land_in_the_ring_with_trace_and_order() {
        let t = trace_adopt(7001);
        {
            let _s = span_start("test.span.outer", vec![("k", "v".to_string())]);
            let _inner = span_start("test.span.inner", Vec::new());
        }
        drop(t);
        let spans = collect_spans();
        let outer = spans.iter().find(|s| s.name == "test.span.outer");
        let inner = spans.iter().find(|s| s.name == "test.span.inner");
        let (outer, inner) = match (outer, inner) {
            (Some(o), Some(i)) => (o, i),
            _ => panic!("both spans must be recorded"),
        };
        assert_eq!(outer.trace, 7001);
        assert_eq!(inner.trace, 7001);
        // Inner drops first, so it completes (and sequences) earlier.
        assert!(inner.seq < outer.seq);
        assert!(inner.dur_us <= outer.dur_us);
        assert_eq!(outer.attrs, vec![("k", "v".to_string())]);
        assert_eq!(outer.thread, inner.thread);
    }

    #[test]
    fn ring_is_bounded() {
        for _ in 0..RING_CAP + 10 {
            let _s = span_start("test.span.flood", Vec::new());
        }
        let spans = collect_spans();
        let flood = spans.iter().filter(|s| s.name == "test.span.flood").count();
        assert!(flood <= RING_CAP);
        assert!(flood >= RING_CAP - 64, "ring should keep the newest spans");
    }
}
