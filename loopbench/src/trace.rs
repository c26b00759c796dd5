//! Tracing from outside the program: spans around the calls the benchmark
//! makes into each layer, kept in memory and written out at the end.
//!
//! The load is a closed loop with one client, so at any instant at most
//! one driver call is in flight; a span recorded on a serving thread
//! (the server-side store in the wire and mesh workloads) is therefore
//! caused by the innermost open driver span, which the tracer tracks.

use orchestra_store::{AbsorbReport, FetchCursor, FetchPage, StoreDigest, StoreStats, UpdateStore};
use orchestra_updates::{Epoch, Transaction, TxnId};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layers a span can belong to are crates the benchmark calls into
/// (`datalog` and `reconcile` sit inside `core`; see `replay`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Core,
    Store,
    Net,
    Mesh,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Store => "store",
            Layer::Net => "net",
            Layer::Mesh => "mesh",
        }
    }
}

/// "No span": the parent of a top-level span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Exchange cycle the span belongs to: spans of one cycle share it.
    pub op: u64,
}

/// In-memory span sink shared by the driver and the serving threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
    /// Innermost open driver-thread span.
    current: AtomicU32,
    op: AtomicU64,
    /// The thread that created the tracer: the one client of the loop.
    driver: std::thread::ThreadId,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            current: AtomicU32::new(ROOT),
            op: AtomicU64::new(0),
            driver: std::thread::current().id(),
        })
    }

    /// Spans are recorded only while enabled (the timed section of a
    /// traced run); the decorators stay in place but cost one load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn set_op(&self, op: u64) {
        self.op.store(op, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("no span recorder panics");
        spans.push(span);
        (spans.len() - 1) as u32
    }

    /// Open a span on the driver thread; it becomes the parent of
    /// everything recorded until the guard drops.
    pub fn enter(self: &Arc<Self>, layer: Layer, name: &'static str) -> Option<Entered> {
        if !self.enabled.load(Ordering::SeqCst) {
            return None;
        }
        let parent = self.current.load(Ordering::SeqCst);
        let idx = self.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op: self.op.load(Ordering::Relaxed),
        });
        self.current.store(idx, Ordering::SeqCst);
        Some(Entered {
            tracer: Arc::clone(self),
            idx,
            parent,
        })
    }

    /// Record a finished span from a serving thread, parented on the
    /// driver call in flight.
    fn leaf(&self, layer: Layer, name: &'static str, start_ns: u64) {
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent: self.current.load(Ordering::SeqCst),
            op: self.op.load(Ordering::Relaxed),
        });
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span recorder panics"))
    }
}

/// Guard of an open driver-thread span.
pub struct Entered {
    tracer: Arc<Tracer>,
    idx: u32,
    parent: u32,
}

impl Drop for Entered {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.idx as usize].end_ns = end;
        }
        self.tracer.current.store(self.parent, Ordering::SeqCst);
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children are clipped to the parent and
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Write the spans as one JSON array.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.op
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

/// `UpdateStore` decorator that records one span per call: nested under
/// the open driver span when the driver thread calls it, attached to the
/// driver call in flight when a serving thread does.
pub struct TimedStore {
    inner: Arc<dyn UpdateStore>,
    tracer: Arc<Tracer>,
    layer: Layer,
}

impl TimedStore {
    /// Wrap `inner`; spans are attributed to `layer` (`Store` for an
    /// archive, `Net` for the client end of a `RemoteStore`).
    pub fn wrap(
        inner: Arc<dyn UpdateStore>,
        tracer: &Arc<Tracer>,
        layer: Layer,
    ) -> Arc<dyn UpdateStore> {
        Arc::new(TimedStore {
            inner,
            tracer: Arc::clone(tracer),
            layer,
        })
    }

    fn timed<T>(&self, name: &'static str, call: impl FnOnce(&dyn UpdateStore) -> T) -> T {
        if !self.tracer.enabled.load(Ordering::SeqCst) {
            return call(&*self.inner);
        }
        if std::thread::current().id() == self.tracer.driver {
            let _span = self.tracer.enter(self.layer, name);
            call(&*self.inner)
        } else {
            let start = self.tracer.now_ns();
            let out = call(&*self.inner);
            self.tracer.leaf(self.layer, name, start);
            out
        }
    }
}

impl UpdateStore for TimedStore {
    fn publish(&self, epoch: Epoch, txns: Vec<Transaction>) -> orchestra_store::Result<()> {
        self.timed("publish", |s| s.publish(epoch, txns))
    }
    fn fetch_page(&self, cursor: &FetchCursor, limit: usize) -> orchestra_store::Result<FetchPage> {
        self.timed("fetch_page", |s| s.fetch_page(cursor, limit))
    }
    fn fetch(&self, id: &TxnId) -> orchestra_store::Result<Option<Transaction>> {
        self.timed("fetch", |s| s.fetch(id))
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn latest_epoch(&self) -> Option<Epoch> {
        self.inner.latest_epoch()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
    fn digest(&self) -> orchestra_store::Result<StoreDigest> {
        self.timed("digest", |s| s.digest())
    }
    fn absorb(&self, txns: Vec<Transaction>) -> orchestra_store::Result<AbsorbReport> {
        self.timed("absorb", |s| s.absorb(txns))
    }
    fn quarantined(&self) -> Vec<(Epoch, TxnId)> {
        self.inner.quarantined()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: "t",
            layer: Layer::Core,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, 100, ROOT), // 0: root
            span(10, 30, 0),    // 1: child
            span(20, 50, 0),    // 2: overlaps child 1 → union 10..50
            span(25, 28, 2),    // 3: grandchild, only counts against 2
            span(90, 120, 0),   // 4: runs past the parent → clipped at 100
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 27, 3, 30]);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_when_children_nest() {
        let spans = [
            span(0, 1000, ROOT),
            span(100, 400, 0),
            span(150, 250, 1),
            span(500, 900, 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn driver_spans_nest_and_server_leaves_attach_to_the_open_call() {
        let t = Tracer::new();
        t.set_enabled(true);
        {
            let _outer = t.enter(Layer::Core, "outer");
            {
                let _inner = t.enter(Layer::Net, "inner");
                let start = t.now_ns();
                t.leaf(Layer::Store, "served", start);
            }
            let _sibling = t.enter(Layer::Store, "sibling");
        }
        let spans = t.take_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1, "leaf hangs off the innermost open span");
        assert_eq!(spans[3].parent, 0);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert!(t.enter(Layer::Core, "x").is_none());
        assert!(t.take_spans().is_empty());
    }
}
