//! # orchestra-obs
//!
//! The unified observability layer: one process-global registry of
//! counters / gauges / latency histograms plus structured span tracing
//! with cross-peer trace ids. Dependency-free and hand-rolled in the
//! `orchestra-fault` style — crates.io is unreachable from the build
//! environment, and the hot-path cost budget is "one relaxed atomic".
//!
//! Two independent off switches:
//!
//! * **Compile time** — the `off` cargo feature sets [`ENABLED`] to
//!   `false`. The macros below check that `const` first, so with `off`
//!   every metric/span expansion folds to nothing (the A/B overhead
//!   benches build this way). Handles returned by [`counter()`] etc.
//!   still count into their private cell, so product stat structs that
//!   migrated onto handles keep answering their getters.
//! * **Run time** — `ORCHESTRA_OBS=off` (or `0`) disables span and
//!   histogram *recording* via one relaxed atomic load. Counters and
//!   gauges always count: product stats are views over them.
//!
//! Scope: the registry is **process-global**. In-process multi-node
//! tests share one registry (filter by name prefix or per-instance
//! handle); the real cluster harness (E12) runs one process per node
//! and polls each over the `METRICS` wire opcode.

mod registry;
mod snapshot;
mod span;

pub use registry::{
    add_named, bucket_bound, bucket_index, counter, gauge, histogram, CounterHandle, GaugeHandle,
    HistogramHandle, HIST_BUCKETS,
};
pub use snapshot::{snapshot, snapshot_filtered, HistogramSnapshot, ObsSnapshot, SpanSnapshot};
pub use span::{
    now_micros, span_start, trace_adopt, trace_current, trace_mint, SpanGuard, SpanRecord,
    TraceGuard, RING_CAP,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// `true` unless the crate is compiled with the `off` feature. The
/// macros check this `const` so disabled expansions fold away at
/// compile time — downstream crates cannot see our features from
/// inside a macro expansion, but they can see this constant.
pub const ENABLED: bool = cfg!(not(feature = "off"));

/// 0 = uninitialised, 1 = off, 2 = on.
static RUNTIME: AtomicU8 = AtomicU8::new(0);

/// Runtime kill switch state: one relaxed load on the hot path, with
/// a cold lazy read of `ORCHESTRA_OBS` on first use.
#[inline]
pub fn runtime_enabled() -> bool {
    match RUNTIME.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => runtime_init(),
    }
}

#[cold]
fn runtime_init() -> bool {
    let on = match std::env::var("ORCHESTRA_OBS") {
        Ok(v) => !(v == "off" || v == "0"),
        Err(_) => true,
    };
    RUNTIME.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Override the runtime switch (benches, tests).
pub fn set_runtime_enabled(on: bool) {
    RUNTIME.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Bump a named counter through a lazily-registered static handle:
/// `orchestra_obs::counter!("mesh.round.pages_pulled", n)`. Hot-path
/// cost after the first call is one relaxed `fetch_add`; with the
/// `off` feature the whole expansion is dead code.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {{
        if $crate::ENABLED {
            static __OBS_C: ::std::sync::OnceLock<$crate::CounterHandle> =
                ::std::sync::OnceLock::new();
            __OBS_C.get_or_init(|| $crate::counter($name)).add($n);
        }
    }};
}

/// Adjust a named gauge by a signed delta:
/// `orchestra_obs::gauge!("net.breaker.open", -1)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $n:expr) => {{
        if $crate::ENABLED {
            static __OBS_G: ::std::sync::OnceLock<$crate::GaugeHandle> =
                ::std::sync::OnceLock::new();
            __OBS_G.get_or_init(|| $crate::gauge($name)).add($n);
        }
    }};
}

/// Record one observation (microseconds) into a named histogram:
/// `orchestra_obs::histogram!("store.wal.fsync_micros", micros)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $v:expr) => {{
        if $crate::ENABLED {
            static __OBS_H: ::std::sync::OnceLock<$crate::HistogramHandle> =
                ::std::sync::OnceLock::new();
            __OBS_H.get_or_init(|| $crate::histogram($name)).record($v);
        }
    }};
}

/// Evaluate an expression, recording its wall-clock duration into a
/// named histogram. With the layer disabled (either switch) this is
/// exactly the expression — no `Instant` is taken.
#[macro_export]
macro_rules! time_histogram {
    ($name:expr, $body:expr) => {{
        if $crate::ENABLED && $crate::runtime_enabled() {
            let __obs_t = ::std::time::Instant::now();
            let __obs_r = $body;
            $crate::histogram!($name, __obs_t.elapsed().as_micros() as u64);
            __obs_r
        } else {
            $body
        }
    }};
}

/// Open a span: `let _span = span!("reconcile.page", peer, epoch);`.
/// Attributes are `ident` (captured via `Display`) or `ident = expr`.
/// The span records on guard drop; when the layer is disabled the
/// attribute expressions are never formatted.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident $(= $v:expr)?)* $(,)?) => {
        if $crate::ENABLED && $crate::runtime_enabled() {
            $crate::span_start(
                $name,
                vec![$((stringify!($k), $crate::__attr_value!($k $(= $v)?))),*],
            )
        } else {
            $crate::SpanGuard::inert()
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __attr_value {
    ($k:ident) => {
        format!("{}", $k)
    };
    ($k:ident = $v:expr) => {
        format!("{}", $v)
    };
}

/// Tests that depend on the runtime switch being on (span/histogram
/// recording) serialise against the one test that turns it off — the
/// switch is process-global and the harness runs tests in parallel.
#[cfg(test)]
pub(crate) fn test_runtime_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    set_runtime_enabled(true);
    g
}

#[cfg(all(test, not(feature = "off")))]
mod tests {
    #[test]
    fn macros_compile_and_count() {
        let _g = crate::test_runtime_guard();
        crate::counter!("test.macros.c", 2);
        crate::counter!("test.macros.c", 1);
        crate::gauge!("test.macros.g", 5);
        crate::gauge!("test.macros.g", -2);
        crate::histogram!("test.macros.h", 17);
        let r = crate::time_histogram!("test.macros.th", 1 + 1);
        assert_eq!(r, 2);
        {
            let peer = "p1";
            let _span = crate::span!("test.macros.span", peer, epoch = 9);
        }
        let snap = crate::snapshot_filtered("test.macros.");
        assert_eq!(
            snap.counters,
            vec![("test.macros.c".to_string(), 3)],
            "counter! accumulates into one registry entry"
        );
        assert_eq!(snap.gauges, vec![("test.macros.g".to_string(), 3)]);
        let hist_names: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(hist_names, vec!["test.macros.h", "test.macros.th"]);
        let span = snap
            .spans
            .iter()
            .find(|s| s.name == "test.macros.span")
            .cloned()
            .unwrap_or_default();
        assert_eq!(
            span.attrs,
            vec![
                ("peer".to_string(), "p1".to_string()),
                ("epoch".to_string(), "9".to_string()),
            ]
        );
    }

    #[test]
    fn runtime_switch_stops_spans_and_histograms() {
        let _g = crate::test_runtime_guard();
        crate::set_runtime_enabled(false);
        {
            let _s = crate::span!("test.rtswitch.span");
        }
        crate::histogram!("test.rtswitch.h", 5);
        crate::counter!("test.rtswitch.c", 1);
        crate::set_runtime_enabled(true);
        let snap = crate::snapshot_filtered("test.rtswitch.");
        assert!(snap.spans.is_empty(), "runtime-off must drop spans");
        let h = snap.histograms.iter().find(|h| h.name == "test.rtswitch.h");
        assert_eq!(h.map(|h| h.count), Some(0));
        assert_eq!(snap.counters, vec![("test.rtswitch.c".to_string(), 1)]);
        crate::set_runtime_enabled(true);
    }
}

#[cfg(all(test, feature = "off"))]
mod off_tests {
    /// With the `off` feature the registry is inert but handles keep
    /// their local cell, so migrated stat-struct getters still work.
    #[test]
    fn off_mode_keeps_local_cells_and_empty_snapshots() {
        assert!(!crate::ENABLED);
        let c = crate::counter("store.published");
        c.add(3);
        assert_eq!(c.get(), 3);
        let g = crate::gauge("net.breaker.open");
        g.add(2);
        g.sub(1);
        assert_eq!(g.get(), 1);
        crate::histogram("x").record(5);
        crate::counter!("x.c", 1);
        crate::gauge!("x.g", 1);
        crate::histogram!("x.h", 1);
        assert_eq!(crate::time_histogram!("x.th", 21 * 2), 42);
        {
            let _span = crate::span!("x.span", attr = 1);
        }
        let t = crate::trace_mint();
        assert_eq!(t.id, 0);
        assert_eq!(crate::trace_current(), 0);
        drop(t);
        let snap = crate::snapshot();
        assert_eq!(snap, crate::ObsSnapshot::default());
        assert_eq!(crate::snapshot_filtered("x").counters.len(), 0);
    }
}
