//! # orchestra-obs
//!
//! The unified observability layer: one process-global registry of
//! counters / gauges / latency histograms plus structured span tracing
//! with cross-peer trace ids. Dependency-free and hand-rolled in the
//! `orchestra-fault` style — crates.io is unreachable from the build
//! environment, and the hot-path cost budget is "one relaxed atomic".
//!
//! The layer is always on: product stat structs are views over its
//! counter and gauge handles, so there is no switch to turn it off.
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

/// Bump a named counter through a lazily-registered static handle:
/// `orchestra_obs::counter!("mesh.round.pages_pulled", n)`. Hot-path
/// cost after the first call is one relaxed `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {{
        static __OBS_C: ::std::sync::OnceLock<$crate::CounterHandle> = ::std::sync::OnceLock::new();
        __OBS_C.get_or_init(|| $crate::counter($name)).add($n);
    }};
}

/// Adjust a named gauge by a signed delta:
/// `orchestra_obs::gauge!("engine.live_nodes", -1)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $n:expr) => {{
        static __OBS_G: ::std::sync::OnceLock<$crate::GaugeHandle> = ::std::sync::OnceLock::new();
        __OBS_G.get_or_init(|| $crate::gauge($name)).add($n);
    }};
}

/// Record one observation (microseconds) into a named histogram:
/// `orchestra_obs::histogram!("store.wal.fsync_micros", micros)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $v:expr) => {{
        static __OBS_H: ::std::sync::OnceLock<$crate::HistogramHandle> =
            ::std::sync::OnceLock::new();
        __OBS_H.get_or_init(|| $crate::histogram($name)).record($v);
    }};
}

/// Evaluate an expression, recording its wall-clock duration into a
/// named histogram.
#[macro_export]
macro_rules! time_histogram {
    ($name:expr, $body:expr) => {{
        let __obs_t = ::std::time::Instant::now();
        let __obs_r = $body;
        $crate::histogram!($name, __obs_t.elapsed().as_micros() as u64);
        __obs_r
    }};
}

/// Open a span: `let _span = span!("reconcile.page", peer, epoch);`.
/// Attributes are `ident` (captured via `Display`) or `ident = expr`.
/// The span records on guard drop.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident $(= $v:expr)?)* $(,)?) => {
        $crate::span_start(
            $name,
            vec![$((stringify!($k), $crate::__attr_value!($k $(= $v)?))),*],
        )
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

#[cfg(test)]
mod tests {
    #[test]
    fn macros_compile_and_count() {
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
}
