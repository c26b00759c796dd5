//! Metric names, the per-run report, and the one-line JSON result.

use crate::replay::{replay, ReplayTotals};
use crate::run::{Count, Counters, Finish, Recorder};
use crate::stats::{median, summarize, Summary};
use crate::trace::{self_times, write_spans, Layer, Span, Tracer, ROOT};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; `BENCHMARK.json` carries the same number).
    pub bound: f64,
    pub higher_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound,
        higher_is_better: higher,
    }
}

/// What a peer's owner sees; printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("exchange_tuples_per_s", "tuples/s", 0.25, true),
    e2e("publish_p50_ms", "ms", 0.25, false),
    e2e("reconcile_p50_ms", "ms", 0.25, false),
    e2e("converge_p50_ms", "ms", 0.25, false),
    e2e("setup_s", "s", 0.25, false),
];

/// Single-layer metrics as `(name, unit)`; printed with `--trace 1`. No
/// bounds.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.publish_busy_s", "s"),
    ("core.reconcile_busy_s", "s"),
    ("core.self_s", "s"),
    ("core.pages", "count"),
    ("core.applied_updates", "count"),
    ("store.publish_busy_s", "s"),
    ("store.fetch_busy_s", "s"),
    ("store.pages", "count"),
    ("store.txns_fetched", "count"),
    ("store.disk_bytes_per_user_byte", "ratio"),
    ("store.reopen_s", "s"),
    ("net.client_busy_s", "s"),
    ("net.wire_self_s", "s"),
    ("net.round_trips", "count"),
    ("net.bytes_sent", "bytes"),
    ("net.bytes_received", "bytes"),
    ("net.retries", "count"),
    ("datalog.replay_busy_s", "s"),
    ("datalog.rounds", "count"),
    ("datalog.firings", "count"),
    ("datalog.index_probes", "count"),
    ("datalog.firings_per_applied_update", "ratio"),
    ("relational.interner_symbols", "count"),
    ("reconcile.replay_busy_s", "s"),
    ("reconcile.candidates", "count"),
    ("reconcile.accepted", "count"),
    ("reconcile.deferred", "count"),
    ("reconcile.rejected", "count"),
    ("reconcile.accept_share", "ratio"),
    ("mesh.round_busy_s", "s"),
    ("mesh.rounds_to_converge", "count"),
    ("mesh.pulls", "count"),
    ("mesh.useful_pull_share", "ratio"),
    ("bench.driver_s", "s"),
    ("bench.timed_wall_s", "s"),
    ("trace_overhead_share", "ratio"),
];

/// Everything `execute` measured.
pub struct RunData<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub traced: bool,
    pub wall_s: f64,
    pub setup_s: Vec<f64>,
    pub cycle_ms: Vec<f64>,
    /// Traced runs: the interleaved cycles that ran with tracing off.
    pub reference_ms: Vec<f64>,
    pub counters: Counters,
    pub op_hash: u64,
    pub rec: Recorder,
    pub finish: Finish,
    pub tracer: Option<Arc<Tracer>>,
    pub trace_path: PathBuf,
}

/// The report of one run: human-readable lines, then the JSON line.
pub struct Outcome {
    pub text: String,
    pub json: String,
    pub correct: bool,
}

/// Busy and self seconds read off the spans of the timed section.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    pub core_publish_busy: f64,
    pub core_reconcile_busy: f64,
    pub core_self: f64,
    pub store_publish_busy: f64,
    pub store_fetch_busy: f64,
    pub store_self: f64,
    pub net_busy: f64,
    pub net_self: f64,
    pub mesh_busy: f64,
    pub mesh_self: f64,
    /// Sum of top-level span durations: wall time spent inside calls.
    pub in_calls: f64,
}

pub fn span_totals(spans: &[Span]) -> SpanTotals {
    let selfs = self_times(spans);
    let mut t = SpanTotals::default();
    for (s, own) in spans.iter().zip(selfs) {
        let busy = (s.end_ns - s.start_ns) as f64 / 1e9;
        let own = own as f64 / 1e9;
        if s.parent == ROOT {
            t.in_calls += busy;
        }
        match (s.layer, s.name) {
            (Layer::Core, name) => {
                t.core_self += own;
                match name {
                    "publish" => t.core_publish_busy += busy,
                    "reconcile" => t.core_reconcile_busy += busy,
                    _ => {}
                }
            }
            (Layer::Store, name) => {
                t.store_self += own;
                match name {
                    // `absorb` is the mesh's write path into an archive.
                    "publish" | "absorb" => t.store_publish_busy += busy,
                    _ => t.store_fetch_busy += busy,
                }
            }
            (Layer::Net, _) => {
                t.net_busy += busy;
                t.net_self += own;
            }
            (Layer::Mesh, _) => {
                t.mesh_busy += busy;
                t.mesh_self += own;
            }
        }
    }
    t
}

/// Split `core`'s self time into the replay estimates and the rest. The
/// estimates come from a separate pass, so together they can exceed the
/// time they are carved out of; then they are scaled to fit and `core`
/// keeps nothing — no share is ever negative.
pub fn carve_core(core_self: f64, replay: ReplayTotals) -> (f64, f64, f64) {
    let want = replay.datalog_s + replay.reconcile_s;
    if want <= core_self || want == 0.0 {
        return (core_self - want, replay.datalog_s, replay.reconcile_s);
    }
    let scale = core_self / want;
    (0.0, replay.datalog_s * scale, replay.reconcile_s * scale)
}

/// The declared unit of a metric (every reported metric is declared: the
/// smoke test compares the emitted names with `BENCHMARK.json`).
fn unit_of(name: &str) -> &'static str {
    let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
    e2e.chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of the last tenth of a series over the median of its first.
fn drift(samples: &[f64]) -> f64 {
    let tenth = (samples.len() / 10).max(1).min(samples.len());
    ratio(
        median(&samples[samples.len() - tenth..]).unwrap_or(0.0),
        median(&samples[..tenth]).unwrap_or(0.0),
    )
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn latency_line(out: &mut String, name: &str, tail_name: &str, s: Option<Summary>) {
    match s {
        Some(s) => {
            let _ = write!(out, "  {name:<24} = {:>12.4} ms   (n = {})", s.p50, s.n);
            match s.tail {
                Some((p, v)) => {
                    let _ = writeln!(out, "   {tail_name} = {v:.4} ms at p{}", p * 100.0);
                }
                None => {
                    let _ = writeln!(out, "   {tail_name}: too few samples for a tail");
                }
            }
        }
        None => {
            let _ = writeln!(out, "  {name:<24} = no samples");
        }
    }
}

pub fn assemble(d: RunData<'_>) -> Outcome {
    let RunData {
        workload,
        seed,
        traced,
        wall_s,
        setup_s,
        cycle_ms,
        reference_ms,
        counters,
        op_hash,
        mut rec,
        finish,
        tracer,
        trace_path,
    } = d;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== {workload}  seed {seed}  {}  timed {:.3} s  {} cycles  op_hash {op_hash:016x}",
        if traced { "traced" } else { "untraced" },
        wall_s,
        cycle_ms.len()
    );

    // Latencies rise as the archive grows; how much within this run is
    // worth seeing beside every median.
    let _ = writeln!(
        text,
        "  cycle p50 {:.4} ms; drift (median of the last tenth of samples / of the first): \
         cycle {:.2}x  publish {:.2}x  reconcile {:.2}x",
        median(&cycle_ms).unwrap_or(0.0),
        drift(&cycle_ms),
        drift(&rec.publish_ms),
        drift(&rec.reconcile_ms)
    );
    let publish = summarize(&rec.publish_ms);
    let reconcile = summarize(&rec.reconcile_ms);
    let converge = summarize(&rec.converge_ms);
    // A run without samples has nothing to report: count it as failed
    // rather than print a zero.
    rec.check(
        publish.is_some() && reconcile.is_some() && converge.is_some() && rec.applied > 0,
        || "the timed section produced no samples".to_string(),
    );
    // The mean, not the median: `wire-chain`'s set-up is bimodal (its
    // first connect either beats the acceptor's first poll or waits out a
    // 50 ms tick), and the median of a bimodal sample flips between modes.
    let setup = setup_s.iter().sum::<f64>() / setup_s.len().max(1) as f64;
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    if !traced {
        values.push(("exchange_tuples_per_s", ratio(rec.applied as f64, wall_s)));
        values.push(("publish_p50_ms", publish.map_or(0.0, |s| s.p50)));
        values.push(("reconcile_p50_ms", reconcile.map_or(0.0, |s| s.p50)));
        values.push(("converge_p50_ms", converge.map_or(0.0, |s| s.p50)));
        values.push(("setup_s", setup));
        let _ = writeln!(
            text,
            "  {:<24} = {:>12.1} tuples/s   ({} updates applied at receiving peers)",
            "exchange_tuples_per_s",
            ratio(rec.applied as f64, wall_s),
            rec.applied
        );
        latency_line(&mut text, "publish_p50_ms", "publish_tail_ms", publish);
        latency_line(
            &mut text,
            "reconcile_p50_ms",
            "reconcile_tail_ms",
            reconcile,
        );
        latency_line(&mut text, "converge_p50_ms", "converge_tail_ms", converge);
        let _ = writeln!(
            text,
            "  {:<24} = {setup:>12.4} s    (mean of {} set-ups: {:.3?})",
            "setup_s",
            setup_s.len(),
            setup_s
        );
    } else {
        let spans = tracer.as_ref().map(|t| t.take_spans()).unwrap_or_default();
        let st = span_totals(&spans);
        let replayed = finish
            .replay
            .as_ref()
            .map(|(spec, txns)| replay(spec, txns, &rec.oplog))
            .unwrap_or_default();
        let (core_self, datalog_s, reconcile_s) = carve_core(st.core_self, replayed);
        let driver_s = (wall_s - st.in_calls).max(0.0);
        let overhead = match median(&reference_ms) {
            Some(base) if base > 0.0 => median(&cycle_ms).unwrap_or(base) / base - 1.0,
            _ => 0.0,
        };
        let c = &counters;
        let decided = rec.accepted + rec.deferred + rec.rejected;
        values.extend([
            ("core.publish_busy_s", st.core_publish_busy),
            ("core.reconcile_busy_s", st.core_reconcile_busy),
            ("core.self_s", core_self),
            ("core.pages", rec.pages as f64),
            ("core.applied_updates", rec.applied as f64),
            ("store.publish_busy_s", st.store_publish_busy),
            ("store.fetch_busy_s", st.store_fetch_busy),
            ("store.pages", c.get(Count::StorePages) as f64),
            ("store.txns_fetched", c.get(Count::StoreFetched) as f64),
            (
                "store.disk_bytes_per_user_byte",
                finish.disk_bytes_per_user_byte,
            ),
            ("store.reopen_s", finish.reopen_s),
            ("net.client_busy_s", st.net_busy),
            ("net.wire_self_s", st.net_self),
            ("net.round_trips", c.get(Count::NetRoundTrips) as f64),
            ("net.bytes_sent", c.get(Count::NetBytesSent) as f64),
            ("net.bytes_received", c.get(Count::NetBytesReceived) as f64),
            ("net.retries", c.get(Count::NetRetries) as f64),
            ("datalog.replay_busy_s", datalog_s),
            ("datalog.rounds", c.get(Count::EngineRounds) as f64),
            ("datalog.firings", c.get(Count::EngineFirings) as f64),
            (
                "datalog.index_probes",
                c.get(Count::EngineIndexProbes) as f64,
            ),
            (
                "datalog.firings_per_applied_update",
                ratio(c.get(Count::EngineFirings) as f64, rec.applied as f64),
            ),
            ("relational.interner_symbols", c.interner_symbols as f64),
            ("reconcile.replay_busy_s", reconcile_s),
            ("reconcile.candidates", rec.candidates as f64),
            ("reconcile.accepted", rec.accepted as f64),
            ("reconcile.deferred", rec.deferred as f64),
            ("reconcile.rejected", rec.rejected as f64),
            (
                "reconcile.accept_share",
                ratio(rec.accepted as f64, decided as f64),
            ),
            ("mesh.round_busy_s", st.mesh_busy),
            ("mesh.rounds_to_converge", finish.rounds_to_converge),
            ("mesh.pulls", c.get(Count::MeshPulls) as f64),
            (
                "mesh.useful_pull_share",
                ratio(
                    c.get(Count::MeshAbsorbed) as f64,
                    (c.get(Count::MeshAbsorbed) + c.get(Count::MeshDuplicates)) as f64,
                ),
            ),
            ("bench.driver_s", driver_s),
            ("bench.timed_wall_s", wall_s),
            ("trace_overhead_share", overhead),
        ]);
        for (name, v) in &values {
            let _ = writeln!(text, "  {name:<36} = {v:>16.6} {}", unit_of(name));
        }
        // Self times of the span tree partition the time inside calls;
        // the driver's own time is the rest of the wall.
        let shares = [
            ("core", core_self),
            ("datalog~", datalog_s),
            ("reconcile~", reconcile_s),
            ("store", st.store_self),
            ("net", st.net_self),
            ("mesh", st.mesh_self),
            ("driver", driver_s),
        ];
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        let _ = write!(text, "  layer shares of the timed wall ({wall_s:.3} s):");
        for (name, s) in shares {
            let _ = write!(text, "  {name} {:.1}%", 100.0 * ratio(s, wall_s));
        }
        let _ = writeln!(
            text,
            "  (sum {:.1}%; ~ = replay estimate)",
            100.0 * ratio(total, wall_s)
        );
        match write_spans(&trace_path, &spans) {
            Ok(()) => {
                let _ = writeln!(
                    text,
                    "  {} spans written to {}",
                    spans.len(),
                    trace_path.display()
                );
            }
            Err(e) => {
                let _ = writeln!(text, "  could not write {}: {e}", trace_path.display());
            }
        }
    }
    let _ = writeln!(
        text,
        "  attempted {}  failed {}  failed_share {:.6}  peak_rss_mb {:.1}",
        rec.attempted,
        rec.failed,
        ratio(rec.failed as f64, rec.attempted as f64),
        peak_rss_mb()
    );
    for f in &rec.failures {
        let _ = writeln!(text, "  FAILED: {f}");
    }

    let correct = rec.failed == 0;
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.attempted.max(1),
        rec.failed,
        metrics.join(", ")
    );
    Outcome {
        text,
        json,
        correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carving_core_never_goes_negative_and_conserves_time() {
        let fits = carve_core(
            10.0,
            ReplayTotals {
                datalog_s: 4.0,
                reconcile_s: 1.0,
            },
        );
        assert_eq!(fits, (5.0, 4.0, 1.0));
        let (core, datalog, reconcile) = carve_core(
            3.0,
            ReplayTotals {
                datalog_s: 4.0,
                reconcile_s: 2.0,
            },
        );
        assert_eq!(core, 0.0);
        assert!((datalog - 2.0).abs() < 1e-12 && (reconcile - 1.0).abs() < 1e-12);
        assert!((core + datalog + reconcile - 3.0).abs() < 1e-12);
    }

    #[test]
    fn layer_self_times_and_driver_time_partition_the_wall() {
        let span = |name, layer, start_ns, end_ns, parent| Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            op: 0,
        };
        // 0..1 s publish with a 0.2 s net call wrapping a 0.05 s served
        // store call; then a 0.5 s mesh round with a 0.1 s absorb.
        let spans = [
            span("publish", Layer::Core, 0, 1_000_000_000, ROOT),
            span("publish", Layer::Net, 100_000_000, 300_000_000, 0),
            span("publish", Layer::Store, 150_000_000, 200_000_000, 1),
            span("round", Layer::Mesh, 2_000_000_000, 2_500_000_000, ROOT),
            span("absorb", Layer::Store, 2_100_000_000, 2_200_000_000, 3),
        ];
        let t = span_totals(&spans);
        assert!((t.in_calls - 1.5).abs() < 1e-9);
        assert!((t.core_self - 0.8).abs() < 1e-9);
        assert!((t.net_busy - 0.2).abs() < 1e-9 && (t.net_self - 0.15).abs() < 1e-9);
        assert!((t.store_self - 0.15).abs() < 1e-9);
        assert!((t.store_publish_busy - 0.15).abs() < 1e-9);
        assert!((t.mesh_busy - 0.5).abs() < 1e-9 && (t.mesh_self - 0.4).abs() < 1e-9);
        let in_layers = t.core_self + t.net_self + t.store_self + t.mesh_self;
        assert!((in_layers - t.in_calls).abs() < 1e-9);
    }
}
