//! `loopbench` — the repo benchmark: the update-exchange loop
//! (publish → archive → fetch → translate → reconcile → apply) on six
//! named workloads, as a closed loop with one client, with per-layer
//! attribution measured from outside the program. See `README.md`.

mod gen;
mod repeat;
mod replay;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use report::{Outcome, END_TO_END, PER_LAYER};
use run::{Config, Counters, Recorder, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The six workloads; later issues cite these names.
pub const WORKLOADS: [&str; 6] = [
    "steady-chain",
    "bulk-durable",
    "bio-join",
    "conflict-star",
    "wire-chain",
    "mesh-converge",
];

/// Recorded default seed (the paper's SIGMOD 2007 date).
const DEFAULT_SEED: u64 = 20070612;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;
/// `setup_s` is the mean of several set-ups: at least this many, and more
/// of a cheap one (until they add up to `SETUP_BUDGET_S`), because a
/// set-up of tens of milliseconds — `wire-chain`'s, whose connect may
/// wait out a server poll tick — is mostly jitter when timed three times.
const SETUP_REPEATS_MIN: usize = 3;
const SETUP_REPEATS_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub check_repeat: bool,
    pub runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        check_repeat: false,
        runs: 10,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => a.traced = value()? == "1",
            "--smoke" => a.smoke = true,
            "--check-repeat" => a.check_repeat = true,
            "--runs" => a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if w != "all" && !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (one of: {}, all)",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(a)
}

/// Scratch space next to the executable: always inside the build
/// directory, so inside the checkout and ignored by git. Trace files are
/// left here; per-run scratch below it is removed when the run ends.
fn work_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let root = exe
        .parent()
        .expect("executable lives in a directory")
        .join("loopbench-work");
    std::fs::create_dir_all(&root).expect("create scratch directory");
    root
}

/// Every this-many-th cycle of a traced run's timed section runs with
/// tracing off and is not measured: the interleaved reference the
/// tracing overhead is read against (interleaved, because latencies
/// drift as the archive grows, so a reference taken earlier would be
/// faster for that reason alone).
const REFERENCE_EVERY: usize = 4;

/// One run of one workload: set up (several times), warm up, measure for
/// `seconds`, check outputs, and — traced — attribute the time to layers.
pub fn execute(workload: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Outcome {
    let tracer: Option<Arc<Tracer>> = traced.then(Tracer::new);
    let root = work_root();
    let dir = root.join(format!("{workload}-{}", std::process::id()));
    let mut cfg = Config {
        seed,
        shrink: if smoke { 50 } else { 1 },
        work_dir: dir.clone(),
        tracer: tracer.clone(),
    };

    // Set-up, repeated so `setup_s` is steady; the last one is kept.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut built: Option<(Box<dyn Workload>, Recorder)> = None;
    loop {
        drop(built.take());
        cfg.work_dir = dir.join(format!("setup-{}", setup_s.len()));
        std::fs::create_dir_all(&cfg.work_dir).expect("create scratch directory");
        let mut rec = Recorder::new(tracer.clone());
        let t0 = Instant::now();
        let w = workloads::build(workload, &cfg, &mut rec);
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((w, rec));
        let n = setup_s.len();
        let enough = n >= SETUP_REPEATS_MIN && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if smoke || enough || n == SETUP_REPEATS_MAX {
            break;
        }
    }
    let (mut w, mut rec) = built.expect("at least one set-up");

    // Warm-up: a tenth of the run (at least one cycle), not measured.
    let measure = Duration::from_secs_f64(seconds);
    let warm = Instant::now();
    loop {
        w.cycle(&mut rec);
        if warm.elapsed() >= measure.mul_f64(0.1) {
            break;
        }
    }

    // The timed section. `wall_s` is the time inside measured cycles.
    let mut cycle_ms: Vec<f64> = Vec::new();
    let mut reference_ms: Vec<f64> = Vec::new();
    let mut reference_counts = Counters::default();
    let before = w.counters();
    let start = Instant::now();
    for i in 0.. {
        let measured = !traced || i % REFERENCE_EVERY != REFERENCE_EVERY - 1;
        rec.on = measured;
        if let Some(t) = &tracer {
            t.set_enabled(measured);
            t.set_op(i as u64);
        }
        let c0 = (!measured).then(|| w.counters());
        let t0 = Instant::now();
        w.cycle(&mut rec);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match c0 {
            None => cycle_ms.push(ms),
            Some(c0) => {
                reference_ms.push(ms);
                reference_counts.add(&w.counters().since(&c0));
            }
        }
        if start.elapsed() >= measure {
            break;
        }
    }
    rec.on = false;
    if let Some(t) = &tracer {
        t.set_enabled(false);
    }
    let wall_s = cycle_ms.iter().sum::<f64>() / 1e3;
    let counters = w.counters().since(&before).since(&reference_counts);

    let op_hash = w.op_hash();
    let finish = w.finish(&mut rec);
    let outcome = report::assemble(report::RunData {
        workload,
        seed,
        traced,
        wall_s,
        setup_s,
        cycle_ms,
        reference_ms,
        counters,
        op_hash,
        rec,
        finish,
        tracer,
        trace_path: root.join(format!("trace-{workload}.json")),
    });
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn usage() -> String {
    format!(
        "usage: loopbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      loopbench --check-repeat [--runs N] [--seconds S] [--seed N]\n\
         workloads: {}\n\
         end-to-end metrics (--trace 0): {}\n\
         per-layer metrics (--trace 1): {} of them, see README.md",
        WORKLOADS.join(", "),
        END_TO_END
            .iter()
            .map(|m| m.name)
            .collect::<Vec<_>>()
            .join(", "),
        PER_LAYER.len()
    )
}

fn main() -> ExitCode {
    // The engines are pinned to one thread by the builders; make sure an
    // inherited override cannot unpin a default-built one.
    std::env::remove_var("ORCHESTRA_EVAL_THREADS");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.check_repeat {
        return repeat::check_repeat(&args);
    }
    let Some(workload) = args.workload.clone() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    // `all` runs every workload untraced and then traced; a single
    // workload runs once, in the mode `--trace` names.
    let modes: &[bool] = if workload == "all" {
        &[false, true]
    } else if args.traced {
        &[true]
    } else {
        &[false]
    };
    let mut ok = true;
    for name in names {
        for &traced in modes {
            let outcome = execute(name, args.seed, args.seconds, traced, args.smoke);
            print!("{}", outcome.text);
            println!("{}", outcome.json);
            ok &= outcome.correct;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke`: every workload at ~1/50 size, both modes, in seconds —
    /// and the JSON each emits names exactly the metrics `BENCHMARK.json`
    /// declares.
    #[test]
    fn smoke_runs_every_workload_and_matches_benchmark_json() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        for w in WORKLOADS {
            assert!(
                manifest.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
        let declared = |section: &str, next: &str| -> Vec<String> {
            let from = manifest.find(section).expect("section present");
            let to = manifest[from..]
                .find(next)
                .map_or(manifest.len(), |i| from + i);
            manifest[from..to]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let e2e = declared("\"end_to_end\"", "\"per_layer\"");
        let layers = declared("\"per_layer\"", "\u{0}");
        assert_eq!(e2e, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(layers, PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());

        let t0 = Instant::now();
        for w in WORKLOADS {
            for traced in [false, true] {
                let o = execute(w, DEFAULT_SEED, 0.15, traced, true);
                assert!(o.correct, "{w} (traced={traced}) failed:\n{}", o.text);
                let expect = if traced { &layers } else { &e2e };
                for name in expect {
                    let v = repeat::metric_value(&o.json, name)
                        .unwrap_or_else(|| panic!("{w}: metric {name} missing in {}", o.json));
                    assert!(v.is_finite(), "{w}: {name} = {v}");
                    if !traced {
                        assert!(v > 0.0, "{w}: end-to-end metric {name} must never be 0");
                    }
                }
                let emitted = o.json.matches("\"value\"").count();
                assert_eq!(emitted, expect.len(), "{w}: exactly the declared metrics");
            }
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "smoke took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn arguments_of_the_driver_contract_parse() {
        let argv: Vec<String> = "--workload bio-join --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("bio-join"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 3.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
    }
}
