//! `--check-repeat`: run two full sets of the same build back to back and
//! show, per workload × end-to-end metric, how far the two medians are
//! apart and how wide each set's quartiles are, beside the metric's
//! bound. A gate that fails on identical code is worse than no gate, so
//! this is the evidence each bound in `BENCHMARK.json` rests on.

use crate::report::{MetricDef, END_TO_END};
use crate::stats::{median, spread};
use crate::{Args, WORKLOADS};
use std::process::{Command, ExitCode};

/// The value of metric `name` in one result line.
pub fn metric_value(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// One child run; returns its result line (the last line of stdout).
fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() || !last.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}\n{stdout}",
            out.status.code()
        ));
    }
    Ok(last)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative = better).
fn worsening(m: &MetricDef, first: f64, second: f64) -> f64 {
    let change = (second - first) / first;
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn check_repeat(args: &Args) -> ExitCode {
    let workloads: Vec<&str> = match args.workload.as_deref() {
        Some(w) if w != "all" => vec![w],
        _ => WORKLOADS.to_vec(),
    };
    println!(
        "check-repeat: 2 sets x {} runs x {} workloads, {} s each, seeds {}..{}",
        args.runs,
        workloads.len(),
        args.seconds,
        args.seed,
        args.seed + args.runs as u64 - 1
    );
    // sets[set][workload][metric] = the runs' values.
    let mut sets: Vec<Vec<Vec<Vec<f64>>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for w in &workloads {
            let mut per_metric = vec![Vec::new(); END_TO_END.len()];
            for i in 0..args.runs {
                let line = match run_child(w, args.seed + i as u64, args.seconds) {
                    Ok(line) => line,
                    Err(e) => {
                        eprintln!("check-repeat: run failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                for (m, values) in END_TO_END.iter().zip(per_metric.iter_mut()) {
                    match metric_value(&line, m.name) {
                        Some(v) => values.push(v),
                        None => {
                            eprintln!("check-repeat: {w}: no {} in `{line}`", m.name);
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            eprintln!("check-repeat: set {} {w} done", set + 1);
            per_workload.push(per_metric);
        }
        sets.push(per_workload);
    }

    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "worse by", "iqr 1", "iqr 2", "bound"
    );
    let mut breaches = 0;
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][wi][mi], &sets[1][wi][mi]);
            let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
            let worse = worsening(m, ma, mb);
            let (sa, sb) = (spread(a).unwrap_or(0.0), spread(b).unwrap_or(0.0));
            // The set-up spread is reported but not gated: the driver
            // gates only its median (a cold first build sits in it).
            let spread_ok = m.name == "setup_s" || sa.max(sb) <= m.bound;
            let ok = worse <= m.bound && spread_ok;
            breaches += usize::from(!ok);
            println!(
                "{w:<14} {:<22} {ma:>12.4} {mb:>12.4} {:>8.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                m.name,
                100.0 * worse,
                100.0 * sa,
                100.0 * sb,
                100.0 * m.bound,
                if ok { "ok" } else { "BREACH" }
            );
        }
    }
    if breaches == 0 {
        println!("check-repeat: every end-to-end metric holds its bound on identical code");
        ExitCode::SUCCESS
    } else {
        println!("check-repeat: {breaches} breach(es)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_parse_out_of_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"publish_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
                    \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}";
        assert_eq!(metric_value(line, "publish_p50_ms"), Some(1.2034));
        assert_eq!(metric_value(line, "setup_s"), Some(0.8127));
        assert_eq!(metric_value(line, "absent"), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END
            .iter()
            .find(|m| m.name == "publish_p50_ms")
            .unwrap();
        let higher = END_TO_END
            .iter()
            .find(|m| m.name == "exchange_tuples_per_s")
            .unwrap();
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
    }
}
