//! Workload generators and measurement helpers for the `experiments`
//! table printer (its module doc lists the experiments).
//!
//! One module per experiment family. Everything is deterministic given a
//! seed.

pub mod fault_cluster;
pub mod json;
pub mod mesh_cluster;
pub mod workloads;

pub use workloads::*;

use std::time::{Duration, Instant};

/// Run `f` once and return (result, wall time).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds with two decimals, for table printing.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Format a ratio with two decimals (guarding zero denominators).
pub fn ratio(num: Duration, den: Duration) -> String {
    if den.as_nanos() == 0 {
        return "inf".into();
    }
    format!("{:.2}", num.as_secs_f64() / den.as_secs_f64())
}
