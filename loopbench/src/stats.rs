//! Order statistics for latency samples: nearest-rank percentiles, the
//! "highest percentile with at least ten samples beyond it" tail rule,
//! and the quartile spread the repeatability check uses.

/// The `q`-quantile (0 ≤ q ≤ 1) of already **sorted** samples, linearly
/// interpolated between the two nearest ranks. `None` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// The tail a sample count can support: the highest of the usual
/// percentiles (p99.9, p99, p95, p90, p75) that still has at least ten
/// samples beyond it. `None` when even p75 does not (fewer than 40
/// samples): a tail read off fewer than ten points is one outlier's value.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per mille, in integers: 100 * (1.0 - 0.9) is 9.999… in floats.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 1000.0)
}

/// Median, sample count and supported tail of one latency series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` of the supported tail, if any.
    pub tail: Option<(f64, f64)>,
}

/// Summarize a latency series (`None` when there are no samples).
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = quantile_sorted(&v, 0.5)?;
    let tail = tail_percentile(v.len()).and_then(|p| Some((p, quantile_sorted(&v, p)?)));
    Some(Summary {
        n: v.len(),
        p50,
        tail,
    })
}

/// First and third quartile by the "exclusive" method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, which is what the driver
/// computes spreads with. Needs at least two samples.
pub fn quartiles_exclusive(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| -> f64 {
        // Cut point i of 4 over n samples: position i*(n+1)/4, 1-based.
        let num = i * (n + 1);
        let j = (num / 4).clamp(1, n - 1);
        let delta = num as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles_exclusive(samples)?;
    let m = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_hand_made_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile_sorted(&v, 0.0), Some(10.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.25), Some(20.0));
        assert_eq!(quantile_sorted(&v, 0.9), Some(46.0));
    }

    #[test]
    fn tail_rank_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 0.90);
        assert!((v - 90.1).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles_exclusive(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 12.0))
        );
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
