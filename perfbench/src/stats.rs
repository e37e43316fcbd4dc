//! The benchmark's one quantile routine and its run-to-run spread.
//!
//! Percentiles come from raw samples, never from log2 histograms, and a
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it — a p99 of 40 probes is the slowest probe, not a p99.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Linear interpolation between closest ranks (Hyndman–Fan type 7) of
/// `sorted`, which must be sorted ascending and non-empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

/// Samples that rank strictly after the `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The `q` quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// Median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, 0.5))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), so the spread printed here is the
/// spread a reader recomputes from the same values. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread a bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Samples in one window of [`windowed`]: the fewest that leave
/// [`MIN_BEYOND`] beyond a p99.
pub const WINDOW: usize = 1000;

/// The median, over consecutive windows of [`WINDOW`] samples in the
/// order recorded, of each window's `q` quantile; `None` without one full
/// window. A few seconds in which the host stalls the benchmark move the
/// tail of their own windows only, so this reads the tail the program
/// gives rather than the worst stretch of the run. A last partial window
/// is left out.
pub fn windowed(samples: &[f64], q: f64) -> Option<f64> {
    let tails: Vec<f64> = samples
        .chunks_exact(WINDOW)
        .filter_map(|w| percentile(w, q))
        .collect();
    median(&tails)
}

/// Latency summary of one phase: count, median and p99, each reported
/// only when the sample supports it. The p99 is [`windowed`].
#[derive(Clone, Debug, PartialEq)]
pub struct Latency {
    pub count: usize,
    pub p50: Option<f64>,
    pub p99: Option<f64>,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Self {
        Self {
            count: samples.len(),
            p50: percentile(samples, 0.5),
            p99: windowed(samples, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type7_quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert!((quantile_sorted(&s, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(40, 0.99), 0);
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.99), None);
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&big, 0.99).unwrap();
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
        assert_eq!(percentile(&[1.0; 19], 0.5), None);
        assert_eq!(percentile(&[1.0; 20], 0.5), Some(1.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = percentile(&v, 0.99);
        v.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&v, 0.99));
        assert_eq!(median(&v), Some(999.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), Some([0.0, 3.0, 6.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0; 10]), Some(0.0));
        assert_eq!(spread(&[0.0; 4]), None);
    }

    #[test]
    fn windowed_tail_is_the_median_window_tail() {
        // Three windows whose p99s are 989.01, 1989.01 and 2989.01; a
        // partial fourth window is left out.
        let v: Vec<f64> = (0..3500).map(f64::from).collect();
        let p = windowed(&v, 0.99).unwrap();
        assert!((p - 1989.01).abs() < 1e-9, "{p}");
        // A stall in one window of five leaves the result alone.
        let mut w = vec![1.0; 5 * WINDOW];
        w[..50].iter_mut().for_each(|x| *x = 100.0);
        assert_eq!(windowed(&w, 0.99), Some(1.0));
        assert_eq!(windowed(&w[..WINDOW - 1], 0.99), None);
    }

    #[test]
    fn latency_summary_reports_counts_and_withholds_thin_tails() {
        let l = Latency::of(&[1.0; 500]);
        assert_eq!(l.count, 500);
        assert_eq!(l.p50, Some(1.0));
        assert_eq!(l.p99, None);
    }
}
