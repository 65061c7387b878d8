//! Order statistics for the benchmark's reported figures.
//!
//! Timings are reported as a median plus the *tail percentile*: the
//! highest percentile that still has at least [`TAIL_SAMPLES`] samples
//! beyond it, so a tail figure is never read off one or two outliers.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Value at quantile `q` in `[0, 1]` of `sorted` (nearest rank, so every
/// reported value is one that was actually measured).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = nearest_rank(q.clamp(0.0, 1.0) * sorted.len() as f64);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` (NaN-free by construction of the callers).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// `ceil(x)`, forgiving the rounding error of `p / 100 * n` (99.9 % of
/// 10 000 must be rank 9990, not 9991).
fn nearest_rank(x: f64) -> usize {
    (x - 1e-9).ceil().max(0.0) as usize
}

/// Samples strictly above the `p`-th percentile under nearest rank.
fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(p / 100.0 * n as f64).clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_SAMPLES`] samples beyond it among `n` samples, or `None` when
/// even the lowest rung has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_SAMPLES)
}

/// Median, the tail percentile chosen by [`tail_percentile`], and the
/// sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// The tail percentile the sample count supports (`None`: too few).
    pub tail_pct: Option<f64>,
    /// Sample count.
    pub n: usize,
}

/// Summarizes `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        p50: median(values),
        tail_pct: tail_percentile(values.len()),
        n: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None); // p75 leaves 9 beyond
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0)); // p99 leaves 9
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_picks_measured_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail_pct, s.n), (2.0, None, 3));
    }
}
