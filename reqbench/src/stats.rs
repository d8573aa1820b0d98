//! Order statistics for latency samples.
//!
//! A tail is reported as the highest percentile on a fixed ladder that
//! still has at least [`TAIL_MIN_BEYOND`] samples strictly beyond its
//! rank: a p99 over 300 samples rests on three values and moves with
//! every outlier, so the benchmark reports a p95 there instead and says
//! so.

/// Percentiles a tail may be reported at, lowest first, in per mille
/// (integers, so ranks are exact).
pub const TAIL_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples a tail percentile needs beyond its rank.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile (`permille` in 1..=1000) of an ascending
/// sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile_sorted(sorted: &[f64], permille: usize) -> f64 {
    sorted[rank(sorted.len(), permille) - 1]
}

/// 1-based nearest rank of the `permille` quantile in a sample of `n`.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// A latency summary: median and tail of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Tail value, at percentile `tail_pct`.
    pub tail: f64,
    /// The percentile the tail was taken at: the highest on
    /// [`TAIL_LADDER`] with at least [`TAIL_MIN_BEYOND`] samples beyond
    /// it. When not even the median qualifies (fewer than 20 samples)
    /// the sample supports no tail, and the median is reported in its
    /// place with `tail_pct` 50.
    pub tail_pct: f64,
    /// Samples strictly beyond the tail's rank.
    pub beyond: usize,
    /// Largest sample.
    pub max: f64,
}

/// Summarizes a sample by the tail rule.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_pct = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(500);
    Summary {
        n,
        p50: percentile_sorted(&sorted, 500),
        tail: percentile_sorted(&sorted, tail_pct),
        tail_pct: tail_pct as f64 / 10.0,
        beyond: n - rank(n, tail_pct),
        max: sorted[n - 1],
    }
}

/// Median of a sample (nearest rank); 0 for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 500)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: summarize must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let s = summarize(&ramp(1000));
        assert_eq!((s.tail_pct, s.tail, s.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 has 9 beyond, so the tail drops to p95.
        let s = summarize(&ramp(999));
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(s.beyond, 999 - 950);
        // 10000 samples support p99.9.
        let s = summarize(&ramp(10_000));
        assert_eq!((s.tail_pct, s.beyond), (99.9, 10));
        // 200 samples: p95 leaves 10 beyond.
        let s = summarize(&ramp(200));
        assert_eq!((s.tail_pct, s.tail), (95.0, 190.0));
    }

    #[test]
    fn every_reported_tail_satisfies_the_rule() {
        for n in 20..2_500 {
            let s = summarize(&ramp(n));
            assert!(s.beyond >= TAIL_MIN_BEYOND, "n={n}: {s:?}");
            // The next percentile up would break the rule.
            if let Some(&next) = TAIL_LADDER.iter().find(|&&p| p as f64 / 10.0 > s.tail_pct) {
                assert!(
                    n - rank(n, next) < TAIL_MIN_BEYOND,
                    "n={n}: {next} qualifies"
                );
            }
        }
    }

    #[test]
    fn small_samples_report_the_median_as_their_tail() {
        let s = summarize(&ramp(19));
        assert_eq!((s.tail_pct, s.tail, s.p50), (50.0, 10.0, 10.0));
        assert!(s.beyond < TAIL_MIN_BEYOND);
        let s = summarize(&ramp(20));
        assert_eq!((s.tail_pct, s.beyond), (50.0, 10));
        let s = summarize(&[3.0]);
        assert_eq!((s.p50, s.tail, s.max, s.n), (3.0, 3.0, 3.0, 1));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
