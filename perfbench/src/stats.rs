//! Summaries of timing samples, on the workspace's one nearest-rank
//! percentile definition (`qla_core::stats`).

use qla_core::stats::percentile_f64;

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported: a tail read off fewer samples is one outlier, not a tail.
pub const MIN_BEYOND_TAIL: usize = 10;

/// A sorted copy of `samples`.
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The nearest-rank median (`None` for no samples).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| percentile_f64(&sorted(samples), 50.0))
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile (rank `⌈p/100 · n⌉`, as in `percentile_f64`).
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The nearest-rank `p`-th percentile, if at least [`MIN_BEYOND_TAIL`]
/// samples lie beyond it; `None` when the sample is too small to have that
/// tail.
#[must_use]
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    supported_percentile_sorted(&sorted(samples), p)
}

/// [`supported_percentile`] of an ascending-sorted sample, without copying it.
#[must_use]
pub fn supported_percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0 && beyond(n, p) >= MIN_BEYOND_TAIL).then(|| percentile_f64(sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beyond_counts_samples_past_the_nearest_rank() {
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1_000, 99.0), 10);
        assert_eq!(beyond(1_001, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(1, 50.0), 0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let samples = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // p99 of 1_000 samples leaves exactly 10 beyond it; of 999, only 9.
        assert_eq!(supported_percentile(&samples(1_000), 99.0), Some(990.0));
        assert_eq!(supported_percentile(&samples(999), 99.0), None);
        // p90 needs 100 samples.
        assert_eq!(supported_percentile(&samples(100), 90.0), Some(90.0));
        assert_eq!(supported_percentile(&samples(99), 90.0), None);
        // The median of a small sample is always available as a median,
        // but not as a tail.
        assert_eq!(supported_percentile(&samples(19), 50.0), None);
        assert_eq!(supported_percentile(&samples(20), 50.0), Some(10.0));
        assert_eq!(supported_percentile(&[], 50.0), None);
        // Unsorted input is sorted first.
        let mut shuffled = samples(1_000);
        shuffled.reverse();
        assert_eq!(supported_percentile(&shuffled, 99.0), Some(990.0));
    }

    #[test]
    fn median_is_the_nearest_rank_median_of_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
