//! Sample summaries (medians, percentiles, the tail rule)
//! and the stratified length draws of the workloads.

use cllm_workload::trace::LognormalLen;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Percentiles the tail rule may choose from, in tenths of a percent,
/// highest first.
const TAILS: [u32; 3] = [999, 990, 900];

/// Percentile of `samples` (`per_mille` in tenths of a percent, so 500
/// is the median and 990 is p99), interpolated between ranks as
/// `cllm_perf::stats::percentile` does. Sorts a copy.
///
/// Returns 0.0 for an empty sample.
#[must_use]
pub fn percentile(samples: &[f64], per_mille: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    cllm_perf::stats::percentile(&sorted, f64::from(per_mille) / 1000.0)
}

/// Median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 500)
}

/// 1-based nearest rank of the `per_mille` percentile in `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).clamp(1, n)
}

/// Samples that lie beyond the `per_mille` percentile of `n` samples.
#[must_use]
pub fn beyond(n: usize, per_mille: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, per_mille)
    }
}

/// The highest tail percentile (per mille) that has at least ten samples
/// beyond it, or `None` when `n` is too small for any of p90/p99/p99.9.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAILS.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// Label for a per-mille percentile: `p90`, `p99`, `p99.9`.
#[must_use]
pub fn label(per_mille: u32) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

/// Draws behind each length mix, from a fixed seed.
const MIX_DRAWS: usize = 4096;
const MIX_SEED: u64 = 0x1E46_7415;

/// A length mix of `k` lengths, shortest first: the midpoints of `k`
/// equal slices of a fixed-seed sample of `len`, so length `i` sits near
/// the `(i + 0.5) / k` quantile.
///
/// Drawing the whole mix per block of `k` gives every block the same
/// lengths, so a run's latency percentiles do not swing with the few
/// lengths a short run happens to draw.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn strata(len: &LognormalLen, k: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(MIX_SEED);
    let mut draws: Vec<u64> = (0..MIX_DRAWS).map(|_| len.sample(&mut rng)).collect();
    draws.sort_unstable();
    (0..k)
        .map(|i| draws[(2 * i + 1) * MIX_DRAWS / (2 * k)] as usize)
        .collect()
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = usize::try_from(rng.random::<u64>() % (i as u64 + 1)).expect("index fits usize");
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_follow_the_lognormal_quantiles() {
        let len = LognormalLen {
            mu_ln: 48f64.ln(),
            sigma_ln: 0.5,
            min_tokens: 8,
            max_tokens: 160,
        };
        let s = strata(&len, 8);
        assert_eq!(s.len(), 8);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "{s:?}");
        assert!(s[3] < 48 && s[4] > 48, "{s:?}");
        let mut v: Vec<usize> = (0..10).collect();
        shuffle(&mut v, &mut StdRng::seed_from_u64(1));
        let mut w: Vec<usize> = (0..10).collect();
        shuffle(&mut w, &mut StdRng::seed_from_u64(1));
        assert_eq!(v, w);
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn percentiles_of_unsorted_samples() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert!((median(&v) - 50.5).abs() < 1e-12);
        assert!((percentile(&v, 900) - 90.1).abs() < 1e-9);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 500), 2.0);
        assert_eq!(percentile(&[], 500), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(tail_percentile(999), Some(900));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(9_999), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        assert_eq!(label(990), "p99");
        assert_eq!(label(999), "p99.9");
    }
}
