//! Service-level reporting: TTFT/TPOT percentiles and SLO attainment.

use crate::sim::RequestRecord;
use serde::{Deserialize, Serialize};

/// The outcome of one serving simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Requests that arrived.
    pub arrivals: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Re-queue events: times any request was put back in the queue
    /// after a crash-class fault destroyed its node's KV state.
    pub retries: u64,
    /// Requests abandoned after exhausting the retry budget. The
    /// simulator maintains `completed + aborted == arrivals`.
    pub aborted: usize,
    /// Fraction of the makespan the node was serving rather than down
    /// (1.0 in fault-free runs).
    pub availability: f64,
    /// Wall time to drain the trace, seconds.
    pub makespan_s: f64,
    /// Generated tokens per second over the makespan.
    pub goodput_tps: f64,
    /// Deepest the admission queue ever got, in requests — the signal an
    /// admission controller sheds on.
    pub queue_depth_peak: usize,
    /// Mean queue wait (enqueue → admission) across admissions, seconds.
    pub queue_wait_mean_s: f64,
    /// 99th-percentile queue wait across admissions, seconds.
    pub queue_wait_p99_s: f64,
    /// Median time to first token, seconds.
    pub ttft_p50_s: f64,
    /// 95th-percentile time to first token, seconds.
    pub ttft_p95_s: f64,
    /// Median time per output token, seconds.
    pub tpot_p50_s: f64,
    /// 95th-percentile time per output token, seconds.
    pub tpot_p95_s: f64,
    /// Sequences evicted from the running batch on KV-pool pressure
    /// (both paged policies; zero under conservative reservation).
    pub preemptions: u64,
    /// KV bytes paged out of protected memory by swap-policy evictions.
    pub swap_out_bytes: f64,
    /// KV bytes paged back into protected memory on readmission.
    pub swap_in_bytes: f64,
    /// Per-request records (sorted by id).
    pub records: Vec<RequestRecord>,
}

/// An SLO: bounds on first-token and per-token latency.
///
/// The paper's reading-speed standard (200 ms/word, Section III-D) is the
/// natural TPOT bound for interactive use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Slo {
    /// Maximum acceptable time to first token, seconds.
    pub ttft_s: f64,
    /// Maximum acceptable time per output token, seconds.
    pub tpot_s: f64,
}

impl Slo {
    /// Interactive chat: 2 s to first token, reading speed per token.
    #[must_use]
    pub fn interactive() -> Self {
        Slo {
            ttft_s: 2.0,
            tpot_s: 0.2,
        }
    }
}

impl ServingReport {
    /// Fraction of *completed* requests meeting the SLO.
    ///
    /// Edge cases are explicit: an empty record set attains `0.0` (there
    /// is nothing to credit), a single record attains exactly `0.0` or
    /// `1.0`, and the result is always finite.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn slo_attainment(&self, slo: Slo) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.slo_ok_count(slo) as f64 / self.records.len() as f64
    }

    /// Degraded-mode SLO attainment: fraction of *arrivals* (not just
    /// completions) that met the SLO. Aborted requests count as misses,
    /// so a platform cannot improve its score by shedding load. Zero
    /// arrivals attain `0.0`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn degraded_slo_attainment(&self, slo: Slo) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        self.slo_ok_count(slo) as f64 / self.arrivals as f64
    }

    fn slo_ok_count(&self, slo: Slo) -> usize {
        self.records
            .iter()
            .filter(|r| r.ttft_s <= slo.ttft_s && r.tpot_s <= slo.tpot_s)
            .count()
    }
}

/// Percentile by linear interpolation over an unsorted sample.
///
/// Edge cases are explicit: an empty sample returns `NaN` (report
/// builders that need a finite placeholder use [`percentile_or_zero`]),
/// a single-element sample returns that element for every `q`, and
/// finite inputs always produce a finite interpolated value.
///
/// # Panics
///
/// Panics if any sample is `NaN` (latencies are never NaN by
/// construction).
#[must_use]
pub fn percentile_of(samples: &[f64], q: f64) -> f64 {
    cllm_perf::stats::percentile(&sorted(samples.to_vec()), q)
}

/// `samples` sorted ascending, for [`percentile_or_zero`].
///
/// # Panics
///
/// Panics if any sample is `NaN` (latencies are never NaN by
/// construction).
#[must_use]
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    // infallible: latencies are differences of finite sim clocks
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    samples
}

/// Fraction of `makespan_s` a node spent up: `1 - downtime / makespan`,
/// clamped to `[0, 1]`; `1.0` for an empty run.
#[must_use]
pub fn availability(downtime_s: f64, makespan_s: f64) -> f64 {
    if makespan_s > 0.0 {
        (1.0 - downtime_s / makespan_s).clamp(0.0, 1.0)
    } else {
        1.0
    }
}

/// Delivered tokens per second over the makespan; `0.0` when nothing
/// completed.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn goodput_tps(tokens: u64, completed: usize, makespan_s: f64) -> f64 {
    if completed == 0 {
        0.0
    } else {
        tokens as f64 / makespan_s.max(1e-9)
    }
}

/// Percentile over an **already ascending-sorted** sample, `0.0` when
/// it is empty: the placeholder every serving report publishes for a
/// run with nothing to measure. Report builders sort each latency
/// vector once and call this per quantile; for any non-empty sorted `v`
/// it equals [`percentile_of`] bit for bit.
#[must_use]
pub fn percentile_or_zero(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        cllm_perf::stats::percentile(sorted, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, ttft: f64, tpot: f64) -> RequestRecord {
        RequestRecord {
            id,
            ttft_s: ttft,
            tpot_s: tpot,
            e2e_s: ttft + tpot * 10.0,
            retries: 0,
        }
    }

    fn report(records: Vec<RequestRecord>) -> ServingReport {
        ServingReport {
            arrivals: records.len(),
            completed: records.len(),
            retries: 0,
            aborted: 0,
            availability: 1.0,
            makespan_s: 10.0,
            goodput_tps: 100.0,
            queue_depth_peak: 0,
            queue_wait_mean_s: 0.0,
            queue_wait_p99_s: 0.0,
            ttft_p50_s: 0.0,
            ttft_p95_s: 0.0,
            tpot_p50_s: 0.0,
            tpot_p95_s: 0.0,
            preemptions: 0,
            swap_out_bytes: 0.0,
            swap_in_bytes: 0.0,
            records,
        }
    }

    #[test]
    fn attainment_counts_both_bounds() {
        let r = report(vec![
            record(0, 1.0, 0.05),  // ok
            record(1, 3.0, 0.05),  // ttft violated
            record(2, 1.0, 0.50),  // tpot violated
            record(3, 0.5, 0.199), // ok
        ]);
        let a = r.slo_attainment(Slo::interactive());
        assert!((a - 0.5).abs() < 1e-12, "attainment {a}");
    }

    #[test]
    fn empty_report_attains_nothing() {
        assert_eq!(report(vec![]).slo_attainment(Slo::interactive()), 0.0);
    }

    #[test]
    fn percentile_helper_sorts() {
        let p = percentile_of(&[3.0, 1.0, 2.0], 0.5);
        assert!((p - 2.0).abs() < 1e-12);
        assert!(percentile_of(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_or_zero_matches_percentile_of_bit_for_bit() {
        let unsorted = [3.0, 1.0, 7.5, 2.0, 2.0, 9.0, 0.25];
        let mut sorted = unsorted.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for q in [0.0, 0.05, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let a = percentile_of(&unsorted, q);
            let b = percentile_or_zero(&sorted, q);
            assert_eq!(a.to_bits(), b.to_bits(), "q={q}: {a} vs {b}");
        }
        assert_eq!(percentile_or_zero(&[], 0.5).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn percentile_single_sample_is_that_sample() {
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert!((percentile_of(&[4.2], q) - 4.2).abs() < 1e-12, "q={q}");
        }
    }

    #[test]
    fn percentile_finite_inputs_stay_finite() {
        let samples = [0.1, 5.0, 2.5, 0.0, 9.9];
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let p = percentile_of(&samples, q);
            assert!(p.is_finite(), "q={q} gave {p}");
            assert!((0.0..=9.9).contains(&p), "q={q} gave {p}");
        }
    }

    #[test]
    fn single_record_attainment_is_all_or_nothing() {
        let ok = report(vec![record(0, 0.5, 0.05)]);
        let bad = report(vec![record(0, 5.0, 0.05)]);
        assert_eq!(ok.slo_attainment(Slo::interactive()), 1.0);
        assert_eq!(bad.slo_attainment(Slo::interactive()), 0.0);
    }

    #[test]
    fn degraded_attainment_charges_aborts() {
        // 2 completed (1 in SLO), 2 aborted, 4 arrivals.
        let mut r = report(vec![record(0, 0.5, 0.05), record(1, 9.0, 0.05)]);
        r.arrivals = 4;
        r.aborted = 2;
        let slo = Slo::interactive();
        assert!((r.slo_attainment(slo) - 0.5).abs() < 1e-12);
        assert!((r.degraded_slo_attainment(slo) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degraded_attainment_empty_is_zero() {
        let mut r = report(vec![]);
        assert_eq!(r.degraded_slo_attainment(Slo::interactive()), 0.0);
        r.arrivals = 0;
        assert_eq!(r.slo_attainment(Slo::interactive()), 0.0);
    }
}
