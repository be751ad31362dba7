//! Named metrics of one run, the operation counts, and the result line.

use crate::stats::{beyond, label, tail_percentile};
use serde_json::{Number, Value};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
/// Each workload defines every one of them; see `NOTES.md`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ttft_p50_ms", "ms"),
    ("tpot_p50_ms", "ms"),
    ("out_tok_per_s", "tok/s"),
    ("req_per_s", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 71] = [
    ("ttft_p90_ms", "ms"),
    ("tpot_p99_ms", "ms"),
    ("error_rate", "fraction"),
    ("host.copy_gb_per_s", "GB/s"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("crypto.aead_open_s", "s"),
    ("crypto.aead_open_mb_per_s", "MB/s"),
    ("crypto.unseal_measured_over_modeled", "ratio"),
    ("crypto.self_s", "s"),
    ("crypto.calls", "count"),
    ("core.decrypt_model_s", "s"),
    ("core.decrypt_model_modeled_s", "s"),
    ("core.self_s", "s"),
    ("core.calls", "count"),
    ("tee.launch_ms", "ms"),
    ("tee.handshake_ms", "ms"),
    ("tee.record_seal_us_p50", "us"),
    ("tee.record_open_us_p50", "us"),
    ("tee.records", "count"),
    ("tee.record_bytes", "bytes"),
    ("tee.self_s", "s"),
    ("tee.calls", "count"),
    ("infer.parse_s", "s"),
    ("infer.quantize_s", "s"),
    ("infer.prefill_ms_p50", "ms"),
    ("infer.prefill_tok_per_s", "tok/s"),
    ("infer.decode_step_ms_p50", "ms"),
    ("infer.decode_step_ms_p99", "ms"),
    ("infer.batch_step_ms_p50", "ms"),
    ("infer.sample_us_p50", "us"),
    ("infer.kv_bytes", "bytes"),
    ("infer.prefill_tokens", "count"),
    ("infer.decode_tokens", "count"),
    ("infer.weight_gb_per_s", "GB/s"),
    ("infer.self_s", "s"),
    ("infer.calls", "count"),
    ("serve.cluster.wall_s", "s"),
    ("serve.cluster.events", "count"),
    ("serve.cluster.events_per_s", "1/s"),
    ("serve.cluster.arrivals", "count"),
    ("serve.cluster.completed", "count"),
    ("serve.cluster.aborted", "count"),
    ("serve.cluster.rejected", "count"),
    ("serve.cluster.retries", "count"),
    ("serve.cluster.invariant_ms", "ms"),
    ("serve.paged.wall_s", "s"),
    ("serve.paged.events", "count"),
    ("serve.paged.events_per_s", "1/s"),
    ("serve.paged.arrivals", "count"),
    ("serve.paged.completed", "count"),
    ("serve.paged.aborted", "count"),
    ("serve.paged.rejected", "count"),
    ("serve.paged.retries", "count"),
    ("serve.paged.preemptions", "count"),
    ("serve.paged.invariant_ms", "ms"),
    ("serve.autoscale.wall_s", "s"),
    ("serve.autoscale.events", "count"),
    ("serve.autoscale.events_per_s", "1/s"),
    ("serve.autoscale.arrivals", "count"),
    ("serve.autoscale.completed", "count"),
    ("serve.autoscale.aborted", "count"),
    ("serve.autoscale.rejected", "count"),
    ("serve.autoscale.retries", "count"),
    ("serve.autoscale.scale_ups", "count"),
    ("serve.autoscale.invariant_ms", "ms"),
    ("cluster_sim_req_per_s", "req/s"),
    ("paged_sim_req_per_s", "req/s"),
    ("autoscale_sim_req_per_s", "req/s"),
    ("serve.self_s", "s"),
    ("serve.calls", "count"),
];

/// The tail percentile (per mille) a metric name like `tpot_p99_ms`
/// reports, if any.
fn tail_of(name: &str) -> Option<u32> {
    let digits: String = name
        .rsplit("_p")
        .next()
        .filter(|_| name.contains("_p9"))?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse::<u32>().ok().map(|p| p * 10)
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, Metric>,
    /// Operations attempted: requests, sequences or simulation phases.
    pub attempted: u64,
    /// Operations that failed, including failed output checks.
    pub failed: u64,
    /// Lines explaining each failure.
    pub failures: Vec<String>,
}

impl Report {
    /// Record a metric, replacing an earlier value of the same name.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// A recorded metric.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics.get(name).copied()
    }

    /// Count one attempted operation, failed when `err` is `Some`.
    pub fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// Count a failed output check on an operation already counted as
    /// succeeded; each such operation may fail one check.
    ///
    /// # Panics
    ///
    /// Panics if more operations would fail than were attempted.
    pub fn fail_check(&mut self, why: String) {
        assert!(
            self.failed < self.attempted,
            "check failed on no operation: {why}"
        );
        self.failed += 1;
        self.failures.push(why);
    }

    /// The process exit code: 0 when every operation succeeded, else 1.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        u8::from(self.failed > 0)
    }

    /// Failed over attempted operations.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable lines: every recorded metric with unit and sample
    /// count, then the operation counts and any failures.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            out += &format!("{name:<40} {:>16.6} {:<8} n={}", m.value, m.unit, m.samples);
            if let Some(p) = tail_of(name) {
                let best = tail_percentile(m.samples).map_or_else(|| "none".into(), label);
                out += &format!(
                    " ({} beyond {}; highest tail with >=10 beyond: {best})",
                    beyond(m.samples, p),
                    label(p)
                );
            }
            out.push('\n');
        }
        out += &format!(
            "operations attempted={} succeeded={} failed={} error_rate={:.6}\n",
            self.attempted,
            self.attempted - self.failed,
            self.failed,
            self.error_rate()
        );
        for f in &self.failures {
            out += &format!("FAILED: {f}\n");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of `names`. A listed metric this run did not record reads 0 when
    /// `zero_if_absent`, else it is an error.
    ///
    /// # Errors
    ///
    /// Names a missing metric, or a metric recorded in another unit.
    pub fn result_line(
        &self,
        names: &[(&'static str, &'static str)],
        zero_if_absent: bool,
    ) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(m) if m.unit != unit => {
                    return Err(format!("{name} recorded in {} not {unit}", m.unit))
                }
                Some(m) => m.value,
                None if zero_if_absent => 0.0,
                None => return Err(format!("{name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("{name} is not finite"));
            }
            metrics.push((
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Number(Number::Float(value))),
                    ("unit".into(), Value::String(unit.into())),
                ]),
            ));
        }
        let doc = Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            (
                "attempted".into(),
                Value::Number(Number::PosInt(self.attempted)),
            ),
            ("failed".into(), Value::Number(Number::PosInt(self.failed))),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_against_attempts() {
        let mut r = Report::default();
        r.op(None);
        r.op(Some("record 3 failed to open".into()));
        r.op(None);
        r.fail_check("tokens differ".into());
        assert_eq!((r.attempted, r.failed), (3, 2));
        assert!((r.error_rate() - 2.0 / 3.0).abs() < 1e-12);
        let line = r.result_line(&[], true).unwrap();
        assert!(line.contains("\"correct\":false"), "{line}");
        assert!(line.contains("\"attempted\":3"), "{line}");
        assert!(line.contains("\"failed\":2"), "{line}");
        let t = r.table();
        assert!(t.contains("succeeded=1 failed=2"), "{t}");
        assert_eq!(r.exit_code(), 1);
        let mut ok = Report::default();
        ok.op(None);
        assert_eq!(ok.exit_code(), 0);
    }

    #[test]
    #[should_panic(expected = "check failed on no operation")]
    fn a_check_needs_an_operation() {
        Report::default().fail_check("tokens differ".into());
    }

    #[test]
    fn result_line_demands_every_end_to_end_metric() {
        let mut r = Report::default();
        r.op(None);
        assert!(r.result_line(&END_TO_END, false).is_err());
        for (name, unit) in END_TO_END {
            r.set(name, 1.5, unit, 3);
        }
        let line = r.result_line(&END_TO_END, false).unwrap();
        assert!(line.contains("\"correct\":true"), "{line}");
        assert!(
            line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"),
            "{line}"
        );
        r.set("setup_s", 1.0, "ms", 1);
        assert!(r.result_line(&END_TO_END, false).is_err());
        let layers = Report::default().result_line(&PER_LAYER, true).unwrap();
        assert!(layers.contains("\"serve.self_s\":{\"value\":0"), "{layers}");
    }

    /// The metric lists here and in the repository's `BENCHMARK.json`
    /// name the same metrics in the same units.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
