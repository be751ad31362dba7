//! Paper-experiment runners: one per table/figure.
//!
//! Every runner regenerates the *shape* of a published result — who wins,
//! by roughly what factor, where crossovers fall — from the calibrated
//! simulator, and returns a uniform [`ExperimentResult`] that renders as
//! an aligned text table and serializes to JSON (consumed by
//! `EXPERIMENTS.md` and the `cllm-bench` binaries).
//!
//! | Runner | Reproduces |
//! |--------|-----------|
//! | [`fig1`] | Figure 1 — headline TEE overheads + threat model |
//! | [`fig3`] | Figure 3 — framework comparison (HF/vLLM/llama.cpp/IPEX) |
//! | [`fig4`] | Figure 4 — single-socket throughput/latency overheads |
//! | [`fig5`] | Figure 5 — Llama2-70B NUMA binding (VM B / TDX / VM NB) |
//! | [`fig6`] | Figure 6 — hugepages (VM FH / VM TH / TDX), dual socket |
//! | [`fig7`] | Figure 7 — per-decoder-block-layer trace |
//! | [`fig8`] | Figure 8 — AMX vs no-AMX batch scaling |
//! | [`fig9`] | Figure 9 — batch-size scaling of overheads |
//! | [`fig10`] | Figure 10 — input-size scaling of overheads |
//! | [`fig11`] | Figure 11 — cGPU batch/input scaling |
//! | [`fig12`] | Figure 12 — vCPU scaling + $/Mtoken vs cGPU |
//! | [`fig13`] | Figure 13 — input scaling + $/Mtoken vs cGPU |
//! | [`fig14`] | Figure 14 — RAG pipelines (BM25/reranked/SBERT) in TDX |
//! | [`table1`] | Table I — security/performance/cost summary matrix |
//! | [`model_zoo`] | §III-C3 — overheads across 5 additional LLMs |
//! | [`snc`] | §IV-A — sub-NUMA clustering ablation |
//! | [`sev_snp`] | §III — AMD SEV-SNP cross-check (close to TDX) |
//! | [`b100`] | §V-D3 — Blackwell encrypted-HBM projection |
//! | [`scaleout`] | §V-D4 — multi-GPU vs multi-socket scale-out |
//! | [`model_sizes`] | abstract — Llama2 7B/13B/70B sweep |
//! | [`serving`] | extension — online SLO attainment under TEEs |
//! | [`tco`] | extension — rent vs buy on the paper's list prices |
//! | [`moe`] | extension — mixture-of-experts (Mixtral) under TDX |
//! | [`resilience`] | extension — serving under injected TEE faults |
//! | [`cluster_resilience`] | extension — multi-node fleets under correlated preemption waves |
//! | [`time_attribution`] | extension — span-accounted makespan shares under faults |
//! | [`serve_scale`] | extension — event-kernel scale smoke on a 64-node fleet |
//! | [`batching_pressure`] | extension — paged KV under TEE memory pressure: policies and the batching crossover |
//! | [`flash_crowd`] | extension — flash-crowd survival: cold scale-up vs warm pool vs brownout per platform |
//! | [`spec_decode`] | extension — speculative decoding priced per platform: small draft + chunked verify |

pub mod b100;
pub mod batching_pressure;
pub mod cluster_resilience;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod flash_crowd;
pub mod model_sizes;
pub mod model_zoo;
pub mod moe;
pub mod resilience;
pub mod scaleout;
pub mod serve_scale;
pub mod serving;
pub mod sev_snp;
pub mod snc;
pub mod spec_decode;
pub mod table1;
pub mod tco;
pub mod time_attribution;

pub use crate::table::{Column, ColumnKind, SchemaError, TypedResult, Unit, Value, SCHEMA_VERSION};

/// A named experiment runner, as listed by [`all_experiments`].
pub type ExperimentEntry = (&'static str, fn() -> ExperimentResult);

/// Every experiment returns a typed table; the historical name stays as
/// an alias of [`crate::table::TypedResult`].
pub type ExperimentResult = TypedResult;

/// Format a percentage with one decimal — the string convention of the
/// tables, for qualitative [`Value::Str`] cells and notes. Numeric
/// columns should use [`Value::pct`] instead, which keeps the raw value.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Format a float with `digits` decimals (see [`pct`]; numeric columns
/// should use [`Value::float`]).
#[must_use]
pub fn num(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Registry of every experiment, in paper order.
#[must_use]
pub fn all_experiments() -> Vec<ExperimentEntry> {
    vec![
        ("fig1", fig1::run as fn() -> ExperimentResult),
        ("fig3", fig3::run),
        ("fig4", fig4::run),
        ("fig5", fig5::run),
        ("fig6", fig6::run),
        ("fig7", fig7::run),
        ("fig8", fig8::run),
        ("fig9", fig9::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        ("fig14", fig14::run),
        ("table1", table1::run),
        ("model_zoo", model_zoo::run),
        ("snc", snc::run),
        ("sev_snp", sev_snp::run),
        ("b100", b100::run),
        ("scaleout", scaleout::run),
        ("model_sizes", model_sizes::run),
        ("serving", serving::run),
        ("tco", tco::run),
        ("moe", moe::run),
        ("resilience", resilience::run),
        ("cluster_resilience", cluster_resilience::run),
        ("time_attribution", time_attribution::run),
        ("serve_scale", serve_scale::run),
        ("batching_pressure", batching_pressure::run),
        ("flash_crowd", flash_crowd::run),
        ("spec_decode", spec_decode::run),
    ]
}

/// Run an experiment by id.
#[must_use]
pub fn run_by_id(id: &str) -> Option<ExperimentResult> {
    all_experiments()
        .into_iter()
        .find(|(eid, _)| *eid == id)
        .map(|(_, f)| f())
}

/// Experiments that can export a span trace (`--trace`), in registry
/// order. Offline roofline sweeps have no event loop to trace; only the
/// serving-simulation experiments do.
pub const TRACEABLE: [&str; 5] = [
    "serving",
    "resilience",
    "cluster_resilience",
    "time_attribution",
    "flash_crowd",
];

/// Build the span trace for a traceable experiment. `None` if `id` is
/// unknown or the experiment has nothing to trace (see [`TRACEABLE`]).
#[must_use]
pub fn trace_by_id(id: &str) -> Option<cllm_obs::Trace> {
    match id {
        "serving" => Some(serving::trace()),
        "resilience" => Some(resilience::trace()),
        "cluster_resilience" => Some(cluster_resilience::trace()),
        "time_attribution" => Some(time_attribution::trace()),
        "flash_crowd" => Some(flash_crowd::trace()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_includes_notes() {
        let mut r = ExperimentResult::new(
            "t",
            "demo",
            vec![Column::str("a"), Column::str("long_column")],
        );
        r.push_row(vec![Value::str("x"), Value::str("1")]);
        r.note("hello");
        let s = r.render();
        assert!(s.contains("long_column"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut r = ExperimentResult::new("t", "demo", vec![Column::str("a"), Column::str("b")]);
        r.push_row(vec![Value::str("only-one")]);
    }

    #[test]
    fn cell_lookup() {
        let mut r =
            ExperimentResult::new("t", "demo", vec![Column::str("key"), Column::int("val")]);
        r.push_row(vec![Value::str("k1"), Value::int(42)]);
        assert_eq!(r.cell("k1", "val").as_deref(), Some("42"));
        assert_eq!(r.cell_i64("k1", "val"), Some(42));
        assert_eq!(r.cell("k2", "val"), None);
        assert_eq!(r.cell("k1", "nope"), None);
    }

    #[test]
    fn registry_is_complete() {
        let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 30);
        assert!(ids.contains(&"fig4"));
        assert!(ids.contains(&"table1"));
        assert!(ids.contains(&"resilience"));
        assert!(ids.contains(&"cluster_resilience"));
        assert!(ids.contains(&"time_attribution"));
        assert!(ids.contains(&"serve_scale"));
        assert!(ids.contains(&"batching_pressure"));
        assert!(ids.contains(&"flash_crowd"));
        assert!(ids.contains(&"spec_decode"));
        assert!(run_by_id("nope").is_none());
    }
}
