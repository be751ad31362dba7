//! `fleet_sim`: host time of the discrete-event serving kernel.
//!
//! Runs the three `serve_bench` operating points at full scale — the
//! 64-node cluster, the same fleet on paged KV, and the flash-crowd
//! autoscaler — with the benchmark seed written into their arrival,
//! wave and traffic seeds, and checks every report's invariants.

use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::{paired, Tracer, ROOT};
use cllm_core::experiments::serve_scale::{autoscale_config, config, paged_config, Scale};
use cllm_serve::autoscale::{simulate_autoscale_stats, AutoscaleConfig};
use cllm_serve::cluster::{simulate_cluster_stats, ClusterConfig, ClusterReport};
use cllm_serve::invariants::{check_autoscale, check_cluster};
use std::time::Instant;

/// The three operating points, seeded.
#[derive(Debug, Clone)]
pub struct Configs {
    pub cluster: ClusterConfig,
    pub paged: ClusterConfig,
    pub autoscale: AutoscaleConfig,
}

/// Build the operating points at `scale` with `seed` in every workload
/// seed (node fault schedules keep their fixed seeds).
#[must_use]
pub fn configs(scale: Scale, seed: u64) -> Configs {
    let seeded = |mut c: ClusterConfig| {
        c.serving.arrivals.seed = seed ^ 0xF1EE_0001;
        c.wave.seed = seed ^ 0xF1EE_0002;
        c
    };
    let mut autoscale = autoscale_config(scale);
    autoscale.traffic.seed = seed ^ 0xF1EE_0003;
    autoscale.traffic.bursts.seed = autoscale.traffic.seed ^ 0x000B_0057;
    Configs {
        cluster: seeded(config(scale)),
        paged: seeded(paged_config(scale)),
        autoscale,
    }
}

/// Counts and host times of one simulated phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub wall_s: f64,
    pub invariant_ms: f64,
    pub counts: Counts,
    /// Simulated output tokens delivered.
    pub tokens: f64,
    /// Invariant violations and conservation failures.
    pub violations: Vec<String>,
    /// Simulated latencies, for the phase that reports them.
    pub latency: Option<SimLatency>,
}

/// The deterministic counts of one phase: identical for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub events: u64,
    pub arrivals: u64,
    pub completed: u64,
    pub aborted: u64,
    pub rejected: u64,
    pub retries: u64,
    /// Preemptions (cluster phases) or scale-ups (autoscale).
    pub extra: u64,
}

/// Simulated latencies of a cluster report's completed requests, ms:
/// TTFT p50 and p90, time per output token p50 and p99, and the count.
/// Summarised at once so no pass keeps a million samples alive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimLatency {
    pub ttft: [f64; 2],
    pub tpot: [f64; 2],
    pub n: usize,
}

impl SimLatency {
    fn of(rep: &ClusterReport) -> Self {
        let ttft: Vec<f64> = rep.records.iter().map(|r| r.ttft_s * 1e3).collect();
        let tpot: Vec<f64> = rep.records.iter().map(|r| r.tpot_s * 1e3).collect();
        SimLatency {
            ttft: [median(&ttft), percentile(&ttft, 900)],
            tpot: [median(&tpot), percentile(&tpot, 990)],
            n: ttft.len(),
        }
    }
}

fn conservation(c: &Counts) -> Option<String> {
    (c.completed + c.aborted + c.rejected != c.arrivals).then(|| {
        format!(
            "completed {} + aborted {} + rejected {} != arrivals {}",
            c.completed, c.aborted, c.rejected, c.arrivals
        )
    })
}

fn cluster(name: &'static str, cfg: &ClusterConfig, t: &mut Tracer, with_latency: bool) -> Phase {
    let ((rep, stats), wall_s, violations, inv_s) = t.within(ROOT, name, |t| {
        let (out, wall_s) = t.timed("serve", "simulate_cluster_stats", || {
            simulate_cluster_stats(cfg)
        });
        let (violations, inv_s) = t.timed("serve", "check_cluster", || check_cluster(&out.0));
        (out, wall_s, violations, inv_s)
    });
    let latency = with_latency.then(|| SimLatency::of(&rep));
    let counts = Counts {
        events: stats.events(),
        arrivals: rep.arrivals as u64,
        completed: rep.completed as u64,
        aborted: rep.aborted as u64,
        rejected: rep.rejected as u64,
        retries: rep.retries,
        extra: rep.preemptions,
    };
    let mut violations: Vec<String> = violations.iter().map(|v| format!("{v:?}")).collect();
    violations.extend(conservation(&counts));
    Phase {
        wall_s,
        invariant_ms: inv_s * 1e3,
        counts,
        tokens: rep.goodput_tps * rep.makespan_s,
        violations,
        latency,
    }
}

fn autoscale(cfg: &AutoscaleConfig, t: &mut Tracer) -> Phase {
    let ((rep, stats), wall_s, violations, inv_s) = t.within(ROOT, "autoscale", |t| {
        let (out, wall_s) = t.timed("serve", "simulate_autoscale_stats", || {
            simulate_autoscale_stats(cfg)
        });
        let (violations, inv_s) = t.timed("serve", "check_autoscale", || check_autoscale(&out.0));
        (out, wall_s, violations, inv_s)
    });
    let counts = Counts {
        events: stats.events(),
        arrivals: rep.arrivals as u64,
        completed: rep.completed as u64,
        aborted: rep.aborted as u64,
        rejected: rep.shed as u64,
        retries: rep.retries,
        extra: rep.scale_ups,
    };
    let mut violations: Vec<String> = violations.iter().map(|v| format!("{v:?}")).collect();
    violations.extend(conservation(&counts));
    #[allow(clippy::cast_precision_loss)]
    Phase {
        wall_s,
        invariant_ms: inv_s * 1e3,
        counts,
        tokens: rep.delivered_tokens as f64,
        violations,
        latency: None,
    }
}

/// Run the three phases once; the cluster phase reports the simulated
/// latencies.
fn pass(c: &Configs, t: &mut Tracer) -> [Phase; 3] {
    [
        cluster("cluster", &c.cluster, t, true),
        cluster("paged", &c.paged, t, false),
        autoscale(&c.autoscale, t),
    ]
}

const NAMES: [&str; 3] = ["cluster", "paged", "autoscale"];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Passes every run makes, whatever `seconds` is (a traced run's pair of
/// copies counts as two). A process's first full-scale pass runs on a
/// cold heap and is often much slower than the next; with a single pass,
/// runs on either side of the window's end would measure different mixes
/// of cold and warm passes.
const MIN_PASSES: usize = 2;

/// Run the workload for `seconds` (at least [`MIN_PASSES`] passes) and
/// fill `report`.
///
/// # Errors
///
/// Fails when a smoke-scale warm-up phase breaks an invariant.
#[allow(clippy::cast_precision_loss)]
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Result<Tracer, String> {
    let mut t = Tracer::new(traced);
    // Set-up: build the configs and warm every phase at smoke scale. It is
    // short, so it is repeated more often than the inference cold start.
    let mut setup_s = Vec::new();
    let mut full = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (c, warm) = t.within(ROOT, "setup", |t| {
            let c = configs(Scale::Full, seed);
            (c, pass(&configs(Scale::Smoke, seed), t))
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        for p in warm {
            if !p.violations.is_empty() {
                return Err(format!("smoke warm-up: {}", p.violations.join("; ")));
            }
        }
        full = Some(c);
    }
    let c = full.expect("SETUP_REPS > 0");
    report.set("setup_s", median(&setup_s), "s", setup_s.len());

    // Timed window: whole passes. A traced run runs every pass twice (see
    // `paired`).
    let mut kept: Vec<[Phase; 3]> = Vec::new();
    let mut walls = (0.0, 0.0);
    let start = Instant::now();
    let copies = if traced { 2 } else { 1 };
    while kept.len() * copies < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let id = kept.len() as u64;
        let (phases, other) = paired(&mut t, traced, id, &mut walls, |t| pass(&c, t));
        count_pass(&phases, other.as_ref(), kept.first(), report);
        kept.push(phases);
    }

    let wall: f64 = kept.iter().flatten().map(|p| p.wall_s).sum();
    let arrivals: u64 = kept.iter().flatten().map(|p| p.counts.arrivals).sum();
    let tokens: f64 = kept.iter().flatten().map(|p| p.tokens).sum();
    let phases = kept.len() * 3;
    report.set("req_per_s", arrivals as f64 / wall, "req/s", phases);
    report.set("out_tok_per_s", tokens / wall, "tok/s", phases);
    let lat = kept[0][0]
        .latency
        .expect("the cluster phase reports latencies");
    report.set("ttft_p50_ms", lat.ttft[0], "ms", lat.n);
    report.set("ttft_p90_ms", lat.ttft[1], "ms", lat.n);
    report.set("tpot_p50_ms", lat.tpot[0], "ms", lat.n);
    report.set("tpot_p99_ms", lat.tpot[1], "ms", lat.n);
    if traced {
        report.set(
            "trace.overhead_frac",
            walls.1 / walls.0 - 1.0,
            "fraction",
            phases,
        );
    }
    phase_metrics(&kept, report);
    Ok(t)
}

/// Count each phase of a pass as one operation. A phase fails when it
/// breaks an invariant, or when its counts differ from those of the
/// pass's other copy (`other`, in a traced run) or of the run's first
/// pass (`first`): for a given seed the counts repeat exactly.
fn count_pass(
    phases: &[Phase; 3],
    other: Option<&[Phase; 3]>,
    first: Option<&[Phase; 3]>,
    report: &mut Report,
) {
    for (i, (name, p)) in NAMES.iter().zip(phases).enumerate() {
        let mut errs = p.violations.clone();
        if other.is_some_and(|o| o[i].counts != p.counts) {
            errs.push("traced and untraced counts differ".into());
        }
        if first.is_some_and(|f| f[i].counts != p.counts) {
            errs.push("counts differ from the first pass".into());
        }
        report.op((!errs.is_empty()).then(|| format!("{name}: {}", errs.join("; "))));
    }
}

/// Per-phase `serve.*` metrics: counts from the last pass, host times as
/// medians over passes.
#[allow(clippy::cast_precision_loss)]
fn phase_metrics(kept: &[[Phase; 3]], report: &mut Report) {
    const KEYS: [[&str; 11]; 3] = [
        [
            "serve.cluster.wall_s",
            "serve.cluster.events",
            "serve.cluster.events_per_s",
            "serve.cluster.arrivals",
            "serve.cluster.completed",
            "serve.cluster.aborted",
            "serve.cluster.rejected",
            "serve.cluster.retries",
            "serve.cluster.invariant_ms",
            "serve.cluster.preemptions",
            "cluster_sim_req_per_s",
        ],
        [
            "serve.paged.wall_s",
            "serve.paged.events",
            "serve.paged.events_per_s",
            "serve.paged.arrivals",
            "serve.paged.completed",
            "serve.paged.aborted",
            "serve.paged.rejected",
            "serve.paged.retries",
            "serve.paged.invariant_ms",
            "serve.paged.preemptions",
            "paged_sim_req_per_s",
        ],
        [
            "serve.autoscale.wall_s",
            "serve.autoscale.events",
            "serve.autoscale.events_per_s",
            "serve.autoscale.arrivals",
            "serve.autoscale.completed",
            "serve.autoscale.aborted",
            "serve.autoscale.rejected",
            "serve.autoscale.retries",
            "serve.autoscale.invariant_ms",
            "serve.autoscale.scale_ups",
            "autoscale_sim_req_per_s",
        ],
    ];
    let n = kept.len();
    for (i, k) in KEYS.iter().enumerate() {
        let walls: Vec<f64> = kept.iter().map(|p| p[i].wall_s).collect();
        let inv: Vec<f64> = kept.iter().map(|p| p[i].invariant_ms).collect();
        let c = kept[n - 1][i].counts;
        let wall = median(&walls);
        report.set(k[0], wall, "s", n);
        report.set(k[1], c.events as f64, "count", 1);
        report.set(k[2], c.events as f64 / wall, "1/s", n);
        report.set(k[3], c.arrivals as f64, "count", 1);
        report.set(k[4], c.completed as f64, "count", 1);
        report.set(k[5], c.aborted as f64, "count", 1);
        report.set(k[6], c.rejected as f64, "count", 1);
        report.set(k[7], c.retries as f64, "count", 1);
        report.set(k[8], median(&inv), "ms", n);
        report.set(k[9], c.extra as f64, "count", 1);
        report.set(k[10], c.arrivals as f64 / wall, "req/s", n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_configs() {
        let a = configs(Scale::Smoke, 11);
        let b = configs(Scale::Smoke, 11);
        let c = configs(Scale::Smoke, 12);
        let key = |c: &Configs| {
            (
                c.cluster.serving.arrivals.seed,
                c.paged.wave.seed,
                c.autoscale.traffic.seed,
                c.autoscale.traffic.bursts.seed,
            )
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn smoke_pass_is_clean_and_repeats_its_counts() {
        let c = configs(Scale::Smoke, 3);
        let mut t = Tracer::new(true);
        let a = pass(&c, &mut t);
        let b = pass(&c, &mut Tracer::new(false));
        for (x, y) in a.iter().zip(&b) {
            assert!(x.violations.is_empty(), "{:?}", x.violations);
            assert_eq!(x.counts, y.counts);
        }
        assert_eq!(t.durations_ms("paged", "serve", "check_cluster").len(), 1);

        // Clean passes count three clean operations each.
        let mut r = Report::default();
        count_pass(&a, Some(&b), None, &mut r);
        count_pass(&b, None, Some(&a), &mut r);
        assert_eq!((r.attempted, r.failed, r.exit_code()), (6, 0, 0));
    }

    #[test]
    fn count_mismatch_on_the_first_pass_fails_the_run() {
        let c = configs(Scale::Smoke, 4);
        let a = pass(&c, &mut Tracer::new(false));
        let mut b = a.clone();
        b[1].counts.completed += 1;
        let mut r = Report::default();
        count_pass(&a, Some(&b), None, &mut r);
        assert_eq!((r.attempted, r.failed, r.exit_code()), (3, 1, 1));
        assert!(
            r.failures[0].starts_with("paged: traced and untraced"),
            "{:?}",
            r.failures
        );
        let line = r.result_line(&[], true).unwrap();
        assert!(line.contains("\"correct\":false"), "{line}");
        // A later pass that drifts from the first fails too.
        let mut r = Report::default();
        count_pass(&b, None, Some(&a), &mut r);
        assert_eq!((r.attempted, r.failed), (3, 1));
    }
}
