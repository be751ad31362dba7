//! `batch_offline`: static batches of 8 prompts on the int8 model.
//!
//! Each batch prefills every prompt with `forward_chunk`, then advances
//! all sequences in lockstep: `argmax` per sequence and one
//! `forward_batch` per step — the calls `generate_batch` makes, issued
//! from here so the first token and each step can be timed. Sampled
//! batches must match `generate_batch` token for token.

use crate::deploy::{self, Owner, SETUP_REPS};
use crate::report::Report;
use crate::stats::{median, percentile, shuffle, strata};
use crate::trace::{ns_to_ms, paired, Tracer, ROOT};
use cllm_infer::kernels::argmax;
use cllm_infer::model::{KvCache, TinyModel};
use cllm_infer::sampling::{generate_batch, SamplingParams};
use cllm_workload::trace::LognormalLen;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Prompts per batch.
pub const BATCH: usize = 8;
/// Tokens generated per sequence.
pub const MAX_NEW: usize = 64;
/// Prompt lengths: median ~96 tokens, clamped to [32, 160].
const PROMPT: LognormalLen = LognormalLen {
    mu_ln: 4.56,
    sigma_ln: 0.4,
    min_tokens: 32,
    max_tokens: 160,
};

/// The seeded batch stream: the same seed gives the same prompts. Every
/// batch holds one prompt per length stratum, in a seeded order.
pub struct Batches {
    rng: StdRng,
    mix: Vec<usize>,
}

impl Batches {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Batches {
            rng: StdRng::seed_from_u64(seed ^ 0xBA7C_0001),
            mix: strata(&PROMPT, BATCH),
        }
    }
}

impl Iterator for Batches {
    type Item = Vec<Vec<usize>>;
    #[allow(clippy::cast_possible_truncation)]
    fn next(&mut self) -> Option<Self::Item> {
        let vocab = deploy::model_config().vocab as u64;
        let mut lens = self.mix.clone();
        shuffle(&mut lens, &mut self.rng);
        Some(
            lens.into_iter()
                .map(|len| {
                    (0..len)
                        .map(|_| (self.rng.random::<u64>() % vocab) as usize)
                        .collect()
                })
                .collect(),
        )
    }
}

/// Tokens and timings of one batch.
pub struct Done {
    pub tokens: Vec<Vec<usize>>,
    pub ttft_ns: u64,
    pub gaps_ns: Vec<u64>,
    pub kv_bytes: usize,
}

/// Generate `max_new` greedy tokens for every prompt of `prompts`.
#[must_use]
pub fn run_batch(
    model: &TinyModel,
    prompts: &[Vec<usize>],
    max_new: usize,
    t: &mut Tracer,
) -> Done {
    t.within(ROOT, "batch", |t| {
        run_batch_in_span(model, prompts, max_new, t)
    })
}

fn run_batch_in_span(
    model: &TinyModel,
    prompts: &[Vec<usize>],
    max_new: usize,
    t: &mut Tracer,
) -> Done {
    let t0 = Instant::now();
    let mut caches: Vec<KvCache> = Vec::with_capacity(prompts.len());
    let mut logits: Vec<Vec<f32>> = Vec::with_capacity(prompts.len());
    for p in prompts {
        let mut cache = model.new_cache();
        logits.push(t.span("infer", "forward_chunk", || {
            model.forward_chunk(p, &mut cache).row(p.len() - 1).to_vec()
        }));
        caches.push(cache);
    }
    let mut done = Done {
        tokens: vec![Vec::with_capacity(max_new); prompts.len()],
        ttft_ns: 0,
        gaps_ns: Vec::with_capacity(max_new),
        kv_bytes: 0,
    };
    let mut last = 0;
    for step in 0..max_new {
        let next: Vec<usize> = logits
            .iter()
            .map(|l| t.span("infer", "argmax", || argmax(l)))
            .collect();
        let now = u64::try_from(t0.elapsed().as_nanos()).expect("elapsed fits u64");
        if step == 0 {
            done.ttft_ns = now;
        } else {
            done.gaps_ns.push(now - last);
        }
        last = now;
        for (seq, &tok) in done.tokens.iter_mut().zip(&next) {
            seq.push(tok);
        }
        if step + 1 < max_new {
            let rows = t.span("infer", "forward_batch", || {
                model.forward_batch(&next, &mut caches)
            });
            for (i, l) in logits.iter_mut().enumerate() {
                *l = rows.row(i).to_vec();
            }
        }
    }
    done.kv_bytes = caches.iter().map(KvCache::bytes).sum();
    done
}

/// Run the workload for `seconds` and fill `report`.
///
/// # Errors
///
/// Fails when set-up fails.
#[allow(clippy::cast_precision_loss)]
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    owner: &mut Owner,
    report: &mut Report,
) -> Result<Tracer, String> {
    let mut t = Tracer::new(traced);
    // Warm-up: a short batch through the same calls, not a full one, so
    // set-up stays dominated by the cold start itself.
    let warm: Vec<Vec<usize>> = (0..BATCH).map(|i| vec![i; 8]).collect();

    // Cold start k, then measured window k, until k/SETUP_REPS of
    // `seconds` of batch time has passed. A traced run runs every batch
    // twice (see `paired`).
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut dep = None;
    let mut batches = Vec::new();
    let mut outs = Vec::new();
    let (mut ttft, mut gaps) = (Vec::new(), Vec::new());
    let (mut kv_bytes, mut walls) = (0usize, (0.0, 0.0));
    let mut stream = Batches::new(seed);
    for k in 1..=SETUP_REPS {
        drop(dep.take());
        let (d, times) = deploy::cold_start(owner, &mut t, true, |d, t| {
            let _ = run_batch(&d.model, &warm, 4, t);
            Ok(())
        })?;
        setups.push(times);
        let deadline = seconds * k as f64 / SETUP_REPS as f64;
        while walls.0 + walls.1 < deadline {
            let prompts = stream.next().expect("endless stream");
            let id = batches.len() as u64;
            let (done, _) = paired(&mut t, traced, id, &mut walls, |t| {
                run_batch(&d.model, &prompts, MAX_NEW, t)
            });
            ttft.push(ns_to_ms(done.ttft_ns));
            gaps.extend(done.gaps_ns.iter().map(|&g| ns_to_ms(g)));
            kv_bytes = kv_bytes.max(done.kv_bytes);
            for _ in &prompts {
                report.op(None);
            }
            outs.push(done.tokens);
            batches.push(prompts);
        }
        dep = Some(d);
    }
    let dep = dep.expect("SETUP_REPS > 0");
    let model = &dep.model;
    deploy::report_setup(owner, &setups, true, report);
    let wall = if traced { walls.1 } else { walls.0 };

    let seqs = batches.len() * BATCH;
    let tokens = seqs * MAX_NEW;
    let prefill_tokens: usize = batches.iter().flatten().map(Vec::len).sum();
    report.set("ttft_p50_ms", median(&ttft), "ms", ttft.len());
    report.set("ttft_p90_ms", percentile(&ttft, 900), "ms", ttft.len());
    report.set("tpot_p50_ms", median(&gaps), "ms", gaps.len());
    report.set("tpot_p99_ms", percentile(&gaps, 990), "ms", gaps.len());
    report.set(
        "out_tok_per_s",
        tokens as f64 / wall,
        "tok/s",
        batches.len(),
    );
    report.set("req_per_s", seqs as f64 / wall, "req/s", batches.len());
    report.set("infer.prefill_tokens", prefill_tokens as f64, "count", seqs);
    report.set("infer.decode_tokens", tokens as f64, "count", seqs);
    report.set("infer.kv_bytes", kv_bytes as f64, "bytes", batches.len());
    if traced {
        report.set(
            "trace.overhead_frac",
            walls.1 / walls.0 - 1.0,
            "fraction",
            batches.len(),
        );
        let prefill = t.durations_ms("batch", "infer", "forward_chunk");
        report.set(
            "infer.prefill_ms_p50",
            median(&prefill),
            "ms",
            prefill.len(),
        );
        let prefill_s = prefill.iter().sum::<f64>() / 1e3;
        report.set(
            "infer.prefill_tok_per_s",
            prefill_tokens as f64 / prefill_s,
            "tok/s",
            prefill.len(),
        );
        let steps = t.durations_ms("batch", "infer", "forward_batch");
        report.set("infer.batch_step_ms_p50", median(&steps), "ms", steps.len());
        let sample: Vec<f64> = t
            .durations_ms("batch", "infer", "argmax")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        report.set("infer.sample_us_p50", median(&sample), "us", sample.len());
        let gb = deploy::weight_bytes(model) as f64 / 1e9;
        report.set(
            "infer.weight_gb_per_s",
            gb / (median(&steps) / 1e3),
            "GB/s",
            steps.len(),
        );
        deploy::unseal_layers(owner, &dep, &mut t, report)?;
    }

    // Output check, outside the timed window: the batches must equal
    // `generate_batch` token for token — every batch of a traced run, one
    // seeded pick otherwise.
    let mut pick = StdRng::seed_from_u64(seed ^ 0xBA7C_0002);
    let first = (pick.random::<u64>() % batches.len().max(1) as u64) as usize;
    let (skip, take) = if traced {
        (0, batches.len())
    } else {
        (first, 1)
    };
    for (i, prompts) in batches.iter().enumerate().skip(skip).take(take) {
        let want = generate_batch(model, prompts, MAX_NEW, &SamplingParams::greedy());
        for (s, (got, want)) in outs[i].iter().zip(&want).enumerate() {
            if got != want {
                report.fail_check(format!(
                    "batch {i} sequence {s}: tokens differ from generate_batch"
                ));
            }
        }
    }
    Ok(t)
}
