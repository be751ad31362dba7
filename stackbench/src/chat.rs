//! `chat_stream`: one closed-loop client streaming from the f32 model.
//!
//! Each request: the client seals its prompt as one channel record; the
//! enclave opens it, prefills with `forward_chunk`, then per token runs
//! `argmax` and `forward`, sealing every token as its own record, which
//! the client opens.

use crate::deploy::{self, Deployment, Owner, SETUP_REPS};
use crate::report::Report;
use crate::stats::{median, percentile, shuffle, strata};
use crate::trace::{ns_to_ms, paired, Tracer, ROOT};
use cllm_infer::generate::{generate, Sampling};
use cllm_infer::kernels::argmax;
use cllm_workload::trace::LognormalLen;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Prompt lengths: median ~48 tokens, clamped to [8, 160].
const PROMPT: LognormalLen = LognormalLen {
    mu_ln: 3.87,
    sigma_ln: 0.5,
    min_tokens: 8,
    max_tokens: 160,
};
/// Output lengths: median ~40 tokens, clamped to [4, 96].
const OUTPUT: LognormalLen = LognormalLen {
    mu_ln: 3.69,
    sigma_ln: 0.5,
    min_tokens: 4,
    max_tokens: 96,
};
/// Requests whose tokens are re-derived with `generate` after the timed
/// window, at most this many per run.
const CHECKS: usize = 3;

/// Requests per block: one per length stratum, so every block carries
/// the same prompt and output length mix in a seeded order.
pub const BLOCK: usize = 8;

/// One chat request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub prompt: Vec<usize>,
    pub max_new: usize,
}

/// The seeded request stream: the same seed gives the same requests.
pub struct Requests {
    rng: StdRng,
    prompt_mix: Vec<usize>,
    output_mix: Vec<usize>,
    block: Vec<Request>,
}

impl Requests {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Requests {
            rng: StdRng::seed_from_u64(seed ^ 0xC4A7_0001),
            prompt_mix: strata(&PROMPT, BLOCK),
            output_mix: strata(&OUTPUT, BLOCK),
            block: Vec::new(),
        }
    }
}

impl Iterator for Requests {
    type Item = Request;
    #[allow(clippy::cast_possible_truncation)]
    fn next(&mut self) -> Option<Request> {
        if self.block.is_empty() {
            let vocab = deploy::model_config().vocab as u64;
            let mut lens = self.prompt_mix.clone();
            let mut outs = self.output_mix.clone();
            shuffle(&mut lens, &mut self.rng);
            shuffle(&mut outs, &mut self.rng);
            for (len, max_new) in lens.into_iter().zip(outs).rev() {
                let prompt = (0..len)
                    .map(|_| (self.rng.random::<u64>() % vocab) as usize)
                    .collect();
                self.block.push(Request { prompt, max_new });
            }
        }
        self.block.pop()
    }
}

/// Client-side timings and the tokens of one served request.
pub struct Served {
    pub tokens: Vec<usize>,
    pub ttft_ns: u64,
    pub gaps_ns: Vec<u64>,
    pub prefill_tokens: usize,
    pub kv_bytes: usize,
    pub record_bytes: usize,
}

fn ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).expect("elapsed fits u64")
}

fn encode(tokens: &[usize]) -> Vec<u8> {
    tokens
        .iter()
        .flat_map(|&t| u32::try_from(t).expect("token id fits u32").to_le_bytes())
        .collect()
}

fn decode(bytes: &[u8]) -> Result<Vec<usize>, String> {
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "record of {} bytes is not whole tokens",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as usize)
        .collect())
}

/// Serve one request end to end through the attested channel.
///
/// # Errors
///
/// Fails when a record does not verify or arrives out of sequence.
pub fn serve(dep: &mut Deployment, req: &Request, t: &mut Tracer) -> Result<Served, String> {
    t.within(ROOT, "request", |t| serve_in_span(dep, req, t))
}

fn serve_in_span(dep: &mut Deployment, req: &Request, t: &mut Tracer) -> Result<Served, String> {
    let t0 = Instant::now();
    let body = encode(&req.prompt);
    let record = t.span("tee", "send", || dep.client.send(&body));
    let mut record_bytes = record.body.len();
    let opened = t
        .span("tee", "recv", || dep.server.recv(&record))
        .map_err(|e| format!("prompt record: {e}"))?;
    let prompt = decode(&opened)?;
    let model = &dep.model;
    let mut cache = model.new_cache();
    let mut logits = t.span("infer", "forward_chunk", || {
        model
            .forward_chunk(&prompt, &mut cache)
            .row(prompt.len() - 1)
            .to_vec()
    });
    let mut served = Served {
        tokens: Vec::with_capacity(req.max_new),
        ttft_ns: 0,
        gaps_ns: Vec::with_capacity(req.max_new),
        prefill_tokens: prompt.len(),
        kv_bytes: 0,
        record_bytes: 0,
    };
    let mut last = 0;
    for i in 0..req.max_new {
        let token = t.span("infer", "argmax", || argmax(&logits));
        let record = t.span("tee", "send", || dep.server.send(&encode(&[token])));
        record_bytes += record.body.len();
        let got = t
            .span("tee", "recv", || dep.client.recv(&record))
            .map_err(|e| format!("token record {i}: {e}"))?;
        let now = ns(t0);
        if i == 0 {
            served.ttft_ns = now;
        } else {
            served.gaps_ns.push(now - last);
        }
        last = now;
        if decode(&got)? != [token] {
            return Err(format!("token record {i} decoded to another token"));
        }
        served.tokens.push(token);
        if i + 1 < req.max_new {
            logits = t.span("infer", "forward", || model.forward(token, &mut cache));
        }
    }
    served.kv_bytes = cache.bytes();
    served.record_bytes = record_bytes;
    Ok(served)
}

/// Run the workload for `seconds` and fill `report`.
///
/// # Errors
///
/// Fails when set-up fails.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    owner: &mut Owner,
    report: &mut Report,
) -> Result<Tracer, String> {
    let mut t = Tracer::new(traced);
    let warm = Requests::new(u64::MAX).next().expect("endless stream");

    // Cold start k, then measured window k, until k/SETUP_REPS of
    // `seconds` of request time has passed; the run ends on a whole
    // block. A traced run serves every request twice (see `paired`).
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut dep = None;
    let mut reqs: Vec<Request> = Vec::new();
    let mut outs: Vec<Option<Vec<usize>>> = Vec::new();
    let (mut ttft, mut gaps) = (Vec::new(), Vec::new());
    let (mut tokens, mut prefill_tokens, mut kv_bytes, mut record_bytes) =
        (0usize, 0usize, 0usize, 0usize);
    let mut walls = (0.0, 0.0);
    let mut stream = Requests::new(seed);
    for k in 1..=SETUP_REPS {
        drop(dep.take());
        let (mut d, times) =
            deploy::cold_start(owner, &mut t, false, |d, t| serve(d, &warm, t).map(drop))?;
        setups.push(times);
        let deadline = seconds * k as f64 / SETUP_REPS as f64;
        while walls.0 + walls.1 < deadline || (k == SETUP_REPS && !reqs.len().is_multiple_of(BLOCK))
        {
            let req = stream.next().expect("endless stream");
            let id = reqs.len() as u64;
            let (result, _) = paired(&mut t, traced, id, &mut walls, |t| serve(&mut d, &req, t));
            match result {
                Ok(s) => {
                    ttft.push(ns_to_ms(s.ttft_ns));
                    gaps.extend(s.gaps_ns.iter().map(|&g| ns_to_ms(g)));
                    tokens += s.tokens.len();
                    prefill_tokens += s.prefill_tokens;
                    kv_bytes = kv_bytes.max(s.kv_bytes);
                    record_bytes += s.record_bytes;
                    report.op(None);
                    outs.push(Some(s.tokens));
                }
                Err(e) => {
                    report.op(Some(format!("request {id}: {e}")));
                    outs.push(None);
                }
            }
            reqs.push(req);
        }
        dep = Some(d);
    }
    let dep = dep.expect("SETUP_REPS > 0");
    deploy::report_setup(owner, &setups, false, report);
    let wall = if traced { walls.1 } else { walls.0 };

    let n = reqs.len();
    report.set("ttft_p50_ms", median(&ttft), "ms", ttft.len());
    report.set("ttft_p90_ms", percentile(&ttft, 900), "ms", ttft.len());
    report.set("tpot_p50_ms", median(&gaps), "ms", gaps.len());
    report.set("tpot_p99_ms", percentile(&gaps, 990), "ms", gaps.len());
    report.set("out_tok_per_s", tokens as f64 / wall, "tok/s", n);
    report.set(
        "req_per_s",
        (n as u64 - report.failed) as f64 / wall,
        "req/s",
        n,
    );
    report.set("infer.prefill_tokens", prefill_tokens as f64, "count", n);
    report.set("infer.decode_tokens", tokens as f64, "count", n);
    report.set("infer.kv_bytes", kv_bytes as f64, "bytes", n);
    report.set("tee.records", (n + tokens) as f64, "count", n);
    report.set("tee.record_bytes", record_bytes as f64, "bytes", n);
    if traced {
        report.set(
            "trace.overhead_frac",
            walls.1 / walls.0 - 1.0,
            "fraction",
            n,
        );
        layer_metrics(&t, &dep, report);
        deploy::unseal_layers(owner, &dep, &mut t, report)?;
    }

    // Output check, outside the timed window: a seeded sample of requests
    // must match plain greedy generation token for token.
    let mut pick = StdRng::seed_from_u64(seed ^ 0xC4EC_0002);
    let mut sample: Vec<usize> = (0..n)
        .filter(|_| pick.random::<u64>() % 8 == 0)
        .take(CHECKS)
        .collect();
    if sample.is_empty() && n > 0 {
        sample.push(0);
    }
    for i in sample {
        let Some(got) = &outs[i] else { continue };
        let want = generate(
            &dep.model,
            &reqs[i].prompt,
            reqs[i].max_new,
            Sampling::Greedy,
            0,
        );
        if *got != want {
            report.fail_check(format!(
                "request {i}: streamed tokens differ from generate()"
            ));
        }
    }
    Ok(t)
}

/// Per-layer numbers from the traced requests' spans.
#[allow(clippy::cast_precision_loss)]
fn layer_metrics(t: &Tracer, dep: &Deployment, report: &mut Report) {
    let us = |v: Vec<f64>| v.into_iter().map(|ms| ms * 1e3).collect::<Vec<_>>();
    let in_requests = |layer: &str, name: &str| t.durations_ms("request", layer, name);
    let seal = us(in_requests("tee", "send"));
    let open = us(in_requests("tee", "recv"));
    report.set("tee.record_seal_us_p50", median(&seal), "us", seal.len());
    report.set("tee.record_open_us_p50", median(&open), "us", open.len());
    let prefill = in_requests("infer", "forward_chunk");
    report.set(
        "infer.prefill_ms_p50",
        median(&prefill),
        "ms",
        prefill.len(),
    );
    let steps = in_requests("infer", "forward");
    report.set(
        "infer.decode_step_ms_p50",
        median(&steps),
        "ms",
        steps.len(),
    );
    report.set(
        "infer.decode_step_ms_p99",
        percentile(&steps, 990),
        "ms",
        steps.len(),
    );
    let sample = us(in_requests("infer", "argmax"));
    report.set("infer.sample_us_p50", median(&sample), "us", sample.len());
    let step_s = median(&steps) / 1e3;
    let gb = deploy::weight_bytes(&dep.model) as f64 / 1e9;
    report.set("infer.weight_gb_per_s", gb / step_s, "GB/s", steps.len());
    let prefill_s: f64 = prefill.iter().sum::<f64>() / 1e3;
    let tokens = report.get("infer.prefill_tokens").map_or(0.0, |m| m.value);
    report.set(
        "infer.prefill_tok_per_s",
        tokens / prefill_s,
        "tok/s",
        prefill.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_infer::model::TinyConfig;

    /// A record that fails to open is counted as a failed request, and
    /// the traced run goes on.
    #[test]
    fn a_failed_record_closes_its_request_span() {
        let config = TinyConfig {
            hidden: 32,
            layers: 1,
            heads: 2,
            kv_heads: 1,
            intermediate: 64,
            vocab: 64,
            max_seq: 32,
            rope_theta: 10_000.0,
            eps: 1e-5,
        };
        let mut owner = deploy::prepare(&config).unwrap();
        let mut t = Tracer::new(true);
        let (mut dep, _) = deploy::deploy(&mut owner, &mut t, false).unwrap();
        let req = Request {
            prompt: vec![1, 2, 3],
            max_new: 4,
        };
        let mut walls = (0.0, 0.0);
        let (ok, _) = paired(&mut t, true, 0, &mut walls, |t| serve(&mut dep, &req, t));
        assert_eq!(ok.unwrap().tokens.len(), 4);

        // A client record the enclave never sees puts the prompt out of
        // sequence.
        let _lost = dep.client.send(b"lost");
        let (got, other) = paired(&mut t, true, 1, &mut walls, |t| serve(&mut dep, &req, t));
        let err = got.err().expect("an out-of-sequence prompt fails");
        assert!(err.starts_with("prompt record"), "{err}");
        assert!(other.unwrap().is_err());
        let mut report = Report::default();
        report.op(Some(err));
        assert_eq!((report.failed, report.exit_code()), (1, 1));
        let last = t
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == "request")
            .unwrap();
        assert!(last.end_ns >= last.start_ns && last.end_ns > 0);
    }
}
