//! The confidential cold start shared by the inference workloads: the
//! owner's one-off preparation, then launch, attested key release and
//! weight unseal inside the enclave.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use cllm_core::owner::{EncryptedModel, ModelOwner};
use cllm_infer::model::{Linear, TinyConfig, TinyModel};
use cllm_tee::enclave::Enclave;
use cllm_tee::manifest::Manifest;
use cllm_tee::session::{enclave_respond, SecureChannel};
use std::time::Instant;

/// Weight seed: fixed, so every workload seed serves the same model.
const MODEL_SEED: u64 = 0x5EED_C11A;
/// Platform attestation root shared by the enclave and the owner.
const HW_ROOT: &[u8] = b"stackbench-hw-root";
/// Cold starts per run; `setup_s` is their median. Each is followed by
/// one of as many measured windows, so the measured time spreads over
/// the whole run rather than one stretch of it.
pub const SETUP_REPS: usize = 3;

/// The `bench_infer` full shape: ~20M parameters, 80 MB of f32 weights.
#[must_use]
pub fn model_config() -> TinyConfig {
    TinyConfig {
        hidden: 512,
        layers: 6,
        heads: 8,
        kv_heads: 4,
        intermediate: 1408,
        vocab: 2048,
        max_seq: 256,
        rope_theta: 10_000.0,
        eps: 1e-5,
    }
}

/// What the owner prepares once, before any timed set-up.
pub struct Owner {
    manifest: Manifest,
    owner: ModelOwner,
    /// The sealed weights handed to the host.
    pub encrypted: EncryptedModel,
}

/// Build the model of `config`, its manifest and its encrypted artifact.
///
/// # Errors
///
/// Fails if the owner cannot serialize the model.
pub fn prepare(config: &TinyConfig) -> Result<Owner, String> {
    let model = TinyModel::init(config, MODEL_SEED);
    let manifest = Manifest::builder("cllm-infer-server")
        .enclave_size_gib(64)
        .threads(1)
        .trusted_file("libcllm_infer.so", b"runtime-v1")
        .encrypted_file("model.bin", "weights-key")
        .build();
    let mut owner = ModelOwner::new(HW_ROOT, manifest.measurement(), 5, b"stackbench-owner");
    let encrypted = owner.encrypt_model(&model).map_err(|e| e.to_string())?;
    Ok(Owner {
        manifest,
        owner,
        encrypted,
    })
}

/// A running enclave holding the model, with both ends of its channel.
pub struct Deployment {
    /// The client's (owner's) end of the attested channel.
    pub client: SecureChannel,
    /// The enclave's end of the attested channel.
    pub server: SecureChannel,
    /// The model key released over the channel.
    pub key: [u8; 16],
    /// The unsealed model, quantized to int8 when asked.
    pub model: TinyModel,
}

/// Wall times of one cold start's steps, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: f64,
    pub launch: f64,
    pub handshake: f64,
    pub decrypt: f64,
    pub quantize: f64,
}

/// One cold start: validate, launch, attested handshake, key receipt,
/// weight unseal and (for `int8`) quantization.
///
/// # Errors
///
/// Fails on any rejected manifest, handshake, record or unseal.
pub fn deploy(
    o: &mut Owner,
    t: &mut Tracer,
    int8: bool,
) -> Result<(Deployment, SetupTimes), String> {
    let mut times = SetupTimes::default();
    t.span("tee", "validate", || o.manifest.validate())
        .map_err(|e| e.to_string())?;
    let (enclave, launch) = t.timed("tee", "launch", || Enclave::launch(&o.manifest, HW_ROOT));
    let enclave = enclave.map_err(|e| e.to_string())?;
    times.launch = launch;

    let t0 = Instant::now();
    let (verifier, challenge) = t.span("core", "begin_session", || o.owner.begin_session());
    let (response, mut server) = t
        .span("tee", "enclave_respond", || {
            enclave_respond(
                HW_ROOT,
                enclave.measurement(),
                7,
                &challenge,
                b"stackbench-enclave",
            )
        })
        .map_err(|e| e.to_string())?;
    let (client, record) = t
        .span("core", "release_key_secure", || {
            o.owner.release_key_secure(&verifier, &response)
        })
        .map_err(|e| e.to_string())?;
    let key = t
        .span("tee", "recv", || server.recv(&record))
        .map_err(|e| e.to_string())?;
    let key: [u8; 16] = key
        .as_slice()
        .try_into()
        .map_err(|_| "released key is not 16 bytes".to_string())?;
    times.handshake = t0.elapsed().as_secs_f64();

    let (model, decrypt) = t.timed("core", "decrypt_model", || {
        ModelOwner::decrypt_model(&key, &o.encrypted)
    });
    let mut model = model.map_err(|e| e.to_string())?;
    times.decrypt = decrypt;
    if int8 {
        let (q, quantize) = t.timed("infer", "quantized", || model.quantized());
        model = q;
        times.quantize = quantize;
    }
    let dep = Deployment {
        client,
        server,
        key,
        model,
    };
    Ok((dep, times))
}

/// One timed cold start followed by `warm_up`; `SetupTimes::total` is
/// what `setup_s` reports.
///
/// # Errors
///
/// Fails if the cold start or the warm-up fails.
pub fn cold_start(
    o: &mut Owner,
    t: &mut Tracer,
    int8: bool,
    warm_up: impl FnOnce(&mut Deployment, &mut Tracer) -> Result<(), String>,
) -> Result<(Deployment, SetupTimes), String> {
    let t0 = Instant::now();
    let (dep, mut times) = t.within(crate::trace::ROOT, "setup", |t| {
        let (mut dep, times) = deploy(o, t, int8)?;
        warm_up(&mut dep, t)?;
        Ok::<_, String>((dep, times))
    })?;
    times.total = t0.elapsed().as_secs_f64();
    Ok((dep, times))
}

/// Record `setup_s` and the per-step medians of `all` cold starts, and
/// the modeled unseal time of the same ciphertext.
pub fn report_setup(o: &Owner, all: &[SetupTimes], int8: bool, report: &mut Report) {
    let n = all.len();
    let med = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", med(|s| s.total), "s", n);
    report.set("tee.launch_ms", med(|s| s.launch) * 1e3, "ms", n);
    report.set("tee.handshake_ms", med(|s| s.handshake) * 1e3, "ms", n);
    let decrypt = med(|s| s.decrypt);
    report.set("core.decrypt_model_s", decrypt, "s", n);
    if int8 {
        report.set("infer.quantize_s", med(|s| s.quantize), "s", n);
    }
    #[allow(clippy::cast_precision_loss)]
    let bytes = o.encrypted.len() as f64;
    let modeled = cllm_perf::kv_swap_time_s(&cllm_tee::platform::CpuTeeConfig::tdx(), bytes);
    report.set("core.decrypt_model_modeled_s", modeled, "s", 1);
    report.set(
        "crypto.unseal_measured_over_modeled",
        decrypt / modeled,
        "ratio",
        n,
    );
}

/// Time the two halves of `decrypt_model` on their own: `aead_open` of
/// the same ciphertext, then `model_from_bytes` of its plaintext.
///
/// # Errors
///
/// Fails if the ciphertext does not open or its plaintext does not parse.
pub fn unseal_layers(
    o: &Owner,
    dep: &Deployment,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (plain, open_s) = t.timed("crypto", "aead_open", || {
        cllm_crypto::aead_open(
            &dep.key,
            &o.encrypted.nonce,
            &o.encrypted.ciphertext,
            b"cllm-model-v1",
        )
    });
    let plain = plain.map_err(|_| "standalone aead_open rejected the model".to_string())?;
    let (parsed, parse_s) = t.timed("infer", "model_from_bytes", || {
        cllm_infer::serialize::model_from_bytes(&plain)
    });
    parsed.map_err(|e| e.to_string())?;
    #[allow(clippy::cast_precision_loss)]
    let mb = o.encrypted.len() as f64 / 1e6;
    report.set("crypto.aead_open_s", open_s, "s", 1);
    report.set("crypto.aead_open_mb_per_s", mb / open_s, "MB/s", 1);
    report.set("infer.parse_s", parse_s, "s", 1);
    Ok(())
}

/// Weight bytes one forward step streams: every linear layer plus the
/// final norm, from the tensor sizes (embedding lookup is one row).
#[must_use]
pub fn weight_bytes(model: &TinyModel) -> usize {
    let linear = |l: &Linear| match l {
        Linear::F32(m) | Linear::NaiveF32(m) => m.rows * m.cols * 4,
        Linear::Int8(q) => q.storage_bytes(),
        Linear::Int4(q) => q.storage_bytes(),
    };
    let blocks: usize = model
        .blocks
        .iter()
        .map(|b| {
            [&b.wq, &b.wk, &b.wv, &b.wo, &b.w_gate, &b.w_up, &b.w_down]
                .into_iter()
                .map(linear)
                .sum::<usize>()
                + (b.input_norm.len() + b.post_norm.len()) * 4
        })
        .sum();
    blocks + linear(&model.lm_head) + model.final_norm.len() * 4 + model.config.hidden * 4
}
