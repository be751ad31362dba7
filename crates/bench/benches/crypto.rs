//! Criterion benches for the crypto substrate — the software analogue of
//! the TEE memory-encryption engines whose cost the paper measures.

use cllm_crypto::drbg::HashDrbg;
use cllm_crypto::kdf::derive_sealing_key;
use cllm_crypto::modes::{Ctr, Gcm};
use cllm_crypto::sha256::sha256;
use cllm_tee::sealed::{BlockDevice, SECTOR_BYTES};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_sha256(c: &mut Criterion) {
    let small = vec![0xAAu8; 1024];
    let large = vec![0x55u8; 64 * 1024];
    c.bench_function("sha256_1KiB", |b| b.iter(|| sha256(black_box(&small))));
    c.bench_function("sha256_64KiB", |b| b.iter(|| sha256(black_box(&large))));
}

fn bench_gcm(c: &mut Criterion) {
    let gcm = Gcm::new(&[7u8; 16]);
    let iv = [1u8; 12];
    let data = vec![0x42u8; 4096];
    c.bench_function("aes_gcm_seal_4KiB", |b| {
        b.iter(|| gcm.encrypt(black_box(&iv), black_box(&data), b"aad"))
    });
    let (ct, tag) = gcm.encrypt(&iv, &data, b"aad");
    c.bench_function("aes_gcm_open_4KiB", |b| {
        b.iter(|| gcm.decrypt(black_box(&iv), black_box(&ct), b"aad", &tag))
    });
    // Bulk unseal: the weight-release path, past every batching boundary.
    let big = vec![0x42u8; 1 << 20];
    let (big_ct, big_tag) = gcm.encrypt(&iv, &big, b"aad");
    c.bench_function("aes_gcm_open_1MiB", |b| {
        b.iter(|| gcm.decrypt(black_box(&iv), black_box(&big_ct), b"aad", &big_tag))
    });
}

fn bench_ctr_and_device(c: &mut Criterion) {
    let ctr = Ctr::new(&[3u8; 16]);
    let iv = [9u8; 12];
    let mut buf = vec![0u8; 4096];
    c.bench_function("aes_ctr_4KiB", |b| {
        b.iter(|| ctr.apply(black_box(&iv), 0, black_box(&mut buf)))
    });
    let mut dev = BlockDevice::format(&[5u8; 16], 64);
    let sector = [0x5Au8; SECTOR_BYTES];
    c.bench_function("luks_sector_write_read", |b| {
        b.iter(|| {
            dev.write_sector(7, black_box(&sector));
            black_box(dev.read_sector(7))
        })
    });
}

fn bench_kdf_and_drbg(c: &mut Criterion) {
    c.bench_function("sealing_key_derivation", |b| {
        b.iter(|| derive_sealing_key(black_box(b"root"), &[1u8; 32], "weights"))
    });
    let mut drbg = HashDrbg::new(b"bench");
    let mut out = [0u8; 256];
    c.bench_function("drbg_fill_256B", |b| {
        b.iter(|| drbg.fill(black_box(&mut out)))
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_gcm,
    bench_ctr_and_device,
    bench_kdf_and_drbg
);
criterion_main!(benches);
