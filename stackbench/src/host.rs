//! Host probes: copy bandwidth and peak resident memory.

use crate::stats::median;
use std::time::Instant;

/// Bytes in the copy probe's source buffer: larger than the 105 MiB L3
/// of the reference host, so the copy streams from DRAM.
const COPY_BYTES: usize = 128 << 20;
const COPY_REPS: usize = 5;

/// STREAM-style copy bandwidth in GB/s (bytes read plus bytes written,
/// 10^9 bytes per GB), median of a few copies of a buffer larger than L3.
#[must_use]
pub fn copy_gb_per_s() -> f64 {
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let rates: Vec<f64> = (0..COPY_REPS)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            #[allow(clippy::cast_precision_loss)]
            let moved = (2 * COPY_BYTES) as f64;
            moved / t0.elapsed().as_secs_f64().max(1e-9) / 1e9
        })
        .collect();
    median(&rates)
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size in MiB since start or the last reset.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
