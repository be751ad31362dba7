//! Compute kernels: matmul (naive + tiled + batched), RMSNorm, softmax,
//! SiLU, RoPE.
//!
//! Two matmul families live here:
//!
//! * [`gemv`] — the original scalar reference kernel: one chained
//!   accumulator per output row. The chain serializes every add behind
//!   the previous one, so the compiler cannot vectorize it; it runs at
//!   FP-add latency, far below memory bandwidth. Kept as the correctness
//!   oracle and the "naive" baseline in `bench_infer`.
//! * [`gemv_tiled`] / [`gemm`] — the production path: both reduce each
//!   `(output row, input row)` pair in the `dot_lanes` order ([`LANES`]
//!   independent partial sums + a fixed halving-tree reduction), which
//!   the compiler auto-vectorizes. Single-row decode vectorizes *along*
//!   the row (`dot_lanes`). The batched driver behind `gemm` and the
//!   quantized GEMMs vectorizes *across inputs* instead: it transposes
//!   full blocks of `BLOCK` (8) input rows so one vector FMA feeds one
//!   weight element into eight inputs (`dot_block`), running exactly
//!   `dot_lanes`'s operations elementwise. Because the per-pair summation
//!   order is shared, batched/chunked forwards built on `gemm` are
//!   **bit-identical** to single-token forwards built on `gemv_tiled`.
//!   Versus `gemv` the sum is reassociated, so results may differ from
//!   the naive kernel by float rounding; the property suite
//!   (`tests/prop_kernels.rs`) pins that drift to ≤1e-5 relative error.

use crate::tensor::Matrix;

/// Independent accumulator lanes in `dot_lanes`. Sixty-four f32 lanes
/// give the compiler eight independent 8-wide (or four 16-wide) vector
/// FMA chains — enough to hide FMA latency and saturate the load ports.
/// A single vector register's worth of lanes would collapse back into
/// one chain and run at FP-add latency instead of FMA throughput; more
/// than one row's worth of 64-lane accumulators (e.g. a paired-row
/// kernel) overflows the vector register file and spills the hot loop
/// to the stack, which measures *slower* than single-row reduction.
/// The batched `dot_block` keeps the same 64 lanes per (row, input)
/// pair, but as vectors across `BLOCK` inputs, in register-resident
/// groups of eight lanes.
pub const LANES: usize = 64;

/// Lane-parallel dot product with a fixed reduction order.
///
/// Element `i` always lands in lane `i % LANES` (the tail continues the
/// same interleave), and lanes reduce with the fixed halving-fold tree
/// of `reduce_lanes`. Keeping this order fixed is what makes every
/// tiled/batched kernel bit-identical to every other: they all call
/// this one routine per (row, input) pair.
#[inline(always)]
pub(crate) fn dot_lanes(x: &[f32], w: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), w.len());
    let mut lanes = [0.0f32; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut wc = w.chunks_exact(LANES);
    for (xs, ws) in (&mut xc).zip(&mut wc) {
        // Fixed-size views (always exact from `chunks_exact`): the
        // compiler sees the extent and drops per-element bounds checks.
        let xs: &[f32; LANES] = xs.try_into().expect("lane block");
        let ws: &[f32; LANES] = ws.try_into().expect("lane block");
        for l in 0..LANES {
            // Explicit fused multiply-add: one rounding per element and
            // half the FP ops of mul+add. Rust never contracts
            // implicitly, so this is the only way to reach the FMA
            // units the roofline model assumes.
            lanes[l] = xs[l].mul_add(ws[l], lanes[l]);
        }
    }
    // Ragged tail: stage the products in a scratch block, then fold
    // them in with constant lane indices. A dynamically-indexed write
    // into `lanes` anywhere in this function would spill the whole
    // accumulator array to the stack and serialize the hot loop above.
    let (xr, wr) = (xc.remainder(), wc.remainder());
    if !xr.is_empty() {
        let mut tail = [0.0f32; LANES];
        for ((t, xi), wi) in tail.iter_mut().zip(xr).zip(wr) {
            *t = xi * wi;
        }
        merge_tail(&mut lanes, &tail, xr.len());
    }
    reduce_lanes(&lanes)
}

/// Fold a staged tail block into the lane accumulators. Only the first
/// `n` entries are live; the guard (rather than a `0..n` bound) keeps
/// every index constant so the accumulators stay in registers.
#[inline(always)]
pub(crate) fn merge_tail(lanes: &mut [f32; LANES], tail: &[f32; LANES], n: usize) {
    for l in 0..LANES {
        if l < n {
            lanes[l] += tail[l];
        }
    }
}

/// Fixed tree reduction of the lane accumulators by halving folds:
/// `buf[i] += buf[i + width]` for `width = 32, 16, .., 1`. Both
/// operands of every level are contiguous runs, so each level is a
/// plain vector add (a stride-2 pairwise tree would reduce scalarly).
/// Cold epilogue, one call per (row, input) pair.
#[inline(always)]
pub(crate) fn reduce_lanes(lanes: &[f32; LANES]) -> f32 {
    let mut buf = *lanes;
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            buf[i] += buf[i + width];
        }
    }
    buf[0]
}

/// Output rows walked per tile in [`gemv_tiled`]: a small block of
/// weight rows reduces back-to-back against the same (cache-hot) input
/// vector before moving on, keeping the input resident in L1 while the
/// weight stream provides all the memory traffic.
pub const TILE_ROWS: usize = 4;

/// Tiled `out = x · w^T`: same contract as [`gemv`], but weight rows are
/// walked in [`TILE_ROWS`] blocks and each row reduces in the
/// `dot_lanes` order. This is the kernel behind `Linear::F32`.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn gemv_tiled(x: &[f32], w: &Matrix, out: &mut [f32]) {
    assert_eq!(x.len(), w.cols, "gemv input dim");
    assert_eq!(out.len(), w.rows, "gemv output dim");
    for (t, block) in out.chunks_mut(TILE_ROWS).enumerate() {
        let base = t * TILE_ROWS;
        for (i, o) in block.iter_mut().enumerate() {
            *o = dot_lanes(x, w.row(base + i));
        }
    }
}

/// Input rows per block of the batched driver: one lane accumulator
/// holds one value per input of the block, a single 8-wide vector.
pub(crate) const BLOCK: usize = 8;

/// Lane accumulators of [`dot_block`] held in registers at once: eight
/// 8-wide vectors. All 64 lanes across a block would be 64 vectors and
/// spill, so the lanes run in `LANES / LANE_GROUP` passes over the row.
const LANE_GROUP: usize = 8;

/// The batched matmul driver behind every weight format's `gemm`:
/// `out[b][r] = xs[b] · (weight row r)` for every input row `b`.
///
/// `load(r, row)` writes weight row `r` as f32 — a copy of f32 weights,
/// a dequantization of int8/int4 ones — once per call, into a scratch
/// tile of [`TILE_ROWS`] rows. Full blocks of [`BLOCK`] input rows are
/// transposed once per call, so one vector FMA multiplies a weight
/// element into eight inputs (`dot_block`), and a tile of weight rows
/// reuses each transposed block while it is in L1. Leftover rows (fewer
/// than [`BLOCK`]) run `dot_lanes` against the same tile, so weights are
/// streamed once for any batch. A one-row batch — decode — runs `gemv`,
/// the format's single-row kernel, unchanged.
pub(crate) fn gemm_rows(
    xs: &Matrix,
    out: &mut Matrix,
    load: impl Fn(usize, &mut [f32]),
    gemv: impl Fn(&[f32], &mut [f32]),
) {
    if xs.rows <= 1 {
        for b in 0..xs.rows {
            gemv(xs.row(b), out.row_mut(b));
        }
        return;
    }
    let (k, rows) = (xs.cols, out.cols);
    let full = xs.rows / BLOCK * BLOCK;
    // `xt[b * k + c][i]` is column `c` of input row `b * BLOCK + i`.
    let mut xt = vec![[0.0; BLOCK]; full * k];
    for b in 0..full {
        for (col, v) in xt[b / BLOCK * k..].iter_mut().zip(xs.row(b)) {
            col[b % BLOCK] = *v;
        }
    }
    let mut w = vec![0.0; TILE_ROWS * k];
    for r0 in (0..rows).step_by(TILE_ROWS) {
        let tile = r0..(r0 + TILE_ROWS).min(rows);
        for (j, r) in tile.clone().enumerate() {
            load(r, &mut w[j * k..(j + 1) * k]);
        }
        for b in 0..full / BLOCK {
            let block = &xt[b * k..(b + 1) * k];
            for (j, r) in tile.clone().enumerate() {
                let dots = dot_block(block, &w[j * k..(j + 1) * k]);
                for (i, d) in dots.into_iter().enumerate() {
                    out.row_mut(b * BLOCK + i)[r] = d;
                }
            }
        }
        for b in full..xs.rows {
            dot_rows(xs.row(b), &w, &mut out.row_mut(b)[tile.clone()]);
        }
    }
}

/// `out[j] = dot_lanes(x, w_j)` for weight rows `w_j` packed back to back
/// in `w`. Kept out of line so `dot_lanes` compiles as it does in
/// [`gemv_tiled`], not inside the driver's larger loop nest.
#[inline(never)]
fn dot_rows(x: &[f32], w: &[f32], out: &mut [f32]) {
    let k = x.len();
    for (j, o) in out.iter_mut().enumerate() {
        *o = dot_lanes(x, &w[j * k..(j + 1) * k]);
    }
}

/// `dot_lanes` of one weight row against a transposed block of
/// [`BLOCK`] inputs at once. Each lane is a `[f32; BLOCK]` vector and
/// sees exactly `dot_lanes`'s FMAs, tail adds and halving tree, applied
/// elementwise across the block, so every (row, input) pair is
/// bit-identical to `dot_lanes`.
#[inline(always)]
fn dot_block(xt: &[[f32; BLOCK]], w: &[f32]) -> [f32; BLOCK] {
    debug_assert_eq!(xt.len(), w.len());
    let full = w.len() / LANES;
    let mut lanes = [[0.0f32; BLOCK]; LANES];
    for (g, group) in lanes.chunks_exact_mut(LANE_GROUP).enumerate() {
        let mut acc = [[0.0f32; BLOCK]; LANE_GROUP];
        for c in 0..full {
            let at = c * LANES + g * LANE_GROUP;
            let xs: &[[f32; BLOCK]; LANE_GROUP] =
                xt[at..at + LANE_GROUP].try_into().expect("lane group");
            let ws: &[f32; LANE_GROUP] = w[at..at + LANE_GROUP].try_into().expect("lane group");
            for j in 0..LANE_GROUP {
                for i in 0..BLOCK {
                    acc[j][i] = xs[j][i].mul_add(ws[j], acc[j][i]);
                }
            }
        }
        group.copy_from_slice(&acc);
    }
    let start = full * LANES;
    for (lane, (x, wi)) in lanes.iter_mut().zip(xt[start..].iter().zip(&w[start..])) {
        for i in 0..BLOCK {
            lane[i] += x[i] * wi;
        }
    }
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            let upper = lanes[l + width];
            for (a, u) in lanes[l].iter_mut().zip(upper) {
                *a += u;
            }
        }
    }
    lanes[0]
}

/// Batched matmul: `out[b] = xs[b] · w^T` for every input row `b`. The
/// outer loop walks weight rows so each row of `w` is streamed from
/// memory once and reused across the whole batch from cache; within a
/// row, full blocks of `BLOCK` inputs share each weight load (see
/// `dot_block`). Every `(row, input)` pair reduces in the `dot_lanes`
/// order, so `gemm` over a batch is bit-identical to [`gemv_tiled`] per
/// input row; a one-row batch runs `gemv_tiled` itself.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn gemm(xs: &Matrix, w: &Matrix, out: &mut Matrix) {
    assert_eq!(xs.cols, w.cols, "gemm input dim");
    assert_eq!(out.rows, xs.rows, "gemm batch dim");
    assert_eq!(out.cols, w.rows, "gemm output dim");
    gemm_rows(
        xs,
        out,
        |r, row| row.copy_from_slice(w.row(r)),
        |x, o| gemv_tiled(x, w, o),
    );
}

/// `out = x · w^T` for a single input row `x` (`1 x in`), with `w` stored
/// as `out_dim x in_dim` (each row of `w` is one output neuron) — the
/// GEMV at the heart of decode.
///
/// This is the scalar **reference** kernel (chained accumulator, no lane
/// parallelism); the hot path uses [`gemv_tiled`].
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn gemv(x: &[f32], w: &Matrix, out: &mut [f32]) {
    assert_eq!(x.len(), w.cols, "gemv input dim");
    assert_eq!(out.len(), w.rows, "gemv output dim");
    for (row, o) in out.iter_mut().enumerate() {
        let wr = w.row(row);
        // One strictly-ordered accumulator chain: every add waits on the
        // previous one, so the kernel runs at FP-add latency — the
        // textbook baseline the tiled kernel is measured against.
        let mut acc = 0.0f32;
        for (xi, wi) in x.iter().zip(wr) {
            acc += xi * wi;
        }
        *o = acc;
    }
}

/// RMSNorm: `x * g / sqrt(mean(x^2) + eps)`.
pub fn rmsnorm(x: &mut [f32], gain: &[f32], eps: f32) {
    assert_eq!(x.len(), gain.len());
    let ms: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for (v, g) in x.iter_mut().zip(gain) {
        *v *= inv * g;
    }
}

/// Numerically-stable in-place softmax.
pub fn softmax(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in x.iter_mut() {
        *v /= sum;
    }
}

/// SiLU activation: `x * sigmoid(x)`.
#[must_use]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Apply rotary position embedding to a head vector of even length at
/// sequence position `pos`, with base `theta` (Llama uses 10000).
pub fn rope(head: &mut [f32], pos: usize, theta: f32) {
    let d = head.len();
    assert_eq!(d % 2, 0, "rope needs even head dim");
    for i in (0..d).step_by(2) {
        #[allow(clippy::cast_precision_loss)]
        let freq = 1.0 / theta.powf(i as f32 / d as f32);
        #[allow(clippy::cast_precision_loss)]
        let angle = pos as f32 * freq;
        let (sin, cos) = angle.sin_cos();
        let (a, b) = (head[i], head[i + 1]);
        head[i] = a * cos - b * sin;
        head[i + 1] = a * sin + b * cos;
    }
}

/// Argmax index of a slice (ties broken by lowest index).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn argmax(x: &[f32]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, v) in x.iter().enumerate() {
        if *v > x[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemv_identity() {
        let mut w = Matrix::zeros(3, 3);
        for i in 0..3 {
            w.set(i, i, 1.0);
        }
        let mut out = [0.0; 3];
        gemv(&[1.0, 2.0, 3.0], &w, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn gemv_matches_naive() {
        let w = Matrix::from_vec(2, 5, (0..10).map(|i| i as f32 * 0.5).collect());
        let x: Vec<f32> = (0..5).map(|i| 1.0 - i as f32 * 0.1).collect();
        let mut out = [0.0; 2];
        gemv(&x, &w, &mut out);
        for (r, got) in out.iter().enumerate() {
            let expect: f32 = (0..5).map(|c| x[c] * w.get(r, c)).sum();
            assert!((got - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut x = [1.0, 3.0, 2.0];
        softmax(&mut x);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(x[1] > x[2] && x[2] > x[0]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut x = [1000.0, 1000.0];
        softmax(&mut x);
        assert!((x[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn rmsnorm_unit_scale() {
        let mut x = vec![3.0, 4.0];
        let g = vec![1.0, 1.0];
        rmsnorm(&mut x, &g, 1e-6);
        // RMS of (3,4) is sqrt(12.5); normalized values keep the ratio.
        assert!((x[1] / x[0] - 4.0 / 3.0).abs() < 1e-5);
        let ms: f32 = x.iter().map(|v| v * v).sum::<f32>() / 2.0;
        assert!((ms - 1.0).abs() < 1e-4);
    }

    #[test]
    fn silu_properties() {
        assert_eq!(silu(0.0), 0.0);
        assert!(silu(5.0) > 4.9);
        assert!(silu(-5.0) > -0.05 && silu(-5.0) < 0.0);
    }

    #[test]
    fn rope_preserves_norm() {
        let mut h = vec![1.0, 2.0, 3.0, 4.0];
        let before: f32 = h.iter().map(|v| v * v).sum();
        rope(&mut h, 17, 10000.0);
        let after: f32 = h.iter().map(|v| v * v).sum();
        assert!((before - after).abs() < 1e-4);
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut h = vec![1.0, 2.0, 3.0, 4.0];
        let orig = h.clone();
        rope(&mut h, 0, 10000.0);
        for (a, b) in h.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rope_relative_property() {
        // Dot product of two rotated vectors depends only on the position
        // difference (the defining property of RoPE).
        let q = vec![0.5, -1.0];
        let k = vec![1.5, 0.25];
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
        let mut q1 = q.clone();
        let mut k1 = k.clone();
        rope(&mut q1, 5, 10000.0);
        rope(&mut k1, 3, 10000.0);
        let mut q2 = q.clone();
        let mut k2 = k.clone();
        rope(&mut q2, 12, 10000.0);
        rope(&mut k2, 10, 10000.0);
        assert!((dot(&q1, &k1) - dot(&q2, &k2)).abs() < 1e-4);
    }

    #[test]
    fn argmax_basic() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax(&[2.0, 2.0]), 0);
    }

    #[test]
    fn tiled_gemv_tracks_naive() {
        // 13 cols: not a multiple of LANES; 6 rows: not a multiple of
        // TILE_ROWS.
        let w = Matrix::from_vec(6, 13, (0..78).map(|i| (i as f32 * 0.713).sin()).collect());
        let x: Vec<f32> = (0..13).map(|i| (i as f32 * 0.29).cos()).collect();
        let mut naive = vec![0.0; 6];
        gemv(&x, &w, &mut naive);
        let mut tiled = vec![0.0; 6];
        gemv_tiled(&x, &w, &mut tiled);
        for (n, t) in naive.iter().zip(&tiled) {
            assert!(
                (n - t).abs() <= 1e-5 * n.abs().max(1.0),
                "naive {n} tiled {t}"
            );
        }
    }

    #[test]
    fn gemm_rows_bit_identical_to_tiled_gemv() {
        let w = Matrix::from_vec(5, 19, (0..95).map(|i| (i as f32 * 0.37).sin()).collect());
        let xs = Matrix::from_vec(3, 19, (0..57).map(|i| (i as f32 * 0.11).cos()).collect());
        let mut out = Matrix::zeros(3, 5);
        gemm(&xs, &w, &mut out);
        for b in 0..3 {
            let mut single = vec![0.0; 5];
            gemv_tiled(xs.row(b), &w, &mut single);
            assert_eq!(out.row(b), &single[..], "batch row {b} diverged");
        }
    }

    #[test]
    fn tiled_kernels_handle_empty_and_tiny_shapes() {
        let w = Matrix::zeros(0, 7);
        let x = vec![1.0; 7];
        let mut out: Vec<f32> = Vec::new();
        gemv_tiled(&x, &w, &mut out);
        assert!(out.is_empty());

        let w1 = Matrix::from_vec(1, 1, vec![2.5]);
        let mut o1 = [0.0];
        gemv_tiled(&[4.0], &w1, &mut o1);
        assert_eq!(o1[0], 10.0);

        let we = Matrix::zeros(3, 0);
        let xe: Vec<f32> = Vec::new();
        let mut oe = [9.0; 3];
        gemv_tiled(&xe, &we, &mut oe);
        assert_eq!(oe, [0.0; 3]);

        let mut empty_batch = Matrix::zeros(0, 4);
        gemm(
            &Matrix::zeros(0, 7),
            &Matrix::from_vec(4, 7, vec![1.0; 28]),
            &mut empty_batch,
        );
        assert_eq!(empty_batch.rows, 0);
    }
}
