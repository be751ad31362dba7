//! Group-wise int8 and int4 weight quantization with f32 accumulation.
//!
//! The paper's int8 deployments quantize model weights post-training;
//! activations and accumulation stay in higher precision. This module
//! implements that scheme with production layout choices:
//!
//! * **Group-wise scales.** Each weight row is split into groups of
//!   [`GROUP`] columns and every `(row, group)` pair gets its own f32
//!   scale (`max(|group|)/127` for int8, `max(|group|)/7` for int4).
//!   A single per-row scale lets one outlier wreck the whole row; a
//!   per-group scale bounds the damage to one group — the standard
//!   trick behind GPTQ/AWQ-style weight-only quantization.
//! * **Fused dequant-GEMV, dequantize-once GEMM.** Single-row decode
//!   dequantizes in registers — each product applies the group scale as
//!   `x * (q * s)` inside a row-long lane accumulator block — so f32
//!   weights are never materialized in memory; the int4 GEMV unpacks two
//!   nibbles per byte on the fly through a staged lane block. The GEMM
//!   instead dequantizes each weight row once per call into an f32
//!   scratch tile (the same `q * s` values) and runs the shared
//!   input-vectorized `kernels::gemm` driver over every full block of
//!   eight inputs and its leftover rows, so the unpack is paid once per
//!   row rather than once per input; a one-row batch takes the fused
//!   GEMV.
//! * **Packed int4.** [`Quant4Matrix`] stores two 4-bit codes per byte
//!   (element `2j` in the low nibble, `2j+1` in the high nibble, biased
//!   by +8), with an odd-column remainder occupying a half-used final
//!   byte per row — `storage_bytes` accounts for it exactly.
//!
//! Error bounds: round-to-nearest against a group scale `s` gives
//! `|v - dequant(quant(v))| <= s/2`, i.e. `max|group|/254` for int8 and
//! `max|group|/14` for int4. The test suite pins both bounds on
//! adversarial matrices (all-zero, single-outlier, alternating-sign).

use crate::kernels::{gemm_rows, merge_tail, reduce_lanes, LANES};
use crate::tensor::Matrix;

/// Columns per quantization group. 64 matches the engine's smallest
/// hidden size and divides every dimension the models use; ragged final
/// groups (cols not a multiple of 64) are still handled.
pub const GROUP: usize = 64;

/// Number of groups in a row of `cols` columns.
#[must_use]
fn groups_of(cols: usize) -> usize {
    cols.div_ceil(GROUP).max(1)
}

// `GROUP` must be a multiple of `kernels::LANES`: the quantized dot
// kernels keep one lane accumulator per column-mod-LANES across the
// whole row and look the group scale up per lane block, so a lane
// block must never straddle a group boundary.
const _: () = assert!(
    GROUP.is_multiple_of(LANES),
    "quant GROUP must be a multiple of kernels::LANES"
);

/// An int8-quantized matrix with one f32 scale per `(row, group)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantMatrix {
    /// Quantize an f32 matrix with group-wise scales.
    #[must_use]
    pub fn quantize(m: &Matrix) -> Self {
        let ngroups = groups_of(m.cols);
        let mut data = Vec::with_capacity(m.rows * m.cols);
        let mut scales = Vec::with_capacity(m.rows * ngroups);
        for r in 0..m.rows {
            let row = m.row(r);
            for g in 0..ngroups {
                let start = g * GROUP;
                let end = (start + GROUP).min(m.cols);
                let group = &row[start..end];
                let max = group.iter().fold(0.0f32, |a, v| a.max(v.abs()));
                let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
                scales.push(scale);
                for &v in group {
                    let q = (v / scale).round().clamp(-127.0, 127.0);
                    #[allow(clippy::cast_possible_truncation)]
                    data.push(q as i8);
                }
            }
        }
        QuantMatrix {
            rows: m.rows,
            cols: m.cols,
            data,
            scales,
        }
    }

    /// Dequantize back to f32 (for error measurement and the fused-vs-
    /// unfused equivalence test).
    #[must_use]
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            self.dequantize_row(r, out.row_mut(r));
        }
        out
    }

    /// Row `r` as f32: `f32::from(q) * s`, the same value the fused dot
    /// forms in registers, so a dot over this row is bit-identical to it.
    fn dequantize_row(&self, r: usize, out: &mut [f32]) {
        let ngroups = groups_of(self.cols);
        let codes = &self.data[r * self.cols..(r + 1) * self.cols];
        for (g, (ws, qs)) in out.chunks_mut(GROUP).zip(codes.chunks(GROUP)).enumerate() {
            let s = self.scales[r * ngroups + g];
            for (w, q) in ws.iter_mut().zip(qs) {
                *w = f32::from(*q) * s;
            }
        }
    }

    /// Fused per-row dot product: one [`LANES`]-wide f32 accumulator
    /// block spans the whole row (lane blocks never straddle a
    /// quantization group), with the group scale folded into each
    /// product in registers — f32 weights are never materialized. It
    /// forms `dot_lanes` of [`Self::dequantize_row`] term by term, which
    /// keeps the batched driver bit-identical to it.
    #[inline(always)]
    fn dot_row(&self, r: usize, x: &[f32]) -> f32 {
        let ngroups = groups_of(self.cols);
        let base = r * self.cols;
        let mut lanes = [0.0f32; LANES];
        let blocks = self.cols / LANES;
        for blk in 0..blocks {
            let start = blk * LANES;
            let s = self.scales[r * ngroups + start / GROUP];
            // Fixed-size views: the compiler sees the exact extent and
            // drops per-element bounds checks from the hot loop.
            let xs: &[f32; LANES] = x[start..start + LANES].try_into().expect("lane block");
            let qs: &[i8; LANES] = self.data[base + start..base + start + LANES]
                .try_into()
                .expect("lane block");
            for l in 0..LANES {
                lanes[l] = xs[l].mul_add(f32::from(qs[l]) * s, lanes[l]);
            }
        }
        // Ragged tail (always within one group): stage dequantized
        // products, then fold them in with constant lane indices (see
        // `kernels::dot_lanes` for why a dynamic index into `lanes`
        // is forbidden here).
        let start = blocks * LANES;
        if start < self.cols {
            let s = self.scales[r * ngroups + start / GROUP];
            let mut tail = [0.0f32; LANES];
            let xr = &x[start..];
            let qr = &self.data[base + start..base + self.cols];
            for ((t, xi), qi) in tail.iter_mut().zip(xr).zip(qr) {
                *t = xi * (f32::from(*qi) * s);
            }
            merge_tail(&mut lanes, &tail, self.cols - start);
        }
        reduce_lanes(&lanes)
    }

    /// `out = x · w^T` with on-the-fly dequantization and f32 accumulation.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gemv(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "qgemv input dim");
        assert_eq!(out.len(), self.rows, "qgemv output dim");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.dot_row(r, x);
        }
    }

    /// Batched GEMM: `out[b] = xs[b] · w^T`, bit-identical per row to
    /// [`Self::gemv`]. The `kernels::gemm` driver dequantizes each weight
    /// row once per call for the whole batch; a one-row batch takes the
    /// fused GEMV.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gemm(&self, xs: &Matrix, out: &mut Matrix) {
        assert_eq!(xs.cols, self.cols, "qgemm input dim");
        assert_eq!(out.rows, xs.rows, "qgemm batch dim");
        assert_eq!(out.cols, self.rows, "qgemm output dim");
        gemm_rows(
            xs,
            out,
            |r, w| self.dequantize_row(r, w),
            |x, o| self.gemv(x, o),
        );
    }

    /// Storage bytes (data + scales) — roughly a quarter of f32.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }
}

/// An int4-quantized matrix: two codes per byte, group-wise f32 scales.
///
/// Codes are symmetric round-to-nearest in `-7..=7` against the group
/// scale `max(|group|)/7`, stored biased by +8 (so `1..=15`; the nibble
/// value 0 is unused). Element `2j` of a row lives in the low nibble of
/// packed byte `j`, element `2j+1` in the high nibble; rows with odd
/// column counts leave the final high nibble zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Quant4Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    data: Vec<u8>,
    scales: Vec<f32>,
}

impl Quant4Matrix {
    /// Quantize an f32 matrix to packed int4 with group-wise scales.
    #[must_use]
    pub fn quantize(m: &Matrix) -> Self {
        let ngroups = groups_of(m.cols);
        let row_bytes = m.cols.div_ceil(2);
        let mut data = vec![0u8; m.rows * row_bytes];
        let mut scales = Vec::with_capacity(m.rows * ngroups);
        for r in 0..m.rows {
            let row = m.row(r);
            for g in 0..ngroups {
                let start = g * GROUP;
                let end = (start + GROUP).min(m.cols);
                let group = &row[start..end];
                let max = group.iter().fold(0.0f32, |a, v| a.max(v.abs()));
                let scale = if max == 0.0 { 1.0 } else { max / 7.0 };
                scales.push(scale);
                for (off, &v) in group.iter().enumerate() {
                    let c = start + off;
                    let q = (v / scale).round().clamp(-7.0, 7.0);
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let code = (q as i32 + 8) as u8;
                    let byte = &mut data[r * row_bytes + c / 2];
                    if c.is_multiple_of(2) {
                        *byte |= code;
                    } else {
                        *byte |= code << 4;
                    }
                }
            }
        }
        Quant4Matrix {
            rows: m.rows,
            cols: m.cols,
            data,
            scales,
        }
    }

    /// Dequantize back to f32.
    #[must_use]
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            self.dequantize_row(r, out.row_mut(r));
        }
        out
    }

    /// Row `r` as f32: `f32::from(code) * s`, the same value the fused
    /// dot forms in registers. Full groups unpack through fixed-size
    /// views (two nibbles per byte, as in the fused dot) so the unpack
    /// vectorizes; a ragged final group unpacks element by element.
    fn dequantize_row(&self, r: usize, out: &mut [f32]) {
        let ngroups = groups_of(self.cols);
        let row_bytes = self.cols.div_ceil(2);
        let packed = &self.data[r * row_bytes..(r + 1) * row_bytes];
        let scales = &self.scales[r * ngroups..(r + 1) * ngroups];
        let code = |nibble: u8| f32::from(i16::from(nibble) - 8);
        let mut groups = out.chunks_exact_mut(GROUP);
        for ((ws, bytes), s) in (&mut groups)
            .zip(packed.chunks_exact(GROUP / 2))
            .zip(scales)
        {
            let ws: &mut [f32; GROUP] = ws.try_into().expect("full group");
            let bytes: &[u8; GROUP / 2] = bytes.try_into().expect("full group");
            for j in 0..GROUP / 2 {
                ws[2 * j] = code(bytes[j] & 0x0F) * s;
                ws[2 * j + 1] = code(bytes[j] >> 4) * s;
            }
        }
        let tail = groups.into_remainder();
        let start = self.cols - tail.len();
        for (c, w) in (start..).zip(tail) {
            let byte = packed[c / 2];
            let nibble = if c.is_multiple_of(2) {
                byte & 0x0F
            } else {
                byte >> 4
            };
            *w = code(nibble) * scales[c / GROUP];
        }
    }

    /// Fused per-row dot product: unpack nibbles through a staged
    /// lane-block, accumulate in one [`LANES`]-wide f32 block spanning
    /// the whole row, with the group scale folded into each product —
    /// `dot_lanes` of [`Self::dequantize_row`], term by term.
    #[inline(always)]
    fn dot_row(&self, r: usize, x: &[f32]) -> f32 {
        let ngroups = groups_of(self.cols);
        let row_bytes = self.cols.div_ceil(2);
        let base = r * row_bytes;
        let mut lanes = [0.0f32; LANES];
        let blocks = self.cols / LANES;
        for blk in 0..blocks {
            let start = blk * LANES;
            let s = self.scales[r * ngroups + start / GROUP];
            // LANES is even, so full blocks begin and end on byte
            // boundaries: LANES/2 packed bytes per block. Fixed-size
            // views drop per-element bounds checks from the hot loop.
            let bytes: &[u8; LANES / 2] = self.data[base + start / 2..base + start / 2 + LANES / 2]
                .try_into()
                .expect("lane block");
            let mut vals = [0.0f32; LANES];
            for j in 0..LANES / 2 {
                let byte = bytes[j];
                vals[2 * j] = f32::from(i16::from(byte & 0x0F) - 8);
                vals[2 * j + 1] = f32::from(i16::from(byte >> 4) - 8);
            }
            let xs: &[f32; LANES] = x[start..start + LANES].try_into().expect("lane block");
            for l in 0..LANES {
                lanes[l] = xs[l].mul_add(vals[l] * s, lanes[l]);
            }
        }
        // Ragged tail (always within one group; may also end mid-byte):
        // stage scalar unpacks, then fold in with constant lane indices.
        let start = blocks * LANES;
        if start < self.cols {
            let s = self.scales[r * ngroups + start / GROUP];
            let mut tail = [0.0f32; LANES];
            for c in start..self.cols {
                let byte = self.data[base + c / 2];
                let nibble = if c.is_multiple_of(2) {
                    byte & 0x0F
                } else {
                    byte >> 4
                };
                tail[c - start] = x[c] * (f32::from(i16::from(nibble) - 8) * s);
            }
            merge_tail(&mut lanes, &tail, self.cols - start);
        }
        reduce_lanes(&lanes)
    }

    /// `out = x · w^T` with fused nibble unpacking and f32 accumulation.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gemv(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "q4gemv input dim");
        assert_eq!(out.len(), self.rows, "q4gemv output dim");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.dot_row(r, x);
        }
    }

    /// Batched GEMM, bit-identical per row to [`Self::gemv`]: the
    /// `kernels::gemm` driver over rows dequantized once per call, or the
    /// fused GEMV for a one-row batch.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gemm(&self, xs: &Matrix, out: &mut Matrix) {
        assert_eq!(xs.cols, self.cols, "q4gemm input dim");
        assert_eq!(out.rows, xs.rows, "q4gemm batch dim");
        assert_eq!(out.cols, self.rows, "q4gemm output dim");
        gemm_rows(
            xs,
            out,
            |r, w| self.dequantize_row(r, w),
            |x, o| self.gemv(x, o),
        );
    }

    /// Storage bytes (packed data + scales): `rows * ceil(cols/2)` data
    /// bytes — exact for odd column counts — plus 4 per group scale.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, seed: u32) -> Matrix {
        // Small deterministic pseudo-random matrix.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    /// Max |group| per (row, group) of a matrix, for bound checks.
    fn group_max(m: &Matrix, r: usize, g: usize) -> f32 {
        let start = g * GROUP;
        let end = (start + GROUP).min(m.cols);
        m.row(r)[start..end]
            .iter()
            .fold(0.0f32, |a, v| a.max(v.abs()))
    }

    #[test]
    fn quantization_error_is_small() {
        let m = sample(16, 64, 7);
        let q = QuantMatrix::quantize(&m);
        let d = q.dequantize();
        for r in 0..m.rows {
            for c in 0..m.cols {
                let bound = group_max(&m, r, c / GROUP) / 254.0 + 1e-6;
                let err = (m.get(r, c) - d.get(r, c)).abs();
                assert!(err <= bound, "err {err} at {r},{c}");
            }
        }
    }

    #[test]
    fn int4_roundtrip_error_within_group_bound() {
        let m = sample(8, 96, 21);
        let q = Quant4Matrix::quantize(&m);
        let d = q.dequantize();
        for r in 0..m.rows {
            for c in 0..m.cols {
                let bound = group_max(&m, r, c / GROUP) / 14.0 + 1e-6;
                let err = (m.get(r, c) - d.get(r, c)).abs();
                assert!(err <= bound, "err {err} at {r},{c}");
            }
        }
    }

    #[test]
    fn group_scales_contain_outlier_damage() {
        // One huge outlier in the first group must not degrade groups
        // that don't contain it (the whole point of group-wise scales).
        let mut m = sample(1, 2 * GROUP, 5);
        m.set(0, 3, 1000.0);
        let q = QuantMatrix::quantize(&m);
        let d = q.dequantize();
        for c in GROUP..2 * GROUP {
            let bound = group_max(&m, 0, 1) / 254.0 + 1e-6;
            let err = (m.get(0, c) - d.get(0, c)).abs();
            assert!(err <= bound, "outlier leaked into clean group at col {c}");
        }
    }

    #[test]
    fn adversarial_matrices_quantize_within_bounds() {
        let zero = Matrix::zeros(4, 70);
        assert_eq!(QuantMatrix::quantize(&zero).dequantize(), zero);
        assert_eq!(Quant4Matrix::quantize(&zero).dequantize(), zero);

        let alt = Matrix::from_vec(
            2,
            65,
            (0..130)
                .map(|i| if i % 2 == 0 { 0.25 } else { -0.25 })
                .collect(),
        );
        let q8 = QuantMatrix::quantize(&alt).dequantize();
        let q4 = Quant4Matrix::quantize(&alt).dequantize();
        for r in 0..2 {
            for c in 0..65 {
                assert!((q8.get(r, c) - alt.get(r, c)).abs() <= 0.25 / 254.0 + 1e-6);
                assert!((q4.get(r, c) - alt.get(r, c)).abs() <= 0.25 / 14.0 + 1e-6);
            }
        }
    }

    #[test]
    fn qgemv_close_to_f32_gemv() {
        let m = sample(8, 32, 11);
        let q = QuantMatrix::quantize(&m);
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut exact = vec![0.0; 8];
        crate::kernels::gemv(&x, &m, &mut exact);
        let mut approx = vec![0.0; 8];
        q.gemv(&x, &mut approx);
        for (e, a) in exact.iter().zip(&approx) {
            let scale = e.abs().max(1.0);
            assert!((e - a).abs() / scale < 0.02, "exact {e} approx {a}");
        }
    }

    #[test]
    fn fused_gemv_matches_dequantize_then_gemv() {
        // Fused kernels must compute the same function as dequantizing
        // and running the f32 kernel (up to f32 rounding in the scale
        // multiply, which reassociates one multiply per group).
        let m = sample(6, 97, 13); // odd cols: ragged group + half byte
        let x: Vec<f32> = (0..97).map(|i| (i as f32 * 0.17).sin()).collect();
        for (fused, deq) in [
            {
                let q = QuantMatrix::quantize(&m);
                let mut f = vec![0.0; 6];
                q.gemv(&x, &mut f);
                let mut d = vec![0.0; 6];
                crate::kernels::gemv(&x, &q.dequantize(), &mut d);
                (f, d)
            },
            {
                let q = Quant4Matrix::quantize(&m);
                let mut f = vec![0.0; 6];
                q.gemv(&x, &mut f);
                let mut d = vec![0.0; 6];
                crate::kernels::gemv(&x, &q.dequantize(), &mut d);
                (f, d)
            },
        ] {
            for (f, d) in fused.iter().zip(&deq) {
                let scale = d.abs().max(1.0);
                assert!((f - d).abs() / scale < 1e-4, "fused {f} unfused {d}");
            }
        }
    }

    #[test]
    fn quantized_gemm_bit_identical_to_gemv() {
        let m = sample(5, 33, 17);
        let xs = sample(3, 33, 19);
        let q8 = QuantMatrix::quantize(&m);
        let q4 = Quant4Matrix::quantize(&m);
        let mut out8 = Matrix::zeros(3, 5);
        let mut out4 = Matrix::zeros(3, 5);
        q8.gemm(&xs, &mut out8);
        q4.gemm(&xs, &mut out4);
        for b in 0..3 {
            let mut s8 = vec![0.0; 5];
            let mut s4 = vec![0.0; 5];
            q8.gemv(xs.row(b), &mut s8);
            q4.gemv(xs.row(b), &mut s4);
            assert_eq!(out8.row(b), &s8[..]);
            assert_eq!(out4.row(b), &s4[..]);
        }
    }

    #[test]
    fn zero_matrix_quantizes_safely() {
        let m = Matrix::zeros(4, 4);
        let q = QuantMatrix::quantize(&m);
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn storage_is_quarter_of_f32() {
        let m = sample(64, 64, 3);
        let q = QuantMatrix::quantize(&m);
        let f32_bytes = 64 * 64 * 4;
        assert!(q.storage_bytes() < f32_bytes / 3);
    }

    #[test]
    fn storage_bytes_exact_for_odd_dims() {
        // 3 rows x 65 cols: int8 = 195 data + 3*2 group scales * 4;
        // int4 = 3*33 packed bytes (remainder half-byte counted) + same
        // scale count.
        let m = sample(3, 65, 9);
        let q8 = QuantMatrix::quantize(&m);
        assert_eq!(q8.storage_bytes(), 3 * 65 + 3 * 2 * 4);
        let q4 = Quant4Matrix::quantize(&m);
        assert_eq!(q4.storage_bytes(), 3 * 33 + 3 * 2 * 4);
        assert!(q4.storage_bytes() < q8.storage_bytes());
    }
}
