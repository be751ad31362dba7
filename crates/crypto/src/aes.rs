//! AES-128 block cipher (FIPS-197), bitsliced and constant-time.
//!
//! Stand-in for the hardware memory-encryption engines (Intel MKTME/TDX
//! MEE, SGX MEE) and for the software crypto of Gramine protected files.
//!
//! The design is BearSSL's `aes_ct64`. Four blocks are transposed
//! (`ortho`) into a state of eight 64-bit words, one word per bit
//! position of every byte, so SubBytes is the Boyar–Peralta S-box
//! circuit evaluated on whole words, and ShiftRows and MixColumns become
//! masks, shifts and rotations. No step indexes memory with secret data,
//! so the cipher has no cache-timing channel (the leak that table-driven
//! AES hands an SGX attacker), and its running time depends only on how
//! many blocks it encrypts.
//!
//! `Aes128::encrypt_blocks` encrypts up to `BATCH_BLOCKS` (64) blocks in
//! one pass: their states sit word-major in one array, and every round
//! is a loop over the states whose trip count is only known at run time,
//! which the compiler vectorizes (four or eight states per instruction
//! with AVX2 or AVX-512, two with baseline SSE2).

/// Four-block states in one bitsliced pass.
const STATES: usize = 16;

/// Blocks one bitsliced pass encrypts.
pub(crate) const BATCH_BLOCKS: usize = 4 * STATES;

/// Round constants for key expansion (indexed by the public round number).
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// An expanded AES-128 key: 11 round keys, each bitsliced as the state
/// of four copies of itself so it XORs straight into a state.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u64; 8]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expand a 16-byte key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        // The state of four copies of the key.
        let (lo, hi) = interleave_in(key);
        let mut round_keys = [ortho([lo, lo, lo, lo, hi, hi, hi, hi]); 11];
        for (r, &rcon) in RCON.iter().enumerate() {
            round_keys[r + 1] = next_round_key(round_keys[r], rcon);
        }
        Aes128 { round_keys }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        self.encrypt_blocks(std::slice::from_mut(block));
    }

    /// Encrypt a copy of the block and return it.
    #[must_use]
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Encrypt up to [`BATCH_BLOCKS`] blocks in place, in one bitsliced
    /// pass over `blocks.len().div_ceil(4)` states.
    ///
    /// # Panics
    ///
    /// If given more than [`BATCH_BLOCKS`] blocks.
    pub(crate) fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        assert!(
            blocks.len() <= BATCH_BLOCKS,
            "one pass holds {BATCH_BLOCKS} blocks"
        );
        let n = blocks.len().div_ceil(4);
        let rk = &self.round_keys;
        // Block `b` is slot `b % 4` of state `b / 4`. Every step below is
        // a loop with a run-time trip count over blocks or states.
        let mut halves = [[0u64; BATCH_BLOCKS]; 2];
        for (b, block) in blocks.iter().enumerate() {
            (halves[0][b], halves[1][b]) = interleave_in(block);
        }
        // Word-major: `q[i][s]` is word `i` of state `s`.
        let mut q = [[0u64; STATES]; 8];
        for s in 0..n.min(STATES) {
            let x = ortho(std::array::from_fn(|i| halves[i / 4][4 * s + i % 4]));
            for (i, w) in q.iter_mut().enumerate() {
                w[s] = x[i] ^ rk[0][i];
            }
        }
        for k in &rk[1..10] {
            for s in 0..n.min(STATES) {
                let x = add(
                    mix_columns(shift_rows(sbox(std::array::from_fn(|i| q[i][s])))),
                    k,
                );
                for (w, x) in q.iter_mut().zip(x) {
                    w[s] = x;
                }
            }
        }
        for s in 0..n.min(STATES) {
            // The last round skips MixColumns.
            let x = add(shift_rows(sbox(std::array::from_fn(|i| q[i][s]))), &rk[10]);
            let x = ortho(x);
            for (i, x) in x.into_iter().enumerate() {
                halves[i / 4][4 * s + i % 4] = x;
            }
        }
        for (b, block) in blocks.iter_mut().enumerate() {
            interleave_out(halves[0][b], halves[1][b], block);
        }
    }
}

/// AddRoundKey.
fn add(x: [u64; 8], k: &[u64; 8]) -> [u64; 8] {
    std::array::from_fn(|i| x[i] ^ k[i])
}

/// The key schedule's step, on a bitsliced round key (four identical
/// copies). Bit `16 * row + 4 * column + copy` of each word belongs to
/// that byte, so columns are 4-bit groups and rows 16-bit groups.
fn next_round_key(prev: [u64; 8], rcon: u8) -> [u64; 8] {
    let s = sbox(prev);
    std::array::from_fn(|i| {
        // SubWord(RotWord(last column)) ^ Rcon, landed in column 0: column
        // 3 moves to column 0 and every row moves up one.
        let t = ((s[i] >> 12) & 0x000F_000F_000F_000F).rotate_right(16)
            ^ (u64::from((rcon >> i) & 1) * 0xF);
        // Column c of the new key is t ^ (columns 0..=c of the old key).
        let mut x = prev[i];
        x ^= (x << 4) & 0xFFF0_FFF0_FFF0_FFF0;
        x ^= (x << 8) & 0xFF00_FF00_FF00_FF00;
        x ^ (t * 0x1111)
    })
}

/// Transpose four interleaved blocks into (and, being an involution, out
/// of) bitsliced form.
fn ortho(mut q: [u64; 8]) -> [u64; 8] {
    fn swap(q: &mut [u64; 8], i: usize, j: usize, lo: u64, s: u32) {
        let (a, b) = (q[i], q[j]);
        q[i] = (a & lo) | ((b & lo) << s);
        q[j] = ((a & !lo) >> s) | (b & !lo);
    }
    for i in [0, 2, 4, 6] {
        swap(&mut q, i, i + 1, 0x5555_5555_5555_5555, 1);
    }
    for i in [0, 1, 4, 5] {
        swap(&mut q, i, i + 2, 0x3333_3333_3333_3333, 2);
    }
    for i in [0, 1, 2, 3] {
        swap(&mut q, i, i + 4, 0x0F0F_0F0F_0F0F_0F0F, 4);
    }
    q
}

/// Spread a block's four little-endian words over two state words.
fn interleave_in(block: &[u8; 16]) -> (u64, u64) {
    let mut x = [0u64; 4];
    for (xi, bytes) in x.iter_mut().zip(block.chunks_exact(4)) {
        let mut v = u64::from(u32::from_le_bytes(bytes.try_into().expect("4-byte chunk")));
        v |= v << 16;
        v &= 0x0000_FFFF_0000_FFFF;
        v |= v << 8;
        v &= 0x00FF_00FF_00FF_00FF;
        *xi = v;
    }
    (x[0] | (x[2] << 8), x[1] | (x[3] << 8))
}

/// Inverse of [`interleave_in`].
fn interleave_out(q0: u64, q1: u64, block: &mut [u8; 16]) {
    let m = 0x00FF_00FF_00FF_00FF;
    let x = [q0 & m, q1 & m, (q0 >> 8) & m, (q1 >> 8) & m];
    for (bytes, mut v) in block.chunks_exact_mut(4).zip(x) {
        v |= v >> 8;
        v &= 0x0000_FFFF_0000_FFFF;
        #[allow(clippy::cast_possible_truncation)]
        let word = (v as u32) | ((v >> 16) as u32);
        bytes.copy_from_slice(&word.to_le_bytes());
    }
}

/// SubBytes on every byte at once: the Boyar–Peralta circuit ("A new
/// combinational logic minimization technique with applications to
/// cryptology", 2009), 115 gates of which 32 are AND. `x0` is the high
/// bit.
#[allow(clippy::many_single_char_names)]
fn sbox(q: [u64; 8]) -> [u64; 8] {
    let [x7, x6, x5, x4, x3, x2, x1, x0] = q;

    // Top linear transformation.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Non-linear section.
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    [s7, s6, s5, s4, s3, s2, s1, s0]
}

fn shift_rows(q: [u64; 8]) -> [u64; 8] {
    q.map(|x| {
        (x & 0x0000_0000_0000_FFFF)
            | ((x & 0x0000_0000_FFF0_0000) >> 4)
            | ((x & 0x0000_0000_000F_0000) << 12)
            | ((x & 0x0000_FF00_0000_0000) >> 8)
            | ((x & 0x0000_00FF_0000_0000) << 8)
            | ((x & 0xF000_0000_0000_0000) >> 12)
            | ((x & 0x0FFF_0000_0000_0000) << 4)
    })
}

fn mix_columns(q: [u64; 8]) -> [u64; 8] {
    let [q0, q1, q2, q3, q4, q5, q6, q7] = q;
    let [r0, r1, r2, r3, r4, r5, r6, r7] = q.map(|x| x.rotate_right(16));
    [
        q7 ^ r7 ^ r0 ^ (q0 ^ r0).rotate_right(32),
        q0 ^ r0 ^ q7 ^ r7 ^ r1 ^ (q1 ^ r1).rotate_right(32),
        q1 ^ r1 ^ r2 ^ (q2 ^ r2).rotate_right(32),
        q2 ^ r2 ^ q7 ^ r7 ^ r3 ^ (q3 ^ r3).rotate_right(32),
        q3 ^ r3 ^ q7 ^ r7 ^ r4 ^ (q4 ^ r4).rotate_right(32),
        q4 ^ r4 ^ r5 ^ (q5 ^ r5).rotate_right(32),
        q5 ^ r5 ^ r6 ^ (q6 ^ r6).rotate_right(32),
        q6 ^ r6 ^ r7 ^ (q7 ^ r7).rotate_right(32),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{from_hex, to_hex};

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: key 000102..0f, pt 00112233445566778899aabbccddeeff.
        let key: [u8; 16] = from_hex("000102030405060708090a0b0c0d0e0f")
            .unwrap()
            .try_into()
            .unwrap();
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes128::new(&key);
        assert_eq!(
            to_hex(&aes.encrypt(&pt)),
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        );
    }

    #[test]
    fn all_zero_key_block_is_deterministic() {
        let aes = Aes128::new(&[0u8; 16]);
        let a = aes.encrypt(&[0u8; 16]);
        let b = aes.encrypt(&[0u8; 16]);
        assert_eq!(a, b);
        assert_ne!(a, [0u8; 16]);
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new(&[0u8; 16]).encrypt(&[1u8; 16]);
        let b = Aes128::new(&[1u8; 16]).encrypt(&[1u8; 16]);
        assert_ne!(a, b);
    }

    #[test]
    fn avalanche_effect() {
        // Flipping one plaintext bit should change roughly half the output
        // bits; assert at least a quarter as a loose sanity bound.
        let aes = Aes128::new(&[0x42u8; 16]);
        let base = aes.encrypt(&[0u8; 16]);
        let mut flipped_pt = [0u8; 16];
        flipped_pt[0] = 1;
        let flipped = aes.encrypt(&flipped_pt);
        let differing: u32 = base
            .iter()
            .zip(&flipped)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!(differing >= 32, "only {differing} bits changed");
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[9u8; 16]);
        let dbg = format!("{aes:?}");
        assert_eq!(dbg, "Aes128 { .. }");
    }

    #[test]
    fn every_batch_size_matches_one_block_at_a_time() {
        // Each block of a batch of any size must equal its own
        // single-block encryption: no state or slot mixes with another.
        let aes = Aes128::new(&[0x2b; 16]);
        let blocks: Vec<[u8; 16]> = (0..BATCH_BLOCKS)
            .map(|n| std::array::from_fn(|k| (n * 31 + k * 7) as u8))
            .collect();
        let singles: Vec<[u8; 16]> = blocks.iter().map(|b| aes.encrypt(b)).collect();
        for len in 0..=BATCH_BLOCKS {
            let mut batch = blocks[..len].to_vec();
            aes.encrypt_blocks(&mut batch);
            assert_eq!(batch, singles[..len], "batch of {len}");
        }
    }

    #[test]
    fn fips197_appendix_a1_key_expansion() {
        // FIPS-197 A.1: the last round key of 2b7e1516 28aed2a6 abf71588 09cf4f3c.
        let aes = Aes128::new(
            &from_hex("2b7e151628aed2a6abf7158809cf4f3c")
                .unwrap()
                .try_into()
                .unwrap(),
        );
        let q = ortho(aes.round_keys[10]);
        for copy in 0..4 {
            let mut block = [0u8; 16];
            interleave_out(q[copy], q[copy + 4], &mut block);
            assert_eq!(to_hex(&block), "d014f9a8c9ee2589e13f0cc8b6630ca6");
        }
    }
}
