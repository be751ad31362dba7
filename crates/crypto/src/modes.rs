//! Block-cipher modes: CTR streaming and GCM authenticated encryption.
//!
//! Both modes draw their keystream from one function, `ctr_xor`, which
//! encrypts up to 64 counter blocks per bitsliced pass of the
//! constant-time [`Aes128`].
//! GHASH multiplies in GF(2^128) the way BearSSL's `ghash_ctmul64` does:
//! Karatsuba over three 64x64 carry-less products, each one built from
//! integer multiplies of operands masked to every fourth bit (so carries
//! land only in bits that are masked off), the upper halves recovered by
//! multiplying bit-reversed operands, then a two-step shift-and-fold
//! reduction, shared by eight blocks at a time. No step branches on, or
//! indexes memory with, key or data bits.

use crate::aes::{Aes128, BATCH_BLOCKS};

/// XOR `data` in place with the AES-CTR keystream of the counter blocks
/// `iv || counter`, `iv || counter + 1`, … (32-bit big-endian counter,
/// wrapping at `u32::MAX`), [`BATCH_BLOCKS`] blocks per bitsliced pass.
fn ctr_xor(cipher: &Aes128, iv: &[u8; 12], mut counter: u32, data: &mut [u8]) {
    let mut ks = [[0u8; 16]; BATCH_BLOCKS];
    for chunk in data.chunks_mut(16 * BATCH_BLOCKS) {
        let ks = &mut ks[..chunk.len().div_ceil(16)];
        for block in ks.iter_mut() {
            block[..12].copy_from_slice(iv);
            block[12..].copy_from_slice(&counter.to_be_bytes());
            counter = counter.wrapping_add(1);
        }
        cipher.encrypt_blocks(ks);
        for (b, k) in chunk.iter_mut().zip(ks.as_flattened()) {
            *b ^= k;
        }
    }
}

/// AES-128-CTR keystream cipher.
///
/// Used by the LUKS-like full-disk layer (`cllm-tee::sealed::BlockDevice`):
/// each sector gets a distinct initial counter derived from its index, like
/// ESSIV/XTS sector tweaking in spirit.
#[derive(Debug, Clone)]
pub struct Ctr {
    cipher: Aes128,
}

impl Ctr {
    /// Create a CTR cipher from a 16-byte key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Ctr {
            cipher: Aes128::new(key),
        }
    }

    /// XOR `data` in place with the keystream starting at (`iv`, `counter`).
    ///
    /// Encryption and decryption are the same operation.
    pub fn apply(&self, iv: &[u8; 12], counter: u32, data: &mut [u8]) {
        ctr_xor(&self.cipher, iv, counter, data);
    }
}

/// AES-128-GCM authenticated encryption (NIST SP 800-38D).
///
/// Used for Gramine-protected-file-style sealed blobs and attestation
/// channel payloads.
#[derive(Clone)]
pub struct Gcm {
    cipher: Aes128,
    /// Karatsuba operands of H^1..H^8, where H = E_K(0^128) is the
    /// GHASH subkey.
    powers: Operands,
}

impl std::fmt::Debug for Gcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The powers of H are key material too.
        f.debug_struct("Gcm").finish_non_exhaustive()
    }
}

impl Gcm {
    /// Create a GCM instance from a 16-byte key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let cipher = Aes128::new(key);
        let h = u128::from_be_bytes(cipher.encrypt(&[0u8; 16]));
        Gcm {
            cipher,
            powers: powers_of(h),
        }
    }

    /// Encrypt `plaintext` with additional authenticated data `aad`.
    /// Returns `(ciphertext, tag)`.
    #[must_use]
    pub fn encrypt(&self, iv: &[u8; 12], plaintext: &[u8], aad: &[u8]) -> (Vec<u8>, [u8; 16]) {
        let mut ct = plaintext.to_vec();
        ctr_xor(&self.cipher, iv, 2, &mut ct);
        let tag = self.compute_tag(iv, &ct, aad);
        (ct, tag)
    }

    /// Decrypt and verify. Returns `None` on tag mismatch; the
    /// ciphertext is authenticated before any of it is decrypted.
    #[must_use]
    pub fn decrypt(
        &self,
        iv: &[u8; 12],
        ciphertext: &[u8],
        aad: &[u8],
        tag: &[u8; 16],
    ) -> Option<Vec<u8>> {
        let expected = self.compute_tag(iv, ciphertext, aad);
        if !crate::ct_eq(&expected, tag) {
            return None;
        }
        let mut pt = ciphertext.to_vec();
        ctr_xor(&self.cipher, iv, 2, &mut pt);
        Some(pt)
    }

    /// Tag = GHASH_H(aad, ciphertext) ^ E_K(J0), J0 = IV || 0^31 || 1.
    fn compute_tag(&self, iv: &[u8; 12], ciphertext: &[u8], aad: &[u8]) -> [u8; 16] {
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(iv);
        j0[15] = 1;
        let mut ghash = Ghash {
            powers: &self.powers,
            y: 0,
        };
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ciphertext.len() as u64) * 8).to_be_bytes());
        ghash.update_padded(aad);
        ghash.update_padded(ciphertext);
        ghash.update_padded(&len_block);
        (ghash.y ^ u128::from_be_bytes(self.cipher.encrypt(&j0))).to_be_bytes()
    }
}

/// Blocks GHASH folds into one reduction.
const GHASH_BATCH: usize = 8;

/// Karatsuba operands of up to [`GHASH_BATCH`] field elements,
/// structure-of-arrays: `ops[c][i]` is operand `c` of element `i`, for
/// `c` in low half, high half, their XOR, then the bit reversals of
/// those three.
type Operands = [[u64; GHASH_BATCH]; 6];

/// The operands of H^1..H^[`GHASH_BATCH`]: slot `GHASH_BATCH - k`
/// holds `H^k`.
fn powers_of(h: u128) -> Operands {
    let mut powers = [[0; GHASH_BATCH]; 6];
    let mut power = h;
    for slot in (0..GHASH_BATCH).rev() {
        if slot < GHASH_BATCH - 1 {
            power = dot(&[power], &powers, GHASH_BATCH - 1);
        }
        for (c, x) in karatsuba(power).into_iter().enumerate() {
            powers[c][slot] = x;
            powers[c + 3][slot] = x.reverse_bits();
        }
    }
    powers
}

/// GHASH universal hash over GF(2^128): `y = (y ^ b) * H` per block `b`,
/// evaluated `GHASH_BATCH` blocks at a time as
/// `(y ^ b_1) * H^n ^ b_2 * H^(n-1) ^ … ^ b_n * H`, so the products are
/// independent and share one reduction.
struct Ghash<'a> {
    powers: &'a Operands,
    y: u128,
}

impl Ghash<'_> {
    /// Absorb data, zero-padding the final partial block.
    fn update_padded(&mut self, data: &[u8]) {
        for run in data.chunks(16 * GHASH_BATCH) {
            let mut xs = [0u128; GHASH_BATCH];
            for (x, bytes) in xs.iter_mut().zip(run.chunks(16)) {
                let mut block = [0u8; 16];
                block[..bytes.len()].copy_from_slice(bytes);
                *x = u128::from_be_bytes(block);
            }
            xs[0] ^= self.y;
            let n = run.len().div_ceil(16);
            self.y = dot(&xs[..n], self.powers, GHASH_BATCH - n);
        }
    }
}

/// `xs[0] * e_0 ^ xs[1] * e_1 ^ …` in GF(2^128) with the GCM polynomial
/// x^128 + x^7 + x^2 + x + 1, in GCM bit order (bit 0 = MSB), where
/// `e_j` is element `first + j` of `ops`.
///
/// Each 128x128 product is Karatsuba over three 64x64 carry-less
/// products; their low halves come from [`bmul64`] and their high halves
/// from `bmul64` of the bit-reversed operands. Every step is linear, so
/// the products are summed unreduced and folded once. The operands sit
/// structure-of-arrays and each sum is a loop with a run-time trip
/// count, which the compiler turns into vector multiplies where the CPU
/// has them (AVX-512).
fn dot(xs: &[u128], ops: &Operands, first: usize) -> u128 {
    let n = xs.len();
    let mut x: Operands = [[0; GHASH_BATCH]; 6];
    for (j, &xj) in xs.iter().enumerate() {
        for (c, k) in karatsuba(xj).into_iter().enumerate() {
            x[c][j] = k;
            x[c + 3][j] = k.reverse_bits();
        }
    }
    let z: [u64; 6] = std::array::from_fn(|c| {
        let (x, e) = (&x[c][..n], &ops[c][first..first + n]);
        (0..n).fold(0, |acc, j| acc ^ bmul64(x[j], e[j]))
    });
    let [z0, z1, z2, z0h, z1h, z2h] = z;
    let z2 = z2 ^ z0 ^ z1;
    let z2h = z2h ^ z0h ^ z1h;
    let [z0h, z1h, z2h] = [z0h, z1h, z2h].map(|z| z.reverse_bits() >> 1);

    // The 256-bit product, shifted left one bit to undo GCM's reflected
    // bit order.
    let [v0, v1, v2, v3] = [z0, z0h ^ z2, z1 ^ z2h, z1h];
    let v3 = (v3 << 1) | (v2 >> 63);
    let v2 = (v2 << 1) | (v1 >> 63);
    let v1 = (v1 << 1) | (v0 >> 63);
    let v0 = v0 << 1;

    // Fold the low 128 bits into the high 128, 64 bits at a time.
    let v2 = v2 ^ v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
    let v1 = v1 ^ (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
    let v3 = v3 ^ v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
    let v2 = v2 ^ (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);
    u128::from(v3) << 64 | u128::from(v2)
}

/// Split a field element into its Karatsuba operands `[low, high, low ^ high]`.
#[allow(clippy::cast_possible_truncation)]
fn karatsuba(x: u128) -> [u64; 3] {
    let (hi, lo) = ((x >> 64) as u64, x as u64);
    [lo, hi, lo ^ hi]
}

/// Low 64 bits of the carry-less product `x * y`, from integer
/// multiplies. Each operand is split into four masks that keep every
/// fourth bit; in a product of two such masks, the carries of up to 16
/// coinciding ones pile into the three zero bits between kept positions
/// and are masked away afterwards.
fn bmul64(x: u64, y: u64) -> u64 {
    const M: [u64; 4] = [
        0x1111_1111_1111_1111,
        0x2222_2222_2222_2222,
        0x4444_4444_4444_4444,
        0x8888_8888_8888_8888,
    ];
    let x = M.map(|m| x & m);
    let y = M.map(|m| y & m);
    let mut z = 0;
    for (k, m) in M.iter().enumerate() {
        // Bit class k of the product collects x_i * y_j with i + j = k mod 4.
        let zk = (0..4).fold(0, |acc, i| acc ^ x[i].wrapping_mul(y[(k + 4 - i) % 4]));
        z |= zk & m;
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{from_hex, to_hex};

    fn gf_mul(x: u128, y: u128) -> u128 {
        dot(&[x], &powers_of(y), GHASH_BATCH - 1)
    }

    #[test]
    fn nist_gcm_test_case_1() {
        // Key 0^128, IV 0^96, empty pt/aad -> tag 58e2fccefa7e3061367f1d57a4e7455a.
        let gcm = Gcm::new(&[0u8; 16]);
        let (ct, tag) = gcm.encrypt(&[0u8; 12], b"", b"");
        assert!(ct.is_empty());
        assert_eq!(to_hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn nist_gcm_test_case_2() {
        // Key 0^128, IV 0^96, pt 0^128 ->
        // ct 0388dace60b6a392f328c2b971b2fe78, tag ab6e47d42cec13bdf53a67b21257bddf.
        let gcm = Gcm::new(&[0u8; 16]);
        let (ct, tag) = gcm.encrypt(&[0u8; 12], &[0u8; 16], b"");
        assert_eq!(to_hex(&ct), "0388dace60b6a392f328c2b971b2fe78");
        assert_eq!(to_hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
    }

    #[test]
    fn gcm_roundtrip_with_aad() {
        let key: [u8; 16] = from_hex("feffe9928665731c6d6a8f9467308308")
            .unwrap()
            .try_into()
            .unwrap();
        let gcm = Gcm::new(&key);
        let iv = [3u8; 12];
        let (ct, tag) = gcm.encrypt(&iv, b"confidential weights", b"manifest-v1");
        let pt = gcm.decrypt(&iv, &ct, b"manifest-v1", &tag).unwrap();
        assert_eq!(pt, b"confidential weights");
        assert!(gcm.decrypt(&iv, &ct, b"manifest-v2", &tag).is_none());
    }

    #[test]
    fn debug_does_not_print_key_material() {
        assert_eq!(format!("{:?}", Gcm::new(&[9u8; 16])), "Gcm { .. }");
        assert_eq!(
            format!("{:?}", Ctr::new(&[9u8; 16])),
            "Ctr { cipher: Aes128 { .. } }"
        );
    }

    #[test]
    fn ctr_roundtrip_and_seekability() {
        let ctr = Ctr::new(&[5u8; 16]);
        let iv = [9u8; 12];
        let mut data = b"sector payload for the LUKS-like device".to_vec();
        let orig = data.clone();
        ctr.apply(&iv, 7, &mut data);
        assert_ne!(data, orig);
        ctr.apply(&iv, 7, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn ctr_different_counters_differ() {
        let ctr = Ctr::new(&[5u8; 16]);
        let iv = [0u8; 12];
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        ctr.apply(&iv, 0, &mut a);
        ctr.apply(&iv, 1, &mut b);
        assert_ne!(a, b);
        // Counter 1's keystream block equals the second block of counter 0.
        assert_eq!(&a[16..32], &b[..16]);
    }

    #[test]
    fn gf_mul_identity_and_commutativity() {
        // In GCM bit order, the multiplicative identity is 0x80...0 (bit0=MSB).
        let one: u128 = 1 << 127;
        let x = 0x0123456789abcdef0123456789abcdefu128;
        assert_eq!(gf_mul(x, one), x);
        assert_eq!(gf_mul(one, x), x);
        let y = 0xfedcba9876543210fedcba9876543210u128;
        assert_eq!(gf_mul(x, y), gf_mul(y, x));
    }

    #[test]
    fn gf_mul_distributes_over_xor() {
        let a = 0xdeadbeefdeadbeefdeadbeefdeadbeefu128;
        let b = 0x0badf00d0badf00d0badf00d0badf00du128;
        let c = 0x11112222333344445555666677778888u128;
        assert_eq!(gf_mul(a ^ b, c), gf_mul(a, c) ^ gf_mul(b, c));
    }
}
