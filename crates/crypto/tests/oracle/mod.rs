//! Test-only reference implementation: the byte-wise table AES-128 and
//! bit-serial GHASH this crate shipped before its constant-time cores.
//! Kept verbatim (only paths adjusted) as an oracle that the fast
//! bitsliced AES and `ctmul64` GHASH must match byte for byte. The S-box
//! lookups here are secret-indexed, which is why this lives under
//! `tests/` and never in the library.

#![allow(dead_code)]

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// An expanded AES-128 key (11 round keys).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Aes128 {{ .. }}")
    }
}

fn xtime(b: u8) -> u8 {
    let hi = b & 0x80;
    let mut r = b << 1;
    if hi != 0 {
        r ^= 0x1b;
    }
    r
}

impl Aes128 {
    /// Expand a 16-byte key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let mut rk = [[0u8; 16]; 11];
        rk[0] = *key;
        for round in 1..11 {
            let prev = rk[round - 1];
            let mut temp = [prev[12], prev[13], prev[14], prev[15]];
            // RotWord + SubWord + Rcon.
            temp.rotate_left(1);
            for t in &mut temp {
                *t = SBOX[*t as usize];
            }
            temp[0] ^= RCON[round - 1];
            for i in 0..4 {
                rk[round][i] = prev[i] ^ temp[i];
            }
            for i in 4..16 {
                rk[round][i] = prev[i] ^ rk[round][i - 4];
            }
        }
        Aes128 { round_keys: rk }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[10]);
    }

    /// Encrypt a copy of the block and return it.
    #[must_use]
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// State is column-major: byte `state[4*c + r]` is row `r`, column `c`.
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (= right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        let xor_all = col[0] ^ col[1] ^ col[2] ^ col[3];
        for r in 0..4 {
            let rotated = col[(r + 1) % 4];
            state[4 * c + r] = col[r] ^ xor_all ^ xtime(col[r] ^ rotated);
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
    pub fn apply(&self, iv: &[u8; 12], mut counter: u32, data: &mut [u8]) {
        let mut block = [0u8; 16];
        block[..12].copy_from_slice(iv);
        for chunk in data.chunks_mut(16) {
            block[12..].copy_from_slice(&counter.to_be_bytes());
            let ks = self.cipher.encrypt(&block);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }
}

/// AES-128-GCM authenticated encryption (NIST SP 800-38D).
///
/// Used for Gramine-protected-file-style sealed blobs and attestation
/// channel payloads.
#[derive(Debug, Clone)]
pub struct Gcm {
    cipher: Aes128,
    /// GHASH subkey H = E_K(0^128), as a 128-bit big-endian integer.
    h: u128,
}

impl Gcm {
    /// Create a GCM instance from a 16-byte key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let cipher = Aes128::new(key);
        let h = u128::from_be_bytes(cipher.encrypt(&[0u8; 16]));
        Gcm { cipher, h }
    }

    /// Encrypt `plaintext` with additional authenticated data `aad`.
    /// Returns `(ciphertext, tag)`.
    #[must_use]
    pub fn encrypt(&self, iv: &[u8; 12], plaintext: &[u8], aad: &[u8]) -> (Vec<u8>, [u8; 16]) {
        let mut ct = plaintext.to_vec();
        // CTR starts at 2 for data; counter 1 is reserved for the tag mask.
        self.ctr_xor(iv, 2, &mut ct);
        let tag = self.compute_tag(iv, &ct, aad);
        (ct, tag)
    }

    /// Decrypt and verify. Returns `None` on tag mismatch.
    #[must_use]
    pub fn decrypt(
        &self,
        iv: &[u8; 12],
        ciphertext: &[u8],
        aad: &[u8],
        tag: &[u8; 16],
    ) -> Option<Vec<u8>> {
        let expected = self.compute_tag(iv, ciphertext, aad);
        if !cllm_crypto::ct_eq(&expected, tag) {
            return None;
        }
        let mut pt = ciphertext.to_vec();
        self.ctr_xor(iv, 2, &mut pt);
        Some(pt)
    }

    fn ctr_xor(&self, iv: &[u8; 12], start_counter: u32, data: &mut [u8]) {
        let mut block = [0u8; 16];
        block[..12].copy_from_slice(iv);
        let mut counter = start_counter;
        for chunk in data.chunks_mut(16) {
            block[12..].copy_from_slice(&counter.to_be_bytes());
            let ks = self.cipher.encrypt(&block);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    fn compute_tag(&self, iv: &[u8; 12], ciphertext: &[u8], aad: &[u8]) -> [u8; 16] {
        let mut ghash = Ghash::new(self.h);
        ghash.update_padded(aad);
        ghash.update_padded(ciphertext);
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ciphertext.len() as u64) * 8).to_be_bytes());
        ghash.update_block(&len_block);
        let s = ghash.finalize();

        // Tag = GHASH ^ E_K(J0) where J0 = IV || 0^31 || 1.
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(iv);
        j0[15] = 1;
        let ek_j0 = self.cipher.encrypt(&j0);
        let mut tag = [0u8; 16];
        for i in 0..16 {
            tag[i] = s[i] ^ ek_j0[i];
        }
        tag
    }
}

/// GHASH universal hash over GF(2^128).
struct Ghash {
    h: u128,
    y: u128,
}

impl Ghash {
    fn new(h: u128) -> Self {
        Ghash { h, y: 0 }
    }

    fn update_block(&mut self, block: &[u8; 16]) {
        self.y ^= u128::from_be_bytes(*block);
        self.y = gf_mul(self.y, self.h);
    }

    /// Absorb data, zero-padding the final partial block.
    fn update_padded(&mut self, data: &[u8]) {
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            self.update_block(&block);
        }
    }

    fn finalize(self) -> [u8; 16] {
        self.y.to_be_bytes()
    }
}

/// Multiply two elements of GF(2^128) with the GCM polynomial
/// x^128 + x^7 + x^2 + x + 1, using the GCM bit order (bit 0 = MSB).
fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}
