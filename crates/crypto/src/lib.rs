//! From-scratch cryptographic primitives for the TEE substrate.
//!
//! The paper's confidential pipelines rely on three cryptographic services
//! that we implement fully rather than stub:
//!
//! * **Hashing / measurement** — [`sha256`] implements FIPS 180-4 SHA-256,
//!   used for enclave measurements (`MRENCLAVE`-style) and file integrity
//!   in Gramine-like manifests.
//! * **Authentication** — [`hmac`] (RFC 2104) and [`kdf`] (RFC 5869 HKDF)
//!   derive sealing keys bound to a measurement, mirroring SGX's
//!   `EGETKEY` sealing-key derivation.
//! * **Confidentiality** — [`aes`] implements FIPS-197 AES-128, with
//!   [`modes`] providing CTR streaming (LUKS-like block encryption of the
//!   model weights at rest) and GCM authenticated encryption (Gramine
//!   protected files and attestation-channel payloads).
//!
//! All primitives are validated against published test vectors (FIPS-197,
//! NIST SP 800-38A, the GCM specification, RFC 4231) plus property tests
//! for round-trips, tampering detection, and byte-for-byte equivalence
//! of AES-CTR/GCM with the earlier table-driven cipher kept as a
//! test-only oracle.
//!
//! # Security note
//!
//! AES and GHASH are constant-time, in safe Rust, after BearSSL's
//! designs: AES is bitsliced (`aes_ct64`: the Boyar–Peralta S-box
//! circuit on 64-bit words, a bitsliced key schedule) and GHASH is a
//! Karatsuba carry-less multiply built from masked integer multiplies
//! (`ghash_ctmul64`). Neither indexes memory or branches on key or data,
//! so they carry none of the cache-timing leak that table-driven AES
//! hands a co-resident attacker (the SGX side channel `cllm_tee::threat`
//! models); their timing assumes integer multiplies are constant-time,
//! as on current 64-bit CPUs. The crate is still a reproduction
//! substrate, not audited production cryptography: it stands in for the
//! hardware crypto engines of real TEEs, and SHA-256, HMAC and the DH
//! group are written for clarity.
//!
//! # Example
//!
//! ```
//! use cllm_crypto::{aead_seal, aead_open, sha256::sha256};
//!
//! let key: [u8; 16] = sha256(b"sealing key material")[..16].try_into().unwrap();
//! let sealed = aead_seal(&key, b"nonce123", b"weights", b"aad");
//! let opened = aead_open(&key, b"nonce123", &sealed, b"aad").unwrap();
//! assert_eq!(opened, b"weights");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod dh;
pub mod drbg;
pub mod hmac;
pub mod kdf;
pub mod modes;
pub mod sha256;

use modes::Gcm;

/// Error produced when authenticated decryption fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("authentication tag mismatch: ciphertext or AAD was tampered with")
    }
}

impl std::error::Error for AuthError {}

/// Seal `plaintext` with AES-128-GCM, returning `ciphertext || 16-byte tag`.
///
/// `nonce` may be any length; it is hashed down to the 12-byte GCM IV. This
/// is the convenience entry point used by the sealed-storage layer.
#[must_use]
pub fn aead_seal(key: &[u8; 16], nonce: &[u8], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
    Aead::new(key).seal(nonce, plaintext, aad)
}

/// Open a blob produced by [`aead_seal`]. Returns [`AuthError`] if the tag
/// does not verify (wrong key, wrong nonce, or tampering).
pub fn aead_open(
    key: &[u8; 16],
    nonce: &[u8],
    sealed: &[u8],
    aad: &[u8],
) -> Result<Vec<u8>, AuthError> {
    Aead::new(key).open(nonce, sealed, aad)
}

/// [`aead_seal`] and [`aead_open`] under one key, expanded once: for a
/// channel that seals many short records, where the AES key schedule and
/// GHASH key would otherwise be recomputed per record.
#[derive(Debug, Clone)]
pub struct Aead {
    gcm: Gcm,
}

impl Aead {
    /// Expand `key` for sealing and opening.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Aead { gcm: Gcm::new(key) }
    }

    /// Same bytes as [`aead_seal`] under this key.
    #[must_use]
    pub fn seal(&self, nonce: &[u8], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let (mut ct, tag) = self.gcm.encrypt(&derive_iv(nonce), plaintext, aad);
        ct.extend_from_slice(&tag);
        ct
    }

    /// Same result as [`aead_open`] under this key.
    pub fn open(&self, nonce: &[u8], sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, AuthError> {
        if sealed.len() < 16 {
            return Err(AuthError);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        let tag: [u8; 16] = tag.try_into().expect("split guarantees 16 bytes");
        self.gcm
            .decrypt(&derive_iv(nonce), ct, aad, &tag)
            .ok_or(AuthError)
    }
}

fn derive_iv(nonce: &[u8]) -> [u8; 12] {
    let h = sha256::sha256(nonce);
    h[..12].try_into().expect("sha256 output is 32 bytes")
}

/// Constant-time byte-slice equality (false on length mismatch).
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let key = [7u8; 16];
        let sealed = aead_seal(&key, b"n", b"hello enclave", b"meta");
        assert_eq!(
            aead_open(&key, b"n", &sealed, b"meta").unwrap(),
            b"hello enclave"
        );
    }

    #[test]
    fn tampering_detected() {
        let key = [7u8; 16];
        let mut sealed = aead_seal(&key, b"n", b"hello enclave", b"meta");
        sealed[0] ^= 1;
        assert_eq!(aead_open(&key, b"n", &sealed, b"meta"), Err(AuthError));
    }

    #[test]
    fn wrong_aad_detected() {
        let key = [7u8; 16];
        let sealed = aead_seal(&key, b"n", b"hello", b"meta");
        assert_eq!(aead_open(&key, b"n", &sealed, b"other"), Err(AuthError));
    }

    #[test]
    fn wrong_key_detected() {
        let sealed = aead_seal(&[7u8; 16], b"n", b"hello", b"");
        assert_eq!(aead_open(&[8u8; 16], b"n", &sealed, b""), Err(AuthError));
    }

    #[test]
    fn truncated_blob_rejected() {
        let key = [1u8; 16];
        assert_eq!(aead_open(&key, b"n", &[0u8; 7], b""), Err(AuthError));
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
    }
}
