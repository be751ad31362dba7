//! The constant-time AES and GHASH must be byte-for-byte the cipher they
//! replaced. `oracle` is the earlier byte-wise table AES and bit-serial
//! GHASH, kept only as a test reference; every public entry point is
//! compared against it on random keys, lengths and counters.
//!
//! Lengths reach past 1100 bytes so they cross every internal boundary:
//! the 64-block (1 KiB) bitsliced keystream pass, the 8-block GHASH
//! reduction run, and partial final blocks.

mod oracle;

use cllm_crypto::aes::Aes128;
use cllm_crypto::modes::{Ctr, Gcm};
use cllm_crypto::{aead_open, aead_seal};
use proptest::collection::vec;
use proptest::prelude::*;

fn counter() -> impl Strategy<Value = u32> {
    // Half the cases start within 70 blocks of the 32-bit wrap.
    prop_oneof![any::<u32>(), (u32::MAX - 70)..=u32::MAX]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn single_block_matches_oracle(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        prop_assert_eq!(
            Aes128::new(&key).encrypt(&block),
            oracle::Aes128::new(&key).encrypt(&block)
        );
    }

    #[test]
    fn ctr_matches_oracle_across_the_wrap(key in any::<[u8; 16]>(), iv in any::<[u8; 12]>(),
                                          start in counter(),
                                          data in vec(any::<u8>(), 0..2200)) {
        let mut fast = data.clone();
        Ctr::new(&key).apply(&iv, start, &mut fast);
        let mut slow = data;
        oracle::Ctr::new(&key).apply(&iv, start, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn gcm_matches_oracle(key in any::<[u8; 16]>(), iv in any::<[u8; 12]>(),
                          pt in vec(any::<u8>(), 0..1100),
                          aad in vec(any::<u8>(), 0..80)) {
        let fast = Gcm::new(&key);
        let slow = oracle::Gcm::new(&key);
        let (slow_ct, slow_tag) = slow.encrypt(&iv, &pt, &aad);
        let (ct, tag) = fast.encrypt(&iv, &pt, &aad);
        prop_assert_eq!((&ct, tag), (&slow_ct, slow_tag));
        prop_assert_eq!(fast.decrypt(&iv, &ct, &aad, &tag), Some(pt.clone()));
        prop_assert_eq!(slow.decrypt(&iv, &ct, &aad, &tag), Some(pt));
    }

    #[test]
    fn aead_seal_matches_oracle(key in any::<[u8; 16]>(),
                                nonce in vec(any::<u8>(), 0..24),
                                pt in vec(any::<u8>(), 0..300),
                                aad in vec(any::<u8>(), 0..40)) {
        let sealed = aead_seal(&key, &nonce, &pt, &aad);
        let iv: [u8; 12] = cllm_crypto::sha256::sha256(&nonce)[..12].try_into().unwrap();
        let (mut expected, tag) = oracle::Gcm::new(&key).encrypt(&iv, &pt, &aad);
        expected.extend_from_slice(&tag);
        prop_assert_eq!(&sealed, &expected);
        prop_assert_eq!(aead_open(&key, &nonce, &sealed, &aad), Ok(pt));
    }

    #[test]
    fn flip_in_last_partial_chunk_is_rejected(key in any::<[u8; 16]>(), iv in any::<[u8; 12]>(),
                                              pt in vec(any::<u8>(), 1025..2100),
                                              aad in vec(any::<u8>(), 0..80),
                                              at in any::<usize>(), bit in 0u8..8,
                                              tag_byte in 0usize..16) {
        // Multi-pass inputs ending in a partial block. The first
        // keystream pass covers data bytes 0..1024; a flip after it, in
        // the final partial block, or in the tag must fail verification
        // in both implementations.
        let pt = if pt.len() % 16 == 0 { pt[1..].to_vec() } else { pt };
        let fast = Gcm::new(&key);
        let slow = oracle::Gcm::new(&key);
        let (ct, tag) = fast.encrypt(&iv, &pt, &aad);
        let in_last_block = ct.len() - 1 - at % (ct.len() % 16);
        let past_first_pass = 1024 + at % (ct.len() - 1024);
        for idx in [in_last_block, past_first_pass] {
            let mut bad = ct.clone();
            bad[idx] ^= 1 << bit;
            prop_assert_eq!(fast.decrypt(&iv, &bad, &aad, &tag), None);
            prop_assert_eq!(slow.decrypt(&iv, &bad, &aad, &tag), None);
        }
        let mut bad_tag = tag;
        bad_tag[tag_byte] ^= 1 << bit;
        prop_assert_eq!(fast.decrypt(&iv, &ct, &aad, &bad_tag), None);
        prop_assert_eq!(slow.decrypt(&iv, &ct, &aad, &bad_tag), None);
    }
}
