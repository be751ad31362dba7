//! Known-answer tests against published vectors: FIPS 180-4 (SHA-256),
//! RFC 4231 (HMAC-SHA-256), NIST SP 800-38A (AES-128 ECB and CTR) and
//! the GCM specification (McGrew–Viega, AES-128 test cases 3 and 4).
//! The primitives already have unit tests; these pin the exact bytes
//! the standards publish, so a silent regression in any round function
//! fails against an external reference rather than a self-computed one.

use cllm_crypto::aes::Aes128;
use cllm_crypto::hmac::hmac_sha256;
use cllm_crypto::modes::{Ctr, Gcm};
use cllm_crypto::sha256::{from_hex, sha256, to_hex};

fn hex(s: &str) -> Vec<u8> {
    from_hex(s).expect("valid hex in test vector")
}

fn key16(s: &str) -> [u8; 16] {
    hex(s).try_into().expect("16-byte key")
}

// --- FIPS 180-4 / NIST CAVP SHA-256 vectors ---

#[test]
fn sha256_fips_empty_message() {
    assert_eq!(
        to_hex(&sha256(b"")),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
}

#[test]
fn sha256_fips_abc() {
    assert_eq!(
        to_hex(&sha256(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}

#[test]
fn sha256_fips_two_block_message() {
    // 56 bytes: crosses the single-block padding boundary.
    let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    assert_eq!(
        to_hex(&sha256(msg)),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

#[test]
fn sha256_million_a() {
    // FIPS 180-4 appendix: 1,000,000 repetitions of 'a'; exercises many
    // full blocks through the same compression function.
    let msg = vec![b'a'; 1_000_000];
    assert_eq!(
        to_hex(&sha256(&msg)),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

// --- RFC 4231 HMAC-SHA-256 vectors ---

#[test]
fn hmac_sha256_rfc4231_case_1() {
    let key = [0x0b; 20];
    let mac = hmac_sha256(&key, b"Hi There");
    assert_eq!(
        to_hex(&mac),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    );
}

#[test]
fn hmac_sha256_rfc4231_case_2() {
    let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
    assert_eq!(
        to_hex(&mac),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    );
}

#[test]
fn hmac_sha256_rfc4231_case_3() {
    let key = [0xaa; 20];
    let msg = [0xdd; 50];
    let mac = hmac_sha256(&key, &msg);
    assert_eq!(
        to_hex(&mac),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    );
}

#[test]
fn hmac_sha256_rfc4231_case_6_key_longer_than_block() {
    // 131-byte key: forces the key-hashing path of HMAC.
    let key = [0xaa; 131];
    let mac = hmac_sha256(
        &key,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
    );
    assert_eq!(
        to_hex(&mac),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    );
}

// --- NIST SP 800-38A AES-128 vectors ---

/// The four-block SP 800-38A plaintext shared by every mode's vector.
fn nist_plaintext() -> Vec<u8> {
    hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710")
}

#[test]
fn aes128_ecb_sp800_38a_f_1_1() {
    let cipher = Aes128::new(&key16("2b7e151628aed2a6abf7158809cf4f3c"));
    let expected = [
        "3ad77bb40d7a3660a89ecaf32466ef97",
        "f5d3d58503b9699de785895a96fdbaaf",
        "43b1cd7f598ece23881b00e3ed030688",
        "7b0c785e27e8ad3f8223207104725dd4",
    ];
    for (block, want) in nist_plaintext().chunks_exact(16).zip(expected) {
        let block: [u8; 16] = block.try_into().expect("16-byte block");
        assert_eq!(to_hex(&cipher.encrypt(&block)), want);
    }
}

#[test]
fn aes128_ctr_sp800_38a_f_5_1() {
    // SP 800-38A uses the 16-byte counter block f0f1...feff; our CTR
    // splits that as a 12-byte IV prefix plus a 32-bit big-endian
    // counter, so the vector maps to iv = f0..fb, counter = 0xfcfdfeff.
    let ctr = Ctr::new(&key16("2b7e151628aed2a6abf7158809cf4f3c"));
    let iv: [u8; 12] = hex("f0f1f2f3f4f5f6f7f8f9fafb")
        .try_into()
        .expect("12-byte iv");
    let mut data = nist_plaintext();
    ctr.apply(&iv, 0xfcfd_feff, &mut data);
    assert_eq!(
        to_hex(&data),
        "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"
    );
}

#[test]
fn aes128_ctr_is_an_involution_on_the_nist_vector() {
    let ctr = Ctr::new(&key16("2b7e151628aed2a6abf7158809cf4f3c"));
    let iv: [u8; 12] = hex("f0f1f2f3f4f5f6f7f8f9fafb")
        .try_into()
        .expect("12-byte iv");
    let mut data = nist_plaintext();
    ctr.apply(&iv, 0xfcfd_feff, &mut data);
    ctr.apply(&iv, 0xfcfd_feff, &mut data);
    assert_eq!(data, nist_plaintext());
}

// --- GCM specification (McGrew & Viega), AES-128 test cases 3 and 4 ---

/// The key, IV and 64-byte plaintext shared by test cases 3 and 4.
fn gcm_case_3_4() -> (Gcm, [u8; 12], Vec<u8>) {
    let gcm = Gcm::new(&key16("feffe9928665731c6d6a8f9467308308"));
    let iv: [u8; 12] = hex("cafebabefacedbaddecaf888")
        .try_into()
        .expect("12-byte iv");
    let pt = hex("d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
    (gcm, iv, pt)
}

#[test]
fn aes128_gcm_spec_test_case_3() {
    // Four full blocks, no AAD.
    let (gcm, iv, pt) = gcm_case_3_4();
    let (ct, tag) = gcm.encrypt(&iv, &pt, b"");
    assert_eq!(
        to_hex(&ct),
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
    );
    assert_eq!(to_hex(&tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
    assert_eq!(gcm.decrypt(&iv, &ct, b"", &tag), Some(pt));
}

#[test]
fn aes128_gcm_spec_test_case_4() {
    // 20-byte AAD and a 60-byte plaintext: partial final blocks on both.
    let (gcm, iv, pt) = gcm_case_3_4();
    let pt = &pt[..60];
    let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    let (ct, tag) = gcm.encrypt(&iv, pt, &aad);
    assert_eq!(
        to_hex(&ct),
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
    );
    assert_eq!(to_hex(&tag), "5bc94fbc3221a5db94fae95ae7121a47");
    assert_eq!(gcm.decrypt(&iv, &ct, &aad, &tag).as_deref(), Some(pt));
    assert_eq!(gcm.decrypt(&iv, &ct, &aad[..19], &tag), None);
}
