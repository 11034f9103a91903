//! SipHash-2-4, implemented from scratch (Aumasson & Bernstein, 2012).
//!
//! Used as the keyed MAC for capability signing (§IV: "the capability …
//! is signed with a key shared among DFS services"). A 64-bit SipHash tag is
//! not a production-grade MAC; it stands in for one here because the
//! reproduction needs *functional* authentication (tamper ⇒ reject) and a
//! realistic per-byte verification cost, not cryptographic strength. The
//! allowed dependency set has no crypto crate, so the primitive lives here,
//! validated against the reference test vectors from the SipHash paper.

/// 128-bit MAC key shared among DFS services.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MacKey(pub [u8; 16]);

impl MacKey {
    /// Derive a deterministic key from a seed (test/demo convenience).
    pub fn from_seed(seed: u64) -> MacKey {
        let mut k = [0u8; 16];
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        for chunk in k.chunks_mut(8) {
            // splitmix64 steps
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        MacKey(k)
    }
}

#[inline(always)]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// The state SipHash-2-4 starts from under `key`.
fn init(key: &MacKey) -> [u64; 4] {
    let k0 = u64::from_le_bytes(key.0[0..8].try_into().expect("key half"));
    let k1 = u64::from_le_bytes(key.0[8..16].try_into().expect("key half"));
    [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ]
}

/// Absorb one 8-byte message block, read little-endian.
#[inline(always)]
fn absorb(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sipround(v);
    sipround(v);
    v[0] ^= m;
}

/// Absorb the last block (the length's low byte on top, the tail's
/// bytes below) and finalise.
fn finish(mut v: [u64; 4], last: u64) -> u64 {
    absorb(&mut v, last);
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// SipHash-2-4 of `data` under `key`: the byte-stream form the paper's
/// vectors check and [`siphash24_words`] is tested against.
#[cfg(test)]
pub(crate) fn siphash24(key: &MacKey, data: &[u8]) -> u64 {
    let mut v = init(key);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        absorb(
            &mut v,
            u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
        );
    }
    let mut last = (data.len() as u64) << 56;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        last |= (b as u64) << (8 * i);
    }
    finish(v, last)
}

/// SipHash-2-4 of `words` laid out little-endian, without laying them
/// out: each word is one message block (used for signing fixed-layout
/// structs without serializing them first).
pub(crate) fn siphash24_words(key: &MacKey, words: &[u64]) -> u64 {
    let mut v = init(key);
    for &w in words {
        absorb(&mut v, w);
    }
    finish(v, ((words.len() * 8) as u64) << 56)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the SipHash paper (Appendix A): key =
    /// 00 01 .. 0f, messages = prefixes of 00 01 02 ..
    const VECTORS: [u64; 16] = [
        0x726fdb47dd0e0e31,
        0x74f839c593dc67fd,
        0x0d6c8009d9a94f5a,
        0x85676696d7fb7e2d,
        0xcf2794e0277187b7,
        0x18765564cd99a68d,
        0xcbc9466e58fee3ce,
        0xab0200f58b01d137,
        0x93f5f5799a932462,
        0x9e0082df0ba9e4b0,
        0x7a5dbbc594ddb9f3,
        0xf4b32f46226bada7,
        0x751e8fbc860ee5fb,
        0x14ea5627c0843d90,
        0xf723ca908e7af2ee,
        0xa129ca6149be45e5,
    ];

    #[test]
    fn official_test_vectors() {
        let mut key = [0u8; 16];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let key = MacKey(key);
        let msg: Vec<u8> = (0..16).map(|i| i as u8).collect();
        for (len, expect) in VECTORS.iter().enumerate() {
            assert_eq!(siphash24(&key, &msg[..len]), *expect, "vector length {len}");
        }
    }

    #[test]
    fn different_keys_different_tags() {
        let a = MacKey::from_seed(1);
        let b = MacKey::from_seed(2);
        assert_ne!(a, b);
        assert_ne!(siphash24(&a, b"hello"), siphash24(&b, b"hello"));
    }

    #[test]
    fn word_mac_matches_byte_mac() {
        let k = MacKey::from_seed(7);
        let words = [1u64, 2, 3];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(siphash24_words(&k, &words), siphash24(&k, &bytes));
    }

    #[test]
    fn from_seed_is_deterministic() {
        assert_eq!(MacKey::from_seed(42), MacKey::from_seed(42));
    }
}
