//! The payload checksum: XXH64 (Collet's xxHash, 64-bit variant, seed 0),
//! implemented from the published specification.
//!
//! Every op's payload is checksummed once, at the client, and the value
//! rides the completion record so tests and the benchmark can compare
//! read-back bytes against written bytes without hauling both buffers
//! around. That is integrity tagging, not authentication — the keyed MAC
//! that signs capabilities is [`crate::siphash`] — so the kernel wants
//! throughput, not a secret: XXH64 folds four independent 64-bit lanes
//! per 32-byte stripe, with no dependency between the words of a stripe,
//! where SipHash serialises four rounds behind every 8-byte word.
//!
//! Most of what a read returns is cold: windows of a cached working set
//! far larger than the CPU's caches. The stripe loop therefore asks for
//! each 64-byte line [`PREFETCH_AHEAD`] bytes before it gets there, so
//! the loop runs at the kernel's rate rather than the memory's latency.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte word"))
}

#[inline(always)]
fn stripe(v: &mut [u64; 4], s: &[u8]) {
    v[0] = round(v[0], word(&s[0..]));
    v[1] = round(v[1], word(&s[8..]));
    v[2] = round(v[2], word(&s[16..]));
    v[3] = round(v[3], word(&s[24..]));
}

/// How far ahead of the line it hashes the stripe loop prefetches. On a
/// 2-core Xeon VM, 64 KiB windows at random offsets of a 64 MiB buffer
/// hash at 6.8-8.5 GB/s with 4 KiB (4.3-4.9 without; 1, 2, 8 and 16 KiB
/// were no better), and a hot 64 KiB buffer at 9-10 GB/s either way.
const PREFETCH_AHEAD: usize = 4096;

/// Ask for the cache line holding `data[at]`, if `data` reaches that far
/// (no pointer past the end is formed). A hint only: it changes no value.
#[inline(always)]
fn prefetch(data: &[u8], at: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(b) = data.get(at) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: SSE is part of the x86-64 baseline, and `b` is a
        // reference into `data`; a prefetch reads nothing architecturally.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(b).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (data, at);
}

/// Checksum of a request/response payload, carried in completion records.
pub fn payload_checksum(data: &[u8]) -> u64 {
    let mut lines = data.chunks_exact(64);
    let mut stripes = lines.remainder().chunks_exact(32);
    let mut h = if data.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for (at, line) in (PREFETCH_AHEAD..).step_by(64).zip(&mut lines) {
            prefetch(data, at);
            stripe(&mut v, &line[..32]);
            stripe(&mut v, &line[32..]);
        }
        for s in &mut stripes {
            stripe(&mut v, s);
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| merge(h, lane))
    } else {
        P5
    };
    h = h.wrapping_add(data.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let w = u32::from_le_bytes(tail[..4].try_into().expect("4-byte word")) as u64;
        h = (h ^ w.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The input xxHash's own self-test (`xsum_sanity_check.c`) hashes
    /// prefixes of: byte i is the top byte of `PRIME32 * PRIME64^i`.
    fn sanity_buffer(len: usize) -> Vec<u8> {
        let mut gen: u64 = 2_654_435_761;
        (0..len)
            .map(|_| {
                let b = (gen >> 56) as u8;
                gen = gen.wrapping_mul(11_400_714_785_074_694_797);
                b
            })
            .collect()
    }

    #[test]
    fn published_vectors() {
        for (input, want) in [
            ("", 0xEF46_DB37_51D8_E999u64),
            ("a", 0xD24E_C4F1_A98C_6E5B),
            ("abc", 0x44BC_2CF5_AD77_0999),
            ("message digest", 0x066E_D728_FCEE_B3BE),
            ("abcdefghijklmnopqrstuvwxyz", 0xCFE1_F278_FA89_835C),
            (
                "Nobody inspects the spammish repetition",
                0xFBCE_A83C_8A37_8BF1,
            ),
            (
                "The quick brown fox jumps over the lazy dog",
                0x0B24_2D36_1FDA_71BC,
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                0xE04A_477F_19EE_145D,
            ),
        ] {
            assert_eq!(payload_checksum(input.as_bytes()), want, "{input:?}");
        }
        // xxHash's self-test: seed 0, its generated buffer.
        let buf = sanity_buffer(222);
        for (len, want) in [
            (1, 0xE934_A84A_DB05_2768u64),
            (4, 0x9136_A0DC_A574_57EE),
            (14, 0x8282_DCC4_994E_35C8),
            (222, 0xB641_AE8C_B691_C174),
        ] {
            assert_eq!(
                payload_checksum(&buf[..len]),
                want,
                "sanity buffer, {len} B"
            );
        }
    }

    /// No published vector is longer than 222 bytes. These were computed
    /// by this kernel and their low halves checked against the content
    /// checksum `zstd --check` appends to a frame (the low 32 bits of
    /// XXH64, seed 0), an independent implementation: every tail length
    /// 8k+1..8k+7 after a long stripe loop, and payload-sized inputs.
    #[test]
    fn long_input_vectors() {
        let buf = sanity_buffer((1 << 20) + 3);
        for (len, want) in [
            (8193, 0x0249_C743_7E2A_61D7u64),
            (8194, 0xDD9B_0F85_C129_FC04),
            (8195, 0x766A_90DA_45BC_7544),
            (8196, 0x26E2_8148_9529_0813),
            (8197, 0x6473_604F_E589_9307),
            (8198, 0xEE37_AD93_3941_D47E),
            (8199, 0xCF34_5384_E912_F81F),
            (64 << 10, 0xB1F4_97AA_E57D_EA9D),
            ((64 << 10) + 5, 0xA77B_F98F_531B_7C50),
            ((1 << 20) + 3, 0x503F_A627_2E7C_94A8),
        ] {
            assert_eq!(payload_checksum(&buf[..len]), want, "{len} B");
        }
    }

    /// XXH64 as the specification states it, one byte at a time: lanes
    /// and words are assembled from bytes by shifts, with no slicing into
    /// lines, stripes or words and no prefetch.
    fn xxh64_bytewise(data: &[u8]) -> u64 {
        let le =
            |at: usize, n: usize| (0..n).fold(0u64, |w, k| w | (data[at + k] as u64) << (8 * k));
        let len = data.len();
        let mut at = 0;
        let mut h = if len >= 32 {
            let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
            while at + 32 <= len {
                for (lane, acc) in v.iter_mut().enumerate() {
                    *acc = round(*acc, le(at + 8 * lane, 8));
                }
                at += 32;
            }
            let mut h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for lane in v {
                h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(len as u64);
        while at + 8 <= len {
            h = (h ^ round(0, le(at, 8)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            at += 8;
        }
        if at + 4 <= len {
            h = (h ^ le(at, 4).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            at += 4;
        }
        for &b in &data[at..] {
            h = (h ^ (b as u64).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    /// Slices that start off a word boundary, at lengths just below, at
    /// and above the prefetch distance (and twice it), and payload-sized:
    /// the kernel agrees with the byte-at-a-time reference on each.
    #[test]
    fn misaligned_long_inputs_match_the_bytewise_reference() {
        let buf = sanity_buffer(31 + (1 << 20) + 3);
        // The reference itself reproduces pinned values.
        assert_eq!(xxh64_bytewise(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64_bytewise(&buf[..222]), 0xB641_AE8C_B691_C174);
        assert_eq!(xxh64_bytewise(&buf[..8199]), 0xCF34_5384_E912_F81F);
        for offset in [1, 3, 7, 31] {
            for len in [4095, 4096, 4097, 8191, (64 << 10) + 5, (1 << 20) + 3] {
                let s = &buf[offset..offset + len];
                assert_eq!(
                    payload_checksum(s),
                    xxh64_bytewise(s),
                    "{len} B at offset {offset}"
                );
            }
        }
    }

    /// What a completion's checksum is compared for: a payload that lost,
    /// gained, flipped or reordered anything must not compare equal.
    /// SipHash gave these by construction; here they are checked.
    #[test]
    fn any_single_edit_changes_the_value() {
        let base = sanity_buffer(8 * 67 + 5);
        let want = payload_checksum(&base);
        for bit in 0..base.len() * 8 {
            let mut d = base.clone();
            d[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(payload_checksum(&d), want, "bit {bit} flipped");
        }
        let words = base.len() / 8;
        for i in 0..words {
            for j in i + 1..words {
                let mut d = base.clone();
                let (a, b) = d.split_at_mut(j * 8);
                a[i * 8..i * 8 + 8].swap_with_slice(&mut b[..8]);
                assert_ne!(payload_checksum(&d), want, "words {i} and {j} swapped");
            }
        }
        let mut seen = vec![want];
        for len in 0..base.len() {
            seen.push(payload_checksum(&base[..len]));
        }
        let mut d = base.clone();
        for _ in 0..80 {
            d.push(0);
            seen.push(payload_checksum(&d));
        }
        let all = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), all, "a truncation or zero-extension collided");
        // All-zero payloads (what a hole reads as) differ by length alone.
        let zeros = [0u8; 128];
        let mut z: Vec<u64> = (0..=128).map(|n| payload_checksum(&zeros[..n])).collect();
        z.sort_unstable();
        z.dedup();
        assert_eq!(z.len(), 129);
    }
}
