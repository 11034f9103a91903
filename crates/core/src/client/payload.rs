//! The seeded payload of a [`Job::Write`](super::Job::Write): word `i`
//! (from 0) of the stream is splitmix64's output mix of
//! `(seed ^ γ) + (i + 1)·γ`, stored little-endian and cut to the length
//! asked for.
//!
//! Two 64-bit multiplies per word bound the scalar loop (3-4 GB/s). On a
//! CPU with AVX-512DQ, detected at run time the way `gfec` picks its
//! shuffle kernels, a kernel mixes eight words per `vpmullq` step
//! straight into the vector's spare capacity; the scalar loop finishes
//! the tail, and is the whole generator elsewhere. Both give the same
//! bytes.

/// splitmix64's increment, the golden ratio in 64 bits.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// `len` bytes of `seed`'s stream.
pub(super) fn payload(seed: u64, len: u32) -> Vec<u8> {
    generate(seed, len as usize, true)
}

/// [`payload`], with the wide kernel where the CPU has it (`wide`) or
/// the scalar loop alone.
fn generate(seed: u64, len: usize, wide: bool) -> Vec<u8> {
    // Room for the last whole word: the buffer never reallocates, and
    // storage memory keeps it after the write completes.
    let mut v = Vec::with_capacity(len.next_multiple_of(8));
    let mut x = seed ^ GAMMA;
    #[cfg(target_arch = "x86_64")]
    if wide && x86::available() {
        // SAFETY: `available` saw AVX-512F and AVX-512DQ on this CPU.
        x = unsafe { x86::fill_blocks(&mut v, x) };
    }
    let _ = wide; // read by the x86-64 build only
    while v.len() < len {
        x = x.wrapping_add(GAMMA);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(MIX1);
        z = (z ^ (z >> 27)).wrapping_mul(MIX2);
        z ^= z >> 31;
        v.extend_from_slice(&z.to_le_bytes());
    }
    v.truncate(len);
    v
}

/// x86-64 AVX-512 kernel: eight words of the stream per step.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{GAMMA, MIX1, MIX2};

    /// Whether the running CPU has the kernel's instructions.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }

    /// Append as many whole 64-byte blocks of the stream as `v`'s spare
    /// capacity holds, continuing from state `x`, and return the state
    /// after the last word written.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F and AVX-512DQ are available.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn fill_blocks(v: &mut Vec<u8>, x: u64) -> u64 {
        let blocks = v.spare_capacity_mut().len() / 64;
        let dst = v.spare_capacity_mut().as_mut_ptr().cast::<u8>();
        let gamma = |k: u64| k.wrapping_mul(GAMMA) as i64;
        // Lane j holds the state of the block's word j: x + (j + 1)·γ.
        let lanes = _mm512_set_epi64(
            gamma(8),
            gamma(7),
            gamma(6),
            gamma(5),
            gamma(4),
            gamma(3),
            gamma(2),
            gamma(1),
        );
        let mut xs = _mm512_add_epi64(_mm512_set1_epi64(x as i64), lanes);
        let step = _mm512_set1_epi64(gamma(8));
        let (m1, m2) = (
            _mm512_set1_epi64(MIX1 as i64),
            _mm512_set1_epi64(MIX2 as i64),
        );
        for b in 0..blocks {
            let mut z = xs;
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), m1);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
            z = _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z));
            // Lane j to bytes 8j..8j + 8: little-endian, as the scalar
            // loop stores each word.
            _mm512_storeu_si512(dst.add(64 * b).cast(), z);
            xs = _mm512_add_epi64(xs, step);
        }
        // SAFETY: the loop initialised 64 bytes per block, all inside
        // the spare capacity.
        v.set_len(v.len() + 64 * blocks);
        x.wrapping_add((8 * blocks as u64).wrapping_mul(GAMMA))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream from its definition: word `i` computed from `i`, not
    /// from the running state.
    fn reference(seed: u64, len: usize) -> Vec<u8> {
        let word = |i: u64| {
            let mut z = (seed ^ GAMMA).wrapping_add((i + 1).wrapping_mul(GAMMA));
            z = (z ^ (z >> 30)).wrapping_mul(MIX1);
            z = (z ^ (z >> 27)).wrapping_mul(MIX2);
            z ^ (z >> 31)
        };
        let words = len.div_ceil(8) as u64;
        let mut v: Vec<u8> = (0..words).flat_map(|i| word(i).to_le_bytes()).collect();
        v.truncate(len);
        v
    }

    /// Both paths give the reference's bytes at every length up to a few
    /// blocks past the first and at 4 KiB, 64 KiB and 1.5 MiB (the wide
    /// one is the scalar loop again on a CPU without AVX-512DQ).
    #[test]
    fn wide_and_scalar_paths_match_the_reference() {
        let lens = (0..=130).chain([4096, 65_536, 1_572_864]);
        for seed in [0, 1, 7, GAMMA, u64::MAX] {
            for len in lens.clone() {
                let want = reference(seed, len);
                for path in [false, true] {
                    let got = generate(seed, len, path);
                    assert!(got == want, "seed {seed} len {len} wide {path}");
                    assert_eq!(got.capacity(), len.next_multiple_of(8));
                }
            }
        }
        assert_eq!(payload(7, 1000), reference(7, 1000));
    }
}
