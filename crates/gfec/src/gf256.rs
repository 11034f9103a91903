//! GF(2^8) arithmetic over the AES-adjacent polynomial x^8+x^4+x^3+x^2+1
//! (0x11D), the field Reed-Solomon storage codes conventionally use.
//!
//! Three multiplication paths are provided:
//! * log/exp tables — compact, used for scalar field ops;
//! * a full 256×256 product table — what the paper's sPIN handlers use
//!   ("it allows us to use 256×256-byte lookup table to implement fast
//!   Galois field multiplication", §VI-B-2). The NIC cost model charges
//!   per-byte work assuming this table lives in NIC memory (64 KiB of the
//!   DFS-wide state);
//! * nibble-split tables (`c*x = c*lo(x) ^ c*(hi(x)<<4)`, 2×16 entries per
//!   coefficient) driven by SSSE3/AVX2 byte shuffles — the ISA-L-style
//!   wide-word kernel the host-side encode path uses. 16 (SSSE3) or 32
//!   (AVX2) products fall out of each shuffle pair, which is what lets the
//!   simulator's encode throughput approach the paper's line-rate
//!   assumption instead of being bound by a byte-at-a-time table walk.
//!
//! # Caller contract for the slice kernels
//!
//! `mul_slice`, `mul_acc_slice` and `xor_slice` are the per-packet hot
//! loops; they check `src.len() == dst.len()` only under
//! `debug_assertions` and in release operate on the common prefix (the
//! zipped length). Callers must pass equal-length slices.

use std::sync::OnceLock;

/// Reducing polynomial (without the x^8 term): x^4+x^3+x^2+1.
const POLY: u16 = 0x11D;

pub(crate) struct Tables {
    pub(crate) exp: [u8; 512],
    pub(crate) log: [u8; 256],
    /// Full product table: `mul_table[a][b] = a*b` in GF(2^8). 64 KiB.
    pub(crate) mul: Box<[[u8; 256]; 256]>,
    /// Nibble-split products for the shuffle kernels: for coefficient `c`,
    /// `nib_lo[c][x] = c * x` (x < 16) and `nib_hi[c][x] = c * (x << 4)`.
    /// `c*b = nib_lo[c][b & 0xF] ^ nib_hi[c][b >> 4]`. 2 × 4 KiB.
    pub(crate) nib_lo: Box<[[u8; 16]; 256]>,
    pub(crate) nib_hi: Box<[[u8; 16]; 256]>,
}

fn build_tables() -> Tables {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    for (i, e) in exp.iter_mut().enumerate().take(255) {
        *e = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
    }
    for i in 255..512 {
        exp[i] = exp[i - 255];
    }
    let mut mul = Box::new([[0u8; 256]; 256]);
    for a in 1..256usize {
        for b in 1..256usize {
            mul[a][b] = exp[log[a] as usize + log[b] as usize];
        }
    }
    let mut nib_lo = Box::new([[0u8; 16]; 256]);
    let mut nib_hi = Box::new([[0u8; 16]; 256]);
    for c in 0..256usize {
        for x in 0..16usize {
            nib_lo[c][x] = mul[c][x];
            nib_hi[c][x] = mul[c][x << 4];
        }
    }
    Tables {
        exp,
        log,
        mul,
        nib_lo,
        nib_hi,
    }
}

/// Access the (lazily built, process-wide) tables.
pub(crate) fn tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(build_tables)
}

/// Multiply in GF(2^8).
#[inline(always)]
pub(crate) fn mul(a: u8, b: u8) -> u8 {
    tables().mul[a as usize][b as usize]
}

/// Multiplicative inverse; panics on zero.
#[inline]
pub(crate) fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// a^n by log-domain multiplication.
pub(crate) fn pow(a: u8, n: u32) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let t = tables();
    let e = (t.log[a as usize] as u64 * n as u64) % 255;
    t.exp[e as usize]
}

/// The field generator α = 2.
pub(crate) const GENERATOR: u8 = 2;

/// Byte-at-a-time reference kernels: the seed implementation, kept both as
/// the portable fallback and as the baseline the `ec_throughput` benchmark
/// measures the wide-word kernels against.
pub mod scalar {
    use super::tables;

    /// `dst[i] ^= c * src[i]`, one table lookup per byte.
    pub fn mul_acc_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        if c == 0 {
            return;
        }
        if c == 1 {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= s;
            }
            return;
        }
        let row = &tables().mul[c as usize];
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= row[*s as usize];
        }
    }

    /// `dst[i] = c * src[i]`, one table lookup per byte.
    pub fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        if c == 0 {
            dst.fill(0);
            return;
        }
        if c == 1 {
            let n = src.len().min(dst.len());
            dst[..n].copy_from_slice(&src[..n]);
            return;
        }
        let row = &tables().mul[c as usize];
        for (d, s) in dst.iter_mut().zip(src) {
            *d = row[*s as usize];
        }
    }

    /// `dst[i] ^= src[i]`, one byte at a time.
    pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }
}

/// x86-64 shuffle kernels (SSSE3 / AVX2): 16 or 32 GF products per
/// `pshufb` pair via the nibble-split tables.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Which instruction set the running CPU offers; detected once.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(crate) enum Level {
        Scalar,
        Ssse3,
        Avx2,
    }

    pub(crate) fn level() -> Level {
        use std::sync::OnceLock;
        static L: OnceLock<Level> = OnceLock::new();
        *L.get_or_init(|| {
            if is_x86_feature_detected!("avx2") {
                Level::Avx2
            } else if is_x86_feature_detected!("ssse3") {
                Level::Ssse3
            } else {
                Level::Scalar
            }
        })
    }

    /// `dst ^= c*src` (ACC=true) or `dst = c*src` (ACC=false) over 16-byte
    /// blocks; the caller handles the tail. `lo`/`hi` are the nibble tables
    /// of coefficient `c`.
    ///
    /// # Safety
    /// Caller must ensure SSSE3 is available.
    #[target_feature(enable = "ssse3")]
    pub(crate) unsafe fn mul_blocks_ssse3<const ACC: bool>(
        lo: &[u8; 16],
        hi: &[u8; 16],
        src: &[u8],
        dst: &mut [u8],
    ) {
        let tlo = _mm_loadu_si128(lo.as_ptr() as *const __m128i);
        let thi = _mm_loadu_si128(hi.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        for (s, d) in src.chunks_exact(16).zip(dst.chunks_exact_mut(16)) {
            let v = _mm_loadu_si128(s.as_ptr() as *const __m128i);
            let ln = _mm_and_si128(v, mask);
            let hn = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
            let mut p = _mm_xor_si128(_mm_shuffle_epi8(tlo, ln), _mm_shuffle_epi8(thi, hn));
            if ACC {
                let old = _mm_loadu_si128(d.as_ptr() as *const __m128i);
                p = _mm_xor_si128(p, old);
            }
            _mm_storeu_si128(d.as_mut_ptr() as *mut __m128i, p);
        }
    }

    /// 32-byte-block variant of [`mul_blocks_ssse3`].
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn mul_blocks_avx2<const ACC: bool>(
        lo: &[u8; 16],
        hi: &[u8; 16],
        src: &[u8],
        dst: &mut [u8],
    ) {
        let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr() as *const __m128i));
        let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr() as *const __m128i));
        let mask = _mm256_set1_epi8(0x0F);
        for (s, d) in src.chunks_exact(32).zip(dst.chunks_exact_mut(32)) {
            let v = _mm256_loadu_si256(s.as_ptr() as *const __m256i);
            let ln = _mm256_and_si256(v, mask);
            let hn = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
            let mut p =
                _mm256_xor_si256(_mm256_shuffle_epi8(tlo, ln), _mm256_shuffle_epi8(thi, hn));
            if ACC {
                let old = _mm256_loadu_si256(d.as_ptr() as *const __m256i);
                p = _mm256_xor_si256(p, old);
            }
            _mm256_storeu_si256(d.as_mut_ptr() as *mut __m256i, p);
        }
    }
}

/// Wide-word dispatch for `dst op= c*src` with `c >= 2`. Returns the number
/// of bytes handled; the caller finishes the tail with the scalar row walk.
#[inline]
fn mul_wide<const ACC: bool>(c: u8, src: &[u8], dst: &mut [u8]) -> usize {
    let n = src.len().min(dst.len());
    #[cfg(target_arch = "x86_64")]
    {
        let t = tables();
        let lo = &t.nib_lo[c as usize];
        let hi = &t.nib_hi[c as usize];
        match x86::level() {
            x86::Level::Avx2 => {
                let head = n - (n % 32);
                // SAFETY: AVX2 presence was runtime-detected.
                unsafe { x86::mul_blocks_avx2::<ACC>(lo, hi, &src[..head], &mut dst[..head]) };
                return head;
            }
            x86::Level::Ssse3 => {
                let head = n - (n % 16);
                // SAFETY: SSSE3 presence was runtime-detected.
                unsafe { x86::mul_blocks_ssse3::<ACC>(lo, hi, &src[..head], &mut dst[..head]) };
                return head;
            }
            x86::Level::Scalar => {}
        }
    }
    let _ = (c, n);
    0
}

/// `dst[i] ^= c * src[i]` — the inner loop of every encode path.
///
/// Contract: `src.len() == dst.len()` (checked only in debug builds; the
/// release kernel runs over the common prefix). See the module docs.
pub fn mul_acc_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len(), "mul_acc_slice length contract");
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_slice(src, dst);
        return;
    }
    let done = mul_wide::<true>(c, src, dst);
    let row = &tables().mul[c as usize];
    for (d, s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d ^= row[*s as usize];
    }
}

/// `out[i] = c * src[i]`.
///
/// Contract: `src.len() == dst.len()` (checked only in debug builds; the
/// release kernel runs over the common prefix). See the module docs.
pub fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len(), "mul_slice length contract");
    if c == 0 {
        dst.fill(0);
        return;
    }
    if c == 1 {
        let n = src.len().min(dst.len());
        dst[..n].copy_from_slice(&src[..n]);
        return;
    }
    let done = mul_wide::<false>(c, src, dst);
    let row = &tables().mul[c as usize];
    for (d, s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d = row[*s as usize];
    }
}

/// `dst[i] ^= src[i]` — u64-wide with a scalar tail (the `c == 1` encode
/// path and the parity-aggregation XOR).
///
/// Contract: `src.len() == dst.len()` (checked only in debug builds; the
/// release kernel runs over the common prefix). See the module docs.
pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len(), "xor_slice length contract");
    // Trim to the common prefix first: chunking the *untrimmed* slices
    // would pair mismatched chunk/remainder segments and skip interior
    // bytes when the lengths differ.
    let n = src.len().min(dst.len());
    let (src, dst) = (&src[..n], &mut dst[..n]);
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let w = u64::from_ne_bytes(dc.try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(sc.try_into().expect("8-byte chunk"));
        dc.copy_from_slice(&w.to_ne_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

/// Source-tile size for the fused multi-row kernel: big enough to amortize
/// the per-row call overhead, small enough that the source tile plus `m`
/// accumulator tiles stay L1/L2-resident while all rows consume them.
/// `ReedSolomon::encode_into` walks stripes at this granularity too.
pub(crate) const FUSE_TILE: usize = 16 << 10;

/// Fused multi-parity accumulate: `dsts[p][i] ^= coefs[p] * src[i]` for
/// every row `p`, walking `src` in cache-resident tiles so each source tile
/// is read from memory once and updates all `m` accumulators while hot
/// (one source read, `m` accumulator writes). This is the block-encode
/// inner loop; allocation-free.
///
/// Contract: `coefs.len() == dsts.len()` and every `dsts[p]` is at least as
/// long as `src` (debug-checked).
pub fn mul_acc_multi(coefs: &[u8], src: &[u8], dsts: &mut [&mut [u8]]) {
    debug_assert_eq!(coefs.len(), dsts.len(), "one coefficient per row");
    debug_assert!(
        dsts.iter().all(|d| d.len() >= src.len()),
        "accumulators must cover the source"
    );
    let mut off = 0;
    while off < src.len() {
        let end = (off + FUSE_TILE).min(src.len());
        let s = &src[off..end];
        for (&c, d) in coefs.iter().zip(dsts.iter_mut()) {
            mul_acc_slice(c, s, &mut d[off..end]);
        }
        off = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_products() {
        // Classic GF(2^8)/0x11D facts.
        assert_eq!(mul(0, 5), 0);
        assert_eq!(mul(1, 5), 5);
        assert_eq!(mul(2, 0x80), 0x1D); // overflow wraps through POLY
        assert_eq!(mul(0xFF, 0xFF), 0xE2);
    }

    #[test]
    fn exp_log_consistency() {
        let t = tables();
        for a in 1..=255u8 {
            assert_eq!(t.exp[t.log[a as usize] as usize], a);
        }
    }

    #[test]
    fn nibble_tables_decompose_products() {
        let t = tables();
        for c in 0..=255u8 {
            for b in 0..=255u8 {
                let split = t.nib_lo[c as usize][(b & 0xF) as usize]
                    ^ t.nib_hi[c as usize][(b >> 4) as usize];
                assert_eq!(split, mul(c, b), "c={c} b={b}");
            }
        }
    }

    #[test]
    fn field_axioms_exhaustive_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn distributivity_spot_checks() {
        for a in [1u8, 2, 7, 19, 133, 255] {
            for b in [0u8, 1, 3, 97, 254] {
                for c in [5u8, 88, 201] {
                    // Field addition is XOR.
                    assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
                }
            }
        }
    }

    #[test]
    fn div_is_mul_inverse() {
        // a / b = a · b⁻¹, so multiplying back by b returns a.
        for a in [0u8, 1, 9, 77, 255] {
            for b in [1u8, 2, 13, 254] {
                assert_eq!(mul(mul(a, inv(b)), b), a);
            }
        }
    }

    #[test]
    fn associativity_and_commutativity_samples() {
        for a in [3u8, 50, 200] {
            for b in [7u8, 99, 251] {
                assert_eq!(mul(a, b), mul(b, a));
                for c in [11u8, 123] {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in [2u8, 3, 29] {
            let mut acc = 1u8;
            for n in 0..20u32 {
                assert_eq!(pow(a, n), acc, "a={a} n={n}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = [false; 256];
        let mut x = 1u8;
        for _ in 0..255 {
            assert!(!seen[x as usize], "generator order < 255");
            seen[x as usize] = true;
            x = mul(x, GENERATOR);
        }
        assert_eq!(x, 1, "α^255 = 1");
    }

    #[test]
    fn slice_ops_match_scalar() {
        let src: Vec<u8> = (0..=255).collect();
        let mut dst = vec![0xA5u8; 256];
        let mut expect = dst.clone();
        mul_acc_slice(0x1D, &src, &mut dst);
        for (e, s) in expect.iter_mut().zip(&src) {
            *e ^= mul(0x1D, *s);
        }
        assert_eq!(dst, expect);

        let mut out = vec![0u8; 256];
        mul_slice(7, &src, &mut out);
        let scalar: Vec<u8> = src.iter().map(|&s| mul(7, s)).collect();
        assert_eq!(out, scalar);
    }

    #[test]
    fn wide_kernels_match_reference_all_coefficients_ragged_lengths() {
        // Cover every coefficient and lengths around the 16/32-byte block
        // boundaries so both the vector body and the scalar tail run.
        for len in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 63, 100, 257] {
            let src: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            for c in 0..=255u8 {
                let mut fast = vec![0x5Au8; len];
                let mut slow = fast.clone();
                mul_acc_slice(c, &src, &mut fast);
                scalar::mul_acc_slice(c, &src, &mut slow);
                assert_eq!(fast, slow, "mul_acc c={c} len={len}");

                let mut fast_m = vec![9u8; len];
                let mut slow_m = vec![9u8; len];
                mul_slice(c, &src, &mut fast_m);
                scalar::mul_slice(c, &src, &mut slow_m);
                assert_eq!(fast_m, slow_m, "mul c={c} len={len}");
            }
        }
    }

    #[test]
    fn wide_xor_matches_byte_xor() {
        for len in [0usize, 1, 5, 8, 9, 16, 23, 64, 100] {
            let src: Vec<u8> = (0..len).map(|i| (i * 13 + 3) as u8).collect();
            let mut fast: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut slow = fast.clone();
            xor_slice(&src, &mut fast);
            scalar::xor_slice(&src, &mut slow);
            assert_eq!(fast, slow, "len={len}");
        }
    }

    #[test]
    fn fused_multi_matches_per_row() {
        let src: Vec<u8> = (0..40_000).map(|i| (i * 17 + 5) as u8).collect();
        let coefs = [0u8, 1, 2, 0x1D, 0xFF];
        let mut fused: Vec<Vec<u8>> = (0..coefs.len()).map(|p| vec![p as u8; src.len()]).collect();
        let mut naive = fused.clone();
        {
            let mut refs: Vec<&mut [u8]> = fused.iter_mut().map(|v| v.as_mut_slice()).collect();
            mul_acc_multi(&coefs, &src, &mut refs);
        }
        for (c, d) in coefs.iter().zip(naive.iter_mut()) {
            scalar::mul_acc_slice(*c, &src, d);
        }
        assert_eq!(fused, naive);
    }

    // Release builds only: the debug_assert contract check is compiled
    // out, and the documented fallback is common-prefix operation.
    #[cfg(not(debug_assertions))]
    #[test]
    fn xor_slice_release_mode_covers_the_full_common_prefix() {
        let src = vec![0xFFu8; 16];
        let mut dst = vec![0u8; 9];
        xor_slice(&src, &mut dst);
        assert_eq!(dst, vec![0xFF; 9], "every prefix byte must be XORed");
    }

    #[test]
    fn slice_ops_special_coefficients() {
        let src = vec![1u8, 2, 3];
        let mut dst = vec![9u8, 9, 9];
        mul_acc_slice(0, &src, &mut dst);
        assert_eq!(dst, vec![9, 9, 9]);
        mul_acc_slice(1, &src, &mut dst);
        assert_eq!(dst, vec![8, 11, 10]);
        let mut out = vec![7u8; 3];
        mul_slice(0, &src, &mut out);
        assert_eq!(out, vec![0, 0, 0]);
    }
}
