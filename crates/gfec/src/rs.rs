//! Systematic Reed-Solomon codes RS(k, m): k data chunks, m parity chunks,
//! any m erasures recoverable (maximum distance separable, §VI of the
//! paper).
//!
//! The encoding matrix is Vandermonde-derived and systematic: a (k+m)×k
//! Vandermonde matrix is normalized by the inverse of its top k×k square so
//! the first k rows become the identity (data chunks are stored verbatim,
//! "k of k+m encoded chunks are identical to the original k data chunks").

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::gf256;
use crate::matrix::Matrix;

/// How many decode (inversion) matrices a code instance memoizes. Repairs
/// in a real cluster hit a handful of erasure patterns over and over (the
/// same dead node's chunks), so a small LRU absorbs nearly all inversions.
const DECODE_CACHE_CAP: usize = 16;

/// LRU-ish memo of survivor-row-set → inverted decode matrix. Ordered,
/// not hashed: eviction iterates it.
#[derive(Debug, Default)]
struct DecodeCache {
    map: BTreeMap<Vec<usize>, (u64, Matrix)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl DecodeCache {
    fn get_or_insert_with<F: FnOnce() -> Matrix>(&mut self, key: &[usize], f: F) -> Matrix {
        self.tick += 1;
        let tick = self.tick;
        if let Some((stamp, m)) = self.map.get_mut(key) {
            *stamp = tick;
            self.hits += 1;
            return m.clone();
        }
        self.misses += 1;
        let m = f();
        if self.map.len() >= DECODE_CACHE_CAP {
            // Evict the least-recently-used pattern.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(key.to_vec(), (tick, m.clone()));
        m
    }
}

/// A Reed-Solomon code instance.
#[derive(Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// Full systematic encoding matrix, (k+m)×k.
    enc: Matrix,
    /// The m parity rows of `enc`, flattened row-major (`rows[p*k + j]`):
    /// coefficients resolved once per code so the per-packet streaming path
    /// never walks the matrix.
    parity_rows: Box<[u8]>,
    /// Memoized decode matrices keyed by the survivor-row set, so repeated
    /// repairs with the same missing pattern skip Gauss-Jordan inversion.
    decode_cache: Mutex<DecodeCache>,
}

impl Clone for ReedSolomon {
    fn clone(&self) -> ReedSolomon {
        ReedSolomon {
            k: self.k,
            m: self.m,
            enc: self.enc.clone(),
            parity_rows: self.parity_rows.clone(),
            // Caches are per-instance scratch; a clone starts cold.
            decode_cache: Mutex::new(DecodeCache::default()),
        }
    }
}

/// Errors from encode/reconstruct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsError {
    WrongChunkCount { expected: usize, got: usize },
    ChunkSizeMismatch,
    TooFewShards { present: usize, need: usize },
    InvalidParams,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::WrongChunkCount { expected, got } => {
                write!(f, "expected {expected} chunks, got {got}")
            }
            RsError::ChunkSizeMismatch => write!(f, "all chunks must have equal length"),
            RsError::TooFewShards { present, need } => {
                write!(f, "only {present} shards present, need {need}")
            }
            RsError::InvalidParams => write!(f, "invalid RS parameters"),
        }
    }
}

impl std::error::Error for RsError {}

impl ReedSolomon {
    /// Create an RS(k, m) code. Requires 1 ≤ k, 1 ≤ m, k+m ≤ 255.
    pub fn new(k: usize, m: usize) -> Result<ReedSolomon, RsError> {
        if k == 0 || m == 0 || k + m > 255 {
            return Err(RsError::InvalidParams);
        }
        let v = Matrix::vandermonde(k + m, k);
        let top_inv = v
            .select_rows(&(0..k).collect::<Vec<_>>())
            .invert()
            .expect("vandermonde top square is invertible");
        let enc = v.mul(&top_inv);
        debug_assert_eq!(
            enc.select_rows(&(0..k).collect::<Vec<_>>()),
            Matrix::identity(k),
            "systematic code: top must be identity"
        );
        let mut parity_rows = vec![0u8; m * k];
        for p in 0..m {
            parity_rows[p * k..(p + 1) * k].copy_from_slice(enc.row(k + p));
        }
        Ok(ReedSolomon {
            k,
            m,
            enc,
            parity_rows: parity_rows.into_boxed_slice(),
            decode_cache: Mutex::new(DecodeCache::default()),
        })
    }

    pub fn k(&self) -> usize {
        self.k
    }
    pub fn m(&self) -> usize {
        self.m
    }

    /// Coefficient multiplying data chunk `j` in parity `p`
    /// (the per-packet streaming path uses these directly; resolved from
    /// the flat cached rows, not the matrix).
    #[inline]
    pub fn parity_coef(&self, p: usize, j: usize) -> u8 {
        self.parity_rows[p * self.k + j]
    }

    /// Encode: compute the m parity chunks for `data` (k equal-size chunks).
    pub fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, RsError> {
        let mut parities = vec![Vec::new(); self.m];
        self.encode_into(data, &mut parities)?;
        Ok(parities)
    }

    /// Encode into caller-owned parity buffers (resized and overwritten),
    /// reusing their allocations: no per-byte or parity-sized allocation,
    /// only tiny per-call coefficient/slice scratch.
    ///
    /// The inner loop is [`gf256::mul_acc_multi`], the fused multi-row
    /// kernel: the stripe is walked in cache-resident tiles, and within a
    /// tile every source chunk is read once while all `m` parity
    /// accumulators are updated hot.
    pub fn encode_into(&self, data: &[&[u8]], parities: &mut [Vec<u8>]) -> Result<(), RsError> {
        if data.len() != self.k {
            return Err(RsError::WrongChunkCount {
                expected: self.k,
                got: data.len(),
            });
        }
        if parities.len() != self.m {
            return Err(RsError::WrongChunkCount {
                expected: self.m,
                got: parities.len(),
            });
        }
        let n = data[0].len();
        if data.iter().any(|c| c.len() != n) {
            return Err(RsError::ChunkSizeMismatch);
        }
        for p in parities.iter_mut() {
            p.clear();
            p.resize(n, 0);
        }
        // Column-major coefficient view: cols[j*m + p] multiplies chunk j
        // into parity p (what the per-source fused kernel consumes).
        let mut cols = vec![0u8; self.k * self.m];
        for j in 0..self.k {
            for p in 0..self.m {
                cols[j * self.m + p] = self.parity_rows[p * self.k + j];
            }
        }
        let mut off = 0;
        while off < n {
            let end = (off + gf256::FUSE_TILE).min(n);
            let mut dsts: Vec<&mut [u8]> = parities.iter_mut().map(|p| &mut p[off..end]).collect();
            for (j, chunk) in data.iter().enumerate() {
                gf256::mul_acc_multi(
                    &cols[j * self.m..(j + 1) * self.m],
                    &chunk[off..end],
                    &mut dsts,
                );
            }
            off = end;
        }
        Ok(())
    }

    /// Decode-cache counters: `(hits, misses)` of the per-pattern
    /// inversion memo (diagnostics for repair-heavy workloads).
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        let c = self.decode_cache.lock().expect("decode cache poisoned");
        (c.hits, c.misses)
    }

    /// Verify that `shards` (k data followed by m parity) are consistent.
    #[cfg(test)]
    fn verify(&self, shards: &[&[u8]]) -> Result<bool, RsError> {
        if shards.len() != self.k + self.m {
            return Err(RsError::WrongChunkCount {
                expected: self.k + self.m,
                got: shards.len(),
            });
        }
        let parities = self.encode(&shards[..self.k])?;
        Ok(parities
            .iter()
            .zip(&shards[self.k..])
            .all(|(computed, stored)| computed.as_slice() == *stored))
    }

    /// Reconstruct all missing shards in place. `shards` has k+m entries
    /// (data then parity); `None` marks an erasure. Needs ≥ k survivors.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        if shards.len() != self.k + self.m {
            return Err(RsError::WrongChunkCount {
                expected: self.k + self.m,
                got: shards.len(),
            });
        }
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        if missing.is_empty() {
            // Nothing to rebuild, but keep validating: a complete-but-
            // inconsistent shard set is still an error, not a success.
            let n = shards[0].as_ref().expect("present").len();
            if shards
                .iter()
                .any(|s| s.as_ref().expect("present").len() != n)
            {
                return Err(RsError::ChunkSizeMismatch);
            }
            return Ok(());
        }
        let refs: Vec<Option<&[u8]>> = shards
            .iter()
            .map(|s| s.as_ref().map(|v| v.as_slice()))
            .collect();
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); missing.len()];
        self.reconstruct_into(&refs, &missing, &mut out)?;
        for (&i, buf) in missing.iter().zip(out) {
            shards[i] = Some(buf);
        }
        Ok(())
    }

    /// Reconstruct the shards listed in `want` into caller-owned buffers
    /// (resized and overwritten, allocations reused) — the repair-loop
    /// mirror of [`Self::encode_into`]: no per-shard allocation, fused
    /// tiled accumulation over the survivors, and the per-erasure-pattern
    /// decode matrix comes from the memoized cache.
    ///
    /// `shards` has k+m entries (data then parity): `Some` for survivors,
    /// `None` for erasures. `want` lists the shard indices to materialize
    /// (data or parity, typically the erased ones); `out` supplies one
    /// buffer per `want` entry.
    pub fn reconstruct_into(
        &self,
        shards: &[Option<&[u8]>],
        want: &[usize],
        out: &mut [Vec<u8>],
    ) -> Result<(), RsError> {
        if shards.len() != self.k + self.m {
            return Err(RsError::WrongChunkCount {
                expected: self.k + self.m,
                got: shards.len(),
            });
        }
        if out.len() != want.len() {
            return Err(RsError::WrongChunkCount {
                expected: want.len(),
                got: out.len(),
            });
        }
        if want.iter().any(|&w| w >= self.k + self.m) {
            return Err(RsError::InvalidParams);
        }
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(RsError::TooFewShards {
                present: present.len(),
                need: self.k,
            });
        }
        let n = shards[present[0]].expect("present").len();
        if present
            .iter()
            .any(|&i| shards[i].expect("present").len() != n)
        {
            return Err(RsError::ChunkSizeMismatch);
        }
        if want.is_empty() {
            return Ok(());
        }

        // The first k survivors, in shard order, and the coefficients
        // that combine them into each wanted shard: one fused pass reads
        // each survivor once while updating every output.
        let use_rows: Vec<usize> = present.iter().copied().take(self.k).collect();
        let w = want.len();
        let cols = self.decode_cols(&use_rows, want);
        for buf in out.iter_mut() {
            buf.clear();
            buf.resize(n, 0);
        }
        let mut off = 0;
        while off < n {
            let end = (off + gf256::FUSE_TILE).min(n);
            let mut dsts: Vec<&mut [u8]> = out.iter_mut().map(|b| &mut b[off..end]).collect();
            for (s, &row) in use_rows.iter().enumerate() {
                let chunk = shards[row].expect("present");
                gf256::mul_acc_multi(&cols[s * w..(s + 1) * w], &chunk[off..end], &mut dsts);
            }
            off = end;
        }
        Ok(())
    }

    /// Coefficients rebuilding each `want` shard from the survivors in
    /// `use_rows` (k distinct shard indices, ascending), column-major:
    /// `cols[s * want.len() + o]` multiplies survivor `use_rows[s]` into
    /// output `o`. Data row d is `dec[d]`, parity row p is
    /// `parity_row(p) × dec`, with `dec` the inverse of the survivors'
    /// rows of the encoding matrix — memoized per survivor set, so a
    /// repeated erasure pattern skips Gauss-Jordan entirely.
    fn decode_cols(&self, use_rows: &[usize], want: &[usize]) -> Vec<u8> {
        let dec = self
            .decode_cache
            .lock()
            .expect("decode cache poisoned")
            .get_or_insert_with(use_rows, || {
                let sub = self.enc.select_rows(use_rows);
                sub.invert().expect("any k rows of an MDS matrix invert")
            });
        let w = want.len();
        let mut cols = vec![0u8; self.k * w];
        for (o, &shard) in want.iter().enumerate() {
            for s in 0..self.k {
                cols[s * w + o] = if shard < self.k {
                    dec[(shard, s)]
                } else {
                    let p = shard - self.k;
                    let mut c = 0u8;
                    for j in 0..self.k {
                        c ^= gf256::mul(self.parity_rows[p * self.k + j], dec[(j, s)]);
                    }
                    c
                };
            }
        }
        cols
    }

    /// The decode rows [`Self::reconstruct_into`] applies, for callers
    /// that decode as survivors stream in rather than block by block:
    /// `rows[o * k + s]` is the coefficient of `survivors[s]` in wanted
    /// shard `want[o]`, so `want[o] = Σ_s rows[o * k + s] · survivors[s]`
    /// byte for byte (and therefore packet for packet). `survivors` names
    /// k distinct shard indices in the caller's order. Shares the
    /// per-pattern inversion memo with the block path.
    pub fn decode_rows(&self, survivors: &[usize], want: &[usize]) -> Result<Vec<u8>, RsError> {
        if survivors.len() != self.k {
            return Err(RsError::WrongChunkCount {
                expected: self.k,
                got: survivors.len(),
            });
        }
        let n = self.k + self.m;
        let mut sorted = survivors.to_vec();
        sorted.sort_unstable();
        let distinct = sorted.windows(2).all(|p| p[0] != p[1]);
        if !distinct || survivors.iter().chain(want).any(|&i| i >= n) {
            return Err(RsError::InvalidParams);
        }
        let w = want.len();
        let cols = self.decode_cols(&sorted, want);
        let mut rows = vec![0u8; w * self.k];
        for (s, shard) in survivors.iter().enumerate() {
            let pos = sorted.binary_search(shard).expect("sorted copy");
            for o in 0..w {
                rows[o * self.k + s] = cols[pos * w + o];
            }
        }
        Ok(rows)
    }

    /// Incrementally update parities after data chunk `j` changes from
    /// `old` to `new`: `P_p += coef[p][j] · (old ⊕ new)`. This is the
    /// small-write optimization DFSs use to avoid re-reading the stripe.
    #[cfg(test)]
    fn update_parities(
        &self,
        j: usize,
        old: &[u8],
        new: &[u8],
        parities: &mut [Vec<u8>],
    ) -> Result<(), RsError> {
        if j >= self.k || parities.len() != self.m {
            return Err(RsError::InvalidParams);
        }
        if old.len() != new.len() || parities.iter().any(|p| p.len() != old.len()) {
            return Err(RsError::ChunkSizeMismatch);
        }
        let delta: Vec<u8> = old.iter().zip(new).map(|(a, b)| a ^ b).collect();
        for (p, parity) in parities.iter_mut().enumerate() {
            gf256::mul_acc_slice(self.parity_coef(p, j), &delta, parity);
        }
        Ok(())
    }

    /// Split a byte buffer into k equal chunks, zero-padding the tail.
    /// Returns (chunks, chunk_len).
    #[cfg(test)]
    fn split(&self, data: &[u8]) -> (Vec<Vec<u8>>, usize) {
        let chunk_len = data.len().div_ceil(self.k).max(1);
        let mut out = Vec::with_capacity(self.k);
        for j in 0..self.k {
            let start = (j * chunk_len).min(data.len());
            let end = ((j + 1) * chunk_len).min(data.len());
            let mut c = data[start..end].to_vec();
            c.resize(chunk_len, 0);
            out.push(c);
        }
        (out, chunk_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, n: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..k)
            .map(|j| {
                (0..n)
                    .map(|i| (i as u8).wrapping_mul(31).wrapping_add(j as u8 ^ seed))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn encode_produces_m_parities() {
        let rs = ReedSolomon::new(3, 2).expect("params");
        let data = sample_data(3, 128, 1);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let p = rs.encode(&refs).expect("encode");
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|x| x.len() == 128));
        let mut shards: Vec<&[u8]> = refs.clone();
        shards.push(&p[0]);
        shards.push(&p[1]);
        assert!(rs.verify(&shards).expect("verify"));
    }

    #[test]
    fn corruption_fails_verification() {
        let rs = ReedSolomon::new(3, 2).expect("params");
        let data = sample_data(3, 64, 2);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut p = rs.encode(&refs).expect("encode");
        p[1][10] ^= 0xFF;
        let mut shards: Vec<&[u8]> = refs.clone();
        shards.push(&p[0]);
        shards.push(&p[1]);
        assert!(!rs.verify(&shards).expect("verify"));
    }

    #[test]
    fn recovers_any_m_erasures_exhaustively_rs_3_2() {
        let rs = ReedSolomon::new(3, 2).expect("params");
        let data = sample_data(3, 90, 3);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parities = rs.encode(&refs).expect("encode");
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parities.clone()).collect();

        for a in 0..5 {
            for b in (a + 1)..5 {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                rs.reconstruct(&mut shards).expect("reconstruct");
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(s.as_ref().expect("filled"), &full[i], "erased ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn too_many_erasures_rejected() {
        let rs = ReedSolomon::new(2, 1).expect("params");
        let mut shards: Vec<Option<Vec<u8>>> = vec![Some(vec![1, 2]), None, None];
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(RsError::TooFewShards {
                present: 1,
                need: 2
            })
        );
    }

    #[test]
    fn rs_6_3_random_erasures() {
        let rs = ReedSolomon::new(6, 3).expect("params");
        let data = sample_data(6, 257, 4);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parities = rs.encode(&refs).expect("encode");
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parities).collect();
        // A few deterministic erasure patterns of size m = 3.
        for pattern in [[0, 1, 2], [3, 6, 8], [0, 4, 7], [5, 6, 7], [2, 3, 8]] {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for &i in &pattern {
                shards[i] = None;
            }
            rs.reconstruct(&mut shards).expect("reconstruct");
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.as_ref().expect("filled"), &full[i], "{pattern:?}");
            }
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert_eq!(ReedSolomon::new(0, 2).unwrap_err(), RsError::InvalidParams);
        assert_eq!(ReedSolomon::new(2, 0).unwrap_err(), RsError::InvalidParams);
        assert_eq!(
            ReedSolomon::new(200, 56).unwrap_err(),
            RsError::InvalidParams
        );
        assert!(ReedSolomon::new(200, 55).is_ok());
    }

    #[test]
    fn mismatched_chunk_sizes_rejected() {
        let rs = ReedSolomon::new(2, 1).expect("params");
        let a = vec![1u8; 10];
        let b = vec![2u8; 11];
        assert_eq!(
            rs.encode(&[&a, &b]).unwrap_err(),
            RsError::ChunkSizeMismatch
        );
    }

    #[test]
    fn split_pads_and_covers() {
        let rs = ReedSolomon::new(3, 2).expect("params");
        let data: Vec<u8> = (0..10).collect();
        let (chunks, len) = rs.split(&data);
        assert_eq!(len, 4);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], vec![0, 1, 2, 3]);
        assert_eq!(chunks[1], vec![4, 5, 6, 7]);
        assert_eq!(chunks[2], vec![8, 9, 0, 0]);
    }

    #[test]
    fn incremental_update_matches_full_reencode() {
        let rs = ReedSolomon::new(4, 2).expect("params");
        let mut data = sample_data(4, 333, 8);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parities = rs.encode(&refs).expect("encode");
        // Mutate chunk 2 and update incrementally.
        let old = data[2].clone();
        for (i, b) in data[2].iter_mut().enumerate() {
            *b = b.wrapping_add(i as u8 ^ 0x5A);
        }
        rs.update_parities(2, &old, &data[2], &mut parities)
            .expect("update");
        let refs2: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let full = rs.encode(&refs2).expect("encode");
        assert_eq!(parities, full, "incremental must equal re-encode");
    }

    #[test]
    fn incremental_update_rejects_bad_args() {
        let rs = ReedSolomon::new(2, 1).expect("params");
        let mut p = vec![vec![0u8; 4]];
        assert_eq!(
            rs.update_parities(5, &[0; 4], &[0; 4], &mut p),
            Err(RsError::InvalidParams)
        );
        assert_eq!(
            rs.update_parities(0, &[0; 3], &[0; 4], &mut p),
            Err(RsError::ChunkSizeMismatch)
        );
    }

    #[test]
    fn vandermonde_and_cauchy_codes_both_recover() {
        // Same data, two constructions: both recover from m erasures.
        let data = sample_data(3, 100, 5);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let rs = ReedSolomon::new(3, 2).expect("params");
        let vp = rs.encode(&refs).expect("vandermonde encode");
        let cp = crate::cauchy::cauchy_encode(3, 2, &refs);
        // The matrices differ, so parities differ; both must verify & decode.
        assert_ne!(vp, cp, "distinct constructions");
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(vp.into_iter().map(Some))
            .collect();
        shards[0] = None;
        shards[4] = None;
        rs.reconstruct(&mut shards).expect("recover");
        assert_eq!(shards[0].as_ref().expect("chunk"), &data[0]);
    }

    #[test]
    fn encode_into_reuses_buffers_and_matches_encode() {
        let rs = ReedSolomon::new(4, 3).expect("params");
        let data = sample_data(4, 50_000, 11);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let fresh = rs.encode(&refs).expect("encode");
        // Dirty, differently-sized buffers must come out identical.
        let mut reused: Vec<Vec<u8>> = vec![vec![0xEE; 17], Vec::new(), vec![1; 100_000]];
        rs.encode_into(&refs, &mut reused).expect("encode_into");
        assert_eq!(fresh, reused);
        // Second call reuses capacity (no growth needed).
        let cap_before: Vec<usize> = reused.iter().map(|v| v.capacity()).collect();
        rs.encode_into(&refs, &mut reused).expect("encode_into");
        let cap_after: Vec<usize> = reused.iter().map(|v| v.capacity()).collect();
        assert_eq!(cap_before, cap_after, "no reallocation on reuse");
    }

    #[test]
    fn encode_into_rejects_wrong_parity_count() {
        let rs = ReedSolomon::new(2, 1).expect("params");
        let a = vec![1u8; 8];
        let b = vec![2u8; 8];
        let mut p: Vec<Vec<u8>> = vec![Vec::new(), Vec::new()];
        assert_eq!(
            rs.encode_into(&[&a, &b], &mut p).unwrap_err(),
            RsError::WrongChunkCount {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn repeated_repairs_hit_the_decode_cache() {
        let rs = ReedSolomon::new(3, 2).expect("params");
        let data = sample_data(3, 64, 6);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parities = rs.encode(&refs).expect("encode");
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parities).collect();
        for _ in 0..5 {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            shards[0] = None;
            shards[3] = None;
            rs.reconstruct(&mut shards).expect("reconstruct");
            assert_eq!(shards[0].as_ref().expect("filled"), &full[0]);
        }
        let (hits, misses) = rs.decode_cache_stats();
        assert_eq!(misses, 1, "one inversion for a repeated pattern");
        assert_eq!(hits, 4, "subsequent repairs reuse it");
    }

    #[test]
    fn decode_rows_share_the_block_paths_cache_and_reject_bad_survivor_sets() {
        let rs = ReedSolomon::new(3, 2).expect("params");
        rs.decode_rows(&[4, 1, 2], &[0]).expect("rows");
        rs.decode_rows(&[1, 2, 4], &[0])
            .expect("same set, other order");
        assert_eq!(rs.decode_cache_stats(), (1, 1), "one inversion, one hit");
        assert!(rs.decode_rows(&[1, 2], &[0]).is_err(), "too few");
        assert!(rs.decode_rows(&[1, 1, 2], &[0]).is_err(), "duplicate");
        assert!(rs.decode_rows(&[1, 2, 5], &[0]).is_err(), "no such shard");
        assert!(rs.decode_rows(&[1, 2, 3], &[7]).is_err(), "no such want");
    }

    #[test]
    fn reconstruct_into_matches_reconstruct_and_reuses_buffers() {
        let rs = ReedSolomon::new(6, 3).expect("params");
        let data = sample_data(6, 4096, 12);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parities = rs.encode(&refs).expect("encode");
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parities).collect();
        // Erase a mix of data and parity shards.
        let missing = [1usize, 4, 7];
        let shards: Vec<Option<&[u8]>> = full
            .iter()
            .enumerate()
            .map(|(i, s)| (!missing.contains(&i)).then_some(s.as_slice()))
            .collect();
        // Dirty, differently-sized output buffers must come out exact.
        let mut out: Vec<Vec<u8>> = vec![vec![0xEE; 9], Vec::new(), vec![1; 10_000]];
        rs.reconstruct_into(&shards, &missing, &mut out)
            .expect("reconstruct_into");
        for (o, &i) in missing.iter().enumerate() {
            assert_eq!(out[o], full[i], "shard {i}");
        }
        // Second call reuses capacity (no reallocation).
        let cap_before: Vec<usize> = out.iter().map(|v| v.capacity()).collect();
        rs.reconstruct_into(&shards, &missing, &mut out)
            .expect("reconstruct_into");
        let cap_after: Vec<usize> = out.iter().map(|v| v.capacity()).collect();
        assert_eq!(cap_before, cap_after, "no reallocation on reuse");
    }

    #[test]
    fn complete_but_inconsistent_shards_still_rejected() {
        let rs = ReedSolomon::new(2, 1).expect("params");
        let mut shards = vec![Some(vec![1u8; 4]), Some(vec![2u8; 5]), Some(vec![3u8; 4])];
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(RsError::ChunkSizeMismatch),
            "a complete shard set is validated, not waved through"
        );
    }

    #[test]
    fn reconstruct_into_rejects_bad_args() {
        let rs = ReedSolomon::new(2, 1).expect("params");
        let a = vec![1u8; 8];
        let b = vec![2u8; 8];
        let shards: Vec<Option<&[u8]>> = vec![Some(&a), Some(&b), None];
        let mut out = vec![Vec::new(); 2];
        assert_eq!(
            rs.reconstruct_into(&shards, &[2], &mut out).unwrap_err(),
            RsError::WrongChunkCount {
                expected: 1,
                got: 2
            }
        );
        let mut one = vec![Vec::new()];
        assert_eq!(
            rs.reconstruct_into(&shards, &[3], &mut one).unwrap_err(),
            RsError::InvalidParams
        );
        let short: Vec<Option<&[u8]>> = vec![Some(&a), None, None];
        assert_eq!(
            rs.reconstruct_into(&short, &[1], &mut one).unwrap_err(),
            RsError::TooFewShards {
                present: 1,
                need: 2
            }
        );
    }

    #[test]
    fn parity_rows_match_matrix() {
        let rs = ReedSolomon::new(5, 3).expect("params");
        for p in 0..3 {
            for j in 0..5 {
                assert_eq!(rs.parity_coef(p, j), rs.enc[(5 + p, j)]);
            }
        }
    }

    #[test]
    fn fig12_shape_rs_3_2() {
        // Fig 12: encoding matrix (5×3) times data (3×1) yields the 3 data
        // chunks verbatim plus 2 parities.
        let rs = ReedSolomon::new(3, 2).expect("params");
        let data = sample_data(3, 16, 9);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parities = rs.encode(&refs).expect("encode");
        // Systematic: identity rows return data unchanged — implied by the
        // encode API storing data verbatim; check coefficient structure.
        for j in 0..3 {
            for jj in 0..3 {
                // enc rows 0..k are the identity.
                let c = if j == jj { 1 } else { 0 };
                assert_eq!(rs.enc[(j, jj)], c);
            }
        }
        assert_eq!(parities.len(), 2);
    }
}
