//! Streaming (per-packet) erasure coding — the sPIN-TriEC data path (§VI).
//!
//! A data node holding chunk `j` processes each incoming packet by
//! multiplying its payload with the parity coefficient and forwarding the
//! product ("intermediate parity") to each parity node. A parity node XORs
//! the k intermediate streams, packet index by packet index, into
//! accumulators ("aggregation sequences", Fig 14). Because the code is
//! linear, the aggregated result equals the block encode of the whole
//! chunks — asserted by the tests here and relied on by the simulator.
//!
//! Decode is the same sequence run backwards: a lost chunk is a linear
//! combination of any k survivors ([`ReedSolomon::decode_rows`]), so a
//! node absorbing `d_i · payload` from survivor `i`, packet index by
//! packet index ([`Accumulator::absorb_scaled`]), holds the rebuilt
//! packet the moment its k-th contribution lands — over any byte range of
//! the chunk, as long as every survivor is cut into packets from the same
//! offset.

use crate::gf256;
use crate::rs::ReedSolomon;

/// Compute one intermediate-parity packet: `coef * payload`.
///
/// `coef` is `rs.parity_coef(p, j)` for parity `p` and data chunk `j`.
/// Allocates; the streaming hot path uses [`intermediate_parity_into`]
/// with a recycled buffer instead.
pub fn intermediate_parity(coef: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    intermediate_parity_into(coef, payload, &mut out);
    out
}

/// In-place variant of [`intermediate_parity`]: writes `coef * payload`
/// into `out`, reusing its allocation (the zero-alloc per-packet path when
/// `out` comes from a buffer pool). `mul_slice` writes every output byte
/// for every coefficient, so `out`'s prior contents never leak and no
/// zero fill is needed beyond length adjustment.
pub fn intermediate_parity_into(coef: u8, payload: &[u8], out: &mut Vec<u8>) {
    if out.len() != payload.len() {
        out.clear();
        out.resize(payload.len(), 0);
    }
    gf256::mul_slice(coef, payload, out);
}

/// Per-packet-index aggregation state at a parity node: XOR of the
/// intermediate parities received so far for one aggregation sequence.
#[derive(Clone, Debug)]
pub struct Accumulator {
    buf: Vec<u8>,
    received: u32,
    expected: u32,
}

impl Accumulator {
    /// New accumulator for an aggregation sequence expecting `k`
    /// contributions of at most `cap` bytes.
    pub fn new(cap: usize, k: u32) -> Accumulator {
        Accumulator {
            buf: vec![0u8; cap],
            received: 0,
            expected: k,
        }
    }

    /// Build an accumulator around a recycled buffer (e.g. from a
    /// `BufPool`). The buffer's length is its capacity for contributions;
    /// it is zeroed here, so dirty buffers are fine.
    pub fn with_buf(mut buf: Vec<u8>, k: u32) -> Accumulator {
        buf.fill(0);
        Accumulator {
            buf,
            received: 0,
            expected: k,
        }
    }

    /// Rearm this accumulator for a fresh sequence of `k` contributions,
    /// keeping the allocation.
    pub fn reset(&mut self, k: u32) {
        self.buf.fill(0);
        self.received = 0;
        self.expected = k;
    }

    /// Take the backing buffer (to hand it back to a pool); the
    /// accumulator is left empty and must be re-armed via [`Self::reset`]
    /// after a new buffer is installed — or just dropped.
    pub fn into_buf(self) -> Vec<u8> {
        self.buf
    }

    /// The longest contribution the sequence can take.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// XOR one contribution in; returns true when the sequence is complete.
    /// Contributions may have different lengths (the final packets of a
    /// chunk can be short); the accumulator tracks the longest. The XOR is
    /// the u64-wide kernel.
    pub fn absorb(&mut self, data: &[u8]) -> bool {
        assert!(
            data.len() <= self.buf.len(),
            "contribution exceeds capacity"
        );
        assert!(self.received < self.expected, "sequence over-complete");
        gf256::xor_slice(data, &mut self.buf[..data.len()]);
        self.received += 1;
        self.received == self.expected
    }

    /// Multiply-accumulate one contribution in (`coef · data`, the
    /// wide-word kernel, no scaled intermediate): the decode-side absorb,
    /// where `coef` is the survivor's entry in the lost chunk's decode
    /// row. Same length and completion rules as [`Self::absorb`].
    pub fn absorb_scaled(&mut self, coef: u8, data: &[u8]) -> bool {
        assert!(
            data.len() <= self.buf.len(),
            "contribution exceeds capacity"
        );
        assert!(self.received < self.expected, "sequence over-complete");
        gf256::mul_acc_slice(coef, data, &mut self.buf[..data.len()]);
        self.received += 1;
        self.received == self.expected
    }

    pub fn is_complete(&self) -> bool {
        self.received == self.expected
    }

    pub fn received(&self) -> u32 {
        self.received
    }

    /// Final bytes (valid once complete); `len` trims to the real packet
    /// length.
    pub fn finish(&self, len: usize) -> &[u8] {
        debug_assert!(self.is_complete());
        &self.buf[..len]
    }
}

/// Block-encode reference path used to cross-check streaming encodes.
pub fn block_parities(rs: &ReedSolomon, chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    rs.encode(&refs).expect("block encode")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Split a chunk into packets of `mtu` payload bytes.
    fn packets(chunk: &[u8], mtu: usize) -> Vec<&[u8]> {
        chunk.chunks(mtu).collect()
    }

    fn data_chunks(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|j| (0..len).map(|i| ((i * 7 + j * 13) % 256) as u8).collect())
            .collect()
    }

    #[test]
    fn streaming_equals_block_encode_rs_3_2() {
        streaming_matches_block(3, 2, 5000, 1978);
    }

    #[test]
    fn streaming_equals_block_encode_rs_6_3() {
        streaming_matches_block(6, 3, 12_345, 1978);
    }

    #[test]
    fn streaming_single_packet_chunks() {
        streaming_matches_block(2, 1, 100, 1978);
    }

    fn streaming_matches_block(k: usize, m: usize, chunk_len: usize, mtu: usize) {
        let rs = ReedSolomon::new(k, m).expect("params");
        let chunks = data_chunks(k, chunk_len);
        let expect = block_parities(&rs, &chunks);

        let n_pkts = chunk_len.div_ceil(mtu);
        for (p, expected_parity) in expect.iter().enumerate().take(m) {
            // One accumulator per aggregation sequence (packet index).
            let mut accs: Vec<Accumulator> = (0..n_pkts)
                .map(|_| Accumulator::new(mtu, k as u32))
                .collect();
            // Interleaved arrival order (client interleaves packets, §VI-B-1):
            // packet i of every chunk, then packet i+1 ...
            for (i, acc) in accs.iter_mut().enumerate() {
                for (j, chunk) in chunks.iter().enumerate() {
                    let pkt = packets(chunk, mtu)[i];
                    let ipar = intermediate_parity(rs.parity_coef(p, j), pkt);
                    acc.absorb(&ipar);
                }
            }
            // Reassemble the parity chunk from completed accumulators.
            let mut parity = Vec::with_capacity(chunk_len);
            for (i, acc) in accs.iter().enumerate() {
                assert!(acc.is_complete());
                let len = packets(&chunks[0], mtu)[i].len();
                parity.extend_from_slice(acc.finish(len));
            }
            assert_eq!(&parity, expected_parity, "parity {p}");
        }
    }

    #[test]
    fn arrival_order_does_not_matter() {
        // XOR is commutative: reversed chunk order gives identical parity.
        let rs = ReedSolomon::new(3, 2).expect("params");
        let chunks = data_chunks(3, 2000);
        let expect = block_parities(&rs, &chunks);
        let mtu = 512;
        let n_pkts = 2000usize.div_ceil(mtu);
        let mut accs: Vec<Accumulator> = (0..n_pkts).map(|_| Accumulator::new(mtu, 3)).collect();
        for i in (0..n_pkts).rev() {
            for j in (0..3).rev() {
                let pkt = packets(&chunks[j], mtu)[i];
                let ipar = intermediate_parity(rs.parity_coef(0, j), pkt);
                accs[i].absorb(&ipar);
            }
        }
        let mut parity = Vec::new();
        for (i, acc) in accs.iter().enumerate() {
            parity.extend_from_slice(acc.finish(packets(&chunks[0], mtu)[i].len()));
        }
        assert_eq!(parity, expect[0]);
    }

    /// Streaming decode equals block decode: for every loss pattern of
    /// up to m shards, absorbing `d_i · survivor_i[lo..hi]` packet by
    /// packet (cut from `lo`, which sits mid-packet, as does `hi`)
    /// rebuilds exactly `reconstruct_into(..)[lo..hi]` of every lost
    /// shard.
    fn streaming_decode_matches_block(k: usize, m: usize, chunk_len: usize, mtu: usize) {
        let rs = ReedSolomon::new(k, m).expect("params");
        let data = data_chunks(k, chunk_len);
        let full: Vec<Vec<u8>> = data
            .iter()
            .cloned()
            .chain(block_parities(&rs, &data))
            .collect();
        let (lo, hi) = (mtu / 3, chunk_len - mtu / 2);
        let n = k + m;
        let mut patterns: Vec<Vec<usize>> = (0..n).map(|a| vec![a]).collect();
        patterns.extend((0..n).flat_map(|a| (a + 1..n).map(move |b| vec![a, b])));
        for lost in patterns {
            // The last k survivors, listed backwards: the rows must
            // follow the caller's order, not shard order.
            let survivors: Vec<usize> =
                (0..n).rev().filter(|i| !lost.contains(i)).take(k).collect();
            let shards: Vec<Option<&[u8]>> = (0..n)
                .map(|i| survivors.contains(&i).then_some(full[i].as_slice()))
                .collect();
            let mut block = vec![Vec::new(); lost.len()];
            rs.reconstruct_into(&shards, &lost, &mut block)
                .expect("block decode");
            let rows = rs.decode_rows(&survivors, &lost).expect("decode rows");
            for (o, want) in block.iter().enumerate() {
                assert_eq!(want, &full[lost[o]], "block decode of {lost:?}");
                let mut rebuilt = Vec::with_capacity(hi - lo);
                for start in (lo..hi).step_by(mtu) {
                    let end = (start + mtu).min(hi);
                    let mut acc = Accumulator::new(mtu, k as u32);
                    for (s, &shard) in survivors.iter().enumerate() {
                        acc.absorb_scaled(rows[o * k + s], &full[shard][start..end]);
                    }
                    rebuilt.extend_from_slice(acc.finish(end - start));
                }
                assert_eq!(rebuilt, want[lo..hi], "lost {lost:?}, shard {}", lost[o]);
            }
        }
    }

    #[test]
    fn streaming_decode_equals_block_decode_rs_3_2() {
        streaming_decode_matches_block(3, 2, 5000, 1978);
    }

    #[test]
    fn streaming_decode_equals_block_decode_rs_6_3() {
        streaming_decode_matches_block(6, 3, 12_345, 1978);
    }

    #[test]
    fn accumulator_completion_counting() {
        let mut a = Accumulator::new(10, 3);
        assert!(!a.absorb(&[1u8; 10]));
        assert!(!a.absorb(&[2u8; 10]));
        assert!(!a.is_complete());
        assert!(a.absorb(&[3u8; 10]));
        assert!(a.is_complete());
        assert_eq!(a.finish(10), &[1 ^ 2 ^ 3u8; 10][..]);
    }

    #[test]
    fn recycled_accumulator_matches_fresh() {
        // A dirty recycled buffer and a reset accumulator behave exactly
        // like a new one.
        let dirty = vec![0xDDu8; 10];
        let mut a = Accumulator::with_buf(dirty, 2);
        let mut b = Accumulator::new(10, 2);
        for c in [&[1u8, 2, 3][..], &[4u8, 5, 6, 7][..]] {
            a.absorb(c);
            b.absorb(c);
        }
        assert_eq!(a.finish(4), b.finish(4));
        // Reuse via reset.
        let mut buf = a.into_buf();
        buf.resize(10, 0);
        let mut a2 = Accumulator::with_buf(buf, 1);
        a2.reset(1);
        a2.absorb(&[9u8; 10]);
        assert_eq!(a2.finish(10), &[9u8; 10][..]);
    }

    #[test]
    fn intermediate_parity_into_reuses_allocation() {
        let payload: Vec<u8> = (0..1978u32).map(|i| (i * 3) as u8).collect();
        let mut out = Vec::new();
        intermediate_parity_into(0x1D, &payload, &mut out);
        assert_eq!(out, intermediate_parity(0x1D, &payload));
        let cap = out.capacity();
        let ptr = out.as_ptr();
        intermediate_parity_into(0x07, &payload, &mut out);
        assert_eq!(out, intermediate_parity(0x07, &payload));
        assert_eq!(out.capacity(), cap);
        assert_eq!(out.as_ptr(), ptr, "no reallocation on reuse");
    }

    #[test]
    #[should_panic(expected = "over-complete")]
    fn over_absorbing_panics() {
        let mut a = Accumulator::new(4, 1);
        a.absorb(&[0u8; 4]);
        a.absorb(&[0u8; 4]);
    }
}
