//! A cheap, deterministic hasher for tables keyed by ids the simulator
//! hands out itself — message ids, tokens, page numbers.
//!
//! `std`'s default SipHash with per-map random keys buys protection
//! against crafted collisions, which these keys cannot be, at 8-11 % of a
//! packet workload's host time; it also makes iteration order differ from
//! run to run. This multiply-rotate fold (the FxHash recipe) costs a few
//! cycles per word and hashes the same everywhere. Do not use it for keys
//! that arrive from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// One multiply-rotate step; also the engine's order-digest fold.
#[inline]
pub(crate) fn fold(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(K)
}

#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.0 = fold(self.0, u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.0 = fold(self.0, v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = fold(self.0, v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = fold(self.0, v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.0 = fold(self.0, v as u64);
    }
}

pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn h<T: Hash>(v: T) -> u64 {
        let mut s = IdHasher::default();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn sequential_ids_spread_over_buckets_and_control_bytes() {
        // hashbrown indexes buckets with the low bits and tags entries
        // with the top seven; both must vary across consecutive ids.
        let low: IdSet<u64> = (0..1024u64).map(|i| h(i) & 1023).collect();
        let top: IdSet<u64> = (0..1024u64).map(|i| h(i) >> 57).collect();
        assert!(low.len() > 600, "low bits collapse: {}", low.len());
        assert_eq!(top.len(), 128, "top bits collapse");
    }

    #[test]
    fn hashing_is_the_same_in_every_map() {
        let mut a: IdMap<(u32, u64), u32> = IdMap::default();
        let mut b: IdMap<(u32, u64), u32> = IdMap::default();
        for i in 0..100u64 {
            a.insert((7, i), i as u32);
            b.insert((7, i), i as u32);
        }
        let ka: Vec<_> = a.keys().copied().collect();
        let kb: Vec<_> = b.keys().copied().collect();
        assert_eq!(ka, kb, "same insertions, same iteration order");
        assert_eq!(h((7u32, 9u64)), h((7u32, 9u64)));
        assert_ne!(h((7u32, 9u64)), h((9u32, 7u64)));
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(h("abc"), h("abc"));
        assert_ne!(h("abc"), h("abd"));
        assert_ne!(h([1u8; 9]), h([1u8; 10]));
    }
}
