//! Ino → metadata-shard routing.
//!
//! Metadata ops are hash-partitioned across shards by inode number
//! (SwitchFS-style fine-grained partitioning): a mixing function over the
//! ino picks the shard whose queue and op log an op on it uses, so
//! directory locality does not funnel a whole subtree onto one shard
//! while the mapping stays stateless — any client or server can compute
//! it with no directory-service round trip. The state itself (the
//! namespace tree and the file table) is not partitioned.

/// Stateless ino → shard map shared by every control-plane entry point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardRouter {
    n_shards: usize,
}

impl ShardRouter {
    pub(crate) fn new(n_shards: usize) -> ShardRouter {
        ShardRouter {
            n_shards: n_shards.max(1),
        }
    }

    /// The shard owning `ino`. Sequentially-allocated inos (the common
    /// namespace pattern) must spread: a bare `ino % n` would put every
    /// other create on the same shard pair, so mix first.
    pub(crate) fn route(&self, ino: u64) -> usize {
        (splitmix64(ino) % self.n_shards as u64) as usize
    }
}

/// splitmix64 finalizer: cheap, stateless, and avalanche-complete — one
/// flipped input bit flips ~half the output bits, which is what makes
/// `% n_shards` uniform over sequential inos.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        for ino in 0..100 {
            assert_eq!(r.route(ino), 0);
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let r = ShardRouter::new(4);
        for ino in 0..1000 {
            let s = r.route(ino);
            assert!(s < 4);
            assert_eq!(s, r.route(ino), "stateless and stable");
        }
    }

    #[test]
    fn sequential_inos_spread_across_shards() {
        // The allocation pattern the namespace actually produces: a dense
        // run of sequential inos. Every shard must see a fair share.
        let r = ShardRouter::new(8);
        let mut counts = [0usize; 8];
        for ino in 1..=4096 {
            counts[r.route(ino)] += 1;
        }
        let expect = 4096 / 8;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > expect / 2 && c < expect * 2,
                "shard {s} got {c} of 4096 (expected ~{expect})"
            );
        }
    }
}
