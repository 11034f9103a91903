//! DFS request headers (paper Fig 3): the generic DFS header, the write
//! request header (WRH) with its resiliency options (§V-A, §VI), and the
//! read request header (RRH).

use crate::capability::Capability;
use crate::sizes;

/// DFS operation carried in the generic DFS header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DfsOp {
    Write,
    Read,
}

/// Generic DFS header carried by the first packet of every request (§III-A):
/// identifies and authenticates the request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DfsHeader {
    /// Globally unique request id (paper: `greq_id`).
    pub greq_id: u64,
    pub op: DfsOp,
    pub client: u32,
    /// QoS scheduling principal this request is billed to. Packs into the
    /// upper 16 bits of the on-wire client field (node ids are small), so
    /// the wire size is unchanged. By default a client's own node id;
    /// background services use reserved ids (e.g. repair).
    pub tenant: u16,
    pub capability: Capability,
}

impl DfsHeader {
    pub const fn wire_size() -> u32 {
        sizes::DFS_HEADER
    }
}

/// Identity of a replica/parity target: network address + storage address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplicaCoord {
    pub node: u32,
    pub addr: u64,
}

/// Broadcast schedule for replication (§V-A).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BcastStrategy {
    /// Each replica forwards to exactly one successor.
    Ring,
    /// Pipelined binary tree: each replica forwards to up to two children.
    Pbt,
}

/// Reed-Solomon scheme parameters RS(k, m).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RsScheme {
    pub k: u8,
    pub m: u8,
}

impl RsScheme {
    pub const fn new(k: u8, m: u8) -> RsScheme {
        RsScheme { k, m }
    }
}

/// Role of the receiving storage node in the EC write (§VI-B: "indication of
/// whether this node stores data or parity chunks, determining the actions
/// performed by the handlers").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EcRole {
    /// This node stores data chunk `chunk_idx`; it must generate and forward
    /// intermediate parities to the parity nodes.
    Data { chunk_idx: u8 },
    /// This message carries intermediate parity `parity_idx` computed from
    /// data chunk `src_chunk`; the receiver aggregates (XORs) `k` such
    /// streams into the final parity chunk.
    Parity { parity_idx: u8, src_chunk: u8 },
}

/// EC parameters carried in the WRH.
#[derive(Clone, Debug, PartialEq)]
pub struct EcInfo {
    pub scheme: RsScheme,
    pub role: EcRole,
    /// Stripe identifier: all chunks and parities of one client write share it.
    pub stripe: u64,
    /// For `EcRole::Data`: coordinates of the m parity nodes.
    pub parity_coords: Vec<ReplicaCoord>,
}

/// Resiliency strategy option in the WRH (§VI-B: "the write request header
/// carries a resiliency strategy option ... followed by either replication
/// or EC parameters").
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Resiliency {
    #[default]
    None,
    Replicate {
        strategy: BcastStrategy,
        /// This node's virtual rank in the broadcast tree.
        vrank: u8,
        /// Coordinates of all replicas, indexed by virtual rank.
        coords: Vec<ReplicaCoord>,
    },
    ErasureCode(EcInfo),
}

/// Write request header (WRH).
#[derive(Clone, Debug, PartialEq)]
pub struct WriteReqHeader {
    /// Destination storage address on the receiving node.
    pub target_addr: u64,
    /// Total write length in bytes.
    pub len: u32,
    pub resiliency: Resiliency,
}

impl WriteReqHeader {
    pub fn wire_size(&self) -> u32 {
        let extra = match &self.resiliency {
            Resiliency::None => 0,
            Resiliency::Replicate { coords, .. } => {
                sizes::WRH_REPL_FIXED + coords.len() as u32 * sizes::REPLICA_COORD
            }
            Resiliency::ErasureCode(info) => {
                sizes::WRH_EC_FIXED + info.parity_coords.len() as u32 * sizes::REPLICA_COORD
            }
        };
        sizes::WRH_FIXED + extra
    }
}

/// Read request header (RRH).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadReqHeader {
    pub addr: u64,
    pub len: u32,
}

impl ReadReqHeader {
    pub(crate) const fn wire_size() -> u32 {
        sizes::RRH
    }
}

/// Maximum segments one gather read request may carry; the GRH must fit
/// the first (only) packet of the request alongside the DFS header.
pub const MAX_GATHER_SEGS: usize = 32;

/// One contiguous source range of an offloaded gather read. In a healthy
/// gather every segment is on the coordinator and is streamed from its
/// memory. In a degraded one the segments are the stripe's k survivor
/// chunks (`len` = chunk length): the coordinator DMA-reads its own and
/// fetches the others' lost ranges NIC-to-NIC, decoding as they arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GatherSegment {
    pub coord: ReplicaCoord,
    pub len: u32,
    /// Destination offset within the streamed response flow (== the
    /// `offset` field of the response packets covering this segment).
    pub dest_off: u32,
    /// Shard index when this segment feeds a reconstruction; 0 otherwise.
    pub shard: u8,
}

/// One output range of a degraded gather: `len` bytes at `chunk_off`
/// within data chunk `chunk`, streamed to flow offset `dest_off`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GatherCopy {
    pub chunk: u8,
    pub chunk_off: u32,
    pub len: u32,
    pub dest_off: u32,
}

/// Reconstruction directive of a degraded gather read: the request's
/// segments are the k surviving shards (tagged by `GatherSegment::shard`);
/// the coordinator rebuilds exactly the `copy` ranges of the lost chunks —
/// reading no more than those ranges from any survivor — and streams
/// them to their destination offsets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GatherReconstruct {
    pub scheme: RsScheme,
    pub chunk_len: u32,
    pub copy: Vec<GatherCopy>,
}

/// Gather read header (GRH): the offloaded-read analogue of the RRH. One
/// validated request asks a storage NIC to collect several source ranges
/// (optionally reconstructing missing chunks on the NIC) and stream them
/// back as a single response flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GatherReadHeader {
    /// Total bytes the response flow will carry.
    pub total_len: u32,
    pub segments: Vec<GatherSegment>,
    pub reconstruct: Option<GatherReconstruct>,
}

impl GatherReadHeader {
    pub(crate) fn wire_size(&self) -> u32 {
        let rec = self.reconstruct.as_ref().map_or(0, |r| {
            sizes::GRH_REC_FIXED + r.copy.len() as u32 * sizes::GATHER_COPY
        });
        sizes::GRH_FIXED + self.segments.len() as u32 * sizes::GATHER_SEG + rec
    }
}

/// Compute the children of `vrank` in a broadcast schedule over `n` nodes.
///
/// Ring: rank r forwards to r+1 (if any). PBT: rank r forwards to 2r+1 and
/// 2r+2 (if present). Rank 0 is the primary storage node (the one the client
/// writes to).
pub fn bcast_children(strategy: BcastStrategy, vrank: u8, n: usize) -> Vec<u8> {
    let r = vrank as usize;
    let mut out = Vec::with_capacity(2);
    match strategy {
        BcastStrategy::Ring => {
            if r + 1 < n {
                out.push((r + 1) as u8);
            }
        }
        BcastStrategy::Pbt => {
            for c in [2 * r + 1, 2 * r + 2] {
                if c < n {
                    out.push(c as u8);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrh_sizes_scale_with_coords() {
        let plain = WriteReqHeader {
            target_addr: 0,
            len: 0,
            resiliency: Resiliency::None,
        };
        assert_eq!(plain.wire_size(), sizes::WRH_FIXED);

        let repl = WriteReqHeader {
            target_addr: 0,
            len: 0,
            resiliency: Resiliency::Replicate {
                strategy: BcastStrategy::Ring,
                vrank: 0,
                coords: vec![ReplicaCoord { node: 1, addr: 0 }; 4],
            },
        };
        assert_eq!(
            repl.wire_size(),
            sizes::WRH_FIXED + sizes::WRH_REPL_FIXED + 4 * sizes::REPLICA_COORD
        );

        let ec = WriteReqHeader {
            target_addr: 0,
            len: 0,
            resiliency: Resiliency::ErasureCode(EcInfo {
                scheme: RsScheme::new(3, 2),
                role: EcRole::Data { chunk_idx: 0 },
                stripe: 9,
                parity_coords: vec![ReplicaCoord { node: 4, addr: 0 }; 2],
            }),
        };
        assert_eq!(
            ec.wire_size(),
            sizes::WRH_FIXED + sizes::WRH_EC_FIXED + 2 * sizes::REPLICA_COORD
        );
    }

    #[test]
    fn grh_fits_first_packet_at_max_segments() {
        // Worst case: MAX_GATHER_SEGS segments each needing a copy range.
        let grh = GatherReadHeader {
            total_len: 0,
            segments: vec![
                GatherSegment {
                    coord: ReplicaCoord { node: 0, addr: 0 },
                    len: 0,
                    dest_off: 0,
                    shard: 0,
                };
                MAX_GATHER_SEGS
            ],
            reconstruct: Some(GatherReconstruct {
                scheme: RsScheme::new(8, 4),
                chunk_len: 0,
                copy: vec![
                    GatherCopy {
                        chunk: 0,
                        chunk_off: 0,
                        len: 0,
                        dest_off: 0,
                    };
                    MAX_GATHER_SEGS
                ],
            }),
        };
        assert!(sizes::RDMA_HEADER + sizes::DFS_HEADER + grh.wire_size() < sizes::MTU);
    }

    #[test]
    fn ring_children_chain() {
        assert_eq!(bcast_children(BcastStrategy::Ring, 0, 4), vec![1]);
        assert_eq!(bcast_children(BcastStrategy::Ring, 2, 4), vec![3]);
        assert!(bcast_children(BcastStrategy::Ring, 3, 4).is_empty());
    }

    #[test]
    fn pbt_children_tree() {
        assert_eq!(bcast_children(BcastStrategy::Pbt, 0, 7), vec![1, 2]);
        assert_eq!(bcast_children(BcastStrategy::Pbt, 1, 7), vec![3, 4]);
        assert_eq!(bcast_children(BcastStrategy::Pbt, 2, 6), vec![5]);
        assert!(bcast_children(BcastStrategy::Pbt, 3, 7).is_empty());
    }

    #[test]
    fn every_rank_reached_exactly_once() {
        for n in 1..=16usize {
            for strategy in [BcastStrategy::Ring, BcastStrategy::Pbt] {
                let mut seen = vec![0u32; n];
                seen[0] = 1; // primary receives from the client
                for r in 0..n {
                    for c in bcast_children(strategy, r as u8, n) {
                        seen[c as usize] += 1;
                    }
                }
                assert!(seen.iter().all(|&s| s == 1), "{strategy:?} n={n}: {seen:?}");
            }
        }
    }

    /// Hops from the primary to `vrank`, following `bcast_children` over
    /// `n` nodes.
    fn depth(strategy: BcastStrategy, vrank: u8, n: usize) -> u32 {
        let (mut d, mut level) = (0, vec![0u8]);
        while !level.contains(&vrank) {
            level = level
                .iter()
                .flat_map(|&r| bcast_children(strategy, r, n))
                .collect();
            assert!(!level.is_empty(), "rank {vrank} unreachable");
            d += 1;
        }
        d
    }

    #[test]
    fn depths() {
        assert_eq!(depth(BcastStrategy::Ring, 3, 8), 3);
        assert_eq!(depth(BcastStrategy::Pbt, 0, 8), 0);
        assert_eq!(depth(BcastStrategy::Pbt, 1, 8), 1);
        assert_eq!(depth(BcastStrategy::Pbt, 2, 8), 1);
        assert_eq!(depth(BcastStrategy::Pbt, 5, 8), 2);
        assert_eq!(depth(BcastStrategy::Pbt, 6, 8), 2);
    }

    #[test]
    fn pbt_depth_is_logarithmic() {
        // Max depth over k nodes should be ceil(log2(k+1)) - 1-ish; just
        // verify it is strictly smaller than ring depth for k >= 4.
        for k in 4..=8u8 {
            let n = k as usize;
            let ring_max = depth(BcastStrategy::Ring, k - 1, n);
            let pbt_max = (0..k).map(|r| depth(BcastStrategy::Pbt, r, n)).max();
            assert!(pbt_max.expect("nonempty") < ring_max);
        }
    }
}
