//! On-wire size constants.
//!
//! The paper simulates a RoCE-style network with a 2048 B MTU (§III-D) and
//! states that DFS+request headers always fit the first packet (§III-A).
//! Sizes below follow RoCEv2 framing: Ethernet(14) + IPv4(20) + UDP(8) +
//! BTH(12) + RETH(16) = 70 B for a first/only RDMA WRITE packet; we charge
//! the same 70 B on every packet of a message (middle packets lack RETH but
//! carry PSN bookkeeping; the 16 B difference is < 1% of the MTU and keeping
//! it uniform simplifies reasoning about goodput).

/// Network maximum transmission unit, bytes (paper: 2048 B).
pub const MTU: u32 = 2048;

/// Transport (RDMA/RoCE) header bytes charged per packet.
pub const RDMA_HEADER: u32 = 70;

/// Acknowledgement / NACK frame total wire size (AETH-style small frame).
pub(crate) const ACK_FRAME: u32 = 74;

/// Capability: client(4) file(8) rights(1) expiry(8) nonce(8) mac(8) = 37 B.
pub(crate) const CAPABILITY: u32 = 37;

/// Generic DFS header (§III-A): greq_id(8) op(1) client(4) + capability.
pub const DFS_HEADER: u32 = 13 + CAPABILITY;

/// Read request header: addr(8) len(4).
pub(crate) const RRH: u32 = 12;

/// Write request header, fixed part: target_addr(8) len(4) resiliency tag(1).
pub const WRH_FIXED: u32 = 13;

/// Per replica coordinate: node(4) + addr(8) (§V-A "replica coordinates").
pub(crate) const REPLICA_COORD: u32 = 12;

/// Replication extra fields: strategy(1) vrank(1) nreplicas(1).
pub(crate) const WRH_REPL_FIXED: u32 = 3;

/// EC extra fields: k(1) m(1) role(1) role-args(10) stripe(8) ncoords(1).
pub(crate) const WRH_EC_FIXED: u32 = 22;

/// RPC header: rpc_id(8) kind(1) body_len(4).
pub const RPC_HEADER: u32 = 13;

/// Gather read header, fixed part: total_len(4) nsegs(1) has_reconstruct(1).
pub(crate) const GRH_FIXED: u32 = 6;

/// Per gather segment: replica coord(12) len(4) dest_off(4) shard(1).
pub(crate) const GATHER_SEG: u32 = REPLICA_COORD + 9;

/// Reconstruction directive, fixed part: k(1) m(1) chunk_len(4) ncopies(1).
pub(crate) const GRH_REC_FIXED: u32 = 7;

/// Per reconstruction copy range: chunk(1) chunk_off(4) len(4) dest_off(4).
pub(crate) const GATHER_COPY: u32 = 13;

/// Maximum data bytes in a packet that carries only the RDMA header.
pub const fn max_payload_plain() -> u32 {
    MTU - RDMA_HEADER
}

/// In-NIC write descriptor size (§III-B: "each entry is a write descriptor
/// that takes 77 bytes").
pub const WRITE_DESCRIPTOR: u32 = 77;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_fits_single_packet_for_max_replication() {
        // Paper assumption (§III-A): DFS + WRH headers fit one MTU even for
        // the largest configurations evaluated (k = 8 replicas).
        let wrh = WRH_FIXED + WRH_REPL_FIXED + 8 * REPLICA_COORD;
        assert!(RDMA_HEADER + DFS_HEADER + wrh < MTU);
    }

    #[test]
    fn plain_payload_capacity() {
        assert_eq!(max_payload_plain(), 1978);
    }
}
