//! Network frames: everything that travels on the simulated wire.
//!
//! A *message* (e.g. one RDMA write) is a stream of frames sharing a
//! [`MsgId`]; sPIN handler scheduling and RDMA reassembly both key on it.
//! Frame layouts follow Fig 3 of the paper: the first packet of a request
//! carries the DFS header and the WRH/RRH, subsequent packets only the
//! transport header plus data.

use bytes::Bytes;
use nadfs_simnet::CreditGrant;

use crate::headers::{DfsHeader, GatherReadHeader, ReadReqHeader, ReplicaCoord, WriteReqHeader};
use crate::sizes;

/// Unique message identity: issuing node plus a per-node sequence number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MsgId {
    pub node: u32,
    pub seq: u64,
}

impl MsgId {
    pub fn new(node: u32, seq: u64) -> MsgId {
        MsgId { node, seq }
    }
}

/// Write completion status reported in ACK frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    Ok,
    AuthFailed,
    /// NIC descriptor memory exhausted; client should retry later (§III-B).
    Busy,
    /// Request malformed or addressed outside a registered region.
    Rejected,
}

/// One packet of an RDMA write message (raw, sPIN-processed, replication
/// forward, or EC intermediate parity — distinguished by the WRH contents).
#[derive(Clone, Debug)]
pub struct WritePkt {
    pub msg: MsgId,
    pub pkt_idx: u32,
    pub total_pkts: u32,
    /// Present on the first packet only.
    pub dfs: Option<DfsHeader>,
    /// Present on the first packet only.
    pub wrh: Option<WriteReqHeader>,
    /// Byte offset of `data` within the whole write payload.
    pub offset: u32,
    pub data: Bytes,
}

impl WritePkt {
    #[inline]
    pub fn is_first(&self) -> bool {
        self.pkt_idx == 0
    }
    #[inline]
    pub fn is_last(&self) -> bool {
        self.pkt_idx + 1 == self.total_pkts
    }
}

/// RDMA read request (single packet).
#[derive(Clone, Debug)]
pub struct ReadReqPkt {
    pub msg: MsgId,
    /// DFS header when the read is policy-checked; `None` for pure RDMA
    /// reads (e.g. the storage node fetching data from a client in the
    /// RPC+RDMA write protocol).
    pub dfs: Option<DfsHeader>,
    pub rrh: ReadReqHeader,
}

/// Offloaded gather read request (single packet): always policy-checked —
/// the storage NIC validates the capability once for the whole flow.
#[derive(Clone, Debug)]
pub struct GatherReqPkt {
    pub msg: MsgId,
    pub dfs: DfsHeader,
    pub grh: GatherReadHeader,
}

/// One packet of an RDMA read response.
#[derive(Clone, Debug)]
pub struct ReadRespPkt {
    /// Matches the originating request's `msg`.
    pub msg: MsgId,
    pub pkt_idx: u32,
    pub total_pkts: u32,
    pub offset: u32,
    pub data: Bytes,
}

/// RPC bodies carried by the first packet of a SEND message.
#[derive(Clone, Debug)]
pub enum RpcBody {
    /// RPC write: header now, data inline in this message (RPC protocol) or
    /// to be fetched with an RDMA read (RPC+RDMA protocol).
    WriteReq {
        dfs: DfsHeader,
        wrh: WriteReqHeader,
        /// True when the payload is inline in this SEND message.
        inline_data: bool,
        /// Client-side source address for RDMA-read fetch (RPC+RDMA).
        src_addr: u64,
        /// Offset of this chunk within the whole write (pipelined CPU
        /// forwarding splits writes into chunk-sized RPCs).
        chunk_off: u32,
        /// Total length of the whole write this chunk belongs to.
        full_len: u32,
    },
    ReadReq {
        dfs: DfsHeader,
        rrh: ReadReqHeader,
    },
}

impl RpcBody {
    /// Serialized body size for wire accounting.
    pub fn wire_size(&self) -> u32 {
        match self {
            RpcBody::WriteReq { wrh, .. } => DfsHeader::wire_size() + wrh.wire_size() + 17,
            RpcBody::ReadReq { .. } => DfsHeader::wire_size() + ReadReqHeader::wire_size(),
        }
    }
}

/// One packet of a two-sided SEND message (RPC transport).
#[derive(Clone, Debug)]
pub struct SendPkt {
    pub msg: MsgId,
    pub pkt_idx: u32,
    pub total_pkts: u32,
    /// Present on the first packet only.
    pub rpc: Option<RpcBody>,
    pub offset: u32,
    pub data: Bytes,
}

impl SendPkt {
    #[inline]
    pub fn is_first(&self) -> bool {
        self.pkt_idx == 0
    }
}

/// Acknowledgement (or negative acknowledgement) frame.
#[derive(Clone, Copy, Debug)]
pub struct AckPkt {
    /// The message being acknowledged.
    pub msg: MsgId,
    /// DFS-level request id when the ack closes a DFS request.
    pub greq_id: Option<u64>,
    pub status: Status,
    /// Piggybacked recv-credit return to the ack's destination (two u16
    /// counts riding the AETH reserved/MSN bytes already charged in
    /// the ack frame's size). Stamped by the sending NIC's credit layer;
    /// construction sites leave it zero.
    pub credit: CreditGrant,
}

impl AckPkt {
    /// An ack with no credit on it yet (the sending NIC stamps that).
    pub fn new(msg: MsgId, greq_id: Option<u64>, status: Status) -> AckPkt {
        AckPkt {
            msg,
            greq_id,
            status,
            credit: CreditGrant::ZERO,
        }
    }
}

/// HyperLoop configuration: the client remotely writes pre-posted WQE
/// updates into a storage NIC (§V, RDMA-HyperLoop; Kim et al. 2018).
/// One frame configures the forwarding chain for one write on one node.
#[derive(Clone, Debug)]
pub struct HlConfigPkt {
    pub msg: MsgId,
    pub greq_id: u64,
    /// Where forwarded data lands locally.
    pub local_addr: u64,
    pub total_len: u32,
    /// Forwarding granularity (chunk size) of the pre-posted WRITE WQEs.
    pub chunk: u32,
    /// Next hop in the ring, if any.
    pub next: Option<ReplicaCoord>,
    /// Whether this node must acknowledge the client when the whole write
    /// has landed (HyperLoop completes at the ring tail).
    pub ack_client: bool,
    /// WQE update fragment index (large writes need several MTU-sized
    /// configuration writes; the chain arms on the last fragment).
    pub frag: u16,
    pub total_frags: u16,
}

impl HlConfigPkt {
    pub(crate) fn num_chunks(&self) -> u32 {
        if self.total_len == 0 {
            1
        } else {
            self.total_len.div_ceil(self.chunk.max(1))
        }
    }

    /// Total configuration bytes: 64 B of group/doorbell state plus 16 B
    /// per WQE update.
    pub(crate) fn config_bytes(&self) -> u32 {
        64 + 16 * self.num_chunks()
    }

    /// Fragments needed to carry the configuration within the MTU.
    pub fn frags_needed(&self) -> u16 {
        let cap = sizes::MTU - sizes::RDMA_HEADER;
        self.config_bytes().div_ceil(cap).max(1) as u16
    }

    /// Bytes carried by fragment `frag`.
    pub(crate) fn frag_bytes(&self) -> u32 {
        let cap = sizes::MTU - sizes::RDMA_HEADER;
        let total = self.config_bytes();
        let start = self.frag as u32 * cap;
        (total - start.min(total)).min(cap)
    }

    pub fn is_last_frag(&self) -> bool {
        self.frag + 1 == self.total_frags
    }
}

/// Everything that can appear on the wire.
#[derive(Clone, Debug)]
pub enum Frame {
    Write(WritePkt),
    ReadReq(ReadReqPkt),
    GatherReq(GatherReqPkt),
    ReadResp(ReadRespPkt),
    Send(SendPkt),
    Ack(AckPkt),
    HlConfig(HlConfigPkt),
}

impl Frame {
    /// Message id shared by all packets of the same message.
    pub fn msg(&self) -> MsgId {
        match self {
            Frame::Write(p) => p.msg,
            Frame::ReadReq(p) => p.msg,
            Frame::GatherReq(p) => p.msg,
            Frame::ReadResp(p) => p.msg,
            Frame::Send(p) => p.msg,
            Frame::Ack(p) => p.msg,
            Frame::HlConfig(p) => p.msg,
        }
    }
}

impl nadfs_simnet::Payload for Frame {
    fn wire_bytes(&self) -> u32 {
        let sz = match self {
            Frame::Write(p) => {
                sizes::RDMA_HEADER
                    + p.dfs.map_or(0, |_| DfsHeader::wire_size())
                    + p.wrh.as_ref().map_or(0, |w| w.wire_size())
                    + p.data.len() as u32
            }
            Frame::ReadReq(p) => {
                sizes::RDMA_HEADER
                    + p.dfs.map_or(0, |_| DfsHeader::wire_size())
                    + ReadReqHeader::wire_size()
            }
            Frame::GatherReq(p) => sizes::RDMA_HEADER + DfsHeader::wire_size() + p.grh.wire_size(),
            Frame::ReadResp(p) => sizes::RDMA_HEADER + p.data.len() as u32,
            Frame::Send(p) => {
                sizes::RDMA_HEADER
                    + sizes::RPC_HEADER
                    + p.rpc.as_ref().map_or(0, |b| b.wire_size())
                    + p.data.len() as u32
            }
            Frame::Ack(_) => sizes::ACK_FRAME,
            Frame::HlConfig(p) => sizes::RDMA_HEADER + p.frag_bytes(),
        };
        debug_assert!(sz <= sizes::MTU, "frame exceeds MTU: {sz} ({self:?})");
        sz
    }

    fn vacate(&mut self) {
        if !matches!(self, Frame::Ack(_)) {
            *self = Frame::Ack(AckPkt::new(MsgId::new(0, 0), None, Status::Ok));
        }
    }
}

/// A frame in the box it travels in: built once at the sender, queued and
/// re-scheduled by pointer, read in place at the receiver.
pub type Pkt = Box<nadfs_simnet::PacketEvent<Frame>>;

/// Split a payload of `total` bytes into per-packet `(offset, len)` ranges,
/// where the first packet can carry `first_cap` bytes and subsequent packets
/// `rest_cap` bytes. A zero-length payload still produces one (empty) packet
/// so every message has a header packet.
pub fn split_payload(total: u32, first_cap: u32, rest_cap: u32) -> Vec<(u32, u32)> {
    assert!(rest_cap > 0, "rest capacity must be positive");
    let mut out = Vec::new();
    let first = total.min(first_cap);
    out.push((0, first));
    let mut off = first;
    while off < total {
        let len = (total - off).min(rest_cap);
        out.push((off, len));
        off += len;
    }
    out
}

/// Per-packet payload capacity of a write message given its first-packet
/// headers.
pub fn write_payload_caps(wrh: &WriteReqHeader) -> (u32, u32) {
    let first = sizes::MTU - sizes::RDMA_HEADER - DfsHeader::wire_size() - wrh.wire_size();
    (first, sizes::max_payload_plain())
}

/// Per-packet payload capacity of a SEND message whose first packet
/// carries `body`: the first packet's, then every later one's.
pub fn send_payload_caps(body: &RpcBody) -> (u32, u32) {
    let rest = sizes::MTU - sizes::RDMA_HEADER - sizes::RPC_HEADER;
    (rest - body.wire_size(), rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::{Capability, Rights};
    use crate::headers::{DfsOp, Resiliency};
    use crate::siphash::MacKey;
    use nadfs_simnet::Payload;

    fn dfs_header() -> DfsHeader {
        DfsHeader {
            tenant: 0,
            greq_id: 1,
            op: DfsOp::Write,
            client: 2,
            capability: Capability::issue(&MacKey::from_seed(0), 2, 3, Rights::RW, 100, 0),
        }
    }

    fn wrh() -> WriteReqHeader {
        WriteReqHeader {
            target_addr: 0x1000,
            len: 4096,
            resiliency: Resiliency::None,
        }
    }

    #[test]
    fn first_packet_carries_headers_in_size() {
        let first = Frame::Write(WritePkt {
            msg: MsgId::new(0, 0),
            pkt_idx: 0,
            total_pkts: 2,
            dfs: Some(dfs_header()),
            wrh: Some(wrh()),
            offset: 0,
            data: Bytes::from(vec![0u8; 100]),
        });
        let mid = Frame::Write(WritePkt {
            msg: MsgId::new(0, 0),
            pkt_idx: 1,
            total_pkts: 2,
            dfs: None,
            wrh: None,
            offset: 100,
            data: Bytes::from(vec![0u8; 100]),
        });
        assert_eq!(
            first.wire_bytes(),
            sizes::RDMA_HEADER + sizes::DFS_HEADER + sizes::WRH_FIXED + 100
        );
        assert_eq!(mid.wire_bytes(), sizes::RDMA_HEADER + 100);
    }

    #[test]
    fn split_payload_covers_everything_once() {
        let parts = split_payload(10_000, 1900, 1978);
        assert_eq!(parts[0], (0, 1900));
        let total: u32 = parts.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 10_000);
        // Contiguity.
        let mut expect = 0;
        for &(off, len) in &parts {
            assert_eq!(off, expect);
            expect = off + len;
        }
    }

    #[test]
    fn split_payload_zero_length_has_header_packet() {
        assert_eq!(split_payload(0, 1900, 1978), vec![(0, 0)]);
    }

    #[test]
    fn split_payload_exact_fit() {
        let parts = split_payload(1900 + 1978 * 2, 1900, 1978);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[2], (1900 + 1978, 1978));
    }

    #[test]
    fn packets_never_exceed_mtu() {
        let w = wrh();
        let (first, rest) = write_payload_caps(&w);
        for &(off, len) in &split_payload(1 << 20, first, rest) {
            let pkt = Frame::Write(WritePkt {
                msg: MsgId::new(0, 0),
                pkt_idx: if off == 0 { 0 } else { 1 },
                total_pkts: 2,
                dfs: (off == 0).then(dfs_header),
                wrh: (off == 0).then(|| w.clone()),
                offset: off,
                data: Bytes::from(vec![0u8; len as usize]),
            });
            assert!(pkt.wire_bytes() <= sizes::MTU);
        }
        // A SEND's full packets, the first and a later one, fill it exactly.
        let rrh = ReadReqHeader { addr: 0, len: 1 };
        let body = RpcBody::ReadReq {
            dfs: dfs_header(),
            rrh,
        };
        let (first, rest) = send_payload_caps(&body);
        for (rpc, len) in [(Some(body), first), (None, rest)] {
            let (msg, data) = (MsgId::new(0, 0), Bytes::from(vec![0u8; len as usize]));
            let (pkt_idx, total_pkts, offset) = (0, 2, 0);
            let send = SendPkt {
                msg,
                pkt_idx,
                total_pkts,
                rpc,
                offset,
                data,
            };
            assert_eq!(Frame::Send(send).wire_bytes(), sizes::MTU);
        }
    }

    #[test]
    fn hyperloop_config_size_scales_with_chunks() {
        let mk = |total, chunk| HlConfigPkt {
            msg: MsgId::new(0, 0),
            greq_id: 0,
            local_addr: 0,
            total_len: total,
            chunk,
            next: None,
            ack_client: true,
            frag: 0,
            total_frags: 1,
        };
        assert!(mk(1 << 20, 64 << 10).config_bytes() > mk(1 << 20, 256 << 10).config_bytes());
        assert_eq!(
            Frame::HlConfig(mk(0, 1024)).wire_bytes(),
            sizes::RDMA_HEADER + 64 + 16
        );
        // Many chunks: multiple MTU-bounded fragments, none oversized.
        let big = mk(1 << 20, 8 << 10);
        assert!(big.frags_needed() > 1);
        for frag in 0..big.frags_needed() {
            let mut f = big.clone();
            f.frag = frag;
            f.total_frags = big.frags_needed();
            assert!(Frame::HlConfig(f).wire_bytes() <= sizes::MTU);
        }
    }

    #[test]
    fn ack_is_fixed_size() {
        let a = Frame::Ack(AckPkt::new(MsgId::new(1, 2), Some(7), Status::Ok));
        assert_eq!(a.wire_bytes(), sizes::ACK_FRAME);
    }
}
