//! # nadfs-wire
//!
//! Wire formats for the network-accelerated DFS: transport/DFS headers and
//! packet layouts following Fig 3 of the paper, capability tickets with a
//! real keyed MAC (SipHash-2-4, implemented in [`siphash`]), the unkeyed
//! payload checksum (XXH64, implemented in [`checksum`]), byte codecs
//! pinning the layouts, and the [`frame::Frame`] type every simulated packet
//! carries.

pub mod capability;
pub mod checksum;
pub mod codec;
pub mod frame;
pub mod headers;
pub mod siphash;
pub mod sizes;

pub use capability::{AuthError, Capability, Rights};
pub use checksum::payload_checksum;
pub use frame::{
    split_payload, write_payload_caps, AckPkt, Frame, GatherReqPkt, HlConfigPkt, MsgId, Pkt,
    ReadReqPkt, ReadRespPkt, RpcBody, SendPkt, Status, WritePkt,
};
pub use headers::{
    bcast_children, bcast_depth, BcastStrategy, DfsHeader, DfsOp, EcInfo, EcRole, GatherCopy,
    GatherReadHeader, GatherReconstruct, GatherSegment, ReadReqHeader, ReplicaCoord, Resiliency,
    RsScheme, WriteReqHeader, MAX_GATHER_SEGS,
};
pub use nadfs_simnet::CreditGrant;
pub use siphash::{siphash24, siphash24_words, MacKey};
