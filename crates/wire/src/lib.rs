//! # nadfs-wire
//!
//! Wire formats for the network-accelerated DFS: transport/DFS headers and
//! packet layouts following Fig 3 of the paper, capability tickets with a
//! real keyed MAC (SipHash-2-4 under a [`MacKey`]), the unkeyed payload
//! checksum (XXH64, [`payload_checksum`]), byte codecs pinning the layouts
//! ([`codec`], [`sizes`]), and the [`Frame`] type every simulated packet
//! carries.

#![warn(unreachable_pub)]

mod capability;
mod checksum;
pub mod codec;
mod frame;
mod headers;
mod siphash;
pub mod sizes;

pub use capability::{AuthError, Capability, Rights};
pub use checksum::payload_checksum;
pub use frame::{
    send_payload_caps, split_payload, write_payload_caps, AckPkt, Frame, GatherReqPkt, HlConfigPkt,
    MsgId, Pkt, ReadReqPkt, ReadRespPkt, RpcBody, SendPkt, Status, WritePkt,
};
pub use headers::{
    BcastStrategy, DfsHeader, DfsOp, EcInfo, EcRole, GatherCopy, GatherReadHeader,
    GatherReconstruct, GatherSegment, ReadReqHeader, ReplicaCoord, Resiliency, RsScheme,
    WriteReqHeader, MAX_GATHER_SEGS,
};
pub use nadfs_simnet::CreditGrant;
pub use siphash::MacKey;
