//! The interface between the NIC and the node software running above it.
//!
//! Each simulated node is one [`crate::nic::Nic`] component that owns the
//! hardware models (ports, DMA, optional PsPIN) and a boxed [`NicApp`] — the
//! node's software (a DFS client driver or the storage-node service from
//! `nadfs-core`). The NIC calls back into the app at hardware completion
//! points; the app models its own CPU costs via [`nadfs_host::Cpu`].

use bytes::Bytes;
use nadfs_pspin::HostEvent;
use nadfs_simnet::{Ctx, NodeId};
use nadfs_wire::{AckPkt, MsgId, RpcBody};

use crate::nic::NicCore;

/// Node software above a NIC.
///
/// All methods have empty defaults so apps implement only what they use.
#[allow(unused_variables)]
pub trait NicApp {
    /// A complete RPC (SEND) message arrived.
    fn on_rpc(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        msg: MsgId,
        body: RpcBody,
        data: Bytes,
    ) {
    }

    /// An ACK/NACK frame arrived.
    fn on_ack(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, src: NodeId, ack: AckPkt) {}

    /// A one-sided read issued by this node completed (data in host memory).
    fn on_read_done(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, token: u64) {}

    /// A PsPIN handler passed the host `ev` (§III-C event queues).
    fn on_host_notify(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, ev: HostEvent) {}

    /// A timer set with [`NicCore::set_timer`] fired.
    fn on_timer(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, tag: u64) {}
}
