//! HyperLoop-style triggered WQE chains (Kim et al., SIGCOMM'18; paper §V,
//! "RDMA-HyperLoop").
//!
//! A client remotely writes pre-posted WQE updates into each storage NIC
//! ([`nadfs_wire::HlConfigPkt`]), arranging the replicas in a ring. As write
//! data lands in a node's host memory, the NIC — without CPU involvement —
//! DMA-reads each complete chunk back out and forwards it to the next ring
//! node. The ring tail acknowledges the client.
//!
//! Costs modeled per chunk: WQE trigger latency, host-memory DMA read
//! (slower than DMA write — the store-and-forward penalty), and egress
//! serialization. Configuration cost is on the wire: the config frame grows
//! with the WQE count (16 B per chunk).

use std::collections::BTreeMap;

use nadfs_simnet::{Ctx, Dur, NodeId, Time};
use nadfs_wire::{AckPkt, HlConfigPkt, MsgId, Resiliency, Status, WriteReqHeader};

use crate::nic::{NicCore, NicEvent};

/// Per-chunk WQE trigger latency (doorbell + WQE fetch on the NIC).
pub(crate) const WQE_TRIGGER: Dur = Dur::from_ns(150);

pub(crate) struct ChainState {
    cfg: HlConfigPkt,
    /// Who configured the chain (the client to ack).
    client: NodeId,
    /// Contiguously landed bytes (in-order delivery).
    landed: u32,
    /// Next chunk index to forward.
    next_fwd: u32,
    /// A forward DMA read is in flight.
    busy: bool,
    flush: Time,
}

/// All chains installed on one NIC, keyed by the base of their target
/// address range. Ordered: which chain an address hits is a range lookup,
/// the same in every process.
#[derive(Default)]
pub(crate) struct Chains {
    by_addr: BTreeMap<u64, ChainState>,
}

impl Chains {
    pub(crate) fn install(&mut self, cfg: HlConfigPkt, client: NodeId) {
        self.by_addr.insert(
            cfg.local_addr,
            ChainState {
                cfg,
                client,
                landed: 0,
                next_fwd: 0,
                busy: false,
                flush: Time::ZERO,
            },
        );
    }

    /// Does an incoming write belong to an installed chain?
    pub(crate) fn matches(&self, wrh: &WriteReqHeader) -> bool {
        matches!(wrh.resiliency, Resiliency::None) && self.key_for(wrh).is_some()
    }

    /// Base of the chain whose range holds the write's target: the
    /// nearest base at or below it, if the target is within its length.
    fn key_for(&self, wrh: &WriteReqHeader) -> Option<u64> {
        let (&base, st) = self.by_addr.range(..=wrh.target_addr).next_back()?;
        (wrh.target_addr < base + st.cfg.total_len.max(1) as u64).then_some(base)
    }
}

/// Progress notification: `bytes_landed` bytes of the chain's data are now
/// contiguously in host memory (flush horizon `flush`). Called by the NIC
/// as write packets land.
pub(crate) fn on_progress(
    core: &mut NicCore,
    ctx: &mut Ctx<'_>,
    wrh: &WriteReqHeader,
    msg_bytes_landed: u32,
    flush: Time,
) {
    let Some(key) = core.chains.key_for(wrh) else {
        return;
    };
    {
        let st = core.chains.by_addr.get_mut(&key).expect("chain");
        // Messages land in order; the write's offset within the chain plus
        // its landed bytes gives contiguous progress.
        let base = (wrh.target_addr - key) as u32;
        st.landed = st.landed.max(base + msg_bytes_landed);
        st.flush = st.flush.max(flush);
    }
    try_forward(core, ctx, key);
    try_complete(core, ctx, key);
}

fn try_forward(core: &mut NicCore, ctx: &mut Ctx<'_>, key: u64) {
    let now = ctx.now();
    let (chunk_idx, read_addr, read_len) = {
        let Some(st) = core.chains.by_addr.get_mut(&key) else {
            return;
        };
        if st.cfg.next.is_none() || st.busy {
            return;
        }
        let chunk = st.cfg.chunk.max(1);
        let total = st.cfg.total_len;
        let start = st.next_fwd * chunk;
        if start >= total {
            return; // everything forwarded
        }
        let len = chunk.min(total - start);
        // Forward only complete chunks (or the final partial one).
        if st.landed < start + len {
            return;
        }
        st.busy = true;
        (st.next_fwd, key + start as u64, len)
    };
    // WQE trigger + DMA read of the chunk from host memory.
    let trigger_done = now + WQE_TRIGGER;
    let (_, ready) = core
        .dma
        .borrow_mut()
        .read(trigger_done, read_addr, read_len as usize);
    let ev = NicEvent::ChainFwdReady {
        addr: key,
        chunk: chunk_idx,
    };
    ctx.schedule_self(ready.since(now), Box::new(ev));
}

fn try_complete(core: &mut NicCore, ctx: &mut Ctx<'_>, key: u64) {
    let (done, flush) = {
        let Some(st) = core.chains.by_addr.get(&key) else {
            return;
        };
        let all_landed = st.landed >= st.cfg.total_len;
        let chunk = st.cfg.chunk.max(1);
        let n_chunks = st.cfg.total_len.div_ceil(chunk).max(1);
        let all_forwarded = st.cfg.next.is_none() || st.next_fwd >= n_chunks;
        (all_landed && all_forwarded && !st.busy, st.flush)
    };
    if done {
        let delay = flush.since(ctx.now()).max(Dur::ZERO);
        ctx.schedule_self(delay, Box::new(NicEvent::ChainComplete { addr: key }));
    }
}

/// The DMA read for `chunk` of the chain at `addr` completed: emit the
/// forward write and continue.
pub(crate) fn fwd_ready(core: &mut NicCore, ctx: &mut Ctx<'_>, addr: u64, chunk: u32) {
    let (dst, wrh, data) = {
        let Some(st) = core.chains.by_addr.get_mut(&addr) else {
            return;
        };
        let next = st.cfg.next.expect("forwarding chain has next");
        let chunk_sz = st.cfg.chunk.max(1);
        let start = chunk * chunk_sz;
        let len = chunk_sz.min(st.cfg.total_len - start);
        st.next_fwd = chunk + 1;
        st.busy = false;
        // The chunk as it landed: a slice of the buffer the previous hop
        // sent, so every hop of the chain forwards the same bytes.
        let data = core
            .mem
            .borrow()
            .read_bytes(addr + start as u64, len as usize);
        let wrh = WriteReqHeader {
            target_addr: next.addr + start as u64,
            len,
            resiliency: Resiliency::None,
        };
        (next.node as NodeId, wrh, data)
    };
    core.send_write(ctx, dst, None, wrh, data);
    try_forward(core, ctx, addr);
    try_complete(core, ctx, addr);
}

/// All of the chain at `addr` landed and flushed: retire it, and ack the
/// client if configured.
pub(crate) fn complete(core: &mut NicCore, ctx: &mut Ctx<'_>, addr: u64) {
    let Some(st) = core.chains.by_addr.remove(&addr) else {
        return;
    };
    if st.cfg.ack_client {
        let msg = MsgId::new(core.node() as u32, st.cfg.greq_id);
        let ack = AckPkt::new(msg, Some(st.cfg.greq_id), Status::Ok);
        core.send_ack(ctx, st.client, ack);
    }
}
