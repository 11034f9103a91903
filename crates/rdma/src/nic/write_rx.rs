//! Ingress reassembly of raw writes and SENDs on a NIC without PsPIN (or
//! for SENDs, on any NIC): a raw write lands packet by packet in host
//! memory, a SEND collects in a receive buffer until it is whole.

use bytes::Bytes;
use nadfs_simnet::{Ctx, IdMap, NodeId, Time};
use nadfs_wire::{
    send_payload_caps, AckPkt, DfsHeader, MsgId, Resiliency, RpcBody, SendPkt, Status, WritePkt,
    WriteReqHeader,
};

use super::{NicCore, NicEvent};
use crate::{chains, ec_engine};

struct RawWriteState {
    src: NodeId,
    dfs: Option<DfsHeader>,
    wrh: WriteReqHeader,
    pkts_seen: u32,
    total: u32,
    bytes: u32,
    flush: Time,
    chain_write: bool,
}

struct SendState {
    src: NodeId,
    body: RpcBody,
    data: Vec<u8>,
    pkts_seen: u32,
    total: u32,
}

/// The messages a NIC is reassembling.
#[derive(Default)]
pub(super) struct Reassembly {
    raw_writes: IdMap<MsgId, RawWriteState>,
    sends: IdMap<MsgId, SendState>,
}

impl Reassembly {
    pub(super) fn open(&self) -> usize {
        self.raw_writes.len() + self.sends.len()
    }
}

impl NicCore {
    /// Land one packet of a raw write. The frame is consumed in place:
    /// its header and payload are taken out of the arriving box.
    pub(super) fn on_write_pkt(&mut self, ctx: &mut Ctx<'_>, src: NodeId, w: &mut WritePkt) {
        let now = ctx.now();
        if w.is_first() {
            // A first packet without its WRH is malformed; one naming a
            // range past the address space or outside every MR, or asking
            // for a resiliency this NIC has no engine for, is refused.
            // Either way nothing of the message is kept and its later
            // packets drop below.
            let acceptable = |h: &WriteReqHeader| {
                let served = match h.resiliency {
                    Resiliency::None => true,
                    Resiliency::Replicate { .. } => false,
                    Resiliency::ErasureCode(_) => self.ec.is_some(),
                };
                served && h.in_range() && self.mr_ok(h.target_addr, h.len as u64)
            };
            let Some(wrh) = w.wrh.take().filter(acceptable) else {
                let greq = w.dfs.map(|d| d.greq_id);
                self.send_ack(ctx, src, AckPkt::new(w.msg, greq, Status::Rejected));
                return;
            };
            let chain_write = self.chains.matches(&wrh);
            self.rx.raw_writes.insert(
                w.msg,
                RawWriteState {
                    src,
                    dfs: w.dfs,
                    wrh,
                    pkts_seen: 0,
                    total: w.total_pkts,
                    bytes: 0,
                    flush: Time::ZERO,
                    chain_write,
                },
            );
        }
        let Some(st) = self.rx.raw_writes.get_mut(&w.msg) else {
            return; // message was rejected at its first packet
        };
        if w.offset as u64 + w.data.len() as u64 > st.wrh.len as u64 {
            return; // bytes past the header's length
        }
        let addr = st.wrh.target_addr + w.offset as u64;
        let done = self.dma.borrow_mut().land(now, addr, &w.data);
        st.flush = st.flush.max(done);
        st.pkts_seen += 1;
        st.bytes += w.data.len() as u32;
        // Payload is durable; if this was the last live reference to the
        // message's backing buffer, recycle it into the NIC's ring.
        if let Ok(v) = std::mem::take(&mut w.data).try_unwrap() {
            self.pool.borrow_mut().put(v);
        }
        let complete = st.pkts_seen == st.total;
        let chain_write = st.chain_write;
        if chain_write {
            // Chains forward chunk-by-chunk as data lands (pipelining).
            let wrh = st.wrh.clone();
            let bytes = st.bytes;
            let flush = st.flush;
            if complete {
                self.rx.raw_writes.remove(&w.msg);
            }
            chains::on_progress(self, ctx, &wrh, bytes, flush);
            return;
        }
        if complete {
            let st = self.rx.raw_writes.remove(&w.msg).expect("just updated");
            if matches!(st.wrh.resiliency, Resiliency::ErasureCode(_)) {
                ec_engine::on_ec_write_landed(self, ctx, src, w.msg, st.dfs, st.wrh, st.flush);
                return;
            }
            // Plain raw write: ack the initiator once durable.
            let ack = AckPkt::new(w.msg, st.dfs.map(|d| d.greq_id), Status::Ok);
            self.defer(ctx, st.flush, NicEvent::Ack { dst: st.src, ack });
        }
    }

    /// Land one packet of a SEND; returns the message (its sender, body
    /// and data) once it is whole.
    pub(super) fn on_send_pkt(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        s: &mut SendPkt,
    ) -> Option<(NodeId, RpcBody, Bytes)> {
        if s.is_first() {
            // A first packet without a body is malformed: refuse the
            // message; its later packets find no state and drop below.
            let Some(body) = s.rpc.take() else {
                self.send_ack(ctx, src, AckPkt::new(s.msg, None, Status::Rejected));
                return None;
            };
            // Reassembly buffer from the recycled ring: capacity for the
            // whole message up front (per-packet payload is MTU-bounded),
            // so the extends below never reallocate and the SEND path
            // stays off the allocator.
            let cap = if s.total_pkts <= 1 {
                s.data.len()
            } else {
                s.total_pkts as usize * send_payload_caps(&body).1 as usize
            };
            let data = self.pool.borrow_mut().get_spare(cap);
            self.rx.sends.insert(
                s.msg,
                SendState {
                    src,
                    body,
                    data,
                    pkts_seen: 0,
                    total: s.total_pkts,
                },
            );
        }
        // (No state: the first packet was refused, or never arrived.)
        let st = self.rx.sends.get_mut(&s.msg)?;
        // Landing in the receive buffer costs a DMA write.
        let now = ctx.now();
        self.dma
            .borrow_mut()
            .land(now, 0xFEED_0000 + s.offset as u64, &s.data);
        st.data.extend_from_slice(&s.data);
        st.pkts_seen += 1;
        if st.pkts_seen < st.total {
            return None;
        }
        let st = self.rx.sends.remove(&s.msg).expect("just updated");
        Some((st.src, st.body, Bytes::from(st.data)))
    }
}
