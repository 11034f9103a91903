//! Egress and WR flow control: the packetizer, the egress queue, the WRs
//! parked for credit, and the acks that return credit.
//!
//! Requester-side work requests (writes, SENDs, read requests, chain
//! configurations) post under the credit discipline of
//! [`FlowController`] (SF-Zhou): bounded per-class send budgets per peer,
//! recv-credit returns piggybacked on acks. Responder-side traffic (acks,
//! response streams) bypasses it through [`NicCore::send_pkts`].

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use nadfs_simnet::{Ctx, Dur, NodeId, WrClass};
use nadfs_wire::{
    send_payload_caps, split_payload, write_payload_caps, AckPkt, DfsHeader, Frame, HlConfigPkt,
    MsgId, Pkt, RpcBody, SendPkt, Status, WritePkt, WriteReqHeader,
};

use super::{NicCore, EGRESS_WAKE};

/// Message id reserved for standalone credit-return acks: pure flow-control
/// frames carrying a [`nadfs_simnet::CreditGrant`] and no app-visible
/// completion. The receiving NIC applies the grant and swallows the frame
/// before `on_ack`.
pub(super) const CREDIT_MSG: MsgId = MsgId {
    node: u32::MAX,
    seq: u64::MAX,
};

/// What waits to leave the NIC.
#[derive(Default)]
pub(super) struct Egress {
    /// Egress queue. The marker on a WR's last packet names the class
    /// whose local credit returns when it leaves the NIC.
    out_q: VecDeque<(Pkt, Option<WrClass>)>,
    /// WRs waiting for credit, per peer per WR class (FIFO within class).
    /// Ordered by peer: released credit is handed out in peer order, so
    /// the egress order it produces is the same in every run.
    pending_wrs: BTreeMap<NodeId, [VecDeque<Vec<Pkt>>; 4]>,
}

impl NicCore {
    /// Cut one message to `dst` into `n` frames, frame `i` of them built
    /// by `frame(msg, i, n)`, and box each for egress. Allocates the
    /// message id `msg`.
    pub(super) fn packetize(
        &mut self,
        dst: NodeId,
        n: u32,
        mut frame: impl FnMut(MsgId, u32, u32) -> Frame,
    ) -> (MsgId, Vec<Pkt>) {
        let msg = MsgId::new(self.port.node as u32, self.next_seq);
        self.next_seq += 1;
        let pkts = (0..n).map(|i| self.pkt(dst, frame(msg, i, n))).collect();
        (msg, pkts)
    }

    /// Queue packets for transmission, bypassing WR credit accounting
    /// (egress link flow control still applies). Responder-side traffic —
    /// acks, read-response streams, gather flows — goes through here: it
    /// is modelled as hardware-generated, like AETH acks, and must never
    /// block on requester credit or the credit cycle would deadlock. The
    /// TriEC client's interleaved chunk writes (§VI-B-1) also enter here:
    /// the interleave is already shaped by the caller.
    pub fn send_pkts(&mut self, ctx: &mut Ctx<'_>, pkts: impl IntoIterator<Item = Pkt>) {
        let out_q = &mut self.egress.out_q;
        out_q.extend(pkts.into_iter().map(|p| (p, None)));
        self.pump(ctx);
    }

    /// Post one work request (a message's packets, all to `dst`) under
    /// the credit discipline: if local (and, for two-sided classes,
    /// remote) credit is available the packets enter the egress queue
    /// now; otherwise the WR parks in the per-peer pending queue and is
    /// released when credit returns.
    pub(super) fn post_wr(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        pkts: Vec<Pkt>,
        class: WrClass,
    ) {
        if self.flow.try_acquire(dst, class) {
            enqueue(&mut self.egress.out_q, pkts, class);
            self.pump(ctx);
        } else {
            self.flow.note_queued();
            let pending = self.egress.pending_wrs.entry(dst).or_default();
            pending[class.index()].push_back(pkts);
        }
    }

    /// Release pending WRs that now have credit, appending their packets
    /// to the egress queue (the caller pumps). FIFO within each peer/class.
    pub(super) fn release_pending(&mut self) {
        let Egress { out_q, pending_wrs } = &mut self.egress;
        for (&peer, queues) in pending_wrs.iter_mut() {
            for class in WrClass::ALL {
                let queue = &mut queues[class.index()];
                while !queue.is_empty() && self.flow.can_post(peer, class) {
                    assert!(
                        self.flow.try_acquire(peer, class),
                        "can_post implies acquire"
                    );
                    self.flow.note_released();
                    enqueue(out_q, queue.pop_front().expect("nonempty"), class);
                }
            }
        }
    }

    /// A read that is over (landed or cancelled) hands back the Read
    /// credit its request holds toward `peer`, which may release queued
    /// reads (the caller pumps). A request still parked for credit when
    /// its read is cancelled has none yet: what is handed back here is
    /// the credit it takes when it is released — at once, if it is first
    /// in line — so the books balance.
    pub(super) fn return_read_credit(&mut self, peer: NodeId) {
        self.flow.on_local_complete(peer, WrClass::Read);
        self.release_pending();
    }

    pub(super) fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while !self.egress.out_q.is_empty() {
            let mut gate = self.port.egress_gate.borrow_mut();
            if !gate.try_take(ctx.now()) {
                gate.register_waiter(ctx, self.self_id, EGRESS_WAKE);
                return;
            }
            drop(gate);
            let (pkt, marker) = self.egress.out_q.pop_front().expect("nonempty");
            let dst = pkt.pkt.dst;
            ctx.schedule(Dur::ZERO, self.port.fabric, pkt);
            if let Some(class) = marker {
                // The WR's last packet left the NIC: its send-queue slot
                // frees, which may release queued WRs into the egress
                // queue (the loop keeps draining them).
                self.flow.on_local_complete(dst, class);
                self.release_pending();
            }
        }
    }

    /// Build the packets of an RDMA write message to `dst` without sending
    /// them.
    pub fn build_write_pkts(
        &mut self,
        dst: NodeId,
        dfs: Option<DfsHeader>,
        wrh: WriteReqHeader,
        data: Bytes,
    ) -> (MsgId, Vec<Pkt>) {
        let (mut first_cap, rest_cap) = write_payload_caps(&wrh);
        if dfs.is_none() {
            first_cap += DfsHeader::wire_size();
        }
        let parts = split_payload(data.len() as u32, first_cap, rest_cap);
        let mut wrh = Some(wrh);
        self.packetize(dst, parts.len() as u32, |msg, i, total| {
            let (offset, len) = parts[i as usize];
            Frame::Write(WritePkt {
                msg,
                pkt_idx: i,
                total_pkts: total,
                dfs: dfs.filter(|_| i == 0),
                wrh: wrh.take(),
                offset,
                data: data.slice(offset as usize..(offset + len) as usize),
            })
        })
    }

    /// One-sided RDMA write of `data` to `dst`.
    pub fn send_write(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        dfs: Option<DfsHeader>,
        wrh: WriteReqHeader,
        data: Bytes,
    ) -> MsgId {
        let (msg, pkts) = self.build_write_pkts(dst, dfs, wrh, data);
        self.post_wr(ctx, dst, pkts, WrClass::Write);
        msg
    }

    /// Two-sided SEND carrying an RPC body plus optional inline data.
    pub fn send_rpc(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        body: RpcBody,
        data: Bytes,
    ) -> MsgId {
        let (first_cap, rest_cap) = send_payload_caps(&body);
        let parts = split_payload(data.len() as u32, first_cap, rest_cap);
        let mut body = Some(body);
        let (msg, pkts) = self.packetize(dst, parts.len() as u32, |msg, i, total| {
            let (offset, len) = parts[i as usize];
            Frame::Send(SendPkt {
                msg,
                pkt_idx: i,
                total_pkts: total,
                rpc: body.take(),
                offset,
                data: data.slice(offset as usize..(offset + len) as usize),
            })
        });
        self.post_wr(ctx, dst, pkts, WrClass::Data);
        msg
    }

    /// Configure a HyperLoop forwarding chain on a remote NIC. Large
    /// configurations (many WQE updates) span several MTU-sized writes;
    /// the chain arms — and the config ack returns — on the last fragment.
    pub fn send_hl_config(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        mut cfg: HlConfigPkt,
    ) -> MsgId {
        cfg.total_frags = cfg.frags_needed();
        let frags = cfg.total_frags as u32;
        let (msg, pkts) = self.packetize(dst, frags, |msg, frag, _| {
            let mut f = cfg.clone();
            f.msg = msg;
            f.frag = frag as u16;
            Frame::HlConfig(f)
        });
        self.post_wr(ctx, dst, pkts, WrClass::Write);
        msg
    }

    /// Send a protocol ack, piggybacking any pending recv-credit return
    /// for `dst` on it (the SF-Zhou trick: grants ride completion traffic
    /// that flows anyway, in the AETH bytes already charged by the frame).
    pub fn send_ack(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, mut ack: AckPkt) {
        ack.credit = self.flow.take_grant(dst, false);
        let pkt = self.pkt(dst, Frame::Ack(ack));
        self.send_pkts(ctx, [pkt]);
    }

    /// Flush a standalone credit ack to `peer` if returns are pending —
    /// fired when the pending return crosses the half-budget threshold and
    /// no protocol ack is imminent to carry it.
    pub(super) fn send_credit_ack(&mut self, ctx: &mut Ctx<'_>, peer: NodeId) {
        let grant = self.flow.take_grant(peer, true);
        if grant.is_zero() {
            return;
        }
        let mut ack = AckPkt::new(CREDIT_MSG, None, Status::Ok);
        ack.credit = grant;
        let pkt = self.pkt(peer, Frame::Ack(ack));
        self.send_pkts(ctx, [pkt]);
    }
}

/// Move an acquired WR's packets into the egress queue. Egress-completed
/// classes (Data/Imm/Write) carry a marker on their last packet: the
/// local credit returns when that packet leaves the NIC. Read-class
/// completion is the response: the request's pending read returns it.
fn enqueue(out_q: &mut VecDeque<(Pkt, Option<WrClass>)>, pkts: Vec<Pkt>, class: WrClass) {
    let last = pkts.len().saturating_sub(1);
    for (i, p) in pkts.into_iter().enumerate() {
        let marker = if i == last && class != WrClass::Read {
            Some(class)
        } else {
            None
        };
        out_q.push_back((p, marker));
    }
}
