//! One-sided reads, both halves: the requester posts a read request and
//! lands the response, the responder streams ranges of its memory back
//! through the DMA read channel, admitting DFS reads through the
//! per-tenant read QoS when it is installed.

use bytes::Bytes;
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{
    Ctx, IdMap, NodeId, SharedTenantLedgers, Slab, TenantId, TenantScheduler, Time, WrClass,
};
use nadfs_wire::{AckPkt, DfsHeader, Frame, MsgId, ReadReqHeader, ReadReqPkt, ReadRespPkt, Status};

use super::gather::{self, Survivor};
use super::{NicCore, NicEvent};
use crate::check::Access;

/// Packets per DMA read of a response stream: the batch amortizes the
/// per-op PCIe latency so streaming runs at the read channel's bandwidth.
const DMA_BATCH_PKTS: u32 = 32;

/// Where the response packets of a read this node issued go.
#[derive(Clone, Copy)]
pub(super) enum ReadSink {
    /// Host memory at `local_addr` plus each packet's offset;
    /// `on_read_done(token)` follows the last one.
    Host { local_addr: u64, token: u64 },
    /// A remote survivor of a degraded gather: absorbed into the decode's
    /// accumulators in NIC memory.
    Decode(Survivor),
}

/// Pending read this node issued (initiator side).
struct PendingRead {
    sink: ReadSink,
    pkts_seen: u32,
    flush: Time,
    /// The peer whose Read credit the request holds (none for a read whose
    /// request travelled as a SEND). It returns when the response has
    /// landed or the read is cancelled, whichever is first.
    credit_from: Option<NodeId>,
}

/// `len` bytes of this node's memory at `addr`, landing at `dest_off` of
/// the flow they are streamed in: `(addr, len, dest_off)`.
pub(super) type Range = (u64, u32, u32);

/// The ranges one response stream walks, in order, none of them empty.
/// One range is every plain read and every local survivor; it is held
/// inline so those streams allocate no list.
pub(super) enum Ranges {
    One(Range),
    Many(Vec<Range>),
}

impl Ranges {
    /// The ranges of a read of `len` bytes at `addr`: none when it is
    /// empty.
    fn of_read(addr: u64, len: u32) -> Ranges {
        match len {
            0 => Ranges::Many(Vec::new()),
            _ => Ranges::One((addr, len, 0)),
        }
    }

    fn as_slice(&self) -> &[Range] {
        match self {
            Ranges::One(r) => std::slice::from_ref(r),
            Ranges::Many(v) => v,
        }
    }
}

/// The response flow of read request `msg` to `dst`: `total_pkts`
/// `ReadResp` packets, each at its (possibly sparse) flow offset.
#[derive(Clone, Copy)]
pub(super) struct RespFlow {
    pub(super) dst: NodeId,
    pub(super) msg: MsgId,
    pub(super) total_pkts: u32,
}

impl RespFlow {
    /// Packet `pkt_idx` of the flow: `data`, landing at `offset`.
    pub(super) fn frame(&self, pkt_idx: u32, offset: u32, data: Bytes) -> Frame {
        Frame::ReadResp(ReadRespPkt {
            msg: self.msg,
            pkt_idx,
            total_pkts: self.total_pkts,
            offset,
            data,
        })
    }
}

/// What is done with each batch of a response stream.
#[derive(Clone, Copy)]
pub(super) enum StreamSink {
    /// Cut into the packets of `flow`. A gather has the `greq` of the op
    /// it serves: every batch marks `streamed` on that op's span and
    /// counts toward `gather_bytes_streamed`. A read the read QoS
    /// admitted holds one of its `slot`s until the last batch.
    Wire {
        flow: RespFlow,
        greq: Option<u64>,
        slot: bool,
    },
    /// Absorbed into a decode on this NIC as its own survivor's packets.
    Decode(Survivor),
}

/// Ranges of this node's memory streaming out through the DMA read
/// channel (responder side): a one-sided or CPU-validated read, a healthy
/// gather, or the coordinator's own survivor of a degraded one.
struct ResponseStream {
    ranges: Ranges,
    /// Cursor: the range being read, the offset within it, and the index
    /// of the next packet.
    range: usize,
    off: u32,
    next_idx: u32,
    sink: StreamSink,
}

/// A DFS read waiting for a response-stream slot.
struct QueuedRead {
    dst: NodeId,
    msg: MsgId,
    addr: u64,
    len: u32,
}

/// The reads a NIC is party to.
#[derive(Default)]
pub(super) struct Reads {
    /// Reads this node issued, awaiting their response.
    pending: IdMap<MsgId, PendingRead>,
    /// Response streams in progress, by the key their deferred batches
    /// carry.
    streams: Slab<ResponseStream>,
    /// Optional per-tenant fair queueing of DFS read streams (the
    /// storage-side QoS stage): a read's response stream holds one of
    /// the scheduler's slots, and the backlog drains in deficit-round-robin
    /// order.
    qos: Option<TenantScheduler<QueuedRead>>,
}

impl Reads {
    pub(super) fn open(&self) -> usize {
        self.pending.len()
    }
}

impl NicCore {
    /// Install per-tenant fair queueing of DFS read streams on this NIC,
    /// with at most `max_streams` of them streaming at once (storage
    /// nodes; cluster build time). Returns the scheduler's per-tenant
    /// ledgers.
    pub fn install_read_qos(
        &mut self,
        quantum: u64,
        weights: &[(TenantId, u32)],
        max_streams: usize,
    ) -> SharedTenantLedgers {
        let sched = TenantScheduler::new(quantum, weights, max_streams);
        let ledgers = sched.ledgers_handle();
        self.reads.qos = Some(sched);
        ledgers
    }

    /// One-sided RDMA read: fetch `rrh.len` bytes at `rrh.addr` on `dst`
    /// into local memory at `local_addr`; `on_read_done(token)` follows.
    pub fn send_read(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        rrh: ReadReqHeader,
        dfs: Option<DfsHeader>,
        local_addr: u64,
        token: u64,
    ) -> MsgId {
        let sink = ReadSink::Host { local_addr, token };
        self.post_read(ctx, dst, sink, |msg| {
            Frame::ReadReq(ReadReqPkt { msg, dfs, rrh })
        })
    }

    /// Post the read request `req(msg)` to `dst`, its response packets
    /// going to `sink`. A read request is a requester-side WR like any
    /// other and consumes Read credit toward `dst` until its response has
    /// landed; the response *stream* is exempt, so credit still cycles.
    /// That covers a gather coordinator's survivor fetches too: exempting
    /// them let a gather storm monopolize a tight link against
    /// flow-controlled peers. A stalled request parks in the pending
    /// queue and releases when an earlier read's response returns its
    /// credit — bounded in-flight, no wedge.
    pub(super) fn post_read(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        sink: ReadSink,
        req: impl FnOnce(MsgId) -> Frame,
    ) -> MsgId {
        let mut req = Some(req);
        let (msg, pkts) = self.packetize(dst, 1, |msg, _, _| req.take().expect("one frame")(msg));
        self.arm_read(msg, sink, Some(dst));
        self.post_wr(ctx, dst, pkts, WrClass::Read);
        msg
    }

    /// Arm reassembly for read-response packets tagged with `msg`, landing
    /// them at `local_addr` and firing `on_read_done(token)` once complete.
    /// Used by RPC-transported reads, where the request goes out as a
    /// SEND but the data comes back as ReadResp frames keyed to the
    /// request's message id.
    pub fn expect_read_resp(&mut self, msg: MsgId, local_addr: u64, token: u64) {
        self.arm_read(msg, ReadSink::Host { local_addr, token }, None);
    }

    fn arm_read(&mut self, msg: MsgId, sink: ReadSink, credit_from: Option<NodeId>) {
        self.reads.pending.insert(
            msg,
            PendingRead {
                sink,
                pkts_seen: 0,
                flush: Time::ZERO,
                credit_from,
            },
        );
    }

    /// Where the response of read `msg` goes, while it is outstanding.
    pub(super) fn read_sink(&self, msg: MsgId) -> Option<ReadSink> {
        self.reads.pending.get(&msg).map(|p| p.sink)
    }

    /// Forget an armed read (e.g. after its request was NACKed): no
    /// response packets will land and no completion will fire. Any Read
    /// credit the request held returns to the pool. (No `ctx` here — the
    /// released credit admits queued WRs at the next pump.)
    pub fn cancel_read(&mut self, msg: MsgId) {
        let read = self.reads.pending.remove(&msg);
        if let Some(peer) = read.and_then(|r| r.credit_from) {
            self.return_read_credit(peer);
        }
    }

    /// Stream `len` bytes at `addr` back to `dst` as read-response packets
    /// for request `msg` — the responder half used both by the one-sided
    /// read path and by the CPU-validated RPC read (the storage software
    /// calls this after its own capability check).
    pub fn respond_read(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        msg: MsgId,
        addr: u64,
        len: u32,
    ) {
        self.respond(ctx, dst, msg, None, Ranges::of_read(addr, len), false);
    }

    pub(super) fn on_read_req(&mut self, ctx: &mut Ctx<'_>, src: NodeId, r: &ReadReqPkt) {
        if !self.mr_ok(r.rrh.addr, r.rrh.len as u64) {
            let greq = r.dfs.map(|d| d.greq_id);
            self.send_ack(ctx, src, AckPkt::new(r.msg, greq, Status::Rejected));
            return;
        }
        // DFS-level reads present a capability in their DFS header.
        // Header-less reads (e.g. the RPC+RDMA data fetch from a client)
        // are transport-level and pass through, as do nodes without the
        // service key.
        if let (Some(check), Some(dfs)) = (&self.check, r.dfs.as_ref()) {
            let describe = || format!("read-validate greq={} len={}", dfs.greq_id, r.rrh.len);
            let checked = check.admit(ctx.now(), Access::Read, src, r.msg, dfs, describe);
            if let Err((to, nack)) = checked {
                self.send_ack(ctx, to, nack);
                return;
            }
        }
        // DFS reads pass through the per-tenant scheduler when QoS is on;
        // transport-level reads (e.g. gather segment fetches) bypass it —
        // they are part of an already-admitted flow and queueing them
        // behind tenant backlog would invert the dependency.
        if let (Some(q), Some(dfs)) = (self.reads.qos.as_mut(), r.dfs.as_ref()) {
            q.push(
                dfs.tenant,
                r.rrh.len.max(1) as u64,
                QueuedRead {
                    dst: src,
                    msg: r.msg,
                    addr: r.rrh.addr,
                    len: r.rrh.len,
                },
            );
            self.admit_reads(ctx);
        } else {
            self.respond_read(ctx, src, r.msg, r.rrh.addr, r.rrh.len);
        }
    }

    /// Start queued DFS reads, in DRR order, while stream slots are free.
    /// (A read that streams in one batch frees its slot before `respond`
    /// returns; this loop hands it on.)
    pub(super) fn admit_reads(&mut self, ctx: &mut Ctx<'_>) {
        while let Some((_, rd)) = self.reads.qos.as_mut().and_then(TenantScheduler::admit) {
            let ranges = Ranges::of_read(rd.addr, rd.len);
            self.respond(ctx, rd.dst, rd.msg, None, ranges, true);
        }
    }

    /// Stream `ranges` back to `dst` as the response flow of request
    /// `msg` (of op `greq`, when it is a gather; holding a read-QoS
    /// `slot`, when admitted through it): one packet per
    /// `max_payload_plain()` bytes of each range, or a lone empty packet
    /// when there is nothing to read.
    pub(super) fn respond(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        msg: MsgId,
        greq: Option<u64>,
        ranges: Ranges,
        slot: bool,
    ) {
        let cap = nadfs_wire::sizes::max_payload_plain();
        let pkts = ranges.as_slice().iter().map(|r| r.1.div_ceil(cap));
        let total_pkts = pkts.sum::<u32>().max(1);
        let flow = RespFlow {
            dst,
            msg,
            total_pkts,
        };
        self.start_stream(ctx, ranges, StreamSink::Wire { flow, greq, slot });
    }

    pub(super) fn start_stream(&mut self, ctx: &mut Ctx<'_>, ranges: Ranges, sink: StreamSink) {
        let key = self.reads.streams.insert(ResponseStream {
            ranges,
            range: 0,
            off: 0,
            next_idx: 0,
            sink,
        });
        self.stream_step(ctx, key);
    }

    /// Read the next batch of stream `key`: at most [`DMA_BATCH_PKTS`]
    /// packets' worth, one DMA read per range it touches, handed to the
    /// stream's sink when the last of them is at the NIC. The event that
    /// reads the batch after it is scheduled before the hand-off. A read
    /// whose last batch this is releases its QoS slot; the caller admits
    /// the next read.
    pub(super) fn stream_step(&mut self, ctx: &mut Ctx<'_>, key: usize) {
        let now = ctx.now();
        let Some(s) = self.reads.streams.get_mut(key) else {
            return;
        };
        if let StreamSink::Decode(of) = s.sink {
            if !self.gathers.decoding(of.gather) {
                self.reads.streams.remove(key); // the gather was aborted
                return;
            }
        }
        let cap = nadfs_wire::sizes::max_payload_plain();
        let src = self.port.node;
        let first_idx = s.next_idx;
        let mut pkts = Vec::new();
        let mut whole = Bytes::new();
        let mut ready = now;
        let mut batch_bytes = 0u64;
        let mut budget = DMA_BATCH_PKTS;
        while budget > 0 {
            let Some(&(addr, len, dest_off)) = s.ranges.as_slice().get(s.range) else {
                break;
            };
            let take = (len - s.off).min(cap * budget);
            let from = addr + s.off as u64;
            let (data, dma_ready) = self.dma.borrow_mut().read(now, from, take as usize);
            ready = ready.max(dma_ready);
            match s.sink {
                StreamSink::Wire { flow, .. } => {
                    let mut boxes = self.pkts.borrow_mut();
                    for (i, at) in (0..take).step_by(cap as usize).enumerate() {
                        let bytes = data.slice(at as usize..(at + cap).min(take) as usize);
                        let frame = flow.frame(s.next_idx + i as u32, dest_off + s.off + at, bytes);
                        pkts.push(boxes.submit(src, flow.dst, frame));
                    }
                }
                // A survivor is one range, so one read is the batch.
                StreamSink::Decode(_) => whole = data,
            }
            let n = take.div_ceil(cap);
            s.next_idx += n;
            budget -= n;
            batch_bytes += take as u64;
            s.off += take;
            if s.off == len {
                s.range += 1;
                s.off = 0;
            }
        }
        let more = s.range < s.ranges.as_slice().len();
        let sink = s.sink;
        if !more {
            self.reads.streams.remove(key);
        }
        match sink {
            StreamSink::Wire { flow, greq, slot } => {
                if more {
                    self.defer(ctx, ready, NicEvent::StreamNext(key));
                }
                if pkts.is_empty() {
                    pkts.push(self.pkt(flow.dst, flow.frame(0, 0, Bytes::new())));
                }
                if let Some(greq) = greq {
                    // Per-batch phase mark: the op span records pipeline
                    // progress.
                    self.stats.borrow_mut().gather_bytes_streamed += batch_bytes;
                    let spans = &mut self.obs.borrow_mut().spans;
                    spans.mark_corr(greq, phase::STREAMED, ready);
                }
                self.defer(ctx, ready, NicEvent::Send(pkts));
                if slot && !more {
                    // Last batch queued: the next tenant-scheduled read
                    // may start.
                    self.reads.qos.as_mut().expect("admitted").release();
                }
            }
            StreamSink::Decode(of) => {
                let ev = NicEvent::DecodeLocal {
                    of,
                    first_idx,
                    data: whole,
                    next: more.then_some(key),
                };
                self.defer(ctx, ready, ev);
            }
        }
    }

    pub(super) fn on_read_resp(&mut self, ctx: &mut Ctx<'_>, r: &mut ReadRespPkt) {
        let now = ctx.now();
        let mut pending = self.reads.pending.get_mut(&r.msg);
        if let Some(ReadSink::Decode(of)) = pending.as_ref().map(|p| p.sink) {
            let idx = r.offset / nadfs_wire::sizes::max_payload_plain();
            gather::absorb(self, ctx, of, idx, &r.data);
            // An absorb that aborted its gather cancelled this read too.
            pending = self.reads.pending.get_mut(&r.msg);
        }
        if let Some(p) = pending {
            if let ReadSink::Host { local_addr, .. } = p.sink {
                let addr = local_addr + r.offset as u64;
                let done = self.dma.borrow_mut().land(now, addr, &r.data);
                p.flush = p.flush.max(done);
            }
            p.pkts_seen += 1;
            if p.pkts_seen == r.total_pkts {
                let p = self.reads.pending.remove(&r.msg).expect("present");
                if let ReadSink::Host { token, .. } = p.sink {
                    self.defer(ctx, p.flush, NicEvent::ReadDone { token });
                }
                // The read WR completed (response fully landed): its
                // read-queue slot frees now, possibly releasing queued
                // reads.
                if let Some(peer) = p.credit_from {
                    self.return_read_credit(peer);
                    self.pump(ctx);
                }
            }
        }
        // The payload is consumed (or its read was abandoned). One that is
        // a whole buffer of its own, not a window into a DMA batch, is a
        // packet buffer — a rebuilt packet travels in the accumulator it
        // was decoded in — and goes back to the ring.
        let len = r.data.len();
        match std::mem::take(&mut r.data).try_unwrap() {
            Ok(v) if len > 0 && v.len() == len => self.pool.borrow_mut().put(v),
            _ => {}
        }
    }
}
