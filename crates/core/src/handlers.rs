//! The DFS sPIN handlers — the paper's primary contribution.
//!
//! This is Listing 1 made concrete: a header handler that authenticates the
//! request (§IV) and materializes per-request state in NIC memory; payload
//! handlers that commit data to the storage target and enforce the data
//! movement / processing policies (replication forwarding §V, streaming
//! erasure coding §VI); a completion handler that flushes and acknowledges;
//! and the cleanup handler (§VII) reclaiming state after client failure.
//!
//! Handlers do the *functional* work (bytes really move, parities are real
//! GF(2^8) algebra) and charge the instruction/IPC model of Tables I & II,
//! whose constants follow: a handler run lasts instructions ÷ IPC cycles.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_gfec::{Accumulator, RsCodecs};
use nadfs_pspin::{HandlerArgs, HandlerSet, HostEvent, HostNotify, Ops};
use nadfs_rdma::{Access, RequestCheck, SharedNicStats};
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{IdMap, IdSet, NodeId, SharedBufPool, SharedObs, SharedTrace};
use nadfs_wire::{
    bcast_children, AckPkt, DfsHeader, EcInfo, EcRole, Frame, MacKey, MsgId, Resiliency, RsScheme,
    Status, WritePkt, WriteReqHeader,
};

/// Header handler: request validation + descriptor setup. Paper: 120
/// instructions, IPC 0.57 ⇒ 211 ns (Table I), matching the "DFS handler
/// that validates client requests takes 200 cycles" of Fig 7 plus
/// bookkeeping.
pub(crate) const HH_INSTRS: u64 = 120;
pub(crate) const HH_IPC: f64 = 0.57;
/// Payload handler, plain write (k = 1): 55 instructions @ 0.60.
pub(crate) const PH_INSTRS: u64 = 55;
pub(crate) const PH_IPC: f64 = 0.60;
/// Payload handler, ring forward: 105 instructions @ 0.54 (Table I).
pub(crate) const PH_RING_INSTRS: u64 = 105;
pub(crate) const PH_RING_IPC: f64 = 0.54;
/// Payload handler, PBT forward: 130 instructions (Table I). The
/// *duration* (2106 ns) is not charged: it emerges from egress stalls.
const PH_PBT_INSTRS: u64 = 130;
const PH_PBT_IPC: f64 = 0.60;
/// Completion handler: 66 instructions @ 0.62 ⇒ 107 ns (Table I); the
/// flush wait lengthens it naturally.
pub(crate) const CH_INSTRS: u64 = 66;
pub(crate) const CH_IPC: f64 = 0.62;
/// Cleanup handler (not measured in the paper; small bookkeeping).
const CLEANUP_INSTRS: u64 = 80;
/// EC payload handler: base + per-byte encode loop. Paper §VI-C: "5
/// instructions per byte for RS(3,2) and 7 for RS(6,3)"; Table II's
/// totals fit instrs = base + 2(m+1)·payload at IPC 0.7.
const EC_PH_BASE_INSTRS: u64 = 120;
const EC_PH_IPC: f64 = 0.7;
/// XOR-aggregation payload handler at the parity node (per byte).
/// Word-wise XOR accumulate; not separately reported by the paper.
const EC_AGG_INSTRS_PER_BYTE: f64 = 1.0;

/// Instructions of the EC encode payload handler for a payload of
/// `bytes` under RS(k, m): 2(m+1) instructions per byte (§VI-C).
pub(crate) fn ec_ph_instrs(m: u8, bytes: usize) -> u64 {
    EC_PH_BASE_INSTRS + 2 * (m as u64 + 1) * bytes as u64
}

/// One forwarded stream (replication child or EC parity stream).
#[derive(Clone, Debug)]
struct FwdStream {
    msg: MsgId,
    dst: NodeId,
}

/// Per-request NIC state — the paper's 77-byte write descriptor. Shared
/// (`Rc`) so a payload handler can hold it while it updates other state;
/// the one field that changes per packet is a `Cell`.
#[derive(Debug)]
struct ReqEntry {
    greq: u64,
    accept: bool,
    client: NodeId,
    wrh: WriteReqHeader,
    fwd: Vec<FwdStream>,
    /// Packets of this message that carry data (client-origin messages
    /// carry data in every packet; forwarded streams start with an empty
    /// header packet).
    data_pkts: u32,
    /// Data packets forwarded so far (slot counter for outgoing streams).
    fwd_sent: Cell<u32>,
}

impl ReqEntry {
    /// Claim the next outgoing stream slot: 0 is the HH's header packet;
    /// data packets take the next free slot (arrival order — offsets carry
    /// the placement, so slot order is bookkeeping only).
    fn next_fwd_slot(&self) -> u32 {
        self.fwd_sent.set(self.fwd_sent.get() + 1);
        self.fwd_sent.get()
    }

    /// Send `data`, the bytes at `offset`, down stream `f` as packet `slot`.
    fn forward(&self, ops: &mut Ops, f: &FwdStream, slot: u32, offset: u32, data: Bytes) {
        let pkt = WritePkt {
            msg: f.msg,
            pkt_idx: slot,
            total_pkts: self.data_pkts + 1,
            dfs: None,
            wrh: None,
            offset,
            data,
        };
        ops.send(f.dst, Frame::Write(pkt));
    }
}

/// Aggregation state for one stripe at a parity node.
#[derive(Debug)]
struct StripeState {
    k: u8,
    chunk_len: u32,
    greq: u64,
    client: NodeId,
    /// Where the final parity chunk lives on this node.
    final_addr: u64,
    /// Completed intermediate streams.
    ch_done: u8,
    /// Aggregating on the host CPU because the accumulator pool could not
    /// cover the stripe (§VI-B-3: "If the pool is empty ... we fall back
    /// to a CPU-based aggregation"). Decided per stripe at header time so
    /// no aggregation sequence ever splits between NIC and host.
    fallback: bool,
    /// Accumulators reserved from the pool for this stripe: they return
    /// to it together, when the stripe's last stream completes.
    reserved: usize,
}

/// The handler set installed on storage-node NICs, and the execution
/// context's state it works on in NIC memory (`task->mem`).
pub struct DfsNicState {
    check: RequestCheck,
    req_table: IdMap<MsgId, Rc<ReqEntry>>,
    next_fwd_seq: u64,
    codecs: RsCodecs,
    stripes: IdMap<u64, StripeState>,
    /// In-flight aggregation sequences (Fig 14), by stripe and offset.
    accs: IdMap<(u64, u32), Accumulator>,
    /// Free accumulators remaining in the pool.
    acc_free: usize,
    /// Gather reads the header handler validated; the completion handler
    /// hands each to the NIC's gather engine.
    gathers: IdSet<MsgId>,
    /// Recycled byte buffers for accumulators and intermediate-parity
    /// products (shared with the PsPIN device, which returns DMA-write
    /// payloads here once their run retires).
    buf_pool: SharedBufPool,
    /// Observability: per-packet span phase marks, keyed by greq.
    obs: SharedObs,
}

impl DfsNicState {
    /// The context on storage node `node`, authenticating with `key`,
    /// with `accumulator_pool` accumulators, drawing accumulator and
    /// product buffers from `buf_pool` (the owning NIC's ring), counting
    /// refusals in `stats` (the owning NIC's) and reporting to `obs` and
    /// `trace`.
    pub fn new(
        key: MacKey,
        accumulator_pool: usize,
        buf_pool: SharedBufPool,
        stats: SharedNicStats,
        obs: SharedObs,
        trace: SharedTrace,
        node: NodeId,
    ) -> DfsNicState {
        DfsNicState {
            check: RequestCheck::new(key, node, stats, obs.clone(), trace),
            req_table: IdMap::default(),
            next_fwd_seq: 0,
            codecs: RsCodecs::default(),
            stripes: IdMap::default(),
            accs: IdMap::default(),
            acc_free: accumulator_pool,
            gathers: IdSet::default(),
            buf_pool,
            obs,
        }
    }

    /// Open a stream forwarding the request to `dst` under `wrh`: send its
    /// (empty) header packet ahead of `data_pkts` data packets. Payload
    /// handlers run concurrently, so only the HH can guarantee that the
    /// header leaves first, as sPIN requires.
    fn open_stream(
        &mut self,
        a: &mut HandlerArgs<'_>,
        dst: NodeId,
        dfs: DfsHeader,
        wrh: WriteReqHeader,
        data_pkts: u32,
    ) -> FwdStream {
        // High bit namespaces NIC-originated messages away from host ones.
        let msg = MsgId::new(a.local as u32, 0x8000_0000_0000_0000 | self.next_fwd_seq);
        self.next_fwd_seq += 1;
        a.ops.send(
            dst,
            Frame::Write(WritePkt {
                msg,
                pkt_idx: 0,
                total_pkts: data_pkts + 1,
                dfs: Some(dfs),
                wrh: Some(wrh),
                offset: 0,
                data: Bytes::new(),
            }),
        );
        FwdStream { msg, dst }
    }
}

impl HandlerSet for DfsNicState {
    /// `DFS_request_init` (Listing 1): authenticate and set up state.
    fn header(&mut self, mut a: HandlerArgs<'_>) {
        a.ops.charge_instrs(HH_INSTRS, HH_IPC);
        if let Frame::GatherReq(g) = a.frame {
            // `DFS_gather_init`: authenticate the gather once and mark it
            // valid; the completion handler hands it to the NIC's gather
            // engine after the pipeline retires.
            let describe = || {
                format!(
                    "gather-validate greq={} segs={} len={}",
                    g.dfs.greq_id,
                    g.grh.segments.len(),
                    g.grh.total_len
                )
            };
            match self
                .check
                .admit(a.now, Access::Gather, a.src, g.msg, &g.dfs, describe)
            {
                Ok(()) => _ = self.gathers.insert(g.msg),
                Err((to, nack)) => a.ops.send(to, Frame::Ack(nack)),
            }
            return;
        }
        let Frame::Write(w) = a.frame else {
            return;
        };
        let (Some(dfs), Some(wrh)) = (w.dfs, w.wrh.clone()) else {
            return; // malformed: no headers; drop silently
        };
        let data_pkts = if w.data.is_empty() {
            w.total_pkts.saturating_sub(1)
        } else {
            w.total_pkts
        };

        let describe = || format!("hdr-validate greq={}", dfs.greq_id);
        let checked = self
            .check
            .admit(a.now, Access::Write, a.src, w.msg, &dfs, describe);
        // An EC header whose fields do not fit together, or a range past
        // the end of the address space, is refused too: to the client the
        // header names, which passed the check.
        let unfit = matches!(&wrh.resiliency, Resiliency::ErasureCode(info) if !info.is_sound())
            || !wrh.in_range();
        let refusal = match checked {
            Err(refusal) => Some(refusal),
            Ok(()) if unfit => {
                let nack = AckPkt::new(w.msg, Some(dfs.greq_id), Status::Rejected);
                Some((dfs.client as NodeId, nack))
            }
            Ok(()) => None,
        };
        if let Some((to, nack)) = refusal {
            // DFS_request_init sends NACK if the request is refused.
            a.ops.send(to, Frame::Ack(nack));
        }
        let mut fwd = Vec::new();
        match &wrh.resiliency {
            _ if refusal.is_some() => {}
            Resiliency::None => {}
            Resiliency::Replicate {
                strategy,
                vrank,
                coords,
            } => {
                // Client-driven broadcast (§V-A): the WRH carries the full
                // coordinate list; pick our children from it.
                for child in bcast_children(*strategy, *vrank, coords.len()) {
                    let coord = coords[child as usize];
                    let child_wrh = WriteReqHeader {
                        target_addr: coord.addr,
                        len: wrh.len,
                        resiliency: Resiliency::Replicate {
                            strategy: *strategy,
                            vrank: child,
                            coords: coords.clone(),
                        },
                    };
                    let dst = coord.node as NodeId;
                    fwd.push(self.open_stream(&mut a, dst, dfs, child_wrh, data_pkts));
                }
            }
            Resiliency::ErasureCode(info) => match info.role {
                EcRole::Data { chunk_idx } => {
                    // One intermediate-parity stream per parity node.
                    for (p, coord) in info.parity_coords.iter().enumerate() {
                        let stream_wrh = info.parity_stream(chunk_idx, p, 0, wrh.len);
                        let dst = coord.node as NodeId;
                        fwd.push(self.open_stream(&mut a, dst, dfs, stream_wrh, data_pkts));
                    }
                }
                EcRole::Parity { .. } => {
                    // Parity node: make sure the stripe state exists and
                    // decide NIC vs host aggregation for this stripe.
                    let stripe = info.stripe;
                    if !self.stripes.contains_key(&stripe) {
                        let needed = wrh
                            .len
                            .div_ceil(nadfs_wire::sizes::max_payload_plain())
                            .max(1) as usize;
                        let fallback = self.acc_free < needed;
                        let reserved = if fallback {
                            0
                        } else {
                            self.acc_free -= needed;
                            needed
                        };
                        self.stripes.insert(
                            stripe,
                            StripeState {
                                k: info.scheme.k,
                                chunk_len: wrh.len,
                                greq: dfs.greq_id,
                                client: dfs.client as NodeId,
                                final_addr: wrh.target_addr,
                                ch_done: 0,
                                fallback,
                                reserved,
                            },
                        );
                    }
                }
            },
        }

        self.req_table.insert(
            w.msg,
            Rc::new(ReqEntry {
                greq: dfs.greq_id,
                accept: refusal.is_none(),
                client: dfs.client as NodeId,
                wrh,
                fwd,
                data_pkts,
                fwd_sent: Cell::new(0),
            }),
        );
    }

    /// `DFS_request_process_pkt` (Listing 1): commit and enforce policies.
    fn payload(&mut self, a: HandlerArgs<'_>) {
        if let Frame::GatherReq(g) = a.frame {
            // One fetch/DMA descriptor posted per segment (plus one per
            // reconstruction copy when the EC engine is involved).
            let descs =
                g.grh.segments.len() + g.grh.reconstruct.as_ref().map_or(0, |r| r.copy.len());
            a.ops.charge_instrs(PH_INSTRS * descs.max(1) as u64, PH_IPC);
            return;
        }
        let Frame::Write(w) = a.frame else {
            return;
        };
        let Some(entry) = self.req_table.get(&a.msg).cloned() else {
            a.ops.charge_instrs(5, 1.0);
            return; // unknown message (e.g. cleaned up): drop
        };
        // The drop branch of Listing 1: a refused request, or a packet
        // whose bytes fall past its header's length.
        if !entry.accept || w.offset as u64 + w.data.len() as u64 > entry.wrh.len as u64 {
            a.ops.charge_instrs(5, 1.0);
            return;
        }
        // Per-packet phase mark: one `nic-pkt` mark per payload-handler run
        // on the request's span, so traces show the intra-message pipeline.
        self.obs
            .borrow_mut()
            .spans
            .mark_corr(entry.greq, phase::NIC_PKT, a.now);

        match &entry.wrh.resiliency {
            Resiliency::None => {
                a.ops.charge_instrs(PH_INSTRS, PH_IPC);
                a.ops
                    .dma_write(entry.wrh.target_addr + w.offset as u64, w.data.clone());
            }
            Resiliency::Replicate { strategy, .. } => {
                let (instrs, ipc) = match strategy {
                    nadfs_wire::BcastStrategy::Ring => (PH_RING_INSTRS, PH_RING_IPC),
                    nadfs_wire::BcastStrategy::Pbt => (PH_PBT_INSTRS, PH_PBT_IPC),
                };
                a.ops.charge_instrs(instrs, ipc);
                a.ops
                    .dma_write(entry.wrh.target_addr + w.offset as u64, w.data.clone());
                if w.data.is_empty() {
                    return; // forwarded stream-header packet: no data
                }
                let slot = entry.next_fwd_slot();
                for f in &entry.fwd {
                    entry.forward(a.ops, f, slot, w.offset, w.data.clone());
                }
            }
            Resiliency::ErasureCode(info) => match info.role {
                EcRole::Data { chunk_idx } => {
                    let m = info.scheme.m;
                    a.ops
                        .charge_instrs(ec_ph_instrs(m, w.data.len()), EC_PH_IPC);
                    a.ops
                        .dma_write(entry.wrh.target_addr + w.offset as u64, w.data.clone());
                    if w.data.is_empty() {
                        return; // stream-header packet: nothing to encode
                    }
                    let Ok(rs) = self.codecs.get(info.scheme.k, m) else {
                        return; // (a sound header names a code)
                    };
                    // Per-packet streaming encode (§VI-B): multiply by the
                    // parity coefficient, forward the product into the next
                    // stream slot.
                    let slot = entry.next_fwd_slot();
                    for (p, f) in entry.fwd.iter().enumerate() {
                        let coef = rs.parity_coef(p, chunk_idx as usize);
                        // Pooled product buffer + in-place wide-word
                        // multiply: no allocation once the ring warms up.
                        let mut ipar = self.buf_pool.borrow_mut().get_dirty(w.data.len());
                        nadfs_gfec::intermediate_parity_into(coef, &w.data, &mut ipar);
                        entry.forward(a.ops, f, slot, w.offset, Bytes::from(ipar));
                    }
                }
                EcRole::Parity { src_chunk, .. } => {
                    let bytes = w.data.len();
                    let instrs = (bytes as f64 * EC_AGG_INSTRS_PER_BYTE) as u64 + 20;
                    a.ops.charge_instrs(instrs, EC_PH_IPC);
                    if bytes == 0 {
                        return; // stream-header packet: nothing to XOR
                    }
                    let stripe = info.stripe;
                    let Some(sst) = self.stripes.get(&stripe) else {
                        return;
                    };
                    let k = sst.k;
                    let chunk_len = sst.chunk_len;
                    let final_addr = sst.final_addr;
                    if src_chunk >= k || w.offset as u64 + bytes as u64 > chunk_len as u64 {
                        return; // does not fit the stripe its first stream opened
                    }
                    if sst.fallback {
                        // Host aggregates: stage the intermediate parity.
                        let slot = final_addr + RsScheme::staging_slot(chunk_len, src_chunk);
                        let slot = slot..slot + chunk_len as u64;
                        a.ops.dma_stage(slot, w.offset, w.data.clone());
                        return;
                    }
                    // NIC aggregation: XOR into the accumulator for this
                    // aggregation sequence (keyed by stripe and offset).
                    // The budget was reserved at header time; the buffer
                    // comes from the recycled ring (the device returns it
                    // after the final parity's DMA write retires).
                    let key = (stripe, w.offset);
                    let acc = self.accs.entry(key).or_insert_with(|| {
                        let buf = self.buf_pool.borrow_mut().get_dirty(bytes);
                        Accumulator::with_buf(buf, k as u32)
                    });
                    if bytes > acc.capacity() {
                        return; // longer than the packet that opened the sequence
                    }
                    if acc.absorb(&w.data) {
                        let acc = self.accs.remove(&key).expect("present");
                        let parity = Bytes::from(acc.into_buf());
                        a.ops.dma_write(final_addr + w.offset as u64, parity);
                    }
                }
            },
        }
    }

    /// `DFS_request_fini` (Listing 1): flush, acknowledge, release state.
    fn completion(&mut self, a: HandlerArgs<'_>) {
        if let Frame::GatherReq(g) = a.frame {
            a.ops.charge_instrs(CH_INSTRS, CH_IPC);
            // Hand the validated gather to the NIC's gather engine once
            // the pipeline retires (refused requests were never marked).
            if self.gathers.remove(&a.msg) {
                let req = g.clone();
                a.ops.notify(HostNotify::Gather { client: a.src, req });
            }
            return;
        }
        let Some(entry) = self.req_table.remove(&a.msg) else {
            a.ops.charge_instrs(5, 1.0);
            return;
        };
        a.ops.charge_instrs(CH_INSTRS, CH_IPC);
        if !entry.accept {
            return; // NACK already sent by the header handler
        }
        // A parity node acks the client only when all k streams completed.
        let Resiliency::ErasureCode(EcInfo {
            role: EcRole::Parity { .. },
            stripe,
            ..
        }) = entry.wrh.resiliency
        else {
            // Explicit flush before acknowledging (§III-B-1).
            a.ops.wait_flush();
            let ack = AckPkt::new(a.msg, Some(entry.greq), Status::Ok);
            a.ops.send(entry.client, Frame::Ack(ack));
            return;
        };
        let Some(sst) = self.stripes.get_mut(&stripe) else {
            return;
        };
        sst.ch_done += 1;
        if sst.ch_done < sst.k {
            return;
        }
        let sst = self.stripes.remove(&stripe).expect("present");
        self.acc_free += sst.reserved;
        if sst.fallback {
            // The host finishes the aggregation and acks the client.
            a.ops.notify(HostNotify::Host(HostEvent::Aggregate {
                k: sst.k,
                chunk_len: sst.chunk_len,
                final_addr: sst.final_addr,
                greq: sst.greq,
                client: sst.client,
            }));
        } else {
            a.ops.wait_flush();
            let ack = AckPkt::new(a.msg, Some(sst.greq), Status::Ok);
            a.ops.send(sst.client, Frame::Ack(ack));
        }
    }

    /// Cleanup handler (§VII): reclaim dangling state, tell the host.
    fn cleanup(&mut self, msg: MsgId, ops: &mut Ops) {
        ops.charge_instrs(CLEANUP_INSTRS, 1.0);
        self.req_table.remove(&msg);
        self.gathers.remove(&msg);
        ops.notify(HostNotify::Host(HostEvent::Cleanup));
    }
}
