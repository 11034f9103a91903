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
//! GF(2^8) algebra) and charge the calibrated instruction/IPC model from
//! [`crate::config::HandlerCosts`].

use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_gfec::{Accumulator, ReedSolomon};
use nadfs_pspin::{HandlerArgs, HandlerSet, HostNotify, Ops};
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{
    IdMap, IdSet, NodeId, ObsHub, SharedBufPool, SharedObs, SharedTrace, Time, Trace,
};
use nadfs_wire::{
    bcast_children, AckPkt, DfsHeader, EcInfo, EcRole, Frame, GatherReqPkt, MacKey, MsgId,
    Resiliency, Rights, RsScheme, Status, WritePkt, WriteReqHeader,
};

use crate::config::HandlerCosts;

/// Host-event tag base for CPU-fallback EC aggregation; the stripe id is
/// OR-ed into the low bits.
pub const EVT_EC_FALLBACK: u64 = 0x4543_0000_0000_0000;
/// Host-event tag for cleanup notifications.
pub const EVT_CLEANUP: u64 = 0xC1EA_0000_0000_0000;

/// One forwarded stream (replication child or EC parity stream).
#[derive(Clone, Debug)]
struct FwdStream {
    msg: MsgId,
    dst: NodeId,
    /// WRH of the forwarded message's first packet.
    wrh: WriteReqHeader,
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
    /// Accumulators reserved from the pool for this stripe.
    reserved: usize,
}

/// Execution-context state living in NIC memory (`task->mem`).
pub struct DfsNicState {
    pub key: MacKey,
    pub costs: HandlerCosts,
    req_table: IdMap<MsgId, Rc<ReqEntry>>,
    next_fwd_seq: u64,
    rs_cache: IdMap<(u8, u8), ReedSolomon>,
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
    /// Requests whose capability the header handler refused.
    auth_failures: u64,
    /// Observability: span phase marks keyed by greq, the shared trace
    /// ring, and which node this context runs on. Defaults disabled; the
    /// cluster build installs the live hubs via [`DfsNicState::set_obs`].
    obs: SharedObs,
    trace: SharedTrace,
    node: Option<NodeId>,
}

impl DfsNicState {
    /// A context drawing accumulator and product buffers from `buf_pool`
    /// (the owning NIC's ring).
    pub fn with_buf_pool(
        key: MacKey,
        costs: HandlerCosts,
        accumulator_pool: usize,
        buf_pool: SharedBufPool,
    ) -> DfsNicState {
        DfsNicState {
            key,
            costs,
            req_table: IdMap::default(),
            next_fwd_seq: 0,
            rs_cache: IdMap::default(),
            stripes: IdMap::default(),
            accs: IdMap::default(),
            acc_free: accumulator_pool,
            gathers: IdSet::default(),
            buf_pool,
            auth_failures: 0,
            obs: ObsHub::disabled(),
            trace: Trace::disabled(),
            node: None,
        }
    }

    /// Install the shared observability hub + trace ring, tagging this
    /// context with the storage node it runs on.
    pub fn set_obs(&mut self, obs: SharedObs, trace: SharedTrace, node: NodeId) {
        self.obs = obs;
        self.trace = trace;
        self.node = Some(node);
    }

    /// Hand `stripe` over to the host for CPU-fallback aggregation, if it
    /// is one the NIC staged: `(k, chunk_len, final_addr, greq, client)`.
    /// The stripe's state is dropped.
    pub fn take_fallback_stripe(&mut self, stripe: u64) -> Option<(u8, u32, u64, u64, NodeId)> {
        self.stripes.get(&stripe).filter(|s| s.fallback)?;
        let s = self.stripes.remove(&stripe)?;
        Some((s.k, s.chunk_len, s.final_addr, s.greq, s.client))
    }

    fn rs(&mut self, scheme: RsScheme) -> &ReedSolomon {
        self.rs_cache
            .entry((scheme.k, scheme.m))
            .or_insert_with(|| {
                ReedSolomon::new(scheme.k as usize, scheme.m as usize).expect("valid RS")
            })
    }

    /// Authenticate the request `msg` that `dfs` heads — signature,
    /// expiry, `rights` (§IV threat model: untrusted clients, trusted
    /// network). One that passes is marked `nic-validated` on the
    /// originating client op's span (greq-correlated); `Err` is the NACK
    /// to send for one that does not.
    fn validate(
        &mut self,
        msg: MsgId,
        dfs: &DfsHeader,
        rights: Rights,
        now: Time,
        describe: impl FnOnce() -> String,
    ) -> Result<(), AckPkt> {
        let cap = &dfs.capability;
        if cap.verify(&self.key, now.as_ns() as u64, rights).is_err() {
            self.auth_failures += 1;
            return Err(AckPkt::new(msg, Some(dfs.greq_id), Status::AuthFailed));
        }
        let spans = &mut self.obs.borrow_mut().spans;
        spans.mark_corr_once(dfs.greq_id, phase::NIC_VALIDATED, now);
        self.trace
            .borrow_mut()
            .emit_from(now, "nic", self.node, describe);
        Ok(())
    }

    fn alloc_fwd_msg(&mut self, node: NodeId) -> MsgId {
        // High bit namespaces NIC-originated messages away from host ones.
        let m = MsgId::new(node as u32, 0x8000_0000_0000_0000 | self.next_fwd_seq);
        self.next_fwd_seq += 1;
        m
    }
}

/// The handler set installed on storage-node NICs.
pub struct DfsHandlers;

fn state_of(any: &mut dyn Any) -> &mut DfsNicState {
    any.downcast_mut::<DfsNicState>()
        .expect("execution context state is DfsNicState")
}

fn write_pkt(frame: &Frame) -> Option<&WritePkt> {
    match frame {
        Frame::Write(w) => Some(w),
        _ => None,
    }
}

/// `DFS_gather_init`: authenticate a gather read once on the NIC and mark
/// it valid. The completion handler hands it to the gather engine after
/// the pipeline retires.
fn gather_header(st: &mut DfsNicState, g: &GatherReqPkt, src: NodeId, now: Time, ops: &mut Ops) {
    let describe = || {
        format!(
            "gather-validate greq={} segs={} len={}",
            g.dfs.greq_id,
            g.grh.segments.len(),
            g.grh.total_len
        )
    };
    match st.validate(g.msg, &g.dfs, Rights::READ, now, describe) {
        Ok(()) => {
            st.gathers.insert(g.msg);
        }
        Err(nack) => ops.send(src, Frame::Ack(nack)),
    }
}

impl HandlerSet for DfsHandlers {
    /// `DFS_request_init` (Listing 1): authenticate and set up state.
    fn header(&mut self, a: HandlerArgs<'_>) {
        let st = state_of(a.state);
        let costs = st.costs;
        a.ops.charge_instrs(costs.hh_instrs, costs.hh_ipc);
        if let Frame::GatherReq(g) = a.frame {
            gather_header(st, g, a.src, a.now, a.ops);
            return;
        }
        let Some(w) = write_pkt(a.frame) else {
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
        if let Err(nack) = st.validate(w.msg, &dfs, Rights::WRITE, a.now, describe) {
            st.req_table.insert(
                w.msg,
                Rc::new(ReqEntry {
                    greq: dfs.greq_id,
                    accept: false,
                    client: dfs.client as NodeId,
                    wrh,
                    fwd: Vec::new(),
                    data_pkts,
                    fwd_sent: Cell::new(0),
                }),
            );
            // DFS_request_init sends NACK if request auth fails.
            a.ops.send(dfs.client as NodeId, Frame::Ack(nack));
            return;
        }

        let mut fwd = Vec::new();
        match &wrh.resiliency {
            Resiliency::None => {}
            Resiliency::Replicate {
                strategy,
                vrank,
                coords,
            } => {
                // Client-driven broadcast (§V-A): the WRH carries the full
                // coordinate list; pick our children from it. The header
                // handler emits each forward stream's (empty) header packet
                // itself: payload handlers run concurrently on independent
                // HPUs, so only the HH can guarantee the header leaves
                // first.
                for child in bcast_children(*strategy, *vrank, coords.len()) {
                    let dst = coords[child as usize].node as NodeId;
                    let msg = st.alloc_fwd_msg(a.local);
                    let stream = FwdStream {
                        msg,
                        dst,
                        wrh: WriteReqHeader {
                            target_addr: coords[child as usize].addr,
                            len: wrh.len,
                            resiliency: Resiliency::Replicate {
                                strategy: *strategy,
                                vrank: child,
                                coords: coords.clone(),
                            },
                        },
                    };
                    a.ops.send(
                        stream.dst,
                        Frame::Write(WritePkt {
                            msg: stream.msg,
                            pkt_idx: 0,
                            total_pkts: data_pkts + 1,
                            dfs: Some(dfs),
                            wrh: Some(stream.wrh.clone()),
                            offset: 0,
                            data: Bytes::new(),
                        }),
                    );
                    fwd.push(stream);
                }
            }
            Resiliency::ErasureCode(info) => match info.role {
                EcRole::Data { chunk_idx } => {
                    // One intermediate-parity stream per parity node. The
                    // header handler emits an explicit (empty) header packet
                    // for each stream: payload-handler durations depend on
                    // payload size, so without this a short tail packet's
                    // parity could overtake the stream header on the wire —
                    // sPIN requires headers to arrive first.
                    for (p, coord) in info.parity_coords.iter().enumerate() {
                        let msg = st.alloc_fwd_msg(a.local);
                        let stream = FwdStream {
                            msg,
                            dst: coord.node as NodeId,
                            wrh: WriteReqHeader {
                                target_addr: coord.addr,
                                len: wrh.len,
                                resiliency: Resiliency::ErasureCode(EcInfo {
                                    scheme: info.scheme,
                                    role: EcRole::Parity {
                                        parity_idx: p as u8,
                                        src_chunk: chunk_idx,
                                    },
                                    stripe: info.stripe,
                                    parity_coords: vec![*coord],
                                }),
                            },
                        };
                        a.ops.send(
                            stream.dst,
                            Frame::Write(WritePkt {
                                msg: stream.msg,
                                pkt_idx: 0,
                                total_pkts: data_pkts + 1,
                                dfs: Some(dfs),
                                wrh: Some(stream.wrh.clone()),
                                offset: 0,
                                data: Bytes::new(),
                            }),
                        );
                        fwd.push(stream);
                    }
                }
                EcRole::Parity { .. } => {
                    // Parity node: make sure the stripe state exists and
                    // decide NIC vs host aggregation for this stripe.
                    // (A stripe of no chunks aggregates nothing: no state.)
                    let stripe = info.stripe;
                    if info.scheme.k > 0 && !st.stripes.contains_key(&stripe) {
                        let needed = wrh
                            .len
                            .div_ceil(nadfs_wire::sizes::max_payload_plain())
                            .max(1) as usize;
                        let fallback = st.acc_free < needed;
                        let reserved = if fallback {
                            0
                        } else {
                            st.acc_free -= needed;
                            needed
                        };
                        st.stripes.insert(
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

        st.req_table.insert(
            w.msg,
            Rc::new(ReqEntry {
                greq: dfs.greq_id,
                accept: true,
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
        let st = state_of(a.state);
        let costs = st.costs;
        if let Frame::GatherReq(g) = a.frame {
            // One fetch/DMA descriptor posted per segment (plus one per
            // reconstruction copy when the EC engine is involved).
            let descs =
                g.grh.segments.len() + g.grh.reconstruct.as_ref().map_or(0, |r| r.copy.len());
            a.ops
                .charge_instrs(costs.ph_instrs * descs.max(1) as u64, costs.ph_ipc);
            return;
        }
        let Some(w) = write_pkt(a.frame) else {
            return;
        };
        let Some(entry) = st.req_table.get(&a.msg).cloned() else {
            a.ops.charge_instrs(5, 1.0);
            return; // unknown message (e.g. cleaned up): drop
        };
        if !entry.accept {
            a.ops.charge_instrs(5, 1.0); // drop branch of Listing 1
            return;
        }
        // Per-packet phase mark: one `nic-pkt` mark per payload-handler run
        // on the request's span, so traces show the intra-message pipeline.
        st.obs
            .borrow_mut()
            .spans
            .mark_corr(entry.greq, phase::NIC_PKT, a.now);

        match &entry.wrh.resiliency {
            Resiliency::None => {
                a.ops.charge_instrs(costs.ph_instrs, costs.ph_ipc);
                a.ops
                    .dma_write(entry.wrh.target_addr + w.offset as u64, w.data.clone());
            }
            Resiliency::Replicate { strategy, .. } => {
                let (instrs, ipc) = match strategy {
                    nadfs_wire::BcastStrategy::Ring => (costs.ph_ring_instrs, costs.ph_ring_ipc),
                    nadfs_wire::BcastStrategy::Pbt => (costs.ph_pbt_instrs, costs.ph_pbt_ipc),
                };
                a.ops.charge_instrs(instrs, ipc);
                a.ops
                    .dma_write(entry.wrh.target_addr + w.offset as u64, w.data.clone());
                if w.data.is_empty() {
                    return; // forwarded stream-header packet: no data
                }
                let slot = entry.next_fwd_slot();
                for f in &entry.fwd {
                    a.ops.send(
                        f.dst,
                        Frame::Write(WritePkt {
                            msg: f.msg,
                            pkt_idx: slot,
                            total_pkts: entry.data_pkts + 1,
                            dfs: None,
                            wrh: None,
                            offset: w.offset,
                            data: w.data.clone(),
                        }),
                    );
                }
            }
            Resiliency::ErasureCode(info) => match info.role {
                EcRole::Data { chunk_idx } => {
                    let m = info.scheme.m;
                    a.ops
                        .charge_instrs(costs.ec_ph_instrs(m, w.data.len()), costs.ec_ph_ipc);
                    a.ops
                        .dma_write(entry.wrh.target_addr + w.offset as u64, w.data.clone());
                    if w.data.is_empty() {
                        return; // stream-header packet: nothing to encode
                    }
                    // Per-packet streaming encode (§VI-B): multiply by the
                    // parity coefficient, forward the product into the next
                    // stream slot.
                    let slot = entry.next_fwd_slot();
                    let scheme = info.scheme;
                    for (p, f) in entry.fwd.iter().enumerate() {
                        let coef = st.rs(scheme).parity_coef(p, chunk_idx as usize);
                        // Pooled product buffer + in-place wide-word
                        // multiply: no allocation once the ring warms up.
                        let mut ipar = st.buf_pool.borrow_mut().get_dirty(w.data.len());
                        nadfs_gfec::intermediate_parity_into(coef, &w.data, &mut ipar);
                        a.ops.send(
                            f.dst,
                            Frame::Write(WritePkt {
                                msg: f.msg,
                                pkt_idx: slot,
                                total_pkts: entry.data_pkts + 1,
                                dfs: None,
                                wrh: None,
                                offset: w.offset,
                                data: Bytes::from(ipar),
                            }),
                        );
                    }
                }
                EcRole::Parity { src_chunk, .. } => {
                    let bytes = w.data.len();
                    let instrs = (bytes as f64 * costs.ec_agg_instrs_per_byte) as u64 + 20;
                    a.ops.charge_instrs(instrs, costs.ec_ph_ipc);
                    if bytes == 0 {
                        return; // stream-header packet: nothing to XOR
                    }
                    let stripe = info.stripe;
                    let Some(sst) = st.stripes.get(&stripe) else {
                        return;
                    };
                    let k = sst.k;
                    let chunk_len = sst.chunk_len;
                    let final_addr = sst.final_addr;
                    let staging =
                        final_addr + (1 + src_chunk as u64) * chunk_len as u64 + w.offset as u64;
                    if sst.fallback {
                        // Host aggregates: stage the intermediate parity.
                        a.ops.dma_write(staging, w.data.clone());
                        return;
                    }
                    // NIC aggregation: XOR into the accumulator for this
                    // aggregation sequence (keyed by stripe and offset).
                    // The budget was reserved at header time; the buffer
                    // comes from the recycled ring (the device returns it
                    // after the final parity's DMA write retires).
                    let key = (stripe, w.offset);
                    let acc = st.accs.entry(key).or_insert_with(|| {
                        let buf = st.buf_pool.borrow_mut().get_dirty(bytes);
                        Accumulator::with_buf(buf, k as u32)
                    });
                    if bytes > acc.capacity() {
                        return; // longer than the packet that opened the sequence
                    }
                    if acc.absorb(&w.data) {
                        let acc = st.accs.remove(&key).expect("present");
                        st.acc_free += 1;
                        let parity = Bytes::from(acc.into_buf());
                        a.ops.dma_write(final_addr + w.offset as u64, parity);
                    }
                }
            },
        }
    }

    /// `DFS_request_fini` (Listing 1): flush, acknowledge, release state.
    fn completion(&mut self, a: HandlerArgs<'_>) {
        let st = state_of(a.state);
        let costs = st.costs;
        if let Frame::GatherReq(g) = a.frame {
            a.ops.charge_instrs(costs.ch_instrs, costs.ch_ipc);
            // Hand the validated gather to the NIC's gather engine once
            // the pipeline retires (refused requests were never marked).
            if st.gathers.remove(&a.msg) {
                let req = g.clone();
                a.ops.notify(HostNotify::Gather { client: a.src, req });
            }
            return;
        }
        let Some(entry) = st.req_table.remove(&a.msg) else {
            a.ops.charge_instrs(5, 1.0);
            return;
        };
        a.ops.charge_instrs(costs.ch_instrs, costs.ch_ipc);
        if !entry.accept {
            return; // NACK already sent by the header handler
        }
        let is_parity_stream = matches!(
            entry.wrh.resiliency,
            Resiliency::ErasureCode(EcInfo {
                role: EcRole::Parity { .. },
                ..
            })
        );
        if !is_parity_stream {
            // Explicit flush before acknowledging (§III-B-1).
            a.ops.wait_flush();
            let ack = AckPkt::new(a.msg, Some(entry.greq), Status::Ok);
            a.ops.send(entry.client, Frame::Ack(ack));
            return;
        }
        // Parity node: ack the client only when all k streams completed.
        let Resiliency::ErasureCode(info) = &entry.wrh.resiliency else {
            unreachable!();
        };
        let stripe = info.stripe;
        let Some(sst) = st.stripes.get_mut(&stripe) else {
            return;
        };
        sst.ch_done += 1;
        if sst.ch_done == sst.k {
            if sst.fallback {
                // Host finishes the aggregation; it will ack the client.
                let tag = EVT_EC_FALLBACK | (stripe & 0xFFFF_FFFF);
                a.ops.notify(HostNotify::Tag(tag));
            } else {
                let client = sst.client;
                let greq = sst.greq;
                let reserved = sst.reserved;
                st.stripes.remove(&stripe);
                st.acc_free += reserved;
                a.ops.wait_flush();
                let ack = AckPkt::new(a.msg, Some(greq), Status::Ok);
                a.ops.send(client, Frame::Ack(ack));
            }
        }
    }

    /// Cleanup handler (§VII): reclaim dangling state, tell the host.
    fn cleanup(&mut self, state: &mut dyn Any, msg: MsgId, ops: &mut Ops) {
        let st = state_of(state);
        let costs = st.costs;
        ops.charge_instrs(costs.cleanup_instrs, 1.0);
        st.req_table.remove(&msg);
        st.gathers.remove(&msg);
        ops.notify(HostNotify::Tag(EVT_CLEANUP | (msg.seq & 0xFFFF_FFFF)));
    }
}
