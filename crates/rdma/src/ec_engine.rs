//! INEC/TriEC-style firmware erasure-coding engine (Shi & Lu, SC'19/SC'20;
//! paper §VI-A, "INEC-TriEC").
//!
//! Per-*chunk*, store-and-forward EC offload on a conventional RDMA NIC:
//!
//! * **Data node**: a data chunk lands in host memory like a normal RDMA
//!   write. The NIC EC engine is then triggered, DMA-reads the chunk back
//!   from host memory, multiplies it by the parity coefficients, and sends
//!   m intermediate parity chunks to the parity nodes.
//! * **Parity node**: intermediate parities land in host staging buffers;
//!   once all k arrived, the engine reads them back, XORs them, and writes
//!   the final parity chunk — then acknowledges the client.
//!
//! The contrast with sPIN-TriEC (per-packet streaming, no host round trips)
//! is the entire point of Fig 15.

use std::collections::HashMap;

use bytes::Bytes;
use nadfs_gfec::{ReedSolomon, RsError};
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{Bandwidth, Ctx, Dur, NodeId, SharedBufPool, Time};
use nadfs_wire::{
    AckPkt, CreditGrant, DfsHeader, EcInfo, EcRole, MsgId, ReplicaCoord, Resiliency, Status,
    WriteReqHeader,
};

use crate::nic::NicCore;

/// Firmware EC engine parameters.
#[derive(Clone, Debug)]
pub struct EcEngineConfig {
    /// Coefficient-multiply throughput of the engine (per output byte).
    pub encode_bw: Bandwidth,
    /// XOR aggregation throughput (per input byte).
    pub xor_bw: Bandwidth,
    /// Trigger/launch overhead per engine operation (WQE chain wakeup).
    pub trigger: Dur,
}

impl Default for EcEngineConfig {
    fn default() -> Self {
        EcEngineConfig {
            // TriEC/INEC-class firmware engines on ConnectX NICs encode in
            // the ~tens of Gbit/s range (Shi & Lu report single-digit GB/s
            // per NIC); triggered-WQE chains cost microseconds to fire.
            encode_bw: Bandwidth::from_gbyte_per_sec(10),
            xor_bw: Bandwidth::from_gbyte_per_sec(20),
            trigger: Dur::from_ns(5_000),
        }
    }
}

struct AggState {
    k: u8,
    chunk_len: u32,
    staged: Vec<bool>,
    staged_count: u8,
    final_addr: u64,
    greq: u64,
    client: NodeId,
    flush: Time,
}

/// Deferred engine work.
#[derive(Debug)]
pub enum EcEngineEvent {
    /// Encode the data chunk that landed at `addr` and forward intermediate
    /// parities.
    Encode {
        addr: u64,
        len: u32,
        info: EcInfo,
        dfs: Option<DfsHeader>,
        client: NodeId,
    },
    /// Aggregate the staged intermediate parities for (stripe, parity_idx).
    Aggregate { stripe: u64, parity_idx: u8 },
    /// Rebuild the missing chunks of a collected degraded gather read
    /// (survivor shards are already local — in place or staged).
    Reconstruct { gather: u64 },
}

/// The engine state on one NIC.
pub struct EcEngine {
    pub(crate) cfg: EcEngineConfig,
    rs_cache: HashMap<(u8, u8), ReedSolomon>,
    agg: HashMap<(u64, u8), AggState>,
    pub(crate) busy_until: Time,
    /// Whether this engine consumes landed EC writes (the write-path
    /// encode/aggregate offload). Engines brought up lazily for degraded
    /// gather reads leave write handling to the host software.
    consume_writes: bool,
    pub chunks_encoded: u64,
    pub parities_written: u64,
}

impl EcEngine {
    pub fn new(cfg: EcEngineConfig) -> EcEngine {
        EcEngine {
            cfg,
            rs_cache: HashMap::new(),
            agg: HashMap::new(),
            busy_until: Time::ZERO,
            consume_writes: true,
            chunks_encoded: 0,
            parities_written: 0,
        }
    }

    /// A read-only engine: reconstructs degraded gathers but does not
    /// hijack EC write handling from the node software.
    pub fn for_reads() -> EcEngine {
        let mut e = EcEngine::new(EcEngineConfig::default());
        e.consume_writes = false;
        e
    }

    fn rs(&mut self, k: u8, m: u8) -> &ReedSolomon {
        self.rs_cache
            .entry((k, m))
            .or_insert_with(|| ReedSolomon::new(k as usize, m as usize).expect("valid RS params"))
    }

    /// Does this write carry an EC role the engine should consume?
    pub fn wants(&self, wrh: &WriteReqHeader) -> bool {
        self.consume_writes && matches!(wrh.resiliency, Resiliency::ErasureCode(_))
    }
}

/// The one pooled reconstruction path (NIC gather, client degraded read,
/// client repair): stage one survivor per entry of `survivors` (its shard
/// index; `load(slot, buf)` fills slot `slot`'s `chunk_len` bytes), rebuild
/// the `want` shards into pooled buffers and hand the survivor buffers
/// back to the pool. The caller owns the returned buffers (one per `want`
/// entry, in order) and what loading and rebuilding cost on its clock.
/// On error nothing is retained.
pub fn rebuild_pooled(
    rs: &ReedSolomon,
    pool: &SharedBufPool,
    chunk_len: usize,
    survivors: &[usize],
    mut load: impl FnMut(usize, &mut [u8]),
    want: &[usize],
) -> Result<Vec<Vec<u8>>, RsError> {
    let mut staged: Vec<Vec<u8>> = Vec::with_capacity(survivors.len());
    for slot in 0..survivors.len() {
        let mut buf = pool.borrow_mut().get_dirty(chunk_len);
        load(slot, &mut buf);
        staged.push(buf);
    }
    // A shard index past k+m (a malformed plan off the wire) stages
    // nothing, and the codec rejects the short survivor set.
    let mut shards: Vec<Option<&[u8]>> = vec![None; rs.k() + rs.m()];
    for (&idx, buf) in survivors.iter().zip(&staged) {
        if let Some(shard) = shards.get_mut(idx) {
            *shard = Some(buf);
        }
    }
    let mut outs: Vec<Vec<u8>> = {
        let mut p = pool.borrow_mut();
        want.iter().map(|_| p.get_dirty(chunk_len)).collect()
    };
    let rebuilt = rs.reconstruct_into(&shards, want, &mut outs);
    let mut p = pool.borrow_mut();
    staged.into_iter().for_each(|buf| p.put(buf));
    match rebuilt {
        Ok(()) => Ok(outs),
        Err(e) => {
            outs.into_iter().for_each(|buf| p.put(buf));
            Err(e)
        }
    }
}

/// A fully-landed EC write on a firmware-EC NIC. Returns the deferred work
/// to schedule, if any, plus whether the client should get a data-chunk ack.
pub(crate) fn on_ec_write_landed(
    core: &mut NicCore,
    ctx: &mut Ctx<'_>,
    src: NodeId,
    dfs: Option<DfsHeader>,
    wrh: &WriteReqHeader,
    flush: Time,
) {
    let Resiliency::ErasureCode(info) = &wrh.resiliency else {
        return;
    };
    let info = info.clone();
    match info.role {
        EcRole::Data { .. } => {
            // Ack the client for the durable data chunk, then trigger the
            // encode pass (store-and-forward: data must be in host memory
            // first — that is the INEC model).
            let greq = dfs.map(|d| d.greq_id);
            let ack = AckPkt {
                credit: CreditGrant::ZERO,
                msg: MsgId::new(core.node() as u32, greq.unwrap_or(0)),
                greq_id: greq,
                status: Status::Ok,
            };
            let client = src;
            // Ack at flush time.
            let delay = flush.since(ctx.now());
            ctx.schedule_self(
                delay,
                Box::new(crate::nic::DeferredAck { dst: client, ack }),
            );
            let engine = core.ec.as_mut().expect("engine enabled");
            let start = flush.max(engine.busy_until) + engine.cfg.trigger;
            engine.busy_until = start;
            let ev = EcEngineEvent::Encode {
                addr: wrh.target_addr,
                len: wrh.len,
                info,
                dfs,
                client,
            };
            ctx.schedule_self(start.since(ctx.now()), Box::new(ev));
        }
        EcRole::Parity {
            parity_idx,
            src_chunk,
        } => {
            let final_coord = info
                .parity_coords
                .first()
                .copied()
                .unwrap_or(ReplicaCoord { node: 0, addr: 0 });
            let engine = core.ec.as_mut().expect("engine enabled");
            let key = (info.stripe, parity_idx);
            let st = engine.agg.entry(key).or_insert_with(|| AggState {
                k: info.scheme.k,
                chunk_len: wrh.len,
                staged: vec![false; info.scheme.k as usize],
                staged_count: 0,
                final_addr: final_coord.addr,
                greq: dfs.map(|d| d.greq_id).unwrap_or(0),
                client: dfs.map(|d| d.client as NodeId).unwrap_or(0),
                flush: Time::ZERO,
            });
            st.flush = st.flush.max(flush);
            if !st.staged[src_chunk as usize] {
                st.staged[src_chunk as usize] = true;
                st.staged_count += 1;
            }
            if st.staged_count == st.k {
                let start = st.flush.max(engine.busy_until) + engine.cfg.trigger;
                engine.busy_until = start;
                let ev = EcEngineEvent::Aggregate {
                    stripe: info.stripe,
                    parity_idx,
                };
                ctx.schedule_self(start.since(ctx.now()), Box::new(ev));
            }
        }
    }
}

impl EcEngine {
    /// Dispatch deferred engine work on `core`.
    pub fn step(core: &mut NicCore, ctx: &mut Ctx<'_>, ev: EcEngineEvent) {
        let now = ctx.now();
        match ev {
            EcEngineEvent::Encode {
                addr,
                len,
                info,
                dfs,
                client: _,
            } => {
                let EcRole::Data { chunk_idx } = info.role else {
                    return;
                };
                // DMA-read the chunk back from host memory into a pooled
                // staging buffer (store-and-forward, no fresh allocation).
                let mut chunk_buf = core.pool.borrow_mut().get_dirty(len as usize);
                let ready = core.dma.borrow_mut().read_into(now, addr, &mut chunk_buf);
                let engine = core.ec.as_mut().expect("engine enabled");
                let m = info.scheme.m;
                let k = info.scheme.k;
                // Engine compute: m coefficient-multiplied outputs.
                let compute = engine.cfg.encode_bw.tx_time(len as u64 * m as u64);
                let send_at = ready + compute;
                engine.busy_until = engine.busy_until.max(send_at);
                engine.chunks_encoded += 1;
                let coefs: Vec<u8> = (0..m)
                    .map(|p| engine.rs(k, m).parity_coef(p as usize, chunk_idx as usize))
                    .collect();
                // Build and (deferred to send_at) emit the intermediate
                // parity writes to each parity node. Each product lands in
                // a pooled buffer via the in-place wide-word kernel.
                let mut sends = Vec::new();
                for (p, coef) in coefs.into_iter().enumerate() {
                    let mut ipar = core.pool.borrow_mut().get_dirty(chunk_buf.len());
                    nadfs_gfec::intermediate_parity_into(coef, &chunk_buf, &mut ipar);
                    let coord = info.parity_coords[p];
                    // Staging layout at the parity node: final parity chunk
                    // at `coord.addr`, then k staging slots of chunk_len.
                    let staging = coord.addr + (1 + chunk_idx as u64) * len as u64;
                    let wrh = WriteReqHeader {
                        target_addr: staging,
                        len,
                        resiliency: Resiliency::ErasureCode(EcInfo {
                            scheme: info.scheme,
                            role: EcRole::Parity {
                                parity_idx: p as u8,
                                src_chunk: chunk_idx,
                            },
                            stripe: info.stripe,
                            parity_coords: vec![coord],
                        }),
                    };
                    sends.push((coord.node as NodeId, wrh, Bytes::from(ipar)));
                }
                core.pool.borrow_mut().put(chunk_buf);
                ctx.schedule_self(
                    send_at.since(now),
                    Box::new(crate::nic::DeferredWrites { sends, dfs }),
                );
            }
            EcEngineEvent::Aggregate { stripe, parity_idx } => {
                let engine = core.ec.as_mut().expect("engine enabled");
                let Some(st) = engine.agg.remove(&(stripe, parity_idx)) else {
                    return;
                };
                let xor_cost = engine.cfg.xor_bw.tx_time(st.chunk_len as u64 * st.k as u64);
                engine.parities_written += 1;
                // Read back the k staged chunks (DMA read channel) into a
                // pooled scratch buffer, XOR wide-word into a pooled
                // accumulator, write the final parity. Zero allocations in
                // steady state.
                let (mut acc, mut scratch) = {
                    let mut pool = core.pool.borrow_mut();
                    (
                        pool.get(st.chunk_len as usize),
                        pool.get_dirty(st.chunk_len as usize),
                    )
                };
                let mut ready = now;
                for j in 0..st.k {
                    let staging = st.final_addr + (1 + j as u64) * st.chunk_len as u64;
                    ready = core
                        .dma
                        .borrow_mut()
                        .read_into(ready, staging, &mut scratch);
                    nadfs_gfec::gf256::xor_slice(&scratch, &mut acc);
                }
                let write_done = core
                    .dma
                    .borrow_mut()
                    .write(ready + xor_cost, st.final_addr, &acc);
                {
                    let mut pool = core.pool.borrow_mut();
                    pool.put(scratch);
                    pool.put(acc);
                }
                // Ack the client once the final parity is durable.
                let ack = AckPkt {
                    credit: CreditGrant::ZERO,
                    msg: MsgId::new(core.node() as u32, st.greq),
                    greq_id: Some(st.greq),
                    status: Status::Ok,
                };
                ctx.schedule_self(
                    write_done.since(now),
                    Box::new(crate::nic::DeferredAck {
                        dst: st.client,
                        ack,
                    }),
                );
            }
            EcEngineEvent::Reconstruct { gather } => {
                let Some(g) = core.gathers.get(&gather) else {
                    return;
                };
                let Some(rec) = g.grh.reconstruct.as_ref() else {
                    return;
                };
                let clen = rec.chunk_len as usize;
                // Rebuild exactly the chunks the copy list needs that no
                // survivor segment provides.
                let mut want: Vec<usize> = rec
                    .copy
                    .iter()
                    .map(|c| c.chunk as usize)
                    .filter(|c| !g.grh.segments.iter().any(|s| s.shard as usize == *c))
                    .collect();
                want.sort_unstable();
                want.dedup();
                let greq = g.greq;
                let client = g.client;
                let msg = g.msg;
                let rec_base = g.rec_base;
                if want.is_empty() {
                    // The requested ranges all live on survivors; nothing
                    // to rebuild — stream straight from the shards.
                    ctx.schedule_self(Dur::ZERO, Box::new(crate::nic::GatherStream { id: gather }));
                    return;
                }
                // DMA-read the k survivor shards back from host memory
                // (their own chunk addresses, or staging for remote ones)
                // — store-and-forward like Encode — and rebuild.
                let mut ready = now;
                let survivors: Vec<usize> =
                    g.grh.segments.iter().map(|s| s.shard as usize).collect();
                let engine = core.ec.as_mut().expect("engine enabled");
                let rebuilt = rebuild_pooled(
                    engine.rs(rec.scheme.k, rec.scheme.m),
                    &core.pool,
                    clen,
                    &survivors,
                    |i, buf| ready = core.dma.borrow_mut().read_into(ready, g.seg_addr[i], buf),
                    &want,
                );
                let Ok(outs) = rebuilt else {
                    // Malformed gather plan (wrong shard count/sizes):
                    // reject the flow rather than stream garbage.
                    if let Some(g) = core.gathers.remove(&gather) {
                        core.release_gather_staging(g.staging, g.staging_len);
                    }
                    core.send_ack(
                        ctx,
                        client,
                        AckPkt {
                            credit: CreditGrant::ZERO,
                            msg,
                            greq_id: Some(greq),
                            status: Status::Rejected,
                        },
                    );
                    return;
                };
                // Engine compute: each rebuilt byte is a k-way
                // coefficient-multiply accumulate, same channel as encode.
                let engine = core.ec.as_mut().expect("engine enabled");
                let compute = engine.cfg.encode_bw.tx_time((clen * want.len()) as u64);
                // Land the rebuilt chunks in staging so the responder can
                // stream them alongside the survivor ranges.
                let mut done = ready + compute;
                for (w, out) in want.iter().zip(&outs) {
                    done =
                        core.dma
                            .borrow_mut()
                            .write(done, rec_base + *w as u64 * clen as u64, out);
                }
                engine.busy_until = engine.busy_until.max(done);
                core.stats.borrow_mut().chunks_reconstructed += want.len() as u64;
                {
                    let mut pool = core.pool.borrow_mut();
                    for b in outs {
                        pool.put(b);
                    }
                }
                core.obs
                    .borrow_mut()
                    .spans
                    .mark_corr_once(greq, phase::NIC_RECONSTRUCTED, done);
                core.trace
                    .borrow_mut()
                    .emit_from(done, "nic", Some(core.node()), || {
                        format!("gather-reconstruct greq={greq} chunks={}", want.len())
                    });
                ctx.schedule_self(
                    done.since(now),
                    Box::new(crate::nic::GatherStream { id: gather }),
                );
            }
        }
    }
}
