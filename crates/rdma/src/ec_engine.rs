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
//!
//! The engine's queue is every NIC's: a degraded gather's decode
//! occupies it on a sPIN NIC too (`nic::gather`). Only the
//! staged-aggregation state is INEC's own ([`EcEngine`], from
//! [`NicCore::enable_firmware_ec`]).

use bytes::Bytes;
use nadfs_simnet::{Bandwidth, Ctx, Dur, IdMap, NodeId, Time};
use nadfs_wire::{AckPkt, DfsHeader, EcRole, MsgId, Resiliency, RsScheme, Status, WriteReqHeader};

use crate::nic::{NicCore, NicEvent};

// Rates of a TriEC/INEC-class firmware engine on a ConnectX NIC: it
// encodes in the ~tens of Gbit/s range (Shi & Lu report single-digit GB/s
// per NIC), and a triggered-WQE chain costs microseconds to fire.

/// Coefficient-multiply throughput of the firmware EC engine (per output
/// byte).
pub const EC_ENCODE_BW: Bandwidth = Bandwidth::from_gbyte_per_sec(10);
/// XOR aggregation throughput (per input byte).
const XOR_BW: Bandwidth = Bandwidth::from_gbyte_per_sec(20);
/// Trigger/launch overhead per engine operation (WQE chain wakeup).
pub(crate) const TRIGGER: Dur = Dur::from_ns(5_000);

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

/// The stripes whose intermediate parities INEC is staging.
#[derive(Default)]
pub struct EcEngine {
    agg: IdMap<(u64, u8), AggState>,
    pub chunks_encoded: u64,
}

impl EcEngine {
    /// Stripes with intermediate parities staged and their aggregation
    /// still to run (diagnostic).
    pub fn stripes_open(&self) -> usize {
        self.agg.len()
    }
}

impl NicCore {
    /// Keep the EC engine busy until `until`, from `from` or from when it
    /// frees up if that is later (no-op if it is busy past `until`
    /// already).
    pub(crate) fn ec_hold(&mut self, from: Time, until: Time) {
        let from = from.max(self.ec_busy_until);
        if until > from {
            self.ec_busy_until = until;
            self.stats.borrow_mut().ec_busy_ps += until.since(from).ps();
        }
    }

    /// Queue `work` on the EC engine, ready at `from`: it starts when the
    /// engine frees up. Returns when it is done.
    pub(crate) fn ec_occupy(&mut self, from: Time, work: Dur) -> Time {
        let start = from.max(self.ec_busy_until);
        self.ec_hold(start, start + work);
        start + work
    }
}

/// A fully-landed EC write from `src` on a firmware-EC NIC, its header
/// sound (the first packet's shape check refused any other): a data
/// chunk is acked and queued for its encode pass, an intermediate parity
/// is staged for its aggregation.
pub(crate) fn on_ec_write_landed(
    core: &mut NicCore,
    ctx: &mut Ctx<'_>,
    src: NodeId,
    dfs: Option<DfsHeader>,
    wrh: WriteReqHeader,
    flush: Time,
) {
    let Resiliency::ErasureCode(info) = &wrh.resiliency else {
        return;
    };
    let greq = dfs.map(|d| d.greq_id);
    match info.role {
        EcRole::Data { .. } => {
            // Ack the client for the durable data chunk (at flush time),
            // then trigger the encode pass (store-and-forward: data must
            // be in host memory first — that is the INEC model).
            let ack_msg = MsgId::new(core.node() as u32, greq.unwrap_or(0));
            let ack = AckPkt::new(ack_msg, greq, Status::Ok);
            core.defer(ctx, flush, NicEvent::Ack { dst: src, ack });
            let start = core.ec_occupy(flush, TRIGGER);
            core.defer(ctx, start, NicEvent::Encode { wrh, dfs });
        }
        EcRole::Parity {
            parity_idx,
            src_chunk,
        } => {
            let final_addr = info.parity_coords.first().map_or(0, |c| c.addr);
            let key = (info.stripe, parity_idx);
            let k = info.scheme.k;
            let engine = core.ec.as_mut().expect("engine enabled");
            let st = engine.agg.entry(key).or_insert_with(|| AggState {
                k,
                chunk_len: wrh.len,
                staged: vec![false; k as usize],
                staged_count: 0,
                final_addr,
                greq: greq.unwrap_or(0),
                client: dfs.map(|d| d.client as NodeId).unwrap_or(0),
                flush: Time::ZERO,
            });
            st.flush = st.flush.max(flush);
            // (A write whose k disagrees with the one that opened the
            // stripe may name a slot it does not have: it stages nothing.)
            if let Some(slot) = st.staged.get_mut(src_chunk as usize) {
                if !*slot {
                    *slot = true;
                    st.staged_count += 1;
                }
            }
            if st.staged_count == st.k {
                let staged = st.flush;
                let start = core.ec_occupy(staged, TRIGGER);
                let stripe = info.stripe;
                core.defer(ctx, start, NicEvent::Aggregate { stripe, parity_idx });
            }
        }
    }
}

/// Encode the data chunk whose write (`wrh`, `dfs`) landed and forward
/// the intermediate parities.
pub(crate) fn encode(
    core: &mut NicCore,
    ctx: &mut Ctx<'_>,
    wrh: &WriteReqHeader,
    dfs: Option<DfsHeader>,
) {
    let now = ctx.now();
    let Resiliency::ErasureCode(info) = &wrh.resiliency else {
        return;
    };
    let EcRole::Data { chunk_idx } = info.role else {
        return;
    };
    let (len, m) = (wrh.len, info.scheme.m);
    let Ok(rs) = core.codecs.get(info.scheme.k, m) else {
        return; // (a sound header names a code)
    };
    let coefs: Vec<u8> = (0..m as usize)
        .map(|p| rs.parity_coef(p, chunk_idx as usize))
        .collect();
    // DMA-read the chunk back from host memory into a pooled
    // staging buffer (store-and-forward, no fresh allocation).
    let mut chunk_buf = core.pool.borrow_mut().get_dirty(len as usize);
    let ready = core
        .dma
        .borrow_mut()
        .read_into(now, wrh.target_addr, &mut chunk_buf);
    // Engine compute: m coefficient-multiplied outputs.
    let compute = EC_ENCODE_BW.tx_time(len as u64 * m as u64);
    let send_at = ready + compute;
    core.ec.as_mut().expect("engine enabled").chunks_encoded += 1;
    core.ec_hold(now, send_at);
    // Build and (deferred to send_at) emit the intermediate
    // parity writes, each to this chunk's staging slot of its parity
    // node's region. Each product lands in a pooled buffer via the
    // in-place wide-word kernel.
    let mut writes = Vec::new();
    let staging = RsScheme::staging_slot(len, chunk_idx);
    for (p, coef) in coefs.into_iter().enumerate() {
        let mut ipar = core.pool.borrow_mut().get_dirty(chunk_buf.len());
        nadfs_gfec::intermediate_parity_into(coef, &chunk_buf, &mut ipar);
        let wrh = info.parity_stream(chunk_idx, p, staging, len);
        let node = info.parity_coords[p].node as NodeId;
        writes.push((node, dfs, wrh, Bytes::from(ipar)));
    }
    core.pool.borrow_mut().put(chunk_buf);
    core.defer(ctx, send_at, NicEvent::Writes(writes));
}

/// Aggregate the staged intermediate parities for (stripe, parity_idx).
pub(crate) fn aggregate(core: &mut NicCore, ctx: &mut Ctx<'_>, stripe: u64, parity_idx: u8) {
    let now = ctx.now();
    let engine = core.ec.as_mut().expect("engine enabled");
    let Some(st) = engine.agg.remove(&(stripe, parity_idx)) else {
        return;
    };
    let xor_cost = XOR_BW.tx_time(st.chunk_len as u64 * st.k as u64);
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
        let staging = st.final_addr + RsScheme::staging_slot(st.chunk_len, j);
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
    let ack_msg = MsgId::new(core.node() as u32, st.greq);
    let ack = AckPkt::new(ack_msg, Some(st.greq), Status::Ok);
    let dst = st.client;
    core.defer(ctx, write_done, NicEvent::Ack { dst, ack });
}
