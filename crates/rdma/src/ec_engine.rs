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
//! The engine's queue is every NIC's: a degraded gather's decode occupies
//! it on a sPIN NIC too. Only the staged-aggregation state is INEC's own
//! ([`EcEngine`], from [`NicCore::enable_firmware_ec`]).
//!
//! # Degraded gathers: decode as it arrives
//!
//! The read side runs the paper's aggregation sequence (§VI, Fig 14)
//! backwards, per packet and in NIC memory. A degraded gather names the k
//! survivors of one stripe and the lost ranges the client wants. For each
//! range the coordinator asks every remote survivor for exactly that range
//! of its chunk, DMA-reads its own once, and multiply-accumulates every
//! arriving packet (`d_i · payload`, `d` the lost chunk's decode row) into
//! the pooled accumulator of its packet index. The moment an index has its
//! k contributions it passes through the engine and leaves for the client;
//! its buffer travels with it. No survivor byte and no rebuilt byte touches
//! host memory on the coordinator. The engine is armed once per gather, at
//! acceptance, so its trigger overlaps the survivor round trip, and it is
//! occupied per rebuilt packet, so concurrent gathers interleave packet by
//! packet on its queue.

use bytes::Bytes;
use nadfs_gfec::Accumulator;
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{Bandwidth, Ctx, Dur, IdMap, NodeId, Time};
use nadfs_wire::{
    AckPkt, DfsHeader, EcRole, Frame, GatherReconstruct, GatherSegment, MsgId, ReadReqHeader,
    ReadRespPkt, Resiliency, RsScheme, Status, WriteReqHeader,
};

use crate::nic::{NicCore, NicEvent, Ranges, ReadSink, StreamSink};

// Rates of a TriEC/INEC-class firmware engine on a ConnectX NIC: it
// encodes in the ~tens of Gbit/s range (Shi & Lu report single-digit GB/s
// per NIC), and a triggered-WQE chain costs microseconds to fire.

/// Coefficient-multiply throughput of the firmware EC engine (per output
/// byte).
pub const EC_ENCODE_BW: Bandwidth = Bandwidth::from_gbyte_per_sec(10);
/// XOR aggregation throughput (per input byte).
const XOR_BW: Bandwidth = Bandwidth::from_gbyte_per_sec(20);
/// Trigger/launch overhead per engine operation (WQE chain wakeup).
const TRIGGER: Dur = Dur::from_ns(5_000);

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

/// A fully-landed EC write (message `msg` from `src`) on a firmware-EC
/// NIC: a data chunk is acked and queued for its encode pass, an
/// intermediate parity is staged for its aggregation. A scheme, chunk
/// index or parity list off the wire that does not fit together is
/// refused.
pub(crate) fn on_ec_write_landed(
    core: &mut NicCore,
    ctx: &mut Ctx<'_>,
    src: NodeId,
    msg: MsgId,
    dfs: Option<DfsHeader>,
    wrh: WriteReqHeader,
    flush: Time,
) {
    let Resiliency::ErasureCode(info) = &wrh.resiliency else {
        return;
    };
    let greq = dfs.map(|d| d.greq_id);
    if !info.is_sound() {
        core.send_ack(ctx, src, AckPkt::new(msg, greq, Status::Rejected));
        return;
    }
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

/// The trigger of degraded gather `gather` elapsed: the packets that
/// completed while it ran enter the engine.
pub(crate) fn decode_armed(core: &mut NicCore, ctx: &mut Ctx<'_>, gather: u64) {
    let Some(g) = core.decodes.get_mut(&gather) else {
        return;
    };
    g.armed = true;
    for (stream, idx) in std::mem::take(&mut g.parked) {
        emit(core, ctx, gather, stream, idx);
    }
}

// --- streaming decode (degraded gathers) ---------------------------------

/// Survivor `seg` of stream `stream` of degraded gather `gather`: whose
/// packets a fetch's response, or a batch read from this node's own
/// memory, carries.
#[derive(Clone, Copy)]
pub(crate) struct Survivor {
    pub(crate) gather: u64,
    pub(crate) stream: u16,
    pub(crate) seg: u8,
}

/// One lost range being rebuilt — one `copy` entry of the gather header.
struct DecodeStream {
    /// Which of the gather's decode rows (lost chunks) this range is of.
    row: usize,
    /// Length of the range. Every survivor is read over exactly that
    /// range of its chunk and cut into packets from the range's start, so
    /// packet index i means the same bytes on all of them.
    len: u32,
    /// Flow offset and packet index of the range's first packet.
    dest_off: u32,
    first_pkt: u32,
    /// Aggregation sequences by packet index: drawn from the pool at the
    /// first contribution, gone with the packet at the k-th.
    accs: Vec<Option<Accumulator>>,
}

/// A degraded gather decoding on its coordinator NIC.
pub(crate) struct DecodeGather {
    greq: u64,
    /// The client that asked and its gather request: each rebuilt packet
    /// is a `ReadResp` of flow `msg` at its range's destination offset.
    dst: NodeId,
    msg: MsgId,
    /// The k survivors, in the header's order.
    segments: Vec<GatherSegment>,
    /// `rows[row * k + seg]`: coefficient of survivor `seg` in lost chunk
    /// `row` (`ReedSolomon::decode_rows`).
    rows: Vec<u8>,
    streams: Vec<DecodeStream>,
    /// Packets the response flow carries in all.
    total_pkts: u32,
    /// Remote fetches issued; cancelled if the gather aborts.
    fetches: Vec<MsgId>,
    /// Survivor packets still to absorb / rebuilt packets still to emit.
    contributions_left: u32,
    pkts_left: u32,
    /// Set once the engine's trigger, counted from acceptance, elapsed;
    /// packets complete before that wait in `parked`.
    armed: bool,
    parked: Vec<(u16, u32)>,
}

/// Accept degraded gather `greq` — rebuild the `rec.copy` ranges from the
/// k survivors in `segments` and stream them to `dst` as the response flow
/// of its request `msg` — or refuse it
/// (`false`: nothing drawn, nothing sent) when the plan is malformed:
/// survivors that are not k distinct shards of the scheme, a wanted chunk
/// that is not lost, a range past the chunk.
pub(crate) fn start_decode(
    core: &mut NicCore,
    ctx: &mut Ctx<'_>,
    dst: NodeId,
    msg: MsgId,
    greq: u64,
    segments: &[GatherSegment],
    rec: &GatherReconstruct,
) -> bool {
    let cap = nadfs_wire::sizes::max_payload_plain();
    let survivors: Vec<usize> = segments.iter().map(|s| s.shard as usize).collect();
    let copies = || rec.copy.iter().filter(|c| c.len > 0);
    let mut want: Vec<usize> = copies().map(|c| c.chunk as usize).collect();
    want.sort_unstable();
    want.dedup();
    let in_chunk = |end: u32| end <= rec.chunk_len && segments.iter().all(|s| end <= s.len);
    let sound = copies().all(|c| c.chunk_off.checked_add(c.len).is_some_and(in_chunk))
        && want.iter().all(|w| !survivors.contains(w))
        && copies().count() <= u16::MAX as usize;
    let rows = core
        .codecs
        .get(rec.scheme.k, rec.scheme.m)
        .and_then(|rs| rs.decode_rows(&survivors, &want));
    let (true, Ok(rows)) = (sound, rows) else {
        return false;
    };

    let mut total_pkts = 0;
    let streams: Vec<DecodeStream> = copies()
        .map(|c| {
            let n_pkts = c.len.div_ceil(cap);
            let first_pkt = total_pkts;
            total_pkts += n_pkts;
            DecodeStream {
                row: want.binary_search(&(c.chunk as usize)).expect("collected"),
                len: c.len,
                dest_off: c.dest_off,
                first_pkt,
                accs: (0..n_pkts).map(|_| None).collect(),
            }
        })
        .collect();
    let gather = core.next_decode;
    core.next_decode += 1;
    let me = core.node() as u32;
    let leg = |stream: usize, seg: usize| Survivor {
        gather,
        stream: stream as u16,
        seg: seg as u8,
    };
    // Transport-level NIC-to-NIC fetches (no DFS header: the client's
    // capability was validated once for the flow).
    let mut fetches = Vec::new();
    for (stream, c) in copies().enumerate() {
        for (seg, s) in segments.iter().enumerate() {
            if s.coord.node != me {
                let rrh = ReadReqHeader {
                    addr: s.coord.addr + c.chunk_off as u64,
                    len: c.len,
                };
                let sink = ReadSink::Decode(leg(stream, seg));
                fetches.push(core.post_read(ctx, s.coord.node as NodeId, rrh, None, sink));
            }
        }
    }
    core.stats.borrow_mut().gather_remote_fetches += fetches.len() as u64;
    core.decodes.insert(
        gather,
        DecodeGather {
            greq,
            dst,
            msg,
            segments: segments.to_vec(),
            rows,
            streams,
            total_pkts,
            fetches,
            contributions_left: total_pkts * segments.len() as u32,
            pkts_left: total_pkts,
            armed: false,
            parked: Vec::new(),
        },
    );
    // The coordinator's own survivors are DMA-read once, in batches that
    // amortize the PCIe latency like any response stream's.
    for (stream, c) in copies().enumerate() {
        for (seg, s) in segments.iter().enumerate() {
            if s.coord.node == me {
                let range = (s.coord.addr + c.chunk_off as u64, c.len, 0);
                let sink = StreamSink::Decode(leg(stream, seg));
                core.start_stream(ctx, Ranges::One(range), sink);
            }
        }
    }
    core.defer(ctx, ctx.now() + TRIGGER, NicEvent::DecodeArmed { gather });
    true
}

/// Packet `idx` of survivor `of` is at the NIC: scale it by its decode
/// coefficient into the packet index's accumulator. The k-th
/// contribution completes the rebuilt packet, which enters the engine
/// (or waits for the gather's trigger to elapse).
pub(crate) fn absorb(core: &mut NicCore, ctx: &mut Ctx<'_>, of: Survivor, idx: u32, data: &[u8]) {
    let Survivor {
        gather,
        stream,
        seg,
    } = of;
    let Some(g) = core.decodes.get_mut(&gather) else {
        return;
    };
    let cap = nadfs_wire::sizes::max_payload_plain();
    let k = g.segments.len();
    let st = &mut g.streams[stream as usize];
    let expect = st.len.saturating_sub(idx.saturating_mul(cap)).min(cap) as usize;
    if expect == 0 || data.len() != expect {
        // Not a packet of the range that was asked for.
        abort(core, ctx, gather, Status::Rejected);
        return;
    }
    let acc = st.accs[idx as usize].get_or_insert_with(|| {
        Accumulator::with_buf(core.pool.borrow_mut().get_dirty(expect), k as u32)
    });
    let complete = acc.absorb_scaled(g.rows[st.row * k + seg as usize], data);
    g.contributions_left -= 1;
    if g.contributions_left == 0 {
        let spans = &mut core.obs.borrow_mut().spans;
        spans.mark_corr_once(g.greq, phase::GATHERED, ctx.now());
    }
    if complete && g.armed {
        emit(core, ctx, gather, stream, idx);
    } else if complete {
        g.parked.push((stream, idx));
    }
}

/// Rebuilt packet `idx` of `stream` has its k contributions: occupy the
/// engine for it, behind whatever it is already doing, and send it to the
/// client when it comes out. Its accumulator's buffer is its payload.
fn emit(core: &mut NicCore, ctx: &mut Ctx<'_>, gather: u64, stream: u16, idx: u32) {
    let g = core.decodes.get_mut(&gather).expect("live gather");
    let st = &mut g.streams[stream as usize];
    let buf = st.accs[idx as usize]
        .take()
        .expect("complete sequence")
        .into_buf();
    let offset = st.dest_off + idx * nadfs_wire::sizes::max_payload_plain();
    let pkt_idx = st.first_pkt + idx;
    let (dst, msg, total_pkts) = (g.dst, g.msg, g.total_pkts);
    g.pkts_left -= 1;
    let last = g.pkts_left == 0;

    let now = ctx.now();
    let compute = EC_ENCODE_BW.tx_time(buf.len() as u64);
    let done = core.ec_occupy(now, compute);
    core.stats.borrow_mut().gather_bytes_streamed += buf.len() as u64;
    let pkt = core.pkt(
        dst,
        Frame::ReadResp(ReadRespPkt {
            msg,
            pkt_idx,
            total_pkts,
            offset,
            data: Bytes::from(buf),
        }),
    );
    core.defer(ctx, done, NicEvent::SendOne(pkt));
    if last {
        let g = core.decodes.remove(&gather).expect("live gather");
        let chunks = g.rows.len() / g.segments.len();
        core.stats.borrow_mut().chunks_reconstructed += chunks as u64;
        let spans = &mut core.obs.borrow_mut().spans;
        spans.mark_corr_once(g.greq, phase::NIC_RECONSTRUCTED, done);
        spans.mark_corr(g.greq, phase::STREAMED, done);
        core.trace
            .borrow_mut()
            .emit_from(done, "nic", Some(core.node()), || {
                format!("gather-reconstruct greq={} chunks={chunks}", g.greq)
            });
    }
}

/// Give up on `gather`: cancel its outstanding fetches (their Read credit
/// returns), hand every live accumulator back to the pool, and tell the
/// client with `status`. Packets already sent stay sent; the requester
/// drops them once it sees the NACK.
fn abort(core: &mut NicCore, ctx: &mut Ctx<'_>, gather: u64, status: Status) {
    let Some(g) = core.decodes.remove(&gather) else {
        return;
    };
    for msg in g.fetches {
        core.cancel_read(msg);
    }
    {
        let mut pool = core.pool.borrow_mut();
        let live = g.streams.into_iter().flat_map(|st| st.accs).flatten();
        live.for_each(|acc| pool.put(acc.into_buf()));
    }
    core.send_ack(ctx, g.dst, AckPkt::new(g.msg, Some(g.greq), status));
}

/// A NACK for one of this NIC's own decode fetches (a survivor refused
/// the range): the gather cannot complete, and its client hears the
/// survivor's reason. Returns whether `nack` was one.
pub(crate) fn on_fetch_nack(core: &mut NicCore, ctx: &mut Ctx<'_>, nack: &AckPkt) -> bool {
    let Some(ReadSink::Decode(of)) = core.read_sink(nack.msg) else {
        return false;
    };
    abort(core, ctx, of.gather, nack.status);
    true
}
