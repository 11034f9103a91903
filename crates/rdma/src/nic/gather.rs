//! Gather reads: one request naming ranges on several storage nodes,
//! answered as one response flow by the node it was sent to.
//!
//! A healthy plan names ranges on the receiving node only and streams
//! them straight from host memory. A degraded one names the k survivors
//! of one stripe, and the lost ranges are decoded on the NIC as the
//! survivors arrive.
//!
//! # Degraded gathers: decode as it arrives
//!
//! The read side runs the paper's aggregation sequence (§VI, Fig 14)
//! backwards, per packet and in NIC memory. For each lost range the
//! coordinator asks every remote survivor for exactly that range of its
//! chunk, DMA-reads its own once, and multiply-accumulates every arriving
//! packet (`d_i · payload`, `d` the lost chunk's decode row) into the
//! pooled accumulator of its packet index. The moment an index has its k
//! contributions it passes through the EC engine and leaves for the
//! client; its buffer travels with it. No survivor byte and no rebuilt
//! byte touches host memory on the coordinator. The engine is armed once
//! per gather, at acceptance, so its trigger overlaps the survivor round
//! trip, and it is occupied per rebuilt packet, so concurrent gathers
//! interleave packet by packet on its queue.

use bytes::Bytes;
use nadfs_gfec::Accumulator;
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{Ctx, IdMap, NodeId};
use nadfs_wire::{
    checked_range, AckPkt, DfsHeader, Frame, GatherReadHeader, GatherReconstruct, GatherReqPkt,
    GatherSegment, MsgId, ReadReqHeader, ReadReqPkt, Status,
};

use super::read::{Ranges, ReadSink, RespFlow, StreamSink};
use super::{NicCore, NicEvent};
use crate::check::Access;
use crate::ec_engine::{EC_ENCODE_BW, TRIGGER};

/// Survivor `seg` of stream `stream` of degraded gather `gather`: whose
/// packets a fetch's response, or a batch read from this node's own
/// memory, carries.
#[derive(Clone, Copy)]
pub(crate) struct Survivor {
    pub(crate) gather: u64,
    stream: u16,
    seg: u8,
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
struct DecodeGather {
    greq: u64,
    /// The response flow of the client's gather request: each rebuilt
    /// packet is one of its packets, at its range's destination offset.
    flow: RespFlow,
    /// The k survivors, in the header's order.
    segments: Vec<GatherSegment>,
    /// `rows[row * k + seg]`: coefficient of survivor `seg` in lost chunk
    /// `row` (`ReedSolomon::decode_rows`).
    rows: Vec<u8>,
    streams: Vec<DecodeStream>,
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

/// The degraded gathers decoding on a NIC, by NIC-local id.
#[derive(Default)]
pub(super) struct Gathers {
    decodes: IdMap<u64, DecodeGather>,
    next: u64,
}

impl Gathers {
    /// Whether gather `gather` is still decoding (not done, not aborted).
    pub(super) fn decoding(&self, gather: u64) -> bool {
        self.decodes.contains_key(&gather)
    }
}

impl NicCore {
    /// Offloaded gather read: ask `dst`'s NIC to collect the ranges named
    /// by `grh` (decoding lost ranges on-NIC when degraded) and stream them back
    /// as one response flow landing at `local_addr` plus each packet's
    /// destination offset; `on_read_done(token)` follows.
    pub fn send_gather(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        dfs: DfsHeader,
        grh: GatherReadHeader,
        local_addr: u64,
        token: u64,
    ) -> MsgId {
        let sink = ReadSink::Host { local_addr, token };
        self.post_read(ctx, dst, sink, |msg| {
            Frame::GatherReq(GatherReqPkt { msg, dfs, grh })
        })
    }

    /// Gather read arriving on a NIC without PsPIN: the firmware checks
    /// the capability once for the whole flow, where it holds the service
    /// key, then runs the gather. (With PsPIN installed the HPU header
    /// handler checks it, and the completion handler hands it over as a
    /// [`nadfs_pspin::HostNotify`].)
    pub(super) fn on_gather_req(&mut self, ctx: &mut Ctx<'_>, src: NodeId, g: &GatherReqPkt) {
        if let Some(check) = &self.check {
            let describe = || {
                format!(
                    "gather-validate greq={} segs={} len={}",
                    g.dfs.greq_id,
                    g.grh.segments.len(),
                    g.grh.total_len
                )
            };
            let checked = check.admit(ctx.now(), Access::Gather, src, g.msg, &g.dfs, describe);
            if let Err((to, nack)) = checked {
                self.send_ack(ctx, to, nack);
                return;
            }
        }
        self.start_gather(ctx, src, g);
    }

    /// Run gather `g` from `client`, validated. A healthy plan names
    /// ranges on this node only (the client batches healthy pieces per
    /// node) and streams them straight from host memory; a degraded plan
    /// names the k survivors of one stripe, and the lost ranges stream out
    /// of the decode as the survivors arrive (`start_decode`).
    /// A plan that is neither — or that names a range past the address
    /// space, or a local range across the MR protection boundary
    /// one-sided reads honour — is answered `Rejected`. (The sPIN completion handler's
    /// [`nadfs_pspin::HostNotify::Gather`] lands here.)
    pub fn start_gather(&mut self, ctx: &mut Ctx<'_>, client: NodeId, g: &GatherReqPkt) {
        let (msg, greq, grh) = (g.msg, g.dfs.greq_id, &g.grh);
        let me = self.port.node as u32;
        let local = |s: &GatherSegment| s.coord.node == me;
        let fits = |s: &GatherSegment| match local(s) {
            true => self.mr_ok(s.coord.addr, s.len as u64),
            false => checked_range(s.coord.addr, s.len as u64).is_some(),
        };
        let accepted = grh.segments.iter().all(fits)
            && match &grh.reconstruct {
                None if grh.segments.iter().all(local) => {
                    let ranges = grh.segments.iter().filter(|s| s.len > 0);
                    let segs = ranges.map(|s| (s.coord.addr, s.len, s.dest_off)).collect();
                    self.respond(ctx, client, msg, Some(greq), Ranges::Many(segs), false);
                    true
                }
                None => false,
                Some(rec) if rec.copy.iter().all(|c| c.len == 0) => {
                    let empty = Ranges::Many(Vec::new());
                    self.respond(ctx, client, msg, Some(greq), empty, false);
                    true
                }
                Some(rec) => start_decode(self, ctx, client, msg, greq, &grh.segments, rec),
            };
        if accepted {
            self.stats.borrow_mut().gather_reads += 1;
        } else {
            let nack = AckPkt::new(msg, Some(greq), Status::Rejected);
            self.send_ack(ctx, client, nack);
        }
    }
}

/// Accept degraded gather `greq` — rebuild the `rec.copy` ranges from the
/// k survivors in `segments` and stream them to `dst` as the response flow
/// of its request `msg` — or refuse it
/// (`false`: nothing drawn, nothing sent) when the plan is malformed:
/// survivors that are not k distinct shards of the scheme, a wanted chunk
/// that is not lost, a range past the chunk.
fn start_decode(
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
    let gather = core.gathers.next;
    core.gathers.next += 1;
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
                let fetch = core.post_read(ctx, s.coord.node as NodeId, sink, |msg| {
                    Frame::ReadReq(ReadReqPkt {
                        msg,
                        dfs: None,
                        rrh,
                    })
                });
                fetches.push(fetch);
            }
        }
    }
    core.stats.borrow_mut().gather_remote_fetches += fetches.len() as u64;
    let flow = RespFlow {
        dst,
        msg,
        total_pkts,
    };
    core.gathers.decodes.insert(
        gather,
        DecodeGather {
            greq,
            flow,
            segments: segments.to_vec(),
            rows,
            streams,
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

/// The trigger of degraded gather `gather` elapsed: the packets that
/// completed while it ran enter the engine.
pub(super) fn decode_armed(core: &mut NicCore, ctx: &mut Ctx<'_>, gather: u64) {
    let Some(g) = core.gathers.decodes.get_mut(&gather) else {
        return;
    };
    g.armed = true;
    for (stream, idx) in std::mem::take(&mut g.parked) {
        emit(core, ctx, gather, stream, idx);
    }
}

/// Packet `idx` of survivor `of` is at the NIC: scale it by its decode
/// coefficient into the packet index's accumulator. The k-th
/// contribution completes the rebuilt packet, which enters the engine
/// (or waits for the gather's trigger to elapse).
pub(super) fn absorb(core: &mut NicCore, ctx: &mut Ctx<'_>, of: Survivor, idx: u32, data: &[u8]) {
    let Survivor {
        gather,
        stream,
        seg,
    } = of;
    let Some(g) = core.gathers.decodes.get_mut(&gather) else {
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
    let g = core.gathers.decodes.get_mut(&gather).expect("live gather");
    let st = &mut g.streams[stream as usize];
    let buf = st.accs[idx as usize]
        .take()
        .expect("complete sequence")
        .into_buf();
    let offset = st.dest_off + idx * nadfs_wire::sizes::max_payload_plain();
    let pkt_idx = st.first_pkt + idx;
    let flow = g.flow;
    g.pkts_left -= 1;
    let last = g.pkts_left == 0;

    let now = ctx.now();
    let compute = EC_ENCODE_BW.tx_time(buf.len() as u64);
    let done = core.ec_occupy(now, compute);
    core.stats.borrow_mut().gather_bytes_streamed += buf.len() as u64;
    let pkt = core.pkt(flow.dst, flow.frame(pkt_idx, offset, Bytes::from(buf)));
    core.defer(ctx, done, NicEvent::SendOne(pkt));
    if last {
        let g = core.gathers.decodes.remove(&gather).expect("live gather");
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
    let Some(g) = core.gathers.decodes.remove(&gather) else {
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
    let (dst, msg) = (g.flow.dst, g.flow.msg);
    core.send_ack(ctx, dst, AckPkt::new(msg, Some(g.greq), status));
}

/// A NACK for one of this NIC's own decode fetches (a survivor refused
/// the range): the gather cannot complete, and its client hears the
/// survivor's reason. Returns whether `nack` was one.
pub(super) fn on_fetch_nack(core: &mut NicCore, ctx: &mut Ctx<'_>, nack: &AckPkt) -> bool {
    let Some(ReadSink::Decode(of)) = core.read_sink(nack.msg) else {
        return false;
    };
    abort(core, ctx, of.gather, nack.status);
    true
}
