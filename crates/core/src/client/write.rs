//! The write op: place, post, fan out under the job's protocol, count
//! acks, commit. Its one timer is the doorbell, then (after a `Busy`
//! NACK) the retry back-off.

use bytes::Bytes;
use nadfs_host::{POLL_NOTIFY, POST_SEND};
use nadfs_rdma::NicCore;
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{Ctx, Dur, NodeId, OpKind, SpanId, Time};
use nadfs_wire::{
    payload_checksum, AckPkt, DfsHeader, DfsOp, EcInfo, EcRole, HlConfigPkt, MsgId, Pkt,
    ReplicaCoord, Resiliency, RpcBody, Status, WriteReqHeader,
};

use super::{deliver, ClientApp, Event, Op, Routes, Step, WriteProtocol, WriteResult, WriteSlot};
use crate::control::{FilePolicy, WritePlacement};

/// Buffered write-back attr updates are flushed to the control plane once
/// this many files are dirty (one round-trip for the whole batch).
const WRITEBACK_BATCH: usize = 8;

/// One write as asked for: [`super::Job::Write`] (seeded payload, append)
/// and [`super::Job::WriteAt`] both become this.
pub(super) struct WriteReq {
    pub(crate) file: u64,
    /// `None` = append at the cursor.
    pub(crate) offset: Option<u64>,
    pub(crate) data: Bytes,
    pub(crate) protocol: WriteProtocol,
    pub(crate) slot: Option<WriteSlot>,
}

impl WriteReq {
    fn size(&self) -> u32 {
        self.data.len() as u32
    }
}

enum Phase {
    /// Waiting out the verbs post, or a retry back-off: the timer issues.
    Posting,
    /// Waiting for HyperLoop config acks; then the data write goes out.
    HlConfiguring { acks_left: u32 },
    /// Data in flight; counting completion acks.
    Data,
}

/// How an event left a write.
enum Over {
    /// Still in flight.
    No,
    /// Acknowledged in full, or rejected on the wire: commit and report.
    Settled,
    /// The metadata service refused the issue or the retry placement.
    Refused,
}

/// One in-flight write.
pub(super) struct WriteOp {
    req: WriteReq,
    placement: WritePlacement,
    checksum: u64,
    start: Time,
    span: SpanId,
    acks_needed: u32,
    acks_got: u32,
    phase: Phase,
    retries: u32,
    status: Status,
    routes: Routes,
    /// Client-memory regions an RPC+RDMA write staged for the storage
    /// CPU's one-sided reads, as `(addr, len)`; freed when the write
    /// retires.
    staged: Vec<(u64, u64)>,
}

impl ClientApp {
    /// Record a write the metadata service refused (unknown file, vanished
    /// under a retry): the job completes `Rejected` instead of silently
    /// vanishing.
    fn reject_write(
        &mut self,
        nic: &NicCore,
        ctx: &Ctx<'_>,
        req: WriteReq,
        retries: u32,
        start: Time,
        span: SpanId,
    ) {
        self.span_end(span, ctx.now(), false);
        let greq = self.control.borrow_mut().alloc_greq();
        let result = WriteResult {
            greq,
            client: nic.node(),
            protocol: req.protocol,
            size: req.size(),
            start,
            end: ctx.now(),
            status: Status::Rejected,
            retries,
            checksum: 0,
            placement: WritePlacement::rejected(greq),
        };
        deliver(req.slot, &mut self.results.borrow_mut().writes, result);
    }

    /// Place one write and arm its doorbell.
    pub(super) fn start_write(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, req: WriteReq) {
        let (file, size) = (req.file, req.size());
        let placed = match req.offset {
            None => self.control.borrow_mut().place_write(file, size),
            Some(o) => self.control.borrow_mut().place_write_at(file, size, o),
        };
        // The measured latency starts when the driver decides to write;
        // the verbs post (doorbell, WQE build) delays actual injection — a
        // real cost every protocol pays.
        let start = ctx.now();
        let span = self.span_begin(OpKind::Write, nic, start, || {
            format!("write f{file} {size}B")
        });
        let Ok(placement) = placed else {
            // Typed metadata miss: the job fails, the client moves on.
            self.reject_write(nic, ctx, req, 0, start, span);
            return;
        };
        let id = self.ops.next_id();
        let mut routes = Routes::default();
        self.span_mark(span, phase::RESOLVED, start);
        self.correlate(&mut routes, placement.greq, span);
        self.trace.borrow_mut().emit_with(start, "control", || {
            format!("place-write f{file} {size}B greq={}", placement.greq)
        });
        let t_post = nic.cpu.exec(start, POST_SEND);
        let op = WriteOp {
            checksum: payload_checksum(&req.data),
            req,
            placement,
            start,
            span,
            acks_needed: 1,
            acks_got: 0,
            phase: Phase::Posting,
            retries: 0,
            status: Status::Ok,
            routes,
            staged: Vec::new(),
        };
        self.ops.insert(id, Op::Write(Box::new(op)));
        nic.set_timer(ctx, t_post.since(start), id);
    }

    pub(super) fn step_write(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        id: u64,
        mut w: Box<WriteOp>,
        ev: Event<'_>,
    ) -> Step {
        let over = match (ev, &w.phase) {
            (Event::Timer, Phase::Posting) => self.issue_write(nic, ctx, id, &mut w),
            (Event::Ack(ack), Phase::HlConfiguring { .. } | Phase::Data) => {
                self.write_acked(nic, ctx, id, &mut w, ack)
            }
            _ => Over::No,
        };
        if !matches!(over, Over::No) {
            // Retiring: a storage CPU acks an RPC+RDMA extent only after
            // its read of the staged copy completed.
            let mem = nic.memory();
            let mut mem = mem.borrow_mut();
            for (addr, len) in w.staged.drain(..) {
                mem.free(addr, len);
            }
        }
        match over {
            Over::No => Step::Pending(Op::Write(w)),
            Over::Settled => self.finish_write(nic, ctx, *w),
            Over::Refused => {
                let w = *w;
                self.reject_write(nic, ctx, w.req, w.retries, w.start, w.span);
                Step::Done(w.routes)
            }
        }
    }

    /// Inject the write's wire program. Refused when the file vanished
    /// between placement and issue (e.g. an unlink raced a retry): the
    /// job fails, it does not panic.
    fn issue_write(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        id: u64,
        w: &mut WriteOp,
    ) -> Over {
        if w.retries > 0 {
            // A retry is measured from its own issue.
            w.start = ctx.now();
        }
        let abandon = self
            .abandon_every
            .map(|n| self.jobs_started.is_multiple_of(n))
            .unwrap_or(false);
        let (file, size, protocol) = (w.req.file, w.req.size(), w.req.protocol);
        let policy = self.control.borrow().policy_of(file);
        let Ok(policy) = policy else {
            return Over::Refused;
        };
        let (data, placement) = (&w.req.data, &w.placement);
        let greq = placement.greq;
        let (msgs, staged) = (&mut w.routes.msgs, &mut w.staged);
        // Replicated files only: the header that makes the primary forward.
        let replicate = || match &policy {
            FilePolicy::Replicated { strategy, .. } => Resiliency::Replicate {
                strategy: *strategy,
                vrank: 0,
                coords: placement.replicas.clone(),
            },
            _ => panic!("{protocol:?} requires a replicated file"),
        };
        (w.acks_needed, w.acks_got) = (1, 0);
        w.phase = Phase::Data;
        match protocol {
            WriteProtocol::Spin if abandon => {
                // Abandon after the first packet of the first (or only)
                // extent; remaining extents never leave the client,
                // modeling a mid-stream client failure.
                let dfs = self.dfs_header(nic, file, greq, DfsOp::Write);
                let (target, len) = match placement.stripes.first() {
                    Some(st) => (st.coord, st.len),
                    None => (placement.primary, size),
                };
                let (msg, mut pkts) = nic.build_write_pkts(
                    target.node as NodeId,
                    Some(dfs),
                    plain_wrh(target, len),
                    data.slice(..len as usize),
                );
                pkts.truncate(1);
                nic.send_pkts(ctx, pkts);
                msgs.push(msg);
                w.acks_needed = u32::MAX; // never completes
            }
            WriteProtocol::Raw | WriteProtocol::Spin => {
                // Raw is the same wire program with no DFS header: nothing
                // for the storage NIC to validate.
                let validated = protocol == WriteProtocol::Spin;
                let dfs = validated.then(|| self.dfs_header(nic, file, greq, DfsOp::Write));
                w.acks_needed = send_extents(msgs, nic, ctx, placement, data, dfs);
            }
            WriteProtocol::Rpc | WriteProtocol::RpcRdma => {
                let inline = protocol == WriteProtocol::Rpc;
                let dfs = self.dfs_header(nic, file, greq, DfsOp::Write);
                // One independent RPC per stripe extent: each extent's
                // bytes must land at that extent's address, never overrun
                // the first extent's allocation.
                let mut off = 0usize;
                for (coord, len) in extents(placement, size) {
                    let slice = data.slice(off..off + len as usize);
                    let src_addr = if inline {
                        0
                    } else {
                        // Stage the extent in client memory for the
                        // storage-side RDMA read.
                        let mem = nic.memory();
                        let mut mem = mem.borrow_mut();
                        let a = mem.alloc(len as u64);
                        mem.write(a, &slice);
                        staged.push((a, len as u64));
                        a
                    };
                    let body = RpcBody::WriteReq {
                        dfs,
                        wrh: plain_wrh(coord, len),
                        inline_data: inline,
                        src_addr,
                        chunk_off: 0,
                        full_len: len,
                    };
                    let payload = if inline { slice } else { Bytes::new() };
                    msgs.push(nic.send_rpc(ctx, coord.node as NodeId, body, payload));
                    off += len as usize;
                }
                w.acks_needed = msgs.len() as u32;
            }
            WriteProtocol::RdmaFlat => {
                // One independent write per replica; full client trust.
                w.acks_needed = placement.replicas.len() as u32;
                for coord in &placement.replicas {
                    let wrh = plain_wrh(*coord, size);
                    msgs.push(nic.send_write(ctx, coord.node as NodeId, None, wrh, data.clone()));
                }
            }
            WriteProtocol::HyperLoop { chunk } => {
                // Phase 1: configure the ring (k parallel WQE writes);
                // the one ack that counts is the tail's data ack.
                let k = placement.replicas.len();
                w.phase = Phase::HlConfiguring {
                    acks_left: k as u32,
                };
                for (i, coord) in placement.replicas.iter().enumerate() {
                    let cfg = HlConfigPkt {
                        msg: MsgId::new(0, 0),
                        greq_id: greq,
                        local_addr: coord.addr,
                        total_len: size,
                        chunk,
                        next: placement.replicas.get(i + 1).copied(),
                        ack_client: i == k - 1,
                        frag: 0,
                        total_frags: 1,
                    };
                    msgs.push(nic.send_hl_config(ctx, coord.node as NodeId, cfg));
                }
            }
            WriteProtocol::CpuBcast { chunk } => {
                let dfs = self.dfs_header(nic, file, greq, DfsOp::Write);
                w.acks_needed = placement.replicas.len() as u32;
                let chunk = chunk.max(1).min(size.max(1));
                let mut off = 0u32;
                while off < size || (size == 0 && off == 0) {
                    let len = chunk.min(size - off);
                    let wrh = WriteReqHeader {
                        target_addr: placement.primary.addr + off as u64,
                        len,
                        resiliency: replicate(),
                    };
                    let body = RpcBody::WriteReq {
                        dfs,
                        wrh,
                        inline_data: true,
                        src_addr: 0,
                        chunk_off: off,
                        full_len: size,
                    };
                    let piece = data.slice(off as usize..(off + len) as usize);
                    msgs.push(nic.send_rpc(ctx, placement.primary.node as NodeId, body, piece));
                    off += len;
                    if size == 0 {
                        break;
                    }
                }
            }
            WriteProtocol::SpinReplicated => {
                let dfs = self.dfs_header(nic, file, greq, DfsOp::Write);
                w.acks_needed = placement.replicas.len() as u32;
                let wrh = WriteReqHeader {
                    target_addr: placement.primary.addr,
                    len: size,
                    resiliency: replicate(),
                };
                let primary = placement.primary.node as NodeId;
                msgs.push(nic.send_write(ctx, primary, Some(dfs), wrh, data.clone()));
            }
            WriteProtocol::SpinTriec { .. } | WriteProtocol::InecTriec => {
                let FilePolicy::ErasureCoded { scheme } = policy else {
                    panic!("TriEC requires an erasure-coded file");
                };
                let interleave = matches!(protocol, WriteProtocol::SpinTriec { interleave: true });
                let dfs = self.dfs_header(nic, file, greq, DfsOp::Write);
                let k = scheme.k as usize;
                w.acks_needed = (k + scheme.m as usize) as u32;
                let chunk_len = placement.chunk_len;
                // Split the block into k chunks. Full chunks are zero-copy
                // windows into the block; only a ragged tail chunk needs
                // staging (zero-padded). Its buffer is a plain allocation,
                // not one from the NIC's ring: the data node's memory
                // keeps it, so it would never return there.
                let mut per_chunk_pkts: Vec<Vec<Pkt>> = Vec::with_capacity(k);
                for (j, coord) in placement.data_chunks.iter().enumerate() {
                    let startb = (j as u32 * chunk_len).min(size) as usize;
                    let endb = ((j as u32 + 1) * chunk_len).min(size) as usize;
                    let chunk_data = if endb - startb == chunk_len as usize {
                        data.slice(startb..endb)
                    } else {
                        let mut staged = vec![0u8; chunk_len as usize];
                        staged[..endb - startb].copy_from_slice(&data[startb..endb]);
                        Bytes::from(staged)
                    };
                    let wrh = WriteReqHeader {
                        target_addr: coord.addr,
                        len: chunk_len,
                        resiliency: Resiliency::ErasureCode(EcInfo {
                            scheme,
                            role: EcRole::Data { chunk_idx: j as u8 },
                            stripe: greq,
                            parity_coords: placement.parities.clone(),
                        }),
                    };
                    let (msg, pkts) =
                        nic.build_write_pkts(coord.node as NodeId, Some(dfs), wrh, chunk_data);
                    msgs.push(msg);
                    per_chunk_pkts.push(pkts);
                }
                if interleave {
                    // §VI-B-1: interleave packets across chunks so the
                    // parity node can aggregate as streams progress: one
                    // packet of each chunk per round, in chunk order.
                    let total = per_chunk_pkts.iter().map(Vec::len).sum();
                    let mut chunks: Vec<_> =
                        per_chunk_pkts.into_iter().map(Vec::into_iter).collect();
                    let mut mixed = Vec::with_capacity(total);
                    while mixed.len() < total {
                        mixed.extend(chunks.iter_mut().filter_map(Iterator::next));
                    }
                    nic.send_pkts(ctx, mixed);
                } else {
                    for pkts in per_chunk_pkts {
                        nic.send_pkts(ctx, pkts);
                    }
                }
            }
        }
        self.span_mark(w.span, phase::FANNED_OUT, ctx.now());
        self.ops.by_greq.insert(greq, id);
        for m in &w.routes.msgs {
            self.ops.by_msg.insert(*m, id);
        }
        Over::No
    }

    /// One ack for an issued write.
    fn write_acked(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        id: u64,
        w: &mut WriteOp,
        ack: &AckPkt,
    ) -> Over {
        match ack.status {
            Status::Busy => {
                // Descriptor exhaustion: retry the whole request later
                // (§III-B: "the request is denied, and the client will
                // retry later"). The op stays in the table through the
                // back-off, so it keeps its window slot.
                self.unroute(&mut w.routes);
                w.retries += 1;
                w.phase = Phase::Posting;
                // Re-place the same logical extent (fresh addresses, no
                // cursor advance) and retry after a backoff. If the file
                // is gone by now (unlinked under us), the job fails.
                // Attr accounting needs no carrying: the write-back uses
                // the committed-size growth `commit_write` reports when
                // the retry eventually lands.
                let placed = self.control.borrow_mut().replace_write(
                    w.req.file,
                    w.req.size(),
                    w.placement.offset,
                );
                let Ok(placement) = placed else {
                    w.start = ctx.now();
                    return Over::Refused;
                };
                // The retry travels under a fresh greq: re-key the span.
                self.correlate(&mut w.routes, placement.greq, w.span);
                self.span_mark(w.span, phase::RETRIED, ctx.now());
                w.placement = placement;
                nic.set_timer(ctx, Dur::from_us(5 * w.retries as u64), id);
                Over::No
            }
            Status::AuthFailed | Status::Rejected => {
                // A rejection terminates the request immediately.
                w.status = ack.status;
                Over::Settled
            }
            Status::Ok => match &mut w.phase {
                Phase::HlConfiguring { acks_left } => {
                    *acks_left -= 1;
                    if *acks_left == 0 {
                        // Ring armed: push the data to the head node.
                        w.phase = Phase::Data;
                        let head = w.placement.replicas[0];
                        let wrh = plain_wrh(head, w.req.size());
                        let data = w.req.data.clone();
                        let msg = nic.send_write(ctx, head.node as NodeId, None, wrh, data);
                        w.routes.msgs.push(msg);
                        self.ops.by_msg.insert(msg, id);
                    }
                    Over::No
                }
                Phase::Data => {
                    w.acks_got += 1;
                    if w.acks_got >= w.acks_needed {
                        Over::Settled
                    } else {
                        Over::No
                    }
                }
                Phase::Posting => Over::No,
            },
        }
    }

    /// The write is acknowledged (or rejected on the wire): commit it and
    /// deliver the result.
    fn finish_write(&mut self, nic: &NicCore, ctx: &Ctx<'_>, w: WriteOp) -> Step {
        let (file, size, greq) = (w.req.file, w.req.size(), w.placement.greq);
        // The application observes completion one poll interval after the
        // ack reaches the NIC (CQ polling cost, charged to every protocol).
        let end = ctx.now() + POLL_NOTIFY;
        if w.status == Status::Ok {
            // The bytes are durable: commit the placement into the file's
            // extent map so reads can find them. The commit reports how
            // far the committed size actually grew — the attr write-back
            // carries that, not the placement-time delta (which would
            // count bytes of earlier placements that never committed).
            let appended = self
                .control
                .borrow_mut()
                .commit_write(file, &w.placement, size);
            self.trace.borrow_mut().emit_with(ctx.now(), "control", || {
                format!("commit-write f{file} {size}B greq={greq}")
            });
            if self.cache_enabled {
                // Write-back metadata: absorb the size/mtime update
                // locally; a batch flush pays one round-trip for many
                // writes.
                self.meta_cache
                    .borrow_mut()
                    .buffer_append(file, appended, end.as_ns() as u64);
                if self.meta_cache.borrow().dirty_count() >= WRITEBACK_BATCH {
                    self.flush_writeback();
                }
            } else {
                // Write-through: an uncached client pays one attr-update
                // round-trip per write (and never goes stale).
                let _ = self.control.borrow_mut().flush_attrs(&mut [(
                    file,
                    nadfs_meta::DirtyAttr {
                        appended,
                        mtime_ns: end.as_ns() as u64,
                    },
                )]);
            }
            if self.read_cache_enabled {
                // Write-through cache population: a read-after-write is
                // served locally without a resolve or fan-out. The fill
                // carries the live post-commit generation (none once the
                // file is unlinked), so the commit's own callback keeps it.
                let live = self.control.borrow().live_generation(file);
                self.read_cache.borrow_mut().fill_from_write(
                    file,
                    live,
                    w.placement.offset,
                    w.req.data.clone(),
                );
            }
            self.span_mark(w.span, phase::COMMITTED, ctx.now());
        }
        self.span_end(w.span, end, w.status == Status::Ok);
        let result = WriteResult {
            greq,
            client: nic.node(),
            protocol: w.req.protocol,
            size,
            start: w.start,
            end,
            status: w.status,
            retries: w.retries,
            checksum: w.checksum,
            placement: w.placement,
        };
        deliver(w.req.slot, &mut self.results.borrow_mut().writes, result);
        Step::Done(w.routes)
    }
}

/// Header of a write that lands `len` bytes at `at` and goes no further.
pub(super) fn plain_wrh(at: ReplicaCoord, len: u32) -> WriteReqHeader {
    WriteReqHeader {
        target_addr: at.addr,
        len,
        resiliency: Resiliency::None,
    }
}

/// The extents of a plain write: the stripe targets of a width > 1
/// layout, else the single extent at `primary`.
fn extents(p: &WritePlacement, size: u32) -> impl Iterator<Item = (ReplicaCoord, u32)> + '_ {
    let striped = p.stripes.len() > 1;
    let stripes = p.stripes.iter().filter(move |_| striped);
    let single = (!striped).then_some((p.primary, size));
    single.into_iter().chain(stripes.map(|s| (s.coord, s.len)))
}

/// Fan a plain write out as one write per extent (with the DFS header
/// when going through the NIC handlers), acked independently. Returns the
/// number of acks to expect.
fn send_extents(
    msgs: &mut Vec<MsgId>,
    nic: &mut NicCore,
    ctx: &mut Ctx<'_>,
    placement: &WritePlacement,
    data: &Bytes,
    dfs: Option<DfsHeader>,
) -> u32 {
    let mut off = 0usize;
    for (coord, len) in extents(placement, data.len() as u32) {
        let wrh = plain_wrh(coord, len);
        let piece = data.slice(off..off + len as usize);
        msgs.push(nic.send_write(ctx, coord.node as NodeId, dfs, wrh, piece));
        off += len as usize;
    }
    msgs.len() as u32
}
