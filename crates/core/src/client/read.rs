//! The file-level read op: cache probe, resolve, fan out (per-piece
//! fetches or NIC-offloaded gathers), reassemble, reconstruct degraded
//! stripes. Its one timer is the doorbell, then the reconstruction cost.
//! A cache hit is its own tiny op: one timer, the probe latency.

use bytes::{BufMut, Bytes};
use nadfs_host::{POLL_NOTIFY, POST_SEND};
use nadfs_meta::{ChunkCopy, ReadPiece};
use nadfs_rdma::NicCore;
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{Ctx, Dur, NodeId, OpKind, SpanId, Time};
use nadfs_wire::{
    payload_checksum, DfsHeader, DfsOp, GatherCopy, GatherReadHeader, GatherReconstruct,
    GatherSegment, ReadReqHeader, RpcBody, RsScheme, Status, MAX_GATHER_SEGS,
};

use super::{deliver, ClientApp, Event, Op, ReadCompletion, ReadProtocol, ReadSlot, Routes, Step};
use crate::config::CACHE_PROBE;

/// One file-level read request (original parameters + its open span):
/// the unit the miss path consumes, and what parks on an in-flight
/// background readahead covering its range.
pub(super) struct ReadReq {
    pub(crate) token: u64,
    pub(crate) file: u64,
    pub(crate) offset: u64,
    pub(crate) len: u32,
    pub(crate) protocol: ReadProtocol,
    pub(crate) slot: Option<ReadSlot>,
    pub(crate) span: SpanId,
    pub(crate) start: Time,
}

impl ReadReq {
    /// This request's completion record: `data` is what the caller gets
    /// (empty unless `status` is `Ok`).
    fn completion(&self, end: Time, status: Status, data: Bytes) -> ReadCompletion {
        let checksum = if status == Status::Ok {
            payload_checksum(&data)
        } else {
            0
        };
        ReadCompletion {
            token: self.token,
            file: self.file,
            offset: self.offset,
            len: data.len() as u32,
            start: self.start,
            end,
            status,
            degraded_stripes: 0,
            from_cache: false,
            checksum,
            data,
        }
    }
}

/// A read answered from the client read cache, waiting out its simulated
/// probe latency before the completion is delivered.
pub(super) struct CacheHit {
    req: ReadReq,
    data: Bytes,
}

/// One degraded erasure-coded stripe within an in-flight read: the k
/// surviving shards land in `scratch`; reconstruction fills the `copy`
/// ranges of the destination buffer.
struct DegradedFetch {
    scheme: RsScheme,
    chunk_len: u32,
    /// Client-memory staging base: fetched shard `s` lands at
    /// `scratch + s * chunk_len` (slot order follows `fetched`).
    scratch: u64,
    /// Shard index (0..k+m) of each fetched slot.
    fetched: Vec<usize>,
    copy: Vec<ChunkCopy>,
}

/// The wire program a read op injects once its doorbell cost elapses.
enum ReadIssue {
    /// Per-piece fan-out: (node, remote addr, len, local addr) fetches.
    Fanout(Vec<(NodeId, u64, u32, u64)>),
    /// Offloaded gathers: one request per storage node (or per degraded
    /// stripe); each streams back as a single NIC-validated flow.
    Gather(Vec<(NodeId, GatherReadHeader)>),
}

enum Phase {
    /// Waiting out the verbs post: the timer injects the wire program.
    Posting(ReadIssue, DfsHeader),
    /// Pieces in flight.
    Fetching,
    /// Every piece landed; waiting out the reconstruction CPU cost.
    Reconstructing,
}

/// One in-flight file-level read (critical fetch or background
/// readahead tail).
pub(super) struct ReadOp {
    /// The caller's request; a readahead tail carries a synthetic one
    /// (its own range and span, no token, no slot).
    req: ReadReq,
    /// Clamped length being *fetched* from `req.offset` (the caller's
    /// range plus any readahead window, clamped to the committed size).
    fetch_len: u32,
    /// Bytes of the fetch actually delivered to the caller
    /// (`<= fetch_len`; the rest is readahead that only fills the cache).
    serve_len: u32,
    /// Length the fetch asked the resolver for, pre-clamp: when
    /// `fetch_len < fetch_want` the clamp proved the committed EOF.
    fetch_want: u32,
    /// Extent-map generation of the plan — the staleness tag the cache
    /// fill carries.
    generation: u64,
    /// Destination buffer in client memory.
    dest: u64,
    subs_left: u32,
    status: Status,
    degraded: Vec<DegradedFetch>,
    /// Degraded stripes the offloaded path delegated to on-NIC
    /// reconstruction (reported in the completion; no client rebuild).
    offloaded_degraded: u32,
    /// A readahead-tail op: fills the cache, delivers no completion, and
    /// occupies no window slot of its own.
    pub(crate) background: bool,
    /// Reads parked on this background op because its range covers
    /// theirs (they keep their window slots): instead of a duplicate
    /// resolve + fan-out they resume from the cache when the fill lands.
    pub(crate) waiters: Vec<ReadReq>,
    phase: Phase,
    /// A NACKed piece never fires its read-done, so its token is reaped
    /// with the rest at retirement.
    routes: Routes,
}

impl ClientApp {
    /// Resolve, fan out, and track one file-level read. A read-cache hit
    /// skips everything — the control-plane resolve, the capability
    /// header, the per-stripe fan-out — and completes from client memory
    /// after a probe latency. A miss resolves the range (plus a
    /// readahead window for sequential streams), fans out one network
    /// fetch per plan piece (one-sided read or RPC read), lands bytes at
    /// their destination offsets in a client-memory buffer, and stages
    /// degraded stripes' surviving shards for reconstruction at
    /// completion time.
    pub(super) fn start_read(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, req: ReadReq) {
        let Some(req) = self.serve_from_cache(nic, ctx, req) else {
            return;
        };
        if self.read_cache_enabled {
            // A range covered by an in-flight background readahead parks
            // here instead of double-fetching: the waiter resumes from
            // the cache (or the full miss path) when the fill lands.
            // Lowest covering op id: the table is a hash map, and with
            // two overlapping readaheads in flight "first found" would
            // depend on its layout.
            let covers = |op: &Op| {
                matches!(op, Op::Read(r) if r.background
                    && r.req.file == req.file
                    && r.req.offset <= req.offset
                    && req.offset + req.len as u64 <= r.req.offset + r.fetch_len as u64)
            };
            let ops = self.ops.ops.iter();
            let covering = ops.filter(|(_, op)| covers(op)).map(|(&id, _)| id).min();
            if let Some(background) = covering {
                self.span_mark(req.span, phase::READAHEAD, ctx.now());
                self.ops.park(background, req);
                return;
            }
        }
        self.start_read_miss(nic, ctx, req);
    }

    /// Answer `req` from the read cache if it holds the range: no
    /// resolve, no fan-out; the completion waits out the cache probe (the
    /// copy-out is not charged — the uncached path's completion doesn't
    /// charge one either; bytes land by DMA there). Hands the request
    /// back on a miss.
    fn serve_from_cache(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        req: ReadReq,
    ) -> Option<ReadReq> {
        if !self.read_cache_enabled {
            return Some(req);
        }
        let hit = self
            .read_cache
            .borrow_mut()
            .lookup(req.file, req.offset, req.len);
        let Some(hit) = hit else {
            return Some(req);
        };
        self.span_mark(req.span, phase::CACHE_HIT, ctx.now());
        let id = self.ops.next_id();
        let data = hit.data;
        self.ops.insert(id, Op::CacheHit(CacheHit { req, data }));
        nic.set_timer(ctx, CACHE_PROBE, id);
        None
    }

    fn deliver_read(&mut self, slot: Option<ReadSlot>, completion: ReadCompletion) {
        deliver(slot, &mut self.results.borrow_mut().file_reads, completion);
    }

    /// The probe latency elapsed: deliver the cached bytes.
    pub(super) fn finish_cache_hit(&mut self, ctx: &Ctx<'_>, hit: CacheHit) -> Step {
        let end = ctx.now() + POLL_NOTIFY;
        self.span_end(hit.req.span, end, true);
        let completion = ReadCompletion {
            from_cache: true,
            ..hit.req.completion(end, Status::Ok, hit.data)
        };
        self.deliver_read(hit.req.slot, completion);
        Step::Done(Routes::default())
    }

    /// The miss path of one read request: control-plane resolve (with
    /// readahead overfetch), async readahead split, destination alloc,
    /// and doorbell-delayed injection. `req.start` is the original
    /// request time (a parked read resumes here with its span open).
    fn start_read_miss(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, req: ReadReq) {
        let (file, offset, len) = (req.file, req.offset, req.len);
        // Miss: one control-plane resolve, overfetching a readahead
        // window when the access continues a sequential stream. A
        // resolve that fails only because the *readahead* tail crossed
        // an unreadable extent retries with the caller's exact range.
        let ra = if self.read_cache_enabled {
            self.read_cache
                .borrow_mut()
                .plan_readahead(file, offset, len)
        } else {
            0
        };
        let mut fetch_want = len.saturating_add(ra);
        self.control.borrow_mut().clear_route();
        let mut plan = self
            .control
            .borrow_mut()
            .resolve_read(file, offset, fetch_want);
        if plan.is_err() && fetch_want > len {
            fetch_want = len;
            plan = self.control.borrow_mut().resolve_read(file, offset, len);
        }
        // The resolve queued behind its metadata shard: the fan-out below
        // cannot start until the shard served it. (A resolve of an unknown
        // file routed nothing and waits for nothing.)
        let resolve_wait = Dur::from_ps(self.control.borrow_mut().admit_last(ctx.now().ps()));
        let Ok(plan) = plan else {
            // Unknown file, failed-node range, unrecoverable stripe:
            // the read completes Rejected with no data.
            self.span_end(req.span, ctx.now(), false);
            let completion = req.completion(ctx.now(), Status::Rejected, Bytes::new());
            self.deliver_read(req.slot, completion);
            return;
        };
        // Async readahead split: when the plan extends past the caller's
        // range, the tail pieces are fetched by a background op that only
        // fills the cache — the triggering miss completes without waiting
        // on readahead traffic. The piece holding the caller's last byte
        // cannot be split, so the boundary is that piece's end.
        let serve_len = plan.len.min(len);
        let mut critical_len = plan.len;
        if plan.len > serve_len {
            let mut boundary = serve_len;
            for piece in &plan.pieces {
                let (s, e) = piece_bounds(piece);
                if s < serve_len {
                    boundary = boundary.max(e);
                }
            }
            if boundary < plan.len {
                critical_len = boundary;
            }
        }
        let (critical_pieces, tail_pieces): (Vec<ReadPiece>, Vec<ReadPiece>) = plan
            .pieces
            .iter()
            .cloned()
            .partition(|p| piece_bounds(p).0 < critical_len);
        let dest = nic.memory().borrow_mut().alloc(plan.len.max(1) as u64);
        let greq = self.control.borrow_mut().alloc_greq();
        let dfs = self.dfs_header(nic, file, greq, DfsOp::Read);
        let (protocol, span) = (req.protocol, req.span);
        self.span_mark(span, phase::RESOLVED, ctx.now());
        self.trace.borrow_mut().emit_with(ctx.now(), "control", || {
            format!("resolve-read f{file} @{offset}+{fetch_want} greq={greq}")
        });
        let mut op = ReadOp {
            fetch_len: critical_len,
            serve_len,
            // When a tail split off, the critical fetch is not EOF-clamped
            // (the tail op inherits the clamp evidence).
            fetch_want: if critical_len < plan.len {
                critical_len
            } else {
                fetch_want
            },
            ..self.read_op(req, greq, plan.generation, dest)
        };
        // The verbs post (doorbell, WQE build) delays actual injection —
        // the same per-job cost the write path charges. The exec base is
        // the current time plus the resolve's shard-queue wait, not
        // `start`: a parked read resumes here after its original request
        // time.
        let t_post = nic.cpu.exec(ctx.now() + resolve_wait, POST_SEND);
        op.phase = Phase::Posting(
            self.build_read_issue(nic, &mut op, &critical_pieces, 0),
            dfs,
        );
        self.spawn_read_op(nic, ctx, op, t_post);
        if !tail_pieces.is_empty() {
            self.span_mark(span, phase::READAHEAD, ctx.now());
            let tail_len = plan.len - critical_len;
            let tail_off = offset + critical_len as u64;
            let tail_greq = self.control.borrow_mut().alloc_greq();
            let tail_dfs = self.dfs_header(nic, file, tail_greq, DfsOp::Read);
            let tail_span = self.span_begin(OpKind::Read, nic, ctx.now(), || {
                format!("readahead f{file} @{tail_off}+{tail_len}")
            });
            self.span_mark(tail_span, phase::READAHEAD, ctx.now());
            let tail_req = ReadReq {
                token: 0,
                file,
                offset: tail_off,
                len: 0,
                protocol,
                slot: None,
                span: tail_span,
                start: ctx.now(),
            };
            let mut tail_op = ReadOp {
                fetch_len: tail_len,
                fetch_want: fetch_want - critical_len,
                background: true,
                ..self.read_op(
                    tail_req,
                    tail_greq,
                    plan.generation,
                    dest + critical_len as u64,
                )
            };
            self.read_stats.borrow_mut().background_readaheads += 1;
            // Second doorbell for the background fan-out, chained after
            // the critical one on the same CPU.
            let t_tail = nic.cpu.exec(t_post, POST_SEND);
            let issue = self.build_read_issue(nic, &mut tail_op, &tail_pieces, critical_len);
            tail_op.phase = Phase::Posting(issue, tail_dfs);
            self.spawn_read_op(nic, ctx, tail_op, t_tail);
        }
    }

    /// A read op for `req` travelling under `greq` (its span correlated),
    /// with nothing fetched, served or split yet.
    fn read_op(&self, req: ReadReq, greq: u64, generation: u64, dest: u64) -> ReadOp {
        let mut routes = Routes::default();
        self.correlate(&mut routes, greq, req.span);
        ReadOp {
            req,
            fetch_len: 0,
            serve_len: 0,
            fetch_want: 0,
            generation,
            dest,
            subs_left: 0,
            status: Status::Ok,
            degraded: Vec::new(),
            offloaded_degraded: 0,
            background: false,
            waiters: Vec::new(),
            phase: Phase::Fetching,
            routes,
        }
    }

    /// Register one read op (critical or background readahead) and arm
    /// the doorbell timer that injects its wire program.
    fn spawn_read_op(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op: ReadOp, issue_at: Time) {
        let id = self.ops.next_id();
        self.ops.insert(id, Op::Read(Box::new(op)));
        nic.set_timer(ctx, issue_at.since(ctx.now()), id);
    }

    /// Build the wire program for one read op: per-piece fetches for the
    /// fan-out protocols, or per-node gather requests for the offloaded
    /// path (a degraded stripe becomes one gather to the survivor the
    /// plan names coordinator, whose NIC decodes the lost ranges as the
    /// other survivors stream in). `rebase`
    /// shifts plan-relative offsets into a background tail op's own
    /// destination window.
    fn build_read_issue(
        &mut self,
        nic: &NicCore,
        op: &mut ReadOp,
        pieces: &[ReadPiece],
        rebase: u32,
    ) -> ReadIssue {
        if op.req.protocol == ReadProtocol::Offloaded {
            let mut gathers: Vec<(NodeId, GatherReadHeader)> = Vec::new();
            // Per-node batches of healthy segments (split past the cap).
            let mut direct: Vec<(NodeId, Vec<GatherSegment>, u64)> = Vec::new();
            for piece in pieces {
                match piece {
                    ReadPiece::Hole { .. } => {} // fresh buffer reads zero
                    ReadPiece::Direct {
                        coord,
                        len,
                        dest_off,
                    } => {
                        let node = coord.node as NodeId;
                        let seg = GatherSegment {
                            coord: *coord,
                            len: *len,
                            dest_off: *dest_off - rebase,
                            shard: 0,
                        };
                        match direct
                            .iter_mut()
                            .find(|(n, segs, _)| *n == node && segs.len() < MAX_GATHER_SEGS)
                        {
                            Some((_, segs, total)) => {
                                segs.push(seg);
                                *total += *len as u64;
                            }
                            None => direct.push((node, vec![seg], *len as u64)),
                        }
                    }
                    ReadPiece::Degraded {
                        scheme,
                        chunk_len,
                        coordinator,
                        fetch,
                        copy,
                        ..
                    } => {
                        let coordinator = fetch[*coordinator].1.node as NodeId;
                        let segments = fetch
                            .iter()
                            .map(|(shard, coord)| GatherSegment {
                                coord: *coord,
                                len: *chunk_len,
                                dest_off: 0,
                                shard: *shard as u8,
                            })
                            .collect();
                        let gcopy: Vec<GatherCopy> = copy
                            .iter()
                            .map(|c| GatherCopy {
                                chunk: c.chunk as u8,
                                chunk_off: c.chunk_off,
                                len: c.len,
                                dest_off: c.dest_off - rebase,
                            })
                            .collect();
                        let total: u64 = gcopy.iter().map(|c| c.len as u64).sum();
                        op.offloaded_degraded += 1;
                        self.read_stats.borrow_mut().offloaded_degraded_stripes += 1;
                        gathers.push((
                            coordinator,
                            GatherReadHeader {
                                total_len: total as u32,
                                segments,
                                reconstruct: Some(GatherReconstruct {
                                    scheme: *scheme,
                                    chunk_len: *chunk_len,
                                    copy: gcopy,
                                }),
                            },
                        ));
                    }
                }
            }
            for (node, segments, total) in direct {
                gathers.push((
                    node,
                    GatherReadHeader {
                        total_len: total as u32,
                        segments,
                        reconstruct: None,
                    },
                ));
            }
            return ReadIssue::Gather(gathers);
        }
        let mut fetches: Vec<(NodeId, u64, u32, u64)> = Vec::new(); // (node, addr, len, local)
        for piece in pieces {
            match piece {
                ReadPiece::Hole { .. } => {} // fresh buffer reads zero
                ReadPiece::Direct {
                    coord,
                    len,
                    dest_off,
                } => {
                    fetches.push((
                        coord.node as NodeId,
                        coord.addr,
                        *len,
                        op.dest + (*dest_off - rebase) as u64,
                    ));
                }
                ReadPiece::Degraded {
                    scheme,
                    chunk_len,
                    fetch,
                    copy,
                    ..
                } => {
                    let scratch = nic
                        .memory()
                        .borrow_mut()
                        .alloc(fetch.len() as u64 * *chunk_len as u64);
                    for (slot_i, (_, coord)) in fetch.iter().enumerate() {
                        fetches.push((
                            coord.node as NodeId,
                            coord.addr,
                            *chunk_len,
                            scratch + slot_i as u64 * *chunk_len as u64,
                        ));
                    }
                    let mut rcopy = copy.clone();
                    for c in &mut rcopy {
                        c.dest_off -= rebase;
                    }
                    op.degraded.push(DegradedFetch {
                        scheme: *scheme,
                        chunk_len: *chunk_len,
                        scratch,
                        fetched: fetch.iter().map(|(i, _)| *i).collect(),
                        copy: rcopy,
                    });
                }
            }
        }
        ReadIssue::Fanout(fetches)
    }

    /// Inject the wire program of a read whose doorbell cost has elapsed.
    fn inject_read(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        id: u64,
        r: &mut ReadOp,
        issue: ReadIssue,
        dfs: DfsHeader,
    ) {
        match issue {
            ReadIssue::Fanout(fetches) => {
                for (node, addr, flen, local) in fetches {
                    let sub = self.ops.fetch_token(id, &mut r.routes);
                    let rrh = ReadReqHeader { addr, len: flen };
                    let msg = match r.req.protocol {
                        ReadProtocol::Rdma | ReadProtocol::Offloaded => {
                            nic.send_read(ctx, node, rrh, Some(dfs), local, sub)
                        }
                        ReadProtocol::Rpc => {
                            let body = RpcBody::ReadReq { dfs, rrh };
                            let msg = nic.send_rpc(ctx, node, body, Bytes::new());
                            nic.expect_read_resp(msg, local, sub);
                            msg
                        }
                    };
                    self.ops.route_msg(id, &mut r.routes, msg);
                    r.subs_left += 1;
                }
            }
            ReadIssue::Gather(gathers) => {
                for (node, grh) in gathers {
                    let sub = self.ops.fetch_token(id, &mut r.routes);
                    // Segment offsets in the header are relative to the
                    // op's destination window; the streamed flow lands
                    // there packet by packet.
                    let msg = nic.send_gather(ctx, node, dfs, grh, r.dest, sub);
                    self.ops.route_msg(id, &mut r.routes, msg);
                    r.subs_left += 1;
                    self.read_stats.borrow_mut().offloaded_reads += 1;
                }
            }
        }
        self.span_mark(r.req.span, phase::FANNED_OUT, ctx.now());
    }

    pub(super) fn step_read(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        id: u64,
        mut r: Box<ReadOp>,
        ev: Event<'_>,
    ) -> Step {
        let settled = match (ev, std::mem::replace(&mut r.phase, Phase::Fetching)) {
            (Event::Timer, Phase::Posting(issue, dfs)) => {
                self.inject_read(nic, ctx, id, &mut r, issue, dfs);
                // Zero-length or all-holes read: complete immediately.
                r.subs_left == 0
            }
            (Event::Ack(ack), Phase::Fetching) => {
                // Read NACK (capability failure / rejected region): the
                // piece will never stream back, so account it and fail
                // the op when the rest of the fan-out settles.
                self.ops.by_msg.remove(&ack.msg);
                nic.cancel_read(ack.msg);
                if ack.status != Status::Ok {
                    r.status = ack.status;
                }
                r.subs_left = r.subs_left.saturating_sub(1);
                r.subs_left == 0
            }
            (Event::ReadDone, Phase::Fetching) => {
                r.subs_left = r.subs_left.saturating_sub(1);
                if r.subs_left > 0 {
                    false
                } else if r.degraded.is_empty() || r.status != Status::Ok {
                    true
                } else {
                    // Model the reconstruction cost: the client CPU walks
                    // k shards per degraded stripe before the data is
                    // usable.
                    let stripe_bytes = |d: &DegradedFetch| d.scheme.k as u64 * d.chunk_len as u64;
                    let bytes: u64 = r.degraded.iter().map(stripe_bytes).sum();
                    let now = ctx.now();
                    let t = nic.cpu.exec(now, nic.cpu.memcpy_cost(bytes));
                    r.phase = Phase::Reconstructing;
                    nic.set_timer(ctx, t.since(now), id);
                    false
                }
            }
            (Event::Timer, Phase::Reconstructing) => true,
            (_, phase) => {
                // Not an event this state waits for: leave it be.
                r.phase = phase;
                false
            }
        };
        if settled {
            self.complete_read(nic, ctx, *r)
        } else {
            Step::Pending(Op::Read(r))
        }
    }

    /// All pieces landed (or failed): reconstruct any degraded stripes,
    /// assemble the payload, and deliver the typed completion.
    fn complete_read(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, r: ReadOp) -> Step {
        let mut status = r.status;
        let mut degraded_stripes = r.offloaded_degraded;
        if status == Status::Ok {
            for d in &r.degraded {
                if self.reconstruct_stripe(nic, r.dest, d).is_err() {
                    status = Status::Rejected;
                    break;
                }
                degraded_stripes += 1;
            }
        }
        let ok = status == Status::Ok;
        // Everything fetched — the caller's range, the readahead tail, and
        // any degraded-reconstructed bytes — populates the cache under the
        // plan's generation, so this client never re-fetches (or
        // re-reconstructs) it while the generation holds. An EOF-clamped
        // fetch also teaches the cache where the committed size is. A
        // plan a commit, re-homing or unlink overtook is not live: it
        // fills nothing.
        let cached = ok && self.read_cache_enabled;
        let live =
            cached && self.control.borrow().live_generation(r.req.file) == Some(r.generation);
        let data = {
            // The op's client-memory regions go back: its staged
            // survivors, and its destination window, whose bytes are
            // copied once into the file's cache run when the cache keeps
            // them, else taken as they landed. The caller gets the first
            // `serve_len` of them, a slice of that one buffer (a fetch
            // only runs past `serve_len` for readahead, which only happens
            // with the cache on).
            let mem = nic.memory();
            let mut mem = mem.borrow_mut();
            for d in &r.degraded {
                mem.free(d.scratch, d.fetched.len() as u64 * d.chunk_len as u64);
            }
            let (dest, len, serve) = (r.dest, r.fetch_len as usize, r.serve_len as usize);
            let filled = if live {
                let put = |tail: &mut dyn BufMut| mem.read_to(dest, len, tail);
                let (file, at) = (r.req.file, r.req.offset);
                let mut rc = self.read_cache.borrow_mut();
                rc.fill_with(file, r.generation, at, len, r.fetch_want, put)
            } else {
                None
            };
            match filled {
                Some(filled) => {
                    mem.free(dest, len as u64);
                    filled.prefix(serve)
                }
                None if ok => mem.take(dest, len).slice(..serve),
                None => {
                    mem.free(dest, len as u64);
                    Bytes::new()
                }
            }
        };
        if cached {
            let mut rc = self.read_cache.borrow_mut();
            if !live {
                rc.stats.stale_fills += 1;
            }
            rc.stats.readahead_bytes += (r.fetch_len - r.serve_len) as u64;
        }
        if r.background {
            // Readahead tail: the cache is populated, nothing is
            // delivered. The caller's miss already completed without
            // waiting on this.
            self.span_end(r.req.span, ctx.now(), ok);
            // Reads that parked on this fill resume now: from the cache
            // when the fill landed, else through the full miss path.
            for w in r.waiters {
                if let Some(w) = self.serve_from_cache(nic, ctx, w) {
                    self.start_read_miss(nic, ctx, w);
                }
            }
            return Step::Done(r.routes);
        }
        // The application observes completion one poll interval later
        // (CQ polling cost, same as the write path).
        let end = ctx.now() + POLL_NOTIFY;
        if degraded_stripes > 0 {
            self.span_mark(r.req.span, phase::DEGRADED, ctx.now());
        }
        self.span_mark(r.req.span, phase::REASSEMBLED, ctx.now());
        self.span_end(r.req.span, end, ok);
        let completion = ReadCompletion {
            degraded_stripes,
            ..r.req.completion(end, status, data)
        };
        self.deliver_read(r.req.slot, completion);
        Step::Done(r.routes)
    }

    /// Rebuild the missing data chunks of one degraded stripe from the
    /// staged survivors and copy the requested ranges into the
    /// destination buffer.
    fn reconstruct_stripe(
        &mut self,
        nic: &NicCore,
        dest: u64,
        d: &DegradedFetch,
    ) -> Result<(), nadfs_gfec::RsError> {
        let mut want: Vec<usize> = d.copy.iter().map(|c| c.chunk).collect();
        want.sort_unstable();
        want.dedup();
        let outs = self.rebuild_staged(nic, d.scheme, d.chunk_len, d.scratch, &d.fetched, &want)?;
        self.read_stats.borrow_mut().reconstructed_stripes += 1;
        let mem = nic.memory();
        let mut memory = mem.borrow_mut();
        for c in &d.copy {
            let o = want.binary_search(&c.chunk).expect("wanted chunk");
            let lo = c.chunk_off as usize;
            memory.write(dest + c.dest_off as u64, &outs[o][lo..lo + c.len as usize]);
        }
        let pool = nic.buf_pool();
        let mut pool = pool.borrow_mut();
        outs.into_iter().for_each(|buf| pool.put(buf));
        Ok(())
    }
}

/// Plan-relative `[start, end)` byte range one read piece covers.
fn piece_bounds(piece: &ReadPiece) -> (u32, u32) {
    match piece {
        ReadPiece::Hole { dest_off, len } | ReadPiece::Direct { dest_off, len, .. } => {
            (*dest_off, dest_off + len)
        }
        ReadPiece::Degraded { copy, .. } => copy.iter().fold((u32::MAX, 0), |(s, e), c| {
            (s.min(c.dest_off), e.max(c.dest_off + c.len))
        }),
    }
}
