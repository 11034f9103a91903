//! The DFS client driver: issues writes under every protocol the paper
//! evaluates and records completion latencies.
//!
//! One `ClientApp` runs above each client node's NIC. Jobs are taken from a
//! shared plan queue (filled by tests/benchmark harnesses before the run);
//! a configurable window of requests is kept in flight. Completion
//! semantics per protocol follow §IV-§VI (see [`WriteProtocol`]).
//!
//! Every in-flight operation is one entry of one table, keyed by one
//! monotone op id, and is its own small state machine (`write`, `read`,
//! `repair`, `meta`): an ack, a read completion or a timer
//! finds its op by id, the op's state says what the event means, and an
//! op that reports itself done is retired in one place. An op has at most
//! one timer outstanding, so the timer tag is the op id.

mod meta;
mod payload;
mod read;
mod repair;
mod write;

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_gfec::RsCodecs;
use nadfs_meta::{LayoutSpec, MetaCache, MetaError};
use nadfs_rdma::{NicApp, NicCore};
use nadfs_simnet::{
    Ctx, IdMap, NodeId, ObsHub, OpKind, SharedObs, SharedTrace, SpanId, TenantId, Time, Trace,
};
use nadfs_wire::{AckPkt, Capability, DfsHeader, DfsOp, MsgId, Rights, RsScheme, Status};

use crate::cache::ReadCache;
use crate::control::{RepairTask, SharedControl, WritePlacement};

use meta::MetaDone;
use read::{CacheHit, ReadOp, ReadReq};
use repair::RepairOp;
use write::{WriteOp, WriteReq};

/// Timer tag: start pulling jobs from the plan. Never an op id.
pub const KICK: u64 = 0;

/// Write protocols (the paper's comparison axes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteProtocol {
    /// Speed-of-light: single RDMA write, no policy enforcement (§IV).
    Raw,
    /// Single RDMA write through sPIN handlers (validation on the NIC).
    Spin,
    /// SEND carrying the data; storage CPU validates, copies, stores (§IV).
    Rpc,
    /// SEND request; storage CPU validates then RDMA-reads the data (§IV).
    RpcRdma,
    /// Client writes each replica itself (k writes, full trust) (§V).
    RdmaFlat,
    /// Pre-posted triggered-WQE ring with remote WQE configuration (§V).
    HyperLoop { chunk: u32 },
    /// Storage CPUs forward along the file's broadcast schedule, chunked
    /// and pipelined (CPU-Ring / CPU-PBT depending on the file policy).
    CpuBcast { chunk: u32 },
    /// One write; sPIN handlers forward per packet (sPIN-Ring / sPIN-PBT
    /// depending on the file policy) (§V).
    SpinReplicated,
    /// Per-packet streaming TriEC on PsPIN (§VI-B). `interleave` controls
    /// the client-side packet interleaving of §VI-B-1 (the ablation).
    SpinTriec { interleave: bool },
    /// Per-chunk firmware TriEC on conventional RDMA NICs (§VI-A).
    InecTriec,
}

/// A metadata operation issued by a client (paths are absolute).
#[derive(Clone, Debug)]
pub enum MetaOp {
    Mkdir { path: String },
    Create { path: String, spec: LayoutSpec },
    Lookup { path: String },
    Readdir { path: String },
    Rename { from: String, to: String },
    Unlink { path: String },
}

impl MetaOp {
    pub(crate) fn kind(&self) -> MetaOpKind {
        match self {
            MetaOp::Mkdir { .. } => MetaOpKind::Mkdir,
            MetaOp::Create { .. } => MetaOpKind::Create,
            MetaOp::Lookup { .. } => MetaOpKind::Lookup,
            MetaOp::Readdir { .. } => MetaOpKind::Readdir,
            MetaOp::Rename { .. } => MetaOpKind::Rename,
            MetaOp::Unlink { .. } => MetaOpKind::Unlink,
        }
    }
}

/// Which metadata operation a [`MetaResult`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MetaOpKind {
    Mkdir,
    Create,
    Lookup,
    Readdir,
    Rename,
    Unlink,
}

/// How a file-level read travels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadProtocol {
    /// Per-extent fan-out of one-sided RDMA reads, capability-validated on
    /// the storage NIC (the read-side analog of the sPIN write path).
    Rdma,
    /// SEND request per extent; the storage CPU validates, then streams
    /// the bytes back (the CPU baseline).
    Rpc,
    /// NIC-offloaded gather: one request per storage node; sPIN handlers
    /// validate once, the NIC streams the node's segments back as a single
    /// flow; for a degraded stripe one survivor's NIC fetches the others'
    /// lost ranges NIC-to-NIC and streams the decode instead.
    Offloaded,
}

/// Client-side read-path counters, shared out of the engine so the
/// cluster can export them after the app moves into the simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientReadStats {
    /// Degraded stripes reconstructed on the client CPU (fan-out paths).
    pub reconstructed_stripes: u64,
    /// Gather requests sent (offloaded protocol).
    pub(crate) offloaded_reads: u64,
    /// Degraded stripes delegated to on-NIC reconstruction.
    pub(crate) offloaded_degraded_stripes: u64,
    /// Background readahead-tail ops spawned by the async split.
    pub(crate) background_readaheads: u64,
}

pub(crate) type SharedClientReadStats = Rc<RefCell<ClientReadStats>>;

/// One unit of client work.
#[derive(Clone, Debug)]
pub enum Job {
    /// Legacy write with a seed-generated payload (the workload/benchmark
    /// adapter; real data goes through [`Job::WriteAt`]).
    Write {
        file: u64,
        size: u32,
        protocol: WriteProtocol,
        seed: u64,
    },
    /// Handle-API write: explicit bytes at an explicit offset (`None` =
    /// append at the cursor). The typed completion lands in `slot`.
    WriteAt {
        file: u64,
        offset: Option<u64>,
        data: Bytes,
        protocol: WriteProtocol,
        slot: Option<WriteSlot>,
    },
    /// File-level ranged read: layout resolution, per-stripe fan-out,
    /// client-side reassembly, degraded reconstruction when a storage
    /// node is marked failed.
    Read {
        file: u64,
        offset: u64,
        len: u32,
        protocol: ReadProtocol,
        token: u64,
        slot: Option<ReadSlot>,
    },
    /// Execute one background repair task: fetch surviving shards,
    /// rebuild, write the re-protected shards to their spare nodes, and
    /// commit the extent-map update. Submitted by the repair driver.
    Repair {
        task: RepairTask,
        token: u64,
        slot: RepairSlot,
    },
    /// A metadata operation (namespace traffic).
    Meta { op: MetaOp, token: u64 },
}

/// Completion record.
#[derive(Clone, Debug)]
pub struct WriteResult {
    pub greq: u64,
    pub client: NodeId,
    pub protocol: WriteProtocol,
    pub size: u32,
    pub start: Time,
    pub end: Time,
    pub status: Status,
    pub retries: u32,
    /// Checksum of the payload as sent (reads can verify against it).
    pub checksum: u64,
    /// Placement used (lets tests verify stored bytes).
    pub placement: WritePlacement,
}

/// Typed completion of one file-level read.
#[derive(Clone, Debug)]
pub struct ReadCompletion {
    pub token: u64,
    pub file: u64,
    pub offset: u64,
    /// Bytes actually returned (requests past EOF come back short).
    pub len: u32,
    pub start: Time,
    pub end: Time,
    pub status: Status,
    /// Stripes served through degraded reconstruction.
    pub degraded_stripes: u32,
    /// Served from the client read cache (no resolve, no fan-out).
    pub from_cache: bool,
    /// Checksum of `data` (compare against the writes' checksums).
    pub checksum: u64,
    pub data: Bytes,
}

/// Oneshot completion slot: the driver fills it exactly once when the op
/// completes; the submitter polls it between sim slices. This is the
/// typed per-op channel the `FsClient` facade uses instead of digging
/// through the shared [`ResultSink`].
pub type ReadSlot = Rc<RefCell<Option<ReadCompletion>>>;
pub type WriteSlot = Rc<RefCell<Option<WriteResult>>>;
pub(crate) type RepairSlot = Rc<RefCell<Option<RepairResult>>>;

/// What a finished repair task did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Erasure-coded shards (data or parity, by shard index) were
    /// reconstructed from k survivors and re-homed to spares.
    Rebuilt { shards: Vec<usize> },
    /// Lost replicas (by replica index) were cloned from a survivor.
    Cloned { replicas: Vec<usize> },
    /// Nothing referenced a failed node by the time the task ran.
    AlreadyHealthy,
    /// The extent cannot be re-protected (typed reason): plain extent on
    /// a failed node, more than m EC shards lost, or no spare node.
    Unrepairable(MetaError),
    /// The data path failed mid-repair (NACK, auth failure, busy): the
    /// driver may requeue and retry.
    Aborted(Status),
}

/// Typed completion of one repair task.
#[derive(Clone, Debug)]
pub struct RepairResult {
    pub token: u64,
    pub task: RepairTask,
    pub status: Status,
    pub outcome: RepairOutcome,
    pub start: Time,
    pub end: Time,
    /// Data-path bytes this repair moved (shards fetched + written).
    pub bytes_moved: u64,
}

/// Completion record of one metadata operation.
#[derive(Clone, Debug)]
pub struct MetaResult {
    pub token: u64,
    pub op: MetaOpKind,
    pub start: Time,
    pub end: Time,
    /// Answered from the client cache (no control round-trip).
    pub cache_hit: bool,
    /// Typed outcome: metadata misses surface as failed jobs.
    pub result: Result<(), MetaError>,
}

/// Shared sink for the completions of jobs that carry no oneshot slot
/// (a job with a slot completes into its slot only).
#[derive(Default)]
pub struct ResultSink {
    pub writes: Vec<WriteResult>,
    pub file_reads: Vec<ReadCompletion>,
    pub metas: Vec<MetaResult>,
}

pub type SharedResults = Rc<RefCell<ResultSink>>;
pub type SharedPlan = Rc<RefCell<VecDeque<Job>>>;

/// The routing keys an in-flight op holds: the wire request id its span is
/// correlated under (for a write, also the id its acks carry), the
/// messages whose acks or NACKs belong to it, and the read-done tokens of
/// its fetches. [`ClientApp::unroute`] is the one place they are dropped.
#[derive(Default)]
struct Routes {
    greq: Option<u64>,
    msgs: Vec<MsgId>,
    tokens: Vec<u64>,
}

/// One in-flight operation. The wide variants are boxed so a metadata op
/// or a cache hit moves through the table at its own size.
enum Op {
    Write(Box<WriteOp>),
    Read(Box<ReadOp>),
    Repair(Box<RepairOp>),
    Meta(MetaDone),
    CacheHit(CacheHit),
}

impl Op {
    /// Window slots the op holds: one, except that a background
    /// readahead holds one per read parked on it.
    fn window_slots(&self) -> usize {
        match self {
            Op::Read(r) if r.background => r.waiters.len(),
            _ => 1,
        }
    }
}

/// What reached an op. Which ack, and which token, was settled by the
/// routing maps; an op has one timer at a time.
enum Event<'a> {
    Ack(&'a AckPkt),
    ReadDone,
    Timer,
}

/// What an op's state machine answers: still in flight (back into the
/// table), or finished — its completion delivered — with the routing keys
/// it still holds.
enum Step {
    Pending(Op),
    Done(Routes),
}

/// Every in-flight op by id, the three maps that find an op from what the
/// NIC hands back, and the window the ops occupy.
#[derive(Default)]
struct OpTable {
    ops: IdMap<u64, Op>,
    by_greq: IdMap<u64, u64>,
    by_msg: IdMap<MsgId, u64>,
    by_token: IdMap<u64, u64>,
    last_id: u64,
    window_used: usize,
}

impl OpTable {
    /// A fresh id. Op ids and read-done tokens share one monotone sequence
    /// that is never reused: a late event for a retired op finds nothing,
    /// and "lowest id" means "oldest".
    fn next_id(&mut self) -> u64 {
        self.last_id += 1;
        self.last_id
    }

    fn insert(&mut self, id: u64, op: Op) {
        self.window_used += op.window_slots();
        self.ops.insert(id, op);
    }

    /// Detach an op so its state machine can run against the rest of the
    /// client; `None` for a stale id.
    fn take(&mut self, id: u64) -> Option<Op> {
        let op = self.ops.remove(&id)?;
        self.window_used -= op.window_slots();
        Some(op)
    }

    /// Park `req` on the background readahead `id`, whose range covers
    /// it: the waiter keeps its window slot.
    fn park(&mut self, id: u64, req: ReadReq) {
        if let Some(Op::Read(background)) = self.ops.get_mut(&id) {
            background.waiters.push(req);
            self.window_used += 1;
        }
    }

    /// A fresh read-done token for a fetch of op `id`.
    fn fetch_token(&mut self, id: u64, routes: &mut Routes) -> u64 {
        let token = self.next_id();
        self.by_token.insert(token, id);
        routes.tokens.push(token);
        token
    }

    /// Acks and NACKs naming `msg` belong to op `id`.
    fn route_msg(&mut self, id: u64, routes: &mut Routes, msg: MsgId) {
        self.by_msg.insert(msg, id);
        routes.msgs.push(msg);
    }

    /// The op an ack belongs to: by the request id it carries (acks from
    /// replicas and parity nodes name no message of ours), else by message.
    fn route_ack(&self, ack: &AckPkt) -> Option<u64> {
        let by_greq = ack.greq_id.and_then(|g| self.by_greq.get(&g));
        by_greq.or_else(|| self.by_msg.get(&ack.msg)).copied()
    }
}

/// The client node software.
pub struct ClientApp {
    control: SharedControl,
    results: SharedResults,
    plan: SharedPlan,
    window: usize,
    ops: OpTable,
    /// Issued capabilities by (file, is-read).
    caps: IdMap<(u64, bool), Capability>,
    /// Deliberately corrupt capabilities (security tests).
    pub forge_capabilities: bool,
    /// Abandon writes after the first packet (cleanup-handler tests):
    /// every Nth job is abandoned when set.
    pub abandon_every: Option<u64>,
    jobs_started: u64,
    /// Expiry stamped into issued READ capabilities (tests set this into
    /// the past to exercise capability-expired reads).
    pub read_cap_expires_at_ns: u64,
    /// Cached RS codecs for client-side reconstruction (reads and repair).
    codecs: RsCodecs,
    /// Shared read-path counters (exported by the cluster's metrics
    /// snapshot; the handle survives the app moving into the engine).
    pub(crate) read_stats: SharedClientReadStats,
    /// Client-side metadata cache (registered with the control plane for
    /// invalidation callbacks at construction).
    pub(crate) meta_cache: Rc<RefCell<MetaCache>>,
    /// Disable to measure the uncached baseline (every op round-trips).
    pub cache_enabled: bool,
    /// Client-side read cache + readahead, keyed by the extent-map
    /// generation (registered with the control plane for generation
    /// callbacks at construction).
    pub(crate) read_cache: Rc<RefCell<ReadCache>>,
    /// Disable to measure the uncached read path (every `read_at` pays a
    /// resolve plus the full fan-out).
    pub read_cache_enabled: bool,
    /// Observability hub: op spans + metrics. Constructed disabled; the
    /// cluster build replaces it with the shared, enabled hub.
    pub obs: SharedObs,
    /// Shared trace ring: control-plane calls this client makes (resolve,
    /// commit, repair planning) are annotated on the `control` track.
    pub(crate) trace: SharedTrace,
    /// Tenant id stamped into DFS headers for QoS scheduling at storage
    /// nodes. `None` means "use the node id" (each client its own tenant);
    /// the handle is shared with the cluster so tests can regroup clients
    /// after the app has moved into the engine. Repair traffic overrides
    /// this with [`nadfs_simnet::TENANT_REPAIR`].
    pub(crate) tenant: Rc<Cell<Option<TenantId>>>,
}

impl ClientApp {
    pub fn new(
        control: SharedControl,
        results: SharedResults,
        plan: SharedPlan,
        window: usize,
    ) -> ClientApp {
        let meta_cache = Rc::new(RefCell::new(MetaCache::new()));
        control.borrow_mut().register_cache(meta_cache.clone());
        let read_cache = Rc::new(RefCell::new(ReadCache::default()));
        control.borrow_mut().register_read_cache(read_cache.clone());
        ClientApp {
            control,
            results,
            plan,
            window,
            ops: OpTable::default(),
            caps: IdMap::default(),
            forge_capabilities: false,
            abandon_every: None,
            jobs_started: 0,
            read_cap_expires_at_ns: u64::MAX / 2,
            codecs: RsCodecs::default(),
            read_stats: Rc::new(RefCell::new(ClientReadStats::default())),
            meta_cache,
            cache_enabled: true,
            read_cache,
            read_cache_enabled: true,
            obs: ObsHub::disabled(),
            trace: Trace::disabled(),
            tenant: Rc::new(Cell::new(None)),
        }
    }

    /// The export track this client's spans render on.
    fn track(nic: &NicCore) -> String {
        format!("client-{}", nic.node())
    }

    /// Open a span for one client op. The label closure only runs when
    /// spans are enabled, so disabled hubs cost one branch.
    fn span_begin<F: FnOnce() -> String>(
        &self,
        kind: OpKind,
        nic: &NicCore,
        at: Time,
        label: F,
    ) -> SpanId {
        let mut obs = self.obs.borrow_mut();
        if !obs.spans.enabled() {
            return 0;
        }
        obs.spans.begin(kind, Self::track(nic), label(), at)
    }

    fn span_mark(&self, id: SpanId, name: &'static str, at: Time) {
        if id != 0 {
            self.obs.borrow_mut().spans.mark(id, name, at);
        }
    }

    fn span_end(&self, id: SpanId, at: Time, ok: bool) {
        if id != 0 {
            self.obs.borrow_mut().end_span(id, at, ok);
        }
    }

    /// Put an op's span under the wire-level request id its traffic now
    /// travels under, so storage-side validation can mark phases on it.
    /// The previous id (a retried write's, a repair's fetch phase) is
    /// dropped: nothing on the wire still carries it.
    fn correlate(&self, routes: &mut Routes, greq: u64, span: SpanId) {
        let old = routes.greq.replace(greq);
        if span != 0 {
            let mut obs = self.obs.borrow_mut();
            if let Some(old) = old {
                obs.spans.decorrelate(old);
            }
            obs.spans.correlate(greq, span);
        }
    }

    /// Drop every routing key an op holds (at retirement, or when a write
    /// goes into back-off and its old messages are dead).
    fn unroute(&mut self, routes: &mut Routes) {
        if let Some(greq) = routes.greq.take() {
            self.ops.by_greq.remove(&greq);
            self.obs.borrow_mut().spans.decorrelate(greq);
        }
        for msg in routes.msgs.drain(..) {
            self.ops.by_msg.remove(&msg);
        }
        for token in routes.tokens.drain(..) {
            self.ops.by_token.remove(&token);
        }
    }

    /// DFS header for one request on `file`. The capability is cached per
    /// file and direction: RW for writes; READ for reads, issued with the
    /// client's configured expiry so tests can exercise expired tickets.
    fn dfs_header(&mut self, nic: &NicCore, file: u64, greq: u64, op: DfsOp) -> DfsHeader {
        let client = nic.node() as u32;
        let (rights, expires) = match op {
            DfsOp::Write => (Rights::RW, u64::MAX / 2),
            DfsOp::Read => (Rights::READ, self.read_cap_expires_at_ns),
        };
        let control = &self.control;
        let mut capability = *self
            .caps
            .entry((file, op == DfsOp::Read))
            .or_insert_with(|| {
                control
                    .borrow_mut()
                    .issue_capability(client, file, rights, expires)
            });
        if self.forge_capabilities && op == DfsOp::Write {
            // Tamper: claim more rights without re-signing.
            capability.expires_at_ns = u64::MAX;
        }
        DfsHeader {
            greq_id: greq,
            op,
            client,
            // The configured group, else every client is its own tenant.
            tenant: self.tenant.get().unwrap_or(nic.node() as TenantId),
            capability,
        }
    }

    fn payload(seed: u64, len: u32) -> Bytes {
        Bytes::from(payload::payload(seed, len))
    }

    /// Rebuild the `want` shards of one stripe whose survivors were
    /// fetched into client memory at `scratch`, slot after slot
    /// (`survivors[slot]` is the slot's shard index). Buffers come from
    /// the NIC's recycled ring, the decode matrix from the codec's
    /// per-pattern cache. The caller owns the returned buffers (one per
    /// `want` entry, in order) and charges the CPU time; on error nothing
    /// is retained.
    fn rebuild_staged(
        &mut self,
        nic: &NicCore,
        scheme: RsScheme,
        chunk_len: u32,
        scratch: u64,
        survivors: &[usize],
        want: &[usize],
    ) -> Result<Vec<Vec<u8>>, nadfs_gfec::RsError> {
        let rs = self.codecs.get(scheme.k, scheme.m)?;
        let (pool, mem, clen) = (nic.buf_pool(), nic.memory(), chunk_len as usize);
        let mut p = pool.borrow_mut();
        let staged: Vec<Vec<u8>> = (0..survivors.len())
            .map(|slot| {
                let mut buf = p.get_dirty(clen);
                mem.borrow()
                    .read_into(scratch + (slot * clen) as u64, &mut buf);
                buf
            })
            .collect();
        // A shard index past k+m (a malformed plan) stages nothing, and
        // the codec rejects the short survivor set.
        let mut shards: Vec<Option<&[u8]>> = vec![None; rs.k() + rs.m()];
        for (&idx, buf) in survivors.iter().zip(&staged) {
            if let Some(shard) = shards.get_mut(idx) {
                *shard = Some(buf);
            }
        }
        let mut outs: Vec<Vec<u8>> = want.iter().map(|_| p.get_dirty(clen)).collect();
        let rebuilt = rs.reconstruct_into(&shards, want, &mut outs);
        staged.into_iter().for_each(|buf| p.put(buf));
        match rebuilt {
            Ok(()) => Ok(outs),
            Err(e) => {
                outs.into_iter().for_each(|buf| p.put(buf));
                Err(e)
            }
        }
    }

    /// Keep the window full from the plan.
    fn fill(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>) {
        while self.ops.window_used < self.window {
            let Some(job) = self.plan.borrow_mut().pop_front() else {
                return;
            };
            self.start_job(nic, ctx, job);
        }
    }

    fn start_job(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, job: Job) {
        self.jobs_started += 1;
        match job {
            Job::Write {
                file,
                size,
                protocol,
                seed,
            } => {
                let data = Self::payload(seed, size);
                let req = WriteReq {
                    file,
                    offset: None,
                    data,
                    protocol,
                    slot: None,
                };
                self.start_write(nic, ctx, req);
            }
            Job::WriteAt {
                file,
                offset,
                data,
                protocol,
                slot,
            } => {
                let req = WriteReq {
                    file,
                    offset,
                    data,
                    protocol,
                    slot,
                };
                self.start_write(nic, ctx, req);
            }
            Job::Read {
                file,
                offset,
                len,
                protocol,
                token,
                slot,
            } => {
                let start = ctx.now();
                let span = self.span_begin(OpKind::Read, nic, start, || {
                    format!("read f{file} @{offset}+{len}")
                });
                let req = ReadReq {
                    token,
                    file,
                    offset,
                    len,
                    protocol,
                    slot,
                    span,
                    start,
                };
                self.start_read(nic, ctx, req);
            }
            Job::Repair { task, token, slot } => self.start_repair(nic, ctx, task, token, slot),
            Job::Meta { op, token } => self.start_meta(nic, ctx, op, token),
        }
    }

    /// Hand one event to the op it belongs to and act on its answer. A
    /// stale id (the op already retired — e.g. an ack after a
    /// cleanup-driven completion) finds nothing and is ignored.
    fn dispatch(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, id: u64, ev: Event<'_>) {
        let Some(op) = self.ops.take(id) else {
            return;
        };
        let step = match op {
            Op::Write(w) => self.step_write(nic, ctx, id, w, ev),
            Op::Read(r) => self.step_read(nic, ctx, id, r, ev),
            Op::Repair(r) => self.step_repair(nic, ctx, id, r, ev),
            // These two wait for exactly one event.
            Op::Meta(m) if matches!(ev, Event::Timer) => self.finish_meta(ctx, m),
            Op::CacheHit(h) if matches!(ev, Event::Timer) => self.finish_cache_hit(ctx, h),
            unexpected => Step::Pending(unexpected),
        };
        match step {
            Step::Pending(op) => self.ops.insert(id, op),
            Step::Done(mut routes) => {
                // The one retirement: drop the op's routing keys, then
                // give its window slot to the next job.
                self.unroute(&mut routes);
                debug_assert!(
                    !self.ops.ops.is_empty() || self.nothing_routed(nic),
                    "client {}: the last op left routing keys or a correlated span behind",
                    nic.node()
                );
                self.fill(nic, ctx);
            }
        }
    }

    /// With no op in flight, nothing may still route to one.
    /// A disabled span book correlates nothing, so its track name is not
    /// even formatted.
    fn nothing_routed(&self, nic: &NicCore) -> bool {
        let t = &self.ops;
        let obs = self.obs.borrow();
        t.by_greq.is_empty()
            && t.by_msg.is_empty()
            && t.by_token.is_empty()
            && (!obs.spans.enabled() || obs.spans.correlated_on(&Self::track(nic)) == 0)
    }
}

/// The one completion delivery: into the op's oneshot slot when its job
/// carried one, else onto the shared sink, which plan-driven harnesses
/// drain. (The window refill that follows a completion is
/// [`ClientApp::dispatch`]'s.)
fn deliver<T>(slot: Option<Rc<RefCell<Option<T>>>>, sink: &mut Vec<T>, result: T) {
    match slot {
        Some(slot) => *slot.borrow_mut() = Some(result),
        None => sink.push(result),
    }
}

impl NicApp for ClientApp {
    fn on_ack(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, _src: NodeId, ack: AckPkt) {
        if let Some(id) = self.ops.route_ack(&ack) {
            self.dispatch(nic, ctx, id, Event::Ack(&ack));
        }
    }

    fn on_read_done(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(id) = self.ops.by_token.remove(&token) {
            self.dispatch(nic, ctx, id, Event::ReadDone);
        }
    }

    fn on_timer(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == KICK {
            self.fill(nic, ctx);
        } else {
            self.dispatch(nic, ctx, tag, Event::Timer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ClientApp;

    /// A payload's buffer is sized once: whatever its length, the vector
    /// behind it has room for less than one more word. (Reserving exactly
    /// `len` and pushing whole words doubled every length that is not a
    /// multiple of 8.)
    #[test]
    fn payload_buffer_is_not_reallocated() {
        for len in (1..=64).chain([4095, 65_535, 1_572_861]) {
            let v = ClientApp::payload(7, len).try_unwrap().expect("sole owner");
            assert_eq!(v.len(), len as usize);
            assert!(
                v.capacity() < len as usize + 8,
                "len {len}: capacity {}",
                v.capacity()
            );
        }
    }
}
