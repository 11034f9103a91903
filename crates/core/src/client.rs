//! The DFS client driver: issues writes under every protocol the paper
//! evaluates and records completion latencies.
//!
//! One `ClientApp` runs above each client node's NIC. Jobs are taken from a
//! shared plan queue (filled by tests/benchmark harnesses before the run);
//! a configurable window of requests is kept in flight. Completion
//! semantics per protocol follow §IV-§VI (see [`WriteProtocol`]).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use nadfs_gfec::ReedSolomon;
use nadfs_meta::{CachedEntry, LayoutSpec, MetaCache, MetaError, ReadPiece};
use nadfs_rdma::{NicApp, NicCore};
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{
    Ctx, Dur, NodeId, ObsHub, OpKind, SharedObs, SharedTrace, SpanId, TenantId, Time, Trace,
    TENANT_REPAIR,
};
use nadfs_wire::{
    payload_checksum, AckPkt, Capability, DfsHeader, DfsOp, EcInfo, EcRole, GatherCopy,
    GatherReadHeader, GatherReconstruct, GatherSegment, HlConfigPkt, MsgId, Pkt, ReadReqHeader,
    ReplicaCoord, Resiliency, Rights, RpcBody, RsScheme, Status, WriteReqHeader, MAX_GATHER_SEGS,
};

use crate::cache::ReadCache;
use crate::config::MetaCosts;
use crate::control::{FilePolicy, RepairPlan, RepairTask, SharedControl, WritePlacement};

/// Timer tag: start pulling jobs from the plan.
pub const KICK: u64 = 0;
const RETRY_BASE: u64 = 0x5254_0000_0000_0000;
const ISSUE_BASE: u64 = 0x4953_0000_0000_0000;
const META_BASE: u64 = 0x4D45_0000_0000_0000;
const READ_FIN_BASE: u64 = 0x5246_0000_0000_0000;
const READ_SUB_BASE: u64 = 0x5244_0000_0000_0000;
const READ_ISSUE_BASE: u64 = 0x5249_0000_0000_0000;
const CACHE_FIN_BASE: u64 = 0x4348_0000_0000_0000;
const REPAIR_FIN_BASE: u64 = 0x5046_0000_0000_0000;
const REPAIR_SUB_BASE: u64 = 0x5052_0000_0000_0000;

/// Buffered write-back attr updates are flushed to the control plane once
/// this many files are dirty (one round-trip for the whole batch).
const WRITEBACK_BATCH: usize = 8;

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
    pub fn kind(&self) -> MetaOpKind {
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
    /// validate once, the NIC collects the node's segments (fetching
    /// remote survivors NIC-to-NIC and reconstructing degraded stripes on
    /// the firmware EC engine), and streams them back as a single flow.
    Offloaded,
}

/// Client-side read-path counters, shared out of the engine so the
/// cluster can export them after the app moves into the simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientReadStats {
    /// Degraded stripes reconstructed on the client CPU (fan-out paths).
    pub reconstructed_stripes: u64,
    /// Gather requests sent (offloaded protocol).
    pub offloaded_reads: u64,
    /// Degraded stripes delegated to on-NIC reconstruction.
    pub offloaded_degraded_stripes: u64,
    /// Background readahead-tail ops spawned by the async split.
    pub background_readaheads: u64,
}

pub type SharedClientReadStats = Rc<RefCell<ClientReadStats>>;

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
        slot: Option<RepairSlot>,
    },
    /// One-sided read of a raw region (verification / read-path latency).
    RawRead {
        node: NodeId,
        addr: u64,
        len: u32,
        token: u64,
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

/// Raw-region read completion (the legacy `Job::RawRead`).
#[derive(Clone, Debug)]
pub struct ReadResult {
    pub token: u64,
    pub end: Time,
    /// Bytes fetched.
    pub len: u32,
    /// Checksum of the fetched bytes (read-back verification).
    pub checksum: u64,
}

/// Typed completion of one file-level read.
#[derive(Clone, Debug)]
pub struct ReadCompletion {
    pub token: u64,
    pub client: NodeId,
    pub file: u64,
    pub protocol: ReadProtocol,
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
pub type RepairSlot = Rc<RefCell<Option<RepairResult>>>;

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
    pub client: NodeId,
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
    pub client: NodeId,
    pub op: MetaOpKind,
    pub start: Time,
    pub end: Time,
    /// Answered from the client cache (no control round-trip).
    pub cache_hit: bool,
    /// Typed outcome: metadata misses surface as failed jobs.
    pub result: Result<(), MetaError>,
}

/// Shared sink for completions.
#[derive(Default)]
pub struct ResultSink {
    pub writes: Vec<WriteResult>,
    pub reads: Vec<ReadResult>,
    /// File-level read completions (every one is also delivered through
    /// its oneshot slot, when the job carried one).
    pub file_reads: Vec<ReadCompletion>,
    pub metas: Vec<MetaResult>,
    /// Repair-task completions (also delivered through oneshot slots).
    pub repairs: Vec<RepairResult>,
}

pub type SharedResults = Rc<RefCell<ResultSink>>;
pub type SharedPlan = Rc<RefCell<VecDeque<Job>>>;

enum Phase {
    /// Waiting for HyperLoop config acks; then the data write goes out.
    HlConfiguring { acks_left: u32 },
    /// Data in flight; counting completion acks.
    Data,
}

struct Pending {
    job: Job,
    placement: WritePlacement,
    /// The payload (kept for HyperLoop's deferred data phase).
    data: Bytes,
    checksum: u64,
    start: Time,
    acks_needed: u32,
    acks_got: u32,
    phase: Phase,
    retries: u32,
    status: Status,
    /// Message ids belonging to this request (for greq-less acks).
    msgs: Vec<MsgId>,
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
    copy: Vec<nadfs_meta::ChunkCopy>,
}

/// One in-flight file-level read (fan-out issued, awaiting pieces).
struct PendingReadOp {
    token: u64,
    file: u64,
    protocol: ReadProtocol,
    offset: u64,
    /// Clamped length being *fetched* (caller's range plus any readahead
    /// window, clamped to the committed size).
    len: u32,
    /// Bytes of the fetch actually delivered to the caller (`<= len`;
    /// the rest is readahead that only populates the cache).
    serve_len: u32,
    /// Length the fetch asked the resolver for, pre-clamp: when
    /// `len < fetch_want` the clamp proved the committed EOF.
    fetch_want: u32,
    /// Extent-map generation of the plan — the staleness tag the cache
    /// fill carries.
    generation: u64,
    /// Destination buffer in client memory.
    dest: u64,
    start: Time,
    subs_left: u32,
    status: Status,
    degraded: Vec<DegradedFetch>,
    /// Degraded stripes the offloaded path delegated to on-NIC
    /// reconstruction (reported in the completion; no client rebuild).
    offloaded_degraded: u32,
    /// A readahead-tail op: fills the cache, delivers no completion, and
    /// does not occupy a window slot.
    background: bool,
    /// Request message ids (for NACK routing and cleanup).
    msgs: Vec<MsgId>,
    /// Sub-fetch tokens (for map cleanup: a NACKed piece never fires
    /// `on_read_done`, so its token entry must be reaped at completion).
    subs: Vec<u64>,
    slot: Option<ReadSlot>,
    /// Wire-level request id the fan-out travels under (span correlation).
    greq: u64,
    span: SpanId,
}

/// The wire program a read op injects once its doorbell cost elapses.
enum ReadIssue {
    /// Per-piece fan-out: (node, remote addr, len, local addr) fetches.
    Fanout(Vec<(NodeId, u64, u32, u64)>),
    /// Offloaded gathers: one request per storage node (or per degraded
    /// stripe); each streams back as a single NIC-validated flow.
    Gather(Vec<(NodeId, GatherReadHeader)>),
}

/// One file-level read request (original parameters + its open span):
/// the unit the miss path consumes, and what parks on an in-flight
/// background readahead covering its range.
struct ReadReq {
    token: u64,
    file: u64,
    offset: u64,
    len: u32,
    protocol: ReadProtocol,
    slot: Option<ReadSlot>,
    span: SpanId,
    start: Time,
}

/// A read answered from the client read cache, waiting out its simulated
/// probe + copy latency before the completion is delivered.
struct PendingCacheHit {
    token: u64,
    file: u64,
    protocol: ReadProtocol,
    offset: u64,
    data: Bytes,
    start: Time,
    slot: Option<ReadSlot>,
    span: SpanId,
}

/// One in-flight repair task: surviving shards stream into `scratch`,
/// rebuilt shards fan out as writes to their spare coordinates, and the
/// extent-map update commits once every write acknowledges.
struct PendingRepair {
    token: u64,
    task: RepairTask,
    plan: RepairPlan,
    /// Client-memory staging base for fetched shards (fetch-slot order).
    scratch: u64,
    start: Time,
    fetch_left: u32,
    write_acks_left: u32,
    /// False while fetching survivors; true once spare writes are out.
    writing: bool,
    bytes_moved: u64,
    msgs: Vec<MsgId>,
    subs: Vec<u64>,
    slot: Option<RepairSlot>,
    /// Wire-level request ids the task used (fetch + spare writes), all
    /// correlated to the span for storage-side phase marks.
    greqs: Vec<u64>,
    span: SpanId,
}

/// The client node software.
pub struct ClientApp {
    control: SharedControl,
    results: SharedResults,
    plan: SharedPlan,
    window: usize,
    in_flight: HashMap<u64, Pending>,
    msg_to_greq: HashMap<MsgId, u64>,
    caps: HashMap<u64, Capability>,
    /// Deliberately corrupt capabilities (security tests).
    pub forge_capabilities: bool,
    /// Abandon writes after the first packet (cleanup-handler tests):
    /// every Nth job is abandoned when set.
    pub abandon_every: Option<u64>,
    jobs_started: u64,
    /// Raw-read token → (local address, length) for checksum at completion.
    read_tokens: HashMap<u64, (u64, u32)>,
    retry_stash: Vec<(u64, Job, WritePlacement, u32)>,
    issue_stash: Vec<(u64, Job, WritePlacement, Time)>,
    /// In-flight file reads by internal op id.
    reads_in_flight: HashMap<u64, PendingReadOp>,
    /// Sub-fetch token → op id.
    read_sub_to_op: HashMap<u64, u64>,
    /// Request message → op id (NACK routing).
    read_msg_to_op: HashMap<MsgId, u64>,
    next_read_op: u64,
    next_read_sub: u64,
    /// Deferred read completions waiting out the reconstruction CPU cost.
    read_fin_stash: Vec<(u64, u64)>,
    /// Read fan-outs waiting out the verbs-post (doorbell) cost:
    /// (tag, op id, wire program, DFS header).
    read_issue_stash: Vec<(u64, u64, ReadIssue, DfsHeader)>,
    /// Cached READ capabilities by file.
    read_caps: HashMap<u64, Capability>,
    /// Expiry stamped into issued READ capabilities (tests set this into
    /// the past to exercise capability-expired reads).
    pub read_cap_expires_at_ns: u64,
    /// Cached RS codecs for client-side degraded reconstruction.
    rs_cache: HashMap<(u8, u8), ReedSolomon>,
    /// Shared read-path counters (exported by the cluster's metrics
    /// snapshot; the handle survives the app moving into the engine).
    pub read_stats: SharedClientReadStats,
    /// Background readahead ops currently in `reads_in_flight` (they do
    /// not occupy window slots).
    background_reads: usize,
    /// Reads parked on an in-flight background readahead whose range
    /// covers theirs (background op id → waiters): instead of a duplicate
    /// resolve + fan-out they resume from the cache when the fill lands.
    ra_waiters: HashMap<u64, Vec<ReadReq>>,
    /// Parked reads (they hold their window slot while waiting).
    parked_reads: usize,
    /// In-flight repair tasks by internal op id.
    repairs_in_flight: HashMap<u64, PendingRepair>,
    /// Repair shard-fetch token → repair op id.
    repair_sub_to_op: HashMap<u64, u64>,
    /// Repair request/write message → repair op id (NACKs and acks).
    repair_msg_to_op: HashMap<MsgId, u64>,
    next_repair_op: u64,
    /// Repairs waiting out the reconstruction CPU cost before their
    /// spare writes go out.
    repair_fin_stash: Vec<(u64, u64)>,
    /// Client-side metadata cache (registered with the control plane for
    /// invalidation callbacks at construction).
    pub meta_cache: Rc<RefCell<MetaCache>>,
    /// Disable to measure the uncached baseline (every op round-trips).
    pub cache_enabled: bool,
    /// Client-side read cache + readahead, keyed by the extent-map
    /// generation (registered with the control plane for generation
    /// callbacks at construction).
    pub read_cache: Rc<RefCell<ReadCache>>,
    /// Disable to measure the uncached read path (every `read_at` pays a
    /// resolve plus the full fan-out).
    pub read_cache_enabled: bool,
    /// Cache-hit completions waiting out the probe + copy latency.
    cache_fin_stash: Vec<(u64, PendingCacheHit)>,
    next_cache_tag: u64,
    /// Latency model for metadata traffic.
    pub meta_costs: MetaCosts,
    meta_in_flight: usize,
    meta_stash: Vec<(u64, PendingMeta)>,
    next_meta_tag: u64,
    /// When true, a storm of [`Job::Meta`] ops shares one
    /// [`OpKind::MetaBulk`] span carrying op-count attribution in its
    /// label instead of minting one span per op, so bulk namespace
    /// workloads cannot saturate the completed-span ring.
    pub bulk_meta_spans: bool,
    /// Open bulk span (0 when none is active).
    bulk_meta_span: SpanId,
    /// Ops attributed to the open bulk span.
    bulk_meta_ops: u64,
    /// Failed ops among them (a bulk span closes `ok` only if all passed).
    bulk_meta_errs: u64,
    /// Observability hub: op spans + metrics. Constructed disabled; the
    /// cluster build replaces it with the shared, enabled hub.
    pub obs: SharedObs,
    /// Shared trace ring: control-plane calls this client makes (resolve,
    /// commit, repair planning) are annotated on the `control` track.
    pub trace: SharedTrace,
    /// Tenant id stamped into DFS headers for QoS scheduling at storage
    /// nodes. `None` means "use the node id" (each client its own tenant);
    /// the handle is shared with the cluster so tests can regroup clients
    /// after the app has moved into the engine. Repair traffic overrides
    /// this with [`TENANT_REPAIR`].
    pub tenant: Rc<Cell<Option<TenantId>>>,
}

/// A metadata op whose (already-determined) outcome is waiting out its
/// simulated latency.
struct PendingMeta {
    token: u64,
    kind: MetaOpKind,
    start: Time,
    cache_hit: bool,
    result: Result<(), MetaError>,
    span: SpanId,
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
            in_flight: HashMap::new(),
            msg_to_greq: HashMap::new(),
            caps: HashMap::new(),
            forge_capabilities: false,
            abandon_every: None,
            jobs_started: 0,
            read_tokens: HashMap::new(),
            retry_stash: Vec::new(),
            issue_stash: Vec::new(),
            reads_in_flight: HashMap::new(),
            read_sub_to_op: HashMap::new(),
            read_msg_to_op: HashMap::new(),
            next_read_op: 0,
            next_read_sub: 0,
            read_fin_stash: Vec::new(),
            read_issue_stash: Vec::new(),
            read_caps: HashMap::new(),
            read_cap_expires_at_ns: u64::MAX / 2,
            rs_cache: HashMap::new(),
            read_stats: Rc::new(RefCell::new(ClientReadStats::default())),
            background_reads: 0,
            ra_waiters: HashMap::new(),
            parked_reads: 0,
            repairs_in_flight: HashMap::new(),
            repair_sub_to_op: HashMap::new(),
            repair_msg_to_op: HashMap::new(),
            next_repair_op: 0,
            repair_fin_stash: Vec::new(),
            meta_cache,
            cache_enabled: true,
            read_cache,
            read_cache_enabled: true,
            cache_fin_stash: Vec::new(),
            next_cache_tag: 0,
            meta_costs: MetaCosts::default(),
            meta_in_flight: 0,
            meta_stash: Vec::new(),
            next_meta_tag: 0,
            bulk_meta_spans: false,
            bulk_meta_span: 0,
            bulk_meta_ops: 0,
            bulk_meta_errs: 0,
            obs: ObsHub::disabled(),
            trace: Trace::disabled(),
            tenant: Rc::new(Cell::new(None)),
        }
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
        let track = format!("client-{}", nic.node());
        obs.spans.begin(kind, track, label(), at)
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

    /// Close the open bulk-meta span once the storm drains: no meta op in
    /// flight and none left in the plan. Stamps the final op count into
    /// the label so the single span still attributes the whole batch.
    fn finish_bulk_meta_span(&mut self, ctx: &Ctx<'_>) {
        if self.bulk_meta_span == 0
            || self.meta_in_flight > 0
            || self
                .plan
                .borrow()
                .iter()
                .any(|j| matches!(j, Job::Meta { .. }))
        {
            return;
        }
        let id = std::mem::take(&mut self.bulk_meta_span);
        let n = std::mem::take(&mut self.bulk_meta_ops);
        let errs = std::mem::take(&mut self.bulk_meta_errs);
        self.obs
            .borrow_mut()
            .spans
            .relabel(id, format!("meta-bulk n={n}"));
        self.span_end(id, ctx.now(), errs == 0);
    }

    /// Associate a wire-level request id with a span so storage-side
    /// validation can mark phases on it.
    fn span_correlate(&self, greq: u64, id: SpanId) {
        if id != 0 {
            self.obs.borrow_mut().spans.correlate(greq, id);
        }
    }

    fn span_decorrelate(&self, greq: u64) -> SpanId {
        self.obs.borrow_mut().spans.decorrelate(greq).unwrap_or(0)
    }

    fn span_of(&self, greq: u64) -> SpanId {
        self.obs.borrow().spans.corr_span(greq).unwrap_or(0)
    }

    fn capability(&mut self, nic: &NicCore, file: u64) -> Capability {
        let client = nic.node() as u32;
        let control = &self.control;
        let cap = *self.caps.entry(file).or_insert_with(|| {
            control
                .borrow_mut()
                .issue_capability(client, file, Rights::RW, u64::MAX / 2)
        });
        if self.forge_capabilities {
            // Tamper: claim more rights without re-signing.
            let mut evil = cap;
            evil.expires_at_ns = u64::MAX;
            evil
        } else {
            cap
        }
    }

    /// Tenant id for outgoing DFS traffic: the configured group if one was
    /// set, else the node id (every client is its own tenant by default).
    fn effective_tenant(&self, nic: &NicCore) -> TenantId {
        self.tenant.get().unwrap_or(nic.node() as TenantId)
    }

    fn dfs_header(&mut self, nic: &NicCore, file: u64, greq: u64) -> DfsHeader {
        DfsHeader {
            greq_id: greq,
            op: DfsOp::Write,
            client: nic.node() as u32,
            tenant: self.effective_tenant(nic),
            capability: self.capability(nic, file),
        }
    }

    /// DFS header for a read: a READ capability (cached per file), issued
    /// with the client's configured expiry so tests can exercise expired
    /// tickets.
    fn read_dfs_header(&mut self, nic: &NicCore, file: u64, greq: u64) -> DfsHeader {
        let client = nic.node() as u32;
        let expires = self.read_cap_expires_at_ns;
        let control = &self.control;
        let cap = *self.read_caps.entry(file).or_insert_with(|| {
            control
                .borrow_mut()
                .issue_capability(client, file, Rights::READ, expires)
        });
        DfsHeader {
            greq_id: greq,
            op: DfsOp::Read,
            client,
            tenant: self.effective_tenant(nic),
            capability: cap,
        }
    }

    fn payload(seed: u64, len: u32) -> Bytes {
        // Deterministic, seed-dependent content (splitmix-ish stream).
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut v = Vec::with_capacity(len as usize);
        while v.len() < len as usize {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            v.extend_from_slice(&z.to_le_bytes());
        }
        v.truncate(len as usize);
        Bytes::from(v)
    }

    fn fill(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>) {
        while self.in_flight.len()
            + self.issue_stash.len()
            + self.meta_in_flight
            + self
                .reads_in_flight
                .len()
                .saturating_sub(self.background_reads)
            + self.parked_reads
            + self.cache_fin_stash.len()
            + self.repairs_in_flight.len()
            < self.window
        {
            let Some(job) = self.plan.borrow_mut().pop_front() else {
                return;
            };
            self.start_job(nic, ctx, job);
        }
    }

    /// Record a write that failed in the metadata service before any byte
    /// moved: the job completes immediately with `Rejected` instead of
    /// silently vanishing.
    #[allow(clippy::too_many_arguments)]
    fn fail_write_job(
        &mut self,
        nic: &NicCore,
        ctx: &Ctx<'_>,
        size: u32,
        protocol: WriteProtocol,
        retries: u32,
        start: Time,
        slot: Option<WriteSlot>,
        span: SpanId,
    ) {
        self.span_end(span, ctx.now(), false);
        let greq = self.control.borrow_mut().alloc_greq();
        let result = WriteResult {
            greq,
            client: nic.node(),
            protocol,
            size,
            start,
            end: ctx.now(),
            status: Status::Rejected,
            retries,
            checksum: 0,
            placement: WritePlacement::rejected(greq),
        };
        if let Some(slot) = slot {
            *slot.borrow_mut() = Some(result.clone());
        }
        self.results.borrow_mut().writes.push(result);
    }

    fn start_job(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, job: Job) {
        self.jobs_started += 1;
        match job {
            Job::Write {
                file,
                size,
                protocol,
                ..
            } => {
                // The measured latency starts when the driver decides to
                // write; the verbs post (doorbell, WQE build) delays actual
                // injection — a real cost every protocol pays.
                let placed = self.control.borrow_mut().place_write(file, size);
                let start = ctx.now();
                let span = self.span_begin(OpKind::Write, nic, start, || {
                    format!("write f{file} {size}B")
                });
                let placement = match placed {
                    Ok(p) => p,
                    Err(_) => {
                        // Typed metadata miss: the job fails, the client
                        // moves on.
                        self.fail_write_job(nic, ctx, size, protocol, 0, start, None, span);
                        return;
                    }
                };
                self.span_mark(span, phase::RESOLVED, start);
                self.span_correlate(placement.greq, span);
                self.trace.borrow_mut().emit_with(start, "control", || {
                    format!("place-write f{file} {size}B greq={}", placement.greq)
                });
                let t_post = nic.cpu.exec(start, nic.cpu.costs.post_send);
                let tag = ISSUE_BASE | placement.greq;
                self.issue_stash
                    .push((tag, job_clone(&job), placement, start));
                nic.set_timer(ctx, t_post.since(start), tag);
            }
            Job::WriteAt {
                file,
                offset,
                ref data,
                protocol,
                ref slot,
            } => {
                let len = data.len() as u32;
                let placed = match offset {
                    None => self.control.borrow_mut().place_write(file, len),
                    Some(o) => self.control.borrow_mut().place_write_at(file, len, o),
                };
                let start = ctx.now();
                let span = self.span_begin(OpKind::Write, nic, start, || {
                    format!("write f{file} {len}B")
                });
                let placement = match placed {
                    Ok(p) => p,
                    Err(_) => {
                        self.fail_write_job(nic, ctx, len, protocol, 0, start, slot.clone(), span);
                        return;
                    }
                };
                self.span_mark(span, phase::RESOLVED, start);
                self.span_correlate(placement.greq, span);
                self.trace.borrow_mut().emit_with(start, "control", || {
                    format!("place-write f{file} {len}B greq={}", placement.greq)
                });
                let t_post = nic.cpu.exec(start, nic.cpu.costs.post_send);
                let tag = ISSUE_BASE | placement.greq;
                self.issue_stash
                    .push((tag, job_clone(&job), placement, start));
                nic.set_timer(ctx, t_post.since(start), tag);
            }
            Job::Read {
                file,
                offset,
                len,
                protocol,
                token,
                slot,
            } => {
                self.start_read(nic, ctx, file, offset, len, protocol, token, slot);
            }
            Job::Repair { task, token, slot } => {
                self.start_repair(nic, ctx, task, token, slot);
            }
            Job::RawRead {
                node,
                addr,
                len,
                token,
            } => {
                let rrh = ReadReqHeader { addr, len };
                let local = nic.memory().borrow_mut().alloc(len as u64);
                self.read_tokens.insert(token, (local, len));
                nic.send_read(ctx, node, rrh, None, local, token);
            }
            Job::Meta { op, token } => {
                self.start_meta(nic, ctx, op, token);
            }
        }
    }

    /// Flush buffered write-back attrs (one control round-trip for the
    /// whole batch). Returns true if a flush happened.
    fn flush_writeback(&mut self) -> bool {
        let dirty = self.meta_cache.borrow_mut().take_dirty();
        if dirty.is_empty() {
            return false;
        }
        let _ = self.control.borrow_mut().flush_attrs(&dirty);
        true
    }

    /// Execute a metadata op against cache + control plane. State changes
    /// apply immediately; the completion is reported after the op's
    /// simulated latency (cache probe vs. control round-trip).
    fn start_meta(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op: MetaOp, token: u64) {
        let start = ctx.now();
        let span = if self.bulk_meta_spans {
            if self.bulk_meta_span == 0 {
                self.bulk_meta_span =
                    self.span_begin(OpKind::MetaBulk, nic, start, || "meta-bulk".to_string());
            }
            self.bulk_meta_ops += 1;
            0
        } else {
            self.span_begin(OpKind::Meta, nic, start, || format!("meta {:?}", op.kind()))
        };
        let now_ns = start.as_ns() as u64;
        let costs = self.meta_costs.clone();
        let mut cost = Dur::ZERO;
        let mut cache_hit = false;
        let result: Result<(), MetaError> = match &op {
            MetaOp::Lookup { path } => {
                // A lookup must observe our own buffered appends: flush
                // write-back state first (counts as its own round-trip).
                if self.cache_enabled && self.meta_cache.borrow().dirty_count() > 0 {
                    self.flush_writeback();
                    cost += costs.control_rtt;
                }
                let cached = if self.cache_enabled {
                    self.meta_cache.borrow_mut().get(path)
                } else {
                    None
                };
                match cached {
                    Some(_) => {
                        cache_hit = true;
                        cost += costs.cache_probe;
                        Ok(())
                    }
                    None => {
                        cost += costs.control_rtt;
                        match self.control.borrow_mut().lookup_entry(path) {
                            Ok((attr, layout)) => {
                                if self.cache_enabled {
                                    self.meta_cache.borrow_mut().insert(
                                        path.clone(),
                                        CachedEntry::from_attr(&attr, layout),
                                    );
                                }
                                Ok(())
                            }
                            Err(e) => Err(e),
                        }
                    }
                }
            }
            MetaOp::Mkdir { path } => {
                cost = cost + costs.control_rtt + costs.oplog_append;
                self.control.borrow_mut().mkdir(path, now_ns).map(|_| ())
            }
            MetaOp::Create { path, spec } => {
                cost = cost + costs.control_rtt + costs.oplog_append;
                let created =
                    self.control
                        .borrow_mut()
                        .create_file_at(path, *spec, FilePolicy::Plain);
                match created {
                    Ok(_) => {
                        if self.cache_enabled {
                            // Write-allocate: the create response already
                            // carries everything a later lookup needs, so
                            // fill the cache without another counted
                            // round-trip.
                            if let Ok((attr, layout)) = self.control.borrow().peek_entry(path) {
                                self.meta_cache
                                    .borrow_mut()
                                    .insert(path.clone(), CachedEntry::from_attr(&attr, layout));
                            }
                        }
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            MetaOp::Readdir { path } => {
                cost += costs.control_rtt;
                match self.control.borrow_mut().readdir(path) {
                    Ok(entries) => {
                        if self.cache_enabled {
                            // Version check (defense in depth): a readdir
                            // response reveals current child versions —
                            // evict any cached child it proves stale.
                            let mut cache = self.meta_cache.borrow_mut();
                            let base = path.trim_end_matches('/');
                            for (name, attr) in &entries {
                                cache.note_version(&format!("{base}/{name}"), attr.version);
                            }
                        }
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            MetaOp::Rename { from, to } => {
                cost = cost + costs.control_rtt + costs.oplog_append;
                self.control.borrow_mut().rename(from, to, now_ns)
            }
            MetaOp::Unlink { path } => {
                cost = cost + costs.control_rtt + costs.oplog_append;
                self.control.borrow_mut().unlink(path, now_ns).map(|_| ())
            }
        };
        // Async metadata updates (AsyncFS-style): a mutation acks after
        // its shard's op-log append — `mutate_service` is shard occupancy
        // paid through the admission model, not ack latency. Every routed
        // op (mutation or resolve miss) queues behind its shard; cache
        // hits never routed, so `admit_last` is a no-op for them.
        let wait = self.control.borrow_mut().admit_last(start.ps());
        cost += Dur::from_ps(wait);
        if cache_hit {
            self.span_mark(span, phase::CACHE_HIT, start);
        }
        let tag = META_BASE | self.next_meta_tag;
        self.next_meta_tag += 1;
        self.meta_in_flight += 1;
        self.meta_stash.push((
            tag,
            PendingMeta {
                token,
                kind: op.kind(),
                start,
                cache_hit,
                result,
                span,
            },
        ));
        nic.set_timer(ctx, cost, tag);
    }

    /// Resolve, fan out, and track one file-level read. A read-cache hit
    /// skips everything — the control-plane resolve, the capability
    /// header, the per-stripe fan-out — and completes from client memory
    /// after a probe + copy latency. A miss resolves the range (plus a
    /// readahead window for sequential streams), fans out one network
    /// fetch per plan piece (one-sided read or RPC read), lands bytes at
    /// their destination offsets in a client-memory buffer, and stages
    /// degraded stripes' surviving shards for reconstruction at
    /// completion time.
    #[allow(clippy::too_many_arguments)]
    fn start_read(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        file: u64,
        offset: u64,
        len: u32,
        protocol: ReadProtocol,
        token: u64,
        slot: Option<ReadSlot>,
    ) {
        let start = ctx.now();
        let span = self.span_begin(OpKind::Read, nic, start, || {
            format!("read f{file} @{offset}+{len}")
        });
        if self.read_cache_enabled {
            let hit = self.read_cache.borrow_mut().lookup(file, offset, len);
            if let Some(hit) = hit {
                self.span_mark(span, phase::CACHE_HIT, start);
                // Served from client memory: no resolve, no fan-out. The
                // completion waits out the cache probe (the copy-out is
                // not charged — the uncached path's completion doesn't
                // charge one either; bytes land by DMA there).
                let cost = self.meta_costs.cache_probe;
                let tag = CACHE_FIN_BASE | self.next_cache_tag;
                self.next_cache_tag += 1;
                self.cache_fin_stash.push((
                    tag,
                    PendingCacheHit {
                        token,
                        file,
                        protocol,
                        offset,
                        data: Bytes::from(hit.data),
                        start,
                        slot,
                        span,
                    },
                ));
                nic.set_timer(ctx, cost, tag);
                return;
            }
            // A range covered by an in-flight background readahead parks
            // here instead of double-fetching: the waiter resumes from
            // the cache (or the full miss path) when the fill lands.
            // Lowest covering op id: `reads_in_flight` is a hash map, and
            // with two overlapping readaheads in flight "first found"
            // would differ from run to run.
            let covering = self
                .reads_in_flight
                .iter()
                .filter(|(_, op)| {
                    op.background
                        && op.file == file
                        && op.offset <= offset
                        && offset + len as u64 <= op.offset + op.len as u64
                })
                .map(|(&id, _)| id)
                .min();
            if let Some(op_id) = covering {
                self.span_mark(span, phase::READAHEAD, start);
                self.parked_reads += 1;
                self.ra_waiters.entry(op_id).or_default().push(ReadReq {
                    token,
                    file,
                    offset,
                    len,
                    protocol,
                    slot,
                    span,
                    start,
                });
                return;
            }
        }
        self.start_read_miss(
            nic,
            ctx,
            ReadReq {
                token,
                file,
                offset,
                len,
                protocol,
                slot,
                span,
                start,
            },
        );
    }

    /// The miss path of one read request: control-plane resolve (with
    /// readahead overfetch), async readahead split, destination alloc,
    /// and doorbell-delayed injection. `req.start` is the original
    /// request time (a parked read resumes here with its span open).
    fn start_read_miss(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, req: ReadReq) {
        let ReadReq {
            token,
            file,
            offset,
            len,
            protocol,
            slot,
            span,
            start,
        } = req;
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
        let mut plan = self
            .control
            .borrow_mut()
            .resolve_read(file, offset, fetch_want);
        if plan.is_err() && fetch_want > len {
            fetch_want = len;
            plan = self.control.borrow_mut().resolve_read(file, offset, len);
        }
        // The resolve queued behind its metadata shard: the fan-out below
        // cannot start until the shard served it.
        let resolve_wait = Dur::from_ps(self.control.borrow_mut().admit_last(ctx.now().ps()));
        let plan = match plan {
            Ok(p) => p,
            Err(_) => {
                // Unknown file, failed-node range, unrecoverable stripe:
                // the read completes Rejected with no data.
                self.span_end(span, ctx.now(), false);
                let completion = ReadCompletion {
                    token,
                    client: nic.node(),
                    file,
                    protocol,
                    offset,
                    len: 0,
                    start,
                    end: ctx.now(),
                    status: Status::Rejected,
                    degraded_stripes: 0,
                    from_cache: false,
                    checksum: 0,
                    data: Bytes::new(),
                };
                if let Some(slot) = &slot {
                    *slot.borrow_mut() = Some(completion.clone());
                }
                self.results.borrow_mut().file_reads.push(completion);
                return;
            }
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
        let dfs = self.read_dfs_header(nic, file, greq);
        self.span_mark(span, phase::RESOLVED, ctx.now());
        self.span_correlate(greq, span);
        self.trace.borrow_mut().emit_with(ctx.now(), "control", || {
            format!("resolve-read f{file} @{offset}+{fetch_want} greq={greq}")
        });
        let op = PendingReadOp {
            token,
            file,
            protocol,
            offset,
            len: critical_len,
            serve_len,
            // When a tail split off, the critical fetch is not EOF-clamped
            // (the tail op inherits the clamp evidence).
            fetch_want: if critical_len < plan.len {
                critical_len
            } else {
                fetch_want
            },
            generation: plan.generation,
            dest,
            start,
            subs_left: 0,
            status: Status::Ok,
            degraded: Vec::new(),
            offloaded_degraded: 0,
            background: false,
            msgs: Vec::new(),
            subs: Vec::new(),
            slot,
            greq,
            span,
        };
        // The verbs post (doorbell, WQE build) delays actual injection —
        // the same per-job cost the write path charges. The exec base is
        // the current time plus the resolve's shard-queue wait, not
        // `start`: a parked read resumes here after its original request
        // time.
        let t_post = nic
            .cpu
            .exec(ctx.now() + resolve_wait, nic.cpu.costs.post_send);
        self.spawn_read_op(nic, ctx, op, &critical_pieces, 0, dfs, t_post);
        if !tail_pieces.is_empty() {
            self.span_mark(span, phase::READAHEAD, ctx.now());
            let tail_len = plan.len - critical_len;
            let tail_off = offset + critical_len as u64;
            let tail_greq = self.control.borrow_mut().alloc_greq();
            let tail_dfs = self.read_dfs_header(nic, file, tail_greq);
            let tail_span = self.span_begin(OpKind::Read, nic, ctx.now(), || {
                format!("readahead f{file} @{tail_off}+{tail_len}")
            });
            self.span_mark(tail_span, phase::READAHEAD, ctx.now());
            self.span_correlate(tail_greq, tail_span);
            let tail_op = PendingReadOp {
                token: 0,
                file,
                protocol,
                offset: tail_off,
                len: tail_len,
                serve_len: 0,
                fetch_want: fetch_want - critical_len,
                generation: plan.generation,
                dest: dest + critical_len as u64,
                start: ctx.now(),
                subs_left: 0,
                status: Status::Ok,
                degraded: Vec::new(),
                offloaded_degraded: 0,
                background: true,
                msgs: Vec::new(),
                subs: Vec::new(),
                slot: None,
                greq: tail_greq,
                span: tail_span,
            };
            self.read_stats.borrow_mut().background_readaheads += 1;
            // Second doorbell for the background fan-out, chained after
            // the critical one on the same CPU.
            let t_tail = nic.cpu.exec(t_post, nic.cpu.costs.post_send);
            self.spawn_read_op(
                nic,
                ctx,
                tail_op,
                &tail_pieces,
                critical_len,
                tail_dfs,
                t_tail,
            );
        }
    }

    /// Register one read op (critical or background readahead), build its
    /// wire program, and arm the doorbell timer that injects it.
    #[allow(clippy::too_many_arguments)]
    fn spawn_read_op(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        mut op: PendingReadOp,
        pieces: &[ReadPiece],
        rebase: u32,
        dfs: DfsHeader,
        issue_at: Time,
    ) {
        let op_id = self.next_read_op;
        self.next_read_op += 1;
        let issue = self.build_read_issue(nic, &mut op, pieces, rebase);
        if op.background {
            self.background_reads += 1;
        }
        self.reads_in_flight.insert(op_id, op);
        let tag = READ_ISSUE_BASE | op_id;
        self.read_issue_stash.push((tag, op_id, issue, dfs));
        nic.set_timer(ctx, issue_at.since(ctx.now()), tag);
    }

    /// Build the wire program for one read op: per-piece fetches for the
    /// fan-out protocols, or per-node gather requests for the offloaded
    /// path (a degraded stripe becomes one gather to the first survivor's
    /// node, which reconstructs on its firmware EC engine). `rebase`
    /// shifts plan-relative offsets into a background tail op's own
    /// destination window.
    fn build_read_issue(
        &mut self,
        nic: &NicCore,
        op: &mut PendingReadOp,
        pieces: &[ReadPiece],
        rebase: u32,
    ) -> ReadIssue {
        if op.protocol == ReadProtocol::Offloaded {
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
                        fetch,
                        copy,
                        ..
                    } => {
                        let coordinator = fetch[0].1.node as NodeId;
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
    fn issue_read_fanout(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        issue: ReadIssue,
        dfs: DfsHeader,
    ) {
        let Some((protocol, dest)) = self
            .reads_in_flight
            .get(&op_id)
            .map(|op| (op.protocol, op.dest))
        else {
            return;
        };
        match issue {
            ReadIssue::Fanout(fetches) => {
                for (node, addr, flen, local) in fetches {
                    let sub = READ_SUB_BASE | self.next_read_sub;
                    self.next_read_sub += 1;
                    self.read_sub_to_op.insert(sub, op_id);
                    let rrh = ReadReqHeader { addr, len: flen };
                    let msg = match protocol {
                        ReadProtocol::Rdma | ReadProtocol::Offloaded => {
                            nic.send_read(ctx, node, rrh, Some(dfs), local, sub)
                        }
                        ReadProtocol::Rpc => {
                            let msg = nic.send_rpc(
                                ctx,
                                node,
                                RpcBody::ReadReq { dfs, rrh },
                                Bytes::new(),
                            );
                            nic.expect_read_resp(msg, local, sub);
                            msg
                        }
                    };
                    self.read_msg_to_op.insert(msg, op_id);
                    let op = self.reads_in_flight.get_mut(&op_id).expect("just checked");
                    op.msgs.push(msg);
                    op.subs.push(sub);
                    op.subs_left += 1;
                }
            }
            ReadIssue::Gather(gathers) => {
                for (node, grh) in gathers {
                    let sub = READ_SUB_BASE | self.next_read_sub;
                    self.next_read_sub += 1;
                    self.read_sub_to_op.insert(sub, op_id);
                    // Segment offsets in the header are relative to the
                    // op's destination window; the streamed flow lands
                    // there packet by packet.
                    let msg = nic.send_gather(ctx, node, dfs, grh, dest, sub);
                    self.read_msg_to_op.insert(msg, op_id);
                    let op = self.reads_in_flight.get_mut(&op_id).expect("just checked");
                    op.msgs.push(msg);
                    op.subs.push(sub);
                    op.subs_left += 1;
                    self.read_stats.borrow_mut().offloaded_reads += 1;
                }
            }
        }
        let span = self
            .reads_in_flight
            .get(&op_id)
            .map(|op| op.span)
            .unwrap_or(0);
        self.span_mark(span, phase::FANNED_OUT, ctx.now());
        if self
            .reads_in_flight
            .get(&op_id)
            .is_some_and(|op| op.subs_left == 0)
        {
            // Zero-length or all-holes read: complete immediately.
            self.complete_read(nic, ctx, op_id);
        }
    }

    /// All pieces landed (or failed): reconstruct any degraded stripes,
    /// assemble the payload, and deliver the typed completion.
    fn complete_read(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op_id: u64) {
        let Some(op) = self.reads_in_flight.remove(&op_id) else {
            return;
        };
        for m in &op.msgs {
            self.read_msg_to_op.remove(m);
        }
        for s in &op.subs {
            self.read_sub_to_op.remove(s);
        }
        let mut status = op.status;
        let mut degraded_stripes = op.offloaded_degraded;
        if status == Status::Ok {
            for d in &op.degraded {
                if self.reconstruct_stripe(nic, &op, d).is_err() {
                    status = Status::Rejected;
                    break;
                }
                degraded_stripes += 1;
            }
        }
        if op.background {
            // Readahead tail: populate the cache, deliver nothing. The
            // caller's miss already completed without waiting on this.
            self.background_reads = self.background_reads.saturating_sub(1);
            if status == Status::Ok && self.read_cache_enabled {
                let fetched = nic.memory().borrow().read(op.dest, op.len as usize);
                let mut rc = self.read_cache.borrow_mut();
                rc.fill(op.file, op.generation, op.offset, &fetched, op.fetch_want);
                rc.stats.readahead_bytes += (op.len - op.serve_len) as u64;
            }
            self.span_decorrelate(op.greq);
            self.span_end(op.span, ctx.now(), status == Status::Ok);
            // Reads that parked on this fill resume now: from the cache
            // when the fill landed, else through the full miss path.
            for w in self.ra_waiters.remove(&op_id).unwrap_or_default() {
                self.parked_reads = self.parked_reads.saturating_sub(1);
                self.resume_parked_read(nic, ctx, w);
            }
            self.fill(nic, ctx);
            return;
        }
        let (data, checksum, len) = if status == Status::Ok {
            let mut fetched = nic.memory().borrow().read(op.dest, op.len as usize);
            if self.read_cache_enabled {
                // Everything fetched — the caller's range, the readahead
                // tail, and any degraded-reconstructed bytes — populates
                // the cache under the plan's generation, so this client
                // never re-fetches (or re-reconstructs) it while the
                // generation holds. An EOF-clamped fetch also teaches the
                // cache where the committed size is.
                let mut rc = self.read_cache.borrow_mut();
                rc.fill(op.file, op.generation, op.offset, &fetched, op.fetch_want);
                rc.stats.readahead_bytes += (op.len - op.serve_len) as u64;
            }
            // Shed the readahead tail before handing the payload out:
            // slicing (or truncating without shrinking) would pin the
            // whole overfetch allocation for as long as the completion
            // lives, and ResultSink retains every completion for the run.
            if op.len > op.serve_len {
                fetched.truncate(op.serve_len as usize);
                fetched.shrink_to_fit();
            }
            let bytes = Bytes::from(fetched);
            let sum = payload_checksum(&bytes);
            (bytes, sum, op.serve_len)
        } else {
            (Bytes::new(), 0, 0)
        };
        // The application observes completion one poll interval later
        // (CQ polling cost, same as the write path).
        let end = ctx.now() + nic.cpu.costs.poll_notify;
        self.span_decorrelate(op.greq);
        if degraded_stripes > 0 {
            self.span_mark(op.span, phase::DEGRADED, ctx.now());
        }
        self.span_mark(op.span, phase::REASSEMBLED, ctx.now());
        self.span_end(op.span, end, status == Status::Ok);
        let completion = ReadCompletion {
            token: op.token,
            client: nic.node(),
            file: op.file,
            protocol: op.protocol,
            offset: op.offset,
            len,
            start: op.start,
            end,
            status,
            degraded_stripes,
            from_cache: false,
            checksum,
            data,
        };
        if let Some(slot) = &op.slot {
            *slot.borrow_mut() = Some(completion.clone());
        }
        self.results.borrow_mut().file_reads.push(completion);
        self.fill(nic, ctx);
    }

    /// A read parked on a background readahead resumes: the fill it
    /// waited on usually makes it a cache hit (delivered under its
    /// original span and start time); a failed or gone-stale fill falls
    /// back to the full miss path.
    fn resume_parked_read(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, w: ReadReq) {
        let hit = if self.read_cache_enabled {
            self.read_cache.borrow_mut().lookup(w.file, w.offset, w.len)
        } else {
            None
        };
        if let Some(hit) = hit {
            self.span_mark(w.span, phase::CACHE_HIT, ctx.now());
            let cost = self.meta_costs.cache_probe;
            let tag = CACHE_FIN_BASE | self.next_cache_tag;
            self.next_cache_tag += 1;
            self.cache_fin_stash.push((
                tag,
                PendingCacheHit {
                    token: w.token,
                    file: w.file,
                    protocol: w.protocol,
                    offset: w.offset,
                    data: Bytes::from(hit.data),
                    start: w.start,
                    slot: w.slot,
                    span: w.span,
                },
            ));
            nic.set_timer(ctx, cost, tag);
        } else {
            self.start_read_miss(nic, ctx, w);
        }
    }

    /// Rebuild the missing data chunks of one degraded stripe from the
    /// staged survivors and copy the requested ranges into the
    /// destination buffer. Shard buffers come from the NIC's recycled
    /// ring; the decode matrix from the codec's per-pattern cache.
    fn reconstruct_stripe(
        &mut self,
        nic: &NicCore,
        op: &PendingReadOp,
        d: &DegradedFetch,
    ) -> Result<(), nadfs_gfec::RsError> {
        let (k, m) = (d.scheme.k as usize, d.scheme.m as usize);
        let rs = self
            .rs_cache
            .entry((d.scheme.k, d.scheme.m))
            .or_insert_with(|| ReedSolomon::new(k, m).expect("valid RS scheme"));
        let mem = nic.memory();
        let pool = nic.buf_pool();
        let clen = d.chunk_len as usize;
        // Stage the fetched shards into pooled buffers.
        let mut survivor_bufs: Vec<Vec<u8>> = Vec::with_capacity(d.fetched.len());
        for slot_i in 0..d.fetched.len() {
            let mut buf = pool.borrow_mut().get_dirty(clen);
            mem.borrow()
                .read_into(d.scratch + slot_i as u64 * clen as u64, &mut buf);
            survivor_bufs.push(buf);
        }
        let mut shards: Vec<Option<&[u8]>> = vec![None; k + m];
        for (slot_i, &idx) in d.fetched.iter().enumerate() {
            shards[idx] = Some(&survivor_bufs[slot_i]);
        }
        let mut want: Vec<usize> = d.copy.iter().map(|c| c.chunk).collect();
        want.sort_unstable();
        want.dedup();
        let mut outs: Vec<Vec<u8>> = {
            let mut p = pool.borrow_mut();
            want.iter().map(|_| p.get_dirty(clen)).collect()
        };
        let r = rs.reconstruct_into(&shards, &want, &mut outs);
        if r.is_ok() {
            self.read_stats.borrow_mut().reconstructed_stripes += 1;
            let mut memory = mem.borrow_mut();
            for c in &d.copy {
                let o = want.binary_search(&c.chunk).expect("wanted chunk");
                let lo = c.chunk_off as usize;
                memory.write(
                    op.dest + c.dest_off as u64,
                    &outs[o][lo..lo + c.len as usize],
                );
            }
        }
        let mut p = pool.borrow_mut();
        for buf in survivor_bufs.into_iter().chain(outs) {
            p.put(buf);
        }
        r
    }

    /// Deliver a repair completion (success, typed unrepairable, or
    /// abort) and refill the window.
    #[allow(clippy::too_many_arguments)]
    fn deliver_repair(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        token: u64,
        task: RepairTask,
        start: Time,
        status: Status,
        outcome: RepairOutcome,
        bytes_moved: u64,
        slot: Option<RepairSlot>,
        span: SpanId,
    ) {
        let result = RepairResult {
            token,
            client: nic.node(),
            task,
            status,
            outcome,
            start,
            end: ctx.now() + nic.cpu.costs.poll_notify,
            bytes_moved,
        };
        self.span_end(span, result.end, status == Status::Ok);
        if let Some(slot) = &slot {
            *slot.borrow_mut() = Some(result.clone());
        }
        self.results.borrow_mut().repairs.push(result);
        self.fill(nic, ctx);
    }

    /// Start one repair task: plan it against the control plane, then
    /// fan out the surviving-shard fetches over the NIC (capability-
    /// validated one-sided reads — repair traffic is data-path traffic).
    fn start_repair(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        task: RepairTask,
        token: u64,
        slot: Option<RepairSlot>,
    ) {
        let start = ctx.now();
        let span = self.span_begin(OpKind::Repair, nic, start, || {
            format!("repair f{}", task.file)
        });
        let planned = self.control.borrow_mut().plan_repair(task);
        self.trace
            .borrow_mut()
            .emit_with(start, "control", || format!("plan-repair f{}", task.file));
        let plan = match planned {
            Ok(p) => p,
            Err(e) => {
                // Typed: the extent cannot be re-protected (or vanished).
                // The task dies here — release its compaction pin.
                self.control.borrow_mut().abandon_repair(task);
                self.deliver_repair(
                    nic,
                    ctx,
                    token,
                    task,
                    start,
                    Status::Rejected,
                    RepairOutcome::Unrepairable(e),
                    0,
                    slot,
                    span,
                );
                return;
            }
        };
        let fetches: Vec<(ReplicaCoord, u32)> = match &plan {
            RepairPlan::AlreadyHealthy => {
                // Nothing to move, nothing to commit: the task is done —
                // release its compaction pin.
                self.control.borrow_mut().abandon_repair(task);
                self.deliver_repair(
                    nic,
                    ctx,
                    token,
                    task,
                    start,
                    Status::Ok,
                    RepairOutcome::AlreadyHealthy,
                    0,
                    slot,
                    span,
                );
                return;
            }
            RepairPlan::EcRebuild {
                chunk_len, fetch, ..
            } => fetch.iter().map(|&(_, c)| (c, *chunk_len)).collect(),
            RepairPlan::ReplicaClone { len, src, .. } => vec![(*src, *len)],
        };
        let total: u64 = fetches.iter().map(|&(_, l)| l as u64).sum();
        let scratch = nic.memory().borrow_mut().alloc(total.max(1));
        let op_id = self.next_repair_op;
        self.next_repair_op += 1;
        let greq = self.control.borrow_mut().alloc_greq();
        let mut dfs = self.read_dfs_header(nic, task.file, greq);
        dfs.tenant = TENANT_REPAIR;
        self.span_mark(span, phase::RESOLVED, ctx.now());
        self.span_correlate(greq, span);
        let mut op = PendingRepair {
            token,
            task,
            plan,
            scratch,
            start,
            fetch_left: fetches.len() as u32,
            write_acks_left: 0,
            writing: false,
            bytes_moved: 0,
            msgs: Vec::new(),
            subs: Vec::new(),
            slot,
            greqs: vec![greq],
            span,
        };
        let mut off = 0u64;
        for (coord, flen) in fetches {
            let sub = REPAIR_SUB_BASE | self.next_read_sub;
            self.next_read_sub += 1;
            self.repair_sub_to_op.insert(sub, op_id);
            let rrh = ReadReqHeader {
                addr: coord.addr,
                len: flen,
            };
            let msg = nic.send_read(
                ctx,
                coord.node as NodeId,
                rrh,
                Some(dfs),
                scratch + off,
                sub,
            );
            self.repair_msg_to_op.insert(msg, op_id);
            op.msgs.push(msg);
            op.subs.push(sub);
            op.bytes_moved += flen as u64;
            off += flen as u64;
        }
        self.span_mark(span, phase::FANNED_OUT, ctx.now());
        self.repairs_in_flight.insert(op_id, op);
    }

    /// Abort an in-flight repair (a fetch NACKed or a spare write
    /// failed): cancel outstanding reads, drop the tracking state, and
    /// deliver a typed `Aborted` completion the driver can retry.
    fn fail_repair(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op_id: u64, status: Status) {
        let Some(op) = self.repairs_in_flight.remove(&op_id) else {
            return;
        };
        for m in &op.msgs {
            self.repair_msg_to_op.remove(m);
            nic.cancel_read(*m);
        }
        for s in &op.subs {
            self.repair_sub_to_op.remove(s);
        }
        for g in &op.greqs {
            self.span_decorrelate(*g);
        }
        self.deliver_repair(
            nic,
            ctx,
            op.token,
            op.task,
            op.start,
            status,
            RepairOutcome::Aborted(status),
            0,
            op.slot,
            op.span,
        );
    }

    /// All survivors landed: rebuild the lost shards (CPU cost already
    /// charged via the REPAIR_FIN timer) and write them to their spares.
    fn repair_rebuild_and_write(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op_id: u64) {
        let Some((task, scratch, plan)) = self
            .repairs_in_flight
            .get(&op_id)
            .map(|op| (op.task, op.scratch, op.plan.clone()))
        else {
            return;
        };
        // (dest coord, bytes) per spare write, built per plan kind.
        let writes: Vec<(ReplicaCoord, Bytes)> = match &plan {
            RepairPlan::AlreadyHealthy => vec![],
            RepairPlan::ReplicaClone { len, dest, .. } => {
                let data = Bytes::from(nic.memory().borrow().read(scratch, *len as usize));
                dest.iter().map(|&(_, c)| (c, data.clone())).collect()
            }
            RepairPlan::EcRebuild {
                scheme,
                chunk_len,
                fetch,
                rebuild,
            } => {
                let (k, m) = (scheme.k as usize, scheme.m as usize);
                let rs = self
                    .rs_cache
                    .entry((scheme.k, scheme.m))
                    .or_insert_with(|| ReedSolomon::new(k, m).expect("valid RS scheme"));
                let clen = *chunk_len as usize;
                let mem = nic.memory();
                let pool = nic.buf_pool();
                let mut survivor_bufs: Vec<Vec<u8>> = Vec::with_capacity(fetch.len());
                for slot_i in 0..fetch.len() {
                    let mut buf = pool.borrow_mut().get_dirty(clen);
                    mem.borrow()
                        .read_into(scratch + slot_i as u64 * clen as u64, &mut buf);
                    survivor_bufs.push(buf);
                }
                let mut shards: Vec<Option<&[u8]>> = vec![None; k + m];
                for (slot_i, (idx, _)) in fetch.iter().enumerate() {
                    shards[*idx] = Some(&survivor_bufs[slot_i]);
                }
                let want: Vec<usize> = {
                    let mut w: Vec<usize> = rebuild.iter().map(|&(s, _)| s).collect();
                    w.sort_unstable();
                    w
                };
                let mut outs: Vec<Vec<u8>> = {
                    let mut p = pool.borrow_mut();
                    want.iter().map(|_| p.get_dirty(clen)).collect()
                };
                let r = rs.reconstruct_into(&shards, &want, &mut outs);
                {
                    let mut p = pool.borrow_mut();
                    for buf in survivor_bufs {
                        p.put(buf);
                    }
                }
                if r.is_err() {
                    let mut p = pool.borrow_mut();
                    for buf in outs {
                        p.put(buf);
                    }
                    // Shard-count/size mismatch is a programming error in
                    // the plan, but surface it as an abort, not a panic.
                    self.fail_repair(nic, ctx, op_id, Status::Rejected);
                    return;
                }
                let mut by_slot: Vec<(ReplicaCoord, Bytes)> = Vec::with_capacity(rebuild.len());
                let mut outs: Vec<Option<Vec<u8>>> = outs.into_iter().map(Some).collect();
                for &(slot, coord) in rebuild {
                    let o = want.binary_search(&slot).expect("wanted shard");
                    let buf = outs[o].take().expect("each shard written once");
                    by_slot.push((coord, Bytes::from(buf)));
                }
                by_slot
            }
        };
        let greq = self.control.borrow_mut().alloc_greq();
        let mut dfs = self.dfs_header(nic, task.file, greq);
        dfs.tenant = TENANT_REPAIR;
        let span = {
            let op = self.repairs_in_flight.get_mut(&op_id).expect("checked");
            op.writing = true;
            op.write_acks_left = writes.len() as u32;
            op.greqs.push(greq);
            op.span
        };
        self.span_mark(span, phase::REBUILT, ctx.now());
        self.span_correlate(greq, span);
        if writes.is_empty() {
            // Defensive: a plan with nothing to write commits directly.
            self.commit_and_complete_repair(nic, ctx, op_id);
            return;
        }
        for (coord, data) in writes {
            let wrh = WriteReqHeader {
                target_addr: coord.addr,
                len: data.len() as u32,
                resiliency: Resiliency::None,
            };
            let len = data.len() as u64;
            let msg = nic.send_write(ctx, coord.node as NodeId, Some(dfs), wrh, data);
            self.repair_msg_to_op.insert(msg, op_id);
            let op = self.repairs_in_flight.get_mut(&op_id).expect("in flight");
            op.msgs.push(msg);
            op.bytes_moved += len;
        }
    }

    /// Every spare write acknowledged: commit the re-homing into the
    /// extent map (generation bump + cache invalidation) and complete.
    fn commit_and_complete_repair(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op_id: u64) {
        let Some(op) = self.repairs_in_flight.remove(&op_id) else {
            return;
        };
        for m in &op.msgs {
            self.repair_msg_to_op.remove(m);
        }
        for s in &op.subs {
            self.repair_sub_to_op.remove(s);
        }
        for g in &op.greqs {
            self.span_decorrelate(*g);
        }
        let replacements = op.plan.replacements();
        let committed = self.control.borrow_mut().commit_repair(
            op.task,
            &replacements,
            ctx.now().as_ns() as u64,
        );
        self.trace.borrow_mut().emit_with(ctx.now(), "control", || {
            format!("commit-repair f{}", op.task.file)
        });
        let (status, outcome) = match committed {
            Ok(()) => {
                let outcome = match &op.plan {
                    RepairPlan::EcRebuild { rebuild, .. } => RepairOutcome::Rebuilt {
                        shards: rebuild.iter().map(|&(s, _)| s).collect(),
                    },
                    RepairPlan::ReplicaClone { dest, .. } => RepairOutcome::Cloned {
                        replicas: dest.iter().map(|&(s, _)| s).collect(),
                    },
                    RepairPlan::AlreadyHealthy => RepairOutcome::AlreadyHealthy,
                };
                (Status::Ok, outcome)
            }
            // The file vanished mid-repair (unlink/rename-replace): the
            // moved bytes are moot, not an error worth retrying.
            Err(e) => (Status::Rejected, RepairOutcome::Unrepairable(e)),
        };
        if status == Status::Ok {
            self.span_mark(op.span, phase::COMMITTED, ctx.now());
        }
        self.deliver_repair(
            nic,
            ctx,
            op.token,
            op.task,
            op.start,
            status,
            outcome,
            op.bytes_moved,
            op.slot,
            op.span,
        );
    }

    fn issue_write(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        job: Job,
        placement: WritePlacement,
        retries: u32,
        start: Time,
    ) {
        let greq = placement.greq;
        let span = self.span_of(greq);
        let (file, size, protocol, data, slot) = match &job {
            Job::Write {
                file,
                size,
                protocol,
                seed,
            } => (*file, *size, *protocol, Self::payload(*seed, *size), None),
            Job::WriteAt {
                file,
                data,
                protocol,
                slot,
                ..
            } => (
                *file,
                data.len() as u32,
                *protocol,
                data.clone(),
                slot.clone(),
            ),
            _ => return,
        };
        let abandon = self
            .abandon_every
            .map(|n| self.jobs_started.is_multiple_of(n))
            .unwrap_or(false);
        let mut pending = Pending {
            job,
            placement: placement.clone(),
            data: data.clone(),
            checksum: payload_checksum(&data),
            start,
            acks_needed: 1,
            acks_got: 0,
            phase: Phase::Data,
            retries,
            status: Status::Ok,
            msgs: Vec::new(),
        };
        let policy = self.control.borrow().lookup(file).map(|m| m.policy.clone());
        let policy = match policy {
            Ok(p) => p,
            Err(_) => {
                // The file vanished between placement and issue (e.g. an
                // unlink raced a retry): fail the job, don't panic. The
                // slot this job held must be refilled — issue_write runs
                // from a timer, so no caller does it for us.
                self.span_decorrelate(greq);
                self.fail_write_job(nic, ctx, size, protocol, retries, start, slot, span);
                self.fill(nic, ctx);
                return;
            }
        };

        match protocol {
            WriteProtocol::Raw => {
                if placement.stripes.len() > 1 {
                    send_striped(&mut pending, nic, ctx, &placement, &data, None);
                } else {
                    let wrh = WriteReqHeader {
                        target_addr: placement.primary.addr,
                        len: size,
                        resiliency: Resiliency::None,
                    };
                    let msg =
                        nic.send_write(ctx, placement.primary.node as NodeId, None, wrh, data);
                    pending.msgs.push(msg);
                }
            }
            WriteProtocol::Spin => {
                let dfs = self.dfs_header(nic, file, greq);
                if abandon {
                    // Abandon after the first packet of the first (or
                    // only) extent; remaining extents never leave the
                    // client, modeling a mid-stream client failure.
                    let (target, len) = match placement.stripes.first() {
                        Some(st) => (st.coord, st.len),
                        None => (placement.primary, size),
                    };
                    let wrh = WriteReqHeader {
                        target_addr: target.addr,
                        len,
                        resiliency: Resiliency::None,
                    };
                    let (msg, mut pkts) = nic.build_write_pkts(
                        target.node as NodeId,
                        Some(dfs),
                        wrh,
                        data.slice(..len as usize),
                    );
                    pkts.truncate(1);
                    nic.send_pkts(ctx, pkts);
                    pending.msgs.push(msg);
                    pending.acks_needed = u32::MAX; // never completes
                } else if placement.stripes.len() > 1 {
                    send_striped(&mut pending, nic, ctx, &placement, &data, Some(dfs));
                } else {
                    let wrh = WriteReqHeader {
                        target_addr: placement.primary.addr,
                        len: size,
                        resiliency: Resiliency::None,
                    };
                    let msg =
                        nic.send_write(ctx, placement.primary.node as NodeId, Some(dfs), wrh, data);
                    pending.msgs.push(msg);
                }
            }
            WriteProtocol::Rpc | WriteProtocol::RpcRdma => {
                let inline = protocol == WriteProtocol::Rpc;
                let dfs = self.dfs_header(nic, file, greq);
                // One independent RPC per stripe extent (a width-1 layout
                // is a single extent at `primary`): each extent's bytes
                // must land at that extent's address, never overrun the
                // first extent's allocation.
                let extents: Vec<(nadfs_wire::ReplicaCoord, u32)> = if placement.stripes.len() > 1 {
                    placement.stripes.iter().map(|s| (s.coord, s.len)).collect()
                } else {
                    vec![(placement.primary, size)]
                };
                pending.acks_needed = extents.len() as u32;
                let mut off = 0usize;
                for (coord, len) in extents {
                    let wrh = WriteReqHeader {
                        target_addr: coord.addr,
                        len,
                        resiliency: Resiliency::None,
                    };
                    let slice = data.slice(off..off + len as usize);
                    let src_addr = if inline {
                        0
                    } else {
                        // Stage the extent in client memory for the
                        // storage-side RDMA read.
                        let a = nic.memory().borrow_mut().alloc(len as u64);
                        nic.memory().borrow_mut().write(a, &slice);
                        a
                    };
                    let body = RpcBody::WriteReq {
                        dfs,
                        wrh,
                        inline_data: inline,
                        src_addr,
                        chunk_off: 0,
                        full_len: len,
                    };
                    let msg = nic.send_rpc(
                        ctx,
                        coord.node as NodeId,
                        body,
                        if inline { slice } else { Bytes::new() },
                    );
                    pending.msgs.push(msg);
                    off += len as usize;
                }
            }
            WriteProtocol::RdmaFlat => {
                // One independent write per replica; full client trust.
                pending.acks_needed = placement.replicas.len() as u32;
                for coord in &placement.replicas {
                    let wrh = WriteReqHeader {
                        target_addr: coord.addr,
                        len: size,
                        resiliency: Resiliency::None,
                    };
                    let msg = nic.send_write(ctx, coord.node as NodeId, None, wrh, data.clone());
                    pending.msgs.push(msg);
                }
            }
            WriteProtocol::HyperLoop { chunk } => {
                // Phase 1: configure the ring (k parallel WQE writes).
                let k = placement.replicas.len();
                pending.phase = Phase::HlConfiguring {
                    acks_left: k as u32,
                };
                pending.acks_needed = 1; // the tail data ack
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
                    let msg = nic.send_hl_config(ctx, coord.node as NodeId, cfg);
                    pending.msgs.push(msg);
                }
            }
            WriteProtocol::CpuBcast { chunk } => {
                let FilePolicy::Replicated { strategy, .. } = policy else {
                    panic!("CpuBcast requires a replicated file");
                };
                let dfs = self.dfs_header(nic, file, greq);
                let k = placement.replicas.len() as u32;
                pending.acks_needed = k;
                let chunk = chunk.max(1).min(size.max(1));
                let mut off = 0u32;
                while off < size || (size == 0 && off == 0) {
                    let len = chunk.min(size - off);
                    let wrh = WriteReqHeader {
                        target_addr: placement.primary.addr + off as u64,
                        len,
                        resiliency: Resiliency::Replicate {
                            strategy,
                            vrank: 0,
                            coords: placement.replicas.clone(),
                        },
                    };
                    let body = RpcBody::WriteReq {
                        dfs,
                        wrh,
                        inline_data: true,
                        src_addr: 0,
                        chunk_off: off,
                        full_len: size,
                    };
                    let msg = nic.send_rpc(
                        ctx,
                        placement.primary.node as NodeId,
                        body,
                        data.slice(off as usize..(off + len) as usize),
                    );
                    pending.msgs.push(msg);
                    off += len;
                    if size == 0 {
                        break;
                    }
                }
            }
            WriteProtocol::SpinReplicated => {
                let FilePolicy::Replicated { strategy, .. } = policy else {
                    panic!("SpinReplicated requires a replicated file");
                };
                let dfs = self.dfs_header(nic, file, greq);
                pending.acks_needed = placement.replicas.len() as u32;
                let wrh = WriteReqHeader {
                    target_addr: placement.primary.addr,
                    len: size,
                    resiliency: Resiliency::Replicate {
                        strategy,
                        vrank: 0,
                        coords: placement.replicas.clone(),
                    },
                };
                let msg =
                    nic.send_write(ctx, placement.primary.node as NodeId, Some(dfs), wrh, data);
                pending.msgs.push(msg);
            }
            WriteProtocol::SpinTriec { .. } | WriteProtocol::InecTriec => {
                let FilePolicy::ErasureCoded { scheme } = policy else {
                    panic!("TriEC requires an erasure-coded file");
                };
                let interleave = match protocol {
                    WriteProtocol::SpinTriec { interleave } => interleave,
                    _ => false,
                };
                let dfs = self.dfs_header(nic, file, greq);
                let k = scheme.k as usize;
                let m = scheme.m as usize;
                pending.acks_needed = (k + m) as u32;
                let chunk_len = placement.chunk_len;
                // Split the block into k chunks. Full chunks are zero-copy
                // windows into the block; only a ragged tail chunk needs
                // staging (zero-padded), and that buffer comes from the
                // NIC's recycled ring.
                let mut per_chunk_pkts: Vec<Vec<Pkt>> = Vec::with_capacity(k);
                for (j, coord) in placement.data_chunks.iter().enumerate() {
                    let startb = (j as u32 * chunk_len).min(size) as usize;
                    let endb = ((j as u32 + 1) * chunk_len).min(size) as usize;
                    let chunk_data = if endb - startb == chunk_len as usize {
                        data.slice(startb..endb)
                    } else {
                        let mut staged = nic.buf_pool().borrow_mut().get(chunk_len as usize);
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
                    pending.msgs.push(msg);
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
        self.span_mark(span, phase::FANNED_OUT, ctx.now());
        for m in &pending.msgs {
            self.msg_to_greq.insert(*m, greq);
        }
        self.in_flight.insert(greq, pending);
    }

    fn finish(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, greq: u64) {
        let p = self.in_flight.remove(&greq).expect("pending");
        let span = self.span_decorrelate(greq);
        for m in &p.msgs {
            self.msg_to_greq.remove(m);
        }
        let (file, size, protocol, slot) = match &p.job {
            Job::Write {
                file,
                size,
                protocol,
                ..
            } => (*file, *size, *protocol, None),
            Job::WriteAt {
                file,
                data,
                protocol,
                slot,
                ..
            } => (*file, data.len() as u32, *protocol, slot.clone()),
            _ => return,
        };
        // The application observes completion one poll interval after the
        // ack reaches the NIC (CQ polling cost, charged to every protocol).
        let end = ctx.now() + nic.cpu.costs.poll_notify;
        if p.status == Status::Ok {
            // The bytes are durable: commit the placement into the file's
            // extent map so reads can find them. The commit reports how
            // far the committed size actually grew — the attr write-back
            // carries that, not the placement-time delta (which would
            // count bytes of earlier placements that never committed).
            let appended = self
                .control
                .borrow_mut()
                .commit_write(file, &p.placement, size);
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
                let _ = self.control.borrow_mut().flush_attrs(&[(
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
                // carries the post-commit generation, so the commit's own
                // invalidation callback does not immediately evict it.
                let generation = self.control.borrow().extent_generation(file);
                self.read_cache.borrow_mut().fill_from_write(
                    file,
                    generation,
                    p.placement.offset,
                    &p.data,
                );
            }
            self.span_mark(span, phase::COMMITTED, ctx.now());
        }
        self.span_end(span, end, p.status == Status::Ok);
        let result = WriteResult {
            greq,
            client: nic.node(),
            protocol,
            size,
            start: p.start,
            end,
            status: p.status,
            retries: p.retries,
            checksum: p.checksum,
            placement: p.placement,
        };
        if let Some(slot) = slot {
            *slot.borrow_mut() = Some(result.clone());
        }
        self.results.borrow_mut().writes.push(result);
        self.fill(nic, ctx);
    }
}

fn job_clone(j: &Job) -> Job {
    j.clone()
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

/// Fan a striped plain write out as one write per stripe extent (with the
/// DFS header when going through the NIC handlers), acked independently.
fn send_striped(
    pending: &mut Pending,
    nic: &mut NicCore,
    ctx: &mut Ctx<'_>,
    placement: &WritePlacement,
    data: &Bytes,
    dfs: Option<DfsHeader>,
) {
    pending.acks_needed = placement.stripes.len() as u32;
    let mut off = 0usize;
    for st in &placement.stripes {
        let wrh = WriteReqHeader {
            target_addr: st.coord.addr,
            len: st.len,
            resiliency: Resiliency::None,
        };
        let msg = nic.send_write(
            ctx,
            st.coord.node as NodeId,
            dfs,
            wrh,
            data.slice(off..off + st.len as usize),
        );
        pending.msgs.push(msg);
        off += st.len as usize;
    }
}

impl NicApp for ClientApp {
    fn on_ack(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, _src: NodeId, ack: AckPkt) {
        // Read NACK (capability failure / rejected region): the piece will
        // never stream back, so account it and fail the op when the rest
        // of the fan-out settles.
        if let Some(op_id) = self.read_msg_to_op.remove(&ack.msg) {
            nic.cancel_read(ack.msg);
            if let Some(op) = self.reads_in_flight.get_mut(&op_id) {
                if ack.status != Status::Ok {
                    op.status = ack.status;
                }
                op.subs_left = op.subs_left.saturating_sub(1);
                if op.subs_left == 0 {
                    self.complete_read(nic, ctx, op_id);
                }
            }
            return;
        }
        // Repair traffic: a NACKed survivor fetch aborts the task; spare
        // write acks count down toward the extent-map commit.
        if let Some(op_id) = self.repair_msg_to_op.get(&ack.msg).copied() {
            self.repair_msg_to_op.remove(&ack.msg);
            let Some(op) = self.repairs_in_flight.get_mut(&op_id) else {
                return;
            };
            if !op.writing {
                // Fetch phase: the only acks are NACKs (auth failure,
                // rejected region) — the shard will never stream back.
                nic.cancel_read(ack.msg);
                let status = if ack.status == Status::Ok {
                    Status::Rejected
                } else {
                    ack.status
                };
                self.fail_repair(nic, ctx, op_id, status);
            } else if ack.status != Status::Ok {
                self.fail_repair(nic, ctx, op_id, ack.status);
            } else {
                op.write_acks_left = op.write_acks_left.saturating_sub(1);
                if op.write_acks_left == 0 {
                    self.commit_and_complete_repair(nic, ctx, op_id);
                }
            }
            return;
        }
        let greq = ack
            .greq_id
            .filter(|g| self.in_flight.contains_key(g))
            .or_else(|| self.msg_to_greq.get(&ack.msg).copied());
        let Some(greq) = greq else {
            return; // stale (e.g. ack after cleanup-driven completion)
        };
        let Some(p) = self.in_flight.get_mut(&greq) else {
            return;
        };
        match ack.status {
            Status::Busy => {
                // Descriptor exhaustion: retry the whole request later
                // (§III-B: "the request is denied, and the client will
                // retry later").
                let p = self.in_flight.remove(&greq).expect("pending");
                let span = self.span_decorrelate(greq);
                for m in &p.msgs {
                    self.msg_to_greq.remove(m);
                }
                let retries = p.retries + 1;
                let (file, size, protocol, slot) = match &p.job {
                    Job::Write {
                        file,
                        size,
                        protocol,
                        ..
                    } => (*file, *size, *protocol, None),
                    Job::WriteAt {
                        file,
                        data,
                        protocol,
                        slot,
                        ..
                    } => (*file, data.len() as u32, *protocol, slot.clone()),
                    _ => return,
                };
                // Re-place the same logical extent (fresh addresses, no
                // cursor advance) and retry after a backoff. If the file
                // is gone by now (unlinked under us), the job fails.
                // Attr accounting needs no carrying: the write-back uses
                // the committed-size growth `commit_write` reports when
                // the retry eventually lands.
                let prev_offset = p.placement.offset;
                let placed = self
                    .control
                    .borrow_mut()
                    .replace_write(file, size, prev_offset);
                let placement = match placed {
                    Ok(p) => p,
                    Err(_) => {
                        self.fail_write_job(
                            nic,
                            ctx,
                            size,
                            protocol,
                            retries,
                            ctx.now(),
                            slot,
                            span,
                        );
                        self.fill(nic, ctx);
                        return;
                    }
                };
                // The retry travels under a fresh greq: re-key the span.
                self.span_correlate(placement.greq, span);
                self.span_mark(span, phase::RETRIED, ctx.now());
                let tag = RETRY_BASE | placement.greq;
                self.retry_stash.push((tag, p.job, placement, retries));
                nic.set_timer(ctx, Dur::from_us(5 * retries as u64), tag);
            }
            Status::AuthFailed | Status::Rejected => {
                p.status = ack.status;
                p.acks_got += 1;
                // A rejection terminates the request immediately.
                let needed = p.acks_got.max(1);
                p.acks_needed = needed;
                if p.acks_got >= needed {
                    self.finish(nic, ctx, greq);
                }
            }
            Status::Ok => match &mut p.phase {
                Phase::HlConfiguring { acks_left } => {
                    *acks_left -= 1;
                    if *acks_left == 0 {
                        // Ring armed: push the data to the head node.
                        p.phase = Phase::Data;
                        let head = p.placement.replicas[0];
                        let wrh = WriteReqHeader {
                            target_addr: head.addr,
                            len: p.data.len() as u32,
                            resiliency: Resiliency::None,
                        };
                        let data = p.data.clone();
                        let msg = nic.send_write(ctx, head.node as NodeId, None, wrh, data);
                        p.msgs.push(msg);
                        let greq2 = greq;
                        self.msg_to_greq.insert(msg, greq2);
                    }
                }
                Phase::Data => {
                    p.acks_got += 1;
                    if p.acks_got >= p.acks_needed {
                        self.finish(nic, ctx, greq);
                    }
                }
            },
        }
    }

    fn on_read_done(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, token: u64) {
        // Repair survivor fetch?
        if let Some(op_id) = self.repair_sub_to_op.remove(&token) {
            let Some(op) = self.repairs_in_flight.get_mut(&op_id) else {
                return;
            };
            op.fetch_left = op.fetch_left.saturating_sub(1);
            if op.fetch_left > 0 {
                return;
            }
            // Model the rebuild cost: the client CPU walks every fetched
            // byte before the re-protected shards exist.
            let bytes = op.bytes_moved;
            let now = ctx.now();
            let t = nic.cpu.exec(now, nic.cpu.memcpy_cost(bytes));
            let tag = REPAIR_FIN_BASE | op_id;
            self.repair_fin_stash.push((tag, op_id));
            nic.set_timer(ctx, t.since(now), tag);
            return;
        }
        // File-level read piece?
        if let Some(op_id) = self.read_sub_to_op.remove(&token) {
            let ready = {
                let Some(op) = self.reads_in_flight.get_mut(&op_id) else {
                    return;
                };
                op.subs_left = op.subs_left.saturating_sub(1);
                op.subs_left == 0
            };
            if !ready {
                return;
            }
            let op = &self.reads_in_flight[&op_id];
            if op.degraded.is_empty() || op.status != Status::Ok {
                self.complete_read(nic, ctx, op_id);
            } else {
                // Model the reconstruction cost: the client CPU walks k
                // shards per degraded stripe before the data is usable.
                let bytes: u64 = op
                    .degraded
                    .iter()
                    .map(|d| d.scheme.k as u64 * d.chunk_len as u64)
                    .sum();
                let now = ctx.now();
                let t = nic.cpu.exec(now, nic.cpu.memcpy_cost(bytes));
                let tag = READ_FIN_BASE | op_id;
                self.read_fin_stash.push((tag, op_id));
                nic.set_timer(ctx, t.since(now), tag);
            }
            return;
        }
        // Legacy raw-region read.
        let Some((addr, len)) = self.read_tokens.remove(&token) else {
            return;
        };
        let bytes = nic.memory().borrow().read(addr, len as usize);
        self.results.borrow_mut().reads.push(ReadResult {
            token,
            end: ctx.now(),
            len,
            checksum: payload_checksum(&bytes),
        });
        self.fill(nic, ctx);
    }

    fn on_timer(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == KICK {
            self.fill(nic, ctx);
            return;
        }
        if tag & META_BASE == META_BASE {
            if let Some(idx) = self.meta_stash.iter().position(|(t, _)| *t == tag) {
                let (_, pm) = self.meta_stash.remove(idx);
                self.meta_in_flight -= 1;
                self.span_end(pm.span, ctx.now(), pm.result.is_ok());
                if self.bulk_meta_span != 0 && pm.result.is_err() {
                    self.bulk_meta_errs += 1;
                }
                self.results.borrow_mut().metas.push(MetaResult {
                    token: pm.token,
                    client: nic.node(),
                    op: pm.kind,
                    start: pm.start,
                    end: ctx.now(),
                    cache_hit: pm.cache_hit,
                    result: pm.result,
                });
                self.fill(nic, ctx);
                self.finish_bulk_meta_span(ctx);
            }
            return;
        }
        if tag & CACHE_FIN_BASE == CACHE_FIN_BASE {
            if let Some(idx) = self.cache_fin_stash.iter().position(|(t, _)| *t == tag) {
                let (_, hit) = self.cache_fin_stash.remove(idx);
                let slot = hit.slot;
                let end = ctx.now() + nic.cpu.costs.poll_notify;
                self.span_end(hit.span, end, true);
                let completion = ReadCompletion {
                    token: hit.token,
                    client: nic.node(),
                    file: hit.file,
                    protocol: hit.protocol,
                    offset: hit.offset,
                    len: hit.data.len() as u32,
                    start: hit.start,
                    end,
                    status: Status::Ok,
                    degraded_stripes: 0,
                    from_cache: true,
                    checksum: payload_checksum(&hit.data),
                    data: hit.data,
                };
                if let Some(slot) = &slot {
                    *slot.borrow_mut() = Some(completion.clone());
                }
                self.results.borrow_mut().file_reads.push(completion);
                self.fill(nic, ctx);
            }
            return;
        }
        if tag & READ_ISSUE_BASE == READ_ISSUE_BASE {
            if let Some(idx) = self.read_issue_stash.iter().position(|(t, ..)| *t == tag) {
                let (_, op_id, issue, dfs) = self.read_issue_stash.remove(idx);
                self.issue_read_fanout(nic, ctx, op_id, issue, dfs);
            }
            return;
        }
        if tag & READ_FIN_BASE == READ_FIN_BASE {
            if let Some(idx) = self.read_fin_stash.iter().position(|(t, _)| *t == tag) {
                let (_, op_id) = self.read_fin_stash.remove(idx);
                self.complete_read(nic, ctx, op_id);
            }
            return;
        }
        if tag & REPAIR_FIN_BASE == REPAIR_FIN_BASE {
            if let Some(idx) = self.repair_fin_stash.iter().position(|(t, _)| *t == tag) {
                let (_, op_id) = self.repair_fin_stash.remove(idx);
                self.repair_rebuild_and_write(nic, ctx, op_id);
            }
            return;
        }
        if tag & RETRY_BASE == RETRY_BASE {
            if let Some(idx) = self.retry_stash.iter().position(|(t, ..)| *t == tag) {
                let (_, job, placement, retries) = self.retry_stash.remove(idx);
                self.issue_write(nic, ctx, job, placement, retries, ctx.now());
            }
            return;
        }
        if tag & ISSUE_BASE == ISSUE_BASE {
            if let Some(idx) = self.issue_stash.iter().position(|(t, ..)| *t == tag) {
                let (_, job, placement, start) = self.issue_stash.remove(idx);
                self.issue_write(nic, ctx, job, placement, 0, start);
            }
        }
    }
}
