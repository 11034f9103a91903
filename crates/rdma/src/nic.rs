//! The RDMA NIC component: packetization and egress flow control, one-sided
//! WRITE/READ handling, SEND/RPC reassembly, MR protection, and routing into
//! the optional PsPIN accelerator, HyperLoop chains, and the firmware EC
//! engine.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use nadfs_gfec::RsCodecs;
use nadfs_host::{Cpu, DmaConfig, DmaEngine, HostMemory, SharedMemory};
use nadfs_pspin::{HostNotify, PsPinConfig, PsPinDevice};
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{
    Bandwidth, BufPool, Component, ComponentId, CreditConfig, Ctx, Dur, FlowController, IdMap,
    NodeId, NodePort, ObsHub, PacketEvent, PacketPool, SharedBufPool, SharedFlowStats, SharedObs,
    SharedPacketPool, SharedTenantLedgers, SharedTrace, Slab, TenantId, TenantScheduler, Time,
    Trace, WrClass,
};
use nadfs_wire::{
    send_payload_caps, split_payload, write_payload_caps, AckPkt, DfsHeader, Frame,
    GatherReadHeader, GatherReqPkt, GatherSegment, HlConfigPkt, MacKey, MsgId, Pkt, ReadReqHeader,
    ReadReqPkt, ReadRespPkt, Resiliency, Rights, RpcBody, SendPkt, Status, WritePkt,
    WriteReqHeader,
};

use crate::app::NicApp;
use crate::chains::{self, Chains};
use crate::ec_engine::{self, DecodeGather, EcEngine, Survivor};

/// Per-NIC configuration.
#[derive(Clone, Debug)]
pub struct NicConfig {
    pub dma: DmaConfig,
    /// Effective single-copy memcpy bandwidth of the host CPU behind the
    /// NIC, for buffered data paths.
    pub memcpy_bw: Bandwidth,
    /// Enforce memory-region protection on one-sided ops.
    pub enforce_mr: bool,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            dma: DmaConfig::default(),
            memcpy_bw: Bandwidth::from_gbyte_per_sec(26),
            enforce_mr: false,
        }
    }
}

// --- deferred work ------------------------------------------------------

/// Work the NIC deferred to a later instant: an app timer, or what waits
/// for a DMA, a flush or an engine pass to be done. Each waits in a slot
/// of [`NicCore`]'s slab, and the wake that runs it carries the slot's key.
pub(crate) enum NicEvent {
    /// An app timer ([`NicCore::set_timer`]).
    Timer { tag: u64 },
    /// Enqueue the packets of a response batch (read-response pacing).
    Send(Vec<Pkt>),
    /// Enqueue one packet (a rebuilt packet leaving the EC engine).
    SendOne(Pkt),
    /// Read the next batch of response stream `.0`.
    StreamNext(usize),
    /// Send an ack at a deferred (flush) time.
    Ack { dst: NodeId, ack: AckPkt },
    /// A locally-issued read completed.
    ReadDone { token: u64 },
    /// Issue writes at a deferred (engine-ready) time.
    Writes(Vec<(NodeId, Option<DfsHeader>, WriteReqHeader, Bytes)>),
    /// The DMA read for `chunk` of the chain at `addr` completed; emit the
    /// forward write and continue.
    ChainFwdReady { addr: u64, chunk: u32 },
    /// All of the chain's data landed and flushed; ack the client if
    /// configured.
    ChainComplete { addr: u64 },
    /// Encode the data chunk whose write (these headers) landed and
    /// forward intermediate parities.
    Encode {
        wrh: WriteReqHeader,
        dfs: Option<DfsHeader>,
    },
    /// Aggregate the staged intermediate parities for (stripe, parity_idx).
    Aggregate { stripe: u64, parity_idx: u8 },
    /// The trigger of degraded gather `gather` elapsed: rebuilt packets
    /// may enter the engine.
    DecodeArmed { gather: u64 },
    /// A DMA-read batch of the coordinator's own survivor is at the NIC:
    /// packets `first_idx..` of `of`; stream `next` has more to read.
    DecodeLocal {
        of: Survivor,
        first_idx: u32,
        data: Bytes,
        next: Option<usize>,
    },
}

/// The wake tokens a NIC answers, by range: keys of its deferred-work
/// slab below [`PsPinDevice::WAKES`]; the PsPIN device's own from there;
/// app timers set from outside the engine ([`Nic::timer_token`]) from `KICKS`;
/// and at the top the two egress-gate registrations, the NIC's own queue
/// (`EGRESS_WAKE`) and the device's parked runs
/// ([`PsPinDevice::EGRESS_WAKE`]).
const KICKS: u64 = 1 << 63;
const EGRESS_WAKE: u64 = u64::MAX - 1;

/// Packets per DMA read of a response stream: the batch amortizes the
/// per-op PCIe latency so streaming runs at the read channel's bandwidth.
const DMA_BATCH_PKTS: u32 = 32;

// --- reassembly states --------------------------------------------------

struct RawWriteState {
    src: NodeId,
    dfs: Option<DfsHeader>,
    wrh: WriteReqHeader,
    pkts_seen: u32,
    total: u32,
    bytes: u32,
    flush: Time,
    chain_write: bool,
}

struct SendState {
    src: NodeId,
    body: RpcBody,
    data: Vec<u8>,
    pkts_seen: u32,
    total: u32,
}

/// Where the response packets of a read this node issued go.
#[derive(Clone, Copy)]
pub(crate) enum ReadSink {
    /// Host memory at `local_addr` plus each packet's offset;
    /// `on_read_done(token)` follows the last one.
    Host { local_addr: u64, token: u64 },
    /// A remote survivor of a degraded gather: absorbed into the decode's
    /// accumulators in NIC memory.
    Decode(Survivor),
}

/// Pending read this node issued (initiator side).
struct PendingRead {
    sink: ReadSink,
    pkts_seen: u32,
    flush: Time,
    /// The peer whose Read credit the request holds (none for a read whose
    /// request travelled as a SEND). It returns when the response has
    /// landed or the read is cancelled, whichever is first.
    credit_from: Option<NodeId>,
}

/// `len` bytes of this node's memory at `addr`, landing at `dest_off` of
/// the flow they are streamed in: `(addr, len, dest_off)`.
pub(crate) type Range = (u64, u32, u32);

/// The ranges one response stream walks, in order, none of them empty.
/// One range is every plain read and every local survivor; it is held
/// inline so those streams allocate no list.
pub(crate) enum Ranges {
    One(Range),
    Many(Vec<Range>),
}

impl Ranges {
    /// The ranges of a read of `len` bytes at `addr`: none when it is
    /// empty.
    fn of_read(addr: u64, len: u32) -> Ranges {
        match len {
            0 => Ranges::Many(Vec::new()),
            _ => Ranges::One((addr, len, 0)),
        }
    }

    fn as_slice(&self) -> &[Range] {
        match self {
            Ranges::One(r) => std::slice::from_ref(r),
            Ranges::Many(v) => v,
        }
    }
}

/// What is done with each batch of a response stream.
#[derive(Clone, Copy)]
pub(crate) enum StreamSink {
    /// Cut into the `ReadResp` packets of request `msg` and sent to `dst`,
    /// each at its range's (possibly sparse) flow offset. A gather has the
    /// `greq` of the op it serves: every batch marks `streamed` on that
    /// op's span and counts toward `gather_bytes_streamed`. A read the
    /// read QoS admitted holds one of its `slot`s until the last batch.
    Wire {
        dst: NodeId,
        msg: MsgId,
        greq: Option<u64>,
        total_pkts: u32,
        slot: bool,
    },
    /// Absorbed into a decode on this NIC as its own survivor's packets.
    Decode(Survivor),
}

/// Ranges of this node's memory streaming out through the DMA read
/// channel (responder side): a one-sided or CPU-validated read, a healthy
/// gather, or the coordinator's own survivor of a degraded one.
struct ResponseStream {
    ranges: Ranges,
    /// Cursor: the range being read, the offset within it, and the index
    /// of the next packet.
    range: usize,
    off: u32,
    next_idx: u32,
    sink: StreamSink,
}

/// Offload counters shared with the metrics registry (the NIC itself is
/// consumed by the engine at cluster build, so snapshot code holds this
/// handle instead).
#[derive(Clone, Copy, Debug, Default)]
pub struct NicStats {
    /// Gather read requests the NIC validated.
    pub gather_reads: u64,
    /// Gather requests rejected at capability check.
    pub gather_auth_failures: u64,
    /// Write requests the sPIN header handler rejected at capability
    /// check.
    pub write_auth_failures: u64,
    /// One-sided DFS reads rejected at capability check.
    pub read_auth_failures: u64,
    /// NIC-to-NIC segment fetches issued by gather coordinators.
    pub gather_remote_fetches: u64,
    /// Response-flow bytes streamed by gather responders.
    pub gather_bytes_streamed: u64,
    /// Lost data chunks rebuilt, wholly or in part, by the on-NIC EC
    /// engine for degraded gathers.
    pub chunks_reconstructed: u64,
    /// Time the EC engine was occupied (what its queue integrates), in
    /// picoseconds.
    pub ec_busy_ps: u64,
}

pub type SharedNicStats = Rc<RefCell<NicStats>>;

/// Message id reserved for standalone credit-return acks: pure flow-control
/// frames carrying a [`nadfs_simnet::CreditGrant`] and no app-visible
/// completion. The receiving NIC applies the grant and swallows the frame
/// before `on_ack`.
pub(crate) const CREDIT_MSG: MsgId = MsgId {
    node: u32::MAX,
    seq: u64::MAX,
};

/// A DFS read waiting for a response-stream slot.
struct QueuedRead {
    dst: NodeId,
    msg: MsgId,
    addr: u64,
    len: u32,
}

/// The hardware/firmware half of a node, exposed to the app.
pub struct NicCore {
    pub(crate) cfg: NicConfig,
    port: NodePort,
    pub(crate) mem: SharedMemory,
    pub(crate) dma: Rc<RefCell<DmaEngine>>,
    pub cpu: Cpu,
    self_id: ComponentId,
    pspin: Option<PsPinDevice>,
    pub(crate) chains: Chains,
    /// INEC's staged-aggregation state, on a firmware-EC NIC.
    pub(crate) ec: Option<EcEngine>,
    /// When the EC engine's queue frees up.
    ec_busy_until: Time,
    /// The codes the EC engine has built, by scheme.
    pub(crate) codecs: RsCodecs,
    /// Recycled payload buffers (the NIC's packet-buffer ring): landed
    /// write payloads retire here and the EC engine / handlers draw
    /// intermediate-parity and accumulator buffers from it.
    pub(crate) pool: SharedBufPool,
    /// Boxes packets travel in: a frame is boxed once when it is queued
    /// for egress, and the box of every packet this NIC consumes comes
    /// back here for the next one.
    pkts: SharedPacketPool<Frame>,
    /// Egress queue. The marker on a WR's last packet names the class
    /// whose local credit returns when it leaves the NIC.
    out_q: VecDeque<(Pkt, Option<WrClass>)>,
    /// Credit-based WR flow control (SF-Zhou discipline): bounded per-class
    /// send budgets per peer, recv-credit returns piggybacked on acks.
    pub flow: FlowController,
    /// WRs waiting for credit, per peer per WR class (FIFO within class).
    /// Ordered by peer: released credit is handed out in peer order, so
    /// the egress order it produces is the same in every run.
    pending_wrs: BTreeMap<NodeId, [VecDeque<Vec<Pkt>>; 4]>,
    /// Optional per-tenant fair queueing of DFS read streams (the
    /// storage-side QoS stage): a read's response stream holds one of
    /// the scheduler's slots, and the backlog drains in deficit-round-robin
    /// order.
    read_qos: Option<TenantScheduler<QueuedRead>>,
    next_seq: u64,
    raw_writes: IdMap<MsgId, RawWriteState>,
    sends: IdMap<MsgId, SendState>,
    pending_reads: IdMap<MsgId, PendingRead>,
    /// Response streams in progress, by the key their deferred batches
    /// carry.
    streams: Slab<ResponseStream>,
    /// Deferred work by slot; a slot's key is its wake token.
    deferred: Slab<NicEvent>,
    /// Degraded gathers decoding on this NIC, by NIC-local id.
    pub(crate) decodes: IdMap<u64, DecodeGather>,
    pub(crate) next_decode: u64,
    mrs: Vec<(u64, u64)>,
    /// Service MAC key for NIC-side read validation: when installed,
    /// incoming read requests carrying a DFS header are authenticated on
    /// the NIC (the read-side analog of the sPIN write validation).
    service_key: Option<MacKey>,
    /// Gather/offload and refusal counters, shared with snapshot code.
    pub(crate) stats: SharedNicStats,
    /// Observability: span phase marks keyed by wire-level request id,
    /// plus the shared trace ring. Both default disabled; the cluster
    /// build installs the live hubs.
    pub obs: SharedObs,
    pub trace: SharedTrace,
}

impl NicCore {
    pub fn node(&self) -> NodeId {
        self.port.node
    }

    pub fn memory(&self) -> SharedMemory {
        self.mem.clone()
    }

    pub fn dma(&self) -> Rc<RefCell<DmaEngine>> {
        self.dma.clone()
    }

    pub fn port(&self) -> &NodePort {
        &self.port
    }

    /// Register a memory region for one-sided access.
    pub fn register_mr(&mut self, addr: u64, len: u64) {
        self.mrs.push((addr, len));
    }

    /// Install the service-shared MAC key: read requests carrying a DFS
    /// header are then capability-checked on the NIC before any byte is
    /// streamed (bad signature, expiry, or missing READ rights ⇒ NACK).
    pub fn install_service_key(&mut self, key: MacKey) {
        self.service_key = Some(key);
    }

    /// Whether one-sided access to `[addr, addr + len)` is permitted
    /// (always true unless MR enforcement is on). Public so software
    /// read/write paths (e.g. the CPU-validated RPC read) enforce the
    /// same protection boundary as the NIC's one-sided handlers.
    pub fn mr_ok(&self, addr: u64, len: u64) -> bool {
        if !self.cfg.enforce_mr {
            return true;
        }
        self.mrs
            .iter()
            .any(|&(a, l)| addr >= a && addr + len <= a + l)
    }

    /// This NIC's recycled payload-buffer ring.
    pub fn buf_pool(&self) -> SharedBufPool {
        self.pool.clone()
    }

    /// Draw payload buffers and packet boxes from `bufs` and `pkts`
    /// instead of this NIC's own pools. Both are host-side artefacts, not
    /// modelled resources: a cluster shares one of each between all its
    /// NICs so that nodes which only consume (parity nodes, ring tails)
    /// feed the nodes which only produce. Call before installing PsPIN.
    pub fn share_pools(&mut self, bufs: SharedBufPool, pkts: SharedPacketPool<Frame>) {
        assert!(self.pspin.is_none(), "share pools before installing PsPIN");
        self.pool = bufs;
        self.pkts = pkts;
    }

    /// Box `frame` for sending to `dst`.
    pub fn pkt(&self, dst: NodeId, frame: Frame) -> Pkt {
        self.pkts.borrow_mut().submit(self.port.node, dst, frame)
    }

    /// Shared handle to this NIC's offload counters (survives the NIC
    /// being moved into the engine at cluster build).
    pub fn nic_stats(&self) -> SharedNicStats {
        self.stats.clone()
    }

    /// Shared handle to this NIC's flow-control counters (same lifetime
    /// contract as [`Self::nic_stats`]).
    pub fn flow_stats(&self) -> SharedFlowStats {
        self.flow.stats_handle()
    }

    /// Replace the credit configuration (cluster build time, before any
    /// traffic: per-peer credit state re-initialises from the new budgets).
    pub fn set_credit_config(&mut self, cfg: CreditConfig) {
        self.flow = FlowController::new(cfg);
    }

    /// Install per-tenant fair queueing of DFS read streams on this NIC,
    /// with at most `max_streams` of them streaming at once (storage
    /// nodes; cluster build time). Returns the scheduler's per-tenant
    /// ledgers.
    pub fn install_read_qos(
        &mut self,
        quantum: u64,
        weights: &[(TenantId, u32)],
        max_streams: usize,
    ) -> SharedTenantLedgers {
        let sched = TenantScheduler::new(quantum, weights, max_streams);
        let ledgers = sched.ledgers_handle();
        self.read_qos = Some(sched);
        ledgers
    }

    /// Install PsPIN with an execution context on this NIC. The device
    /// shares the NIC's buffer pool, so handler DMA-write payloads recycle
    /// into the same ring the handlers allocate from.
    pub fn install_pspin(&mut self, cfg: PsPinConfig, ec: nadfs_pspin::ExecutionContext) {
        let mut dev = PsPinDevice::new(cfg, self.port.clone(), self.dma.clone(), self.self_id);
        dev.set_buf_pool(self.pool.clone());
        dev.set_packet_pool(self.pkts.clone());
        dev.install_context(ec);
        self.pspin = Some(dev);
    }

    pub fn pspin(&self) -> Option<&PsPinDevice> {
        self.pspin.as_ref()
    }

    /// Enable the INEC-style firmware EC engine on this NIC.
    pub fn enable_firmware_ec(&mut self) {
        self.ec = Some(EcEngine::default());
    }

    pub fn firmware_ec(&self) -> Option<&EcEngine> {
        self.ec.as_ref()
    }

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

    fn alloc_msg(&mut self) -> MsgId {
        let m = MsgId::new(self.port.node as u32, self.next_seq);
        self.next_seq += 1;
        m
    }

    /// Queue packets for transmission, bypassing WR credit accounting
    /// (egress link flow control still applies). Responder-side traffic —
    /// acks, read-response streams, gather flows — goes through here: it
    /// is modelled as hardware-generated, like AETH acks, and must never
    /// block on requester credit or the credit cycle would deadlock. The
    /// TriEC client's interleaved chunk writes (§VI-B-1) also enter here:
    /// the interleave is already shaped by the caller.
    pub fn send_pkts(&mut self, ctx: &mut Ctx<'_>, pkts: impl IntoIterator<Item = Pkt>) {
        self.out_q.extend(pkts.into_iter().map(|p| (p, None)));
        self.pump(ctx);
    }

    /// Post one work request (a message's packets, all to `dst`) under
    /// the credit discipline: if local (and, for two-sided classes,
    /// remote) credit is available the packets enter the egress queue
    /// now; otherwise the WR parks in the per-peer pending queue and is
    /// released when credit returns.
    fn post_wr(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, pkts: Vec<Pkt>, class: WrClass) {
        if self.flow.try_acquire(dst, class) {
            self.enqueue_wr(pkts, class);
            self.pump(ctx);
        } else {
            self.flow.note_queued();
            self.pending_wrs.entry(dst).or_default()[class.index()].push_back(pkts);
        }
    }

    /// Move an acquired WR's packets into the egress queue. Egress-completed
    /// classes (Data/Imm/Write) carry a marker on their last packet: the
    /// local credit returns when that packet leaves the NIC. Read-class
    /// completion is the response: the request's `PendingRead` returns it.
    fn enqueue_wr(&mut self, pkts: Vec<Pkt>, class: WrClass) {
        let last = pkts.len().saturating_sub(1);
        for (i, p) in pkts.into_iter().enumerate() {
            let marker = if i == last && class != WrClass::Read {
                Some(class)
            } else {
                None
            };
            self.out_q.push_back((p, marker));
        }
    }

    /// Release pending WRs that now have credit, appending their packets
    /// to the egress queue (the caller pumps). FIFO within each peer/class.
    fn release_pending(&mut self) {
        let peers: Vec<NodeId> = self
            .pending_wrs
            .iter()
            .filter(|(_, q)| q.iter().any(|c| !c.is_empty()))
            .map(|(&p, _)| p)
            .collect();
        for peer in peers {
            for class in WrClass::ALL {
                loop {
                    let queue = &self.pending_wrs.get(&peer).expect("listed")[class.index()];
                    if queue.is_empty() || !self.flow.can_post(peer, class) {
                        break;
                    }
                    assert!(
                        self.flow.try_acquire(peer, class),
                        "can_post implies acquire"
                    );
                    let pkts = self.pending_wrs.get_mut(&peer).expect("listed")[class.index()]
                        .pop_front()
                        .expect("nonempty");
                    self.flow.note_released();
                    self.enqueue_wr(pkts, class);
                }
            }
        }
    }

    /// A read that is over (landed or cancelled) hands back the Read
    /// credit its request holds, which may release queued reads (the
    /// caller pumps). A request still parked for credit when its read is
    /// cancelled has none yet: what is handed back here is the credit it
    /// takes when it is released — at once, if it is first in line — so
    /// the books balance.
    fn return_read_credit(&mut self, read: PendingRead) {
        if let Some(peer) = read.credit_from {
            self.flow.on_local_complete(peer, WrClass::Read);
            self.release_pending();
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while !self.out_q.is_empty() {
            let mut gate = self.port.egress_gate.borrow_mut();
            if !gate.try_take(ctx.now()) {
                gate.register_waiter(ctx, self.self_id, EGRESS_WAKE);
                return;
            }
            drop(gate);
            let (pkt, marker) = self.out_q.pop_front().expect("nonempty");
            let dst = pkt.pkt.dst;
            ctx.schedule(Dur::ZERO, self.port.fabric, pkt);
            if let Some(class) = marker {
                // The WR's last packet left the NIC: its send-queue slot
                // frees, which may release queued WRs into the egress
                // queue (the loop keeps draining them).
                self.flow.on_local_complete(dst, class);
                self.release_pending();
            }
        }
    }

    /// Messages this NIC holds state for: writes and SENDs in reassembly,
    /// reads awaiting their response (diagnostic).
    pub fn open_messages(&self) -> usize {
        self.raw_writes.len() + self.sends.len() + self.pending_reads.len()
    }

    /// Build the packets of an RDMA write message to `dst` without sending
    /// them.
    pub fn build_write_pkts(
        &mut self,
        dst: NodeId,
        dfs: Option<DfsHeader>,
        wrh: WriteReqHeader,
        data: Bytes,
    ) -> (MsgId, Vec<Pkt>) {
        let msg = self.alloc_msg();
        let (mut first_cap, rest_cap) = write_payload_caps(&wrh);
        if dfs.is_none() {
            first_cap += DfsHeader::wire_size();
        }
        let parts = split_payload(data.len() as u32, first_cap, rest_cap);
        let total = parts.len() as u32;
        let mut wrh = Some(wrh);
        let pkts = parts
            .into_iter()
            .enumerate()
            .map(|(i, (off, len))| {
                let frame = Frame::Write(WritePkt {
                    msg,
                    pkt_idx: i as u32,
                    total_pkts: total,
                    dfs: if i == 0 { dfs } else { None },
                    wrh: if i == 0 { wrh.take() } else { None },
                    offset: off,
                    data: data.slice(off as usize..(off + len) as usize),
                });
                self.pkt(dst, frame)
            })
            .collect();
        (msg, pkts)
    }

    /// One-sided RDMA write of `data` to `dst`.
    pub fn send_write(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        dfs: Option<DfsHeader>,
        wrh: WriteReqHeader,
        data: Bytes,
    ) -> MsgId {
        let (msg, pkts) = self.build_write_pkts(dst, dfs, wrh, data);
        self.post_wr(ctx, dst, pkts, WrClass::Write);
        msg
    }

    /// Two-sided SEND carrying an RPC body plus optional inline data.
    pub fn send_rpc(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        body: RpcBody,
        data: Bytes,
    ) -> MsgId {
        let msg = self.alloc_msg();
        let (first_cap, rest_cap) = send_payload_caps(&body);
        let parts = split_payload(data.len() as u32, first_cap, rest_cap);
        let total = parts.len() as u32;
        let mut body = Some(body);
        let pkts = parts
            .into_iter()
            .enumerate()
            .map(|(i, (off, len))| {
                let frame = Frame::Send(SendPkt {
                    msg,
                    pkt_idx: i as u32,
                    total_pkts: total,
                    rpc: if i == 0 { body.take() } else { None },
                    offset: off,
                    data: data.slice(off as usize..(off + len) as usize),
                });
                self.pkt(dst, frame)
            })
            .collect();
        self.post_wr(ctx, dst, pkts, WrClass::Data);
        msg
    }

    /// One-sided RDMA read: fetch `rrh.len` bytes at `rrh.addr` on `dst`
    /// into local memory at `local_addr`; `on_read_done(token)` follows.
    pub fn send_read(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        rrh: ReadReqHeader,
        dfs: Option<DfsHeader>,
        local_addr: u64,
        token: u64,
    ) -> MsgId {
        self.post_read(ctx, dst, rrh, dfs, ReadSink::Host { local_addr, token })
    }

    /// Post a one-sided read whose response packets go to `sink`.
    pub(crate) fn post_read(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        rrh: ReadReqHeader,
        dfs: Option<DfsHeader>,
        sink: ReadSink,
    ) -> MsgId {
        let msg = self.alloc_msg();
        self.arm_read(msg, sink, Some(dst));
        let pkts = vec![self.pkt(dst, Frame::ReadReq(ReadReqPkt { msg, dfs, rrh }))];
        // Gather coordinators fetch survivor ranges NIC-to-NIC on the
        // response path. These are requester-side WRs like any other
        // one-sided read and consume Read credit toward the survivor peer
        // (the response *stream* stays exempt, so credit still cycles):
        // exempting them let a gather storm monopolize a tight link
        // against flow-controlled peers. A stalled fetch parks in the
        // pending queue and releases when an earlier fetch's response
        // returns its credit — bounded in-flight, no wedge.
        self.post_wr(ctx, dst, pkts, WrClass::Read);
        msg
    }

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
        let msg = self.alloc_msg();
        self.arm_read(msg, ReadSink::Host { local_addr, token }, Some(dst));
        let pkts = vec![self.pkt(dst, Frame::GatherReq(GatherReqPkt { msg, dfs, grh }))];
        self.post_wr(ctx, dst, pkts, WrClass::Read);
        msg
    }

    /// Arm reassembly for read-response packets tagged with `msg`, landing
    /// them at `local_addr` and firing `on_read_done(token)` once complete.
    /// Used by [`Self::send_read`] and by RPC-transported reads, where the
    /// request goes out as a SEND but the data comes back as ReadResp
    /// frames keyed to the request's message id.
    pub fn expect_read_resp(&mut self, msg: MsgId, local_addr: u64, token: u64) {
        self.arm_read(msg, ReadSink::Host { local_addr, token }, None);
    }

    fn arm_read(&mut self, msg: MsgId, sink: ReadSink, credit_from: Option<NodeId>) {
        self.pending_reads.insert(
            msg,
            PendingRead {
                sink,
                pkts_seen: 0,
                flush: Time::ZERO,
                credit_from,
            },
        );
    }

    /// Where the response of read `msg` goes, while it is outstanding.
    pub(crate) fn read_sink(&self, msg: MsgId) -> Option<ReadSink> {
        self.pending_reads.get(&msg).map(|p| p.sink)
    }

    /// Forget an armed read (e.g. after its request was NACKed): no
    /// response packets will land and no completion will fire. Any Read
    /// credit the request held returns to the pool. (No `ctx` here — the
    /// released credit admits queued WRs at the next pump.)
    pub fn cancel_read(&mut self, msg: MsgId) {
        if let Some(read) = self.pending_reads.remove(&msg) {
            self.return_read_credit(read);
        }
    }

    /// Stream `len` bytes at `addr` back to `dst` as read-response packets
    /// for request `msg` — the responder half used both by the one-sided
    /// read path and by the CPU-validated RPC read (the storage software
    /// calls this after its own capability check).
    pub fn respond_read(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        msg: MsgId,
        addr: u64,
        len: u32,
    ) {
        self.respond(ctx, dst, msg, None, Ranges::of_read(addr, len), false);
    }

    /// Send a protocol ack, piggybacking any pending recv-credit return
    /// for `dst` on it (the SF-Zhou trick: grants ride completion traffic
    /// that flows anyway, in the AETH bytes already charged by the frame).
    pub fn send_ack(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, mut ack: AckPkt) {
        ack.credit = self.flow.take_grant(dst, false);
        let pkt = self.pkt(dst, Frame::Ack(ack));
        self.send_pkts(ctx, [pkt]);
    }

    /// Flush a standalone credit ack to `peer` if returns are pending —
    /// fired when the pending return crosses the half-budget threshold and
    /// no protocol ack is imminent to carry it.
    fn send_credit_ack(&mut self, ctx: &mut Ctx<'_>, peer: NodeId) {
        let grant = self.flow.take_grant(peer, true);
        if grant.is_zero() {
            return;
        }
        let mut ack = AckPkt::new(CREDIT_MSG, None, Status::Ok);
        ack.credit = grant;
        let pkt = self.pkt(peer, Frame::Ack(ack));
        self.send_pkts(ctx, [pkt]);
    }

    /// Configure a HyperLoop forwarding chain on a remote NIC. Large
    /// configurations (many WQE updates) span several MTU-sized writes;
    /// the chain arms — and the config ack returns — on the last fragment.
    pub fn send_hl_config(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        mut cfg: HlConfigPkt,
    ) -> MsgId {
        let msg = self.alloc_msg();
        cfg.msg = msg;
        cfg.total_frags = cfg.frags_needed();
        let pkts = (0..cfg.total_frags)
            .map(|frag| {
                let mut f = cfg.clone();
                f.frag = frag;
                self.pkt(dst, Frame::HlConfig(f))
            })
            .collect();
        self.post_wr(ctx, dst, pkts, WrClass::Write);
        msg
    }

    /// Schedule an app timer.
    pub fn set_timer(&mut self, ctx: &mut Ctx<'_>, delay: Dur, tag: u64) {
        self.defer(ctx, ctx.now() + delay, NicEvent::Timer { tag });
    }

    /// Run `ev` at `at` (now, if that has passed).
    pub(crate) fn defer(&mut self, ctx: &mut Ctx<'_>, at: Time, ev: NicEvent) {
        let key = self.deferred.insert(ev) as u64;
        ctx.wake_at(at, self.self_id, key);
    }

    // --- ingress handling -------------------------------------------------

    fn release_ingress(&mut self, ctx: &mut Ctx<'_>) {
        self.port.ingress_gate.borrow_mut().release(ctx);
    }

    /// Land one packet of a raw write. The frame is consumed in place:
    /// its header and payload are taken out of the arriving box.
    fn on_write_pkt(&mut self, ctx: &mut Ctx<'_>, src: NodeId, w: &mut WritePkt) {
        let now = ctx.now();
        if w.is_first() {
            // A first packet without its WRH is malformed; one aimed
            // outside every MR, or asking for a resiliency this NIC has
            // no engine for, is refused. Either way nothing of the
            // message is kept and its later packets drop below.
            let acceptable = |h: &WriteReqHeader| {
                let served = match h.resiliency {
                    Resiliency::None => true,
                    Resiliency::Replicate { .. } => false,
                    Resiliency::ErasureCode(_) => self.ec.is_some(),
                };
                served && self.mr_ok(h.target_addr, h.len as u64)
            };
            let Some(wrh) = w.wrh.take().filter(acceptable) else {
                let greq = w.dfs.map(|d| d.greq_id);
                self.send_ack(ctx, src, AckPkt::new(w.msg, greq, Status::Rejected));
                return;
            };
            let chain_write = self.chains.matches(&wrh);
            self.raw_writes.insert(
                w.msg,
                RawWriteState {
                    src,
                    dfs: w.dfs,
                    wrh,
                    pkts_seen: 0,
                    total: w.total_pkts,
                    bytes: 0,
                    flush: Time::ZERO,
                    chain_write,
                },
            );
        }
        let Some(st) = self.raw_writes.get_mut(&w.msg) else {
            return; // message was rejected at its first packet
        };
        let addr = st.wrh.target_addr + w.offset as u64;
        let done = self.dma.borrow_mut().land(now, addr, &w.data);
        st.flush = st.flush.max(done);
        st.pkts_seen += 1;
        st.bytes += w.data.len() as u32;
        // Payload is durable; if this was the last live reference to the
        // message's backing buffer, recycle it into the NIC's ring.
        if let Ok(v) = std::mem::take(&mut w.data).try_unwrap() {
            self.pool.borrow_mut().put(v);
        }
        let complete = st.pkts_seen == st.total;
        let chain_write = st.chain_write;
        if chain_write {
            // Chains forward chunk-by-chunk as data lands (pipelining).
            let wrh = st.wrh.clone();
            let bytes = st.bytes;
            let flush = st.flush;
            if complete {
                self.raw_writes.remove(&w.msg);
            }
            chains::on_progress(self, ctx, &wrh, bytes, flush);
            return;
        }
        if complete {
            let st = self.raw_writes.remove(&w.msg).expect("just updated");
            if matches!(st.wrh.resiliency, Resiliency::ErasureCode(_)) {
                ec_engine::on_ec_write_landed(self, ctx, src, w.msg, st.dfs, st.wrh, st.flush);
                return;
            }
            // Plain raw write: ack the initiator once durable.
            let ack = AckPkt::new(w.msg, st.dfs.map(|d| d.greq_id), Status::Ok);
            self.defer(ctx, st.flush, NicEvent::Ack { dst: st.src, ack });
        }
    }

    /// Land one packet of a SEND; returns the message (its sender, body
    /// and data) once it is whole.
    fn on_send_pkt(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        s: &mut SendPkt,
    ) -> Option<(NodeId, RpcBody, Bytes)> {
        if s.is_first() {
            // A first packet without a body is malformed: refuse the
            // message; its later packets find no state and drop below.
            let Some(body) = s.rpc.take() else {
                self.send_ack(ctx, src, AckPkt::new(s.msg, None, Status::Rejected));
                return None;
            };
            // Reassembly buffer from the recycled ring: capacity for the
            // whole message up front (per-packet payload is MTU-bounded),
            // so the extends below never reallocate and the SEND path
            // stays off the allocator.
            let cap = if s.total_pkts <= 1 {
                s.data.len()
            } else {
                s.total_pkts as usize * send_payload_caps(&body).1 as usize
            };
            let data = self.pool.borrow_mut().get_spare(cap);
            self.sends.insert(
                s.msg,
                SendState {
                    src,
                    body,
                    data,
                    pkts_seen: 0,
                    total: s.total_pkts,
                },
            );
        }
        // (No state: the first packet was refused, or never arrived.)
        let st = self.sends.get_mut(&s.msg)?;
        // Landing in the receive buffer costs a DMA write.
        let now = ctx.now();
        self.dma
            .borrow_mut()
            .land(now, 0xFEED_0000 + s.offset as u64, &s.data);
        st.data.extend_from_slice(&s.data);
        st.pkts_seen += 1;
        if st.pkts_seen < st.total {
            return None;
        }
        let st = self.sends.remove(&s.msg).expect("just updated");
        Some((st.src, st.body, Bytes::from(st.data)))
    }

    /// NIC-side validation of a DFS-level read (the read-side analog of
    /// the sPIN write validation): check the capability against the
    /// service key, where one is installed, before a byte is streamed.
    /// `Err` is the NACK to answer request `msg` with.
    fn validate(
        &mut self,
        msg: MsgId,
        dfs: &DfsHeader,
        now: Time,
        describe: impl FnOnce() -> String,
    ) -> Result<(), AckPkt> {
        if let Some(key) = self.service_key.as_ref() {
            let cap = &dfs.capability;
            if cap.verify(key, now.as_ns() as u64, Rights::READ).is_err() {
                return Err(AckPkt::new(msg, Some(dfs.greq_id), Status::AuthFailed));
            }
        }
        let spans = &mut self.obs.borrow_mut().spans;
        spans.mark_corr_once(dfs.greq_id, phase::NIC_VALIDATED, now);
        self.trace
            .borrow_mut()
            .emit_from(now, "nic", Some(self.port.node), describe);
        Ok(())
    }

    fn on_read_req(&mut self, ctx: &mut Ctx<'_>, src: NodeId, r: &ReadReqPkt) {
        if !self.mr_ok(r.rrh.addr, r.rrh.len as u64) {
            let greq = r.dfs.map(|d| d.greq_id);
            self.send_ack(ctx, src, AckPkt::new(r.msg, greq, Status::Rejected));
            return;
        }
        // DFS-level reads present a capability in their DFS header.
        // Header-less reads (e.g. the RPC+RDMA data fetch from a client)
        // are transport-level and pass through, as do nodes without the
        // service key.
        if let (Some(_), Some(dfs)) = (self.service_key.as_ref(), r.dfs.as_ref()) {
            let describe = || format!("read-validate greq={} len={}", dfs.greq_id, r.rrh.len);
            if let Err(nack) = self.validate(r.msg, dfs, ctx.now(), describe) {
                self.stats.borrow_mut().read_auth_failures += 1;
                self.send_ack(ctx, src, nack);
                return;
            }
        }
        // DFS reads pass through the per-tenant scheduler when QoS is on;
        // transport-level reads (e.g. gather segment fetches) bypass it —
        // they are part of an already-admitted flow and queueing them
        // behind tenant backlog would invert the dependency.
        if let (Some(q), Some(dfs)) = (self.read_qos.as_mut(), r.dfs.as_ref()) {
            q.push(
                dfs.tenant,
                r.rrh.len.max(1) as u64,
                QueuedRead {
                    dst: src,
                    msg: r.msg,
                    addr: r.rrh.addr,
                    len: r.rrh.len,
                },
            );
            self.admit_reads(ctx);
        } else {
            self.respond_read(ctx, src, r.msg, r.rrh.addr, r.rrh.len);
        }
    }

    /// Start queued DFS reads, in DRR order, while stream slots are free.
    /// (A read that streams in one batch frees its slot before `respond`
    /// returns; this loop hands it on.)
    fn admit_reads(&mut self, ctx: &mut Ctx<'_>) {
        while let Some((_, rd)) = self.read_qos.as_mut().and_then(TenantScheduler::admit) {
            let ranges = Ranges::of_read(rd.addr, rd.len);
            self.respond(ctx, rd.dst, rd.msg, None, ranges, true);
        }
    }

    /// Gather read arriving on a NIC without PsPIN: the firmware validates
    /// the capability once for the whole flow, then runs the gather state
    /// machine. (With PsPIN installed the HPU header handler validates it,
    /// and the completion handler hands it over as a [`HostNotify`].)
    fn on_gather_req(&mut self, ctx: &mut Ctx<'_>, src: NodeId, g: &GatherReqPkt) {
        let describe = || {
            format!(
                "gather-validate greq={} segs={} len={}",
                g.dfs.greq_id,
                g.grh.segments.len(),
                g.grh.total_len
            )
        };
        if let Err(nack) = self.validate(g.msg, &g.dfs, ctx.now(), describe) {
            self.stats.borrow_mut().gather_auth_failures += 1;
            self.send_ack(ctx, src, nack);
            return;
        }
        self.start_gather(ctx, src, g);
    }

    /// Run gather `g` from `client`, validated. A healthy plan names
    /// ranges on this node only (the client batches healthy pieces per
    /// node) and streams them straight from host memory; a degraded plan
    /// names the k survivors of one stripe, and the lost ranges stream out
    /// of the decode as the survivors arrive (`ec_engine::start_decode`).
    /// A plan that is neither — or whose local ranges cross the MR
    /// protection boundary one-sided reads honour — is answered
    /// `Rejected`. (The sPIN completion handler's
    /// [`HostNotify::Gather`] lands here.)
    pub fn start_gather(&mut self, ctx: &mut Ctx<'_>, client: NodeId, g: &GatherReqPkt) {
        let (msg, greq, grh) = (g.msg, g.dfs.greq_id, &g.grh);
        let me = self.port.node as u32;
        let local = |s: &GatherSegment| s.coord.node == me;
        let in_mrs = |s: &GatherSegment| !local(s) || self.mr_ok(s.coord.addr, s.len as u64);
        let accepted = grh.segments.iter().all(in_mrs)
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
                Some(rec) => {
                    ec_engine::start_decode(self, ctx, client, msg, greq, &grh.segments, rec)
                }
            };
        if accepted {
            self.stats.borrow_mut().gather_reads += 1;
        } else {
            let nack = AckPkt::new(msg, Some(greq), Status::Rejected);
            self.send_ack(ctx, client, nack);
        }
    }

    /// Stream `ranges` back to `dst` as the response flow of request
    /// `msg` (of op `greq`, when it is a gather; holding a read-QoS
    /// `slot`, when admitted through it): one packet per
    /// `max_payload_plain()` bytes of each range, or a lone empty packet
    /// when there is nothing to read.
    fn respond(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        msg: MsgId,
        greq: Option<u64>,
        ranges: Ranges,
        slot: bool,
    ) {
        let cap = nadfs_wire::sizes::max_payload_plain();
        let pkts = ranges.as_slice().iter().map(|r| r.1.div_ceil(cap));
        let total_pkts = pkts.sum::<u32>().max(1);
        let sink = StreamSink::Wire {
            dst,
            msg,
            greq,
            total_pkts,
            slot,
        };
        self.start_stream(ctx, ranges, sink);
    }

    pub(crate) fn start_stream(&mut self, ctx: &mut Ctx<'_>, ranges: Ranges, sink: StreamSink) {
        let key = self.streams.insert(ResponseStream {
            ranges,
            range: 0,
            off: 0,
            next_idx: 0,
            sink,
        });
        self.stream_step(ctx, key);
    }

    /// Read the next batch of stream `key`: at most [`DMA_BATCH_PKTS`]
    /// packets' worth, one DMA read per range it touches, handed to the
    /// stream's sink when the last of them is at the NIC. The event that
    /// reads the batch after it is scheduled before the hand-off. A read
    /// whose last batch this is releases its QoS slot; the caller admits
    /// the next read.
    pub(crate) fn stream_step(&mut self, ctx: &mut Ctx<'_>, key: usize) {
        let now = ctx.now();
        let Some(s) = self.streams.get_mut(key) else {
            return;
        };
        if let StreamSink::Decode(of) = s.sink {
            if !self.decodes.contains_key(&of.gather) {
                self.streams.remove(key); // the gather was aborted
                return;
            }
        }
        let cap = nadfs_wire::sizes::max_payload_plain();
        let src = self.port.node;
        let first_idx = s.next_idx;
        let mut pkts = Vec::new();
        let mut whole = Bytes::new();
        let mut ready = now;
        let mut batch_bytes = 0u64;
        let mut budget = DMA_BATCH_PKTS;
        while budget > 0 {
            let Some(&(addr, len, dest_off)) = s.ranges.as_slice().get(s.range) else {
                break;
            };
            let take = (len - s.off).min(cap * budget);
            let from = addr + s.off as u64;
            let (data, dma_ready) = self.dma.borrow_mut().read(now, from, take as usize);
            ready = ready.max(dma_ready);
            match s.sink {
                StreamSink::Wire {
                    dst,
                    msg,
                    total_pkts,
                    ..
                } => {
                    let mut boxes = self.pkts.borrow_mut();
                    for (i, at) in (0..take).step_by(cap as usize).enumerate() {
                        let frame = Frame::ReadResp(ReadRespPkt {
                            msg,
                            pkt_idx: s.next_idx + i as u32,
                            total_pkts,
                            offset: dest_off + s.off + at,
                            data: data.slice(at as usize..(at + cap).min(take) as usize),
                        });
                        pkts.push(boxes.submit(src, dst, frame));
                    }
                }
                // A survivor is one range, so one read is the batch.
                StreamSink::Decode(_) => whole = data,
            }
            let n = take.div_ceil(cap);
            s.next_idx += n;
            budget -= n;
            batch_bytes += take as u64;
            s.off += take;
            if s.off == len {
                s.range += 1;
                s.off = 0;
            }
        }
        let more = s.range < s.ranges.as_slice().len();
        let sink = s.sink;
        if !more {
            self.streams.remove(key);
        }
        match sink {
            StreamSink::Wire {
                dst,
                msg,
                greq,
                total_pkts,
                slot,
            } => {
                if more {
                    self.defer(ctx, ready, NicEvent::StreamNext(key));
                }
                if pkts.is_empty() {
                    let empty = Frame::ReadResp(ReadRespPkt {
                        msg,
                        pkt_idx: 0,
                        total_pkts,
                        offset: 0,
                        data: Bytes::new(),
                    });
                    pkts.push(self.pkt(dst, empty));
                }
                if let Some(greq) = greq {
                    // Per-batch phase mark: the op span records pipeline
                    // progress.
                    self.stats.borrow_mut().gather_bytes_streamed += batch_bytes;
                    let spans = &mut self.obs.borrow_mut().spans;
                    spans.mark_corr(greq, phase::STREAMED, ready);
                }
                self.defer(ctx, ready, NicEvent::Send(pkts));
                if slot && !more {
                    // Last batch queued: the next tenant-scheduled read
                    // may start.
                    self.read_qos.as_mut().expect("admitted").release();
                }
            }
            StreamSink::Decode(of) => {
                let ev = NicEvent::DecodeLocal {
                    of,
                    first_idx,
                    data: whole,
                    next: more.then_some(key),
                };
                self.defer(ctx, ready, ev);
            }
        }
    }

    fn on_read_resp(&mut self, ctx: &mut Ctx<'_>, r: &mut ReadRespPkt) {
        let now = ctx.now();
        let mut pending = self.pending_reads.get_mut(&r.msg);
        if let Some(ReadSink::Decode(of)) = pending.as_ref().map(|p| p.sink) {
            let idx = r.offset / nadfs_wire::sizes::max_payload_plain();
            ec_engine::absorb(self, ctx, of, idx, &r.data);
            // An absorb that aborted its gather cancelled this read too.
            pending = self.pending_reads.get_mut(&r.msg);
        }
        if let Some(p) = pending {
            if let ReadSink::Host { local_addr, .. } = p.sink {
                let addr = local_addr + r.offset as u64;
                let done = self.dma.borrow_mut().land(now, addr, &r.data);
                p.flush = p.flush.max(done);
            }
            p.pkts_seen += 1;
            if p.pkts_seen == r.total_pkts {
                let p = self.pending_reads.remove(&r.msg).expect("present");
                if let ReadSink::Host { token, .. } = p.sink {
                    self.defer(ctx, p.flush, NicEvent::ReadDone { token });
                }
                // The read WR completed (response fully landed): its
                // read-queue slot frees now, possibly releasing queued
                // reads.
                if p.credit_from.is_some() {
                    self.return_read_credit(p);
                    self.pump(ctx);
                }
            }
        }
        // The payload is consumed (or its read was abandoned). One that is
        // a whole buffer of its own, not a window into a DMA batch, is a
        // packet buffer — a rebuilt packet travels in the accumulator it
        // was decoded in — and goes back to the ring.
        let len = r.data.len();
        match std::mem::take(&mut r.data).try_unwrap() {
            Ok(v) if len > 0 && v.len() == len => self.pool.borrow_mut().put(v),
            _ => {}
        }
    }
}

/// The per-node component: hardware core plus node software.
pub struct Nic {
    pub core: NicCore,
    pub(crate) app: Box<dyn NicApp>,
}

impl Nic {
    /// The wake token that fires app timer `tag` (below 2^62) on a NIC
    /// woken with [`nadfs_simnet::Engine::wake`]: how a harness outside the
    /// engine starts the node software.
    pub fn timer_token(tag: u64) -> u64 {
        assert!(tag < 1 << 62, "timer tag out of range");
        KICKS + tag
    }

    /// Create a NIC bound to `port`; `self_id` is the component id this NIC
    /// will be installed under (reserve it first).
    pub fn new(cfg: NicConfig, port: NodePort, self_id: ComponentId, app: Box<dyn NicApp>) -> Nic {
        let mem = HostMemory::new();
        let dma = Rc::new(RefCell::new(DmaEngine::new(cfg.dma.clone(), mem.clone())));
        let cpu = Cpu::new(cfg.memcpy_bw);
        Nic {
            core: NicCore {
                cfg,
                port,
                mem,
                dma,
                cpu,
                self_id,
                pspin: None,
                chains: Chains::default(),
                ec: None,
                ec_busy_until: Time::ZERO,
                codecs: RsCodecs::default(),
                // 256 retained buffers, byte-capped by the pool's default
                // retained-capacity budget (recycled whole-block payloads
                // can be large); bounds pool memory like a real RX ring.
                pool: BufPool::shared(256),
                pkts: PacketPool::shared(),
                out_q: VecDeque::new(),
                flow: FlowController::new(CreditConfig::default()),
                pending_wrs: BTreeMap::new(),
                read_qos: None,
                next_seq: 0,
                raw_writes: IdMap::default(),
                sends: IdMap::default(),
                pending_reads: IdMap::default(),
                streams: Slab::new(),
                deferred: Slab::new(),
                decodes: IdMap::default(),
                next_decode: 0,
                mrs: Vec::new(),
                service_key: None,
                stats: Rc::new(RefCell::new(NicStats::default())),
                obs: ObsHub::disabled(),
                trace: Trace::disabled(),
            },
            app,
        }
    }
}

impl Component for Nic {
    /// A packet off the wire: the only boxed event a NIC receives.
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
        let Ok(arrived) = ev.downcast::<PacketEvent<Frame>>() else {
            panic!("nic {}: unknown event", self.core.port.node);
        };
        Self::on_packet(&mut self.core, &mut *self.app, ctx, arrived)
    }

    /// Everything else, by token (the ranges are `KICKS`'s).
    fn wake(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let core = &mut self.core;
        let app = &mut *self.app;
        match token {
            // The egress gate released a credit: both the NIC's own queue
            // and the sPIN runs parked on it retry.
            EGRESS_WAKE | PsPinDevice::EGRESS_WAKE => {
                core.pump(ctx);
                if let Some(dev) = core.pspin.as_mut() {
                    dev.on_gate_wake(ctx);
                }
            }
            t if t >= KICKS => {
                let tag = t - KICKS;
                Self::on_deferred(core, app, ctx, NicEvent::Timer { tag });
            }
            t if t >= PsPinDevice::WAKES => {
                let dev = core.pspin.as_mut().expect("pspin installed");
                match dev.on_wake(ctx, t) {
                    // The handlers validated the gather: it never reaches
                    // the host.
                    Some(HostNotify::Gather { client, req }) => {
                        core.start_gather(ctx, client, &req)
                    }
                    Some(HostNotify::Host(ev)) => app.on_host_notify(core, ctx, ev),
                    None => {}
                }
            }
            key => {
                let ev = core.deferred.remove(key as usize);
                Self::on_deferred(core, app, ctx, ev.expect("deferred NIC work"));
            }
        }
    }

    fn name(&self) -> String {
        format!("nic-{}", self.core.port.node)
    }
}

impl Nic {
    /// A frame off the wire. It is read (and its owned parts taken) in
    /// place; the box then goes back to the pool, or on into PsPIN.
    fn on_packet(core: &mut NicCore, app: &mut dyn NicApp, ctx: &mut Ctx<'_>, mut arrived: Pkt) {
        let src = arrived.pkt.src;
        match &mut arrived.pkt.payload {
            Frame::Write(_) | Frame::GatherReq(_) if core.pspin.is_some() => {
                // PsPIN matches all incoming RDMA write traffic; it
                // owns the ingress credit until L1 copy. Gather
                // requests are sPIN-processed where available: the
                // HPU header handler validates the flow and the
                // completion handler hands the plan to the firmware.
                let dev = core.pspin.as_mut().expect("checked");
                dev.ingest(ctx, arrived);
                return;
            }
            Frame::Write(w) => {
                core.on_write_pkt(ctx, src, w);
                core.release_ingress(ctx);
            }
            Frame::ReadReq(r) => {
                core.on_read_req(ctx, src, r);
                core.release_ingress(ctx);
            }
            Frame::GatherReq(g) => {
                core.on_gather_req(ctx, src, g);
                core.release_ingress(ctx);
            }
            Frame::ReadResp(r) => {
                core.on_read_resp(ctx, r);
                core.release_ingress(ctx);
            }
            Frame::Send(s) => {
                let whole = core.on_send_pkt(ctx, src, s);
                core.release_ingress(ctx);
                if let Some((from, body, data)) = whole {
                    // One SEND message absorbed = one recv WR
                    // consumed and reposted: a credit return for
                    // `src` is now pending (piggybacks on the next
                    // ack, or flushes standalone at threshold).
                    let flush = core.flow.on_recv(src, WrClass::Data);
                    app.on_rpc(core, ctx, from, s.msg, body, data.clone());
                    // If the app released its reference, the
                    // backing buffer recycles into the ring.
                    if let Ok(v) = data.try_unwrap() {
                        core.pool.borrow_mut().put(v);
                    }
                    if flush {
                        // After on_rpc so a synchronous protocol
                        // ack gets first chance to carry the grant.
                        core.send_credit_ack(ctx, src);
                    }
                }
            }
            Frame::Ack(ackp) => {
                core.release_ingress(ctx);
                // Every ack may carry a recv-credit grant; apply it
                // before the app runs so WRs freed by it release.
                core.flow.on_grant(src, ackp.credit);
                core.release_pending();
                // A survivor refusing a decode's fetch is the
                // NIC's business, not the node software's.
                let refused = ackp.status != Status::Ok;
                let own = refused && ec_engine::on_fetch_nack(core, ctx, ackp);
                if ackp.msg != CREDIT_MSG && !own {
                    app.on_ack(core, ctx, src, *ackp);
                }
                core.pump(ctx);
            }
            Frame::HlConfig(cfgp) => {
                let msg = cfgp.msg;
                let last = cfgp.is_last_frag();
                if last {
                    core.chains.install(cfgp.clone(), src);
                }
                core.release_ingress(ctx);
                if last {
                    // Config acknowledgement: the client must know
                    // the ring is armed before pushing data.
                    core.send_ack(ctx, src, AckPkt::new(msg, None, Status::Ok));
                }
            }
        }
        core.pkts.borrow_mut().recycle(arrived);
    }

    /// Work this NIC deferred, now due.
    fn on_deferred(core: &mut NicCore, app: &mut dyn NicApp, ctx: &mut Ctx<'_>, ev: NicEvent) {
        match ev {
            NicEvent::Timer { tag } => {
                app.on_timer(core, ctx, tag);
                // Timer handlers may cancel reads (returning credit) —
                // drain anything the freed credit admitted.
                core.pump(ctx);
            }
            NicEvent::Send(pkts) => core.send_pkts(ctx, pkts),
            NicEvent::SendOne(pkt) => core.send_pkts(ctx, [pkt]),
            NicEvent::StreamNext(key) => {
                core.stream_step(ctx, key);
                core.admit_reads(ctx);
            }
            NicEvent::Ack { dst, ack } => core.send_ack(ctx, dst, ack),
            NicEvent::ReadDone { token } => app.on_read_done(core, ctx, token),
            NicEvent::Writes(writes) => {
                for (dst, dfs, wrh, data) in writes {
                    core.send_write(ctx, dst, dfs, wrh, data);
                }
            }
            NicEvent::ChainFwdReady { addr, chunk } => chains::fwd_ready(core, ctx, addr, chunk),
            NicEvent::ChainComplete { addr } => chains::complete(core, ctx, addr),
            NicEvent::Encode { wrh, dfs } => ec_engine::encode(core, ctx, &wrh, dfs),
            NicEvent::Aggregate { stripe, parity_idx } => {
                ec_engine::aggregate(core, ctx, stripe, parity_idx)
            }
            NicEvent::DecodeArmed { gather } => ec_engine::decode_armed(core, ctx, gather),
            NicEvent::DecodeLocal {
                of,
                first_idx,
                data,
                next,
            } => {
                let cap = nadfs_wire::sizes::max_payload_plain() as usize;
                for (i, pkt) in data.chunks(cap).enumerate() {
                    ec_engine::absorb(core, ctx, of, first_idx + i as u32, pkt);
                }
                if let Some(key) = next {
                    core.stream_step(ctx, key);
                }
            }
        }
    }
}
