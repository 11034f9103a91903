//! The RDMA NIC component, one module per op kind: [`credit`] posts work
//! requests under flow control and owns the egress queue, [`write_rx`]
//! reassembles raw writes and SENDs, [`read`] serves and lands one-sided
//! reads, and [`gather`] runs gather reads, decoding degraded ones on the
//! NIC. [`NicCore`] here dispatches between them and holds what they
//! share: the port, DMA, memory, CPU, buffer pools, the optional PsPIN
//! device, and the slab of deferred work. HyperLoop chains and INEC's
//! firmware EC engine live beside it, in `chains` and `ec_engine`.

mod credit;
mod gather;
mod read;
mod write_rx;

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_gfec::RsCodecs;
use nadfs_host::{Cpu, DmaConfig, DmaEngine, HostMemory, SharedMemory};
use nadfs_pspin::{HostNotify, PsPinConfig, PsPinDevice};
use nadfs_simnet::{
    Bandwidth, BufPool, Component, ComponentId, CreditConfig, Ctx, Dur, FlowController, NodeId,
    NodePort, ObsHub, PacketEvent, PacketPool, SharedBufPool, SharedFlowStats, SharedObs,
    SharedPacketPool, SharedTrace, Slab, Time, Trace, WrClass,
};
use nadfs_wire::{checked_range, AckPkt, DfsHeader, Frame, MacKey, Pkt, Status, WriteReqHeader};

use crate::app::NicApp;
use crate::chains::{self, Chains};
use crate::check::RequestCheck;
use crate::ec_engine::{self, EcEngine};
use credit::CREDIT_MSG;
use gather::Survivor;

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
    pub(crate) ec_busy_until: Time,
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
    /// The egress queue and the WRs waiting for credit.
    egress: credit::Egress,
    /// Credit-based WR flow control (SF-Zhou discipline): bounded per-class
    /// send budgets per peer, recv-credit returns piggybacked on acks.
    pub flow: FlowController,
    next_seq: u64,
    /// Raw writes and SENDs in reassembly.
    rx: write_rx::Reassembly,
    /// Reads issued and awaiting their response, response streams, and
    /// the read QoS.
    reads: read::Reads,
    /// Degraded gathers decoding on this NIC.
    gathers: gather::Gathers,
    /// Deferred work by slot; a slot's key is its wake token.
    deferred: Slab<NicEvent>,
    mrs: Vec<(u64, u64)>,
    /// The service's request check, where the service key is installed:
    /// read and gather requests carrying a DFS header are authenticated
    /// on the NIC (the read-side analog of the sPIN write validation).
    check: Option<RequestCheck>,
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

    /// Install the service-shared MAC key: read and gather requests
    /// carrying a DFS header are then capability-checked on the NIC before
    /// any byte is streamed (bad signature, expiry, or missing READ rights
    /// ⇒ NACK). The check reports to the `obs` and `trace` hubs this NIC
    /// has when it is installed.
    pub fn install_service_key(&mut self, key: MacKey) {
        let (node, stats) = (self.port.node, self.stats.clone());
        let check = RequestCheck::new(key, node, stats, self.obs.clone(), self.trace.clone());
        self.check = Some(check);
    }

    /// Whether one-sided access to `[addr, addr + len)` is permitted: the
    /// range fits in the address space and, with MR enforcement on, lies
    /// in a registered region. Public so software read/write paths (e.g.
    /// the CPU-validated RPC read) enforce the same protection boundary
    /// as the NIC's one-sided handlers.
    pub fn mr_ok(&self, addr: u64, len: u64) -> bool {
        let Some(r) = checked_range(addr, len) else {
            return false;
        };
        !self.cfg.enforce_mr
            || self
                .mrs
                .iter()
                .any(|&(a, l)| r.start >= a && r.end - a <= l)
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

    /// Messages this NIC holds state for: writes and SENDs in reassembly,
    /// reads awaiting their response (diagnostic).
    pub fn open_messages(&self) -> usize {
        self.rx.open() + self.reads.open()
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

    fn release_ingress(&mut self, ctx: &mut Ctx<'_>) {
        self.port.ingress_gate.borrow_mut().release(ctx);
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
                egress: credit::Egress::default(),
                flow: FlowController::new(CreditConfig::default()),
                next_seq: 0,
                rx: write_rx::Reassembly::default(),
                reads: read::Reads::default(),
                gathers: gather::Gathers::default(),
                deferred: Slab::new(),
                mrs: Vec::new(),
                check: None,
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
                let own = refused && gather::on_fetch_nack(core, ctx, ackp);
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
            NicEvent::DecodeArmed { gather } => gather::decode_armed(core, ctx, gather),
            NicEvent::DecodeLocal {
                of,
                first_idx,
                data,
                next,
            } => {
                let cap = nadfs_wire::sizes::max_payload_plain() as usize;
                for (i, pkt) in data.chunks(cap).enumerate() {
                    gather::absorb(core, ctx, of, first_idx + i as u32, pkt);
                }
                if let Some(key) = next {
                    core.stream_step(ctx, key);
                }
            }
        }
    }
}
