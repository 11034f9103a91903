//! The PsPIN device: packet pipeline, hardware scheduler, HPU pool, and
//! the op-replay executor.
//!
//! A packet entering the device traverses (Fig 7): packet-buffer copy →
//! inter-cluster scheduling → L1 copy → intra-cluster scheduling → handler
//! execution on an idle HPU.
//!
//! The first three stages are computed when the packet arrives. The
//! packet-buffer copy engine is one FIFO server and inter-cluster
//! scheduling a constant delay, so each cluster's L1 copy engine sees its
//! packets in arrival order and every finish time is known then. The
//! packet's ingress credit goes back to the fabric as a timed credit due
//! at its L1-copy end. Only what another component can observe stays an
//! event: the packet ready for an HPU (after intra-cluster scheduling),
//! and a handler run's end.
//!
//! The scheduler enforces sPIN message semantics:
//! the header handler completes before any payload handler of the same
//! message runs, and the completion handler runs only after every payload
//! handler finished. Handlers block on NIC egress credits and on DMA
//! flushes, so their measured duration includes real stalls.
//!
//! The device is not itself a [`nadfs_simnet::Component`]; it is owned by a
//! NIC component which forwards it matching packets ([`PsPinDevice::ingest`])
//! and the wakes it scheduled on the NIC ([`PsPinDevice::on_wake`]).
//!
//! Nothing here copies a frame: a packet stays in the box it arrived in,
//! held in a slot arena, and the handler tasks that read it hold the slot
//! key. Nothing the device defers is boxed either: a packet's readiness
//! for an HPU, a run's end or a handler's notification waits in a slot
//! of another arena, and the wake that fires it names the slot.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use nadfs_host::DmaEngine;
use nadfs_simnet::{
    ComponentId, Ctx, Dur, IdMap, NetPacket, NodeId, NodePort, SharedBufPool, SharedPacketPool,
    Slab, Time,
};
use nadfs_wire::{AckPkt, Frame, MsgId, Pkt, Status};

use crate::config::PsPinConfig;
use crate::handler::{ExecutionContext, HandlerArgs, HandlerKind, HostNotify, Op, Ops};
use crate::telemetry::Telemetry;

/// A pipeline step due later. `token` is a key into the held-packet arena,
/// `run` one into the run arena.
enum Stage {
    HpuReady { token: usize },
    RunDone { run: usize },
    CleanupCheck { msg: MsgId },
}

/// A packet inside the device, in the box it arrived in.
struct HeldPkt {
    ev: Pkt,
    /// Cluster whose L1 holds this packet (assigned round-robin per packet
    /// by the inter-cluster scheduler, so one message's stream spreads over
    /// all HPUs — the premise of the paper's 1310 ns budget math, §VI-C).
    cluster: usize,
    /// Tasks (and the message's completion slot) still to read the frame.
    refs: u32,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MsgPhase {
    /// Header handler not yet completed.
    Opening,
    /// Header done; payload handlers flowing.
    Streaming,
    /// Message denied at admission (descriptor exhaustion): drop packets.
    Denied,
}

struct MsgState {
    phase: MsgPhase,
    total_pkts: u32,
    pkts_seen: u32,
    ph_done: u32,
    /// Tasks parked until the header handler completes.
    parked: Vec<Task>,
    /// The completion (last) packet, kept for the completion handler.
    completion_pkt: Option<usize>,
    completion_dispatched: bool,
    dma_horizon: Time,
    last_activity: Time,
    src: NodeId,
}

/// A unit of HPU work: one handler to run on one held packet.
struct Task {
    msg: MsgId,
    src: NodeId,
    /// Key of the packet whose frame the handler reads; the task owns one
    /// reference to it. `None` for cleanup, which has no triggering frame.
    pkt: Option<usize>,
    kind: HandlerKind,
    cluster: usize,
    /// Time the packet became ready for an HPU (for queue-wait telemetry).
    ready_at: Time,
}

/// A recorded handler execution being replayed over simulated time.
struct HpuRun {
    /// `usize::MAX` for a synthetic run that occupies no HPU.
    cluster: usize,
    msg: MsgId,
    kind: HandlerKind,
    ops: Ops,
    /// Next op to replay.
    op: usize,
    t: Time,
    start: Time,
}

struct Cluster {
    free_hpus: usize,
    runq: VecDeque<Task>,
}

/// The device.
pub struct PsPinDevice {
    cfg: PsPinConfig,
    port: NodePort,
    dma: Rc<RefCell<DmaEngine>>,
    /// Component id of the owning NIC (receives the device's wakes).
    owner: ComponentId,
    ctx_installed: Option<ExecutionContext>,
    clusters: Vec<Cluster>,
    msgs: IdMap<MsgId, MsgState>,
    held: Slab<HeldPkt>,
    runs: Slab<HpuRun>,
    pkt_rr: usize,
    /// Fig 7's inter- and intra-cluster scheduling latencies: constant
    /// delays, converted from cycles once.
    inter_sched: Dur,
    intra_sched: Dur,
    pktbuf_engine_free: Time,
    l1_engine_free: Vec<Time>,
    /// Runs parked on egress credits, FIFO.
    egress_waiters: VecDeque<usize>,
    /// Memory accounting: descriptor bytes in use vs budget.
    desc_bytes_used: u64,
    desc_bytes_budget: u64,
    /// Uniquely-owned DMA-write payloads are recycled here once their run
    /// retires — closing the handler-side buffer loop (the NIC's
    /// packet-buffer ring). The execution context shares the same pool.
    buf_pool: SharedBufPool,
    /// Boxes for packets handlers send; consumed packets' boxes return.
    pkt_pool: SharedPacketPool<Frame>,
    /// Pipeline steps, and handlers' notifications for the owner (due at
    /// the instant a handler's replay reached them), waiting for their
    /// wakes, by slot (see [`Self::WAKES`]).
    stages: Slab<Stage>,
    notes: Slab<HostNotify>,
    /// Retired op recorders, reused by the next run.
    spare_ops: Vec<Ops>,
    /// Scratch for a header run's release: the clusters its parked payload
    /// handlers went to, in first-seen order (the order they dispatch in).
    touched: Vec<usize>,
    telemetry: Rc<RefCell<Telemetry>>,
}

impl PsPinDevice {
    /// The device wakes its owner with tokens from `WAKES` up (below
    /// `2 * WAKES`), each naming work it deferred: a stage's slot, or a
    /// note's with `NOTE` set. The owner hands them back through
    /// [`Self::on_wake`].
    pub const WAKES: u64 = 1 << 62;
    const NOTE: u64 = 1 << 61;
    /// The token the device's egress-gate registration wakes its owner
    /// with; the owner calls [`Self::on_gate_wake`].
    pub const EGRESS_WAKE: u64 = u64::MAX;

    /// A device on `port`, installed in component `owner`, landing writes
    /// through `dma`. Retired DMA-write payloads recycle into `buf_pool`
    /// and consumed packets' boxes into `pkt_pool` (the owning NIC's, so
    /// handlers draw from the same ring); handler sends take their boxes
    /// from `pkt_pool`.
    pub fn new(
        cfg: PsPinConfig,
        port: NodePort,
        dma: Rc<RefCell<DmaEngine>>,
        owner: ComponentId,
        buf_pool: SharedBufPool,
        pkt_pool: SharedPacketPool<Frame>,
    ) -> PsPinDevice {
        let clusters = (0..cfg.n_clusters)
            .map(|_| Cluster {
                free_hpus: cfg.hpus_per_cluster,
                runq: VecDeque::new(),
            })
            .collect();
        let l1_engine_free = vec![Time::ZERO; cfg.n_clusters];
        let inter_sched = cfg.cycles(cfg.inter_sched_cycles);
        let intra_sched = cfg.cycles(cfg.intra_sched_cycles);
        PsPinDevice {
            desc_bytes_budget: cfg.total_mem_bytes(),
            cfg,
            port,
            dma,
            owner,
            ctx_installed: None,
            clusters,
            msgs: IdMap::default(),
            held: Slab::new(),
            runs: Slab::new(),
            pkt_rr: 0,
            inter_sched,
            intra_sched,
            pktbuf_engine_free: Time::ZERO,
            l1_engine_free,
            egress_waiters: VecDeque::new(),
            desc_bytes_used: 0,
            buf_pool,
            pkt_pool,
            stages: Slab::new(),
            notes: Slab::new(),
            spare_ops: Vec::new(),
            touched: Vec::new(),
            telemetry: Rc::new(RefCell::new(Telemetry::default())),
        }
    }

    /// Shared handle to the device telemetry (Tables I/II, Figs 7/11/16).
    pub fn telemetry(&self) -> Rc<RefCell<Telemetry>> {
        self.telemetry.clone()
    }

    /// Install the execution context. Its `state_bytes` are reserved from
    /// device memory; the rest is the descriptor budget (§III-B: 2 MiB of
    /// DFS-wide state leaves 6 MiB ⇒ ~82 K concurrent writes).
    pub fn install_context(&mut self, ec: ExecutionContext) {
        assert!(
            ec.state_bytes < self.cfg.total_mem_bytes(),
            "context state exceeds NIC memory"
        );
        self.desc_bytes_budget = self.cfg.total_mem_bytes() - ec.state_bytes;
        self.ctx_installed = Some(ec);
    }

    /// Maximum concurrent open requests the descriptor budget allows.
    pub fn max_concurrent_requests(&self) -> u64 {
        match &self.ctx_installed {
            Some(ec) => self.desc_bytes_budget / ec.descriptor_bytes as u64,
            None => 0,
        }
    }

    /// Ingest a packet that matched the execution context. The caller (NIC)
    /// has already consumed an ingress credit, which the device returns,
    /// timed for when the packet leaves the packet buffer (at its L1-copy
    /// end).
    ///
    /// Message bookkeeping (descriptor admission, §III-B denial) happens
    /// here, at arrival order: the per-cluster copy engines further down
    /// the pipeline can legally reorder a small packet ahead of a large
    /// predecessor, so arrival is the only safe place to spot headers.
    pub fn ingest(&mut self, ctx: &mut Ctx<'_>, ev: Pkt) {
        debug_assert!(self.ctx_installed.is_some(), "ingest without context");
        let now = ctx.now();
        let bytes = ev.pkt.wire_bytes() as u64;
        self.open_message(ctx, &ev.pkt, now);
        let cluster = self.pkt_rr % self.cfg.n_clusters;
        self.pkt_rr += 1;
        let token = self.held.insert(HeldPkt {
            ev,
            cluster,
            refs: 0,
        });
        // Packet-buffer copy (one engine, serializing), inter-cluster
        // scheduling, then the copy into the cluster's L1 (one engine per
        // cluster, serializing).
        let cfg = &self.cfg;
        let buf_copy = cfg.pktbuf_copy_time(bytes);
        self.pktbuf_engine_free = now.max(self.pktbuf_engine_free) + buf_copy;
        let (inter_sched, intra_sched) = (self.inter_sched, self.intra_sched);
        let at_cluster = self.pktbuf_engine_free + inter_sched;
        let l1_copy = cfg.l1_copy_time(bytes);
        let l1_copied = at_cluster.max(self.l1_engine_free[cluster]) + l1_copy;
        self.l1_engine_free[cluster] = l1_copied;
        {
            let mut t = self.telemetry.borrow_mut();
            let p = &mut t.pipeline;
            p.pktbuf_copy_ns.record_dur_ns(buf_copy);
            p.inter_sched_ns.record_dur_ns(inter_sched);
            p.l1_copy_ns.record_dur_ns(l1_copy);
            p.intra_sched_ns.record_dur_ns(intra_sched);
        }
        // In L1, the packet has left the packet buffer: the fabric may
        // deliver the next one from then on.
        let gate = &self.port.ingress_gate;
        gate.borrow_mut().release_at(ctx, l1_copied);
        self.defer(ctx, l1_copied + intra_sched, Stage::HpuReady { token });
    }

    /// Track the message this packet belongs to; on its first packet,
    /// allocate the write descriptor or deny the request.
    fn open_message(&mut self, ctx: &mut Ctx<'_>, pkt: &NetPacket<Frame>, now: Time) {
        let (msg, is_first, total) = match &pkt.payload {
            Frame::Write(w) => (w.msg, w.is_first(), w.total_pkts),
            other => (other.msg(), true, 1),
        };
        let src = pkt.src;
        if let Some(st) = self.msgs.get_mut(&msg) {
            st.pkts_seen += 1;
            st.last_activity = now;
            return;
        }
        debug_assert!(is_first, "first packet of {msg:?} must arrive first");
        self.telemetry.borrow_mut().msgs_opened += 1;

        // Admission: allocate a write descriptor or deny (§III-B).
        let desc = self
            .ctx_installed
            .as_ref()
            .expect("installed context")
            .descriptor_bytes as u64;
        let denied = self.desc_bytes_used + desc > self.desc_bytes_budget;
        if denied {
            self.telemetry.borrow_mut().msgs_denied += 1;
            // NACK the client so it retries later.
            let nack = Frame::Ack(AckPkt::new(msg, None, Status::Busy));
            self.try_send_now(ctx, src, nack);
        } else {
            self.desc_bytes_used += desc;
            let mut t = self.telemetry.borrow_mut();
            t.descriptor_peak_bytes = t.descriptor_peak_bytes.max(self.desc_bytes_used);
        }
        self.msgs.insert(
            msg,
            MsgState {
                phase: if denied {
                    MsgPhase::Denied
                } else {
                    MsgPhase::Opening
                },
                total_pkts: total,
                pkts_seen: 1,
                ph_done: 0,
                parked: Vec::new(),
                completion_pkt: None,
                completion_dispatched: false,
                dma_horizon: Time::ZERO,
                last_activity: now,
                src,
            },
        );
        let check = now + self.cfg.cleanup_timeout;
        self.defer(ctx, check, Stage::CleanupCheck { msg });
    }

    /// Run `stage` at `at`: a slot of the device's, woken on the owner.
    fn defer(&mut self, ctx: &mut Ctx<'_>, at: Time, stage: Stage) {
        let key = self.stages.insert(stage) as u64;
        ctx.wake_at(at, self.owner, Self::WAKES + key);
    }

    /// The owner must call this with every wake token from [`Self::WAKES`]
    /// up. A pipeline step runs here; a handler's notification is the
    /// owner's to act on.
    pub fn on_wake(&mut self, ctx: &mut Ctx<'_>, token: u64) -> Option<HostNotify> {
        let key = token - Self::WAKES;
        if key & Self::NOTE != 0 {
            return self.notes.remove((key - Self::NOTE) as usize);
        }
        match self.stages.remove(key as usize).expect("deferred stage") {
            Stage::HpuReady { token } => self.on_hpu_ready(ctx, token),
            Stage::RunDone { run } => self.on_run_done(ctx, run),
            Stage::CleanupCheck { msg } => {
                // Still active: look again when the timeout could expire.
                if let Some(remaining) = self.on_cleanup_check(ctx, msg) {
                    let at = ctx.now() + remaining;
                    self.defer(ctx, at, Stage::CleanupCheck { msg });
                }
            }
        }
        None
    }

    /// Drop one reference to a held packet. The last one retires it: a
    /// write payload nobody else holds (an intermediate parity consumed
    /// here, say) returns to the buffer ring, and the box to the packet
    /// pool.
    fn release_pkt(&mut self, token: usize) {
        let p = self.held.get_mut(token).expect("held packet");
        p.refs = p.refs.saturating_sub(1);
        if p.refs > 0 {
            return;
        }
        let mut p = self.held.remove(token).expect("held packet");
        if let Frame::Write(w) = &mut p.ev.pkt.payload {
            if !w.data.is_empty() {
                if let Ok(v) = std::mem::take(&mut w.data).try_unwrap() {
                    self.buf_pool.borrow_mut().put(v);
                }
            }
        }
        self.pkt_pool.borrow_mut().recycle(p.ev);
    }

    fn on_hpu_ready(&mut self, ctx: &mut Ctx<'_>, token: usize) {
        let now = ctx.now();
        self.telemetry.borrow_mut().pkts_processed += 1;
        let p = self.held.get(token).expect("held packet");
        let src = p.ev.pkt.src;
        let cluster = p.cluster;
        let (msg, is_first, is_last) = match &p.ev.pkt.payload {
            Frame::Write(w) => (w.msg, w.is_first(), w.is_last()),
            other => (other.msg(), true, true),
        };
        let st = match self.msgs.get_mut(&msg) {
            // Closed already (e.g. cleaned up), or denied at arrival (the
            // client was NACKed then): drop silently.
            None => return self.release_pkt(token),
            Some(st) => {
                st.last_activity = now;
                if st.phase == MsgPhase::Denied {
                    return self.release_pkt(token);
                }
                st
            }
        };
        let task = |kind| Task {
            msg,
            src,
            pkt: Some(token),
            kind,
            cluster,
            ready_at: now,
        };
        // One reference per reader: the payload handler, the header handler
        // on a first packet, the completion handler on a last one.
        let mut refs = 1;
        let mut stale_completion = None;
        if is_last {
            stale_completion = st.completion_pkt.replace(token);
            refs += 1;
        }
        let run_now = if is_first {
            // The header handler alone is the ordering barrier; the header
            // packet's own payload handler is parked like any other PH.
            st.parked.push(task(HandlerKind::Payload));
            refs += 1;
            Some(task(HandlerKind::Header))
        } else if st.phase == MsgPhase::Opening {
            st.parked.push(task(HandlerKind::Payload));
            None
        } else {
            Some(task(HandlerKind::Payload))
        };
        self.held.get_mut(token).expect("held packet").refs = refs;
        if let Some(stale) = stale_completion {
            self.release_pkt(stale);
        }
        if let Some(t) = run_now {
            self.enqueue(ctx, cluster, t);
        }
    }

    /// Best-effort immediate send used for device-level NACKs: if the
    /// egress gate is full the NACK is sent via the parked-run machinery of
    /// a zero-cost synthetic run.
    fn try_send_now(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, frame: Frame) {
        let mut ops = self.fresh_ops();
        ops.send(dst, frame);
        let run_id = self.runs.insert(HpuRun {
            cluster: usize::MAX, // not occupying an HPU
            msg: MsgId::new(u32::MAX, 0),
            kind: HandlerKind::Cleanup,
            ops,
            op: 0,
            t: ctx.now(),
            start: ctx.now(),
        });
        self.advance_run(ctx, run_id);
    }

    fn fresh_ops(&mut self) -> Ops {
        self.spare_ops
            .pop()
            .unwrap_or_else(|| Ops::on_node(self.port.node, self.pkt_pool.clone()))
    }

    fn enqueue(&mut self, ctx: &mut Ctx<'_>, cluster: usize, task: Task) {
        self.clusters[cluster].runq.push_back(task);
        self.dispatch(ctx, cluster);
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_>, cluster: usize) {
        while self.clusters[cluster].free_hpus > 0 {
            let Some(task) = self.clusters[cluster].runq.pop_front() else {
                return;
            };
            self.clusters[cluster].free_hpus -= 1;
            self.start_task(ctx, cluster, task);
        }
    }

    fn start_task(&mut self, ctx: &mut Ctx<'_>, cluster: usize, task: Task) {
        let now = ctx.now();
        self.telemetry
            .borrow_mut()
            .pipeline
            .hpu_wait_ns
            .record_dur_ns(now.since(task.ready_at));
        let mut ops = self.fresh_ops();
        let ec = self.ctx_installed.as_mut().expect("installed context");
        match task.pkt {
            // The cleanup handler has no triggering frame.
            None => ec.handlers.cleanup(task.msg, &mut ops),
            Some(token) => {
                let args = HandlerArgs {
                    frame: &self.held.get(token).expect("held packet").ev.pkt.payload,
                    msg: task.msg,
                    src: task.src,
                    local: self.port.node,
                    now,
                    ops: &mut ops,
                };
                match task.kind {
                    HandlerKind::Header => ec.handlers.header(args),
                    HandlerKind::Payload => ec.handlers.payload(args),
                    HandlerKind::Completion => ec.handlers.completion(args),
                    HandlerKind::Cleanup => unreachable!("cleanup has no frame"),
                }
                // The handler has read the frame; its ops own what they
                // need of it.
                self.release_pkt(token);
            }
        }
        let run_id = self.runs.insert(HpuRun {
            cluster,
            msg: task.msg,
            kind: task.kind,
            ops,
            op: 0,
            t: now,
            start: now,
        });
        self.advance_run(ctx, run_id);
    }

    /// Replay ops until done or parked on an egress credit.
    fn advance_run(&mut self, ctx: &mut Ctx<'_>, run_id: usize) {
        let now = ctx.now();
        let run = self.runs.get_mut(run_id).expect("live run");
        run.t = run.t.max(now);
        while let Some(op) = run.ops.items.get_mut(run.op) {
            match op {
                Op::Charge { cycles } => run.t += self.cfg.cycles(*cycles),
                Op::Send { pkt } => {
                    let mut gate = self.port.egress_gate.borrow_mut();
                    if !gate.try_take(now) {
                        // Park: HPU blocks holding the run.
                        gate.register_waiter(ctx, self.owner, Self::EGRESS_WAKE);
                        self.egress_waiters.push_back(run_id);
                        return;
                    }
                    let ev = pkt.take().expect("packet sent twice");
                    ctx.schedule(run.t.since(now), self.port.fabric, ev);
                }
                Op::DmaWrite { addr, data, slot } => {
                    let mut dma = self.dma.borrow_mut();
                    let done = match slot {
                        Some(slot) => dma.stage(run.t, slot.clone(), *addr, data),
                        None => dma.land(run.t, *addr, data),
                    };
                    if let Some(st) = self.msgs.get_mut(&run.msg) {
                        st.dma_horizon = st.dma_horizon.max(done);
                    }
                }
                Op::WaitFlush => {
                    if let Some(st) = self.msgs.get(&run.msg) {
                        run.t = run.t.max(st.dma_horizon);
                    }
                }
                Op::Notify { note } => {
                    let note = note.take().expect("notification delivered twice");
                    let key = self.notes.insert(note) as u64;
                    ctx.wake_at(run.t, self.owner, Self::WAKES + Self::NOTE + key);
                }
            }
            run.op += 1;
        }
        // Every op replayed: completion bookkeeping at `t`.
        let (t, took) = (run.t, run.t.since(run.start));
        self.telemetry
            .borrow_mut()
            .record_handler(run.kind, took, run.ops.instrs);
        self.defer(ctx, t, Stage::RunDone { run: run_id });
    }

    /// The owner must call this whenever the egress gate wakes it.
    pub fn on_gate_wake(&mut self, ctx: &mut Ctx<'_>) {
        // FIFO re-attempt; each may re-park (bounded by the starting count).
        let n = self.egress_waiters.len();
        for _ in 0..n {
            if self.port.egress_gate.borrow().available(ctx.now()) == 0 {
                break;
            }
            let Some(run_id) = self.egress_waiters.pop_front() else {
                break;
            };
            self.advance_run(ctx, run_id);
        }
        // A gate wake drains the waiter list; if runs remain parked we must
        // re-register or later credit releases will never wake us.
        if !self.egress_waiters.is_empty() {
            self.port
                .egress_gate
                .borrow_mut()
                .register_waiter(ctx, self.owner, Self::EGRESS_WAKE);
        }
    }

    fn on_run_done(&mut self, ctx: &mut Ctx<'_>, run_id: usize) {
        let HpuRun {
            cluster,
            msg,
            kind,
            mut ops,
            ..
        } = self.runs.remove(run_id).expect("live run");
        if cluster != usize::MAX {
            self.clusters[cluster].free_hpus += 1;
        }
        // The run's recorded ops die here; recycle any DMA-write payload
        // this NIC was the last owner of (pooled accumulators, landed
        // packet data whose frames have all been dropped) back into the
        // packet-buffer ring, and keep the recorder for the next run.
        ops.reset(&self.buf_pool);
        self.spare_ops.push(ops);
        let close = matches!(kind, HandlerKind::Completion | HandlerKind::Cleanup);
        if let Some(st) = self.msgs.get_mut(&msg) {
            st.last_activity = ctx.now();
            match kind {
                HandlerKind::Header => {
                    st.phase = MsgPhase::Streaming;
                    // Release the payload handlers parked behind the header.
                    let parked = std::mem::take(&mut st.parked);
                    let mut touched = std::mem::take(&mut self.touched);
                    for t in parked {
                        if !touched.contains(&t.cluster) {
                            touched.push(t.cluster);
                        }
                        self.clusters[t.cluster].runq.push_back(t);
                    }
                    for &c in &touched {
                        self.dispatch(ctx, c);
                    }
                    touched.clear();
                    self.touched = touched;
                }
                HandlerKind::Payload => st.ph_done += 1,
                HandlerKind::Completion | HandlerKind::Cleanup => {}
            }
        }
        if close {
            self.close_msg(msg, kind == HandlerKind::Cleanup);
        } else if let Some(st) = self.msgs.get_mut(&msg) {
            // Completion-handler release check.
            if !st.completion_dispatched && st.ph_done == st.total_pkts {
                if let Some(token) = st.completion_pkt.take() {
                    st.completion_dispatched = true;
                    let src = self.held.get(token).expect("held packet").ev.pkt.src;
                    let cluster = self.pkt_rr % self.cfg.n_clusters;
                    self.pkt_rr += 1;
                    // The message's reference to the packet passes to the
                    // completion task.
                    self.enqueue(
                        ctx,
                        cluster,
                        Task {
                            msg,
                            src,
                            pkt: Some(token),
                            kind: HandlerKind::Completion,
                            cluster,
                            ready_at: ctx.now(),
                        },
                    );
                }
            }
        }
        if cluster != usize::MAX {
            self.dispatch(ctx, cluster);
        }
    }

    /// Forget a message, dropping the packet references it still holds.
    fn forget_msg(&mut self, msg: MsgId) -> Option<MsgPhase> {
        let st = self.msgs.remove(&msg)?;
        let parked = st.parked.iter().filter_map(|t| t.pkt);
        for token in parked.chain(st.completion_pkt) {
            self.release_pkt(token);
        }
        Some(st.phase)
    }

    fn close_msg(&mut self, msg: MsgId, cleaned: bool) {
        let Some(phase) = self.forget_msg(msg) else {
            return;
        };
        if phase != MsgPhase::Denied {
            let desc = self
                .ctx_installed
                .as_ref()
                .expect("installed context")
                .descriptor_bytes as u64;
            self.desc_bytes_used = self.desc_bytes_used.saturating_sub(desc);
            if cleaned {
                self.telemetry.borrow_mut().msgs_cleaned += 1;
            } else {
                self.telemetry.borrow_mut().msgs_completed += 1;
            }
        }
    }

    /// A message's inactivity check fired. Returns how long until the
    /// next check when the message is still active; `None` when the
    /// check is spent (message closed, forgotten, or handed to cleanup).
    fn on_cleanup_check(&mut self, ctx: &mut Ctx<'_>, msg: MsgId) -> Option<Dur> {
        let now = ctx.now();
        let st = self.msgs.get(&msg)?; // else completed normally
        let idle = now.since(st.last_activity);
        if idle < self.cfg.cleanup_timeout {
            return Some(self.cfg.cleanup_timeout - idle);
        }
        if st.phase == MsgPhase::Denied {
            // Denied messages hold no descriptor; just forget them.
            self.forget_msg(msg);
            return None;
        }
        // Run the cleanup handler on the next round-robin cluster.
        let cluster = self.pkt_rr % self.cfg.n_clusters;
        self.pkt_rr += 1;
        let src = st.src;
        self.enqueue(
            ctx,
            cluster,
            Task {
                msg,
                src,
                pkt: None,
                kind: HandlerKind::Cleanup,
                cluster,
                ready_at: now,
            },
        );
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::{HandlerSet, HostEvent};
    use bytes::Bytes;
    use nadfs_host::{DmaConfig, HostMemory};
    use nadfs_simnet::{BufPool, Component, Engine, Fabric, FabricConfig, PacketEvent, PacketPool};
    use nadfs_wire::{split_payload, WritePkt};
    use std::any::Any;

    /// Minimal handler set: validate-ish HH, PH DMAs payload (and forwards
    /// a copy when `fanout > 0`), CH flushes and acks the client.
    struct TestHandlers {
        fanout: usize,
        fwd_to: NodeId,
    }

    impl HandlerSet for TestHandlers {
        fn header(&mut self, a: HandlerArgs<'_>) {
            a.ops.charge_instrs(120, 0.57);
        }
        fn payload(&mut self, a: HandlerArgs<'_>) {
            a.ops.charge_instrs(55, 0.60);
            if let Frame::Write(w) = a.frame {
                a.ops.dma_write(0x10_000 + w.offset as u64, w.data.clone());
                for _ in 0..self.fanout {
                    let mut fwd = w.clone();
                    fwd.msg = MsgId::new(a.local as u32, 1_000_000 + w.pkt_idx as u64);
                    a.ops.send(self.fwd_to, Frame::Write(fwd));
                }
            }
        }
        fn completion(&mut self, a: HandlerArgs<'_>) {
            a.ops.charge_instrs(66, 0.62);
            a.ops.wait_flush();
            a.ops
                .send(a.src, Frame::Ack(AckPkt::new(a.msg, Some(1), Status::Ok)));
        }
        fn cleanup(&mut self, _msg: MsgId, ops: &mut Ops) {
            ops.charge_cycles(50);
            ops.notify(HostNotify::Host(HostEvent::Cleanup));
        }
    }

    /// NIC owner for the device under test; logs each packet's arrival
    /// instant and wire size.
    struct TestNic {
        dev: Option<PsPinDevice>,
        arrivals: Rc<RefCell<Vec<(Time, u64)>>>,
    }
    impl Component for TestNic {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            let a = ev.downcast::<PacketEvent<Frame>>().expect("a packet");
            let bytes = a.pkt.wire_bytes() as u64;
            self.arrivals.borrow_mut().push((ctx.now(), bytes));
            self.dev.as_mut().expect("device").ingest(ctx, a);
        }
        /// The cleanup handler's notification needs nothing done.
        fn wake(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let dev = self.dev.as_mut().expect("device");
            match token {
                PsPinDevice::EGRESS_WAKE => dev.on_gate_wake(ctx),
                _ => drop(dev.on_wake(ctx, token)),
            }
        }
    }

    /// Client component: sends one write message (respecting egress
    /// credits), records ack times.
    struct TestClient {
        port: Option<NodePort>,
        dst: NodeId,
        size: u32,
        queued: Option<VecDeque<Frame>>,
        acks: Rc<RefCell<Vec<(Time, Status)>>>,
        abandon_after_header: bool,
    }
    struct Go;
    impl TestClient {
        fn build_packets(&self) -> VecDeque<Frame> {
            let parts = split_payload(self.size, 1800, 1978);
            let total = parts.len() as u32;
            parts
                .into_iter()
                .enumerate()
                .take(if self.abandon_after_header {
                    1
                } else {
                    usize::MAX
                })
                .map(|(i, (off, len))| {
                    Frame::Write(WritePkt {
                        msg: MsgId::new(self.port.as_ref().expect("port").node as u32, 7),
                        pkt_idx: i as u32,
                        total_pkts: total,
                        dfs: None,
                        wrh: None,
                        offset: off,
                        data: Bytes::from(vec![0xAB; len as usize]),
                    })
                })
                .collect()
        }
        fn pump(&mut self, ctx: &mut Ctx<'_>) {
            let port = self.port.clone().expect("port");
            let q = self.queued.get_or_insert_with(VecDeque::new);
            while let Some(frame) = q.front() {
                let pkt = NetPacket::new(port.node, self.dst, frame.clone());
                if port.try_submit(ctx, pkt) {
                    q.pop_front();
                } else {
                    let id = ctx.self_id;
                    port.egress_gate.borrow_mut().register_waiter(ctx, id, 0);
                    break;
                }
            }
        }
    }
    impl Component for TestClient {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            let ev = match ev.downcast::<PacketEvent<Frame>>() {
                Ok(a) => {
                    if let Frame::Ack(ack) = a.pkt.payload {
                        self.acks.borrow_mut().push((ctx.now(), ack.status));
                        let port = self.port.as_ref().expect("port");
                        port.ingress_gate.borrow_mut().release(ctx);
                    }
                    return;
                }
                Err(e) => e,
            };
            assert!(
                ev.downcast::<Go>().is_ok(),
                "unexpected event at TestClient"
            );
            if self.queued.is_none() {
                self.queued = Some(self.build_packets());
            }
            self.pump(ctx);
        }
        fn wake(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.pump(ctx);
        }
    }

    struct Rig {
        engine: Engine,
        acks: Rc<RefCell<Vec<(Time, Status)>>>,
        arrivals: Rc<RefCell<Vec<(Time, u64)>>>,
        mem: nadfs_host::SharedMemory,
    }

    fn build_rig(size: u32, fanout: usize, abandon: bool, cleanup_ms: u64) -> Rig {
        let cfg = PsPinConfig {
            cleanup_timeout: Dur::from_ms(cleanup_ms),
            ..Default::default()
        };
        rig_with(cfg, size, fanout, abandon)
    }

    fn rig_with(cfg: PsPinConfig, size: u32, fanout: usize, abandon: bool) -> Rig {
        let mut e = Engine::new();
        let fid = e.reserve_id();
        let client_id = e.reserve_id();
        let nic_id = e.reserve_id();
        let sink_id = e.reserve_id(); // fanout target that consumes silently
        let mut fab: Fabric<Frame> = Fabric::new(FabricConfig::default(), fid);
        let cport = fab.register_node(client_id, None);
        let nport = fab.register_node(nic_id, Some(cfg.pktbuf_slots));
        let sport = fab.register_node(sink_id, None);
        e.install(fid, Box::new(fab));

        let mem = HostMemory::new();
        let dma = Rc::new(RefCell::new(DmaEngine::new(
            DmaConfig::default(),
            mem.clone(),
        )));
        let (bufs, pkts) = (BufPool::shared(256), PacketPool::shared());
        let mut dev = PsPinDevice::new(cfg, nport, dma, nic_id, bufs, pkts);
        dev.install_context(ExecutionContext {
            handlers: Box::new(TestHandlers {
                fanout,
                fwd_to: sport.node,
            }),
            state_bytes: 2 << 20,
            descriptor_bytes: 77,
        });
        let arrivals = Rc::new(RefCell::new(vec![]));
        let nic = TestNic {
            dev: Some(dev),
            arrivals: arrivals.clone(),
        };
        e.install(nic_id, Box::new(nic));

        let acks = Rc::new(RefCell::new(vec![]));
        e.install(
            client_id,
            Box::new(TestClient {
                dst: 1,
                port: Some(cport),
                size,
                queued: None,
                abandon_after_header: abandon,
                acks: acks.clone(),
            }),
        );
        // Silent sink for forwarded packets.
        struct Silent {
            port: Option<NodePort>,
        }
        impl Component for Silent {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
                if ev.downcast::<PacketEvent<Frame>>().is_ok() {
                    let port = self.port.as_ref().expect("port");
                    port.ingress_gate.borrow_mut().release(ctx);
                }
            }
        }
        e.install(sink_id, Box::new(Silent { port: Some(sport) }));
        e.schedule(Dur::ZERO, client_id, Box::new(Go));
        Rig {
            engine: e,
            acks,
            arrivals,
            mem,
        }
    }

    #[test]
    fn single_packet_write_runs_all_three_handlers_and_acks() {
        let mut rig = build_rig(1024, 0, false, 1000);
        rig.engine.run_until(Time(Dur::from_ms(2).ps()));
        let acks = rig.acks.borrow();
        assert_eq!(acks.len(), 1, "client must receive the completion ack");
        assert_eq!(acks[0].1, Status::Ok);
        // Latency must include pipeline + HH+PH+CH + DMA flush + ack return.
        assert!(acks[0].0 > Time(Dur::from_ns(500).ps()));
        // Data must be durably in host memory.
        assert_eq!(rig.mem.borrow().read(0x10_000, 1024), vec![0xAB; 1024]);
    }

    #[test]
    fn multi_packet_write_dmas_all_payload() {
        let size = 100_000u32;
        let mut rig = build_rig(size, 0, false, 1000);
        rig.engine.run_until(Time(Dur::from_ms(5).ps()));
        assert_eq!(rig.acks.borrow().len(), 1);
        assert_eq!(
            rig.mem.borrow().read(0x10_000, size as usize),
            vec![0xAB; size as usize]
        );
    }

    #[test]
    fn fanout_forwards_every_packet() {
        let size = 50_000u32;
        let mut rig = build_rig(size, 2, false, 1000);
        rig.engine.run_until(Time(Dur::from_ms(5).ps()));
        assert_eq!(rig.acks.borrow().len(), 1, "ack still arrives with fanout");
    }

    #[test]
    fn abandoned_write_triggers_cleanup() {
        let mut rig = build_rig(50_000, 0, true, 1);
        rig.engine.run_until(Time(Dur::from_ms(10).ps()));
        assert!(rig.acks.borrow().is_empty(), "no ack for abandoned write");
    }

    #[test]
    fn full_packet_buffer_admits_next_packet_at_l1_copy_end() {
        // One packet-buffer slot: the fabric delivers each packet on the
        // credit of the one before it, which comes back when that one
        // is in L1. Each packet meets idle copy engines, so its L1-copy
        // end is its arrival plus the three stages.
        let cfg = PsPinConfig {
            pktbuf_slots: 1,
            ..Default::default()
        };
        let stages = |bytes| {
            cfg.pktbuf_copy_time(bytes)
                + cfg.cycles(cfg.inter_sched_cycles)
                + cfg.l1_copy_time(bytes)
        };
        let mut rig = rig_with(cfg.clone(), 20_000, 0, false);
        rig.engine.run_until(Time(Dur::from_ms(5).ps()));
        assert_eq!(rig.acks.borrow().len(), 1, "the write completes");
        // The next packet's downlink starts at that L1-copy end: it
        // arrives one serialisation and FabricConfig::default()'s 20 ns
        // link latency later.
        let link = FabricConfig::default().link_bw;
        let arrivals = rig.arrivals.borrow();
        assert!(arrivals.len() > 2, "a multi-packet write");
        for w in arrivals.windows(2) {
            let ((at, bytes), (next_at, next_bytes)) = (w[0], w[1]);
            let l1_copied = at + stages(bytes);
            let delivery = link.tx_time(next_bytes) + Dur::from_ns(20);
            assert_eq!(next_at, l1_copied + delivery, "{arrivals:?}");
        }
    }
}
