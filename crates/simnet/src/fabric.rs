//! The network fabric: every node connects to a single switch through a
//! full-duplex link. This is the SST-replacement topology used throughout
//! the reproduction (the paper configures SST as a 400 Gbit/s network with
//! 2048 B MTU and 20 ns link latency).
//!
//! Model, per direction:
//!
//! ```text
//!  NIC --egress gate--> [up_q] --serialize@bw--> link(lat) --> switch(delay)
//!      --> [down_q] --serialize@bw--> link(lat) --> NIC ingress (gated)
//! ```
//!
//! Backpressure is lossless end to end:
//! * the NIC can only submit while the per-node egress gate has credits
//!   (`up_q` space) — PsPIN handlers block on this, which is how the paper's
//!   PBT goodput halving and IPC collapse emerge;
//! * an uplink will not start serializing a packet whose destination
//!   `down_q` is full (PFC-like hold, with head-of-line blocking);
//! * a downlink will not start serializing until the destination NIC's
//!   ingress gate grants a credit (returned by the NIC when it has admitted
//!   the packet into its own buffers).

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::engine::{Component, ComponentId, Ctx};
use crate::gate::{Gate, SharedGate};
use crate::packet::{Hop, NetPacket, NodeId, PacketEvent, Payload};
use crate::time::{Bandwidth, Dur};

/// Fabric configuration; defaults follow §III-D of the paper.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    pub link_bw: Bandwidth,
    pub(crate) link_latency: Dur,
    pub(crate) switch_delay: Dur,
    /// NIC egress queue depth (packets) — credits of the egress gate.
    pub up_queue_cap: usize,
    /// Switch per-output-port queue depth (packets).
    pub(crate) down_queue_cap: usize,
    /// Default NIC ingress buffer depth (packets) — credits of ingress gate.
    pub(crate) ingress_cap: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            link_bw: Bandwidth::from_gbit_per_sec(400),
            link_latency: Dur::from_ns(20),
            switch_delay: Dur::from_ns(100),
            up_queue_cap: 16,
            down_queue_cap: 64,
            ingress_cap: 32,
        }
    }
}

/// Handle a NIC keeps to interact with the fabric.
#[derive(Clone)]
pub struct NodePort {
    pub node: NodeId,
    pub fabric: ComponentId,
    /// Credits for the node's uplink queue. Take one, then schedule the
    /// packet's [`PacketEvent`] (from [`PacketEvent::submit`]) to
    /// `fabric`; the fabric returns the credit when the packet has left the
    /// uplink.
    pub egress_gate: SharedGate,
    /// Credits for the NIC's own ingress buffer. The fabric takes one per
    /// delivered packet; the NIC must release it once the packet has been
    /// consumed from its ingress stage.
    pub ingress_gate: SharedGate,
}

impl NodePort {
    /// Convenience: attempt to take an egress credit and submit in one go.
    /// Returns false if the gate is exhausted (caller should register as a
    /// waiter on `egress_gate` and retry on wake).
    pub fn try_submit<P: Payload>(&self, ctx: &mut Ctx<'_>, pkt: NetPacket<P>) -> bool {
        if self.egress_gate.borrow_mut().try_take() {
            ctx.schedule(Dur::ZERO, self.fabric, Box::new(PacketEvent::submit(pkt)));
            true
        } else {
            false
        }
    }
}

/// Byte/packet accounting per node, for goodput measurements.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    pub(crate) tx_pkts: u64,
    pub tx_bytes: u64,
    pub(crate) rx_pkts: u64,
    pub(crate) rx_bytes: u64,
}

#[derive(Debug, Default)]
pub struct FabricStats {
    pub per_node: Vec<NodeStats>,
    /// Times an uplink had to hold because a destination queue was full.
    pub switch_holds: u64,
}

#[derive(Clone, Copy)]
enum Dir {
    Up,
    Down,
}

/// Self-event: the packet at the head of a link's queue finished
/// serializing. A link has at most one in flight, so its box is kept and
/// re-scheduled for the next packet.
struct TxDone {
    node: NodeId,
    dir: Dir,
}

/// One direction of a node's link: the packet events queued on it (each
/// in the box it travels in) and whether the head is serializing.
struct Link<P: Payload> {
    q: VecDeque<Box<PacketEvent<P>>>,
    busy: bool,
    /// Wire size of the packet being serialized (for the byte counters).
    tx_bytes: u64,
    done: Option<Box<TxDone>>,
}

impl<P: Payload> Link<P> {
    fn new() -> Link<P> {
        Link {
            q: VecDeque::new(),
            busy: false,
            tx_bytes: 0,
            done: None,
        }
    }

    /// Mark the link busy with a `bytes`-sized packet and hand out its
    /// completion event.
    fn start_tx(&mut self, node: NodeId, dir: Dir, bytes: u64) -> Box<TxDone> {
        self.busy = true;
        self.tx_bytes = bytes;
        self.done
            .take()
            .unwrap_or_else(|| Box::new(TxDone { node, dir }))
    }

    /// The head packet left the link; keep the completion event's box.
    fn finish_tx(&mut self, done: Box<TxDone>) -> Box<PacketEvent<P>> {
        self.busy = false;
        self.done = Some(done);
        self.q.pop_front().expect("TxDone with empty queue")
    }
}

struct NodeState<P: Payload> {
    delivery: ComponentId,
    up: Link<P>,
    down: Link<P>,
    egress_gate: SharedGate,
    ingress_gate: SharedGate,
    /// Uplinks (by node id) whose head packet targets this node and is
    /// waiting for `down.q` space.
    hol_waiters: Vec<NodeId>,
}

/// The fabric component. Register all nodes before adding it to the engine.
pub struct Fabric<P: Payload> {
    cfg: FabricConfig,
    nodes: Vec<NodeState<P>>,
    stats: Rc<RefCell<FabricStats>>,
    self_id: ComponentId,
    /// An empty head-of-line waiter list, swapped in for the one being
    /// retried so neither list gives up its capacity.
    spare_hol: Vec<NodeId>,
}

impl<P: Payload> Fabric<P> {
    /// `self_id` must be pre-reserved with [`crate::engine::Engine::reserve_id`]
    /// so NICs can be wired to it.
    pub fn new(cfg: FabricConfig, self_id: ComponentId) -> Fabric<P> {
        Fabric {
            cfg,
            nodes: Vec::new(),
            stats: Rc::new(RefCell::new(FabricStats::default())),
            self_id,
            spare_hol: Vec::new(),
        }
    }

    pub fn stats(&self) -> Rc<RefCell<FabricStats>> {
        self.stats.clone()
    }

    /// Register a node delivered to component `delivery`; `ingress_cap`
    /// overrides the config default when `Some`.
    pub fn register_node(&mut self, delivery: ComponentId, ingress_cap: Option<usize>) -> NodePort {
        let node = self.nodes.len();
        let egress_gate = Gate::new(self.cfg.up_queue_cap);
        let ingress_gate = Gate::new(ingress_cap.unwrap_or(self.cfg.ingress_cap));
        self.nodes.push(NodeState {
            delivery,
            up: Link::new(),
            down: Link::new(),
            egress_gate: egress_gate.clone(),
            ingress_gate: ingress_gate.clone(),
            hol_waiters: Vec::new(),
        });
        self.stats.borrow_mut().per_node.push(NodeStats::default());
        NodePort {
            node,
            fabric: self.self_id,
            egress_gate,
            ingress_gate,
        }
    }

    fn try_start_uplink(&mut self, ctx: &mut Ctx<'_>, n: NodeId) {
        if self.nodes[n].up.busy {
            return;
        }
        let Some(head) = self.nodes[n].up.q.front() else {
            return;
        };
        let dst = head.pkt.dst;
        let bytes = head.pkt.wire_bytes() as u64;
        // PFC-like hold: don't serialize into a full destination queue.
        if dst != n && self.nodes[dst].down.q.len() >= self.cfg.down_queue_cap {
            self.stats.borrow_mut().switch_holds += 1;
            if !self.nodes[dst].hol_waiters.contains(&n) {
                self.nodes[dst].hol_waiters.push(n);
            }
            return;
        }
        let done = self.nodes[n].up.start_tx(n, Dir::Up, bytes);
        ctx.schedule_self(self.cfg.link_bw.tx_time(bytes), done);
    }

    fn try_start_downlink(&mut self, ctx: &mut Ctx<'_>, n: NodeId) {
        let node = &mut self.nodes[n];
        if node.down.busy {
            return;
        }
        let Some(head) = node.down.q.front() else {
            return;
        };
        let bytes = head.pkt.wire_bytes() as u64;
        // Credit-based delivery into the NIC ingress buffer.
        let mut gate = node.ingress_gate.borrow_mut();
        if !gate.try_take() {
            gate.register_waiter(self.self_id, n as u64);
            return;
        }
        drop(gate);
        let done = node.down.start_tx(n, Dir::Down, bytes);
        ctx.schedule_self(self.cfg.link_bw.tx_time(bytes), done);
    }

    fn on_up_tx_done(&mut self, ctx: &mut Ctx<'_>, done: Box<TxDone>) {
        let n = done.node;
        let mut ev = self.nodes[n].up.finish_tx(done);
        {
            let mut st = self.stats.borrow_mut();
            st.per_node[n].tx_pkts += 1;
            st.per_node[n].tx_bytes += self.nodes[n].up.tx_bytes;
        }
        // The uplink queue freed a slot: return the egress credit.
        self.nodes[n].egress_gate.borrow_mut().release(ctx);
        ev.hop = Hop::AtSwitch;
        ctx.schedule_self(self.cfg.link_latency + self.cfg.switch_delay, ev);
        self.try_start_uplink(ctx, n);
    }

    fn on_down_tx_done(&mut self, ctx: &mut Ctx<'_>, done: Box<TxDone>) {
        let n = done.node;
        let mut ev = self.nodes[n].down.finish_tx(done);
        {
            let mut st = self.stats.borrow_mut();
            st.per_node[n].rx_pkts += 1;
            st.per_node[n].rx_bytes += self.nodes[n].down.tx_bytes;
        }
        ev.hop = Hop::Arrive;
        ctx.schedule(self.cfg.link_latency, self.nodes[n].delivery, ev);
        // A down-queue slot freed: retry uplinks that were held on it.
        let spare = std::mem::take(&mut self.spare_hol);
        let mut waiters = std::mem::replace(&mut self.nodes[n].hol_waiters, spare);
        for &w in &waiters {
            self.try_start_uplink(ctx, w);
        }
        waiters.clear();
        self.spare_hol = waiters;
        self.try_start_downlink(ctx, n);
    }
}

impl<P: Payload> Component for Fabric<P> {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
        let ev = match ev.downcast::<PacketEvent<P>>() {
            Ok(p) => {
                let n = match p.hop {
                    Hop::Submit => {
                        let n = p.pkt.src;
                        debug_assert!(
                            self.nodes[n].up.q.len() < self.cfg.up_queue_cap,
                            "Submit without egress credit"
                        );
                        self.nodes[n].up.q.push_back(p);
                        self.try_start_uplink(ctx, n);
                        return;
                    }
                    Hop::AtSwitch => p.pkt.dst,
                    Hop::Arrive => panic!("fabric: packet event past its last hop"),
                };
                self.nodes[n].down.q.push_back(p);
                self.try_start_downlink(ctx, n);
                return;
            }
            Err(e) => e,
        };
        match ev.downcast::<TxDone>() {
            Ok(d) => match d.dir {
                Dir::Up => self.on_up_tx_done(ctx, d),
                Dir::Down => self.on_down_tx_done(ctx, d),
            },
            Err(_) => panic!("fabric: unknown event type"),
        }
    }

    /// An ingress gate released a credit; retry that node's downlink.
    fn wake(&mut self, ctx: &mut Ctx<'_>, node: u64) {
        self.try_start_downlink(ctx, node as NodeId);
    }

    fn name(&self) -> String {
        "fabric".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::time::Time;

    #[derive(Clone, Debug)]
    struct Raw(u32);
    impl Payload for Raw {
        fn wire_bytes(&self) -> u32 {
            self.0
        }
    }

    /// Sink NIC: consumes packets *serially*, holding each ingress credit
    /// for `consume` time, so it models a processing-rate-limited receiver.
    struct Sink {
        port: Option<NodePort>,
        consume: Dur,
        backlog: u32,
        busy: bool,
        log: Rc<RefCell<Vec<(u64, u32)>>>,
    }
    struct ConsumeDone;
    impl Sink {
        fn try_consume(&mut self, ctx: &mut Ctx<'_>) {
            if !self.busy && self.backlog > 0 {
                self.busy = true;
                self.backlog -= 1;
                ctx.schedule_self(self.consume, Box::new(ConsumeDone));
            }
        }
    }
    impl Component for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            let ev = match ev.downcast::<PacketEvent<Raw>>() {
                Ok(a) => {
                    assert_eq!(a.hop, Hop::Arrive);
                    self.log
                        .borrow_mut()
                        .push((ctx.now().ps(), a.pkt.wire_bytes()));
                    self.backlog += 1;
                    self.try_consume(ctx);
                    return;
                }
                Err(e) => e,
            };
            if ev.downcast::<ConsumeDone>().is_ok() {
                self.busy = false;
                let port = self.port.as_ref().unwrap().clone();
                port.ingress_gate.borrow_mut().release(ctx);
                self.try_consume(ctx);
            }
        }
    }

    /// Source NIC: sends `n` packets of `size` bytes as fast as credits allow.
    struct Source {
        port: Option<NodePort>,
        dst: NodeId,
        remaining: u32,
        size: u32,
    }
    struct Kick;
    impl Source {
        fn pump(&mut self, ctx: &mut Ctx<'_>) {
            while self.remaining > 0 {
                let port = self.port.as_ref().unwrap();
                let pkt = NetPacket::new(port.node, self.dst, Raw(self.size));
                if port.try_submit(ctx, pkt) {
                    self.remaining -= 1;
                } else {
                    let id = ctx.self_id;
                    port.egress_gate.borrow_mut().register_waiter(id, 0);
                    break;
                }
            }
        }
    }
    impl Component for Source {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            assert!(ev.downcast::<Kick>().is_ok(), "source: unknown event");
            self.pump(ctx);
        }
        fn wake(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.pump(ctx);
        }
    }

    #[allow(clippy::type_complexity)]
    fn build(
        consume: Dur,
        n_pkts: u32,
        size: u32,
        cfg: FabricConfig,
    ) -> (
        Engine,
        Rc<RefCell<Vec<(u64, u32)>>>,
        Rc<RefCell<FabricStats>>,
    ) {
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(vec![]));
        let fid = e.reserve_id();
        let src_id = e.reserve_id();
        let snk_id = e.reserve_id();
        let mut fab: Fabric<Raw> = Fabric::new(cfg, fid);
        let sport = fab.register_node(src_id, None);
        let dport = fab.register_node(snk_id, None);
        let stats = fab.stats();
        e.install(fid, Box::new(fab));
        e.install(
            src_id,
            Box::new(Source {
                dst: dport.node,
                port: Some(sport),
                remaining: n_pkts,
                size,
            }),
        );
        e.install(
            snk_id,
            Box::new(Sink {
                port: Some(dport),
                consume,
                backlog: 0,
                busy: false,
                log: log.clone(),
            }),
        );
        e.schedule(Dur::ZERO, src_id, Box::new(Kick));
        (e, log, stats)
    }

    #[test]
    fn single_packet_end_to_end_latency() {
        let cfg = FabricConfig::default();
        let (mut e, log, _) = build(Dur::ZERO, 1, 2048, cfg.clone());
        e.run_to_completion();
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        // serialize(2048B@400G)=40.96ns + link 20 + switch 100
        // + serialize 40.96 + link 20 = 221.92 ns
        let expect = cfg.link_bw.tx_time(2048) * 2 + cfg.link_latency * 2 + cfg.switch_delay;
        assert_eq!(log[0].0, expect.ps());
    }

    #[test]
    fn back_to_back_packets_arrive_at_line_rate() {
        let (mut e, log, _) = build(Dur::ZERO, 100, 2048, FabricConfig::default());
        e.run_to_completion();
        let log = log.borrow();
        assert_eq!(log.len(), 100);
        // Steady state: one packet per serialization time (40.96 ns).
        let gaps: Vec<u64> = log.windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(gaps.iter().all(|&g| g == 40_960), "{gaps:?}");
    }

    #[test]
    fn slow_consumer_throttles_sender_without_loss() {
        // Consumer takes 10x the serialization time per packet.
        let (mut e, log, stats) = build(Dur::from_ps(409_600), 64, 2048, FabricConfig::default());
        e.run_to_completion();
        let log = log.borrow();
        assert_eq!(log.len(), 64, "lossless: every packet must arrive");
        // Arrival rate must eventually degrade to the consume rate.
        let tail: Vec<u64> = log[40..].windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(
            tail.iter().all(|&g| g >= 409_600),
            "tail gaps show backpressure: {tail:?}"
        );
        assert_eq!(stats.borrow().per_node[1].rx_pkts, 64);
    }

    #[test]
    fn stats_count_bytes() {
        let (mut e, _, stats) = build(Dur::ZERO, 10, 1000, FabricConfig::default());
        e.run_to_completion();
        let st = stats.borrow();
        assert_eq!(st.per_node[0].tx_pkts, 10);
        assert_eq!(st.per_node[0].tx_bytes, 10_000);
        assert_eq!(st.per_node[1].rx_bytes, 10_000);
    }

    #[test]
    fn two_senders_share_one_destination_fairly_enough() {
        // Both sources target node 2; aggregated arrival rate is line rate.
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(vec![]));
        let fid = e.reserve_id();
        let s1 = e.reserve_id();
        let s2 = e.reserve_id();
        let snk = e.reserve_id();
        let mut fab: Fabric<Raw> = Fabric::new(FabricConfig::default(), fid);
        let p1 = fab.register_node(s1, None);
        let p2 = fab.register_node(s2, None);
        let pd = fab.register_node(snk, None);
        e.install(fid, Box::new(fab));
        let dst = pd.node;
        e.install(
            s1,
            Box::new(Source {
                dst,
                port: Some(p1),
                remaining: 50,
                size: 2048,
            }),
        );
        e.install(
            s2,
            Box::new(Source {
                dst,
                port: Some(p2),
                remaining: 50,
                size: 2048,
            }),
        );
        e.install(
            snk,
            Box::new(Sink {
                port: Some(pd),
                consume: Dur::ZERO,
                backlog: 0,
                busy: false,
                log: log.clone(),
            }),
        );
        e.schedule(Dur::ZERO, s1, Box::new(Kick));
        e.schedule(Dur::ZERO, s2, Box::new(Kick));
        e.run_to_completion();
        assert_eq!(log.borrow().len(), 100);
        // Delivery is serialized by the shared downlink: gaps ≥ one
        // serialization time each.
        let l = log.borrow();
        let gaps: Vec<u64> = l.windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(gaps.iter().all(|&g| g >= 40_960), "{gaps:?}");
        assert!(e.now() >= Time(100 * 40_960));
    }
}
