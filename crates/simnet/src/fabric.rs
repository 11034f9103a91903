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
//!   the packet into its own buffers, or timed for that instant when the
//!   NIC knows it on arrival, as a PsPIN NIC does).

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
    /// consumed from its ingress stage, or return it with
    /// [`Gate::release_at`] for the instant it will have been.
    pub ingress_gate: SharedGate,
}

impl NodePort {
    /// Convenience: attempt to take an egress credit and submit in one go.
    /// Returns false if the gate is exhausted (caller should register as a
    /// waiter on `egress_gate` and retry on wake).
    pub fn try_submit<P: Payload>(&self, ctx: &mut Ctx<'_>, pkt: NetPacket<P>) -> bool {
        if self.egress_gate.borrow_mut().try_take(ctx.now()) {
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

crate::declare_stats! {
    #[derive(Debug, Default)]
    pub struct FabricStats {
        pub per_node: Vec<NodeStats>,
        /// Times an uplink had to hold because a destination queue was full.
        pub switch_holds: u64 => counter,
        /// Packets the switch dropped because their destination is no node
        /// it has.
        pub unroutable: u64 => counter,
    }
}

/// Wake tokens: an ingress gate wakes the fabric with its node's id, the
/// end of a packet's serialization with the node's id and one of these.
const UP_DONE: u64 = 1 << 63;
const DOWN_DONE: u64 = 1 << 62;

/// One direction of a node's link: the packet events queued on it (each
/// in the box it travels in) and whether the head is serializing.
struct Link<P: Payload> {
    q: VecDeque<Box<PacketEvent<P>>>,
    busy: bool,
    /// Wire size of the packet being serialized (for the byte counters).
    tx_bytes: u64,
}

impl<P: Payload> Link<P> {
    fn new() -> Link<P> {
        Link {
            q: VecDeque::new(),
            busy: false,
            tx_bytes: 0,
        }
    }

    /// Mark the link busy with a `bytes`-sized packet.
    fn start_tx(&mut self, bytes: u64) {
        self.busy = true;
        self.tx_bytes = bytes;
    }

    /// The head packet left the link.
    fn finish_tx(&mut self) -> Box<PacketEvent<P>> {
        self.busy = false;
        self.q.pop_front().expect("link done with empty queue")
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
        let down_full = |d: &NodeState<P>| d.down.q.len() >= self.cfg.down_queue_cap;
        if dst != n && self.nodes.get(dst).is_some_and(down_full) {
            self.stats.borrow_mut().switch_holds += 1;
            if !self.nodes[dst].hol_waiters.contains(&n) {
                self.nodes[dst].hol_waiters.push(n);
            }
            return;
        }
        self.nodes[n].up.start_tx(bytes);
        let at = ctx.now() + self.cfg.link_bw.tx_time(bytes);
        ctx.wake_at(at, self.self_id, UP_DONE | n as u64);
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
        if !gate.try_take(ctx.now()) {
            gate.register_waiter(ctx, self.self_id, n as u64);
            return;
        }
        drop(gate);
        node.down.start_tx(bytes);
        let at = ctx.now() + self.cfg.link_bw.tx_time(bytes);
        ctx.wake_at(at, self.self_id, DOWN_DONE | n as u64);
    }

    fn on_up_tx_done(&mut self, ctx: &mut Ctx<'_>, n: NodeId) {
        let mut ev = self.nodes[n].up.finish_tx();
        {
            let mut st = self.stats.borrow_mut();
            st.per_node[n].tx_pkts += 1;
            st.per_node[n].tx_bytes += self.nodes[n].up.tx_bytes;
        }
        // The uplink queue freed a slot: return the egress credit.
        self.nodes[n].egress_gate.borrow_mut().release(ctx);
        ev.hop = Hop::AtSwitch;
        let hold = self.cfg.link_latency + self.cfg.switch_delay;
        ctx.schedule(hold, self.self_id, ev);
        self.try_start_uplink(ctx, n);
    }

    fn on_down_tx_done(&mut self, ctx: &mut Ctx<'_>, n: NodeId) {
        let mut ev = self.nodes[n].down.finish_tx();
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
    /// A packet's hop: submitted to its uplink, or at the switch.
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
        let Ok(p) = ev.downcast::<PacketEvent<P>>() else {
            panic!("fabric: unknown event type");
        };
        let n = match p.hop {
            Hop::Submit => {
                let n = p.pkt.src;
                debug_assert!(
                    self.nodes[n].up.q.len() < self.cfg.up_queue_cap,
                    "Submit without egress credit"
                );
                self.nodes[n].up.q.push_back(p);
                return self.try_start_uplink(ctx, n);
            }
            // A destination off the wire may name no node: the switch
            // drops the packet.
            Hop::AtSwitch if p.pkt.dst >= self.nodes.len() => {
                self.stats.borrow_mut().unroutable += 1;
                return;
            }
            Hop::AtSwitch => p.pkt.dst,
            Hop::Arrive => panic!("fabric: packet event past its last hop"),
        };
        self.nodes[n].down.q.push_back(p);
        self.try_start_downlink(ctx, n);
    }

    /// A link finished serializing its head packet, or an ingress gate
    /// released a credit and that node's downlink retries.
    fn wake(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let n = (token & !(UP_DONE | DOWN_DONE)) as NodeId;
        match token & (UP_DONE | DOWN_DONE) {
            UP_DONE => self.on_up_tx_done(ctx, n),
            DOWN_DONE => self.on_down_tx_done(ctx, n),
            _ => self.try_start_downlink(ctx, n),
        }
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
    impl Sink {
        fn try_consume(&mut self, ctx: &mut Ctx<'_>) {
            if !self.busy && self.backlog > 0 {
                self.busy = true;
                self.backlog -= 1;
                ctx.wake_at(ctx.now() + self.consume, ctx.self_id, 0);
            }
        }
    }
    impl Component for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            let a = ev.downcast::<PacketEvent<Raw>>().expect("a packet");
            assert_eq!(a.hop, Hop::Arrive);
            self.log
                .borrow_mut()
                .push((ctx.now().ps(), a.pkt.wire_bytes()));
            self.backlog += 1;
            self.try_consume(ctx);
        }
        /// The packet being consumed is done with.
        fn wake(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.busy = false;
            let port = self.port.as_ref().unwrap().clone();
            port.ingress_gate.borrow_mut().release(ctx);
            self.try_consume(ctx);
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
                    port.egress_gate.borrow_mut().register_waiter(ctx, id, 0);
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

    /// A packet for a node the fabric never registered crosses its uplink
    /// and is dropped at the switch, counted; the sender's credit returns.
    #[test]
    fn packet_for_an_unknown_node_is_dropped_and_counted() {
        let mut e = Engine::new();
        let (fid, src_id) = (e.reserve_id(), e.reserve_id());
        let mut fab: Fabric<Raw> = Fabric::new(FabricConfig::default(), fid);
        let port = fab.register_node(src_id, None);
        let stats = fab.stats();
        e.install(fid, Box::new(fab));
        let source = Source {
            port: Some(port),
            dst: 7,
            remaining: 3,
            size: 1000,
        };
        e.install(src_id, Box::new(source));
        e.schedule(Dur::ZERO, src_id, Box::new(Kick));
        e.run_to_completion();
        let st = stats.borrow();
        assert_eq!(st.unroutable, 3);
        assert_eq!(st.per_node[0].tx_pkts, 3);
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

    /// Receiver that knows, when a packet arrives, when it will be done
    /// with it (a PsPIN NIC's packet buffer): it returns the ingress
    /// credit as a timed credit, `hold` after arrival.
    struct TimedSink {
        port: NodePort,
        hold: Dur,
        log: Rc<RefCell<Vec<(u64, u32)>>>,
    }
    impl Component for TimedSink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            let a = ev.downcast::<PacketEvent<Raw>>().expect("a packet");
            let now = ctx.now();
            self.log.borrow_mut().push((now.ps(), a.pkt.wire_bytes()));
            let gate = &self.port.ingress_gate;
            gate.borrow_mut().release_at(ctx, now + self.hold);
        }
    }

    #[test]
    fn full_ingress_buffer_delivers_next_packet_at_the_timed_credit() {
        // One ingress slot: each packet after the first waits on the
        // credit of the one before it, and its downlink starts exactly
        // when that credit comes back.
        let cfg = FabricConfig::default();
        let hold = Dur::from_ns(500);
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(vec![]));
        let fid = e.reserve_id();
        let src_id = e.reserve_id();
        let snk_id = e.reserve_id();
        let mut fab: Fabric<Raw> = Fabric::new(cfg.clone(), fid);
        let sport = fab.register_node(src_id, None);
        let dport = fab.register_node(snk_id, Some(1));
        e.install(fid, Box::new(fab));
        let dst = dport.node;
        e.install(
            src_id,
            Box::new(Source {
                dst,
                port: Some(sport),
                remaining: 8,
                size: 2048,
            }),
        );
        let sink = TimedSink {
            port: dport,
            hold,
            log: log.clone(),
        };
        e.install(snk_id, Box::new(sink));
        e.schedule(Dur::ZERO, src_id, Box::new(Kick));
        e.run_to_completion();
        let log = log.borrow();
        assert_eq!(log.len(), 8, "lossless: every packet must arrive");
        let delivery = cfg.link_bw.tx_time(2048) + cfg.link_latency;
        let gaps: Vec<u64> = log.windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(
            gaps.iter().all(|&g| g == (hold + delivery).ps()),
            "{gaps:?}"
        );
        // The fabric woke once per credit it waited on, and nothing else
        // did: 7 wakes for the credits, 8 + 8 for the ends of
        // serialisation.
        assert_eq!(e.wakes_dispatched(), 7 + 8 + 8);
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
