//! The sPIN handler programming interface (paper Listing 1).
//!
//! Applications define header / payload / completion handlers (plus the
//! cleanup handler this work adds, §VII). Handlers are real Rust functions
//! that perform the *functional* work on their handler set's own state
//! (the context's NIC memory) and record an operation list ([`Ops`])
//! describing what the HPU does over simulated time: cycles burned,
//! packets sent, DMA issued.
//! The device replays the list, blocking on egress credits and DMA flushes,
//! so handler *duration* includes real stalls (this is how the paper's
//! PBT IPC collapse emerges rather than being scripted).

use bytes::Bytes;
use nadfs_simnet::{NetPacket, NodeId, PacketEvent, SharedBufPool, SharedPacketPool, Time};
use nadfs_wire::{Frame, GatherReqPkt, MsgId, Pkt};

/// Which handler of the triple (plus cleanup) a record refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum HandlerKind {
    Header,
    Payload,
    Completion,
    Cleanup,
}

/// One operation in a handler's recorded execution.
#[derive(Debug)]
pub(crate) enum Op {
    /// Burn `cycles` of HPU time.
    Charge { cycles: u64 },
    /// Emit a packet (blocks the HPU while the NIC egress queue is full).
    /// The packet is boxed when recorded and leaves in that box; `None`
    /// once sent.
    Send { pkt: Option<Pkt> },
    /// Post a DMA write toward host memory (asynchronous).
    DmaWrite { addr: u64, data: Bytes },
    /// Block until every DMA write of this *message* is durable — the
    /// explicit flush the paper highlights under data persistence
    /// (§III-B-1).
    WaitFlush,
    /// Hand the NIC owner's component a [`HostNotify`]; `None` once
    /// delivered.
    Notify { note: Option<HostNotify> },
}

/// What a handler hands the NIC it runs on, delivered as one event at the
/// instant the handler's replay reaches it.
#[derive(Debug)]
pub enum HostNotify {
    /// An event for the host DFS software, through its event queue
    /// (§III-C).
    Host(HostEvent),
    /// A gather read the handlers validated, from `client`: the NIC's
    /// gather engine runs it without the host.
    Gather { client: NodeId, req: GatherReqPkt },
}

/// Work the handlers pass to the host CPU, carrying what it needs.
#[derive(Debug)]
pub enum HostEvent {
    /// The accumulator pool could not cover a stripe (§VI-B-3): its `k`
    /// intermediate parities are staged in host memory right after the
    /// final parity chunk at `final_addr`, `chunk_len` bytes each. The
    /// CPU XORs them into place and acknowledges `client`'s request
    /// `greq`.
    Aggregate {
        k: u8,
        chunk_len: u32,
        final_addr: u64,
        greq: u64,
        client: NodeId,
    },
    /// The cleanup handler reclaimed an abandoned message's state (§VII).
    Cleanup,
}

/// Recorder handed to handler code.
#[derive(Debug, Default)]
pub struct Ops {
    pub(crate) items: Vec<Op>,
    pub(crate) instrs: u64,
    /// The node sent packets originate from.
    node: NodeId,
    /// Where boxes for sent packets come from (fresh ones when unset).
    pkts: Option<SharedPacketPool<Frame>>,
}

impl Ops {
    /// A recorder for handlers running on `node`, boxing the packets
    /// they send out of `pkts`.
    pub(crate) fn on_node(node: NodeId, pkts: SharedPacketPool<Frame>) -> Ops {
        Ops {
            node,
            pkts: Some(pkts),
            ..Ops::default()
        }
    }

    /// Forget the recording, keeping its storage for the next run.
    /// Uniquely-owned DMA-write payloads retire into `bufs`.
    pub(crate) fn reset(&mut self, bufs: Option<&SharedBufPool>) {
        if let Some(bufs) = bufs {
            let mut bufs = bufs.borrow_mut();
            for op in self.items.drain(..) {
                if let Op::DmaWrite { data, .. } = op {
                    if let Ok(v) = data.try_unwrap() {
                        bufs.put(v);
                    }
                }
            }
        }
        self.items.clear();
        self.instrs = 0;
    }

    /// Burn raw cycles (no instruction accounting).
    pub(crate) fn charge_cycles(&mut self, cycles: u64) {
        if cycles > 0 {
            self.items.push(Op::Charge { cycles });
        }
    }

    /// Account `instrs` instructions executing at `ipc` instructions/cycle.
    /// This is the paper's cost model: duration = instructions ÷ IPC.
    pub fn charge_instrs(&mut self, instrs: u64, ipc: f64) {
        assert!(ipc > 0.0, "ipc must be positive");
        self.instrs += instrs;
        let cycles = (instrs as f64 / ipc).round() as u64;
        self.charge_cycles(cycles);
    }

    pub fn send(&mut self, dst: NodeId, frame: Frame) {
        let pkt = match &self.pkts {
            Some(pool) => pool.borrow_mut().submit(self.node, dst, frame),
            None => Box::new(PacketEvent::submit(NetPacket::new(self.node, dst, frame))),
        };
        self.items.push(Op::Send { pkt: Some(pkt) });
    }

    pub fn dma_write(&mut self, addr: u64, data: Bytes) {
        self.items.push(Op::DmaWrite { addr, data });
    }

    pub fn wait_flush(&mut self) {
        self.items.push(Op::WaitFlush);
    }

    pub fn notify(&mut self, note: HostNotify) {
        self.items.push(Op::Notify { note: Some(note) });
    }
}

/// Arguments a handler receives: the triggering frame and identifiers.
pub struct HandlerArgs<'a> {
    pub frame: &'a Frame,
    pub msg: MsgId,
    /// Source node of the packet.
    pub src: NodeId,
    /// This storage node's address.
    pub local: NodeId,
    pub now: Time,
    pub ops: &'a mut Ops,
}

/// A set of sPIN handlers for one execution context (paper Listing 1:
/// `header_handler`, `payload_handler`, `tail_handler`; §VII adds the
/// cleanup handler). The implementing type is the context's state in NIC
/// memory (`task->mem` in Listing 1): every handler works on `self`.
pub trait HandlerSet {
    /// Runs on the first packet of a message, before any payload handler.
    fn header(&mut self, a: HandlerArgs<'_>);
    /// Runs on every packet (header and completion included).
    fn payload(&mut self, a: HandlerArgs<'_>);
    /// Runs on the last packet, after all payload handlers completed.
    fn completion(&mut self, a: HandlerArgs<'_>);
    /// Runs when an open message has been inactive past the timeout.
    fn cleanup(&mut self, msg: MsgId, ops: &mut Ops);
}

/// An installed execution context: the handler set, which owns its state.
pub struct ExecutionContext {
    pub handlers: Box<dyn HandlerSet>,
    /// NIC memory reserved for DFS-wide state (e.g. the 64 KiB GF table,
    /// accumulator pool). Charged against device memory at install.
    pub state_bytes: u64,
    /// Per-open-request descriptor size; the paper's write descriptor is
    /// 77 B (§III-B).
    pub descriptor_bytes: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_instrs_converts_with_ipc() {
        let mut o = Ops::default();
        o.charge_instrs(120, 0.57);
        assert_eq!(o.instrs, 120);
        match &o.items[0] {
            Op::Charge { cycles } => assert_eq!(*cycles, 211), // 120/0.57
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_charge_is_elided() {
        let mut o = Ops::default();
        o.charge_cycles(0);
        assert!(o.items.is_empty());
    }

    #[test]
    fn ops_record_in_order() {
        let mut o = Ops::default();
        o.charge_cycles(5);
        o.wait_flush();
        o.notify(HostNotify::Host(HostEvent::Cleanup));
        assert_eq!(o.items.len(), 3);
        assert!(matches!(o.items[0], Op::Charge { cycles: 5 }));
        assert!(matches!(o.items[1], Op::WaitFlush));
        match &o.items[2] {
            Op::Notify { note: Some(note) } => {
                assert!(matches!(note, HostNotify::Host(HostEvent::Cleanup)))
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
