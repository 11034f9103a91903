//! What a storage node does with headers a client made up. Node ids,
//! addresses and capabilities come off the wire, so none of them may
//! crash the node, reach a node the request did not authenticate, or let
//! a sender without a capability read stored bytes.
//!
//! The rig is one storage node (node 1, sPIN, Plain or firmware-EC,
//! holding the service key, and its own only storage peer) on a four-node
//! fabric: node 0 sends with a valid capability of its own, node 2 without
//! one, and node 3 only listens. Node ids 4..=8 name no node.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_core::{storage_node, ClusterSpec, NodeShared, StorageMode as Mode};
use nadfs_host::SharedMemory;
use nadfs_rdma::SharedNicStats;
use nadfs_simnet::{
    Component, Ctx, Dur, Engine, Fabric, FabricStats, NetPacket, NodeId, NodePort, PacketEvent,
    Time,
};
use nadfs_wire::{
    BcastStrategy, Capability, DfsHeader, DfsOp, EcInfo, EcRole, Frame, GatherCopy,
    GatherReadHeader, GatherReconstruct, GatherReqPkt, GatherSegment, MacKey, MsgId, ReadReqHeader,
    ReadReqPkt, ReplicaCoord, Resiliency, Rights, RpcBody, RsScheme, SendPkt, Status, WritePkt,
    WriteReqHeader,
};
use proptest::prelude::*;

const STORAGE: NodeId = 1;
const NODES: usize = 4;

/// Every way the storage node takes writes: through its sPIN handlers,
/// raw (Plain), or raw with INEC's firmware EC engine.
const MODES: [Mode; 3] = [Mode::Spin, Mode::Plain, Mode::FirmwareEc];

/// A node that sends its frames when kicked and records every frame it
/// receives, with the node it came from.
struct Peer {
    port: NodePort,
    frames: Vec<Frame>,
    received: Rc<RefCell<Vec<(NodeId, Frame)>>>,
}

/// Kicks a [`Peer`].
struct Go;

impl Component for Peer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
        let Ok(arrived) = ev.downcast::<PacketEvent<Frame>>() else {
            for frame in self.frames.drain(..) {
                let pkt = NetPacket::new(self.port.node, STORAGE, frame);
                assert!(self.port.try_submit(ctx, pkt), "uplink queue full");
            }
            return;
        };
        let from = arrived.pkt.src;
        self.received.borrow_mut().push((from, arrived.pkt.payload));
        self.port.ingress_gate.borrow_mut().release(ctx);
    }
}

/// What a run left behind: each peer's received frames, by node, the
/// fabric's counters, and the storage node's memory and NIC counters.
struct Outcome {
    received: Vec<Vec<(NodeId, Frame)>>,
    fabric: Rc<RefCell<FabricStats>>,
    mem: SharedMemory,
    stats: SharedNicStats,
}

/// Run the storage node in `mode` for a millisecond while node 0 sends
/// `from_0` and node 2 sends `from_2`.
fn run(key: MacKey, mode: Mode, from_0: Vec<Frame>, from_2: Vec<Frame>) -> Outcome {
    let spec = ClusterSpec::new(NODES - 1, 1, mode)
        .with_accumulator_pool(4)
        .with_observability(false);
    let shared = NodeShared::new(&spec);
    let cost = &spec.cost;
    let mut engine = Engine::new();
    let fabric_id = engine.reserve_id();
    let ids: Vec<_> = (0..NODES).map(|_| engine.reserve_id()).collect();
    let mut fabric: Fabric<Frame> = Fabric::new(cost.fabric.clone(), fabric_id);
    let slots = |node| (node == STORAGE).then_some(cost.pspin.pktbuf_slots);
    let ports: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(node, &id)| fabric.register_node(id, slots(node)))
        .collect();
    let fabric_stats = fabric.stats();
    engine.install(fabric_id, Box::new(fabric));

    let mut sends = [from_0, Vec::new(), from_2, Vec::new()];
    let mut received = Vec::new();
    let mut storage = None;
    for ((node, port), id) in ports.into_iter().enumerate().zip(ids) {
        let log = Rc::default();
        received.push(Rc::clone(&log));
        if node != STORAGE {
            let frames = std::mem::take(&mut sends[node]);
            let peer = Peer {
                port,
                frames,
                received: log,
            };
            engine.install(id, Box::new(peer));
            engine.schedule(Dur::ZERO, id, Box::new(Go));
            continue;
        }
        let (nic, handles) = storage_node(&spec, key, vec![STORAGE], port, id, &shared);
        storage = Some((handles.mem, handles.nic_stats));
        engine.install(id, Box::new(nic));
    }
    engine.run_until(Time(Dur::from_ms(1).ps()));
    let (mem, stats) = storage.expect("a storage node");
    Outcome {
        received: received.into_iter().map(|r| r.take()).collect(),
        fabric: fabric_stats,
        mem,
        stats,
    }
}

/// A valid RW capability held by `holder`, for file 1.
fn cap(key: &MacKey, holder: u32) -> Capability {
    Capability::issue(key, holder, 1, Rights::RW, u64::MAX, 0)
}

/// The DFS header of request `greq`, naming `client` and presenting
/// `capability`.
fn header(client: u32, capability: Capability, greq: u64) -> DfsHeader {
    DfsHeader {
        tenant: 0,
        greq_id: greq,
        op: DfsOp::Write,
        client,
        capability,
    }
}

/// Packet `pkt_idx` of `total_pkts` of write `msg`: `data` at `offset`,
/// the headers on the first.
fn write_pkt(
    msg: MsgId,
    pkt_idx: u32,
    total_pkts: u32,
    first: Option<(DfsHeader, WriteReqHeader)>,
    offset: u32,
    data: Vec<u8>,
) -> Frame {
    let (dfs, wrh) = first.unzip();
    Frame::Write(WritePkt {
        msg,
        pkt_idx,
        total_pkts,
        dfs,
        wrh,
        offset,
        data: Bytes::from(data),
    })
}

/// A one-packet write of `len` bytes at `addr`, headed by `dfs`.
fn write(dfs: DfsHeader, addr: u64, len: u32) -> Frame {
    write_under(dfs, addr, len, Resiliency::None)
}

/// [`write`] under `resiliency`.
fn write_under(dfs: DfsHeader, addr: u64, len: u32, resiliency: Resiliency) -> Frame {
    let wrh = WriteReqHeader {
        target_addr: addr,
        len,
        resiliency,
    };
    let msg = MsgId::new(0, dfs.greq_id);
    write_pkt(msg, 0, 1, Some((dfs, wrh)), 0, vec![0xEE; len as usize])
}

fn read(dfs: Option<DfsHeader>, msg: MsgId, addr: u64, len: u32) -> Frame {
    let rrh = ReadReqHeader { addr, len };
    Frame::ReadReq(ReadReqPkt { msg, dfs, rrh })
}

fn segment(node: u32, addr: u64, len: u32, shard: u8) -> GatherSegment {
    GatherSegment {
        coord: ReplicaCoord { node, addr },
        len,
        dest_off: 0,
        shard,
    }
}

fn gather(dfs: DfsHeader, segments: Vec<GatherSegment>, rec: Option<GatherReconstruct>) -> Frame {
    let total_len = segments.iter().map(|s| s.len).sum();
    let grh = GatherReadHeader {
        total_len,
        segments,
        reconstruct: rec,
    };
    let msg = MsgId::new(0, dfs.greq_id);
    Frame::GatherReq(GatherReqPkt { msg, dfs, grh })
}

fn send(msg: MsgId, body: RpcBody, data: Vec<u8>) -> Frame {
    send_first(msg, 1, body, data)
}

/// The first packet of a SEND of `total_pkts`.
fn send_first(msg: MsgId, total_pkts: u32, body: RpcBody, data: Vec<u8>) -> Frame {
    Frame::Send(SendPkt {
        msg,
        pkt_idx: 0,
        total_pkts,
        rpc: Some(body),
        offset: 0,
        data: Bytes::from(data),
    })
}

/// `(greq, status)` of every ack among `frames`.
fn acks(frames: &[(NodeId, Frame)]) -> Vec<(Option<u64>, Status)> {
    let ack = |(_, f): &(NodeId, Frame)| match f {
        Frame::Ack(a) => Some((a.greq_id, a.status)),
        _ => None,
    };
    frames.iter().filter_map(ack).collect()
}

/// Payload bytes of the read responses among `frames`.
fn bytes_read(frames: &[(NodeId, Frame)]) -> usize {
    let data = |(_, f): &(NodeId, Frame)| match f {
        Frame::ReadResp(r) => r.data.len(),
        _ => 0,
    };
    frames.iter().map(data).sum()
}

const HIGH: u64 = u64::MAX - 100;

/// Node 0's write under a forged capability names node 2 as its client:
/// the refusal goes to node 0, and node 2 receives nothing.
#[test]
fn forged_write_naming_another_node_reaches_only_its_sender() {
    let key = MacKey::from_seed(3);
    let forged = cap(&MacKey::from_seed(4), 2);
    for mode in MODES {
        let out = run(
            key,
            mode,
            vec![write(header(2, forged, 5), 0x40_000, 64)],
            vec![],
        );
        assert!(out.received[2].is_empty(), "{:?}", out.received[2]);
        assert_eq!(out.fabric.borrow().unroutable, 0);
        if mode == Mode::Spin {
            assert_eq!(acks(&out.received[0]), [(Some(5), Status::AuthFailed)]);
        }
    }
}

/// A replicated RPC write under node 0's valid capability, naming the
/// listening node 3 as its client: the storage CPU refuses it to node 0,
/// and node 3 hears nothing (accepted, the write's ack would go there).
#[test]
fn rpc_write_naming_another_client_is_refused() {
    let key = MacKey::from_seed(3);
    let body = RpcBody::WriteReq {
        dfs: header(3, cap(&key, 0), 1),
        wrh: WriteReqHeader {
            target_addr: 0x40_000,
            len: 64,
            resiliency: Resiliency::Replicate {
                strategy: BcastStrategy::Ring,
                vrank: 0,
                coords: vec![ReplicaCoord {
                    node: 1,
                    addr: 0x40_000,
                }],
            },
        },
        inline_data: true,
        src_addr: 0,
        chunk_off: 0,
        full_len: 64,
    };
    let frame = send(MsgId::new(0, 1), body, vec![0xEE; 64]);
    for mode in MODES {
        let out = run(key, mode, vec![frame.clone()], vec![]);
        assert_eq!(acks(&out.received[0]), [(Some(1), Status::AuthFailed)]);
        assert!(out.received[3].is_empty(), "{:?}", out.received[3]);
    }
}

/// An RPC write from node 0 under an expired capability the service
/// signed for node 3, naming node 3: the storage CPU refuses it to the
/// holder, node 3, as the NIC's check would, and node 0 hears nothing.
#[test]
fn expired_rpc_write_is_refused_to_its_holder() {
    let key = MacKey::from_seed(3);
    let expired = Capability::issue(&key, 3, 1, Rights::RW, 0, 0);
    let body = RpcBody::WriteReq {
        dfs: header(3, expired, 1),
        wrh: WriteReqHeader {
            target_addr: 0x40_000,
            len: 64,
            resiliency: Resiliency::None,
        },
        inline_data: true,
        src_addr: 0,
        chunk_off: 0,
        full_len: 64,
    };
    let frame = send(MsgId::new(0, 1), body, vec![0xEE; 64]);
    for mode in MODES {
        let out = run(key, mode, vec![frame.clone()], vec![]);
        assert_eq!(acks(&out.received[3]), [(Some(1), Status::AuthFailed)]);
        assert!(out.received[0].is_empty(), "{:?}", out.received[0]);
    }
}

/// Client 0's header for request `greq`, under its valid capability.
fn valid(key: &MacKey, greq: u64) -> DfsHeader {
    header(0, cap(key, 0), greq)
}

/// `frame`, request 1 from node 0 of a bad shape, is refused `Rejected`
/// on a node of each of `modes`: nothing is read, and nothing lands in
/// storage (a SEND's bytes land only in the receive buffer).
fn assert_rejected(modes: &[Mode], frame: impl Fn(&MacKey) -> Frame) {
    let key = MacKey::from_seed(3);
    for &mode in modes {
        let frame = frame(&key);
        let received = match &frame {
            Frame::Send(s) => s.data.len() as u64,
            _ => 0,
        };
        let out = run(key, mode, vec![frame], vec![]);
        let got = &out.received[0];
        assert_eq!(acks(got), [(Some(1), Status::Rejected)], "{mode:?}");
        assert_eq!(bytes_read(got), 0, "{mode:?}");
        assert_eq!(out.mem.borrow().bytes_written(), received, "{mode:?}");
    }
}

#[test]
fn write_past_the_address_space_is_rejected_by_the_header_handler() {
    assert_rejected(&[Mode::Spin], |key| write(valid(key, 1), HIGH, 200));
}

#[test]
fn raw_write_past_the_address_space_is_rejected() {
    assert_rejected(&[Mode::Plain, Mode::FirmwareEc], |key| {
        write(valid(key, 1), HIGH, 200)
    });
}

/// An EC data write whose header does not fit together: chunk 7 of
/// RS(2,1).
fn unsound_ec() -> Resiliency {
    Resiliency::ErasureCode(EcInfo {
        scheme: RsScheme::new(2, 1),
        role: EcRole::Data { chunk_idx: 7 },
        stripe: 0,
        parity_coords: vec![ReplicaCoord {
            node: 3,
            addr: 0x80_000,
        }],
    })
}

/// Node 0's write of 64 bytes at 0x40_000 under an unsound EC header is
/// refused before any of it lands: by the header handler, by a node with
/// no EC engine, and by the firmware EC engine's first-packet check.
#[test]
fn unsound_ec_write_lands_nothing() {
    assert_rejected(&MODES, |key| {
        write_under(valid(key, 1), 0x40_000, 64, unsound_ec())
    });
}

/// The same write as an RPC: the storage CPU refuses its shape as the
/// header handler does, and stores nothing.
#[test]
fn unsound_ec_rpc_write_is_rejected() {
    assert_rejected(&MODES, |key| {
        let wrh = WriteReqHeader {
            target_addr: 0x40_000,
            len: 64,
            resiliency: unsound_ec(),
        };
        let body = RpcBody::WriteReq {
            dfs: valid(key, 1),
            wrh,
            inline_data: true,
            src_addr: 0,
            chunk_off: 0,
            full_len: 64,
        };
        send(MsgId::new(0, 1), body, vec![0xEE; 64])
    });
}

/// Node 2 reads under a forged capability, in range and past the
/// address space: the capability is checked first, so both are refused
/// `AuthFailed`, and both count as read refusals.
#[test]
fn forged_read_is_refused_for_its_capability_wherever_it_points() {
    let key = MacKey::from_seed(3);
    let forged = |greq| header(2, cap(&MacKey::from_seed(4), 2), greq);
    let probes = vec![
        read(Some(forged(1)), MsgId::new(2, 1), 0x40_000, 64),
        read(Some(forged(2)), MsgId::new(2, 2), HIGH, 200),
    ];
    for mode in MODES {
        let out = run(key, mode, vec![], probes.clone());
        let got = &out.received[2];
        let refused = [(Some(1), Status::AuthFailed), (Some(2), Status::AuthFailed)];
        assert_eq!(acks(got), refused, "{mode:?}");
        assert_eq!(bytes_read(got), 0, "{mode:?}");
        assert_eq!(out.stats.borrow().read_auth_failures, 2, "{mode:?}");
    }
}

#[test]
fn read_past_the_address_space_is_rejected() {
    assert_rejected(&MODES, |key| {
        read(Some(valid(key, 1)), MsgId::new(0, 1), HIGH, 200)
    });
}

#[test]
fn gather_past_the_address_space_is_rejected() {
    assert_rejected(&MODES, |key| {
        gather(valid(key, 1), vec![segment(1, HIGH, 200, 0)], None)
    });
}

/// A degraded plan whose remote survivor's range ends past the space.
#[test]
fn degraded_gather_past_the_address_space_is_rejected() {
    let copy = GatherCopy {
        chunk: 2,
        chunk_off: 150,
        len: 100,
        dest_off: 0,
    };
    let rec = GatherReconstruct {
        scheme: RsScheme::new(2, 1),
        chunk_len: 300,
        copy: vec![copy],
    };
    let survivors = vec![segment(1, 0x40_000, 300, 0), segment(0, HIGH, 300, 1)];
    assert_rejected(&MODES, |key| {
        gather(valid(key, 1), survivors.clone(), Some(rec.clone()))
    });
}

#[test]
fn rpc_write_past_the_address_space_is_rejected() {
    assert_rejected(&MODES, |key| {
        let wrh = WriteReqHeader {
            target_addr: HIGH,
            len: 200,
            resiliency: Resiliency::None,
        };
        let body = RpcBody::WriteReq {
            dfs: valid(key, 1),
            wrh,
            inline_data: true,
            src_addr: 0,
            chunk_off: 0,
            full_len: 200,
        };
        send(MsgId::new(0, 1), body, vec![0xEE; 200])
    });
}

#[test]
fn rpc_read_past_the_address_space_is_rejected() {
    assert_rejected(&MODES, |key| {
        let rrh = ReadReqHeader {
            addr: HIGH,
            len: 200,
        };
        let body = RpcBody::ReadReq {
            dfs: valid(key, 1),
            rrh,
        };
        send(MsgId::new(0, 1), body, vec![])
    });
}

/// A write's second packet lands past the length its header gave: it is
/// dropped, and only the first packet's bytes land.
#[test]
fn payload_past_its_header_length_is_dropped() {
    let key = MacKey::from_seed(3);
    let wrh = WriteReqHeader {
        target_addr: 0x40_000,
        len: 100,
        resiliency: Resiliency::None,
    };
    let msg = MsgId::new(0, 1);
    let first = Some((header(0, cap(&key, 0), 1), wrh));
    let frames = vec![
        write_pkt(msg, 0, 2, first, 0, vec![0xAA; 100]),
        write_pkt(msg, 1, 2, None, 4096, vec![0xBB; 100]),
    ];
    for mode in MODES {
        let out = run(key, mode, frames.clone(), vec![]);
        let mem = out.mem.borrow();
        assert_eq!(mem.read(0x40_000, 100), vec![0xAA; 100], "{mode:?}");
        assert_eq!(mem.read(0x40_000 + 4096, 100), vec![0; 100], "{mode:?}");
    }
}

/// Node 2, which holds no capability and is no storage peer, reads the
/// 64 bytes node 0 stored, without a DFS header: it is refused
/// `AuthFailed` and reads nothing.
#[test]
fn header_less_read_from_a_non_peer_is_refused() {
    let key = MacKey::from_seed(3);
    let stored = write(valid(&key, 1), 0x40_000, 64);
    let probe = read(None, MsgId::new(2, 1), 0x40_000, 64);
    for mode in MODES {
        let out = run(key, mode, vec![stored.clone()], vec![probe.clone()]);
        let got = &out.received[2];
        assert_eq!(acks(got), [(None, Status::AuthFailed)], "{mode:?}");
        assert_eq!(bytes_read(got), 0, "{mode:?}");
    }
}

/// Node 2, which holds no capability, opens SENDs of `u32::MAX` packets
/// whose bodies declare one packet's worth: each is refused `Rejected` at
/// its first packet, and no buffer is reserved for the rest.
#[test]
fn send_of_more_packets_than_its_body_declares_is_rejected() {
    let key = MacKey::from_seed(3);
    let forged = header(2, cap(&MacKey::from_seed(4), 2), 1);
    let wrh = WriteReqHeader {
        target_addr: 0x40_000,
        len: 64,
        resiliency: Resiliency::None,
    };
    let bodies = [
        RpcBody::ReadReq {
            dfs: forged,
            rrh: ReadReqHeader {
                addr: 0x40_000,
                len: 64,
            },
        },
        RpcBody::WriteReq {
            dfs: forged,
            wrh,
            inline_data: true,
            src_addr: 0,
            chunk_off: 0,
            full_len: 64,
        },
    ];
    for body in bodies {
        let frame = send_first(MsgId::new(2, 1), u32::MAX, body, vec![0xEE; 64]);
        for mode in MODES {
            let out = run(key, mode, vec![], vec![frame.clone()]);
            let got = acks(&out.received[2]);
            assert_eq!(got, [(None, Status::Rejected)], "{mode:?}");
        }
    }
}

/// A frame generator for [`hostile_frames_stay_contained`].
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// A node id, of this fabric's nodes or past them.
    fn node(&mut self) -> u32 {
        self.below(9) as u32
    }

    /// An address well inside the space, or within 64 KiB of its end.
    fn addr(&mut self) -> u64 {
        match self.coin() {
            true => u64::MAX - self.below(64 << 10),
            false => 0x40_000 + self.below(64 << 10),
        }
    }

    fn coord(&mut self) -> ReplicaCoord {
        ReplicaCoord {
            node: self.node(),
            addr: self.addr(),
        }
    }

    fn coords(&mut self) -> Vec<ReplicaCoord> {
        (0..self.below(4)).map(|_| self.coord()).collect()
    }

    fn ec_info(&mut self) -> EcInfo {
        let role = match self.coin() {
            true => EcRole::Data {
                chunk_idx: self.below(5) as u8,
            },
            false => EcRole::Parity {
                parity_idx: self.below(4) as u8,
                src_chunk: self.below(5) as u8,
            },
        };
        EcInfo {
            scheme: RsScheme::new(self.below(5) as u8, self.below(4) as u8),
            role,
            stripe: self.below(4),
            parity_coords: self.coords(),
        }
    }

    fn wrh(&mut self) -> WriteReqHeader {
        let resiliency = match self.below(3) {
            0 => Resiliency::None,
            1 => Resiliency::Replicate {
                strategy: match self.coin() {
                    true => BcastStrategy::Ring,
                    false => BcastStrategy::Pbt,
                },
                vrank: self.below(4) as u8,
                coords: self.coords(),
            },
            _ => Resiliency::ErasureCode(self.ec_info()),
        };
        WriteReqHeader {
            target_addr: self.addr(),
            len: self.below(400) as u32,
            resiliency,
        }
    }

    /// Up to 300 bytes of `tag`.
    fn data(&mut self, tag: u8) -> Vec<u8> {
        vec![tag; self.below(300) as usize]
    }
}

/// One case: the frames nodes 0 and 2 send, and the nodes they may make
/// the storage node reach.
struct Case {
    frames: [Vec<Frame>; 2],
    /// The senders, the holders of capabilities the service signed, and
    /// the nodes named by headers that pass the check.
    reachable: Vec<u32>,
    /// Every write, raw or RPC: its message, the byte its payload is made
    /// of (one per frame), and its target address.
    writes: Vec<(MsgId, u8, u64)>,
}

/// How far past its target a case's write may land: its header's
/// length and its first packet's payload are both below this.
const WRITE_SPAN: usize = 400;

/// Up to three frames from each sender. Node 0 presents its own valid
/// capability, a forged one or an expired one; node 2 a forged or an
/// expired one, never a valid one. Either's reads may carry no header,
/// and its SENDs may claim any packet count.
fn case(key: &MacKey, seed: u64) -> Case {
    let mut g = Gen(seed);
    let mut reachable = vec![0, 2];
    let mut frames = [Vec::new(), Vec::new()];
    let mut writes = Vec::new();
    for (i, sender) in [0u32, 2].into_iter().enumerate() {
        for seq in 0..1 + g.below(3) {
            let greq = (sender as u64) << 32 | seq;
            let msg = MsgId::new(sender, greq);
            let tag = 0xA0 + (i as u64 * 4 + seq) as u8;
            let holder = g.node();
            let capability = match g.below(if sender == 0 { 3 } else { 2 }) {
                0 => Capability::issue(&MacKey::from_seed(99), holder, 1, Rights::RW, u64::MAX, 0),
                1 => {
                    reachable.push(holder);
                    Capability::issue(key, holder, 1, Rights::RW, 0, 0)
                }
                _ => cap(key, 0),
            };
            let valid = capability == cap(key, 0);
            let client = if g.coin() { sender } else { g.node() };
            let dfs = header(client, capability, greq);
            let accepted = valid && client == 0;
            let frame = match g.below(5) {
                0 | 1 => {
                    let wrh = g.wrh();
                    if accepted {
                        reachable.extend(
                            match &wrh.resiliency {
                                Resiliency::None => vec![],
                                Resiliency::Replicate { coords, .. } => coords.clone(),
                                Resiliency::ErasureCode(info) => info.parity_coords.clone(),
                            }
                            .iter()
                            .map(|c| c.node),
                        );
                    }
                    writes.push((msg, tag, wrh.target_addr));
                    let data = g.data(tag);
                    if g.coin() {
                        let offset = g.below(1 << 20) as u32;
                        let second = write_pkt(msg, 1, 2, None, offset, g.data(tag));
                        frames[i].push(write_pkt(msg, 0, 2, Some((dfs, wrh)), 0, data));
                        frames[i].push(second);
                        continue;
                    }
                    write_pkt(msg, 0, 1, Some((dfs, wrh)), 0, data)
                }
                2 => {
                    let dfs = g.coin().then_some(dfs);
                    read(dfs, msg, g.addr(), g.below(8192) as u32)
                }
                3 => {
                    let segments: Vec<_> = (0..1 + g.below(3))
                        .map(|_| {
                            segment(g.node(), g.addr(), g.below(3000) as u32, g.below(5) as u8)
                        })
                        .collect();
                    if accepted {
                        reachable.extend(segments.iter().map(|s| s.coord.node));
                    }
                    let rec = g.coin().then(|| GatherReconstruct {
                        scheme: RsScheme::new(g.below(5) as u8, g.below(4) as u8),
                        chunk_len: g.below(3000) as u32,
                        copy: (0..g.below(3))
                            .map(|_| GatherCopy {
                                chunk: g.below(6) as u8,
                                chunk_off: g.below(3000) as u32,
                                len: g.below(3000) as u32,
                                dest_off: g.below(5000) as u32,
                            })
                            .collect(),
                    });
                    gather(dfs, segments, rec)
                }
                _ => {
                    let body = match g.coin() {
                        true => RpcBody::WriteReq {
                            dfs,
                            wrh: g.wrh(),
                            inline_data: g.coin(),
                            src_addr: g.addr(),
                            chunk_off: g.next() as u32,
                            full_len: g.below(400) as u32,
                        },
                        false => RpcBody::ReadReq {
                            dfs,
                            rrh: ReadReqHeader {
                                addr: g.addr(),
                                len: g.below(8192) as u32,
                            },
                        },
                    };
                    if let RpcBody::WriteReq { wrh, .. } = &body {
                        writes.push((msg, tag, wrh.target_addr));
                        if let (true, Resiliency::Replicate { coords, .. }) =
                            (accepted, &wrh.resiliency)
                        {
                            reachable.extend(coords.iter().map(|c| c.node));
                        }
                    }
                    let total_pkts = match g.coin() {
                        true => 1,
                        false => g.next() as u32,
                    };
                    send_first(msg, total_pkts, body, g.data(tag))
                }
            };
            frames[i].push(frame);
        }
    }
    Case {
        frames,
        reachable,
        writes,
    }
}

// Hostile headers from both senders, to a storage node of each mode:
// nothing panics, node 2 reads no stored bytes, a refused write lands
// none of its bytes, and every frame the storage node emits goes to a
// sender, to the holder of a capability the service signed, or to a node
// an accepted header names. A frame for a node the fabric does not have is
// dropped at the switch, so the switch's count must have such a node to
// answer for.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hostile_frames_stay_contained(seed in any::<u64>()) {
        let key = MacKey::from_seed(3);
        let Case { frames: [from_0, from_2], reachable, writes } = case(&key, seed);
        for mode in MODES {
            let out = run(key, mode, from_0.clone(), from_2.clone());
            prop_assert_eq!(bytes_read(&out.received[2]), 0, "node 2 read bytes");
            for (node, got) in out.received.iter().enumerate() {
                prop_assert!(
                    got.is_empty() || reachable.contains(&(node as u32)),
                    "node {} received {:?}",
                    node,
                    got
                );
            }
            let unroutable = out.fabric.borrow().unroutable;
            prop_assert!(
                unroutable == 0 || reachable.iter().any(|&n| n as usize >= NODES),
                "{} frames for no node",
                unroutable
            );
            let refused: Vec<MsgId> = out
                .received
                .iter()
                .flatten()
                .filter_map(|(_, f)| match f {
                    Frame::Ack(a) if a.status != Status::Ok => Some(a.msg),
                    _ => None,
                })
                .collect();
            let mem = out.mem.borrow();
            for &(msg, tag, target) in &writes {
                // (Memory is read only well inside the space.)
                if refused.contains(&msg) && target < 1 << 20 {
                    let landed = mem.read(target, WRITE_SPAN);
                    prop_assert!(!landed.contains(&tag), "{:?}: refused {:?} landed", mode, msg);
                }
            }
        }
    }
}
