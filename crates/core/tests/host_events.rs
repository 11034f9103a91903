//! What the sPIN handlers hand the storage CPU, and what they refuse to
//! act on. A stripe the accumulator pool cannot cover reaches the host as
//! one event carrying that stripe's own state (§VI-B-3), whatever its id:
//! stripe ids come in the client's header, so two stripes may share any
//! bits but not the whole id. An EC header whose fields do not fit
//! together is refused, even under a valid capability.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_core::{storage_node, ClusterSpec, NodeShared, SharedStorageStats, StorageMode};
use nadfs_host::SharedMemory;
use nadfs_simnet::{
    Component, ComponentId, Ctx, Dur, Engine, Fabric, NetPacket, NodeId, NodePort, PacketEvent,
    Time,
};
use nadfs_wire::{
    AckPkt, BcastStrategy, Capability, DfsHeader, DfsOp, EcInfo, EcRole, Frame, MacKey, MsgId,
    ReplicaCoord, Resiliency, Rights, RsScheme, Status, WritePkt, WriteReqHeader,
};

/// A bare client in place of a NIC: submits its frames when kicked and
/// records every frame that comes back.
struct Sender {
    port: NodePort,
    frames: Vec<(NodeId, Frame)>,
    received: Rc<RefCell<Vec<Frame>>>,
}

/// Kicks a [`Sender`].
struct Go;

impl Component for Sender {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
        let Ok(arrived) = ev.downcast::<PacketEvent<Frame>>() else {
            for (dst, frame) in self.frames.drain(..) {
                let pkt = NetPacket::new(self.port.node, dst, frame);
                assert!(self.port.try_submit(ctx, pkt), "uplink queue full");
            }
            return;
        };
        self.received.borrow_mut().push(arrived.pkt.payload);
        self.port.ingress_gate.borrow_mut().release(ctx);
    }
}

const K: u8 = 2;
const CHUNK: usize = 1000;

/// A sPIN storage node with `accumulators` accumulators, authenticating
/// with `key`, and a [`Sender`] as node 0 (the client every capability
/// names).
struct Rig {
    engine: Engine,
    sender_port: Option<NodePort>,
    sender_id: ComponentId,
    node: NodeId,
    mem: SharedMemory,
    stats: SharedStorageStats,
}

impl Rig {
    fn new(key: MacKey, accumulators: usize) -> Rig {
        let spec = ClusterSpec::new(1, 1, StorageMode::Spin)
            .with_accumulator_pool(accumulators)
            .with_observability(false);
        let cost = &spec.cost;
        let mut engine = Engine::new();
        let [fabric_id, sender_id, storage_id] = [(); 3].map(|()| engine.reserve_id());
        let mut fabric: Fabric<Frame> = Fabric::new(cost.fabric.clone(), fabric_id);
        let sender_port = fabric.register_node(sender_id, None);
        let storage_port = fabric.register_node(storage_id, Some(cost.pspin.pktbuf_slots));
        engine.install(fabric_id, Box::new(fabric));

        let node = storage_port.node;
        let shared = NodeShared::new(&spec);
        let (nic, handles) =
            storage_node(&spec, key, vec![node], storage_port, storage_id, &shared);
        let (mem, stats) = (handles.mem, handles.stats);
        engine.install(storage_id, Box::new(nic));
        Rig {
            engine,
            sender_port: Some(sender_port),
            sender_id,
            node,
            mem,
            stats,
        }
    }

    /// Send `frames` and run for a millisecond; returns every frame that
    /// came back.
    fn deliver(&mut self, frames: Vec<(NodeId, Frame)>) -> Vec<Frame> {
        let received = Rc::default();
        let sender = Sender {
            port: self.sender_port.take().expect("one delivery per rig"),
            frames,
            received: Rc::clone(&received),
        };
        self.engine.install(self.sender_id, Box::new(sender));
        self.engine
            .schedule(Dur::ZERO, self.sender_id, Box::new(Go));
        self.engine.run_until(Time(Dur::from_ms(1).ps()));
        received.take()
    }
}

/// Client 0's DFS header for request `greq`, with a valid capability.
fn dfs_header(key: &MacKey, greq: u64) -> DfsHeader {
    DfsHeader {
        tenant: 0,
        greq_id: greq,
        op: DfsOp::Write,
        client: 0,
        capability: Capability::issue(key, 0, 1, Rights::RW, u64::MAX, greq),
    }
}

/// The `K` intermediate-parity streams of `stripe`, as data nodes forward
/// them to its parity node `parity` (an empty header packet, then the
/// product), for client 0's request `greq`. Returns the frames and each
/// stream's product.
fn parity_streams(
    key: &MacKey,
    stripe: u64,
    greq: u64,
    parity: ReplicaCoord,
) -> (Vec<(NodeId, Frame)>, Vec<Vec<u8>>) {
    let dfs = dfs_header(key, greq);
    let (mut frames, mut products) = (Vec::new(), Vec::new());
    for j in 0..K {
        let msg = MsgId::new(0, greq << 8 | j as u64);
        let wrh = WriteReqHeader {
            target_addr: parity.addr,
            len: CHUNK as u32,
            resiliency: Resiliency::ErasureCode(EcInfo {
                scheme: RsScheme::new(K, 1),
                role: EcRole::Parity {
                    parity_idx: 0,
                    src_chunk: j,
                },
                stripe,
                parity_coords: vec![parity],
            }),
        };
        let product: Vec<u8> = (0..CHUNK)
            .map(|i| (i as u8).wrapping_mul(31) ^ (greq as u8 * 16 + j))
            .collect();
        let pkt = |pkt_idx, dfs, wrh, data| WritePkt {
            msg,
            pkt_idx,
            total_pkts: 2,
            dfs,
            wrh,
            offset: 0,
            data,
        };
        let dst = parity.node as NodeId;
        frames.push((
            dst,
            Frame::Write(pkt(0, Some(dfs), Some(wrh), Bytes::new())),
        ));
        let data = Bytes::from(product.clone());
        frames.push((dst, Frame::Write(pkt(1, None, None, data))));
        products.push(product);
    }
    (frames, products)
}

/// Two stripes whose ids agree in their low 32 bits fall back to the CPU
/// on a parity node with no accumulators. Each writer is acknowledged,
/// and each final parity is the XOR of its own stripe's streams.
#[test]
fn fallback_stripes_sharing_low_bits_each_aggregate_and_ack() {
    let key = MacKey::from_seed(5);
    let mut rig = Rig::new(key, 0);
    let node = rig.node;
    let stripes = [(7, 1, 0x10_000), ((1 << 32) + 7, 2, 0x80_000)];
    let mut frames = Vec::new();
    let mut expected = Vec::new();
    for (stripe, greq, addr) in stripes {
        let parity = ReplicaCoord {
            node: node as u32,
            addr,
        };
        let (f, products) = parity_streams(&key, stripe, greq, parity);
        frames.extend(f);
        let xor = (0..CHUNK).map(|i| products.iter().fold(0, |x, p| x ^ p[i]));
        expected.push((addr, xor.collect::<Vec<u8>>()));
    }
    let received = rig.deliver(frames);
    let mut acked: Vec<_> = acks(&received).map(|a| (a.greq_id, a.status)).collect();
    acked.sort_by_key(|&(greq, _)| greq);
    assert_eq!(acked, [(Some(1), Status::Ok), (Some(2), Status::Ok)]);
    assert_eq!(rig.stats.borrow().fallback_aggregations, 2);
    for (addr, xor) in expected {
        assert_eq!(
            rig.mem.borrow().read(addr, CHUNK),
            xor,
            "parity at {addr:#x}"
        );
    }
}

/// The acks among `frames`.
fn acks(frames: &[Frame]) -> impl Iterator<Item = &AckPkt> {
    frames.iter().filter_map(|f| match f {
        Frame::Ack(a) => Some(a),
        _ => None,
    })
}

/// One single-packet write of `CHUNK` bytes to 0x40_000 on the storage
/// node, under a valid capability and the EC header `info`. The header
/// handler must refuse it: one `Rejected` NACK, nothing forwarded to the
/// parity nodes `info` names (node 0, which would record it), and nothing
/// landed, neither at the target nor anywhere in the parity region the
/// header could be read as naming.
fn assert_refused(info: EcInfo) {
    let key = MacKey::from_seed(6);
    let mut rig = Rig::new(key, 0);
    let target = 0x40_000;
    let wrh = WriteReqHeader {
        target_addr: target,
        len: CHUNK as u32,
        resiliency: Resiliency::ErasureCode(info),
    };
    let pkt = WritePkt {
        msg: MsgId::new(0, 9),
        pkt_idx: 0,
        total_pkts: 1,
        dfs: Some(dfs_header(&key, 9)),
        wrh: Some(wrh),
        offset: 0,
        data: Bytes::from(vec![0xEE; CHUNK]),
    };
    let received = rig.deliver(vec![(rig.node, Frame::Write(pkt))]);
    let acked: Vec<_> = acks(&received).map(|a| (a.greq_id, a.status)).collect();
    assert_eq!(acked, [(Some(9), Status::Rejected)], "{received:?}");
    assert_eq!(received.len(), 1, "something was forwarded: {received:?}");
    let span = 8 * CHUNK;
    let landed = rig.mem.borrow().read(target, span);
    assert!(landed.iter().all(|&b| b == 0), "bytes landed");
}

/// An RS(k, m) header in `role` for stripe 3, naming `coords` parity
/// nodes, all of them node 0 at 0x40_000.
fn ec_info(k: u8, m: u8, role: EcRole, coords: usize) -> EcInfo {
    EcInfo {
        scheme: RsScheme::new(k, m),
        role,
        stripe: 3,
        parity_coords: vec![
            ReplicaCoord {
                node: 0,
                addr: 0x40_000,
            };
            coords
        ],
    }
}

#[test]
fn data_chunk_naming_more_parity_nodes_than_m_is_refused() {
    assert_refused(ec_info(2, 1, EcRole::Data { chunk_idx: 0 }, 2));
}

#[test]
fn data_chunk_past_k_is_refused() {
    assert_refused(ec_info(2, 1, EcRole::Data { chunk_idx: 2 }, 1));
}

#[test]
fn data_chunk_of_a_scheme_with_no_data_chunks_is_refused() {
    assert_refused(ec_info(0, 1, EcRole::Data { chunk_idx: 0 }, 1));
}

/// On a parity node with no accumulators the stream would be staged, at
/// its source chunk's slot: past the region for a chunk past k.
#[test]
fn parity_stream_from_a_chunk_past_k_is_refused() {
    let role = EcRole::Parity {
        parity_idx: 0,
        src_chunk: 2,
    };
    assert_refused(ec_info(2, 1, role, 1));
}

// --- node ids off the wire ---------------------------------------------

/// A one-packet write of `CHUNK` bytes to 0x40_000 under `resiliency`,
/// headed by `dfs`.
fn write_frame(dfs: DfsHeader, resiliency: Resiliency) -> Frame {
    let wrh = WriteReqHeader {
        target_addr: 0x40_000,
        len: CHUNK as u32,
        resiliency,
    };
    Frame::Write(WritePkt {
        msg: MsgId::new(0, dfs.greq_id),
        pkt_idx: 0,
        total_pkts: 1,
        dfs: Some(dfs),
        wrh: Some(wrh),
        offset: 0,
        data: Bytes::from(vec![0xEE; CHUNK]),
    })
}

/// Client 0's header for request `greq` with `dfs.client` set to `client`
/// and the capability `cap`.
fn header_naming(client: u32, cap: Capability, greq: u64) -> DfsHeader {
    DfsHeader {
        client,
        capability: cap,
        ..dfs_header(&MacKey::from_seed(0), greq)
    }
}

/// A write under a capability the service never signed, naming node 2 (no
/// node of this fabric) as its client: the refusal goes to the sender, and
/// nothing lands.
#[test]
fn forged_write_naming_an_unknown_node_is_refused_to_its_sender() {
    let key = MacKey::from_seed(7);
    let mut rig = Rig::new(key, 0);
    let forged = Capability::issue(&MacKey::from_seed(8), 2, 1, Rights::RW, u64::MAX, 1);
    let frame = write_frame(header_naming(2, forged, 11), Resiliency::None);
    let received = rig.deliver(vec![(rig.node, frame)]);
    let acked: Vec<_> = acks(&received).map(|a| (a.greq_id, a.status)).collect();
    assert_eq!(acked, [(Some(11), Status::AuthFailed)], "{received:?}");
    let landed = rig.mem.borrow().read(0x40_000, CHUNK);
    assert!(landed.iter().all(|&b| b == 0), "bytes landed");
}

/// A valid capability held by client 0, in a header naming node 2 as the
/// client: refused, and the refusal goes to the holder. Accepted, its
/// completion ack would have gone to node 2.
#[test]
fn valid_capability_naming_another_client_is_refused_to_its_holder() {
    let key = MacKey::from_seed(7);
    let mut rig = Rig::new(key, 0);
    let held = dfs_header(&key, 12).capability;
    let frame = write_frame(header_naming(2, held, 12), Resiliency::None);
    let received = rig.deliver(vec![(rig.node, frame)]);
    let acked: Vec<_> = acks(&received).map(|a| (a.greq_id, a.status)).collect();
    assert_eq!(acked, [(Some(12), Status::AuthFailed)], "{received:?}");
    let landed = rig.mem.borrow().read(0x40_000, CHUNK);
    assert!(landed.iter().all(|&b| b == 0), "bytes landed");
}

/// A valid Ring write whose next replica is node 99: the fabric drops the
/// forwarded stream, and the write still lands and is acknowledged here.
#[test]
fn ring_write_to_an_unknown_replica_lands_and_is_acked() {
    let key = MacKey::from_seed(7);
    let mut rig = Rig::new(key, 0);
    let coord = |node| ReplicaCoord {
        node,
        addr: 0x40_000,
    };
    let ring = Resiliency::Replicate {
        strategy: BcastStrategy::Ring,
        vrank: 0,
        coords: vec![coord(rig.node as u32), coord(99)],
    };
    let received = rig.deliver(vec![(rig.node, write_frame(dfs_header(&key, 13), ring))]);
    let acked: Vec<_> = acks(&received).map(|a| (a.greq_id, a.status)).collect();
    assert_eq!(acked, [(Some(13), Status::Ok)], "{received:?}");
    assert_eq!(rig.mem.borrow().read(0x40_000, CHUNK), vec![0xEE; CHUNK]);
}
