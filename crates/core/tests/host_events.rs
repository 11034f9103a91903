//! What the sPIN handlers hand the storage CPU. A stripe the accumulator
//! pool cannot cover reaches the host as one event carrying that stripe's
//! own state (§VI-B-3), whatever its id: stripe ids come in the client's
//! header, so two stripes may share any bits but not the whole id.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_core::{CostModel, DfsNicState, StorageApp};
use nadfs_pspin::ExecutionContext;
use nadfs_rdma::Nic;
use nadfs_simnet::{
    Component, Ctx, Dur, Engine, Fabric, NetPacket, NodeId, NodePort, ObsHub, PacketEvent, Time,
    Trace,
};
use nadfs_wire::sizes::WRITE_DESCRIPTOR;
use nadfs_wire::{
    AckPkt, Capability, DfsHeader, DfsOp, EcInfo, EcRole, Frame, MacKey, MsgId, ReplicaCoord,
    Resiliency, Rights, RsScheme, Status, WritePkt, WriteReqHeader,
};

/// A bare client in place of a NIC: submits its frames when kicked and
/// records the acks that come back.
struct Sender {
    port: NodePort,
    frames: Vec<(NodeId, Frame)>,
    acks: Rc<RefCell<Vec<AckPkt>>>,
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
        if let Frame::Ack(ack) = arrived.pkt.payload {
            self.acks.borrow_mut().push(ack);
        }
        self.port.ingress_gate.borrow_mut().release(ctx);
    }
}

const K: u8 = 2;
const CHUNK: usize = 1000;

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
    let dfs = DfsHeader {
        tenant: 0,
        greq_id: greq,
        op: DfsOp::Write,
        client: 0,
        capability: Capability::issue(key, 0, 1, Rights::RW, u64::MAX, greq),
    };
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
    let cost = CostModel::paper();
    let key = MacKey::from_seed(5);
    let mut engine = Engine::new();
    let [fabric_id, sender_id, storage_id] = [(); 3].map(|()| engine.reserve_id());
    let mut fabric: Fabric<Frame> = Fabric::new(cost.fabric.clone(), fabric_id);
    let sender_port = fabric.register_node(sender_id, None);
    let storage_port = fabric.register_node(storage_id, Some(cost.pspin.pktbuf_slots));
    engine.install(fabric_id, Box::new(fabric));

    let node = storage_port.node;
    let app = StorageApp::new(key, cost.fabric.link_bw);
    let stats = app.stats.clone();
    let mut nic = Nic::new(cost.nic.clone(), storage_port, storage_id, Box::new(app));
    let handlers = DfsNicState::new(
        key,
        0,
        nic.core.buf_pool(),
        nic.core.nic_stats(),
        ObsHub::disabled(),
        Trace::disabled(),
        node,
    );
    let ctx = ExecutionContext {
        handlers: Box::new(handlers),
        state_bytes: cost.pspin_state_bytes,
        descriptor_bytes: WRITE_DESCRIPTOR,
    };
    nic.core.install_pspin(cost.pspin.clone(), ctx);
    let mem = nic.core.memory();
    engine.install(storage_id, Box::new(nic));

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
    let acks = Rc::default();
    let sender = Sender {
        port: sender_port,
        frames,
        acks: Rc::clone(&acks),
    };
    engine.install(sender_id, Box::new(sender));
    engine.schedule(Dur::ZERO, sender_id, Box::new(Go));
    engine.run_until(Time(Dur::from_ms(1).ps()));

    let mut acked: Vec<_> = acks
        .borrow()
        .iter()
        .map(|a| (a.greq_id, a.status))
        .collect();
    acked.sort_by_key(|&(greq, _)| greq);
    assert_eq!(acked, [(Some(1), Status::Ok), (Some(2), Status::Ok)]);
    assert_eq!(stats.borrow().fallback_aggregations, 2);
    for (addr, xor) in expected {
        assert_eq!(mem.borrow().read(addr, CHUNK), xor, "parity at {addr:#x}");
    }
}
