//! End-to-end NIC behavior tests: raw writes, RPC, one-sided reads,
//! HyperLoop chains, the firmware EC engine, the
//! streaming decode of degraded gathers (its refusals, its survivor-NACK
//! and client-abandon paths, and what it leaves behind on each), the
//! response stream reads and gathers share, and malformed frames.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_gfec::ReedSolomon;
use nadfs_host::{DmaEngine, SharedMemory};
use nadfs_rdma::{Nic, NicApp, NicConfig, NicCore};
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{
    BufPool, Component, CreditConfig, Ctx, Dur, Engine, Fabric, FabricConfig, NetPacket, NodeId,
    NodePort, ObsHub, OpKind, PacketEvent, PacketPool, SharedBufPool, SharedFlowStats, SharedGate,
    Time, WrClass,
};
use nadfs_wire::sizes::max_payload_plain;
use nadfs_wire::{
    AckPkt, Capability, DfsHeader, DfsOp, EcInfo, EcRole, Frame, GatherCopy, GatherReadHeader,
    GatherReconstruct, GatherReqPkt, GatherSegment, HlConfigPkt, MacKey, MsgId, ReadReqHeader,
    ReadReqPkt, ReadRespPkt, ReplicaCoord, Resiliency, Rights, RpcBody, RsScheme, SendPkt, Status,
    WritePkt, WriteReqHeader,
};

type Action = Box<dyn FnMut(&mut NicCore, &mut Ctx<'_>)>;

#[derive(Clone, Default)]
#[allow(clippy::type_complexity)]
struct Record {
    acks: Rc<RefCell<Vec<(Time, NodeId, AckPkt)>>>,
    rpcs: Rc<RefCell<Vec<(Time, NodeId, RpcBody, Bytes)>>>,
    reads: Rc<RefCell<Vec<(Time, u64)>>>,
}

/// Scriptable node software: timer tags trigger registered actions;
/// callbacks are recorded for assertions.
struct ScriptApp {
    rec: Record,
    actions: HashMap<u64, Action>,
}

impl NicApp for ScriptApp {
    fn on_rpc(
        &mut self,
        _nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        _msg: MsgId,
        body: RpcBody,
        data: Bytes,
    ) {
        self.rec
            .rpcs
            .borrow_mut()
            .push((ctx.now(), src, body, data));
    }
    fn on_ack(&mut self, _nic: &mut NicCore, ctx: &mut Ctx<'_>, src: NodeId, ack: AckPkt) {
        self.rec.acks.borrow_mut().push((ctx.now(), src, ack));
    }
    fn on_read_done(&mut self, _nic: &mut NicCore, ctx: &mut Ctx<'_>, token: u64) {
        self.rec.reads.borrow_mut().push((ctx.now(), token));
    }
    fn on_timer(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, tag: u64) {
        if let Some(a) = self.actions.get_mut(&tag) {
            a(nic, ctx);
        }
    }
}

struct Cluster {
    engine: Engine,
    records: Vec<Record>,
    memories: Vec<SharedMemory>,
    nic_ids: Vec<usize>,
}

/// Per-node setup applied to the NIC before installation.
type Setup = Box<dyn FnOnce(&mut NicCore)>;

fn build(
    n: usize,
    actions: Vec<HashMap<u64, Action>>,
    setups: Vec<Option<Setup>>,
    cfg: NicConfig,
) -> Cluster {
    build_nodes(n, actions, setups, cfg, None)
}

/// What reached a [`Tap`], and when.
type Seen = Rc<RefCell<Vec<(Time, Frame)>>>;

/// A bare node in place of a NIC: submits the frames it is handed and
/// records every packet that reaches it.
struct Tap {
    port: NodePort,
    seen: Seen,
}

/// Event for a [`Tap`]: send these frames, each to its node.
struct Inject(Vec<(NodeId, Frame)>);

impl Component for Tap {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
        let ev = match ev.downcast::<Inject>() {
            Ok(inject) => {
                for (dst, frame) in inject.0 {
                    let pkt = NetPacket::new(self.port.node, dst, frame);
                    assert!(self.port.try_submit(ctx, pkt), "uplink queue full");
                }
                return;
            }
            Err(ev) => ev,
        };
        let arrived = ev.downcast::<PacketEvent<Frame>>().expect("a packet");
        self.seen
            .borrow_mut()
            .push((ctx.now(), arrived.pkt.payload.clone()));
        self.port.ingress_gate.borrow_mut().release(ctx);
    }
}

/// Like [`build`], with node 0 a [`Tap`] recording into `tap` when given.
fn build_nodes(
    n: usize,
    mut actions: Vec<HashMap<u64, Action>>,
    mut setups: Vec<Option<Setup>>,
    cfg: NicConfig,
    tap: Option<Seen>,
) -> Cluster {
    let mut e = Engine::new();
    let fid = e.reserve_id();
    let ids: Vec<_> = (0..n).map(|_| e.reserve_id()).collect();
    let mut fab: Fabric<nadfs_wire::Frame> = Fabric::new(FabricConfig::default(), fid);
    let ports: Vec<_> = ids.iter().map(|&id| fab.register_node(id, None)).collect();
    e.install(fid, Box::new(fab));
    let mut records = Vec::new();
    let mut memories = Vec::new();
    for (i, (&id, port)) in ids.iter().zip(ports).enumerate() {
        let rec = Record::default();
        records.push(rec.clone());
        if let (0, Some(seen)) = (i, &tap) {
            memories.push(nadfs_host::HostMemory::new());
            let seen = seen.clone();
            e.install(id, Box::new(Tap { port, seen }));
            continue;
        }
        let app = ScriptApp {
            rec: records[i].clone(),
            actions: actions.get_mut(i).map(std::mem::take).unwrap_or_default(),
        };
        let mut nic = Nic::new(cfg.clone(), port, id, Box::new(app));
        if let Some(setup) = setups.get_mut(i).and_then(Option::take) {
            setup(&mut nic.core);
        }
        memories.push(nic.core.memory());
        e.install(id, Box::new(nic));
    }
    Cluster {
        engine: e,
        records,
        memories,
        nic_ids: ids,
    }
}

fn kick(c: &mut Cluster, node: usize, tag: u64, after: Dur) {
    c.engine.wake(after, c.nic_ids[node], Nic::timer_token(tag));
}

fn run(c: &mut Cluster, ms: u64) {
    c.engine.run_until(Time(Dur::from_ms(ms).ps()));
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
        .collect()
}

fn dfs_header(greq: u64, client: u32) -> DfsHeader {
    DfsHeader {
        tenant: 0,
        greq_id: greq,
        op: DfsOp::Write,
        client,
        capability: Capability::issue(&MacKey::from_seed(5), client, 1, Rights::RW, u64::MAX, 0),
    }
}

#[test]
fn raw_write_lands_and_acks() {
    let data = pattern(300_000, 3);
    let d2 = data.clone();
    let actions: Vec<HashMap<u64, Action>> = vec![
        HashMap::from([(
            1u64,
            Box::new(move |nic: &mut NicCore, ctx: &mut Ctx<'_>| {
                let wrh = WriteReqHeader {
                    target_addr: 0x20_000,
                    len: d2.len() as u32,
                    resiliency: Resiliency::None,
                };
                nic.send_write(
                    ctx,
                    1,
                    Some(dfs_header(42, 0)),
                    wrh,
                    Bytes::from(d2.clone()),
                );
            }) as Action,
        )]),
        HashMap::new(),
    ];
    let mut c = build(2, actions, vec![None, None], NicConfig::default());
    kick(&mut c, 0, 1, Dur::ZERO);
    run(&mut c, 10);
    let acks = c.records[0].acks.borrow();
    assert_eq!(acks.len(), 1, "client receives exactly one ack");
    assert_eq!(acks[0].2.status, Status::Ok);
    assert_eq!(acks[0].2.greq_id, Some(42));
    assert_eq!(c.memories[1].borrow().read(0x20_000, data.len()), data);
    // Write latency sanity: 300 kB at ~45 GB/s is ~6.7 us + overheads.
    let lat_us = acks[0].0.as_us();
    assert!(lat_us > 5.0 && lat_us < 30.0, "latency {lat_us} us");
}

#[test]
fn rpc_roundtrip_delivers_body_and_inline_data() {
    let payload = pattern(10_000, 9);
    let p2 = payload.clone();
    let actions: Vec<HashMap<u64, Action>> = vec![
        HashMap::from([(
            1u64,
            Box::new(move |nic: &mut NicCore, ctx: &mut Ctx<'_>| {
                let body = RpcBody::WriteReq {
                    dfs: dfs_header(7, 0),
                    wrh: WriteReqHeader {
                        target_addr: 0x40_000,
                        len: p2.len() as u32,
                        resiliency: Resiliency::None,
                    },
                    inline_data: true,
                    src_addr: 0,
                    chunk_off: 0,
                    full_len: p2.len() as u32,
                };
                nic.send_rpc(ctx, 1, body, Bytes::from(p2.clone()));
            }) as Action,
        )]),
        HashMap::new(),
    ];
    let mut c = build(2, actions, vec![None, None], NicConfig::default());
    kick(&mut c, 0, 1, Dur::ZERO);
    run(&mut c, 10);
    let rpcs = c.records[1].rpcs.borrow();
    assert_eq!(rpcs.len(), 1);
    let (_, src, body, data) = &rpcs[0];
    assert_eq!(*src, 0);
    assert_eq!(&data[..], &payload[..]);
    match body {
        RpcBody::WriteReq { dfs, wrh, .. } => {
            assert_eq!(dfs.greq_id, 7);
            assert_eq!(wrh.len, payload.len() as u32);
        }
        other => panic!("unexpected body {other:?}"),
    }
}

#[test]
fn one_sided_read_fetches_remote_bytes() {
    let stored = pattern(50_000, 1);
    let s2 = stored.clone();
    let setups: Vec<Option<Setup>> = vec![
        None,
        Some(Box::new(move |nic: &mut NicCore| {
            nic.memory().borrow_mut().write(0x9000, &s2);
        })),
    ];
    let actions: Vec<HashMap<u64, Action>> = vec![
        HashMap::from([(
            1u64,
            Box::new(|nic: &mut NicCore, ctx: &mut Ctx<'_>| {
                let rrh = ReadReqHeader {
                    addr: 0x9000,
                    len: 50_000,
                };
                nic.send_read(ctx, 1, rrh, None, 0x100_000, 77);
            }) as Action,
        )]),
        HashMap::new(),
    ];
    let mut c = build(2, actions, setups, NicConfig::default());
    kick(&mut c, 0, 1, Dur::ZERO);
    run(&mut c, 10);
    let reads = c.records[0].reads.borrow();
    assert_eq!(reads.len(), 1);
    assert_eq!(reads[0].1, 77);
    assert_eq!(c.memories[0].borrow().read(0x100_000, 50_000), stored);
}

#[test]
fn hyperloop_ring_replicates_and_tail_acks() {
    // Nodes: 0 = client, 1..=3 = ring. Chunked forwarding, tail acks.
    let total = 200_000u32;
    let chunk = 32 * 1024u32;
    let data = pattern(total as usize, 8);
    let d2 = data.clone();
    let base = 0x50_000u64;
    let mk_cfg = move |next: Option<ReplicaCoord>, ack: bool| HlConfigPkt {
        msg: MsgId::new(0, 0),
        greq_id: 99,
        local_addr: base,
        total_len: total,
        chunk,
        next,
        ack_client: ack,
        frag: 0,
        total_frags: 1,
    };
    let actions: Vec<HashMap<u64, Action>> = vec![
        HashMap::from([
            (
                1u64,
                Box::new(move |nic: &mut NicCore, ctx: &mut Ctx<'_>| {
                    // Configure the ring on all three nodes (parallel).
                    nic.send_hl_config(
                        ctx,
                        1,
                        mk_cfg(
                            Some(ReplicaCoord {
                                node: 2,
                                addr: base,
                            }),
                            false,
                        ),
                    );
                    nic.send_hl_config(
                        ctx,
                        2,
                        mk_cfg(
                            Some(ReplicaCoord {
                                node: 3,
                                addr: base,
                            }),
                            false,
                        ),
                    );
                    nic.send_hl_config(ctx, 3, mk_cfg(None, true));
                }) as Action,
            ),
            (
                2u64,
                Box::new(move |nic: &mut NicCore, ctx: &mut Ctx<'_>| {
                    let wrh = WriteReqHeader {
                        target_addr: base,
                        len: total,
                        resiliency: Resiliency::None,
                    };
                    nic.send_write(ctx, 1, None, wrh, Bytes::from(d2.clone()));
                }) as Action,
            ),
        ]),
        HashMap::new(),
        HashMap::new(),
        HashMap::new(),
    ];
    // Capture an interior ring node's buffer pool: chain forwarding must
    // neither allocate nor copy per chunk.
    let pool2: Rc<RefCell<Option<nadfs_simnet::SharedBufPool>>> = Rc::new(RefCell::new(None));
    let p2 = pool2.clone();
    let setup2: Setup = Box::new(move |nic: &mut NicCore| {
        *p2.borrow_mut() = Some(nic.buf_pool());
    });
    let mut c = build(
        4,
        actions,
        vec![None, None, Some(setup2), None],
        NicConfig::default(),
    );
    kick(&mut c, 0, 1, Dur::ZERO);
    kick(&mut c, 0, 2, Dur::from_us(2)); // configs land first
    run(&mut c, 50);
    // Three config acks plus exactly one data ack from the ring tail.
    let acks = c.records[0].acks.borrow();
    assert_eq!(acks.len(), 4, "3 config acks + 1 tail ack");
    let data_acks: Vec<_> = acks.iter().filter(|a| a.2.greq_id.is_some()).collect();
    assert_eq!(data_acks.len(), 1, "exactly the tail acks the data write");
    assert_eq!(data_acks[0].2.greq_id, Some(99));
    assert_eq!(data_acks[0].1, 3, "the tail node sent the data ack");
    // All three replicas hold identical bytes.
    for node in 1..=3 {
        assert_eq!(
            c.memories[node].borrow().read(base, total as usize),
            data,
            "replica {node}"
        );
    }
    // Node 2 forwards each chunk as the slice of host memory it landed
    // in — the client's payload, which memory stored rather than copied —
    // so it draws no buffer from its ring and allocates none.
    let stats = pool2
        .borrow()
        .as_ref()
        .expect("pool captured")
        .borrow()
        .stats();
    assert!(
        stats.gets == 0 && stats.misses == 0,
        "chunk forwarding drew on the ring: {stats:?}"
    );
}

#[test]
fn firmware_ec_builds_correct_parity_rs_2_1() {
    // Nodes: 0 client, 1..=2 data, 3 parity. RS(2,1): parity = c0*d0 ^ c1*d1.
    let chunk_len = 60_000u32;
    let chunk0 = pattern(chunk_len as usize, 11);
    let chunk1 = pattern(chunk_len as usize, 23);
    let parity_base = 0x200_000u64;
    let data_base = 0x80_000u64;
    let scheme = RsScheme::new(2, 1);
    let (c0, c1) = (chunk0.clone(), chunk1.clone());
    let mk_ec = move |j: u8| {
        Resiliency::ErasureCode(EcInfo {
            scheme,
            role: EcRole::Data { chunk_idx: j },
            stripe: 5,
            parity_coords: vec![ReplicaCoord {
                node: 3,
                addr: parity_base,
            }],
        })
    };
    let ec_setup: Setup = Box::new(|nic: &mut NicCore| {
        nic.enable_firmware_ec();
    });
    let ec_setup2: Setup = Box::new(|nic: &mut NicCore| {
        nic.enable_firmware_ec();
    });
    let ec_setup3: Setup = Box::new(|nic: &mut NicCore| {
        nic.enable_firmware_ec();
    });
    let actions: Vec<HashMap<u64, Action>> = vec![
        HashMap::from([(
            1u64,
            Box::new(move |nic: &mut NicCore, ctx: &mut Ctx<'_>| {
                for (j, chunk) in [(0u8, c0.clone()), (1u8, c1.clone())] {
                    let wrh = WriteReqHeader {
                        target_addr: data_base,
                        len: chunk_len,
                        resiliency: mk_ec(j),
                    };
                    nic.send_write(
                        ctx,
                        1 + j as NodeId,
                        Some(dfs_header(500, 0)),
                        wrh,
                        Bytes::from(chunk),
                    );
                }
            }) as Action,
        )]),
        HashMap::new(),
        HashMap::new(),
        HashMap::new(),
    ];
    let mut c = build(
        4,
        actions,
        vec![None, Some(ec_setup), Some(ec_setup2), Some(ec_setup3)],
        NicConfig::default(),
    );
    kick(&mut c, 0, 1, Dur::ZERO);
    run(&mut c, 50);
    // Client gets 3 acks: two data chunks + the final parity.
    let acks = c.records[0].acks.borrow();
    assert_eq!(acks.len(), 3, "k+m acks expected, got {:?}", *acks);
    // Parity content must equal the RS parity of the two chunks.
    let rs = ReedSolomon::new(2, 1).expect("params");
    let expect = rs.encode(&[&chunk0, &chunk1]).expect("encode");
    assert_eq!(
        c.memories[3].borrow().read(parity_base, chunk_len as usize),
        expect[0],
        "firmware parity must equal block RS parity"
    );
}

// --- degraded gathers ------------------------------------------------------

/// Chunk size of the RS(2,1) stripe the decode tests read: six packets,
/// the last one short.
const CHUNK: u32 = 10_000;
const CHUNK_ADDR: u64 = 0x40_000;

/// A degraded RS(2,1) stripe: node 0 is the client, data chunk 0 is
/// lost, node 1 holds data chunk 1 and coordinates, node 2 holds the
/// parity. All three NICs draw from one buffer ring, as a cluster's do,
/// and hold one Read credit per peer: a gather's fetches from a survivor
/// go out one after the other, so a refusal can follow ranges already
/// absorbed.
struct DecodeRig {
    c: Cluster,
    /// The lost chunk's bytes.
    lost: Vec<u8>,
    pool: SharedBufPool,
    dmas: Rc<RefCell<Vec<Rc<RefCell<DmaEngine>>>>>,
    flows: Rc<RefCell<Vec<SharedFlowStats>>>,
}

/// The plan a client would send for `copy` ranges of the lost chunk.
fn degraded_plan(copy: Vec<GatherCopy>) -> GatherReadHeader {
    let segment = |node: u32, shard: u8| GatherSegment {
        coord: ReplicaCoord {
            node,
            addr: CHUNK_ADDR,
        },
        len: CHUNK,
        dest_off: 0,
        shard,
    };
    GatherReadHeader {
        total_len: copy.iter().map(|c| c.len).sum(),
        segments: vec![segment(1, 1), segment(2, 2)],
        reconstruct: Some(GatherReconstruct {
            scheme: RsScheme::new(2, 1),
            chunk_len: CHUNK,
            copy,
        }),
    }
}

/// Build the rig; the client's timer 1 sends `plan` (landing at
/// 0x100_000, token 9) and then runs `after_send` on its NIC. From
/// `refuse_from` on, the parity node holds the service key with itself as
/// its only storage peer, so it refuses the coordinator's fetches.
fn decode_rig(
    plan: GatherReadHeader,
    after_send: fn(&mut NicCore, MsgId),
    refuse_from: Option<Dur>,
) -> DecodeRig {
    let rs = ReedSolomon::new(2, 1).expect("params");
    let lost = pattern(CHUNK as usize, 11);
    let kept = pattern(CHUNK as usize, 12);
    let parity = rs.encode(&[&lost, &kept]).expect("encode").remove(0);
    let pool = BufPool::shared(256);
    let pkts = PacketPool::shared();
    let dmas = Rc::new(RefCell::new(Vec::new()));
    let flows = Rc::new(RefCell::new(Vec::new()));
    let setups = [None, Some(kept), Some(parity)]
        .into_iter()
        .map(|chunk| {
            let (pool, pkts) = (pool.clone(), pkts.clone());
            let (dmas, flows) = (dmas.clone(), flows.clone());
            Some(Box::new(move |nic: &mut NicCore| {
                nic.share_pools(pool, pkts);
                nic.set_credit_config(CreditConfig {
                    max_send_read: 1,
                    ..Default::default()
                });
                dmas.borrow_mut().push(nic.dma());
                flows.borrow_mut().push(nic.flow_stats());
                if let Some(chunk) = chunk {
                    nic.memory().borrow_mut().write(CHUNK_ADDR, &chunk);
                }
            }) as Setup)
        })
        .collect();
    let send = Box::new(move |nic: &mut NicCore, ctx: &mut Ctx<'_>| {
        let msg = nic.send_gather(ctx, 1, dfs_header(5, 0), plan.clone(), 0x100_000, 9);
        after_send(nic, msg);
    }) as Action;
    let guard = Box::new(|nic: &mut NicCore, _: &mut Ctx<'_>| {
        nic.install_service_key(MacKey::from_seed(5), vec![2]);
    }) as Action;
    let actions = vec![
        HashMap::from([(1u64, send)]),
        HashMap::new(),
        HashMap::from([(1u64, guard)]),
    ];
    let mut c = build(3, actions, setups, NicConfig::default());
    kick(&mut c, 0, 1, Dur::ZERO);
    if let Some(at) = refuse_from {
        kick(&mut c, 2, 1, at);
    }
    run(&mut c, 10);
    DecodeRig {
        c,
        lost,
        pool,
        dmas,
        flows,
    }
}

impl DecodeRig {
    /// Every buffer the ring lent came back, and every Read credit the
    /// coordinator spent on survivor fetches returned.
    fn assert_nothing_outstanding(&self) {
        let s = self.pool.borrow().stats();
        assert_eq!(s.gets, s.puts, "ring lent {} got back {}", s.gets, s.puts);
        let f = *self.flows.borrow()[1].borrow();
        let read = WrClass::Read.index();
        assert_eq!(f.posted[read], f.completed[read], "coordinator Read credit");
    }
}

fn no_follow_up(_: &mut NicCore, _: MsgId) {}

/// The lost range comes back byte-exact; the survivors are read over
/// exactly that range, once; nothing is staged in the coordinator's host
/// memory; and the accumulators go back to the ring.
#[test]
fn degraded_gather_decodes_the_wanted_range_in_nic_memory() {
    // Starts and ends mid-packet, and a second range ending in the
    // chunk's short last packet.
    let copy = vec![
        GatherCopy {
            chunk: 0,
            chunk_off: 1_000,
            len: 5_000,
            dest_off: 0,
        },
        GatherCopy {
            chunk: 0,
            chunk_off: 7_500,
            len: 2_500,
            dest_off: 5_000,
        },
    ];
    let rig = decode_rig(degraded_plan(copy), no_follow_up, None);
    let done: Vec<u64> = rig.c.records[0]
        .reads
        .borrow()
        .iter()
        .map(|r| r.1)
        .collect();
    assert_eq!(done, vec![9]);
    let got = rig.c.memories[0].borrow().read(0x100_000, 7_500);
    assert_eq!(got[..5_000], rig.lost[1_000..6_000]);
    assert_eq!(got[5_000..], rig.lost[7_500..]);
    let dmas = rig.dmas.borrow();
    for survivor in [1, 2] {
        let d = dmas[survivor].borrow();
        assert_eq!(
            d.bytes_read, 7_500,
            "survivor {survivor} reads the ranges only"
        );
        assert_eq!(d.bytes_written, 0, "survivor {survivor} stages nothing");
    }
    assert_eq!(
        rig.pool.borrow().stats().gets,
        5,
        "one accumulator per packet"
    );
    rig.assert_nothing_outstanding();
}

/// Plans the decode must refuse before drawing a buffer or sending a
/// fetch: a wanted chunk that is not lost, a range past the chunk, a
/// survivor set that is not k distinct shards, a scheme that names no
/// code, and a healthy plan naming a remote segment.
#[test]
fn malformed_gather_plans_are_rejected_at_acceptance() {
    let whole = |chunk: u8, chunk_off: u32| {
        vec![GatherCopy {
            chunk,
            chunk_off,
            len: CHUNK,
            dest_off: 0,
        }]
    };
    let mut twice = degraded_plan(whole(0, 0));
    twice.segments[1].shard = 1;
    let mut no_code = degraded_plan(whole(0, 0));
    no_code.reconstruct.as_mut().expect("degraded").scheme = RsScheme::new(2, 0);
    let mut remote = degraded_plan(whole(0, 0));
    remote.reconstruct = None;
    for (why, plan) in [
        ("survivor wanted", degraded_plan(whole(1, 0))),
        ("past the chunk", degraded_plan(whole(0, 1))),
        ("duplicate survivor", twice),
        ("no such code", no_code),
        ("healthy but remote", remote),
    ] {
        let rig = decode_rig(plan, no_follow_up, None);
        let acks = rig.c.records[0].acks.borrow();
        assert_eq!(acks.len(), 1, "{why}");
        assert_eq!(acks[0].2.status, Status::Rejected, "{why}");
        assert!(rig.c.records[0].reads.borrow().is_empty(), "{why}");
        assert_eq!(rig.pool.borrow().stats().gets, 0, "{why}: nothing drawn");
        assert_eq!(
            rig.flows.borrow()[1].borrow().posted[WrClass::Read.index()],
            0,
            "{why}"
        );
    }
}

/// A survivor that refuses a fetch (the coordinator is not one of its
/// storage peers) fails the gather: the client is NACKed with the
/// survivor's status, the accumulators of the ranges already absorbed go
/// back to the ring, and the fetches' Read credit returns.
#[test]
fn survivor_nack_aborts_the_gather_and_leaks_nothing() {
    let range = |chunk_off: u32, dest_off: u32| GatherCopy {
        chunk: 0,
        chunk_off,
        len: 4_000,
        dest_off,
    };
    let plan = degraded_plan(vec![range(0, 0), range(6_000, 4_000)]);
    // The parity node takes the key between the two fetches (the first
    // reaches it before 300 ns, the second after 1 µs): it serves this
    // plan's first range and refuses the second.
    let rig = decode_rig(plan, no_follow_up, Some(Dur::from_ns(600)));
    let acks = rig.c.records[0].acks.borrow();
    assert_eq!(acks.len(), 1);
    assert_eq!(acks[0].2.status, Status::AuthFailed);
    assert_eq!(acks[0].2.greq_id, Some(5));
    assert!(rig.c.records[0].reads.borrow().is_empty());
    assert!(
        rig.c.records[1].acks.borrow().is_empty(),
        "not the node software's ack"
    );
    assert!(
        rig.pool.borrow().stats().gets >= 3,
        "the first range was absorbed"
    );
    rig.assert_nothing_outstanding();
}

/// A client that gives up on its gather while it decodes gets no
/// completion; the rebuilt packets it no longer wants still hand their
/// buffers back.
#[test]
fn abandoned_gather_returns_its_buffers() {
    let copy = vec![GatherCopy {
        chunk: 0,
        chunk_off: 0,
        len: CHUNK,
        dest_off: 0,
    }];
    let abandon = |nic: &mut NicCore, msg: MsgId| nic.cancel_read(msg);
    let rig = decode_rig(degraded_plan(copy), abandon, None);
    assert!(rig.c.records[0].reads.borrow().is_empty());
    assert!(rig.c.records[0].acks.borrow().is_empty());
    assert_eq!(rig.c.memories[0].borrow().read(0x100_000, 8), vec![0u8; 8]);
    assert_eq!(
        rig.pool.borrow().stats().gets,
        6,
        "the decode ran to the end"
    );
    rig.assert_nothing_outstanding();
}

// --- the response stream ---------------------------------------------------

const STREAM_ADDR: u64 = 0x300_000;

/// A healthy gather plan over `ranges` — `(addr, len, dest_off)` — of
/// node 1's memory.
fn local_plan(ranges: &[(u64, u32, u32)]) -> GatherReadHeader {
    let segment = |&(addr, len, dest_off): &(u64, u32, u32)| GatherSegment {
        coord: ReplicaCoord { node: 1, addr },
        len,
        dest_off,
        shard: 0,
    };
    GatherReadHeader {
        total_len: ranges.iter().map(|r| r.1).sum(),
        segments: ranges.iter().map(segment).collect(),
        reconstruct: None,
    }
}

/// Hand this NIC's gather engine the validated gather `msg` of op 7 from
/// node 0, the way the sPIN completion handler's notification does.
fn hand_off_gather(nic: &mut NicCore, ctx: &mut Ctx<'_>, msg: MsgId, grh: GatherReadHeader) {
    let req = GatherReqPkt {
        msg,
        dfs: dfs_header(7, 0),
        grh,
    };
    nic.start_gather(ctx, 0, &req);
}

/// The `ReadResp` packets a tap saw, in arrival order.
fn responses(seen: &Seen) -> Vec<(Time, ReadRespPkt)> {
    let as_resp = |(at, frame): &(Time, Frame)| match frame {
        Frame::ReadResp(r) => Some((*at, r.clone())),
        _ => None,
    };
    seen.borrow().iter().filter_map(as_resp).collect()
}

/// Node 1 holds `mem_len` patterned bytes at [`STREAM_ADDR`] and runs
/// `respond` at time zero; returns what reached node 0 (a tap), the
/// cluster, and node 1's DMA engine.
fn stream_rig(
    mem_len: usize,
    respond: impl FnMut(&mut NicCore, &mut Ctx<'_>) + 'static,
) -> (Seen, Cluster, Rc<RefCell<DmaEngine>>) {
    let seen = Seen::default();
    let dma = Rc::new(RefCell::new(None));
    let dma2 = dma.clone();
    let setup1: Setup = Box::new(move |nic: &mut NicCore| {
        let bytes = pattern(mem_len, 5);
        nic.memory().borrow_mut().write(STREAM_ADDR, &bytes);
        *dma2.borrow_mut() = Some(nic.dma());
    });
    let actions = vec![
        HashMap::new(),
        HashMap::from([(1u64, Box::new(respond) as Action)]),
    ];
    let setups = vec![None, Some(setup1)];
    let mut c = build_nodes(2, actions, setups, NicConfig::default(), Some(seen.clone()));
    kick(&mut c, 1, 1, Dur::ZERO);
    run(&mut c, 10);
    let dma = dma.borrow_mut().take().expect("captured");
    (seen, c, dma)
}

/// A read of `[addr, addr + len)` and a one-range gather of the same
/// bytes are the same stream: the same packets — index, count, offset,
/// payload — leaving at the same times, for lengths around every packet
/// and batch boundary.
#[test]
fn read_and_one_range_gather_stream_the_same_packets() {
    let cap = max_payload_plain();
    for len in [0, 1, cap, cap + 1, 32 * cap, 32 * cap + 1, 100_000] {
        let msg = MsgId::new(0, 1);
        let (read, ..) = stream_rig(len as usize, move |nic, ctx| {
            nic.respond_read(ctx, 0, msg, STREAM_ADDR, len);
        });
        let (gather, ..) = stream_rig(len as usize, move |nic, ctx| {
            hand_off_gather(nic, ctx, msg, local_plan(&[(STREAM_ADDR, len, 0)]));
        });
        let (read, gather) = (responses(&read), responses(&gather));
        assert_eq!(read.len() as u32, len.div_ceil(cap).max(1), "len {len}");
        assert_eq!(read.len(), gather.len(), "len {len}");
        let mut bytes = Vec::new();
        for (i, ((t_r, r), (t_g, g))) in read.iter().zip(&gather).enumerate() {
            assert_eq!(t_r, t_g, "len {len}: departure of packet {i}");
            assert_eq!(
                (r.msg, r.pkt_idx, r.total_pkts, r.offset),
                (msg, i as u32, read.len() as u32, i as u32 * cap),
                "len {len}"
            );
            assert_eq!(
                (g.msg, g.pkt_idx, g.total_pkts, g.offset),
                (r.msg, r.pkt_idx, r.total_pkts, r.offset),
                "len {len}"
            );
            assert_eq!(r.data[..], g.data[..], "len {len}: payload of packet {i}");
            bytes.extend_from_slice(&r.data);
        }
        assert_eq!(bytes, pattern(len as usize, 5), "len {len}");
    }
}

/// A gather whose ranges cross a batch boundary mid-range issues one DMA
/// read per range per batch, lands every byte at its destination offset,
/// and marks `streamed` on its op's span once per batch.
#[test]
fn gather_batches_cross_ranges_and_mark_each_batch() {
    let cap = max_payload_plain();
    // 1 + 40 + 1 + 3 packets: the first batch ends 31 packets into the
    // second range. Sources are back to back; destinations are not.
    let lens = [3, 40 * cap, 1, 2 * cap + 7];
    let dests = [50_000, 60_000, 10, 200_000];
    let mut ranges = Vec::new();
    let mut addr = STREAM_ADDR;
    for (len, dest_off) in lens.into_iter().zip(dests) {
        ranges.push((addr, len, dest_off));
        addr += len as u64;
    }
    let total: u32 = lens.iter().sum();
    let obs = ObsHub::new(4);
    let span = {
        let spans = &mut obs.borrow_mut().spans;
        let span = spans.begin(OpKind::Read, "client-0", "gather", Time::ZERO);
        spans.correlate(7, span);
        span
    };
    let (obs2, plan) = (obs.clone(), local_plan(&ranges));
    let (seen, _c, dma) = stream_rig(total as usize, move |nic, ctx| {
        nic.obs = obs2.clone();
        hand_off_gather(nic, ctx, MsgId::new(0, 1), plan.clone());
    });
    let got = responses(&seen);
    assert_eq!(got.len(), 45);
    let mut flow = vec![0u8; 210_000];
    for (i, (_, r)) in got.iter().enumerate() {
        assert_eq!((r.pkt_idx, r.total_pkts), (i as u32, 45));
        flow[r.offset as usize..][..r.data.len()].copy_from_slice(&r.data);
    }
    let src = pattern(total as usize, 5);
    let mut from = 0;
    for (len, dest_off) in lens.into_iter().zip(dests) {
        let (len, dest_off) = (len as usize, dest_off as usize);
        assert_eq!(flow[dest_off..][..len], src[from..][..len], "at {dest_off}");
        from += len;
    }
    // Batch one reads ranges 0 and 1 (in part), batch two 1, 2 and 3.
    assert_eq!(dma.borrow().reads_issued, 5);
    assert_eq!(dma.borrow().bytes_read, total as u64);
    // The second batch is read when the first is at the NIC, and leaves
    // when its own last DMA read is.
    assert!(got[31].0 < got[32].0);
    let spans = &mut obs.borrow_mut().spans;
    let op = spans
        .end(span, Time(Dur::from_ms(10).ps()), true)
        .expect("open");
    let streamed = op.marks.iter().filter(|m| m.0 == phase::STREAMED);
    assert_eq!(streamed.count(), 2, "one mark per batch: {:?}", op.marks);
}

/// With read QoS admitting one stream at a time, a queued read starts
/// when the stream before it has queued its last batch — not when that
/// batch has left — and a gather streams alongside without a slot.
#[test]
fn qos_slot_frees_when_the_last_batch_is_queued_and_gathers_take_none() {
    let cap = max_payload_plain();
    let len = 40 * cap; // two batches: 32 packets, then 8
    let setup: Setup = Box::new(move |nic: &mut NicCore| {
        nic.memory()
            .borrow_mut()
            .write(STREAM_ADDR, &pattern(len as usize, 5));
        nic.install_read_qos(1 << 20, &[], 1);
    });
    let read = |seq: u64| {
        let rrh = ReadReqHeader {
            addr: STREAM_ADDR,
            len,
        };
        Frame::ReadReq(ReadReqPkt {
            msg: MsgId::new(0, seq),
            dfs: Some(dfs_header(seq, 0)),
            rrh,
        })
    };
    let gather = Frame::GatherReq(GatherReqPkt {
        msg: MsgId::new(0, 2),
        dfs: dfs_header(2, 0),
        grh: local_plan(&[(STREAM_ADDR, len, 0)]),
    });
    let seen = Seen::default();
    let mut c = build_nodes(
        2,
        Vec::new(),
        vec![None, Some(setup)],
        NicConfig::default(),
        Some(seen.clone()),
    );
    let requests = vec![(1, read(1)), (1, gather), (1, read(3))];
    c.engine
        .schedule(Dur::ZERO, c.nic_ids[0], Box::new(Inject(requests)));
    run(&mut c, 10);
    // Runs of packets of one request, in arrival order.
    let mut runs: Vec<(u64, u32)> = Vec::new();
    for (_, r) in responses(&seen) {
        match runs.last_mut() {
            Some((seq, n)) if *seq == r.msg.seq => *n += 1,
            _ => runs.push((r.msg.seq, 1)),
        }
    }
    // Read 1 and the gather start on arrival and share the DMA read
    // channel batch by batch. Read 3 waits for read 1's slot; its first
    // DMA read is queued in the same instant as read 1's last, so ahead
    // of the gather's second batch, which is read only once the gather's
    // first is at the NIC.
    assert_eq!(
        runs,
        vec![(1, 32), (2, 32), (1, 8), (3, 32), (2, 8), (3, 8)],
        "batch order on the wire"
    );
}

/// A read's Read credit comes back exactly once: when the response has
/// landed, or when the read is cancelled — before its response, after it,
/// or while its request is still parked for credit.
#[test]
fn cancelled_reads_return_their_credit_exactly_once() {
    let flows: Rc<RefCell<Vec<SharedFlowStats>>> = Rc::default();
    let credit_left = Rc::new(Cell::new(0));
    let open = Rc::new(Cell::new(usize::MAX));
    let msgs: Rc<RefCell<Vec<MsgId>>> = Rc::default();
    let (f2, m2, m3) = (flows.clone(), msgs.clone(), msgs.clone());
    let (credit2, open2) = (credit_left.clone(), open.clone());
    let setups: Vec<Option<Setup>> = vec![
        Some(Box::new(move |nic: &mut NicCore| {
            nic.set_credit_config(CreditConfig {
                max_send_read: 1,
                ..Default::default()
            });
            f2.borrow_mut().push(nic.flow_stats());
        })),
        Some(Box::new(|nic: &mut NicCore| {
            nic.memory().borrow_mut().write(0x9000, &pattern(50_000, 1));
        })),
    ];
    let actions: Vec<HashMap<u64, Action>> = vec![
        HashMap::from([
            (
                1u64,
                Box::new(move |nic: &mut NicCore, ctx: &mut Ctx<'_>| {
                    let rrh = ReadReqHeader {
                        addr: 0x9000,
                        len: 50_000,
                    };
                    // Three reads under a budget of one: the first holds
                    // the credit, the others park.
                    for token in [10, 11, 12] {
                        let local = 0x100_000 * (token - 9);
                        let msg = nic.send_read(ctx, 1, rrh, None, local, token);
                        m2.borrow_mut().push(msg);
                    }
                    // The first is cancelled with its response on the way,
                    // the second while parked.
                    nic.cancel_read(m2.borrow()[0]);
                    nic.cancel_read(m2.borrow()[1]);
                }) as Action,
            ),
            (
                2u64,
                Box::new(move |nic: &mut NicCore, _: &mut Ctx<'_>| {
                    // Everything is over: cancelling again returns nothing.
                    for &msg in m3.borrow().iter() {
                        nic.cancel_read(msg);
                    }
                    credit2.set(nic.flow.local_credit(1, WrClass::Read));
                    open2.set(nic.open_messages());
                }) as Action,
            ),
        ]),
        HashMap::new(),
    ];
    let mut c = build(2, actions, setups, NicConfig::default());
    kick(&mut c, 0, 1, Dur::ZERO);
    kick(&mut c, 0, 2, Dur::from_ms(5));
    run(&mut c, 10);
    let done: Vec<u64> = c.records[0].reads.borrow().iter().map(|r| r.1).collect();
    assert_eq!(done, vec![12], "only the read that was not cancelled");
    assert_eq!(c.memories[0].borrow().read(0x100_000, 8), vec![0u8; 8]);
    let f = *flows.borrow()[0].borrow();
    let read = WrClass::Read.index();
    assert_eq!(f.posted[read], 3, "every request went out");
    assert_eq!(f.completed[read], 3, "each credit came back once");
    assert_eq!(credit_left.get(), 1, "the budget is whole again");
    assert_eq!(open.get(), 0);
}

// --- malformed frames --------------------------------------------------------

/// What node 1 is left with after a test's frames.
struct Aftermath {
    c: Cluster,
    /// Node 1's ingress buffer.
    ingress: SharedGate,
    /// Messages node 1 still holds state for, and EC stripes it has open.
    open_messages: usize,
    stripes_open: usize,
    chunks_encoded: u64,
}

impl Aftermath {
    /// Nothing of the frames is left on node 1, and every ingress credit
    /// they took is back.
    fn assert_clean(&self) {
        assert_eq!(self.open_messages, 0, "reassembly state left behind");
        assert_eq!(self.stripes_open, 0, "stripe state left behind");
        let gate = self.ingress.borrow();
        let now = self.c.engine.now();
        assert_eq!(gate.available(now), gate.capacity(), "ingress credit");
    }

    fn acks(&self) -> Vec<AckPkt> {
        self.c.records[0]
            .acks
            .borrow()
            .iter()
            .map(|a| a.2)
            .collect()
    }
}

/// Node 0 sends `frames` to node 1 (a firmware-EC NIC) as they are,
/// outside any work request.
fn send_raw(frames: Vec<Frame>) -> Aftermath {
    let ingress: Rc<RefCell<Option<SharedGate>>> = Rc::default();
    let left = Rc::new(Cell::new((usize::MAX, usize::MAX, u64::MAX)));
    let (ingress2, left2) = (ingress.clone(), left.clone());
    let setup: Setup = Box::new(move |nic: &mut NicCore| {
        nic.enable_firmware_ec();
        *ingress2.borrow_mut() = Some(nic.port().ingress_gate.clone());
    });
    let send = Box::new(move |nic: &mut NicCore, ctx: &mut Ctx<'_>| {
        let pkts: Vec<_> = frames.iter().map(|f| nic.pkt(1, f.clone())).collect();
        nic.send_pkts(ctx, pkts);
    }) as Action;
    let look = Box::new(move |nic: &mut NicCore, _: &mut Ctx<'_>| {
        let ec = nic.firmware_ec().expect("enabled");
        left2.set((nic.open_messages(), ec.stripes_open(), ec.chunks_encoded));
    }) as Action;
    let actions = vec![HashMap::from([(1u64, send)]), HashMap::from([(2u64, look)])];
    let mut c = build(2, actions, vec![None, Some(setup)], NicConfig::default());
    kick(&mut c, 0, 1, Dur::ZERO);
    kick(&mut c, 1, 2, Dur::from_ms(5));
    run(&mut c, 10);
    let (open_messages, stripes_open, chunks_encoded) = left.get();
    let ingress = ingress.borrow_mut().take().expect("captured");
    Aftermath {
        c,
        ingress,
        open_messages,
        stripes_open,
        chunks_encoded,
    }
}

/// One packet of a two-packet raw write to 0x20_000 on node 1.
fn write_pkt(pkt_idx: u32, wrh: Option<WriteReqHeader>) -> Frame {
    Frame::Write(WritePkt {
        msg: MsgId::new(0, 77),
        pkt_idx,
        total_pkts: 2,
        dfs: (pkt_idx == 0).then(|| dfs_header(42, 0)),
        wrh,
        offset: pkt_idx * 100,
        data: Bytes::from(vec![0xAB; 100]),
    })
}

/// An EC write of one 100-byte packet to node 1 in role `role` of an
/// RS(2,1) stripe with `parity_coords`.
fn ec_write(role: EcRole, parity_coords: Vec<ReplicaCoord>) -> Frame {
    let resiliency = Resiliency::ErasureCode(EcInfo {
        scheme: RsScheme::new(2, 1),
        role,
        stripe: 9,
        parity_coords,
    });
    let wrh = WriteReqHeader {
        target_addr: 0x20_000,
        len: 100,
        resiliency,
    };
    let Frame::Write(mut w) = write_pkt(0, Some(wrh)) else {
        unreachable!()
    };
    w.total_pkts = 1;
    Frame::Write(w)
}

#[test]
fn first_write_packet_without_a_wrh_is_refused() {
    let after = send_raw(vec![write_pkt(0, None), write_pkt(1, None)]);
    let acks = after.acks();
    assert_eq!(acks.len(), 1, "the message is refused once: {acks:?}");
    assert_eq!(acks[0].status, Status::Rejected);
    assert_eq!(
        (acks[0].msg, acks[0].greq_id),
        (MsgId::new(0, 77), Some(42))
    );
    let landed = after.c.memories[1].borrow().read(0x20_000, 200);
    assert_eq!(landed, vec![0u8; 200], "nothing of it lands");
    after.assert_clean();
}

/// One packet of a two-packet SEND.
fn send_pkt(pkt_idx: u32, rpc: Option<RpcBody>) -> Frame {
    Frame::Send(SendPkt {
        msg: MsgId::new(0, 78),
        pkt_idx,
        total_pkts: 2,
        rpc,
        offset: pkt_idx * 100,
        data: Bytes::from(vec![0xCD; 100]),
    })
}

#[test]
fn first_send_packet_without_a_body_is_refused() {
    let after = send_raw(vec![send_pkt(0, None), send_pkt(1, None)]);
    let acks = after.acks();
    assert_eq!(acks.len(), 1, "the message is refused once: {acks:?}");
    assert_eq!(acks[0].status, Status::Rejected);
    assert_eq!(acks[0].msg, MsgId::new(0, 78));
    assert!(after.c.records[1].rpcs.borrow().is_empty());
    after.assert_clean();
}

#[test]
fn send_continuation_without_a_first_packet_is_dropped() {
    let after = send_raw(vec![send_pkt(1, None)]);
    assert!(after.acks().is_empty());
    assert!(after.c.records[1].rpcs.borrow().is_empty());
    after.assert_clean();
}

#[test]
fn ec_parity_write_from_a_chunk_past_k_is_refused() {
    let role = EcRole::Parity {
        parity_idx: 0,
        src_chunk: 2,
    };
    let coords = vec![ReplicaCoord {
        node: 1,
        addr: 0x20_000,
    }];
    let after = send_raw(vec![ec_write(role, coords)]);
    let acks = after.acks();
    assert_eq!(acks.len(), 1, "{acks:?}");
    assert_eq!(acks[0].status, Status::Rejected);
    assert_eq!(
        (acks[0].msg, acks[0].greq_id),
        (MsgId::new(0, 77), Some(42))
    );
    after.assert_clean();
}

#[test]
fn ec_data_write_with_too_few_parity_coords_is_refused() {
    let after = send_raw(vec![ec_write(EcRole::Data { chunk_idx: 0 }, Vec::new())]);
    let acks = after.acks();
    assert_eq!(acks.len(), 1, "refused, not acked as durable: {acks:?}");
    assert_eq!(acks[0].status, Status::Rejected);
    assert_eq!(after.chunks_encoded, 0, "no encode pass runs");
    after.assert_clean();
}
