//! End-to-end NIC behavior tests: raw writes, RPC, one-sided reads,
//! HyperLoop chains, the firmware EC engine, MR protection, and the
//! streaming decode of degraded gathers (its refusals, its survivor-NACK
//! and client-abandon paths, and what it leaves behind on each).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_gfec::ReedSolomon;
use nadfs_host::{DmaEngine, SharedMemory};
use nadfs_rdma::{AppTimer, EcEngine, EcEngineConfig, Nic, NicApp, NicConfig, NicCore};
use nadfs_simnet::{
    BufPool, CreditConfig, Ctx, Dur, Engine, Fabric, FabricConfig, NodeId, PacketPool,
    SharedBufPool, SharedFlowStats, Time, WrClass,
};
use nadfs_wire::{
    AckPkt, Capability, DfsHeader, DfsOp, EcInfo, EcRole, GatherCopy, GatherReadHeader,
    GatherReconstruct, GatherSegment, HlConfigPkt, MacKey, MsgId, ReadReqHeader, ReplicaCoord,
    Resiliency, Rights, RpcBody, RsScheme, Status, WriteReqHeader,
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
    mut actions: Vec<HashMap<u64, Action>>,
    mut setups: Vec<Option<Setup>>,
    cfg: NicConfig,
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
    c.engine
        .schedule(after, c.nic_ids[node], Box::new(AppTimer { tag }));
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
    // Capture the interior ring nodes' buffer pools: chain forwarding
    // must draw its per-chunk buffers from the recycled ring, not the
    // allocator (the former alloc-per-hop).
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
    // Node 2's forwards (one buffer per chunk) recycle the chunk payloads
    // node 1 forwarded to it: steady-state chain forwarding stays off the
    // allocator.
    let stats = pool2
        .borrow()
        .as_ref()
        .expect("pool captured")
        .borrow()
        .stats();
    let n_chunks = total.div_ceil(chunk) as u64;
    assert_eq!(
        stats.gets, n_chunks,
        "one pooled buffer per forwarded chunk"
    );
    assert!(
        stats.hits >= n_chunks - 1,
        "chunk forwarding must recycle landed payloads (hits {}/{} gets)",
        stats.hits,
        stats.gets
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
        nic.enable_firmware_ec(EcEngine::new(EcEngineConfig::default()));
    });
    let ec_setup2: Setup = Box::new(|nic: &mut NicCore| {
        nic.enable_firmware_ec(EcEngine::new(EcEngineConfig::default()));
    });
    let ec_setup3: Setup = Box::new(|nic: &mut NicCore| {
        nic.enable_firmware_ec(EcEngine::new(EcEngineConfig::default()));
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

#[test]
fn mr_protection_rejects_out_of_region_writes() {
    let setups: Vec<Option<Setup>> = vec![
        None,
        Some(Box::new(|nic: &mut NicCore| {
            nic.register_mr(0x1000, 0x1000);
        })),
    ];
    let actions: Vec<HashMap<u64, Action>> = vec![
        HashMap::from([
            (
                1u64,
                Box::new(|nic: &mut NicCore, ctx: &mut Ctx<'_>| {
                    let wrh = WriteReqHeader {
                        target_addr: 0x1000,
                        len: 100,
                        resiliency: Resiliency::None,
                    };
                    nic.send_write(ctx, 1, None, wrh, Bytes::from(vec![1u8; 100]));
                }) as Action,
            ),
            (
                2u64,
                Box::new(|nic: &mut NicCore, ctx: &mut Ctx<'_>| {
                    let wrh = WriteReqHeader {
                        target_addr: 0x9_000_000, // outside any MR
                        len: 100,
                        resiliency: Resiliency::None,
                    };
                    nic.send_write(ctx, 1, None, wrh, Bytes::from(vec![2u8; 100]));
                }) as Action,
            ),
        ]),
        HashMap::new(),
    ];
    let cfg = NicConfig {
        enforce_mr: true,
        ..Default::default()
    };
    let mut c = build(2, actions, setups, cfg);
    kick(&mut c, 0, 1, Dur::ZERO);
    kick(&mut c, 0, 2, Dur::from_us(5));
    run(&mut c, 10);
    let acks = c.records[0].acks.borrow();
    assert_eq!(acks.len(), 2);
    assert_eq!(acks[0].2.status, Status::Ok);
    assert_eq!(acks[1].2.status, Status::Rejected);
    // The rejected write must not have landed.
    assert_eq!(
        c.memories[1].borrow().read(0x9_000_000, 4),
        vec![0u8; 4],
        "rejected write leaked into memory"
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
/// 0x100_000, token 9) and then runs `after_send` on its NIC.
fn decode_rig(
    plan: GatherReadHeader,
    after_send: fn(&mut NicCore, MsgId),
    cfg: NicConfig,
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
                    nic.register_mr(CHUNK_ADDR, CHUNK as u64);
                }
            }) as Setup)
        })
        .collect();
    let send = Box::new(move |nic: &mut NicCore, ctx: &mut Ctx<'_>| {
        let msg = nic.send_gather(ctx, 1, dfs_header(5, 0), plan.clone(), 0x100_000, 9);
        after_send(nic, msg);
    }) as Action;
    let actions = vec![
        HashMap::from([(1u64, send)]),
        HashMap::new(),
        HashMap::new(),
    ];
    let mut c = build(3, actions, setups, cfg);
    kick(&mut c, 0, 1, Dur::ZERO);
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
    let rig = decode_rig(degraded_plan(copy), no_follow_up, NicConfig::default());
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
        let rig = decode_rig(plan, no_follow_up, NicConfig::default());
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

/// A survivor that refuses a fetch (the range is outside its MRs) fails
/// the gather: the client is NACKed with the survivor's status, the
/// accumulators of the ranges already absorbed go back to the ring, and
/// the fetches' Read credit returns.
#[test]
fn survivor_nack_aborts_the_gather_and_leaks_nothing() {
    let range = |chunk_off: u32, dest_off: u32| GatherCopy {
        chunk: 0,
        chunk_off,
        len: 4_000,
        dest_off,
    };
    let cfg = NicConfig {
        enforce_mr: true,
        ..Default::default()
    };
    let mut plan = degraded_plan(vec![range(0, 0), range(6_000, 4_000)]);
    // The parity node's registered region ends where this plan's first
    // range does: it serves that one and refuses the second.
    plan.segments[1].coord.addr += 6_000;
    let rig = decode_rig(plan, no_follow_up, cfg);
    let acks = rig.c.records[0].acks.borrow();
    assert_eq!(acks.len(), 1);
    assert_eq!(acks[0].2.status, Status::Rejected);
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
    let rig = decode_rig(degraded_plan(copy), abandon, NicConfig::default());
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
