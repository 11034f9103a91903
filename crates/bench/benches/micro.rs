//! Criterion microbenchmarks of the computational kernels underneath the
//! simulation: GF(2^8) slice arithmetic, Reed-Solomon encode, SipHash
//! capability MACs, raw discrete-event engine throughput (empty queue and
//! with parked timers standing), and one packet's trip across the fabric.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn gf_mul_acc(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf256_mul_acc_slice");
    for size in [2048usize, 64 << 10, 1 << 20] {
        let src = vec![0xABu8; size];
        let mut dst = vec![0x5Au8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| nadfs_gfec::gf256::mul_acc_slice(0x1D, black_box(&src), black_box(&mut dst)));
        });
    }
    g.finish();
}

fn gf_mul_acc_scalar_baseline(c: &mut Criterion) {
    // The seed byte-table walk, kept for regression comparison against the
    // wide-word kernel above.
    let mut g = c.benchmark_group("gf256_mul_acc_slice_scalar");
    let size = 1 << 20;
    let src = vec![0xABu8; size];
    let mut dst = vec![0x5Au8; size];
    g.throughput(Throughput::Bytes(size as u64));
    g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
        b.iter(|| {
            nadfs_gfec::gf256::scalar::mul_acc_slice(0x1D, black_box(&src), black_box(&mut dst))
        });
    });
    g.finish();
}

fn gf_xor_wide(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf256_xor_slice");
    let size = 1 << 20;
    let src = vec![0x3Cu8; size];
    let mut dst = vec![0x5Au8; size];
    g.throughput(Throughput::Bytes(size as u64));
    g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
        b.iter(|| nadfs_gfec::gf256::xor_slice(black_box(&src), black_box(&mut dst)));
    });
    g.finish();
}

fn rs_encode_fused(c: &mut Criterion) {
    // encode_into with reused parity buffers: the fused, zero-alloc path.
    let mut g = c.benchmark_group("rs_encode_fused");
    for (k, m) in [(3usize, 2usize), (6, 3)] {
        let rs = nadfs_gfec::ReedSolomon::new(k, m).expect("params");
        let chunks: Vec<Vec<u8>> = (0..k).map(|j| vec![j as u8; 64 << 10]).collect();
        let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let mut parities: Vec<Vec<u8>> = vec![Vec::new(); m];
        g.throughput(Throughput::Bytes((k * (64 << 10)) as u64));
        g.bench_function(format!("rs({k},{m})_64KiB_chunks"), |b| {
            b.iter(|| {
                rs.encode_into(black_box(&refs), black_box(&mut parities))
                    .expect("encode")
            });
        });
    }
    g.finish();
}

fn stream_packet_pooled(c: &mut Criterion) {
    // One pooled per-packet step: intermediate parity into a recycled
    // buffer plus wide-XOR absorption — the steady-state cost of the
    // sPIN-TriEC inner loop.
    let mtu = 1978usize;
    let payload = vec![0xA7u8; mtu];
    let mut pool = nadfs_simnet::BufPool::new(8);
    let mut ipar = pool.get(mtu);
    let mut acc = nadfs_gfec::Accumulator::new(mtu, u32::MAX);
    let mut g = c.benchmark_group("stream_packet_pooled");
    g.throughput(Throughput::Bytes(mtu as u64));
    g.bench_function("ipar_mul_plus_xor_1978B", |b| {
        b.iter(|| {
            nadfs_gfec::intermediate_parity_into(0x1D, black_box(&payload), &mut ipar);
            black_box(acc.absorb(&ipar));
        });
    });
    g.finish();
}

fn rs_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_encode");
    for (k, m) in [(3usize, 2usize), (6, 3)] {
        let rs = nadfs_gfec::ReedSolomon::new(k, m).expect("params");
        let chunks: Vec<Vec<u8>> = (0..k).map(|j| vec![j as u8; 64 << 10]).collect();
        let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        g.throughput(Throughput::Bytes((k * (64 << 10)) as u64));
        g.bench_function(format!("rs({k},{m})_64KiB_chunks"), |b| {
            b.iter(|| rs.encode(black_box(&refs)).expect("encode"));
        });
    }
    g.finish();
}

fn rs_reconstruct(c: &mut Criterion) {
    let rs = nadfs_gfec::ReedSolomon::new(6, 3).expect("params");
    let chunks: Vec<Vec<u8>> = (0..6).map(|j| vec![j as u8 + 1; 64 << 10]).collect();
    let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    let parities = rs.encode(&refs).expect("encode");
    c.bench_function("rs(6,3)_reconstruct_3_erasures_64KiB", |b| {
        b.iter(|| {
            let mut shards: Vec<Option<Vec<u8>>> = chunks
                .iter()
                .cloned()
                .map(Some)
                .chain(parities.iter().cloned().map(Some))
                .collect();
            shards[0] = None;
            shards[3] = None;
            shards[7] = None;
            rs.reconstruct(black_box(&mut shards)).expect("reconstruct");
        });
    });
}

fn rs32_decode(c: &mut Criterion) {
    // One lost 64 KiB chunk of an RS(3,2) stripe, rebuilt two ways from
    // the same survivors: block decode into a reused buffer, and the
    // degraded gather's inner loop — `d_i · payload` absorbed packet by
    // packet into a reused accumulator.
    let (k, len, mtu) = (3usize, 64usize << 10, 1978usize);
    let rs = nadfs_gfec::ReedSolomon::new(k, 2).expect("params");
    let chunks: Vec<Vec<u8>> = (0..k).map(|j| vec![j as u8 + 1; len]).collect();
    let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    let parities = rs.encode(&refs).expect("encode");
    let survivors = [1usize, 2, 3];
    let shards: Vec<Option<&[u8]>> = vec![
        None,
        Some(&chunks[1]),
        Some(&chunks[2]),
        Some(&parities[0]),
        None,
    ];
    let mut g = c.benchmark_group("rs32_decode");
    g.throughput(Throughput::Bytes(len as u64));
    let mut out = vec![Vec::new()];
    g.bench_function("rs32_reconstruct_64k", |b| {
        b.iter(|| {
            rs.reconstruct_into(black_box(&shards), &[0], &mut out)
                .expect("reconstruct")
        });
    });
    let row = rs.decode_rows(&survivors, &[0]).expect("decode row");
    let mut acc = nadfs_gfec::Accumulator::new(mtu, k as u32);
    g.bench_function("rs32_stream_decode_64k", |b| {
        b.iter(|| {
            for start in (0..len).step_by(mtu) {
                let end = (start + mtu).min(len);
                acc.reset(k as u32);
                for (&coef, &shard) in row.iter().zip(&survivors) {
                    let survivor = shards[shard].expect("survivor");
                    acc.absorb_scaled(coef, black_box(&survivor[start..end]));
                }
                black_box(acc.finish(end - start));
            }
        });
    });
    g.finish();
}

fn siphash_capability(c: &mut Criterion) {
    let key = nadfs_wire::MacKey::from_seed(7);
    c.bench_function("capability_issue_and_verify", |b| {
        b.iter(|| {
            let cap = nadfs_wire::Capability::issue(
                black_box(&key),
                1,
                2,
                nadfs_wire::Rights::RW,
                1_000_000,
                3,
            );
            cap.verify(&key, 0, nadfs_wire::Rights::WRITE).expect("ok")
        });
    });
}

fn engine_throughput(c: &mut Criterion) {
    use nadfs_simnet::{Component, Ctx, Dur, Engine};
    use std::any::Any;
    struct Bouncer {
        left: u64,
    }
    struct Tick;
    impl Component for Bouncer {
        fn handle(&mut self, ctx: &mut Ctx<'_>, _ev: Box<dyn Any>) {
            if self.left > 0 {
                self.left -= 1;
                ctx.schedule_self(Dur::from_ns(10), Box::new(Tick));
            }
        }
    }
    c.bench_function("des_engine_100k_events", |b| {
        b.iter(|| {
            let mut e = Engine::new();
            let id = e.add_component(Box::new(Bouncer { left: 100_000 }));
            e.schedule(Dur::ZERO, id, Box::new(Tick));
            e.run_to_completion();
            black_box(e.events_dispatched())
        });
    });
}

/// Schedule + dispatch with timers parked in the queue: what a packet
/// event pays when thousands of open messages each hold a 1 ms cleanup
/// check (`des_engine_100k_events` above measures an empty queue).
fn engine_at_standing_depth(c: &mut Criterion) {
    use nadfs_simnet::{Component, Ctx, Dur, Engine};
    use std::any::Any;
    struct Null;
    struct Tick;
    impl Component for Null {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            black_box(ev);
        }
    }
    let mut g = c.benchmark_group("des_engine_100k_events_at_depth");
    for depth in [16u64, 2 << 10, 16 << 10] {
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let mut e = Engine::new();
            let id = e.add_component(Box::new(Null));
            // Parked far enough out that no measured batch reaches them.
            for i in 0..depth {
                e.schedule(
                    Dur::from_ms(3_600_000) + Dur::from_ns(i),
                    id,
                    Box::new(Tick),
                );
            }
            b.iter(|| {
                for i in 0..100_000u64 {
                    // Packet-scale delays: a cycle, a link, a serialization.
                    let delay = [1, 20, 41][i as usize % 3];
                    e.schedule(Dur::from_ns(delay), id, Box::new(Tick));
                    e.step();
                }
                black_box(e.events_dispatched())
            });
        });
    }
    g.finish();
}

/// One packet across the fabric — submit, uplink, switch, downlink,
/// arrive: five engine events plus the egress-credit wake — with the
/// packet's box recycled from sink to source.
fn fabric_one_hop(c: &mut Criterion) {
    use nadfs_simnet::{
        Component, Ctx, Dur, Engine, Fabric, FabricConfig, NodePort, PacketEvent, PacketPool,
        Payload, SharedPacketPool,
    };
    use std::any::Any;
    #[derive(Clone, Debug)]
    struct Raw(u32);
    impl Payload for Raw {
        fn wire_bytes(&self) -> u32 {
            self.0
        }
    }
    struct Kick;
    struct Source {
        port: NodePort,
        dst: usize,
        pool: SharedPacketPool<Raw>,
    }
    impl Component for Source {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            if ev.downcast::<Kick>().is_ok() {
                assert!(self.port.egress_gate.borrow_mut().try_take());
                let pkt = self
                    .pool
                    .borrow_mut()
                    .submit(self.port.node, self.dst, Raw(2048));
                ctx.schedule(Dur::ZERO, self.port.fabric, pkt);
            }
        }
    }
    struct Sink {
        port: NodePort,
        pool: SharedPacketPool<Raw>,
        arrived: u64,
    }
    impl Component for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            let pkt = ev.downcast::<PacketEvent<Raw>>().expect("a packet");
            self.arrived += 1;
            self.port.ingress_gate.borrow_mut().release(ctx);
            self.pool.borrow_mut().recycle(pkt);
        }
    }
    c.bench_function("fabric_one_hop_10k_packets", |b| {
        let mut e = Engine::new();
        let fid = e.reserve_id();
        let src = e.reserve_id();
        let snk = e.reserve_id();
        let mut fab: Fabric<Raw> = Fabric::new(FabricConfig::default(), fid);
        let sport = fab.register_node(src, None);
        let dport = fab.register_node(snk, None);
        let dst = dport.node;
        e.install(fid, Box::new(fab));
        let pool = PacketPool::shared();
        e.install(
            src,
            Box::new(Source {
                port: sport,
                dst,
                pool: pool.clone(),
            }),
        );
        e.install(
            snk,
            Box::new(Sink {
                port: dport,
                pool,
                arrived: 0,
            }),
        );
        b.iter(|| {
            for _ in 0..10_000 {
                e.schedule(Dur::ZERO, src, Box::new(Kick));
                e.run_to_completion();
            }
            black_box(e.events_dispatched())
        });
    });
}

fn e2e_write_sim(c: &mut Criterion) {
    use nadfs_core::{ClusterSpec, FilePolicy, Job, SimCluster, StorageMode, WriteProtocol};
    c.bench_function("simulate_one_64KiB_spin_write", |b| {
        b.iter(|| {
            let spec = ClusterSpec::new(1, 1, StorageMode::Spin);
            let mut cl = SimCluster::build(spec);
            let f = cl.control.borrow_mut().create_file(0, FilePolicy::Plain);
            cl.submit(
                0,
                Job::Write {
                    file: f.id,
                    size: 64 << 10,
                    protocol: WriteProtocol::Spin,
                    seed: 0,
                },
            );
            cl.start();
            cl.run_until_writes(1, 1_000)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = gf_mul_acc, gf_mul_acc_scalar_baseline, gf_xor_wide,
              rs_encode, rs_encode_fused, rs_reconstruct, rs32_decode,
              stream_packet_pooled, siphash_capability,
              engine_throughput, engine_at_standing_depth, fabric_one_hop,
              e2e_write_sim
}
criterion_main!(benches);
