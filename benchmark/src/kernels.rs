//! Per-layer **kernel** metrics: a tight loop over one public function of
//! one crate, with workload-shaped inputs (2 KiB packets, 64 KiB and
//! 256 KiB chunks, a 10 k-entry namespace), timed from outside. Each
//! kernel runs [`BATCHES`] batches of ~1 ms and reports the CPU
//! nanoseconds per call of the batches' steady value (`stats::steady`);
//! the caller converts to reference time.
//!
//! The kernels do not depend on the workload: a traced run of any
//! workload reports the same set, so a layer's own cost can be read
//! beside the counts of how often that workload called it.

use std::any::Any;
use std::collections::HashSet;
use std::hint::black_box;

use bytes::BytesMut;
use nadfs_core::{ControlPlane, FilePolicy, ReadCache};
use nadfs_gfec::{gf256, intermediate_parity_into, Accumulator, ReedSolomon};
use nadfs_host::{DmaConfig, DmaEngine, HostMemory};
use nadfs_meta::{CachedEntry, ExtentMap, ExtentRecord, MetaCache, Namespace, StripedLayout};
use nadfs_simnet::{
    BufPool, Component, CreditConfig, Ctx, Dur, Engine, FlowController, Time, WrClass,
};
use nadfs_wire::codec::{decode_dfs_header, decode_wrh, encode_dfs_header, encode_wrh};
use nadfs_wire::{
    payload_checksum, split_payload, write_payload_caps, BcastStrategy, Capability, DfsHeader,
    DfsOp, MacKey, ReplicaCoord, Resiliency, Rights, WriteReqHeader,
};

use crate::cpu::CpuClock;
use crate::spans::Spans;
use crate::stats;

pub const BATCHES: usize = 20;
/// Target CPU time of one batch.
const BATCH_NS: u64 = 1_000_000;

/// One kernel's result: raw CPU ns per call (steady batch), and for
/// throughput kernels the bytes one call moves.
pub struct Kernel {
    pub metric: &'static str,
    pub ns_per_call: f64,
    pub bytes_per_call: Option<u64>,
}

struct Suite<'a> {
    clock: &'a CpuClock,
    sp: &'a mut Spans,
    out: Vec<Kernel>,
}

impl Suite<'_> {
    fn time(&self, iters: u64, f: &mut dyn FnMut()) -> u64 {
        let t0 = self.clock.now_ns();
        for _ in 0..iters {
            f();
        }
        self.clock.now_ns() - t0
    }

    /// Time `f` and record it under `metric`. `bytes` marks a throughput
    /// kernel (reported in GB/s rather than ns).
    fn bench(&mut self, metric: &'static str, bytes: Option<u64>, mut f: impl FnMut()) {
        // Size a batch: grow until one takes a measurable while, then
        // scale to the target.
        let mut iters = 1u64;
        let mut ns = self.time(iters, &mut f);
        while ns < BATCH_NS / 8 {
            iters *= 4;
            ns = self.time(iters, &mut f);
        }
        let iters = (iters * BATCH_NS / ns.max(1)).max(1);
        let mut batch_ns = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let ns = self.sp.scope(metric, |_| {
                let t0 = self.clock.now_ns();
                for _ in 0..iters {
                    f();
                }
                self.clock.now_ns() - t0
            });
            batch_ns.push(ns);
        }
        self.out.push(Kernel {
            metric,
            ns_per_call: stats::steady(batch_ns.into_iter()) as f64 / iters as f64,
            bytes_per_call: bytes,
        });
    }
}

struct Null;
struct Tick;

impl Component for Null {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
        black_box(ev);
    }
}

fn capability(key: &MacKey) -> Capability {
    Capability::issue(key, 3, 17, Rights::RW, u64::MAX / 2, 99)
}

fn coords(n: u32) -> Vec<ReplicaCoord> {
    (0..n)
        .map(|i| ReplicaCoord {
            node: 16 + i,
            addr: 0x10_0000 * (i as u64 + 1),
        })
        .collect()
}

/// `n` adjacent 64 KiB plain extents, as a long-lived striped file's map
/// looks to the read path.
fn extent_map(n: usize) -> ExtentMap {
    let mut map = ExtentMap::new();
    for i in 0..n as u64 {
        map.record(ExtentRecord::Plain {
            offset: i * (64 << 10),
            len: 64 << 10,
            coord: ReplicaCoord {
                node: (i % 4) as u32,
                addr: i * (64 << 10),
            },
        });
    }
    map
}

/// Run every kernel. Returns one entry per kernel metric, plus the RS
/// decode-cache hit rate observed by the reconstruct kernel.
pub fn run_all(clock: &CpuClock, sp: &mut Spans) -> (Vec<Kernel>, f64) {
    let mut s = Suite {
        clock,
        sp,
        out: Vec::new(),
    };

    // --- simnet -------------------------------------------------------
    {
        let mut e = Engine::new();
        let id = e.add_component(Box::new(Null));
        s.bench("simnet.engine.schedule_dispatch_ns", None, || {
            e.schedule(Dur::from_ns(1), id, Box::new(Tick));
            e.step();
        });
    }
    {
        let mut pool = BufPool::new(8);
        let warm = pool.get(2048);
        pool.put(warm);
        s.bench("simnet.pool.get_put_ns", None, || {
            let b = pool.get(black_box(2048));
            pool.put(b);
        });
    }
    {
        let mut fc = FlowController::new(CreditConfig::default());
        s.bench("simnet.flow.try_acquire_ns", None, || {
            if fc.try_acquire(black_box(5), WrClass::Write) {
                fc.on_local_complete(5, WrClass::Write);
            }
        });
    }

    // --- wire ---------------------------------------------------------
    let key = MacKey::from_seed(7);
    let wrh = WriteReqHeader {
        target_addr: 0x4000,
        len: 64 << 10,
        resiliency: Resiliency::Replicate {
            strategy: BcastStrategy::Ring,
            vrank: 0,
            coords: coords(4),
        },
    };
    s.bench("wire.codec.wrh_roundtrip_ns", None, || {
        let mut buf = BytesMut::with_capacity(128);
        encode_wrh(black_box(&wrh), &mut buf);
        black_box(decode_wrh(&mut buf.freeze()).expect("own encoding"));
    });
    let dfs = DfsHeader {
        greq_id: 42,
        op: DfsOp::Write,
        client: 3,
        tenant: 3,
        capability: capability(&key),
    };
    s.bench("wire.codec.dfs_header_roundtrip_ns", None, || {
        let mut buf = BytesMut::with_capacity(64);
        encode_dfs_header(black_box(&dfs), &mut buf);
        black_box(decode_dfs_header(&mut buf.freeze()).expect("own encoding"));
    });
    let (first, rest) = write_payload_caps(&wrh);
    s.bench("wire.frame.split_payload_ns", None, || {
        black_box(split_payload(black_box(64 << 10), first, rest));
    });
    let cap = capability(&key);
    s.bench("wire.capability.verify_ns", None, || {
        black_box(&cap)
            .verify(&key, 1_000, Rights::WRITE)
            .expect("valid capability");
    });
    let block = vec![0xA7u8; 64 << 10];
    s.bench("wire.siphash.checksum_gbps", Some(64 << 10), || {
        black_box(payload_checksum(black_box(&block)));
    });

    // --- gfec ---------------------------------------------------------
    {
        let src = vec![0xABu8; 1 << 20];
        let mut dst = vec![0x5Au8; 1 << 20];
        s.bench("gfec.gf256.mul_acc_gbps", Some(1 << 20), || {
            gf256::mul_acc_slice(0x1D, black_box(&src), black_box(&mut dst));
        });
    }
    {
        let rs = ReedSolomon::new(6, 3).expect("RS(6,3)");
        let chunks: Vec<Vec<u8>> = (0..6).map(|j| vec![j as u8 + 1; 256 << 10]).collect();
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        let mut parities = vec![Vec::new(); 3];
        s.bench("gfec.rs63.encode_gbps", Some(6 * (256 << 10)), || {
            rs.encode_into(black_box(&refs), black_box(&mut parities))
                .expect("encode");
        });
    }
    {
        // One pooled per-packet step of the streaming EC inner loop.
        let payload = vec![0xA7u8; 2048];
        let mut ipar = Vec::with_capacity(2048);
        let mut acc = Accumulator::new(2048, u32::MAX);
        s.bench("gfec.stream.absorb_gbps", Some(2048), || {
            intermediate_parity_into(0x1D, black_box(&payload), &mut ipar);
            black_box(acc.absorb(&ipar));
        });
    }
    let decode_hit_rate = {
        let rs = ReedSolomon::new(3, 2).expect("RS(3,2)");
        let chunks: Vec<Vec<u8>> = (0..3).map(|j| vec![j as u8 + 1; 64 << 10]).collect();
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        let parities = rs.encode(&refs).expect("encode");
        // Data shard 0 erased; rebuilt from shards 1, 2 and parity 0.
        let shards: Vec<Option<&[u8]>> = vec![
            None,
            Some(&chunks[1]),
            Some(&chunks[2]),
            Some(&parities[0]),
            Some(&parities[1]),
        ];
        let mut out = vec![Vec::new()];
        s.bench("gfec.rs32.reconstruct_gbps", Some(64 << 10), || {
            rs.reconstruct_into(black_box(&shards), &[0], &mut out)
                .expect("reconstruct");
        });
        assert_eq!(out[0], chunks[0], "reconstruct kernel rebuilt wrong bytes");
        let (hits, misses) = rs.decode_cache_stats();
        hits as f64 / (hits + misses).max(1) as f64
    };

    // --- host ---------------------------------------------------------
    {
        let mem = HostMemory::new();
        let addr = mem.borrow_mut().alloc(64 << 10);
        let mut out = vec![0u8; 64 << 10];
        s.bench("host.memory.write_gbps", Some(64 << 10), || {
            mem.borrow_mut().write(addr, black_box(&block));
        });
        s.bench("host.memory.read_into_gbps", Some(64 << 10), || {
            mem.borrow().read_into(addr, black_box(&mut out));
        });
        let mut dma = DmaEngine::new(DmaConfig::default(), mem.clone());
        let pkt = vec![0x11u8; 2048];
        s.bench("host.dma.write_ns", None, || {
            black_box(dma.write(Time::ZERO, addr, black_box(&pkt)));
        });
    }

    // --- meta ---------------------------------------------------------
    {
        // 100 directories x 100 files: a 10 k-entry tree.
        let mut ns = Namespace::new();
        let layout = StripedLayout::single(0);
        for d in 0..100 {
            ns.mkdir(&format!("/d{d}"), 0).expect("fresh dir");
            for f in 0..100 {
                ns.create(&format!("/d{d}/f{f}"), layout.clone(), FilePolicy::Plain, 0)
                    .expect("fresh file");
            }
        }
        let mut n = 0u64;
        s.bench("meta.namespace.create_ns", None, || {
            n += 1;
            ns.create(
                &format!("/d{}/new{n}", n % 100),
                layout.clone(),
                FilePolicy::Plain,
                n,
            )
            .expect("fresh file");
        });
        let mut i = 0usize;
        s.bench("meta.namespace.lookup_ns", None, || {
            i = (i + 37) % 10_000;
            black_box(
                ns.lookup(&format!("/d{}/f{}", i / 100, i % 100))
                    .expect("present"),
            );
        });
        // Rename one file back and forth between two directories.
        let mut there = false;
        s.bench("meta.namespace.rename_ns", None, || {
            let (from, to) = if there {
                ("/d1/moved", "/d0/f0")
            } else {
                ("/d0/f0", "/d1/moved")
            };
            ns.rename(from, to, 1).expect("rename");
            there = !there;
        });

        let mut cache = MetaCache::new();
        let attr = ns.lookup("/d5/f5").expect("present");
        for d in 0..100 {
            for f in 0..100 {
                cache.insert(format!("/d{d}/f{f}"), CachedEntry::from_attr(&attr, None));
            }
        }
        let paths: Vec<String> = (0..64).map(|k| format!("/d{}/f{}", k, 99 - k)).collect();
        let mut k = 0usize;
        s.bench("meta.cache.get_ns", None, || {
            k = (k + 1) % paths.len();
            black_box(cache.get(&paths[k]));
        });
    }
    for (metric, n) in [
        ("meta.extents.resolve_ns.10", 10usize),
        ("meta.extents.resolve_ns.1k", 1_000),
        ("meta.extents.resolve_ns.100k", 100_000),
    ] {
        let map = extent_map(n);
        let failed = HashSet::new();
        let mut i = 0u64;
        s.bench(metric, None, || {
            // A 64 KiB read that straddles two extents, sweeping the file.
            i = (i + 7) % (n as u64 - 1);
            let plan = map.resolve(i * (64 << 10) + (32 << 10), 64 << 10, &failed);
            black_box(plan.expect("covered range"));
        });
    }

    // --- core ---------------------------------------------------------
    {
        let mut cache = ReadCache::default();
        for b in 0..64u64 {
            cache.fill(9, 1, b * (64 << 10), &block, 64 << 10);
        }
        let mut b = 0u64;
        s.bench("core.cache.lookup_ns", None, || {
            b = (b + 5) % 63;
            // Straddles two cached spans, as an unaligned hot read does.
            black_box(
                cache
                    .lookup(9, b * (64 << 10) + 4096, 64 << 10)
                    .expect("hit"),
            );
        });
    }
    {
        let control = ControlPlane::new(0xD15C, vec![16, 17, 18, 19]);
        let file = control.borrow_mut().create_file(0, FilePolicy::Plain).id;
        let mut off = 0u64;
        s.bench("core.control.place_commit_ns", None, || {
            let mut c = control.borrow_mut();
            let pl = c.place_write_at(file, 4096, off).expect("known file");
            black_box(c.commit_write(file, &pl, 4096));
            // Overwrite a fixed window so the extent map stays bounded
            // and a batch's cost does not grow with its position.
            off = (off + 4096) % (1 << 20);
        });
    }

    (s.out, decode_hit_rate)
}
