//! Determinism as an assertion: the engine folds every dispatched
//! `(time, target, seq)` into `Engine::order_digest()`, and five seeded
//! scenarios pin its value. They cover the client paths the benchmark
//! does not drive (the CPU and RDMA baselines, striped layouts, RPC
//! reads, metadata ops) as well as the sPIN write and degraded-read
//! paths. All five were last re-recorded when the PsPIN device began
//! computing its packet-buffer copy, inter-cluster hop and L1 copy when a
//! packet arrives, returning the packet's ingress credit as a timed
//! credit: three device wakes per pSPIN packet went, and the sPIN write
//! paths fell from 10.998 to 7.998 events per packet (Ring k=4) and from
//! 11.065 to 8.065 (TriEC RS(6,3)), with every completion digest below
//! unchanged. Any change to the engine, the fabric, the NIC, the PsPIN
//! device, the handlers or the client that reorders, adds or drops a
//! single event moves them.
//!
//! Beside each order digest sits a completion digest: every completion
//! the scenario drains (writes, file reads, metadata ops, repair
//! tasks), by id or token, status, checksum, start and end. A
//! change that only removes or reorders events moves the first and
//! must leave the second alone; so each test checks the completions
//! first, and a failure there means outcomes moved.

use nadfs_core::{
    ClusterSpec, FilePolicy, Job, LayoutSpec, MetaResult, MetaWorkload, ReadCompletion,
    ReadPattern, ReadProtocol, RepairDriver, RepairOutcome, RepairResult, SimCluster, SizeDist,
    StorageMode, Workload, WriteProtocol, WriteResult,
};
use nadfs_wire::{BcastStrategy, RsScheme, Status};

const SEED: u64 = 0x00D1_6E57;
const DEADLINE_MS: u64 = 1_000;

fn files(cl: &SimCluster, n: usize, policy: FilePolicy) -> Vec<u64> {
    (0..n)
        .map(|_| cl.control.borrow_mut().create_file(0, policy.clone()).id)
        .collect()
}

/// Submit client `c`'s jobs from `make(c, file)` and return the job count.
fn submit(cl: &SimCluster, files: &[u64], make: impl Fn(usize, u64) -> Vec<Job>) -> usize {
    let mut n = 0;
    for (c, &file) in files.iter().enumerate() {
        for job in make(c, file) {
            cl.submit(c, job);
            n += 1;
        }
    }
    n
}

/// The completions a scenario drained, folded into one value. Each
/// completion hashes on its own and the hashes add, so completions that
/// finish at the same instant may drain in either order.
#[derive(Default)]
struct Completions(u64);

impl Completions {
    /// Id or token, status, checksum, start and end, in ps; a field a
    /// completion does not carry is 0.
    fn add(&mut self, fields: [u64; 5]) {
        let h = fields.into_iter().fold(0, |h, x| mix(h ^ x));
        self.0 = self.0.wrapping_add(h);
    }

    fn writes(&mut self, ws: &[WriteResult]) {
        for w in ws {
            let status = w.status as u64;
            self.add([w.greq, status, w.checksum, w.start.ps(), w.end.ps()]);
        }
    }

    fn file_reads(&mut self, rs: &[ReadCompletion]) {
        for r in rs {
            let status = r.status as u64;
            self.add([r.token, status, r.checksum, r.start.ps(), r.end.ps()]);
        }
    }

    fn metas(&mut self, ms: &[MetaResult]) {
        for m in ms {
            let status = m.result.is_err() as u64;
            self.add([m.token, status, 0, m.start.ps(), m.end.ps()]);
        }
    }

    /// A repair task's checksum is the bytes it moved.
    fn repairs(&mut self, rs: &[RepairResult]) {
        for r in rs {
            let status = r.status as u64;
            self.add([r.token, status, r.bytes_moved, r.start.ps(), r.end.ps()]);
        }
    }
}

/// The splitmix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn run_writes(cl: &mut SimCluster, n: usize, done: &mut Completions) {
    cl.start();
    assert_eq!(cl.run_until_writes(n, DEADLINE_MS), n, "writes incomplete");
    let writes = std::mem::take(&mut cl.results.borrow_mut().writes);
    assert!(writes.iter().all(|w| w.status == Status::Ok));
    done.writes(&writes);
}

/// The digest the engine reports and the one the snapshot publishes.
fn digest(cl: &SimCluster) -> u64 {
    let d = cl.engine.order_digest();
    assert_eq!(
        cl.metrics_snapshot().counter("engine.order_digest"),
        Some(d),
        "snapshot must publish the engine's digest"
    );
    d
}

/// 4 clients x window 2, 8 x ~64 KiB sPIN-Ring k=4 writes each.
fn spin_ring_k4() -> (u64, u64) {
    let spec = ClusterSpec::new(4, 4, StorageMode::Spin).with_window(2);
    let mut cl = SimCluster::build(spec);
    let policy = FilePolicy::Replicated {
        k: 4,
        strategy: BcastStrategy::Ring,
    };
    let files = files(&cl, 4, policy);
    let sizes = SizeDist::Uniform {
        min: 62 << 10,
        max: 66 << 10,
    };
    let n = submit(&cl, &files, |c, file| {
        Workload::new(file, WriteProtocol::SpinReplicated, sizes.clone())
            .with_writes(8)
            .with_seed(SEED)
            .jobs_for_client(c)
    });
    let mut done = Completions::default();
    run_writes(&mut cl, n, &mut done);
    (digest(&cl), done.0)
}

/// 2 clients x window 2, 3 x ~384 KiB sPIN-TriEC RS(6,3) writes each.
fn spin_triec_rs63() -> (u64, u64) {
    let spec = ClusterSpec::new(2, 9, StorageMode::Spin).with_window(2);
    let mut cl = SimCluster::build(spec);
    let policy = FilePolicy::ErasureCoded {
        scheme: RsScheme::new(6, 3),
    };
    let files = files(&cl, 2, policy);
    let sizes = SizeDist::Uniform {
        min: 372 << 10,
        max: 396 << 10,
    };
    let n = submit(&cl, &files, |c, file| {
        Workload::new(
            file,
            WriteProtocol::SpinTriec { interleave: true },
            sizes.clone(),
        )
        .with_writes(3)
        .with_seed(SEED)
        .jobs_for_client(c)
    });
    let mut done = Completions::default();
    run_writes(&mut cl, n, &mut done);
    (digest(&cl), done.0)
}

/// 2 clients x window 2: 16 RS(3,2) stripes preloaded each, one data
/// node marked failed, then 24 offloaded 64 KiB reads each (cache off).
fn offloaded_degraded_rs32() -> (u64, u64) {
    let spec = ClusterSpec::new(2, 6, StorageMode::Spin).with_window(2);
    let mut cl = SimCluster::build_with(spec, |app| app.read_cache_enabled = false);
    let policy = FilePolicy::ErasureCoded {
        scheme: RsScheme::new(3, 2),
    };
    let files = files(&cl, 2, policy);
    let stripes = SizeDist::Uniform {
        min: 64 << 10,
        max: 66 << 10,
    };
    let n = submit(&cl, &files, |c, file| {
        Workload::new(
            file,
            WriteProtocol::SpinTriec { interleave: true },
            stripes.clone(),
        )
        .with_writes(16)
        .with_seed(SEED)
        .jobs_for_client(c)
    });
    let mut done = Completions::default();
    run_writes(&mut cl, n, &mut done);
    let victim = cl.storage_nodes[0] as u32;
    cl.control.borrow_mut().mark_node_failed(victim);
    let n = submit(&cl, &files, |c, file| {
        Workload::new(file, WriteProtocol::Spin, SizeDist::Fixed(64 << 10))
            .with_writes(16)
            .with_reads(24, ReadProtocol::Offloaded)
            .with_read_pattern(ReadPattern::Sequential)
            .with_seed(SEED)
            .jobs_for_client(c)
            .into_iter()
            .filter(|j| matches!(j, Job::Read { .. }))
            .collect()
    });
    cl.start();
    assert_eq!(
        cl.run_until_file_reads(n, DEADLINE_MS),
        n,
        "reads incomplete"
    );
    let reads = std::mem::take(&mut cl.results.borrow_mut().file_reads);
    assert!(reads.iter().all(|r| r.status == Status::Ok));
    done.file_reads(&reads);
    let rebuilt: u64 = cl
        .nic_stats
        .iter()
        .map(|s| s.borrow().chunks_reconstructed)
        .sum();
    assert!(rebuilt > 0, "scenario must exercise NIC reconstruction");
    (digest(&cl), done.0)
}

/// Writes the storage NICs NACKed `Busy` (descriptor exhaustion).
fn denied(cl: &SimCluster) -> u64 {
    let nics = cl.pspin_telemetry.iter().flatten();
    nics.map(|t| t.borrow().msgs_denied).sum()
}

/// Client `c`'s `n` writes of `protocol` to `file`.
fn writes(file: u64, protocol: WriteProtocol, sizes: &SizeDist, n: usize, c: usize) -> Vec<Job> {
    Workload::new(file, protocol, sizes.clone())
        .with_writes(n)
        .with_seed(SEED)
        .jobs_for_client(c)
}

/// 2 clients x window 2 over 6 storage nodes: RS(3,2) stripes plus a
/// k=3 replicated file, one data node marked failed; fan-out reads
/// (one-sided on client 0 with the cache off, RPC on client 1 with
/// cache and readahead on) reconstruct on the client CPU; then the
/// repair driver rebuilds EC shards and clones replicas to spares.
fn client_degraded_reads_then_repair() -> (u64, u64) {
    let spec = ClusterSpec::new(2, 6, StorageMode::Spin).with_window(2);
    let mut first = true;
    let mut cl = SimCluster::build_with(spec, |app| {
        app.read_cache_enabled = !std::mem::take(&mut first);
    });
    let ec = files(
        &cl,
        2,
        FilePolicy::ErasureCoded {
            scheme: RsScheme::new(3, 2),
        },
    );
    let replicated = files(
        &cl,
        1,
        FilePolicy::Replicated {
            k: 3,
            strategy: BcastStrategy::Ring,
        },
    )[0];
    let stripes = SizeDist::Uniform {
        min: 64 << 10,
        max: 66 << 10,
    };
    let triec = WriteProtocol::SpinTriec { interleave: true };
    let mut n = submit(&cl, &ec, |c, file| writes(file, triec, &stripes, 16, c));
    for job in writes(replicated, WriteProtocol::SpinReplicated, &stripes, 6, 0) {
        cl.submit(0, job);
        n += 1;
    }
    let mut done = Completions::default();
    run_writes(&mut cl, n, &mut done);
    // Files are homed round-robin: node 2 holds a data chunk of both EC
    // files and a replica of the third.
    let victim = cl.storage_nodes[2] as u32;
    cl.control.borrow_mut().mark_node_failed(victim);
    // Client 1's writes filled its cache; drop them so its sequential
    // scan misses, overfetches and parks on its own readahead.
    cl.read_caches[1].borrow_mut().clear();
    let n = submit(&cl, &ec, |c, file| {
        let protocol = [ReadProtocol::Rdma, ReadProtocol::Rpc][c];
        Workload::new(file, WriteProtocol::Spin, SizeDist::Fixed(48 << 10))
            .with_writes(16)
            .with_reads(24, protocol)
            .with_read_pattern(ReadPattern::Sequential)
            .with_seed(SEED)
            .jobs_for_client(c)
            .into_iter()
            .filter(|j| matches!(j, Job::Read { .. }))
            .collect()
    });
    cl.start();
    assert_eq!(
        cl.run_until_file_reads(n, DEADLINE_MS),
        n,
        "reads incomplete"
    );
    let reads = std::mem::take(&mut cl.results.borrow_mut().file_reads);
    assert!(reads.iter().all(|r| r.status == Status::Ok));
    done.file_reads(&reads);
    for (c, stats) in cl.client_read_stats.iter().enumerate() {
        assert!(
            stats.borrow().reconstructed_stripes > 0,
            "client {c} must reconstruct on its own CPU"
        );
    }
    let report = RepairDriver::new(0).drain(&mut cl);
    assert!(report.converged(), "{report:?}");
    done.repairs(&report.outcomes);
    let did = |f: fn(&RepairOutcome) -> bool| report.outcomes.iter().any(|r| f(&r.outcome));
    assert!(did(|o| matches!(o, RepairOutcome::Rebuilt { .. })));
    assert!(did(|o| matches!(o, RepairOutcome::Cloned { .. })));
    assert_eq!(denied(&cl), 0, "no Busy retries in a pinned scenario");
    (digest(&cl), done.0)
}

/// One client per baseline protocol at window 2, six ~48 KiB writes
/// each, over the storage mode the protocol needs; then CPU-served RPC
/// reads of what the RpcRdma client stored and a metadata mix with the
/// cache on. The three clusters' digests fold into one value.
fn baseline_protocols_rpc_reads_and_meta() -> (u64, u64) {
    let sizes = SizeDist::Uniform {
        min: 40 << 10,
        max: 56 << 10,
    };
    let replicated = FilePolicy::Replicated {
        k: 3,
        strategy: BcastStrategy::Ring,
    };
    let striped = |cl: &SimCluster, name: &str, width: u32| {
        let mut control = cl.control.borrow_mut();
        control.mkdir_p("/pin", 0).expect("mkdir");
        let spec = LayoutSpec::striped(width, 16 << 10);
        let path = format!("/pin/{name}");
        control
            .create_file_at(&path, spec, FilePolicy::Plain)
            .expect("create")
            .id
    };

    // Plain NICs: the RDMA and CPU baselines.
    let mut cl = SimCluster::build(ClusterSpec::new(6, 4, StorageMode::Plain).with_window(2));
    let plain = files(&cl, 1, FilePolicy::Plain)[0];
    let repl = files(&cl, 3, replicated);
    let plan = [
        (repl[0], WriteProtocol::HyperLoop { chunk: 16 << 10 }),
        (repl[1], WriteProtocol::CpuBcast { chunk: 16 << 10 }),
        (repl[2], WriteProtocol::RdmaFlat),
        (striped(&cl, "rpc", 2), WriteProtocol::Rpc),
        (plain, WriteProtocol::RpcRdma),
        (striped(&cl, "raw", 3), WriteProtocol::Raw),
    ];
    let mut n = 0;
    for (c, &(file, protocol)) in plan.iter().enumerate() {
        for job in writes(file, protocol, &sizes, 6, c) {
            cl.submit(c, job);
            n += 1;
        }
    }
    cl.start();
    assert_eq!(cl.run_until_writes(n, DEADLINE_MS), n, "writes incomplete");
    let written = std::mem::take(&mut cl.results.borrow_mut().writes);
    assert!(written.iter().all(|w| w.status == Status::Ok));
    let mut done = Completions::default();
    done.writes(&written);
    let stored: Vec<_> = written
        .iter()
        .filter(|w| w.protocol == WriteProtocol::RpcRdma)
        .collect();
    for (i, w) in stored.iter().enumerate() {
        cl.submit(
            4,
            Job::Read {
                file: plain,
                offset: w.placement.offset,
                len: w.size,
                protocol: ReadProtocol::Rpc,
                token: i as u64,
                slot: None,
            },
        );
    }
    let meta = MetaWorkload::new("/pin/meta")
        .with_dirs(2, 4)
        .with_storm(24)
        .with_seed(SEED);
    meta.prepare(&cl.control);
    for c in 0..2 {
        for job in meta.jobs_for_client(c) {
            cl.submit(c, job);
        }
    }
    let n_meta = 2 * meta.ops_per_client();
    cl.start();
    assert_eq!(
        cl.run_until_metas(n_meta, DEADLINE_MS),
        n_meta,
        "metadata ops incomplete"
    );
    cl.run_ms(1);
    {
        let results = cl.results.borrow();
        assert!(results.metas.iter().all(|m| m.result.is_ok()));
        assert!(results.metas.iter().any(|m| m.cache_hit));
        let reads = &results.file_reads;
        assert_eq!(reads.len(), stored.len(), "RPC reads incomplete");
        for r in reads {
            assert_eq!(r.status, Status::Ok);
            assert_eq!(r.checksum, stored[r.token as usize].checksum);
        }
        done.metas(&results.metas);
        done.file_reads(reads);
    }
    let plain_digest = digest(&cl);

    // PsPIN NICs: a width-3 striped layout through the handlers.
    let mut cl = SimCluster::build(ClusterSpec::new(1, 3, StorageMode::Spin).with_window(2));
    let jobs = writes(striped(&cl, "spin", 3), WriteProtocol::Spin, &sizes, 6, 0);
    let n = submit(&cl, &[0], |_, _| jobs.clone());
    run_writes(&mut cl, n, &mut done);
    assert_eq!(denied(&cl), 0, "no Busy retries in a pinned scenario");
    let spin_digest = digest(&cl);

    // Firmware EC engines: per-chunk INEC-TriEC.
    let mut cl = SimCluster::build(ClusterSpec::new(1, 5, StorageMode::FirmwareEc).with_window(2));
    let ec = files(
        &cl,
        1,
        FilePolicy::ErasureCoded {
            scheme: RsScheme::new(3, 2),
        },
    );
    let n = submit(&cl, &ec, |c, file| {
        writes(file, WriteProtocol::InecTriec, &sizes, 6, c)
    });
    run_writes(&mut cl, n, &mut done);
    let order = plain_digest ^ spin_digest.rotate_left(21) ^ digest(&cl).rotate_left(42);
    (order, done.0)
}

#[test]
fn spin_ring_k4_order_is_pinned() {
    let (order, done) = spin_ring_k4();
    assert_eq!(
        done, 2_322_446_374_321_474_479,
        "sPIN-Ring k=4 completions moved"
    );
    assert_eq!(
        order, 16_226_185_618_582_678_261,
        "sPIN-Ring k=4 dispatch order moved"
    );
}

#[test]
fn spin_triec_rs63_order_is_pinned() {
    let (order, done) = spin_triec_rs63();
    assert_eq!(
        done, 7_142_380_173_105_057_540,
        "sPIN-TriEC RS(6,3) completions moved"
    );
    assert_eq!(
        order, 9_109_671_641_781_976_520,
        "sPIN-TriEC RS(6,3) dispatch order moved"
    );
}

#[test]
fn offloaded_degraded_rs32_order_is_pinned() {
    let (order, done) = offloaded_degraded_rs32();
    assert_eq!(
        done, 3_647_600_493_982_435_447,
        "offloaded degraded RS(3,2) read completions moved"
    );
    assert_eq!(
        order, 16_524_738_864_415_821_072,
        "offloaded degraded RS(3,2) read dispatch order moved"
    );
}

#[test]
fn client_degraded_reads_then_repair_order_is_pinned() {
    let (order, done) = client_degraded_reads_then_repair();
    assert_eq!(
        done, 4_785_299_373_038_214_910,
        "client-side degraded read / repair completions moved"
    );
    assert_eq!(
        order, 18_263_846_395_364_643_951,
        "client-side degraded read / repair dispatch order moved"
    );
}

#[test]
fn baseline_protocols_rpc_reads_and_meta_order_is_pinned() {
    let (order, done) = baseline_protocols_rpc_reads_and_meta();
    assert_eq!(
        done, 14_660_935_127_356_910_273,
        "baseline-protocol / RPC-read / metadata completions moved"
    );
    assert_eq!(
        order, 9_272_150_818_722_624_372,
        "baseline-protocol / RPC-read / metadata dispatch order moved"
    );
}
