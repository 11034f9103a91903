//! Determinism as an assertion: the engine folds every dispatched
//! `(time, target, seq)` into `Engine::order_digest()`, and three seeded
//! scenarios pin its value. The constants were recorded on the
//! `BinaryHeap<Reverse<Scheduled>>` engine that preceded the tiered
//! queue; any change to the engine, the fabric, the NIC, the PsPIN device
//! or the handlers that reorders, adds or drops a single event moves them.

use nadfs_core::{
    ClusterSpec, FilePolicy, Job, ReadPattern, ReadProtocol, SimCluster, SizeDist, StorageMode,
    Workload, WriteProtocol,
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

fn run_writes(cl: &mut SimCluster, n: usize) {
    cl.start();
    assert_eq!(cl.run_until_writes(n, DEADLINE_MS), n, "writes incomplete");
    let writes = std::mem::take(&mut cl.results.borrow_mut().writes);
    assert!(writes.iter().all(|w| w.status == Status::Ok));
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
fn spin_ring_k4() -> u64 {
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
    run_writes(&mut cl, n);
    digest(&cl)
}

/// 2 clients x window 2, 3 x ~384 KiB sPIN-TriEC RS(6,3) writes each.
fn spin_triec_rs63() -> u64 {
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
    run_writes(&mut cl, n);
    digest(&cl)
}

/// 2 clients x window 2: 16 RS(3,2) stripes preloaded each, one data
/// node marked failed, then 24 offloaded 64 KiB reads each (cache off).
fn offloaded_degraded_rs32() -> u64 {
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
    run_writes(&mut cl, n);
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
    let rebuilt: u64 = cl
        .nic_stats
        .iter()
        .map(|s| s.borrow().chunks_reconstructed)
        .sum();
    assert!(rebuilt > 0, "scenario must exercise NIC reconstruction");
    digest(&cl)
}

#[test]
fn spin_ring_k4_order_is_pinned() {
    assert_eq!(
        spin_ring_k4(),
        10_703_794_446_515_442_884,
        "sPIN-Ring k=4 dispatch order moved"
    );
}

#[test]
fn spin_triec_rs63_order_is_pinned() {
    assert_eq!(
        spin_triec_rs63(),
        18_374_524_656_414_646_274,
        "sPIN-TriEC RS(6,3) dispatch order moved"
    );
}

#[test]
fn offloaded_degraded_rs32_order_is_pinned() {
    assert_eq!(
        offloaded_degraded_rs32(),
        13_975_960_838_316_632_043,
        "offloaded degraded RS(3,2) read dispatch order moved"
    );
}
