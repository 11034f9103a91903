//! Experiment runners: the write-latency and goodput procedures the
//! paper's figures, the benchmark's anchors and the calibration tests share.
//!
//! Each function builds a fresh deterministic cluster, drives the workload
//! the paper describes, and extracts the series the figures plot.

use nadfs_wire::{BcastStrategy, Status};

use crate::client::{Job, WriteProtocol};
use crate::cluster::{ClusterSpec, SimCluster, StorageMode};
use crate::config::CostModel;
use crate::control::FilePolicy;

/// Storage mode a protocol requires.
pub fn mode_for(protocol: WriteProtocol) -> StorageMode {
    match protocol {
        WriteProtocol::Spin | WriteProtocol::SpinReplicated | WriteProtocol::SpinTriec { .. } => {
            StorageMode::Spin
        }
        WriteProtocol::InecTriec => StorageMode::FirmwareEc,
        _ => StorageMode::Plain,
    }
}

/// Storage nodes a policy requires.
pub fn nodes_for(policy: &FilePolicy) -> usize {
    match policy {
        FilePolicy::Plain => 1,
        FilePolicy::Replicated { k, .. } => *k as usize,
        FilePolicy::ErasureCoded { scheme } => (scheme.k + scheme.m) as usize,
    }
}

/// Measure the latency of a single write (median of `reps` back-to-back
/// writes, window 1 — §IV: "time spanning from issuing the write request
/// to receiving the respective write response").
pub fn write_latency_us(
    protocol: WriteProtocol,
    policy: FilePolicy,
    size: u32,
    cost: &CostModel,
    reps: usize,
) -> f64 {
    let spec = ClusterSpec::new(1, nodes_for(&policy), mode_for(protocol)).with_cost(cost.clone());
    let mut c = SimCluster::build(spec);
    let file = c.control.borrow_mut().create_file(0, policy);
    for i in 0..reps {
        c.submit(
            0,
            Job::Write {
                file: file.id,
                size,
                protocol,
                seed: i as u64,
            },
        );
    }
    c.start();
    let done = c.run_until_writes(reps, 30_000);
    assert_eq!(done, reps, "{protocol:?} @{size}B: writes incomplete");
    let mut lat: Vec<f64> = c
        .results
        .borrow()
        .writes
        .iter()
        .map(|r| {
            assert_eq!(r.status, Status::Ok, "{protocol:?}");
            (r.end - r.start).as_us()
        })
        .collect();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    lat[lat.len() / 2]
}

/// Chunk sizes tried when the paper says "optimal chunk size" (§V-B).
pub const CHUNK_CANDIDATES: [u32; 6] =
    [8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10];

/// Sustained goodput of the primary storage node (Fig 9 right): one client
/// keeps `window` writes outstanding; goodput is payload delivered over the
/// span between the first start and the last completion.
pub fn storage_goodput_gbit(
    protocol: WriteProtocol,
    policy: FilePolicy,
    size: u32,
    cost: &CostModel,
    n_writes: usize,
    window: usize,
) -> f64 {
    let spec = ClusterSpec::new(1, nodes_for(&policy), mode_for(protocol))
        .with_cost(cost.clone())
        .with_window(window);
    let mut c = SimCluster::build(spec);
    let file = c.control.borrow_mut().create_file(0, policy);
    for i in 0..n_writes {
        c.submit(
            0,
            Job::Write {
                file: file.id,
                size,
                protocol,
                seed: i as u64,
            },
        );
    }
    c.start();
    let done = c.run_until_writes(n_writes, 60_000);
    assert_eq!(done, n_writes, "{protocol:?} goodput run incomplete");
    let results = c.results.borrow();
    let start = results
        .writes
        .iter()
        .map(|r| r.start)
        .min()
        .expect("nonempty");
    let end = results
        .writes
        .iter()
        .map(|r| r.end)
        .max()
        .expect("nonempty");
    let bytes: u64 = results.writes.iter().map(|r| r.size as u64).sum();
    nadfs_simnet::achieved_gbit_per_sec(bytes, end - start)
}

/// Replication-policy point for Figs 9/10: latency for a given strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplStrategy {
    CpuRing,
    CpuPbt,
    RdmaFlat,
    HyperLoop,
    SpinRing,
    SpinPbt,
}

impl ReplStrategy {
    pub const ALL: [ReplStrategy; 6] = [
        ReplStrategy::HyperLoop,
        ReplStrategy::CpuRing,
        ReplStrategy::CpuPbt,
        ReplStrategy::RdmaFlat,
        ReplStrategy::SpinRing,
        ReplStrategy::SpinPbt,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ReplStrategy::CpuRing => "CPU-Ring",
            ReplStrategy::CpuPbt => "CPU-PBT",
            ReplStrategy::RdmaFlat => "RDMA-Flat",
            ReplStrategy::HyperLoop => "RDMA-HyperLoop",
            ReplStrategy::SpinRing => "sPIN-Ring",
            ReplStrategy::SpinPbt => "sPIN-PBT",
        }
    }

    pub fn policy(self, k: u8) -> FilePolicy {
        let strategy = match self {
            ReplStrategy::CpuPbt | ReplStrategy::SpinPbt => BcastStrategy::Pbt,
            _ => BcastStrategy::Ring,
        };
        FilePolicy::Replicated { k, strategy }
    }

    pub fn protocol(self) -> WriteProtocol {
        match self {
            ReplStrategy::CpuRing | ReplStrategy::CpuPbt => {
                WriteProtocol::CpuBcast { chunk: 64 << 10 }
            }
            ReplStrategy::RdmaFlat => WriteProtocol::RdmaFlat,
            ReplStrategy::HyperLoop => WriteProtocol::HyperLoop { chunk: 64 << 10 },
            ReplStrategy::SpinRing | ReplStrategy::SpinPbt => WriteProtocol::SpinReplicated,
        }
    }
}

/// Replication write latency (Figs 9/10). The chunked protocols (CPU
/// forwarding, HyperLoop) run at the best of [`CHUNK_CANDIDATES`] for the
/// point, as the paper's "optimal chunk size" does (§V-B).
pub fn replication_latency_us(strategy: ReplStrategy, k: u8, size: u32, cost: &CostModel) -> f64 {
    let latency = |protocol| write_latency_us(protocol, strategy.policy(k), size, cost, 3);
    let best = |chunked: fn(u32) -> WriteProtocol| {
        CHUNK_CANDIDATES
            .iter()
            .filter(|&&chunk| chunk <= size.max(8 << 10))
            .map(|&chunk| latency(chunked(chunk)))
            .fold(f64::INFINITY, f64::min)
    };
    match strategy.protocol() {
        WriteProtocol::HyperLoop { .. } => best(|chunk| WriteProtocol::HyperLoop { chunk }),
        WriteProtocol::CpuBcast { .. } => best(|chunk| WriteProtocol::CpuBcast { chunk }),
        p => latency(p),
    }
}
