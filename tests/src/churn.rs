//! Deterministic long-horizon churn: the "week in production" scenario
//! engine (ROADMAP item 5).
//!
//! One seeded run composes every subsystem the repo has grown — mixed
//! plain/striped/replicated/erasure-coded files, concurrent
//! sequential/zipfian/uniform readers over cached, RPC, and offloaded
//! read protocols, a rolling failure/recovery schedule with repair
//! storms under the windowed bandwidth cap, rename/unlink storms, and a
//! background tenant keeping QoS pressure on the storage nodes — and
//! checkpoints every K steps against global invariants:
//!
//! * every live byte readable **non-degraded** after recovery + drain
//!   and byte-identical to an in-memory shadow model;
//! * hosted-capacity gauges conserved against the extent maps (the
//!   node-recovery reconciliation invariant);
//! * flow-control credits conserved on every NIC at quiesce;
//! * buffer pools internally consistent and retention-bounded;
//! * zero open spans and zero dropped spans at every checkpoint (the
//!   closed ring is drained windowed, so the invariant holds at
//!   arbitrary horizon).
//!
//! Everything is driven off one `SplitMix` seed ([`ChurnConfig::seed`],
//! fed from `NADFS_FAULT_SEED` in CI): two runs with the same seed
//! produce the same event log and digest, so a failing horizon
//! reproduces from its seed alone.

use std::collections::HashMap;

use nadfs_core::{
    ClusterSpec, FileHandle, FilePolicy, FsClient, LayoutSpec, QosConfig, ReadPattern,
    ReadProtocol, RepairDriver, RepairReport, SimCluster, SizeDist, StorageMode, Workload,
};
use nadfs_simnet::Dur;
use nadfs_wire::{BcastStrategy, RsScheme};

use crate::{
    assert_bytes_converged, assert_flow_conserved, assert_hosted_conserved, assert_pool_hygiene,
    drain_spans, dump_trace_if_requested, SplitMix,
};

/// Knobs of one churn run. Defaults come from [`ChurnConfig::smoke`]
/// (CI-sized) and [`ChurnConfig::long`] (the ≥10k-op acceptance run).
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    pub seed: u64,
    /// Mixed churn steps after the initial population.
    pub ops: usize,
    /// Files created before the churn starts (population phase).
    pub initial_files: usize,
    /// Cap on live files (creates convert to appends at the cap).
    pub max_files: usize,
    /// Per-file byte cap (appends past it convert to overwrites).
    pub max_file_bytes: usize,
    /// Checkpoint the global invariants every K steps.
    pub checkpoint_every: usize,
    /// Rolling failure/recovery waves spread across the horizon.
    pub failure_waves: usize,
    /// Nodes allowed down simultaneously (2 exercises the
    /// too-many-failures paths of RS(2,1) / k=2 replication).
    pub max_concurrent_failures: usize,
    /// Windowed bandwidth cap for mid-outage repair storms.
    pub storm_bandwidth_cap: Option<u64>,
    /// Drain the closed-span ring every K ops (the windowed telemetry
    /// export; must outpace span production or the 4096-cap ring
    /// overflows and the `dropped == 0` invariant fails).
    pub span_drain_every: usize,
    /// Background-tenant ops (writes and reads each) per injection.
    pub background_ops: usize,
    pub n_storage: usize,
}

impl ChurnConfig {
    /// CI-sized horizon: minutes of simulated churn in a debug-build
    /// test, still covering ≥3 waves and several checkpoints.
    pub fn smoke(seed: u64) -> ChurnConfig {
        ChurnConfig {
            seed,
            ops: 1200,
            initial_files: 36,
            max_files: 72,
            max_file_bytes: 32 << 10,
            checkpoint_every: 300,
            failure_waves: 3,
            max_concurrent_failures: 2,
            storm_bandwidth_cap: Some(96 << 10),
            span_drain_every: 150,
            background_ops: 12,
            n_storage: 6,
        }
    }

    /// The acceptance horizon: ≥10k mixed ops over thousands of files
    /// with rolling waves. Run in release (`--ignored` test).
    pub fn long(seed: u64) -> ChurnConfig {
        ChurnConfig {
            seed,
            ops: 10_000,
            initial_files: 1500,
            max_files: 2200,
            max_file_bytes: 32 << 10,
            checkpoint_every: 2000,
            failure_waves: 4,
            max_concurrent_failures: 2,
            storm_bandwidth_cap: Some(256 << 10),
            span_drain_every: 300,
            background_ops: 24,
            n_storage: 6,
        }
    }
}

/// What one churn run did and found — deterministic per seed: two runs
/// with the same config produce identical `log` and `digest`.
#[derive(Clone, Debug, Default)]
pub struct ChurnReport {
    pub seed: u64,
    pub ops: usize,
    pub checkpoints: u64,
    pub creates: u64,
    pub appends: u64,
    pub overwrites: u64,
    pub reads: u64,
    pub renames: u64,
    pub replaces: u64,
    pub unlinks: u64,
    pub failures: u64,
    pub recoveries: u64,
    pub storms: u64,
    /// Reads that failed while a node was down (legal: plain extents
    /// have no redundancy; double failures exceed RS(2,1)).
    pub read_errors_during_outage: u64,
    pub repairs_committed: u64,
    pub repair_gave_up: u64,
    pub stale_chunks_reclaimed: u64,
    pub shards_readopted: u64,
    pub dropped_on_recovery: u64,
    pub spans_drained: u64,
    /// Order-sensitive digest folded over every event — the cheap
    /// determinism witness.
    pub digest: u64,
    /// Wave/checkpoint event log (compact; per-op events fold into the
    /// digest instead).
    pub log: Vec<String>,
}

impl ChurnReport {
    fn fold(&mut self, v: u64) {
        self.digest = self.digest.rotate_left(7) ^ v;
    }
}

struct LiveFile {
    path: String,
    handle: FileHandle,
    shadow: Vec<u8>,
    /// Forward-scan cursor for files assigned the sequential pattern.
    seq_cursor: u64,
}

enum Sched {
    Fail,
    Recover,
    Storm,
}

/// Seeded payload bytes (distinct per (seed, op)).
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

fn policy_for(i: usize) -> (FilePolicy, LayoutSpec) {
    match i % 4 {
        0 => (FilePolicy::Plain, LayoutSpec::SINGLE),
        1 => (FilePolicy::Plain, LayoutSpec::striped(2, 8192)),
        2 => (
            FilePolicy::Replicated {
                k: 2,
                strategy: BcastStrategy::Ring,
            },
            LayoutSpec::SINGLE,
        ),
        _ => (
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(2, 1),
            },
            LayoutSpec::SINGLE,
        ),
    }
}

/// Drive the engine until its event queue drains (all in-flight traffic,
/// foreground and background, has completed).
fn quiesce(fsc: &mut FsClient) {
    fsc.cluster.start();
    for _ in 0..20_000 {
        let t = fsc.cluster.engine.now() + Dur::from_ms(1);
        if fsc.cluster.engine.run_until(t) {
            return;
        }
    }
    panic!("churn: cluster failed to quiesce");
}

/// Run one seeded churn scenario to completion, panicking on the first
/// violated invariant. See the module docs for what is checked.
pub fn run_churn(cfg: &ChurnConfig) -> ChurnReport {
    let mut report = ChurnReport {
        seed: cfg.seed,
        ops: cfg.ops,
        ..ChurnReport::default()
    };
    let mut rng = SplitMix::new(cfg.seed);

    let qos = QosConfig {
        enabled: true,
        weights: vec![(1, 3), (2, 1)],
        ..QosConfig::default()
    };
    let spec = ClusterSpec::new(2, cfg.n_storage, StorageMode::Spin)
        .with_window(4)
        .with_qos(qos)
        // Multi-shard metadata plane: churn's rename/unlink mix crosses
        // shards, so the long horizon also soaks the 2PC/op-log paths.
        .with_meta_shards(4);
    let cluster = SimCluster::build(spec);
    cluster.set_client_tenant(0, 1);
    cluster.set_client_tenant(1, 2);
    let mut fsc = FsClient::for_client(cluster, 0);
    fsc.mkdir_p("/churn").expect("churn root");

    // Background tenant: its own replicated file hammered by an async
    // workload on client 1 — QoS pressure that overlaps every phase.
    let bg = fsc
        .create_with_policy(
            "/churn/bg",
            LayoutSpec::SINGLE,
            FilePolicy::Replicated {
                k: 2,
                strategy: BcastStrategy::Ring,
            },
        )
        .expect("bg file");
    let background = Workload::new(
        bg.id(),
        bg.write_protocol,
        SizeDist::Uniform {
            min: 2048,
            max: 8192,
        },
    )
    .with_writes(cfg.background_ops)
    .with_reads(cfg.background_ops, ReadProtocol::Rdma)
    .with_read_pattern(ReadPattern::Zipfian { exponent: 2.0 })
    .with_seed(cfg.seed ^ 0xB6);
    let inject_background = |fsc: &mut FsClient| {
        if fsc.cluster.plans[1].borrow().is_empty() {
            for job in background.jobs_for_client(1) {
                fsc.cluster.submit(1, job);
            }
        }
    };

    // Population: mixed-policy files with small seeded initial contents.
    let mut live: Vec<LiveFile> = Vec::new();
    let mut name_counter = 0usize;
    for i in 0..cfg.initial_files {
        let (policy, layout) = policy_for(i);
        let path = format!("/churn/f{name_counter}");
        name_counter += 1;
        let handle = fsc
            .create_with_policy(&path, layout, policy)
            .expect("populate create");
        let len = 1024 + (rng.next_u64() as usize % 7168);
        let data = payload(cfg.seed ^ (i as u64), len);
        fsc.append(&handle, &data).expect("populate append");
        live.push(LiveFile {
            path,
            handle,
            shadow: data,
            seq_cursor: 0,
        });
    }
    inject_background(&mut fsc);

    // Rolling failure schedule, precomputed so it is part of the seed's
    // identity rather than emergent from op outcomes.
    let mut schedule: HashMap<usize, Vec<Sched>> = HashMap::new();
    let period = (cfg.ops / cfg.failure_waves.max(1)).max(6);
    for w in 0..cfg.failure_waves {
        let base = w * period;
        let mut at = |off: usize, s: Sched| schedule.entry(base + off).or_default().push(s);
        at(period / 6, Sched::Fail);
        if cfg.max_concurrent_failures >= 2 && w % 2 == 1 {
            at(period / 3, Sched::Fail);
        }
        at(period / 2, Sched::Storm);
        at(2 * period / 3, Sched::Recover);
        at(5 * period / 6, Sched::Recover);
    }

    let mut failed_idxs: Vec<usize> = Vec::new();

    for op in 0..cfg.ops {
        // --- scripted wave events -----------------------------------
        for s in schedule.remove(&op).unwrap_or_default() {
            match s {
                Sched::Fail => {
                    if failed_idxs.len() >= cfg.max_concurrent_failures {
                        continue;
                    }
                    let healthy: Vec<usize> = (0..cfg.n_storage)
                        .filter(|i| !failed_idxs.contains(i))
                        .collect();
                    let idx = *rng.pick(&healthy);
                    fsc.fail_storage_node(idx);
                    failed_idxs.push(idx);
                    report.failures += 1;
                    report.fold(0xFA17 ^ idx as u64);
                    report.log.push(format!("op {op}: fail node {idx}"));
                }
                Sched::Recover => {
                    if failed_idxs.is_empty() {
                        continue;
                    }
                    let idx = failed_idxs.remove(0);
                    fsc.recover_storage_node(idx);
                    report.recoveries += 1;
                    report.fold(0x4EC0 ^ idx as u64);
                    report.log.push(format!("op {op}: recover node {idx}"));
                }
                Sched::Storm => {
                    // Mid-outage repair storm under the windowed
                    // bandwidth cap: re-homes what it can (creating
                    // orphans on the dead nodes), gives up on what it
                    // can't (double failures, plain extents). Stepped
                    // rather than drained in one go so the span ring can
                    // be harvested mid-storm — a big backlog otherwise
                    // overflows the 4096-entry ring all by itself.
                    let mut driver = RepairDriver::new(0);
                    driver.bandwidth_cap = cfg.storm_bandwidth_cap;
                    let mut storm = RepairReport::default();
                    while let Some(r) = driver.step(&mut fsc.cluster) {
                        driver.tally(&mut storm, r);
                        if storm.outcomes.len() % 256 == 0 {
                            report.spans_drained += drain_spans(&fsc.cluster).len() as u64;
                        }
                    }
                    let (repaired, gave_up) = (storm.repaired as u64, storm.gave_up as u64);
                    report.storms += 1;
                    report.repairs_committed += repaired;
                    report.repair_gave_up += gave_up;
                    report.spans_drained += drain_spans(&fsc.cluster).len() as u64;
                    report.fold(0x5702 ^ (repaired << 16) ^ gave_up);
                    report.log.push(format!(
                        "op {op}: storm repaired={repaired} gave_up={gave_up} throttled_ms={}",
                        driver.throttled_ms()
                    ));
                }
            }
        }

        // --- windowed telemetry export ------------------------------
        // The metrics exporter's cadence: harvest closed spans often
        // enough that the ring never evicts (satellite of ROADMAP 5).
        if op % cfg.span_drain_every == 0 {
            report.spans_drained += drain_spans(&fsc.cluster).len() as u64;
        }

        // --- one mixed churn op -------------------------------------
        let outage = !failed_idxs.is_empty();
        let roll = rng.below(100);
        if live.len() < 4 || (roll < 5 && live.len() < cfg.max_files) {
            // create
            let (policy, layout) = policy_for(name_counter);
            let path = format!("/churn/f{name_counter}");
            name_counter += 1;
            let handle = fsc
                .create_with_policy(&path, layout, policy)
                .expect("churn create");
            let data = payload(cfg.seed ^ (op as u64) << 1, 1024 + rng.below(4096));
            fsc.append(&handle, &data).expect("churn first append");
            live.push(LiveFile {
                path,
                handle,
                shadow: data,
                seq_cursor: 0,
            });
            report.creates += 1;
            report.fold(0xC4EA ^ op as u64);
        } else if roll < 35 {
            // append (or overwrite at the size cap)
            let i = rng.below(live.len());
            let len = 1 + rng.below(16 << 10);
            let data = payload(cfg.seed ^ (op as u64) << 2, len);
            let f = &mut live[i];
            if f.shadow.len() + len <= cfg.max_file_bytes {
                fsc.append(&f.handle, &data).expect("churn append");
                f.shadow.extend_from_slice(&data);
                report.appends += 1;
            } else {
                let off = rng.below(f.shadow.len()) as u64;
                fsc.write_at(&f.handle, off, &data).expect("churn pwrite");
                let end = off as usize + len;
                if end > f.shadow.len() {
                    f.shadow.resize(end, 0);
                }
                f.shadow[off as usize..end].copy_from_slice(&data);
                report.overwrites += 1;
            }
            report.fold(0xA99E ^ (i as u64) << 32 ^ len as u64);
        } else if roll < 50 {
            // overwrite in place
            let i = rng.below(live.len());
            let f = &mut live[i];
            let len = (1 + rng.below(8 << 10)).min(f.shadow.len());
            let off = rng.below(f.shadow.len() - len + 1) as u64;
            let data = payload(cfg.seed ^ (op as u64) << 3, len);
            fsc.write_at(&f.handle, off, &data)
                .expect("churn overwrite");
            f.shadow[off as usize..off as usize + len].copy_from_slice(&data);
            report.overwrites += 1;
            report.fold(0x0E44 ^ (off << 20) ^ len as u64);
        } else if roll < 80 {
            // read: zipfian file popularity, mixed protocols+patterns
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let i = ((u * u) * live.len() as f64) as usize;
            let i = i.min(live.len() - 1);
            let f = &mut live[i];
            let len = (1 + rng.below(8 << 10)).min(f.shadow.len());
            let off = if i.is_multiple_of(3) {
                // sequential stream with wrap
                if f.seq_cursor as usize + len > f.shadow.len() {
                    f.seq_cursor = 0;
                }
                let o = f.seq_cursor;
                f.seq_cursor += len as u64;
                o
            } else {
                rng.below(f.shadow.len() - len + 1) as u64
            };
            let proto = match op % 3 {
                0 => ReadProtocol::Rdma,
                1 => ReadProtocol::Rpc,
                _ => ReadProtocol::Offloaded,
            };
            let h = f.handle.clone().with_read_protocol(proto);
            match fsc.read_at(&h, off, len as u32) {
                Ok(r) => {
                    assert_eq!(r.len as usize, len, "churn read came back short");
                    assert_eq!(
                        &r.data[..],
                        &f.shadow[off as usize..off as usize + len],
                        "op {op}: read of {} diverged from the shadow model (off={off} len={len} proto={proto:?} degraded={})",
                        f.path,
                        r.degraded_stripes,
                    );
                    report.fold(0x4EAD ^ r.checksum);
                }
                Err(e) => {
                    assert!(
                        outage,
                        "op {op}: read of {} failed with all nodes healthy: {e}",
                        f.path
                    );
                    report.read_errors_during_outage += 1;
                    report.fold(0x4EAD ^ 0xE44);
                }
            }
            report.reads += 1;
        } else if roll < 88 {
            // rename: fresh name, or a POSIX replace onto a victim
            let i = rng.below(live.len());
            let now = fsc.cluster.engine.now().as_ns() as u64;
            if rng.below(10) < 3 && live.len() > 4 {
                let mut v = rng.below(live.len());
                if v == i {
                    v = (v + 1) % live.len();
                }
                let from = live[i].path.clone();
                let to = live[v].path.clone();
                fsc.cluster
                    .control
                    .borrow_mut()
                    .rename(&from, &to, now)
                    .expect("churn replace");
                live[i].path = to;
                live.swap_remove(v);
                report.replaces += 1;
                report.fold(0x4E9A ^ op as u64);
            } else {
                let from = live[i].path.clone();
                let to = format!("/churn/f{name_counter}");
                name_counter += 1;
                fsc.cluster
                    .control
                    .borrow_mut()
                    .rename(&from, &to, now)
                    .expect("churn rename");
                live[i].path = to;
                report.renames += 1;
                report.fold(0x4E4E ^ op as u64);
            }
        } else if roll < 93 && live.len() > 4 {
            // unlink
            let i = rng.below(live.len());
            let now = fsc.cluster.engine.now().as_ns() as u64;
            let path = live[i].path.clone();
            fsc.cluster
                .control
                .borrow_mut()
                .unlink(&path, now)
                .expect("churn unlink");
            live.swap_remove(i);
            report.unlinks += 1;
            report.fold(0x0D1E ^ op as u64);
        } else {
            // keep the mix full-width even when guards skip a bucket
            let i = rng.below(live.len());
            let data = payload(cfg.seed ^ (op as u64) << 4, 512);
            let f = &mut live[i];
            let off = rng.below(f.shadow.len().max(1)).min(f.shadow.len()) as u64;
            fsc.write_at(&f.handle, off, &data).expect("churn fill");
            let end = off as usize + data.len();
            if end > f.shadow.len() {
                f.shadow.resize(end, 0);
            }
            f.shadow[off as usize..end].copy_from_slice(&data);
            report.overwrites += 1;
            report.fold(0xF111 ^ op as u64);
        }

        // --- checkpoint ---------------------------------------------
        let last = op + 1 == cfg.ops;
        if (op > 0 && op % cfg.checkpoint_every == 0) || last {
            let ctx = format!("seed {:#x} op {op}", cfg.seed);
            // 1. End the outage: every failed node comes back and the
            //    control plane reconciles (GC + re-adopt + queue purge).
            while let Some(idx) = failed_idxs.pop() {
                fsc.recover_storage_node(idx);
                report.recoveries += 1;
                report
                    .log
                    .push(format!("op {op}: checkpoint recover node {idx}"));
            }
            // With no failed nodes left, reconciliation must have left
            // the repair queue empty — a nonzero backlog here is the
            // recovery leak.
            assert_eq!(
                fsc.repair_backlog(),
                0,
                "[{ctx}] repair backlog survived full recovery"
            );
            // 2. Quiesce: background + in-flight traffic completes.
            quiesce(&mut fsc);
            // 3. Every live byte readable non-degraded and identical to
            //    the shadow model.
            for f in &live {
                let shadow = f.shadow.clone();
                assert_bytes_converged(&mut fsc, &f.handle, &shadow, &ctx);
            }
            quiesce(&mut fsc);
            // 4. Global conservation invariants.
            assert_hosted_conserved(&fsc.cluster, &ctx);
            assert_flow_conserved(&fsc.cluster, &ctx);
            assert_pool_hygiene(&fsc.cluster, &ctx);
            {
                let hub = fsc.cluster.obs.borrow();
                assert_eq!(
                    hub.spans.open_count(),
                    0,
                    "[{ctx}] op spans leaked across checkpoint"
                );
                assert_eq!(
                    hub.spans.dropped(),
                    0,
                    "[{ctx}] span ring overflowed between checkpoints"
                );
            }
            // 5. Windowed span drain: the ring starts empty again, so
            //    `dropped == 0` stays reachable at any horizon.
            report.spans_drained += drain_spans(&fsc.cluster).len() as u64;
            report.checkpoints += 1;
            report.fold(0xC8EC ^ op as u64);
            report
                .log
                .push(format!("op {op}: checkpoint ok ({} files)", live.len()));
            if !last {
                inject_background(&mut fsc);
            }
        }
    }

    // Final accounting from the cluster's own ledgers.
    {
        let stats = fsc.cluster.control.borrow().repair_queue.stats;
        report.dropped_on_recovery = stats.dropped_on_recovery;
        report.shards_readopted = stats.shards_readopted;
        let control = fsc.cluster.control.borrow();
        report.stale_chunks_reclaimed = control
            .node_ledgers()
            .map(|l| l.stale_chunks_reclaimed)
            .sum();
    }
    let _ = dump_trace_if_requested(&fsc, &format!("churn-seed-{:x}", cfg.seed));
    report
}
