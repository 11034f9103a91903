//! Shared test support: the deterministic fault-injection harness.
//!
//! A [`FaultPlan`] scripts node kills (and recoveries) at well-defined
//! points of a workload — after the Nth write, after the Nth read, after
//! the Nth repair task — with any "pick a victim" decision drawn from a
//! seeded generator, so a failing interleaving reproduces from its seed
//! alone. The CI matrix runs the fault suite under several fixed seeds
//! (`NADFS_FAULT_SEED`) so scheduling-order regressions reproduce
//! deterministically.
//!
//! The harness deliberately drives the public surfaces only — `FsClient`
//! for I/O, [`RepairDriver`] for queue drains — so the injected faults
//! exercise the exact paths production callers would hit.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_core::{
    ClusterSpec, FileHandle, FilePolicy, FsClient, Job, LayoutSpec, NodeLedger, RepairDriver,
    RepairReport, RepairResult, SimCluster, StorageMode, WriteResult, WriteSlot,
};
use nadfs_simnet::Dur;
use nadfs_wire::RsScheme;

pub mod churn;

/// The fault-suite seed: `NADFS_FAULT_SEED` when set (the CI matrix), a
/// fixed default otherwise — never wall-clock, never process entropy.
pub fn seed_from_env() -> u64 {
    std::env::var("NADFS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD00D_F00D)
}

/// Tiny deterministic generator (splitmix64) for victim selection.
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform pick from `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// Where in the workload a scripted fault fires. Counters are cumulative
/// over the plan's lifetime (the 3rd write is `AfterWrites(3)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    AfterWrites(u32),
    AfterReads(u32),
    /// After the Nth completed repair task — faults *during* the drain.
    AfterRepairs(u32),
}

/// What fires at a [`FaultPoint`]. Node identities are storage-node
/// *indexes* (position in `cluster.storage_nodes`).
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// Kill a specific storage node.
    FailNode(usize),
    /// Kill a seed-chosen node from the candidate set.
    FailRandomOf(Vec<usize>),
    /// Bring a specific node back.
    RecoverNode(usize),
}

/// A scripted, seeded schedule of node kills. Feed it completion events
/// (`note_write` / `note_read` / `note_repair`) and it fires the armed
/// actions at their scripted points, recording a deterministic log.
pub struct FaultPlan {
    pub seed: u64,
    rng: SplitMix,
    armed: Vec<(FaultPoint, FaultAction)>,
    writes: u32,
    reads: u32,
    repairs: u32,
    /// Human-readable record of every fault fired, in order — assert on
    /// it to prove determinism per seed.
    pub log: Vec<String>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rng: SplitMix::new(seed),
            armed: Vec::new(),
            writes: 0,
            reads: 0,
            repairs: 0,
            log: Vec::new(),
        }
    }

    /// Arm an action at a point (builder-style).
    pub fn on(mut self, point: FaultPoint, action: FaultAction) -> FaultPlan {
        self.armed.push((point, action));
        self
    }

    pub fn note_write(&mut self, fsc: &mut FsClient) {
        self.writes += 1;
        let p = FaultPoint::AfterWrites(self.writes);
        self.fire(fsc, p);
    }

    pub fn note_read(&mut self, fsc: &mut FsClient) {
        self.reads += 1;
        let p = FaultPoint::AfterReads(self.reads);
        self.fire(fsc, p);
    }

    pub fn note_repair(&mut self, fsc: &mut FsClient) {
        self.repairs += 1;
        let p = FaultPoint::AfterRepairs(self.repairs);
        self.fire(fsc, p);
    }

    fn fire(&mut self, fsc: &mut FsClient, point: FaultPoint) {
        // Collect first: firing mutates the rng/log and the cluster.
        let due: Vec<FaultAction> = self
            .armed
            .iter()
            .filter(|(p, _)| *p == point)
            .map(|(_, a)| a.clone())
            .collect();
        for action in due {
            match action {
                FaultAction::FailNode(idx) => {
                    fsc.fail_storage_node(idx);
                    self.log.push(format!("{point:?}: fail node {idx}"));
                }
                FaultAction::FailRandomOf(cands) => {
                    let idx = *self.rng.pick(&cands);
                    fsc.fail_storage_node(idx);
                    self.log
                        .push(format!("{point:?}: fail node {idx} (of {cands:?})"));
                }
                FaultAction::RecoverNode(idx) => {
                    fsc.recover_storage_node(idx);
                    self.log.push(format!("{point:?}: recover node {idx}"));
                }
            }
        }
    }
}

/// Drain the repair queue one task at a time, feeding each completion to
/// the fault plan so scripted kills fire *during* repair — the
/// "node dies while the pipeline is re-protecting" interleaving.
pub fn drain_repairs_with_faults(fsc: &mut FsClient, plan: &mut FaultPlan) -> RepairReport {
    let mut driver = RepairDriver::new(0);
    let mut report = RepairReport::default();
    while let Some(r) = driver.step(&mut fsc.cluster) {
        driver.tally(&mut report, r);
        plan.note_repair(fsc);
    }
    // With NADFS_DUMP_TRACE set the timeline lands on disk before the
    // caller's assertions run, so a failing interleaving leaves its
    // evidence behind.
    let _ = dump_trace_if_requested(fsc, &format!("fault-seed-{:x}", plan.seed));
    report
}

/// The "mid-write kill": submit a write, run the simulation for
/// `after_us` of simulated time (the data is in flight), kill storage
/// node `fail_idx`, then run the write to completion. The commit then
/// references an already-failed node, which must land the extent on the
/// repair queue. Drives client 0.
pub fn write_then_fail_midway(
    fsc: &mut FsClient,
    h: &FileHandle,
    offset: u64,
    data: &[u8],
    fail_idx: usize,
    after_us: u64,
) -> WriteResult {
    let write = |slot: WriteSlot| Job::WriteAt {
        file: h.id(),
        offset: Some(offset),
        data: Bytes::from(data.to_vec()),
        protocol: h.write_protocol,
        slot: Some(slot),
    };
    mutate_midway(fsc, 0, write, after_us, |fsc| {
        fsc.fail_storage_node(fail_idx)
    })
}

/// Submit the job `job(slot)` on `client`, run the simulation for
/// `after_us` of simulated time (the op is in flight), apply `mutate`,
/// then run the op to completion and return what landed in its slot. A
/// `mutate` that submits jobs of its own starts and runs them itself.
pub fn mutate_midway<T>(
    fsc: &mut FsClient,
    client: usize,
    job: impl FnOnce(Rc<RefCell<Option<T>>>) -> Job,
    after_us: u64,
    mutate: impl FnOnce(&mut FsClient),
) -> T {
    let slot = Rc::new(RefCell::new(None));
    fsc.cluster.submit(client, job(slot.clone()));
    fsc.cluster.start();
    let mid = fsc.cluster.engine.now() + Dur::from_us(after_us);
    fsc.cluster.engine.run_until(mid);
    mutate(fsc);
    fsc.cluster
        .run_until_slot(&slot, 10_000)
        .expect("the op in flight never completed")
}

/// Convenience: a repair driver whose completions feed nothing (plain
/// drain), returning the per-task results for inspection.
pub fn drain_repairs(fsc: &mut FsClient) -> Vec<RepairResult> {
    fsc.drain_repairs().outcomes
}

/// Dump the run's Chrome trace-event timeline when `NADFS_DUMP_TRACE` is
/// set, returning the path written. Re-run a failing fault seed with
/// `NADFS_DUMP_TRACE=1 NADFS_FAULT_SEED=<seed>` and load the file in
/// Perfetto to see exactly which op stalled in which phase. `tag` keeps
/// dumps from different tests/seeds apart.
pub fn dump_trace_if_requested(fsc: &FsClient, tag: &str) -> Option<std::path::PathBuf> {
    if std::env::var("NADFS_DUMP_TRACE").is_err() {
        return None;
    }
    let safe: String = tag
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = std::env::temp_dir().join(format!("nadfs-trace-{safe}.json"));
    std::fs::write(&path, fsc.export_chrome_trace()).ok()?;
    eprintln!("[nadfs] timeline dumped to {}", path.display());
    Some(path)
}

/// The fixture of the degraded-read tests: an RS(3,2) file of `stripes`
/// appends of `stripe_len` seeded bytes on 1 client x 6 sPIN nodes
/// (window 2, read cache off: every read goes to the wire), then the
/// nodes holding shard slots `lose` of the file's placement — data
/// 0..3, parity 3..5 — failed. Returns the client, the handle and the
/// bytes written.
pub fn degraded_rs32_file(
    stripe_len: usize,
    stripes: usize,
    lose: &[usize],
) -> (FsClient, FileHandle, Vec<u8>) {
    let spec = ClusterSpec::new(1, 6, StorageMode::Spin).with_window(2);
    let cluster = SimCluster::build_with(spec, |app| app.read_cache_enabled = false);
    let mut fsc = FsClient::new(cluster);
    fsc.mkdir_p("/d").expect("mkdir");
    let policy = FilePolicy::ErasureCoded {
        scheme: RsScheme::new(3, 2),
    };
    let h = fsc
        .create_with_policy("/d/f", LayoutSpec::SINGLE, policy)
        .expect("create");
    let mut rng = SplitMix::new(stripe_len as u64);
    let data: Vec<u8> = (0..stripes * stripe_len)
        .map(|_| rng.next_u64() as u8)
        .collect();
    let mut placement = None;
    for stripe in data.chunks(stripe_len) {
        let w = fsc.append(&h, stripe).expect("write").placement;
        let shards = w.data_chunks.iter().chain(&w.parities);
        let nodes: Vec<u32> = shards.map(|c| c.node).collect();
        let first = placement.get_or_insert(nodes.clone());
        assert_eq!(*first, nodes, "a file's stripes share one placement");
    }
    for &slot in lose {
        let node = placement.as_ref().expect("written")[slot];
        fsc.fail_storage_node(fsc.cluster.storage_index(node as usize));
    }
    (fsc, h, data)
}

// ---------------------------------------------------------------------
// Checkpoint invariants: the global health checks every long-horizon
// scenario (and the short suites) assert at quiescent points. Each takes
// the public cluster surface only, so adopting one in a test costs a
// single call.
// ---------------------------------------------------------------------

/// Every byte of `h` is readable *non-degraded* and byte-identical to
/// the shadow `expect`. Call after drains/recoveries have settled — a
/// degraded stripe here means the repair pipeline lied about converging.
pub fn assert_bytes_converged(fsc: &mut FsClient, h: &FileHandle, expect: &[u8], ctx: &str) {
    let r = fsc
        .read_at(h, 0, expect.len() as u32)
        .unwrap_or_else(|e| panic!("[{ctx}] {}: converged read failed: {e}", h.path()));
    assert_eq!(
        r.degraded_stripes,
        0,
        "[{ctx}] {}: read still degraded after convergence",
        h.path()
    );
    assert_eq!(
        r.len as usize,
        expect.len(),
        "[{ctx}] {}: short read",
        h.path()
    );
    assert_eq!(
        &r.data[..],
        expect,
        "[{ctx}] {}: bytes diverged from the shadow model",
        h.path()
    );
}

/// Credit-layer conservation at quiesce: every NIC's posted WRs have
/// completed (credits all returned) and every parked WR was released.
/// An imbalance means a credit leaked — the link wedges at horizon.
pub fn assert_flow_conserved(cluster: &SimCluster, ctx: &str) {
    for (i, h) in cluster.flow_stats.iter().enumerate() {
        let s = *h.borrow();
        for class in nadfs_simnet::WrClass::ALL {
            let k = class.index();
            assert_eq!(
                s.posted[k],
                s.completed[k],
                "[{ctx}] nic {i}: {} WRs posted != completed (credit leak)",
                class.as_str()
            );
        }
        assert_eq!(
            s.queued, s.released,
            "[{ctx}] nic {i}: parked WRs never released (wedged queue)"
        );
    }
}

/// The control plane's ledger of storage node `i` (the cluster's
/// storage-node order).
pub fn node_ledger(cluster: &SimCluster, i: usize) -> NodeLedger {
    let ledger = cluster.control.borrow().node_ledgers().nth(i);
    ledger.expect("a storage node")
}

/// Hosted-capacity conservation: the per-node `chunks_hosted` /
/// `bytes_hosted` gauges sum to exactly what the extent maps currently
/// place. Violated by the pre-reconciliation recovery leak.
pub fn assert_hosted_conserved(cluster: &SimCluster, ctx: &str) {
    let control = cluster.control.borrow();
    let (mut chunks, mut bytes) = (0u64, 0u64);
    for l in control.node_ledgers() {
        chunks += l.chunks_hosted;
        bytes += l.bytes_hosted;
    }
    assert_eq!(
        chunks,
        control.live_extent_shards(),
        "[{ctx}] hosted chunk gauges diverged from the extent maps"
    );
    assert_eq!(
        bytes,
        control.live_extent_bytes(),
        "[{ctx}] hosted byte gauges diverged from the extent maps"
    );
}

/// Buffer-pool hygiene: internal counters consistent and retention
/// bounded. (`gets` and `puts` are deliberately unrelated: payloads the
/// pool never handed out — client write buffers, DMA reads — retire into
/// it when their last reference drops. Leak detection is retention
/// boundedness.)
pub fn assert_pool_hygiene(cluster: &SimCluster, ctx: &str) {
    for (i, pool) in cluster.buf_pools.iter().enumerate() {
        let p = pool.borrow();
        let s = p.stats();
        assert_eq!(
            s.gets,
            s.hits + s.misses,
            "[{ctx}] pool {i}: gets != hits + misses"
        );
        assert!(
            p.retained_bytes() <= p.max_retained_bytes(),
            "[{ctx}] pool {i}: retention cap breached ({} bytes)",
            p.retained_bytes()
        );
    }
}

/// Span-book hygiene at quiesce: nothing in flight (an open span here is
/// a leaked op) and nothing silently evicted. Long runs keep `dropped`
/// at zero by draining the closed ring at checkpoints
/// ([`drain_spans`]).
pub fn assert_span_hygiene(cluster: &SimCluster, ctx: &str) {
    let hub = cluster.obs.borrow();
    assert_eq!(
        hub.spans.open_count(),
        0,
        "[{ctx}] op spans still open at quiesce (leaked op)"
    );
    assert_eq!(
        hub.spans.dropped(),
        0,
        "[{ctx}] completed spans were evicted — drain the ring at checkpoints"
    );
}

/// Drain the completed-span ring (keeping `spans.dropped == 0` reachable
/// at arbitrary horizon) and return the window for optional inspection.
pub fn drain_spans(cluster: &SimCluster) -> Vec<nadfs_simnet::telemetry::OpSpan> {
    cluster.obs.borrow_mut().spans.drain_closed()
}
