//! The seven workloads, and the one measurement path they all run
//! through. A workload is a `prepare` function — build a fresh cluster,
//! preload, inject failures, generate the measured phase's jobs from the
//! seed — plus the property its row in the README claims it exercises.
//! [`Def::run_rep`] does the rest the same way for every workload: submit,
//! run the closed loop to completion, check every output, and (in a
//! traced repetition) collect the per-layer raw material.
//!
//! All load is closed-loop: each simulated client keeps `window` ops
//! outstanding until its job list drains.

use std::collections::BTreeMap;

use nadfs_core::{
    ClientApp, ClusterSpec, FilePolicy, Job, LayoutSpec, MetaWorkload, ReadPattern, ReadProtocol,
    SimCluster, SizeDist, StorageMode, Workload, WriteProtocol, WriteResult,
};
use nadfs_gfec::ReedSolomon;
use nadfs_simnet::telemetry::{OpKind, OpSpan};
use nadfs_simnet::{MetricsSnapshot, SharedTrace, Time};
use nadfs_wire::{payload_checksum, BcastStrategy, ReplicaCoord, RsScheme, Status};

use crate::alloc;
use crate::anchors;
use crate::cpu::CpuClock;
use crate::spans::Spans;

/// The measured phase runs as about this many `run_until_*` calls
/// ("segments"), each timed on its own. The simulation is deterministic,
/// so segment `j` is the same work in every repetition, and the harness
/// can take each segment's steady value (`stats::steady`): a burst of
/// interference from another tenant then has to hit the same segment in
/// most repetitions to get into the result. Slicing cannot change simulated
/// behaviour (the engine only stops early, it never reorders).
pub const SEGMENTS: usize = 64;
/// Most ops per segment. Results and closed spans are drained between
/// calls, so memory stays flat and the 4096-span ring never wraps.
const MAX_SEGMENT_OPS: usize = 1024;
/// Simulated-time deadline for any phase. Nothing here comes near it; an
/// op still incomplete then is counted as failed.
const DEADLINE_MS: u64 = 600_000;

/// How one repetition runs.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    /// Observability and engine profiling on; per-layer material kept.
    pub traced: bool,
    /// Recompute every checksum: stored bytes of every write (parities
    /// re-encoded, replicas compared), the checksum of every read. A
    /// repetition without it still compares read bytes and statuses, and
    /// the harness requires its completion digest to equal that of a
    /// fully checked repetition of the same seed.
    pub full_check: bool,
}

/// One named workload.
pub struct Def {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the paragraph.
    pub why: &'static str,
    /// Closed-loop shape, for the printed header.
    pub clients: usize,
    pub window: usize,
    run: fn(u64, Mode, &CpuClock, &mut Spans) -> Rep,
}

pub const ALL: [Def; 7] = [
    Def {
        name: "small_write_storm",
        why: "16x8 closed-loop 4 KiB sPIN writes: per-op fixed costs (MAC, dispatch, commit, credit, events) do all the work",
        clients: 16,
        window: 8,
        run: run_cluster::<SmallWriteStorm>,
    },
    Def {
        name: "repl_write_ring",
        why: "8x4 64 KiB sPIN-Ring k=4 writes: NIC-to-NIC forwarding, egress serialisation and the fabric do the work",
        clients: 8,
        window: 4,
        run: run_cluster::<ReplWriteRing>,
    },
    Def {
        name: "ec_write_stream",
        why: "4x2 1.5 MiB sPIN-TriEC RS(6,3) writes: byte-proportional layers (gfec, pools, accumulators, DMA) do the work",
        clients: 4,
        window: 2,
        run: run_cluster::<EcWriteStream>,
    },
    Def {
        name: "read_hot_cached",
        why: "4x1 64 KiB cached reads, sequential pass then zipfian: client cache, extent resolve and readahead do the work",
        clients: 4,
        window: 1,
        run: run_cluster::<ReadHotCached>,
    },
    Def {
        name: "read_ec_degraded",
        why: "4x4 offloaded 64 KiB reads of RS(3,2) files with a data node down: NIC gather, survivor fetches, EC decode",
        clients: 4,
        window: 4,
        run: run_cluster::<ReadEcDegraded>,
    },
    Def {
        name: "meta_storm",
        why: "32 clients, 4 shards, cache off, dir-op mix plus stat storm: namespace, shard queues, op log, 2PC; no data path",
        clients: 32,
        window: 1,
        run: run_cluster::<MetaStorm>,
    },
    Def {
        name: "paper_anchors",
        why: "one client, one 4 KiB sPIN write in flight: the unloaded point the paper's latency figures measure; prints the anchors",
        clients: 1,
        window: 1,
        run: run_cluster::<anchors::Probe>,
    },
];

pub fn find(name: &str) -> Option<&'static Def> {
    ALL.iter().find(|d| d.name == name)
}

impl Def {
    /// One repetition: fresh cluster, set-up, measured phase, checks.
    pub fn run_rep(&self, seed: u64, mode: Mode, clock: &CpuClock, sp: &mut Spans) -> Rep {
        (self.run)(seed, mode, clock, sp)
    }
}

/// Which result stream carries the measured phase's primary op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Primary {
    Write,
    Read,
    Meta,
}

impl Primary {
    pub fn op_kind(self) -> OpKind {
        match self {
            Primary::Write => OpKind::Write,
            Primary::Read => OpKind::Read,
            Primary::Meta => OpKind::Meta,
        }
    }
}

/// A cluster set up and ready for its measured phase.
pub struct Prepared {
    pub cl: SimCluster,
    pub primary: Primary,
    /// The measured phase's jobs, per client, in submission order.
    pub jobs: Vec<Vec<Job>>,
    /// Byte images of the preloaded files (file id → contents), read back
    /// from storage memory and checked against the write checksums; read
    /// completions are compared against these.
    pub images: BTreeMap<u64, Vec<u8>>,
}

/// What one repetition produced. Everything a metric needs, nothing
/// derived: the report module does the arithmetic.
#[derive(Default)]
pub struct Rep {
    /// Raw CPU ns from repetition start to the first measured op.
    pub setup_cpu_ns: u64,
    /// Raw CPU ns inside each of the measured phase's `run_until_*`
    /// calls, in order.
    pub seg_cpu_ns: Vec<u64>,
    /// Heap allocations inside those calls.
    pub run_allocs: u64,
    /// Engine events dispatched in the measured phase.
    pub events: u64,
    /// Primary-op latencies (`end - start`), picoseconds, unsorted.
    pub lat_ps: Vec<u64>,
    /// Simulated picoseconds between the first start and the last end
    /// (summed over sub-runs where a workload has several).
    pub span_ps: u64,
    /// User payload bytes the primary ops moved.
    pub bytes: u64,
    pub attempted: u64,
    /// Failed, rejected, wrong bytes, or not complete by the deadline.
    pub failed: u64,
    /// Order-sensitive hash of every completion (id, status, checksum,
    /// start, end): two repetitions agree on this iff the simulation
    /// repeated bit-for-bit.
    pub digest: u64,
    /// Why the workload did not exercise what its row claims, if so.
    pub claim_error: Option<String>,
    pub traced: Option<Traced>,
}

/// Raw per-layer material from a traced repetition's measured phase.
pub struct Traced {
    /// Counter/histogram movement over the measured phase.
    pub delta: MetricsSnapshot,
    /// Primary-op spans closed in the measured phase.
    pub spans: u64,
    /// Per-phase simulated picoseconds summed over those spans.
    pub phase_ps: BTreeMap<&'static str, u64>,
    /// Their end-to-end picoseconds, summed.
    pub e2e_ps: u64,
    /// (mean ns, count) per pSPIN handler kind over the measured phase,
    /// pooled over storage nodes: header, payload, completion.
    pub handler_ns: [(f64, u64); 3],
    /// Buffer-pool gets/hits/misses over the measured phase, all NICs.
    pub pool: (u64, u64, u64),
    /// The last closed spans and the trace ring, for the Chrome export.
    pub tail_spans: Vec<OpSpan>,
    pub trace_ring: SharedTrace,
}

impl Rep {
    /// Raw CPU ns of the whole measured phase.
    pub fn run_cpu_ns(&self) -> u64 {
        self.seg_cpu_ns.iter().sum()
    }

    /// Fold `other` (a later sub-run of the same repetition) into `self`.
    pub fn absorb(&mut self, other: Rep) {
        self.setup_cpu_ns += other.setup_cpu_ns;
        self.seg_cpu_ns.extend(other.seg_cpu_ns);
        self.run_allocs += other.run_allocs;
        self.events += other.events;
        self.lat_ps.extend(other.lat_ps);
        self.span_ps += other.span_ps;
        self.bytes += other.bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.digest = mix(self.digest, other.digest);
        if self.claim_error.is_none() {
            self.claim_error = other.claim_error;
        }
    }
}

/// splitmix-style fold for the completion digest.
pub fn mix(acc: u64, v: u64) -> u64 {
    let mut z = (acc ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload that runs on one cluster: how to set it up, and what its
/// row claims.
pub trait ClusterWorkload {
    fn prepare(seed: u64, traced: bool, sp: &mut Spans) -> Prepared;
    /// Check, from the cluster's public stats handles after the measured
    /// phase, that the workload exercised what its README row says.
    fn claim(p: &Prepared) -> Result<(), String>;
}

fn run_cluster<W: ClusterWorkload>(seed: u64, mode: Mode, clock: &CpuClock, sp: &mut Spans) -> Rep {
    let t0 = clock.now_ns();
    let mut p = sp.scope("setup", |sp| W::prepare(seed, mode.traced, sp));
    let mut rep = measure(&mut p, t0, mode, clock, sp);
    rep.claim_error = W::claim(&p).err();
    rep
}

/// Build a cluster with observability (spans, trace ring, engine
/// profiling) on only for a traced repetition.
pub fn build(
    spec: ClusterSpec,
    traced: bool,
    sp: &mut Spans,
    tweak: impl FnMut(&mut ClientApp),
) -> SimCluster {
    let spec = spec.with_observability(traced);
    let spec = if traced {
        spec.with_engine_profiling()
    } else {
        spec
    };
    sp.scope("build", |_| SimCluster::build_with(spec, tweak))
}

/// Submit `jobs` (per client) and run the closed loop until every one of
/// them has completed, draining and checking completions as they come.
/// `t0` is the CPU clock reading when this repetition's set-up began.
pub fn measure(p: &mut Prepared, t0: u64, mode: Mode, clock: &CpuClock, sp: &mut Spans) -> Rep {
    let traced = mode.traced;
    let attempted: usize = p.jobs.iter().map(Vec::len).sum();
    sp.scope("submit", |_| {
        for (c, jobs) in p.jobs.iter_mut().enumerate() {
            for job in jobs.drain(..) {
                p.cl.submit(c, job);
            }
        }
    });
    for t in p.cl.pspin_telemetry.iter().flatten() {
        // Handler samples from the preload are not the measured phase's.
        t.borrow_mut().clear_handler_stats();
    }
    let before = traced.then(|| sp.scope("snapshot", |_| p.cl.metrics_snapshot()));
    let pool_before = pool_totals(&p.cl);
    let events_before = p.cl.engine.events_dispatched();
    let mut rep = Rep {
        attempted: attempted as u64,
        setup_cpu_ns: clock.now_ns() - t0,
        ..Rep::default()
    };
    let mut first = Time(u64::MAX);
    let mut last = Time::ZERO;
    let mut tr = traced.then(|| Traced {
        delta: MetricsSnapshot::default(),
        spans: 0,
        phase_ps: BTreeMap::new(),
        e2e_ps: 0,
        handler_ns: [(0.0, 0); 3],
        pool: (0, 0, 0),
        tail_spans: Vec::new(),
        trace_ring: p.cl.trace.clone(),
    });

    p.cl.start();
    let segment = (attempted / SEGMENTS).clamp(1, MAX_SEGMENT_OPS);
    let mut remaining = attempted;
    while remaining > 0 {
        let want = remaining.min(segment);
        let got = sp.scope(run_until_name(p.primary), |_| {
            let a0 = alloc::count();
            let c0 = clock.now_ns();
            let got = match p.primary {
                Primary::Write => p.cl.run_until_writes(want, DEADLINE_MS),
                Primary::Read => p.cl.run_until_file_reads(want, DEADLINE_MS),
                Primary::Meta => p.cl.run_until_metas(want, DEADLINE_MS),
            };
            rep.seg_cpu_ns.push(clock.now_ns() - c0);
            // The clock read allocates (it reads a /proc file); it sits
            // outside the a0..a1 window.
            rep.run_allocs += alloc::count() - a0;
            got
        });
        let drained = drain(p, mode.full_check, &mut rep, &mut first, &mut last);
        remaining -= drained.min(remaining);
        if let Some(tr) = tr.as_mut() {
            collect_spans(p, tr);
        }
        if got < want {
            break; // deadline or a drained event queue: the rest failed
        }
    }
    rep.failed += remaining as u64;
    rep.events = p.cl.engine.events_dispatched() - events_before;
    if last > first {
        rep.span_ps = last.since(first).ps();
    }
    if let (Some(tr), Some(before)) = (tr.as_mut(), before) {
        tr.delta = sp.scope("snapshot", |_| p.cl.metrics_snapshot().delta(&before));
        tr.handler_ns = handler_means(&p.cl);
        let after = pool_totals(&p.cl);
        tr.pool = (
            after.0 - pool_before.0,
            after.1 - pool_before.1,
            after.2 - pool_before.2,
        );
    }
    rep.traced = tr;
    rep
}

fn run_until_name(primary: Primary) -> &'static str {
    match primary {
        Primary::Write => "run_until_writes",
        Primary::Read => "run_until_file_reads",
        Primary::Meta => "run_until_metas",
    }
}

/// Take every primary-op completion out of the sink, check it, and fold
/// it into `rep`. Returns how many were taken.
fn drain(
    p: &mut Prepared,
    full_check: bool,
    rep: &mut Rep,
    first: &mut Time,
    last: &mut Time,
) -> usize {
    let mut note = |rep: &mut Rep, id: u64, ok: bool, sum: u64, start: Time, end: Time| {
        rep.lat_ps.push(end.since(start).ps());
        *first = (*first).min(start);
        *last = (*last).max(end);
        rep.failed += !ok as u64;
        for v in [id, ok as u64, sum, start.ps(), end.ps()] {
            rep.digest = mix(rep.digest, v);
        }
    };
    match p.primary {
        Primary::Write => {
            let writes = std::mem::take(&mut p.cl.results.borrow_mut().writes);
            for w in &writes {
                let ok = w.status == Status::Ok && (!full_check || stored_bytes_match(&p.cl, w));
                rep.bytes += w.size as u64;
                note(rep, w.greq, ok, w.checksum, w.start, w.end);
            }
            writes.len()
        }
        Primary::Read => {
            let reads = std::mem::take(&mut p.cl.results.borrow_mut().file_reads);
            for r in &reads {
                let want = p
                    .images
                    .get(&r.file)
                    .and_then(|img| img.get(r.offset as usize..r.offset as usize + r.len as usize));
                let ok = r.status == Status::Ok
                    && want == Some(&r.data[..])
                    && (!full_check || r.checksum == payload_checksum(&r.data));
                rep.bytes += r.len as u64;
                note(rep, r.token, ok, r.checksum, r.start, r.end);
            }
            reads.len()
        }
        Primary::Meta => {
            let metas = std::mem::take(&mut p.cl.results.borrow_mut().metas);
            for m in &metas {
                note(rep, m.token, m.result.is_ok(), m.op as u64, m.start, m.end);
            }
            metas.len()
        }
    }
}

fn read_coord(cl: &SimCluster, c: &ReplicaCoord, len: usize) -> Vec<u8> {
    let idx = cl.storage_index(c.node as usize);
    cl.storage_mems[idx].borrow().read(c.addr, len)
}

/// The bytes a committed write left in storage memory, by the shape of
/// its placement, as the file's logical bytes. EC placements also have
/// their parities recomputed and compared; replicated ones have every
/// replica compared with the primary.
fn stored_bytes(cl: &SimCluster, w: &WriteResult) -> Option<Vec<u8>> {
    let pl = &w.placement;
    let size = w.size as usize;
    if !pl.data_chunks.is_empty() {
        let len = pl.chunk_len as usize;
        let data: Vec<Vec<u8>> = pl
            .data_chunks
            .iter()
            .map(|c| read_coord(cl, c, len))
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let rs = ReedSolomon::new(pl.data_chunks.len(), pl.parities.len()).ok()?;
        let parities = rs.encode(&refs).ok()?;
        for (c, want) in pl.parities.iter().zip(&parities) {
            if &read_coord(cl, c, len) != want {
                return None;
            }
        }
        let mut bytes = data.concat();
        bytes.truncate(size);
        Some(bytes)
    } else if !pl.replicas.is_empty() {
        let bytes = read_coord(cl, &pl.primary, size);
        pl.replicas
            .iter()
            .all(|c| read_coord(cl, c, size) == bytes)
            .then_some(bytes)
    } else if !pl.stripes.is_empty() {
        let mut bytes = vec![0u8; size];
        for s in &pl.stripes {
            let at = (s.file_offset - pl.offset) as usize;
            bytes[at..at + s.len as usize].copy_from_slice(&read_coord(
                cl,
                &s.coord,
                s.len as usize,
            ));
        }
        Some(bytes)
    } else {
        Some(read_coord(cl, &pl.primary, size))
    }
}

fn stored_bytes_match(cl: &SimCluster, w: &WriteResult) -> bool {
    stored_bytes(cl, w).is_some_and(|b| payload_checksum(&b) == w.checksum)
}

/// Run `jobs` (all writes) to completion as part of set-up and return the
/// files' byte images, read back from storage and checked against every
/// write's checksum. Panics on a failed preload: that is a broken set-up,
/// not a measurement.
fn preload(cl: &mut SimCluster, jobs: Vec<Vec<Job>>, sp: &mut Spans) -> BTreeMap<u64, Vec<u8>> {
    let n: usize = jobs.iter().map(Vec::len).sum();
    let mut file_of = BTreeMap::new();
    for (c, jobs) in jobs.into_iter().enumerate() {
        for job in jobs {
            if let Job::Write { file, .. } = &job {
                file_of.insert(cl.client_nodes[c], *file);
            }
            cl.submit(c, job);
        }
    }
    sp.scope("preload", |_| {
        cl.start();
        let done = cl.run_until_writes(n, DEADLINE_MS);
        assert_eq!(done, n, "preload incomplete");
    });
    let writes = std::mem::take(&mut cl.results.borrow_mut().writes);
    let mut images: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for w in &writes {
        assert_eq!(w.status, Status::Ok, "preload write failed");
        let bytes = stored_bytes(cl, w).expect("preload bytes readable");
        assert_eq!(payload_checksum(&bytes), w.checksum, "preload bytes differ");
        let img = images.entry(file_of[&w.client]).or_default();
        let at = w.placement.offset as usize;
        if img.len() < at + bytes.len() {
            img.resize(at + bytes.len(), 0);
        }
        img[at..at + bytes.len()].copy_from_slice(&bytes);
    }
    images
}

fn collect_spans(p: &Prepared, tr: &mut Traced) {
    let closed = p.cl.obs.borrow_mut().spans.drain_closed();
    let kind = p.primary.op_kind();
    for s in &closed {
        // Readahead tails are background fills, not ops a caller waited on.
        if s.kind != kind || s.label.starts_with("readahead") {
            continue;
        }
        tr.spans += 1;
        tr.e2e_ps += s.e2e().ps();
        for (name, d) in s.phase_durations() {
            *tr.phase_ps.entry(name).or_default() += d.ps();
        }
    }
    if !closed.is_empty() {
        let keep = closed.len().saturating_sub(512);
        tr.tail_spans = closed[keep..].to_vec();
    }
}

fn handler_means(cl: &SimCluster) -> [(f64, u64); 3] {
    use nadfs_pspin::HandlerKind::{Completion, Header, Payload};
    let mut out = [(0.0, 0u64); 3];
    for (slot, kind) in out.iter_mut().zip([Header, Payload, Completion]) {
        let (mut sum, mut n) = (0.0, 0u64);
        for t in cl.pspin_telemetry.iter().flatten() {
            if let Some(k) = t.borrow().kind(kind) {
                let len = k.duration_ns.len() as u64;
                if len > 0 {
                    sum += k.duration_ns.mean() * len as f64;
                    n += len;
                }
            }
        }
        *slot = (if n > 0 { sum / n as f64 } else { 0.0 }, n);
    }
    out
}

fn pool_totals(cl: &SimCluster) -> (u64, u64, u64) {
    cl.buf_pools.iter().fold((0, 0, 0), |acc, p| {
        let s = p.borrow().stats();
        (acc.0 + s.gets, acc.1 + s.hits, acc.2 + s.misses)
    })
}

/// Write sizes within ±3% of `nominal`, drawn from the workload seed:
/// the storms keep their shape, and the simulated schedule — not just
/// the payload bytes — depends on the seed.
pub fn jittered(nominal: u32) -> SizeDist {
    let j = nominal / 32;
    SizeDist::Uniform {
        min: nominal - j,
        max: nominal + j,
    }
}

/// Per-client write jobs: each client appends to its own file.
fn write_jobs(
    files: &[u64],
    protocol: WriteProtocol,
    sizes: SizeDist,
    per_client: usize,
    seed: u64,
    sp: &mut Spans,
) -> Vec<Vec<Job>> {
    sp.scope("generate", |_| {
        files
            .iter()
            .enumerate()
            .map(|(c, &file)| {
                Workload::new(file, protocol, sizes.clone())
                    .with_writes(per_client)
                    .with_seed(seed)
                    .jobs_for_client(c)
            })
            .collect()
    })
}

/// Per-client read jobs of `lens`-sized reads over (about) the first
/// `blocks` x `lens` bytes of each client's own file.
fn read_jobs(
    files: &[u64],
    lens: SizeDist,
    blocks: usize,
    reads: usize,
    protocol: ReadProtocol,
    pattern: ReadPattern,
    seed: u64,
) -> Vec<Vec<Job>> {
    files
        .iter()
        .enumerate()
        .map(|(c, &file)| {
            // The generator sizes the read region from its own write
            // phase; only the reads are kept.
            Workload::new(file, WriteProtocol::Spin, lens.clone())
                .with_writes(blocks)
                .with_reads(reads, protocol)
                .with_read_pattern(pattern)
                .with_seed(seed)
                .jobs_for_client(c)
                .into_iter()
                .filter(|j| matches!(j, Job::Read { .. }))
                .collect()
        })
        .collect()
}

fn legacy_files(cl: &SimCluster, n: usize, policy: FilePolicy) -> Vec<u64> {
    (0..n)
        .map(|_| cl.control.borrow_mut().create_file(0, policy.clone()).id)
        .collect()
}

fn all_writes_prepared(cl: SimCluster, jobs: Vec<Vec<Job>>) -> Prepared {
    Prepared {
        cl,
        primary: Primary::Write,
        jobs,
        images: BTreeMap::new(),
    }
}

// ---------------------------------------------------------------------

struct SmallWriteStorm;

impl ClusterWorkload for SmallWriteStorm {
    fn prepare(seed: u64, traced: bool, sp: &mut Spans) -> Prepared {
        let spec = ClusterSpec::new(16, 4, StorageMode::Spin).with_window(8);
        let cl = build(spec, traced, sp, |_| {});
        let files = legacy_files(&cl, 16, FilePolicy::Plain);
        let jobs = write_jobs(
            &files,
            WriteProtocol::Spin,
            jittered(4 << 10),
            1000,
            seed,
            sp,
        );
        all_writes_prepared(cl, jobs)
    }

    fn claim(_: &Prepared) -> Result<(), String> {
        Ok(())
    }
}

struct ReplWriteRing;

impl ClusterWorkload for ReplWriteRing {
    fn prepare(seed: u64, traced: bool, sp: &mut Spans) -> Prepared {
        let spec = ClusterSpec::new(8, 4, StorageMode::Spin).with_window(4);
        let cl = build(spec, traced, sp, |_| {});
        let policy = FilePolicy::Replicated {
            k: 4,
            strategy: BcastStrategy::Ring,
        };
        let files = legacy_files(&cl, 8, policy);
        let jobs = write_jobs(
            &files,
            WriteProtocol::SpinReplicated,
            jittered(64 << 10),
            128,
            seed,
            sp,
        );
        all_writes_prepared(cl, jobs)
    }

    /// Forwarding happened iff every storage NIC's handlers processed
    /// packets although each client sent its write to one primary only
    /// (the replicas' bytes themselves were compared write by write).
    fn claim(p: &Prepared) -> Result<(), String> {
        for (i, t) in p.cl.pspin_telemetry.iter().enumerate() {
            let pkts = t.as_ref().map_or(0, |t| t.borrow().pkts_processed);
            if pkts == 0 {
                return Err(format!("storage NIC {i} saw no forwarded packets"));
            }
        }
        Ok(())
    }
}

struct EcWriteStream;

impl ClusterWorkload for EcWriteStream {
    fn prepare(seed: u64, traced: bool, sp: &mut Spans) -> Prepared {
        let spec = ClusterSpec::new(4, 9, StorageMode::Spin).with_window(2);
        let cl = build(spec, traced, sp, |_| {});
        let policy = FilePolicy::ErasureCoded {
            scheme: RsScheme::new(6, 3),
        };
        let files = legacy_files(&cl, 4, policy);
        let jobs = write_jobs(
            &files,
            WriteProtocol::SpinTriec { interleave: true },
            jittered(6 * (256 << 10)),
            12,
            seed,
            sp,
        );
        all_writes_prepared(cl, jobs)
    }

    fn claim(_: &Prepared) -> Result<(), String> {
        Ok(())
    }
}

struct ReadHotCached;

impl ReadHotCached {
    const BLOCK: u32 = 64 << 10;
    /// 16 MiB per client: exactly the client cache's capacity. A larger
    /// file sends the cache down its eviction path, where the simulation
    /// stops repeating bit-for-bit between repetitions and costs 30x the
    /// host time (found while sizing this workload; for a later issue).
    const BLOCKS: usize = 256;
    const ZIPF_READS: usize = 2048 - Self::BLOCKS;
    /// Block-aligned reads of exactly one block, unlike the other
    /// workloads' seed-sized ones: unaligned, the number of reads that
    /// miss or park on a readahead swings with the seed, and took this
    /// workload's tail, throughput, allocations and host cost with it by
    /// 8-10% (quartile spread over ten seeds). The seed still picks the
    /// zipfian offsets and the payload bytes.
    const READS: SizeDist = SizeDist::Fixed(Self::BLOCK);
}

impl ClusterWorkload for ReadHotCached {
    fn prepare(seed: u64, traced: bool, sp: &mut Spans) -> Prepared {
        let spec = ClusterSpec::new(4, 4, StorageMode::Spin).with_window(1);
        let mut cl = build(spec, traced, sp, |_| {});
        cl.control
            .borrow_mut()
            .mkdir_p("/bench", 0)
            .expect("fresh namespace");
        let files: Vec<u64> = (0..4)
            .map(|c| {
                cl.control
                    .borrow_mut()
                    .create_file_at(
                        &format!("/bench/hot{c}"),
                        LayoutSpec::striped(4, Self::BLOCK),
                        FilePolicy::Plain,
                    )
                    .expect("fresh path")
                    .id
            })
            .collect();
        let fill = write_jobs(
            &files,
            WriteProtocol::Spin,
            SizeDist::Fixed(Self::BLOCK),
            Self::BLOCKS,
            seed,
            sp,
        );
        let images = preload(&mut cl, fill, sp);
        // Drop the write-through fills: the measured phase starts cold
        // (miss -> readahead -> hit), not on read-after-write reuse.
        for c in &cl.read_caches {
            c.borrow_mut().clear();
        }
        let jobs = sp.scope("generate", |_| {
            let mut jobs = read_jobs(
                &files,
                Self::READS,
                Self::BLOCKS,
                Self::BLOCKS,
                ReadProtocol::Rdma,
                ReadPattern::Sequential,
                seed,
            );
            let zipf = read_jobs(
                &files,
                Self::READS,
                Self::BLOCKS,
                Self::ZIPF_READS,
                ReadProtocol::Rdma,
                ReadPattern::Zipfian { exponent: 1.2 },
                seed,
            );
            for (j, z) in jobs.iter_mut().zip(zipf) {
                j.extend(z);
            }
            jobs
        });
        Prepared {
            cl,
            primary: Primary::Read,
            jobs,
            images,
        }
    }

    fn claim(p: &Prepared) -> Result<(), String> {
        let hits: u64 = p.cl.read_caches.iter().map(|c| c.borrow().stats.hits).sum();
        if hits == 0 {
            return Err("read cache never hit".into());
        }
        Ok(())
    }
}

struct ReadEcDegraded;

impl ReadEcDegraded {
    const BLOCK: u32 = 64 << 10;
    const BLOCKS: usize = 64; // 4 MiB per client; the scan wraps
    const READS: usize = 512;
}

impl ClusterWorkload for ReadEcDegraded {
    fn prepare(seed: u64, traced: bool, sp: &mut Spans) -> Prepared {
        let spec = ClusterSpec::new(4, 6, StorageMode::Spin).with_window(4);
        // Cache off: it would hide where the read work runs.
        let mut cl = build(spec, traced, sp, |app| app.read_cache_enabled = false);
        let policy = FilePolicy::ErasureCoded {
            scheme: RsScheme::new(3, 2),
        };
        let files = legacy_files(&cl, 4, policy);
        // Stripes a little over one block each, sized from the seed, so
        // the fixed 64 KiB scan straddles them differently per seed and
        // never runs past the end of the file.
        let sizes = SizeDist::Uniform {
            min: Self::BLOCK,
            max: Self::BLOCK + Self::BLOCK / 32,
        };
        let fill = write_jobs(
            &files,
            WriteProtocol::SpinTriec { interleave: true },
            sizes,
            Self::BLOCKS,
            seed,
            sp,
        );
        let images = preload(&mut cl, fill, sp);
        sp.scope("fail_node", |_| {
            // The first data node of the first file's first stripe: a
            // data (not parity) shard of many stripes in every file.
            let victim = cl.storage_nodes[0] as u32;
            cl.control.borrow_mut().mark_node_failed(victim);
        });
        let jobs = sp.scope("generate", |_| {
            read_jobs(
                &files,
                SizeDist::Fixed(Self::BLOCK),
                Self::BLOCKS,
                Self::READS,
                ReadProtocol::Offloaded,
                ReadPattern::Sequential,
                seed,
            )
        });
        Prepared {
            cl,
            primary: Primary::Read,
            jobs,
            images,
        }
    }

    fn claim(p: &Prepared) -> Result<(), String> {
        let client: u64 =
            p.cl.client_read_stats
                .iter()
                .map(|s| s.borrow().reconstructed_stripes)
                .sum();
        let nic: u64 =
            p.cl.nic_stats
                .iter()
                .map(|s| s.borrow().chunks_reconstructed)
                .sum();
        if client != 0 {
            return Err(format!("{client} stripes reconstructed on the client"));
        }
        if nic == 0 {
            return Err("no chunk reconstructed on a NIC".into());
        }
        Ok(())
    }
}

struct MetaStorm;

impl ClusterWorkload for MetaStorm {
    fn prepare(seed: u64, traced: bool, sp: &mut Spans) -> Prepared {
        let spec = ClusterSpec::new(32, 4, StorageMode::Plain).with_meta_shards(4);
        // Client meta cache off: every op lands on the control plane and
        // queues behind its shard.
        let cl = build(spec, traced, sp, |app| app.cache_enabled = false);
        let w = MetaWorkload::new("/bench")
            .with_dirs(8, 64)
            .with_storm(7100)
            .with_layout(LayoutSpec::striped(2, 64 << 10))
            .with_seed(seed);
        w.prepare(&cl.control);
        let jobs = sp.scope("generate", |_| {
            (0..32).map(|c| w.jobs_for_client(c)).collect()
        });
        Prepared {
            cl,
            primary: Primary::Meta,
            jobs,
            images: BTreeMap::new(),
        }
    }

    fn claim(p: &Prepared) -> Result<(), String> {
        let txns: u64 =
            p.cl.control
                .borrow()
                .shard_stats()
                .iter()
                .map(|s| s.cross_shard_txns)
                .sum();
        if txns == 0 {
            return Err("no cross-shard transaction".into());
        }
        Ok(())
    }
}
