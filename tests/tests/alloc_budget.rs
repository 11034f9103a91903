//! Heap allocations per sPIN packet on the write paths, and per op on two
//! read paths, held to a budget.
//!
//! In the paper's design a NIC takes packet buffers, accumulators and
//! intermediate parities from fixed pools in its memory (§VI-B-3) and
//! never allocates per packet. The simulator models those pools
//! (`BufPool`, `PacketPool`); this test keeps the host process from
//! allocating per packet around them: per-packet event boxes, buffer
//! storage boxes, scratch lists. It counts allocations through a
//! `#[global_allocator]` that counts on the calling thread only, so the
//! other test threads do not leak in, and divides by the packets the
//! storage NICs' handlers processed (`pkts_processed`). A read is a few
//! packets and many client-side steps, so the read paths are counted per
//! op instead.
//!
//! The clusters run with observability off, as the benchmark's host-clock
//! rows do, so the count is the data path's and not the op spans'.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nadfs_core::{
    ClusterSpec, FilePolicy, Job, LayoutSpec, ReadPattern, ReadProtocol, SimCluster, SizeDist,
    StorageMode, Workload, WriteProtocol,
};
use nadfs_wire::{BcastStrategy, RsScheme, Status};

const SEED: u64 = 0xA110C;

/// Allocations per packet allowed, about 1.5× the rates measured when
/// the budgets were set (0.564 and 0.731; 0.593 and 0.768 while the
/// events a component scheduled for itself were boxed, 2.4 and 1.8 while
/// gate wakes were boxed too and recycled buffers lost their storage box).
const BUDGET_TRIEC: f64 = 0.85;
const BUDGET_RING: f64 = 1.1;

/// Allocations per read op allowed, about 1.5× the rates measured when
/// the budgets were set (16.3 and 63.6; 21.4 and 82.1 while the events a
/// component scheduled for itself were boxed).
const BUDGET_CACHED_READ: f64 = 24.5;
const BUDGET_DEGRADED_READ: f64 = 95.5;

/// The read paths' block: each read asks for about one.
const BLOCK: u32 = 64 << 10;

struct CountingAlloc;

thread_local! {
    // `const` and `Cell`: no lazy initialisation and no destructor, so
    // the allocator can touch it without allocating or re-entering.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // After the thread's locals are gone (thread exit), stop counting.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn pkts_processed(cl: &SimCluster) -> u64 {
    let nics = cl.pspin_telemetry.iter().flatten();
    nics.map(|t| t.borrow().pkts_processed).sum()
}

/// Run `n` writes of about `size` bytes per client, each client to its
/// own file, and check every one succeeded.
fn run_writes(cl: &mut SimCluster, files: &[u64], protocol: WriteProtocol, size: u32, n: usize) {
    for (c, &file) in files.iter().enumerate() {
        let sizes = SizeDist::Uniform {
            min: size - size / 32,
            max: size + size / 32,
        };
        for job in Workload::new(file, protocol, sizes)
            .with_writes(n)
            .with_seed(SEED)
            .jobs_for_client(c)
        {
            cl.submit(c, job);
        }
    }
    cl.start();
    let total = n * files.len();
    assert_eq!(
        cl.run_until_writes(total, 1_000),
        total,
        "writes incomplete"
    );
    let writes = std::mem::take(&mut cl.results.borrow_mut().writes);
    assert!(writes.iter().all(|w| w.status == Status::Ok));
}

/// After one warm-up write per client, `writes` more per client of about
/// `size` bytes: the allocations per packet the storage NICs' handlers
/// processed, and that packet count.
fn allocs_per_pkt(
    spec: ClusterSpec,
    policy: FilePolicy,
    protocol: WriteProtocol,
    size: u32,
    writes: usize,
) -> (f64, u64) {
    let clients = spec.n_clients;
    let mut cl = SimCluster::build(spec);
    let files: Vec<u64> = (0..clients)
        .map(|_| cl.control.borrow_mut().create_file(0, policy.clone()).id)
        .collect();
    run_writes(&mut cl, &files, protocol, size, 1);
    let (a0, p0) = (allocs(), pkts_processed(&cl));
    run_writes(&mut cl, &files, protocol, size, writes);
    let (a1, p1) = (allocs(), pkts_processed(&cl));
    assert!(p1 > p0, "the writes must run through the sPIN handlers");
    ((a1 - a0) as f64 / (p1 - p0) as f64, p1 - p0)
}

#[test]
fn spin_triec_rs63_writes_stay_under_their_allocation_budget() {
    let (rate, pkts) = allocs_per_pkt(
        ClusterSpec::new(4, 9, StorageMode::Spin)
            .with_window(2)
            .with_observability(false),
        FilePolicy::ErasureCoded {
            scheme: RsScheme::new(6, 3),
        },
        WriteProtocol::SpinTriec { interleave: true },
        6 * (64 << 10),
        3,
    );
    assert!(
        rate < BUDGET_TRIEC,
        "sPIN-TriEC RS(6,3): {rate:.3} allocations per packet over {pkts} packets \
         (budget {BUDGET_TRIEC})"
    );
}

#[test]
fn spin_ring_k4_writes_stay_under_their_allocation_budget() {
    let (rate, pkts) = allocs_per_pkt(
        ClusterSpec::new(4, 4, StorageMode::Spin)
            .with_window(4)
            .with_observability(false),
        FilePolicy::Replicated {
            k: 4,
            strategy: BcastStrategy::Ring,
        },
        WriteProtocol::SpinReplicated,
        64 << 10,
        8,
    );
    assert!(
        rate < BUDGET_RING,
        "sPIN-Ring k=4: {rate:.3} allocations per packet over {pkts} packets \
         (budget {BUDGET_RING})"
    );
}

/// Each client writes `blocks` writes of `sizes` bytes to its own file
/// with `write`, then reads what it wrote back twice with `read`, as a
/// sequential scan of reads of `sizes` bytes; `between` runs after the
/// writes. Every read cache starts each pass empty. The allocations per
/// read op of the second pass.
fn allocs_per_read(
    mut cl: SimCluster,
    files: &[u64],
    (write, sizes, blocks): (WriteProtocol, SizeDist, usize),
    read: ReadProtocol,
    between: impl FnOnce(&mut SimCluster),
) -> f64 {
    let mut reads = Vec::new();
    for (c, &file) in files.iter().enumerate() {
        let jobs = Workload::new(file, write, sizes.clone())
            .with_writes(blocks)
            .with_reads(blocks, read)
            .with_read_pattern(ReadPattern::Sequential)
            .with_seed(SEED)
            .jobs_for_client(c);
        let (w, r): (Vec<Job>, Vec<Job>) = jobs
            .into_iter()
            .partition(|j| matches!(j, Job::Write { .. }));
        w.into_iter().for_each(|j| cl.submit(c, j));
        reads.push(r);
    }
    cl.start();
    let total = blocks * files.len();
    assert_eq!(
        cl.run_until_writes(total, 1_000),
        total,
        "writes incomplete"
    );
    between(&mut cl);
    let mut pass = || {
        for c in &cl.read_caches {
            c.borrow_mut().clear();
        }
        for (c, r) in reads.iter().enumerate() {
            r.iter().for_each(|j| cl.submit(c, j.clone()));
        }
        cl.start();
        let a0 = allocs();
        let done = cl.run_until_file_reads(total, 1_000);
        let a1 = allocs();
        assert_eq!(done, total, "reads incomplete");
        let reads = std::mem::take(&mut cl.results.borrow_mut().file_reads);
        assert!(reads.iter().all(|r| r.status == Status::Ok));
        (a1 - a0) as f64 / total as f64
    };
    pass();
    pass()
}

#[test]
fn cached_rdma_reads_stay_under_their_allocation_budget() {
    let spec = ClusterSpec::new(4, 4, StorageMode::Spin).with_observability(false);
    let cl = SimCluster::build(spec);
    let files: Vec<u64> = (0..4)
        .map(|c| {
            let mut control = cl.control.borrow_mut();
            control.mkdir_p("/r", 0).expect("mkdir");
            let layout = LayoutSpec::striped(4, BLOCK);
            let path = format!("/r/f{c}");
            control
                .create_file_at(&path, layout, FilePolicy::Plain)
                .expect("create")
                .id
        })
        .collect();
    let writes = (WriteProtocol::Spin, SizeDist::Fixed(BLOCK), 64);
    let rate = allocs_per_read(cl, &files, writes, ReadProtocol::Rdma, |_| {});
    assert!(
        rate < BUDGET_CACHED_READ,
        "cached RDMA reads: {rate:.2} allocations per read (budget {BUDGET_CACHED_READ})"
    );
}

#[test]
fn offloaded_degraded_reads_stay_under_their_allocation_budget() {
    let spec = ClusterSpec::new(4, 6, StorageMode::Spin)
        .with_window(4)
        .with_observability(false);
    let cl = SimCluster::build_with(spec, |app| app.read_cache_enabled = false);
    let policy = FilePolicy::ErasureCoded {
        scheme: RsScheme::new(3, 2),
    };
    let files: Vec<u64> = (0..4)
        .map(|_| cl.control.borrow_mut().create_file(0, policy.clone()).id)
        .collect();
    let sizes = SizeDist::Uniform {
        min: BLOCK,
        max: BLOCK + BLOCK / 32,
    };
    let writes = (WriteProtocol::SpinTriec { interleave: true }, sizes, 16);
    let fail_first_node = |cl: &mut SimCluster| {
        let victim = cl.storage_nodes[0] as u32;
        cl.control.borrow_mut().mark_node_failed(victim);
    };
    let rate = allocs_per_read(cl, &files, writes, ReadProtocol::Offloaded, fail_first_node);
    assert!(
        rate < BUDGET_DEGRADED_READ,
        "offloaded degraded reads: {rate:.2} allocations per read (budget {BUDGET_DEGRADED_READ})"
    );
}
