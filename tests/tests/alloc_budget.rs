//! Heap allocations per sPIN packet on the write paths, held to a budget.
//!
//! In the paper's design a NIC takes packet buffers, accumulators and
//! intermediate parities from fixed pools in its memory (§VI-B-3) and
//! never allocates per packet. The simulator models those pools
//! (`BufPool`, `PacketPool`); this test keeps the host process from
//! allocating per packet around them: per-packet event boxes, buffer
//! storage boxes, scratch lists. It counts allocations through a
//! `#[global_allocator]` that counts on the calling thread only, so the
//! other test threads do not leak in, and divides by the packets the
//! storage NICs' handlers processed (`pkts_processed`).
//!
//! The clusters run with observability off, as the benchmark's host-clock
//! rows do, so the count is the data path's and not the op spans'.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nadfs_core::{
    ClusterSpec, FilePolicy, SimCluster, SizeDist, StorageMode, Workload, WriteProtocol,
};
use nadfs_wire::{BcastStrategy, RsScheme, Status};

const SEED: u64 = 0xA110C;

/// Allocations per packet allowed, about 1.5× the rates measured when
/// the budgets were set (0.59 and 0.77; 2.4 and 1.8 while gate wakes were
/// boxed and recycled buffers lost their storage box).
const BUDGET_TRIEC: f64 = 0.9;
const BUDGET_RING: f64 = 1.15;

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
