//! Heap allocations per sPIN packet on the write paths, and per op on two
//! read paths and on metadata ops, held to a budget.
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
//! op instead, and so are metadata ops, which send no packet at all. The
//! same allocator keeps a count of the thread's live bytes, so a loop
//! that leaves the namespace as it found it can be held to retaining
//! nothing.
//!
//! The clusters run with observability off, as the benchmark's host-clock
//! rows do, so the count is the data path's and not the op spans'.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nadfs_core::{
    ClusterSpec, ControlPlane, FilePolicy, Job, LayoutSpec, MetaCache, MetaWorkload, ReadCache,
    ReadPattern, ReadProtocol, SimCluster, SizeDist, StorageMode, Workload, WriteProtocol,
};
use nadfs_meta::DirtyAttr;
use nadfs_simnet::{Component, Ctx, Dur, Engine};
use nadfs_wire::{BcastStrategy, Capability, MacKey, Rights, RsScheme, Status};

const SEED: u64 = 0xA110C;

/// Allocations per packet allowed, about 1.5× the rates measured when
/// the budgets were last set (0.532 and 0.647; 0.544 and 0.678 while host
/// memory kept its extents in a B-tree, 0.564 and 0.731 when the budgets
/// were first set, 0.593 and 0.768 while the events a component scheduled
/// for itself were boxed, 2.4 and 1.8 while gate wakes were boxed too and
/// recycled buffers lost their storage box).
const BUDGET_TRIEC: f64 = 0.8;
const BUDGET_RING: f64 = 0.97;

/// Allocations per read op allowed, about 1.5× the rates measured when
/// the budgets were last set (9.88 and 53.62; 16.11 and 62.95 while
/// `ExtentMap::resolve` allocated a gap vector per record it visited and
/// a debug build formatted the client's track name per retired op, 16.21
/// and 63.05 while host memory kept its extents in a B-tree, 16.3 and
/// 63.6 when the budgets were first set, 21.4 and 82.1 while the events a
/// component scheduled for itself were boxed).
const BUDGET_CACHED_READ: f64 = 14.8;
const BUDGET_DEGRADED_READ: f64 = 80.5;

/// The read paths' block: each read asks for about one.
const BLOCK: u32 = 64 << 10;

struct CountingAlloc;

thread_local! {
    // `const` and `Cell`: no lazy initialisation and no destructor, so
    // the allocator can touch them without allocating or re-entering.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed on this thread. Signed: a block
    // another thread allocated may be freed here.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation that grew the thread's live heap by `grown`
/// bytes (negative for a shrinking realloc).
fn bump(grown: i64) {
    // After the thread's locals are gone (thread exit), stop counting.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|b| b.set(b.get() + grown));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|b| b.set(b.get() - layout.size() as i64));
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
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

/// A stat on the control plane walks the path's components borrowed from
/// it, probes inodes in an id-hashed table and copies out only the
/// attributes, so it allocates nothing. (It allocated 1 while the
/// namespace collected the components into a `Vec` first.)
#[test]
fn a_warm_stat_allocates_nothing() {
    let cl = SimCluster::build(ClusterSpec::new(1, 2, StorageMode::Plain).with_meta_shards(4));
    let mut control = cl.control.borrow_mut();
    control.mkdir_p("/a/b/c", 0).expect("mkdir");
    let layout = LayoutSpec::striped(2, BLOCK);
    let ino = control
        .create_file_at("/a/b/c/f", layout, FilePolicy::Plain)
        .expect("create")
        .id;
    assert_eq!(control.lookup_path("/a/b/c/f").expect("stat").ino, ino);
    let a0 = allocs();
    for _ in 0..100 {
        control.lookup_path("/a/b/c/f").expect("stat");
    }
    let stats = allocs() - a0;
    assert_eq!(
        stats, 0,
        "100 stats of a 4-component path allocated {stats} times"
    );
}

/// A mutation allocates what it keeps and nothing on the way. On a
/// 4-shard plane over six nodes (an RS(3,2) stripe and a spare) with 32
/// subscribed caches, all empty, the fewest allocations each op made over
/// eight rounds: a create 3 (the new file's one layout, its name in the
/// inode and in the directory), a mkdir 2 (the name twice), a rename
/// across two shards 2 (the new name twice), an unlink, a one-update
/// attribute flush and a repair commit none, a plain write's commit
/// striped over two nodes 1 (the file's record list) and an RS(3,2)
/// commit 3 (the record list, the record's data and parity coordinates),
/// and an RS(3,2) commit that compacts 32 records into one 4 (the new
/// record's coordinates, the compaction's coverage list and its remap).
/// The compacting commit made 101 while the plane cloned every record
/// to find the dropped ones afterwards and the compaction built a fresh
/// coverage list for every record it visited.
/// The flush made 1 while it sorted a copy of its updates, the repair
/// commit 1 while it collected the coordinates it replaces, and the two
/// commits 3 and 4 while each new record's shard walk built a list; the
/// flush and the repair commit made 5 each while they built the file's
/// path to call back caches that held nothing. A rename made 8 while
/// each shard's op log kept the mutation, copying the rename's two paths
/// into every participant's intent. They were 7, 4, 12 and 2 while the
/// caches were called back with owned paths (2 per create, mkdir and
/// unlink, 4 per rename) and a create cloned the layout into the inode
/// and the whole file record into its shard (2 more).
#[test]
fn mutations_allocate_only_what_they_keep() {
    let cp = ControlPlane::new_sharded(SEED, vec![10, 11, 12, 13, 14, 15], 4);
    let mut c = cp.borrow_mut();
    for _ in 0..32 {
        c.register_cache(Rc::new(RefCell::new(MetaCache::new())));
    }
    let a = c.mkdir_p("/a", 0).expect("mkdir").ino;
    let b = c.mkdir_p("/b", 0).expect("mkdir").ino;
    assert_ne!(
        c.shard_of(a),
        c.shard_of(b),
        "a rename from /a to /b is 2PC"
    );
    let spec = LayoutSpec::striped(2, BLOCK);
    let rs32 = FilePolicy::ErasureCoded {
        scheme: RsScheme::new(3, 2),
    };
    let mut fewest = [u64::MAX; 9];
    for i in 0..8 {
        let (f, d, g) = (format!("/a/f{i}"), format!("/a/d{i}"), format!("/b/g{i}"));
        let a0 = allocs();
        let ino = c
            .create_file_at(&f, spec, FilePolicy::Plain)
            .expect("create")
            .id;
        let a1 = allocs();
        c.mkdir(&d, 0).expect("mkdir");
        let a2 = allocs();
        c.rename(&f, &g, 0).expect("rename");
        let a3 = allocs();
        let update = DirtyAttr {
            appended: 1,
            mtime_ns: i,
        };
        c.flush_attrs(&mut [(ino, update)]).expect("flush");
        let a4 = allocs();
        c.unlink(&g, 0).expect("unlink");
        let a5 = allocs();
        // A plain write striped over two nodes commits two records.
        let s = format!("/a/s{i}");
        let plain = c
            .create_file_at(&s, spec, FilePolicy::Plain)
            .expect("create")
            .id;
        let p = c.place_write(plain, 2 * BLOCK).expect("place");
        assert_eq!(p.stripes.len(), 2);
        let a8 = allocs();
        c.commit_write(plain, &p, 2 * BLOCK);
        let a9 = allocs();
        c.unlink(&s, 0).expect("unlink");
        // 31 overwrites of one RS(3,2) extent; the 32nd commit compacts
        // the map and drops the 31 records it shadows.
        let o = format!("/a/o{i}");
        let over = c.create_file_at(&o, spec, rs32.clone()).expect("create").id;
        for _ in 0..31 {
            let p = c.place_write_at(over, 3 * 4096, 0).expect("place");
            c.commit_write(over, &p, 3 * 4096);
        }
        let p = c.place_write_at(over, 3 * 4096, 0).expect("place");
        let a12 = allocs();
        c.commit_write(over, &p, 3 * 4096);
        let a13 = allocs();
        c.unlink(&o, 0).expect("unlink");
        // One erasure-coded extent loses a shard; commit its repair.
        let e = format!("/a/e{i}");
        let ec = c.create_file_at(&e, spec, rs32.clone()).expect("create").id;
        let p = c.place_write(ec, 3 * 4096).expect("place");
        let a10 = allocs();
        c.commit_write(ec, &p, 3 * 4096);
        let a11 = allocs();
        let victim = p.data_chunks[0].node;
        c.mark_node_failed(victim);
        let task = c.pop_repair().expect("a repair is queued");
        assert_eq!(task.file, ec);
        let spares = c.plan_repair(task).expect("plan").replacements();
        let a6 = allocs();
        c.commit_repair(task, &spares, 0).expect("commit repair");
        let a7 = allocs();
        c.mark_node_recovered(victim);
        c.unlink(&e, 0).expect("unlink");
        let counts = [
            a1 - a0,
            a2 - a1,
            a3 - a2,
            a5 - a4,
            a4 - a3,
            a7 - a6,
            a9 - a8,
            a11 - a10,
            a13 - a12,
        ];
        for (min, n) in fewest.iter_mut().zip(counts) {
            *min = (*min).min(n);
        }
    }
    assert_eq!(
        fewest,
        [3, 2, 2, 0, 0, 0, 1, 3, 4],
        "allocations per create, mkdir, rename, unlink, one-update flush, repair commit, \
         two-stripe plain commit, RS(3,2) commit and compacting RS(3,2) commit"
    );
}

/// A capability check is a MAC over the capability's five fields and
/// two comparisons: it allocates nothing. (It allocated 1 while the MAC
/// laid the five words out in a byte buffer first.)
#[test]
fn a_capability_verify_allocates_nothing() {
    let key = MacKey::from_seed(SEED);
    let cap = Capability::issue(&key, 3, 42, Rights::RW, 1_000_000, 7);
    let a0 = allocs();
    assert_eq!(cap.verify(&key, 0, Rights::WRITE), Ok(()));
    let made = allocs() - a0;
    assert_eq!(made, 0, "one capability verify allocated {made} times");
}

/// A component that takes wakes and does nothing with them.
struct Sink;

impl Component for Sink {
    fn handle(&mut self, _: &mut Ctx<'_>, _: Box<dyn Any>) {
        unreachable!("only wakes are scheduled");
    }
    fn wake(&mut self, _: &mut Ctx<'_>, _: u64) {}
}

/// A fresh engine's cold start: 1,000 wakes 4 ns apart, spread over the
/// event wheel's ~4 µs horizon, scheduled up front and run out. The
/// engine allocates 10 times for them, counted from `Engine::new`: its
/// component list, and 9 doublings of the wheel's one node arena. (It
/// allocated 979 times while each wheel slot grew a buffer of its own.)
#[test]
fn a_fresh_engine_spreads_events_over_its_wheel_in_few_allocations() {
    const EVENTS: u64 = 1_000;
    let a0 = allocs();
    let mut engine = Engine::new();
    let sink = engine.add_component(Box::new(Sink));
    for i in 1..=EVENTS {
        engine.wake(Dur::from_ns(4 * i), sink, i);
    }
    engine.run_to_completion();
    let made = allocs() - a0;
    assert_eq!(engine.wakes_dispatched(), EVENTS);
    assert_eq!(
        made, 10,
        "a fresh engine allocated {made} times for {EVENTS} wakes over its wheel"
    );
}

/// Allocations per metadata op allowed on a cache-off cluster, about 1.5×
/// the rate measured when the budget was last set (0.490; 0.523 while
/// each shard's op log kept every mutation, 0.855 while mutations called
/// back the caches with owned paths and a create cloned its file's layout
/// twice, 4.006 while a stat collected its path into a `Vec`, cloned the
/// file's layout for a cache that was off and, in a debug build,
/// formatted its client's track name for a check that no span was left
/// open). What is left is the mutations': the names they store and the
/// layout a create makes.
const BUDGET_META: f64 = 0.74;

#[test]
fn cache_off_metadata_ops_stay_under_their_allocation_budget() {
    let spec = ClusterSpec::new(4, 4, StorageMode::Plain)
        .with_meta_shards(4)
        .with_observability(false);
    let mut cl = SimCluster::build_with(spec, |app| app.cache_enabled = false);
    // One round under `root`: every client's tree, stat storm and churn.
    let mut round = |root: &str| {
        let w = MetaWorkload::new(root).with_dirs(2, 8).with_storm(256);
        w.prepare(&cl.control);
        for c in 0..4 {
            w.jobs_for_client(c)
                .into_iter()
                .for_each(|j| cl.submit(c, j));
        }
        let total = 4 * w.ops_per_client();
        cl.start();
        let a0 = allocs();
        let done = cl.run_until_metas(total, 5_000);
        let a1 = allocs();
        assert_eq!(done, total, "metadata ops incomplete");
        let metas = std::mem::take(&mut cl.results.borrow_mut().metas);
        assert!(metas.iter().all(|m| m.result.is_ok()));
        ((a1 - a0) as f64 / total as f64, total)
    };
    // The first round grows the engine's queues; the second is counted.
    round("/warm");
    let (rate, ops) = round("/m");
    assert!(
        rate < BUDGET_META,
        "cache-off metadata ops: {rate:.3} allocations per op over {ops} ops \
         (budget {BUDGET_META})"
    );
}

/// History is not state: a loop that leaves the namespace as it found it
/// leaves the heap as it found it too. On a 4-shard plane with 32 empty
/// metadata caches and 32 empty read caches subscribed, each round
/// creates a file, renames it across two shards and unlinks it. Once the
/// tables have grown to the loop's working set, 3N more rounds retain
/// not one byte. (1,500 rounds retained 1,529,280 bytes, about 1,020 a
/// round, while every shard kept the history of its op log, each
/// rename's two paths in every participant's intent among it; and
/// 1,671,168 bytes, about 1,110 a round, while each read cache kept a
/// tombstone for every unlinked file.)
#[test]
fn net_zero_namespace_churn_retains_nothing() {
    const N: usize = 500;
    let cp = ControlPlane::new_sharded(SEED, vec![10, 11, 12, 13, 14], 4);
    let mut c = cp.borrow_mut();
    for _ in 0..32 {
        c.register_cache(Rc::new(RefCell::new(MetaCache::new())));
        c.register_read_cache(Rc::new(RefCell::new(ReadCache::default())));
    }
    let a = c.mkdir_p("/a", 0).expect("mkdir").ino;
    let b = c.mkdir_p("/b", 0).expect("mkdir").ino;
    assert_ne!(
        c.shard_of(a),
        c.shard_of(b),
        "a rename from /a to /b is 2PC"
    );
    let spec = LayoutSpec::striped(2, BLOCK);
    let mut churn = |rounds: usize| {
        for _ in 0..rounds {
            c.create_file_at("/a/f", spec, FilePolicy::Plain)
                .expect("create");
            c.rename("/a/f", "/b/g", 0).expect("rename");
            c.unlink("/b/g", 0).expect("unlink");
        }
        live_bytes()
    };
    let warm = churn(N);
    let later = churn(3 * N);
    assert_eq!(
        later - warm,
        0,
        "{} more rounds of create, cross-shard rename and unlink retained \
         {} bytes",
        3 * N,
        later - warm
    );
}
