//! The client read cache + readahead, end to end: hits are byte-identical
//! to the uncached path and absorb control-plane resolves; invalidation
//! rides the generation callbacks (commits, overwrites, repair re-homing,
//! unlink, cross-client); degraded reconstructions populate the cache so
//! the same extent is never reconstructed twice by one client; and the
//! placement-time size-inflation bugfix holds — a write that is rejected
//! or abandoned between placement and commit changes neither `stat` nor
//! read planning.

use std::cell::RefCell;
use std::rc::Rc;

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, FsError, Job, LayoutSpec, ReadCompletion, ReadSlot,
    SimCluster, StorageMode, WriteProtocol,
};
use nadfs_tests::seed_from_env;
use nadfs_wire::{payload_checksum, RsScheme, Status};

fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        v.extend_from_slice(&z.to_le_bytes());
    }
    v.truncate(len);
    v
}

/// Hits serve byte-identical data from client memory, skip the
/// control-plane resolve, and report themselves as `from_cache`.
#[test]
fn cache_hits_are_byte_identical_and_absorb_resolves() {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 3, StorageMode::Spin)));
    fsc.mkdir_p("/c").expect("mkdir");
    let h = fsc
        .create("/c/f", LayoutSpec::striped(3, 16 << 10))
        .expect("create");
    let data = payload(seed_from_env(), 120_000);
    let w = fsc.append(&h, &data).expect("write");
    // Shed the write-through fills: this test exercises the miss → hit
    // path from a cold cache.
    fsc.drop_read_cache();

    let r1 = fsc.read_at(&h, 10_000, 50_000).expect("read 1");
    assert!(!r1.from_cache, "cold read goes to the network");
    let resolves_after_miss = fsc.cluster.control.borrow().meta.stats.resolves;
    let r2 = fsc.read_at(&h, 10_000, 50_000).expect("read 2");
    assert!(r2.from_cache, "repeat read serves from cache");
    assert_eq!(r2.data.as_ref(), &data[10_000..60_000]);
    assert_eq!(r2.data.as_ref(), r1.data.as_ref(), "cached ≡ uncached");
    assert_eq!(r2.checksum, r1.checksum);
    let (miss, hit) = (r1.end.since(r1.start), r2.end.since(r2.start));
    assert!(
        hit.ps() * 5 <= miss.ps(),
        "a hit is at least 5x faster than the fan-out it replaced: {hit:?} vs {miss:?}"
    );
    // A strict subrange of the cached span also hits.
    let r3 = fsc.read_at(&h, 25_000, 10_000).expect("read 3");
    assert!(r3.from_cache);
    assert_eq!(r3.data.as_ref(), &data[25_000..35_000]);
    assert_eq!(
        fsc.cluster.control.borrow().meta.stats.resolves,
        resolves_after_miss,
        "hits never round-trip to the control plane"
    );
    let stats = fsc.read_cache_stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 1);
    // Whole-file read-back still matches the write checksum (mix of
    // cached span and fresh tail).
    let full = fsc.read_at(&h, 0, data.len() as u32).expect("full");
    assert_eq!(full.data.as_ref(), &data[..]);
    assert_eq!(full.checksum, w.checksum);
}

/// An overwrite bumps the extent-map generation: exactly the affected
/// file drops from the cache, and the next read observes the new bytes.
#[test]
fn overwrite_invalidates_exactly_the_affected_file() {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 2, StorageMode::Spin)));
    fsc.mkdir_p("/c").expect("mkdir");
    let ha = fsc.create("/c/a", LayoutSpec::SINGLE).expect("create a");
    let hb = fsc.create("/c/b", LayoutSpec::SINGLE).expect("create b");
    let a = payload(1, 40_000);
    let b = payload(2, 40_000);
    fsc.append(&ha, &a).expect("write a");
    fsc.append(&hb, &b).expect("write b");
    fsc.drop_read_cache(); // cold warm-up reads below populate the cache
    assert!(!fsc.read_at(&ha, 0, 40_000).expect("warm a").from_cache);
    assert!(!fsc.read_at(&hb, 0, 40_000).expect("warm b").from_cache);

    let patch = payload(3, 10_000);
    fsc.write_at(&ha, 5_000, &patch).expect("overwrite a");
    let ra = fsc.read_at(&ha, 0, 40_000).expect("read a");
    assert!(!ra.from_cache, "a's cached span was invalidated");
    let mut expect = a.clone();
    expect[5_000..15_000].copy_from_slice(&patch);
    assert_eq!(ra.data.as_ref(), &expect[..]);
    let rb = fsc.read_at(&hb, 0, 40_000).expect("read b");
    assert!(rb.from_cache, "b was untouched: still cached");
    assert_eq!(rb.data.as_ref(), &b[..]);
    assert!(fsc.read_cache_stats().invalidations >= 1);
}

/// Regression (the tentpole's prerequisite bugfix): a write rejected
/// after placement — the kill lands between placement and commit — must
/// not inflate `stat` or read planning. Before the fix, `place_write`
/// advanced `size` eagerly, so the rejected bytes became phantom EOF
/// that reads planned holes for.
#[test]
fn rejected_write_does_not_inflate_stat_or_read_planning() {
    // Forged capabilities: the write places, fans out, and is rejected
    // by the NIC's validation — placement happened, commit never does.
    let cluster = SimCluster::build_with(ClusterSpec::new(1, 3, StorageMode::Spin), |app| {
        app.forge_capabilities = true;
    });
    let mut fsc = FsClient::new(cluster);
    fsc.mkdir_p("/r").expect("mkdir");
    let h = fsc.create("/r/f", LayoutSpec::SINGLE).expect("create");
    let err = fsc.append(&h, &payload(9, 32 << 10)).unwrap_err();
    assert_eq!(err, FsError::Io(Status::AuthFailed), "write rejected");

    let attr = fsc.stat(&h).expect("stat");
    assert_eq!(attr.size, 0, "rejected write must not move stat");
    let r = fsc.read_at(&h, 0, 64 << 10).expect("read");
    assert_eq!(r.len, 0, "no phantom EOF: a clean zero-length short read");
    assert!(r.data.is_empty());
}

/// The scripted variant: the client abandons the write after its first
/// packet (a client death between placement and commit). `stat` and
/// `read_at` past the true EOF see only committed bytes; a later good
/// write commits past the gap and the gap reads as a hole.
#[test]
fn abandoned_write_between_placement_and_commit_leaves_no_phantom_eof() {
    let cluster = SimCluster::build_with(
        ClusterSpec::new(1, 3, StorageMode::Spin).with_window(2),
        |app| app.abandon_every = Some(1), // every Spin write is abandoned
    );
    let mut fsc = FsClient::new(cluster);
    fsc.op_deadline_ms = 200;
    fsc.mkdir_p("/r").expect("mkdir");
    let mut h = fsc.create("/r/f", LayoutSpec::SINGLE).expect("create");
    h.write_protocol = WriteProtocol::Spin;
    let doomed = payload(5, 64 << 10);
    let err = fsc.write_at(&h, 0, &doomed).unwrap_err();
    assert_eq!(err, FsError::TimedOut, "the abandoned write never acks");

    // Placement happened (the cursor moved), but nothing committed.
    let attr = fsc.stat(&h).expect("stat");
    assert_eq!(attr.size, 0, "abandoned write must not move stat");
    let r = fsc.read_at(&h, 0, 128 << 10).expect("read past true EOF");
    assert_eq!(r.len, 0, "nothing durable to read");

    // A later write goes through the CPU path (not abandoned) and lands
    // AFTER the abandoned placement's cursor: the abandoned range is a
    // hole (zeros), never the doomed payload.
    h.write_protocol = WriteProtocol::Rpc;
    let good = payload(6, 8 << 10);
    let w = fsc.append(&h, &good).expect("good write");
    assert_eq!(w.status, Status::Ok);
    assert_eq!(w.placement.offset, 64 << 10, "placed after the dead cursor");
    let attr = fsc.stat(&h).expect("stat");
    assert_eq!(attr.size, (64 << 10) + (8 << 10));
    let r = fsc
        .read_at(&h, 0, (64 << 10) + (8 << 10))
        .expect("full read");
    assert_eq!(r.len, (64 << 10) + (8 << 10));
    assert!(
        r.data[..64 << 10].iter().all(|&x| x == 0),
        "the abandoned range is a hole, not phantom bytes"
    );
    assert_eq!(&r.data[64 << 10..], &good[..]);
}

/// Boundary regression: `resolve_read` saturates `offset + len` instead
/// of overflowing, so hostile offsets produce clean zero-length short
/// reads — and the cache answers the repeats without a resolve.
#[test]
fn huge_offset_reads_are_clean_zero_length_short_reads() {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 2, StorageMode::Spin)));
    fsc.mkdir_p("/b").expect("mkdir");
    let h = fsc.create("/b/f", LayoutSpec::SINGLE).expect("create");
    fsc.append(&h, &payload(4, 4096)).expect("write");
    for offset in [u64::MAX, u64::MAX - 1, u64::MAX - 4095, 1 << 62] {
        let r = fsc.read_at(&h, offset, u32::MAX).expect("read");
        assert_eq!(r.len, 0, "offset {offset:#x}");
        assert_eq!(r.status, Status::Ok);
        assert!(r.data.is_empty());
    }
    // The EOF learned from the clamped fetches serves repeats locally.
    let r = fsc.read_at(&h, u64::MAX, 100).expect("repeat");
    assert_eq!(r.len, 0);
    assert!(r.from_cache, "past-EOF repeats are cache hits");
}

/// Degraded reconstructions populate the cache: a repair-promoted extent
/// is never reconstructed twice by the same client, and the repair's
/// re-homing (generation bump) invalidates so post-repair reads go
/// direct.
#[test]
fn degraded_reconstruction_populates_cache_until_repair_rehomes() {
    let scheme = RsScheme::new(3, 2);
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 6, StorageMode::Spin)));
    fsc.mkdir_p("/ec").expect("mkdir");
    let h = fsc
        .create_with_policy(
            "/ec/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    let data = payload(seed_from_env() ^ 0xD1, 150_000);
    let w = fsc.append(&h, &data).expect("write");
    let victim = fsc
        .cluster
        .storage_index(w.placement.data_chunks[0].node as usize);
    fsc.fail_storage_node(victim);
    // Shed the write-through fill so the first read actually exercises
    // the degraded fan-out + reconstruction.
    fsc.drop_read_cache();

    let r1 = fsc.read_at(&h, 0, data.len() as u32).expect("degraded");
    assert_eq!(r1.degraded_stripes, 1, "first read reconstructs");
    assert_eq!(r1.data.as_ref(), &data[..]);
    let gen_before = fsc.cluster.control.borrow().extent_generation(h.id());

    let r2 = fsc.read_at(&h, 2_000, 50_000).expect("repeat");
    assert!(r2.from_cache, "reconstructed bytes serve from cache");
    assert_eq!(r2.degraded_stripes, 0, "never reconstructed twice");
    assert_eq!(r2.data.as_ref(), &data[2_000..52_000]);

    // The drain re-homes the shard: generation bump → invalidation.
    let report = fsc.drain_repairs();
    assert!(report.converged());
    assert!(fsc.cluster.control.borrow().extent_generation(h.id()) > gen_before);
    let r3 = fsc.read_at(&h, 2_000, 50_000).expect("post-repair");
    assert!(!r3.from_cache, "repair re-homing invalidated the cache");
    assert_eq!(r3.degraded_stripes, 0, "and the fresh read is direct");
    assert_eq!(r3.data.as_ref(), &data[2_000..52_000]);
    assert!(fsc.read_cache_stats().invalidations >= 1);
}

fn read_on(
    cluster: &mut SimCluster,
    client: usize,
    file: u64,
    offset: u64,
    len: u32,
) -> ReadCompletion {
    let slot: ReadSlot = Rc::new(RefCell::new(None));
    cluster.submit(
        client,
        Job::Read {
            file,
            offset,
            len,
            protocol: nadfs_core::ReadProtocol::Rdma,
            token: 0x77,
            slot: Some(slot.clone()),
        },
    );
    cluster.start();
    cluster
        .run_until_slot(&slot, 10_000)
        .expect("read completes")
}

/// Cross-client coherence: client 1's cached data is invalidated by
/// client 0's commit through the control plane's callback fan-out.
#[test]
fn cross_client_commit_invalidates_via_callbacks() {
    let cluster = SimCluster::build(ClusterSpec::new(2, 3, StorageMode::Spin));
    let mut fsc = FsClient::new(cluster); // drives client 0
    fsc.mkdir_p("/x").expect("mkdir");
    let h = fsc
        .create("/x/f", LayoutSpec::striped(2, 8192))
        .expect("create");
    let a = payload(10, 60_000);
    fsc.append(&h, &a).expect("write");

    // Client 1 reads twice: the second is a hit on ITS cache.
    let r1 = read_on(&mut fsc.cluster, 1, h.id(), 0, 60_000);
    assert!(!r1.from_cache);
    assert_eq!(r1.data.as_ref(), &a[..]);
    let r2 = read_on(&mut fsc.cluster, 1, h.id(), 0, 60_000);
    assert!(r2.from_cache, "client 1's own cache serves the repeat");

    // Client 0 overwrites: the commit's generation bump fans out to
    // every registered cache — client 1 must not serve stale bytes.
    let patch = payload(11, 20_000);
    fsc.write_at(&h, 30_000, &patch).expect("overwrite");
    let r3 = read_on(&mut fsc.cluster, 1, h.id(), 0, 60_000);
    assert!(!r3.from_cache, "client 1 invalidated by client 0's commit");
    let mut expect = a.clone();
    expect[30_000..50_000].copy_from_slice(&patch);
    assert_eq!(r3.data.as_ref(), &expect[..]);
    assert_eq!(r3.checksum, payload_checksum(&expect));
    assert!(fsc.cluster.read_caches[1].borrow().stats.invalidations >= 1);
}

/// Unlink drops the file's cached data unconditionally (and rename-
/// replace rides the same event).
#[test]
fn unlink_drops_cached_data() {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 2, StorageMode::Spin)));
    fsc.mkdir_p("/u").expect("mkdir");
    let h = fsc.create("/u/f", LayoutSpec::SINGLE).expect("create");
    fsc.append(&h, &payload(12, 10_000)).expect("write");
    fsc.read_at(&h, 0, 10_000).expect("warm");
    assert_eq!(fsc.cluster.read_caches[0].borrow().cached_files(), 1);
    fsc.cluster
        .control
        .borrow_mut()
        .unlink("/u/f", 1)
        .expect("unlink");
    assert_eq!(
        fsc.cluster.read_caches[0].borrow().cached_files(),
        0,
        "unlink dropped the cached spans"
    );
}

/// The steady-state assertion CI gates on: a sequential stream through
/// `FsClient` reaches a high hit rate via readahead, with the resolve
/// ledger showing the control-RPC reduction. Deterministic — simulated
/// time, seeded payloads.
#[test]
fn sequential_stream_reaches_steady_state_hit_rate() {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 4, StorageMode::Spin)));
    fsc.mkdir_p("/s").expect("mkdir");
    let h = fsc
        .create("/s/stream", LayoutSpec::striped(4, 64 << 10))
        .expect("create");
    let data = payload(seed_from_env() ^ 0x5E0, 1 << 20);
    fsc.append(&h, &data).expect("write");
    // Cold stream: the point is readahead ramping, not read-after-write.
    fsc.drop_read_cache();

    let block = 16 << 10;
    let n = (data.len() / block) as u64; // 64 sequential reads
    for i in 0..n {
        let off = i * block as u64;
        let r = fsc.read_at(&h, off, block as u32).expect("read");
        assert_eq!(r.data.as_ref(), &data[off as usize..off as usize + block]);
    }
    let stats = fsc.read_cache_stats();
    assert!(
        stats.hit_rate() >= 0.8,
        "steady-state hit rate regressed: {:.2} ({} hits / {} misses)",
        stats.hit_rate(),
        stats.hits,
        stats.misses
    );
    assert!(stats.readahead_bytes > 0, "readahead never engaged");
    assert_eq!(
        stats.readahead_bytes + stats.misses * block as u64,
        data.len() as u64,
        "readahead fetches what the misses did not, once, and nothing past EOF"
    );
    let resolves = fsc.cluster.control.borrow().meta.stats.resolves;
    assert!(
        resolves <= stats.misses + 2,
        "only misses resolve: {resolves} resolves for {} misses",
        stats.misses
    );
    assert!(
        resolves < n / 4,
        "control-RPC reduction regressed: {resolves} resolves for {n} reads"
    );
}

/// A block-aligned scan leaves one cached span per fetch, on block
/// boundaries, so every later block read lies inside one span and is
/// served as a window into that span's buffer: no hit copies a byte.
#[test]
fn aligned_hits_are_slices_of_the_cached_spans() {
    const BLOCK: usize = 16 << 10;
    const BLOCKS: usize = 32;
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 4, StorageMode::Spin)));
    fsc.mkdir_p("/s").expect("mkdir");
    let h = fsc
        .create("/s/scan", LayoutSpec::striped(4, BLOCK as u32))
        .expect("create");
    let data = payload(seed_from_env() ^ 0x511CE, BLOCKS * BLOCK);
    fsc.append(&h, &data).expect("write");
    fsc.drop_read_cache();

    let block_at = |b: usize| (b * BLOCK) as u64;
    for b in 0..BLOCKS {
        let r = fsc.read_at(&h, block_at(b), BLOCK as u32).expect("scan");
        assert_eq!(r.data.as_ref(), &data[b * BLOCK..(b + 1) * BLOCK]);
    }
    let scan = fsc.read_cache_stats();
    assert!(scan.hits > 0 && scan.misses > 0, "readahead never engaged");

    for b in 0..BLOCKS {
        // Held together, so equal addresses mean one shared buffer and
        // not an allocation freed and handed out again.
        let first = fsc.read_at(&h, block_at(b), BLOCK as u32).expect("re-read");
        let again = fsc.read_at(&h, block_at(b), BLOCK as u32).expect("re-read");
        let half = fsc
            .read_at(&h, block_at(b) + (BLOCK / 2) as u64, (BLOCK / 2) as u32)
            .expect("re-read the second half");
        assert!(first.from_cache && again.from_cache && half.from_cache);
        assert_eq!(first.data.as_ref(), &data[b * BLOCK..(b + 1) * BLOCK]);
        assert_eq!(first.checksum, payload_checksum(&first.data));
        assert_eq!(first.data.as_ptr(), again.data.as_ptr(), "block {b} copied");
        assert!(
            first.data.as_ptr_range().contains(&half.data.as_ptr()),
            "block {b}: a sub-range hit lies outside the span's buffer"
        );
        assert_eq!(half.data.as_ref(), &first.data[BLOCK / 2..]);
    }
    let stats = fsc.read_cache_stats();
    assert_eq!(stats.hits, scan.hits + 3 * BLOCKS as u64);
    assert_eq!(stats.misses, scan.misses, "the scan cached every block");
    assert_eq!(stats.stitched_hits, 0, "an aligned hit had to stitch");
}

/// Write-through population: a committed write lands in the read cache
/// under the post-commit generation, so read-after-write is a local hit
/// (no resolve, no fan-out) and byte-identical to the written data.
#[test]
fn read_after_write_is_a_local_cache_hit() {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 3, StorageMode::Spin)));
    fsc.mkdir_p("/w").expect("mkdir");
    let h = fsc
        .create("/w/f", LayoutSpec::striped(3, 16 << 10))
        .expect("create");
    let data = payload(seed_from_env() ^ 0x3A, 96_000);
    fsc.append(&h, &data).expect("write");

    let resolves_before = fsc.cluster.control.borrow().meta.stats.resolves;
    let r = fsc.read_at(&h, 0, data.len() as u32).expect("read");
    assert!(r.from_cache, "read-after-write serves from the write fill");
    assert_eq!(r.data.as_ref(), &data[..], "write-through bytes identical");
    assert_eq!(
        fsc.cluster.control.borrow().meta.stats.resolves,
        resolves_before,
        "no resolve round-trip for a read-after-write"
    );
    let r2 = fsc.read_at(&h, 10_000, 30_000).expect("subrange");
    assert!(r2.from_cache);
    assert_eq!(r2.data.as_ref(), &data[10_000..40_000]);
    let stats = fsc.read_cache_stats();
    assert!(stats.write_fills >= 1, "write path populated the cache");
    // A second append extends the cached span contiguously: the commit's
    // generation bump invalidates the old fill, but the new write fill
    // re-covers its own range.
    let more = payload(0x3B, 8_000);
    fsc.append(&h, &more).expect("append");
    let r3 = fsc
        .read_at(&h, data.len() as u64, more.len() as u32)
        .expect("tail");
    assert!(r3.from_cache, "the appended range hits from its write fill");
    assert_eq!(r3.data.as_ref(), &more[..]);
}

/// Writes through the legacy `Bytes` job path also invalidate (the
/// commit rides the same control-plane path), keeping the cache coherent
/// for mixed Job/FsClient users.
#[test]
fn own_append_invalidates_and_extends_served_eof() {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 2, StorageMode::Spin)));
    fsc.mkdir_p("/e").expect("mkdir");
    let h = fsc.create("/e/f", LayoutSpec::SINGLE).expect("create");
    let a = payload(20, 8_192);
    fsc.append(&h, &a).expect("write");
    // Read past EOF: short read, EOF cached.
    let r = fsc.read_at(&h, 0, 32 << 10).expect("read");
    assert_eq!(r.len, 8_192);
    let r2 = fsc.read_at(&h, 0, 32 << 10).expect("repeat");
    assert!(r2.from_cache, "EOF-clamped repeat hits");
    assert_eq!(r2.len, 8_192);
    // Append more: the commit invalidates the cached EOF, so the same
    // read now returns the longer file.
    let b = payload(21, 4_096);
    fsc.append(&h, &b).expect("append");
    let r3 = fsc.read_at(&h, 0, 32 << 10).expect("after append");
    assert!(!r3.from_cache, "own append invalidated the cached span");
    assert_eq!(r3.len, 8_192 + 4_096);
    assert_eq!(&r3.data[..8_192], &a[..]);
    assert_eq!(&r3.data[8_192..], &b[..]);
}

/// Which background readahead a parking read waits on must not depend on
/// hash-map iteration order: with window 2 and reads that straddle stripe
/// boundaries, two overlapping readaheads can both cover a request, and
/// "first found" differed between two runs of one seed. Two runs must
/// agree on every completion and on the engine's dispatch order.
#[test]
fn overlapping_readaheads_park_deterministically() {
    use nadfs_core::{ReadPattern, ReadProtocol, SizeDist, Workload};

    fn run() -> (Vec<(u64, u64, u64, u64)>, u64) {
        let spec = ClusterSpec::new(2, 4, StorageMode::Spin).with_window(2);
        let mut cl = SimCluster::build(spec);
        cl.control.borrow_mut().mkdir_p("/ra", 0).expect("mkdir");
        let files: Vec<u64> = (0..2)
            .map(|c| {
                cl.control
                    .borrow_mut()
                    .create_file_at(
                        &format!("/ra/f{c}"),
                        LayoutSpec::striped(4, 16 << 10),
                        FilePolicy::Plain,
                    )
                    .expect("fresh path")
                    .id
            })
            .collect();
        for (c, &file) in files.iter().enumerate() {
            for job in Workload::new(file, WriteProtocol::Spin, SizeDist::Fixed(64 << 10))
                .with_writes(64)
                .with_seed(7)
                .jobs_for_client(c)
            {
                cl.submit(c, job);
            }
        }
        cl.start();
        assert_eq!(cl.run_until_writes(128, 1_000), 128, "preload incomplete");
        for cache in &cl.read_caches {
            cache.borrow_mut().clear();
        }
        // An unaligned 60 KiB scan of the 4 MiB just written: two reads
        // in flight miss in quick succession while the window ramps, and
        // their readahead tails overlap.
        let mut n = 0;
        for (c, &file) in files.iter().enumerate() {
            // The generator sizes the read region from its own write
            // phase (68 x 60 KiB < 4 MiB); only the reads are kept.
            for job in Workload::new(file, WriteProtocol::Spin, SizeDist::Fixed(60 << 10))
                .with_writes(68)
                .with_reads(200, ReadProtocol::Rdma)
                .with_read_pattern(ReadPattern::Sequential)
                .with_seed(7)
                .jobs_for_client(c)
                .into_iter()
                .filter(|j| matches!(j, Job::Read { .. }))
            {
                cl.submit(c, job);
                n += 1;
            }
        }
        cl.start();
        assert_eq!(cl.run_until_file_reads(n, 1_000), n, "reads incomplete");
        let done = cl
            .results
            .borrow()
            .file_reads
            .iter()
            .map(|r| (r.token, r.checksum, r.start.ps(), r.end.ps()))
            .collect();
        (done, cl.engine.order_digest())
    }

    // Every map gets its own hash keys, so a pick that leaks iteration
    // order shows up within a handful of runs in one process.
    let (first, first_digest) = run();
    for _ in 0..3 {
        let (again, digest) = run();
        assert_eq!(first, again, "completion lists diverged between runs");
        assert_eq!(first_digest, digest, "dispatch order diverged between runs");
    }
}
