//! Read-side NIC offload acceptance: sPIN gather reads collect a
//! stripe's chunks on the storage NIC and stream them back as one
//! validated flow; degraded stripes reconstruct on the NIC's EC engine
//! (the client never touches parity math); asynchronous readahead fills
//! run behind the triggering miss instead of inside it.

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, LayoutSpec, ReadProtocol, SimCluster, StorageMode,
};
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::Dur;
use nadfs_tests::{degraded_rs32_file, SplitMix};
use nadfs_wire::RsScheme;

fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// Sum a per-node counter family (`nic.N.gather.reads` etc.) across the
/// cluster from one snapshot.
fn sum_counters(snap: &nadfs_simnet::MetricsSnapshot, suffix: &str) -> u64 {
    (0..16)
        .filter_map(|i| snap.counter(&format!("nic.{i}.gather.{suffix}")))
        .sum()
}

/// Normal offloaded reads: byte-identical to the CPU fan-out path, with
/// the stripe collected and streamed by the storage NIC (gather counters
/// move, per-chunk client fan-out does not).
#[test]
fn offloaded_reads_are_byte_identical_and_stream_from_the_nic() {
    let scheme = RsScheme::new(3, 2);
    let cluster = SimCluster::build(ClusterSpec::new(1, 6, StorageMode::Spin));
    let mut fs = FsClient::new(cluster);
    fs.mkdir_p("/off").expect("mkdir");
    let h = fs
        .create_with_policy(
            "/off/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    let data = payload(21, 300_000);
    fs.append(&h, &data).expect("write");

    // Baseline: plain RDMA fan-out (cold cache).
    fs.drop_read_cache();
    let fanout = fs.read_at(&h, 0, data.len() as u32).expect("fanout read");
    assert_eq!(fanout.data.as_ref(), &data[..]);

    // Offloaded: one gather per storage node, streamed as a single flow.
    let before = fs.metrics_snapshot();
    fs.drop_read_cache();
    let off = h.clone().with_read_protocol(ReadProtocol::Offloaded);
    let r = fs.read_at(&off, 0, data.len() as u32).expect("gather read");
    assert_eq!(r.data.as_ref(), &data[..], "offloaded ≠ fan-out bytes");
    assert_eq!(r.checksum, fanout.checksum);
    assert!(!r.from_cache);
    assert_eq!(r.degraded_stripes, 0);

    let delta = fs.metrics_snapshot().delta(&before);
    assert!(
        delta.counter("client.0.read.offloaded_reads").unwrap_or(0) >= 1,
        "client must have issued gather reads"
    );
    assert!(
        sum_counters(&delta, "reads") >= 1,
        "a storage NIC must have coordinated a gather"
    );
    assert!(
        sum_counters(&delta, "bytes_streamed") >= data.len() as u64,
        "the whole range must stream through gather responders"
    );

    // The flow lands like any other read: cached for the next caller.
    let again = fs.read_at(&off, 0, data.len() as u32).expect("reread");
    assert!(again.from_cache, "gather reads populate the read cache");
}

/// Degraded offloaded reads: the gather coordinator fetches survivors
/// NIC-to-NIC and reconstructs on the firmware EC engine. The client's
/// own decode path is never invoked.
#[test]
fn offloaded_degraded_reads_reconstruct_on_the_nic_not_the_client() {
    let scheme = RsScheme::new(3, 2);
    let cluster = SimCluster::build(ClusterSpec::new(1, 6, StorageMode::Spin));
    let mut fs = FsClient::new(cluster);
    fs.mkdir_p("/off").expect("mkdir");
    let h = fs
        .create_with_policy(
            "/off/g",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    let data = payload(22, 200_000);
    let w = fs.append(&h, &data).expect("write");

    let victim = fs
        .cluster
        .storage_index(w.placement.data_chunks[0].node as usize);
    fs.fail_storage_node(victim);
    // The write-through fill would serve this locally — force the wire.
    fs.drop_read_cache();

    let before = fs.metrics_snapshot();
    let off = h.clone().with_read_protocol(ReadProtocol::Offloaded);
    let r = fs.read_at(&off, 0, data.len() as u32).expect("degraded");
    assert_eq!(r.data.as_ref(), &data[..], "NIC reconstruction ≠ original");
    assert!(r.degraded_stripes > 0, "the read must report degradation");

    let delta = fs.metrics_snapshot().delta(&before);
    assert_eq!(
        delta
            .counter("client.0.read.reconstructed_stripes")
            .unwrap_or(0),
        0,
        "client-side decode must never run in the offloaded config"
    );
    assert!(
        delta
            .counter("client.0.read.offloaded_degraded_stripes")
            .unwrap_or(0)
            >= 1
    );
    assert!(
        sum_counters(&delta, "chunks_reconstructed") >= 1,
        "the NIC EC engine must have rebuilt the lost chunk"
    );
    assert!(
        sum_counters(&delta, "remote_fetches") >= 1,
        "survivors are fetched NIC-to-NIC, not via the client"
    );
}

/// Asynchronous readahead: once the sequential streak triggers a
/// readahead plan, the tail is split into a background fill whose span
/// ends *after* the triggering miss has already completed — the miss no
/// longer pays for bytes the caller didn't ask for.
#[test]
fn readahead_fills_complete_after_the_triggering_miss_returns() {
    let cluster = SimCluster::build(ClusterSpec::new(1, 4, StorageMode::Spin));
    let mut fs = FsClient::new(cluster);
    fs.mkdir_p("/off").expect("mkdir");
    let h = fs.create("/off/seq", LayoutSpec::SINGLE).expect("create");
    const BLOCK: usize = 64 << 10;
    const BLOCKS: usize = 8;
    let data = payload(23, BLOCK * BLOCKS);
    // Block-sized appends: extent (and so read-piece) boundaries land at
    // block granularity, giving the readahead plan somewhere to split.
    for b in data.chunks(BLOCK) {
        fs.append(&h, b).expect("write");
    }
    fs.drop_read_cache();

    let mut hits = 0;
    for i in 0..BLOCKS {
        let off = (i * BLOCK) as u64;
        let r = fs.read_at(&h, off, BLOCK as u32).expect("read");
        assert_eq!(r.data.as_ref(), &data[i * BLOCK..(i + 1) * BLOCK]);
        hits += r.from_cache as u32;
    }
    // Let any still-in-flight background fill land before inspecting.
    let settle = fs.cluster.engine.now() + Dur::from_us(50_000);
    fs.cluster.engine.run_until(settle);
    assert_eq!(
        fs.open_spans(),
        0,
        "background fills must close their spans"
    );

    let snap = fs.metrics_snapshot();
    assert!(
        snap.counter("client.0.read.background_readaheads")
            .unwrap_or(0)
            >= 1,
        "the sequential streak must have split off a background fill"
    );

    // The fills made later reads free: at least the fill-covered blocks
    // came back from the cache (sub-µs) instead of re-missing.
    assert!(hits >= 3, "fill-covered blocks must hit the cache ({hits})");

    let obs = fs.cluster.obs.borrow();
    let fills: Vec<_> = obs
        .spans
        .done()
        .filter(|sp| sp.label.starts_with("readahead f"))
        .collect();
    assert!(!fills.is_empty(), "background readahead spans exist");
    assert!(fills.iter().all(|sp| sp.ok), "every fill completed");
    // Each fill pairs with the miss that spawned it: both spans are
    // marked READAHEAD at the same instant when the split happens
    // (parked reads also carry the mark, but at a different time). The
    // fill must fan out while its miss is still in flight — concurrent,
    // not serialized behind the miss's completion — and the miss's span
    // must end without the fill's reassembly/serve phases.
    for bg in &fills {
        let split_at = bg.mark_time(phase::READAHEAD).expect("fill marks split");
        let miss = obs
            .spans
            .done()
            .find(|sp| {
                sp.ok
                    && !sp.label.starts_with("readahead")
                    && sp.mark_time(phase::READAHEAD) == Some(split_at)
            })
            .expect("every fill has a triggering miss");
        let issued = bg
            .mark_time(phase::FANNED_OUT)
            .expect("the fill fanned out");
        assert!(
            issued < miss.end,
            "fill issued at {issued:?} only after its miss ended at {:?}",
            miss.end
        );
        assert!(
            !miss.has_mark(phase::REASSEMBLED) || miss.mark_time(phase::REASSEMBLED) < Some(bg.end),
            "the miss reassembled only the critical range, not the fill"
        );
    }
}

/// One unloaded 64 KiB read of stripe `stripe` of a two-stripe RS(3,2)
/// file on 1 client x 6 nodes (cache off), in ps of simulated time, with
/// the node holding data chunk 0 failed when `degraded`.
fn unloaded_read_ps(protocol: ReadProtocol, degraded: bool, stripe: u64) -> u64 {
    let (mut fs, h, data) = two_stripe_file(degraded);
    let h = h.with_read_protocol(protocol);
    let r = fs.read_at(&h, stripe * BLOCK, BLOCK as u32).expect("read");
    let at = (stripe * BLOCK) as usize;
    assert_eq!(r.data.as_ref(), &data[at..at + BLOCK as usize]);
    r.end.since(r.start).ps()
}

const BLOCK: u64 = 64 << 10;

fn two_stripe_file(degraded: bool) -> (FsClient, nadfs_core::FileHandle, Vec<u8>) {
    let lose: &[usize] = if degraded { &[0] } else { &[] };
    degraded_rs32_file(BLOCK as usize, 2, lose)
}

/// The unloaded read latencies, as numbers. The healthy paths and the
/// client-side degraded paths are the parent commit's to the picosecond
/// (stripe 0: extent record 0, where the survivor rotation picks what
/// "the first k survivors" used to); the offloaded degraded read, which
/// the parent store-and-forwarded through host memory in 17.027 µs, is
/// held to 0.65x of that. Stripe 1 is extent record 1, where the
/// rotation picks the other parity and another coordinator.
#[test]
fn unloaded_read_latencies_are_pinned() {
    use ReadProtocol::{Offloaded, Rdma, Rpc};
    let ps = unloaded_read_ps;
    assert_eq!(ps(Rdma, false, 0), 3_653_099);
    assert_eq!(ps(Rpc, false, 0), 4_653_619);
    assert_eq!(ps(Offloaded, false, 0), 4_072_699);
    assert_eq!(ps(Rdma, true, 0), 7_096_496);
    assert_eq!(ps(Rpc, true, 0), 8_097_016);
    let decoded = ps(Offloaded, true, 0);
    assert!(decoded * 100 <= 17_026_857 * 65 && decoded <= 11_000_000);
    assert_eq!(decoded, 9_144_362);
    // Unloaded, the nodes are interchangeable: which parity is fetched
    // and which survivor coordinates moves no latency.
    assert_eq!(ps(Rdma, true, 1), 7_096_496);
    assert_eq!(ps(Rpc, true, 1), 8_097_016);
    assert_eq!(ps(Offloaded, true, 1), 9_144_362);
}

/// A 4 KiB read that overlaps a lost chunk by 100 bytes moves those 100
/// bytes from each of the k survivors — not their chunks — and stages
/// nothing anywhere.
#[test]
fn a_small_degraded_read_fetches_the_lost_range_not_the_chunk() {
    let (mut fs, h, data) = two_stripe_file(true);
    let chunk_len = BLOCK.div_ceil(3);
    let h = h.with_read_protocol(ReadProtocol::Offloaded);
    let dma = |fs: &FsClient| -> Vec<(u64, u64)> {
        let dmas = fs.cluster.storage_dmas.iter();
        dmas.map(|d| (d.borrow().bytes_read, d.borrow().bytes_written))
            .collect()
    };
    let before = dma(&fs);
    // The last 100 bytes of lost data chunk 0, then 3996 of chunk 1.
    let off = chunk_len - 100;
    let r = fs.read_at(&h, off, 4096).expect("read");
    assert_eq!(r.data.as_ref(), &data[off as usize..off as usize + 4096]);
    let mut read: Vec<u64> = dma(&fs)
        .iter()
        .zip(&before)
        .map(|(now, was)| {
            assert_eq!(now.1, was.1, "nothing is staged in host memory");
            now.0 - was.0
        })
        .collect();
    read.sort_unstable();
    // The failed node, the parity not picked and the node outside the
    // stripe serve nothing; two survivors serve the 100-byte range; the
    // third also holds the read's healthy bytes.
    let expect = vec![0, 0, 0, 100, 100, 100 + 3996];
    assert_eq!(read, expect, "k x 100 bytes, not k x {chunk_len}");
}
