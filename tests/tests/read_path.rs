//! The read data path, end to end: `read_at` returns byte-identical data
//! for files written via every write protocol; striped reads fan out and
//! reassemble across nodes; degraded reads reconstruct through surviving
//! shards when a storage node is failed; expired read capabilities are
//! rejected on the NIC and on the CPU path.

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, FsError, LayoutSpec, ReadProtocol, SimCluster, StorageMode,
    WriteProtocol,
};
use nadfs_wire::{payload_checksum, BcastStrategy, RsScheme, Status};

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

fn client(n_clients: usize, n_storage: usize, mode: StorageMode) -> FsClient {
    FsClient::new(SimCluster::build(ClusterSpec::new(
        n_clients, n_storage, mode,
    )))
}

/// `read_at` returns byte-identical data for files written via every
/// write protocol (the PR's acceptance bar), and the completion checksums
/// agree end to end.
#[test]
fn read_back_matches_for_every_write_protocol() {
    let cases: Vec<(StorageMode, FilePolicy, WriteProtocol, usize)> = vec![
        (StorageMode::Plain, FilePolicy::Plain, WriteProtocol::Raw, 1),
        (StorageMode::Spin, FilePolicy::Plain, WriteProtocol::Spin, 1),
        (StorageMode::Plain, FilePolicy::Plain, WriteProtocol::Rpc, 1),
        (
            StorageMode::Plain,
            FilePolicy::Plain,
            WriteProtocol::RpcRdma,
            1,
        ),
        (
            StorageMode::Plain,
            FilePolicy::Replicated {
                k: 3,
                strategy: BcastStrategy::Ring,
            },
            WriteProtocol::RdmaFlat,
            3,
        ),
        (
            StorageMode::Plain,
            FilePolicy::Replicated {
                k: 3,
                strategy: BcastStrategy::Ring,
            },
            WriteProtocol::HyperLoop { chunk: 32 << 10 },
            3,
        ),
        (
            StorageMode::Plain,
            FilePolicy::Replicated {
                k: 3,
                strategy: BcastStrategy::Pbt,
            },
            WriteProtocol::CpuBcast { chunk: 32 << 10 },
            3,
        ),
        (
            StorageMode::Spin,
            FilePolicy::Replicated {
                k: 3,
                strategy: BcastStrategy::Ring,
            },
            WriteProtocol::SpinReplicated,
            3,
        ),
        (
            StorageMode::Spin,
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(3, 2),
            },
            WriteProtocol::SpinTriec { interleave: true },
            5,
        ),
        (
            StorageMode::FirmwareEc,
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(3, 2),
            },
            WriteProtocol::InecTriec,
            5,
        ),
    ];
    for (mode, policy, protocol, n_storage) in cases {
        let mut fsc = client(1, n_storage, mode);
        fsc.mkdir_p("/data").expect("mkdir");
        let mut h = fsc
            .create_with_policy("/data/f", LayoutSpec::SINGLE, policy)
            .expect("create");
        h.write_protocol = protocol;
        let data = payload(0xA11CE ^ n_storage as u64, 200_000);
        let w = fsc.append(&h, &data).expect("write");
        assert_eq!(w.status, Status::Ok, "{protocol:?}");
        assert_eq!(w.checksum, payload_checksum(&data));
        for read_protocol in [ReadProtocol::Rdma, ReadProtocol::Rpc] {
            h.read_protocol = read_protocol;
            let r = fsc.read_at(&h, 0, data.len() as u32).expect("read");
            assert_eq!(r.len as usize, data.len(), "{protocol:?}/{read_protocol:?}");
            assert_eq!(
                r.data.as_ref(),
                &data[..],
                "{protocol:?}/{read_protocol:?} corrupted read-back"
            );
            assert_eq!(r.checksum, w.checksum, "{protocol:?}/{read_protocol:?}");
            assert_eq!(r.degraded_stripes, 0);
        }
        fsc.close(h).expect("close");
    }
}

/// Striped files fan the read out across nodes and reassemble in file
/// order, including ragged, cross-stripe, and offset subranges.
#[test]
fn striped_reads_reassemble_across_nodes() {
    let mut fsc = client(1, 4, StorageMode::Spin);
    fsc.mkdir_p("/data").expect("mkdir");
    let h = fsc
        .create("/data/striped", LayoutSpec::striped(3, 8192))
        .expect("create");
    let data = payload(7, 100_000);
    fsc.append(&h, &data).expect("write");
    // Whole-file, cross-stripe interior, ragged tail, and head subranges.
    for (off, len) in [
        (0u64, 100_000u32),
        (5_000, 20_000),
        (8_192 - 1, 8_192 + 2),
        (90_000, 10_000),
        (0, 1),
    ] {
        let r = fsc.read_at(&h, off, len).expect("read");
        assert_eq!(r.len, len, "(off={off}, len={len})");
        assert_eq!(
            r.data.as_ref(),
            &data[off as usize..off as usize + len as usize],
            "(off={off}, len={len})"
        );
    }
    // Reads past EOF come back short, like pread.
    let tail = fsc.read_at(&h, 99_000, 50_000).expect("read");
    assert_eq!(tail.len, 1_000);
    assert_eq!(tail.data.as_ref(), &data[99_000..]);
}

/// Multiple appends then interior overwrite: reads observe the latest
/// bytes at every offset.
#[test]
fn overwrites_shadow_earlier_extents() {
    let mut fsc = client(1, 2, StorageMode::Spin);
    fsc.mkdir_p("/d").expect("mkdir");
    let h = fsc
        .create("/d/f", LayoutSpec::striped(2, 4096))
        .expect("create");
    let a = payload(1, 30_000);
    fsc.append(&h, &a).expect("append");
    let b = payload(2, 10_000);
    fsc.write_at(&h, 5_000, &b).expect("overwrite");
    let mut expect = a.clone();
    expect[5_000..15_000].copy_from_slice(&b);
    let r = fsc.read_at(&h, 0, 30_000).expect("read");
    assert_eq!(r.data.as_ref(), &expect[..]);
    // Size unchanged by the interior overwrite.
    let attr = fsc.stat(&h).expect("stat");
    assert_eq!(attr.size, 30_000);
}

/// Degraded read: with one failed storage node, an erasure-coded file's
/// bytes reconstruct through the surviving data + parity shards.
#[test]
fn degraded_read_reconstructs_erasure_coded_files() {
    for (mode, protocol) in [
        (
            StorageMode::Spin,
            WriteProtocol::SpinTriec { interleave: true },
        ),
        (StorageMode::FirmwareEc, WriteProtocol::InecTriec),
    ] {
        let scheme = RsScheme::new(3, 2);
        let mut fsc = client(1, 5, mode);
        fsc.mkdir_p("/ec").expect("mkdir");
        let mut h = fsc
            .create_with_policy(
                "/ec/f",
                LayoutSpec::SINGLE,
                FilePolicy::ErasureCoded { scheme },
            )
            .expect("create");
        h.write_protocol = protocol;
        let data = payload(55, 150_000);
        let w = fsc.append(&h, &data).expect("write");
        // Fail the node holding the first data chunk. The write-through
        // fill would mask the degraded path — drop it first.
        let failed_node = w.placement.data_chunks[0].node;
        let failed_idx = fsc.cluster.storage_index(failed_node as usize);
        fsc.fail_storage_node(failed_idx);
        fsc.drop_read_cache();
        let r = fsc
            .read_at(&h, 0, data.len() as u32)
            .expect("degraded read");
        assert_eq!(r.data.as_ref(), &data[..], "{mode:?} reconstruction");
        assert_eq!(r.degraded_stripes, 1, "{mode:?}");
        assert_eq!(r.checksum, w.checksum);
        // The reconstruction populated the read cache: a subrange inside
        // the failed chunk is served from client memory — this client
        // never reconstructs the same extent twice.
        let sub = fsc.read_at(&h, 1_000, 2_000).expect("cached subrange");
        assert_eq!(sub.data.as_ref(), &data[1_000..3_000]);
        assert_eq!(sub.degraded_stripes, 0, "served from cache, {mode:?}");
        assert!(fsc.read_cache_stats().hits >= 1);
        // With the cache dropped, the same subrange reconstructs again.
        fsc.drop_read_cache();
        let sub = fsc.read_at(&h, 1_000, 2_000).expect("degraded subrange");
        assert_eq!(sub.data.as_ref(), &data[1_000..3_000]);
        assert_eq!(sub.degraded_stripes, 1);
        // Recovery: direct reads resume.
        fsc.recover_storage_node(failed_idx);
        fsc.drop_read_cache();
        let healthy = fsc.read_at(&h, 0, data.len() as u32).expect("read");
        assert_eq!(healthy.degraded_stripes, 0);
        assert_eq!(healthy.data.as_ref(), &data[..]);
    }
}

/// A failed parity node does not degrade reads; losing more than m
/// shards makes the range unreadable (typed error, not garbage).
#[test]
fn degraded_read_limits() {
    let scheme = RsScheme::new(3, 2);
    let mut fsc = client(1, 5, StorageMode::Spin);
    fsc.mkdir_p("/ec").expect("mkdir");
    let mut h = fsc
        .create_with_policy(
            "/ec/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    h.write_protocol = WriteProtocol::SpinTriec { interleave: false };
    let data = payload(9, 90_000);
    let w = fsc.append(&h, &data).expect("write");
    // Parity-node failure: reads stay direct.
    let parity_idx = fsc
        .cluster
        .storage_index(w.placement.parities[0].node as usize);
    fsc.fail_storage_node(parity_idx);
    let r = fsc.read_at(&h, 0, data.len() as u32).expect("read");
    assert_eq!(r.degraded_stripes, 0);
    assert_eq!(r.data.as_ref(), &data[..]);
    // Fail m data nodes too: k-1 survivors < k ⇒ unreadable — but the
    // earlier read left the bytes in the client cache, which legally
    // keeps serving them (node failures don't change committed data).
    for coord in &w.placement.data_chunks[..2] {
        let idx = fsc.cluster.storage_index(coord.node as usize);
        fsc.fail_storage_node(idx);
    }
    let cached = fsc.read_at(&h, 0, data.len() as u32).expect("cached read");
    assert_eq!(cached.data.as_ref(), &data[..]);
    // An uncached client hits the typed error.
    fsc.drop_read_cache();
    let err = fsc.read_at(&h, 0, data.len() as u32).unwrap_err();
    assert_eq!(err, FsError::Io(Status::Rejected));
}

/// Replicated files fail over to a surviving replica.
#[test]
fn replicated_read_fails_over() {
    let mut fsc = client(1, 3, StorageMode::Spin);
    fsc.mkdir_p("/r").expect("mkdir");
    let h = fsc
        .create_with_policy(
            "/r/f",
            LayoutSpec::SINGLE,
            FilePolicy::Replicated {
                k: 3,
                strategy: BcastStrategy::Ring,
            },
        )
        .expect("create");
    let data = payload(3, 120_000);
    let w = fsc.append(&h, &data).expect("write");
    let primary_idx = fsc
        .cluster
        .storage_index(w.placement.replicas[0].node as usize);
    fsc.fail_storage_node(primary_idx);
    let r = fsc.read_at(&h, 10, 64_000).expect("failover read");
    assert_eq!(r.data.as_ref(), &data[10..64_010]);
    assert_eq!(r.degraded_stripes, 0, "replica failover is not degraded");
}

/// Expired read capabilities are rejected before any byte moves — on the
/// NIC for one-sided reads, on the CPU for RPC reads, and for offloaded
/// gathers by the sPIN header handler (`Spin`) or the NIC firmware
/// (`Plain`) — and the refused read leaves no span open.
#[test]
fn capability_expired_reads_rejected_on_nic_and_cpu_paths() {
    let cases = [
        (StorageMode::Spin, ReadProtocol::Rdma),
        (StorageMode::Spin, ReadProtocol::Rpc),
        (StorageMode::Spin, ReadProtocol::Offloaded),
        (StorageMode::Plain, ReadProtocol::Offloaded),
    ];
    for (mode, read_protocol) in cases {
        let spec = ClusterSpec::new(1, 1, mode);
        let cluster = SimCluster::build_with(spec, |app| {
            // Read capabilities are issued already expired; write
            // capabilities stay valid so the data lands first.
            app.read_cap_expires_at_ns = 1;
        });
        let mut fsc = FsClient::new(cluster);
        fsc.mkdir_p("/sec").expect("mkdir");
        let mut h = fsc.create("/sec/f", LayoutSpec::SINGLE).expect("create");
        h.read_protocol = read_protocol;
        let data = payload(4, 64 << 10);
        fsc.append(&h, &data).expect("write");
        // A write-through cache hit would never present the capability.
        fsc.drop_read_cache();
        let err = fsc.read_at(&h, 0, data.len() as u32).unwrap_err();
        assert_eq!(
            err,
            FsError::Io(Status::AuthFailed),
            "{mode:?}/{read_protocol:?} must reject expired read capabilities"
        );
        assert_eq!(fsc.open_spans(), 0, "{mode:?}/{read_protocol:?}");
        // Storage-side accounting: the rejection happened at the server,
        // and is counted once, by what was refused.
        let cpu = fsc.cluster.storage_stats[0].borrow().auth_failures;
        let nic = *fsc.cluster.nic_stats[0].borrow();
        let refusals = match read_protocol {
            ReadProtocol::Rpc => cpu,
            ReadProtocol::Rdma => nic.read_auth_failures,
            ReadProtocol::Offloaded => nic.gather_auth_failures,
        };
        assert_eq!(refusals, 1, "{mode:?}/{read_protocol:?}");
        let all = cpu + nic.read_auth_failures + nic.gather_auth_failures + nic.write_auth_failures;
        assert_eq!(all, 1, "{mode:?}/{read_protocol:?} counted once");
    }
}

/// Reads of never-written ranges are holes (zeros), and a fresh file
/// reads back empty.
#[test]
fn holes_and_empty_files_read_zero() {
    let mut fsc = client(1, 2, StorageMode::Plain);
    fsc.mkdir_p("/h").expect("mkdir");
    let h = fsc
        .create("/h/f", LayoutSpec::striped(2, 4096))
        .expect("create");
    let empty = fsc.read_at(&h, 0, 4096).expect("read empty");
    assert_eq!(empty.len, 0, "nothing written yet");
    // Extend the file with a gap: write at 10_000 only.
    let data = payload(8, 5_000);
    fsc.write_at(&h, 10_000, &data).expect("write");
    let r = fsc.read_at(&h, 0, 15_000).expect("read");
    assert_eq!(r.len, 15_000);
    assert!(r.data[..10_000].iter().all(|&b| b == 0), "hole reads zero");
    assert_eq!(&r.data[10_000..], &data[..]);
}

/// The legacy Job adapter still runs: a read-after-write workload mix
/// through the plan queue completes with matching checksums recorded in
/// the shared sink.
#[test]
fn workload_read_mix_completes_through_the_job_adapter() {
    use nadfs_core::{SizeDist, Workload};
    let spec = ClusterSpec::new(2, 3, StorageMode::Spin).with_window(2);
    let mut c = SimCluster::build(spec);
    let file = c.control.borrow_mut().create_file(0, FilePolicy::Plain);
    let w = Workload::new(file.id, WriteProtocol::Spin, SizeDist::Fixed(16 << 10))
        .with_writes(4)
        .with_reads(3, ReadProtocol::Rdma);
    for client in 0..2 {
        for job in w.jobs_for_client(client) {
            // Serialize: reads must follow this client's writes, which the
            // in-order plan queue guarantees.
            c.submit(client, job);
        }
    }
    c.start();
    assert_eq!(c.run_until_writes(8, 10_000), 8);
    assert_eq!(c.run_until_file_reads(6, 10_000), 6);
    let results = c.results.borrow();
    assert!(results.writes.iter().all(|r| r.status == Status::Ok));
    for r in &results.file_reads {
        assert_eq!(r.status, Status::Ok);
        assert_eq!(r.checksum, payload_checksum(&r.data));
    }
}
