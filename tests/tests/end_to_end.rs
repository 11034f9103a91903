//! Cross-crate end-to-end tests: every protocol stores correct bytes,
//! resiliency policies hold algebraically, and failure paths behave.

use nadfs_core::{
    ClusterSpec, CostModel, FilePolicy, Job, SimCluster, StorageMode, WriteProtocol, WriteResult,
};
use nadfs_gfec::ReedSolomon;
use nadfs_simnet::Dur;
use nadfs_wire::{BcastStrategy, RsScheme, Status};

fn payload(seed: u64, len: u32) -> Vec<u8> {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut v = Vec::with_capacity(len as usize);
    while v.len() < len as usize {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        v.extend_from_slice(&z.to_le_bytes());
    }
    v.truncate(len as usize);
    v
}

fn write_once(
    mode: StorageMode,
    policy: FilePolicy,
    protocol: WriteProtocol,
    size: u32,
    n_storage: usize,
    seed: u64,
) -> (SimCluster, WriteResult) {
    let spec = ClusterSpec::new(1, n_storage, mode);
    let mut c = SimCluster::build(spec);
    let file = c.control.borrow_mut().create_file(0, policy);
    c.submit(
        0,
        Job::Write {
            file: file.id,
            size,
            protocol,
            seed,
        },
    );
    c.start();
    assert_eq!(c.run_until_writes(1, 1_000), 1, "{protocol:?} incomplete");
    let r = c.results.borrow().writes[0].clone();
    (c, r)
}

#[test]
fn every_single_node_protocol_stores_identical_bytes() {
    let size = 200_000u32;
    let expect = payload(9, size);
    for (mode, protocol) in [
        (StorageMode::Plain, WriteProtocol::Raw),
        (StorageMode::Spin, WriteProtocol::Spin),
        (StorageMode::Plain, WriteProtocol::Rpc),
        (StorageMode::Plain, WriteProtocol::RpcRdma),
    ] {
        let (c, r) = write_once(mode, FilePolicy::Plain, protocol, size, 1, 9);
        assert_eq!(r.status, Status::Ok);
        let got = c.storage_mems[0]
            .borrow()
            .read(r.placement.primary.addr, size as usize);
        assert_eq!(got, expect, "{protocol:?} corrupted data");
    }
}

#[test]
fn replication_strategies_agree_on_replica_content() {
    let size = 300_000u32;
    let k = 4u8;
    for (mode, protocol, strategy) in [
        (
            StorageMode::Plain,
            WriteProtocol::RdmaFlat,
            BcastStrategy::Ring,
        ),
        (
            StorageMode::Plain,
            WriteProtocol::HyperLoop { chunk: 32 << 10 },
            BcastStrategy::Ring,
        ),
        (
            StorageMode::Plain,
            WriteProtocol::CpuBcast { chunk: 32 << 10 },
            BcastStrategy::Ring,
        ),
        (
            StorageMode::Plain,
            WriteProtocol::CpuBcast { chunk: 32 << 10 },
            BcastStrategy::Pbt,
        ),
        (
            StorageMode::Spin,
            WriteProtocol::SpinReplicated,
            BcastStrategy::Ring,
        ),
        (
            StorageMode::Spin,
            WriteProtocol::SpinReplicated,
            BcastStrategy::Pbt,
        ),
    ] {
        let policy = FilePolicy::Replicated { k, strategy };
        let (c, r) = write_once(mode, policy, protocol, size, k as usize, 31);
        assert_eq!(r.status, Status::Ok, "{protocol:?}/{strategy:?}");
        assert_eq!(r.placement.replicas.len(), k as usize);
        let expect = payload(31, size);
        for coord in &r.placement.replicas {
            let idx = c.storage_index(coord.node as usize);
            let got = c.storage_mems[idx].borrow().read(coord.addr, size as usize);
            assert_eq!(got, expect, "{protocol:?}/{strategy:?} node {}", coord.node);
        }
    }
}

/// Landing keeps the bytes the wire carried: the four replicas of a Ring
/// write are one buffer — the client's payload — not four copies. TriEC
/// chunks land whole too: a data chunk is its payload window, and a parity
/// chunk, copied out of its per-packet accumulators as they retire, grows
/// into one extent.
#[test]
fn landed_bytes_are_stored_once() {
    let size = 300_000u32;
    let policy = FilePolicy::Replicated {
        k: 4,
        strategy: BcastStrategy::Ring,
    };
    let protocol = WriteProtocol::SpinReplicated;
    let (c, r) = write_once(StorageMode::Spin, policy, protocol, size, 4, 31);
    assert_eq!(r.status, Status::Ok);
    let stored: Vec<_> = r
        .placement
        .replicas
        .iter()
        .map(|coord| {
            let idx = c.storage_index(coord.node as usize);
            c.storage_mems[idx]
                .borrow()
                .read_bytes(coord.addr, size as usize)
        })
        .collect();
    assert_eq!(stored.len(), 4);
    assert_eq!(&stored[0][..], &payload(31, size)[..]);
    for s in &stored {
        assert_eq!(s.as_ptr(), stored[0].as_ptr(), "a replica holds a copy");
    }

    let scheme = RsScheme::new(6, 3);
    let policy = FilePolicy::ErasureCoded { scheme };
    let protocol = WriteProtocol::SpinTriec { interleave: true };
    let (c, r) = write_once(StorageMode::Spin, policy, protocol, 6 * 50_000, 9, 55);
    assert_eq!(r.status, Status::Ok);
    for coord in r.placement.data_chunks.iter().chain(&r.placement.parities) {
        let idx = c.storage_index(coord.node as usize);
        let m = c.storage_mems[idx].borrow();
        assert_eq!(m.extent_count(), 1, "node {}'s chunk", coord.node);
    }
}

#[test]
fn ec_write_survives_m_failures_and_recovers_bytes() {
    for (spin, scheme) in [
        (true, RsScheme::new(3, 2)),
        (false, RsScheme::new(3, 2)),
        (true, RsScheme::new(6, 3)),
    ] {
        let (mode, protocol) = if spin {
            (
                StorageMode::Spin,
                WriteProtocol::SpinTriec { interleave: true },
            )
        } else {
            (StorageMode::FirmwareEc, WriteProtocol::InecTriec)
        };
        let k = scheme.k as usize;
        let m = scheme.m as usize;
        let size = (k as u32) * 50_000;
        let policy = FilePolicy::ErasureCoded { scheme };
        let (c, r) = write_once(mode, policy, protocol, size, k + m, 55);
        let chunk_len = r.placement.chunk_len as usize;

        // Gather all shards, erase m of them, reconstruct, compare.
        let shard = |coord: &nadfs_wire::ReplicaCoord| {
            let idx = c.storage_index(coord.node as usize);
            c.storage_mems[idx].borrow().read(coord.addr, chunk_len)
        };
        let full: Vec<Vec<u8>> = r
            .placement
            .data_chunks
            .iter()
            .chain(&r.placement.parities)
            .map(shard)
            .collect();
        let rs = ReedSolomon::new(k, m).expect("params");
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        for i in 0..m {
            shards[i * 2] = None; // spread the erasures
        }
        rs.reconstruct(&mut shards).expect("recovery");
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(
                s.as_ref().expect("present"),
                &full[i],
                "spin={spin} shard {i}"
            );
        }

        // The recovered data equals what the client wrote.
        let expect = payload(55, size);
        let mut recovered = Vec::new();
        for s in shards.iter().take(k) {
            recovered.extend_from_slice(s.as_ref().expect("data"));
        }
        recovered.truncate(size as usize);
        assert_eq!(recovered, expect, "spin={spin}");
    }
}

#[test]
fn tampered_capability_rejected_on_nic_and_cpu_paths() {
    for (mode, protocol) in [
        (StorageMode::Spin, WriteProtocol::Spin),
        (StorageMode::Plain, WriteProtocol::Rpc),
    ] {
        let spec = ClusterSpec::new(1, 1, mode);
        let mut c = SimCluster::build_with(spec, |app| {
            app.forge_capabilities = true;
        });
        let file = c.control.borrow_mut().create_file(0, FilePolicy::Plain);
        c.submit(
            0,
            Job::Write {
                file: file.id,
                size: 64 << 10,
                protocol,
                seed: 0,
            },
        );
        c.start();
        assert_eq!(c.run_until_writes(1, 1_000), 1);
        let r = c.results.borrow().writes[0].clone();
        assert_eq!(r.status, Status::AuthFailed, "{protocol:?}");
        // The refusal shows in the snapshot, where it happened.
        let counter = match mode {
            StorageMode::Spin => "nic.0.write.auth_failures",
            _ => "storage.0.auth_failures",
        };
        let refusals = c.metrics_snapshot().counter(counter);
        assert_eq!(refusals, Some(1), "{protocol:?}");
    }
}

#[test]
fn multiple_clients_share_one_storage_node() {
    let spec = ClusterSpec::new(4, 1, StorageMode::Spin).with_window(2);
    let mut c = SimCluster::build(spec);
    let file = c.control.borrow_mut().create_file(0, FilePolicy::Plain);
    let per_client = 6;
    for cl in 0..4 {
        for i in 0..per_client {
            c.submit(
                cl,
                Job::Write {
                    file: file.id,
                    size: 32 << 10,
                    protocol: WriteProtocol::Spin,
                    seed: (cl * 100 + i) as u64,
                },
            );
        }
    }
    c.start();
    assert_eq!(c.run_until_writes(4 * per_client, 5_000), 4 * per_client);
    let results = c.results.borrow();
    assert!(results.writes.iter().all(|r| r.status == Status::Ok));
    // Every write landed at a distinct address: verify no cross-talk.
    for r in &results.writes {
        let got = c.storage_mems[0]
            .borrow()
            .read(r.placement.primary.addr, r.size as usize);
        let seed = results
            .writes
            .iter()
            .find(|x| x.greq == r.greq)
            .map(|_| r.greq)
            .expect("self");
        let _ = seed;
        assert!(got.iter().any(|&b| b != 0), "empty write region");
    }
}

#[test]
fn descriptor_exhaustion_denies_then_retry_succeeds() {
    // Shrink the descriptor budget to 2 descriptors: with four clients
    // writing concurrently, at least one write is NACKed Busy and retried
    // by its client (§III-B).
    let mut cost = CostModel::paper();
    cost.pspin_state_bytes = cost.pspin.total_mem_bytes() - 2 * 77;
    let spec = ClusterSpec::new(4, 1, StorageMode::Spin).with_cost(cost);
    let mut c = SimCluster::build(spec);
    let file = c.control.borrow_mut().create_file(0, FilePolicy::Plain);
    for i in 0..4u64 {
        c.submit(
            i as usize,
            Job::Write {
                file: file.id,
                size: 256 << 10,
                protocol: WriteProtocol::Spin,
                seed: i,
            },
        );
    }
    c.start();
    assert_eq!(c.run_until_writes(4, 5_000), 4, "retries must converge");
    let results = c.results.borrow();
    assert!(results.writes.iter().all(|r| r.status == Status::Ok));
    let retried: u32 = results.writes.iter().map(|r| r.retries).sum();
    assert!(retried > 0, "the tiny descriptor budget must force retries");
    let tel = c.pspin_telemetry[0].as_ref().expect("pspin").borrow();
    assert!(tel.msgs_denied > 0);
}

#[test]
fn abandoned_write_is_cleaned_up_and_storage_keeps_working() {
    let mut cost = CostModel::paper();
    cost.pspin.cleanup_timeout = Dur::from_us(300);
    let spec = ClusterSpec::new(2, 1, StorageMode::Spin).with_cost(cost);
    let mut c = SimCluster::build_with(spec, |app| {
        // Client 0 and 1 both get the hook, but only jobs on client 0 run
        // (we only submit there); every job it starts is abandoned.
        app.abandon_every = Some(1);
    });
    let file = c.control.borrow_mut().create_file(0, FilePolicy::Plain);
    c.submit(
        0,
        Job::Write {
            file: file.id,
            size: 64 << 10,
            protocol: WriteProtocol::Spin,
            seed: 0,
        },
    );
    c.start();
    c.run_ms(3);
    {
        let tel = c.pspin_telemetry[0].as_ref().expect("pspin").borrow();
        assert_eq!(tel.msgs_cleaned, 1, "cleanup handler must fire");
        assert_eq!(c.storage_stats[0].borrow().cleanup_events, 1);
    }
    // The node still serves new writes afterwards (no leaked descriptors
    // blocking progress).
    let spec2 = ClusterSpec::new(1, 1, StorageMode::Spin);
    let mut c2 = SimCluster::build(spec2);
    let f2 = c2.control.borrow_mut().create_file(0, FilePolicy::Plain);
    c2.submit(
        0,
        Job::Write {
            file: f2.id,
            size: 64 << 10,
            protocol: WriteProtocol::Spin,
            seed: 1,
        },
    );
    c2.start();
    assert_eq!(c2.run_until_writes(1, 1_000), 1);
}

/// The buffer ring closes its loop in the real TriEC path, not only in
/// the micro-loop: intermediate-parity buffers drawn on the data nodes
/// are consumed on the parity nodes, and with one pool per NIC the
/// former allocated forever while the latter overflowed. After the first
/// op has sized the cluster's shared ring, no later op may allocate.
#[test]
fn triec_buffer_ring_has_no_misses_after_the_first_op() {
    let scheme = RsScheme::new(6, 3);
    let mut c = SimCluster::build(ClusterSpec::new(1, 9, StorageMode::Spin));
    let file = c
        .control
        .borrow_mut()
        .create_file(0, FilePolicy::ErasureCoded { scheme })
        .id;
    assert_eq!(c.buf_pools.len(), 1, "one shared ring, listed once");
    let pool = c.buf_pools[0].clone();
    let mut misses_after = Vec::new();
    let mut gets_after = Vec::new();
    for i in 0..6u64 {
        c.submit(
            0,
            Job::Write {
                file,
                size: 6 * (64 << 10) - 1000, // ragged tail chunk
                protocol: WriteProtocol::SpinTriec { interleave: true },
                seed: 100 + i,
            },
        );
        c.start();
        let done = i as usize + 1;
        assert_eq!(
            c.run_until_writes(done, 1_000),
            done,
            "write {i} incomplete"
        );
        assert_eq!(c.results.borrow().writes[i as usize].status, Status::Ok);
        misses_after.push(pool.borrow().stats().misses);
        gets_after.push(pool.borrow().stats().gets);
    }
    let stats = pool.borrow().stats();
    assert!(misses_after[0] > 0, "the first op sizes the ring");
    assert!(
        gets_after[5] > 5 * gets_after[0] / 2,
        "later ops use the ring"
    );
    assert_eq!(
        misses_after[0], misses_after[5],
        "ops after the first allocated buffers: {misses_after:?}"
    );
    assert_eq!(stats.dropped, 0, "ring overflowed: {stats:?}");
}

/// §VI-B-3: a parity node that cannot reserve NIC accumulators for a
/// stripe (one per packet of a chunk) aggregates it on the host CPU
/// instead. A one-accumulator pool cannot hold a 50 000-byte chunk's, so
/// both parity nodes fall back — and the parities must come out the same.
#[test]
fn accumulator_exhaustion_falls_back_to_cpu_aggregation() {
    let scheme = RsScheme::new(3, 2);
    for interleave in [true, false] {
        let spec = ClusterSpec::new(1, 5, StorageMode::Spin).with_accumulator_pool(1);
        let mut c = SimCluster::build(spec);
        let file = c
            .control
            .borrow_mut()
            .create_file(0, FilePolicy::ErasureCoded { scheme })
            .id;
        c.submit(
            0,
            Job::Write {
                file,
                size: 150_000,
                protocol: WriteProtocol::SpinTriec { interleave },
                seed: 77,
            },
        );
        c.start();
        assert_eq!(c.run_until_writes(1, 1_000), 1, "interleave={interleave}");
        let r = c.results.borrow().writes[0].clone();
        assert_eq!(r.status, Status::Ok, "interleave={interleave}");

        let chunk_len = r.placement.chunk_len as usize;
        let stored = |coord: &nadfs_wire::ReplicaCoord| {
            let idx = c.storage_index(coord.node as usize);
            c.storage_mems[idx].borrow().read(coord.addr, chunk_len)
        };
        let data: Vec<Vec<u8>> = r.placement.data_chunks.iter().map(stored).collect();
        let data: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let expect = ReedSolomon::new(3, 2)
            .expect("params")
            .encode(&data)
            .expect("encode");
        for (p, coord) in r.placement.parities.iter().enumerate() {
            assert_eq!(
                stored(coord),
                expect[p],
                "interleave={interleave} parity {p}"
            );
            let idx = c.storage_index(coord.node as usize);
            assert_eq!(
                c.storage_stats[idx].borrow().fallback_aggregations,
                1,
                "interleave={interleave}: parity node {p} fell back once"
            );
        }
        let fallbacks: u64 = c
            .storage_stats
            .iter()
            .map(|s| s.borrow().fallback_aggregations)
            .sum();
        assert_eq!(
            fallbacks, 2,
            "interleave={interleave}: and no other node did"
        );
    }
}

/// §VI-B-3: a stripe's accumulator reservation returns to the pool once,
/// when the stripe completes. With a pool that covers exactly one stripe,
/// the pool is whole again after stripe A, and of two concurrent stripes
/// B and C one fits and the other falls back, on each parity node.
#[test]
fn accumulator_reservation_returns_once_per_stripe() {
    let (size, chunk_len) = (150_000, 50_000u32);
    let per_stripe = chunk_len.div_ceil(nadfs_wire::sizes::max_payload_plain()) as usize;
    let spec = ClusterSpec::new(1, 5, StorageMode::Spin)
        .with_window(2)
        .with_accumulator_pool(per_stripe);
    let mut c = SimCluster::build(spec);
    let scheme = RsScheme::new(3, 2);
    let file = c
        .control
        .borrow_mut()
        .create_file(0, FilePolicy::ErasureCoded { scheme })
        .id;
    let write = |seed| Job::Write {
        file,
        size,
        protocol: WriteProtocol::SpinTriec { interleave: true },
        seed,
    };
    c.submit(0, write(1));
    c.start();
    assert_eq!(c.run_until_writes(1, 1_000), 1, "stripe A");
    c.submit(0, write(2));
    c.submit(0, write(3));
    c.start();
    assert_eq!(c.run_until_writes(3, 1_000), 3, "stripes B and C");
    let results = c.results.borrow().writes.clone();
    assert!(
        results.iter().all(|r| r.status == Status::Ok),
        "{results:?}"
    );
    for coord in &results[0].placement.parities {
        let idx = c.storage_index(coord.node as usize);
        assert_eq!(
            c.storage_stats[idx].borrow().fallback_aggregations,
            1,
            "parity node {} fell back for one of B and C",
            coord.node
        );
    }
}
