//! The background repair pipeline under deterministic fault injection:
//! node kills scripted mid-write, between commit and read, and during
//! repair itself, with every random choice drawn from a fixed seed
//! (`NADFS_FAULT_SEED` in CI's matrix). After every drain the acceptance
//! bar is the same: affected extents resolve through the *normal* path
//! (no degraded reconstruction) and read back byte-identical.

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, FsError, LayoutSpec, RepairOutcome, SimCluster, StorageMode,
    WriteResult,
};
use nadfs_tests::{
    assert_bytes_converged, assert_hosted_conserved, drain_repairs_with_faults, seed_from_env,
    write_then_fail_midway, FaultAction, FaultPlan, FaultPoint, SplitMix,
};
use nadfs_wire::{BcastStrategy, RsScheme, Status};

fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// A one-client cluster with one RS-coded file written: the client, the
/// file, its bytes and the write's completion.
fn ec_client(
    n_storage: usize,
    scheme: RsScheme,
) -> (FsClient, nadfs_core::FileHandle, Vec<u8>, WriteResult) {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(
        1,
        n_storage,
        StorageMode::Spin,
    )));
    fsc.mkdir_p("/ec").expect("mkdir");
    let h = fsc
        .create_with_policy(
            "/ec/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    let data = payload(seed_from_env(), 150_000);
    let w = fsc.append(&h, &data).expect("write");
    (fsc, h, data, w)
}

/// Tentpole acceptance: fail a data-chunk node, drain the queue, and the
/// extent resolves through the normal (non-degraded) path with
/// byte-identical data — while the failed node is still down.
#[test]
fn ec_repair_rehomes_failed_shard_and_restores_direct_reads() {
    let (mut fsc, h, data, w) = ec_client(6, RsScheme::new(3, 2));
    let victim_node = w.placement.data_chunks[0].node;
    let victim = fsc.cluster.storage_index(victim_node as usize);
    fsc.fail_storage_node(victim);
    assert_eq!(fsc.repair_backlog(), 1, "failure enqueued the extent");
    let gen_before = fsc.cluster.control.borrow().extent_generation(h.id());

    let report = fsc.drain_repairs();
    assert!(report.converged(), "no task gave up: {report:?}");
    assert_eq!(report.repaired, 1);
    assert_eq!(fsc.repair_backlog(), 0, "queue drained");
    assert!(
        matches!(
            report.outcomes[0].outcome,
            RepairOutcome::Rebuilt { ref shards } if shards == &vec![0]
        ),
        "the failed data shard was rebuilt: {:?}",
        report.outcomes[0].outcome
    );

    // The node is STILL failed, yet the read is direct and exact, and
    // the hosted-capacity gauges track the re-homed placement.
    assert_bytes_converged(&mut fsc, &h, &data, "mid-outage after repair");
    assert_hosted_conserved(&fsc.cluster, "mid-outage after repair");

    // The extent-map update committed: generation bumped, spare hosting.
    let gen_after = fsc.cluster.control.borrow().extent_generation(h.id());
    assert!(gen_after > gen_before, "repair commit bumps the generation");
    let hosted: u64 = fsc
        .cluster
        .storage_stats
        .iter()
        .map(|s| s.borrow().repair_chunks_hosted)
        .sum();
    assert_eq!(hosted, 1, "exactly one spare placement counted");
    assert!(
        report.bytes_moved >= 4 * w.placement.chunk_len as u64,
        "repair moved k fetches + 1 write over the data path"
    );
}

/// Parity shards are rebuilt too — proven by surviving a *second* wave of
/// failures that forces reconstruction through the repaired parity.
#[test]
fn repaired_parity_carries_a_second_failure_wave() {
    let (mut fsc, h, data, w) = ec_client(6, RsScheme::new(3, 2));
    let parity_node = w.placement.parities[0].node;
    let parity_idx = fsc.cluster.storage_index(parity_node as usize);
    fsc.fail_storage_node(parity_idx);
    let report = fsc.drain_repairs();
    assert!(report.converged());
    assert_eq!(report.repaired, 1);
    let expect_slot = 3; // k=3 data shards, then parity 0 = shard 3
    assert!(matches!(
        &report.outcomes[0].outcome,
        RepairOutcome::Rebuilt { shards } if shards == &vec![expect_slot]
    ));
    // Now kill two DATA nodes: recovery needs k=3 survivors, which only
    // exist if the re-homed parity holds correct bytes.
    for c in &w.placement.data_chunks[..2] {
        let idx = fsc.cluster.storage_index(c.node as usize);
        fsc.fail_storage_node(idx);
    }
    let r = fsc.read_at(&h, 0, data.len() as u32).expect("read");
    assert_eq!(r.data.as_ref(), &data[..], "rebuilt parity is correct");
    assert!(r.degraded_stripes > 0, "this read reconstructs");
}

/// Replicated extents re-clone to a spare; the clone then survives the
/// loss of every original replica.
#[test]
fn replica_clone_survives_loss_of_all_original_replicas() {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 4, StorageMode::Spin)));
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
    let data = payload(seed_from_env() ^ 0x55, 120_000);
    let w = fsc.append(&h, &data).expect("write");
    let replica_idx: Vec<usize> = w
        .placement
        .replicas
        .iter()
        .map(|c| fsc.cluster.storage_index(c.node as usize))
        .collect();
    fsc.fail_storage_node(replica_idx[0]);
    let report = fsc.drain_repairs();
    assert!(report.converged());
    assert_eq!(report.repaired, 1);
    assert!(matches!(
        &report.outcomes[0].outcome,
        RepairOutcome::Cloned { replicas } if replicas == &vec![0]
    ));
    // Kill the remaining original replicas: only the spare clone serves.
    fsc.fail_storage_node(replica_idx[1]);
    fsc.fail_storage_node(replica_idx[2]);
    let r = fsc.read_at(&h, 0, data.len() as u32).expect("read");
    assert_eq!(r.data.as_ref(), &data[..], "spare clone is byte-identical");
    assert_eq!(r.degraded_stripes, 0, "replica reads are never degraded");
}

/// A degraded-read hit moves its extent to the queue front: the first
/// repair the drain executes is the extent the client just paid for.
#[test]
fn degraded_read_promotes_its_extent_ahead_of_the_scan_order() {
    let scheme = RsScheme::new(3, 2);
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 6, StorageMode::Spin)));
    fsc.mkdir_p("/ec").expect("mkdir");
    let mut handles = Vec::new();
    let mut blobs = Vec::new();
    let mut writes = Vec::new();
    for i in 0..2 {
        let h = fsc
            .create_with_policy(
                &format!("/ec/f{i}"),
                LayoutSpec::SINGLE,
                FilePolicy::ErasureCoded { scheme },
            )
            .expect("create");
        let data = payload(1000 + i as u64, 60_000);
        writes.push(fsc.append(&h, &data).expect("write"));
        handles.push(h);
        blobs.push(data);
    }
    // Find a storage node hosting a data chunk of BOTH files.
    let shared: u32 = writes[0]
        .placement
        .data_chunks
        .iter()
        .map(|c| c.node)
        .find(|n| writes[1].placement.data_chunks.iter().any(|c| c.node == *n))
        .expect("rotated homes overlap");
    fsc.fail_storage_node(fsc.cluster.storage_index(shared as usize));
    // The write-through fill would serve the read locally — drop it so the
    // read actually goes degraded and promotes its extent.
    fsc.drop_read_cache();
    assert_eq!(fsc.repair_backlog(), 2, "both files' extents queued");
    // Scan order queued file 0 first; a degraded read of file 1 jumps it.
    let r = fsc
        .read_at(&handles[1], 0, blobs[1].len() as u32)
        .expect("degraded read");
    assert!(r.degraded_stripes > 0, "this read was degraded");
    let front = fsc.cluster.control.borrow().repair_queue.peek().unwrap();
    assert_eq!(front.file, handles[1].id(), "promoted to the front");

    let report = fsc.drain_repairs();
    assert!(report.converged());
    assert_eq!(
        report.outcomes[0].task.file,
        handles[1].id(),
        "the promoted extent repaired first"
    );
    // Convergence: every affected extent now reads direct and exact.
    for (h, data) in handles.iter().zip(&blobs) {
        let r = fsc.read_at(h, 0, data.len() as u32).expect("read");
        assert_eq!(r.degraded_stripes, 0);
        assert_eq!(r.data.as_ref(), &data[..]);
    }
}

/// Mid-write kill: the node dies while the write's packets are in
/// flight. The commit then references a failed node, the extent reaches
/// the queue, and the drain restores a fully protected, byte-identical
/// extent.
#[test]
fn mid_write_node_kill_enqueues_and_repairs_on_commit() {
    let scheme = RsScheme::new(3, 2);
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 6, StorageMode::Spin)));
    fsc.mkdir_p("/ec").expect("mkdir");
    let h = fsc
        .create_with_policy(
            "/ec/mid",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    // First a small probe write to learn the placement rotation: the
    // next stripe reuses the same node set.
    let probe = fsc.append(&h, &payload(3, 3000)).expect("probe");
    let victim_node = probe.placement.data_chunks[1].node;
    let victim = fsc.cluster.storage_index(victim_node as usize);
    let data = payload(seed_from_env() ^ 0xBEEF, 200_000);
    // Kill the node 10 simulated µs into the write — long before the
    // ~200 KB stripe can finish landing.
    let w = write_then_fail_midway(&mut fsc, &h, 3000, &data, victim, 10);
    assert_eq!(w.status, Status::Ok, "the in-flight write still lands");
    assert!(
        fsc.repair_backlog() >= 1,
        "commit-after-failure queued the racing extent"
    );
    let report = fsc.drain_repairs();
    assert!(report.converged(), "{report:?}");
    assert_eq!(fsc.repair_backlog(), 0);
    let r = fsc.read_at(&h, 3000, data.len() as u32).expect("read");
    assert_eq!(r.degraded_stripes, 0, "non-degraded after drain");
    assert_eq!(r.data.as_ref(), &data[..]);
}

/// Kill between commit and read (scripted via FaultPlan): the first read
/// is degraded (and promotes), the drain re-protects, the re-read is
/// direct.
#[test]
fn node_kill_between_commit_and_read_converges() {
    let (mut fsc, h, data, w) = ec_client(6, RsScheme::new(3, 2));
    let candidates: Vec<usize> = w
        .placement
        .data_chunks
        .iter()
        .map(|c| fsc.cluster.storage_index(c.node as usize))
        .collect();
    let mut plan = FaultPlan::new(seed_from_env()).on(
        FaultPoint::AfterWrites(1),
        FaultAction::FailRandomOf(candidates),
    );
    plan.note_write(&mut fsc); // the (already completed) write fires it
    assert_eq!(plan.log.len(), 1, "the scripted kill fired");

    // Drop the write-through fill: this test exercises the wire path.
    fsc.drop_read_cache();
    let r1 = fsc.read_at(&h, 0, data.len() as u32).expect("read 1");
    assert!(r1.degraded_stripes > 0, "between commit and read: degraded");
    assert_eq!(r1.data.as_ref(), &data[..]);

    let report = drain_repairs_with_faults(&mut fsc, &mut plan);
    assert!(report.converged());
    assert!(report.repaired >= 1);

    let r2 = fsc.read_at(&h, 0, data.len() as u32).expect("read 2");
    assert_eq!(r2.degraded_stripes, 0, "converged to the normal path");
    assert_eq!(r2.data.as_ref(), &data[..]);
}

/// A node dies DURING the drain (after the first repair task): the newly
/// affected extents join the queue mid-drain and the pipeline still
/// converges — every extent direct and byte-identical at the end.
#[test]
fn node_kill_during_repair_still_converges() {
    let scheme = RsScheme::new(2, 1);
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 6, StorageMode::Spin)));
    fsc.mkdir_p("/ec").expect("mkdir");
    let mut handles = Vec::new();
    let mut blobs = Vec::new();
    let mut writes = Vec::new();
    for i in 0..3 {
        let h = fsc
            .create_with_policy(
                &format!("/ec/f{i}"),
                LayoutSpec::SINGLE,
                FilePolicy::ErasureCoded { scheme },
            )
            .expect("create");
        let data = payload(7000 + i as u64, 40_000);
        writes.push(fsc.append(&h, &data).expect("write"));
        handles.push(h);
        blobs.push(data);
    }
    // First kill: the node holding file 0's first data chunk.
    let first = fsc
        .cluster
        .storage_index(writes[0].placement.data_chunks[0].node as usize);
    // Scripted second kill after the first repair completes: a seed-
    // chosen node from file 2's stripe (excluding the first victim).
    let cands: Vec<usize> = writes[2]
        .placement
        .data_chunks
        .iter()
        .chain(&writes[2].placement.parities)
        .map(|c| fsc.cluster.storage_index(c.node as usize))
        .filter(|&i| i != first)
        .collect();
    let mut plan = FaultPlan::new(seed_from_env()).on(
        FaultPoint::AfterRepairs(1),
        FaultAction::FailRandomOf(cands),
    );
    fsc.fail_storage_node(first);
    let backlog_before = fsc.repair_backlog();
    assert!(backlog_before >= 1);

    let report = drain_repairs_with_faults(&mut fsc, &mut plan);
    assert!(report.converged(), "{report:?}");
    assert!(
        plan.log.iter().any(|l| l.contains("AfterRepairs(1)")),
        "the mid-drain kill fired: {:?}",
        plan.log
    );
    assert_eq!(
        fsc.repair_backlog(),
        0,
        "queue empty despite mid-drain kill"
    );
    for (h, data) in handles.iter().zip(&blobs) {
        let r = fsc.read_at(h, 0, data.len() as u32).expect("read");
        assert_eq!(r.degraded_stripes, 0, "every extent direct after drain");
        assert_eq!(r.data.as_ref(), &data[..]);
    }
}

/// Double failure beyond m: reads and repairs surface typed errors — no
/// panic, no garbage bytes, and the queue still drains (the lost extent
/// is reported unrepairable, not retried forever).
#[test]
fn double_failure_beyond_m_is_typed_not_panic() {
    let scheme = RsScheme::new(2, 1);
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 5, StorageMode::Spin)));
    fsc.mkdir_p("/ec").expect("mkdir");
    let h = fsc
        .create_with_policy(
            "/ec/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    let data = payload(11, 50_000);
    let w = fsc.append(&h, &data).expect("write");
    // Kill two data nodes: 0 survivors of k=2 data + 1 parity < k... no:
    // 1 parity survives, so k-1 survivors < k ⇒ unreadable and
    // unrepairable.
    for c in &w.placement.data_chunks {
        fsc.fail_storage_node(fsc.cluster.storage_index(c.node as usize));
    }
    // Drop the write-through fill: a cache hit would mask the typed failure.
    fsc.drop_read_cache();
    let err = fsc.read_at(&h, 0, data.len() as u32).unwrap_err();
    assert_eq!(err, FsError::Io(Status::Rejected), "typed read failure");

    let report = fsc.drain_repairs();
    assert_eq!(fsc.repair_backlog(), 0, "queue drained, no livelock");
    assert!(report.unrepairable >= 1, "typed unrepairable outcome");
    assert_eq!(report.repaired, 0);
    assert!(report
        .outcomes
        .iter()
        .all(|o| !matches!(o.outcome, RepairOutcome::Rebuilt { .. })));
}

/// Capability expiry racing the degraded path: with the client's read
/// capabilities expired, a degraded read is rejected with a typed
/// AuthFailed (on the NIC validation path) and the repair pipeline
/// aborts typed — retried up to its budget, then reported, never
/// panicking or returning partial data.
#[test]
fn expired_read_capability_degraded_read_and_repair_are_typed() {
    let scheme = RsScheme::new(3, 2);
    let spec = ClusterSpec::new(1, 6, StorageMode::Spin);
    let cluster = SimCluster::build_with(spec, |app| {
        app.read_cap_expires_at_ns = 1; // reads expired; writes valid
    });
    let mut fsc = FsClient::new(cluster);
    fsc.mkdir_p("/sec").expect("mkdir");
    let h = fsc
        .create_with_policy(
            "/sec/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    let data = payload(13, 90_000);
    let w = fsc.append(&h, &data).expect("write lands, caps valid");
    let victim = fsc
        .cluster
        .storage_index(w.placement.data_chunks[0].node as usize);
    fsc.fail_storage_node(victim);
    // Drop the write-through fill: a cache hit would never present the caps.
    fsc.drop_read_cache();
    // Degraded read: k survivor fetches all NACK on the NIC.
    let err = fsc.read_at(&h, 0, data.len() as u32).unwrap_err();
    assert_eq!(err, FsError::Io(Status::AuthFailed), "typed, not partial");
    // Repair needs the same fetches: typed aborts, bounded retries.
    let report = fsc.drain_repairs();
    assert!(report.aborted_attempts >= 1);
    assert!(report.gave_up >= 1, "attempt budget exhausted, reported");
    assert!(!report.converged());
    assert!(report
        .outcomes
        .iter()
        .all(|o| matches!(o.outcome, RepairOutcome::Aborted(Status::AuthFailed))));
    assert_eq!(fsc.repair_backlog(), 0, "no livelock even when failing");
}

/// A recovered node empties the queue without moving bytes: recovery
/// reconciliation drops the now-obsolete task at `mark_node_recovered`
/// time, so the subsequent drain is a no-op rather than a pass of
/// already-healthy probes.
#[test]
fn recovery_before_drain_empties_the_queue() {
    let (mut fsc, h, data, w) = ec_client(6, RsScheme::new(3, 2));
    let victim = fsc
        .cluster
        .storage_index(w.placement.data_chunks[0].node as usize);
    fsc.fail_storage_node(victim);
    assert_eq!(fsc.repair_backlog(), 1);
    fsc.recover_storage_node(victim);
    assert_eq!(fsc.repair_backlog(), 0, "task dropped at recovery");
    assert!(
        fsc.cluster
            .control
            .borrow()
            .repair_queue
            .stats
            .dropped_on_recovery
            >= 1
    );
    let report = fsc.drain_repairs();
    assert!(report.converged());
    assert_eq!(report.already_healthy, 0, "nothing left to probe");
    assert_eq!(report.repaired, 0);
    assert_eq!(report.bytes_moved, 0);
    assert_bytes_converged(&mut fsc, &h, &data, "transient failure");
}

/// The whole scripted scenario is a pure function of its seed: two runs
/// under the same seed produce identical fault logs and repair outcome
/// sequences.
#[test]
fn fault_plan_is_deterministic_per_seed() {
    let run = |seed: u64| -> (Vec<String>, Vec<(u64, String)>) {
        let scheme = RsScheme::new(3, 2);
        let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 6, StorageMode::Spin)));
        fsc.mkdir_p("/d").expect("mkdir");
        let h = fsc
            .create_with_policy(
                "/d/f",
                LayoutSpec::SINGLE,
                FilePolicy::ErasureCoded { scheme },
            )
            .expect("create");
        let data = payload(seed, 80_000);
        let w = fsc.append(&h, &data).expect("write");
        let cands: Vec<usize> = w
            .placement
            .data_chunks
            .iter()
            .chain(&w.placement.parities)
            .map(|c| fsc.cluster.storage_index(c.node as usize))
            .collect();
        let mut plan =
            FaultPlan::new(seed).on(FaultPoint::AfterWrites(1), FaultAction::FailRandomOf(cands));
        plan.note_write(&mut fsc);
        let report = drain_repairs_with_faults(&mut fsc, &mut plan);
        let outcomes = report
            .outcomes
            .iter()
            .map(|o| (o.task.file, format!("{:?}", o.outcome)))
            .collect();
        let r = fsc.read_at(&h, 0, data.len() as u32).expect("read");
        assert_eq!(r.data.as_ref(), &data[..]);
        assert_eq!(r.degraded_stripes, 0);
        (plan.log, outcomes)
    };
    let seed = seed_from_env();
    let (log_a, out_a) = run(seed);
    let (log_b, out_b) = run(seed);
    assert_eq!(log_a, log_b, "same seed ⇒ same fault schedule");
    assert_eq!(out_a, out_b, "same seed ⇒ same repair outcomes");
    assert!(!log_a.is_empty());
}

/// Repair traffic rides the simulated fabric like any other data-path
/// traffic: the drain measurably moves packets between NICs, and the
/// firmware-EC storage mode repairs just like the sPIN mode.
#[test]
fn repair_traffic_rides_the_fabric_in_firmware_ec_mode() {
    let scheme = RsScheme::new(3, 2);
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(
        1,
        6,
        StorageMode::FirmwareEc,
    )));
    fsc.mkdir_p("/ec").expect("mkdir");
    let h = fsc
        .create_with_policy(
            "/ec/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    let data = payload(17, 120_000);
    let w = fsc.append(&h, &data).expect("write");
    let victim = fsc
        .cluster
        .storage_index(w.placement.data_chunks[1].node as usize);
    fsc.fail_storage_node(victim);
    let tx_before: u64 = fsc
        .cluster
        .fabric_stats
        .borrow()
        .per_node
        .iter()
        .map(|n| n.tx_bytes)
        .sum();
    let report = fsc.drain_repairs();
    assert!(report.converged());
    assert_eq!(report.repaired, 1);
    let tx_after: u64 = fsc
        .cluster
        .fabric_stats
        .borrow()
        .per_node
        .iter()
        .map(|n| n.tx_bytes)
        .sum();
    assert!(
        tx_after - tx_before >= report.bytes_moved,
        "the shards crossed the simulated NICs ({} fabric bytes for {} repair bytes)",
        tx_after - tx_before,
        report.bytes_moved
    );
    let r = fsc.read_at(&h, 0, data.len() as u32).expect("read");
    assert_eq!(r.degraded_stripes, 0);
    assert_eq!(r.data.as_ref(), &data[..]);
}
