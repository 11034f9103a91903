//! Node-recovery reconciliation: a recovered node must square its
//! physical contents with everything that changed while it was down —
//! shards re-homed by repair and files unlinked mid-outage leave stale
//! copies to garbage-collect, still-current shards are re-adopted as
//! live data, and repair tasks made obsolete by the recovery are
//! dropped. Before reconciliation existed, `mark_node_recovered` just
//! cleared the failed flag: the hosted-capacity gauges leaked the
//! re-homed bytes forever and the queue burned repair attempts on
//! extents that were healthy again.

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, LayoutSpec, RepairTask, SimCluster, StorageMode, WriteResult,
};
use nadfs_tests::{assert_bytes_converged, assert_hosted_conserved, seed_from_env, SplitMix};
use nadfs_wire::{BcastStrategy, RsScheme};

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
    fsc.mkdir_p("/rec").expect("mkdir");
    let h = fsc
        .create_with_policy(
            "/rec/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    let data = payload(seed_from_env(), 120_000);
    let w = fsc.append(&h, &data).expect("write");
    (fsc, h, data, w)
}

/// The satellite-1 leak, end to end: repair re-homes shards away from a
/// dead node; when the node returns, its stale copies are
/// garbage-collected into the reclaim counters and the hosted gauges
/// still equal what the extent maps say. (Pre-fix, the node came back
/// with its gauges still counting the re-homed shards: a permanent
/// capacity-accounting leak.)
#[test]
fn recovery_reclaims_rehomed_shards_and_conserves_gauges() {
    let (mut fsc, h, data, w) = ec_client(6, RsScheme::new(3, 2));
    assert_hosted_conserved(&fsc.cluster, "baseline");

    let victim_node = w.placement.data_chunks[0].node;
    let victim = fsc.cluster.storage_index(victim_node as usize);
    fsc.fail_storage_node(victim);
    let report = fsc.drain_repairs();
    assert!(report.converged(), "repair moved the shard: {report:?}");
    assert!(report.repaired >= 1);

    // Mid-outage: the re-homed copy is orphaned on the dead node, and
    // the gauges already reflect the *new* homes.
    let (oc, ob) = fsc.cluster.control.borrow().orphaned_on(victim_node);
    assert!(oc >= 1, "re-home left a stale copy on the dead node");
    assert!(ob > 0);
    assert_hosted_conserved(&fsc.cluster, "mid-outage");

    fsc.recover_storage_node(victim);
    let control = fsc.cluster.control.borrow();
    assert_eq!(
        control.orphaned_on(victim_node),
        (0, 0),
        "recovery consumed the orphan ledger"
    );
    drop(control);
    {
        let stats = fsc.cluster.storage_stats[victim].borrow();
        assert_eq!(stats.stale_chunks_reclaimed, oc, "orphans became reclaims");
        assert_eq!(stats.stale_bytes_reclaimed, ob);
    }
    assert_hosted_conserved(&fsc.cluster, "post-recovery");
    assert_bytes_converged(&mut fsc, &h, &data, "post-recovery");
}

/// Recovery before any repair ran: the extent is whole again, so its
/// queued task is dropped and the node's shards are re-adopted — no
/// bytes move, nothing is reclaimed, and reads go through the normal
/// non-degraded path.
#[test]
fn recovery_before_drain_drops_tasks_and_readopts_shards() {
    let (mut fsc, h, data, w) = ec_client(6, RsScheme::new(3, 2));
    let victim_node = w.placement.data_chunks[0].node;
    let victim = fsc.cluster.storage_index(victim_node as usize);
    fsc.fail_storage_node(victim);
    assert!(fsc.repair_backlog() >= 1);

    fsc.recover_storage_node(victim);
    assert_eq!(
        fsc.repair_backlog(),
        0,
        "obsolete tasks dropped at recovery"
    );
    {
        let control = fsc.cluster.control.borrow();
        let stats = control.repair_queue.stats;
        assert!(stats.dropped_on_recovery >= 1, "{stats:?}");
        assert!(stats.shards_readopted >= 1, "{stats:?}");
    }
    assert_eq!(
        fsc.cluster.storage_stats[victim]
            .borrow()
            .stale_chunks_reclaimed,
        0,
        "nothing was re-homed"
    );
    assert_hosted_conserved(&fsc.cluster, "transient failure");
    assert_bytes_converged(&mut fsc, &h, &data, "transient failure");
}

/// Files unlinked while their node is down leave stale shards behind;
/// recovery garbage-collects them too.
#[test]
fn unlink_during_outage_orphans_are_reclaimed_at_recovery() {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 4, StorageMode::Spin)));
    fsc.mkdir_p("/rec").expect("mkdir");
    let h = fsc
        .create_with_policy(
            "/rec/gone",
            LayoutSpec::SINGLE,
            FilePolicy::Replicated {
                k: 2,
                strategy: BcastStrategy::Ring,
            },
        )
        .expect("create");
    let data = payload(seed_from_env() ^ 0x11, 40_000);
    let w = fsc.append(&h, &data).expect("write");
    let victim_node = w.placement.replicas[0].node;
    let victim = fsc.cluster.storage_index(victim_node as usize);
    fsc.fail_storage_node(victim);

    let now = fsc.cluster.engine.now().as_ns() as u64;
    fsc.cluster
        .control
        .borrow_mut()
        .unlink("/rec/gone", now)
        .expect("unlink");
    let (oc, ob) = fsc.cluster.control.borrow().orphaned_on(victim_node);
    assert!(oc >= 1, "unlink orphaned the dead node's replica");
    assert_hosted_conserved(&fsc.cluster, "unlinked during outage");

    fsc.recover_storage_node(victim);
    {
        let stats = fsc.cluster.storage_stats[victim].borrow();
        assert_eq!(stats.stale_chunks_reclaimed, oc);
        assert_eq!(stats.stale_bytes_reclaimed, ob);
    }
    assert_eq!(
        fsc.cluster.control.borrow().orphaned_on(victim_node),
        (0, 0)
    );
    assert_hosted_conserved(&fsc.cluster, "post-recovery");
}

/// Partial recovery must NOT drop tasks whose extent still references a
/// *different* failed node: with RS(3,2) striped across 5 of 6 nodes,
/// failing two shard-holders and recovering one keeps the extent
/// degraded — its repair task stays queued.
#[test]
fn partial_recovery_keeps_tasks_for_still_failed_nodes() {
    let (mut fsc, h, data, w) = ec_client(6, RsScheme::new(3, 2));
    let a_node = w.placement.data_chunks[0].node;
    let b_node = w.placement.data_chunks[1].node;
    let a = fsc.cluster.storage_index(a_node as usize);
    let b = fsc.cluster.storage_index(b_node as usize);
    fsc.fail_storage_node(a);
    fsc.fail_storage_node(b);
    assert!(fsc.repair_backlog() >= 1);

    fsc.recover_storage_node(a);
    assert!(
        fsc.repair_backlog() >= 1,
        "extent still references failed node {b_node}; task must survive"
    );
    assert_eq!(
        fsc.cluster
            .control
            .borrow()
            .repair_queue
            .stats
            .dropped_on_recovery,
        0
    );

    fsc.recover_storage_node(b);
    assert_eq!(fsc.repair_backlog(), 0, "full recovery empties the queue");
    assert!(
        fsc.cluster
            .control
            .borrow()
            .repair_queue
            .stats
            .dropped_on_recovery
            >= 1
    );
    assert_bytes_converged(&mut fsc, &h, &data, "after rolling recovery");
}

/// Failure-time enqueue order is part of a seeded run's identity: tasks
/// come out sorted by (file, record), not in hash-map iteration order.
/// (Found by the churn harness: two same-seed runs diverged because the
/// repair queue — and every placement decision downstream of it — was
/// ordered by `HashMap` iteration.)
#[test]
fn node_failure_enqueues_repairs_in_sorted_order() {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 4, StorageMode::Spin)));
    fsc.mkdir_p("/rec").expect("mkdir");
    let mut handles = Vec::new();
    for i in 0..12 {
        let h = fsc
            .create_with_policy(
                &format!("/rec/o{i}"),
                LayoutSpec::SINGLE,
                FilePolicy::Replicated {
                    k: 2,
                    strategy: BcastStrategy::Ring,
                },
            )
            .expect("create");
        fsc.append(&h, &payload(i as u64, 4096)).expect("write");
        handles.push(h);
    }
    fsc.fail_storage_node(0);
    let mut control = fsc.cluster.control.borrow_mut();
    let mut tasks: Vec<RepairTask> = Vec::new();
    while let Some(t) = control.pop_repair() {
        tasks.push(t);
    }
    assert!(!tasks.is_empty(), "some replica lived on node 0");
    let mut sorted = tasks.clone();
    sorted.sort_unstable_by_key(|t| (t.file, t.rec));
    assert_eq!(tasks, sorted, "repair queue order must be deterministic");
}
