//! Integration tests for the metadata subsystem driven through the
//! simulated cluster: directory operations end-to-end, client-cache hit
//! behavior (measurably fewer control-plane round-trips), cross-client
//! invalidation callbacks, striped write placement, and typed-miss
//! propagation as failed jobs.

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, FsError, Job, LayoutSpec, MetaError, MetaOp, MetaOpKind,
    MetaWorkload, SimCluster, StorageMode, WriteProtocol,
};
use nadfs_wire::{BcastStrategy, RsScheme};

fn cluster(n_clients: usize, n_storage: usize) -> SimCluster {
    SimCluster::build(ClusterSpec::new(n_clients, n_storage, StorageMode::Plain))
}

fn meta_job(op: MetaOp, token: u64) -> Job {
    Job::Meta { op, token }
}

#[test]
fn mkdir_create_lookup_through_the_cluster() {
    let mut cl = cluster(1, 3);
    cl.submit(
        0,
        meta_job(
            MetaOp::Mkdir {
                path: "/proj".into(),
            },
            1,
        ),
    );
    cl.submit(
        0,
        meta_job(
            MetaOp::Create {
                path: "/proj/data".into(),
                spec: LayoutSpec::striped(3, 4096),
            },
            2,
        ),
    );
    cl.submit(
        0,
        meta_job(
            MetaOp::Lookup {
                path: "/proj/data".into(),
            },
            3,
        ),
    );
    cl.start();
    let done = cl.run_until_metas(3, 1_000);
    assert_eq!(done, 3, "all metadata ops complete");

    let results = cl.results.borrow();
    assert!(results.metas.iter().all(|m| m.result.is_ok()));
    // The create filled the cache, so the lookup is a local hit.
    let lookup = results
        .metas
        .iter()
        .find(|m| m.op == MetaOpKind::Lookup)
        .expect("lookup result");
    assert!(lookup.cache_hit, "lookup after create hits the cache");
    drop(results);

    // The namespace agrees with what the client did.
    let attr = cl
        .control
        .borrow_mut()
        .lookup_path("/proj/data")
        .expect("file exists");
    let list = cl.control.borrow_mut().readdir("/proj").expect("readdir");
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].0, "data");
    assert_eq!(list[0].1.ino, attr.ino);
}

#[test]
fn cache_reduces_control_round_trips_measurably() {
    // Two identical single-client clusters run the same skewed stat
    // storm; one with the client cache disabled. The cached run must do
    // measurably fewer control-plane lookups.
    let run = |cache_enabled: bool| -> (u64, u64, u64) {
        let spec = ClusterSpec::new(1, 2, StorageMode::Plain);
        let mut cl = SimCluster::build_with(spec, |app| app.cache_enabled = cache_enabled);
        let w = MetaWorkload::new("/storm")
            .with_dirs(2, 8)
            .with_storm(128)
            .with_seed(42);
        w.prepare(&cl.control);
        let jobs = w.jobs_for_client(0);
        let n = jobs.len();
        for j in jobs {
            cl.submit(0, j);
        }
        cl.start();
        let done = cl.run_until_metas(n, 5_000);
        assert_eq!(done, n, "storm completes");
        let lookups = cl.control.borrow().meta_stats().lookups;
        let hits = cl.client_caches[0].borrow().stats.hits;
        let total = cl.control.borrow().meta_stats().total();
        (lookups, hits, total)
    };

    let (cold_lookups, cold_hits, cold_total) = run(false);
    let (warm_lookups, warm_hits, warm_total) = run(true);

    assert_eq!(cold_hits, 0, "disabled cache never hits");
    assert_eq!(cold_lookups, 128, "every stat round-trips uncached");
    assert!(
        warm_lookups < cold_lookups / 4,
        "cache absorbs the hot set: {warm_lookups} vs {cold_lookups} round-trips"
    );
    assert!(warm_hits > 96, "most stats hit the cache: {warm_hits}");
    assert!(
        warm_total < cold_total,
        "total control traffic shrinks: {warm_total} vs {cold_total}"
    );
}

#[test]
fn cross_client_mutation_invalidates_cached_entries() {
    let mut cl = cluster(2, 2);
    cl.control.borrow_mut().mkdir_p("/shared", 0).expect("root");
    cl.control
        .borrow_mut()
        .create_file_at("/shared/f", LayoutSpec::SINGLE, FilePolicy::Plain)
        .expect("create");

    // Client 0 warms its cache on /shared/f.
    cl.submit(
        0,
        meta_job(
            MetaOp::Lookup {
                path: "/shared/f".into(),
            },
            1,
        ),
    );
    cl.start();
    assert_eq!(cl.run_until_metas(1, 1_000), 1);
    assert!(cl.client_caches[0].borrow().peek("/shared/f").is_some());
    let inv_before = cl.client_caches[0].borrow().stats.invalidations;

    // Client 1 renames the directory out from under it.
    cl.submit(
        1,
        meta_job(
            MetaOp::Rename {
                from: "/shared".into(),
                to: "/moved".into(),
            },
            2,
        ),
    );
    cl.start(); // re-kick: the job arrived after the drivers went idle
    assert_eq!(cl.run_until_metas(2, 2_000), 2);

    // The callback dropped client 0's entry...
    assert!(
        cl.client_caches[0].borrow().peek("/shared/f").is_none(),
        "rename callback invalidates the cached subtree"
    );
    assert!(cl.client_caches[0].borrow().stats.invalidations > inv_before);

    // ...so its next lookup misses, round-trips, and reports NotFound.
    let lookups_before = cl.control.borrow().meta_stats().lookups;
    cl.submit(
        0,
        meta_job(
            MetaOp::Lookup {
                path: "/shared/f".into(),
            },
            3,
        ),
    );
    cl.start();
    assert_eq!(cl.run_until_metas(3, 3_000), 3);
    let results = cl.results.borrow();
    let m = results.metas.iter().find(|m| m.token == 3).expect("result");
    assert!(!m.cache_hit, "stale entry is gone, lookup round-trips");
    assert_eq!(m.result, Err(MetaError::NotFound));
    assert_eq!(cl.control.borrow().meta_stats().lookups, lookups_before + 1);

    // The moved path resolves.
    assert!(cl.control.borrow_mut().lookup_path("/moved/f").is_ok());
}

#[test]
fn writeback_flush_invalidates_other_clients_cached_attrs() {
    let mut cl = cluster(2, 2);
    cl.control.borrow_mut().mkdir_p("/w", 0).expect("root");
    let f = cl
        .control
        .borrow_mut()
        .create_file_at("/w/f", LayoutSpec::SINGLE, FilePolicy::Plain)
        .expect("create");

    // Client 0 caches /w/f (size 0).
    cl.submit(
        0,
        meta_job(
            MetaOp::Lookup {
                path: "/w/f".into(),
            },
            1,
        ),
    );
    cl.start();
    assert_eq!(cl.run_until_metas(1, 1_000), 1);
    assert_eq!(cl.client_caches[0].borrow().peek("/w/f").unwrap().size, 0);

    // Client 1 writes, then looks the file up — the lookup forces its
    // write-back attr flush, which must invalidate client 0's entry.
    cl.submit(
        1,
        Job::Write {
            file: f.id,
            size: 64 << 10,
            protocol: WriteProtocol::Raw,
            seed: 3,
        },
    );
    cl.submit(
        1,
        meta_job(
            MetaOp::Lookup {
                path: "/w/f".into(),
            },
            2,
        ),
    );
    cl.start();
    cl.run_until_writes(1, 2_000);
    assert_eq!(cl.run_until_metas(2, 2_000), 2);

    assert!(
        cl.client_caches[0].borrow().peek("/w/f").is_none(),
        "flushed attrs invalidate the other client's cached entry"
    );
    // The authoritative size caught up through the batch flush.
    assert_eq!(
        cl.control.borrow_mut().lookup_path("/w/f").unwrap().size,
        64 << 10
    );
}

#[test]
fn striped_writes_land_on_distinct_nodes_with_counted_placement() {
    let mut cl = cluster(1, 4);
    cl.control.borrow_mut().mkdir_p("/data", 0).expect("root");
    let f = cl
        .control
        .borrow_mut()
        .create_file_at(
            "/data/wide",
            LayoutSpec::striped(4, 8 << 10),
            FilePolicy::Plain,
        )
        .expect("create");
    cl.submit(
        0,
        Job::Write {
            file: f.id,
            size: 32 << 10, // 4 chunks of 8 KiB
            protocol: WriteProtocol::Raw,
            seed: 7,
        },
    );
    cl.start();
    assert_eq!(cl.run_until_writes(1, 1_000), 1);

    let results = cl.results.borrow();
    let w = &results.writes[0];
    assert_eq!(w.status, nadfs_wire::Status::Ok);
    assert_eq!(w.placement.stripes.len(), 4, "one extent per stripe unit");
    let mut nodes: Vec<u32> = w.placement.stripes.iter().map(|s| s.coord.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    assert_eq!(nodes.len(), 4, "extents on four distinct storage nodes");

    // Placement was counted on the nodes it landed on.
    let placed: Vec<u64> = cl
        .control
        .borrow()
        .node_ledgers()
        .map(|l| l.stripe_chunks_placed)
        .collect();
    assert_eq!(placed.iter().sum::<u64>(), 4);
    assert!(
        placed.iter().all(|&c| c == 1),
        "one chunk per node: {placed:?}"
    );

    // And the bytes are really there: reassemble from storage memories.
    let mut got = Vec::new();
    for st in &w.placement.stripes {
        let idx = cl.storage_index(st.coord.node as nadfs_simnet::NodeId);
        got.extend(
            cl.storage_mems[idx]
                .borrow()
                .read(st.coord.addr, st.len as usize),
        );
    }
    assert_eq!(got.len(), 32 << 10);
    assert!(
        got.iter().any(|&b| b != 0),
        "payload bytes visible in storage"
    );
}

#[test]
fn striped_rpc_write_lands_each_extent_at_its_own_address() {
    // Regression: RPC writes to a striped file must fan out per extent —
    // a single full-size write at the first extent's address would
    // overrun its allocation and skip the other nodes entirely.
    let mut cl = cluster(1, 3);
    cl.control.borrow_mut().mkdir_p("/r", 0).expect("root");
    let f = cl
        .control
        .borrow_mut()
        .create_file_at("/r/f", LayoutSpec::striped(3, 4096), FilePolicy::Plain)
        .expect("create");
    cl.submit(
        0,
        Job::Write {
            file: f.id,
            size: 3 * 4096,
            protocol: WriteProtocol::Rpc,
            seed: 11,
        },
    );
    cl.start();
    assert_eq!(cl.run_until_writes(1, 2_000), 1);
    let results = cl.results.borrow();
    let w = &results.writes[0];
    assert_eq!(w.status, nadfs_wire::Status::Ok);
    assert_eq!(w.placement.stripes.len(), 3);
    for st in &w.placement.stripes {
        let idx = cl.storage_index(st.coord.node as nadfs_simnet::NodeId);
        let got = cl.storage_mems[idx]
            .borrow()
            .read(st.coord.addr, st.len as usize);
        assert_eq!(got.len(), 4096);
        assert!(
            got.iter().any(|&b| b != 0),
            "extent bytes present on node {}",
            st.coord.node
        );
    }
    // Each storage node saw exactly one RPC write.
    let rpcs: Vec<u64> = cl
        .storage_stats
        .iter()
        .map(|s| s.borrow().rpc_writes)
        .collect();
    assert_eq!(rpcs, vec![1, 1, 1]);
}

#[test]
fn write_to_unlinked_file_fails_typed_not_silent() {
    let mut cl = cluster(1, 2);
    cl.control.borrow_mut().mkdir_p("/tmp", 0).expect("root");
    let f = cl
        .control
        .borrow_mut()
        .create_file_at("/tmp/gone", LayoutSpec::SINGLE, FilePolicy::Plain)
        .expect("create");
    cl.control
        .borrow_mut()
        .unlink("/tmp/gone", 1)
        .expect("unlink");

    cl.submit(
        0,
        Job::Write {
            file: f.id,
            size: 4096,
            protocol: WriteProtocol::Raw,
            seed: 1,
        },
    );
    cl.start();
    assert_eq!(
        cl.run_until_writes(1, 1_000),
        1,
        "the failed job still completes"
    );
    let results = cl.results.borrow();
    assert_eq!(results.writes[0].status, nadfs_wire::Status::Rejected);
}

#[test]
fn meta_storm_mixed_over_simulated_cluster_all_ops_succeed() {
    let mut cl = cluster(2, 3);
    let w = MetaWorkload::new("/mix").with_dirs(3, 6).with_storm(48);
    w.prepare(&cl.control);
    let mut n = 0;
    for c in 0..2 {
        for j in w.jobs_for_client(c) {
            cl.submit(c, j);
            n += 1;
        }
    }
    cl.start();
    assert_eq!(cl.run_until_metas(n, 10_000), n);
    let results = cl.results.borrow();
    let failures: Vec<_> = results.metas.iter().filter(|m| m.result.is_err()).collect();
    assert!(
        failures.is_empty(),
        "disjoint subtrees: no op fails ({failures:?})"
    );
    // Mutations are slower than cached lookups in the latency model.
    let avg = |kind: MetaOpKind| -> f64 {
        let v: Vec<u64> = results
            .metas
            .iter()
            .filter(|m| m.op == kind)
            .map(|m| m.end.since(m.start).ps())
            .collect();
        v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
    };
    assert!(avg(MetaOpKind::Rename) > avg(MetaOpKind::Lookup));
}

#[test]
fn a_policy_the_cluster_cannot_place_is_refused_at_create() {
    // Each of these used to be accepted and then panic in placement on
    // the file's first write: more replicas or shards than nodes, or none.
    let replicated = |k| FilePolicy::Replicated {
        k,
        strategy: BcastStrategy::Ring,
    };
    let coded = |k, m| FilePolicy::ErasureCoded {
        scheme: RsScheme::new(k, m),
    };
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 4, StorageMode::Spin)));
    fsc.mkdir_p("/d").expect("mkdir");
    let seq = fsc.cluster.control.borrow().namespace().change_seq;
    for (i, policy) in [replicated(5), replicated(0), coded(3, 2), coded(0, 2)]
        .into_iter()
        .enumerate()
    {
        let path = format!("/d/f{i}");
        let refused = fsc.create_with_policy(&path, LayoutSpec::SINGLE, policy.clone());
        assert_eq!(
            refused.err(),
            Some(FsError::Meta(MetaError::InvalidPolicy)),
            "{policy:?}"
        );
        assert_eq!(
            fsc.open(&path).err(),
            Some(FsError::Meta(MetaError::NotFound)),
            "{policy:?}: nothing was created"
        );
    }
    assert_eq!(
        fsc.cluster.control.borrow().namespace().change_seq,
        seq,
        "a refused create does not touch the namespace"
    );
    // The largest policies that do fit are placed and written.
    for (i, policy) in [replicated(4), coded(2, 2), coded(3, 1)]
        .into_iter()
        .enumerate()
    {
        let h = fsc
            .create_with_policy(&format!("/d/ok{i}"), LayoutSpec::SINGLE, policy)
            .expect("fits four nodes");
        fsc.write_at(&h, 0, &[7u8; 8192]).expect("write");
    }
}
