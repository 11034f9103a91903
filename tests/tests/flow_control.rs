//! The credit-based flow-control / QoS subsystem, end to end: WR credits
//! cycle cleanly on real traffic (posted == completed at quiesce, queued
//! == released), tight budgets backpressure without losing work, the
//! per-tenant DRR schedulers give weighted tenants their share under
//! contention, and repair traffic rides its own pseudo-tenant with an
//! optional windowed bandwidth cap.

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, LayoutSpec, QosConfig, RepairDriver, SimCluster, SizeDist,
    StorageMode, Workload, WriteProtocol,
};
use nadfs_simnet::{CreditConfig, MetricsSnapshot};
use nadfs_wire::{RsScheme, Status};

/// Counter lookup with a zero default (all asserted names are exported
/// by `metrics_snapshot`, but a missing key should fail the assert, not
/// panic on unwrap).
fn c(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counter(name).unwrap_or(0)
}

/// Every credit acquired on the write/read path comes back: per class,
/// completions equal posts at quiesce, every queued WR was released, and
/// the receivers granted recv credit back to the senders.
#[test]
fn credits_cycle_cleanly_on_real_traffic() {
    let spec = ClusterSpec::new(2, 3, StorageMode::Plain);
    let mut cl = SimCluster::build(spec);
    let file = cl.control.borrow_mut().create_file(0, FilePolicy::Plain);
    // RPC writes ride two-sided Data WRs (recv credit must cycle back via
    // grants); RDMA reads ride one-sided Read WRs (local credit only).
    let w = Workload::new(file.id, WriteProtocol::Rpc, SizeDist::Fixed(32 << 10))
        .with_writes(12)
        .with_reads(6, nadfs_core::ReadProtocol::Rdma)
        .with_seed(11);
    for c in 0..2 {
        for j in w.jobs_for_client(c) {
            cl.submit(c, j);
        }
    }
    cl.start();
    let done = cl.run_until_writes(24, 60_000);
    assert_eq!(done, 24, "all writes complete under flow control");
    let reads = cl.run_until_file_reads(12, 60_000);
    assert_eq!(reads, 12, "all reads complete under flow control");
    assert!(
        cl.results
            .borrow()
            .writes
            .iter()
            .all(|w| w.status == Status::Ok),
        "every write succeeded"
    );
    cl.run_ms(5); // drain trailing acks so in-flight grants land

    let m = cl.metrics_snapshot();
    assert!(c(&m, "flow.posted.data") > 0, "data WRs were posted");
    assert!(c(&m, "flow.posted.read") > 0, "read WRs were posted");
    for class in ["data", "imm", "read", "write"] {
        assert_eq!(
            c(&m, &format!("flow.posted.{class}")),
            c(&m, &format!("flow.completed.{class}")),
            "{class}: every posted WR completed (credit returned)"
        );
    }
    assert_eq!(
        c(&m, "flow.queued"),
        c(&m, "flow.released"),
        "every credit-stalled WR was eventually released"
    );
    assert!(
        c(&m, "flow.grants_received") > 0,
        "recv credit cycled back via ack grants"
    );
    assert_eq!(
        c(&m, "flow.granted_piggyback") + c(&m, "flow.granted_standalone"),
        c(&m, "flow.grants_received"),
        "grants shipped equal grants applied at quiesce"
    );
}

/// Starvation-level budgets (2 WRs per class) backpressure a deep client
/// window into the pending queue — but nothing is lost: every write
/// still completes with `Ok`.
#[test]
fn tight_budgets_backpressure_without_losing_work() {
    let qos = QosConfig {
        credit: CreditConfig {
            max_send_data: 2,
            max_send_imm: 2,
            max_send_read: 2,
            max_send_write: 2,
        },
        ..Default::default()
    };
    let spec = ClusterSpec::new(1, 3, StorageMode::Spin)
        .with_window(8)
        .with_qos(qos);
    let mut cl = SimCluster::build(spec);
    let file = cl.control.borrow_mut().create_file(0, FilePolicy::Plain);
    let w = Workload::new(file.id, WriteProtocol::Spin, SizeDist::Fixed(64 << 10))
        .with_writes(24)
        .with_seed(5);
    for j in w.jobs_for_client(0) {
        cl.submit(0, j);
    }
    cl.start();
    let done = cl.run_until_writes(24, 120_000);
    assert_eq!(done, 24, "backpressure must throttle, not deadlock");
    assert!(
        cl.results
            .borrow()
            .writes
            .iter()
            .all(|w| w.status == Status::Ok),
        "no write failed under credit pressure"
    );
    let m = cl.metrics_snapshot();
    assert!(
        c(&m, "flow.queued") > 0,
        "an 8-deep window against 2-WR budgets must stall"
    );
    assert_eq!(c(&m, "flow.queued"), c(&m, "flow.released"));
    assert!(c(&m, "flow.local_stalls") + c(&m, "flow.remote_stalls") > 0);
}

/// Two tenants flood one storage node's RPC service point with equal
/// offered load; the weight-8 tenant's writes finish with lower mean
/// latency than the weight-1 tenant's, and neither tenant starves.
#[test]
fn weighted_tenant_gets_priority_under_contention() {
    let qos = QosConfig {
        enabled: true,
        rpc_concurrency: 1,
        quantum: 16 << 10,
        weights: vec![(1, 8), (2, 1)],
        ..Default::default()
    };
    let spec = ClusterSpec::new(4, 1, StorageMode::Plain)
        .with_window(4)
        .with_qos(qos);
    let mut cl = SimCluster::build(spec);
    // Clients 0/1 are tenant 1 (weight 8), clients 2/3 tenant 2 (weight 1).
    cl.set_client_tenant(0, 1);
    cl.set_client_tenant(1, 1);
    cl.set_client_tenant(2, 2);
    cl.set_client_tenant(3, 2);
    let file = cl.control.borrow_mut().create_file(0, FilePolicy::Plain);
    let w = Workload::new(file.id, WriteProtocol::Rpc, SizeDist::Fixed(64 << 10))
        .with_writes(16)
        .with_seed(3);
    for c in 0..4 {
        for j in w.jobs_for_client(c) {
            cl.submit(c, j);
        }
    }
    cl.start();
    let done = cl.run_until_writes(64, 240_000);
    assert_eq!(done, 64, "both tenants complete — no starvation");

    let results = cl.results.borrow();
    let mean_us = |clients: &[usize]| -> f64 {
        let nodes: Vec<_> = clients.iter().map(|&c| cl.client_nodes[c]).collect();
        let lat: Vec<f64> = results
            .writes
            .iter()
            .filter(|w| nodes.contains(&w.client))
            .map(|w| w.end.since(w.start).ps() as f64 / 1e6)
            .collect();
        lat.iter().sum::<f64>() / lat.len() as f64
    };
    let heavy = mean_us(&[0, 1]);
    let light = mean_us(&[2, 3]);
    assert!(
        heavy < light,
        "weight-8 tenant must see lower mean latency: {heavy:.1}us vs {light:.1}us"
    );
    drop(results);

    let m = cl.metrics_snapshot();
    assert_eq!(c(&m, "tenant.1.enqueued"), c(&m, "tenant.1.dispatched"));
    assert_eq!(
        c(&m, "tenant.2.enqueued"),
        c(&m, "tenant.2.dispatched"),
        "the weight-1 tenant still gets all of its work serviced"
    );
    assert!(c(&m, "tenant.1.cost_dispatched") > 0);
    assert!(c(&m, "tenant.2.cost_dispatched") > 0);
}

fn ec_cluster_with_backlog() -> (FsClient, usize) {
    let qos = QosConfig {
        enabled: true,
        ..Default::default()
    };
    let mut fsc = FsClient::new(SimCluster::build(
        ClusterSpec::new(1, 6, StorageMode::Spin).with_qos(qos),
    ));
    fsc.mkdir_p("/ec").expect("mkdir");
    let mut victim = None;
    for i in 0..4 {
        let h = fsc
            .create_with_policy(
                &format!("/ec/f{i}"),
                LayoutSpec::SINGLE,
                FilePolicy::ErasureCoded {
                    scheme: RsScheme::new(3, 2),
                },
            )
            .expect("create");
        let data: Vec<u8> = (0..120_000u32).map(|j| (j ^ i) as u8).collect();
        let w = fsc.append(&h, &data).expect("write");
        if victim.is_none() {
            let node = w.placement.data_chunks[0].node;
            victim = Some(fsc.cluster.storage_index(node as usize));
        }
    }
    let victim = victim.unwrap();
    fsc.fail_storage_node(victim);
    assert!(
        fsc.repair_backlog() >= 2,
        "the victim hosted shards of several extents"
    );
    (fsc, victim)
}

/// Repair traffic is classified under the repair pseudo-tenant at the
/// storage-side schedulers, and the driver's windowed bandwidth cap
/// stretches a multi-task drain over idle windows.
#[test]
fn repair_rides_its_own_tenant_and_the_cap_throttles_it() {
    // Uncapped drain: repair converges and shows up in the repair
    // tenant's ledger (classified apart from every client's).
    let (mut fsc, _) = ec_cluster_with_backlog();
    let mut driver = RepairDriver::new(0);
    let report = driver.drain(&mut fsc.cluster);
    assert!(report.converged(), "{report:?}");
    assert!(report.repaired >= 2);
    assert_eq!(report.throttled_ms, 0, "no cap, no throttling");
    let uncapped_end = fsc.cluster.engine.now();
    let m = fsc.cluster.metrics_snapshot();
    assert!(
        c(&m, "tenant.repair.dispatched") > 0,
        "repair fetches ride the repair pseudo-tenant"
    );

    // Same scenario with a 1-byte-per-50ms cap: every task after the
    // first waits for a fresh window, so the drain idles measurably and
    // finishes later — while still converging to the same repairs.
    let (mut fsc2, _) = ec_cluster_with_backlog();
    let mut driver2 = RepairDriver::new(0);
    driver2.bandwidth_cap = Some(1);
    driver2.throttle_window_ms = 50;
    let report2 = driver2.drain(&mut fsc2.cluster);
    assert!(report2.converged(), "{report2:?}");
    assert_eq!(report2.repaired, report.repaired);
    assert!(
        report2.throttled_ms > 0,
        "the cap must idle the driver between tasks"
    );
    assert_eq!(driver2.throttled_ms(), report2.throttled_ms);
    assert!(
        fsc2.cluster.engine.now() > uncapped_end,
        "a throttled drain takes longer in simulated time"
    );
}

/// Gather NIC-to-NIC fetches are requester-side reads and must consume
/// Read credit like any other one-sided read. Pre-fix they rode the
/// credit-exempt responder path (`send_pkts`), so a degraded gather
/// storm posted unbounded fetches at survivor nodes and monopolized a
/// 2-WR-budget link against flow-controlled peers. Now the storm stalls,
/// cycles, and conserves: storage NICs post (and complete) Read WRs,
/// queueing under the tight budget instead of bypassing it.
#[test]
fn gather_fetch_storm_respects_read_credit() {
    let qos = QosConfig {
        credit: CreditConfig {
            max_send_data: 2,
            max_send_imm: 2,
            max_send_read: 2,
            max_send_write: 2,
        },
        ..Default::default()
    };
    let spec = ClusterSpec::new(1, 4, StorageMode::Spin)
        .with_window(8)
        .with_qos(qos);
    let mut fsc = FsClient::new(SimCluster::build(spec));
    fsc.mkdir_p("/g").expect("mkdir");
    let h = fsc
        .create_with_policy(
            "/g/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(2, 1),
            },
        )
        .expect("create");
    let data: Vec<u8> = (0..256usize << 10).map(|i| (i % 251) as u8).collect();
    let w = fsc.append(&h, &data).expect("write");

    // Kill a data-chunk holder and blow the cache: every offloaded read
    // below reconstructs on the coordinator NIC, gathering survivor
    // segments NIC-to-NIC.
    let victim = fsc
        .cluster
        .storage_index(w.placement.data_chunks[0].node as usize);
    fsc.fail_storage_node(victim);
    fsc.drop_read_cache();

    // Eight concurrent disjoint offloaded reads of the same extent: a
    // gather storm hammering the record's coordinator.
    let mut cl = fsc.into_cluster();
    let n_clients = cl.client_nodes.len();
    let slice = data.len() / 8;
    for i in 0..8u64 {
        cl.submit(
            0,
            nadfs_core::Job::Read {
                file: h.id(),
                offset: i * slice as u64,
                len: slice as u32,
                protocol: nadfs_core::ReadProtocol::Offloaded,
                token: 0x6A00 + i,
                slot: None,
            },
        );
    }
    cl.start();
    let done = cl.run_until_file_reads(8, 240_000);
    assert_eq!(done, 8, "the storm must complete under flow control");
    cl.run_ms(5); // trailing acks and credit grants land

    // Every degraded read reconstructed the right bytes.
    for r in &cl.results.borrow().file_reads {
        assert_eq!(r.status, Status::Ok);
        let off = r.offset as usize;
        assert_eq!(
            r.data.as_ref(),
            &data[off..off + r.len as usize],
            "degraded gather at offset {off} diverged"
        );
    }

    // The fetches were credited on the storage NICs (pre-fix: zero Read
    // WRs posted there — they bypassed the controller entirely)…
    let read = nadfs_simnet::WrClass::Read as usize;
    let storage_posted: u64 = cl.flow_stats[n_clients..]
        .iter()
        .map(|s| s.borrow().posted[read])
        .sum();
    // Four of the eight reads hit the failed chunk, so the coordinator
    // issues (at least) four NIC-to-NIC survivor fetches; readahead may
    // add more. The healthy-chunk reads stream locally and post nothing.
    assert!(
        storage_posted >= 4,
        "gather fetches must post Read WRs on the survivor path (got {storage_posted})"
    );
    // …and the storm actually stalled against the 2-WR budget somewhere
    // along the chain (the client's eight gathers alone oversubscribe it)
    // instead of monopolizing the link.
    let (queued, stalls): (u64, u64) = cl
        .flow_stats
        .iter()
        .map(|s| {
            let f = s.borrow();
            (f.queued, f.local_stalls + f.remote_stalls)
        })
        .fold((0, 0), |(q, st), (a, b)| (q + a, st + b));
    assert!(
        queued > 0 && stalls > 0,
        "concurrent fetches against a 2-WR budget must queue (queued={queued} stalls={stalls})"
    );
    // Full conservation at quiesce: every credit acquired came back.
    nadfs_tests::assert_flow_conserved(&cl, "gather storm");
}
