//! Shapes under load, on the simulated clock:
//!
//! - aggregate write goodput stays flat once a fixed storage fleet
//!   saturates (overload waits in the pending-WR queues instead of
//!   collapsing), and DRR holds contending tenants to their weights;
//! - metadata throughput scales with the shard count;
//! - a zipfian hot set is served from the client read cache.
//!
//! Nothing here draws on `NADFS_FAULT_SEED`: every run is the same run.

use nadfs_core::{
    ClusterSpec, CostModel, FilePolicy, LayoutSpec, MetaOpKind, MetaWorkload, QosConfig,
    ReadPattern, ReadProtocol, SimCluster, SizeDist, StorageMode, Workload, WriteProtocol,
    WriteResult,
};
use nadfs_simnet::{Bandwidth, CreditConfig, Time};
use nadfs_wire::Status;

const BLOCK: u32 = 64 << 10;

fn us(start: Time, end: Time) -> f64 {
    end.since(start).ps() as f64 / 1e6
}

/// Mean and p99 of latency samples.
fn mean_p99(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (
        mean,
        samples[(samples.len() - 1).min(samples.len() * 99 / 100)],
    )
}

/// Simulated seconds from the first start to the last end of `ops`.
fn span_s(ops: &[(Time, Time)]) -> f64 {
    let t0 = ops.iter().map(|o| o.0).min().expect("ops");
    let t1 = ops.iter().map(|o| o.1).max().expect("ops");
    (t1.since(t0).ps() as f64 / 1e12).max(1e-12)
}

/// GB/s of payload over the writes' own span.
fn goodput_gbps(writes: &[&WriteResult]) -> f64 {
    let bytes: u64 = writes.iter().map(|w| w.size as u64).sum();
    let ops: Vec<_> = writes.iter().map(|w| (w.start, w.end)).collect();
    bytes as f64 / span_s(&ops) / 1e9
}

/// `n` clients each RPC-write `writes` 64 KiB blocks to a private file on
/// 4 storage nodes, under credit budgets tighter than the client window so
/// the issue stream lands in the pending-WR queues. Returns the goodput
/// and the number of WRs that waited for credit.
fn saturate(n: usize, writes: usize) -> (f64, u64) {
    let credit = CreditConfig {
        max_send_data: 2,
        max_send_imm: 2,
        max_send_read: 4,
        max_send_write: 4,
    };
    let qos = QosConfig {
        enabled: true,
        credit,
        ..Default::default()
    };
    let spec = ClusterSpec::new(n, 4, StorageMode::Plain)
        .with_window(8)
        .with_qos(qos);
    let mut cl = SimCluster::build(spec);
    for c in 0..n {
        let file = cl.control.borrow_mut().create_file(0, FilePolicy::Plain);
        let w = Workload::new(file.id, WriteProtocol::Rpc, SizeDist::Fixed(BLOCK))
            .with_writes(writes)
            .with_seed(0xF70 + c as u64);
        for j in w.jobs_for_client(c) {
            cl.submit(c, j);
        }
    }
    cl.start();
    assert_eq!(cl.run_until_writes(n * writes, 600_000), n * writes);
    let queued = cl.metrics_snapshot().counter("flow.queued").unwrap_or(0);
    let results = cl.results.borrow();
    let all: Vec<_> = results.writes.iter().collect();
    assert!(
        all.iter().all(|w| w.status == Status::Ok),
        "flow control must not fail writes"
    );
    (goodput_gbps(&all), queued)
}

/// One tenant's outcome in [`contend`].
struct TenantStat {
    weight: u32,
    /// Weight over the sum of weights: what DRR promises while every
    /// tenant stays backlogged.
    share_configured: f64,
    /// This tenant's part of the dispatched service cost at the last
    /// sample before any tenant finished.
    share_measured: f64,
    mean_us: f64,
    p99_us: f64,
    goodput_gbps: f64,
}

/// Tenants given as (weight, clients) hammer one storage node whose RPC
/// service point runs one request at a time, so all fairness comes from
/// the DRR scheduler. Host memcpy is slowed to 4 GB/s to make the host CPU
/// the bottleneck: at the default costs the ingress link paces arrivals
/// and the DRR queues never build. Returns per-tenant stats and the
/// min/max of goodput over configured share (1.0 = perfectly fair).
fn contend(tenants: &[(u32, usize)], writes: usize) -> (Vec<TenantStat>, f64) {
    let qos = QosConfig {
        enabled: true,
        rpc_concurrency: 1,
        quantum: 16 << 10,
        weights: (1..).zip(tenants.iter().map(|&(w, _)| w)).collect(),
        ..Default::default()
    };
    let tenant_of: Vec<u16> = (1..)
        .zip(tenants)
        .flat_map(|(t, &(_, n))| std::iter::repeat_n(t, n))
        .collect();
    let mut cost = CostModel::paper();
    cost.nic.cpu.memcpy_bw = Bandwidth::from_gbyte_per_sec(4);
    let spec = ClusterSpec::new(tenant_of.len(), 1, StorageMode::Plain)
        .with_window(8)
        .with_cost(cost)
        .with_qos(qos);
    let mut cl = SimCluster::build(spec);
    for (c, &t) in tenant_of.iter().enumerate() {
        cl.set_client_tenant(c, t);
        let file = cl.control.borrow_mut().create_file(0, FilePolicy::Plain);
        let w = Workload::new(file.id, WriteProtocol::Rpc, SizeDist::Fixed(BLOCK))
            .with_writes(writes)
            .with_seed(0x7E17 + c as u64);
        for j in w.jobs_for_client(c) {
            cl.submit(c, j);
        }
    }
    cl.start();
    let tenant_of_write = |cl: &SimCluster, w: &WriteResult| {
        let c = cl.client_nodes.iter().position(|&n| n == w.client);
        tenant_of[c.expect("write from a known client")]
    };

    // Sample the dispatched-cost ledger one completion at a time while
    // every tenant is still backlogged.
    let n = tenant_of.len() * writes;
    let mut costs = None;
    for k in 1..=n {
        cl.run_until_writes(k, 600_000);
        let mut done = vec![0; tenants.len()];
        for w in cl.results.borrow().writes.iter() {
            done[tenant_of_write(&cl, w) as usize - 1] += 1;
        }
        if (done.iter().zip(tenants)).any(|(&d, &(_, clients))| d >= clients * writes) {
            break;
        }
        let m = cl.metrics_snapshot();
        let sample: Vec<u64> = (1..=tenants.len())
            .map(|t| {
                m.counter(&format!("tenant.{t}.cost_dispatched"))
                    .unwrap_or(0)
            })
            .collect();
        if sample.iter().sum::<u64>() > 0 {
            costs = Some(sample);
        }
    }
    assert_eq!(cl.run_until_writes(n, 600_000), n);
    let costs = costs.expect("sampled at least one mid-contention ledger");
    let cost_total: u64 = costs.iter().sum();
    let weight_total: u32 = tenants.iter().map(|&(w, _)| w).sum();

    let results = cl.results.borrow();
    assert!(results.writes.iter().all(|w| w.status == Status::Ok));
    let stats: Vec<TenantStat> = (1..)
        .zip(tenants)
        .map(|(t, &(weight, _))| {
            let mine: Vec<_> = (results.writes.iter())
                .filter(|w| tenant_of_write(&cl, w) == t)
                .collect();
            let (mean_us, p99_us) = mean_p99(mine.iter().map(|w| us(w.start, w.end)).collect());
            TenantStat {
                weight,
                share_configured: weight as f64 / weight_total as f64,
                share_measured: costs[t as usize - 1] as f64 / cost_total as f64,
                mean_us,
                p99_us,
                goodput_gbps: goodput_gbps(&mine),
            }
        })
        .collect();
    let norm: Vec<f64> = (stats.iter())
        .map(|s| s.goodput_gbps / s.share_configured)
        .collect();
    let min = norm.iter().copied().fold(f64::INFINITY, f64::min);
    let max = norm.iter().copied().fold(0.0, f64::max);
    (stats, min / max)
}

/// Goodput flat past the saturation knee with the overload queued for
/// credit; a weight-4 tenant on 2 clients holds its 80 % share against a
/// weight-1 aggressor on 6; equal tenants stay within a fairness floor;
/// no tenant's tail runs away.
#[test]
fn goodput_stays_flat_past_saturation_and_drr_holds_tenant_shares() {
    let (at_knee, _) = saturate(16, 6);
    let (at_max, queued) = saturate(64, 6);
    let flatness = at_max / at_knee;
    assert!(
        (0.90..=1.15).contains(&flatness),
        "aggregate goodput must stay flat past saturation: {at_max:.2} GB/s at 64 \
         clients vs {at_knee:.2} GB/s at 16 (ratio {flatness:.2})"
    );
    assert!(
        queued > 0,
        "the largest point must exercise the pending-WR queue"
    );

    let (weighted, _) = contend(&[(4, 2), (1, 6)], 12);
    let protected = &weighted[0];
    let err =
        (protected.share_measured - protected.share_configured).abs() / protected.share_configured;
    assert!(
        err <= 0.20,
        "protected tenant's mid-contention share {:.2} strays >20% from {:.2}",
        protected.share_measured,
        protected.share_configured
    );
    for t in &weighted {
        assert!(
            t.share_measured >= t.share_configured * 0.5,
            "weight-{} tenant starved: share {:.2} under half of {:.2}",
            t.weight,
            t.share_measured,
            t.share_configured
        );
    }
    assert!(
        weighted[0].mean_us < weighted[1].mean_us,
        "the weight-4 tenant must see lower mean latency than the aggressor"
    );

    let (equal, min_max) = contend(&[(1, 2), (1, 2), (1, 2), (1, 2)], 12);
    assert!(
        min_max >= 0.6,
        "equal-weight tenants diverged: min/max goodput ratio {min_max:.2} < 0.6"
    );
    for t in weighted.iter().chain(&equal) {
        assert!(
            t.p99_us > 0.0 && t.p99_us <= t.mean_us * 20.0,
            "p99 unbounded: {:.1} us vs mean {:.1} us",
            t.p99_us,
            t.mean_us
        );
    }
}

/// One point of the shard-scaling curve.
struct ShardPoint {
    dir_ops_per_s: f64,
    resolves_per_s: f64,
    queue_wait_us_per_op: f64,
    cross_shard_txns: u64,
    /// min/max mutations per shard: 0 means a shard sat idle.
    balance: f64,
}

/// 16 clients run the dir-op mix plus stat storm against `shards`
/// metadata shards with the client cache off, so every op queues on its
/// shard's admission point.
fn shard_point(shards: usize) -> ShardPoint {
    const CLIENTS: usize = 16;
    let spec = ClusterSpec::new(CLIENTS, 4, StorageMode::Plain).with_meta_shards(shards);
    let mut cl = SimCluster::build_with(spec, |app| {
        app.cache_enabled = false;
        app.bulk_meta_spans = true;
    });
    let w = MetaWorkload::new("/bench")
        .with_dirs(4, 8)
        .with_storm(32)
        .with_layout(LayoutSpec::striped(2, 64 << 10))
        .with_seed(7);
    w.prepare(&cl.control);
    let mut n = 0;
    for c in 0..CLIENTS {
        for j in w.jobs_for_client(c) {
            cl.submit(c, j);
            n += 1;
        }
    }
    cl.start();
    assert_eq!(
        cl.run_until_metas(n, 600_000),
        n,
        "metadata storm must complete"
    );

    let results = cl.results.borrow();
    assert!(results.metas.iter().all(|m| m.result.is_ok()));
    let rate = |kinds: &[MetaOpKind]| {
        let ops: Vec<_> = (results.metas.iter())
            .filter(|m| kinds.contains(&m.op))
            .map(|m| (m.start, m.end))
            .collect();
        ops.len() as f64 / span_s(&ops)
    };
    use MetaOpKind::*;
    let stats = cl.control.borrow().shard_stats();
    let ops: u64 = stats.iter().map(|s| s.ops).sum();
    let wait_ps: u64 = stats.iter().map(|s| s.queue_wait_ps).sum();
    let mutations = stats.iter().map(|s| s.mutations);
    ShardPoint {
        dir_ops_per_s: rate(&[Mkdir, Create, Rename, Unlink]),
        resolves_per_s: rate(&[Lookup, Readdir]),
        queue_wait_us_per_op: wait_ps as f64 / ops as f64 / 1e6,
        cross_shard_txns: stats.iter().map(|s| s.cross_shard_txns).sum(),
        balance: mutations.clone().min().unwrap_or(0) as f64
            / mutations.max().unwrap_or(0).max(1) as f64,
    }
}

/// Four shards at least double the single-shard plane's dir-op
/// throughput, do not lose resolve throughput, coordinate cross-shard
/// 2PC, leave no shard idle, and cut each op's admission wait.
#[test]
fn metadata_throughput_scales_with_the_shard_count() {
    let one = shard_point(1);
    let four = shard_point(4);
    let speedup = four.dir_ops_per_s / one.dir_ops_per_s;
    assert!(
        speedup >= 2.0,
        "4 shards must double single-shard dir-op throughput, got {speedup:.2}x"
    );
    assert!(
        four.resolves_per_s >= one.resolves_per_s * 0.95,
        "resolve throughput regressed: {:.0} -> {:.0} ops/s",
        one.resolves_per_s,
        four.resolves_per_s
    );
    assert!(
        four.cross_shard_txns > 0,
        "unlinks and renames cross shards"
    );
    assert!(four.balance > 0.0, "a shard saw no mutations");
    assert!(
        four.queue_wait_us_per_op < one.queue_wait_us_per_op,
        "per-op admission wait must drop: {:.3} us -> {:.3} us",
        one.queue_wait_us_per_op,
        four.queue_wait_us_per_op
    );
}

/// 256 zipfian (exponent 2) 64 KiB reads of a 4 MiB file, cache cold.
/// Returns the mean read latency and the read cache's hit rate.
fn zipfian_reads(cache: bool) -> (f64, f64) {
    let spec = ClusterSpec::new(1, 4, StorageMode::Spin);
    let mut cl = SimCluster::build_with(spec, |app| app.read_cache_enabled = cache);
    let file = cl.control.borrow_mut().create_file(0, FilePolicy::Plain);
    let w = Workload::new(file.id, WriteProtocol::Spin, SizeDist::Fixed(BLOCK))
        .with_writes(64)
        .with_reads(256, ReadProtocol::Rdma)
        .with_read_pattern(ReadPattern::Zipfian { exponent: 2.0 })
        .with_seed(0xCACE);
    for job in w.jobs_for_client(0) {
        cl.submit(0, job);
    }
    cl.start();
    assert_eq!(cl.run_until_writes(64, 60_000), 64, "write phase");
    cl.read_caches[0].borrow_mut().clear();
    assert_eq!(cl.run_until_file_reads(256, 60_000), 256, "read phase");
    let latencies = (cl.results.borrow().file_reads.iter())
        .map(|r| us(r.start, r.end))
        .collect();
    let hit_rate = cl.read_caches[0].borrow().stats.hit_rate();
    (mean_p99(latencies).0, hit_rate)
}

#[test]
fn zipfian_hot_set_is_served_from_the_read_cache() {
    let (uncached_us, _) = zipfian_reads(false);
    let (cached_us, hit_rate) = zipfian_reads(true);
    assert!(hit_rate > 0.4, "hot set missed: hit rate {hit_rate:.2}");
    assert!(
        cached_us < uncached_us,
        "cache made the hot set slower: {cached_us:.2} us vs {uncached_us:.2} us"
    );
}
