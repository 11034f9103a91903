//! Per-layer metrics of one traced run, assembled from three sources:
//! counter deltas over the traced repetition's measured phase
//! ("traced"), the tight-loop kernels ("kernel"), and the harness's own
//! bookkeeping. Every metric in [`metrics::per_layer`] gets a value; one
//! a workload does not exercise reads 0.

use std::collections::BTreeMap;

use nadfs_simnet::MetricsSnapshot;

use crate::calib;
use crate::kernels::Kernel;
use crate::metrics::{self, kind_metric, phase_metric, ENGINE_KINDS, PHASES};
use crate::report::Value;
use crate::stats;
use crate::workloads::{Rep, Traced};

/// Every counter in `m` named `<prefix><anything><suffix>`, one value each.
fn each(m: &MetricsSnapshot, prefix: &str, suffix: &str) -> Vec<u64> {
    m.counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|&(_, v)| v)
        .collect()
}

/// Their sum.
fn sum(m: &MetricsSnapshot, prefix: &str, suffix: &str) -> u64 {
    each(m, prefix, suffix).iter().sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub struct Inputs<'a> {
    /// The traced repetition.
    pub traced: &'a Rep,
    /// Reference microseconds of host CPU per op over the untraced
    /// repetitions of the same run (with their quartiles), and over the
    /// traced ones.
    pub untraced_us_per_op: &'a Value,
    pub traced_us_per_op: f64,
    /// Reference ns of host CPU per engine event, untraced.
    pub ns_per_event: f64,
    pub kernels: &'a [Kernel],
    pub decode_cache_hit_rate: f64,
    /// The calibration kernel's cost on this box during this run.
    pub k: f64,
    /// Every calibration reading of the run.
    pub ks: &'a [f64],
    /// Seconds per repetition the harness spent generating inputs.
    pub gen_s: f64,
}

pub fn values(inp: &Inputs<'_>) -> Vec<Value> {
    let rep = inp.traced;
    let tr: &Traced = rep.traced.as_ref().expect("a traced repetition");
    let d = &tr.delta;
    // Ops of the cluster the counters came from (for `paper_anchors`,
    // the probe's).
    let ops = rep.lat_ps.len() as f64;
    let per_op = |n: u64| ratio(n as f64, ops);

    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, x: f64| {
        v.insert(name.to_owned(), x);
    };

    // --- the two e2e-shaped metrics that cannot be on every workload --
    set(
        "sim_goodput_gbit_s",
        ratio(rep.bytes as f64 * 8.0 / 1e9, rep.span_ps as f64 / 1e12),
    );
    set(
        "op_fail_share",
        ratio(rep.failed as f64, rep.attempted as f64),
    );

    // --- simnet -------------------------------------------------------
    set(
        "simnet.engine.events_per_op",
        ratio(rep.events as f64, rep.attempted as f64),
    );
    set("simnet.engine.ns_per_event", inp.ns_per_event);
    let dispatches = sum(d, "engine.kind.", ".dispatches") as f64;
    let busy = sum(d, "engine.kind.", ".busy_host_ns") as f64;
    for kind in ENGINE_KINDS {
        let of = |what: &str| {
            d.counter(&format!("engine.kind.{kind}.{what}"))
                .unwrap_or(0) as f64
        };
        set(
            &kind_metric(kind, "dispatch_frac"),
            ratio(of("dispatches"), dispatches),
        );
        set(
            &kind_metric(kind, "busy_host_frac"),
            ratio(of("busy_host_ns"), busy),
        );
    }
    let (gets, hits, misses) = tr.pool;
    set("simnet.pool.hit_rate", ratio(hits as f64, gets as f64));
    set("simnet.pool.misses_per_op", per_op(misses));
    set(
        "simnet.flow.queued_per_op",
        per_op(sum(d, "flow.queued", "")),
    );
    set(
        "simnet.flow.stalls_per_op",
        per_op(sum(d, "flow.local_stalls", "") + sum(d, "flow.remote_stalls", "")),
    );
    set(
        "simnet.flow.standalone_grants_per_op",
        per_op(sum(d, "flow.granted_standalone", "")),
    );
    set(
        "simnet.fabric.switch_holds_per_op",
        per_op(sum(d, "fabric.switch_holds", "")),
    );
    set(
        "simnet.telemetry.overhead_frac",
        ratio(inp.traced_us_per_op, inp.untraced_us_per_op.value) - 1.0,
    );

    // --- pspin / rdma -------------------------------------------------
    set(
        "pspin.pkts_per_op",
        per_op(sum(d, "pspin.", ".pkts_processed")),
    );
    for (i, kind) in ["header", "payload", "completion"].iter().enumerate() {
        set(
            &format!("pspin.handler.{kind}.sim_ns_mean"),
            tr.handler_ns[i].0,
        );
    }
    set("pspin.msgs_denied", sum(d, "pspin.", ".msgs_denied") as f64);
    set(
        "pspin.descriptor_peak_bytes",
        d.gauge("pspin.descriptor_peak_bytes").unwrap_or(0.0),
    );
    for (metric, suffix) in [
        (
            "rdma.nic.gather.remote_fetches_per_op",
            ".gather.remote_fetches",
        ),
        (
            "rdma.nic.gather.chunks_reconstructed_per_op",
            ".gather.chunks_reconstructed",
        ),
        (
            "rdma.nic.gather.bytes_streamed_per_op",
            ".gather.bytes_streamed",
        ),
    ] {
        set(metric, per_op(sum(d, "nic.", suffix)));
    }
    set(
        "rdma.nic.gather.auth_failures",
        sum(d, "nic.", ".gather.auth_failures") as f64,
    );

    // --- meta ---------------------------------------------------------
    set(
        "meta.shard.queue_wait_us_per_op",
        ratio(sum(d, "meta.shard.", ".queue_wait_ps") as f64 / 1e6, ops),
    );
    set(
        "meta.shard.cross_shard_txns_per_op",
        per_op(sum(d, "meta.shard.", ".cross_shard_txns")),
    );
    let muts = each(d, "meta.shard.", ".mutations");
    set(
        "meta.shard.balance",
        ratio(
            muts.iter().copied().min().unwrap_or(0) as f64,
            muts.iter().copied().max().unwrap_or(0) as f64,
        ),
    );
    let log_len_max = d
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("meta.shard.") && k.ends_with(".log_len"))
        .map(|&(_, g)| g)
        .fold(0.0, f64::max);
    set("meta.shard.log_len_max", log_len_max);

    // --- core ---------------------------------------------------------
    let cache_hits = sum(d, "client.", ".read_cache.hits") as f64;
    let cache_misses = sum(d, "client.", ".read_cache.misses") as f64;
    set(
        "core.cache.hit_rate",
        ratio(cache_hits, cache_hits + cache_misses),
    );
    set(
        "core.cache.readahead_bytes_per_op",
        per_op(sum(d, "client.", ".read_cache.readahead_bytes")),
    );
    set(
        "core.cache.evictions_per_op",
        per_op(sum(d, "client.", ".read_cache.evictions")),
    );
    set(
        "core.control.resolves_per_op",
        per_op(sum(d, "meta.shard.", ".resolves")),
    );
    set(
        "core.client.reconstructed_stripes_per_op",
        per_op(sum(d, "client.", ".read.reconstructed_stripes")),
    );
    set(
        "core.storage.chunks_forwarded_per_op",
        per_op(sum(d, "storage.", ".chunks_forwarded")),
    );
    set(
        "core.storage.rpc_ops_per_op",
        per_op(
            sum(d, "storage.", ".rpc_writes")
                + sum(d, "storage.", ".rpc_rdma_writes")
                + sum(d, "storage.", ".rpc_reads"),
        ),
    );
    // Phases: simulated us per op, so they add up to the mean latency.
    let spans = tr.spans as f64;
    let mut other_ps = 0u64;
    for (&name, &ps) in &tr.phase_ps {
        if !PHASES.contains(&name) {
            other_ps += ps;
        }
    }
    for phase in PHASES {
        let ps = tr.phase_ps.get(phase).copied().unwrap_or(0);
        set(&phase_metric(phase), ratio(ps as f64 / 1e6, spans));
    }
    set(&phase_metric("other"), ratio(other_ps as f64 / 1e6, spans));
    let phase_total: u64 = tr.phase_ps.values().sum();
    set(
        "core.client.phase.sum_over_e2e",
        ratio(phase_total as f64, tr.e2e_ps as f64),
    );

    // --- kernels ------------------------------------------------------
    for k in inp.kernels {
        // Reference ns per call, or GB/s at reference speed.
        let ref_ns = calib::to_ref_s(k.ns_per_call, inp.k) * 1e9;
        set(
            k.metric,
            match k.bytes_per_call {
                Some(bytes) => bytes as f64 / ref_ns,
                None => ref_ns,
            },
        );
    }
    set("gfec.rs.decode_cache_hit_rate", inp.decode_cache_hit_rate);

    // --- harness ------------------------------------------------------
    set("harness.host_speed", calib::K_REF_S / inp.k);
    set("harness.calib_spread", stats::iqr_frac(inp.ks));
    let u = inp.untraced_us_per_op;
    set("harness.rep_iqr_frac", ratio(u.q3 - u.q1, u.value));
    set("harness.gen_s", inp.gen_s);

    // In table order; a metric nothing above set is a bug here.
    metrics::per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let x = *v
                .get(&name)
                .unwrap_or_else(|| panic!("per-layer metric {name} has no value"));
            Value::exact(name, unit, x, tr.spans)
        })
        .collect()
}
