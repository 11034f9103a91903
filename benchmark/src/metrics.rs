//! The metric names, units and bounds — the one place they are defined.
//! `BENCHMARK.json` at the repo root is `benchmark manifest`'s output,
//! and a unit test fails if the two drift apart.
//!
//! Every workload reports every end-to-end metric (`--trace 0`) and
//! every per-layer metric (`--trace 1`); a per-layer metric a workload
//! does not exercise reads 0.

use nadfs_simnet::telemetry::json;

use crate::workloads;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures for (`--seconds` when the driver runs it).
pub const RUN_SECONDS: u64 = 12;

use Better::{Higher, Lower};

#[rustfmt::skip] // one metric per line reads as the table it is
pub const END_TO_END: [EndToEnd; 9] = [
    // Every bound is about three times the widest quartile spread the
    // metric showed on any workload over ten runs with ten seeds on the
    // reference box (README, "Spreads"), capped at the driver's 0.25.
    //
    // Simulated clock (units say so: `sim_us` is a microsecond of modelled
    // time, not of this box's). Exact for a given seed — `compare` flags
    // any difference at all — so these bounds only leave room for how far
    // the seed itself moves each number.
    EndToEnd { name: "sim_op_p50_us", unit: "sim_us", better: Lower, bound: 0.20 },
    EndToEnd { name: "sim_op_p99_us", unit: "sim_us", better: Lower, bound: 0.20 },
    EndToEnd { name: "sim_ops_per_s", unit: "1/sim_s", better: Higher, bound: 0.10 },
    // Host clock, reference seconds (see calib.rs).
    EndToEnd { name: "host_us_per_op", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "host_allocs_per_op", unit: "count", better: Lower, bound: 0.05 },
    EndToEnd { name: "host_peak_rss_mb", unit: "MiB", better: Lower, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    // Accuracy against the paper's printed numbers; the same on every seed.
    EndToEnd { name: "paper_err_median", unit: "ratio", better: Lower, bound: 0.01 },
    EndToEnd { name: "paper_err_max", unit: "ratio", better: Lower, bound: 0.01 },
];

/// Span phase names a client op can carry (`nadfs_simnet::telemetry::phase`).
/// A phase not listed here is folded into `core.client.phase.other`.
pub const PHASES: [&str; 18] = [
    "queued",
    "resolved",
    "fanned-out",
    "nic-validated",
    "cpu-validated",
    "reassembled",
    "cache-hit",
    "degraded",
    "gathered",
    "nic-reconstructed",
    "nic-pkt",
    "streamed",
    "readahead",
    "retried",
    "rebuilt",
    "committed",
    "completed",
    "rejected",
];

/// Engine component kinds `Engine::profiles_by_kind()` reports.
pub const ENGINE_KINDS: [&str; 2] = ["fabric", "nic"];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics with fixed names; the per-phase and per-kind ones
/// are generated from [`PHASES`] and [`ENGINE_KINDS`] in [`per_layer`].
const PER_LAYER_FIXED: [PerLayer; 62] = [
    // what the e2e list cannot carry for every workload
    layer("sim_goodput_gbit_s", "Gbit/sim_s", Higher),
    layer("op_fail_share", "ratio", Lower),
    // simnet
    layer("simnet.engine.events_per_op", "count", Lower),
    layer("simnet.engine.ns_per_event", "ns", Lower),
    layer("simnet.engine.schedule_dispatch_ns", "ns", Lower),
    layer("simnet.pool.get_put_ns", "ns", Lower),
    layer("simnet.pool.hit_rate", "ratio", Higher),
    layer("simnet.pool.misses_per_op", "count", Lower),
    layer("simnet.flow.try_acquire_ns", "ns", Lower),
    layer("simnet.flow.queued_per_op", "count", Lower),
    layer("simnet.flow.stalls_per_op", "count", Lower),
    layer("simnet.flow.standalone_grants_per_op", "count", Lower),
    layer("simnet.fabric.switch_holds_per_op", "count", Lower),
    layer("simnet.telemetry.overhead_frac", "ratio", Lower),
    // wire
    layer("wire.codec.wrh_roundtrip_ns", "ns", Lower),
    layer("wire.codec.dfs_header_roundtrip_ns", "ns", Lower),
    layer("wire.frame.split_payload_ns", "ns", Lower),
    layer("wire.capability.verify_ns", "ns", Lower),
    layer("wire.siphash.checksum_gbps", "GB/s", Higher),
    // gfec
    layer("gfec.gf256.mul_acc_gbps", "GB/s", Higher),
    layer("gfec.rs63.encode_gbps", "GB/s", Higher),
    layer("gfec.stream.absorb_gbps", "GB/s", Higher),
    layer("gfec.rs32.reconstruct_gbps", "GB/s", Higher),
    layer("gfec.rs.decode_cache_hit_rate", "ratio", Higher),
    // host
    layer("host.memory.write_gbps", "GB/s", Higher),
    layer("host.memory.read_into_gbps", "GB/s", Higher),
    layer("host.dma.write_ns", "ns", Lower),
    // pspin
    layer("pspin.pkts_per_op", "count", Lower),
    layer("pspin.handler.header.sim_ns_mean", "sim_ns", Lower),
    layer("pspin.handler.payload.sim_ns_mean", "sim_ns", Lower),
    layer("pspin.handler.completion.sim_ns_mean", "sim_ns", Lower),
    layer("pspin.msgs_denied", "count", Lower),
    layer("pspin.descriptor_peak_bytes", "B", Lower),
    // rdma
    layer("rdma.nic.gather.remote_fetches_per_op", "count", Lower),
    layer(
        "rdma.nic.gather.chunks_reconstructed_per_op",
        "count",
        Lower,
    ),
    layer("rdma.nic.gather.bytes_streamed_per_op", "B", Lower),
    layer("rdma.nic.gather.auth_failures", "count", Lower),
    // meta
    layer("meta.namespace.create_ns", "ns", Lower),
    layer("meta.namespace.lookup_ns", "ns", Lower),
    layer("meta.namespace.rename_ns", "ns", Lower),
    layer("meta.cache.get_ns", "ns", Lower),
    layer("meta.extents.resolve_ns.10", "ns", Lower),
    layer("meta.extents.resolve_ns.1k", "ns", Lower),
    layer("meta.extents.resolve_ns.100k", "ns", Lower),
    layer("meta.shard.queue_wait_us_per_op", "sim_us", Lower),
    layer("meta.shard.cross_shard_txns_per_op", "count", Lower),
    layer("meta.shard.balance", "ratio", Higher),
    layer("meta.shard.log_len_max", "count", Lower),
    // core
    layer("core.cache.lookup_ns", "ns", Lower),
    layer("core.cache.hit_rate", "ratio", Higher),
    layer("core.cache.readahead_bytes_per_op", "B", Lower),
    layer("core.cache.evictions_per_op", "count", Lower),
    layer("core.control.resolves_per_op", "count", Lower),
    layer("core.control.place_commit_ns", "ns", Lower),
    layer("core.client.phase.sum_over_e2e", "ratio", Higher),
    layer("core.client.reconstructed_stripes_per_op", "count", Lower),
    layer("core.storage.chunks_forwarded_per_op", "count", Lower),
    layer("core.storage.rpc_ops_per_op", "count", Lower),
    // harness: how far to trust the host numbers of this run
    layer("harness.host_speed", "ratio", Higher),
    layer("harness.calib_spread", "ratio", Lower),
    layer("harness.rep_iqr_frac", "ratio", Lower),
    layer("harness.gen_s", "s", Lower),
];

pub fn phase_metric(phase: &str) -> String {
    format!("core.client.phase.{phase}.sim_us_mean")
}

pub fn kind_metric(kind: &str, what: &str) -> String {
    format!("simnet.engine.kind.{kind}.{what}")
}

/// Every per-layer metric as (name, unit, better), in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<(String, &'static str, Better)> = PER_LAYER_FIXED
        .iter()
        .map(|m| (m.name.to_owned(), m.unit, m.better))
        .collect();
    for kind in ENGINE_KINDS {
        out.push((kind_metric(kind, "dispatch_frac"), "ratio", Lower));
        out.push((kind_metric(kind, "busy_host_frac"), "ratio", Lower));
    }
    for phase in PHASES.iter().copied().chain(["other"]) {
        out.push((phase_metric(phase), "sim_us", Lower));
    }
    out
}

/// A metric or workload name the driver accepts: starts with a letter or
/// digit, then letters, digits, `_`, `.`, `-`; at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let names = END_TO_END
        .iter()
        .map(|m| m.name.to_owned())
        .chain(per_layer().into_iter().map(|(n, ..)| n))
        .chain(workloads::ALL.iter().map(|w| w.name.to_owned()));
    for n in names {
        assert!(valid_name(&n), "{n:?} is not a name the driver accepts");
    }
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::str_lit(w.name),
                json::str_lit(w.why)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::str_lit(m.name),
                json::str_lit(m.unit),
                json::str_lit(m.better.as_str()),
                json::fmt_f64(m.bound)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::str_lit(name),
                json::str_lit(unit),
                json::str_lit(better.as_str())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn name_rule() {
        for ok in [
            "sim_op_p50_us",
            "meta.extents.resolve_ns.100k",
            "a-b",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "µs",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut seen = HashSet::new();
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let names = END_TO_END
            .iter()
            .map(|m| m.name.to_owned())
            .chain(layers.into_iter().map(|(n, ..)| n))
            .chain(workloads::ALL.iter().map(|w| w.name.to_owned()));
        for n in names {
            assert!(valid_name(&n), "{n}");
            assert!(seen.insert(n.clone()), "{n} used twice");
        }
        for w in &workloads::ALL {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "BENCHMARK.json drifted: regenerate it with `benchmark manifest`"
        );
        let doc = json::parse(&on_disk).expect("valid JSON");
        let keys: Vec<&str> = doc
            .members()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
