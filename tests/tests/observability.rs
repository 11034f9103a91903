//! The observability layer's acceptance bar, end to end:
//!
//! - every completed op span's phase durations sum *exactly* to its
//!   end-to-end latency (at picosecond resolution on the spans, and at
//!   nanosecond resolution in the metrics snapshot, by construction);
//! - a mixed write/read/repair run exports Perfetto-valid Chrome
//!   trace-event JSON with client, control, NIC, and storage tracks;
//! - spans never leak: rejected jobs, expired capabilities, mid-op node
//!   deaths under a [`FaultPlan`], and cache-hit short-circuits all close
//!   their span;
//! - the `nadfs-metrics-v1` snapshot schema stays stable;
//! - a NIC's serial resources (DMA read and write channels, EC engine)
//!   export their occupancy, so the next hot spot is found by reading the
//!   snapshot.

use std::collections::BTreeMap;

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, Job, LayoutSpec, MetaOp, ReadProtocol, SimCluster,
    StorageMode,
};
use nadfs_simnet::telemetry::json::{self, Json};
use nadfs_simnet::{Dur, SNAPSHOT_SCHEMA};
use nadfs_tests::{
    degraded_rs32_file, drain_repairs_with_faults, write_then_fail_midway, FaultAction, FaultPlan,
    FaultPoint, SplitMix,
};
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

/// The canonical mixed run: an EC write, an uncached + a cached + an
/// RPC-baseline read, a degraded read after a node kill, one repair
/// drain, and a meta op — every span kind and every phase branch.
fn mixed_run() -> FsClient {
    let scheme = RsScheme::new(3, 2);
    let cluster = SimCluster::build(ClusterSpec::new(1, 6, StorageMode::Spin));
    let mut fs = FsClient::new(cluster);
    fs.mkdir_p("/obs").expect("mkdir");
    let h = fs
        .create_with_policy(
            "/obs/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    let data = payload(7, 200_000);
    let w = fs.append(&h, &data).expect("write");
    let r1 = fs.read_at(&h, 0, data.len() as u32).expect("read");
    assert_eq!(r1.data.as_ref(), &data[..]);
    let r2 = fs.read_at(&h, 0, data.len() as u32).expect("cached read");
    assert!(r2.from_cache, "second read must hit the client cache");
    let mut rpc = fs.open("/obs/f").expect("open");
    rpc.read_protocol = ReadProtocol::Rpc;
    fs.drop_read_cache();
    let r3 = fs.read_at(&rpc, 0, data.len() as u32).expect("rpc read");
    assert_eq!(r3.data.as_ref(), &data[..]);
    let victim = fs
        .cluster
        .storage_index(w.placement.data_chunks[0].node as usize);
    fs.fail_storage_node(victim);
    fs.drop_read_cache();
    let r4 = fs.read_at(&h, 0, data.len() as u32).expect("degraded read");
    assert!(
        r4.degraded_stripes > 0,
        "read must exercise the degraded path"
    );
    let report = fs.drain_repairs();
    assert!(report.converged() && report.repaired >= 1);
    // One metadata job through the client driver (fs.stat peeks the
    // control plane directly and would not mint a span).
    fs.cluster.submit(
        0,
        Job::Meta {
            op: MetaOp::Lookup {
                path: "/obs/f".into(),
            },
            token: 99,
        },
    );
    fs.cluster.start();
    assert_eq!(fs.cluster.run_until_metas(1, 1_000), 1);
    fs
}

/// Acceptance (a): per-op phase latencies sum exactly to the end-to-end
/// latency — per span at full sim-clock resolution, and per op kind in
/// the aggregated snapshot histograms.
#[test]
fn phase_durations_sum_exactly_to_e2e() {
    let fs = mixed_run();
    assert_eq!(fs.open_spans(), 0, "mixed run left spans open");

    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    {
        let obs = fs.cluster.obs.borrow();
        for sp in obs.spans.done() {
            let phase_sum: u64 = sp.phase_durations().iter().map(|&(_, Dur(d))| d).sum();
            assert_eq!(
                phase_sum,
                sp.e2e().0,
                "span {} ({}) phases {:?} don't telescope to e2e",
                sp.id,
                sp.label,
                sp.marks
            );
            *by_kind.entry(sp.kind.as_str()).or_default() += 1;
        }
        assert_eq!(obs.spans.dropped(), 0, "span ring overflowed mid-test");
    }
    for kind in ["write", "read", "repair", "meta"] {
        assert!(
            by_kind.get(kind).copied().unwrap_or(0) >= 1,
            "mixed run produced no {kind} span ({by_kind:?})"
        );
    }

    // Same exactness in the snapshot: the ns-truncated phase histograms
    // of each kind sum to that kind's e2e histogram, in total.
    let snap = fs.metrics_snapshot();
    for kind in ["write", "read", "repair", "meta"] {
        let e2e = snap
            .hist(&format!("op.{kind}.e2e_ns"))
            .unwrap_or_else(|| panic!("no op.{kind}.e2e_ns histogram"));
        let phase_prefix = format!("op.{kind}.phase.");
        let phase_sum: u64 = snap
            .hists
            .iter()
            .filter(|(name, _)| name.starts_with(&phase_prefix))
            .map(|(_, h)| h.sum)
            .sum();
        assert_eq!(
            phase_sum, e2e.sum,
            "op.{kind} phase histograms don't sum to e2e"
        );
    }
}

/// Acceptance (b): the Chrome trace export parses and carries at least
/// one *event* (not just track metadata) on each component track class.
#[test]
fn chrome_export_has_events_on_every_component_track() {
    let fs = mixed_run();
    let doc = fs.export_chrome_trace();
    let parsed = json::parse(&doc).expect("chrome trace-event JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");

    let mut track_of_tid: BTreeMap<u64, String> = BTreeMap::new();
    for e in events {
        if e.get("name").and_then(Json::as_str) == Some("thread_name") {
            let tid = e.get("tid").and_then(Json::as_f64).expect("tid") as u64;
            let name = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .expect("track name");
            track_of_tid.insert(tid, name.to_owned());
        }
    }
    let mut events_per_class: BTreeMap<&str, usize> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        if ph == "M" {
            continue;
        }
        assert!(matches!(ph, "X" | "i"), "unexpected event phase {ph}");
        let tid = e.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        let track = &track_of_tid[&tid];
        for class in ["client-", "control", "nic-", "storage-"] {
            if track.starts_with(class) {
                *events_per_class.entry(class).or_default() += 1;
            }
        }
        // Complete slices must carry a duration; every event a timestamp.
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
        }
    }
    for class in ["client-", "control", "nic-", "storage-"] {
        assert!(
            events_per_class.get(class).copied().unwrap_or(0) >= 1,
            "no events on any {class}* track ({events_per_class:?})"
        );
    }
}

/// Spans on jobs the control plane rejects outright (placement on a
/// vanished file) are closed as rejected, not leaked.
#[test]
fn rejected_write_closes_its_span() {
    let cluster = SimCluster::build(ClusterSpec::new(1, 2, StorageMode::Spin));
    let mut fs = FsClient::new(cluster);
    fs.mkdir_p("/r").expect("mkdir");
    let h = fs.create("/r/f", LayoutSpec::SINGLE).expect("create");
    let now = fs.cluster.engine.now().as_ns() as u64;
    fs.cluster
        .control
        .borrow_mut()
        .unlink("/r/f", now)
        .expect("unlink");
    let err = fs.append(&h, &payload(1, 4096));
    assert!(err.is_err(), "write to an unlinked file must fail");
    assert_eq!(fs.open_spans(), 0, "rejected write leaked its span");
    let snap = fs.metrics_snapshot();
    assert!(snap.counter("op.write.rejected").unwrap_or(0) >= 1);
}

/// Expired read capabilities — rejected on the NIC (one-sided) or the
/// storage CPU (RPC) — still close the client's read span.
#[test]
fn expired_capability_reads_close_their_spans() {
    for protocol in [ReadProtocol::Rdma, ReadProtocol::Rpc] {
        let spec = ClusterSpec::new(1, 1, StorageMode::Spin);
        let cluster = SimCluster::build_with(spec, |app| {
            app.read_cap_expires_at_ns = 1;
        });
        let mut fs = FsClient::new(cluster);
        fs.mkdir_p("/sec").expect("mkdir");
        let mut h = fs.create("/sec/f", LayoutSpec::SINGLE).expect("create");
        h.read_protocol = protocol;
        let data = payload(2, 64 << 10);
        fs.append(&h, &data).expect("write");
        // The write-through fill would serve this read locally without
        // ever presenting the capability; drop it to hit the wire.
        fs.drop_read_cache();
        assert!(fs.read_at(&h, 0, data.len() as u32).is_err());
        assert_eq!(
            fs.open_spans(),
            0,
            "{protocol:?}: expired-cap read leaked its span"
        );
        let snap = fs.metrics_snapshot();
        assert!(snap.counter("op.read.rejected").unwrap_or(0) >= 1);
    }
}

/// Cache-hit short-circuits close their span (with the cache-hit mark)
/// and feed the cache-hit counter.
#[test]
fn cache_hit_reads_close_spans_with_cache_hit_phase() {
    let cluster = SimCluster::build(ClusterSpec::new(1, 2, StorageMode::Spin));
    let mut fs = FsClient::new(cluster);
    fs.mkdir_p("/c").expect("mkdir");
    let h = fs.create("/c/f", LayoutSpec::SINGLE).expect("create");
    let data = payload(3, 64 << 10);
    fs.append(&h, &data).expect("write");
    let _ = fs.read_at(&h, 0, data.len() as u32).expect("fill");
    let hit = fs.read_at(&h, 0, data.len() as u32).expect("hit");
    assert!(hit.from_cache);
    assert_eq!(fs.open_spans(), 0);
    let obs = fs.cluster.obs.borrow();
    let cache_span = obs
        .spans
        .done()
        .find(|sp| sp.has_mark(nadfs_simnet::telemetry::phase::CACHE_HIT))
        .expect("a span with the cache-hit mark");
    assert!(cache_span.ok);
    drop(obs);
    let snap = fs.metrics_snapshot();
    assert!(snap.counter("op.read.cache_hits").unwrap_or(0) >= 1);
}

/// Mid-op node death (scripted via the fault harness) and faults fired
/// *during* the repair drain never leak spans — including aborted repair
/// attempts.
#[test]
fn fault_injected_run_leaves_no_open_spans() {
    let scheme = RsScheme::new(3, 2);
    let cluster = SimCluster::build(ClusterSpec::new(1, 7, StorageMode::Spin));
    let mut fs = FsClient::new(cluster);
    fs.mkdir_p("/f").expect("mkdir");
    let h = fs
        .create_with_policy(
            "/f/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    let data = payload(4, 150_000);

    // Kill a node while the stripe is in flight.
    let w = write_then_fail_midway(&mut fs, &h, 0, &data, 0, 5);
    let _ = w;
    // And another one between the first and second repair task.
    let mut plan = FaultPlan::new(0xFEED).on(
        FaultPoint::AfterRepairs(1),
        FaultAction::FailRandomOf(vec![1, 2]),
    );
    fs.repair_backlog(); // sanity: callable mid-fault
    let report = drain_repairs_with_faults(&mut fs, &mut plan);
    let _ = report;
    // A second drain settles anything the mid-drain kill re-queued.
    let _ = fs.drain_repairs();

    assert_eq!(fs.open_spans(), 0, "fault run leaked spans");
    let obs = fs.cluster.obs.borrow();
    for sp in obs.spans.done() {
        let phase_sum: u64 = sp.phase_durations().iter().map(|&(_, Dur(d))| d).sum();
        assert_eq!(phase_sum, sp.e2e().0, "span {} broken by faults", sp.label);
    }
}

/// CI alarm: `spans.dropped > 0` in a snapshot means the completed-span
/// ring overflowed and telemetry silently lost op lifecycles — phase
/// accounting, trace exports, and the bench's span-derived numbers all
/// under-report from that point on. The acceptance workloads must never
/// trip it; a legitimate capacity change raises the ring size, not this
/// bar.
#[test]
fn span_ring_never_drops_in_acceptance_workloads() {
    let fs = mixed_run();
    let snap = fs.metrics_snapshot();
    assert_eq!(
        snap.gauge("spans.dropped"),
        Some(0.0),
        "completed-span ring overflowed: telemetry is lossy"
    );
}

/// The serialized snapshot keeps the pinned `nadfs-metrics-v1` layout:
/// top-level sections, histogram summary fields, and the stable metric
/// families components register under. Renaming any of these is a
/// deliberate schema bump, not a refactor.
#[test]
fn metrics_snapshot_schema_is_stable() {
    let fs = mixed_run();
    let snap = fs.metrics_snapshot();
    assert_eq!(snap.schema, SNAPSHOT_SCHEMA);
    assert_eq!(SNAPSHOT_SCHEMA, "nadfs-metrics-v1");

    let doc = snap.to_json();
    let parsed = json::parse(&doc).expect("snapshot JSON parses");
    let top: Vec<&str> = parsed
        .members()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(top, ["schema", "counters", "gauges", "histograms"]);

    let hists = parsed.get("histograms").expect("histograms");
    let (_, first) = &hists.members().expect("object")[0];
    let fields: Vec<&str> = first
        .members()
        .expect("hist object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        fields,
        ["count", "sum", "min", "max", "mean", "p50", "p90", "p99"]
    );

    // Metric families every release must keep publishing.
    for counter in [
        "op.write.completed",
        "op.read.completed",
        "op.repair.completed",
        "op.meta.completed",
        "op.read.cache_hits",
        "storage.0.rpc_reads",
        "storage.0.stripe_chunks_placed",
        "client.0.read_cache.hits",
        "client.0.meta_cache.hits",
        "repair.committed",
        "fabric.switch_holds",
        "engine.events_dispatched",
        "nic.0.gather.chunks_reconstructed",
        "nic.0.dma.read_busy_ps",
        "nic.0.dma.write_busy_ps",
        "nic.0.ec.busy_ps",
    ] {
        assert!(
            snap.counter(counter).is_some(),
            "snapshot lost counter {counter}"
        );
    }
    for hist in ["op.write.e2e_ns", "op.read.e2e_ns", "op.repair.e2e_ns"] {
        assert!(snap.hist(hist).is_some(), "snapshot lost histogram {hist}");
    }
    for gauge in ["spans.open", "spans.done", "spans.dropped"] {
        assert!(snap.gauge(gauge).is_some(), "snapshot lost gauge {gauge}");
    }
    assert_eq!(snap.gauge("spans.open"), Some(0.0));
}

/// The occupancy counters on a degraded gather: the coordinator's DMA
/// write channel does not move (nothing is staged), its read channel is
/// busy for one pass over the survivor bytes it owns, and its EC engine
/// for the rebuilt bytes at its rate. No other NIC's engine runs.
#[test]
fn degraded_gather_occupancy_is_in_the_snapshot() {
    let (mut fs, h, data) = degraded_rs32_file(64 << 10, 1, &[0]);
    let cost = &fs.cluster.spec.cost;
    let (dma, engine) = (cost.nic.dma.clone(), cost.ec_engine.clone());
    let chunk_len = (64u32 << 10).div_ceil(3);

    // Exactly the lost chunk: the coordinator serves the decode only.
    let before = fs.metrics_snapshot();
    let h = h.with_read_protocol(ReadProtocol::Offloaded);
    let r = fs.read_at(&h, 0, chunk_len).expect("degraded read");
    assert_eq!(r.data.as_ref(), &data[..chunk_len as usize]);
    let delta = fs.metrics_snapshot().delta(&before);

    let moved = |i: usize, what: &str| delta.counter(&format!("nic.{i}.{what}")).unwrap_or(0);
    let coordinators: Vec<usize> = (0..6)
        .filter(|&i| moved(i, "gather.chunks_reconstructed") > 0)
        .collect();
    let [c] = coordinators[..] else {
        panic!("one coordinator, got {coordinators:?}");
    };
    assert_eq!(moved(c, "dma.write_busy_ps"), 0, "nothing staged");
    let one_pass = dma.read_bw.tx_time(chunk_len as u64) + dma.per_op + dma.latency;
    let read_busy = moved(c, "dma.read_busy_ps");
    assert!(
        0 < read_busy && read_busy <= one_pass.ps(),
        "coordinator read channel busy {read_busy} ps, one pass is {} ps",
        one_pass.ps()
    );
    // Occupied per rebuilt packet, each rounded up to a picosecond.
    let compute = engine.encode_bw.tx_time(chunk_len as u64).ps();
    let ec_busy = moved(c, "ec.busy_ps");
    assert!(
        compute <= ec_busy && ec_busy <= compute + 16,
        "engine busy {ec_busy} ps for {compute} ps of decode"
    );
    for i in (0..6).filter(|&i| i != c) {
        assert_eq!(moved(i, "ec.busy_ps"), 0, "nic {i} decodes nothing");
        assert_eq!(moved(i, "dma.write_busy_ps"), 0, "nic {i} stages nothing");
    }
}

/// `pspin.descriptor_peak_bytes` is the cluster's peak: the largest any
/// storage NIC reached, not whichever NIC the snapshot visited last.
#[test]
fn descriptor_peak_gauge_is_the_maximum_over_the_nics() {
    let mut fs = FsClient::new(SimCluster::build(ClusterSpec::new(1, 3, StorageMode::Spin)));
    fs.mkdir_p("/p").expect("mkdir");
    let h = fs.create("/p/f", LayoutSpec::SINGLE).expect("create");
    fs.append(&h, &payload(7, 64 << 10)).expect("write");
    let peaks: Vec<u64> = (fs.cluster.pspin_telemetry.iter())
        .map(|t| t.as_ref().expect("spin NIC").borrow().descriptor_peak_bytes)
        .collect();
    assert_eq!(peaks.last(), Some(&0), "the write must miss the last NIC");
    let max = *peaks.iter().max().expect("three NICs");
    assert!(max > 0, "no NIC held a write descriptor: {peaks:?}");
    let gauge = fs.metrics_snapshot().gauge("pspin.descriptor_peak_bytes");
    assert_eq!(gauge, Some(max as f64), "per-NIC peaks {peaks:?}");
}

/// Engine profiling (off by default) lands dispatch counts and per-kind
/// host busy time in the snapshot — the measured baseline for the
/// dispatch-overhead ROADMAP item.
#[test]
fn engine_profiling_baseline_lands_in_snapshot() {
    let spec = ClusterSpec::new(1, 2, StorageMode::Spin).with_engine_profiling();
    let mut fs = FsClient::new(SimCluster::build(spec));
    fs.mkdir_p("/p").expect("mkdir");
    let h = fs.create("/p/f", LayoutSpec::SINGLE).expect("create");
    fs.append(&h, &payload(5, 64 << 10)).expect("write");
    let snap = fs.metrics_snapshot();
    let total = snap.counter("engine.events_dispatched").unwrap_or(0);
    assert!(total > 0, "no events dispatched?");
    let per_kind: Vec<_> = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("engine.kind.") && k.ends_with(".dispatches"))
        .collect();
    assert!(
        !per_kind.is_empty(),
        "profiling enabled but no per-kind dispatch counters"
    );
    let kind_sum: u64 = per_kind.iter().map(|(_, v)| *v).sum();
    assert_eq!(kind_sum, total, "per-kind dispatches don't sum to total");
}

/// Observability can be turned off entirely: no spans accumulate, the
/// run still completes, and the export degrades to an empty (but valid)
/// document.
#[test]
fn observability_off_is_a_clean_noop() {
    let spec = ClusterSpec::new(1, 2, StorageMode::Spin).with_observability(false);
    let mut fs = FsClient::new(SimCluster::build(spec));
    fs.mkdir_p("/off").expect("mkdir");
    let h = fs.create("/off/f", LayoutSpec::SINGLE).expect("create");
    let data = payload(6, 64 << 10);
    fs.append(&h, &data).expect("write");
    let r = fs.read_at(&h, 0, data.len() as u32).expect("read");
    assert_eq!(r.data.as_ref(), &data[..]);
    assert_eq!(fs.open_spans(), 0);
    assert_eq!(fs.cluster.obs.borrow().spans.done_count(), 0);
    let doc = fs.export_chrome_trace();
    let parsed = json::parse(&doc).expect("empty export still parses");
    assert!(parsed.get("traceEvents").and_then(Json::as_array).is_some());
}
