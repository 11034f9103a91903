//! The paper's figures, which the `figures` example prints; the other
//! examples are self-contained.
//!
//! One function per table/figure of the paper's evaluation. Every function
//! runs the corresponding experiment and renders a table whose rows
//! include the paper's reference values (where the paper prints them), so
//! the paper-vs-measured comparison is immediate. Absolute microseconds
//! are not expected to match a different testbed; the *shape* (who wins,
//! crossovers, asymptotic bandwidths) is the reproduction target. The
//! analytical models the figures plot beside the simulation (descriptor
//! memory, the HPU budget, the DFS survey) live in `analysis`.

mod analysis;
mod report;

use nadfs_core::experiments::{mode_for, nodes_for};
use nadfs_core::{
    replication_latency_us, storage_goodput_gbit, write_latency_us, ClusterSpec, CostModel,
    FilePolicy, Job, ReplStrategy, SimCluster, StorageMode, WriteProtocol,
};
use nadfs_pspin::HandlerKind;
use nadfs_simnet::Bandwidth;
use nadfs_wire::{BcastStrategy, RsScheme};

use report::{f, sz, Table};

/// Prints every table and figure, or, given filters, only those whose
/// name contains one of them (`fig09 table`).
pub fn print_figures(filters: &[String]) {
    for (name, run) in ALL {
        if filters.is_empty() || filters.iter().any(|a| name.contains(a.as_str())) {
            println!("{}", run());
        }
    }
}

/// A table or figure: its name and the function that renders it.
type Figure = (&'static str, fn() -> String);

/// Every table and figure, in paper order, under the name the filters
/// match.
const ALL: [Figure; 14] = [
    ("fig04", fig04),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig09_k2", || fig09_latency(2)),
    ("fig09_k4", || fig09_latency(4)),
    ("fig09_goodput", fig09_goodput),
    ("fig10", fig10),
    ("fig11_table1", fig11_table1),
    ("fig15", fig15),
    ("fig16_table2", fig16_table2),
    ("table3", table3),
    ("ablation_interleave", ablation_interleave),
    ("ablation_chunk_size", ablation_chunk_size),
    ("ablation_queues", ablation_queues),
];

/// Write sizes swept by the latency figures (1 KiB – 1 MiB, log scale).
const SIZES: [u32; 11] = [
    1 << 10,
    2 << 10,
    4 << 10,
    8 << 10,
    16 << 10,
    32 << 10,
    64 << 10,
    128 << 10,
    256 << 10,
    512 << 10,
    1 << 20,
];

/// Reduced sweep for the heavier multi-node figures.
const SIZES_COARSE: [u32; 6] = [1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20];

/// Fig 4: worst-case NIC memory vs number of writes and write sizes.
fn fig04() -> String {
    let mut t = Table::new(
        "Fig 4 — NIC descriptor memory vs concurrent writes",
        &[
            "#writes",
            "4KiB (KiB)",
            "64KiB (KiB)",
            "1MiB (KiB)",
            "descr-only (KiB)",
        ],
    );
    for n in [1u64, 10, 50, 100, 250, 500, 750, 1000] {
        t.row(vec![
            n.to_string(),
            f(analysis::worst_case_memory_bytes(n, 4 << 10) as f64 / 1024.0),
            f(analysis::worst_case_memory_bytes(n, 64 << 10) as f64 / 1024.0),
            f(analysis::worst_case_memory_bytes(n, 1 << 20) as f64 / 1024.0),
            f(analysis::descriptor_memory_bytes(n) as f64 / 1024.0),
        ]);
    }
    t.note(format!(
        "budget line: {} KiB (6 MiB); descriptor-only capacity = {} concurrent writes (paper: ~82 K)",
        analysis::DESCRIPTOR_BUDGET_BYTES / 1024,
        analysis::max_concurrent_writes()
    ));
    t.note("size-dependent columns add 4 B of arrival/commit state per expected packet; the paper quantifies only the 77 B descriptor and the 6 MiB budget");
    t.render()
}

/// Fig 6: write latency under RPC+RDMA / RPC / sPIN / Raw.
fn fig06() -> String {
    let cost = CostModel::paper();
    let mut t = Table::new(
        "Fig 6 — write latency by protocol (us)",
        &["size", "RPC+RDMA", "RPC", "sPIN", "Raw", "sPIN/Raw"],
    );
    let mut asym = [0.0f64; 4];
    for &size in &SIZES {
        let rr = write_latency_us(WriteProtocol::RpcRdma, FilePolicy::Plain, size, &cost, 3);
        let rp = write_latency_us(WriteProtocol::Rpc, FilePolicy::Plain, size, &cost, 3);
        let sp = write_latency_us(WriteProtocol::Spin, FilePolicy::Plain, size, &cost, 3);
        let rw = write_latency_us(WriteProtocol::Raw, FilePolicy::Plain, size, &cost, 3);
        if size == 1 << 20 {
            asym = [rr, rp, sp, rw];
        }
        t.row(vec![
            sz(size),
            f(rr),
            f(rp),
            f(sp),
            f(rw),
            format!("{:.2}x", sp / rw),
        ]);
    }
    let gbs = |us: f64| (1u64 << 20) as f64 / us / 1e3; // GB/s at 1 MiB
    t.note(format!(
        "asymptotic GB/s at 1MiB: RPC+RDMA {:.0}, RPC {:.0}, sPIN {:.0}, Raw {:.0} (paper labels: 26, 26, 40, 45)",
        gbs(asym[0]),
        gbs(asym[1]),
        gbs(asym[2]),
        gbs(asym[3])
    ));
    t.note("paper: sPIN overhead over Raw up to 27% for small writes, negligible for large");
    t.render()
}

/// Fig 7: PsPIN packet processing pipeline breakdown.
fn fig07() -> String {
    let cost = CostModel::paper();
    let stages = pipeline_breakdown_ns(&cost);
    let mut t = Table::new(
        "Fig 7 — PsPIN per-packet pipeline (2 KiB packet)",
        &["stage", "measured (ns)", "paper (ns)"],
    );
    let paper = [32.0, 2.0, 43.0, 1.0, 200.0];
    for ((name, ns), p) in stages.iter().zip(paper) {
        t.row(vec![name.clone(), f(*ns), f(p)]);
    }
    t.note("paper handler value is the 200-cycle validation; ours includes descriptor setup (Table I: 211 ns)");
    t.render()
}

/// Fig 9 (left/center): replication write latency for k=2 and k=4.
fn fig09_latency(k: u8) -> String {
    let cost = CostModel::paper();
    let strategies: Vec<ReplStrategy> = if k == 2 {
        // Ring and PBT coincide for k=2 (one child); show ring + flat + hl.
        vec![
            ReplStrategy::HyperLoop,
            ReplStrategy::CpuRing,
            ReplStrategy::RdmaFlat,
            ReplStrategy::SpinRing,
        ]
    } else {
        ReplStrategy::ALL.to_vec()
    };
    let mut header: Vec<&str> = vec!["size"];
    let labels: Vec<String> = strategies.iter().map(|s| s.label().to_string()).collect();
    header.extend(labels.iter().map(|s| s.as_str()));
    let mut t = Table::new(
        format!("Fig 9 — replication write latency, k={k} (us)"),
        &header,
    );
    for &size in &SIZES_COARSE {
        let mut cells = vec![sz(size)];
        for s in &strategies {
            cells.push(f(replication_latency_us(*s, k, size, &cost)));
        }
        t.row(cells);
    }
    if k == 2 {
        t.note("paper asymptotes (GB/s): sPIN 44, RDMA-Flat 22, CPU 13, HyperLoop 12; RDMA-Flat fastest below ~16 KiB, sPIN up to 2x better beyond");
    } else {
        t.note("paper asymptotes (GB/s): sPIN-Ring 39, sPIN-PBT 19, HyperLoop 18, RDMA-Flat 11, CPU-Ring 7.8, CPU-PBT 6.6; sPIN up to 2.16x better");
    }
    t.render()
}

/// Fig 9 (right): goodput sustained by the primary storage node.
fn fig09_goodput() -> String {
    let cost = CostModel::paper();
    let mut t = Table::new(
        "Fig 9 right — storage-node goodput (Gbit/s)",
        &["size", "k=1", "k=4 Ring", "k=4 PBT"],
    );
    for &size in &SIZES_COARSE {
        let n = if size >= (1 << 20) { 24 } else { 48 };
        let k1 = storage_goodput_gbit(WriteProtocol::Spin, FilePolicy::Plain, size, &cost, n, 8);
        let ring = storage_goodput_gbit(
            WriteProtocol::SpinReplicated,
            FilePolicy::Replicated {
                k: 4,
                strategy: BcastStrategy::Ring,
            },
            size,
            &cost,
            n,
            8,
        );
        let pbt = storage_goodput_gbit(
            WriteProtocol::SpinReplicated,
            FilePolicy::Replicated {
                k: 4,
                strategy: BcastStrategy::Pbt,
            },
            size,
            &cost,
            n,
            8,
        );
        t.row(vec![sz(size), f(k1), f(ring), f(pbt)]);
    }
    t.note("paper: k=1 and k=4-Ring reach line rate (~400) from 8 KiB; k=4-PBT about half (egress doubles)");
    t.render()
}

/// Fig 10: write latency vs replication factor at 4 KiB and 512 KiB.
fn fig10() -> String {
    let cost = CostModel::paper();
    let mut out = String::new();
    for (size, label) in [(4u32 << 10, "4KiB"), (512 << 10, "512KiB")] {
        let mut header: Vec<&str> = vec!["k"];
        let labels: Vec<String> = ReplStrategy::ALL
            .iter()
            .map(|s| s.label().to_string())
            .collect();
        header.extend(labels.iter().map(|s| s.as_str()));
        let mut t = Table::new(
            format!("Fig 10 — replication latency vs k, {label} writes (us)"),
            &header,
        );
        for k in [2u8, 4, 6, 8] {
            let mut cells = vec![k.to_string()];
            for s in ReplStrategy::ALL {
                cells.push(f(replication_latency_us(s, k, size, &cost)));
            }
            t.row(cells);
        }
        if size == 4 << 10 {
            t.note("paper: RDMA-Flat lowest for small writes at any k; PBT beats Ring at large k");
        } else {
            t.note("paper: RDMA-Flat grows linearly with k; sPIN variants least sensitive to k");
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig 11 + Table I: handler runtimes for plain and replicated writes.
fn fig11_table1() -> String {
    let cost = CostModel::paper();
    let mut t = Table::new(
        "Table I / Fig 11 — handler statistics (256 KiB writes)",
        &[
            "config", "HH ns", "PH ns", "CH ns", "HH ins", "PH ins", "CH ins", "HH IPC", "PH IPC",
            "CH IPC",
        ],
    );
    let configs: [(&str, WriteProtocol, FilePolicy); 3] = [
        ("k=1", WriteProtocol::Spin, FilePolicy::Plain),
        (
            "k=4 Ring",
            WriteProtocol::SpinReplicated,
            FilePolicy::Replicated {
                k: 4,
                strategy: BcastStrategy::Ring,
            },
        ),
        (
            "k=4 PBT",
            WriteProtocol::SpinReplicated,
            FilePolicy::Replicated {
                k: 4,
                strategy: BcastStrategy::Pbt,
            },
        ),
    ];
    for (label, protocol, policy) in configs {
        let r = handler_report(protocol, policy, 256 << 10, &cost, 24, 8);
        let (hd, hi, hipc) = r.hh.unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        let (pd, pi, pipc) = r.ph.unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        let (cd, ci, cipc) = r.ch.unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        t.row(vec![
            label.to_string(),
            f(hd),
            f(pd),
            f(cd),
            f(hi),
            f(pi),
            f(ci),
            format!("{hipc:.2}"),
            format!("{pipc:.2}"),
            format!("{cipc:.2}"),
        ]);
    }
    t.note("paper Table I: k=1 211/92/107 ns; Ring PH 193 ns; PBT PH 2106 ns at IPC 0.06 (egress-stall collapse)");
    let budget_ns =
        |gbit| analysis::handler_budget_ns(32, Bandwidth::from_gbit_per_sec(gbit), 2048);
    t.note(format!(
        "budget lines: {} ns (400G, 32 HPUs), {} ns (200G) per Fig 11",
        budget_ns(400) as u64,
        budget_ns(200) as u64
    ));
    t.render()
}

/// Fig 15: EC encoding latency (left) and throughput (right), 100 Gbit/s.
fn fig15() -> String {
    let cost = CostModel::paper().with_network_gbit(100);
    let mut out = String::new();

    let mut t = Table::new(
        "Fig 15 left — RS(3,2) encoding latency (us), 100 Gbit/s",
        &["chunk", "sPIN-TriEC", "INEC-TriEC", "speedup"],
    );
    for &chunk in &[4u32 << 10, 16 << 10, 64 << 10, 256 << 10] {
        let spin = ec_encode_latency_us(true, RsScheme::new(3, 2), chunk, &cost);
        let inec = ec_encode_latency_us(false, RsScheme::new(3, 2), chunk, &cost);
        t.row(vec![
            sz(chunk),
            f(spin),
            f(inec),
            format!("{:.2}x", inec / spin),
        ]);
    }
    t.note("paper: sPIN-TriEC up to 2x lower latency (per-packet streaming vs per-chunk store-and-forward)");
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new(
        "Fig 15 right — encoding throughput (Gbit/s), 100 Gbit/s",
        &[
            "chunk",
            "sPIN RS(3,2)",
            "sPIN RS(6,3)",
            "INEC RS(6,3)",
            "sPIN/INEC RS(6,3)",
        ],
    );
    for &chunk in &[1u32 << 10, 8 << 10, 64 << 10, 512 << 10] {
        let s32 = ec_encode_throughput_gbit(true, RsScheme::new(3, 2), chunk, &cost, 24, 8);
        let s63 = ec_encode_throughput_gbit(true, RsScheme::new(6, 3), chunk, &cost, 24, 8);
        let i63 = ec_encode_throughput_gbit(false, RsScheme::new(6, 3), chunk, &cost, 24, 8);
        t.row(vec![
            sz(chunk),
            f(s32),
            f(s63),
            f(i63),
            format!("{:.1}x", s63 / i63),
        ]);
    }
    t.note("paper: sPIN-TriEC 29x better at 1 KiB, 3.3x at 512 KiB (INEC fixed per-chunk overheads amortize)");
    out.push_str(&t.render());
    out
}

/// Fig 16 + Table II: EC handler runtimes and the HPU line-rate budget.
fn fig16_table2() -> String {
    let cost = CostModel::paper().with_network_gbit(100);
    let mut out = String::new();

    let mut t = Table::new(
        "Table II / Fig 16 left — EC handler statistics (64 KiB chunks)",
        &["scheme", "HH ns", "PH ns", "CH ns", "PH instrs", "PH IPC"],
    );
    let mut ph_durations = Vec::new();
    for (label, scheme) in [
        ("RS(3,2)", RsScheme::new(3, 2)),
        ("RS(6,3)", RsScheme::new(6, 3)),
    ] {
        let r = handler_report(
            WriteProtocol::SpinTriec { interleave: true },
            FilePolicy::ErasureCoded { scheme },
            64 << 10,
            &cost,
            6,
            2,
        );
        let (hd, ..) = r.hh.unwrap_or((f64::NAN, 0.0, 0.0));
        let (pd, pi, pipc) = r.ph.unwrap_or((f64::NAN, 0.0, 0.0));
        let (cd, ..) = r.ch.unwrap_or((f64::NAN, 0.0, 0.0));
        ph_durations.push((label, pd));
        t.row(vec![
            label.to_string(),
            f(hd),
            f(pd),
            f(cd),
            f(pi),
            format!("{pipc:.2}"),
        ]);
    }
    t.note("paper Table II (data-node encode PH on full packets): RS(3,2) 16681 ns / 11672 ins; RS(6,3) 23018 ns / 16028 ins @ IPC 0.7");
    t.note("our PH mean averages data-node encode and parity-node XOR handlers; the paper's value is the data-node encode handler alone");
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new(
        "Fig 16 right — HPUs needed to sustain line rate (2 KiB packets)",
        &[
            "handler duration (us)",
            "100 Gbit/s",
            "200 Gbit/s",
            "400 Gbit/s",
        ],
    );
    for d_us in [1.0f64, 5.0, 10.0, 16.7, 23.0, 25.0] {
        t.row(vec![
            format!("{d_us:.1}"),
            analysis::hpus_for_line_rate(d_us * 1e3, Bandwidth::from_gbit_per_sec(100), 2048)
                .to_string(),
            analysis::hpus_for_line_rate(d_us * 1e3, Bandwidth::from_gbit_per_sec(200), 2048)
                .to_string(),
            analysis::hpus_for_line_rate(d_us * 1e3, Bandwidth::from_gbit_per_sec(400), 2048)
                .to_string(),
        ]);
    }
    t.note("paper: ~512 HPUs sustain 400 Gbit/s for RS(6,3) handlers (~23 us)");
    out.push_str(&t.render());
    out
}

/// Table III: DFS characteristics survey (static catalogue).
fn table3() -> String {
    let mut t = Table::new(
        "Table III — DFS characteristics survey",
        &["DFS", "RDMA", "Auth", "Repl", "EC", "notes"],
    );
    for r in analysis::dfs_survey() {
        t.row(vec![
            r.name.to_string(),
            r.rdma.glyph().to_string(),
            r.auth.glyph().to_string(),
            r.replication.glyph().to_string(),
            r.erasure_coding.glyph().to_string(),
            r.notes.to_string(),
        ]);
    }
    t.render()
}

/// Ablation (§VI-B-1): interleaved vs sequential TriEC transmission.
fn ablation_interleave() -> String {
    let cost = CostModel::paper().with_network_gbit(100);
    let mut t = Table::new(
        "Ablation — client packet interleaving for sPIN-TriEC RS(3,2) (us)",
        &[
            "chunk",
            "interleaved",
            "sequential",
            "sequential/interleaved",
        ],
    );
    for &chunk in &[16u32 << 10, 64 << 10, 256 << 10] {
        let scheme = RsScheme::new(3, 2);
        let policy = FilePolicy::ErasureCoded { scheme };
        let il = write_latency_us(
            WriteProtocol::SpinTriec { interleave: true },
            policy.clone(),
            chunk * 3,
            &cost,
            3,
        );
        let seq = write_latency_us(
            WriteProtocol::SpinTriec { interleave: false },
            policy,
            chunk * 3,
            &cost,
            3,
        );
        t.row(vec![sz(chunk), f(il), f(seq), format!("{:.2}x", seq / il)]);
    }
    t.note("paper §VI-B-1: without interleaving, parity aggregation is delayed and accumulators stay allocated longer");
    t.render()
}

/// Ablation (§V-B): chunk-size sensitivity of the chunked protocols.
fn ablation_chunk_size() -> String {
    let cost = CostModel::paper();
    let size = 512u32 << 10;
    let mut t = Table::new(
        "Ablation — chunk size for CPU-Ring and HyperLoop, k=4, 512 KiB (us)",
        &["chunk", "CPU-Ring", "RDMA-HyperLoop"],
    );
    let policy = FilePolicy::Replicated {
        k: 4,
        strategy: BcastStrategy::Ring,
    };
    for &chunk in &[8u32 << 10, 32 << 10, 128 << 10, 512 << 10] {
        let cpu = write_latency_us(
            WriteProtocol::CpuBcast { chunk },
            policy.clone(),
            size,
            &cost,
            3,
        );
        let hl = write_latency_us(
            WriteProtocol::HyperLoop { chunk },
            policy.clone(),
            size,
            &cost,
            3,
        );
        t.row(vec![sz(chunk), f(cpu), f(hl)]);
    }
    t.note("small chunks pipeline better but pay per-chunk overheads; the figures use the per-point optimum");
    t.render()
}

/// Ablation: sensitivity to NIC egress-queue and packet-buffer depths —
/// the knobs behind the emergent PBT stalls and ingress backpressure.
fn ablation_queues() -> String {
    let mut t = Table::new(
        "Ablation — queue depths vs sPIN-PBT k=4 latency, 256 KiB (us)",
        &["egress slots", "pktbuf slots", "latency", "goodput Gbit/s"],
    );
    for (up, buf) in [(4usize, 16usize), (16, 64), (64, 256)] {
        let mut cost = CostModel::paper();
        cost.fabric.up_queue_cap = up;
        cost.pspin.pktbuf_slots = buf;
        let policy = FilePolicy::Replicated {
            k: 4,
            strategy: BcastStrategy::Pbt,
        };
        let lat = write_latency_us(
            WriteProtocol::SpinReplicated,
            policy.clone(),
            256 << 10,
            &cost,
            3,
        );
        let good = storage_goodput_gbit(
            WriteProtocol::SpinReplicated,
            policy,
            256 << 10,
            &cost,
            16,
            8,
        );
        t.row(vec![up.to_string(), buf.to_string(), f(lat), f(good)]);
    }
    t.note("deeper queues absorb the PBT egress doubling a little longer; goodput stays ~half of line rate regardless (the bottleneck is bandwidth, not buffering)");
    t.render()
}

// ---------------------------------------------------------------------
// Measurement procedures only the figures above use
// ---------------------------------------------------------------------

/// Mean handler statistics gathered from the primary storage node while
/// serving writes (Table I/II, Fig 11/16): (duration ns, instructions, IPC)
/// per handler kind.
struct HandlerReport {
    hh: Option<(f64, f64, f64)>,
    ph: Option<(f64, f64, f64)>,
    ch: Option<(f64, f64, f64)>,
}

fn handler_report(
    protocol: WriteProtocol,
    policy: FilePolicy,
    size: u32,
    cost: &CostModel,
    n_writes: usize,
    window: usize,
) -> HandlerReport {
    let spec = ClusterSpec::new(1, nodes_for(&policy), mode_for(protocol))
        .with_cost(cost.clone())
        .with_window(window);
    let mut c = SimCluster::build(spec);
    let file = c.control.borrow_mut().create_file(0, policy);
    for i in 0..n_writes {
        c.submit(
            0,
            Job::Write {
                file: file.id,
                size,
                protocol,
                seed: i as u64,
            },
        );
    }
    c.start();
    c.run_until_writes(n_writes, 60_000);
    let clock = cost.pspin.clock_ghz;
    // Primary storage node telemetry.
    let tel = c.pspin_telemetry[0]
        .as_ref()
        .expect("spin mode required for handler reports")
        .borrow();
    HandlerReport {
        hh: tel.summary(HandlerKind::Header, clock),
        ph: tel.summary(HandlerKind::Payload, clock),
        ch: tel.summary(HandlerKind::Completion, clock),
    }
}

/// Fig 7: per-stage pipeline latencies observed for one 2 KiB-packet write.
fn pipeline_breakdown_ns(cost: &CostModel) -> [(String, f64); 5] {
    let spec = ClusterSpec::new(1, 1, StorageMode::Spin).with_cost(cost.clone());
    let mut c = SimCluster::build(spec);
    let file = c.control.borrow_mut().create_file(0, FilePolicy::Plain);
    c.submit(
        0,
        Job::Write {
            file: file.id,
            // One full-MTU packet's worth of payload.
            size: nadfs_wire::sizes::MTU
                - nadfs_wire::sizes::RDMA_HEADER
                - nadfs_wire::sizes::DFS_HEADER
                - nadfs_wire::sizes::WRH_FIXED,
            protocol: WriteProtocol::Spin,
            seed: 0,
        },
    );
    c.start();
    c.run_until_writes(1, 1_000);
    let tel = c.pspin_telemetry[0].as_ref().expect("pspin").borrow();
    let p = &tel.pipeline;
    [
        ("copy to packet buffer".into(), p.pktbuf_copy_ns.mean()),
        ("inter-cluster scheduling".into(), p.inter_sched_ns.mean()),
        ("copy to fast memory (L1)".into(), p.l1_copy_ns.mean()),
        ("intra-cluster scheduling".into(), p.intra_sched_ns.mean()),
        (
            "handler execution (HH)".into(),
            tel.summary(HandlerKind::Header, cost.pspin.clock_ghz)
                .map(|(d, ..)| d)
                .unwrap_or(f64::NAN),
        ),
    ]
}

/// EC encoding latency (Fig 15 left): client write latency of one
/// erasure-coded block with chunk size `chunk` under RS(k, m).
fn ec_encode_latency_us(spin: bool, scheme: RsScheme, chunk: u32, cost: &CostModel) -> f64 {
    let policy = FilePolicy::ErasureCoded { scheme };
    let size = chunk * scheme.k as u32;
    write_latency_us(triec(spin), policy, size, cost, 3)
}

/// EC encoding throughput (Fig 15 right): window-based, INEC methodology —
/// bandwidth = generated data / elapsed time.
fn ec_encode_throughput_gbit(
    spin: bool,
    scheme: RsScheme,
    chunk: u32,
    cost: &CostModel,
    n_writes: usize,
    window: usize,
) -> f64 {
    let policy = FilePolicy::ErasureCoded { scheme };
    let size = chunk * scheme.k as u32;
    storage_goodput_gbit(triec(spin), policy, size, cost, n_writes, window)
}

/// The TriEC write protocol on a sPIN NIC or on the INEC firmware engine.
fn triec(spin: bool) -> WriteProtocol {
    if spin {
        WriteProtocol::SpinTriec { interleave: true }
    } else {
        WriteProtocol::InecTriec
    }
}
