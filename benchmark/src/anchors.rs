//! The paper's anchors: the unloaded points for which the paper prints a
//! number, each measured here through the same path as every workload (a
//! fresh cluster, jobs, [`workloads::measure`]) and tabulated as an
//! (ours, paper) pair. The paper's values are typed in below from the
//! paper's figures and tables, not scraped from `crates/bench`.
//!
//! Every run of every workload evaluates the sweep once, off the clock
//! ([`evaluate`]), because the driver wants every end-to-end metric from
//! every workload; it is deterministic and does not depend on the seed.
//!
//! The `paper_anchors` *workload* is the sweep's shape made into a
//! stream: a seeded **unloaded probe** — one client, one op in flight,
//! 4 KiB sPIN writes sized from the seed — the unloaded point the
//! paper's latency figures measure, beside the other six workloads'
//! loaded ones. It also prints the anchor table.

use std::collections::BTreeMap;

use nadfs_core::experiments::{mode_for, nodes_for, CHUNK_CANDIDATES};
use nadfs_core::{
    ClusterSpec, CostModel, FilePolicy, Job, ReplStrategy, StorageMode, Workload, WriteProtocol,
};
use nadfs_pspin::HandlerKind;
use nadfs_wire::{sizes, BcastStrategy, RsScheme};

use crate::cpu::CpuClock;
use crate::spans::Spans;
use crate::workloads::{self, ClusterWorkload, Mode, Prepared, Primary, Rep};

/// One point the paper prints, and what this repo's model gives there.
#[derive(Clone, Debug, PartialEq)]
pub struct Anchor {
    pub name: &'static str,
    pub ours: f64,
    pub paper: f64,
}

impl Anchor {
    /// `|ours/paper - 1|`.
    pub fn rel_err(&self) -> f64 {
        (self.ours / self.paper - 1.0).abs()
    }
}

const MIB: u32 = 1 << 20;
const KIB: u32 = 1 << 10;

/// One unloaded (or lightly windowed) run of same-sized writes from one
/// client, the paper's measurement shape.
struct Mini {
    protocol: WriteProtocol,
    policy: FilePolicy,
    size: u32,
    writes: usize,
    window: usize,
    /// Line rate; Fig 15 runs at 100 Gbit/s to compare with INEC.
    gbit: Option<u64>,
}

impl Mini {
    /// Median-of-three latency run, one op in flight (paper §IV).
    fn latency(protocol: WriteProtocol, policy: FilePolicy, size: u32) -> Mini {
        Mini {
            protocol,
            policy,
            size,
            writes: 3,
            window: 1,
            gbit: None,
        }
    }

    /// Windowed throughput / handler-statistics run.
    fn windowed(protocol: WriteProtocol, policy: FilePolicy, size: u32, writes: usize) -> Mini {
        Mini {
            protocol,
            policy,
            size,
            writes,
            window: 8,
            gbit: None,
        }
    }

    fn at_gbit(mut self, gbit: u64) -> Mini {
        self.gbit = Some(gbit);
        self
    }
}

/// What the anchors read off one finished mini-run.
struct MiniOut {
    /// Median write latency, us.
    median_us: f64,
    /// Payload over first-start..last-end, Gbit/s.
    goodput_gbit: f64,
    /// Mean handler ns on the primary storage node: header, payload,
    /// completion (NaN where the mode has no handlers).
    handler_ns: [f64; 3],
    /// Fig 7 stage means on the primary storage node, ns.
    pipeline_ns: [f64; 4],
}

struct Sweep<'a> {
    seed: u64,
    mode: Mode,
    clock: &'a CpuClock,
    sp: &'a mut Spans,
    total: Rep,
}

impl Sweep<'_> {
    fn run(&mut self, m: Mini) -> MiniOut {
        let t0 = self.clock.now_ns();
        let mut cost = CostModel::paper();
        if let Some(g) = m.gbit {
            cost = cost.with_network_gbit(g);
        }
        let clock_ghz = cost.pspin.clock_ghz;
        let spec = ClusterSpec::new(1, nodes_for(&m.policy), mode_for(m.protocol))
            .with_cost(cost)
            .with_window(m.window);
        let cl = workloads::build(spec, self.mode.traced, self.sp, |_| {});
        let file = cl.control.borrow_mut().create_file(0, m.policy).id;
        let jobs = (0..m.writes)
            .map(|i| Job::Write {
                file,
                size: m.size,
                protocol: m.protocol,
                seed: self.seed ^ i as u64,
            })
            .collect();
        let mut p = Prepared {
            cl,
            primary: Primary::Write,
            jobs: vec![jobs],
            images: BTreeMap::new(),
        };
        let rep = workloads::measure(&mut p, t0, self.mode, self.clock, self.sp);

        let mut us: Vec<f64> = rep.lat_ps.iter().map(|&ps| ps as f64 / 1e6).collect();
        crate::stats::sort(&mut us);
        let tel = p.cl.pspin_telemetry[0].as_ref().map(|t| t.borrow());
        let handler = |k| {
            tel.as_ref()
                .and_then(|t| t.summary(k, clock_ghz))
                .map_or(f64::NAN, |(ns, ..)| ns)
        };
        let pipe = tel.as_ref().map(|t| &t.pipeline);
        let out = MiniOut {
            median_us: us.get(us.len() / 2).copied().unwrap_or(f64::NAN),
            goodput_gbit: rep.bytes as f64 * 8.0 / (rep.span_ps as f64 / 1e12) / 1e9,
            handler_ns: [
                handler(HandlerKind::Header),
                handler(HandlerKind::Payload),
                handler(HandlerKind::Completion),
            ],
            pipeline_ns: pipe.map_or([f64::NAN; 4], |p| {
                [
                    p.pktbuf_copy_ns.mean(),
                    p.inter_sched_ns.mean(),
                    p.l1_copy_ns.mean(),
                    p.intra_sched_ns.mean(),
                ]
            }),
        };
        drop(tel);
        self.total.absorb(rep);
        out
    }

    /// Latency with the best chunk size for the chunked protocols (the
    /// paper's "optimal chunk size", §V-B).
    fn best_chunk_us(&mut self, s: ReplStrategy, k: u8, size: u32) -> f64 {
        let chunked: Vec<WriteProtocol> = match s.protocol() {
            WriteProtocol::HyperLoop { .. } => CHUNK_CANDIDATES
                .iter()
                .map(|&chunk| WriteProtocol::HyperLoop { chunk })
                .collect(),
            WriteProtocol::CpuBcast { .. } => CHUNK_CANDIDATES
                .iter()
                .map(|&chunk| WriteProtocol::CpuBcast { chunk })
                .collect(),
            p => vec![p],
        };
        chunked
            .into_iter()
            .map(|p| self.run(Mini::latency(p, s.policy(k), size)).median_us)
            .fold(f64::INFINITY, f64::min)
    }
}

/// GB/s a `size`-byte write at `us` microseconds amounts to.
fn gbyte_per_s(size: u32, us: f64) -> f64 {
    size as f64 / us / 1e3
}

fn sweep(s: &mut Sweep<'_>) -> Vec<Anchor> {
    let mut out = Vec::new();
    let mut push = |name, ours, paper| out.push(Anchor { name, ours, paper });
    let plain = FilePolicy::Plain;
    let ring4 = FilePolicy::Replicated {
        k: 4,
        strategy: BcastStrategy::Ring,
    };
    let pbt4 = FilePolicy::Replicated {
        k: 4,
        strategy: BcastStrategy::Pbt,
    };

    // Fig 6: asymptotic bandwidth labels at 1 MiB; sPIN's overhead over
    // raw RDMA at the small end ("up to 27%").
    for (name, protocol, paper) in [
        ("fig6.rpc_rdma.gbyte_s_1mib", WriteProtocol::RpcRdma, 26.0),
        ("fig6.rpc.gbyte_s_1mib", WriteProtocol::Rpc, 26.0),
        ("fig6.spin.gbyte_s_1mib", WriteProtocol::Spin, 40.0),
        ("fig6.raw.gbyte_s_1mib", WriteProtocol::Raw, 45.0),
    ] {
        let us = s.run(Mini::latency(protocol, plain.clone(), MIB)).median_us;
        push(name, gbyte_per_s(MIB, us), paper);
    }
    let spin = s.run(Mini::latency(WriteProtocol::Spin, plain.clone(), KIB));
    let raw = s.run(Mini::latency(WriteProtocol::Raw, plain.clone(), KIB));
    push(
        "fig6.spin_over_raw_1kib",
        spin.median_us / raw.median_us,
        1.27,
    );

    // Fig 7: the five stages of the per-packet pipeline, one full-MTU
    // packet's worth of payload.
    let one_pkt = sizes::MTU - sizes::RDMA_HEADER - sizes::DFS_HEADER - sizes::WRH_FIXED;
    let pkt = s.run(Mini {
        writes: 1,
        ..Mini::latency(WriteProtocol::Spin, plain.clone(), one_pkt)
    });
    for (name, ours, paper) in [
        ("fig7.pktbuf_copy_ns", pkt.pipeline_ns[0], 32.0),
        ("fig7.inter_sched_ns", pkt.pipeline_ns[1], 2.0),
        ("fig7.l1_copy_ns", pkt.pipeline_ns[2], 43.0),
        ("fig7.intra_sched_ns", pkt.pipeline_ns[3], 1.0),
        ("fig7.handler_ns", pkt.handler_ns[0], 200.0),
    ] {
        push(name, ours, paper);
    }

    // Fig 9 left/centre: replication asymptotes at 1 MiB, GB/s.
    for (name, strategy, k, paper) in [
        ("fig9.k2.spin_ring.gbyte_s", ReplStrategy::SpinRing, 2, 44.0),
        ("fig9.k2.rdma_flat.gbyte_s", ReplStrategy::RdmaFlat, 2, 22.0),
        ("fig9.k2.cpu_ring.gbyte_s", ReplStrategy::CpuRing, 2, 13.0),
        (
            "fig9.k2.hyperloop.gbyte_s",
            ReplStrategy::HyperLoop,
            2,
            12.0,
        ),
        ("fig9.k4.spin_ring.gbyte_s", ReplStrategy::SpinRing, 4, 39.0),
        ("fig9.k4.spin_pbt.gbyte_s", ReplStrategy::SpinPbt, 4, 19.0),
        (
            "fig9.k4.hyperloop.gbyte_s",
            ReplStrategy::HyperLoop,
            4,
            18.0,
        ),
        ("fig9.k4.rdma_flat.gbyte_s", ReplStrategy::RdmaFlat, 4, 11.0),
        ("fig9.k4.cpu_ring.gbyte_s", ReplStrategy::CpuRing, 4, 7.8),
        ("fig9.k4.cpu_pbt.gbyte_s", ReplStrategy::CpuPbt, 4, 6.6),
    ] {
        let us = s.best_chunk_us(strategy, k, MIB);
        push(name, gbyte_per_s(MIB, us), paper);
    }

    // Fig 9 right: goodput the primary storage node sustains, 64 KiB
    // writes, window 8. Line rate is 400 Gbit/s; PBT's egress doubles.
    for (name, protocol, policy, paper) in [
        (
            "fig9.goodput.k1.gbit_s",
            WriteProtocol::Spin,
            plain.clone(),
            400.0,
        ),
        (
            "fig9.goodput.k4_ring.gbit_s",
            WriteProtocol::SpinReplicated,
            ring4.clone(),
            400.0,
        ),
        (
            "fig9.goodput.k4_pbt.gbit_s",
            WriteProtocol::SpinReplicated,
            pbt4,
            200.0,
        ),
    ] {
        let run = s.run(Mini::windowed(protocol, policy, 64 * KIB, 48));
        push(name, run.goodput_gbit, paper);
    }

    // Table I: handler durations under 256 KiB writes.
    let k1 = s.run(Mini::windowed(WriteProtocol::Spin, plain, 256 * KIB, 24));
    push("table1.k1.hh_ns", k1.handler_ns[0], 211.0);
    push("table1.k1.ph_ns", k1.handler_ns[1], 92.0);
    push("table1.k1.ch_ns", k1.handler_ns[2], 107.0);
    let ring = s.run(Mini::windowed(
        WriteProtocol::SpinReplicated,
        ring4,
        256 * KIB,
        24,
    ));
    push("table1.ring.ph_ns", ring.handler_ns[1], 193.0);

    // Fig 15 at 100 Gbit/s: sPIN-TriEC against INEC-TriEC. Latency ratio
    // RS(3,2) at 256 KiB chunks ("up to 2x"); encode-throughput ratio
    // RS(6,3) at 1 KiB and 512 KiB chunks (29x, 3.3x).
    let triec = WriteProtocol::SpinTriec { interleave: true };
    let ec = |k, m| FilePolicy::ErasureCoded {
        scheme: RsScheme::new(k, m),
    };
    let spin = s.run(Mini::latency(triec, ec(3, 2), 3 * 256 * KIB).at_gbit(100));
    let inec = s.run(Mini::latency(WriteProtocol::InecTriec, ec(3, 2), 3 * 256 * KIB).at_gbit(100));
    push(
        "fig15.latency.inec_over_spin_256kib",
        inec.median_us / spin.median_us,
        2.0,
    );
    // The 512 KiB point moves 3 MiB per write; four of them keep the
    // sweep cheap enough to run inside every workload's process.
    for (name, chunk, writes, paper) in [
        ("fig15.tput.spin_over_inec_1kib", KIB, 24, 29.0),
        ("fig15.tput.spin_over_inec_512kib", 512 * KIB, 4, 3.3),
    ] {
        let spin = s.run(Mini::windowed(triec, ec(6, 3), 6 * chunk, writes).at_gbit(100));
        let inec = s.run(
            Mini::windowed(WriteProtocol::InecTriec, ec(6, 3), 6 * chunk, writes).at_gbit(100),
        );
        push(name, spin.goodput_gbit / inec.goodput_gbit, paper);
    }
    out
}

/// The `paper_anchors` workload's measured phase: the seeded unloaded
/// probe, one client, one op in flight.
pub struct Probe;

impl ClusterWorkload for Probe {
    fn prepare(seed: u64, traced: bool, sp: &mut Spans) -> Prepared {
        const WRITES: usize = 12_000;
        let spec = ClusterSpec::new(1, 1, StorageMode::Spin);
        let cl = workloads::build(spec, traced, sp, |_| {});
        let file = cl.control.borrow_mut().create_file(0, FilePolicy::Plain).id;
        let jobs = sp.scope("generate", |_| {
            Workload::new(file, WriteProtocol::Spin, workloads::jittered(4 * KIB))
                .with_writes(WRITES)
                .with_seed(seed)
                .jobs_for_client(0)
        });
        Prepared {
            cl,
            primary: Primary::Write,
            jobs: vec![jobs],
            images: BTreeMap::new(),
        }
    }

    fn claim(_: &Prepared) -> Result<(), String> {
        Ok(())
    }
}

/// The sweep: every anchor, plus the sweep's own op counts and failures.
pub fn evaluate(seed: u64, clock: &CpuClock, sp: &mut Spans) -> (Vec<Anchor>, Rep) {
    let mut s = Sweep {
        seed,
        mode: Mode {
            traced: false,
            full_check: true,
        },
        clock,
        sp,
        total: Rep::default(),
    };
    let anchors = sweep(&mut s);
    (anchors, s.total)
}

/// Median and maximum of the anchors' relative errors.
pub fn errors(anchors: &[Anchor]) -> (f64, f64) {
    let errs: Vec<f64> = anchors.iter().map(Anchor::rel_err).collect();
    let max = errs.iter().copied().fold(0.0, f64::max);
    (crate::stats::median(&errs), max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_is_symmetric_about_the_paper_value() {
        let a = |ours, paper| Anchor {
            name: "x",
            ours,
            paper,
        };
        assert!((a(44.0, 40.0).rel_err() - 0.1).abs() < 1e-12);
        assert!((a(36.0, 40.0).rel_err() - 0.1).abs() < 1e-12);
        let (med, max) = errors(&[a(44.0, 40.0), a(40.0, 40.0), a(20.0, 40.0)]);
        assert!((med - 0.1).abs() < 1e-12);
        assert!((max - 0.5).abs() < 1e-12);
    }
}
