//! Engine events per sPIN packet on the write paths, held to a budget:
//! the twin of `alloc_budget.rs`, on the same two clusters.
//!
//! Host time is not events times the cost of one: events differ in
//! cost. When the PsPIN device stopped spending a wake on each of its
//! first three pipeline stages, events per op fell 27 % on both
//! benchmark write workloads, but `host_us_per_op` fell only 10 % on
//! `repl_write_ring` and 5 % on `ec_write_stream` (seed 1, medians of
//! ten alternating 12 s pairs on a 2-core Xeon VM). The events that went
//! were cheap ones: the handlers' work (GF coding, payload copies) stays
//! with the events left, and the benchmark's traced
//! `simnet.engine.ns_per_event` rose 16 to 23 % on both workloads.
//!
//! The test counts every event the engine dispatches while the measured
//! writes run and divides by the packets the storage NICs' handlers
//! processed (`pkts_processed`). Its failure message, and `--nocapture`,
//! print the breakdown: boxed events against wakes
//! (`Engine::wakes_dispatched`), and dispatches per component kind
//! (`Engine::profiles_by_kind`).

use nadfs_core::{
    ClusterSpec, FilePolicy, SimCluster, SizeDist, StorageMode, Workload, WriteProtocol,
};
use nadfs_wire::{BcastStrategy, RsScheme, Status};

const SEED: u64 = 0xA110C;

/// Events per packet allowed: the rates measured once the PsPIN device
/// computed its first three pipeline stages at arrival (8.065 and
/// 7.998), rounded up to a tenth.
const BUDGET_TRIEC: f64 = 8.1;
const BUDGET_RING: f64 = 8.0;

/// What the engine dispatched and the handlers processed so far.
#[derive(Clone, Default)]
struct Tally {
    events: u64,
    wakes: u64,
    /// Dispatches per component kind, sorted by kind.
    by_kind: Vec<(String, u64)>,
    pkts: u64,
}

impl Tally {
    fn of(cl: &SimCluster) -> Tally {
        let e = &cl.engine;
        let nics = cl.pspin_telemetry.iter().flatten();
        Tally {
            events: e.events_dispatched(),
            wakes: e.wakes_dispatched(),
            by_kind: (e.profiles_by_kind().into_iter())
                .map(|p| (p.name, p.dispatches))
                .collect(),
            pkts: nics.map(|t| t.borrow().pkts_processed).sum(),
        }
    }

    /// Per packet between `before` and `self`: the total, then a
    /// printable breakdown.
    fn per_pkt_since(&self, before: &Tally) -> (f64, String) {
        let pkts = (self.pkts - before.pkts) as f64;
        let rate = |n: u64| n as f64 / pkts;
        let events = self.events - before.events;
        let wakes = self.wakes - before.wakes;
        let mut out = format!(
            "{:.3} events per packet over {pkts} packets: {:.3} boxed, {:.3} wakes;",
            rate(events),
            rate(events - wakes),
            rate(wakes)
        );
        for (kind, n) in &self.by_kind {
            let was = before.by_kind.iter().find(|(k, _)| k == kind);
            let n = n - was.map_or(0, |(_, n)| *n);
            out += &format!(" {kind} {:.3}", rate(n));
        }
        (rate(events), out)
    }
}

/// Run `n` writes of about `size` bytes per client, each client to its
/// own file, and check every one succeeded.
fn run_writes(cl: &mut SimCluster, files: &[u64], protocol: WriteProtocol, size: u32, n: usize) {
    for (c, &file) in files.iter().enumerate() {
        let sizes = SizeDist::Uniform {
            min: size - size / 32,
            max: size + size / 32,
        };
        for job in Workload::new(file, protocol, sizes)
            .with_writes(n)
            .with_seed(SEED)
            .jobs_for_client(c)
        {
            cl.submit(c, job);
        }
    }
    cl.start();
    let total = n * files.len();
    assert_eq!(
        cl.run_until_writes(total, 1_000),
        total,
        "writes incomplete"
    );
    let writes = std::mem::take(&mut cl.results.borrow_mut().writes);
    assert!(writes.iter().all(|w| w.status == Status::Ok));
}

/// After one warm-up write per client, `writes` more per client of about
/// `size` bytes: the events per packet the storage NICs' handlers
/// processed, and the breakdown.
fn events_per_pkt(
    spec: ClusterSpec,
    policy: FilePolicy,
    protocol: WriteProtocol,
    size: u32,
    writes: usize,
) -> (f64, String) {
    let clients = spec.n_clients;
    let mut cl = SimCluster::build(spec.with_engine_profiling());
    let files: Vec<u64> = (0..clients)
        .map(|_| cl.control.borrow_mut().create_file(0, policy.clone()).id)
        .collect();
    run_writes(&mut cl, &files, protocol, size, 1);
    let before = Tally::of(&cl);
    run_writes(&mut cl, &files, protocol, size, writes);
    let after = Tally::of(&cl);
    assert!(
        after.pkts > before.pkts,
        "the writes must run through the sPIN handlers"
    );
    after.per_pkt_since(&before)
}

#[test]
fn spin_triec_rs63_writes_stay_under_their_event_budget() {
    let (rate, breakdown) = events_per_pkt(
        ClusterSpec::new(4, 9, StorageMode::Spin)
            .with_window(2)
            .with_observability(false),
        FilePolicy::ErasureCoded {
            scheme: RsScheme::new(6, 3),
        },
        WriteProtocol::SpinTriec { interleave: true },
        6 * (64 << 10),
        3,
    );
    println!("sPIN-TriEC RS(6,3): {breakdown}");
    assert!(
        rate <= BUDGET_TRIEC,
        "sPIN-TriEC RS(6,3): {breakdown} (budget {BUDGET_TRIEC})"
    );
}

#[test]
fn spin_ring_k4_writes_stay_under_their_event_budget() {
    let (rate, breakdown) = events_per_pkt(
        ClusterSpec::new(4, 4, StorageMode::Spin)
            .with_window(4)
            .with_observability(false),
        FilePolicy::Replicated {
            k: 4,
            strategy: BcastStrategy::Ring,
        },
        WriteProtocol::SpinReplicated,
        64 << 10,
        8,
    );
    println!("sPIN-Ring k=4: {breakdown}");
    assert!(
        rate <= BUDGET_RING,
        "sPIN-Ring k=4: {breakdown} (budget {BUDGET_RING})"
    );
}
