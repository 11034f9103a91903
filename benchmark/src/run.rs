//! One run of one workload (what the driver invokes, and what `run`
//! spawns one child process of per workload and mode), and `run` itself.
//!
//! Shape of an untraced run (`--trace 0`): calibrate, one warm-up
//! repetition with every checksum recomputed, then measured repetitions
//! of the same seeded simulation — fresh cluster each, observability off
//! — for `--seconds`, the calibration kernel between each; then the
//! anchor sweep once, off the clock. Host-clock timings report the steady
//! value over the repetitions (`stats::steady`). A traced run
//! (`--trace 1`): warm-up, two untraced repetitions, two with
//! observability and engine profiling on, then the layer kernels.

use std::path::PathBuf;
use std::time::Instant;

use nadfs_simnet::telemetry::chrome_trace_json;
use nadfs_simnet::telemetry::json::{self, Json};

use crate::anchors;
use crate::calib;
use crate::cpu::CpuClock;
use crate::kernels;
use crate::layers;
use crate::metrics::END_TO_END;
use crate::report::{Outcome, Value};
use crate::rss;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{self, Def, Mode, Rep};

pub struct Args {
    pub workload: &'static Def,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

const UNTRACED: Mode = Mode {
    traced: false,
    full_check: false,
};
const WARM_UP: Mode = Mode {
    traced: false,
    full_check: true,
};
const TRACED: Mode = Mode {
    traced: true,
    full_check: true,
};

/// The simulated-clock numbers of one repetition.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Sim {
    p50_us: f64,
    tail_us: f64,
    /// The percentile `tail_us` is: 0.99 unless the sample is too small.
    tail_q: f64,
    ops_per_s: f64,
    samples: u64,
    digest: u64,
}

fn sim_of(rep: &Rep) -> Sim {
    let mut lat = rep.lat_ps.clone();
    lat.sort_unstable();
    let (tail, tail_q) = stats::tail_percentile(&lat);
    let n = lat.len();
    let p50 = if n % 2 == 1 {
        lat[n / 2] as f64
    } else {
        (lat[n / 2 - 1] + lat[n / 2]) as f64 / 2.0
    };
    Sim {
        p50_us: p50 / 1e6,
        tail_us: tail as f64 / 1e6,
        tail_q,
        ops_per_s: n as f64 / (rep.span_ps as f64 / 1e12),
        samples: n as u64,
        digest: rep.digest,
    }
}

/// Running state of one child process.
struct Run<'a> {
    args: &'a Args,
    clock: CpuClock,
    sp: Spans,
    /// Calibration readings: one before the first repetition, one after
    /// each.
    ks: Vec<calib::Reading>,
    reps: Vec<Rep>,
    problems: Vec<String>,
}

impl Run<'_> {
    fn calibrate(&mut self) {
        let k = self.sp.scope("calibrate", |_| calib::measure(&self.clock));
        self.ks.push(k);
    }

    fn rep(&mut self, mode: Mode) {
        let name = if mode.traced { "rep.traced" } else { "rep" };
        let (def, seed) = (self.args.workload, self.args.seed);
        let clock = &self.clock;
        let rep = self.sp.scope(name, |sp| def.run_rep(seed, mode, clock, sp));
        self.reps.push(rep);
        self.calibrate();
    }

    /// The calibration kernel's cost on this box during this run (see
    /// calib.rs for why not the mean).
    fn k(&self) -> f64 {
        calib::steady_s(&self.ks)
    }

    /// Reference seconds for `cpu_ns` of raw CPU time.
    fn ref_s(&self, cpu_ns: u64) -> f64 {
        calib::to_ref_s(cpu_ns as f64, self.k())
    }

    /// Reference us of host CPU per op, given the measured phase's raw
    /// CPU ns in a repetition shaped like `reps[i]`.
    fn us_per_op(&self, i: usize, run_cpu_ns: u64) -> f64 {
        let r = &self.reps[i];
        self.ref_s(run_cpu_ns) * 1e6 / (r.attempted - r.failed).max(1) as f64
    }

    /// Raw CPU ns of the measured phase with interference filtered out:
    /// each segment's steady value over repetitions `range`, summed. The
    /// simulation is deterministic, so segment `j` is the same work in
    /// every repetition.
    fn steady_run_ns(&self, range: std::ops::Range<usize>) -> u64 {
        let reps = &self.reps[range];
        let segments = reps[0].seg_cpu_ns.len();
        if reps.iter().any(|r| r.seg_cpu_ns.len() != segments) {
            // Only a repetition that failed to repeat (reported by
            // check_reps) can be cut differently; fall back to whole runs.
            return reps.iter().map(Rep::run_cpu_ns).min().expect("non-empty");
        }
        (0..segments)
            .map(|j| stats::steady(reps.iter().map(|r| r.seg_cpu_ns[j])))
            .sum()
    }

    /// `host_us_per_op` over repetitions `range`: steady by segment, with
    /// the quartiles of the whole repetitions for the spread.
    fn host_us_per_op(&self, name: &str, unit: &str, range: std::ops::Range<usize>) -> Value {
        let whole: Vec<f64> = range
            .clone()
            .map(|i| self.us_per_op(i, self.reps[i].run_cpu_ns()))
            .collect();
        let steady = self.us_per_op(range.start, self.steady_run_ns(range));
        Value::with_spread(name, unit, steady, &whole)
    }

    /// Every repetition must agree exactly on the simulated clock, and
    /// exercise what its row claims.
    fn check_reps(&mut self) -> Sim {
        let first = sim_of(&self.reps[0]);
        for (i, r) in self.reps.iter().enumerate() {
            let s = sim_of(r);
            if s != first {
                self.problems.push(format!(
                    "repetition {i} differs on the simulated clock: {s:?} vs {first:?}"
                ));
            }
            if let Some(e) = &r.claim_error {
                self.problems.push(format!("repetition {i}: {e}"));
            }
            if r.failed > 0 {
                self.problems.push(format!(
                    "repetition {i}: {} of {} ops failed",
                    r.failed, r.attempted
                ));
            }
        }
        first
    }
}

pub fn execute(args: &Args) -> Outcome {
    let mut run = Run {
        args,
        clock: CpuClock::new(),
        sp: Spans::new(args.workload.name),
        ks: Vec::new(),
        reps: Vec::new(),
        problems: Vec::new(),
    };
    println!(
        "{}: closed loop, {} clients x window {}, seed {}",
        args.workload.name, args.workload.clients, args.workload.window, args.seed
    );
    if run.clock.is_wall() {
        println!("note: /proc/thread-self/schedstat is absent; host_* metrics are wall-clock");
    }
    run.calibrate();
    run.rep(WARM_UP);
    let values = if args.traced {
        traced_run(&mut run)
    } else {
        untraced_run(&mut run)
    };
    let spans: Vec<String> = run
        .sp
        .totals()
        .iter()
        .map(|(name, s, n)| format!("{name} {s:.3}s/{n}"))
        .collect();
    println!("  harness spans (wall, nested): {}", spans.join(", "));
    Outcome {
        workload: args.workload.name.to_owned(),
        seed: args.seed,
        traced: args.traced,
        correct: run.problems.is_empty(),
        // Every repetition is a real execution of the workload.
        attempted: run.reps.iter().map(|r| r.attempted).sum(),
        failed: run.reps.iter().map(|r| r.failed).sum(),
        problems: run.problems,
        values,
    }
}

fn untraced_run(run: &mut Run<'_>) -> Vec<Value> {
    let window = Instant::now();
    let budget = run.args.seconds as f64;
    let mut rss = None;
    loop {
        let t = Instant::now();
        run.rep(UNTRACED);
        // After the first measured repetition: the same work in every
        // run, however many repetitions the box then fits into the window.
        rss = rss.or_else(rss::peak_rss_mib);
        // Stop when another repetition like this one would overrun.
        if window.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > budget {
            break;
        }
    }
    let sim = run.check_reps();
    let measured = 1..run.reps.len();
    let round = |s: f64| (s * 1e4).round() / 1e4;
    println!(
        "  raw cpu s: K {:?} steady {}; measured phase {:?} steady {}",
        run.ks
            .iter()
            .map(|k| round(calib::total_s(k)))
            .collect::<Vec<_>>(),
        round(run.k()),
        run.reps
            .iter()
            .map(|r| round(r.run_cpu_ns() as f64 / 1e9))
            .collect::<Vec<_>>(),
        round(run.steady_run_ns(measured.clone()) as f64 / 1e9)
    );
    let rss = rss.unwrap_or_else(|| {
        run.problems.push("no VmHWM in /proc/self/status".into());
        0.0
    });

    let (anchors, sweep) = {
        let (clock, seed) = (&run.clock, run.args.seed);
        run.sp
            .scope("anchors", |sp| anchors::evaluate(seed, clock, sp))
    };
    if sweep.failed > 0 {
        run.problems.push(format!(
            "{} of {} ops of the anchor sweep failed",
            sweep.failed, sweep.attempted
        ));
    }
    if anchors.iter().any(|a| !a.ours.is_finite()) {
        run.problems.push("an anchor has no measurement".into());
    }
    let (err_median, err_max) = anchors::errors(&anchors);
    if run.args.workload.name == "paper_anchors" {
        println!(
            "  anchor                                         ours      paper    |ours/paper-1|"
        );
        for a in &anchors {
            println!(
                "  {:40} {:10.4} {:10.4} {:10.4}",
                a.name,
                a.ours,
                a.paper,
                a.rel_err()
            );
        }
    }

    let allocs: Vec<f64> = measured
        .clone()
        .map(|i| {
            run.reps[i].run_allocs as f64
                / (run.reps[i].attempted - run.reps[i].failed).max(1) as f64
        })
        .collect();
    // Set-up happens afresh in every repetition, the warm-up included.
    let setup: Vec<f64> = run.reps.iter().map(|r| run.ref_s(r.setup_cpu_ns)).collect();
    let setup_steady = run.ref_s(stats::steady(run.reps.iter().map(|r| r.setup_cpu_ns)));
    println!(
        "  sim_op_p99_us is p{:.2} of {} samples",
        sim.tail_q * 100.0,
        sim.samples
    );

    let mut out = Vec::new();
    for m in &END_TO_END {
        out.push(match m.name {
            "sim_op_p50_us" => Value::exact(m.name, m.unit, sim.p50_us, sim.samples),
            "sim_op_p99_us" => Value::exact(m.name, m.unit, sim.tail_us, sim.samples),
            "sim_ops_per_s" => Value::exact(m.name, m.unit, sim.ops_per_s, sim.samples),
            "host_us_per_op" => run.host_us_per_op(m.name, m.unit, measured.clone()),
            "host_allocs_per_op" => Value::median_of(m.name, m.unit, &allocs),
            "host_peak_rss_mb" => Value::exact(m.name, m.unit, rss, 1),
            "setup_s" => Value::with_spread(m.name, m.unit, setup_steady, &setup),
            "paper_err_median" => Value::exact(m.name, m.unit, err_median, anchors.len() as u64),
            "paper_err_max" => Value::exact(m.name, m.unit, err_max, anchors.len() as u64),
            other => unreachable!("end-to-end metric {other} has no source"),
        });
    }
    out
}

fn traced_run(run: &mut Run<'_>) -> Vec<Value> {
    run.rep(UNTRACED);
    run.rep(UNTRACED);
    run.rep(TRACED);
    run.rep(TRACED);
    // Telemetry must not perturb simulated time: the traced repetitions
    // are held to the same exact agreement as the others.
    run.check_reps();

    let (kernels, decode_hit_rate) = {
        let clock = &run.clock;
        run.sp.scope("kernels", |sp| kernels::run_all(clock, sp))
    };
    run.calibrate();

    // Repetitions: 0 warm-up, 1..3 untraced, 3..5 traced.
    let untraced = run.host_us_per_op("untraced", "us", 1..3);
    let traced = run.host_us_per_op("traced", "us", 3..5);
    let ns_per_event = run.ref_s(run.steady_run_ns(1..3)) * 1e9 / run.reps[1].events.max(1) as f64;
    let values = layers::values(&layers::Inputs {
        traced: &run.reps[4],
        untraced_us_per_op: &untraced,
        traced_us_per_op: traced.value,
        ns_per_event,
        kernels: &kernels,
        decode_cache_hit_rate: decode_hit_rate,
        k: run.k(),
        ks: &run.ks.iter().map(calib::total_s).collect::<Vec<_>>(),
        gen_s: run.sp.total_s("generate") / run.reps.len() as f64,
    });
    let sum_over_e2e = values
        .iter()
        .find(|v| v.name == "core.client.phase.sum_over_e2e")
        .map_or(0.0, |v| v.value);
    if sum_over_e2e != 1.0 {
        run.problems.push(format!(
            "span phases sum to {sum_over_e2e} of end-to-end latency"
        ));
    }
    if let Err(e) = write_trace(run) {
        run.problems.push(format!("trace not written: {e}"));
    }
    values
}

/// `benchmark/out/`, beside the package's manifest.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_owned());
    PathBuf::from(manifest_dir).join("out")
}

/// The harness's spans (host clock, `harness` track) beside the traced
/// repetition's last op spans and trace ring (simulated clock), through
/// the repo's Chrome exporter.
fn write_trace(run: &Run<'_>) -> std::io::Result<()> {
    let rep = run.reps.last().expect("traced repetition");
    let tr = rep.traced.as_ref().expect("traced repetition");
    let harness = run.sp.to_op_spans(nadfs_simnet::telemetry::OpKind::Meta);
    let doc = chrome_trace_json(
        harness.iter().chain(tr.tail_spans.iter()),
        &tr.trace_ring.borrow(),
    );
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{}.trace.json", run.args.workload.name)),
        doc,
    )
}

// ---------------------------------------------------------------------
// `run`: every workload, one child process per workload and mode.

fn spawn(def: &Def, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", def.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Pass the child's table through; keep its machine-readable lines.
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(d) => detail = Some(d.to_owned()),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let detail = detail.ok_or(format!(
        "{}: child printed no detail line ({})",
        def.name, out.status
    ))?;
    let outcome = Outcome::from_detail(&json::parse(&detail)?)?;
    if !out.status.success() {
        return Err(format!("{}: child exited with {}", def.name, out.status));
    }
    Ok(outcome)
}

pub const DETAIL_PREFIX: &str = "detail: ";

/// Run the workloads one after another, print every metric, write
/// `out/results.json`. `only` = `None` runs all seven. Returns false if
/// any check failed.
pub fn run_all(seed: u64, seconds: u64, only: Option<&'static Def>) -> bool {
    let defs: Vec<&Def> = match only {
        Some(d) => vec![d],
        None => workloads::ALL.iter().collect(),
    };
    let mut ok = true;
    let mut outcomes = Vec::new();
    for def in defs {
        for traced in [false, true] {
            match spawn(def, seed, seconds, traced) {
                Ok(o) => {
                    ok &= o.correct;
                    outcomes.push(o);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
    }
    let doc = results_json(seed, seconds, &outcomes);
    let path = out_dir().join("results.json");
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

/// `results.json`: one object per workload with its end-to-end and
/// per-layer metrics (value, unit, quartiles, sample count).
pub fn results_json(seed: u64, seconds: u64, outcomes: &[Outcome]) -> String {
    let mut s = format!(
        "{{\n  \"schema\": \"nadfs-benchmark-v1\",\n  \"seed\": {seed},\n  \"run_seconds\": {seconds},\n  \"k_ref_s\": {},\n  \"runs\": [\n",
        json::fmt_f64(calib::K_REF_S)
    );
    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| format!("    {}", o.detail_json()))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Parse a `results.json` back into its runs.
pub fn parse_results(src: &str) -> Result<Vec<Outcome>, String> {
    let doc = json::parse(src)?;
    if doc.get("schema").and_then(Json::as_str) != Some("nadfs-benchmark-v1") {
        return Err("not a nadfs-benchmark-v1 results file".into());
    }
    doc.get("runs")
        .and_then(Json::as_array)
        .ok_or("results: missing runs")?
        .iter()
        .map(Outcome::from_detail)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_json_round_trips_through_the_repo_json_parser() {
        let o = Outcome {
            workload: "meta_storm".into(),
            seed: 2,
            traced: true,
            correct: true,
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            values: vec![
                Value::exact("meta.shard.balance", "ratio", 0.9731, 10),
                Value::median_of("host_us_per_op", "us", &[1.0, 2.0, 4.0]),
            ],
        };
        let doc = results_json(2, 6, &[o.clone(), o.clone()]);
        assert_eq!(parse_results(&doc).expect("round trip"), vec![o.clone(), o]);
        assert!(parse_results("{\"schema\": \"other\"}").is_err());
    }

    #[test]
    fn median_latency_of_an_even_sample_is_the_midpoint() {
        let rep = Rep {
            lat_ps: vec![4_000_000, 1_000_000, 3_000_000, 2_000_000],
            span_ps: 2_000_000,
            ..Rep::default()
        };
        let s = sim_of(&rep);
        assert_eq!(s.p50_us, 2.5);
        assert_eq!(s.samples, 4);
        assert_eq!(s.ops_per_s, 2e6);
    }
}
