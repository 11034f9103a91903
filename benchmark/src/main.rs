//! The repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! benchmark run [--seed N] [--seconds S] [--workload W]      all seven, one child each, results.json
//! benchmark compare A.json B.json                            row per (metric, workload)
//! benchmark selfcheck                                        is this box quiet enough to measure on?
//! benchmark manifest                                         print BENCHMARK.json
//! ```

mod alloc;
mod anchors;
mod calib;
mod compare;
mod cpu;
mod kernels;
mod layers;
mod metrics;
mod report;
mod rss;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1
  benchmark run [--seed N] [--seconds S] [--workload W]
  benchmark compare A.json B.json
  benchmark selfcheck
  benchmark manifest";

/// `--name value` options of one invocation, each at most once.
struct Options {
    workload: Option<&'static workloads::Def>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: None,
        seconds: None,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                o.workload = Some(workloads::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => o.seed = Some(num()?),
            "--seconds" => match num()? {
                s @ 1..=60 => o.seconds = Some(s),
                _ => return Err("--seconds must be 1 to 60".into()),
            },
            "--trace" => match value.as_str() {
                "0" => o.trace = Some(false),
                "1" => o.trace = Some(true),
                _ => return Err("--trace must be 0 or 1".into()),
            },
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

/// Run the calibration kernel 20 times; a box whose own quartile spread
/// exceeds 5% is too noisy to measure on, and should say so.
fn selfcheck() -> bool {
    let clock = cpu::CpuClock::new();
    let readings: Vec<calib::Reading> = (0..20).map(|_| calib::measure(&clock)).collect();
    let ks: Vec<f64> = readings.iter().map(calib::total_s).collect();
    let (q1, q2, q3) = stats::quartiles(&ks);
    let spread = stats::iqr_frac(&ks);
    let k = calib::steady_s(&readings);
    println!(
        "calibration kernel x20: median {q2:.4} s (q1 {q1:.4}, q3 {q3:.4}), spread {:.2}%, \
         steady by slice {k:.4} s; K_REF_S {} s; this box runs at {:.2}x reference speed{}",
        spread * 100.0,
        calib::K_REF_S,
        calib::K_REF_S / k,
        if clock.is_wall() {
            " (wall-clock: no schedstat)"
        } else {
            ""
        }
    );
    if spread > 0.05 {
        println!("FAIL: spread above 5% — too noisy to measure on");
        return false;
    }
    println!("ok");
    true
}

fn load(path: &str) -> Result<Vec<report::Outcome>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    run::parse_results(&src).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let o = parse_options(&args[1..])?;
            if o.trace.is_some() {
                return Err("run does both traced and untraced; drop --trace".into());
            }
            Ok(run::run_all(
                o.seed.unwrap_or(1),
                o.seconds.unwrap_or(metrics::RUN_SECONDS),
                o.workload,
            ))
        }
        Some("compare") => match &args[1..] {
            [a, b] => Ok(compare::compare(&load(a)?, &load(b)?)),
            _ => Err("compare takes two results files".into()),
        },
        Some("selfcheck") if args.len() == 1 => Ok(selfcheck()),
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => {
            let o = parse_options(args)?;
            let outcome = run::execute(&run::Args {
                workload: o.workload.ok_or("--workload is required")?,
                seed: o.seed.ok_or("--seed is required")?,
                seconds: o.seconds.ok_or("--seconds is required")?,
                traced: o.trace.ok_or("--trace is required")?,
            });
            outcome.print();
            println!("{}{}", run::DETAIL_PREFIX, outcome.detail_json());
            // The driver reads the last line of stdout; a failed check is
            // reported there (`correct: false`), not by the exit code.
            println!("{}", outcome.result_line());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
