//! `benchmark compare A.json B.json`: one row per (workload, end-to-end
//! metric) with both values, the ratio B/A, the bound, and a verdict.
//!
//! - `worse`: B is worse than A by more than the metric's bound.
//! - `unresolved`: the spread between either side's repetitions (IQR as
//!   a share of the median) is wider than the bound, so a difference of
//!   that size could not be seen; reported instead of `ok`.
//! - `ok`: neither.
//!
//! Simulated-clock and accuracy rows (`sim_*`, `paper_err_*`) are
//! deterministic for a given seed, so any non-identical value is flagged
//! `DIFFERS` as well: a simulator-only change must leave them identical.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::report::{Outcome, Value};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn spread(v: &Value) -> f64 {
    if v.value == 0.0 {
        0.0
    } else {
        (v.q3 - v.q1).abs() / v.value.abs()
    }
}

/// By how much (as a share of A) B is worse than A; negative = better.
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(m: &EndToEnd, a: &Value, b: &Value) -> Verdict {
    if worsening(m, a.value, b.value) > m.bound {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn deterministic(name: &str) -> bool {
    name.starts_with("sim_") || name.starts_with("paper_err_")
}

/// Print the table; returns true when no row is `worse`.
pub fn compare(a: &[Outcome], b: &[Outcome]) -> bool {
    println!(
        "{:18} {:20} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut all_ok = true;
    for oa in a.iter().filter(|o| !o.traced) {
        let Some(ob) = b.iter().find(|o| !o.traced && o.workload == oa.workload) else {
            println!("{:18} missing from B", oa.workload);
            all_ok = false;
            continue;
        };
        if oa.seed != ob.seed {
            println!(
                "{:18} seeds differ (A {}, B {}): simulated rows are not comparable",
                oa.workload, oa.seed, ob.seed
            );
        }
        for m in &END_TO_END {
            let find = |o: &Outcome| o.values.iter().find(|v| v.name == m.name).cloned();
            let (Some(va), Some(vb)) = (find(oa), find(ob)) else {
                println!("{:18} {:20} missing on one side", oa.workload, m.name);
                all_ok = false;
                continue;
            };
            let v = verdict(m, &va, &vb);
            all_ok &= v != Verdict::Worse;
            let flag = if deterministic(m.name) && va.value != vb.value {
                "  DIFFERS"
            } else {
                ""
            };
            println!(
                "{:18} {:20} {:>16.6} {:>16.6} {:>9.4} {:>6}  {}{flag}",
                oa.workload,
                m.name,
                va.value,
                vb.value,
                vb.value / va.value,
                m.bound,
                v.as_str()
            );
        }
        let fail = |o: &Outcome| o.failed as f64 / o.attempted.max(1) as f64;
        println!(
            "{:18} {:20} {:>16.6} {:>16.6} {:>9} {:>6}  {}",
            oa.workload,
            "op_fail_share",
            fail(oa),
            fail(ob),
            "-",
            0,
            if fail(ob) > fail(oa) { "worse" } else { "ok" }
        );
        all_ok &= fail(ob) <= fail(oa);
    }
    println!(
        "ratios are B over A (A is the base); {}",
        if all_ok {
            "no row is worse"
        } else {
            "at least one row is worse"
        }
    );
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).expect("metric")
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let host = m("host_us_per_op"); // lower is better
        let at = |v: f64| Value::exact("host_us_per_op", "us", v, 5);
        let edge = 100.0 * (1.0 + host.bound);
        assert_eq!(verdict(host, &at(100.0), &at(edge - 1.0)), Verdict::Ok);
        assert_eq!(verdict(host, &at(100.0), &at(edge + 1.0)), Verdict::Worse);
        assert_eq!(verdict(host, &at(100.0), &at(50.0)), Verdict::Ok);
        // A side whose repetitions spread wider than the bound cannot
        // resolve a difference of the bound's size.
        let noisy = Value {
            q1: 100.0 - 60.0 * host.bound,
            q3: 100.0 + 60.0 * host.bound,
            ..at(100.0)
        };
        assert_eq!(verdict(host, &noisy, &at(101.0)), Verdict::Unresolved);
        assert_eq!(verdict(host, &noisy, &at(edge + 1.0)), Verdict::Worse);

        let tput = m("sim_ops_per_s"); // higher is better
        let at = |v: f64| Value::exact("sim_ops_per_s", "1/sim_s", v, 5);
        let edge = 100.0 * (1.0 - tput.bound);
        assert_eq!(verdict(tput, &at(100.0), &at(edge - 1.0)), Verdict::Worse);
        assert_eq!(verdict(tput, &at(100.0), &at(edge + 1.0)), Verdict::Ok);
        assert_eq!(verdict(tput, &at(100.0), &at(120.0)), Verdict::Ok);
    }
}
