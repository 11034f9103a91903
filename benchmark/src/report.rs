//! What a run reports, and the two forms it is written in: the one-line
//! result the driver reads (last line of stdout), and the detail object
//! `run` collects into `results.json` (value, quartiles over the
//! repetitions, sample count).

use nadfs_simnet::telemetry::json::{self, Json};

/// One metric's value in one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub name: String,
    pub unit: String,
    /// The reported value: the steady value (`stats::steady`) over the
    /// repetitions for host-clock timings, the median for host counts, the
    /// (identical) per-repetition value for simulated ones.
    pub value: f64,
    /// Quartiles over the repetitions behind `value` (equal to it where
    /// there is one sample or the metric is deterministic).
    pub q1: f64,
    pub q3: f64,
    /// Samples behind the value: repetitions for host metrics, ops for
    /// latency percentiles.
    pub n: u64,
}

impl Value {
    /// A metric with no spread of its own.
    pub fn exact(name: impl Into<String>, unit: &str, value: f64, n: u64) -> Value {
        Value {
            name: name.into(),
            unit: unit.to_owned(),
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// `value`, with the quartiles of the per-repetition `samples` it was
    /// taken from.
    pub fn with_spread(name: impl Into<String>, unit: &str, value: f64, samples: &[f64]) -> Value {
        let (q1, _, q3) = crate::stats::quartiles(samples);
        Value {
            name: name.into(),
            unit: unit.to_owned(),
            value,
            q1,
            q3,
            n: samples.len() as u64,
        }
    }

    /// The median of `samples`, with their quartiles.
    pub fn median_of(name: impl Into<String>, unit: &str, samples: &[f64]) -> Value {
        Value::with_spread(name, unit, crate::stats::median(samples), samples)
    }
}

/// One child process's outcome: one workload, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why `correct` is false, one entry per failed check.
    pub problems: Vec<String>,
    pub values: Vec<Value>,
}

impl Outcome {
    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::str_lit(&v.name),
                    json::fmt_f64(v.value),
                    json::str_lit(&v.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Everything, as one JSON object on one line.
    pub fn detail_json(&self) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    json::str_lit(&v.name),
                    json::fmt_f64(v.value),
                    json::str_lit(&v.unit),
                    json::fmt_f64(v.q1),
                    json::fmt_f64(v.q3),
                    v.n
                )
            })
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json::str_lit(p)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {{{}}}}}",
            json::str_lit(&self.workload),
            self.seed,
            self.traced,
            self.correct,
            self.attempted,
            self.failed,
            problems.join(", "),
            values.join(", ")
        )
    }

    /// Parse [`Outcome::detail_json`] back.
    pub fn from_detail(doc: &Json) -> Result<Outcome, String> {
        let str_of = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("detail: missing string {k}"))
        };
        let num_of = |d: &Json, k: &str| {
            d.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("detail: missing number {k}"))
        };
        let bool_of = |k: &str| match doc.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("detail: missing bool {k}")),
        };
        let mut values = Vec::new();
        for (name, m) in doc
            .get("metrics")
            .and_then(Json::members)
            .ok_or("detail: missing metrics")?
        {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or("detail: metric without unit")?;
            values.push(Value {
                name: name.clone(),
                unit: unit.to_owned(),
                value: num_of(m, "value")?,
                q1: num_of(m, "q1")?,
                q3: num_of(m, "q3")?,
                n: num_of(m, "n")? as u64,
            });
        }
        let problems = doc
            .get("problems")
            .and_then(Json::as_array)
            .ok_or("detail: missing problems")?
            .iter()
            .filter_map(|p| p.as_str().map(str::to_owned))
            .collect();
        Ok(Outcome {
            workload: str_of("workload")?,
            seed: num_of(doc, "seed")? as u64,
            traced: bool_of("traced")?,
            correct: bool_of("correct")?,
            attempted: num_of(doc, "attempted")? as u64,
            failed: num_of(doc, "failed")? as u64,
            problems,
            values,
        })
    }

    /// The human-readable table: every metric by name, with its unit.
    pub fn print(&self) {
        let kind = if self.traced {
            "per-layer (traced)"
        } else {
            "end-to-end"
        };
        println!("== {} seed {} — {kind} ==", self.workload, self.seed);
        for v in &self.values {
            let spread = if v.q1 != v.q3 {
                format!("  [q1 {} q3 {}]", json::fmt_f64(v.q1), json::fmt_f64(v.q3))
            } else {
                String::new()
            };
            println!(
                "  {:48} {:>18} {:7} n={}{spread}",
                v.name,
                json::fmt_f64(v.value),
                v.unit,
                v.n
            );
        }
        println!(
            "  ops_attempted {} failed {} op_fail_share {}",
            self.attempted,
            self.failed,
            json::fmt_f64(self.failed as f64 / self.attempted.max(1) as f64)
        );
        for p in &self.problems {
            println!("  CHECK FAILED: {p}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            workload: "small_write_storm".into(),
            seed: 7,
            traced: false,
            correct: true,
            attempted: 32_000,
            failed: 0,
            problems: vec!["a \"quoted\" problem".into()],
            values: vec![
                Value::exact("sim_op_p50_us", "us", 3.398_812_345_678, 32_000),
                Value::median_of("host_us_per_op", "us", &[33.1, 34.9, 33.6, 35.2, 33.0]),
            ],
        }
    }

    #[test]
    fn result_line_has_exactly_the_drivers_keys() {
        let doc = json::parse(&sample().result_line()).expect("parses");
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("sim_op_p50_us").unwrap();
        // All digits survive.
        assert_eq!(
            m.get("value").and_then(Json::as_f64),
            Some(3.398_812_345_678)
        );
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("us"));
        let keys: Vec<&str> = m
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
    }

    #[test]
    fn detail_round_trips_through_the_repo_json_parser() {
        let o = sample();
        let doc = json::parse(&o.detail_json()).expect("parses");
        assert_eq!(Outcome::from_detail(&doc).expect("round trip"), o);
    }
}
