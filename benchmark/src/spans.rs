//! The harness's own spans: one per call into a layer boundary (`build`,
//! `preload`, `generate`, `submit`, `run_until_*`, `snapshot`, each
//! kernel), kept in memory and written out once when the run ends.
//! Tracing inside the crates is a later issue; these are recorded from
//! the benchmark's side of the public API only.

use std::time::Instant;

use nadfs_simnet::telemetry::{OpKind, OpSpan};
use nadfs_simnet::Time;

/// One recorded call. Times are host wall-clock nanoseconds since the
/// recorder was created.
#[derive(Clone, Debug)]
pub struct HSpan {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    workload: &'static str,
    open: Vec<usize>,
    spans: Vec<HSpan>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Spans {
        Spans {
            origin: Instant::now(),
            workload,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, child of whichever span is
    /// open now.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(HSpan {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn all(&self) -> &[HSpan] {
        &self.spans
    }

    /// Seconds spent in spans called `name`, nested occurrences included
    /// once each.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Wall seconds per span name, in first-seen order: where the run's
    /// time went, at the harness's layer boundaries.
    pub fn totals(&self) -> Vec<(String, f64, usize)> {
        let mut out: Vec<(String, f64, usize)> = Vec::new();
        for s in &self.spans {
            let d = (s.end_ns - s.start_ns) as f64 / 1e9;
            match out.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(row) => {
                    row.1 += d;
                    row.2 += 1;
                }
                None => out.push((s.name.clone(), d, 1)),
            }
        }
        out
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as the repo's `OpSpan`s, so the repo's Chrome exporter
    /// writes them beside the simulator's own: one `harness` track on the
    /// HOST clock (ns since the run began, rendered as if simulated time),
    /// label `name #id <-#parent [workload] self=<us>us`.
    pub fn to_op_spans(&self, kind: OpKind) -> Vec<OpSpan> {
        let at = |ns: u64| Time(ns * 1000); // Time is picoseconds
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("root".to_owned(), |p| format!("#{p}"));
                OpSpan {
                    id: id as u64 + 1,
                    kind,
                    track: "harness".to_owned(),
                    label: format!(
                        "{} #{id} <-{parent} [{}] self={}us",
                        s.name,
                        self.workload,
                        self.self_ns(id) / 1000
                    ),
                    start: at(s.start_ns),
                    end: at(s.end_ns),
                    ok: true,
                    marks: Vec::new(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut sp = Spans::new("w");
        sp.scope("outer", |sp| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            sp.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let all = sp.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert!(all[1].start_ns >= all[0].start_ns && all[1].end_ns <= all[0].end_ns);
        let inner = all[1].end_ns - all[1].start_ns;
        let outer = all[0].end_ns - all[0].start_ns;
        assert_eq!(sp.self_ns(0), outer - inner);
        assert!(sp.total_s("inner") >= 0.005);
        let ops = sp.to_op_spans(OpKind::Write);
        assert_eq!(ops[1].track, "harness");
        assert!(ops[1].label.starts_with("inner #1 <-#0 [w]"));
    }
}
