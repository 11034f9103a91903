//! First-class observability: operation spans with sim-time phase marks,
//! a central metrics registry, and Chrome trace-event export.
//!
//! The pieces compose through [`ObsHub`], one shared (single-threaded
//! `Rc<RefCell<...>>`) hub that every component gets a handle to:
//!
//! - [`SpanBook`] — per-op spans minted at client op start, phase
//!   marks recorded as the op crosses the control plane, NIC handlers, and
//!   storage completion. Phase durations telescope exactly to end-to-end
//!   latency.
//! - [`MetricsHub`] — named counters/gauges/log2-histograms with
//!   a stable [`MetricsSnapshot`] schema. Closing a span
//!   automatically feeds the `op.<kind>.*` histograms.
//! - [`chrome_trace_json`] — spans plus the [`crate::Trace`] ring rendered as
//!   Perfetto-loadable trace-event JSON on the simulated clock.

mod chrome;
mod export;
pub mod json;
mod metrics;
mod span;

use std::cell::RefCell;
use std::rc::Rc;

use crate::time::Time;
pub use chrome::chrome_trace_json;
pub use export::{Stats, StatsOut};
pub use metrics::{HistSummary, MetricsHub, MetricsSnapshot, SNAPSHOT_SCHEMA};
pub use span::{phase, OpKind, OpSpan, SpanBook, SpanId};

/// The shared observability hub: span book + metrics registry.
pub struct ObsHub {
    pub spans: SpanBook,
    pub metrics: MetricsHub,
}

/// Cheap single-threaded handle to the hub.
pub type SharedObs = Rc<RefCell<ObsHub>>;

impl ObsHub {
    /// An enabled hub retaining the most recent `span_cap` completed spans.
    pub fn new(span_cap: usize) -> SharedObs {
        Rc::new(RefCell::new(ObsHub {
            spans: SpanBook::new(span_cap),
            metrics: MetricsHub::new(),
        }))
    }

    /// A disabled hub: spans are no-ops, metrics still usable.
    pub fn disabled() -> SharedObs {
        Rc::new(RefCell::new(ObsHub {
            spans: SpanBook::disabled(),
            metrics: MetricsHub::new(),
        }))
    }

    /// Close a span and fold its latencies into the metrics registry:
    /// `op.<kind>.e2e_ns` plus one `op.<kind>.phase.<phase>_ns` histogram
    /// per phase mark, and `op.<kind>.{completed,rejected}` counters
    /// (`op.read.cache_hits` when the span carries a cache-hit mark).
    pub fn end_span(&mut self, id: SpanId, at: Time, ok: bool) {
        let Some(sp) = self.spans.end(id, at, ok) else {
            return;
        };
        let kind = sp.kind.as_str();
        let e2e_ns = sp.e2e().as_ns() as u64;
        // Truncate cumulative offsets, not per-phase durations: diffs of
        // truncated offsets telescope, so the ns phase durations sum
        // exactly to the ns e2e (the last mark is the terminal one at
        // span end).
        let mut prev_ns = 0u64;
        let phases: Vec<(&'static str, u64)> = sp
            .marks
            .iter()
            .map(|&(name, at)| {
                let off_ns = at.since(sp.start).as_ns() as u64;
                let d = off_ns - prev_ns;
                prev_ns = off_ns;
                (name, d)
            })
            .collect();
        let cache_hit = sp.has_mark(phase::CACHE_HIT);
        self.metrics
            .hist_record(&format!("op.{kind}.e2e_ns"), e2e_ns);
        for (name, ns) in phases {
            self.metrics
                .hist_record(&format!("op.{kind}.phase.{name}_ns"), ns);
        }
        self.metrics.counter_add(
            &format!("op.{kind}.{}", if ok { "completed" } else { "rejected" }),
            1,
        );
        if cache_hit {
            self.metrics
                .counter_add(&format!("op.{kind}.cache_hits"), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_span_feeds_metrics() {
        let hub = ObsHub::new(16);
        let mut h = hub.borrow_mut();
        let id = h.spans.begin(OpKind::Read, "client-0", "read f1", Time(0));
        h.spans.mark(id, phase::CACHE_HIT, Time(500_000));
        h.end_span(id, Time(1_000_000), true);
        let snap = h.metrics.snapshot();
        assert_eq!(snap.counter("op.read.completed"), Some(1));
        assert_eq!(snap.counter("op.read.cache_hits"), Some(1));
        let e2e = snap.hist("op.read.e2e_ns").expect("hist");
        assert_eq!(e2e.count, 1);
        assert_eq!(e2e.min, 1_000); // 1 µs
        assert!(snap.hist("op.read.phase.cache-hit_ns").is_some());
        assert!(snap.hist("op.read.phase.completed_ns").is_some());
    }

    #[test]
    fn rejected_span_counts_rejected() {
        let hub = ObsHub::new(16);
        let mut h = hub.borrow_mut();
        let id = h
            .spans
            .begin(OpKind::Write, "client-0", "write f1", Time(0));
        h.end_span(id, Time(10), false);
        let snap = h.metrics.snapshot();
        assert_eq!(snap.counter("op.write.rejected"), Some(1));
        assert_eq!(snap.counter("op.write.completed"), None);
    }
}
