//! The central metrics registry: named counters, gauges, and fixed-bucket
//! log2 histograms, snapshotted into a stable serialized schema.
//!
//! The histogram here never stores raw samples: recording is O(1) into
//! one of 64 power-of-two buckets, and percentile queries walk the bucket
//! array. That makes it safe to leave metrics on in hot paths and to
//! snapshot at any time. ([`crate::stats::Sampler`] is the cheaper
//! sibling for a series only ever read as a mean.)

use std::collections::BTreeMap;

use super::json;

/// Version tag embedded in every serialized snapshot. Bump only with a
/// deliberate schema change; the stability test pins the field layout.
pub const SNAPSHOT_SCHEMA: &str = "nadfs-metrics-v1";

/// Fixed-bucket base-2 histogram of non-negative integer samples
/// (typically nanoseconds or bytes). Bucket `b` holds values in
/// `[2^b, 2^(b+1))`, with bucket 0 also holding 0.
#[derive(Clone, Debug)]
pub(crate) struct Log2Hist {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Hist {
    pub(crate) fn new() -> Log2Hist {
        Log2Hist::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Approximate percentile (`q` in [0, 100]): nearest-rank over the
    /// bucket cumulative counts, answering with the bucket's upper bound
    /// clamped into the observed `[min, max]` range. Resolution is a
    /// factor of two — the histogram trades exactness for O(1) recording.
    pub(crate) fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * (self.count - 1) as f64).round() as u64;
        if rank == 0 {
            return self.min;
        }
        if rank >= self.count - 1 {
            return self.max;
        }
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                let upper = if b >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (b + 1)) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub(crate) fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: u64::try_from(self.sum).unwrap_or(u64::MAX),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
        }
    }
}

/// The serialized face of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    pub count: u64,
    pub sum: u64,
    pub(crate) min: u64,
    pub(crate) max: u64,
    pub(crate) mean: f64,
    pub(crate) p50: u64,
    pub(crate) p90: u64,
    pub(crate) p99: u64,
}

/// The central registry. Names are dotted paths
/// (`storage.3.rpc_writes`, `op.read.e2e_ns`); `BTreeMap` keeps snapshot
/// output deterministic.
#[derive(Debug, Default)]
pub struct MetricsHub {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Log2Hist>,
}

impl MetricsHub {
    pub(crate) fn new() -> MetricsHub {
        MetricsHub::default()
    }

    pub(crate) fn counter_add(&mut self, name: &str, v: u64) {
        *self.ensure_counter(name) += v;
    }

    /// Overwrite a counter with an absolute value (for snapshot-time
    /// registration of externally-maintained totals).
    pub fn counter_set(&mut self, name: &str, v: u64) {
        *self.ensure_counter(name) = v;
    }

    fn ensure_counter(&mut self, name: &str) -> &mut u64 {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_owned(), 0);
        }
        self.counters.get_mut(name).expect("just ensured")
    }

    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_owned(), v);
    }

    pub(crate) fn hist_record(&mut self, name: &str, v: u64) {
        if !self.hists.contains_key(name) {
            self.hists.insert(name.to_owned(), Log2Hist::new());
        }
        self.hists.get_mut(name).expect("just ensured").record(v);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            schema: SNAPSHOT_SCHEMA,
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }
}

/// A point-in-time, name-sorted view of every registered metric, with a
/// stable JSON serialization (`nadfs-metrics-v1`):
///
/// ```json
/// {
///   "schema": "nadfs-metrics-v1",
///   "counters": {"name": 1},
///   "gauges": {"name": 0.5},
///   "histograms": {"name": {"count":1,"sum":9,"min":9,"max":9,
///                            "mean":9,"p50":9,"p90":9,"p99":9}}
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub schema: &'static str,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub hists: Vec<(String, HistSummary)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Serialize with the stable `nadfs-metrics-v1` schema, two spaces per
    /// level.
    pub fn to_json(&self) -> String {
        let pad1 = "  ";
        let pad2 = "    ";
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "{pad1}\"schema\": {},\n",
            json::str_lit(self.schema)
        ));
        s.push_str(&format!("{pad1}\"counters\": {{"));
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n{pad2}{}: {v}", json::str_lit(k)));
        }
        if !self.counters.is_empty() {
            s.push_str(&format!("\n{pad1}"));
        }
        s.push_str("},\n");
        s.push_str(&format!("{pad1}\"gauges\": {{"));
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n{pad2}{}: {}",
                json::str_lit(k),
                json::fmt_f64(*v)
            ));
        }
        if !self.gauges.is_empty() {
            s.push_str(&format!("\n{pad1}"));
        }
        s.push_str("},\n");
        s.push_str(&format!("{pad1}\"histograms\": {{"));
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n{pad2}{}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                json::str_lit(k),
                h.count,
                h.sum,
                h.min,
                h.max,
                json::fmt_f64(h.mean),
                h.p50,
                h.p90,
                h.p99
            ));
        }
        if !self.hists.is_empty() {
            s.push_str(&format!("\n{pad1}"));
        }
        s.push_str("}\n}");
        s
    }

    /// Phase-local view: what changed between `earlier` and `self`.
    ///
    /// Counters subtract (saturating — a counter absent from `earlier`
    /// keeps its full value); histogram `count`/`sum` subtract while
    /// `min`/`max`/percentiles stay those of the later snapshot (bucket
    /// contents are not serialized, so order statistics of the window
    /// cannot be reconstructed — `mean` IS recomputed from the deltas);
    /// gauges are point-in-time and keep the later value. Entries with a
    /// zero counter delta or zero histogram-count delta are omitted, so
    /// the result reads as "what this phase did".
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, v)| {
                let d = v.saturating_sub(earlier.counter(k).unwrap_or(0));
                (d > 0).then(|| (k.clone(), d))
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .filter_map(|(k, h)| {
                let prev = earlier.hist(k).copied().unwrap_or_default();
                let count = h.count.saturating_sub(prev.count);
                if count == 0 {
                    return None;
                }
                let sum = h.sum.saturating_sub(prev.sum);
                Some((
                    k.clone(),
                    HistSummary {
                        count,
                        sum,
                        mean: sum as f64 / count as f64,
                        ..*h
                    },
                ))
            })
            .collect();
        MetricsSnapshot {
            schema: self.schema,
            counters,
            gauges: self.gauges.clone(),
            hists,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::json::{self, Json};

    #[test]
    fn log2_hist_buckets_and_stats() {
        let mut h = Log2Hist::new();
        for v in [0, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum, 1110);
        assert!((h.mean() - 1110.0 / 7.0).abs() < 1e-9);
        assert_eq!(h.percentile(0.0), 0); // clamped to min
        assert_eq!(h.percentile(100.0), 1000); // clamped to max
                                               // p50 lands in the [2,4) bucket → upper bound 3.
        assert_eq!(h.percentile(50.0), 3);
    }

    #[test]
    fn empty_hist_is_zeroed() {
        let h = Log2Hist::new();
        let s = h.summary();
        assert_eq!(s, HistSummary::default());
    }

    #[test]
    fn hub_snapshot_is_sorted_and_queryable() {
        let mut m = MetricsHub::new();
        m.counter_add("z.last", 2);
        m.counter_add("a.first", 1);
        m.counter_add("a.first", 1);
        m.gauge_set("util", 0.75);
        m.hist_record("lat_ns", 128);
        let snap = m.snapshot();
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counter("a.first"), Some(2));
        assert_eq!(snap.counter("z.last"), Some(2));
        assert_eq!(snap.gauge("util"), Some(0.75));
        assert_eq!(snap.hist("lat_ns").expect("hist").count, 1);
        assert_eq!(snap.hist("lat_ns").expect("hist").min, 128);
    }

    #[test]
    fn delta_is_phase_local() {
        let mut m = MetricsHub::new();
        m.counter_add("reads", 3);
        m.counter_add("steady", 5);
        m.hist_record("lat", 100);
        m.gauge_set("util", 0.25);
        let before = m.snapshot();
        m.counter_add("reads", 4);
        m.counter_add("fresh", 1);
        m.hist_record("lat", 300);
        m.hist_record("lat", 500);
        m.gauge_set("util", 0.75);
        let d = m.snapshot().delta(&before);
        // Unchanged counters are omitted; changed ones report the window.
        assert_eq!(d.counter("reads"), Some(4));
        assert_eq!(d.counter("fresh"), Some(1));
        assert_eq!(d.counter("steady"), None);
        // Histogram count/sum/mean are window-local.
        let h = d.hist("lat").expect("lat delta");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 800);
        assert!((h.mean - 400.0).abs() < 1e-9);
        // Gauges are point-in-time: later value wins.
        assert_eq!(d.gauge("util"), Some(0.75));
        // Delta against itself is empty.
        let snap = m.snapshot();
        let zero = snap.delta(&snap);
        assert!(zero.counters.is_empty());
        assert!(zero.hists.is_empty());
    }

    #[test]
    fn snapshot_json_parses_and_round_trips() {
        let mut m = MetricsHub::new();
        m.counter_add("c\"tricky", 7);
        m.gauge_set("g", 1.25);
        m.hist_record("h", 9);
        let doc = m.snapshot().to_json();
        let v = json::parse(&doc).expect("snapshot JSON parses");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some(SNAPSHOT_SCHEMA)
        );
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("c\"tricky"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
        assert_eq!(
            v.get("histograms")
                .and_then(|h| h.get("h"))
                .and_then(|h| h.get("p50"))
                .and_then(Json::as_f64),
            Some(9.0)
        );
    }
}
