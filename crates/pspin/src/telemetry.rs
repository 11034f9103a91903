//! Handler and pipeline telemetry: the measurements behind Tables I & II
//! and Figures 7, 11, and 16 of the paper.

use nadfs_simnet::stats::Sampler;
use nadfs_simnet::Dur;

use crate::handler::HandlerKind;

/// Statistics for one handler kind.
#[derive(Debug, Default)]
pub struct KindStats {
    pub duration_ns: Sampler,
    pub(crate) instructions: Sampler,
}

impl KindStats {
    /// Mean instructions per cycle: instructions ÷ duration (1 cycle = 1 ns
    /// at the default 1 GHz clock). IPC degrades when handlers stall.
    pub(crate) fn mean_ipc(&self, clock_ghz: f64) -> f64 {
        let cycles = self.duration_ns.mean() * clock_ghz;
        self.instructions.mean() / cycles
    }
}

/// Fig 7 pipeline stage measurements.
#[derive(Debug, Default)]
pub struct PipelineStats {
    pub pktbuf_copy_ns: Sampler,
    pub inter_sched_ns: Sampler,
    pub l1_copy_ns: Sampler,
    pub intra_sched_ns: Sampler,
    /// HPU queueing delay (waiting for a free HPU), not part of Fig 7's
    /// minimum pipeline but useful diagnostically.
    pub(crate) hpu_wait_ns: Sampler,
}

/// Device telemetry.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Indexed by `HandlerKind as usize`; `None` until first recorded.
    by_kind: [Option<KindStats>; 4],
    pub pipeline: PipelineStats,
    pub pkts_processed: u64,
    pub msgs_opened: u64,
    pub msgs_completed: u64,
    pub msgs_denied: u64,
    pub msgs_cleaned: u64,
    pub descriptor_peak_bytes: u64,
}

impl Telemetry {
    pub(crate) fn record_handler(&mut self, kind: HandlerKind, dur: Dur, instrs: u64) {
        let s = self.by_kind[kind as usize].get_or_insert_with(KindStats::default);
        s.duration_ns.record_dur_ns(dur);
        s.instructions.record(instrs as f64);
    }

    pub fn kind(&self, kind: HandlerKind) -> Option<&KindStats> {
        self.by_kind[kind as usize].as_ref()
    }

    /// (mean duration ns, mean instructions, mean IPC) for a handler kind.
    pub fn summary(&self, kind: HandlerKind, clock_ghz: f64) -> Option<(f64, f64, f64)> {
        self.kind(kind).map(|s| {
            (
                s.duration_ns.mean(),
                s.instructions.mean(),
                s.mean_ipc(clock_ghz),
            )
        })
    }

    pub fn clear_handler_stats(&mut self) {
        self.by_kind = Default::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_reflects_stalls() {
        let mut t = Telemetry::default();
        // 130 instructions in 217 ns -> IPC 0.6; with stalls, 2106 ns -> 0.06.
        t.record_handler(HandlerKind::Payload, Dur::from_ns(2106), 130);
        let (d, i, ipc) = t.summary(HandlerKind::Payload, 1.0).expect("stats");
        assert_eq!(d, 2106.0);
        assert_eq!(i, 130.0);
        assert!((ipc - 0.0617).abs() < 0.001);
    }

    #[test]
    fn kinds_are_separate() {
        let mut t = Telemetry::default();
        t.record_handler(HandlerKind::Header, Dur::from_ns(211), 120);
        t.record_handler(HandlerKind::Completion, Dur::from_ns(107), 66);
        assert!(t.kind(HandlerKind::Header).is_some());
        assert!(t.kind(HandlerKind::Payload).is_none());
        let (d, ..) = t.summary(HandlerKind::Completion, 1.0).expect("stats");
        assert_eq!(d, 107.0);
    }
}
