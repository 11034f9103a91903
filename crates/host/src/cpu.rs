//! Host CPU cost model.
//!
//! The CPU-based baselines (RPC, RPC+RDMA, CPU-Ring/PBT forwarding) pay for
//! notification latency, per-request software processing, and memory copies.
//! This module models a single serially-occupied core per storage node: the
//! fixed per-step costs are the constants below, and only the memcpy
//! bandwidth is configured (`NicConfig.memcpy_bw`). The protocol drivers in
//! `nadfs-core` sequence their events through it.

use nadfs_simnet::{Bandwidth, Dur, Time};

/// NIC completion → CPU notices (interrupt/poll latency).
pub const POLL_NOTIFY: Dur = Dur::from_ns(400);
/// Dispatch an RPC request to its handler.
pub const RPC_DISPATCH: Dur = Dur::from_ns(150);
/// Validate a client request (capability check) in software.
/// The NIC handler equivalent costs 200 cycles; software pays the same
/// work plus cache misses — we charge the same 200 ns so the comparison
/// isolates *data-path placement*, not code quality.
pub const VALIDATE: Dur = Dur::from_ns(200);
/// Post a send/RDMA work request (doorbell, WQE build).
pub const POST_SEND: Dur = Dur::from_ns(250);

/// A serially-occupied CPU core.
pub struct Cpu {
    /// Effective single-copy memcpy bandwidth for buffered data paths.
    memcpy_bw: Bandwidth,
    busy_until: Time,
    pub(crate) tasks_run: u64,
    pub(crate) busy_time: Dur,
}

impl Cpu {
    pub fn new(memcpy_bw: Bandwidth) -> Cpu {
        Cpu {
            memcpy_bw,
            busy_until: Time::ZERO,
            tasks_run: 0,
            busy_time: Dur::ZERO,
        }
    }

    /// Run a task costing `cost`, starting no earlier than `ready`.
    /// Returns its completion time.
    pub fn exec(&mut self, ready: Time, cost: Dur) -> Time {
        let start = ready.max(self.busy_until);
        let done = start + cost;
        self.busy_until = done;
        self.tasks_run += 1;
        self.busy_time += cost;
        done
    }

    /// Copy cost for `len` bytes at the configured memcpy bandwidth.
    pub fn memcpy_cost(&self, len: u64) -> Dur {
        self.memcpy_bw.tx_time(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_serialize() {
        let mut cpu = Cpu::new(Bandwidth::from_gbyte_per_sec(26));
        let a = cpu.exec(Time::ZERO, Dur::from_ns(100));
        let b = cpu.exec(Time::ZERO, Dur::from_ns(50));
        assert_eq!(a, Time(100_000));
        assert_eq!(b, Time(150_000), "second task waits for the first");
        assert_eq!(cpu.tasks_run, 2);
        assert_eq!(cpu.busy_time, Dur::from_ns(150));
    }

    #[test]
    fn idle_gap_not_charged() {
        let mut cpu = Cpu::new(Bandwidth::from_gbyte_per_sec(26));
        cpu.exec(Time::ZERO, Dur::from_ns(10));
        let done = cpu.exec(Time(1_000_000), Dur::from_ns(10));
        assert_eq!(done, Time(1_010_000));
        assert_eq!(cpu.busy_time, Dur::from_ns(20));
    }

    #[test]
    fn memcpy_cost_scales_linearly() {
        let cpu = Cpu::new(Bandwidth::from_gbyte_per_sec(26));
        let one = cpu.memcpy_cost(1 << 20);
        let two = cpu.memcpy_cost(2 << 20);
        // tx_time rounds up per call, so allow 1 ps of slack.
        assert!(two.ps().abs_diff(one.ps() * 2) <= 1);
        // 1 MiB at 26 GB/s ≈ 40.3 us.
        assert!((one.as_us() - 40.3).abs() < 0.2, "{one}");
    }
}
