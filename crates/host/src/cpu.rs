//! Host CPU cost model.
//!
//! The CPU-based baselines (RPC, RPC+RDMA, CPU-Ring/PBT forwarding) pay for
//! notification latency, per-request software processing, and memory copies.
//! This module models a single serially-occupied core per storage node with
//! parameterized costs; the protocol drivers in `nadfs-core` sequence their
//! events through it.

use nadfs_simnet::{Bandwidth, Dur, Time};

/// CPU cost parameters (the defaults are the `Default` impl below).
#[derive(Clone, Debug)]
pub struct CpuCosts {
    /// NIC completion → CPU notices (interrupt/poll latency).
    pub poll_notify: Dur,
    /// Dispatch an RPC request to its handler.
    pub rpc_dispatch: Dur,
    /// Validate a client request (capability check) in software.
    /// The NIC handler equivalent costs 200 cycles; software pays the same
    /// work plus cache misses — we charge the same 200 ns by default so the
    /// comparison isolates *data-path placement*, not code quality.
    pub validate: Dur,
    /// Post a send/RDMA work request (doorbell, WQE build).
    pub post_send: Dur,
    /// Effective single-copy memcpy bandwidth for buffered data paths.
    pub memcpy_bw: Bandwidth,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            poll_notify: Dur::from_ns(400),
            rpc_dispatch: Dur::from_ns(150),
            validate: Dur::from_ns(200),
            post_send: Dur::from_ns(250),
            memcpy_bw: Bandwidth::from_gbyte_per_sec(26),
        }
    }
}

/// A serially-occupied CPU core.
pub struct Cpu {
    pub costs: CpuCosts,
    busy_until: Time,
    pub(crate) tasks_run: u64,
    pub(crate) busy_time: Dur,
}

impl Cpu {
    pub fn new(costs: CpuCosts) -> Cpu {
        Cpu {
            costs,
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
        self.costs.memcpy_bw.tx_time(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_serialize() {
        let mut cpu = Cpu::new(CpuCosts::default());
        let a = cpu.exec(Time::ZERO, Dur::from_ns(100));
        let b = cpu.exec(Time::ZERO, Dur::from_ns(50));
        assert_eq!(a, Time(100_000));
        assert_eq!(b, Time(150_000), "second task waits for the first");
        assert_eq!(cpu.tasks_run, 2);
        assert_eq!(cpu.busy_time, Dur::from_ns(150));
    }

    #[test]
    fn idle_gap_not_charged() {
        let mut cpu = Cpu::new(CpuCosts::default());
        cpu.exec(Time::ZERO, Dur::from_ns(10));
        let done = cpu.exec(Time(1_000_000), Dur::from_ns(10));
        assert_eq!(done, Time(1_010_000));
        assert_eq!(cpu.busy_time, Dur::from_ns(20));
    }

    #[test]
    fn memcpy_cost_scales_linearly() {
        let cpu = Cpu::new(CpuCosts::default());
        let one = cpu.memcpy_cost(1 << 20);
        let two = cpu.memcpy_cost(2 << 20);
        // tx_time rounds up per call, so allow 1 ps of slack.
        assert!(two.ps().abs_diff(one.ps() * 2) <= 1);
        // 1 MiB at 26 GB/s ≈ 40.3 us.
        assert!((one.as_us() - 40.3).abs() < 0.2, "{one}");
    }
}
