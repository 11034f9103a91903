//! PsPIN device configuration.
//!
//! Defaults reproduce the device evaluated in the paper (§II-B, §III-B,
//! Fig 7): a PULP-based packet processor with 32 RISC-V HPUs at 1 GHz in
//! four compute clusters, 1 MiB single-cycle L1 per cluster, 4 MiB L2,
//! a hardware scheduler with 1-2 cycle scheduling latency, and DMA engines
//! toward host memory.

use nadfs_simnet::Dur;

#[derive(Clone, Debug)]
pub struct PsPinConfig {
    pub(crate) n_clusters: usize,
    pub(crate) hpus_per_cluster: usize,
    /// Core clock in GHz; 1.0 makes one cycle = 1 ns.
    pub clock_ghz: f64,
    /// Per-cluster L1 bytes (descriptor + state storage).
    pub(crate) l1_bytes_per_cluster: u64,
    /// Off-cluster L2 bytes (descriptor swap-out area).
    pub(crate) l2_bytes: u64,
    /// Packet-buffer capacity in packets; doubles as the NIC ingress credit
    /// count, so a full buffer backpressures the network losslessly.
    pub pktbuf_slots: usize,
    /// Packet-buffer copy throughput (Fig 7: 32 cycles for a 2 KiB packet).
    pub(crate) pktbuf_bytes_per_cycle: u64,
    /// Cluster L1 copy throughput (Fig 7: 43 cycles for a 2 KiB packet).
    pub(crate) l1_bytes_per_cycle: u64,
    /// Inter-cluster scheduling latency in cycles (Fig 7: 2).
    pub(crate) inter_sched_cycles: u64,
    /// Intra-cluster (HPU) scheduling latency in cycles (Fig 7: 1).
    pub(crate) intra_sched_cycles: u64,
    /// Inactivity timeout after which the cleanup handler fires for an
    /// incomplete message (§VII, client-failure discussion).
    pub cleanup_timeout: Dur,
}

impl Default for PsPinConfig {
    fn default() -> Self {
        PsPinConfig {
            n_clusters: 4,
            hpus_per_cluster: 8,
            clock_ghz: 1.0,
            l1_bytes_per_cluster: 1 << 20,
            l2_bytes: 4 << 20,
            pktbuf_slots: 64,
            pktbuf_bytes_per_cycle: 64,
            l1_bytes_per_cycle: 48,
            inter_sched_cycles: 2,
            intra_sched_cycles: 1,
            cleanup_timeout: Dur::from_ms(1),
        }
    }
}

impl PsPinConfig {
    /// Convert cycles to simulated time at the configured clock.
    pub(crate) fn cycles(&self, c: u64) -> Dur {
        Dur::from_ns_f64(c as f64 / self.clock_ghz)
    }

    /// Packet-buffer copy-in time for a packet of `bytes`.
    pub(crate) fn pktbuf_copy_time(&self, bytes: u64) -> Dur {
        self.cycles(bytes.div_ceil(self.pktbuf_bytes_per_cycle))
    }

    /// L1 copy time for a packet of `bytes`.
    pub(crate) fn l1_copy_time(&self, bytes: u64) -> Dur {
        self.cycles(bytes.div_ceil(self.l1_bytes_per_cycle))
    }

    /// Total NIC memory available for descriptors and DFS state
    /// (§III-B: 4×1 MiB L1 + 4 MiB L2 = 8 MiB).
    pub fn total_mem_bytes(&self) -> u64 {
        self.l1_bytes_per_cluster * self.n_clusters as u64 + self.l2_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_device_shape() {
        let c = PsPinConfig::default();
        assert_eq!(c.n_clusters * c.hpus_per_cluster, 32);
        assert_eq!(c.total_mem_bytes(), 8 << 20);
    }

    #[test]
    fn fig7_stage_times_for_2kib_packet() {
        let c = PsPinConfig::default();
        assert_eq!(c.pktbuf_copy_time(2048), Dur::from_ns(32));
        assert_eq!(c.l1_copy_time(2048), Dur::from_ns(43)); // ceil(2048/48)=43
        assert_eq!(c.cycles(c.inter_sched_cycles), Dur::from_ns(2));
        assert_eq!(c.cycles(c.intra_sched_cycles), Dur::from_ns(1));
    }

    #[test]
    fn cycles_respect_clock() {
        let c = PsPinConfig {
            clock_ghz: 2.0,
            ..Default::default()
        };
        assert_eq!(c.cycles(100), Dur::from_ns(50));
    }
}
