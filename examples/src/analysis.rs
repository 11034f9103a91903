//! Analytical models from the paper: NIC descriptor memory (Fig 4,
//! §III-B), the HPU line-rate budget (Fig 16 right, §VI-C), and the DFS
//! survey (Table III).

use nadfs_simnet::Bandwidth;
use nadfs_wire::sizes;

// ---------------------------------------------------------------------
// Fig 4 / §III-B: descriptor memory
// ---------------------------------------------------------------------

/// NIC memory available for write descriptors (§III-B: 4×1 MiB L1 plus
/// 4 MiB L2, minus 2 MiB of DFS-wide state = 6 MiB).
pub(crate) const DESCRIPTOR_BUDGET_BYTES: u64 = 6 << 20;

/// Pure descriptor memory for `n` concurrent writes: 77 B each (§III-B).
pub(crate) fn descriptor_memory_bytes(n_writes: u64) -> u64 {
    n_writes * sizes::WRITE_DESCRIPTOR as u64
}

/// Maximum concurrent writes the budget sustains (§III-B: "~82 K").
pub(crate) fn max_concurrent_writes() -> u64 {
    DESCRIPTOR_BUDGET_BYTES / sizes::WRITE_DESCRIPTOR as u64
}

/// Worst-case NIC memory for `n` concurrent writes of `size` bytes,
/// including per-packet bookkeeping state (4 B per expected packet of the
/// message, tracking arrival/commit status).
///
/// Interpretation note: the paper's Fig 4
/// shows size-dependent curves but §III-B's text quantifies only the 77 B
/// descriptor and the 6 MiB budget; pure descriptor memory is
/// size-independent. We reproduce the quantified claims exactly
/// ([`descriptor_memory_bytes`], [`max_concurrent_writes`]) and model the
/// size dependence as worst-case per-packet state, which recovers the
/// figure's qualitative shape (larger writes need more state per open
/// request).
pub(crate) fn worst_case_memory_bytes(n_writes: u64, size: u64) -> u64 {
    let payload = (sizes::MTU - sizes::RDMA_HEADER) as u64;
    let pkts = size.div_ceil(payload).max(1);
    n_writes * (sizes::WRITE_DESCRIPTOR as u64 + 4 * pkts)
}

// ---------------------------------------------------------------------
// Fig 16 right / §VI-C: HPUs needed to sustain line rate
// ---------------------------------------------------------------------

/// Packet inter-arrival time at `rate` with `pkt_bytes` packets, in ns.
fn packet_interarrival_ns(rate: Bandwidth, pkt_bytes: u32) -> f64 {
    rate.tx_time(pkt_bytes as u64).as_ns()
}

/// Number of HPUs needed so that handlers of mean duration `handler_ns`
/// keep up with line rate (Fig 16 right).
pub(crate) fn hpus_for_line_rate(handler_ns: f64, rate: Bandwidth, pkt_bytes: u32) -> u64 {
    let inter = packet_interarrival_ns(rate, pkt_bytes);
    (handler_ns / inter).ceil() as u64
}

/// Per-handler time budget given an HPU count (§VI-C: "with 2 KiB packets
/// and 32 HPUs, each handler should not last more than ~1310 ns").
pub(crate) fn handler_budget_ns(n_hpus: u64, rate: Bandwidth, pkt_bytes: u32) -> f64 {
    n_hpus as f64 * packet_interarrival_ns(rate, pkt_bytes)
}

// ---------------------------------------------------------------------
// Table III: DFS characteristics survey
// ---------------------------------------------------------------------

/// Degree of support reported in Table III.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Support {
    Yes,
    Partial,
    No,
}

impl Support {
    pub(crate) fn glyph(self) -> &'static str {
        match self {
            Support::Yes => "yes",
            Support::Partial => "partial",
            Support::No => "no",
        }
    }
}

/// One row of Table III.
#[derive(Clone, Debug)]
pub(crate) struct DfsSurveyRow {
    pub(crate) name: &'static str,
    pub(crate) rdma: Support,
    pub(crate) auth: Support,
    pub(crate) replication: Support,
    pub(crate) erasure_coding: Support,
    pub(crate) notes: &'static str,
}

/// The survey exactly as printed in Table III of the paper.
pub(crate) fn dfs_survey() -> Vec<DfsSurveyRow> {
    use Support::{No, Partial, Yes};
    vec![
        DfsSurveyRow {
            name: "Lustre",
            rdma: Partial,
            auth: Yes,
            replication: No,
            erasure_coding: No,
            notes: "RPC+RDMA",
        },
        DfsSurveyRow {
            name: "IBM Spectrum Scale",
            rdma: No,
            auth: Yes,
            replication: Yes,
            erasure_coding: Yes,
            notes: "",
        },
        DfsSurveyRow {
            name: "BeeGFS",
            rdma: Partial,
            auth: Yes,
            replication: Yes,
            erasure_coding: No,
            notes: "RDMA compatible",
        },
        DfsSurveyRow {
            name: "Ceph",
            rdma: No,
            auth: Yes,
            replication: Yes,
            erasure_coding: Yes,
            notes: "",
        },
        DfsSurveyRow {
            name: "HDFS",
            rdma: Partial,
            auth: Yes,
            replication: Yes,
            erasure_coding: Yes,
            notes: "RPC+RDMA",
        },
        DfsSurveyRow {
            name: "Intel DAOS",
            rdma: Partial,
            auth: Yes,
            replication: Yes,
            erasure_coding: Yes,
            notes: "RPC+RDMA",
        },
        DfsSurveyRow {
            name: "MadFS",
            rdma: Yes,
            auth: Yes,
            replication: No,
            erasure_coding: No,
            notes: "",
        },
        DfsSurveyRow {
            name: "WekaIO Matrix",
            rdma: Yes,
            auth: Yes,
            replication: No,
            erasure_coding: Yes,
            notes: "",
        },
        DfsSurveyRow {
            name: "PanFS",
            rdma: Partial,
            auth: Yes,
            replication: No,
            erasure_coding: Yes,
            notes: "RPC+RDMA",
        },
        DfsSurveyRow {
            name: "OrangeFS",
            rdma: Partial,
            auth: Yes,
            replication: Yes,
            erasure_coding: No,
            notes: "RPC+RDMA",
        },
        DfsSurveyRow {
            name: "Gluster",
            rdma: Partial,
            auth: Yes,
            replication: Yes,
            erasure_coding: Yes,
            notes: "",
        },
        DfsSurveyRow {
            name: "Orion",
            rdma: Yes,
            auth: No,
            replication: Yes,
            erasure_coding: No,
            notes: "Client-based replication",
        },
        DfsSurveyRow {
            name: "Octopus",
            rdma: Partial,
            auth: Yes,
            replication: No,
            erasure_coding: No,
            notes: "RPC+RDMA",
        },
        DfsSurveyRow {
            name: "FileMR",
            rdma: Yes,
            auth: Yes,
            replication: Yes,
            erasure_coding: No,
            notes: "",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_claims_82k_concurrent_writes() {
        // 6 MiB / 77 B = 81 707: the paper rounds to "~82 K".
        let n = max_concurrent_writes();
        assert_eq!(n, 81_707);
        assert!((n as f64 - 82_000.0).abs() / 82_000.0 < 0.005);
    }

    /// Fig 4's printed capacity is the one the simulated NIC enforces: a
    /// sPIN storage node as a cluster builds it, at paper cost, admits
    /// exactly `max_concurrent_writes()` open requests.
    #[test]
    fn fig4_capacity_is_what_the_nic_enforces() {
        use nadfs_core::{storage_node, ClusterSpec, NodeShared, StorageMode};
        use nadfs_simnet::{Fabric, FabricConfig};
        use nadfs_wire::{Frame, MacKey};

        let spec = ClusterSpec::new(0, 1, StorageMode::Spin)
            .with_accumulator_pool(0)
            .with_observability(false);
        let mut fabric: Fabric<Frame> = Fabric::new(FabricConfig::default(), 0);
        let port = fabric.register_node(1, None);
        let peers = vec![port.node];
        let shared = NodeShared::new(&spec);
        let (nic, _) = storage_node(&spec, MacKey::from_seed(1), peers, port, 1, &shared);
        let dev = nic.core.pspin().expect("a sPIN storage node");
        assert_eq!(dev.max_concurrent_requests(), max_concurrent_writes());
        assert_eq!(max_concurrent_writes(), 81_707, "§III-B: ~82 K");
    }

    #[test]
    fn descriptor_memory_is_linear() {
        assert_eq!(descriptor_memory_bytes(0), 0);
        assert_eq!(descriptor_memory_bytes(1000), 77_000);
    }

    #[test]
    fn worst_case_memory_orders_by_size() {
        let n = 500;
        let small = worst_case_memory_bytes(n, 4 << 10);
        let mid = worst_case_memory_bytes(n, 64 << 10);
        let large = worst_case_memory_bytes(n, 1 << 20);
        assert!(small < mid && mid < large);
        assert!(small >= descriptor_memory_bytes(n));
    }

    #[test]
    fn handler_budget_matches_paper_quote() {
        // §VI-C: 2 KiB packets, 32 HPUs, 400 Gbit/s → ~1310 ns.
        let b = handler_budget_ns(32, Bandwidth::from_gbit_per_sec(400), 2048);
        assert!((b - 1310.7).abs() < 1.0, "{b}");
    }

    #[test]
    fn hpus_for_ec_handlers() {
        // §VI-C: "for RS(6,3), a PsPIN configuration with 512 HPUs would
        // allow sustaining 400 Gbit/s" — our Table II duration of ~23 us
        // computes to 562; the paper quotes the next power of two below
        // its own figure's curve. Accept the half-open band.
        let n = hpus_for_line_rate(23_018.0, Bandwidth::from_gbit_per_sec(400), 2048);
        assert!((512..=640).contains(&n), "{n}");
        // 100 Gbit/s needs 4x fewer.
        let n100 = hpus_for_line_rate(23_018.0, Bandwidth::from_gbit_per_sec(100), 2048);
        assert!(n100 <= n / 3);
    }

    #[test]
    fn survey_has_14_rows_like_table_iii() {
        let s = dfs_survey();
        assert_eq!(s.len(), 14);
        assert!(s.iter().any(|r| r.name == "Ceph"));
        assert_eq!(
            s.iter().find(|r| r.name == "Orion").expect("row").auth,
            Support::No
        );
    }
}
