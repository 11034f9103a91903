//! The storage service's request check, run on the NIC (§IV): clients are
//! not trusted, so every DFS request's capability is verified against
//! the key the service signs capabilities with, and then its shape, before
//! the NIC acts on it.
//! The sPIN header handler checks writes and gathers with it; the NIC
//! itself checks reads, and gathers where it has no PsPIN.

use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{NodeId, SharedObs, SharedTrace, Time};
use nadfs_wire::{AckPkt, DfsHeader, GatherReqPkt, MacKey, MsgId, Rights, Status};

use crate::nic::SharedNicStats;

/// What a checked request asks for: the rights its capability must
/// grant, and the [`crate::NicStats`] counter a refusal counts in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    Write,
    Read,
    Gather,
}

/// The check on one node: the service key, and where the check reports
/// (the span hub a pass is marked on, the trace ring it is noted in, and
/// the counters a refusal counts in).
pub struct RequestCheck {
    key: MacKey,
    node: NodeId,
    stats: SharedNicStats,
    obs: SharedObs,
    trace: SharedTrace,
}

impl RequestCheck {
    pub fn new(
        key: MacKey,
        node: NodeId,
        stats: SharedNicStats,
        obs: SharedObs,
        trace: SharedTrace,
    ) -> RequestCheck {
        RequestCheck {
            key,
            node,
            stats,
            obs,
            trace,
        }
    }

    /// Check request `msg` from `src`, headed by `dfs`, for `access` at
    /// `now`, its request header having judged its shape `well_formed`,
    /// under the service's one rule, [`DfsHeader::admit`]. A request that
    /// passes is marked `nic-validated` on the originating op's span
    /// (greq-correlated) and `describe()`d on the trace. `Err` is the NACK
    /// of one that does not and the node it goes to; a capability refusal
    /// is counted.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &self,
        now: Time,
        access: Access,
        src: NodeId,
        msg: MsgId,
        dfs: &DfsHeader,
        well_formed: bool,
        describe: impl FnOnce() -> String,
    ) -> Result<(), (NodeId, AckPkt)> {
        let rights = match access {
            Access::Write => Rights::WRITE,
            Access::Read | Access::Gather => Rights::READ,
        };
        let now_ns = now.as_ns() as u64;
        if let Err((to, status)) = dfs.admit(&self.key, now_ns, rights, src as u32, well_formed) {
            if status == Status::AuthFailed {
                let mut stats = self.stats.borrow_mut();
                *match access {
                    Access::Write => &mut stats.write_auth_failures,
                    Access::Read => &mut stats.read_auth_failures,
                    Access::Gather => &mut stats.gather_auth_failures,
                } += 1;
            }
            return Err((to as NodeId, AckPkt::new(msg, Some(dfs.greq_id), status)));
        }
        let spans = &mut self.obs.borrow_mut().spans;
        spans.mark_corr_once(dfs.greq_id, phase::NIC_VALIDATED, now);
        self.trace
            .borrow_mut()
            .emit_from(now, "nic", Some(self.node), describe);
        Ok(())
    }

    /// [`Self::admit`] gather `g` from `src`, once for the whole flow: the
    /// capability, then every segment's range.
    pub fn admit_gather(
        &self,
        now: Time,
        src: NodeId,
        g: &GatherReqPkt,
    ) -> Result<(), (NodeId, AckPkt)> {
        let (greq, segs, len) = (g.dfs.greq_id, g.grh.segments.len(), g.grh.total_len);
        let describe = || format!("gather-validate greq={greq} segs={segs} len={len}");
        let fits = g.grh.well_formed();
        self.admit(now, Access::Gather, src, g.msg, &g.dfs, fits, describe)
    }
}
