//! The storage service's request check, run on the NIC (§IV): clients are
//! not trusted, so every DFS request's capability is verified against
//! the key the service signs capabilities with before the NIC acts on it.
//! The sPIN header handler checks writes and gathers with it; the NIC
//! itself checks reads, and gathers where it has no PsPIN.

use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{NodeId, SharedObs, SharedTrace, Time};
use nadfs_wire::{AckPkt, AuthError, DfsHeader, MacKey, MsgId, Rights, Status};

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
    /// `now`: its capability must carry the service's signature, be
    /// unexpired, grant the rights, and be held by the client the header
    /// names (`dfs.client`). A request that passes is marked
    /// `nic-validated` on the originating op's span (greq-correlated) and
    /// `describe()`d on the trace. One that does not is counted, and `Err`
    /// is the `AuthFailed` NACK to answer it with and the node it goes to:
    /// the capability's holder when the service signed it, else `src`. A
    /// node id from a header that failed its check is never a destination.
    pub fn admit(
        &self,
        now: Time,
        access: Access,
        src: NodeId,
        msg: MsgId,
        dfs: &DfsHeader,
        describe: impl FnOnce() -> String,
    ) -> Result<(), (NodeId, AckPkt)> {
        let rights = match access {
            Access::Write => Rights::WRITE,
            Access::Read | Access::Gather => Rights::READ,
        };
        let cap = &dfs.capability;
        let verdict = cap.verify(&self.key, now.as_ns() as u64, rights);
        if verdict.is_err() || dfs.client != cap.holder() {
            let mut stats = self.stats.borrow_mut();
            *match access {
                Access::Write => &mut stats.write_auth_failures,
                Access::Read => &mut stats.read_auth_failures,
                Access::Gather => &mut stats.gather_auth_failures,
            } += 1;
            let to = match verdict {
                Err(AuthError::BadSignature) => src,
                _ => cap.holder() as NodeId,
            };
            let nack = AckPkt::new(msg, Some(dfs.greq_id), Status::AuthFailed);
            return Err((to, nack));
        }
        let spans = &mut self.obs.borrow_mut().spans;
        spans.mark_corr_once(dfs.greq_id, phase::NIC_VALIDATED, now);
        self.trace
            .borrow_mut()
            .emit_from(now, "nic", Some(self.node), describe);
        Ok(())
    }
}
