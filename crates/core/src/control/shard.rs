//! Metadata shards, per-shard op logs, and the one mutation path.
//!
//! A shard models a metadata server: an append-only op log, a
//! single-server admission queue and its counters. The
//! [`super::router::ShardRouter`] says which shard owns an ino; the file
//! records themselves sit in the plane's one table. Mutations are
//! *asynchronous* (AsyncFS-style): the owning shard appends the mutation
//! to its log and the client is acked after the append — the in-memory
//! apply and the cache callbacks happen off the ack path.
//! The log is therefore the unit of durability, and (ROADMAP item 3) the
//! natural unit of replication for a per-shard consensus group.
//!
//! Every namespace mutation runs through `ControlPlane::transact`: a
//! participant set plus an apply step. One participant logs `Apply` and
//! is done. Several (rename across parent directories, unlink whose
//! parent and target hash apart) run a two-phase intent/commit protocol:
//! every participant logs an `Intent`, the coordinator applies and logs
//! `Applied`, then all participants log `Commit`.
//! [`ControlPlane::recover_shards`] replays the logs after a crash: a
//! dangling intent rolls forward iff some shard logged `Applied`, and
//! rolls back otherwise. Every log record goes through
//! `ControlPlane::append`, which is also where the fault harness's
//! [`ControlPlane::crash_after_appends`] switch kills the coordinator.

use super::*;
use crate::config::{MUTATE_SERVICE, RESOLVE_SERVICE};

/// A namespace mutation as recorded in a shard's op log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum MetaMutation {
    Mkdir { ino: u64 },
    Create { ino: u64 },
    Rename { from: String, to: String },
    Unlink { ino: u64 },
    AttrFlush { ino: u64 },
    ExtentCommit { ino: u64, generation: u64 },
    RepairRehome { ino: u64, rec: usize },
}

/// One record in a shard's append-only op log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum LogEntry {
    /// A single-shard mutation: logged and acked, applied in place.
    Apply { op: MetaMutation },
    /// Cross-shard transaction phase 1: this shard is a participant.
    Intent { txid: u64, op: MetaMutation },
    /// Coordinator-only marker: the transaction's mutation has been
    /// applied to the namespace (the roll-forward witness).
    Applied { txid: u64 },
    /// Cross-shard transaction phase 2: the transaction is durable
    /// everywhere; recovery ignores it.
    Commit { txid: u64 },
    /// The transaction never happened: validation refused it, or
    /// recovery rolled it back (no `Applied` witness).
    Abort { txid: u64 },
}

/// A shard's append-only mutation log.
#[derive(Debug, Default)]
pub(crate) struct OpLog {
    entries: Vec<LogEntry>,
}

impl OpLog {
    pub(crate) fn append(&mut self, e: LogEntry) {
        self.entries.push(e);
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Transaction ids with an `Intent` on this shard but no terminal
    /// `Commit`/`Abort` — what recovery has to resolve.
    pub(crate) fn dangling_intents(&self) -> Vec<u64> {
        let mut dangling: Vec<u64> = Vec::new();
        for e in &self.entries {
            match e {
                LogEntry::Intent { txid, .. } => dangling.push(*txid),
                LogEntry::Commit { txid } | LogEntry::Abort { txid } => {
                    dangling.retain(|t| t != txid);
                }
                _ => {}
            }
        }
        dangling
    }

    /// Whether this shard witnessed the apply of `txid` (coordinator).
    pub(crate) fn has_applied(&self, txid: u64) -> bool {
        self.entries
            .iter()
            .any(|e| matches!(e, LogEntry::Applied { txid: t } if *t == txid))
    }
}

/// Per-shard observable counters, exported as `meta.shard.N.*`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Every routed operation (mutations + resolves).
    pub ops: u64,
    /// Namespace/extent mutations routed here.
    pub mutations: u64,
    /// Read-side resolves routed here.
    pub(crate) resolves: u64,
    /// Total simulated time ops spent queued behind this shard
    /// (admission-control wait, picoseconds).
    pub queue_wait_ps: u64,
    /// Cross-shard transactions this shard coordinated.
    pub cross_shard_txns: u64,
    /// Extent-map compactions run on files this shard owns.
    pub compactions: u64,
    /// Fully-shadowed extent records dropped by those compactions.
    pub(crate) records_dropped: u64,
}

/// One metadata shard: its op log, the single-server queue the admission
/// model charges against, and its counters. The files it owns are the
/// inos [`super::router::ShardRouter`] maps to it; their records sit in
/// the plane's one file table.
#[derive(Debug)]
pub(crate) struct MetaShard {
    pub(crate) id: usize,
    /// The shard's append-only mutation log.
    pub(crate) log: OpLog,
    /// When this shard next becomes free (simulated ps) — the
    /// single-server queue behind which routed ops wait.
    pub(crate) busy_until_ps: u64,
    pub(crate) stats: ShardStats,
}

impl MetaShard {
    pub(crate) fn new(id: usize) -> MetaShard {
        MetaShard {
            id,
            log: OpLog::default(),
            busy_until_ps: 0,
            stats: ShardStats::default(),
        }
    }
}

/// Which service-time bucket a routed op occupies its shard for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ServiceClass {
    Mutation,
    Resolve,
}

/// What [`ControlPlane::recover_shards`] did with the dangling intents
/// it found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxRecovery {
    pub rolled_forward: u64,
    pub rolled_back: u64,
}

impl ControlPlane {
    /// Arm the deterministic crash switch (fault harness): the
    /// coordinator dies right after the `n`-th transaction record it
    /// appends from now on — `Intent`, `Applied`, `Commit` or `Abort`;
    /// single-shard `Apply` records are acked in place and do not count.
    /// The op in flight returns [`MetaError::TxAborted`] whatever it had
    /// applied by then, and the switch disarms itself. A cross-shard op
    /// that succeeds appends `2 × participants + 1` records, so sweeping
    /// `n` over that range visits every crash boundary of the protocol.
    pub fn crash_after_appends(&mut self, n: u32) {
        self.crash_after = n;
    }

    /// Admission control for the most recent routed operation: charge
    /// the queueing delay of its shard and occupy the shard for the
    /// op's service time. Returns the wait (ps) the caller must add to
    /// the op's completion latency. Callers that never admit (direct
    /// test drivers) simply skip the queueing model — state effects are
    /// identical either way.
    pub fn admit_last(&mut self, now_ps: u64) -> u64 {
        let Some((shard, class)) = self.last_route.take() else {
            return 0;
        };
        let service_ps = match class {
            ServiceClass::Mutation => MUTATE_SERVICE.ps(),
            ServiceClass::Resolve => RESOLVE_SERVICE.ps(),
        };
        let sh = &mut self.shards[shard];
        let wait = sh.busy_until_ps.saturating_sub(now_ps);
        sh.busy_until_ps = now_ps + wait + service_ps;
        sh.stats.queue_wait_ps += wait;
        wait
    }

    /// Forget the route an earlier call left without admitting it (write
    /// placement and commit, namespace set-up): a client op calls this
    /// before it routes, so if it routes nothing it admits nothing.
    pub(crate) fn clear_route(&mut self) {
        self.last_route = None;
    }

    /// Record that a public op was routed to `shard` (stats + the
    /// admission hook's target).
    pub(super) fn note_route(&mut self, shard: usize, class: ServiceClass) {
        let st = &mut self.shards[shard].stats;
        st.ops += 1;
        match class {
            ServiceClass::Mutation => st.mutations += 1,
            ServiceClass::Resolve => st.resolves += 1,
        }
        self.last_route = Some((shard, class));
    }

    /// The one op-log append, and the one place the crash switch is
    /// checked: `Err(TxAborted)` means the coordinator died with `entry`
    /// durable and nothing after it.
    fn append(&mut self, shard: usize, entry: LogEntry) -> Result<(), MetaError> {
        let in_transaction = !matches!(entry, LogEntry::Apply { .. });
        self.shards[shard].log.append(entry);
        if in_transaction && self.crash_after > 0 {
            self.crash_after -= 1;
            if self.crash_after == 0 {
                return Err(MetaError::TxAborted);
            }
        }
        Ok(())
    }

    /// Log a single-shard mutation on `shard` (the async-ack point).
    pub(super) fn log_apply(&mut self, shard: usize, op: MetaMutation) {
        self.append(shard, LogEntry::Apply { op })
            .expect("Apply records are outside the crash switch");
    }

    /// The one namespace-mutation path: route to `coordinator`, run
    /// `apply` (which calls back the caches itself), log.
    ///
    /// The participant set is `coordinator` plus whichever of `others`
    /// are distinct shards (at most three in all — a rename's two parent
    /// directories and a replaced target — so it lives on the stack),
    /// visited in shard order. One participant: `apply`, then an `Apply`
    /// record if it succeeded. Several: `Intent` on each, `apply`, then
    /// `Applied` on the coordinator and `Commit` on each — or `Abort` on
    /// each when validation refused the op, so recovery has nothing to
    /// do. A crash (see `append`) leaves whatever was logged so far for
    /// [`Self::recover_shards`].
    ///
    /// `op` is what the log records. A create or mkdir learns its ino
    /// only by applying, so `apply` may rewrite `op` before it is logged;
    /// an `Intent` is logged first and records `op` as passed.
    pub(super) fn transact<T>(
        &mut self,
        coordinator: usize,
        others: [Option<usize>; 2],
        mut op: MetaMutation,
        apply: impl FnOnce(&mut Self, &mut MetaMutation) -> Result<T, MetaError>,
    ) -> Result<T, MetaError> {
        let mut set = [coordinator; 3];
        let mut n = 1;
        for s in others.into_iter().flatten() {
            if !set[..n].contains(&s) {
                set[n] = s;
                n += 1;
            }
        }
        let participants = &mut set[..n];
        participants.sort_unstable();
        self.note_route(coordinator, ServiceClass::Mutation);
        let txid = (n > 1).then(|| {
            self.next_txid += 1;
            self.next_txid - 1
        });
        if let Some(txid) = txid {
            for &s in participants.iter() {
                let op = op.clone();
                self.append(s, LogEntry::Intent { txid, op })?;
            }
        }
        let r = apply(self, &mut op);
        match (txid, &r) {
            (None, Ok(_)) => self.log_apply(coordinator, op),
            (None, Err(_)) => {}
            (Some(txid), Ok(_)) => {
                self.append(coordinator, LogEntry::Applied { txid })?;
                for &s in participants.iter() {
                    self.append(s, LogEntry::Commit { txid })?;
                }
                self.shards[coordinator].stats.cross_shard_txns += 1;
            }
            (Some(txid), Err(_)) => {
                for &s in participants.iter() {
                    self.append(s, LogEntry::Abort { txid })?;
                }
            }
        }
        r
    }

    /// Crash recovery for the shard logs: resolve every dangling intent.
    /// A transaction some shard witnessed as `Applied` rolls forward
    /// (append the missing `Commit`s); one with no witness rolls back
    /// (append `Abort`s — the namespace mutation never happened, per
    /// the intent-before-apply protocol order).
    pub fn recover_shards(&mut self) -> TxRecovery {
        // This is the restart: a switch still armed belonged to the
        // process that died.
        self.crash_after = 0;
        let mut dangling: Vec<(u64, usize)> = self
            .shards
            .iter()
            .flat_map(|s| s.log.dangling_intents().into_iter().map(|t| (t, s.id)))
            .collect();
        dangling.sort_unstable();
        let mut rec = TxRecovery::default();
        for group in dangling.chunk_by(|a, b| a.0 == b.0) {
            let txid = group[0].0;
            let applied = self.shards.iter().any(|s| s.log.has_applied(txid));
            if applied {
                rec.rolled_forward += 1;
            } else {
                rec.rolled_back += 1;
            }
            for &(_, shard) in group {
                let entry = if applied {
                    LogEntry::Commit { txid }
                } else {
                    LogEntry::Abort { txid }
                };
                self.append(shard, entry).expect("switch disarmed above");
            }
        }
        rec
    }

    /// Per-shard stats snapshot (index = shard id).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Per-shard op-log lengths (index = shard id).
    pub fn shard_log_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.log.len()).collect()
    }
}
