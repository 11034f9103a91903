//! Metadata shards, their op-log appends, and the one mutation path.
//!
//! A shard models a metadata server: an op log, a single-server admission
//! queue and its counters. The [`super::router::ShardRouter`] says which
//! shard owns an ino; the file records themselves sit in the plane's one
//! table. Mutations are *asynchronous* (AsyncFS-style): the owning shard
//! appends the mutation to its log and the client is acked after the
//! append — the in-memory apply and the cache callbacks happen off the
//! ack path. The namespace lives in memory and survives a coordinator
//! crash; what the log has to make durable is the outcome of each
//! cross-shard transaction. So a shard only counts its appends (its
//! `log_len`), and the plane keeps one table of open transactions that
//! holds each cross-shard commit until every participant has resolved
//! it, as Lustre's recovery logs cancel a record once the operation it
//! protects has committed.
//!
//! Every namespace mutation runs through `ControlPlane::transact`: a
//! participant set plus an apply step. One participant logs `Apply` and
//! is done. Several (rename across parent directories, unlink whose
//! parent and target hash apart) run a two-phase intent/commit protocol:
//! every participant logs an `Intent`, the coordinator applies and logs
//! `Applied`, then all participants log `Commit`.
//! [`ControlPlane::recover_shards`] resolves the open transactions after
//! a crash: one rolls forward iff the coordinator logged `Applied`, and
//! rolls back otherwise. Every log record goes through
//! `ControlPlane::append`, which counts it, keeps the table, and is also
//! where the fault harness's [`ControlPlane::crash_after_appends`] switch
//! kills the coordinator.

use super::*;
use crate::config::{MUTATE_SERVICE, RESOLVE_SERVICE};

/// One record a shard appends. The shard keeps only their count; the
/// plane's table of open transactions keeps what recovery reads of the
/// transaction records.
#[derive(Clone, Copy, Debug)]
enum LogEntry {
    /// A single-shard mutation: logged and acked, applied in place.
    Apply,
    /// Cross-shard transaction phase 1: this shard is a participant.
    Intent { txid: u64 },
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

/// A cross-shard transaction that some participant has not resolved: all
/// the plane keeps of a transaction, from its first `Intent` until its
/// last participant logs `Commit` or `Abort`. The `Applied` witness lives
/// as long as the entry, so a participant that has not committed yet
/// still rolls forward after the coordinator has.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpenTx {
    txid: u64,
    /// The participants (at most three) that logged an `Intent` and no
    /// `Commit`/`Abort` yet, in shard order.
    pending: [Option<usize>; 3],
    /// The coordinator logged `Applied`.
    applied: bool,
}

nadfs_simnet::declare_stats! {
    /// Per-shard observable counters, exported as `meta.shard.N.*`.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct ShardStats {
        /// Every routed operation (mutations + resolves).
        pub ops: u64 => counter,
        /// Namespace/extent mutations routed here.
        pub mutations: u64 => counter,
        /// Read-side resolves routed here.
        pub(crate) resolves: u64 => counter,
        /// Total simulated time ops spent queued behind this shard
        /// (admission-control wait, picoseconds).
        pub queue_wait_ps: u64 => counter,
        /// Cross-shard transactions this shard coordinated.
        pub cross_shard_txns: u64 => counter,
        /// Extent-map compactions run on files this shard owns.
        pub compactions: u64 => counter,
        /// Fully-shadowed extent records dropped by those compactions.
        pub(crate) records_dropped: u64 => counter,
    }
}

/// One metadata shard: how many records it appended, the single-server
/// queue the admission model charges against, and its counters. The
/// files it owns are the inos [`super::router::ShardRouter`] maps to it;
/// their records sit in the plane's one file table.
#[derive(Clone, Debug, Default)]
pub(crate) struct MetaShard {
    /// Records appended to this shard's log since the plane was built.
    log_len: usize,
    /// When this shard next becomes free (simulated ps) — the
    /// single-server queue behind which routed ops wait.
    busy_until_ps: u64,
    pub(crate) stats: ShardStats,
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
        self.shards[shard].log_len += 1;
        let open = &mut self.open_txs;
        let at = |open: &[OpenTx], txid| {
            let i = open.iter().position(|tx| tx.txid == txid);
            i.expect("a transaction logs its intents first")
        };
        match entry {
            LogEntry::Apply => return Ok(()),
            // A transaction's intents are its first records and txids
            // only grow, so an intent extends the last entry or opens a
            // new one, and the table stays in txid order.
            LogEntry::Intent { txid } => match open.last_mut() {
                Some(tx) if tx.txid == txid => {
                    let free = tx.pending.iter_mut().find(|s| s.is_none());
                    *free.expect("at most three participants") = Some(shard);
                }
                _ => open.push(OpenTx {
                    txid,
                    pending: [Some(shard), None, None],
                    applied: false,
                }),
            },
            LogEntry::Applied { txid } => {
                let i = at(open, txid);
                open[i].applied = true;
            }
            LogEntry::Commit { txid } | LogEntry::Abort { txid } => {
                let i = at(open, txid);
                let pending = &mut open[i].pending;
                let me = pending.iter_mut().find(|s| **s == Some(shard));
                *me.expect("a participant") = None;
                if pending.iter().all(Option::is_none) {
                    open.remove(i);
                }
            }
        }
        if self.crash_after > 0 {
            self.crash_after -= 1;
            if self.crash_after == 0 {
                return Err(MetaError::TxAborted);
            }
        }
        Ok(())
    }

    /// Log a single-shard mutation on `shard` (the async-ack point).
    pub(super) fn log_apply(&mut self, shard: usize) {
        self.append(shard, LogEntry::Apply)
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
    pub(super) fn transact<T>(
        &mut self,
        coordinator: usize,
        others: [Option<usize>; 2],
        apply: impl FnOnce(&mut Self) -> Result<T, MetaError>,
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
                self.append(s, LogEntry::Intent { txid })?;
            }
        }
        let r = apply(self);
        match (txid, &r) {
            (None, Ok(_)) => self.log_apply(coordinator),
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

    /// Crash recovery for the shard logs: resolve every open transaction,
    /// in txid order. One the coordinator witnessed as `Applied` rolls
    /// forward (append the missing `Commit`s); one with no witness rolls
    /// back (append `Abort`s — the namespace mutation never happened, per
    /// the intent-before-apply protocol order). Each participant still
    /// pending gets its record, in shard order, and the last one closes
    /// the transaction.
    pub fn recover_shards(&mut self) -> TxRecovery {
        // This is the restart: a switch still armed belonged to the
        // process that died.
        self.crash_after = 0;
        let mut rec = TxRecovery::default();
        while let Some(&tx) = self.open_txs.first() {
            let entry = if tx.applied {
                rec.rolled_forward += 1;
                LogEntry::Commit { txid: tx.txid }
            } else {
                rec.rolled_back += 1;
                LogEntry::Abort { txid: tx.txid }
            };
            for shard in tx.pending.into_iter().flatten() {
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
        self.shards.iter().map(|s| s.log_len).collect()
    }
}
