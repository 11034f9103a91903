//! Background re-protection: the repair queue, repair planning, and the
//! failure/recovery reconciliation that feeds it.

use super::*;

/// One extent awaiting re-protection: a record of `file`'s extent map
/// with at least one shard on a failed node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RepairTask {
    pub file: u64,
    /// Record id within the file's extent map (commit order).
    pub rec: usize,
}

nadfs_simnet::declare_stats! {
    /// Observable repair-pipeline counters.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct RepairStats {
        /// Tasks ever enqueued (dedup hits not counted).
        pub(crate) enqueued: u64 => counter,
        /// Tasks moved to (or inserted at) the queue front by a degraded
        /// read hit.
        pub promoted: u64 => counter,
        /// Repairs committed into extent maps.
        pub committed: u64 => counter,
        /// Tasks pushed back for another attempt after a transient failure.
        pub requeued: u64 => counter,
        /// Shards re-homed by committed repairs.
        pub(crate) shards_rehomed: u64 => counter,
        /// Tasks dropped by node-recovery reconciliation: their extent no
        /// longer references any failed node, so repairing them would be a
        /// no-op walk of the queue.
        pub dropped_on_recovery: u64 => counter,
        /// Shards re-adopted at recovery: still current in the extent map
        /// (never re-homed during the outage), so the recovered node's copy
        /// is live data again, not garbage.
        pub shards_readopted: u64 => counter,
    }
}

/// The prioritized repair queue: FIFO for failure-scan enqueues, with
/// degraded-read hits promoting their extent to the front (the extent a
/// client is actively paying reconstruction for is the one to fix first).
/// Membership is deduplicated — an extent is queued at most once.
#[derive(Debug, Default)]
pub struct RepairQueue {
    q: VecDeque<RepairTask>,
    queued: IdSet<RepairTask>,
    pub stats: RepairStats,
}

impl RepairQueue {
    /// Enqueue at the back; returns false if already queued.
    pub fn push_back(&mut self, t: RepairTask) -> bool {
        if !self.queued.insert(t) {
            return false;
        }
        self.q.push_back(t);
        self.stats.enqueued += 1;
        true
    }

    /// Move `t` to the front (inserting it if absent): the degraded-read
    /// promotion path.
    pub fn promote(&mut self, t: RepairTask) {
        if self.queued.insert(t) {
            self.stats.enqueued += 1;
        } else if let Some(i) = self.q.iter().position(|&x| x == t) {
            if i == 0 {
                return; // already at the front; not a promotion
            }
            self.q.remove(i);
        }
        self.q.push_front(t);
        self.stats.promoted += 1;
    }

    /// Take the highest-priority task.
    pub fn pop(&mut self) -> Option<RepairTask> {
        let t = self.q.pop_front()?;
        self.queued.remove(&t);
        Some(t)
    }

    pub fn peek(&self) -> Option<RepairTask> {
        self.q.front().copied()
    }

    pub fn contains(&self, t: RepairTask) -> bool {
        self.queued.contains(&t)
    }

    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Drop every queued task `keep` rejects (preserving order for the
    /// rest), rebuild the dedup set, and return how many were dropped.
    /// Recovery reconciliation uses this to purge tasks made obsolete by
    /// a node coming back.
    pub(crate) fn retain_tasks(&mut self, mut keep: impl FnMut(&RepairTask) -> bool) -> u64 {
        let before = self.q.len();
        self.q.retain(|t| keep(t));
        self.queued = self.q.iter().copied().collect();
        (before - self.q.len()) as u64
    }
}

/// How one popped [`RepairTask`] gets executed on the data path.
#[derive(Clone, Debug)]
pub enum RepairPlan {
    /// Every shard is on a healthy node (the failure was transient, or an
    /// earlier repair already re-homed it): nothing to move.
    AlreadyHealthy,
    /// Erasure-coded stripe: fetch the k surviving shards in `fetch`
    /// (shard index, coordinate), reconstruct the shards in `rebuild`
    /// (data or parity), and write each to its pre-allocated spare
    /// coordinate.
    EcRebuild {
        scheme: RsScheme,
        chunk_len: u32,
        fetch: Vec<(usize, ReplicaCoord)>,
        rebuild: Vec<(usize, ReplicaCoord)>,
    },
    /// Replicated extent: copy `len` bytes from the surviving `src`
    /// replica to a spare coordinate per lost replica slot.
    ReplicaClone {
        len: u32,
        src: ReplicaCoord,
        dest: Vec<(usize, ReplicaCoord)>,
    },
}

impl RepairPlan {
    /// The (shard slot, spare coordinate) rewrites this plan commits once
    /// the data movement succeeds.
    pub fn replacements(&self) -> Vec<(usize, ReplicaCoord)> {
        match self {
            RepairPlan::AlreadyHealthy => vec![],
            RepairPlan::EcRebuild { rebuild, .. } => rebuild.clone(),
            RepairPlan::ReplicaClone { dest, .. } => dest.clone(),
        }
    }
}

impl ControlPlane {
    /// Mark a storage node failed: reads route around it (replica
    /// failover, degraded EC reconstruction), and every committed extent
    /// with a shard on the node is enqueued for background re-protection.
    pub fn mark_node_failed(&mut self, node: u32) {
        if !self.failed_nodes.insert(node) {
            return; // already failed; extents are already queued
        }
        // Enqueue in sorted (file, rec) order so the repair queue — and
        // everything downstream of it (placement, bandwidth throttling
        // cut points) — is identical across runs with the same seed,
        // whatever order the file table iterates in.
        let mut tasks: Vec<RepairTask> = Vec::new();
        for (&file, f) in &self.files {
            for rec in f.extents.affected_records(node) {
                tasks.push(RepairTask { file, rec });
            }
        }
        tasks.sort_unstable_by_key(|t| (t.file, t.rec));
        for t in tasks {
            self.repair_queue.push_back(t);
        }
    }

    /// Bring a storage node back and reconcile its state with what
    /// changed while it was down. Un-failing alone would leak: repairs
    /// re-homed shards away and unlinks dropped whole files during the
    /// outage, so the node comes back holding copies the metadata no
    /// longer references. Reconciliation:
    ///
    /// 1. garbage-collects those stale copies (the orphan ledger built up
    ///    at re-home/unlink time) into the node's reclaim counters,
    /// 2. re-adopts shards still current in the extent map — they are
    ///    live data again and keep their place in the hosted gauges,
    /// 3. drops repair-queue tasks made obsolete by the recovery (their
    ///    extent no longer references any failed node).
    pub fn mark_node_recovered(&mut self, node: u32) {
        if !self.failed_nodes.remove(&node) {
            return; // not failed; nothing to reconcile
        }
        if let Some(l) = ledger_of(&mut self.nodes, node) {
            let (chunks, bytes) = std::mem::take(&mut l.orphaned);
            l.stale_chunks_reclaimed += chunks;
            l.stale_bytes_reclaimed += bytes;
        }
        let readopted = self
            .all_records()
            .flat_map(|r| r.shard_coords())
            .filter(|(_, c)| c.node == node)
            .count();
        self.repair_queue.stats.shards_readopted += readopted as u64;
        let files = &self.files;
        let failed = &self.failed_nodes;
        let dropped = self.repair_queue.retain_tasks(|t| {
            files
                .get(&t.file)
                .and_then(|f| f.extents.records().get(t.rec))
                .is_some_and(|r| r.shard_coords().any(|(_, c)| failed.contains(&c.node)))
        });
        self.repair_queue.stats.dropped_on_recovery += dropped;
    }

    pub fn failed_nodes(&self) -> &FailedNodes {
        &self.failed_nodes
    }

    /// Allocate a spare coordinate for every shard of `coords` that sits
    /// on a failed node: a healthy node not already hosting a shard of
    /// the extent (nor chosen for an earlier slot), rotating so
    /// consecutive repairs spread. `span(slot)` is the slot's allocation
    /// size. [`MetaError::NoSpareNode`] when the cluster has no eligible
    /// node left.
    fn plan_spares(
        &mut self,
        coords: &[(usize, ReplicaCoord)],
        span: impl Fn(usize) -> u64,
    ) -> Result<Vec<(usize, ReplicaCoord)>, MetaError> {
        let n = self.nodes.len();
        let mut in_use: Vec<u32> = coords.iter().map(|(_, c)| c.node).collect();
        let mut spares = Vec::new();
        for &(slot, lost) in coords {
            if !self.failed_nodes.contains(&lost.node) {
                continue;
            }
            let index = (0..n)
                .map(|i| (self.next_spare + i) % n)
                .find(|&i| {
                    let id = self.nodes[i].id as u32;
                    !self.failed_nodes.contains(&id) && !in_use.contains(&id)
                })
                .ok_or(MetaError::NoSpareNode)?;
            self.next_spare = (index + 1) % n;
            let spare = self.alloc_on(index, span(slot));
            in_use.push(spare.node);
            spares.push((slot, spare));
        }
        Ok(spares)
    }

    /// Plan the repair of one queued extent: which surviving shards to
    /// fetch, which shards to rebuild, and the spare coordinates (freshly
    /// allocated here) the re-protected data will live at. Unrepairable
    /// extents are typed errors: a plain extent on a failed node has no
    /// redundancy ([`MetaError::DataUnavailable`]), an EC stripe with
    /// fewer than k survivors is lost ([`MetaError::TooManyFailures`]),
    /// and a cluster with every healthy node already holding a shard has
    /// nowhere to re-protect to ([`MetaError::NoSpareNode`]).
    pub fn plan_repair(&mut self, task: RepairTask) -> Result<RepairPlan, MetaError> {
        let record = self
            .files
            .get(&task.file)
            .and_then(|f| f.extents.records().get(task.rec))
            .ok_or(MetaError::UnknownFile(task.file))?;
        let coords: Vec<_> = record.shard_coords().collect();
        let mut survivors = coords.clone();
        survivors.retain(|(_, c)| !self.failed_nodes.contains(&c.node));
        if survivors.len() == coords.len() {
            return Ok(RepairPlan::AlreadyHealthy);
        }
        match *record {
            ExtentRecord::Plain { coord, .. } => {
                Err(MetaError::DataUnavailable { node: coord.node })
            }
            ExtentRecord::Replicated { len, .. } => {
                let Some(&(_, src)) = survivors.first() else {
                    let node = coords[0].1.node;
                    return Err(MetaError::DataUnavailable { node });
                };
                let dest = self.plan_spares(&coords, |_| len as u64)?;
                Ok(RepairPlan::ReplicaClone { len, src, dest })
            }
            ExtentRecord::Ec {
                offset,
                chunk_len,
                scheme,
                ..
            } => {
                let k = scheme.k as usize;
                if survivors.len() < k {
                    return Err(MetaError::TooManyFailures {
                        stripe_offset: offset,
                    });
                }
                survivors.truncate(k);
                // A parity spare gets a whole parity region, as placement
                // gives every parity.
                let rebuild = self.plan_spares(&coords, |slot| {
                    if slot >= k {
                        scheme.parity_region(chunk_len)
                    } else {
                        chunk_len as u64
                    }
                })?;
                Ok(RepairPlan::EcRebuild {
                    scheme,
                    chunk_len,
                    fetch: survivors,
                    rebuild,
                })
            }
        }
    }

    /// Commit a finished repair: rewrite the extent's shard coordinates
    /// to the spare locations, bump the map generation, and invalidate
    /// client caches through the namespace's version/callback machinery
    /// (the same channel every other metadata mutation rides).
    pub fn commit_repair(
        &mut self,
        task: RepairTask,
        replacements: &[(usize, ReplicaCoord)],
        now_ns: u64,
    ) -> Result<(), MetaError> {
        // The task is leaving the pipeline whether the commit lands or
        // errors out below — either way it stops blocking compaction.
        self.inflight_repairs.remove(&task);
        let shard = self.shard_of(task.file);
        let map = &mut self
            .files
            .get_mut(&task.file)
            .ok_or(MetaError::UnknownFile(task.file))?
            .extents;
        let rec = map.records().get(task.rec).ok_or(MetaError::NotFound)?;
        let bytes = rec.shard_len() as u64;
        // The replaced copies stop being live data the moment the map
        // points elsewhere, and the ones on failed nodes become orphans
        // to reclaim at recovery.
        let (nodes, failed) = (&mut self.nodes, &self.failed_nodes);
        map.rehome(task.rec, replacements, |old| {
            unhost(nodes, failed, old.node, bytes)
        })?;
        let generation = map.generation();
        self.log_apply(shard);
        self.repair_queue.stats.committed += 1;
        self.repair_queue.stats.shards_rehomed += replacements.len() as u64;
        for &(_, coord) in replacements {
            if let Some(l) = ledger_of(&mut self.nodes, coord.node) {
                l.repair_chunks_hosted += 1;
            }
            host(&mut self.nodes, coord.node, bytes);
        }
        // A spare can itself fail while the repair's data movement is in
        // flight; the failure scan ran before this rehome so it could not
        // see the new coordinates. Re-enqueue the extent — especially for
        // replicated records, which fail over silently and would
        // otherwise run with reduced redundancy forever.
        if replacements
            .iter()
            .any(|(_, c)| self.failed_nodes.contains(&c.node))
        {
            self.repair_queue.push_back(task);
        }
        // Bump the inode's version so version checks see the re-homing,
        // and call back so caches drop stale entries and stale data. A
        // file unlinked while its repair was in flight is left alone.
        if self.ns.append(task.file, 0, now_ns).is_ok() {
            self.notify_changed_ino(task.file);
            self.notify(MetaEvent::LayoutChanged {
                ino: task.file,
                generation,
            });
        }
        Ok(())
    }

    /// Take the next repair task (highest priority first). The task is
    /// in flight — compaction holds off until it commits, is requeued,
    /// or is abandoned (its `rec` is a positional index into the file's
    /// extent map, which compaction would shift).
    pub fn pop_repair(&mut self) -> Option<RepairTask> {
        let t = self.repair_queue.pop()?;
        self.inflight_repairs.insert(t);
        Some(t)
    }

    /// Put a task back for another attempt after a transient failure.
    pub fn requeue_repair(&mut self, task: RepairTask) {
        self.inflight_repairs.remove(&task);
        if self.repair_queue.push_back(task) {
            self.repair_queue.stats.requeued += 1;
        }
    }

    /// A popped task is leaving the pipeline without a commit (planning
    /// error, already healthy, retry budget exhausted): release its
    /// in-flight claim so compaction can run again.
    pub fn abandon_repair(&mut self, task: RepairTask) {
        self.inflight_repairs.remove(&task);
    }

    /// Tasks popped but not yet committed/requeued/abandoned.
    pub fn inflight_repair_count(&self) -> usize {
        self.inflight_repairs.len()
    }
}
