//! Read-side resolution: extent-map walks, the sequential-scan detector,
//! and quiescent-time extent-map compaction.

use super::*;

/// Don't bother compacting tiny maps: below this many records the walk
/// is cheap and the churn isn't worth the generation bump.
const COMPACT_MIN: usize = 32;

impl ControlPlane {
    /// Resolve a ranged read into fetchable pieces: clamp to the
    /// committed size (short reads past EOF, like `pread`), then walk
    /// the extent map routing around failed nodes. Any stripe the plan
    /// serves through degraded reconstruction is promoted to the front of
    /// the repair queue — the client is paying for that extent right now.
    /// Counts one control round-trip in the metadata ledger (the RPC a
    /// client read cache absorbs).
    pub fn resolve_read(
        &mut self,
        file: u64,
        offset: u64,
        len: u32,
    ) -> Result<ReadPlan, MetaError> {
        let shard = self.shard_of(file);
        let f = self
            .files
            .get_mut(&file)
            .ok_or(MetaError::UnknownFile(file))?;
        // Saturate: `offset + len` can exceed u64::MAX (a hostile or
        // buggy offset) — the overflow would panic in debug builds and
        // wrap in release, turning an out-of-range read into a bogus
        // plan. Saturating yields `end == size`, hence a clean
        // zero-length short read.
        let end = offset.saturating_add(len as u64).min(f.meta.size);
        let clamped = end.saturating_sub(offset) as u32;
        // Nothing committed yet: the whole (clamped) range is a hole.
        let plan = f.extents.resolve(offset, clamped, &self.failed_nodes);
        // Sequential-scan detector over resolve traffic: the third
        // back-to-back resolve of the same file advertises the region
        // ahead of the reader to every subscribed read cache (including
        // other clients, which is where an advisory beats purely local
        // detection).
        let mut scanning = false;
        if plan.is_ok() && clamped > 0 {
            let sequential = f.scan.1 > 0 && offset == f.scan.0;
            f.scan = (end, if sequential { f.scan.1 + 1 } else { 1 });
            scanning = sequential && f.scan.1 >= 3;
        }
        self.meta_stats.resolves += 1;
        self.note_route(shard, ServiceClass::Resolve);
        let plan = plan?;
        for piece in &plan.pieces {
            if let ReadPiece::Degraded { rec, .. } = piece {
                self.repair_queue.promote(RepairTask { file, rec: *rec });
            }
        }
        if scanning {
            let hint_len = (clamped as u64 * 4).min(1 << 20) as u32;
            self.notify(MetaEvent::PrefetchHint {
                ino: file,
                offset: end,
                len: hint_len,
            });
        }
        Ok(plan)
    }

    /// `file`'s live extent-map generation (0 before the first commit,
    /// bumped by every commit, re-homing and compaction), `None` once gone.
    pub fn live_generation(&self, file: u64) -> Option<u64> {
        self.files.get(&file).map(|f| f.extents.generation())
    }

    /// [`Self::live_generation`], with 0 for a file that is gone.
    pub fn extent_generation(&self, file: u64) -> u64 {
        self.live_generation(file).unwrap_or(0)
    }

    /// Every committed extent record in the cluster, in the file table's
    /// order, which means nothing: every caller counts or sums.
    pub(super) fn all_records(&self) -> impl Iterator<Item = &ExtentRecord> {
        self.files.values().flat_map(|f| f.extents.records())
    }

    /// Bytes the extent maps currently place across the cluster — the
    /// conservation target for the [`NodeLedger`] hosted gauges: at any
    /// point, `sum(bytes_hosted) == live_extent_bytes()`.
    pub fn live_extent_bytes(&self) -> u64 {
        self.all_records()
            .map(|r| r.shard_len() as u64 * r.shard_coords().count() as u64)
            .sum()
    }

    /// Shards the extent maps currently place across the cluster — the
    /// conservation target for the `chunks_hosted` gauges.
    pub fn live_extent_shards(&self) -> u64 {
        self.all_records()
            .map(|r| r.shard_coords().count() as u64)
            .sum()
    }

    /// Compact `file`'s extent map if it has grown enough and the
    /// cluster is quiescent. `RepairTask.rec` and `ReadPiece::Degraded`
    /// hold *positional* record indices, so compaction only runs when
    /// nothing can be holding one: no failed nodes, an empty repair
    /// queue, and no popped-but-uncommitted repair in flight. Dropped
    /// records leave the hosted gauges (their bytes stopped being
    /// referenced), and the generation bump rides the same
    /// `LayoutChanged` callback as a commit so read caches drop stale
    /// plans.
    pub(super) fn maybe_compact(&mut self, file: u64) {
        if !self.failed_nodes.is_empty()
            || !self.repair_queue.is_empty()
            || !self.inflight_repairs.is_empty()
        {
            return;
        }
        let Some(f) = self.files.get_mut(&file) else {
            return;
        };
        if f.extents.len() < COMPACT_MIN.max(2 * f.compact_floor) {
            return;
        }
        let (nodes, failed) = (&mut self.nodes, &self.failed_nodes);
        let result = f.extents.compact(|rec| unhost_record(nodes, failed, rec));
        f.compact_floor = f.extents.len();
        let generation = f.extents.generation();
        if result.dropped == 0 {
            return;
        }
        let stats = &mut self.shards[self.router.route(file)].stats;
        stats.compactions += 1;
        stats.records_dropped += result.dropped as u64;
        self.notify(MetaEvent::LayoutChanged {
            ino: file,
            generation,
        });
    }
}
