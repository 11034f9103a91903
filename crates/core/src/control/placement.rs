//! Write placement and commit: what a client is told about a file and a
//! write ([`FileMeta`], [`WritePlacement`]), where every byte (and
//! parity) goes, the per-file record (`FileState`) and the per-node
//! record (`NodeState`) that allocates the addresses and keeps the node's
//! [`NodeLedger`].

use super::*;

/// A file's placement state, as handed to clients. Its layout and policy
/// are not here: the file's namespace inode owns them.
#[derive(Clone, Copy, Debug)]
pub struct FileMeta {
    /// The file id (its inode number in the namespace).
    pub id: u64,
    /// Committed (durable) bytes: advanced when a write's placement is
    /// committed into the extent map, never by placement alone. This is
    /// what `stat` reflects and what read planning clamps against — a
    /// write that is rejected or never acknowledged must not create
    /// phantom EOF state.
    pub(crate) size: u64,
    /// The placement cursor: appends place at this offset, and it
    /// advances at *placement* time so pipelined appends never overlap.
    /// Runs ahead of `size` while writes are in flight; a rejected write
    /// leaves a permanent gap between the two (the file is sparse there
    /// if a later write commits past it).
    pub(crate) cursor: u64,
}

/// What the control plane holds about one file beside its inode, in one
/// table keyed by ino: create installs it, and unlink and rename-replace
/// remove it.
#[derive(Debug)]
pub(crate) struct FileState {
    pub(crate) meta: FileMeta,
    /// Committed extents (empty until the first commit).
    pub(crate) extents: ExtentMap,
    /// The map's length after its last compaction, so the next one only
    /// triggers after real growth.
    pub(crate) compact_floor: usize,
    /// Sequential-scan detector over resolve traffic: where the last
    /// resolve ended, and how many have run back-to-back.
    pub(crate) scan: (u64, u32),
}

/// The layout and policy `file`'s namespace inode owns. A missing inode,
/// or a directory's, is an unknown file, as a missing record is.
pub(super) fn file_node(
    ns: &Namespace,
    file: u64,
) -> Result<(&StripedLayout, &FilePolicy), MetaError> {
    let node = ns.inode(file).ok().and_then(|i| i.file());
    node.map(|f| (&f.layout, &f.policy))
        .ok_or(MetaError::UnknownFile(file))
}

/// One striped piece of a plain write: a concrete (node, addr) target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeTarget {
    pub coord: ReplicaCoord,
    pub len: u32,
    /// Logical byte offset within the file.
    pub file_offset: u64,
}

/// Placement of one write: where every byte (and parity) goes.
#[derive(Clone, Debug)]
pub struct WritePlacement {
    pub(crate) greq: u64,
    /// Primary target (node, address).
    pub primary: ReplicaCoord,
    /// All replica coordinates including the primary, in virtual-rank
    /// order (replication only).
    pub replicas: Vec<ReplicaCoord>,
    /// Data-chunk coordinates (EC only), one per data node.
    pub data_chunks: Vec<ReplicaCoord>,
    /// Parity coordinates (EC only).
    pub parities: Vec<ReplicaCoord>,
    /// EC chunk length (bytes per data chunk).
    pub chunk_len: u32,
    /// Logical file offset this placement writes at.
    pub offset: u64,
    /// Bytes by which this placement advanced the file's placement
    /// cursor (0 for retries and pure overwrites). Informational — the
    /// attr write-back uses the committed-size growth `commit_write`
    /// reports, not this placement-time figure.
    pub appended: u64,
    /// Striped plain-write targets, in file order (width > 1 layouts
    /// only; empty means "single extent at `primary`").
    pub stripes: Vec<StripeTarget>,
}

impl WritePlacement {
    /// A placement with no coordinates yet: each policy fills in its own.
    fn empty(greq: u64, offset: u64, appended: u64) -> WritePlacement {
        WritePlacement {
            greq,
            primary: ReplicaCoord { node: 0, addr: 0 },
            replicas: vec![],
            data_chunks: vec![],
            parities: vec![],
            chunk_len: 0,
            offset,
            appended,
            stripes: vec![],
        }
    }

    /// Placement for a request that was rejected before placement (the
    /// failed-job record still carries a `WritePlacement`).
    pub(crate) fn rejected(greq: u64) -> WritePlacement {
        WritePlacement::empty(greq, 0, 0)
    }
}

/// What the control plane has put on one storage node, and stranded
/// there: placement and repair counters, the hosted gauges, and the
/// orphan and reclaim ledgers recovery reconciles. The plane keeps it;
/// what a node's own software did, the node counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeLedger {
    /// Stripe units placed on this node (striped plain writes only —
    /// replication/EC fan-out is not counted here).
    pub stripe_chunks_placed: u64,
    /// Re-protected shards the repair pipeline committed to this node
    /// (this node was chosen as the spare).
    pub repair_chunks_hosted: u64,
    /// Gauge: extent shards currently live on this node per the extent
    /// maps (commit adds, re-home away / unlink / compaction subtracts).
    pub chunks_hosted: u64,
    /// Gauge: payload bytes behind `chunks_hosted`.
    pub bytes_hosted: u64,
    /// Shards garbage-collected by recovery reconciliation: the extent
    /// was re-homed (or unlinked) while this node was down, so its copy
    /// came back stale and was reclaimed.
    pub stale_chunks_reclaimed: u64,
    /// Payload bytes behind `stale_chunks_reclaimed`.
    pub stale_bytes_reclaimed: u64,
    /// Stale copies stranded here as `(chunks, bytes)`: shards whose
    /// extents were re-homed (or whose file was unlinked) while the node
    /// was failed, so nonzero only while it is. The hosted gauges drop at
    /// re-home/unlink time; this remembers the dead bytes still
    /// physically on the node so recovery can reclaim them.
    pub orphaned: (u64, u64),
}

/// Everything the control plane holds about one storage node. The list
/// is in layout order: every round-robin run indexes into it, and
/// [`node_index`] is the one id → index scan.
pub(super) struct NodeState {
    pub(crate) id: NodeId,
    /// Bump allocator for write and repair placement.
    next_addr: u64,
    pub(crate) ledger: NodeLedger,
}

impl NodeState {
    pub(crate) fn new(id: NodeId) -> NodeState {
        NodeState {
            id,
            next_addr: 0x10_0000,
            ledger: NodeLedger::default(),
        }
    }
}

/// The index of the node `id` in the plane's node list.
pub(super) fn node_index(nodes: &[NodeState], id: u32) -> Option<usize> {
    nodes.iter().position(|n| n.id as u32 == id)
}

/// The ledger of the node `id`.
pub(super) fn ledger_of(nodes: &mut [NodeState], id: u32) -> Option<&mut NodeLedger> {
    let index = node_index(nodes, id)?;
    Some(&mut nodes[index].ledger)
}

/// A shard of `bytes` became live on `node`: bump its hosted gauges.
pub(super) fn host(nodes: &mut [NodeState], node: u32, bytes: u64) {
    if let Some(l) = ledger_of(nodes, node) {
        l.chunks_hosted += 1;
        l.bytes_hosted += bytes;
    }
}

/// A shard of `bytes` stopped being live on `node` (re-homed away, or
/// its file unlinked). The gauges track what the extent maps currently
/// say, so this happens at the metadata mutation — even while the node
/// is down, when the stale physical copy is also remembered as an orphan
/// for recovery reconciliation to reclaim.
pub(super) fn unhost(nodes: &mut [NodeState], failed: &FailedNodes, node: u32, bytes: u64) {
    if let Some(l) = ledger_of(nodes, node) {
        l.chunks_hosted = l.chunks_hosted.saturating_sub(1);
        l.bytes_hosted = l.bytes_hosted.saturating_sub(bytes);
        if failed.contains(&node) {
            l.orphaned.0 += 1;
            l.orphaned.1 += bytes;
        }
    }
}

/// Un-home one extent record's shards after the record leaves the
/// metadata (unlink / rename-replace / compaction).
pub(super) fn unhost_record(nodes: &mut [NodeState], failed: &FailedNodes, rec: &ExtentRecord) {
    let bytes = rec.shard_len() as u64;
    for (_, coord) in rec.shard_coords() {
        unhost(nodes, failed, coord.node, bytes);
    }
}

/// How a placement relates to the file's cursor.
#[derive(Clone, Copy, Debug)]
enum PlaceMode {
    /// Append at the cursor (the cursor advances by `len`).
    Append,
    /// Explicit offset; the cursor advances only past `offset + len`.
    At(u64),
    /// Busy-retry re-placement at the original offset; no cursor motion.
    Retry(u64),
}

impl ControlPlane {
    /// The ledgers of the storage nodes, in the order the plane was given
    /// them.
    pub fn node_ledgers(&self) -> impl ExactSizeIterator<Item = NodeLedger> + '_ {
        self.nodes.iter().map(|n| n.ledger)
    }

    /// A new file's layout: `spec`'s stripe width in nodes (all of them,
    /// if there are fewer), round-robin from a home that rotates per
    /// create so load spreads. The layout's first node is the home.
    pub(super) fn alloc_layout(&mut self, spec: LayoutSpec) -> StripedLayout {
        let n = self.nodes.len();
        let home = self.next_home;
        self.next_home = (home + 1) % n;
        let nodes = (0..n).map(|i| self.nodes[(home + i) % n].id as u32);
        StripedLayout::new(spec, nodes.collect())
    }

    /// Allocate `len` bytes on the node at `index`.
    pub(super) fn alloc_on(&mut self, index: usize, len: u64) -> ReplicaCoord {
        let node = &mut self.nodes[index];
        let addr = node.next_addr;
        // Page-align so concurrent placements never overlap.
        node.next_addr += len.div_ceil(4096).max(1) * 4096;
        ReplicaCoord {
            node: node.id as u32,
            addr,
        }
    }

    /// `count` allocations of `span` bytes on consecutive nodes, starting
    /// `first` nodes after `home`.
    fn place_run(
        &mut self,
        home: usize,
        first: usize,
        count: usize,
        span: u64,
    ) -> Vec<ReplicaCoord> {
        let n = self.nodes.len();
        (first..first + count)
            .map(|r| self.alloc_on((home + r) % n, span))
            .collect()
    }

    /// Allocate a fresh request id.
    pub fn alloc_greq(&mut self) -> u64 {
        let g = self.next_greq;
        self.next_greq += 1;
        g
    }

    /// Metadata service: place one write of `len` bytes for `file`,
    /// appending at the file's placement cursor. Unknown file ids are a
    /// typed error the client surfaces as a failed job.
    pub fn place_write(&mut self, file: u64, len: u32) -> Result<WritePlacement, MetaError> {
        self.place_write_inner(file, len, PlaceMode::Append)
    }

    /// Place a write at an explicit logical offset (`pwrite` semantics):
    /// the placement cursor only advances past `offset + len` when the
    /// write extends the file, so overwrites don't grow it.
    pub fn place_write_at(
        &mut self,
        file: u64,
        len: u32,
        offset: u64,
    ) -> Result<WritePlacement, MetaError> {
        self.place_write_inner(file, len, PlaceMode::At(offset))
    }

    /// Re-place a retried write at its original logical offset: fresh
    /// physical addresses (the old descriptors are gone), but the
    /// placement cursor does NOT advance again — a retry re-writes the
    /// same logical extent, it does not append new bytes.
    pub fn replace_write(
        &mut self,
        file: u64,
        len: u32,
        offset: u64,
    ) -> Result<WritePlacement, MetaError> {
        self.place_write_inner(file, len, PlaceMode::Retry(offset))
    }

    fn place_write_inner(
        &mut self,
        file: u64,
        len: u32,
        mode: PlaceMode,
    ) -> Result<WritePlacement, MetaError> {
        let shard = self.shard_of(file);
        let f = self
            .files
            .get_mut(&file)
            .ok_or(MetaError::UnknownFile(file))?;
        let (layout, policy) = file_node(&self.ns, file)?;
        let meta = &mut f.meta;
        let base = match mode {
            PlaceMode::Append => meta.cursor,
            PlaceMode::At(o) | PlaceMode::Retry(o) => o,
        };
        // Cursor: appends and extending writes advance it; retries never
        // do (their original placement already did). Only the cursor
        // moves here — the committed size advances when the write's
        // placement is committed, so a rejected or abandoned write never
        // inflates what `stat` and read planning see.
        let appended = match mode {
            PlaceMode::Retry(_) => 0,
            _ => (base + len as u64).saturating_sub(meta.cursor),
        };
        meta.cursor += appended;
        let home = node_index(&self.nodes, layout.nodes[0]).expect("layout node");
        let policy = policy.clone();
        // Striped placement: split the extent over the file's layout;
        // width-1 layouts degenerate to the seed's single-node placement.
        let extents = match policy {
            FilePolicy::Plain => layout.extents(base, len),
            _ => vec![],
        };
        self.note_route(shard, ServiceClass::Mutation);
        let mut p = WritePlacement::empty(self.alloc_greq(), base, appended);
        let n = self.nodes.len();
        match policy {
            FilePolicy::Plain => {
                let mut stripes = Vec::with_capacity(extents.len());
                for e in &extents {
                    let index = node_index(&self.nodes, e.node).expect("layout node");
                    self.nodes[index].ledger.stripe_chunks_placed += 1;
                    stripes.push(StripeTarget {
                        coord: self.alloc_on(index, e.len as u64),
                        len: e.len,
                        file_offset: e.file_offset,
                    });
                }
                p.primary = stripes[0].coord;
                p.replicas = vec![p.primary];
                if stripes.len() > 1 {
                    p.stripes = stripes;
                }
            }
            FilePolicy::Replicated { k, .. } => {
                assert!(
                    (1..=n).contains(&(k as usize)),
                    "create_file_at admits 1 <= k <= nodes"
                );
                p.replicas = self.place_run(home, 0, k as usize, len as u64);
                p.primary = p.replicas[0];
            }
            FilePolicy::ErasureCoded { scheme } => {
                let (k, m) = (scheme.k as usize, scheme.m as usize);
                assert!(
                    k >= 1 && m >= 1 && k + m <= n,
                    "create_file_at admits k, m >= 1 and k + m <= nodes"
                );
                p.chunk_len = (len as u64).div_ceil(k as u64).max(1) as u32;
                p.data_chunks = self.place_run(home, 0, k, p.chunk_len as u64);
                // Each parity gets its whole region, staging slots too.
                p.parities = self.place_run(home, k, m, scheme.parity_region(p.chunk_len));
                p.primary = p.data_chunks[0];
            }
        }
        Ok(p)
    }

    /// Commit a completed write's placement into the file's extent map
    /// (called by clients when the write acknowledges `Ok`): this is what
    /// makes the bytes *readable* — and what advances the committed size
    /// (`stat` / read-plan clamping). The map's generation bump is fanned
    /// out to registered read caches so cached data for the file drops.
    /// A file unlinked while the write was in flight is silently skipped.
    /// Returns the committed-size growth — what the client's write-back
    /// attr update must carry (placement-time deltas would over-count
    /// when an earlier placement was abandoned and never committed).
    pub fn commit_write(&mut self, file: u64, placement: &WritePlacement, len: u32) -> u64 {
        let shard = self.shard_of(file);
        let Some(f) = self.files.get_mut(&file).filter(|_| len > 0) else {
            return 0;
        };
        let map = &mut f.extents;
        let first_new = map.len();
        if !placement.stripes.is_empty() {
            for st in &placement.stripes {
                map.record(ExtentRecord::Plain {
                    offset: st.file_offset,
                    len: st.len,
                    coord: st.coord,
                });
            }
        } else if !placement.data_chunks.is_empty() {
            let Ok((_, &FilePolicy::ErasureCoded { scheme })) = file_node(&self.ns, file) else {
                panic!("EC placement on a non-EC file");
            };
            map.record(ExtentRecord::Ec {
                offset: placement.offset,
                len,
                chunk_len: placement.chunk_len,
                scheme,
                data: placement.data_chunks.clone(),
                parities: placement.parities.clone(),
            });
        } else if placement.replicas.len() > 1 {
            map.record(ExtentRecord::Replicated {
                offset: placement.offset,
                len,
                replicas: placement.replicas.clone(),
            });
        } else {
            map.record(ExtentRecord::Plain {
                offset: placement.offset,
                len,
                coord: placement.primary,
            });
        }
        let generation = map.generation();
        // The bytes are durable now: this (and only this) advances the
        // committed size the read path clamps against.
        let growth = (placement.offset + len as u64).saturating_sub(f.meta.size);
        f.meta.size += growth;
        let (nodes, failed) = (&mut self.nodes, &self.failed_nodes);
        for (i, rec) in map.records()[first_new..].iter().enumerate() {
            // The committed shards are live on their nodes now: charge
            // the hosted-capacity gauges per coordinate.
            let bytes = rec.shard_len() as u64;
            for (_, coord) in rec.shard_coords() {
                host(nodes, coord.node, bytes);
            }
            // A write that raced a failure commits an extent referencing
            // an already-failed node (the placement predates
            // `mark_node_failed`, whose scan could not see this record):
            // queue it now, or the mid-write kill would leave a
            // permanently degraded extent.
            if rec.shard_coords().any(|(_, c)| failed.contains(&c.node)) {
                let rec = first_new + i;
                self.repair_queue.push_back(RepairTask { file, rec });
            }
        }
        self.note_route(shard, ServiceClass::Mutation);
        self.log_apply(shard);
        // Fan the generation bump out to client read caches (same
        // callback channel every namespace mutation rides).
        self.notify(MetaEvent::LayoutChanged {
            ino: file,
            generation,
        });
        // Overwrite-heavy files accrete fully-shadowed records; fold
        // them while the cluster is quiescent.
        self.maybe_compact(file);
        growth
    }
}
