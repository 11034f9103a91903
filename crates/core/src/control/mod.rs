//! Control plane: management and metadata services.
//!
//! Per the paper's operational model (Fig 1a), clients authenticate with
//! the management service, query the metadata service for file layouts, and
//! then talk to storage nodes directly. Control-plane interactions are
//! excluded from the measured write latency ("the write latency is the time
//! spanning from issuing the write request to receiving the respective
//! write response", §IV) — so the services here are shared state consulted
//! synchronously by the drivers.
//!
//! The metadata service is this type. It owns a real hierarchical
//! namespace ([`Namespace`]): files live at paths, and every mutation
//! bumps versions. A file's inode owns its striped layout (stripe width ×
//! chunk size over storage nodes, from a start that rotates per create)
//! and its policy, and nothing else holds a copy. The plane counts the
//! round-trips clients make ([`MetaOpStats`]), and it calls back the
//! subscribed client caches with each `MetaEvent` where a mutation
//! raises it, all through one method, `ControlPlane::notify`; an event
//! borrows its paths. The seed's flat `u64 → FileMeta` API survives on
//! top: a file's id *is* its inode number, and
//! [`ControlPlane::create_file`] parks legacy files under `/.volatile/`.
//!
//! The metadata plane is **sharded**: a stateless [`router::ShardRouter`]
//! maps each ino to one of N [`shard::MetaShard`]s, whose queue its ops
//! wait in and whose op log counts their records, and mutations ack after
//! that per-shard op-log append (AsyncFS-style async updates). The
//! namespace itself is one tree, not partitioned. Beside it the plane
//! keeps three kinds of record — one per file, in one table keyed by ino,
//! one per storage node, one per shard — and a table of the cross-shard
//! transactions still open, which is all recovery reads. This file only
//! wires them together: construction, the cache callbacks, and the
//! namespace operations, each of which is a participant set plus an
//! apply step handed to `ControlPlane::transact`. What the records are
//! and what is done with them lives in the submodules:
//!
//! - `shard`: the shard (append count, admission queue, counters) and
//!   the open-transaction table; `transact`, the one mutation path
//!   (routing, 2PC across shards, the single log append and its crash
//!   switch); admission and recovery.
//! - `placement`: what clients are handed ([`FileMeta`],
//!   [`WritePlacement`], [`StripeTarget`]); the per-file record
//!   (`FileState`) and the per-node record (`NodeState`: allocator and
//!   [`NodeLedger`]); placing and committing writes.
//! - `resolution`: read planning, the scan detector, compaction.
//! - `repair_queue`: failure and recovery reconciliation, the repair
//!   queue, repair planning and commit.
//! - `router`: ino → shard.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use nadfs_meta::{
    ExtentMap, ExtentRecord, InodeAttr, InodeId, LayoutSpec, MetaCache, MetaError, Namespace,
    ReadPiece, ReadPlan, StripedLayout,
};
use nadfs_simnet::{IdMap, IdSet, NodeId};
use nadfs_wire::{Capability, MacKey, ReplicaCoord, Rights, RsScheme};

use crate::cache::ReadCache;

mod placement;
mod repair_queue;
mod resolution;
mod router;
mod shard;

use placement::{file_node, host, ledger_of, unhost, FileState, NodeState};
pub use placement::{FileMeta, NodeLedger, StripeTarget, WritePlacement};
pub use repair_queue::{RepairPlan, RepairQueue, RepairStats, RepairTask};
pub(crate) use router::ShardRouter;
pub(crate) use shard::{MetaShard, OpenTx, ServiceClass};
pub use shard::{ShardStats, TxRecovery};

// Policies now live with the rest of the file metadata in `nadfs-meta`;
// re-exported here so existing call sites keep working.
pub use nadfs_meta::FilePolicy;

/// The control plane: management (authentication) + metadata (namespace,
/// layout, placement) services, fronting the shard set.
pub struct ControlPlane {
    key: MacKey,
    /// The hierarchical namespace: paths, inodes and their versions.
    ns: Namespace,
    /// The round-trips clients have made, by operation.
    meta_stats: MetaOpStats,
    /// Rotates so consecutive creates start their stripes on different
    /// nodes.
    next_home: usize,
    next_legacy: u64,
    next_greq: u64,
    next_nonce: u64,
    /// Cross-shard transaction id allocator.
    next_txid: u64,
    /// One record per storage node, in layout order.
    nodes: Vec<NodeState>,
    /// Client metadata caches subscribed to invalidation callbacks.
    caches: Vec<Rc<RefCell<MetaCache>>>,
    /// Client read caches subscribed to extent-generation callbacks (the
    /// same event channel; these consume `LayoutChanged`).
    read_caches: Vec<Rc<RefCell<ReadCache>>>,
    /// One record per file, by ino; the file's inode holds the rest.
    files: IdMap<u64, FileState>,
    /// The metadata shards: their append counts and admission queues.
    shards: Vec<MetaShard>,
    /// The cross-shard transactions not yet resolved, in txid order: what
    /// [`ControlPlane::recover_shards`] reads.
    open_txs: Vec<OpenTx>,
    /// Stateless ino → shard map.
    router: ShardRouter,
    /// The shard + service class of the most recent routed op — what
    /// [`ControlPlane::admit_last`] charges. Overwritten by every routed
    /// op, so a client admitting right after its call always charges the
    /// op it just made.
    last_route: Option<(usize, ServiceClass)>,
    /// Transaction-record appends left before the armed crash switch
    /// fires (fault harness); 0 when disarmed.
    crash_after: u32,
    /// Storage nodes currently marked failed (degraded-read routing).
    failed_nodes: FailedNodes,
    /// Extents awaiting background re-protection.
    pub repair_queue: RepairQueue,
    /// Tasks popped from the queue but not yet committed, requeued, or
    /// abandoned — compaction must not shift record indices under them.
    inflight_repairs: IdSet<RepairTask>,
    /// Rotates spare-node selection so repair placements spread.
    next_spare: usize,
}

pub type SharedControl = Rc<RefCell<ControlPlane>>;

/// The one `std` hash table in the control plane, because it is the type
/// `ExtentMap::resolve` takes. It is probed and `any()`-ed, never
/// iterated into an order.
pub(crate) type FailedNodes = std::collections::HashSet<u32>; // membership only

/// Control-plane round-trips, by operation. The sum is the number a
/// perfect client cache would shrink.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetaOpStats {
    pub lookups: u64,
    pub(crate) creates: u64,
    pub(crate) mkdirs: u64,
    pub(crate) readdirs: u64,
    pub(crate) renames: u64,
    pub(crate) unlinks: u64,
    pub(crate) attr_flushes: u64,
    /// Read-plan resolutions (the per-read control round-trip a client
    /// read cache exists to absorb).
    pub resolves: u64,
}

impl MetaOpStats {
    pub fn total(&self) -> u64 {
        self.lookups
            + self.creates
            + self.mkdirs
            + self.readdirs
            + self.renames
            + self.unlinks
            + self.attr_flushes
            + self.resolves
    }
}

/// A callback to the client caches, delivered where a mutation raises it
/// (`ControlPlane::notify`). It borrows its path from the mutation.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MetaEvent<'a> {
    /// A single path gained or changed an entry.
    Changed { path: &'a str },
    /// A whole subtree moved or vanished; caches drop the prefix.
    SubtreeGone { path: &'a str },
    /// `ino`'s extent map moved to `generation` (a committed write,
    /// overwrite, or repair re-homing): anything caching data or resolved
    /// placements tagged with an older generation must drop them.
    /// `generation == u64::MAX` means the file's data is gone entirely
    /// (unlink / rename-replace).
    LayoutChanged { ino: InodeId, generation: u64 },
    /// The control plane observed a sequential scan of `ino` and advises
    /// caches to prefetch `[offset, offset + len)` ahead of the reader.
    PrefetchHint { ino: InodeId, offset: u64, len: u32 },
}

/// The parent path of `path` ("/" for top-level entries and the root).
fn parent_of(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

impl ControlPlane {
    pub fn new(key_seed: u64, storage_nodes: Vec<NodeId>) -> SharedControl {
        Self::new_sharded(key_seed, storage_nodes, 1)
    }

    /// A control plane with `n_shards` metadata shards. One shard
    /// reproduces the unsharded plane exactly (every ino routes to
    /// shard 0); behavior is shard-count-invariant by construction —
    /// only the queueing/throughput model changes.
    pub fn new_sharded(
        key_seed: u64,
        storage_nodes: Vec<NodeId>,
        n_shards: usize,
    ) -> SharedControl {
        assert!(!storage_nodes.is_empty(), "need at least one storage node");
        let n_shards = n_shards.max(1);
        Rc::new(RefCell::new(ControlPlane {
            key: MacKey::from_seed(key_seed),
            ns: Namespace::new(),
            meta_stats: MetaOpStats::default(),
            next_home: 0,
            next_legacy: 1,
            next_greq: 1,
            next_nonce: 1,
            next_txid: 1,
            nodes: storage_nodes.into_iter().map(NodeState::new).collect(),
            caches: Vec::new(),
            read_caches: Vec::new(),
            files: IdMap::default(),
            shards: vec![MetaShard::default(); n_shards],
            open_txs: Vec::new(),
            router: ShardRouter::new(n_shards),
            last_route: None,
            crash_after: 0,
            failed_nodes: Default::default(),
            repair_queue: RepairQueue::default(),
            inflight_repairs: IdSet::default(),
            next_spare: 0,
        }))
    }

    /// The service-shared MAC key (installed into storage-node NIC memory).
    pub fn service_key(&self) -> MacKey {
        self.key
    }

    /// The namespace, to read: every mutation goes through the
    /// operations below, which raise its callbacks.
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// The round-trips clients have made so far, by operation.
    pub fn meta_stats(&self) -> MetaOpStats {
        self.meta_stats
    }

    /// Subscribe a client cache to invalidation callbacks.
    pub fn register_cache(&mut self, cache: Rc<RefCell<MetaCache>>) {
        self.caches.push(cache);
    }

    /// Subscribe a client read cache to extent-generation callbacks
    /// (commits, overwrites, repair re-homing, unlink).
    pub fn register_read_cache(&mut self, cache: Rc<RefCell<ReadCache>>) {
        self.read_caches.push(cache);
    }

    /// The metadata shard owning `ino`.
    pub fn shard_of(&self, ino: u64) -> usize {
        self.router.route(ino)
    }

    /// `file`'s policy, read from its inode.
    pub(crate) fn policy_of(&self, file: u64) -> Result<FilePolicy, MetaError> {
        Ok(file_node(&self.ns, file)?.1.clone())
    }

    /// A file or directory left the namespace (unlink, rename-replace):
    /// drop its record, un-hosting every extent, and tell the read caches.
    fn forget(&mut self, ino: u64) {
        if let Some(f) = self.files.remove(&ino) {
            for rec in f.extents.records() {
                self.unhost_record(rec);
            }
        }
        self.notify(MetaEvent::LayoutChanged {
            ino,
            generation: u64::MAX,
        });
    }

    /// The shard owning `path`'s parent directory — where namespace
    /// mutations on `path` route (the parent's entry list is the state
    /// they contend on). Unresolvable parents (first mkdir_p level)
    /// route to shard 0.
    fn route_parent(&self, path: &str) -> usize {
        self.shard_of_path(parent_of(path)).unwrap_or(0)
    }

    fn shard_of_path(&self, path: &str) -> Option<usize> {
        Some(self.shard_of(self.ns.resolve(path).ok()?))
    }

    /// Call back every subscribed client cache with `ev`, where the
    /// mutation raises it: namespace events go to the metadata caches,
    /// data-generation and prefetch events to the read caches. Every
    /// cache callback the control plane makes goes through here.
    fn notify(&self, ev: MetaEvent<'_>) {
        match ev {
            MetaEvent::Changed { path } => {
                for c in &self.caches {
                    c.borrow_mut().invalidate_path(path);
                }
            }
            MetaEvent::SubtreeGone { path } => {
                for c in &self.caches {
                    c.borrow_mut().invalidate_subtree(path);
                }
            }
            MetaEvent::LayoutChanged { ino, generation } => {
                for c in &self.read_caches {
                    c.borrow_mut().note_generation(ino, generation);
                }
            }
            MetaEvent::PrefetchHint { ino, offset, len } => {
                for c in &self.read_caches {
                    c.borrow_mut().note_hint(ino, offset, len);
                }
            }
        }
    }

    /// Call back `Changed` for file `ino`, building its path only when
    /// some metadata cache holds an entry to drop.
    fn notify_changed_ino(&self, ino: u64) {
        if self.caches.iter().any(|c| !c.borrow().is_empty()) {
            if let Some(path) = self.ns.path_of(ino) {
                self.notify(MetaEvent::Changed { path: &path });
            }
        }
    }

    /// An entry mutation at `path` bumps its parent directory's version
    /// and nlink too: call back `Changed` for the parent.
    fn notify_parent(&self, path: &str) {
        let parent = parent_of(path.trim_end_matches('/'));
        self.notify(MetaEvent::Changed { path: parent });
    }

    /// Create a file with the given policy (legacy flat API): parked under
    /// `/.volatile/`, single-node layout assigned round-robin.
    pub fn create_file(&mut self, size: u64, policy: FilePolicy) -> FileMeta {
        let name = format!("/.volatile/f{}", self.next_legacy);
        self.next_legacy += 1;
        self.ns.mkdir_p("/.volatile", 0).expect("legacy dir");
        let id = self
            .create_file_at(&name, LayoutSpec::SINGLE, policy)
            .expect("fresh legacy path")
            .id;
        // Legacy callers pre-declare the size; advance both the committed
        // size and the cursor so the first placement appends after it,
        // matching the seed behavior.
        let m = &mut self.files.get_mut(&id).expect("just created").meta;
        m.size = size;
        m.cursor = size;
        *m
    }

    /// Create a file at `path` with a striped layout. The parent
    /// directory must exist (`mkdir`/`mkdir_p` first), and the cluster
    /// must be able to hold the policy: `1 ≤ k ≤ nodes` replicas, or
    /// `k, m ≥ 1` and `k + m ≤ nodes` shards — placement relies on it.
    /// Routed to the parent directory's shard; the ack point is that
    /// shard's op-log append.
    pub fn create_file_at(
        &mut self,
        path: &str,
        spec: LayoutSpec,
        policy: FilePolicy,
    ) -> Result<FileMeta, MetaError> {
        let n = self.nodes.len();
        let fits = match policy {
            FilePolicy::Plain => true,
            FilePolicy::Replicated { k, .. } => (1..=n).contains(&(k as usize)),
            FilePolicy::ErasureCoded { scheme } => {
                scheme.k >= 1 && scheme.m >= 1 && scheme.k as usize + scheme.m as usize <= n
            }
        };
        if !fits {
            return Err(MetaError::InvalidPolicy);
        }
        let parent = self.route_parent(path);
        self.transact(parent, [None; 2], |cp| {
            cp.meta_stats.creates += 1;
            let layout = cp.alloc_layout(spec);
            let attr = cp.ns.create(path, layout, policy, 0)?;
            cp.notify(MetaEvent::Changed { path });
            cp.notify_parent(path);
            let meta = FileMeta {
                id: attr.ino,
                size: attr.size,
                cursor: attr.size,
            };
            let state = FileState {
                meta,
                extents: ExtentMap::new(),
                compact_floor: 0,
                scan: (0, 0),
            };
            cp.files.insert(attr.ino, state);
            Ok(meta)
        })
    }

    /// Metadata lookup by file id. A miss is a typed error, not a panic
    /// or a silent `None`.
    pub fn lookup(&self, file: u64) -> Result<&FileMeta, MetaError> {
        self.files
            .get(&file)
            .map(|f| &f.meta)
            .ok_or(MetaError::UnknownFile(file))
    }

    /// Path lookup (counts as one metadata round-trip). Routed to the
    /// target's shard.
    pub fn lookup_path(&mut self, path: &str) -> Result<InodeAttr, MetaError> {
        let r = self.ns.lookup(path);
        self.note_lookup(r.as_ref().ok().map(|a| a.ino));
        r
    }

    /// Path lookup returning what a client cache stores: attrs + layout
    /// for files. Counted and routed like [`Self::lookup_path`].
    pub fn lookup_entry(
        &mut self,
        path: &str,
    ) -> Result<(InodeAttr, Option<StripedLayout>), MetaError> {
        let r = self.peek_entry(path);
        self.note_lookup(r.as_ref().ok().map(|(a, _)| a.ino));
        r
    }

    /// One lookup round-trip, routed to the shard of the ino it found (a
    /// miss to shard 0).
    fn note_lookup(&mut self, found: Option<u64>) {
        self.meta_stats.lookups += 1;
        let shard = found.map_or(0, |ino| self.shard_of(ino));
        self.note_route(shard, ServiceClass::Resolve);
    }

    /// Uncounted lookup for cache refills: the caller already paid the
    /// round-trip (e.g. a create response) and only needs the entry.
    pub fn peek_entry(&self, path: &str) -> Result<(InodeAttr, Option<StripedLayout>), MetaError> {
        let attr = self.ns.lookup(path)?;
        let layout = self.ns.inode(attr.ino)?.file().map(|f| f.layout.clone());
        Ok((attr, layout))
    }

    pub fn mkdir(&mut self, path: &str, now_ns: u64) -> Result<InodeAttr, MetaError> {
        self.make_dir(path, |cp| {
            let attr = cp.ns.mkdir(path, now_ns)?;
            cp.notify(MetaEvent::Changed { path });
            cp.notify_parent(path);
            Ok(attr)
        })
    }

    /// Create every missing directory along `path`. Each level created
    /// bumps its parent's version and nlink, so every created directory
    /// is called back, and so is the parent of the first; an idempotent
    /// re-create mutates nothing and calls back nothing.
    pub fn mkdir_p(&mut self, path: &str, now_ns: u64) -> Result<InodeAttr, MetaError> {
        self.make_dir(path, |cp| {
            let seq = cp.ns.change_seq;
            let attr = cp.ns.mkdir_p(path, now_ns)?;
            // One change per level created, and the created levels are
            // the deepest ones: walk up from the leaf.
            let created = cp.ns.change_seq - seq;
            if created > 0 {
                let mut dir = path;
                for _ in 0..created {
                    cp.notify(MetaEvent::Changed { path: dir });
                    dir = parent_of(dir.trim_end_matches('/'));
                }
                cp.notify(MetaEvent::Changed { path: dir });
            }
            Ok(attr)
        })
    }

    fn make_dir(
        &mut self,
        path: &str,
        make: impl FnOnce(&mut Self) -> Result<InodeAttr, MetaError>,
    ) -> Result<InodeAttr, MetaError> {
        let parent = self.route_parent(path);
        self.transact(parent, [None; 2], |cp| {
            cp.meta_stats.mkdirs += 1;
            make(cp)
        })
    }

    pub fn readdir(&mut self, path: &str) -> Result<Vec<(String, InodeAttr)>, MetaError> {
        let shard = self.shard_of_path(path).unwrap_or(0);
        self.note_route(shard, ServiceClass::Resolve);
        self.meta_stats.readdirs += 1;
        self.ns.readdir(path)
    }

    /// Rename. Participants: the shards of both parent directories and of
    /// a target the rename replaces (a POSIX replace deletes the target
    /// inode, so its record goes too, exactly like an unlink).
    pub fn rename(&mut self, from: &str, to: &str, now_ns: u64) -> Result<(), MetaError> {
        let others = [Some(self.route_parent(to)), self.shard_of_path(to)];
        self.transact(self.route_parent(from), others, |cp| {
            cp.meta_stats.renames += 1;
            let seq = cp.ns.change_seq;
            let replaced = cp.ns.rename(from, to, now_ns)?;
            if cp.ns.change_seq != seq {
                // A no-op rename (same source and target) mutates nothing:
                // don't wipe every client's cached subtree for it.
                cp.notify(MetaEvent::SubtreeGone { path: from });
                cp.notify(MetaEvent::SubtreeGone { path: to });
                cp.notify_parent(from);
                cp.notify_parent(to);
            }
            if let Some(replaced) = replaced {
                cp.forget(replaced);
            }
            Ok(())
        })
    }

    /// Unlink a file or empty directory; a removed file's record is
    /// dropped with it. Participants: the shards of the parent directory
    /// and of the target.
    pub fn unlink(&mut self, path: &str, now_ns: u64) -> Result<InodeAttr, MetaError> {
        let target = self.ns.resolve(path).ok();
        let others = [target.map(|ino| self.shard_of(ino)), None];
        self.transact(self.route_parent(path), others, |cp| {
            cp.meta_stats.unlinks += 1;
            let attr = cp.ns.unlink(path, now_ns)?;
            cp.notify(MetaEvent::SubtreeGone { path });
            cp.notify_parent(path);
            cp.forget(attr.ino);
            Ok(attr)
        })
    }

    /// Apply a client's write-back attribute flush (one round-trip for
    /// the whole batch). Updates apply in inode order (the batch is
    /// sorted in place), so the outcome is deterministic; one for a file
    /// that vanished in the meantime (unlinked or replaced) is skipped and
    /// never blocks the rest. Each applied update calls back `Changed`,
    /// so other clients' cached attrs for the file go. Each touched ino's
    /// flush is logged on its owning shard; admission charges the shard
    /// of the batch's first ino as given.
    pub fn flush_attrs(
        &mut self,
        updates: &mut [(u64, nadfs_meta::DirtyAttr)],
    ) -> Result<(), MetaError> {
        let shard = updates.first().map_or(0, |(ino, _)| self.shard_of(*ino));
        self.note_route(shard, ServiceClass::Mutation);
        for (ino, _) in updates.iter() {
            let s = self.shard_of(*ino);
            self.log_apply(s);
        }
        self.meta_stats.attr_flushes += 1;
        updates.sort_unstable_by_key(|(ino, _)| *ino);
        for (ino, d) in updates.iter() {
            match self.ns.append(*ino, d.appended, d.mtime_ns) {
                Ok(_) => self.notify_changed_ino(*ino),
                Err(MetaError::NotFound) => continue, // unlinked mid-batch
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Management service: authenticate a client and issue a capability
    /// for `file` (§IV — signed with the service-shared key).
    pub fn issue_capability(
        &mut self,
        client: u32,
        file: u64,
        rights: Rights,
        expires_at_ns: u64,
    ) -> Capability {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        Capability::issue(&self.key, client, file, rights, expires_at_ns, nonce)
    }
}

#[cfg(test)]
mod tests {
    use super::placement::node_index;
    use super::*;
    use nadfs_wire::{BcastStrategy, RsScheme};

    fn plane() -> SharedControl {
        ControlPlane::new(7, vec![4, 5, 6, 7, 8])
    }

    #[test]
    fn create_and_lookup() {
        let cp = plane();
        let f = cp.borrow_mut().create_file(1 << 20, FilePolicy::Plain);
        assert_eq!(cp.borrow().lookup(f.id).expect("found").size, 1 << 20);
        assert_eq!(
            cp.borrow().lookup(999).unwrap_err(),
            MetaError::UnknownFile(999),
            "misses are typed errors"
        );
    }

    #[test]
    fn capability_verifies_under_service_key() {
        let cp = plane();
        let cap = cp.borrow_mut().issue_capability(3, 1, Rights::RW, 1_000);
        let key = cp.borrow().service_key();
        assert!(cap.verify(&key, 0, Rights::WRITE).is_ok());
    }

    #[test]
    fn replicated_placement_uses_distinct_nodes() {
        let cp = plane();
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::Replicated {
                k: 4,
                strategy: BcastStrategy::Ring,
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 8192).expect("place");
        assert_eq!(p.replicas.len(), 4);
        let mut nodes: Vec<u32> = p.replicas.iter().map(|r| r.node).collect();
        nodes.dedup();
        assert_eq!(nodes.len(), 4, "replicas on distinct nodes");
    }

    #[test]
    fn ec_placement_separates_data_and_parity() {
        let cp = plane();
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(3, 2),
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 3 * 1000).expect("place");
        assert_eq!(p.data_chunks.len(), 3);
        assert_eq!(p.parities.len(), 2);
        assert_eq!(p.chunk_len, 1000);
        let mut all: Vec<u32> = p
            .data_chunks
            .iter()
            .chain(&p.parities)
            .map(|c| c.node)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 5, "k+m distinct failure domains");

        // Placement and repair give a parity chunk its whole region: the
        // node's next allocation starts where the last staging slot ends
        // (page-aligned chunks, so the allocator rounds nothing up).
        let cp = ControlPlane::new(7, vec![4, 5, 6, 7, 8, 9]);
        let scheme = RsScheme::new(3, 2);
        let f = cp
            .borrow_mut()
            .create_file(0, FilePolicy::ErasureCoded { scheme });
        let chunk = 4096;
        let p = cp.borrow_mut().place_write(f.id, 3 * chunk).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 3 * chunk);
        let region_end = RsScheme::staging_slot(chunk, scheme.k - 1) + chunk as u64;
        let next_on = |node: u32| {
            let mut cp = cp.borrow_mut();
            let index = node_index(&cp.nodes, node).expect("a storage node");
            cp.alloc_on(index, 1).addr
        };
        let parity = p.parities[0];
        assert_eq!(next_on(parity.node), parity.addr + region_end, "placed");
        cp.borrow_mut().mark_node_failed(p.parities[1].node);
        let task = cp.borrow_mut().pop_repair().expect("queued");
        let plan = cp.borrow_mut().plan_repair(task).expect("plan");
        let RepairPlan::EcRebuild { rebuild, .. } = plan else {
            panic!("EC extent plans a rebuild, got {plan:?}");
        };
        let [(slot, spare)] = rebuild[..] else {
            panic!("one shard to rebuild: {rebuild:?}");
        };
        assert_eq!(slot, 4, "the failed parity's index");
        assert_eq!(next_on(spare.node), spare.addr + region_end, "repaired");
    }

    #[test]
    fn placements_do_not_overlap() {
        let cp = plane();
        let f = cp.borrow_mut().create_file(0, FilePolicy::Plain);
        let a = cp.borrow_mut().place_write(f.id, 10_000).expect("place");
        let b = cp.borrow_mut().place_write(f.id, 10_000).expect("place");
        assert_eq!(a.primary.node, b.primary.node);
        assert!(b.primary.addr >= a.primary.addr + 10_000);
        assert!(b.greq > a.greq);
    }

    #[test]
    fn namespace_files_stripe_over_distinct_nodes() {
        let cp = plane();
        cp.borrow_mut().mkdir_p("/data", 0).expect("mkdir");
        let f = cp
            .borrow_mut()
            .create_file_at("/data/big", LayoutSpec::striped(3, 4096), FilePolicy::Plain)
            .expect("create");
        let width = file_node(cp.borrow().namespace(), f.id).map(|(l, _)| l.stripe_width());
        assert_eq!(width, Ok(3));
        let p = cp.borrow_mut().place_write(f.id, 3 * 4096).expect("place");
        assert_eq!(p.stripes.len(), 3, "one extent per stripe unit");
        let mut nodes: Vec<u32> = p.stripes.iter().map(|s| s.coord.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 3, "stripe units on distinct nodes");
        // The next append continues round-robin from the cursor.
        let q = cp.borrow_mut().place_write(f.id, 4096).expect("place");
        assert!(q.stripes.is_empty(), "single-extent write");
        assert_eq!(q.primary.node, p.stripes[0].coord.node);
    }

    #[test]
    fn rename_replace_drops_replaced_placement_state() {
        let cp = plane();
        cp.borrow_mut().mkdir_p("/d", 0).expect("mkdir");
        let loser = cp
            .borrow_mut()
            .create_file_at("/d/loser", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        let winner = cp
            .borrow_mut()
            .create_file_at("/d/winner", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        cp.borrow_mut()
            .rename("/d/winner", "/d/loser", 1)
            .expect("replace");
        // The replaced file is gone everywhere: namespace AND placement.
        assert_eq!(
            cp.borrow().lookup(loser.id).unwrap_err(),
            MetaError::UnknownFile(loser.id),
            "replaced file's placement state is dropped like an unlink"
        );
        assert!(cp.borrow_mut().place_write(loser.id, 64).is_err());
        assert!(cp.borrow().lookup(winner.id).is_ok());
        assert_eq!(
            cp.borrow_mut().lookup_path("/d/loser").expect("path").ino,
            winner.id
        );
    }

    #[test]
    fn attr_flush_skips_vanished_files_and_applies_the_rest() {
        let cp = plane();
        cp.borrow_mut().mkdir_p("/d", 0).expect("mkdir");
        let gone = cp
            .borrow_mut()
            .create_file_at("/d/gone", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        let kept = cp
            .borrow_mut()
            .create_file_at("/d/kept", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        cp.borrow_mut().unlink("/d/gone", 1).expect("unlink");
        let mut updates = vec![
            (
                gone.id,
                nadfs_meta::DirtyAttr {
                    appended: 100,
                    mtime_ns: 2,
                },
            ),
            (
                kept.id,
                nadfs_meta::DirtyAttr {
                    appended: 4096,
                    mtime_ns: 2,
                },
            ),
        ];
        cp.borrow_mut()
            .flush_attrs(&mut updates)
            .expect("partial flush ok");
        assert_eq!(
            cp.borrow_mut().lookup_path("/d/kept").expect("kept").size,
            4096,
            "the surviving file's update is not lost to the vanished one"
        );
    }

    #[test]
    fn retry_replacement_does_not_advance_the_cursor_twice() {
        let cp = plane();
        cp.borrow_mut().mkdir_p("/d", 0).expect("mkdir");
        let f = cp
            .borrow_mut()
            .create_file_at("/d/s", LayoutSpec::striped(3, 4096), FilePolicy::Plain)
            .expect("create");
        let first = cp.borrow_mut().place_write(f.id, 4096).expect("place");
        assert_eq!(first.offset, 0);
        // A Busy retry re-places the SAME logical extent...
        let retry = cp
            .borrow_mut()
            .replace_write(f.id, 4096, first.offset)
            .expect("re-place");
        assert_eq!(retry.offset, 0);
        assert_eq!(retry.primary.node, first.primary.node, "same stripe unit");
        assert_ne!(retry.primary.addr, first.primary.addr, "fresh address");
        // ...so the next append continues where the first write ended,
        // not two extents later.
        let next = cp.borrow_mut().place_write(f.id, 4096).expect("place");
        assert_eq!(next.offset, 4096);
        assert_ne!(
            next.primary.node, first.primary.node,
            "stripe advanced once"
        );
    }

    #[test]
    fn commit_then_resolve_roundtrips_striped_extents() {
        let cp = plane();
        cp.borrow_mut().mkdir_p("/d", 0).expect("mkdir");
        let f = cp
            .borrow_mut()
            .create_file_at("/d/s", LayoutSpec::striped(3, 4096), FilePolicy::Plain)
            .expect("create");
        let p = cp.borrow_mut().place_write(f.id, 3 * 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 3 * 4096);
        // A cross-stripe subrange resolves to the committed coordinates.
        let plan = cp
            .borrow_mut()
            .resolve_read(f.id, 4000, 5000)
            .expect("resolve");
        assert_eq!(plan.len, 5000);
        let mut covered = 0u32;
        for piece in &plan.pieces {
            let nadfs_meta::ReadPiece::Direct { len, .. } = piece else {
                panic!("healthy striped read must be all direct pieces: {piece:?}");
            };
            covered += len;
        }
        assert_eq!(covered, 5000);
    }

    #[test]
    fn uncommitted_writes_do_not_extend_the_readable_size() {
        // The placement-time size-inflation regression: a placed but
        // never-committed write (rejected capability, client died before
        // the ack) must not move `stat` or the read clamp — planning
        // holes for bytes that were never durable is phantom EOF state.
        let cp = plane();
        let f = cp.borrow_mut().create_file(0, FilePolicy::Plain);
        let p = cp.borrow_mut().place_write(f.id, 1000).expect("place");
        assert_eq!(
            cp.borrow().lookup(f.id).expect("meta").cursor,
            1000,
            "the cursor runs ahead so pipelined appends never overlap"
        );
        assert_eq!(
            cp.borrow().lookup(f.id).expect("meta").size,
            0,
            "committed size does not move at placement"
        );
        let plan = cp
            .borrow_mut()
            .resolve_read(f.id, 0, 5000)
            .expect("resolve");
        assert_eq!(plan.len, 0, "nothing durable: a clean zero-length read");
        // Once the write commits, the same resolve serves the bytes.
        cp.borrow_mut().commit_write(f.id, &p, 1000);
        assert_eq!(cp.borrow().lookup(f.id).expect("meta").size, 1000);
        let plan = cp
            .borrow_mut()
            .resolve_read(f.id, 0, 5000)
            .expect("resolve");
        assert_eq!(plan.len, 1000, "clamped at the committed size");
        assert!(plan
            .pieces
            .iter()
            .all(|p| matches!(p, nadfs_meta::ReadPiece::Direct { .. })));
    }

    #[test]
    fn rejected_write_between_commits_reads_as_a_hole_not_phantom_eof() {
        // Write 1 placed but never committed; write 2 (after it) commits:
        // the committed size covers write 2, and write 1's range reads as
        // a hole — sparse, not phantom data, not an inflated EOF.
        let cp = plane();
        let f = cp.borrow_mut().create_file(0, FilePolicy::Plain);
        let _lost = cp.borrow_mut().place_write(f.id, 1000).expect("place");
        let kept = cp.borrow_mut().place_write(f.id, 500).expect("place");
        assert_eq!(kept.offset, 1000, "cursor placed write 2 after write 1");
        cp.borrow_mut().commit_write(f.id, &kept, 500);
        assert_eq!(cp.borrow().lookup(f.id).expect("meta").size, 1500);
        let plan = cp
            .borrow_mut()
            .resolve_read(f.id, 0, 2000)
            .expect("resolve");
        assert_eq!(plan.len, 1500);
        let hole: u32 = plan
            .pieces
            .iter()
            .filter_map(|p| match p {
                nadfs_meta::ReadPiece::Hole { len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        assert_eq!(hole, 1000, "the uncommitted range is a hole");
    }

    #[test]
    fn resolve_read_saturates_at_u64_max() {
        let cp = plane();
        let f = cp.borrow_mut().create_file(0, FilePolicy::Plain);
        let p = cp.borrow_mut().place_write(f.id, 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 4096);
        // offset + len would overflow u64: must be a clean empty plan,
        // not a debug panic or a wrapped bogus range.
        for offset in [u64::MAX, u64::MAX - 1, u64::MAX - 4095] {
            let plan = cp
                .borrow_mut()
                .resolve_read(f.id, offset, u32::MAX)
                .expect("resolve");
            assert_eq!(plan.len, 0, "offset {offset:#x}");
            assert!(plan.pieces.is_empty());
        }
        // Just past EOF (no overflow): also a clean zero-length read.
        let plan = cp
            .borrow_mut()
            .resolve_read(f.id, 4096, u32::MAX)
            .expect("resolve");
        assert_eq!(plan.len, 0);
    }

    #[test]
    fn place_write_at_overwrite_does_not_grow_the_file() {
        let cp = plane();
        cp.borrow_mut().mkdir_p("/d", 0).expect("mkdir");
        let f = cp
            .borrow_mut()
            .create_file_at("/d/f", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        let a = cp.borrow_mut().place_write(f.id, 8192).expect("append");
        assert_eq!((a.offset, a.appended), (0, 8192));
        let o = cp
            .borrow_mut()
            .place_write_at(f.id, 4096, 1024)
            .expect("overwrite");
        assert_eq!((o.offset, o.appended), (1024, 0));
        let e = cp
            .borrow_mut()
            .place_write_at(f.id, 4096, 6144)
            .expect("extend");
        assert_eq!((e.offset, e.appended), (6144, 2048));
        assert_eq!(cp.borrow().lookup(f.id).expect("meta").cursor, 10240);
        // Committed size follows the commits, not the placements.
        cp.borrow_mut().commit_write(f.id, &a, 8192);
        assert_eq!(cp.borrow().lookup(f.id).expect("meta").size, 8192);
        cp.borrow_mut().commit_write(f.id, &o, 4096);
        assert_eq!(
            cp.borrow().lookup(f.id).expect("meta").size,
            8192,
            "interior overwrite does not grow the committed size"
        );
        cp.borrow_mut().commit_write(f.id, &e, 4096);
        assert_eq!(cp.borrow().lookup(f.id).expect("meta").size, 10240);
    }

    #[test]
    fn failed_node_routes_replicated_reads_to_survivors() {
        let cp = plane();
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::Replicated {
                k: 3,
                strategy: BcastStrategy::Ring,
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 4096);
        cp.borrow_mut().mark_node_failed(p.replicas[0].node);
        let plan = cp
            .borrow_mut()
            .resolve_read(f.id, 0, 4096)
            .expect("resolve");
        let nadfs_meta::ReadPiece::Direct { coord, .. } = &plan.pieces[0] else {
            panic!("direct piece");
        };
        assert_eq!(coord.node, p.replicas[1].node, "failover to next replica");
        cp.borrow_mut().mark_node_recovered(p.replicas[0].node);
        let plan2 = cp
            .borrow_mut()
            .resolve_read(f.id, 0, 4096)
            .expect("resolve");
        let nadfs_meta::ReadPiece::Direct { coord, .. } = &plan2.pieces[0] else {
            panic!("direct piece");
        };
        assert_eq!(coord.node, p.replicas[0].node, "primary serves again");
    }

    #[test]
    fn node_failure_enqueues_affected_extents_once() {
        let cp = plane();
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(3, 2),
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 3 * 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 3 * 4096);
        let victim = p.data_chunks[0].node;
        cp.borrow_mut().mark_node_failed(victim);
        assert_eq!(cp.borrow().repair_queue.len(), 1);
        // Marking the same node again must not duplicate the task.
        cp.borrow_mut().mark_node_failed(victim);
        assert_eq!(cp.borrow().repair_queue.len(), 1);
        assert_eq!(cp.borrow().repair_queue.stats.enqueued, 1);
    }

    #[test]
    fn commit_after_failure_enqueues_the_racing_write() {
        // The mid-write kill: placement predates the failure, commit
        // lands after it — the extent must still reach the queue.
        let cp = plane();
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(3, 2),
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 3 * 4096).expect("place");
        cp.borrow_mut().mark_node_failed(p.data_chunks[1].node);
        assert!(cp.borrow().repair_queue.is_empty(), "nothing committed yet");
        cp.borrow_mut().commit_write(f.id, &p, 3 * 4096);
        assert_eq!(cp.borrow().repair_queue.len(), 1);
    }

    #[test]
    fn degraded_read_promotes_its_extent_to_the_front() {
        let cp = plane();
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(3, 2),
            },
        );
        let a = cp.borrow_mut().place_write(f.id, 3 * 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &a, 3 * 4096);
        let b = cp.borrow_mut().place_write(f.id, 3 * 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &b, 3 * 4096);
        // Both extents share the failed node (same home rotation).
        cp.borrow_mut().mark_node_failed(a.data_chunks[0].node);
        assert_eq!(cp.borrow().repair_queue.len(), 2);
        assert_eq!(
            cp.borrow().repair_queue.peek(),
            Some(RepairTask { file: f.id, rec: 0 })
        );
        // A degraded read of the SECOND extent jumps it to the front.
        let _ = cp
            .borrow_mut()
            .resolve_read(f.id, 3 * 4096, 4096)
            .expect("degraded resolve");
        assert_eq!(
            cp.borrow().repair_queue.peek(),
            Some(RepairTask { file: f.id, rec: 1 }),
            "the extent a client is paying for moves first"
        );
        assert_eq!(cp.borrow().repair_queue.len(), 2, "promotion, not a dup");
    }

    #[test]
    fn plan_repair_fetches_k_survivors_and_allocates_spares() {
        let cp = ControlPlane::new(7, vec![4, 5, 6, 7, 8, 9]);
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(3, 2),
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 3 * 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 3 * 4096);
        let victim = p.data_chunks[1].node;
        cp.borrow_mut().mark_node_failed(victim);
        let task = cp.borrow_mut().pop_repair().expect("queued");
        let plan = cp.borrow_mut().plan_repair(task).expect("plan");
        let RepairPlan::EcRebuild {
            scheme,
            chunk_len,
            fetch,
            rebuild,
        } = plan
        else {
            panic!("EC extent plans a rebuild, got {plan:?}");
        };
        assert_eq!((scheme.k, scheme.m), (3, 2));
        assert_eq!(chunk_len, 4096);
        assert_eq!(fetch.len(), 3, "exactly k survivors fetched");
        assert!(fetch.iter().all(|(_, c)| c.node != victim));
        assert_eq!(rebuild.len(), 1);
        let (slot, spare) = rebuild[0];
        assert_eq!(slot, 1, "the failed data shard's index");
        assert_ne!(spare.node, victim);
        let stripe_nodes: Vec<u32> = p
            .data_chunks
            .iter()
            .chain(&p.parities)
            .map(|c| c.node)
            .collect();
        assert!(
            !stripe_nodes.contains(&spare.node),
            "spare must be a new failure domain"
        );
        // Commit re-homes the shard; the extent then resolves direct even
        // though the original node is still failed.
        let g0 = cp.borrow().extent_generation(f.id);
        cp.borrow_mut()
            .commit_repair(task, &[(slot, spare)], 1)
            .expect("commit");
        assert_eq!(cp.borrow().extent_generation(f.id), g0 + 1);
        let plan = cp
            .borrow_mut()
            .resolve_read(f.id, 0, 3 * 4096)
            .expect("resolve");
        assert_eq!(plan.degraded_stripes, 0, "re-homed: no reconstruction");
    }

    #[test]
    fn plan_repair_typed_errors_for_unrepairable_extents() {
        // Plain extent: no redundancy to rebuild from.
        let cp = plane();
        let f = cp.borrow_mut().create_file(0, FilePolicy::Plain);
        let p = cp.borrow_mut().place_write(f.id, 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 4096);
        cp.borrow_mut().mark_node_failed(p.primary.node);
        let task = cp.borrow_mut().pop_repair().expect("queued");
        assert_eq!(
            cp.borrow_mut().plan_repair(task).unwrap_err(),
            MetaError::DataUnavailable {
                node: p.primary.node
            }
        );
        // EC with more than m failures: lost.
        let cp = ControlPlane::new(7, vec![4, 5, 6, 7, 8, 9]);
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(3, 2),
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 3 * 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 3 * 4096);
        for c in p.data_chunks.iter().take(3) {
            cp.borrow_mut().mark_node_failed(c.node);
        }
        let task = cp.borrow_mut().pop_repair().expect("queued");
        assert!(matches!(
            cp.borrow_mut().plan_repair(task).unwrap_err(),
            MetaError::TooManyFailures { .. }
        ));
        // RS(3,2) on exactly 5 nodes: one failure leaves no spare domain.
        let cp = plane();
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(3, 2),
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 3 * 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 3 * 4096);
        cp.borrow_mut().mark_node_failed(p.data_chunks[0].node);
        let task = cp.borrow_mut().pop_repair().expect("queued");
        assert_eq!(
            cp.borrow_mut().plan_repair(task).unwrap_err(),
            MetaError::NoSpareNode
        );
    }

    #[test]
    fn recovery_reconciliation_drops_obsolete_tasks_and_readopts() {
        let cp = plane();
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::Replicated {
                k: 3,
                strategy: BcastStrategy::Ring,
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 4096);
        cp.borrow_mut().mark_node_failed(p.replicas[0].node);
        cp.borrow_mut().mark_node_recovered(p.replicas[0].node);
        // Reconciliation re-adopts the node's still-current replica and
        // drops the now-obsolete task instead of burning a repair
        // attempt on an extent that is whole again.
        assert_eq!(cp.borrow_mut().pop_repair(), None, "task dropped");
        let stats = cp.borrow().repair_queue.stats;
        assert_eq!(stats.dropped_on_recovery, 1);
        assert!(stats.shards_readopted >= 1);
    }

    #[test]
    fn commit_onto_a_freshly_failed_spare_requeues_the_extent() {
        // The spare dies while the repair's data movement is in flight:
        // the failure scan ran before the rehome, so the commit itself
        // must notice and put the extent back on the queue.
        let cp = plane();
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::Replicated {
                k: 2,
                strategy: BcastStrategy::Ring,
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 4096);
        cp.borrow_mut().mark_node_failed(p.replicas[0].node);
        let task = cp.borrow_mut().pop_repair().expect("queued");
        let plan = cp.borrow_mut().plan_repair(task).expect("plan");
        let RepairPlan::ReplicaClone { dest, .. } = plan else {
            panic!("clone plan");
        };
        // The chosen spare fails before the commit lands.
        cp.borrow_mut().mark_node_failed(dest[0].1.node);
        cp.borrow_mut()
            .commit_repair(task, &dest, 1)
            .expect("commit");
        assert!(
            cp.borrow().repair_queue.contains(task),
            "extent re-enqueued: it still references a failed node"
        );
    }

    #[test]
    fn replicated_repair_plans_clone_from_survivor() {
        let cp = plane();
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::Replicated {
                k: 3,
                strategy: BcastStrategy::Ring,
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 8192).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 8192);
        cp.borrow_mut().mark_node_failed(p.replicas[1].node);
        let task = cp.borrow_mut().pop_repair().expect("queued");
        let plan = cp.borrow_mut().plan_repair(task).expect("plan");
        let RepairPlan::ReplicaClone { len, src, dest } = plan else {
            panic!("replicated extent plans a clone");
        };
        assert_eq!(len, 8192);
        assert!(src.node != p.replicas[1].node);
        assert_eq!(dest.len(), 1);
        assert_eq!(dest[0].0, 1, "the lost replica slot");
        let replica_nodes: Vec<u32> = p.replicas.iter().map(|c| c.node).collect();
        assert!(!replica_nodes.contains(&dest[0].1.node));
    }

    #[test]
    fn unlink_drops_placement_state() {
        let cp = plane();
        cp.borrow_mut().mkdir_p("/d", 0).expect("mkdir");
        let f = cp
            .borrow_mut()
            .create_file_at("/d/f", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        assert!(cp.borrow().lookup(f.id).is_ok());
        cp.borrow_mut().unlink("/d/f", 1).expect("unlink");
        assert_eq!(
            cp.borrow().lookup(f.id).unwrap_err(),
            MetaError::UnknownFile(f.id)
        );
        assert!(cp.borrow_mut().place_write(f.id, 64).is_err());
    }

    // ---- the metadata service: layouts, the ledger, callbacks ----

    /// A metadata cache subscribed to `cp`, holding an entry for each of
    /// `paths` (existing or not: the tests only ask which are left).
    fn cache_of(cp: &SharedControl, paths: &[&str]) -> Rc<RefCell<MetaCache>> {
        let (root, _) = cp.borrow().peek_entry("/").expect("root");
        let cache = Rc::new(RefCell::new(MetaCache::new()));
        for &p in paths {
            let entry = nadfs_meta::CachedEntry::from_attr(&root, None);
            cache.borrow_mut().insert(p, entry);
        }
        cp.borrow_mut().register_cache(cache.clone());
        cache
    }

    /// What node `id`'s ledger holds.
    fn ledger(c: &ControlPlane, id: u32) -> NodeLedger {
        c.nodes[node_index(&c.nodes, id).expect("a storage node")].ledger
    }

    /// The hosted gauges sum to what the extent maps place.
    fn assert_conserved(c: &ControlPlane) {
        let hosted = c.node_ledgers().fold((0, 0), |(n, b), l| {
            (n + l.chunks_hosted, b + l.bytes_hosted)
        });
        assert_eq!(hosted, (c.live_extent_shards(), c.live_extent_bytes()));
    }

    #[test]
    fn a_plane_without_a_cluster_keeps_its_node_ledger() {
        let cp = ControlPlane::new(7, vec![4, 5, 6, 7, 8, 9]);
        let mut c = cp.borrow_mut();
        c.mkdir("/d", 0).expect("mkdir");
        let scheme = RsScheme::new(3, 2);
        let ec = FilePolicy::ErasureCoded { scheme };
        let ec = c.create_file_at("/d/ec", LayoutSpec::SINGLE, ec);
        let ec = ec.expect("create").id;
        let spec = LayoutSpec::striped(2, 4096);
        let plain = c.create_file_at("/d/p", spec, FilePolicy::Plain);
        let plain = plain.expect("create").id;
        let p = c.place_write(ec, 3 * 4096).expect("place");
        c.commit_write(ec, &p, 3 * 4096);
        let q = c.place_write(plain, 2 * 4096).expect("place");
        c.commit_write(plain, &q, 2 * 4096);
        assert_eq!(c.live_extent_shards(), 5 + 2);
        assert_conserved(&c);
        let placed: u64 = c.node_ledgers().map(|l| l.stripe_chunks_placed).sum();
        assert_eq!(placed, 2, "two stripe units");

        // A data shard's node fails and the repair re-homes the shard:
        // the spare hosts it, and the dead node's copy is an orphan.
        let victim = p.data_chunks[0].node;
        c.mark_node_failed(victim);
        let task = c.pop_repair().expect("queued");
        assert_eq!(task.file, ec, "the lower ino is queued first");
        let plan = c.plan_repair(task).expect("plan");
        let [(_, spare)] = plan.replacements()[..] else {
            panic!("one shard to rebuild: {plan:?}");
        };
        c.commit_repair(task, &plan.replacements(), 0)
            .expect("commit");
        assert_conserved(&c);
        assert_eq!(ledger(&c, spare.node).repair_chunks_hosted, 1);
        let orphaned = ledger(&c, victim).orphaned;
        assert_eq!(orphaned, (1, 4096), "one chunk left on the dead node");

        // Recovery reclaims exactly what the outage orphaned.
        c.mark_node_recovered(victim);
        let l = ledger(&c, victim);
        assert_eq!(l.orphaned, (0, 0));
        assert_eq!(
            (l.stale_chunks_reclaimed, l.stale_bytes_reclaimed),
            orphaned
        );
        assert_conserved(&c);

        // Unlinking both files empties every gauge.
        c.unlink("/d/ec", 0).expect("unlink");
        c.unlink("/d/p", 0).expect("unlink");
        assert_eq!(c.live_extent_shards(), 0);
        assert_conserved(&c);
        assert!(c
            .node_ledgers()
            .all(|l| l.chunks_hosted == 0 && l.bytes_hosted == 0));
    }

    #[test]
    fn layouts_rotate_homes_and_cap_width() {
        let cp = ControlPlane::new(7, vec![10, 11, 12]);
        let mut c = cp.borrow_mut();
        // The home is the first node of the layout on the file's inode.
        let mut create = |path: &str, width| {
            let spec = LayoutSpec::striped(width, 1 << 16);
            let f = c
                .create_file_at(path, spec, FilePolicy::Plain)
                .expect("create");
            let (layout, _) = file_node(c.namespace(), f.id).expect("inode");
            let home = node_index(&c.nodes, layout.nodes[0]).expect("a storage node");
            (home, layout.nodes.clone())
        };
        let a = create("/a", 2);
        let b = create("/b", 2);
        assert_eq!(a, (0, vec![10, 11]));
        assert_eq!(b, (1, vec![11, 12]));
        let (_, wide) = create("/w", 9);
        assert_eq!(wide, vec![12, 10, 11], "width capped at cluster size");
    }

    #[test]
    fn ops_are_counted() {
        let cp = ControlPlane::new(7, vec![1]);
        let mut c = cp.borrow_mut();
        c.mkdir("/d", 0).expect("mkdir");
        c.create_file_at("/d/f", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        c.lookup_path("/d/f").expect("lookup");
        assert!(c.lookup_path("/d/missing").is_err());
        assert!(c.lookup_entry("/d/missing").is_err());
        c.readdir("/d").expect("readdir");
        c.rename("/d/f", "/d/g", 1).expect("rename");
        c.unlink("/d/g", 2).expect("unlink");
        let s = c.meta_stats();
        assert_eq!(
            (s.mkdirs, s.creates, s.readdirs, s.renames, s.unlinks),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(s.lookups, 3, "misses still cost a round-trip");
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn mutations_call_back_subscribed_caches() {
        let cp = plane();
        cp.borrow_mut().mkdir("/a", 0).expect("mkdir");
        let cache = cache_of(&cp, &["/", "/a", "/a/f", "/b", "/b/f", "/c"]);
        let held = |p: &str| cache.borrow().peek(p).is_some();
        cp.borrow_mut()
            .create_file_at("/a/f", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        // The new entry, and the parent whose version the create bumped.
        assert!(!held("/a/f") && !held("/a"));
        assert!(held("/"), "the grandparent did not change");
        cp.borrow_mut().rename("/a", "/b", 1).expect("rename");
        // Both subtrees, and the parent of each.
        assert!(!held("/b") && !held("/b/f") && !held("/"));
        assert!(held("/c"), "callbacks are precise");
    }

    #[test]
    fn noop_mutations_call_back_nothing() {
        let cp = plane();
        cp.borrow_mut().mkdir_p("/a/b", 0).expect("mkdir");
        cp.borrow_mut()
            .create_file_at("/a/f", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        let cache = cache_of(&cp, &["/", "/a", "/a/b", "/a/f"]);
        cp.borrow_mut()
            .mkdir_p("/a/b", 1)
            .expect("idempotent re-create");
        cp.borrow_mut()
            .rename("/a/f", "/a/f", 2)
            .expect("no-op rename");
        assert_eq!(
            cache.borrow().stats.invalidations,
            0,
            "no-op mutations must not wipe client caches"
        );
        // The round-trips still count: the client did call the service.
        let s = cp.borrow().meta_stats();
        assert_eq!((s.mkdirs, s.renames), (2, 1));
    }

    #[test]
    fn mkdir_p_calls_back_every_level_it_creates_and_their_parent() {
        let cp = plane();
        cp.borrow_mut().mkdir("/a", 0).expect("mkdir");
        let cache = cache_of(&cp, &["/", "/a", "/a/b", "/a/b/c"]);
        cp.borrow_mut().mkdir_p("/a/b/c", 1).expect("mkdir -p");
        let held = |p: &str| cache.borrow().peek(p).is_some();
        assert!(
            !held("/a"),
            "creating /a/b bumped the version and nlink of a cached /a"
        );
        assert!(!held("/a/b") && !held("/a/b/c"));
        assert!(held("/"), "the root did not change");
    }

    #[test]
    fn attr_flush_batches_appends() {
        let cp = plane();
        let f = cp
            .borrow_mut()
            .create_file_at("/f", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        let cache = cache_of(&cp, &["/f"]);
        let update = nadfs_meta::DirtyAttr {
            appended: 8192,
            mtime_ns: 9,
        };
        cp.borrow_mut()
            .flush_attrs(&mut [(f.id, update)])
            .expect("flush");
        let (attr, _) = cp.borrow().peek_entry("/f").expect("entry");
        assert_eq!(attr.size, 8192);
        assert_eq!(cp.borrow().meta_stats().attr_flushes, 1);
        assert!(
            cache.borrow().peek("/f").is_none(),
            "an applied update calls back"
        );
    }

    // ---- sharded-plane tests ----

    fn sharded(n: usize) -> SharedControl {
        ControlPlane::new_sharded(7, vec![4, 5, 6, 7, 8], n)
    }

    #[test]
    fn sharded_plane_behaves_like_single_shard() {
        // The tentpole invariant: behavior is shard-count-invariant —
        // the same op sequence yields the same observable state at 1
        // and 4 shards.
        for n in [1usize, 4] {
            let cp = sharded(n);
            cp.borrow_mut().mkdir_p("/a/b", 0).expect("mkdir");
            let f = cp
                .borrow_mut()
                .create_file_at("/a/b/f", LayoutSpec::striped(2, 4096), FilePolicy::Plain)
                .expect("create");
            let p = cp.borrow_mut().place_write(f.id, 2 * 4096).expect("place");
            cp.borrow_mut().commit_write(f.id, &p, 2 * 4096);
            assert_eq!(cp.borrow().lookup(f.id).expect("meta").size, 2 * 4096);
            let plan = cp
                .borrow_mut()
                .resolve_read(f.id, 0, 2 * 4096)
                .expect("resolve");
            assert_eq!(plan.len, 2 * 4096, "shards={n}");
            cp.borrow_mut().rename("/a/b/f", "/a/g", 1).expect("rename");
            assert_eq!(
                cp.borrow_mut().lookup_path("/a/g").expect("moved").ino,
                f.id
            );
            cp.borrow_mut().unlink("/a/g", 2).expect("unlink");
            assert!(cp.borrow().lookup(f.id).is_err());
        }
    }

    #[test]
    fn mutations_land_in_the_owning_shards_op_log() {
        let cp = sharded(4);
        cp.borrow_mut().mkdir_p("/d", 0).expect("mkdir");
        cp.borrow_mut()
            .create_file_at("/d/f", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        let total: usize = cp.borrow().shard_log_lens().iter().sum();
        assert!(total >= 2, "mkdir + create each logged, got {total}");
        let stats = cp.borrow().shard_stats();
        let muts: u64 = stats.iter().map(|s| s.mutations).sum();
        assert!(muts >= 2, "routed mutations counted, got {muts}");
    }

    #[test]
    fn cross_shard_rename_commits_two_phase() {
        let cp = sharded(4);
        cp.borrow_mut().mkdir_p("/a", 0).expect("mkdir");
        cp.borrow_mut().mkdir_p("/b", 0).expect("mkdir");
        // Create files until one lands with from-parent and to-parent on
        // different shards (ino allocation is deterministic, so this
        // terminates immediately in practice).
        let a_ino = cp.borrow().namespace().resolve("/a").expect("a");
        let b_ino = cp.borrow().namespace().resolve("/b").expect("b");
        let (sa, sb) = (cp.borrow().shard_of(a_ino), cp.borrow().shard_of(b_ino));
        cp.borrow_mut()
            .create_file_at("/a/f", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        cp.borrow_mut().rename("/a/f", "/b/f", 1).expect("rename");
        assert!(cp.borrow_mut().lookup_path("/b/f").is_ok());
        if sa != sb {
            let txns: u64 = cp
                .borrow()
                .shard_stats()
                .iter()
                .map(|s| s.cross_shard_txns)
                .sum();
            assert_eq!(txns, 1, "one two-phase transaction coordinated");
            // Both participants hold Intent + Commit; recovery finds
            // nothing dangling.
            assert_eq!(cp.borrow_mut().recover_shards(), TxRecovery::default());
        }
    }

    /// A 4-shard plane with `/a/f`, where `/a` and the returned directory
    /// hash to different shards (so renaming `/a/f` into it is a
    /// two-participant transaction).
    fn cross_shard_rename_fixture() -> (SharedControl, String) {
        let cp = sharded(4);
        cp.borrow_mut().mkdir_p("/a", 0).expect("mkdir");
        cp.borrow_mut()
            .create_file_at("/a/f", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        let shard_of = |cp: &SharedControl, p: &str| {
            let c = cp.borrow();
            c.shard_of(c.namespace().resolve(p).expect("dir"))
        };
        let to = (0..8)
            .map(|i| format!("/b{i}"))
            .find(|d| {
                cp.borrow_mut().mkdir_p(d, 0).expect("mkdir");
                shard_of(&cp, d) != shard_of(&cp, "/a")
            })
            .expect("eight directories cover more than one of four shards");
        (cp, format!("{to}/f"))
    }

    #[test]
    fn crash_after_intent_rolls_back_and_leaves_namespace_untouched() {
        let (cp, to) = cross_shard_rename_fixture();
        // Two participants: the second append is the last `Intent`.
        cp.borrow_mut().crash_after_appends(2);
        assert_eq!(
            cp.borrow_mut().rename("/a/f", &to, 1).unwrap_err(),
            MetaError::TxAborted
        );
        // The op never applied: source intact, destination absent.
        assert!(cp.borrow_mut().lookup_path("/a/f").is_ok());
        assert!(cp.borrow_mut().lookup_path(&to).is_err());
        let rec = cp.borrow_mut().recover_shards();
        assert_eq!(rec.rolled_back, 1);
        assert_eq!(rec.rolled_forward, 0);
        // Recovery is idempotent.
        assert_eq!(cp.borrow_mut().recover_shards(), TxRecovery::default());
        // And the namespace still works after recovery.
        cp.borrow_mut().rename("/a/f", &to, 2).expect("rename");
        assert!(cp.borrow_mut().lookup_path(&to).is_ok());
    }

    #[test]
    fn crash_after_apply_rolls_forward() {
        let (cp, to) = cross_shard_rename_fixture();
        // The third append is the coordinator's `Applied`: it died before
        // acking — the client sees an aborted transaction, but the
        // mutation is durably applied.
        cp.borrow_mut().crash_after_appends(3);
        assert_eq!(
            cp.borrow_mut().rename("/a/f", &to, 1).unwrap_err(),
            MetaError::TxAborted
        );
        assert!(cp.borrow_mut().lookup_path(&to).is_ok());
        assert!(cp.borrow_mut().lookup_path("/a/f").is_err());
        let rec = cp.borrow_mut().recover_shards();
        assert_eq!(rec.rolled_forward, 1, "Applied witness → roll forward");
        assert_eq!(rec.rolled_back, 0);
        assert_eq!(cp.borrow_mut().recover_shards(), TxRecovery::default());
    }

    #[test]
    fn admission_serializes_ops_on_one_shard() {
        let cp = sharded(1);
        cp.borrow_mut().mkdir_p("/d", 0).expect("mkdir");
        let w0 = cp.borrow_mut().admit_last(0);
        assert_eq!(w0, 0, "empty shard: no wait");
        // A second op at the same instant queues behind the first's
        // mutate_service occupancy.
        cp.borrow_mut().mkdir_p("/d2", 0).expect("mkdir");
        let w1 = cp.borrow_mut().admit_last(0);
        assert_eq!(
            w1,
            crate::config::MUTATE_SERVICE.ps(),
            "second op waits out the first's service time"
        );
        let stats = cp.borrow().shard_stats();
        assert_eq!(stats[0].queue_wait_ps, w1);
        // With no routed op pending, admit is a no-op.
        assert_eq!(cp.borrow_mut().admit_last(0), 0);
    }

    #[test]
    fn overwrite_churn_triggers_compaction_and_conserves_resolution() {
        let cp = plane();
        cp.borrow_mut().mkdir_p("/d", 0).expect("mkdir");
        let f = cp
            .borrow_mut()
            .create_file_at("/d/hot", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        // Overwrite the same 4 KiB range far past the compaction
        // threshold: all but the newest record are fully shadowed.
        for _ in 0..40 {
            let p = cp
                .borrow_mut()
                .place_write_at(f.id, 4096, 0)
                .expect("place");
            cp.borrow_mut().commit_write(f.id, &p, 4096);
        }
        let stats = cp.borrow().shard_stats();
        assert!(
            stats[0].compactions >= 1,
            "40 full overwrites must compact (threshold 32)"
        );
        assert!(stats[0].records_dropped >= 30);
        // The survivor still resolves the whole range directly.
        let plan = cp
            .borrow_mut()
            .resolve_read(f.id, 0, 4096)
            .expect("resolve");
        assert_eq!(plan.len, 4096);
        assert!(plan
            .pieces
            .iter()
            .all(|p| matches!(p, nadfs_meta::ReadPiece::Direct { .. })));
        // Hosted gauges track the drop: only the live records' bytes
        // remain (no storage stats attached here, but the live-extent
        // ledger must shrink).
        assert!(cp.borrow().live_extent_shards() < 40);
    }

    #[test]
    fn inflight_repair_blocks_compaction() {
        let cp = plane();
        let f = cp.borrow_mut().create_file(
            0,
            FilePolicy::Replicated {
                k: 2,
                strategy: BcastStrategy::Ring,
            },
        );
        let p = cp.borrow_mut().place_write(f.id, 4096).expect("place");
        cp.borrow_mut().commit_write(f.id, &p, 4096);
        cp.borrow_mut().mark_node_failed(p.replicas[0].node);
        let task = cp.borrow_mut().pop_repair().expect("queued");
        assert_eq!(cp.borrow().inflight_repair_count(), 1);
        cp.borrow_mut().mark_node_recovered(p.replicas[0].node);
        // Queue is empty and no nodes are failed, but the popped task
        // still pins record indices.
        let hot = cp.borrow_mut().create_file(0, FilePolicy::Plain);
        for _ in 0..40 {
            let w = cp
                .borrow_mut()
                .place_write_at(hot.id, 4096, 0)
                .expect("place");
            cp.borrow_mut().commit_write(hot.id, &w, 4096);
        }
        let compactions: u64 = cp
            .borrow()
            .shard_stats()
            .iter()
            .map(|s| s.compactions)
            .sum();
        assert_eq!(compactions, 0, "in-flight repair pins record indices");
        cp.borrow_mut().abandon_repair(task);
        assert_eq!(cp.borrow().inflight_repair_count(), 0);
        let w = cp
            .borrow_mut()
            .place_write_at(hot.id, 4096, 0)
            .expect("place");
        cp.borrow_mut().commit_write(hot.id, &w, 4096);
        let compactions: u64 = cp
            .borrow()
            .shard_stats()
            .iter()
            .map(|s| s.compactions)
            .sum();
        assert!(compactions >= 1, "released: compaction resumes");
    }
}
