//! The metadata service: namespace + layout allocation + traffic counters.
//!
//! This is what the control node runs. It owns the [`Namespace`], assigns
//! striped layouts over the cluster's storage nodes at create time
//! (rotating the stripe's starting node so load spreads), and counts every
//! client-visible operation — the round-trip ledger the client cache is
//! measured against.

use crate::cache::DirtyAttr;
use crate::error::MetaError;
use crate::inode::{FilePolicy, InodeAttr, InodeId};
use crate::layout::{LayoutSpec, StripedLayout};
use crate::namespace::Namespace;

type Result<T> = std::result::Result<T, MetaError>;

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

/// A mutation event, published so the integration layer can fan out cache
/// invalidation callbacks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetaEvent {
    /// A single path gained or changed an entry.
    Changed { path: String },
    /// A whole subtree moved or vanished; caches drop the prefix.
    SubtreeGone { path: String },
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

/// The control node's metadata service.
pub struct MetadataService {
    pub ns: Namespace,
    storage_nodes: Vec<u32>,
    /// Rotates so consecutive creates start their stripes on different
    /// nodes (same role as the seed's round-robin `home`).
    next_home: usize,
    pub stats: MetaOpStats,
    events: Vec<MetaEvent>,
}

impl MetadataService {
    pub fn new(storage_nodes: Vec<u32>) -> MetadataService {
        assert!(!storage_nodes.is_empty(), "need at least one storage node");
        MetadataService {
            ns: Namespace::new(),
            storage_nodes,
            next_home: 0,
            stats: MetaOpStats::default(),
            events: Vec::new(),
        }
    }

    /// Build a concrete layout for a new file: `spec.stripe_width` nodes,
    /// round-robin from a rotating start.
    pub(crate) fn alloc_layout(&mut self, spec: LayoutSpec) -> StripedLayout {
        let n = self.storage_nodes.len();
        let width = (spec.stripe_width as usize).min(n);
        let home = self.next_home;
        self.next_home = (self.next_home + 1) % n;
        let nodes = (0..width)
            .map(|i| self.storage_nodes[(home + i) % n])
            .collect();
        StripedLayout {
            chunk_size: spec.chunk_size,
            nodes,
        }
    }

    /// Drain mutation events accumulated since the last call.
    pub fn take_events(&mut self) -> Vec<MetaEvent> {
        std::mem::take(&mut self.events)
    }

    /// Entry mutations bump the parent directory's version too (nlink,
    /// mtime): publish a `Changed` for the parent path so cached parent
    /// attrs don't go stale.
    fn push_parent_changed(&mut self, path: &str) {
        if let Some(cut) = path.trim_end_matches('/').rfind('/') {
            let parent = if cut == 0 { "/" } else { &path[..cut] };
            self.events.push(MetaEvent::Changed {
                path: parent.to_string(),
            });
        }
    }

    pub fn lookup(&mut self, path: &str) -> Result<InodeAttr> {
        self.stats.lookups += 1;
        self.ns.lookup(path)
    }

    pub fn mkdir(&mut self, path: &str, now_ns: u64) -> Result<InodeAttr> {
        self.stats.mkdirs += 1;
        let attr = self.ns.mkdir(path, now_ns)?;
        self.events.push(MetaEvent::Changed { path: path.into() });
        self.push_parent_changed(path);
        Ok(attr)
    }

    pub fn mkdir_p(&mut self, path: &str, now_ns: u64) -> Result<InodeAttr> {
        self.stats.mkdirs += 1;
        let seq = self.ns.change_seq;
        let attr = self.ns.mkdir_p(path, now_ns)?;
        if self.ns.change_seq != seq {
            // Idempotent re-creates mutate nothing: no invalidation.
            self.events.push(MetaEvent::Changed { path: path.into() });
            self.push_parent_changed(path);
        }
        Ok(attr)
    }

    pub fn create(
        &mut self,
        path: &str,
        spec: LayoutSpec,
        policy: FilePolicy,
        now_ns: u64,
    ) -> Result<(InodeAttr, StripedLayout)> {
        self.stats.creates += 1;
        let layout = self.alloc_layout(spec);
        let attr = self.ns.create(path, layout.clone(), policy, now_ns)?;
        self.events.push(MetaEvent::Changed { path: path.into() });
        self.push_parent_changed(path);
        Ok((attr, layout))
    }

    pub fn readdir(&mut self, path: &str) -> Result<Vec<(String, InodeAttr)>> {
        self.stats.readdirs += 1;
        self.ns.readdir(path)
    }

    /// Rename; returns the inode id of a replaced target (if any) so the
    /// control plane can drop per-file placement state for it.
    pub fn rename(&mut self, from: &str, to: &str, now_ns: u64) -> Result<Option<InodeId>> {
        self.stats.renames += 1;
        let seq = self.ns.change_seq;
        let replaced = self.ns.rename(from, to, now_ns)?;
        if self.ns.change_seq != seq {
            // A no-op rename (same source and target) mutates nothing —
            // don't wipe every client's cached subtree for it.
            self.events
                .push(MetaEvent::SubtreeGone { path: from.into() });
            self.events.push(MetaEvent::SubtreeGone { path: to.into() });
            self.push_parent_changed(from);
            self.push_parent_changed(to);
        }
        Ok(replaced)
    }

    pub fn unlink(&mut self, path: &str, now_ns: u64) -> Result<InodeAttr> {
        self.stats.unlinks += 1;
        let attr = self.ns.unlink(path, now_ns)?;
        self.events
            .push(MetaEvent::SubtreeGone { path: path.into() });
        self.push_parent_changed(path);
        Ok(attr)
    }

    /// Note a layout-level change to `ino`'s data placement (extent
    /// re-homing by the repair pipeline): bump the inode's version so
    /// version checks see it, and publish `Changed` + `LayoutChanged`
    /// events so client caches drop stale entries (and stale data) through
    /// the ordinary callback channel. A file unlinked while its repair was
    /// in flight is a silent no-op.
    pub fn note_layout_change(&mut self, ino: InodeId, generation: u64, now_ns: u64) {
        if self.ns.append(ino, 0, now_ns).is_ok() {
            if let Some(path) = self.ns.path_of(ino) {
                self.events.push(MetaEvent::Changed { path });
            }
            self.events
                .push(MetaEvent::LayoutChanged { ino, generation });
        }
    }

    /// Note that `ino`'s extent map advanced to `generation` (a committed
    /// write): publishes only the `LayoutChanged` event. Namespace attrs
    /// are NOT touched — size/mtime ride the write-back attr flush — so a
    /// write storm does not bump inode versions per write; data caches
    /// keyed by the generation still invalidate precisely.
    pub fn note_extent_commit(&mut self, ino: InodeId, generation: u64) {
        self.events
            .push(MetaEvent::LayoutChanged { ino, generation });
    }

    /// Publish a prefetch advisory for a file under sequential scan; the
    /// integration layer fans it out to client read caches like an
    /// invalidation, but it only *warms* readahead, never drops data.
    pub fn note_prefetch_hint(&mut self, ino: InodeId, offset: u64, len: u32) {
        self.events
            .push(MetaEvent::PrefetchHint { ino, offset, len });
    }

    /// Note that `ino`'s data is gone entirely (unlink / rename-replace):
    /// data caches must drop the file no matter what generation they hold.
    pub fn note_extents_gone(&mut self, ino: InodeId) {
        self.events.push(MetaEvent::LayoutChanged {
            ino,
            generation: u64::MAX,
        });
    }

    /// Apply a client's write-back attr flush (one round-trip for the
    /// whole batch). Applied per entry in inode order so the outcome is
    /// deterministic; updates for files that vanished in the meantime
    /// (unlinked or replaced) are skipped, never blocking the rest of the
    /// batch. Each applied update publishes a `Changed` event so other
    /// clients' cached attrs are invalidated.
    pub fn flush_attrs(&mut self, updates: &[(InodeId, DirtyAttr)]) -> Result<()> {
        self.stats.attr_flushes += 1;
        let mut sorted: Vec<&(InodeId, DirtyAttr)> = updates.iter().collect();
        sorted.sort_by_key(|(ino, _)| *ino);
        for (ino, d) in sorted {
            match self.ns.append(*ino, d.appended, d.mtime_ns) {
                Ok(_) => {
                    if let Some(path) = self.ns.path_of(*ino) {
                        self.events.push(MetaEvent::Changed { path });
                    }
                }
                Err(MetaError::NotFound) => continue, // unlinked mid-batch
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_rotate_homes_and_cap_width() {
        let mut s = MetadataService::new(vec![10, 11, 12]);
        let a = s.alloc_layout(LayoutSpec::striped(2, 1 << 16));
        let b = s.alloc_layout(LayoutSpec::striped(2, 1 << 16));
        assert_eq!(a.nodes, vec![10, 11]);
        assert_eq!(b.nodes, vec![11, 12]);
        let wide = s.alloc_layout(LayoutSpec::striped(9, 4096));
        assert_eq!(wide.nodes.len(), 3, "width capped at cluster size");
    }

    #[test]
    fn ops_are_counted() {
        let mut s = MetadataService::new(vec![1]);
        s.mkdir("/d", 0).unwrap();
        s.create("/d/f", LayoutSpec::SINGLE, FilePolicy::Plain, 0)
            .unwrap();
        let _ = s.lookup("/d/f").unwrap();
        let _ = s.lookup("/d/missing");
        s.rename("/d/f", "/d/g", 1).unwrap();
        s.unlink("/d/g", 2).unwrap();
        assert_eq!(s.stats.mkdirs, 1);
        assert_eq!(s.stats.creates, 1);
        assert_eq!(s.stats.lookups, 2, "misses still cost a round-trip");
        assert_eq!(s.stats.renames, 1);
        assert_eq!(s.stats.unlinks, 1);
        assert_eq!(s.stats.total(), 6);
    }

    #[test]
    fn mutations_publish_invalidation_events() {
        let mut s = MetadataService::new(vec![1]);
        s.mkdir("/a", 0).unwrap();
        s.create("/a/f", LayoutSpec::SINGLE, FilePolicy::Plain, 0)
            .unwrap();
        s.rename("/a", "/b", 1).unwrap();
        let ev = s.take_events();
        assert!(ev.contains(&MetaEvent::SubtreeGone { path: "/a".into() }));
        assert!(ev.contains(&MetaEvent::SubtreeGone { path: "/b".into() }));
        // Entry mutations also invalidate the parent dir (version bump).
        assert!(ev.contains(&MetaEvent::Changed { path: "/a".into() }));
        assert!(ev.contains(&MetaEvent::Changed { path: "/".into() }));
        assert!(s.take_events().is_empty(), "events drain");
    }

    #[test]
    fn noop_mutations_publish_nothing() {
        let mut s = MetadataService::new(vec![1]);
        s.mkdir_p("/a/b", 0).unwrap();
        s.take_events();
        s.mkdir_p("/a/b", 1).unwrap(); // idempotent re-create
        s.create("/a/f", LayoutSpec::SINGLE, FilePolicy::Plain, 0)
            .unwrap();
        s.take_events();
        s.rename("/a/f", "/a/f", 2).unwrap(); // no-op rename
        assert!(
            s.take_events().is_empty(),
            "no-op mutations must not wipe client caches"
        );
        // The round-trips still count: the client did call the service.
        assert_eq!(s.stats.mkdirs, 2);
        assert_eq!(s.stats.renames, 1);
    }

    #[test]
    fn attr_flush_batches_appends() {
        let mut s = MetadataService::new(vec![1]);
        let (attr, _) = s
            .create("/f", LayoutSpec::SINGLE, FilePolicy::Plain, 0)
            .unwrap();
        let updates = vec![(
            attr.ino,
            crate::cache::DirtyAttr {
                appended: 8192,
                mtime_ns: 9,
            },
        )];
        s.flush_attrs(&updates).unwrap();
        assert_eq!(s.ns.lookup("/f").unwrap().size, 8192);
        assert_eq!(s.stats.attr_flushes, 1);
    }
}
