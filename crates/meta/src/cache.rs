//! Client-side metadata cache with version-based invalidation.
//!
//! Each client keeps a path → entry map filled by lookup responses. A hit
//! answers locally; a miss costs a control-plane round-trip. Coherence
//! uses the namespace's versions two ways:
//!
//! * **Callbacks**: the control plane pushes invalidation records to every
//!   registered cache when a mutation lands (the paper's control services
//!   are shared state, so this models an AFS/NFSv4-style callback channel;
//!   SwitchFS pushes the same information from the switch).
//! * **Version checks**: any response observed with a newer version than
//!   the cached one evicts the stale entry (defense in depth — a callback
//!   race cannot resurrect old metadata).
//!
//! The cache is also *write-back* for file attributes: size/mtime updates
//! from local writes are buffered and only flushed to the control plane in
//! batches, so a write storm does not pay one metadata round-trip per
//! write.

use std::collections::BTreeMap;

use crate::inode::{InodeAttr, InodeId};
use crate::layout::StripedLayout;

/// One cached path resolution.
#[derive(Clone, Debug)]
pub struct CachedEntry {
    /// Inode version observed when the entry was filled.
    pub(crate) version: u64,
    pub size: u64,
    /// File layout, if the entry is a file.
    pub layout: Option<StripedLayout>,
}

impl CachedEntry {
    pub fn from_attr(attr: &InodeAttr, layout: Option<StripedLayout>) -> CachedEntry {
        CachedEntry {
            version: attr.version,
            size: attr.size,
            layout,
        }
    }
}

/// Buffered (not yet flushed) local attribute mutation.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirtyAttr {
    /// Bytes appended locally since the last flush.
    pub appended: u64,
    pub mtime_ns: u64,
}

/// Observable cache behavior (asserted by tests, reported by benches).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries dropped by callbacks or version checks.
    pub invalidations: u64,
    /// Local attr updates absorbed without a round-trip.
    pub writeback_absorbed: u64,
    /// Flush batches sent to the control plane.
    pub writeback_flushes: u64,
}

/// Cached entries by path. Probed by path; `invalidate_subtree`'s
/// `retain` and `clear` remove without depending on the order they visit.
type Entries = std::collections::HashMap<String, CachedEntry>; // membership only

/// The per-client cache.
#[derive(Default)]
pub struct MetaCache {
    entries: Entries,
    /// Ordered: a flush hands the batch over in ino order, and the
    /// control plane charges it to the first ino's shard.
    dirty: BTreeMap<InodeId, DirtyAttr>,
    pub stats: CacheStats,
}

impl MetaCache {
    pub fn new() -> MetaCache {
        MetaCache::default()
    }

    /// Look up a path; counts a hit or a miss.
    pub fn get(&mut self, path: &str) -> Option<CachedEntry> {
        match self.entries.get(path) {
            Some(e) => {
                self.stats.hits += 1;
                Some(e.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peek without touching hit/miss counters.
    pub fn peek(&self, path: &str) -> Option<&CachedEntry> {
        self.entries.get(path)
    }

    pub fn insert(&mut self, path: impl Into<String>, entry: CachedEntry) {
        self.entries.insert(path.into(), entry);
    }

    /// Version check: drop the entry if `observed_version` is newer than
    /// what we cached. Returns true if the entry was evicted.
    pub fn note_version(&mut self, path: &str, observed_version: u64) -> bool {
        if let Some(e) = self.entries.get(path) {
            if observed_version > e.version {
                self.entries.remove(path);
                self.stats.invalidations += 1;
                return true;
            }
        }
        false
    }

    /// Callback: a single path changed (create/unlink target, file attrs).
    pub fn invalidate_path(&mut self, path: &str) {
        if self.entries.remove(path).is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Callback: everything at or under `prefix` changed (rename/unlink of
    /// a directory). `prefix` is a path, not a string prefix: `/a` must
    /// not invalidate `/ab`.
    pub fn invalidate_subtree(&mut self, prefix: &str) {
        let before = self.entries.len();
        self.entries.retain(|p, _| {
            !(p == prefix
                || (p.len() > prefix.len()
                    && p.starts_with(prefix)
                    && p.as_bytes()[prefix.len()] == b'/'))
        });
        self.stats.invalidations += (before - self.entries.len()) as u64;
    }

    /// Write-back: absorb a local append without a round-trip. The caller
    /// flushes via [`MetaCache::take_dirty`] when a batch boundary or a
    /// dependent read arrives.
    pub fn buffer_append(&mut self, ino: InodeId, bytes: u64, now_ns: u64) {
        let d = self.dirty.entry(ino).or_default();
        d.appended += bytes;
        d.mtime_ns = now_ns;
        self.stats.writeback_absorbed += 1;
    }

    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Drain buffered attr updates for flushing to the control plane,
    /// in ino order.
    pub fn take_dirty(&mut self) -> Vec<(InodeId, DirtyAttr)> {
        if self.dirty.is_empty() {
            return Vec::new();
        }
        self.stats.writeback_flushes += 1;
        std::mem::take(&mut self.dirty).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(version: u64) -> CachedEntry {
        CachedEntry {
            version,
            size: 0,
            layout: None,
        }
    }

    #[test]
    fn hits_and_misses_counted() {
        let mut c = MetaCache::new();
        assert!(c.get("/a").is_none());
        c.insert("/a", entry(1));
        assert!(c.get("/a").is_some());
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn newer_version_evicts() {
        let mut c = MetaCache::new();
        c.insert("/a", entry(3));
        assert!(!c.note_version("/a", 3), "same version keeps the entry");
        assert!(c.note_version("/a", 4), "newer version evicts");
        assert!(c.peek("/a").is_none());
        assert_eq!(c.stats.invalidations, 1);
    }

    #[test]
    fn subtree_invalidation_respects_component_boundaries() {
        let mut c = MetaCache::new();
        c.insert("/a", entry(1));
        c.insert("/a/f", entry(1));
        c.insert("/a/sub/g", entry(1));
        c.insert("/ab", entry(1));
        c.invalidate_subtree("/a");
        assert!(c.peek("/a").is_none());
        assert!(c.peek("/a/f").is_none());
        assert!(c.peek("/a/sub/g").is_none());
        assert!(c.peek("/ab").is_some(), "/ab is not under /a");
        assert_eq!(c.stats.invalidations, 3);
    }

    #[test]
    fn writeback_batches() {
        let mut c = MetaCache::new();
        c.buffer_append(7, 100, 1);
        c.buffer_append(7, 100, 2);
        c.buffer_append(8, 50, 3);
        assert_eq!(c.dirty_count(), 2);
        let d = c.take_dirty();
        assert_eq!(d[0].0, 7, "ino order");
        assert_eq!(d[0].1.appended, 200);
        assert_eq!(d[1].1.appended, 50);
        assert_eq!(c.stats.writeback_absorbed, 3);
        assert_eq!(c.stats.writeback_flushes, 1);
        assert!(c.take_dirty().is_empty(), "empty flush is free");
        assert_eq!(c.stats.writeback_flushes, 1);
    }
}
