//! Inodes: the unit of the hierarchical namespace.
//!
//! Every entry — file or directory — is an inode with a stable id and a
//! monotonically increasing version. Versions are the cache-coherence
//! currency: any mutation of an inode (or of a directory's entry set)
//! bumps its version, and client caches compare versions to detect
//! staleness (see [`crate::cache`]).

use std::collections::BTreeMap;

use crate::layout::StripedLayout;
use nadfs_wire::{BcastStrategy, RsScheme};

/// Stable inode id. The root directory is always inode 1.
pub type InodeId = u64;

/// The root directory's inode id.
pub(crate) const ROOT_INO: InodeId = 1;

/// What kind of object an inode names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InodeKind {
    Dir,
    File,
}

/// Resiliency policy attached to a file by the metadata service.
///
/// (Lives here rather than in the control plane so the namespace can hand
/// out complete file metadata; `nadfs-core` re-exports it.)
#[derive(Clone, Debug, PartialEq)]
pub enum FilePolicy {
    /// Plain writes (authentication only).
    Plain,
    /// k-way replication with the given broadcast schedule.
    Replicated { k: u8, strategy: BcastStrategy },
    /// Reed-Solomon erasure coding.
    ErasureCoded { scheme: RsScheme },
}

/// The externally visible attributes of an inode (what `stat` returns).
#[derive(Clone, Debug, PartialEq)]
pub struct InodeAttr {
    pub ino: InodeId,
    pub kind: InodeKind,
    /// Logical file size in bytes (0 for directories).
    pub size: u64,
    /// Bumped on every mutation of this inode.
    pub version: u64,
    /// Directories: entry count. Files: always 1 (no hard links yet).
    pub(crate) nlink: u32,
    /// Last-mutation timestamp, nanoseconds of simulated time.
    pub(crate) mtime_ns: u64,
}

/// Directory payload.
#[derive(Clone, Debug, Default)]
pub(crate) struct DirNode {
    /// Sorted so `readdir` is deterministic.
    pub(crate) entries: BTreeMap<String, InodeId>,
}

/// File payload: where the bytes live and under which policy.
#[derive(Clone, Debug)]
pub struct FileNode {
    pub layout: StripedLayout,
    pub policy: FilePolicy,
}

/// Kind-specific inode payload.
#[derive(Clone, Debug)]
pub(crate) enum InodeBody {
    Dir(DirNode),
    File(FileNode),
}

/// A namespace entry: attributes plus kind-specific payload. Every inode
/// carries its parent and entry name, so paths reconstruct in O(depth).
#[derive(Clone, Debug)]
pub struct Inode {
    pub(crate) attr: InodeAttr,
    pub(crate) body: InodeBody,
    /// Parent directory (the root's parent is itself).
    pub(crate) parent: InodeId,
    /// This inode's entry name in the parent ("" for the root).
    pub(crate) name: String,
}

impl Inode {
    pub(crate) fn new_dir(ino: InodeId, parent: InodeId, now_ns: u64) -> Inode {
        Inode {
            attr: InodeAttr {
                ino,
                kind: InodeKind::Dir,
                size: 0,
                version: 1,
                nlink: 0,
                mtime_ns: now_ns,
            },
            body: InodeBody::Dir(DirNode {
                entries: BTreeMap::new(),
            }),
            parent,
            name: String::new(),
        }
    }

    pub(crate) fn new_file(
        ino: InodeId,
        layout: StripedLayout,
        policy: FilePolicy,
        now_ns: u64,
    ) -> Inode {
        Inode {
            attr: InodeAttr {
                ino,
                kind: InodeKind::File,
                size: 0,
                version: 1,
                nlink: 1,
                mtime_ns: now_ns,
            },
            body: InodeBody::File(FileNode { layout, policy }),
            parent: ROOT_INO, // set for real by the namespace on insert
            name: String::new(),
        }
    }

    pub(crate) fn dir(&self) -> Option<&DirNode> {
        match &self.body {
            InodeBody::Dir(d) => Some(d),
            InodeBody::File(_) => None,
        }
    }

    pub(crate) fn dir_mut(&mut self) -> Option<&mut DirNode> {
        match &mut self.body {
            InodeBody::Dir(d) => Some(d),
            InodeBody::File(_) => None,
        }
    }

    pub fn file(&self) -> Option<&FileNode> {
        match &self.body {
            InodeBody::File(f) => Some(f),
            InodeBody::Dir(_) => None,
        }
    }
}
