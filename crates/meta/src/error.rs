//! Typed metadata-service errors.
//!
//! Every namespace operation returns `Result<_, MetaError>` so misses and
//! rejected operations are observable to callers (and propagate through
//! the client as failed jobs rather than silent drops or panics).

use std::fmt;

/// Why a metadata operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetaError {
    /// No entry at the path (or no inode with the id).
    NotFound,
    /// A non-final path component resolved to a file.
    NotADirectory,
    /// The operation needs a file but the path is a directory.
    IsADirectory,
    /// Create/mkdir target already exists.
    AlreadyExists,
    /// Unlink/rename-replace target is a non-empty directory.
    NotEmpty,
    /// Rename would move a directory into its own subtree.
    RenameIntoDescendant,
    /// Malformed path (relative, empty component, trailing garbage).
    InvalidPath,
    /// A file id was presented that the layout service never issued.
    UnknownFile(u64),
    /// The byte range lives (only) on a storage node marked failed, and
    /// no replica or erasure-coded reconstruction can serve it.
    DataUnavailable { node: u32 },
    /// An erasure-coded stripe has fewer than k surviving shards.
    TooManyFailures { stripe_offset: u64 },
    /// Repair needs a spare storage node, but every node is either failed
    /// or already hosts a shard of the extent being re-protected.
    NoSpareNode,
    /// The file's resiliency policy cannot be placed on this cluster:
    /// zero replicas or shards, or more of them than storage nodes.
    InvalidPolicy,
    /// A cross-shard metadata transaction died mid-protocol (the
    /// coordinator crashed between the intent and commit records); shard
    /// recovery rolls the intent back and the operation never applied.
    TxAborted,
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::NotFound => write!(f, "no such file or directory"),
            MetaError::NotADirectory => write!(f, "not a directory"),
            MetaError::IsADirectory => write!(f, "is a directory"),
            MetaError::AlreadyExists => write!(f, "file exists"),
            MetaError::NotEmpty => write!(f, "directory not empty"),
            MetaError::RenameIntoDescendant => {
                write!(f, "cannot rename a directory into its own subtree")
            }
            MetaError::InvalidPath => write!(f, "invalid path"),
            MetaError::UnknownFile(id) => write!(f, "unknown file id {id}"),
            MetaError::DataUnavailable { node } => {
                write!(f, "data unavailable: storage node {node} is failed")
            }
            MetaError::TooManyFailures { stripe_offset } => {
                write!(
                    f,
                    "stripe at offset {stripe_offset} has fewer than k surviving shards"
                )
            }
            MetaError::NoSpareNode => {
                write!(f, "no spare storage node available for repair placement")
            }
            MetaError::InvalidPolicy => {
                write!(f, "resiliency policy does not fit the cluster")
            }
            MetaError::TxAborted => {
                write!(f, "cross-shard metadata transaction aborted mid-flight")
            }
        }
    }
}

impl std::error::Error for MetaError {}
