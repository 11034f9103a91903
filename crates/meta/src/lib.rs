//! # nadfs-meta
//!
//! The metadata subsystem of the network-accelerated DFS: a hierarchical,
//! versioned namespace ([`Namespace`]) with POSIX-flavored directory
//! operations, striped per-file layouts ([`StripedLayout`]) generalizing
//! the seed's single-node placement, per-file extent maps
//! ([`ExtentMap`]), and a client-side metadata cache with version-based
//! invalidation ([`MetaCache`]).
//!
//! The paper's offload building blocks (capabilities §IV, replication §V,
//! erasure coding §VI) assume a metadata service that resolves paths to
//! placements. This crate holds the service's parts; the service itself
//! is `nadfs-core`'s control plane, which owns the namespace, allocates
//! the layouts, counts the round-trips and calls back the caches.

#![warn(unreachable_pub)]

mod cache;
mod error;
mod extents;
mod inode;
mod layout;
mod namespace;

pub use cache::{CacheStats, CachedEntry, DirtyAttr, MetaCache};
pub use error::MetaError;
pub use extents::{ChunkCopy, CompactionResult, ExtentMap, ExtentRecord, ReadPiece, ReadPlan};
pub use inode::{FilePolicy, Inode, InodeAttr, InodeId, InodeKind};
pub use layout::{LayoutSpec, StripeExtent, StripedLayout};
pub use namespace::Namespace;
