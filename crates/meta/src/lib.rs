//! # nadfs-meta
//!
//! The metadata subsystem of the network-accelerated DFS: a hierarchical,
//! versioned namespace ([`Namespace`]) with POSIX-flavored directory
//! operations, striped per-file layouts ([`StripedLayout`]) generalizing
//! the seed's single-node placement, a client-side metadata cache with
//! version-based invalidation ([`MetaCache`]), and the control-node
//! service tying them together ([`MetadataService`]).
//!
//! The paper's offload building blocks (capabilities §IV, replication §V,
//! erasure coding §VI) assume a metadata service that resolves paths to
//! placements; this crate is that service, and the prerequisite for
//! sharded-metadata / in-network-coordination work (SwitchFS, AsyncFS —
//! arXiv:2410.08618) on the roadmap.

#![warn(unreachable_pub)]

mod cache;
mod error;
mod extents;
mod inode;
mod layout;
mod namespace;
mod service;

pub use cache::{CacheStats, CachedEntry, DirtyAttr, MetaCache};
pub use error::MetaError;
pub use extents::{ChunkCopy, CompactionResult, ExtentMap, ExtentRecord, ReadPiece, ReadPlan};
pub use inode::{FilePolicy, Inode, InodeAttr, InodeId, InodeKind};
pub use layout::{LayoutSpec, StripeExtent, StripedLayout};
pub use namespace::Namespace;
pub use service::{MetaEvent, MetaOpStats, MetadataService};
