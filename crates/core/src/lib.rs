//! # nadfs-core
//!
//! The network-accelerated distributed file system: control plane
//! (management + hierarchical metadata services, backed by `nadfs-meta`),
//! client drivers for every write protocol the paper evaluates (plus the
//! metadata operations, answered through a client-side cache), storage-node
//! software for the CPU baselines, and the sPIN handler set implementing
//! the offloaded policies (authentication §IV, replication §V, streaming
//! erasure coding §VI).
//!
//! The crate's API is what this file re-exports, plus the `experiments`
//! module; every other module is private, and `unreachable_pub` keeps an
//! item from being `pub` unless it is reached from here. [`SimCluster`]
//! builds a whole cluster and [`storage_node`] one storage node, the one
//! place a storage NIC is provisioned for its mode.

#![warn(unreachable_pub)]

mod cache;
mod client;
mod cluster;
mod config;
mod control;
pub mod experiments;
mod fs;
mod handlers;
mod repair;
mod storage;
mod workloads;

pub use cache::{CachedRead, ReadCache, ReadCacheStats};
pub use client::{
    ClientApp, ClientReadStats, Job, MetaOp, MetaOpKind, MetaResult, ReadCompletion, ReadProtocol,
    ReadSlot, RepairOutcome, RepairResult, ResultSink, SharedPlan, SharedResults, WriteProtocol,
    WriteResult, WriteSlot, KICK,
};
pub use cluster::{
    storage_node, ClusterSpec, NodeShared, QosConfig, SimCluster, StorageHandles, StorageMode,
};
pub use config::{CostModel, CONTROL_RTT};
pub use control::{
    ControlPlane, FileMeta, FilePolicy, MetaOpStats, NodeLedger, RepairPlan, RepairQueue,
    RepairStats, RepairTask, ShardStats, SharedControl, StripeTarget, TxRecovery, WritePlacement,
};
pub use experiments::{
    replication_latency_us, storage_goodput_gbit, write_latency_us, ReplStrategy,
};
pub use fs::{FileHandle, FsClient, FsError};
pub use repair::{RepairDriver, RepairReport};
// The metadata subsystem's vocabulary, re-exported for callers.
pub use nadfs_meta::{
    CacheStats, ChunkCopy, ExtentMap, ExtentRecord, InodeAttr, InodeKind, LayoutSpec, MetaCache,
    MetaError, ReadPiece, ReadPlan, StripedLayout,
};
pub use storage::{SharedStorageStats, StorageStats};
pub use workloads::{MetaWorkload, ReadPattern, SizeDist, Workload};
