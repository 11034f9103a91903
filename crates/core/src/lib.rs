//! # nadfs-core
//!
//! The network-accelerated distributed file system: control plane
//! (management + hierarchical metadata services, backed by `nadfs-meta`),
//! client drivers for every write protocol the paper evaluates (plus the
//! metadata operations, answered through a client-side cache), storage-node
//! software for the CPU baselines, and the sPIN handler set implementing
//! the offloaded policies (authentication §IV, replication §V, streaming
//! erasure coding §VI).

pub mod cache;
pub mod client;
pub mod cluster;
pub mod config;
pub mod control;
pub mod experiments;
pub mod fs;
pub mod handlers;
pub mod repair;
pub mod storage;
pub mod workloads;

pub use cache::{CachedRead, ReadCache, ReadCacheConfig, ReadCacheStats};
pub use client::{
    ClientApp, ClientReadStats, Job, MetaOp, MetaOpKind, MetaResult, ReadCompletion, ReadProtocol,
    ReadSlot, RepairOutcome, RepairResult, RepairSlot, ResultSink, SharedClientReadStats,
    WriteProtocol, WriteResult, WriteSlot,
};
pub use cluster::{ClusterSpec, QosConfig, SimCluster, StorageMode};
pub use config::CostModel;
pub use control::{
    ControlPlane, FileMeta, FilePolicy, MetaEvent, MetaOpStats, MetaShard, RepairPlan, RepairQueue,
    RepairStats, RepairTask, ShardRouter, ShardStats, StripeTarget, TxRecovery, WritePlacement,
};
pub use experiments::{
    replication_latency_us, storage_goodput_gbit, write_latency_us, ReplStrategy,
};
pub use fs::{default_write_protocol, FileHandle, FsClient, FsError};
pub use handlers::DfsNicState;
pub use repair::{RepairDriver, RepairReport};
// The metadata subsystem's vocabulary, re-exported for callers.
pub use nadfs_meta::{
    CacheStats, ChunkCopy, ExtentMap, ExtentRecord, InodeAttr, InodeKind, LayoutSpec, MetaCache,
    MetaError, ReadPiece, ReadPlan, StripedLayout,
};
pub use storage::{StorageApp, StorageStats};
pub use workloads::{MetaWorkload, ReadPattern, SizeDist, Workload};
