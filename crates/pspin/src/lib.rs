//! # nadfs-pspin
//!
//! Architectural model of PsPIN, the open-hardware sPIN SmartNIC the paper
//! offloads DFS policies to (Di Girolamo et al., ISCA'21): 32 RISC-V HPUs
//! at 1 GHz in four clusters, per-cluster 1 MiB L1, 4 MiB L2, a hardware
//! packet scheduler and DMA engines.
//!
//! Handlers ([`HandlerSet`]) are real Rust functions doing the
//! functional work; their cost is charged through the paper's own model
//! (instructions ÷ IPC, plus pipeline stage latencies from Fig 7), and
//! stalls — egress backpressure, DMA flushes — are simulated, not assumed.

#![warn(unreachable_pub)]

mod config;
mod device;
mod handler;
mod telemetry;

pub use config::PsPinConfig;
pub use device::{PsPinDevice, PsPinEvent};
pub use handler::{
    ExecutionContext, HandlerArgs, HandlerKind, HandlerSet, HostEvent, HostNotify, Ops,
};
pub use telemetry::Telemetry;
