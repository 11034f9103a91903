//! # nadfs-simnet
//!
//! Deterministic discrete-event simulation engine and packet-network model.
//!
//! This crate replaces the paper's use of the Structural Simulation Toolkit
//! (SST): it provides a picosecond-resolution event engine ([`Engine`]),
//! a star-topology lossless network ([`Fabric`]) with serializing ports
//! and credit-based flow control ([`Gate`]), and measurement utilities
//! ([`stats`], [`telemetry`]).
//!
//! Everything is single-threaded and deterministic: identical inputs produce
//! bit-identical event orders, which the reproduction relies on.

#![warn(unreachable_pub)]

mod engine;
mod fabric;
mod flow;
mod gate;
mod hash;
mod packet;
mod pool;
mod queue;
mod slab;
pub mod stats;
pub mod telemetry;
mod time;
mod trace;

pub use engine::{Component, ComponentId, ComponentProfile, Ctx, Engine};
pub use fabric::{Fabric, FabricConfig, FabricStats, NodePort};
pub use flow::{
    CreditConfig, CreditGrant, FlowController, FlowStats, SharedFlowStats, SharedTenantLedgers,
    TenantId, TenantLedger, TenantScheduler, WrClass, TENANT_REPAIR,
};
pub use gate::{Gate, GateWake, SharedGate};
pub use hash::{IdMap, IdSet};
pub use packet::{NetPacket, NodeId, PacketEvent, PacketPool, Payload, SharedPacketPool};
pub use pool::{BufPool, PoolStats, SharedBufPool, DEFAULT_MAX_RETAINED_BYTES};
pub use slab::Slab;
pub use telemetry::{
    HistSummary, MetricsHub, MetricsSnapshot, ObsHub, OpKind, OpSpan, SharedObs, SpanBook, SpanId,
    SNAPSHOT_SCHEMA,
};
pub use time::{achieved_gbit_per_sec, Bandwidth, Dur, Time};
pub use trace::{SharedTrace, Trace};
