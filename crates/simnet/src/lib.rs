//! # nadfs-simnet
//!
//! Deterministic discrete-event simulation engine and packet-network model.
//!
//! This crate replaces the paper's use of the Structural Simulation Toolkit
//! (SST): it provides a picosecond-resolution event engine
//! ([`engine::Engine`]), a star-topology lossless network
//! ([`fabric::Fabric`]) with serializing ports and credit-based flow
//! control ([`gate::Gate`]), and measurement utilities ([`stats`]).
//!
//! Everything is single-threaded and deterministic: identical inputs produce
//! bit-identical event orders, which the reproduction relies on.

pub mod engine;
pub mod fabric;
pub mod flow;
pub mod gate;
pub mod hash;
pub mod packet;
pub mod pool;
mod queue;
pub mod slab;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use engine::{Component, ComponentId, ComponentProfile, Ctx, Engine};
pub use fabric::{Fabric, FabricConfig, FabricStats, NodePort};
pub use flow::{
    CreditConfig, CreditGrant, FlowController, FlowStats, SharedFlowStats, SharedTenantLedgers,
    TenantId, TenantLedger, TenantScheduler, WrClass, TENANT_REPAIR,
};
pub use gate::{Gate, GateWake, SharedGate};
pub use hash::{IdMap, IdSet};
pub use packet::{Hop, NetPacket, NodeId, PacketEvent, PacketPool, Payload, SharedPacketPool};
pub use pool::{BufPool, PoolStats, SharedBufPool, DEFAULT_MAX_RETAINED_BYTES};
pub use slab::Slab;
pub use telemetry::{
    HistSummary, Log2Hist, MetricsHub, MetricsSnapshot, ObsHub, OpKind, OpSpan, SharedObs,
    SpanBook, SpanId, SNAPSHOT_SCHEMA,
};
pub use time::{achieved_gbit_per_sec, Bandwidth, Dur, Time};
pub use trace::{SharedTrace, Trace, TraceEntry};
