//! # nadfs-rdma
//!
//! Simulated RDMA NIC for the reproduction: one-sided WRITE/READ with MR
//! protection, SEND/RECV RPC transport, per-node egress/ingress flow
//! control, HyperLoop-style pre-posted triggered chains ([`chains`]), an
//! INEC-style firmware erasure-coding engine ([`ec_engine`]), and the
//! optional PsPIN accelerator attachment point.
//!
//! Each simulated node is one [`nic::Nic`] component: the hardware core
//! ([`nic::NicCore`]) plus a boxed [`app::NicApp`] implementing the node's
//! software.

pub mod app;
pub mod chains;
pub mod ec_engine;
pub mod nic;

pub use app::{NicApp, NullApp};
pub use chains::Chains;
pub use ec_engine::{rebuild_pooled, EcEngine, EcEngineConfig};
pub use nic::{AppTimer, Nic, NicConfig, NicCore, NicStats, SharedNicStats};
