//! # nadfs-rdma
//!
//! Simulated RDMA NIC for the reproduction: one-sided WRITE/READ with MR
//! protection, SEND/RECV RPC transport, per-node egress/ingress flow
//! control, HyperLoop-style pre-posted triggered chains, an INEC-style
//! firmware erasure-coding engine ([`EcEngine`]), and the optional PsPIN
//! accelerator attachment point.
//!
//! Each simulated node is one [`Nic`] component: the hardware core
//! ([`NicCore`]) plus a boxed [`NicApp`] implementing the node's software.

#![warn(unreachable_pub)]

mod app;
mod chains;
mod check;
mod ec_engine;
mod nic;

pub use app::NicApp;
pub use check::{Access, RequestCheck};
pub use ec_engine::{EcEngine, EC_ENCODE_BW};
pub use nic::{Nic, NicConfig, NicCore, NicStats, SharedNicStats};
