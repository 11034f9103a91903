//! # nadfs-host
//!
//! Host-side models for storage nodes: byte-accurate host memory (the
//! storage target), the PCIe/DMA engine connecting NIC and memory, and a
//! serially-occupied CPU cost model used by the CPU-based baselines.

#![warn(unreachable_pub)]

mod cpu;
mod dma;
mod memory;

pub use cpu::{Cpu, POLL_NOTIFY, POST_SEND, RPC_DISPATCH, VALIDATE};
pub use dma::{DmaConfig, DmaEngine};
pub use memory::{HostMemory, SharedMemory};
