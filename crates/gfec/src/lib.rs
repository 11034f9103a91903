//! # nadfs-gfec
//!
//! Erasure-coding substrate: GF(2^8) arithmetic with log/exp, full 256×256
//! product, and nibble-split shuffle tables ([`gf256`] — including the
//! SSSE3/AVX2 wide-word kernels and the fused multi-parity encode), dense
//! matrices with Gauss-Jordan inversion ([`Matrix`]), systematic
//! Vandermonde Reed-Solomon codes with cached encode rows and a memoized
//! decode-matrix cache ([`ReedSolomon`]), built once per scheme
//! ([`RsCodecs`]), and the per-packet streaming encode/aggregate path
//! used by sPIN-TriEC ([`Accumulator`], [`intermediate_parity_into`]),
//! with in-place variants for pooled, zero-alloc packet loops.

#![warn(unreachable_pub)]

pub mod gf256;
mod matrix;
mod rs;
mod stream;

pub use matrix::Matrix;
pub use rs::{ReedSolomon, RsCodecs, RsError};
pub use stream::{block_parities, intermediate_parity, intermediate_parity_into, Accumulator};
