//! # sdlo-parallel
//!
//! The paper's §7: optimizing the tiled TCE loop nests for shared-memory
//! multiprocessors.
//!
//! * [`SmpAnalysis`] — block-partition a dependence-free outer loop across
//!   `P` processors and analyze each processor's subproblem with the
//!   sequential miss model; the shared-memory access cost is bracketed by
//!   the paper's two [`LimitModel`]s (bus-bandwidth-limited: total misses;
//!   infinite bandwidth: maximum per-processor misses).
//! * [`kernels`] — real multithreaded implementations (scoped threads, one
//!   contiguous block of outer tiles each) of the tiled two-index
//!   transform and tiled matrix multiplication, partitioned exactly as the
//!   analysis assumes, for wall-clock measurement and numerical
//!   verification.

pub mod kernels;
mod smp;

pub use smp::{LimitModel, MachineParams, SmpAnalysis, SmpError};
