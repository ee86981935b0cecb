//! `eta-sim` — a deterministic, warp-level GPU execution simulator.
//!
//! This crate is the "GPU" of the EtaGraph reproduction. Kernels are Rust
//! values implementing [`Kernel`]; they execute *functionally* (real loads,
//! stores and atomics against device memory) while the memory hierarchy of
//! [`eta_mem`] records coalescing, cache behaviour, DRAM traffic and Unified
//! Memory migrations. A launch returns both the computed data and a
//! [`KernelMetrics`] with the modelled time and the `nvprof`-style counters
//! the paper's Fig. 7 reports.
//!
//! See [`device`] for the timing model and [`warp`] for the access API.
//! With [`GpuConfig::with_profiling`] each launch additionally records an
//! `eta-prof` event carrying the full counter snapshot; [`Device::profile`]
//! returns the accumulated profile (see PROFILING.md).

// Kernels address per-lane register arrays by explicit lane index under an
// active mask — the SIMT idiom this simulator exists to model. Iterator
// rewrites of those loops obscure the lane structure.
#![allow(clippy::needless_range_loop)]
pub mod config;
pub mod device;
pub mod kernel;
pub mod metrics;
pub mod sanitizer;
pub mod warp;

pub use config::{ConfigError, GpuConfig, WARP_SIZE};
pub use device::{Device, LaunchResult};
pub use kernel::{Kernel, LaunchConfig};
pub use metrics::KernelMetrics;
pub use sanitizer::{
    Finding, FindingKind, KernelLintStats, Sanitizer, SanitizerMode, SanitizerReport, Severity,
};
pub use warp::{active_lanes, Burst, Lanes, WarpCtx, WarpId, FULL_MASK};
