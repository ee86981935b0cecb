//! `eta-mem` — the GPU memory-system substrate for the EtaGraph reproduction.
//!
//! The paper's evaluation hinges on memory-system behaviour: 32-byte sector
//! coalescing, L1/L2 cache reuse under warp interleaving, DRAM bandwidth
//! limits, and CUDA Unified Memory's page-fault-driven migration over PCIe.
//! This crate models each of those mechanisms explicitly:
//!
//! * [`system::MemSystem`] — a single device-visible address space of `u32`
//!   words with a bump allocator whose regions each record the
//!   [`TransferMode`] they were placed under — explicit (cudaMalloc-style),
//!   unified (demand or prefetch), adaptive or zero-copy — and behave by it.
//! * [`cache::Cache`] — set-associative cache with LRU replacement and
//!   *interleave-aware aging* (see the module docs) used for per-SM L1 and
//!   the device-wide L2.
//! * [`coalesce`] — groups a warp's 32 lane addresses into unique 32-byte
//!   sector transactions, exactly as the hardware coalescer does.
//! * [`pcie::PcieLink`] — a serially-occupied interconnect timeline used for
//!   explicit copies, UM page migrations and prefetch streams.
//! * [`um`] — page residency, contiguous-fault merging, 2 MiB prefetch
//!   chunks, and LRU eviction for oversubscription.
//! * [`peer::PeerFabric`] — NVLink-style device↔device links (one
//!   [`pcie::PcieLink`] per device pair) used by the sharded engine's halo
//!   exchanges.
//! * [`adaptive`] — the HyTGraph-style per-page-group transfer policy:
//!   observes access density each iteration and serves every 64 KiB group
//!   of a unified region by demand paging, range prefetch, or zero-copy,
//!   with hysteresis so decisions are deterministic and byte-stable.
//!
//! The memory system also owns the [`eta_prof::Profiler`]: every PCIe copy
//! and UM migration/prefetch/eviction that lands on a timeline is mirrored
//! as a profile event (see PROFILING.md), so transfer/compute overlap is
//! visible per-span, not just as totals.
//!
//! All device payloads are `u32` words (vertex IDs, CSR offsets, labels,
//! weights); this matches the 4-byte-element access pattern the paper calls
//! out ("fine-grained memory access when reading neighbor vertex data,
//! usually stored in 4-byte format") and keeps the simulator safe-Rust-only.

pub mod access;
pub mod adaptive;
pub mod cache;
pub mod coalesce;
pub mod pcie;
pub mod peer;
pub mod system;
#[cfg(test)]
mod test_rng;
pub mod timeline;
pub mod um;

pub use access::{drain_l1, AccessRec, L1DrainParams, L2Work, PipeOp, SmQueue};
pub use adaptive::{
    AdaptiveRegion, AdaptiveTotals, Escalation, GroupDecision, Route, TransferChoice, Trigger,
};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use coalesce::{sectors_for_warp, SECTOR_BYTES, WORD_BYTES};
pub use pcie::PcieLink;
pub use peer::{PeerFabric, PeerTransfer};
pub use system::{DSlice, MemError, MemSystem, RegionId, TransferMode};
pub use timeline::{Span, SpanKind, Timeline};
pub use um::PAGE_BYTES;

/// Simulation wall-clock time in nanoseconds.
pub type Ns = u64;
