//! `eta-prof` — an nvprof/Nsight-analogue profiler for the simulated GPU.
//!
//! Every layer of the reproduction records structured events here, on
//! *simulated* time: kernel launches with per-launch counter snapshots
//! (`eta-sim`), PCIe copies and unified-memory migrations/prefetches/
//! evictions (`eta-mem`), per-BFS-iteration frontier statistics
//! (`etagraph::engine`), and queue/batch/admission events from the serve
//! scheduler (`eta-serve`). A profile exports through three sinks:
//!
//! * [`Profile::summary_text`] — an nvprof-style per-kernel table plus a
//!   counter report,
//! * [`Profile::to_json`] — a machine-readable profile (`eta-prof-v1`),
//! * [`Profile::to_chrome_trace`] — Chrome `trace_event` JSON loadable in
//!   `chrome://tracing` / Perfetto, with kernels and transfers on distinct
//!   tracks so transfer/compute overlap is visible.
//!
//! Because all timestamps are deterministic simulated nanoseconds and all
//! sinks are hand-formatted with integer math, every export is
//! byte-identical across runs. A disabled [`Profiler`] (the default) is
//! zero-cost: no allocation, no recording.
//!
//! # Module map
//!
//! * [`event`] — [`Track`]s, typed [`ArgValue`]s, and the [`Event`] record
//! * [`profiler`] — the [`Profiler`] recorder of whole spans and instants
//! * [`profile`] — assembled [`Profile`]s, the interval algebra
//!   ([`union_ns`], [`intersection_ns`]), and the sinks
//! * [`fmt`] — deterministic formatting shared by the sinks
//!
//! # Example
//!
//! ```
//! use eta_prof::{Profile, Profiler, Track};
//!
//! let mut prof = Profiler::new(true);
//! prof.record(Track::Kernel, "bfs_expand", 0, 900, vec![("cycles", 450u64.into())]);
//! prof.record(Track::Um, "um_migration", 500, 1_200, vec![("bytes", 8192u64.into())]);
//! let profile = Profile::single("device", prof.events().to_vec());
//! assert_eq!(profile.overlap_ns(), 400); // migration hidden under compute
//! assert!(profile.to_chrome_trace().contains("\"ph\":\"X\""));
//! ```

pub mod event;
pub mod fmt;
pub mod profile;
pub mod profiler;

/// Simulated nanoseconds (the workspace-wide clock unit).
pub type Ns = u64;

pub use event::{ArgValue, Event, Track};
pub use profile::{
    intersection_ns, union_ns, CounterStat, KernelCounters, Profile, ProfileProcess, Summary,
    SummaryRow,
};
pub use profiler::Profiler;
