//! `eta-serve` — a deterministic, simulated-time traversal query service on
//! top of the EtaGraph engine: a *stream* of traversal requests scheduled
//! onto simulated devices.
//!
//! * [`registry`] — named graphs a tenant can query by name, plus cached
//!   partitions for device-group serving.
//! * [`pool`] — simulated [`eta_sim::Device`]s, each with its own clock,
//!   per-graph device residency, admission by allocation footprint, and
//!   LRU eviction when a new graph does not fit.
//! * [`sched`] — the one scheduler: a simulated-time event loop over the
//!   pool with a bounded, priority + deadline-aware queue, same-graph BFS
//!   source batching, the device-fault recovery ladder (retry, checkpoint
//!   resume, quarantine, CPU fallback) and the [`qos`] overload-control
//!   hooks. [`group`] is its constructor for the device-group placement
//!   (one sharded query across several devices).
//! * [`workload`] — an open-loop arrival generator (seeded SplitMix
//!   streams, no wall clock) for driving the service reproducibly.
//! * [`report`] — per-request latency decomposition, per-device and
//!   per-group utilization, fault and quarantine timelines, as plain
//!   serializable records.
//!
//! DESIGN.md's "Serving layer", "Scheduler", "Fault model" and "Overload
//! control" chapters are the reference. Everything is deterministic: the
//! same registry, config, and trace produce byte-identical reports, and
//! every optional layer — [`ServeConfig::faults`],
//! [`ServeConfig::checkpoint_interval`], [`ServeConfig::qos`], profiling
//! ([`Service::profile`]) — is byte-inert at its default.
//!
//! ```
//! use eta_graph::generate::{rmat, RmatConfig};
//! use eta_serve::{GraphRegistry, ServeConfig, Service, WorkloadConfig};
//!
//! let mut registry = GraphRegistry::new();
//! registry.insert("toy", rmat(&RmatConfig::paper(10, 8_000, 1)));
//! let trace = eta_serve::poisson_trace(
//!     &registry,
//!     &["toy".to_string()],
//!     &WorkloadConfig { requests: 40, ..WorkloadConfig::default() },
//! );
//! let mut service = Service::new(&registry, ServeConfig::default());
//! let report = service.run(&trace);
//! assert_eq!(report.completed as usize + report.rejections.len(), 40);
//! ```

pub mod group;
mod ledger;
mod placement;
pub mod pool;
pub mod qos;
pub mod registry;
pub mod report;
pub mod request;
pub mod sched;
pub mod workload;

pub use group::{GroupConfig, GroupService};
pub use pool::DeviceWorker;
pub use qos::{QosConfig, QosStats};
pub use registry::GraphRegistry;
pub use report::{
    BatchRecord, DeviceStats, FaultEvent, GroupStats, QuarantineRecord, RequestRecord, ServeReport,
};
pub use request::{Priority, RejectReason, Rejection, Request};
pub use sched::{Policy, ServeConfig, Service};
pub use workload::{poisson_trace, Arrival, WorkloadConfig};
