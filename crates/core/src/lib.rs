//! `etagraph` — the paper's contribution: a GPU graph-traversal framework
//! built on Unified Degree Cut, selective (frontier-like) kernel execution,
//! fine-grained transfer/compute overlap via Unified Memory, and Shared
//! Memory Prefetch.
//!
//! # Quickstart
//!
//! ```
//! use etagraph::{Algorithm, EtaConfig, EtaGraph};
//! use eta_graph::generate::{rmat, RmatConfig};
//!
//! let graph = rmat(&RmatConfig::paper(10, 8_000, 1));
//! let eta = EtaGraph::new(&graph, EtaConfig::paper());
//! let result = eta.run(Algorithm::Bfs, 0).unwrap();
//! println!("visited {} vertices in {} iterations ({:.3} ms simulated)",
//!          result.visited(), result.iterations, result.total_ms());
//! ```
//!
//! The modules follow the paper's structure: [`udc`] (§III), [`active_set`]
//! (§IV), [`kernels`] with SMP (§V), [`device_graph`] for the transfer
//! policies (§IV-B), and [`config`] for the ablation axes. Procedure 1 is one
//! BSP superstep driver over a device group of ≥ 1 (DESIGN.md, "Superstep
//! driver"); [`engine`], [`multi_bfs`] and [`pagerank`] plug their
//! algorithms into it, and [`sharded`] runs them on groups larger than one.
//!
//! With profiling enabled (`GpuConfig::with_profiling`), the driver records
//! one `eta-prof` event per iteration — frontier size, shadowing counts, and
//! the push/pull decision — alongside the simulator's kernel and transfer
//! events; see PROFILING.md and [`session::Session::profile`].

pub mod active_set;
pub mod config;
pub mod device_graph;
pub mod driver;
pub mod engine;
pub mod error;
pub mod kernels;
pub mod multi_bfs;
pub mod pagerank;
pub mod result;
pub mod session;
pub mod sharded;
pub mod udc;

pub use config::{Algorithm, EtaConfig, TransferMode, UdcMode, THREADS_PER_BLOCK};
pub use device_graph::DeviceGraph;
pub use error::QueryError;
pub use result::{IterationStats, RunResult};

use eta_graph::Csr;
use eta_sim::{Device, GpuConfig};

/// High-level facade: an EtaGraph instance bound to a host graph.
///
/// Each [`EtaGraph::run`] call simulates a complete session on a fresh
/// device (upload → iterate → read back), so timings are independent.
pub struct EtaGraph<'g> {
    graph: &'g Csr,
    cfg: EtaConfig,
    gpu: GpuConfig,
}

impl<'g> EtaGraph<'g> {
    pub fn new(graph: &'g Csr, cfg: EtaConfig) -> Self {
        EtaGraph {
            graph,
            cfg,
            gpu: GpuConfig::default_preset(),
        }
    }

    /// Overrides the GPU model (device memory capacity, cache sizes, ...).
    pub fn with_gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Runs `alg` from `source` and returns labels plus measurements.
    pub fn run(&self, alg: Algorithm, source: u32) -> Result<RunResult, QueryError> {
        let mut dev = Device::new(self.gpu);
        engine::run(&mut dev, self.graph, source, alg, &self.cfg)
    }
}
