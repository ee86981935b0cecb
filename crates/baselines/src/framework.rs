//! The common interface Table III drives: run an algorithm from a source on
//! a device, report kernel/total time, an out-of-memory failure or a device
//! fault.

use eta_graph::Csr;
use eta_mem::system::MemError;
use eta_sim::{Device, GpuConfig};
use etagraph::error::DeviceFault;
use etagraph::sharded::ShardedError;
use etagraph::{Algorithm, EtaConfig, QueryError, RunResult};

/// Why a framework run produced no numbers.
#[derive(Debug, Clone)]
pub enum FrameworkError {
    /// The paper's "O.O.M": the framework's device footprint does not fit.
    Oom(MemError),
    /// The framework cannot run this algorithm (Table III's '–' cells).
    Unsupported(&'static str),
    /// The device failed mid-run under an installed fault plan (kernel
    /// hang, double-bit ECC, UM migration failure — see eta-fault).
    DeviceFault(DeviceFault),
}

impl std::fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameworkError::Oom(e) => write!(f, "O.O.M ({e})"),
            FrameworkError::Unsupported(why) => write!(f, "unsupported: {why}"),
            FrameworkError::DeviceFault(fault) => write!(f, "{fault}"),
        }
    }
}

impl std::error::Error for FrameworkError {}

impl From<MemError> for FrameworkError {
    fn from(e: MemError) -> Self {
        FrameworkError::Oom(e)
    }
}

impl From<QueryError> for FrameworkError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Mem(m) => FrameworkError::Oom(m),
            QueryError::DeviceFault(f) => FrameworkError::DeviceFault(f),
            QueryError::SourceOutOfRange { .. } => {
                FrameworkError::Unsupported("source out of range")
            }
            QueryError::BatchSize { .. } => FrameworkError::Unsupported("batch size out of range"),
            // Frameworks run without checkpoint hooks, so a checkpoint
            // error can only mean misconfiguration upstream.
            QueryError::Checkpoint(_) => {
                FrameworkError::Unsupported("checkpoint error outside a resumable run")
            }
        }
    }
}

/// A [`etagraph::driver::Lane`] failure; a group of one has no shard to name.
impl From<ShardedError> for FrameworkError {
    fn from(e: ShardedError) -> Self {
        e.error.into()
    }
}

/// Rejects what no baseline runs: connected components, and a weighted
/// algorithm on an unweighted graph.
pub(crate) fn check_supported(csr: &Csr, alg: Algorithm) -> Result<(), FrameworkError> {
    if alg == Algorithm::Cc {
        return Err(FrameworkError::Unsupported(
            "connected components is an EtaGraph-only extension",
        ));
    }
    if alg.needs_weights() && !csr.is_weighted() {
        return Err(FrameworkError::Unsupported("weights required"));
    }
    Ok(())
}

/// Per-vertex labels before the first iteration: `source` carries the
/// algorithm's source label, everything else its initial label.
pub(crate) fn init_labels(n: u32, source: u32, alg: Algorithm) -> Vec<u32> {
    let mut init = vec![alg.init_label(); n as usize];
    init[source as usize] = alg.source_label();
    init
}

/// A GPU graph-processing framework under comparison.
pub trait Framework {
    fn name(&self) -> &'static str;

    /// Runs `alg` from `source` on `dev`, which must be a fresh device (the
    /// frameworks assume an empty allocator for their O.O.M accounting).
    /// Whatever the caller attached to the device applies to every
    /// framework alike: a sanitizer or profiler is read back after the run,
    /// and an installed fault plan fails the run with
    /// [`FrameworkError::DeviceFault`].
    ///
    /// `csr` must carry weights when the algorithm needs them. Total time
    /// includes host→device transfer of the framework's own data structures
    /// (conversion/preprocessing happens "in advance", as the paper's
    /// methodology states, and is not charged).
    fn run(
        &self,
        dev: &mut Device,
        csr: &Csr,
        source: u32,
        alg: Algorithm,
    ) -> Result<RunResult, FrameworkError>;
}

/// Runs `fw` on a freshly constructed device — the common non-instrumented
/// path.
pub fn run_fresh(
    fw: &dyn Framework,
    gpu: GpuConfig,
    csr: &Csr,
    source: u32,
    alg: Algorithm,
) -> Result<RunResult, FrameworkError> {
    fw.run(&mut Device::new(gpu), csr, source, alg)
}

/// EtaGraph behind the common interface.
pub struct EtaFramework {
    pub cfg: EtaConfig,
    pub name: &'static str,
}

impl EtaFramework {
    /// The headline configuration ("EtaGraph").
    pub fn paper() -> Self {
        EtaFramework {
            cfg: EtaConfig::paper(),
            name: "EtaGraph",
        }
    }

    /// The "EtaGraph w/o UMP" row of Table III.
    pub fn without_ump() -> Self {
        EtaFramework {
            cfg: EtaConfig::without_ump(),
            name: "EtaGraph w/o UMP",
        }
    }
}

impl Framework for EtaFramework {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(
        &self,
        dev: &mut Device,
        csr: &Csr,
        source: u32,
        alg: Algorithm,
    ) -> Result<RunResult, FrameworkError> {
        Ok(etagraph::engine::run(dev, csr, source, alg, &self.cfg)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_graph::reference;

    #[test]
    fn eta_framework_runs_and_matches_reference() {
        let g = rmat(&RmatConfig::paper(10, 10_000, 2));
        let fw = EtaFramework::paper();
        let r = run_fresh(&fw, GpuConfig::default_preset(), &g, 0, Algorithm::Bfs).unwrap();
        assert_eq!(r.labels, reference::bfs(&g, 0));
        assert_eq!(fw.name(), "EtaGraph");
        assert_eq!(EtaFramework::without_ump().name(), "EtaGraph w/o UMP");
    }

    #[test]
    fn framework_error_formats() {
        let e = FrameworkError::Unsupported("no SSWP");
        assert!(e.to_string().contains("no SSWP"));
        let oom: FrameworkError = MemError::Oom {
            requested_bytes: 10,
            free_bytes: 5,
        }
        .into();
        assert!(oom.to_string().contains("O.O.M"));
    }
}
