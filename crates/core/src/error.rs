//! Typed query-boundary errors.
//!
//! A traversal request can fail for two reasons: the caller asked about a
//! vertex that does not exist, or the device could not hold the working
//! set. Both used to be a mix of panics and raw [`MemError`]s; a serving
//! layer that admits untrusted request streams needs them as values it can
//! turn into per-request rejections instead of process aborts.

use eta_ckpt::CkptError;
pub use eta_fault::DeviceFault;
use eta_mem::system::MemError;

/// Why a query could not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The requested source vertex id is not a vertex of the graph.
    SourceOutOfRange { source: u32, vertices: usize },
    /// A batched query named no source, or more than one batch holds.
    BatchSize { sources: usize, max: usize },
    /// Device memory management failed (the paper's "O.O.M").
    Mem(MemError),
    /// The device failed mid-query (injected ECC error, kernel hang, UM
    /// migration failure — see eta-fault). Unlike the other variants this is
    /// retryable: the serving layer's recovery ladder re-queues, quarantines
    /// the device, and falls back to the CPU reference as a last resort.
    DeviceFault(DeviceFault),
    /// A checkpoint could not be resumed (graph epoch or shape mismatch —
    /// see eta-ckpt). The serving layer treats this as "no usable
    /// checkpoint" and falls back to restart-from-scratch.
    Checkpoint(CkptError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::SourceOutOfRange { source, vertices } => write!(
                f,
                "source {source} out of range (graph has {vertices} vertices)"
            ),
            QueryError::BatchSize { sources, max } => {
                write!(f, "batch of {sources} sources (a batch holds 1..={max})")
            }
            QueryError::Mem(e) => write!(f, "{e}"),
            QueryError::DeviceFault(fault) => write!(f, "{fault}"),
            QueryError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<MemError> for QueryError {
    fn from(e: MemError) -> Self {
        QueryError::Mem(e)
    }
}

impl From<DeviceFault> for QueryError {
    fn from(f: DeviceFault) -> Self {
        QueryError::DeviceFault(f)
    }
}

impl From<CkptError> for QueryError {
    fn from(e: CkptError) -> Self {
        QueryError::Checkpoint(e)
    }
}

/// Validates a source vertex id against a graph's vertex count.
pub fn check_source(source: u32, vertices: usize) -> Result<(), QueryError> {
    if (source as usize) < vertices {
        Ok(())
    } else {
        Err(QueryError::SourceOutOfRange { source, vertices })
    }
}

/// Validates a batch of `sources` queries against the batch width `max`.
pub(crate) fn check_batch(sources: usize, max: usize) -> Result<(), QueryError> {
    if (1..=max).contains(&sources) {
        Ok(())
    } else {
        Err(QueryError::BatchSize { sources, max })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_source_boundaries() {
        assert!(check_source(0, 1).is_ok());
        assert!(check_source(9, 10).is_ok());
        let err = check_source(10, 10).unwrap_err();
        assert_eq!(
            err,
            QueryError::SourceOutOfRange {
                source: 10,
                vertices: 10
            }
        );
        assert!(err.to_string().contains("source 10 out of range"));
    }

    #[test]
    fn device_faults_convert_and_format() {
        let e: QueryError = DeviceFault {
            kind: eta_fault::FaultKind::KernelHang,
            device: 1,
            at_ns: 42,
        }
        .into();
        assert_eq!(
            e.to_string(),
            "device 1 fault kernel_hang at 42 ns",
            "typed fault keeps its provenance through the error"
        );
    }

    #[test]
    fn checkpoint_errors_convert_and_format() {
        let e: QueryError = CkptError::VertexCount {
            expected: 4,
            actual: 5,
        }
        .into();
        assert!(e.to_string().contains("vertex count mismatch"));
    }

    #[test]
    fn mem_errors_convert_and_format() {
        let e: QueryError = MemError::Oom {
            requested_bytes: 8,
            free_bytes: 4,
        }
        .into();
        assert!(e.to_string().contains("out of device memory"));
    }
}
