//! Warm multi-query sessions: upload once, query many times.
//!
//! The paper's total-time measurements pay the topology transfer on every
//! run, but real deployments — the concurrent-query workloads of Pan et
//! al.'s Congra, which the paper cites — issue many traversals against one
//! resident graph. A [`Session`] keeps the device alive between queries:
//! the CSR (and any out-of-core table or transposed pull graph) stays on
//! the device, so every query after the first pays only its label
//! initialization and kernels.
//!
//! ```
//! use etagraph::{Algorithm, EtaConfig, session::Session};
//! use eta_graph::generate::{rmat, RmatConfig};
//!
//! let graph = rmat(&RmatConfig::paper(10, 8_000, 1));
//! let mut session = Session::new(&graph, EtaConfig::paper()).unwrap();
//! let cold = session.query(Algorithm::Bfs, 0).unwrap();
//! let warm = session.query(Algorithm::Bfs, 1).unwrap();
//! assert!(warm.total_ns < cold.total_ns);
//! ```

use crate::config::{Algorithm, EtaConfig};
use crate::engine::{self, QueryResources};
use crate::error::{check_batch, QueryError};
use crate::multi_bfs::{self, MultiBfsResources, MultiBfsResult, MAX_BATCH};
use crate::result::RunResult;
use eta_ckpt::CkptCtl;
use eta_graph::Csr;
use eta_mem::system::MemError;
use eta_mem::Ns;
use eta_sim::{Device, GpuConfig};

/// A device with resident topology, ready to answer traversal queries.
pub struct Session<'g> {
    dev: Device,
    csr: &'g Csr,
    cfg: EtaConfig,
    res: QueryResources,
    /// Batched-BFS state, allocated on the first [`Session::query_batch`].
    multi: Option<MultiBfsResources>,
    /// Simulated wall clock: advances across queries.
    clock_ns: Ns,
    queries: u32,
}

impl<'g> Session<'g> {
    /// Uploads `csr` to a default-preset device and prepares query state.
    pub fn new(csr: &'g Csr, cfg: EtaConfig) -> Result<Self, MemError> {
        Self::with_gpu(csr, cfg, GpuConfig::default_preset())
    }

    /// Same, with an explicit GPU model.
    pub fn with_gpu(csr: &'g Csr, cfg: EtaConfig, gpu: GpuConfig) -> Result<Self, MemError> {
        let mut dev = Device::new(gpu);
        // Pull resources are prepared when the config asks for them; they
        // are only used by BFS queries.
        let (res, ready) = engine::prepare(&mut dev, csr, &cfg, true)?;
        Ok(Session {
            dev,
            csr,
            cfg,
            res,
            multi: None,
            clock_ns: ready,
            queries: 0,
        })
    }

    /// Runs one query. The first query pays the topology transfer (or its
    /// demand migrations); later ones find the pages resident.
    ///
    /// The returned [`RunResult::total_ns`] is this query's duration;
    /// `um_stats` accumulates across the session's lifetime.
    pub fn query(&mut self, alg: Algorithm, source: u32) -> Result<RunResult, QueryError> {
        let start = self.clock_ns;
        let r = engine::run_query_ckpt(
            &mut self.dev,
            &self.res,
            self.csr,
            source,
            alg,
            &self.cfg,
            start,
            start,
            CkptCtl::off(),
        )?;
        self.clock_ns = start + r.total_ns;
        self.queries += 1;
        Ok(r)
    }

    /// Answers up to 32 BFS queries in one batched traversal (the iBFS
    /// sharing of [`crate::multi_bfs`]): one topology read serves every
    /// source in the batch. Batch state is allocated lazily on first use
    /// and reused afterwards; each source counts as one query. A batch of
    /// no sources or more than 32 is [`QueryError::BatchSize`], refused
    /// before the batch state is allocated.
    pub fn query_batch(&mut self, sources: &[u32]) -> Result<MultiBfsResult, QueryError> {
        check_batch(sources.len(), MAX_BATCH)?;
        let res = match &self.multi {
            Some(res) => res,
            None => self.multi.insert(MultiBfsResources::alloc(
                &mut self.dev,
                self.csr,
                &self.cfg,
            )?),
        };
        let (dg, start) = (self.res.device_graph(), self.clock_ns);
        let off = CkptCtl::off();
        let r = multi_bfs::run_on_ckpt(&mut self.dev, dg, res, sources, &self.cfg, start, off)?;
        self.clock_ns = start + r.total_ns;
        self.queries += sources.len() as u32;
        Ok(r)
    }

    /// Queries answered so far.
    pub fn queries_run(&self) -> u32 {
        self.queries
    }

    /// Simulated time consumed by the session so far.
    pub fn elapsed_ns(&self) -> Ns {
        self.clock_ns
    }

    /// The device, for metric inspection between queries.
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// The `eta-prof` profile accumulated across every query so far.
    ///
    /// Empty unless the session was built over
    /// [`GpuConfig::with_profiling`] (see [`Session::with_gpu`]).
    pub fn profile(&self) -> eta_prof::Profile {
        self.dev.profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_graph::reference;

    fn graph() -> Csr {
        rmat(&RmatConfig::paper(12, 80_000, 44)).with_random_weights(2, 32)
    }

    #[test]
    fn warm_queries_match_reference_and_amortize_transfer() {
        let g = graph();
        let mut s = Session::new(&g, EtaConfig::paper()).unwrap();
        let cold = s.query(Algorithm::Bfs, 0).unwrap();
        assert_eq!(cold.labels, reference::bfs(&g, 0));

        let warm = s.query(Algorithm::Bfs, 0).unwrap();
        assert_eq!(warm.labels, cold.labels);
        // Prefetch already hides most of the cold transfer, so the time win
        // is modest on a small graph; the sharp assertion is on transferred
        // bytes (see per_query_timelines_do_not_leak_between_queries).
        assert!(
            (warm.total_ns as f64) < 0.9 * cold.total_ns as f64,
            "warm {} vs cold {} — resident topology must amortize",
            warm.total_ns,
            cold.total_ns
        );
        assert_eq!(s.queries_run(), 2);
    }

    #[test]
    fn mixed_algorithms_share_one_session() {
        let g = graph();
        let mut s = Session::new(&g, EtaConfig::paper()).unwrap();
        for (alg, expect) in [
            (Algorithm::Bfs, reference::bfs(&g, 5)),
            (Algorithm::Sssp, reference::sssp(&g, 5)),
            (Algorithm::Sswp, reference::sswp(&g, 5)),
        ] {
            let r = s.query(alg, 5).unwrap();
            assert_eq!(r.labels, expect, "{}", alg.name());
        }
    }

    #[test]
    fn many_sources_stay_consistent_and_monotone() {
        let g = graph();
        let mut s = Session::new(&g, EtaConfig::paper()).unwrap();
        let mut last_end = 0;
        for src in [0u32, 9, 77, 1234] {
            let r = s.query(Algorithm::Bfs, src).unwrap();
            assert_eq!(r.labels, reference::bfs(&g, src), "src {src}");
            assert!(s.elapsed_ns() > last_end);
            last_end = s.elapsed_ns();
        }
    }

    #[test]
    fn session_respects_out_of_core_and_pull_configs() {
        let g = graph();
        let mut s = Session::new(&g, EtaConfig::out_of_core()).unwrap();
        let r = s.query(Algorithm::Bfs, 0).unwrap();
        assert_eq!(r.labels, reference::bfs(&g, 0));

        let mut s = Session::new(&g, EtaConfig::direction_optimizing()).unwrap();
        let r = s.query(Algorithm::Bfs, 0).unwrap();
        assert_eq!(r.labels, reference::bfs(&g, 0));
        assert!(r.per_iteration.iter().any(|st| st.pulled));
        // A weighted query on the same session ignores the pull machinery.
        let r = s.query(Algorithm::Sssp, 0).unwrap();
        assert_eq!(r.labels, reference::sssp(&g, 0));
    }

    #[test]
    fn batched_queries_share_the_session_clock_and_match_reference() {
        let g = graph();
        let mut s = Session::new(&g, EtaConfig::paper()).unwrap();
        let r = s.query_batch(&[0, 9, 77]).unwrap();
        for (i, &src) in [0u32, 9, 77].iter().enumerate() {
            assert_eq!(r.levels[i], reference::bfs(&g, src), "source {src}");
        }
        assert_eq!(s.queries_run(), 3);
        let t1 = s.elapsed_ns();
        assert!(t1 > 0);
        // Second batch reuses the lazily-allocated resources and advances
        // the clock from where the first left off.
        let r2 = s.query_batch(&[5]).unwrap();
        assert_eq!(r2.levels[0], reference::bfs(&g, 5));
        assert!(s.elapsed_ns() > t1);
        assert_eq!(s.queries_run(), 4);
        // Single-source queries interleave with batches on one session.
        let single = s.query(Algorithm::Bfs, 5).unwrap();
        assert_eq!(single.labels, reference::bfs(&g, 5));
    }

    #[test]
    fn invalid_sources_are_typed_errors_on_a_live_session() {
        let g = graph();
        let n = g.n() as u32;
        let mut s = Session::new(&g, EtaConfig::paper()).unwrap();
        let err = s.query(Algorithm::Bfs, n).unwrap_err();
        assert!(matches!(
            err,
            crate::error::QueryError::SourceOutOfRange { source, vertices }
                if source == n && vertices == g.n()
        ));
        let err = s.query_batch(&[0, n + 7]).unwrap_err();
        assert!(matches!(
            err,
            crate::error::QueryError::SourceOutOfRange { source, .. } if source == n + 7
        ));
        // The session stays usable after a rejected request.
        let r = s.query(Algorithm::Bfs, 0).unwrap();
        assert_eq!(r.labels, reference::bfs(&g, 0));
    }

    #[test]
    fn an_empty_batch_is_a_typed_error_that_charges_nothing() {
        let g = graph();
        let mut s = Session::new(&g, EtaConfig::paper()).unwrap();
        let (used, clock) = (s.dev.mem.explicit_used_bytes(), s.elapsed_ns());
        let err = s.query_batch(&[]).unwrap_err();
        assert_eq!(
            err,
            QueryError::BatchSize {
                sources: 0,
                max: 32
            }
        );
        assert_eq!(s.dev.mem.explicit_used_bytes(), used, "nothing allocated");
        assert_eq!((s.elapsed_ns(), s.queries_run()), (clock, 0));
        assert_eq!(
            s.query_batch(&[0]).unwrap().levels[0],
            reference::bfs(&g, 0)
        );
    }

    #[test]
    fn a_batch_of_33_sources_is_a_typed_error_that_charges_nothing() {
        let g = graph();
        let mut s = Session::new(&g, EtaConfig::paper()).unwrap();
        let (used, clock) = (s.dev.mem.explicit_used_bytes(), s.elapsed_ns());
        let sources: Vec<u32> = (0..33).collect();
        let err = s.query_batch(&sources).unwrap_err();
        assert_eq!(
            err,
            QueryError::BatchSize {
                sources: 33,
                max: 32
            }
        );
        assert!(err.to_string().contains("batch of 33 sources"));
        assert_eq!(s.dev.mem.explicit_used_bytes(), used, "nothing allocated");
        assert_eq!((s.elapsed_ns(), s.queries_run()), (clock, 0));
        let full = s.query_batch(&sources[..32]).unwrap();
        assert_eq!(full.levels[31], reference::bfs(&g, 31));
    }

    #[test]
    fn profiled_session_records_kernels_iterations_and_transfers() {
        let g = graph();
        let gpu = eta_sim::GpuConfig::default_preset().with_profiling();
        let mut s = Session::with_gpu(&g, EtaConfig::paper(), gpu).unwrap();
        let r = s.query(Algorithm::Bfs, 0).unwrap();
        let p = s.profile();
        assert!(p.kernel_busy_ns() > 0, "kernel events missing");
        assert!(p.transfer_busy_ns() > 0, "transfer events missing");
        let iters = p.processes[0]
            .events
            .iter()
            .filter(|e| e.track == eta_prof::Track::Iteration)
            .count() as u32;
        assert_eq!(iters, r.iterations, "one span per BFS iteration");
        // The unprofiled default records nothing.
        let mut quiet = Session::new(&g, EtaConfig::paper()).unwrap();
        quiet.query(Algorithm::Bfs, 0).unwrap();
        assert_eq!(quiet.profile().event_count(), 0);
    }

    #[test]
    fn per_query_timelines_do_not_leak_between_queries() {
        let g = graph();
        let mut s = Session::new(&g, EtaConfig::without_ump()).unwrap();
        let first = s.query(Algorithm::Bfs, 0).unwrap();
        let second = s.query(Algorithm::Bfs, 0).unwrap();
        let bytes = |r: &RunResult| -> u64 {
            r.timeline
                .spans()
                .iter()
                .filter(|sp| sp.kind.is_transfer())
                .map(|sp| sp.bytes)
                .sum()
        };
        assert!(
            bytes(&second) < bytes(&first) / 2,
            "warm query must not re-migrate the topology: {} vs {}",
            bytes(&second),
            bytes(&first)
        );
    }
}
