//! `oversub_transfer`: one BFS under every transfer mode, oversubscribed.
//!
//! livejournal BFS under demand paging, prefetch, zero-copy and the adaptive
//! policy on a device that holds the explicit working set plus half the
//! topology, and under `ExplicitCopy` at the default memory size. The same
//! `eta-mem` layer that replays caches on `social_sweep` here pages, evicts
//! by LRU and routes, so a gain for one use that costs the other shows. All
//! five `TransferMode`s are covered before they are collapsed into policies.

use super::{check_labels, cold_query, reference_labels, seeded_source};
use crate::harness::{ProbeInput, Tally, Verdict, Workload};
use crate::span::Tracer;
use eta_graph::{datasets, Csr};
use eta_sim::{Device, GpuConfig};
use etagraph::{engine, Algorithm, EtaConfig, TransferMode};

const MODES: [(TransferMode, &str); 5] = [
    (TransferMode::Unified, "engine::run BFS demand"),
    (TransferMode::UnifiedPrefetch, "engine::run BFS prefetch"),
    (TransferMode::ZeroCopy, "engine::run BFS zerocopy"),
    (TransferMode::Adaptive, "engine::run BFS adaptive"),
    (TransferMode::ExplicitCopy, "engine::run BFS explicit"),
];

pub struct OversubTransfer {
    graph: Csr,
    source: u32,
    /// Device bytes for the four host-backed modes.
    oversub_bytes: u64,
    answers: Vec<Option<Vec<u32>>>,
    oracle: Vec<u32>,
}

impl OversubTransfer {
    pub fn build(seed: u64, tr: &mut Tracer) -> Self {
        let graph = tr.in_span(
            "graph",
            "datasets::build livejournal",
            Some("graph.build_s"),
            || datasets::build("livejournal").csr,
        );
        tr.lap();
        let source = tr.in_span("graph", "seeded sources", None, || {
            seeded_source(&graph, seed, 1)
        });
        tr.lap();
        // The explicit working set (labels, tags, queues) is what the
        // engine allocates before any topology page arrives.
        let explicit = tr.in_span("core", "engine::prepare (sizing)", None, || {
            let mut dev = Device::new(GpuConfig::default_preset());
            let cfg = EtaConfig::without_ump();
            engine::prepare(&mut dev, &graph, &cfg, true)
                .expect("livejournal fits the default device");
            dev.mem.explicit_used_bytes()
        });
        OversubTransfer {
            oversub_bytes: explicit + graph.topology_bytes() / 2,
            graph,
            source,
            answers: Vec::new(),
            oracle: Vec::new(),
        }
    }

    fn query(&self, tr: &mut Tracer, tally: &mut Tally, i: usize) -> Option<Vec<u32>> {
        let (mode, label) = MODES[i];
        let gpu = if mode.topology_is_explicit() {
            GpuConfig::default_preset()
        } else {
            GpuConfig::gtx1080ti_scaled(self.oversub_bytes)
        };
        let cfg = EtaConfig {
            transfer: mode,
            ..EtaConfig::paper()
        };
        cold_query(
            tr,
            tally,
            i as u32 + 1,
            label,
            &self.graph,
            Algorithm::Bfs,
            self.source,
            &cfg,
            gpu,
        )
    }
}

impl Workload for OversubTransfer {
    fn warm_up(&mut self) {
        // The explicit-copy query: the cheapest one that touches every layer.
        self.query(
            &mut Tracer::new(false),
            &mut Tally::default(),
            MODES.len() - 1,
        );
    }

    fn pass(&mut self, tr: &mut Tracer) -> Tally {
        let mut tally = Tally::default();
        self.answers = (0..MODES.len())
            .map(|i| self.query(tr, &mut tally, i))
            .collect();
        tally.finish();
        tally
    }

    fn verify(&mut self) -> Verdict {
        if self.oracle.is_empty() {
            self.oracle = reference_labels(&self.graph, Algorithm::Bfs, self.source);
        }
        let mut v = Verdict::default();
        for ((_, label), got) in MODES.iter().zip(&self.answers) {
            check_labels(&mut v, label, got.as_ref(), &self.oracle);
        }
        v
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            graph: &self.graph,
            source: self.source,
        }
    }
}
