//! `social_sweep`: cold single queries on the resident power-law analogs.
//!
//! livejournal BFS + SSSP + CC (symmetrised), orkut BFS + SSWP; every query
//! builds a fresh `Device` and calls `engine::run`, as `report table3` does.
//! Host time here is per-access work — `eta-sim` recording, `eta-mem`
//! coalescing and L1/L2 replay — so this is where a replay optimisation
//! must show and a launch-overhead optimisation must not.

use super::{check_labels, cold_query, reference_labels, seeded_source, symmetrized};
use crate::harness::{ProbeInput, Tally, Verdict, Workload};
use crate::span::Tracer;
use eta_graph::{datasets, Csr};
use eta_sim::GpuConfig;
use etagraph::{Algorithm, EtaConfig};

struct Query {
    label: &'static str,
    graph: usize,
    alg: Algorithm,
    source: u32,
}

pub struct SocialSweep {
    graphs: Vec<Csr>,
    queries: Vec<Query>,
    answers: Vec<Option<Vec<u32>>>,
    /// CPU references, computed on first verification and kept.
    oracles: Vec<Vec<u32>>,
}

impl SocialSweep {
    pub fn build(seed: u64, tr: &mut Tracer) -> Self {
        let build = Some("graph.build_s");
        let lj = tr.in_span("graph", "datasets::build livejournal", build, || {
            datasets::build("livejournal")
        });
        tr.lap();
        let orkut = tr.in_span("graph", "datasets::build orkut", build, || {
            datasets::build("orkut")
        });
        tr.lap();
        let lj_sym = tr.in_span("graph", "symmetrize livejournal", build, || {
            symmetrized(&lj.csr)
        });
        tr.lap();
        let weights = Some("graph.weights_s");
        let lj_w = tr.in_span("graph", "weights livejournal", weights, || lj.weighted());
        tr.lap();
        let orkut_w = tr.in_span("graph", "weights orkut", weights, || orkut.weighted());
        tr.lap();
        let (lj, orkut) = (lj.csr, orkut.csr);

        let sources = tr.in_span("graph", "seeded sources", None, || {
            [
                seeded_source(&lj, seed, 1),
                seeded_source(&lj, seed, 2),
                seeded_source(&orkut, seed, 3),
                seeded_source(&orkut, seed, 4),
            ]
        });
        let q = |label, graph, alg, source| Query {
            label,
            graph,
            alg,
            source,
        };
        let queries = vec![
            q("engine::run livejournal BFS", 0, Algorithm::Bfs, sources[0]),
            q(
                "engine::run livejournal SSSP",
                1,
                Algorithm::Sssp,
                sources[1],
            ),
            q("engine::run livejournal-sym CC", 2, Algorithm::Cc, 0),
            q("engine::run orkut BFS", 3, Algorithm::Bfs, sources[2]),
            q("engine::run orkut SSWP", 4, Algorithm::Sswp, sources[3]),
        ];
        SocialSweep {
            graphs: vec![lj, lj_w, lj_sym, orkut, orkut_w],
            queries,
            answers: Vec::new(),
            oracles: Vec::new(),
        }
    }
}

impl Workload for SocialSweep {
    fn warm_up(&mut self) {
        let q = &self.queries[0];
        let mut scratch = Tally::default();
        cold_query(
            &mut Tracer::new(false),
            &mut scratch,
            0,
            q.label,
            &self.graphs[q.graph],
            q.alg,
            q.source,
            &EtaConfig::paper(),
            GpuConfig::default_preset(),
        );
    }

    fn pass(&mut self, tr: &mut Tracer) -> Tally {
        let mut tally = Tally::default();
        self.answers.clear();
        for (i, q) in self.queries.iter().enumerate() {
            self.answers.push(cold_query(
                tr,
                &mut tally,
                i as u32 + 1,
                q.label,
                &self.graphs[q.graph],
                q.alg,
                q.source,
                &EtaConfig::paper(),
                GpuConfig::default_preset(),
            ));
        }
        tally.finish();
        tally
    }

    fn verify(&mut self) -> Verdict {
        if self.oracles.is_empty() {
            self.oracles = self
                .queries
                .iter()
                .map(|q| reference_labels(&self.graphs[q.graph], q.alg, q.source))
                .collect();
        }
        let mut v = Verdict::default();
        for ((q, got), want) in self.queries.iter().zip(&self.answers).zip(&self.oracles) {
            check_labels(&mut v, q.label, got.as_ref(), want);
        }
        v
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            graph: &self.graphs[0],
            source: self.queries[0].source,
        }
    }
}
