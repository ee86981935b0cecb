//! `web_deep`: many-iteration BFS with tiny frontiers on a small web graph.
//!
//! `generate::web` with 20 k vertices, 60 k edges and 512 communities
//! chained by sparse forward bridges; a BFS from the chain walks two
//! iterations per remaining community, up to ~1000 launches of almost empty
//! kernels. Per-iteration and per-launch fixed host cost is over 90 % of
//! the time and cache replay almost none. Larger web graphs were tried and
//! are replay-bound like the social ones, so the graph is small on purpose.

use super::{check_labels, cold_query, reference_labels};
use crate::harness::{ProbeInput, Tally, Verdict, Workload};
use crate::span::Tracer;
use eta_graph::generate::{splitmix, web, WebConfig};
use eta_graph::Csr;
use eta_sim::GpuConfig;
use etagraph::{Algorithm, EtaConfig};

const VERTICES: usize = 20_000;
const LCC_FRACTION: f64 = 0.7;
const QUERIES: u64 = 40;

pub struct WebDeep {
    graph: Csr,
    sources: Vec<u32>,
    answers: Vec<Option<Vec<u32>>>,
    oracles: Vec<Vec<u32>>,
}

impl WebDeep {
    pub fn build(seed: u64, tr: &mut Tracer) -> Self {
        let cfg = WebConfig {
            vertices: VERTICES,
            edges: 60_000,
            communities: 512,
            lcc_fraction: LCC_FRACTION,
            source_island: None,
            seed: splitmix(seed, 0x3EB),
        };
        let (graph, _) = tr.in_span("graph", "generate::web", Some("graph.build_s"), || {
            web(&cfg)
        });
        tr.lap();
        // The bridged chain occupies the first `LCC_FRACTION` of the ids in
        // community order, and bridges only lead forward: a source's depth
        // is set by how far from the chain's end it sits. One source per
        // equal slice of the chain's first half keeps every query deep
        // (400+ iterations) and the pass's total work steady across seeds,
        // while the seed still picks the vertex inside each slice.
        let half_chain = (VERTICES as f64 * LCC_FRACTION) as u64 / 2;
        let slice = half_chain / QUERIES;
        let sources: Vec<u32> = (0..QUERIES)
            .map(|i| (i * slice + splitmix(seed, 0x50C + i) % slice) as u32)
            .collect();
        // The layout above is the generator's documented one, not an
        // interface: check on the CPU references (kept as the oracles) that
        // every source really is deep in the chain.
        let oracles: Vec<Vec<u32>> = tr.in_span("graph", "reference::bfs oracles", None, || {
            sources
                .iter()
                .map(|&s| reference_labels(&graph, Algorithm::Bfs, s))
                .collect()
        });
        for (s, labels) in sources.iter().zip(&oracles) {
            let depth = labels.iter().filter(|&&l| l != u32::MAX).max();
            assert!(
                depth.is_some_and(|&d| d >= 400),
                "web_deep source {s} is only {depth:?} levels deep"
            );
        }
        WebDeep {
            graph,
            sources,
            answers: Vec::new(),
            oracles,
        }
    }

    fn query(&self, tr: &mut Tracer, tally: &mut Tally, i: usize) -> Option<Vec<u32>> {
        cold_query(
            tr,
            tally,
            i as u32 + 1,
            "engine::run web BFS",
            &self.graph,
            Algorithm::Bfs,
            self.sources[i],
            &EtaConfig::paper(),
            GpuConfig::default_preset(),
        )
    }
}

impl Workload for WebDeep {
    fn warm_up(&mut self) {
        self.query(&mut Tracer::new(false), &mut Tally::default(), 0);
    }

    fn pass(&mut self, tr: &mut Tracer) -> Tally {
        let mut tally = Tally::default();
        self.answers = (0..self.sources.len())
            .map(|i| self.query(tr, &mut tally, i))
            .collect();
        tally.finish();
        tally
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        for ((s, got), want) in self.sources.iter().zip(&self.answers).zip(&self.oracles) {
            check_labels(&mut v, &format!("web BFS from {s}"), got.as_ref(), want);
        }
        v
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            graph: &self.graph,
            source: self.sources[0],
        }
    }
}
