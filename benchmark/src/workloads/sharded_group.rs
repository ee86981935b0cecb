//! `sharded_group`: the multi-device BSP loops and both PageRank loops.
//!
//! livejournal cut by `GraphPartition::vertex_range` into 2 and 4 shards;
//! `run_sharded` BFS x2 and x4, SSSP x2, `run_sharded_pagerank` x4 and the
//! single-device `pagerank::run` (3 iterations each). These are the four
//! loops the one-driver refactor will merge, and the cell where 4 devices
//! are slower on the host than 1.

use super::{reference_labels, seeded_source};
use crate::harness::{ProbeInput, Tally, Verdict, Workload};
use crate::span::Tracer;
use eta_graph::{datasets, reference, Csr};
use eta_mem::PeerFabric;
use eta_shard::GraphPartition;
use eta_sim::{Device, GpuConfig};
use etagraph::pagerank::{self, PageRankConfig};
use etagraph::sharded::{run_sharded, run_sharded_pagerank};
use etagraph::{engine, Algorithm, EtaConfig};

const PAGERANK_ITERATIONS: u32 = 3;
const RANK_TOLERANCE: f64 = 1e-4;

/// (label, partition index, algorithm, per-layer metric).
const TRAVERSALS: [(&str, usize, Algorithm, &str); 3] = [
    (
        "run_sharded BFS x2",
        0,
        Algorithm::Bfs,
        "shard.run_s.bfs.x2",
    ),
    (
        "run_sharded BFS x4",
        1,
        Algorithm::Bfs,
        "shard.run_s.bfs.x4",
    ),
    (
        "run_sharded SSSP x2",
        2,
        Algorithm::Sssp,
        "shard.run_s.sssp.x2",
    ),
];

#[derive(Default)]
struct Answers {
    traversals: Vec<Option<Vec<u32>>>,
    sharded_ranks: Option<Vec<f32>>,
    single_ranks: Option<Vec<f32>>,
}

/// What the answers are checked against; built on first verification.
struct Oracles {
    /// CPU reference per traversal.
    reference: Vec<Vec<u32>>,
    /// Single-device `engine::run` labels per traversal.
    single_device: Vec<Option<Vec<u32>>>,
    ranks: Vec<f64>,
}

pub struct ShardedGroup {
    graph: Csr,
    weighted: Csr,
    /// x2, x4, weighted x2.
    partitions: Vec<GraphPartition>,
    source: u32,
    answers: Answers,
    oracles: Option<Oracles>,
}

fn devices(k: u32) -> Vec<Device> {
    (0..k)
        .map(|_| Device::new(GpuConfig::default_preset()))
        .collect()
}

fn pagerank_cfg() -> PageRankConfig {
    PageRankConfig {
        iterations: PAGERANK_ITERATIONS,
        ..PageRankConfig::default()
    }
}

impl ShardedGroup {
    pub fn build(seed: u64, tr: &mut Tracer) -> Self {
        let ds = tr.in_span(
            "graph",
            "datasets::build livejournal",
            Some("graph.build_s"),
            || datasets::build("livejournal"),
        );
        tr.lap();
        let weighted = tr.in_span(
            "graph",
            "weights livejournal",
            Some("graph.weights_s"),
            || ds.weighted(),
        );
        tr.lap();
        let graph = ds.csr;
        let source = tr.in_span("graph", "seeded sources", None, || {
            seeded_source(&graph, seed, 1)
        });
        tr.lap();
        let partitions = vec![
            tr.in_span(
                "shard",
                "vertex_range x2",
                Some("shard.partition_s.x2"),
                || GraphPartition::vertex_range(&graph, 2),
            ),
            tr.in_span(
                "shard",
                "vertex_range x4",
                Some("shard.partition_s.x4"),
                || GraphPartition::vertex_range(&graph, 4),
            ),
            tr.in_span("shard", "vertex_range x2 (weighted)", None, || {
                GraphPartition::vertex_range(&weighted, 2)
            }),
        ];
        ShardedGroup {
            graph,
            weighted,
            partitions,
            source,
            answers: Answers::default(),
            oracles: None,
        }
    }

    fn traversal(&self, tr: &mut Tracer, tally: &mut Tally, i: usize) -> Option<Vec<u32>> {
        let (label, part, alg, metric) = TRAVERSALS[i];
        let part = &self.partitions[part];
        tr.set_query(i as u32 + 1);
        let id = tr.begin("shard", label, Some(metric));
        let mut devs = devices(part.devices());
        let mut fabric = PeerFabric::nvlink(part.devices());
        let result = run_sharded(
            &mut devs,
            &mut fabric,
            part,
            self.source,
            alg,
            &EtaConfig::paper(),
        );
        tr.end(id);
        tr.set_query(0);
        tally.attempt(part.m);
        tally.add("shard.halo_vertices", part.halo_total() as f64);
        let labels = result.ok().map(|r| {
            tally.answered(r.total_ns, r.kernel_ns);
            tally.add_kernel_metrics(0, &r.metrics);
            tally.add("shard.supersteps", r.supersteps as f64);
            tally.add("shard.exchanged_mb", r.exchanged_bytes as f64 / 1e6);
            tally_devices(tally, &devs);
            r.labels
        });
        drop(devs);
        tr.lap();
        labels
    }
}

/// UM, link and zero-copy counts of a device group after a run.
fn tally_devices(tally: &mut Tally, devs: &[Device]) {
    for dev in devs {
        tally.add_um(&dev.mem.um.stats);
        tally.add_timeline(&dev.merged_timeline());
        tally.add_zero_copy(dev.mem.zero_copy_bytes);
    }
}

impl Workload for ShardedGroup {
    fn warm_up(&mut self) {
        self.traversal(&mut Tracer::new(false), &mut Tally::default(), 0);
    }

    fn pass(&mut self, tr: &mut Tracer) -> Tally {
        let mut tally = Tally::default();
        let traversals = (0..TRAVERSALS.len())
            .map(|i| self.traversal(tr, &mut tally, i))
            .collect();
        let pr = pagerank_cfg();
        let pr_edges = self.graph.m() as u64 * PAGERANK_ITERATIONS as u64;

        let part = &self.partitions[1];
        tr.set_query(TRAVERSALS.len() as u32 + 1);
        let id = tr.begin(
            "shard",
            "run_sharded_pagerank x4",
            Some("shard.pagerank_s.x4"),
        );
        let mut devs = devices(part.devices());
        let mut fabric = PeerFabric::nvlink(part.devices());
        let sharded = run_sharded_pagerank(&mut devs, &mut fabric, part, &self.graph, &pr);
        tr.end(id);
        tally.attempt(pr_edges);
        tally.add("shard.halo_vertices", part.halo_total() as f64);
        let sharded_ranks = sharded.ok().map(|r| {
            tally.answered(r.total_ns, r.kernel_ns);
            tally.add_kernel_metrics(0, &r.metrics);
            tally.add("shard.supersteps", r.iterations as f64);
            tally.add("shard.exchanged_mb", r.exchanged_bytes as f64 / 1e6);
            tally_devices(&mut tally, &devs);
            r.ranks
        });
        drop(devs);
        tr.lap();

        tr.set_query(TRAVERSALS.len() as u32 + 2);
        let id = tr.begin("core", "pagerank::run", Some("core.pagerank_s"));
        let mut dev = Device::new(GpuConfig::default_preset());
        let single = pagerank::run(&mut dev, &self.graph, &pr);
        tr.end(id);
        tr.set_query(0);
        tally.attempt(pr_edges);
        let single_ranks = single.ok().map(|r| {
            tally.answered(r.total_ns, r.kernel_ns);
            tally.add_kernel_metrics(r.iterations, &r.metrics);
            tally_devices(&mut tally, std::slice::from_ref(&dev));
            r.ranks
        });
        drop(dev);
        tr.lap();

        self.answers = Answers {
            traversals,
            sharded_ranks,
            single_ranks,
        };
        tally.finish();
        tally
    }

    fn verify(&mut self) -> Verdict {
        let oracles = self.oracles.get_or_insert_with(|| {
            let graph_of = |alg: Algorithm| {
                if alg.needs_weights() {
                    &self.weighted
                } else {
                    &self.graph
                }
            };
            // BFS x2 and x4 share one single-device run.
            let single = |alg: Algorithm| {
                let mut dev = Device::new(GpuConfig::default_preset());
                engine::run(
                    &mut dev,
                    graph_of(alg),
                    self.source,
                    alg,
                    &EtaConfig::paper(),
                )
                .ok()
                .map(|r| r.labels)
            };
            let (bfs, sssp) = (single(Algorithm::Bfs), single(Algorithm::Sssp));
            Oracles {
                reference: TRAVERSALS
                    .iter()
                    .map(|&(_, _, alg, _)| reference_labels(graph_of(alg), alg, self.source))
                    .collect(),
                single_device: vec![bfs.clone(), bfs, sssp],
                ranks: reference::pagerank(&self.graph, 0.85, PAGERANK_ITERATIONS),
            }
        });
        let mut v = Verdict::default();
        for (i, (label, ..)) in TRAVERSALS.iter().enumerate() {
            let got = self.answers.traversals[i].as_ref();
            v.check(got == Some(&oracles.reference[i]), || {
                format!("{label}: labels differ from the CPU reference")
            });
            v.check(
                got.is_some() && got == oracles.single_device[i].as_ref(),
                || format!("{label}: labels differ from the single-device run"),
            );
        }
        let close = |ranks: &Option<Vec<f32>>| {
            ranks.as_ref().is_some_and(|r| {
                r.len() == oracles.ranks.len()
                    && r.iter()
                        .zip(&oracles.ranks)
                        .all(|(&a, &b)| (a as f64 - b).abs() <= RANK_TOLERANCE)
            })
        };
        v.check(close(&self.answers.sharded_ranks), || {
            "run_sharded_pagerank x4: ranks differ from reference::pagerank by more than 1e-4"
                .into()
        });
        v.check(close(&self.answers.single_ranks), || {
            "pagerank::run: ranks differ from reference::pagerank by more than 1e-4".into()
        });
        let bits = |r: &Option<Vec<f32>>| {
            r.as_ref()
                .map(|r| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        v.check(
            self.answers.sharded_ranks.is_some()
                && bits(&self.answers.sharded_ranks) == bits(&self.answers.single_ranks),
            || "sharded PageRank ranks are not bit-identical to the single-device ranks".into(),
        );
        v
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            graph: &self.graph,
            source: self.source,
        }
    }
}
