//! The five workloads and what they share: seeded source picking, the
//! single-device query helper and the CPU oracles.
//!
//! Every input is generated here from the run's seed; the crates under test
//! only ever see graphs, sources, traces and fault plans.

mod oversub_transfer;
mod serve_overload;
mod sharded_group;
mod social_sweep;
mod web_deep;

use crate::harness::{Tally, Verdict, Workload};
use crate::span::Tracer;
use eta_graph::analysis::UnionFind;
use eta_graph::generate::splitmix;
use eta_graph::{reference, Csr};
use eta_sim::{Device, GpuConfig};
use etagraph::{engine, Algorithm, EtaConfig};

pub fn build(name: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "social_sweep" => Box::new(social_sweep::SocialSweep::build(seed, tr)),
        "web_deep" => Box::new(web_deep::WebDeep::build(seed, tr)),
        "oversub_transfer" => Box::new(oversub_transfer::OversubTransfer::build(seed, tr)),
        "sharded_group" => Box::new(sharded_group::ShardedGroup::build(seed, tr)),
        "serve_overload" => Box::new(serve_overload::ServeOverload::build(seed, tr)),
        other => {
            return Err(format!(
                "unknown workload {other:?}; known: {:?}",
                crate::catalog::workload_names()
            ))
        }
    })
}

/// How many of a graph's highest-degree vertices a seeded source is drawn
/// from. R-MAT hubs come in tiers (on livejournal 18 vertices of degree
/// about 1000, then a tier of about 530 whose SSSP costs a tenth more host
/// time); 16 stays inside the top tier.
const HUBS: usize = 16;

/// A seeded source among the graph's `HUBS` highest-degree vertices whose
/// reference BFS reaches at least a tenth of the graph. No query degenerates
/// into a one-vertex traversal, and because the top hubs all sit in the
/// dense core, depth and relaxation work are alike from one seed to the
/// next: what a run measures is the system, not the luck of the draw.
/// `stream` separates the draws of different queries under one seed.
fn seeded_source(g: &Csr, seed: u64, stream: u64) -> u32 {
    let mut hubs: Vec<u32> = (0..g.n() as u32).collect();
    hubs.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    hubs.truncate(HUBS);
    for i in 0.. {
        let v = hubs[(splitmix(seed ^ (stream << 32), i) % hubs.len() as u64) as usize];
        let reached = reference::reached_count(&reference::bfs(g, v), u32::MAX);
        if reached * 10 >= g.n() {
            return v;
        }
    }
    unreachable!("the draw loop only ends by returning")
}

/// `g` plus the reverse of every edge (duplicates merged by the builder).
fn symmetrized(g: &Csr) -> Csr {
    let mut edges = g.edge_tuples();
    for i in 0..edges.len() {
        let (a, b) = edges[i];
        edges.push((b, a));
    }
    Csr::from_edges(g.n(), &edges)
}

/// Connected-component oracle: the smallest vertex id of each union-find
/// component, which is what min-label propagation converges to.
fn cc_reference(g: &Csr) -> Vec<u32> {
    let mut uf = UnionFind::new(g.n());
    for (a, b) in g.edge_tuples() {
        uf.union(a, b);
    }
    let mut min_of_root = vec![u32::MAX; g.n()];
    for v in 0..g.n() as u32 {
        let r = uf.find(v) as usize;
        min_of_root[r] = min_of_root[r].min(v);
    }
    (0..g.n() as u32)
        .map(|v| min_of_root[uf.find(v) as usize])
        .collect()
}

fn reference_labels(g: &Csr, alg: Algorithm, source: u32) -> Vec<u32> {
    match alg {
        Algorithm::Bfs => reference::bfs(g, source),
        Algorithm::Sssp => reference::sssp(g, source),
        Algorithm::Sswp => reference::sswp(g, source),
        Algorithm::Cc => cc_reference(g),
    }
}

fn query_metric(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::Bfs => "core.query_s.bfs",
        Algorithm::Sssp => "core.query_s.sssp",
        Algorithm::Sswp => "core.query_s.sswp",
        Algorithm::Cc => "core.query_s.cc",
    }
}

/// One cold single-device query, as `report table3` runs it: a fresh
/// `Device`, then `engine::run`. Tallies the simulated outcome, ends the
/// query's lap and returns the labels (`None` when the engine refused the
/// query).
#[allow(clippy::too_many_arguments)]
fn cold_query(
    tr: &mut Tracer,
    tally: &mut Tally,
    query: u32,
    label: &'static str,
    g: &Csr,
    alg: Algorithm,
    source: u32,
    cfg: &EtaConfig,
    gpu: GpuConfig,
) -> Option<Vec<u32>> {
    tr.set_query(query);
    let id = tr.begin("core", label, Some(query_metric(alg)));
    let mut dev = Device::new(gpu);
    let result = engine::run(&mut dev, g, source, alg, cfg);
    tr.end(id);
    tr.set_query(0);
    tally.attempt(g.m() as u64);
    let labels = result.ok().map(|r| {
        tally.answered(r.total_ns, r.kernel_ns);
        tally.add_kernel_metrics(r.iterations, &r.metrics);
        tally.add_um(&r.um_stats);
        tally.add_timeline(&r.timeline);
        tally.add_zero_copy(dev.mem.zero_copy_bytes);
        r.labels
    });
    // The lap takes in the device's teardown, as the next query would wait
    // for it.
    drop(dev);
    tr.lap();
    labels
}

/// Compares one answer with its oracle; a missing answer is a failure too.
fn check_labels(v: &mut Verdict, what: &str, got: Option<&Vec<u32>>, want: &[u32]) {
    v.check(got.is_some_and(|l| l == want), || match got {
        None => format!("{what}: the engine returned an error"),
        Some(l) => {
            let at = l.iter().zip(want).position(|(a, b)| a != b);
            format!("{what}: labels differ from the CPU reference (first at vertex {at:?})")
        }
    });
}
