//! Synthetic graph generators.
//!
//! * [`rmat`] — the PaRMAT-style recursive-matrix generator the paper uses
//!   for its synthetic dataset (`a=0.45, b=0.22, c=0.22`), producing the
//!   power-law out-degree skew that motivates Unified Degree Cut.
//! * [`web`] — a high-diameter "web graph" analog: hub-dominated communities
//!   chained by sparse bridges, with a controllable fraction of the graph in
//!   the largest connected component and an optional tiny source island.
//!   This reproduces the *structural drivers* of the paper's uk-2005 /
//!   sk-2005 / uk-2006 results: hundreds of BFS iterations, partial
//!   reachability, and a source that reaches ~1e-4 of the vertices.
//!
//! All generators are deterministic in their seed and independent of the
//! worker-thread count (per-edge counter-based RNG).

use crate::csr::Csr;

/// SplitMix64: cheap counter-based RNG, one stream per (seed, index).
/// Public so workload generators elsewhere (e.g. the serving layer's
/// Poisson arrivals) can share the repository's one deterministic RNG.
#[inline]
pub fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1).
#[inline]
pub fn unit(seed: u64, index: u64) -> f64 {
    (splitmix(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// R-MAT configuration (PaRMAT parameters; `d = 1 - a - b - c`).
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edge samples to draw (duplicates are removed, so the final edge count
    /// is slightly lower).
    pub edges: usize,
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub seed: u64,
}

impl RmatConfig {
    /// The paper's PaRMAT parameters.
    pub fn paper(scale: u32, edges: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edges,
            a: 0.45,
            b: 0.22,
            c: 0.22,
            seed,
        }
    }
}

/// Generates an R-MAT graph in CSR form.
pub fn rmat(cfg: &RmatConfig) -> Csr {
    let n = 1usize << cfg.scale;
    let d = 1.0 - cfg.a - cfg.b - cfg.c;
    assert!(d >= -1e-9, "a+b+c must be <= 1");
    let edges: Vec<(u32, u32)> = eta_par::build_vec(cfg.edges, |i| rmat_edge(cfg, i as u64));
    Csr::from_edges(n, &edges)
}

/// Sample `i` of an R-MAT graph: one quadrant draw per bit level, most
/// significant first.
#[inline]
fn rmat_edge(cfg: &RmatConfig, i: u64) -> (u32, u32) {
    let mut src = 0u32;
    let mut dst = 0u32;
    for bit in 0..cfg.scale {
        let r = unit(cfg.seed, i << 8 | bit as u64);
        // Quadrant probabilities with a small per-level perturbation so
        // the degree distribution is not perfectly self-similar (PaRMAT's
        // noise option).
        let noise = 0.05 * (unit(cfg.seed ^ 0xABCD, i << 8 | bit as u64) - 0.5);
        let a = (cfg.a + noise).clamp(0.0, 1.0);
        let ab = a + cfg.b;
        let abc = ab + cfg.c;
        // The first of `r < a`, `r < ab`, `r < abc` that holds picks the
        // quadrant (top-left, top-right, bottom-left; none: bottom-right),
        // computed without a branch the draw would mispredict.
        let q0 = r < a;
        let q1 = !q0 & (r < ab);
        let q2 = !q0 & !q1 & (r < abc);
        let q3 = !(q0 | q1 | q2);
        src = src << 1 | u32::from(q2 | q3);
        dst = dst << 1 | u32::from(q1 | q3);
    }
    (src, dst)
}

/// Configuration of the web-like generator.
#[derive(Debug, Clone, Copy)]
pub struct WebConfig {
    /// Total vertices, including islands.
    pub vertices: usize,
    /// Approximate total edges.
    pub edges: usize,
    /// Hub-dominated communities chained by bridges. BFS needs roughly two
    /// iterations per community, so iteration count ≈ `2 * communities`.
    pub communities: usize,
    /// Fraction of vertices in the bridged chain (the LCC).
    pub lcc_fraction: f64,
    /// If set, a tiny isolated component of this size holds vertex 0; a BFS
    /// from 0 then activates only ~`size / vertices` of the graph (the
    /// paper's uk-2006 scenario).
    pub source_island: Option<usize>,
    pub seed: u64,
}

/// Generates a web-like graph. Returns the CSR and the intended BFS source.
pub fn web(cfg: &WebConfig) -> (Csr, u32) {
    let island0 = cfg.source_island.unwrap_or(0);
    assert!(island0 < cfg.vertices / 4, "source island must be small");
    let lcc_n = ((cfg.vertices - island0) as f64 * cfg.lcc_fraction) as usize;
    let comm = cfg.communities.max(1);
    let comm_size = (lcc_n / comm).max(4);
    let lcc_n = comm_size * comm; // exact multiple
    let lcc_start = island0;
    let isolated_start = lcc_start + lcc_n;
    let n = cfg.vertices.max(isolated_start);

    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(cfg.edges + island0 * 2);

    // --- source island: a branching-4 tree plus back edges; diameter ~4.
    if island0 > 0 {
        for v in 1..island0 {
            let parent = (v - 1) / 4;
            edges.push((parent as u32, v as u32));
            edges.push((v as u32, parent as u32));
        }
    }

    // --- the LCC: chained hub communities.
    // Fixed structure first: each hub fans out over its whole community (a
    // high-degree web host page — the paper's web graphs have max
    // out-degree in the thousands), each member links back to the hub
    // (2-hop internal diameter), two bridges reach the next hub. Whatever
    // remains of the edge budget becomes random member→member links, so the
    // generator actually delivers ~`cfg.edges` edges.
    let members_per_comm = comm_size - 1;
    let hub_edges = comm * members_per_comm;
    let back_edges = comm * members_per_comm;
    let bridge_edges = (comm - 1) * 2;
    let island_edges_est = (n - isolated_start) + island0 * 2;
    let fixed = hub_edges + back_edges + bridge_edges + island_edges_est;
    let member_count = comm * members_per_comm;
    let extra_links = cfg.edges.saturating_sub(fixed) / member_count.max(1);

    for c in 0..comm {
        let base = (lcc_start + c * comm_size) as u32;
        let hub = base;
        for v in 1..comm_size {
            let vid = base + v as u32;
            edges.push((hub, vid));
            edges.push((vid, hub));
            for l in 0..extra_links {
                let r = splitmix(cfg.seed ^ 0x00C0FFEE, (vid as u64) << 8 | l as u64);
                let other = base + 1 + (r % (comm_size as u64 - 1)) as u32;
                edges.push((vid, other));
            }
        }
        // Bridges to the next community's hub (sparse forward chain).
        if c + 1 < comm {
            let next_hub = base + comm_size as u32;
            for b in 0..2 {
                let r = splitmix(cfg.seed ^ 0x00BB_11DD, (c as u64) << 4 | b);
                let from = base + 1 + (r % (comm_size as u64 - 1)) as u32;
                edges.push((from, next_hub));
            }
        }
    }

    // --- isolated islands: rings of ~1024 vertices, unreachable from the LCC.
    let mut v = isolated_start;
    while v < n {
        let end = (v + 1024).min(n);
        for u in v..end {
            let next = if u + 1 < end { u + 1 } else { v };
            if next != u {
                edges.push((u as u32, next as u32));
            }
        }
        v = end;
    }

    let source = if island0 > 0 { 0 } else { lcc_start as u32 };
    (Csr::from_edges(n, &edges), source)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sampler as a branch chain: the definition `rmat_edge` keeps.
    fn rmat_edge_branchy(cfg: &RmatConfig, i: u64) -> (u32, u32) {
        let mut src = 0u32;
        let mut dst = 0u32;
        for bit in 0..cfg.scale {
            let r = unit(cfg.seed, i << 8 | bit as u64);
            let noise = 0.05 * (unit(cfg.seed ^ 0xABCD, i << 8 | bit as u64) - 0.5);
            let a = (cfg.a + noise).clamp(0.0, 1.0);
            let ab = a + cfg.b;
            let abc = ab + cfg.c;
            src <<= 1;
            dst <<= 1;
            if r < a {
                // top-left: neither bit set
            } else if r < ab {
                dst |= 1;
            } else if r < abc {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        (src, dst)
    }

    #[test]
    fn branch_free_sampler_matches_the_branch_chain() {
        // Random configs, the paper's, zero b or c, and out-of-range
        // values (negative b or c, a + b + c above 1): the rule is exact
        // for any parameters, not only for valid ones.
        let mut cfgs = vec![
            RmatConfig::paper(12, 0, 1),
            RmatConfig {
                b: 0.0,
                ..RmatConfig::paper(10, 0, 2)
            },
            RmatConfig {
                c: 0.0,
                ..RmatConfig::paper(10, 0, 3)
            },
            RmatConfig {
                b: 0.0,
                c: 0.0,
                ..RmatConfig::paper(10, 0, 4)
            },
            RmatConfig {
                b: -0.1,
                ..RmatConfig::paper(10, 0, 5)
            },
            RmatConfig {
                c: -0.2,
                ..RmatConfig::paper(10, 0, 6)
            },
            RmatConfig {
                a: 0.9,
                b: 0.3,
                c: 0.3,
                ..RmatConfig::paper(10, 0, 7)
            },
        ];
        for k in 0..40u64 {
            let p = |j: u64| unit(0x5EED, k << 4 | j);
            cfgs.push(RmatConfig {
                scale: 1 + (splitmix(0x5CA1E, k) % 20) as u32,
                edges: 0,
                a: p(0),
                b: p(1) * (1.0 - p(0)),
                c: p(2) * (1.0 - p(0)) * (1.0 - p(1)),
                seed: k,
            });
        }
        for cfg in &cfgs {
            for i in 0..2_000u64 {
                assert_eq!(
                    rmat_edge(cfg, i),
                    rmat_edge_branchy(cfg, i),
                    "sample {i} of {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn rmat_is_deterministic() {
        let cfg = RmatConfig::paper(10, 10_000, 7);
        let a = rmat(&cfg);
        let b = rmat(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn rmat_seed_changes_graph() {
        let a = rmat(&RmatConfig::paper(10, 10_000, 7));
        let b = rmat(&RmatConfig::paper(10, 10_000, 8));
        assert_ne!(a, b);
    }

    #[test]
    fn rmat_respects_scale_and_approximate_edges() {
        let cfg = RmatConfig::paper(12, 50_000, 1);
        let g = rmat(&cfg);
        assert_eq!(g.n(), 4096);
        // Duplicates shrink the count but not catastrophically.
        assert!(g.m() > 30_000, "got {} edges", g.m());
        assert!(g.m() <= 50_000);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(&RmatConfig::paper(14, 200_000, 3));
        let max = g.max_degree() as f64;
        let avg = g.avg_degree();
        assert!(
            max > 20.0 * avg,
            "power-law skew expected: max {max}, avg {avg}"
        );
    }

    #[test]
    fn rmat_thread_count_does_not_change_result() {
        let cfg = RmatConfig::paper(11, 30_000, 99);
        let seq = {
            let _g = eta_par::ThreadGuard::set(1);
            rmat(&cfg)
        };
        let par = {
            let _g = eta_par::ThreadGuard::set(4);
            rmat(&cfg)
        };
        assert_eq!(seq, par);
    }

    #[test]
    fn web_basic_shape() {
        let (g, src) = web(&WebConfig {
            vertices: 20_000,
            edges: 120_000,
            communities: 20,
            lcc_fraction: 0.7,
            source_island: None,
            seed: 5,
        });
        assert!(g.validate().is_ok());
        assert_eq!(src, 0);
        assert!(g.n() >= 20_000);
        assert!(g.m() > 60_000);
        // Hubs make the graph skewed.
        assert!(g.max_degree() > 100);
    }

    #[test]
    fn web_source_island_is_tiny_and_closed() {
        let island = 96;
        let (g, src) = web(&WebConfig {
            vertices: 10_000,
            edges: 60_000,
            communities: 10,
            lcc_fraction: 0.7,
            source_island: Some(island),
            seed: 11,
        });
        assert_eq!(src, 0);
        // No edge leaves the island.
        for v in 0..island as u32 {
            for &d in g.neighbors(v) {
                assert!((d as usize) < island, "island must be closed");
            }
        }
        // And no edge enters it from outside.
        for v in island as u32..g.n() as u32 {
            for &d in g.neighbors(v) {
                assert!((d as usize) >= island);
            }
        }
    }

    #[test]
    fn web_is_deterministic() {
        let cfg = WebConfig {
            vertices: 5_000,
            edges: 30_000,
            communities: 8,
            lcc_fraction: 0.65,
            source_island: None,
            seed: 2,
        };
        assert_eq!(web(&cfg).0, web(&cfg).0);
    }
}
