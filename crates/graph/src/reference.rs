//! CPU reference implementations of the three traversal algorithms.
//!
//! These are the correctness oracles: every GPU framework result in the test
//! suite is compared against them. Each is the plain sequential textbook
//! algorithm, so an oracle shares no code with what it checks.
//!
//! Label conventions (shared with the GPU kernels):
//! * BFS — `label[v]` = hop count from the source, [`INF`] if unreachable.
//! * SSSP — `label[v]` = minimum path weight (saturating `u32` adds).
//! * SSWP — `label[v]` = widest-path bottleneck; the source itself is `INF`
//!   (infinitely wide empty path), unreachable vertices are `0`.

use crate::csr::{Csr, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Breadth-first search levels from `src`.
pub fn bfs(g: &Csr, src: u32) -> Vec<u32> {
    let mut label = vec![INF; g.n()];
    let mut frontier = vec![src];
    label[src as usize] = 0;
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &d in g.neighbors(v) {
                if label[d as usize] == INF {
                    label[d as usize] = depth;
                    next.push(d);
                }
            }
        }
        frontier = next;
    }
    label
}

/// Dijkstra single-source shortest paths (weights required).
pub fn sssp(g: &Csr, src: u32) -> Vec<u32> {
    // lint: allow(L-PANIC): documented precondition — weighted algorithms take weighted graphs
    let w = g.weights.as_ref().expect("SSSP needs weights");
    let mut dist = vec![INF; g.n()];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(Reverse((0u32, src)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        let a = g.row_offsets[v as usize] as usize;
        let b = g.row_offsets[v as usize + 1] as usize;
        for (&t, &wt) in g.col_idx[a..b].iter().zip(&w[a..b]) {
            let nd = d.saturating_add(wt);
            if nd < dist[t as usize] {
                dist[t as usize] = nd;
                heap.push(Reverse((nd, t)));
            }
        }
    }
    dist
}

/// Single-source widest path: maximize the minimum edge weight along a path.
pub fn sswp(g: &Csr, src: u32) -> Vec<u32> {
    // lint: allow(L-PANIC): documented precondition — weighted algorithms take weighted graphs
    let w = g.weights.as_ref().expect("SSWP needs weights");
    let mut width = vec![0u32; g.n()];
    let mut heap = BinaryHeap::new();
    width[src as usize] = INF; // empty path is infinitely wide
    heap.push((INF, src));
    while let Some((wd, v)) = heap.pop() {
        if wd < width[v as usize] {
            continue;
        }
        let a = g.row_offsets[v as usize] as usize;
        let b = g.row_offsets[v as usize + 1] as usize;
        for (&t, &wt) in g.col_idx[a..b].iter().zip(&w[a..b]) {
            let nw = wd.min(wt);
            if nw > width[t as usize] {
                width[t as usize] = nw;
                heap.push((nw, t));
            }
        }
    }
    width
}

/// Reference PageRank with damping `d`, run for `iters` Jacobi rounds.
///
/// Dangling vertices (out-degree 0) redistribute their mass uniformly, so
/// the ranks always sum to 1. `f64` on the host; the GPU kernels use `f32`
/// and are validated against this within a tolerance.
pub fn pagerank(g: &Csr, d: f64, iters: u32) -> Vec<f64> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iters {
        next.fill(0.0);
        let mut dangling = 0.0f64;
        for v in 0..n as u32 {
            let deg = g.degree(v);
            if deg == 0 {
                dangling += rank[v as usize];
                continue;
            }
            let share = rank[v as usize] / deg as f64;
            for &t in g.neighbors(v) {
                next[t as usize] += share;
            }
        }
        let base = (1.0 - d) / n as f64 + d * dangling / n as f64;
        for (r, nx) in rank.iter_mut().zip(&next) {
            *r = base + d * nx;
        }
    }
    rank
}

/// Number of vertices a BFS label vector marks reached.
pub fn reached_count(labels: &[u32], unreachable: u32) -> usize {
    labels.iter().filter(|&&l| l != unreachable).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{rmat, RmatConfig};

    fn diamond() -> Csr {
        Csr::from_weighted_edges(
            5,
            &[(0, 1, 2), (0, 2, 10), (1, 3, 2), (2, 3, 10), (3, 4, 1)],
        )
    }

    #[test]
    fn bfs_levels() {
        let g = diamond();
        assert_eq!(bfs(&g, 0), vec![0, 1, 1, 2, 3]);
        assert_eq!(bfs(&g, 3), vec![INF, INF, INF, 0, 1]);
    }

    #[test]
    fn bfs_unreachable_is_inf() {
        let g = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        let l = bfs(&g, 0);
        assert_eq!(l, vec![0, 1, INF, INF]);
        assert_eq!(reached_count(&l, INF), 2);
    }

    #[test]
    fn sssp_takes_cheapest_path() {
        let g = diamond();
        // 0->1->3 = 4 beats 0->2->3 = 20.
        assert_eq!(sssp(&g, 0), vec![0, 2, 10, 4, 5]);
    }

    #[test]
    fn sswp_takes_widest_path() {
        let g = diamond();
        // widest to 3: 0->2->3 bottleneck 10 beats 0->1->3 bottleneck 2.
        let w = sswp(&g, 0);
        assert_eq!(w[0], INF);
        assert_eq!(w[3], 10);
        assert_eq!(w[4], 1);
        assert_eq!(w[1], 2);
    }

    #[test]
    fn sswp_unreachable_is_zero() {
        let g = Csr::from_weighted_edges(3, &[(0, 1, 5)]);
        let w = sswp(&g, 0);
        assert_eq!(w[2], 0);
    }

    #[test]
    fn sssp_with_unit_weights_matches_bfs() {
        let mut g = rmat(&RmatConfig::paper(11, 30_000, 4));
        g.weights = Some(vec![1; g.m()]);
        let b = bfs(&g, 0);
        let d = sssp(&g, 0);
        assert_eq!(b, d);
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hubs() {
        let g = rmat(&RmatConfig::paper(10, 20_000, 6));
        let pr = pagerank(&g, 0.85, 30);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass conserved: {total}");
        // The highest-in-degree vertex should outrank the median vertex.
        let t = g.transpose();
        let hub = (0..g.n() as u32).max_by_key(|&v| t.degree(v)).unwrap();
        let median = pr[g.n() / 2];
        assert!(pr[hub as usize] > median);
    }

    #[test]
    fn pagerank_uniform_on_cycle() {
        let n = 8;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Csr::from_edges(n as usize, &edges);
        let pr = pagerank(&g, 0.85, 50);
        for &r in &pr {
            assert!((r - 1.0 / n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn self_loop_and_cycle_terminate() {
        let g = Csr::from_weighted_edges(3, &[(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 2, 3)]);
        assert_eq!(sssp(&g, 0), vec![0, 1, 4]);
        assert_eq!(bfs(&g, 0), vec![0, 1, 2]);
        let w = sswp(&g, 0);
        assert_eq!(w[2], 1);
    }
}
