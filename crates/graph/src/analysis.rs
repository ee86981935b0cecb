//! Graph analysis: connected components, LCC share, reachability.
//!
//! Table II of the paper reports `%LCC` — the largest connected component's
//! share of the whole graph — and the traversal results hinge on how much of
//! the graph is reachable from the chosen source (Table IV's activation
//! percentages). Both are computed here, on the CPU, with a union-find over
//! the undirected edge set.

use crate::csr::{Csr, INF};
use crate::reference;

/// Weighted-union path-halving union-find.
#[derive(Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    pub fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
    }
}

/// Connected-component summary of a graph (undirected sense).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentStats {
    pub components: usize,
    pub largest: usize,
    /// `largest / n`, the Table II `%LCC` column.
    pub lcc_fraction: f64,
}

/// Computes weakly-connected components.
pub fn components(g: &Csr) -> ComponentStats {
    let n = g.n();
    if n == 0 {
        return ComponentStats {
            components: 0,
            largest: 0,
            lcc_fraction: 0.0,
        };
    }
    let mut uf = UnionFind::new(n);
    for v in 0..n as u32 {
        for &d in g.neighbors(v) {
            uf.union(v, d);
        }
    }
    let mut largest = 0usize;
    let mut roots = 0usize;
    for v in 0..n as u32 {
        if uf.find(v) == v {
            roots += 1;
            largest = largest.max(uf.size[v as usize] as usize);
        }
    }
    ComponentStats {
        components: roots,
        largest,
        lcc_fraction: largest as f64 / n as f64,
    }
}

/// Vertices reachable from `src` by directed BFS (the paper's *activatable
/// subgraph* vertex set, Definition 2).
pub fn reachable_from(g: &Csr, src: u32) -> usize {
    let labels = reference::bfs(g, src);
    reference::reached_count(&labels, INF)
}

/// Fraction of all vertices that become active in a traversal from `src`
/// (Table IV's "Act. %" row).
pub fn activation_fraction(g: &Csr, src: u32) -> f64 {
    if g.n() == 0 {
        return 0.0;
    }
    reachable_from(g, src) as f64 / g.n() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    impl UnionFind {
        /// Size of the component containing `x`.
        fn component_size(&mut self, x: u32) -> u32 {
            let r = self.find(x);
            self.size[r as usize]
        }
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(3));
        assert_eq!(uf.component_size(4), 2);
        uf.union(1, 3);
        assert_eq!(uf.component_size(0), 4);
        assert_eq!(uf.component_size(2), 1);
    }

    #[test]
    fn components_of_two_islands() {
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let c = components(&g);
        assert_eq!(c.components, 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(c.largest, 3);
        assert!((c.lcc_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn directed_edges_still_connect_weakly() {
        let g = Csr::from_edges(3, &[(2, 0), (2, 1)]);
        assert_eq!(components(&g).components, 1);
    }

    #[test]
    fn reachability_is_directed() {
        let g = Csr::from_edges(3, &[(0, 1), (2, 1)]);
        assert_eq!(reachable_from(&g, 0), 2);
        assert_eq!(reachable_from(&g, 1), 1);
        assert!((activation_fraction(&g, 0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_component_stats() {
        let g = Csr::from_edges(0, &[]);
        let c = components(&g);
        assert_eq!(c.components, 0);
        assert_eq!(activation_fraction(&g, 0), 0.0);
    }
}
