//! Virtual Split Transformation — Tigr's preprocessing (Sabet et al.,
//! ASPLOS'18).
//!
//! VST splits every vertex with out-degree above a bound `k` into multiple
//! *virtual vertices* of degree ≤ `k`, **materialized at preprocessing
//! time**: the transformed graph carries a new offset array and a
//! virtual→real mapping on top of the original edge array. The paper's
//! Table I prices this at `|E| + 2|N| + 2|V|` words (N = virtual vertices)
//! versus plain CSR's `|E| + |V|` — the space and preprocessing overhead
//! that EtaGraph's on-the-fly Unified Degree Cut avoids.

use crate::csr::Csr;

/// A VST-transformed graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vst {
    /// Degree bound.
    pub k: u32,
    /// Real vertex count.
    pub n_real: usize,
    /// `virt_offsets[u]..virt_offsets[u+1]` indexes `col_idx` for virtual
    /// vertex `u` (|N|+1 entries).
    pub virt_offsets: Vec<u32>,
    /// Real vertex each virtual vertex stands for (|N| entries).
    pub virt_real: Vec<u32>,
    /// First virtual vertex of each real vertex (|V|+1 entries).
    pub real_virt_start: Vec<u32>,
    /// Edge targets, identical content to the source CSR (|E| entries).
    pub col_idx: Vec<u32>,
    pub weights: Option<Vec<u32>>,
}

impl Vst {
    /// Materializes the transformation (Tigr's preprocessing step).
    pub fn from_csr(g: &Csr, k: u32) -> Vst {
        assert!(k >= 1, "degree bound must be positive");
        let n = g.n();
        let mut virt_offsets = vec![0u32];
        let mut virt_real = Vec::new();
        let mut real_virt_start = Vec::with_capacity(n + 1);
        for v in 0..n as u32 {
            real_virt_start.push(virt_real.len() as u32);
            let deg = g.degree(v);
            let start = g.row_offsets[v as usize];
            let parts = deg.div_ceil(k);
            for p in 0..parts {
                let lo = start + p * k;
                let hi = (lo + k).min(start + deg);
                virt_real.push(v);
                virt_offsets.push(hi);
                debug_assert!(hi - lo <= k);
            }
        }
        real_virt_start.push(virt_real.len() as u32);
        Vst {
            k,
            n_real: n,
            virt_offsets,
            virt_real,
            real_virt_start,
            col_idx: g.col_idx.clone(),
            weights: g.weights.clone(),
        }
    }

    /// Number of virtual vertices (the paper's `|N|`).
    pub fn n_virtual(&self) -> usize {
        self.virt_real.len()
    }

    pub fn m(&self) -> usize {
        self.col_idx.len()
    }

    /// Topology bytes: `|E| + 2|N| + 2|V|` words (Table I's VST row), plus
    /// weights when present.
    pub fn topology_bytes(&self) -> u64 {
        let words = self.col_idx.len() as u64
            + self.virt_offsets.len() as u64
            + self.virt_real.len() as u64
            + self.real_virt_start.len() as u64
            + self.n_real as u64 // per-real bookkeeping Tigr keeps for updates
            + self.weights.as_ref().map_or(0, |w| w.len() as u64);
        words * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{rmat, RmatConfig};

    impl Vst {
        /// Virtual vertices belonging to real vertex `v`.
        fn virtuals_of(&self, v: u32) -> std::ops::Range<u32> {
            self.real_virt_start[v as usize]..self.real_virt_start[v as usize + 1]
        }

        /// Edge range of virtual vertex `u`.
        fn edges_of(&self, u: u32) -> std::ops::Range<usize> {
            self.virt_offsets[u as usize] as usize..self.virt_offsets[u as usize + 1] as usize
        }
    }

    fn star() -> Csr {
        // vertex 0 has out-degree 7.
        Csr::from_edges(8, &(1..8).map(|d| (0u32, d)).collect::<Vec<_>>())
    }

    #[test]
    fn high_degree_vertex_is_split() {
        let v = Vst::from_csr(&star(), 3);
        // degree 7, k=3 -> 3 virtual vertices (3+3+1); others have none
        // (degree 0 yields no virtual vertex).
        assert_eq!(v.n_virtual(), 3);
        assert_eq!(v.virtuals_of(0), 0..3);
        assert_eq!(v.virtuals_of(1), 3..3);
        let sizes: Vec<usize> = (0..3).map(|u| v.edges_of(u).len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn all_virtual_degrees_bounded() {
        let g = rmat(&RmatConfig::paper(12, 80_000, 9));
        for k in [1u32, 4, 16] {
            let v = Vst::from_csr(&g, k);
            for u in 0..v.n_virtual() as u32 {
                assert!(v.edges_of(u).len() as u32 <= k);
            }
        }
    }

    #[test]
    fn edges_are_partitioned_exactly() {
        let g = rmat(&RmatConfig::paper(11, 40_000, 13));
        let v = Vst::from_csr(&g, 8);
        // Virtual edge ranges must tile 0..m without gaps or overlaps.
        let mut covered = 0usize;
        for u in 0..v.n_virtual() as u32 {
            let r = v.edges_of(u);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, g.m());
        // And each virtual vertex's edges are its real vertex's edges.
        for real in 0..g.n() as u32 {
            let mut edges: Vec<u32> = Vec::new();
            for u in v.virtuals_of(real) {
                edges.extend_from_slice(&v.col_idx[v.edges_of(u)]);
            }
            assert_eq!(edges, g.neighbors(real));
        }
    }

    #[test]
    fn k1_yields_one_virtual_per_edge() {
        let g = star();
        let v = Vst::from_csr(&g, 1);
        assert_eq!(v.n_virtual(), g.m());
    }

    #[test]
    fn footprint_exceeds_csr() {
        let g = rmat(&RmatConfig::paper(12, 60_000, 5));
        let v = Vst::from_csr(&g, 10);
        assert!(v.topology_bytes() > g.topology_bytes());
        let ratio = v.topology_bytes() as f64 / g.topology_bytes() as f64;
        assert!(ratio < 2.0, "VST is cheaper than edge lists: {ratio}");
    }

    #[test]
    fn low_degree_graph_is_nearly_unchanged() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let v = Vst::from_csr(&g, 10);
        assert_eq!(v.n_virtual(), 3, "one virtual per non-zero-degree vertex");
    }
}
