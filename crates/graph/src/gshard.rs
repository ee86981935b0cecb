//! G-Shards: CuSha's graph representation.
//!
//! CuSha (Khorasani et al., HPDC'14) partitions the vertex ID space into
//! *windows* sized so each window's vertex values fit in an SM's shared
//! memory; shard `i` holds every edge whose **destination** falls in window
//! `i`, sorted by source. Processing a shard then writes only to a compact,
//! shared-memory-resident value window — fully coalesced — at the price of
//! storing each edge as an explicit `(src, dst)` pair: `2|E|` words, the
//! 1.87× CSR footprint in the paper's Table I, and of touching **all**
//! edges every iteration (no frontier).

use crate::csr::Csr;

/// One shard: edges whose destinations lie in `[dst_start, dst_end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    pub dst_start: u32,
    pub dst_end: u32,
    /// Edge sources, sorted.
    pub src: Vec<u32>,
    /// Edge destinations, parallel to `src`.
    pub dst: Vec<u32>,
    pub weights: Option<Vec<u32>>,
}

/// A G-Shards decomposition of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GShards {
    pub shards: Vec<Shard>,
    pub n: usize,
    /// Destination-window width (vertices per shard).
    pub window: u32,
}

impl GShards {
    /// Builds shards with `window` destination vertices each (CuSha sizes
    /// this so a window of vertex values fits in shared memory; with 48 KiB
    /// usable that is ~12K `u32` values — we default to 4096 to leave room
    /// for metadata, matching CuSha's published configuration).
    pub fn from_csr(g: &Csr, window: u32) -> GShards {
        assert!(window > 0);
        let n = g.n();
        let n_shards = (n as u32).div_ceil(window).max(1) as usize;
        let mut shards: Vec<Shard> = (0..n_shards)
            .map(|i| Shard {
                dst_start: i as u32 * window,
                dst_end: ((i as u32 + 1) * window).min(n as u32),
                src: Vec::new(),
                dst: Vec::new(),
                weights: g.weights.as_ref().map(|_| Vec::new()),
            })
            .collect();
        for v in 0..n as u32 {
            let a = g.row_offsets[v as usize] as usize;
            let b = g.row_offsets[v as usize + 1] as usize;
            for e in a..b {
                let d = g.col_idx[e];
                let s = (d / window) as usize;
                shards[s].src.push(v);
                shards[s].dst.push(d);
                if let (Some(ws), Some(w)) = (&mut shards[s].weights, &g.weights) {
                    ws.push(w[e]);
                }
            }
        }
        // Iterating vertices in order makes each shard's src already sorted.
        GShards { shards, n, window }
    }

    /// CuSha's default window for a 48 KiB shared-memory budget.
    pub const DEFAULT_WINDOW: u32 = 4096;

    pub fn m(&self) -> usize {
        self.shards.iter().map(|s| s.src.len()).sum()
    }

    /// Topology bytes: `(src, dst)` per edge (+ weight) plus shard index.
    pub fn topology_bytes(&self) -> u64 {
        let edge_words: u64 = self
            .shards
            .iter()
            .map(|s| (s.src.len() + s.dst.len() + s.weights.as_ref().map_or(0, Vec::len)) as u64)
            .sum();
        let index_words = self.shards.len() as u64 * 2; // offsets + window bounds
        (edge_words + index_words) * 4
    }

    /// Rebuilds the original edge set (order-insensitive check helper).
    pub fn edge_tuples(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = self
            .shards
            .iter()
            .flat_map(|s| s.src.iter().zip(&s.dst).map(|(&a, &b)| (a, b)))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{rmat, RmatConfig};

    #[test]
    fn shards_partition_by_destination_window() {
        let g = Csr::from_edges(10, &[(0, 1), (0, 9), (5, 2), (7, 8), (9, 0)]);
        let s = GShards::from_csr(&g, 4);
        assert_eq!(s.shards.len(), 3);
        for shard in &s.shards {
            for &d in &shard.dst {
                assert!(d >= shard.dst_start && d < shard.dst_end);
            }
        }
        assert_eq!(s.m(), g.m());
    }

    #[test]
    fn edges_are_preserved() {
        let g = rmat(&RmatConfig::paper(10, 20_000, 77));
        let s = GShards::from_csr(&g, 256);
        let mut orig = g.edge_tuples();
        orig.sort_unstable();
        assert_eq!(s.edge_tuples(), orig);
    }

    #[test]
    fn sources_within_shard_are_sorted() {
        let g = rmat(&RmatConfig::paper(9, 5_000, 3));
        let s = GShards::from_csr(&g, 128);
        for shard in &s.shards {
            assert!(shard.src.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn footprint_is_roughly_double_csr() {
        let g = rmat(&RmatConfig::paper(12, 60_000, 5));
        let s = GShards::from_csr(&g, GShards::DEFAULT_WINDOW);
        let ratio = s.topology_bytes() as f64 / g.topology_bytes() as f64;
        assert!(ratio > 1.5 && ratio < 2.1, "ratio {ratio}");
    }

    #[test]
    fn weights_follow_edges() {
        let g = Csr::from_weighted_edges(4, &[(0, 3, 7), (1, 0, 5), (2, 3, 9)]);
        let s = GShards::from_csr(&g, 2);
        let total_w: usize = s
            .shards
            .iter()
            .map(|sh| sh.weights.as_ref().unwrap().len())
            .sum();
        assert_eq!(total_w, 3);
        // Shard of window [2,4) holds both weight-7 and weight-9 edges.
        let hi = &s.shards[1];
        assert_eq!(hi.weights.as_ref().unwrap(), &vec![7, 9]);
    }
}
