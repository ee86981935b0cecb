//! Compressed Sparse Row graph representation.
//!
//! CSR is the paper's canonical format (Table I shows it is the most
//! space-efficient of the candidates: `|E| + |V|` words for topology) and
//! the input to EtaGraph's on-the-fly Unified Degree Cut. Vertex IDs, row
//! offsets and edge weights are all `u32`, matching the 4-byte elements the
//! GPU kernels access.

use serde::Serialize;

/// Label value for "not reached" (`∞`).
pub const INF: u32 = u32::MAX;

/// Largest vertex count a [`Csr`] holds: every id and the count itself
/// stay below [`INF`].
pub const MAX_VERTICES: usize = INF as usize - 1;

/// A directed graph in CSR form, optionally edge-weighted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `row_offsets[v]..row_offsets[v+1]` indexes `col_idx` for vertex `v`.
    pub row_offsets: Vec<u32>,
    /// Destination vertex of each edge.
    pub col_idx: Vec<u32>,
    /// Optional per-edge weight, parallel to `col_idx`.
    pub weights: Option<Vec<u32>>,
}

impl Csr {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        self.row_offsets[v as usize + 1] - self.row_offsets[v as usize]
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let a = self.row_offsets[v as usize] as usize;
        let b = self.row_offsets[v as usize + 1] as usize;
        &self.col_idx[a..b]
    }

    /// Edge-weight slice of `v` (panics if unweighted).
    #[inline]
    pub fn edge_weights(&self, v: u32) -> &[u32] {
        let a = self.row_offsets[v as usize] as usize;
        let b = self.row_offsets[v as usize + 1] as usize;
        // lint: allow(L-PANIC): documented precondition — callers check is_weighted()
        &self.weights.as_ref().expect("graph is unweighted")[a..b]
    }

    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> u32 {
        (0..self.n() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.m() as f64 / self.n() as f64
        }
    }

    /// Topology bytes as stored on device: `(|V|+1) + |E|` words, plus `|E|`
    /// weight words when weighted.
    pub fn topology_bytes(&self) -> u64 {
        let words = self.row_offsets.len() as u64
            + self.col_idx.len() as u64
            + self.weights.as_ref().map_or(0, |w| w.len() as u64);
        words * 4
    }

    /// Builds from an edge list; edges are sorted and deduplicated
    /// (the paper assumes graphs without duplicate edges).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
        let (mut row_offsets, mut col_idx) =
            bucket_by_source(n, edges.len(), |i| edges[i], |_, dst| dst);
        compact_rows(&mut col_idx, &mut row_offsets, |&dst| dst);
        col_idx.shrink_to_fit();
        Self::built(row_offsets, col_idx, None)
    }

    /// Builds a weighted CSR; duplicate `(src, dst)` pairs keep the weight
    /// of the first such edge in `edges`.
    pub fn from_weighted_edges(n: usize, edges: &[(u32, u32, u32)]) -> Csr {
        // A bucket entry packs `dst` above the edge's input index, so a
        // sorted row runs by destination and, within one, in input order:
        // the duplicate that survives is the first one in `edges`.
        let (mut row_offsets, mut keys) = bucket_by_source(
            n,
            edges.len(),
            |i| (edges[i].0, edges[i].1),
            |i, dst| u64::from(dst) << 32 | i as u64,
        );
        compact_rows(&mut keys, &mut row_offsets, |&k| (k >> 32) as u32);
        let col_idx = keys.iter().map(|&k| (k >> 32) as u32).collect();
        let weights = keys.iter().map(|&k| edges[k as u32 as usize].2).collect();
        Self::built(row_offsets, col_idx, Some(weights))
    }

    fn built(row_offsets: Vec<u32>, col_idx: Vec<u32>, weights: Option<Vec<u32>>) -> Csr {
        let csr = Csr {
            row_offsets,
            col_idx,
            weights,
        };
        debug_assert!(csr.validate().is_ok());
        csr
    }

    /// Structural invariants: monotone offsets, in-range targets, weight
    /// array parallel to edges.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_offsets.is_empty() {
            return Err("row_offsets must have at least one entry".into());
        }
        if self.row_offsets[0] != 0 {
            return Err("row_offsets[0] must be 0".into());
        }
        if self.row_offsets.last().copied().unwrap_or(0) as usize != self.col_idx.len() {
            return Err("last offset must equal edge count".into());
        }
        if self.row_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("row_offsets must be non-decreasing".into());
        }
        let n = self.n() as u32;
        if self.col_idx.iter().any(|&d| d >= n) {
            return Err("edge target out of range".into());
        }
        if let Some(w) = &self.weights {
            if w.len() != self.col_idx.len() {
                return Err("weights must parallel col_idx".into());
            }
        }
        Ok(())
    }

    /// The transposed graph (CSC of this one / CSR of the reverse graph).
    pub fn transpose(&self) -> Csr {
        let n = self.n();
        let mut row_offsets = vec![0u32; n + 1];
        for &d in &self.col_idx {
            row_offsets[d as usize + 1] += 1;
        }
        for v in 0..n {
            row_offsets[v + 1] += row_offsets[v];
        }
        let mut cursor = row_offsets.clone();
        let mut col_idx = vec![0u32; self.m()];
        let mut weights = self.weights.as_ref().map(|_| vec![0u32; self.m()]);
        for s in 0..n as u32 {
            let a = self.row_offsets[s as usize] as usize;
            let b = self.row_offsets[s as usize + 1] as usize;
            for e in a..b {
                let d = self.col_idx[e] as usize;
                let slot = cursor[d] as usize;
                cursor[d] += 1;
                col_idx[slot] = s;
                if let (Some(out), Some(src)) = (&mut weights, &self.weights) {
                    out[slot] = src[e];
                }
            }
        }
        Csr {
            row_offsets,
            col_idx,
            weights,
        }
    }

    /// All edges as `(src, dst)` tuples in CSR order.
    pub fn edge_tuples(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.m());
        for v in 0..self.n() as u32 {
            for &d in self.neighbors(v) {
                out.push((v, d));
            }
        }
        out
    }

    /// Attaches deterministic pseudo-random weights in `1..=max_weight`.
    pub fn with_random_weights(mut self, seed: u64, max_weight: u32) -> Csr {
        assert!(max_weight >= 1);
        let mut w = Vec::with_capacity(self.m());
        // SplitMix64 keyed by seed + edge index: deterministic and
        // independent of generation order.
        for e in 0..self.m() as u64 {
            let mut z = seed.wrapping_add(e.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            w.push(1 + (z % max_weight as u64) as u32);
        }
        self.weights = Some(w);
        self
    }

    /// Content digest of the topology and weights (FNV-1a, 64-bit,
    /// length-prefixed per array). Two graphs digest equal iff their CSR
    /// arrays are identical; checkpoint/resume uses this to pin a snapshot
    /// to the graph epoch it was taken against (see eta-ckpt).
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |w: u64| {
            for byte in w.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for part in [
            Some(&self.row_offsets),
            Some(&self.col_idx),
            self.weights.as_ref(),
        ] {
            match part {
                Some(v) => {
                    eat(v.len() as u64);
                    for &w in v.iter() {
                        eat(w as u64);
                    }
                }
                None => eat(u64::MAX),
            }
        }
        h
    }

    /// Out-degree histogram up to `buckets` (last bucket aggregates the
    /// tail); used to inspect skew.
    pub fn degree_histogram(&self, buckets: usize) -> Vec<u64> {
        let mut h = vec![0u64; buckets];
        for v in 0..self.n() as u32 {
            let d = self.degree(v) as usize;
            h[d.min(buckets - 1)] += 1;
        }
        h
    }
}

/// The counting pass of the CSR builders: scatters edge `i` (endpoints
/// `edge(i)`) into its source's bucket as `entry(i, dst)`, buckets in
/// source order and each bucket in input order. Returns the bucket ends
/// (`ends[v]` is one past bucket `v`, which starts at `ends[v - 1]` or 0;
/// `ends[n] == m`) and the buckets.
fn bucket_by_source<T: Copy + Default>(
    n: usize,
    m: usize,
    edge: impl Fn(usize) -> (u32, u32),
    entry: impl Fn(usize, u32) -> T,
) -> (Vec<u32>, Vec<T>) {
    assert!(n <= MAX_VERTICES, "vertex ids must fit in u32");
    assert!(m <= u32::MAX as usize, "edge count must fit in u32");
    let mut ends = vec![0u32; n + 1];
    for i in 0..m {
        let (s, d) = edge(i);
        assert!(
            (s as usize) < n && (d as usize) < n,
            "edge endpoint out of range"
        );
        ends[s as usize + 1] += 1;
    }
    for v in 0..n {
        ends[v + 1] += ends[v];
    }
    // `ends[v]` starts as bucket v's first slot and advances past each
    // entry placed, so it finishes as the bucket's end.
    let mut buckets = vec![T::default(); m];
    for i in 0..m {
        let (s, d) = edge(i);
        let slot = &mut ends[s as usize];
        buckets[*slot as usize] = entry(i, d);
        *slot += 1;
    }
    (ends, buckets)
}

/// Sorts each bucket, keeps the first entry of every run with one
/// `dst(entry)`, and packs the rows to the front of `buckets`, which is
/// then truncated. `offsets` comes in as [`bucket_by_source`]'s ends and
/// leaves as the CSR row offsets.
fn compact_rows<T: Copy + Ord>(buckets: &mut Vec<T>, offsets: &mut [u32], dst: impl Fn(&T) -> u32) {
    let (rows, total) = offsets.split_at_mut(offsets.len() - 1);
    let (mut start, mut kept) = (0usize, 0usize);
    for offset in rows {
        let end = *offset as usize;
        *offset = kept as u32;
        buckets[start..end].sort_unstable();
        let mut last = None;
        for r in start..end {
            let e = buckets[r];
            if last != Some(dst(&e)) {
                last = Some(dst(&e));
                // kept <= r: the packed prefix never overtakes the reads.
                buckets[kept] = e;
                kept += 1;
            }
        }
        start = end;
    }
    total[0] = kept as u32;
    buckets.truncate(kept);
}

/// Summary statistics of a graph (Table II columns).
#[derive(Debug, Clone, Serialize)]
pub struct GraphStats {
    pub vertices: usize,
    pub edges: usize,
    pub avg_degree: f64,
    pub max_degree: u32,
    pub size_bytes: u64,
}

impl GraphStats {
    pub fn of(csr: &Csr) -> GraphStats {
        GraphStats {
            vertices: csr.n(),
            edges: csr.m(),
            avg_degree: csr.avg_degree(),
            max_degree: csr.max_degree(),
            size_bytes: csr.topology_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::splitmix;
    use proptest::prelude::*;

    /// The sort-based builder the counting build replaced: edge indices
    /// sorted on `(edge, index)`, then deduplicated on the edge, so a
    /// duplicate keeps its first weight.
    fn from_edges_by_sort(n: usize, edges: &[(u32, u32)], weights: Option<&[u32]>) -> Csr {
        let mut order: Vec<u32> = (0..edges.len() as u32).collect();
        eta_par::par_sort_by_key(&mut order, |&i| (edges[i as usize], i));
        order.dedup_by_key(|i| edges[*i as usize]);
        let mut row_offsets = vec![0u32; n + 1];
        for &i in &order {
            row_offsets[edges[i as usize].0 as usize + 1] += 1;
        }
        for v in 0..n {
            row_offsets[v + 1] += row_offsets[v];
        }
        Csr {
            row_offsets,
            col_idx: order.iter().map(|&i| edges[i as usize].1).collect(),
            weights: weights.map(|w| order.iter().map(|&i| w[i as usize]).collect()),
        }
    }

    /// Both builders against the oracle, at one and two host threads.
    fn assert_matches_sort_oracle(n: usize, edges: &[(u32, u32, u32)]) {
        let pairs: Vec<(u32, u32)> = edges.iter().map(|&(s, d, _)| (s, d)).collect();
        let weights: Vec<u32> = edges.iter().map(|&(_, _, w)| w).collect();
        for threads in [1, 2] {
            let _threads = eta_par::ThreadGuard::set(threads);
            assert_eq!(
                Csr::from_edges(n, &pairs),
                from_edges_by_sort(n, &pairs, None),
                "unweighted, {threads} thread(s)"
            );
            assert_eq!(
                Csr::from_weighted_edges(n, edges),
                from_edges_by_sort(n, &pairs, Some(&weights)),
                "weighted, {threads} thread(s)"
            );
        }
    }

    /// A random edge list over `n < 48` vertices whose endpoints stay below
    /// `n - trailing` (the rest are trailing isolated vertices); small
    /// enough that duplicates and self loops are common, with weights in
    /// `1..4` so duplicates often disagree on theirs. `n = 0` has no edges.
    fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
        (0usize..48, 0usize..6).prop_flat_map(|(n, trailing)| {
            let span = n.saturating_sub(trailing).max(1) as u32;
            let len = if n == 0 { 0..1 } else { 0..300 };
            proptest::collection::vec((0..span, 0..span, 1u32..4), len).prop_map(move |e| (n, e))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn counting_build_matches_the_sort_oracle((n, edges) in arb_edge_list()) {
            assert_matches_sort_oracle(n, &edges);
        }
    }

    #[test]
    fn counting_build_matches_the_sort_oracle_above_the_parallel_threshold() {
        // 20k edges on 400 of 410 vertices: the oracle's sort runs chunked
        // at two threads, and every row holds duplicates.
        let edges: Vec<(u32, u32, u32)> = (0..20_000u64)
            .map(|i| {
                let r = splitmix(17, i);
                (
                    (r % 400) as u32,
                    (r >> 20) as u32 % 400,
                    (r >> 40) as u32 % 5,
                )
            })
            .collect();
        assert_matches_sort_oracle(410, &edges);
    }

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn from_edges_builds_expected_structure() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[3]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn duplicate_edges_are_removed() {
        let g = Csr::from_edges(3, &[(0, 1), (0, 1), (1, 2), (0, 1)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let g = Csr::from_edges(4, &[(2, 0), (0, 3), (0, 1), (2, 1)]);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn weighted_edges_stay_parallel() {
        let g = Csr::from_weighted_edges(3, &[(1, 2, 9), (0, 1, 5), (0, 2, 7)]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.edge_weights(0), &[5, 7]);
        assert_eq!(g.edge_weights(1), &[9]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(0), &[] as &[u32]);
        assert_eq!(t.m(), g.m());
        // Transposing twice restores the original.
        let tt = t.transpose();
        assert_eq!(tt, g);
    }

    #[test]
    fn transpose_carries_weights() {
        let g = Csr::from_weighted_edges(3, &[(0, 2, 7), (1, 2, 9)]);
        let t = g.transpose();
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.edge_weights(2), &[7, 9]);
    }

    #[test]
    fn topology_bytes_formula() {
        let g = diamond();
        assert_eq!(g.topology_bytes(), (5 + 4) * 4);
        let w = diamond().with_random_weights(1, 64);
        assert_eq!(w.topology_bytes(), (5 + 4 + 4) * 4);
    }

    #[test]
    fn random_weights_in_range_and_deterministic() {
        let a = diamond().with_random_weights(42, 10);
        let b = diamond().with_random_weights(42, 10);
        assert_eq!(a.weights, b.weights);
        assert!(a.weights.unwrap().iter().all(|&w| (1..=10).contains(&w)));
        let c = diamond().with_random_weights(43, 10);
        assert_ne!(c.weights, b.weights, "different seed, different weights");
    }

    #[test]
    fn validate_catches_corruption() {
        let mut g = diamond();
        g.col_idx[0] = 99;
        assert!(g.validate().is_err());
        let mut g2 = diamond();
        g2.row_offsets[1] = 3;
        g2.row_offsets[2] = 2;
        assert!(g2.validate().is_err());
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert!(g.validate().is_ok());
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn edge_tuples_roundtrip() {
        let g = diamond();
        let edges = g.edge_tuples();
        let g2 = Csr::from_edges(4, &edges);
        assert_eq!(g, g2);
    }

    #[test]
    fn digest_tracks_content_not_identity() {
        let a = diamond();
        let b = diamond();
        assert_eq!(a.digest(), b.digest(), "equal graphs digest equal");
        let mut c = diamond();
        c.col_idx[0] = 2;
        assert_ne!(a.digest(), c.digest(), "one flipped edge changes it");
        let w = diamond().with_random_weights(1, 4);
        assert_ne!(a.digest(), w.digest(), "weights are part of the epoch");
    }

    #[test]
    fn degree_histogram_shape() {
        let g = diamond();
        let h = g.degree_histogram(4);
        assert_eq!(h, vec![1, 2, 1, 0]); // one deg-0, two deg-1, one deg-2
    }
}
