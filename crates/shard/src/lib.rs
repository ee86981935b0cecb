//! `eta-shard` — vertex-range CSR partitioning for multi-device traversal.
//!
//! A [`GraphPartition`] splits a global CSR into one shard per device by
//! contiguous vertex range, chosen so every shard carries roughly the same
//! number of *edges* (vertex counts are a poor proxy on power-law graphs —
//! one hub can outweigh thousands of leaves). Each shard owns the vertices
//! of its range together with **all** of their out-edges, so the owner of a
//! vertex is the only device that ever expands it — Gunrock's partitioned
//! frontier model (PAPERS.md).
//!
//! Edges whose destination falls outside the owned range point at *halo*
//! vertices: remote vertices that appear in the shard's local CSR as
//! zero-out-degree rows appended after the owned range. The shard relaxes
//! into its local halo copies exactly like into owned vertices; the BSP
//! exchange (etagraph's `sharded` module) then ships the improved halo
//! labels to their owners over the modeled peer links. Keeping a replicated
//! label/tag slot per halo vertex is what makes the local kernels oblivious
//! to sharding — and is precisely the extra device memory the serving
//! layer's admission check must account for.
//!
//! Local vertex ids are `0..own_len` for owned vertices (global `lo + i`)
//! followed by halo vertices in ascending global order — a bijection both
//! sides of the exchange can compute without any per-vertex table.

use eta_graph::Csr;

/// One device's shard: the owned global range, the local CSR (owned rows
/// first, then zero-degree halo rows), and the halo's global ids.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Position in the group (0-based device slot).
    pub device: u32,
    /// First owned global vertex (inclusive).
    pub lo: u32,
    /// One past the last owned global vertex.
    pub hi: u32,
    /// Local topology: rows `0..own_len()` are the owned vertices with all
    /// their out-edges (targets remapped to local ids); rows `own_len()..`
    /// are the halo vertices with out-degree 0.
    pub csr: Csr,
    /// Global ids of the halo vertices, ascending (row `own_len() + i` of
    /// the local CSR is global vertex `halo[i]`).
    pub halo: Vec<u32>,
}

impl ShardSpec {
    /// Owned vertices in this shard.
    pub fn own_len(&self) -> u32 {
        self.hi - self.lo
    }

    /// Local vertex count: owned plus halo.
    pub fn local_n(&self) -> u32 {
        // lint: allow(L-CAST-TRUNC): CSR vertex ids are u32, so n() fits
        self.csr.n() as u32
    }

    /// Local edge count (every edge of every owned vertex).
    pub fn local_m(&self) -> u64 {
        self.csr.m() as u64
    }

    /// Maps a global vertex to its local id, if present in this shard.
    pub fn to_local(&self, global: u32) -> Option<u32> {
        if (self.lo..self.hi).contains(&global) {
            return Some(global - self.lo);
        }
        self.halo
            .binary_search(&global)
            .ok()
            .map(|i| self.own_len() + i as u32)
    }

    /// Maps a local id back to its global vertex.
    pub fn to_global(&self, local: u32) -> u32 {
        if local < self.own_len() {
            self.lo + local
        } else {
            self.halo[(local - self.own_len()) as usize]
        }
    }

    /// Whether a *local* id is a halo copy (vs an owned vertex).
    pub fn is_halo_local(&self, local: u32) -> bool {
        local >= self.own_len()
    }

    /// Content digest of the local topology (per-shard checkpoint /
    /// residency guard, same construction as [`Csr::digest`]).
    pub fn digest(&self) -> u64 {
        self.csr.digest()
    }
}

/// A complete vertex-range partition of one global graph.
#[derive(Debug, Clone)]
pub struct GraphPartition {
    /// Global vertex count.
    pub n: u32,
    /// Global edge count.
    pub m: u64,
    /// Range boundaries: shard `d` owns `cuts[d]..cuts[d+1]`
    /// (`cuts.len() == shards.len() + 1`, `cuts[0] == 0`, last is `n`).
    pub cuts: Vec<u32>,
    pub shards: Vec<ShardSpec>,
}

impl GraphPartition {
    /// Partitions `csr` into `devices` contiguous vertex ranges balanced by
    /// edge count. Deterministic; shards may own an empty range when the
    /// graph has fewer populated rows than devices.
    pub fn vertex_range(csr: &Csr, devices: u32) -> GraphPartition {
        assert!(devices >= 1, "need at least one shard");
        // lint: allow(L-CAST-TRUNC): CSR vertex ids are u32, so n() fits
        let n = csr.n() as u32;
        let m = csr.m() as u64;
        let mut cuts = Vec::with_capacity(devices as usize + 1);
        cuts.push(0u32);
        for d in 1..devices {
            // Smallest v with prefix_edges(v) >= d/devices of all edges;
            // row_offsets is the prefix-edge array, so this is one
            // partition-point scan. Monotone in d, so cuts are sorted.
            let target = m * d as u64 / devices as u64;
            let v = csr
                .row_offsets
                .partition_point(|&off| (off as u64) < target) as u32;
            // lint: allow(L-PANIC): cuts starts with a pushed 0, so last() exists
            cuts.push(v.clamp(*cuts.last().expect("non-empty"), n));
        }
        cuts.push(n);
        let mut local_of = vec![UNMARKED; n as usize];
        let shards = (0..devices as usize)
            .map(|d| build_shard(csr, d as u32, cuts[d], cuts[d + 1], &mut local_of))
            .collect();
        GraphPartition { n, m, cuts, shards }
    }

    /// The device slot owning global vertex `v`.
    pub fn owner(&self, v: u32) -> u32 {
        debug_assert!(v < self.n);
        // First cut strictly greater than v, minus one: ranges are
        // contiguous and cover 0..n.
        (self.cuts.partition_point(|&c| c <= v) - 1) as u32
    }

    pub fn devices(&self) -> u32 {
        // lint: allow(L-CAST-TRUNC): shard count is the devices argument, a u32
        self.shards.len() as u32
    }

    /// Total halo slots over all shards — the replication the partition
    /// introduces (and the admission headroom it requires).
    pub fn halo_total(&self) -> u64 {
        self.shards.iter().map(|s| s.halo.len() as u64).sum()
    }
}

/// A [`build_shard`] map slot that holds no halo vertex.
const UNMARKED: u32 = u32::MAX;

/// Builds shard `device` over `lo..hi`. `local_of` is an `n`-word scratch
/// map, all [`UNMARKED`] on entry and on return: while the shard is built,
/// each halo vertex's slot holds its local id.
fn build_shard(csr: &Csr, device: u32, lo: u32, hi: u32, local_of: &mut [u32]) -> ShardSpec {
    let own = hi - lo;
    let e_lo = csr.row_offsets[lo as usize] as usize;
    let e_hi = csr.row_offsets[hi as usize] as usize;
    let owned_edges = &csr.col_idx[e_lo..e_hi];

    // Halo: every distinct out-of-range destination of an owned edge.
    // Mark them, then number them in ascending global order (local id
    // `own + rank`), which is also the order `halo` lists them in.
    for &dst in owned_edges {
        if !(lo..hi).contains(&dst) {
            local_of[dst as usize] = 0;
        }
    }
    let mut halo = Vec::new();
    for (v, slot) in (0u32..).zip(local_of.iter_mut()) {
        if *slot != UNMARKED {
            // lint: allow(L-CAST-TRUNC): the halo is a subset of the u32 vertex ids
            *slot = own + halo.len() as u32;
            halo.push(v);
        }
    }

    // Owned rows keep their offsets (shifted to start at 0); targets map
    // to local ids. Halo rows have zero out-degree ("it naturally filters
    // active vertices with outdegree equals to 0" — the UDC kernel skips
    // them for free).
    let base = csr.row_offsets[lo as usize];
    let mut row_offsets: Vec<u32> = csr.row_offsets[lo as usize..=hi as usize]
        .iter()
        .map(|&off| off - base)
        .collect();
    // lint: allow(L-CAST-TRUNC): per-shard edge counts fit the u32 CSR offset space
    row_offsets.resize(row_offsets.len() + halo.len(), owned_edges.len() as u32);
    let col_idx = owned_edges
        .iter()
        .map(|&dst| {
            if (lo..hi).contains(&dst) {
                dst - lo
            } else {
                local_of[dst as usize]
            }
        })
        .collect();
    for &h in &halo {
        local_of[h as usize] = UNMARKED;
    }
    let weights = csr.weights.as_ref().map(|w| w[e_lo..e_hi].to_vec());
    let local = Csr {
        row_offsets,
        col_idx,
        weights,
    };
    debug_assert!(local.validate().is_ok(), "local shard CSR is well-formed");
    ShardSpec {
        device,
        lo,
        hi,
        csr: local,
        halo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0→{1,2,3}, 1→3, 2→3, 3→0 (a cycle through a diamond).
        Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 0)])
    }

    /// The halo by sort and dedup and each cross edge by binary search:
    /// the definition the map-based `build_shard` keeps.
    fn build_shard_by_search(csr: &Csr, device: u32, lo: u32, hi: u32) -> ShardSpec {
        let own = hi - lo;
        let (e_lo, e_hi) = (
            csr.row_offsets[lo as usize] as usize,
            csr.row_offsets[hi as usize] as usize,
        );
        let mut halo: Vec<u32> = csr.col_idx[e_lo..e_hi]
            .iter()
            .copied()
            .filter(|&dst| !(lo..hi).contains(&dst))
            .collect();
        halo.sort_unstable();
        halo.dedup();
        let mut row_offsets = vec![0u32];
        let mut col_idx = Vec::new();
        for v in lo..hi {
            for &dst in csr.neighbors(v) {
                col_idx.push(if (lo..hi).contains(&dst) {
                    dst - lo
                } else {
                    own + halo.binary_search(&dst).unwrap() as u32
                });
            }
            row_offsets.push(col_idx.len() as u32);
        }
        row_offsets.resize(row_offsets.len() + halo.len(), col_idx.len() as u32);
        ShardSpec {
            device,
            lo,
            hi,
            csr: Csr {
                row_offsets,
                col_idx,
                weights: csr.weights.as_ref().map(|w| w[e_lo..e_hi].to_vec()),
            },
            halo,
        }
    }

    #[test]
    fn map_based_shards_match_the_binary_search_build() {
        let g = eta_graph::generate::rmat(&eta_graph::generate::RmatConfig::paper(12, 60_000, 9));
        for (g, devices) in [
            (g.clone(), 2),
            (g.clone(), 3),
            (g.clone(), 4),
            (g.with_random_weights(3, 16), 2),
        ] {
            let p = GraphPartition::vertex_range(&g, devices);
            for (d, s) in p.shards.iter().enumerate() {
                let expect = build_shard_by_search(&g, d as u32, p.cuts[d], p.cuts[d + 1]);
                assert_eq!(s.halo, expect.halo, "halo of shard {d} of {devices}");
                assert_eq!(s.csr, expect.csr, "CSR of shard {d} of {devices}");
                assert!(!s.halo.is_empty() || devices == 1);
            }
        }
    }

    #[test]
    fn ranges_tile_the_vertex_space() {
        let g = diamond();
        for devices in 1..=6u32 {
            let p = GraphPartition::vertex_range(&g, devices);
            assert_eq!(p.shards.len(), devices as usize);
            assert_eq!(p.cuts[0], 0);
            assert_eq!(*p.cuts.last().unwrap(), g.n() as u32);
            assert!(p.cuts.windows(2).all(|w| w[0] <= w[1]));
            let owned: u32 = p.shards.iter().map(|s| s.own_len()).sum();
            assert_eq!(owned, g.n() as u32);
            let edges: u64 = p.shards.iter().map(|s| s.local_m()).sum();
            assert_eq!(edges, g.m() as u64, "every edge lands in one shard");
            for v in 0..g.n() as u32 {
                let d = p.owner(v);
                assert!((p.shards[d as usize].lo..p.shards[d as usize].hi).contains(&v));
            }
        }
    }

    #[test]
    fn halo_is_exactly_the_cross_range_destinations() {
        let g = diamond();
        let p = GraphPartition::vertex_range(&g, 2);
        for s in &p.shards {
            let mut expect: Vec<u32> = (s.lo..s.hi)
                .flat_map(|v| g.neighbors(v).iter().copied())
                .filter(|&d| !(s.lo..s.hi).contains(&d))
                .collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(s.halo, expect, "shard {}", s.device);
            // Halo rows have out-degree 0.
            for h in 0..s.halo.len() as u32 {
                assert_eq!(s.csr.degree(s.own_len() + h), 0);
            }
        }
    }

    #[test]
    fn local_global_maps_are_inverse() {
        let g = diamond();
        let p = GraphPartition::vertex_range(&g, 3);
        for s in &p.shards {
            for l in 0..s.local_n() {
                assert_eq!(s.to_local(s.to_global(l)), Some(l));
            }
            // A vertex on no local row maps to nothing.
            for v in 0..g.n() as u32 {
                if !(s.lo..s.hi).contains(&v) && s.halo.binary_search(&v).is_err() {
                    assert_eq!(s.to_local(v), None);
                }
            }
        }
    }

    #[test]
    fn local_edges_mirror_global_edges() {
        let g = diamond();
        let p = GraphPartition::vertex_range(&g, 2);
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for s in &p.shards {
            for v in 0..s.own_len() {
                for &dst in s.csr.neighbors(v) {
                    seen.push((s.to_global(v), s.to_global(dst)));
                }
            }
        }
        seen.sort_unstable();
        let mut expect = g.edge_tuples();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn weighted_partitions_keep_per_edge_weights() {
        let g = diamond().with_random_weights(7, 16);
        let p = GraphPartition::vertex_range(&g, 2);
        for s in &p.shards {
            assert!(s.csr.is_weighted());
            for v in 0..s.own_len() {
                let global = s.to_global(v);
                assert_eq!(s.csr.edge_weights(v), g.edge_weights(global));
            }
        }
    }

    #[test]
    fn more_devices_than_vertices_yields_empty_tail_shards() {
        let g = Csr::from_edges(2, &[(0, 1)]);
        let p = GraphPartition::vertex_range(&g, 4);
        assert_eq!(p.shards.len(), 4);
        let owned: u32 = p.shards.iter().map(|s| s.own_len()).sum();
        assert_eq!(owned, 2);
        assert!(p.shards.iter().any(|s| s.own_len() == 0));
        // Empty shards are inert: no edges, no halo.
        for s in p.shards.iter().filter(|s| s.own_len() == 0) {
            assert_eq!(s.local_m(), 0);
            assert!(s.halo.is_empty());
        }
    }

    #[test]
    fn edge_balance_beats_naive_vertex_split_on_skew() {
        // One hub with 60 edges then 60 leaves with one edge each: a naive
        // n/2 vertex split puts ~everything on shard 0; the edge-balanced
        // cut moves the leaf rows over.
        let mut edges: Vec<(u32, u32)> = (1..=60).map(|i| (0, i)).collect();
        edges.extend((1..61).map(|i| (i, 0)));
        let g = Csr::from_edges(61, &edges);
        let p = GraphPartition::vertex_range(&g, 2);
        let (a, b) = (p.shards[0].local_m(), p.shards[1].local_m());
        let skew = a.max(b) as f64 / (a + b) as f64;
        assert!(skew < 0.7, "edge split {a}/{b} too skewed");
    }
}
