//! Unified Degree Cut (§III).
//!
//! UDC maps an active vertex `v` with edge set `E_v` to a set of *shadow
//! vertices* — same vertex ID, disjoint slices of `E_v`, each of out-degree
//! ≤ K (Definition 3). Unlike Tigr's VST it is **not** a preprocessing step:
//! the [`ActToVirtKernel`] runs on the GPU each iteration, reading the
//! active set and appending `(ID, Start, End)` tuples directly from the
//! unmodified CSR offsets — no raw-data rewrite, no extra topology copy.
//!
//! Following §V-B, shadow vertices are split into **two** virtual active
//! sets: one for shadows with degree exactly `K` (the SMP kernel prefetches
//! a uniform, fully unrollable K neighbors) and one for the `< K` tails.

use crate::active_set::{DeviceQueue, VirtualQueue};
use eta_mem::system::DSlice;
use eta_sim::{active_lanes, lane_degrees, lanes_where, row_index, Kernel, WarpCtx, WARP_SIZE};

/// Host-side UDC of a single vertex: the `(start, end)` edge slices of its
/// shadow vertices. Pure function used by tests and Table I accounting.
pub fn shadow_slices(start: u32, end: u32, k: u32) -> Vec<(u32, u32)> {
    assert!(k >= 1);
    let mut out = Vec::new();
    let mut s = start;
    while s < end {
        let e = (s + k).min(end);
        out.push((s, e));
        s = e;
    }
    out
}

/// Number of shadow vertices a degree-`deg` vertex produces.
fn shadow_count(deg: u32, k: u32) -> u32 {
    deg.div_ceil(k)
}

/// Total shadow vertices of a whole graph (the paper's `|N|`).
pub fn shadow_count_graph(g: &eta_graph::Csr, k: u32) -> u64 {
    (0..g.n() as u32)
        .map(|v| shadow_count(g.degree(v), k) as u64)
        .sum()
}

/// The fully materialized shadow table of the **out-of-core** UDC variant
/// (§III-A): every vertex's shadow tuples, precomputed in main memory.
///
/// The paper rejects this approach — it "will consume extra memory"
/// (`3|N| + |V|+1` words) and has to be transferred to the device — but we
/// implement it so the trade-off can be measured (see the
/// `udc_in_core_vs_out_of_core` bench and EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct ShadowTable {
    /// Original vertex of each shadow (|N| entries).
    pub ids: Vec<u32>,
    /// First edge index of each shadow.
    pub starts: Vec<u32>,
    /// One-past-last edge index of each shadow.
    pub ends: Vec<u32>,
    /// `vertex_range[v]..vertex_range[v+1]` indexes the shadow arrays
    /// (|V|+1 entries).
    pub vertex_range: Vec<u32>,
}

impl ShadowTable {
    pub fn build(g: &eta_graph::Csr, k: u32) -> ShadowTable {
        let n = g.n();
        let mut ids = Vec::new();
        let mut starts = Vec::new();
        let mut ends = Vec::new();
        let mut vertex_range = Vec::with_capacity(n + 1);
        for v in 0..n as u32 {
            vertex_range.push(ids.len() as u32);
            let lo = g.row_offsets[v as usize];
            let hi = g.row_offsets[v as usize + 1];
            for (s, e) in shadow_slices(lo, hi, k) {
                ids.push(v);
                starts.push(s);
                ends.push(e);
            }
        }
        vertex_range.push(ids.len() as u32);
        ShadowTable {
            ids,
            starts,
            ends,
            vertex_range,
        }
    }

    /// Shadow count |N|.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Device words this table occupies/transfers: `3|N| + |V| + 1`.
    pub fn words(&self) -> u64 {
        (3 * self.ids.len() + self.vertex_range.len()) as u64
    }
}

/// Out-of-core expansion: copy each active vertex's **precomputed** shadow
/// tuples from the device-resident [`ShadowTable`] into the virtual active
/// set. Compared to [`ActToVirtKernel`] it trades the on-the-fly division
/// for three extra loads per shadow plus the table's memory and transfer.
pub struct ExpandFromTableKernel {
    pub act_items: DSlice,
    pub act_len: u32,
    /// Device copies of the shadow table arrays.
    pub table_ids: DSlice,
    pub table_starts: DSlice,
    pub table_ends: DSlice,
    pub vertex_range: DSlice,
    /// Single output queue (mixed degrees ≤ K).
    pub out: VirtualQueue,
}

impl Kernel for ExpandFromTableKernel {
    fn name(&self) -> &'static str {
        "expand_from_table"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.act_len);
        if mask == 0 {
            return;
        }
        let v = w.load(self.act_items, &tids, mask);
        let (lo, hi) = w.load_bounds(self.vertex_range, &v, mask);
        w.alu(1);
        let (count, _) = lane_degrees(&lo, &hi, mask);
        w.append(self.out.count, &count, |w, row, pos, p| {
            let src = row_index(&lo, p, row);
            let ids = w.load(self.table_ids, &src, row);
            let starts = w.load(self.table_starts, &src, row);
            let ends = w.load(self.table_ends, &src, row);
            self.out.store(w, pos, &ids, &starts, &ends, row);
        });
    }
}

/// The on-the-fly `actSet2virtActSet` kernel of Procedure 1.
///
/// One thread per active vertex: load the vertex's CSR offsets, cut its
/// edge range into ≤K slices, and append the resulting shadow tuples to the
/// uniform-K queue (`full`) or the tail queue (`partial`).
pub struct ActToVirtKernel {
    pub act_items: DSlice,
    pub act_len: u32,
    pub row_offsets: DSlice,
    pub full: VirtualQueue,
    pub partial: VirtualQueue,
    pub k: u32,
}

impl ActToVirtKernel {
    pub fn new(
        act: &DeviceQueue,
        act_len: u32,
        row_offsets: DSlice,
        full: &VirtualQueue,
        partial: &VirtualQueue,
        k: u32,
    ) -> Self {
        ActToVirtKernel {
            act_items: act.items,
            act_len,
            row_offsets,
            full: *full,
            partial: *partial,
            k,
        }
    }
}

impl Kernel for ActToVirtKernel {
    fn name(&self) -> &'static str {
        "act_to_virt"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.act_len);
        if mask == 0 {
            return;
        }
        let v = w.load(self.act_items, &tids, mask);
        let (start, end) = w.load_bounds(self.row_offsets, &v, mask);
        w.alu(2); // degree math
        let (deg, _) = lane_degrees(&start, &end, mask);
        let mut full_parts = [0u32; WARP_SIZE];
        for lane in active_lanes(mask) {
            full_parts[lane] = deg[lane] / self.k;
        }

        // Reserve slots in the uniform-K queue and emit the full slices.
        w.append(self.full.count, &full_parts, |w, row, pos, p| {
            let s = row_index(&start, p * self.k, row);
            let e = row_index(&s, self.k, row);
            w.alu(1);
            self.full.store(w, pos, &v, &s, &e, row);
        });

        // Tail slices (< K edges) go to the partial queue, one per lane.
        let tails = lanes_where(mask, |lane| deg[lane] % self.k > 0);
        if tails != 0 {
            let pos = w.atomic_add(self.partial.count, &[0; WARP_SIZE], &[1; WARP_SIZE], tails);
            let mut s = [0u32; WARP_SIZE];
            for lane in active_lanes(tails) {
                s[lane] = start[lane] + full_parts[lane] * self.k;
            }
            w.alu(1);
            self.partial.store(w, &pos, &v, &s, &end, tails);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_graph::Csr;
    use eta_sim::{Device, GpuConfig, LaunchConfig};

    #[test]
    fn shadow_slices_partition_the_range() {
        assert_eq!(shadow_slices(10, 10, 4), vec![]);
        assert_eq!(shadow_slices(0, 4, 4), vec![(0, 4)]);
        assert_eq!(shadow_slices(0, 9, 4), vec![(0, 4), (4, 8), (8, 9)]);
        // Disjoint, covering, bounded (Definition 3).
        let slices = shadow_slices(100, 131, 7);
        let mut cursor = 100;
        for &(s, e) in &slices {
            assert_eq!(s, cursor);
            assert!(e - s <= 7);
            cursor = e;
        }
        assert_eq!(cursor, 131);
    }

    #[test]
    fn shadow_count_matches_slices() {
        for deg in 0..50u32 {
            for k in 1..10u32 {
                assert_eq!(shadow_count(deg, k), shadow_slices(0, deg, k).len() as u32);
            }
        }
    }

    #[test]
    fn kernel_emits_exact_shadow_set() {
        let g = rmat(&RmatConfig::paper(10, 12_000, 5));
        let k = 8u32;
        let mut dev = Device::new(GpuConfig::default_preset());

        let ro = dev.mem.alloc_explicit(g.row_offsets.len() as u64).unwrap();
        dev.mem.host_write(ro, 0, &g.row_offsets);

        let n = g.n() as u32;
        let act = DeviceQueue::alloc(&mut dev, n).unwrap();
        let act_vertices: Vec<u32> = (0..n).collect();
        act.host_seed(&mut dev, &act_vertices);

        let cap = (g.m() as u32 / k + n + 1).max(16);
        let full = VirtualQueue::alloc(&mut dev, cap).unwrap();
        let partial = VirtualQueue::alloc(&mut dev, n).unwrap();

        let kern = ActToVirtKernel::new(&act, n, ro, &full, &partial, k);
        dev.launch(&kern, LaunchConfig::for_items(n, 256), 0);

        let (nf, _) = full.read_count(&mut dev, 0);
        let (np, _) = partial.read_count(&mut dev, 0);
        assert_eq!(
            nf as u64 + np as u64,
            shadow_count_graph(&g, k),
            "total shadows must match the host-side UDC"
        );

        // Collect and verify every tuple covers its vertex's edges exactly.
        let mut covered: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.n()];
        for (q, len) in [(&full, nf), (&partial, np)] {
            let ids = dev.mem.host_read(q.ids, 0, len as u64).to_vec();
            let ss = dev.mem.host_read(q.starts, 0, len as u64).to_vec();
            let es = dev.mem.host_read(q.ends, 0, len as u64).to_vec();
            for i in 0..len as usize {
                assert!(es[i] - ss[i] <= k, "degree bound violated");
                if q.ids.word_off == full.ids.word_off {
                    assert_eq!(es[i] - ss[i], k, "full queue must be uniform K");
                }
                covered[ids[i] as usize].push((ss[i], es[i]));
            }
        }
        for (v, slices) in covered.iter_mut().enumerate() {
            slices.sort_unstable();
            let mut cursor = g.row_offsets[v];
            for &(s, e) in slices.iter() {
                assert_eq!(s, cursor, "vertex {v}: slices must tile the range");
                cursor = e;
            }
            assert_eq!(cursor, g.row_offsets[v + 1]);
        }
    }

    #[test]
    fn zero_degree_vertices_emit_nothing() {
        // Vertex 1 has out-degree 0 — "it naturally filters active vertices
        // with outdegree equals to 0" (§IV-A).
        let g = Csr::from_edges(3, &[(0, 1), (2, 1)]);
        let mut dev = Device::new(GpuConfig::default_preset());
        let ro = dev.mem.alloc_explicit(4).unwrap();
        dev.mem.host_write(ro, 0, &g.row_offsets);
        let act = DeviceQueue::alloc(&mut dev, 3).unwrap();
        act.host_seed(&mut dev, &[1]);
        let full = VirtualQueue::alloc(&mut dev, 8).unwrap();
        let partial = VirtualQueue::alloc(&mut dev, 8).unwrap();
        let kern = ActToVirtKernel::new(&act, 1, ro, &full, &partial, 4);
        dev.launch(&kern, LaunchConfig::for_items(1, 256), 0);
        assert_eq!(full.read_count(&mut dev, 0).0, 0);
        assert_eq!(partial.read_count(&mut dev, 0).0, 0);
    }
}
