//! The traversal kernels (Procedure 1's `Kernel BFS()` generalized to the
//! label algorithms, push with and without Shared Memory Prefetch, and the
//! pull BFS of the direction-optimizing extension), plus the warp-level
//! relax every push model shares.
//!
//! One thread processes one shadow vertex: load its `(ID, Start, End)`
//! tuple, load its source label, then relax each of its ≤K out-edges into
//! the destination labels with an atomic min (max for SSWP). Destinations
//! whose label improves are appended — once per iteration, deduplicated with
//! an iteration-tag array — to the next active set.
//!
//! With SMP enabled (§V-B) the kernel first *bursts* all K neighbor IDs
//! (and weights, when the algorithm needs them) into shared memory with
//! unrolled back-to-back loads, then processes them from shared memory.
//! Because the burst issues its loads consecutively, sectors holding
//! adjacent neighbor IDs are reused before the interleaved traffic of other
//! warps can evict them — fewer global transactions, higher cache hit rate,
//! better ILP (the paper's Fig. 7). The uniform-K queue even skips the
//! degree check: every lane loads exactly K values, which is what lets the
//! compiler (here: the code) fully unroll.
//!
//! The relax step every execution model shares is written once here:
//! [`relax_lanes`] (the atomic relax and its improved mask, by
//! [`Algorithm::relax`] and [`Algorithm::improves`]), which EtaGraph's
//! kernel and the Gunrock, Tigr, CuSha and ChunkStream models all call;
//! [`claim_and_push`] (the iteration-tag claim and the push), which the
//! pushing models call; and [`load_edges`]. What each model keeps is its
//! own: work mapping, data layout, staging, and what an improvement
//! triggers (a tagged push, Gunrock's untagged first-improver push for BFS,
//! or CuSha's and ChunkStream's change flag). Like the lane idioms of
//! [`eta_sim::warp`], they charge no ALU work: each model charges its relax
//! arithmetic at its own call site.

use crate::active_set::{DeviceQueue, VirtualQueue};
use crate::config::{Algorithm, THREADS_PER_BLOCK};
use eta_mem::system::DSlice;
use eta_sim::{
    active_lanes, lane_degrees, lanes_where, row_index, row_lanes, Kernel, Lanes, WarpCtx,
    WARP_SIZE,
};

/// The warp-level relax: each `row` lane offers `alg.relax(label, weight)`
/// to `labels[dst]` with one atomic min (max for SSWP). Returns the old
/// labels and the lanes whose label improved. An empty `row` issues
/// nothing.
#[inline]
pub fn relax_lanes(
    w: &mut WarpCtx<'_>,
    alg: Algorithm,
    labels: DSlice,
    dst: &Lanes,
    label: &Lanes,
    weight: &Lanes,
    row: u32,
) -> (Lanes, u32) {
    if row == 0 {
        return ([0; WARP_SIZE], 0);
    }
    let mut new = [0u32; WARP_SIZE];
    for lane in active_lanes(row) {
        new[lane] = alg.relax(label[lane], weight[lane]);
    }
    let old = if alg == Algorithm::Sswp {
        w.atomic_max(labels, dst, &new, row)
    } else {
        w.atomic_min(labels, dst, &new, row)
    };
    let improved = lanes_where(row, |lane| alg.improves(new[lane], old[lane]));
    (old, improved)
}

/// Loads edge `idx`'s destinations from `col_idx`, then its weights (1 on
/// an unweighted graph): one or two warp loads over `row`.
#[inline]
pub fn load_edges(
    w: &mut WarpCtx<'_>,
    col_idx: DSlice,
    weights: Option<DSlice>,
    idx: &Lanes,
    row: u32,
) -> (Lanes, Lanes) {
    let dst = w.load(col_idx, idx, row);
    let wt = match weights {
        Some(ws) => w.load(ws, idx, row),
        None => [1; WARP_SIZE],
    };
    (dst, wt)
}

/// Pushes each `improved` lane's destination onto `next` at most once per
/// iteration: an atomic max of `iter` into `tags[dst]` claims the vertex,
/// and only the lanes that saw an older tag push it. An empty `improved`
/// issues nothing.
#[inline]
pub fn claim_and_push(
    w: &mut WarpCtx<'_>,
    tags: DSlice,
    next: &DeviceQueue,
    dst: &Lanes,
    improved: u32,
    iter: u32,
) {
    if improved != 0 {
        let old_tag = w.atomic_max(tags, dst, &[iter; WARP_SIZE], improved);
        next.push(w, dst, lanes_where(improved, |lane| old_tag[lane] < iter));
    }
}

/// Shared words one block of an SMP launch stages: each thread's `k`
/// neighbour slots, plus `k` weight slots when `weighted` (SSSP, SSWP).
/// None with SMP off. A launch fits only while `4 ×` this is at most
/// [`eta_sim::GpuConfig::shared_mem_per_sm`].
pub fn smp_shared_words(smp: bool, k: u32, threads_per_block: u32, weighted: bool) -> u64 {
    if !smp {
        return 0;
    }
    threads_per_block as u64 * k as u64 * if weighted { 2 } else { 1 }
}

/// Parameters of one traversal launch over one virtual active set.
pub struct TraversalKernel {
    pub alg: Algorithm,
    /// Shared Memory Prefetch on/off.
    pub smp: bool,
    /// Degree limit; shadow degrees are ≤ k (== k for the uniform queue).
    pub k: u32,
    /// The virtual active set being processed.
    pub queue: VirtualQueue,
    /// Shadow tuples to process (host-read count).
    pub len: u32,
    pub col_idx: DSlice,
    pub weights: Option<DSlice>,
    pub labels: DSlice,
    /// Iteration tags for O(1) deduplication of active-set appends.
    pub tags: DSlice,
    /// Next iteration's active set.
    pub next: DeviceQueue,
    /// Current iteration number (tags smaller than this are stale).
    pub iter: u32,
}

impl Kernel for TraversalKernel {
    fn name(&self) -> &'static str {
        match self.alg {
            Algorithm::Bfs => "traverse_bfs",
            Algorithm::Sssp => "traverse_sssp",
            Algorithm::Sswp => "traverse_sswp",
            Algorithm::Cc => "traverse_cc",
        }
    }

    fn shared_words_per_block(&self, threads_per_block: u32) -> u64 {
        smp_shared_words(
            self.smp,
            self.k,
            threads_per_block,
            self.alg.needs_weights(),
        )
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.len);
        if mask == 0 {
            return;
        }
        let vid = w.load(self.queue.ids, &tids, mask);
        let start = w.load(self.queue.starts, &tids, mask);
        let end = w.load(self.queue.ends, &tids, mask);
        let my = w.load(self.labels, &vid, mask);
        w.alu(1);
        let (deg, max_deg) = lane_degrees(&start, &end, mask);
        if max_deg == 0 {
            return;
        }

        // SMP: each thread's K neighbor slots, then its K weight slots
        // after the whole block's neighbors.
        let (mut slot, mut weight_slot) = ([0; WARP_SIZE], [0; WARP_SIZE]);
        if self.smp {
            // --- burst all neighbors (and weights) into shared memory.
            slot = tids.map(|tid| tid % THREADS_PER_BLOCK * self.k);
            w.stage_burst(self.col_idx, &start, &deg, mask, &slot);
            if let Some(ws) = self.weights {
                weight_slot = slot.map(|s| THREADS_PER_BLOCK * self.k + s);
                w.stage_burst(ws, &start, &deg, mask, &weight_slot);
            }
        }
        for j in 0..max_deg {
            let row = row_lanes(&deg, j);
            let (dst, wt) = if self.smp {
                // --- process from shared memory.
                let dst = w.load_shared(&row_index(&slot, j, row), row);
                let wt = match self.weights {
                    Some(_) => w.load_shared(&row_index(&weight_slot, j, row), row),
                    None => [1; WARP_SIZE],
                };
                (dst, wt)
            } else {
                // --- no SMP: one global load per neighbor step, the classic
                // "load and process neighbor vertices one by one" pattern.
                let idx = row_index(&start, j, row);
                load_edges(w, self.col_idx, self.weights, &idx, row)
            };
            w.alu(1);
            let (_, improved) = relax_lanes(w, self.alg, self.labels, &dst, &my, &wt, row);
            claim_and_push(w, self.tags, &self.next, &dst, improved, self.iter);
        }
    }
}

/// Pull-based BFS iteration (the direction-optimizing extension).
///
/// One thread per **unvisited** vertex scans its in-neighbors (transposed
/// CSR) and stops at the first parent labelled `iter - 1`. When the
/// frontier covers a large share of the graph this touches far fewer edges
/// than pushing from every frontier vertex (Beamer et al.'s
/// direction-optimizing BFS, which the paper cites as algorithm-specific
/// related work). No atomics on labels: each vertex is written only by its
/// own thread.
pub struct PullBfsKernel {
    pub n: u32,
    /// Transposed row offsets (in-edge index).
    pub t_row_offsets: DSlice,
    /// In-neighbor array.
    pub t_col_idx: DSlice,
    pub labels: DSlice,
    pub next: DeviceQueue,
    pub iter: u32,
}

impl Kernel for PullBfsKernel {
    fn name(&self) -> &'static str {
        "bfs_pull"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        if mask == 0 {
            return;
        }
        let my = w.load(self.labels, &tids, mask);
        w.alu(1);
        let unvisited = lanes_where(mask, |lane| my[lane] == u32::MAX);
        if unvisited == 0 {
            return;
        }
        let (lo, hi) = w.load_bounds(self.t_row_offsets, &tids, unvisited);
        let (deg, _) = lane_degrees(&lo, &hi, unvisited);

        let parent_level = self.iter - 1;
        let mut found = 0u32;
        for j in 0.. {
            let row = row_lanes(&deg, j) & !found;
            if row == 0 {
                break; // every lane found a parent or exhausted its in-edges
            }
            let parent = w.load(self.t_col_idx, &row_index(&lo, j, row), row);
            let pl = w.load(self.labels, &parent, row);
            w.alu(1);
            found |= lanes_where(row, |lane| pl[lane] == parent_level);
        }
        if found == 0 {
            return;
        }
        let levels = [self.iter; WARP_SIZE];
        // Other warps of this launch concurrently read `labels` looking for
        // parents, so the update must be atomic to be race-free. min is the
        // identity store here: a found lane's label is still u32::MAX, and
        // no other writer touches it this iteration (tids are disjoint).
        w.atomic_min(self.labels, &tids, &levels, found);
        self.next.push(w, &tids, found);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udc::ActToVirtKernel;
    use eta_graph::Csr;
    use eta_sim::{Device, GpuConfig, LaunchConfig};

    /// Runs one full manual iteration on a tiny graph and checks labels.
    fn run_one_iteration(smp: bool) {
        let g = Csr::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4)]);
        let mut dev = Device::new(GpuConfig::default_preset());
        let ro = dev.mem.alloc_explicit(g.row_offsets.len() as u64).unwrap();
        let ci = dev.mem.alloc_explicit(g.col_idx.len() as u64).unwrap();
        dev.mem.host_write(ro, 0, &g.row_offsets);
        dev.mem.host_write(ci, 0, &g.col_idx);
        let labels = dev.mem.alloc_explicit(5).unwrap();
        dev.mem.host_fill(labels, u32::MAX);
        dev.mem.host_write(labels, 0, &[0]);
        let tags = dev.mem.alloc_explicit(5).unwrap();
        dev.mem.host_fill(tags, 0);

        let act = DeviceQueue::alloc(&mut dev, 5).unwrap();
        act.host_seed(&mut dev, &[0]);
        let next = DeviceQueue::alloc(&mut dev, 5).unwrap();
        next.host_seed(&mut dev, &[]);
        let full = VirtualQueue::alloc(&mut dev, 8).unwrap();
        let partial = VirtualQueue::alloc(&mut dev, 8).unwrap();

        let k = 2u32;
        let a2v = ActToVirtKernel::new(&act, 1, ro, &full, &partial, k);
        dev.launch(&a2v, LaunchConfig::for_items(1, THREADS_PER_BLOCK), 0);
        let (nf, _) = full.read_count(&mut dev, 0);
        let (np, _) = partial.read_count(&mut dev, 0);
        assert_eq!((nf, np), (1, 1), "degree 3 with k=2 → one full, one tail");

        for (q, len) in [(full, nf), (partial, np)] {
            let kern = TraversalKernel {
                alg: Algorithm::Bfs,
                smp,
                k,
                queue: q,
                len,
                col_idx: ci,
                weights: None,
                labels,
                tags,
                next,
                iter: 1,
            };
            dev.launch(&kern, LaunchConfig::for_items(len, THREADS_PER_BLOCK), 0);
        }

        assert_eq!(dev.mem.host_read(labels, 0, 5), &[0, 1, 1, 1, u32::MAX]);
        let (next_n, _) = next.read_count(&mut dev, 0);
        assert_eq!(next_n, 3);
        let mut pushed = dev.mem.host_read(next.items, 0, 3).to_vec();
        pushed.sort_unstable();
        assert_eq!(pushed, vec![1, 2, 3]);
    }

    #[test]
    fn one_bfs_iteration_without_smp() {
        run_one_iteration(false);
    }

    #[test]
    fn one_bfs_iteration_with_smp() {
        run_one_iteration(true);
    }

    #[test]
    fn duplicate_pushes_are_deduplicated() {
        // Two active vertices both point at vertex 3; it must be enqueued once.
        let g = Csr::from_edges(4, &[(0, 3), (1, 3)]);
        let mut dev = Device::new(GpuConfig::default_preset());
        let ci = dev.mem.alloc_explicit(g.col_idx.len() as u64).unwrap();
        dev.mem.host_write(ci, 0, &g.col_idx);
        let labels = dev.mem.alloc_explicit(4).unwrap();
        dev.mem.host_fill(labels, u32::MAX);
        dev.mem.host_write(labels, 0, &[0, 0]);
        let tags = dev.mem.alloc_explicit(4).unwrap();
        dev.mem.host_fill(tags, 0);
        let next = DeviceQueue::alloc(&mut dev, 4).unwrap();
        next.host_seed(&mut dev, &[]);

        // Hand-build the virtual queue: shadows of vertices 0 and 1.
        let q = VirtualQueue::alloc(&mut dev, 4).unwrap();
        dev.mem.host_write(q.ids, 0, &[0, 1]);
        dev.mem.host_write(q.starts, 0, &[0, 1]);
        dev.mem.host_write(q.ends, 0, &[1, 2]);

        let kern = TraversalKernel {
            alg: Algorithm::Bfs,
            smp: false,
            k: 4,
            queue: q,
            len: 2,
            col_idx: ci,
            weights: None,
            labels,
            tags,
            next,
            iter: 1,
        };
        dev.launch(&kern, LaunchConfig::for_items(2, THREADS_PER_BLOCK), 0);
        let (n, _) = next.read_count(&mut dev, 0);
        assert_eq!(n, 1, "vertex 3 must be enqueued exactly once");
        assert_eq!(dev.mem.host_read(next.items, 0, 1), &[3]);
    }

    #[test]
    fn sswp_relaxes_with_max() {
        let g = Csr::from_weighted_edges(3, &[(0, 1, 7), (0, 2, 3)]);
        let mut dev = Device::new(GpuConfig::default_preset());
        let ci = dev.mem.alloc_explicit(2).unwrap();
        dev.mem.host_write(ci, 0, &g.col_idx);
        let ws = dev.mem.alloc_explicit(2).unwrap();
        dev.mem.host_write(ws, 0, g.weights.as_ref().unwrap());
        let labels = dev.mem.alloc_explicit(3).unwrap();
        dev.mem.host_fill(labels, 0);
        dev.mem.host_write(labels, 0, &[u32::MAX]);
        let tags = dev.mem.alloc_explicit(3).unwrap();
        dev.mem.host_fill(tags, 0);
        let next = DeviceQueue::alloc(&mut dev, 3).unwrap();
        next.host_seed(&mut dev, &[]);
        let q = VirtualQueue::alloc(&mut dev, 2).unwrap();
        dev.mem.host_write(q.ids, 0, &[0]);
        dev.mem.host_write(q.starts, 0, &[0]);
        dev.mem.host_write(q.ends, 0, &[2]);

        let kern = TraversalKernel {
            alg: Algorithm::Sswp,
            smp: true,
            k: 4,
            queue: q,
            len: 1,
            col_idx: ci,
            weights: Some(ws),
            labels,
            tags,
            next,
            iter: 1,
        };
        dev.launch(&kern, LaunchConfig::for_items(1, THREADS_PER_BLOCK), 0);
        assert_eq!(dev.mem.host_read(labels, 0, 3), &[u32::MAX, 7, 3]);
    }

    #[test]
    fn smp_asks_for_shared_memory() {
        let dummy = |smp: bool, alg: Algorithm| {
            let mut dev = Device::new(GpuConfig::default_preset());
            let d = dev.mem.alloc_explicit(4).unwrap();
            let q = VirtualQueue::alloc(&mut dev, 1).unwrap();
            let next = DeviceQueue::alloc(&mut dev, 1).unwrap();
            TraversalKernel {
                alg,
                smp,
                k: 16,
                queue: q,
                len: 0,
                col_idx: d,
                weights: None,
                labels: d,
                tags: d,
                next,
                iter: 1,
            }
            .shared_words_per_block(THREADS_PER_BLOCK)
        };
        assert_eq!(dummy(false, Algorithm::Bfs), 0);
        assert_eq!(dummy(true, Algorithm::Bfs), 256 * 16);
        assert_eq!(dummy(true, Algorithm::Sssp), 256 * 16 * 2);
    }
}
