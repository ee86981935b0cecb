//! The traversal kernel (Procedure 1's `Kernel BFS()` generalized to the
//! three algorithms), with and without Shared Memory Prefetch.
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

use crate::active_set::{DeviceQueue, VirtualQueue};
use crate::config::Algorithm;
use eta_mem::system::DSlice;
use eta_sim::{active_lanes, Kernel, Lanes, WarpCtx, WARP_SIZE};

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
    pub threads_per_block: u32,
}

/// The lanes of row `j`: those with more than `j` neighbors left (an
/// inactive lane's degree is 0).
fn row_lanes(deg: &Lanes, j: u32) -> u32 {
    (0..WARP_SIZE).fold(0, |row, lane| row | u32::from(j < deg[lane]) << lane)
}

impl TraversalKernel {
    fn weighted(&self) -> bool {
        self.alg.needs_weights()
    }

    /// Relaxed label for a lane: BFS counts hops, SSSP sums weights, SSWP
    /// takes the bottleneck min.
    #[inline]
    fn relax_value(&self, my: u32, w: u32) -> u32 {
        match self.alg {
            Algorithm::Bfs => my.saturating_add(1),
            Algorithm::Sssp => my.saturating_add(w),
            Algorithm::Sswp => my.min(w),
            // Connected components: propagate the component's min label.
            Algorithm::Cc => my,
        }
    }

    /// Processes one batch of per-lane neighbors (and weights), relaxing
    /// labels and pushing improved vertices.
    fn relax_row(&self, w: &mut WarpCtx<'_>, dst: &Lanes, wt: &Lanes, my: &Lanes, row_mask: u32) {
        let mut new = [0u32; WARP_SIZE];
        for lane in active_lanes(row_mask) {
            new[lane] = self.relax_value(my[lane], wt[lane]);
        }
        w.alu(1);
        let old = if self.alg == Algorithm::Sswp {
            w.atomic_max(self.labels, dst, &new, row_mask)
        } else {
            w.atomic_min(self.labels, dst, &new, row_mask)
        };
        let mut improved = 0u32;
        for lane in active_lanes(row_mask) {
            let better = if self.alg == Algorithm::Sswp {
                new[lane] > old[lane]
            } else {
                new[lane] < old[lane]
            };
            improved |= u32::from(better) << lane;
        }
        if improved == 0 {
            return;
        }
        // Claim the per-iteration tag; only the first improver enqueues.
        let iters = [self.iter; WARP_SIZE];
        let old_tag = w.atomic_max(self.tags, dst, &iters, improved);
        let mut push = 0u32;
        for lane in active_lanes(improved) {
            push |= u32::from(old_tag[lane] < self.iter) << lane;
        }
        if push == 0 {
            return;
        }
        let pos = w.atomic_add(self.next.count, &[0; WARP_SIZE], &[1; WARP_SIZE], push);
        w.store(self.next.items, &pos, dst, push);
    }
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
        if !self.smp {
            return 0;
        }
        let per_thread = self.k as u64 * if self.weighted() { 2 } else { 1 };
        threads_per_block as u64 * per_thread
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

        let mut deg = [0u32; WARP_SIZE];
        let mut max_deg = 0u32;
        for lane in active_lanes(mask) {
            deg[lane] = end[lane] - start[lane];
            max_deg = max_deg.max(deg[lane]);
        }
        if max_deg == 0 {
            return;
        }

        if self.smp {
            // --- SMP: burst all neighbors (and weights) into shared memory.
            let tpb = self.threads_per_block;
            let per_thread = self.k;
            let mut slot_base = [0u32; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                let tid_in_block = tids[lane] % tpb;
                slot_base[lane] = tid_in_block * per_thread;
            }

            let rows = w.load_burst(self.col_idx, &start, &deg, mask);
            for j in 0..rows.rows() {
                let row_mask = row_lanes(&deg, j);
                let mut slots = [0u32; WARP_SIZE];
                for lane in active_lanes(row_mask) {
                    slots[lane] = slot_base[lane] + j;
                }
                let row = w.burst_row(rows, j);
                w.store_shared(&slots, &row, row_mask);
            }
            let weight_shared_off = tpb * per_thread;
            if let Some(ws) = self.weights {
                let wrows = w.load_burst(ws, &start, &deg, mask);
                for j in 0..wrows.rows() {
                    let row_mask = row_lanes(&deg, j);
                    let mut slots = [0u32; WARP_SIZE];
                    for lane in active_lanes(row_mask) {
                        slots[lane] = weight_shared_off + slot_base[lane] + j;
                    }
                    let row = w.burst_row(wrows, j);
                    w.store_shared(&slots, &row, row_mask);
                }
            }

            // --- process from shared memory.
            for j in 0..max_deg {
                let row_mask = row_lanes(&deg, j);
                let mut slots = [0u32; WARP_SIZE];
                for lane in active_lanes(row_mask) {
                    slots[lane] = slot_base[lane] + j;
                }
                if row_mask == 0 {
                    continue;
                }
                let dst = w.load_shared(&slots, row_mask);
                let wt = if self.weights.is_some() {
                    let mut wslots = slots;
                    for s in wslots.iter_mut() {
                        *s += weight_shared_off;
                    }
                    w.load_shared(&wslots, row_mask)
                } else {
                    [1; WARP_SIZE]
                };
                self.relax_row(w, &dst, &wt, &my, row_mask);
            }
        } else {
            // --- no SMP: one global load per neighbor step, the classic
            // "load and process neighbor vertices one by one" pattern.
            for j in 0..max_deg {
                let row_mask = row_lanes(&deg, j);
                let mut idx = [0u32; WARP_SIZE];
                for lane in active_lanes(row_mask) {
                    idx[lane] = start[lane] + j;
                }
                if row_mask == 0 {
                    continue;
                }
                let dst = w.load(self.col_idx, &idx, row_mask);
                let wt = match self.weights {
                    Some(ws) => w.load(ws, &idx, row_mask),
                    None => [1; WARP_SIZE],
                };
                self.relax_row(w, &dst, &wt, &my, row_mask);
            }
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
        let mut unvisited = 0u32;
        for lane in active_lanes(mask) {
            unvisited |= u32::from(my[lane] == u32::MAX) << lane;
        }
        if unvisited == 0 {
            return;
        }
        let lo = w.load(self.t_row_offsets, &tids, unvisited);
        let mut v1 = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            v1[lane] = tids[lane].wrapping_add(1);
        }
        let hi = w.load(self.t_row_offsets, &v1, unvisited);
        let mut deg = [0u32; WARP_SIZE];
        for lane in active_lanes(unvisited) {
            deg[lane] = hi[lane] - lo[lane];
        }

        let parent_level = self.iter - 1;
        let mut found = 0u32;
        let mut j = 0u32;
        loop {
            let row = row_lanes(&deg, j) & !found;
            let mut idx = [0u32; WARP_SIZE];
            for lane in active_lanes(row) {
                idx[lane] = lo[lane] + j;
            }
            if row == 0 {
                break; // every lane found a parent or exhausted its in-edges
            }
            let parent = w.load(self.t_col_idx, &idx, row);
            let pl = w.load(self.labels, &parent, row);
            w.alu(1);
            for lane in active_lanes(row) {
                found |= u32::from(pl[lane] == parent_level) << lane;
            }
            j += 1;
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
        let pos = w.atomic_add(self.next.count, &[0; WARP_SIZE], &[1; WARP_SIZE], found);
        w.store(self.next.items, &pos, &tids, found);
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
        dev.launch(&a2v, LaunchConfig::for_items(1, 256), 0);
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
                threads_per_block: 256,
            };
            dev.launch(&kern, LaunchConfig::for_items(len, 256), 0);
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
            threads_per_block: 256,
        };
        dev.launch(&kern, LaunchConfig::for_items(2, 256), 0);
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
            threads_per_block: 256,
        };
        dev.launch(&kern, LaunchConfig::for_items(1, 256), 0);
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
                threads_per_block: 256,
            }
            .shared_words_per_block(256)
        };
        assert_eq!(dummy(false, Algorithm::Bfs), 0);
        assert_eq!(dummy(true, Algorithm::Bfs), 256 * 16);
        assert_eq!(dummy(true, Algorithm::Sssp), 256 * 16 * 2);
    }
}
