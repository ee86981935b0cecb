//! Gunrock-like framework: frontier advance + filter with load-balanced
//! workload mapping.
//!
//! Gunrock's data-centric abstraction runs each iteration as an **advance**
//! (expand the frontier's edges, relax labels, emit candidate vertices) and
//! a **filter** (validate and compact candidates into the next frontier).
//! Workload mapping follows the per-thread / warp-cooperative split: low
//! out-degree vertices are handled one per thread (divergent but cheap),
//! high out-degree vertices are processed cooperatively by a whole warp
//! with coalesced edge loads.
//!
//! Cost profile relative to EtaGraph, as the paper observes:
//!
//! * everything is explicitly allocated and copied upfront — including
//!   Gunrock's generously sized work buffers (an `|E|/2`-word
//!   load-balancing scan array plus frontier queues), which is why Gunrock
//!   is the second framework to go O.O.M in Table III;
//! * the two-kernel (advance+filter) structure touches frontier data twice
//!   per iteration, and SSSP adds a third (near/far bucketing) pass —
//!   matching Gunrock's large SSSP gap in Table III;
//! * no shared-memory staging of neighbor lists.

use crate::framework::{check_supported, init_labels, Framework, FrameworkError};
use eta_graph::Csr;
use eta_mem::system::DSlice;
use eta_sim::{Device, Kernel, WarpCtx, WARP_SIZE};
use etagraph::active_set::DeviceQueue;
use etagraph::driver::Group;
use etagraph::result::{IterationStats, RunResult};
use etagraph::Algorithm;

/// Degree threshold between the per-thread and warp-cooperative mappings.
pub const WARP_DEGREE_THRESHOLD: u32 = 32;

pub struct GunrockLike {
    pub threads_per_block: u32,
}

impl Default for GunrockLike {
    fn default() -> Self {
        GunrockLike {
            threads_per_block: 256,
        }
    }
}

/// Load-balancing partition pass: gather frontier degrees into the scan
/// array (Gunrock sizes its advance grid from this scan).
struct LbPartitionKernel {
    frontier: DSlice,
    len: u32,
    row_offsets: DSlice,
    scan_temp: DSlice,
}

impl Kernel for LbPartitionKernel {
    fn name(&self) -> &'static str {
        "gunrock_lb_partition"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.len);
        if mask == 0 {
            return;
        }
        let v = w.load(self.frontier, &tids, mask);
        let lo = w.load(self.row_offsets, &v, mask);
        let mut v1 = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            v1[lane] = v[lane].wrapping_add(1);
        }
        let hi = w.load(self.row_offsets, &v1, mask);
        let mut deg = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            deg[lane] = hi[lane].wrapping_sub(lo[lane]);
        }
        w.alu(2); // degree + scan step
        w.store(self.scan_temp, &tids, &deg, mask);
    }
}

struct AdvanceKernel {
    alg: Algorithm,
    frontier: DSlice,
    len: u32,
    row_offsets: DSlice,
    col_idx: DSlice,
    weights: Option<DSlice>,
    labels: DSlice,
    tags: DSlice,
    raw_out: DeviceQueue,
    iter: u32,
}

impl AdvanceKernel {
    /// Relax `dst` lanes and append newly improved vertices to the raw
    /// (pre-filter) queue.
    fn relax(
        &self,
        w: &mut WarpCtx<'_>,
        dst: &[u32; WARP_SIZE],
        wt: &[u32; WARP_SIZE],
        my: &[u32; WARP_SIZE],
        row: u32,
    ) {
        let mut new = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if (row >> lane) & 1 == 1 {
                new[lane] = match self.alg {
                    Algorithm::Bfs => my[lane].saturating_add(1),
                    Algorithm::Sssp => my[lane].saturating_add(wt[lane]),
                    Algorithm::Sswp => my[lane].min(wt[lane]),
                    Algorithm::Cc => unreachable!("rejected at entry"),
                };
            }
        }
        w.alu(1);
        let old = if self.alg == Algorithm::Sswp {
            w.atomic_max(self.labels, dst, &new, row)
        } else {
            w.atomic_min(self.labels, dst, &new, row)
        };
        let mut improved = 0u32;
        for lane in 0..WARP_SIZE {
            if (row >> lane) & 1 == 1 {
                let better = if self.alg == Algorithm::Sswp {
                    new[lane] > old[lane]
                } else {
                    new[lane] < old[lane]
                };
                if better {
                    improved |= 1 << lane;
                }
            }
        }
        if improved == 0 {
            return;
        }
        let push = match self.alg {
            // BFS advance is idempotent: exactly the first improver sees INF.
            Algorithm::Bfs => {
                let mut p = 0u32;
                for lane in 0..WARP_SIZE {
                    if (improved >> lane) & 1 == 1 && old[lane] == u32::MAX {
                        p |= 1 << lane;
                    }
                }
                p
            }
            // Non-idempotent ops deduplicate with the iteration-tag trick.
            _ => {
                let iters = [self.iter; WARP_SIZE];
                let old_tag = w.atomic_max(self.tags, dst, &iters, improved);
                let mut p = 0u32;
                for lane in 0..WARP_SIZE {
                    if (improved >> lane) & 1 == 1 && old_tag[lane] < self.iter {
                        p |= 1 << lane;
                    }
                }
                p
            }
        };
        if push == 0 {
            return;
        }
        let pos = w.atomic_add(self.raw_out.count, &[0; WARP_SIZE], &[1; WARP_SIZE], push);
        w.store(self.raw_out.items, &pos, dst, push);
    }
}

impl Kernel for AdvanceKernel {
    fn name(&self) -> &'static str {
        "gunrock_advance"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.len);
        if mask == 0 {
            return;
        }
        let v = w.load(self.frontier, &tids, mask);
        let lo = w.load(self.row_offsets, &v, mask);
        let mut v1 = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            v1[lane] = v[lane].wrapping_add(1);
        }
        let hi = w.load(self.row_offsets, &v1, mask);
        let my = w.load(self.labels, &v, mask);
        w.alu(1);

        let mut deg = [0u32; WARP_SIZE];
        let mut small = 0u32;
        let mut big = 0u32;
        let mut max_small = 0u32;
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                deg[lane] = hi[lane] - lo[lane];
                if deg[lane] == 0 {
                    continue;
                }
                if deg[lane] < WARP_DEGREE_THRESHOLD {
                    small |= 1 << lane;
                    max_small = max_small.max(deg[lane]);
                } else {
                    big |= 1 << lane;
                }
            }
        }

        // Per-thread mapping: each lane walks its own (short) edge list —
        // divergent scattered loads, the pattern UDC exists to avoid.
        for j in 0..max_small {
            let mut row = 0u32;
            let mut idx = [0u32; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                if (small >> lane) & 1 == 1 && j < deg[lane] {
                    row |= 1 << lane;
                    idx[lane] = lo[lane] + j;
                }
            }
            if row == 0 {
                continue;
            }
            let dst = w.load(self.col_idx, &idx, row);
            let wt = match self.weights {
                Some(ws) => w.load(ws, &idx, row),
                None => [1; WARP_SIZE],
            };
            self.relax(w, &dst, &wt, &my, row);
        }

        // Warp-cooperative mapping: the whole warp strides one high-degree
        // vertex's edges with coalesced loads, one vertex at a time.
        for owner in 0..WARP_SIZE {
            if (big >> owner) & 1 != 1 {
                continue;
            }
            w.alu(1); // broadcast of (start, deg) via shuffle
            let start = lo[owner];
            let d = deg[owner];
            let my_b = [my[owner]; WARP_SIZE];
            let steps = d.div_ceil(32);
            for s in 0..steps {
                let base = start + s * 32;
                let remaining = d - s * 32;
                let lanes = remaining.min(32);
                let row = if lanes == 32 {
                    u32::MAX
                } else {
                    (1u32 << lanes) - 1
                };
                let mut idx = [0u32; WARP_SIZE];
                for lane in 0..lanes as usize {
                    idx[lane] = base + lane as u32;
                }
                let dst = w.load(self.col_idx, &idx, row);
                let wt = match self.weights {
                    Some(ws) => w.load(ws, &idx, row),
                    None => [1; WARP_SIZE],
                };
                self.relax(w, &dst, &wt, &my_b, row);
            }
        }
    }
}

/// Filter: validate raw candidates and compact them into the next frontier.
struct FilterKernel {
    raw: DSlice,
    len: u32,
    labels: DSlice,
    next: DeviceQueue,
    /// When false this is a validation-only pass (SSSP's extra bucketing).
    compact: bool,
}

impl Kernel for FilterKernel {
    fn name(&self) -> &'static str {
        "gunrock_filter"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.len);
        if mask == 0 {
            return;
        }
        let v = w.load(self.raw, &tids, mask);
        let _lbl = w.load(self.labels, &v, mask); // validity check
        w.alu(1);
        if self.compact {
            let pos = w.atomic_add(self.next.count, &[0; WARP_SIZE], &[1; WARP_SIZE], mask);
            w.store(self.next.items, &pos, &v, mask);
        }
    }
}

impl Framework for GunrockLike {
    fn name(&self) -> &'static str {
        "Gunrock"
    }

    fn run(
        &self,
        dev: &mut Device,
        csr: &Csr,
        source: u32,
        alg: Algorithm,
    ) -> Result<RunResult, FrameworkError> {
        check_supported(csr, alg)?;
        let n = csr.n() as u32;
        let m = csr.m() as u64;

        // Explicit allocations: CSR + Gunrock's work buffers.
        let row_offsets = dev.mem.alloc_explicit(csr.row_offsets.len() as u64)?;
        let col_idx = dev.mem.alloc_explicit(m.max(1))?;
        let weights = if alg.needs_weights() {
            Some(dev.mem.alloc_explicit(m.max(1))?)
        } else {
            None
        };
        let labels = dev.mem.alloc_explicit(n as u64)?;
        let tags = dev.mem.alloc_explicit(n as u64)?;
        let mut front = DeviceQueue::alloc(&mut *dev, n)?;
        let mut next = DeviceQueue::alloc(&mut *dev, n)?;
        let raw = DeviceQueue::alloc(&mut *dev, n)?;
        // Gunrock's load-balancing scan array, sized for the worst-case
        // frontier (|E|/2 words) — allocated upfront like the real system.
        let scan_temp = dev.mem.alloc_explicit((m / 2).max(n as u64).max(1))?;

        // Upfront transfers.
        let mut group = Group::solo(dev, 0, self.threads_per_block);
        let lane = &mut group.lane(0);
        lane.h2d(row_offsets, &csr.row_offsets);
        if m > 0 {
            lane.h2d(col_idx, &csr.col_idx);
        }
        if let (Some(ws), Some(wdata)) = (weights, &csr.weights) {
            lane.h2d(ws, wdata);
        }
        let init = init_labels(n, source, alg);
        lane.h2d(labels, &init);
        lane.h2d(tags, &vec![0u32; n as usize]);
        lane.watch(&init, alg.init_label());
        let mut act_len = lane.timed(|dev, now| front.seed(dev, &[source], now));

        let mut iter = 0u32;
        let mut per_iteration = Vec::new();
        while act_len > 0 {
            iter += 1;
            let start_ns = lane.now();
            lane.h2d(raw.count, &[0]);
            lane.h2d(next.count, &[0]);

            // 1. load-balancing partition
            let lb = LbPartitionKernel {
                frontier: front.items,
                len: act_len,
                row_offsets,
                scan_temp: scan_temp.slice(0, (act_len as u64).min(scan_temp.len)),
            };
            lane.launch(&lb, act_len)?;

            // 2. advance
            let adv = AdvanceKernel {
                alg,
                frontier: front.items,
                len: act_len,
                row_offsets,
                col_idx,
                weights,
                labels,
                tags,
                raw_out: raw,
                iter,
            };
            lane.launch(&adv, act_len)?;
            let raw_len = lane.timed(|dev, now| raw.read_count(dev, now));

            // 3. filter (+ SSSP/SSWP's extra bucketing pass)
            if raw_len > 0 {
                let filter = |compact| FilterKernel {
                    raw: raw.items,
                    len: raw_len,
                    labels,
                    next,
                    compact,
                };
                if alg != Algorithm::Bfs {
                    lane.launch(&filter(false), raw_len)?;
                }
                lane.launch(&filter(true), raw_len)?;
            }

            per_iteration.push(IterationStats {
                iteration: iter,
                active: act_len,
                shadow_full: 0,
                shadow_partial: raw_len,
                pulled: false,
                visited_total: lane.visited(next, labels),
                start_ns,
                end_ns: lane.now(),
            });

            std::mem::swap(&mut front, &mut next);
            act_len = lane.timed(|dev, now| front.read_count(dev, now));
        }

        let labels = lane.readback(labels, n as u64)?.to_vec();
        Ok(group.solo_result(alg, labels, iter, per_iteration, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_graph::reference;
    use eta_sim::GpuConfig;

    fn graph() -> Csr {
        rmat(&RmatConfig::paper(11, 25_000, 33)).with_random_weights(6, 32)
    }

    #[test]
    fn gunrock_bfs_matches_reference() {
        let g = graph();
        let r = GunrockLike::default()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                0,
                Algorithm::Bfs,
            )
            .unwrap();
        assert_eq!(r.labels, reference::bfs(&g, 0));
    }

    #[test]
    fn gunrock_sssp_matches_reference() {
        let g = graph();
        let r = GunrockLike::default()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                0,
                Algorithm::Sssp,
            )
            .unwrap();
        assert_eq!(r.labels, reference::sssp(&g, 0));
    }

    #[test]
    fn gunrock_sswp_matches_reference() {
        let g = graph();
        let r = GunrockLike::default()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                2,
                Algorithm::Sswp,
            )
            .unwrap();
        assert_eq!(r.labels, reference::sswp(&g, 2));
    }

    #[test]
    fn gunrock_allocates_the_big_scan_buffer() {
        // The |E|/2-word scan array is the footprint driver: a device that
        // fits the CSR but not the buffer must OOM.
        let g = graph();
        // Unweighted CSR bytes (BFS does not allocate weights) plus slack
        // that covers labels/queues but not the |E|/2-word scan buffer.
        let csr_bytes = (g.m() as u64 + g.n() as u64 + 1) * 4;
        let gpu = GpuConfig::gtx1080ti_scaled(csr_bytes + g.n() as u64 * 6 * 4);
        match GunrockLike::default().run(&mut Device::new(gpu), &g, 0, Algorithm::Bfs) {
            Err(FrameworkError::Oom(_)) => {}
            other => panic!("expected OOM, got {:?}", other.map(|r| r.iterations)),
        }
    }

    #[test]
    fn gunrock_sssp_runs_more_kernel_passes_than_bfs() {
        let g = graph();
        let bfs = GunrockLike::default()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                0,
                Algorithm::Bfs,
            )
            .unwrap();
        let sssp = GunrockLike::default()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                0,
                Algorithm::Sssp,
            )
            .unwrap();
        assert!(sssp.kernel_ns > bfs.kernel_ns);
    }
}
