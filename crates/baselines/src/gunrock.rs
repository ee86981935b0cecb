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
use eta_sim::{
    active_lanes, lane_degrees, lanes_where, row_index, row_lanes, Device, Kernel, Lanes, WarpCtx,
    WARP_SIZE,
};
use etagraph::active_set::DeviceQueue;
use etagraph::driver::Group;
use etagraph::kernels::{claim_and_push, load_edges, relax_lanes};
use etagraph::result::{IterationStats, RunResult};
use etagraph::Algorithm;

/// Degree threshold between the per-thread and warp-cooperative mappings.
pub const WARP_DEGREE_THRESHOLD: u32 = 32;

#[derive(Default)]
pub struct GunrockLike {}

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
        let (lo, hi) = w.load_bounds(self.row_offsets, &v, mask);
        let (deg, _) = lane_degrees(&lo, &hi, mask);
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
    fn relax(&self, w: &mut WarpCtx<'_>, dst: &Lanes, wt: &Lanes, my: &Lanes, row: u32) {
        w.alu(1);
        let (old, improved) = relax_lanes(w, self.alg, self.labels, dst, my, wt, row);
        if self.alg == Algorithm::Bfs {
            // BFS advance is idempotent: exactly the first improver sees INF.
            let first = lanes_where(improved, |lane| old[lane] == u32::MAX);
            self.raw_out.push(w, dst, first);
        } else {
            // Non-idempotent ops deduplicate with the iteration-tag trick.
            claim_and_push(w, self.tags, &self.raw_out, dst, improved, self.iter);
        }
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
        let (lo, hi) = w.load_bounds(self.row_offsets, &v, mask);
        let my = w.load(self.labels, &v, mask);
        w.alu(1);
        let (deg, _) = lane_degrees(&lo, &hi, mask);
        let small = lanes_where(mask, |lane| {
            deg[lane] > 0 && deg[lane] < WARP_DEGREE_THRESHOLD
        });
        let big = lanes_where(mask, |lane| deg[lane] >= WARP_DEGREE_THRESHOLD);
        let max_small = active_lanes(small).map(|lane| deg[lane]).max().unwrap_or(0);

        // Per-thread mapping: each lane walks its own (short) edge list —
        // divergent scattered loads, the pattern UDC exists to avoid.
        for j in 0..max_small {
            let row = row_lanes(&deg, j) & small;
            let idx = row_index(&lo, j, row);
            let (dst, wt) = load_edges(w, self.col_idx, self.weights, &idx, row);
            self.relax(w, &dst, &wt, &my, row);
        }

        // Warp-cooperative mapping: the whole warp strides one high-degree
        // vertex's edges with coalesced loads, one vertex at a time.
        for owner in active_lanes(big) {
            w.alu(1); // broadcast of (start, deg) via shuffle
            let (start, d) = (lo[owner], deg[owner]);
            let my_b = [my[owner]; WARP_SIZE];
            for s in 0..d.div_ceil(32) {
                let row = u32::MAX >> (32 - (d - s * 32).min(32));
                let idx = std::array::from_fn(|lane| start + s * 32 + lane as u32);
                let (dst, wt) = load_edges(w, self.col_idx, self.weights, &idx, row);
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
            self.next.push(w, &v, mask);
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
        let mut group = Group::solo(dev, 0);
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
