//! Tigr-like framework: materialized Virtual Split Transformation.
//!
//! Tigr preprocesses the graph on the host, splitting every vertex of
//! out-degree > k into virtual vertices and materializing the transformed
//! index arrays (the `|E| + 2|N| + 2|V|` footprint of Table I). At runtime
//! it is a frontier-based vertex-centric engine over *virtual* vertices:
//! like EtaGraph's kernel but
//!
//! * the virtual active set comes from **precomputed** VST arrays rather
//!   than on-the-fly Unified Degree Cut;
//! * all data is explicitly allocated and copied upfront (`cudaMalloc` +
//!   `cudaMemcpy`) — the full 1.32×-CSR structure crosses PCIe before the
//!   first kernel, and big graphs go O.O.M;
//! * no Shared Memory Prefetch: neighbors are loaded one warp instruction
//!   per edge step.
//!
//! The paper's Table III shows exactly this profile: excellent kernel times
//! (the VST fixes load imbalance just as UDC does) but totals dominated by
//! the upfront transfer, and O.O.M from sk-2005 SSSP onward.

use crate::framework::{check_supported, init_labels, Framework, FrameworkError};
use eta_graph::{Csr, Vst};
use eta_mem::system::DSlice;
use eta_sim::{Device, Kernel, WarpCtx, WARP_SIZE};
use etagraph::active_set::DeviceQueue;
use etagraph::driver::Group;
use etagraph::result::{IterationStats, RunResult};
use etagraph::Algorithm;

/// Degree bound Tigr uses for its virtual split (the Tigr paper's default).
pub const TIGR_K: u32 = 16;

pub struct TigrLike {
    pub k: u32,
    pub threads_per_block: u32,
}

impl Default for TigrLike {
    fn default() -> Self {
        TigrLike {
            k: TIGR_K,
            threads_per_block: 256,
        }
    }
}

/// Expand kernel: push every virtual vertex of each active real vertex.
struct ExpandKernel {
    act_items: DSlice,
    act_len: u32,
    real_virt_start: DSlice,
    virt_frontier: DeviceQueue,
}

impl Kernel for ExpandKernel {
    fn name(&self) -> &'static str {
        "tigr_expand"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.act_len);
        if mask == 0 {
            return;
        }
        let v = w.load(self.act_items, &tids, mask);
        let lo = w.load(self.real_virt_start, &v, mask);
        let mut v1 = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            v1[lane] = v[lane].wrapping_add(1);
        }
        let hi = w.load(self.real_virt_start, &v1, mask);
        w.alu(1);
        let mut count = [0u32; WARP_SIZE];
        let mut any = 0u32;
        let mut max_c = 0;
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                count[lane] = hi[lane] - lo[lane];
                if count[lane] > 0 {
                    any |= 1 << lane;
                    max_c = max_c.max(count[lane]);
                }
            }
        }
        if any == 0 {
            return;
        }
        let base = w.atomic_add(self.virt_frontier.count, &[0; WARP_SIZE], &count, any);
        for p in 0..max_c {
            let mut row = 0u32;
            let mut pos = [0u32; WARP_SIZE];
            let mut val = [0u32; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                if (any >> lane) & 1 == 1 && p < count[lane] {
                    row |= 1 << lane;
                    pos[lane] = base[lane] + p;
                    val[lane] = lo[lane] + p;
                }
            }
            w.alu(1);
            w.store(self.virt_frontier.items, &pos, &val, row);
        }
    }
}

/// Traversal over virtual vertices (no SMP).
struct TigrTraverse {
    alg: Algorithm,
    virt_frontier: DSlice,
    len: u32,
    virt_offsets: DSlice,
    virt_real: DSlice,
    col_idx: DSlice,
    weights: Option<DSlice>,
    labels: DSlice,
    tags: DSlice,
    next: DeviceQueue,
    iter: u32,
}

impl Kernel for TigrTraverse {
    fn name(&self) -> &'static str {
        "tigr_traverse"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.len);
        if mask == 0 {
            return;
        }
        let u = w.load(self.virt_frontier, &tids, mask);
        let start = w.load(self.virt_offsets, &u, mask);
        let mut u1 = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            u1[lane] = u[lane].wrapping_add(1);
        }
        let end = w.load(self.virt_offsets, &u1, mask);
        let real = w.load(self.virt_real, &u, mask);
        let my = w.load(self.labels, &real, mask);
        w.alu(1);

        let mut deg = [0u32; WARP_SIZE];
        let mut max_deg = 0;
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                deg[lane] = end[lane] - start[lane];
                max_deg = max_deg.max(deg[lane]);
            }
        }
        for j in 0..max_deg {
            let mut row = 0u32;
            let mut idx = [0u32; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                if (mask >> lane) & 1 == 1 && j < deg[lane] {
                    row |= 1 << lane;
                    idx[lane] = start[lane] + j;
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
                w.atomic_max(self.labels, &dst, &new, row)
            } else {
                w.atomic_min(self.labels, &dst, &new, row)
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
                continue;
            }
            let iters = [self.iter; WARP_SIZE];
            let old_tag = w.atomic_max(self.tags, &dst, &iters, improved);
            let mut push = 0u32;
            for lane in 0..WARP_SIZE {
                if (improved >> lane) & 1 == 1 && old_tag[lane] < self.iter {
                    push |= 1 << lane;
                }
            }
            if push == 0 {
                continue;
            }
            let pos = w.atomic_add(self.next.count, &[0; WARP_SIZE], &[1; WARP_SIZE], push);
            w.store(self.next.items, &pos, &dst, push);
        }
    }
}

impl Framework for TigrLike {
    fn name(&self) -> &'static str {
        "Tigr"
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

        // Host-side preprocessing (not charged, per the paper's methodology).
        let vst = Vst::from_csr(csr, self.k);
        let n_virt = vst.n_virtual() as u32;

        // Explicit device structures: the Table I VST footprint.
        let virt_offsets = dev.mem.alloc_explicit(vst.virt_offsets.len() as u64)?;
        let virt_real = dev.mem.alloc_explicit(vst.virt_real.len().max(1) as u64)?;
        let real_virt_start = dev.mem.alloc_explicit(vst.real_virt_start.len() as u64)?;
        let col_idx = dev.mem.alloc_explicit(vst.col_idx.len().max(1) as u64)?;
        // Tigr keeps per-real bookkeeping for its updates (Table I's 2|V|).
        let _bookkeeping = dev.mem.alloc_explicit(n.max(1) as u64)?;
        let weights = match &vst.weights {
            Some(_) if alg.needs_weights() => {
                Some(dev.mem.alloc_explicit(vst.col_idx.len().max(1) as u64)?)
            }
            _ => None,
        };
        let labels = dev.mem.alloc_explicit(n as u64)?;
        let tags = dev.mem.alloc_explicit(n as u64)?;
        let mut act = DeviceQueue::alloc(&mut *dev, n)?;
        let mut next = DeviceQueue::alloc(&mut *dev, n)?;
        let virt_frontier = DeviceQueue::alloc(&mut *dev, n_virt.max(1))?;

        // Upfront copies (charged).
        let mut group = Group::solo(dev, 0, self.threads_per_block);
        let lane = &mut group.lane(0);
        lane.h2d(virt_offsets, &vst.virt_offsets);
        if !vst.virt_real.is_empty() {
            lane.h2d(virt_real, &vst.virt_real);
        }
        lane.h2d(real_virt_start, &vst.real_virt_start);
        if !vst.col_idx.is_empty() {
            lane.h2d(col_idx, &vst.col_idx);
        }
        if let (Some(ws), Some(wdata)) = (weights, &vst.weights) {
            lane.h2d(ws, wdata);
        }
        let init = init_labels(n, source, alg);
        lane.h2d(labels, &init);
        lane.h2d(tags, &vec![0u32; n as usize]);
        lane.watch(&init, alg.init_label());
        let mut act_len = lane.timed(|dev, now| act.seed(dev, &[source], now));

        // Frontier loop.
        let mut iter = 0u32;
        let mut per_iteration = Vec::new();
        while act_len > 0 {
            iter += 1;
            let start_ns = lane.now();
            lane.h2d(virt_frontier.count, &[0]);
            lane.h2d(next.count, &[0]);

            let expand = ExpandKernel {
                act_items: act.items,
                act_len,
                real_virt_start,
                virt_frontier,
            };
            lane.launch(&expand, act_len)?;

            let nv = lane.timed(|dev, now| virt_frontier.read_count(dev, now));
            if nv > 0 {
                let traverse = TigrTraverse {
                    alg,
                    virt_frontier: virt_frontier.items,
                    len: nv,
                    virt_offsets,
                    virt_real,
                    col_idx,
                    weights,
                    labels,
                    tags,
                    next,
                    iter,
                };
                lane.launch(&traverse, nv)?;
            }

            per_iteration.push(IterationStats {
                iteration: iter,
                active: act_len,
                shadow_full: 0,
                shadow_partial: nv,
                pulled: false,
                visited_total: lane.visited(next, labels),
                start_ns,
                end_ns: lane.now(),
            });

            std::mem::swap(&mut act, &mut next);
            act_len = lane.timed(|dev, now| act.read_count(dev, now));
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
        rmat(&RmatConfig::paper(11, 25_000, 77)).with_random_weights(4, 32)
    }

    #[test]
    fn tigr_bfs_matches_reference() {
        let g = graph();
        let r = TigrLike::default()
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
    fn tigr_sssp_and_sswp_match_reference() {
        let g = graph();
        let sssp = TigrLike::default()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                1,
                Algorithm::Sssp,
            )
            .unwrap();
        assert_eq!(sssp.labels, reference::sssp(&g, 1));
        let sswp = TigrLike::default()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                1,
                Algorithm::Sswp,
            )
            .unwrap();
        assert_eq!(sswp.labels, reference::sswp(&g, 1));
    }

    #[test]
    fn tigr_total_includes_upfront_transfer() {
        let g = graph();
        let r = TigrLike::default()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                0,
                Algorithm::Bfs,
            )
            .unwrap();
        // The whole VST structure crosses the link before kernels start.
        let vst = Vst::from_csr(&g, TIGR_K);
        assert!(r.total_ns > r.kernel_ns);
        let wire = (vst.topology_bytes() as f64 / 12.0) as u64;
        assert!(
            r.total_ns > wire,
            "total {} must cover the upfront copy {}",
            r.total_ns,
            wire
        );
    }

    #[test]
    fn tigr_ooms_when_footprint_exceeds_device() {
        let g = graph();
        let tiny = GpuConfig::gtx1080ti_scaled(64 * 1024);
        match TigrLike::default().run(&mut Device::new(tiny), &g, 0, Algorithm::Bfs) {
            Err(FrameworkError::Oom(_)) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn tigr_weighted_algorithms_need_weights() {
        let g = rmat(&RmatConfig::paper(9, 4_000, 1)); // unweighted
        let r = TigrLike::default().run(
            &mut Device::new(GpuConfig::default_preset()),
            &g,
            0,
            Algorithm::Sssp,
        );
        assert!(matches!(r, Err(FrameworkError::Unsupported(_))));
    }
}
