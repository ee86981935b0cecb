//! Concurrent multi-source BFS — the iBFS idea (Liu, Huang & Hu,
//! SIGMOD'16), which the paper cites among the coalescing-oriented related
//! work. Up to 32 independent BFS queries share one traversal: each vertex
//! carries a 32-bit *reach mask* (bit `s` = "search `s` reached me"), the
//! joint frontier is the set of vertices whose mask grew last iteration,
//! and one topology read serves every concurrent query — precisely the
//! memory-bandwidth sharing that makes batched traversal attractive on
//! GPUs.
//!
//! Runs on the same UDC machinery as single-source traversal: the joint
//! frontier goes through `actSet2virtActSet`, shadow vertices propagate
//! their *fresh* bits to neighbors with `atomicOr`, and per-source levels
//! are recorded the iteration a bit first appears.

use crate::active_set::{DeviceQueue, VirtualQueue, WorkQueues};
use crate::config::EtaConfig;
use crate::device_graph::DeviceGraph;
use crate::driver::{drive, Frontier, Group, Lane, Program};
use crate::error::{check_batch, check_source, QueryError};
use crate::sharded::Sharded;
use eta_ckpt::{Checkpoint, CkptCtl, CkptError, CkptState};
use eta_graph::Csr;
use eta_mem::system::{DSlice, MemError};
use eta_mem::Ns;
use eta_prof::Track;
use eta_sim::{
    active_lanes, lane_degrees, lanes_where, row_index, row_lanes, Device, Kernel, KernelMetrics,
    WarpCtx, WARP_SIZE,
};

/// Maximum concurrent sources per batch (one bit per source in a word).
pub const MAX_BATCH: usize = 32;

/// Device state a batched BFS needs besides the topology: reach masks,
/// per-source levels (sized for a full 32-wide batch), and work queues.
/// Built once, reusable across batches — the serving layer keeps one per
/// resident graph so repeated batch launches pay no allocation.
pub struct MultiBfsResources {
    fresh: DSlice,
    joint: DSlice,
    next_fresh: DSlice,
    /// `n * MAX_BATCH` words; a batch of `b` sources uses the first `n*b`.
    levels: DSlice,
    queues: WorkQueues,
    n: u32,
}

impl MultiBfsResources {
    /// Allocates batch state for `csr` on `dev` (explicit device memory).
    /// All-or-nothing: a footprint that does not fit fails upfront without
    /// committing any allocation, so callers' admission accounting stays
    /// exact.
    pub fn alloc(dev: &mut Device, csr: &Csr, cfg: &EtaConfig) -> Result<Self, MemError> {
        let need = Self::footprint_bytes(csr, cfg);
        if dev.mem.free_bytes() < need {
            return Err(MemError::Oom {
                requested_bytes: need,
                free_bytes: dev.mem.free_bytes(),
            });
        }
        let n = csr.n() as u32;
        Ok(MultiBfsResources {
            fresh: dev.mem.alloc_explicit(n as u64)?,
            joint: dev.mem.alloc_explicit(n as u64)?,
            next_fresh: dev.mem.alloc_explicit(n as u64)?,
            levels: dev.mem.alloc_explicit(n as u64 * MAX_BATCH as u64)?,
            queues: WorkQueues::alloc(dev, n, Self::full_cap(csr, cfg), n)?,
            n,
        })
    }

    fn full_cap(csr: &Csr, cfg: &EtaConfig) -> u32 {
        // Edge ids are u32, so the saturation never engages.
        WorkQueues::full_capacity(u32::try_from(csr.m()).unwrap_or(u32::MAX), cfg.k)
    }

    /// Explicit device bytes [`MultiBfsResources::alloc`] will request —
    /// kept in sync with it so admission control can test a footprint
    /// before committing device memory.
    pub fn footprint_bytes(csr: &Csr, cfg: &EtaConfig) -> u64 {
        let n = u32::try_from(csr.n()).unwrap_or(u32::MAX);
        let masks_and_levels = 4 * u64::from(n) * (3 + MAX_BATCH as u64);
        masks_and_levels + WorkQueues::footprint_bytes(n, Self::full_cap(csr, cfg), n)
    }

    /// Returns every allocation's capacity to the device (eviction path).
    pub fn release(self, dev: &mut Device) {
        for s in [self.fresh, self.joint, self.next_fresh, self.levels] {
            dev.mem.release(s);
        }
        self.queues.release(dev);
    }
}

/// Result of one batched multi-source BFS.
#[derive(Debug, Clone)]
pub struct MultiBfsResult {
    /// `levels[s][v]` = BFS level of vertex `v` from source `s`
    /// (`u32::MAX` when unreachable).
    pub levels: Vec<Vec<u32>>,
    pub iterations: u32,
    pub kernel_ns: Ns,
    pub total_ns: Ns,
    pub metrics: KernelMetrics,
}

/// Propagates each shadow vertex's fresh bits to its neighbors; vertices
/// whose reach mask grows are appended to the next joint frontier (their
/// growth is deduplicated by the atomicOr's old value) and their new bits'
/// levels are recorded.
struct MultiPropagateKernel {
    queue: VirtualQueue,
    len: u32,
    col_idx: DSlice,
    /// Bits that reached each vertex in the previous iteration.
    fresh: DSlice,
    /// All bits that ever reached each vertex.
    joint: DSlice,
    /// Accumulates next iteration's fresh bits.
    next_fresh: DSlice,
    next: DeviceQueue,
    /// `levels[s * n + v]`, written when bit `s` first reaches `v`.
    levels: DSlice,
    n: u32,
    iter: u32,
}

impl Kernel for MultiPropagateKernel {
    fn name(&self) -> &'static str {
        "multi_bfs_propagate"
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
        let my_fresh = w.load(self.fresh, &vid, mask);
        w.alu(1);

        let (deg, max_deg) = lane_degrees(&start, &end, mask);
        let fresh = lanes_where(mask, |lane| my_fresh[lane] != 0);
        for j in 0..max_deg {
            let row = row_lanes(&deg, j) & fresh;
            if row == 0 {
                continue;
            }
            let dst = w.load(self.col_idx, &row_index(&start, j, row), row);
            // Merge our fresh bits into the neighbor's joint mask; the old
            // value tells us which bits are genuinely new there.
            let old_joint = w.atomic_or(self.joint, &dst, &my_fresh, row);
            let mut new_bits = [0u32; WARP_SIZE];
            for lane in active_lanes(row) {
                new_bits[lane] = my_fresh[lane] & !old_joint[lane];
            }
            let grew = lanes_where(row, |lane| new_bits[lane] != 0);
            w.alu(1);
            if grew == 0 {
                continue;
            }
            // Stage the new bits for the next iteration; first grower of a
            // vertex (old next_fresh == 0 under this OR) enqueues it.
            let old_nf = w.atomic_or(self.next_fresh, &dst, &new_bits, grew);
            let push = lanes_where(grew, |lane| old_nf[lane] == 0);
            // Record levels for each newly-set bit (divergent over bits —
            // bounded by the batch width).
            for s in 0..MAX_BATCH as u32 {
                let bit_row = lanes_where(grew, |lane| (new_bits[lane] >> s) & 1 == 1);
                let mut slot = [0u32; WARP_SIZE];
                for lane in active_lanes(bit_row) {
                    slot[lane] = s * self.n + dst[lane];
                }
                if bit_row != 0 {
                    w.store(self.levels, &slot, &[self.iter; WARP_SIZE], bit_row);
                }
            }
            self.next.push(w, &dst, push);
        }
    }
}

/// Swaps fresh masks between iterations: `fresh[v] = next_fresh[v];
/// next_fresh[v] = 0` for every vertex in the new frontier.
struct SwapFreshKernel {
    frontier: DSlice,
    len: u32,
    fresh: DSlice,
    next_fresh: DSlice,
}

impl Kernel for SwapFreshKernel {
    fn name(&self) -> &'static str {
        "multi_bfs_swap_fresh"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.len);
        if mask == 0 {
            return;
        }
        let v = w.load(self.frontier, &tids, mask);
        let bits = w.load(self.next_fresh, &v, mask);
        w.store(self.fresh, &v, &bits, mask);
        w.store(self.next_fresh, &v, &[0; WARP_SIZE], mask);
    }
}

/// Runs up to 32 BFS queries in one batched traversal on a fresh device
/// (upload + allocate + traverse; total time includes the upload). A batch
/// size outside `1..=MAX_BATCH` is refused before the upload.
pub fn run(
    dev: &mut Device,
    csr: &Csr,
    sources: &[u32],
    cfg: &EtaConfig,
) -> Result<MultiBfsResult, QueryError> {
    check_batch(sources.len(), MAX_BATCH)?;
    let (dg, t_up) = DeviceGraph::upload(dev, csr, cfg.transfer, 0)?;
    let res = MultiBfsResources::alloc(dev, csr, cfg)?;
    let mut r = run_on_ckpt(dev, &dg, &res, sources, cfg, t_up, CkptCtl::off())?;
    r.total_ns += t_up;
    Ok(r)
}

/// Runs one batch on already-prepared resources as a group of one, starting
/// at `start` on the session clock. [`MultiBfsResult::total_ns`] is the
/// batch's duration from `start`; per-query state (masks, levels, seeds) is
/// re-initialized and charged, so the resources are immediately reusable
/// for the next batch.
///
/// `ckpt` is the driver's checkpoint hook: `CkptCtl::off()` for a plain
/// run; a due sink copies the batch state back at iteration boundaries
/// (charged PCIe traffic on the profiler's checkpoint track); a resume
/// snapshot replaces initialization, and the continued run replays the
/// uninterrupted run's remaining iterations byte-for-byte (the frontier is
/// restored in queue order, which pins every atomic outcome).
pub fn run_on_ckpt(
    dev: &mut Device,
    dg: &DeviceGraph,
    res: &MultiBfsResources,
    sources: &[u32],
    cfg: &EtaConfig,
    start: Ns,
    ckpt: CkptCtl<'_>,
) -> Result<MultiBfsResult, QueryError> {
    check_batch(sources.len(), MAX_BATCH)?;
    for &s in sources {
        check_source(s, res.n as usize)?;
    }
    let prog = Batch {
        dg,
        res,
        sources,
        k: cfg.k,
        levels: res.levels.slice(0, res.n as u64 * sources.len() as u64),
    };
    let group = &mut Group::new(std::slice::from_mut(dev), vec![start], cfg);
    let (run, levels) = drive(group, None, prog, ckpt).map_err(|e| e.error)?;
    Ok(MultiBfsResult {
        levels,
        iterations: run.steps,
        kernel_ns: run.kernel_ns,
        total_ns: run.end_ns - start,
        metrics: run.metrics,
    })
}

/// One batch as a driver program; its one member is the joint frontier. It
/// announces no edge volume, so the adaptive policy is never ticked by it.
struct Batch<'a> {
    dg: &'a DeviceGraph,
    res: &'a MultiBfsResources,
    sources: &'a [u32],
    k: u32,
    /// The first `n * sources.len()` words of the resources' level block.
    levels: DSlice,
}

impl Program for Batch<'_> {
    type Member = Frontier;
    type Output = Vec<Vec<u32>>;

    fn vertices(&self) -> u32 {
        self.res.n
    }

    fn init(&self, g: &mut Group<'_>, resume: Option<&Checkpoint>) -> Sharded<Vec<Frontier>> {
        assert_eq!(g.devs.len(), 1, "a batch runs on a group of one");
        let (res, n) = (self.res, self.res.n as usize);
        let init;
        let (fresh, joint, levels, seeds): (&[u32], &[u32], &[u32], &[u32]) =
            match resume.map(|ck| &ck.state) {
                Some(CkptState::MultiBfs {
                    sources,
                    fresh,
                    joint,
                    levels,
                    frontier,
                }) if sources == self.sources
                    && fresh.len() == n
                    && levels.len() == n * sources.len() =>
                {
                    (fresh, joint, levels, frontier)
                }
                Some(_) => return Err(CkptError::StateShape.into()),
                None => {
                    // Each source carries its own bit at level 0. Sources may
                    // repeat or collide on a vertex; bits just merge.
                    let mut fresh = vec![0u32; n];
                    let mut levels = vec![u32::MAX; n * self.sources.len()];
                    let mut seeds: Vec<u32> = Vec::new();
                    for (s, &v) in self.sources.iter().enumerate() {
                        fresh[v as usize] |= 1 << s;
                        levels[s * n + v as usize] = 0;
                        if !seeds.contains(&v) {
                            seeds.push(v);
                        }
                    }
                    init = (fresh, levels, seeds);
                    (&init.0, &init.0, &init.1, &init.2)
                }
            };
        let lane = &mut g.lane(0);
        let start = lane.now();
        lane.h2d(res.fresh, fresh);
        lane.h2d(res.joint, joint);
        lane.h2d(res.next_fresh, &vec![0u32; n]);
        lane.h2d(self.levels, levels);
        let frontier = Frontier::seeded(res.queues, lane, seeds);
        self.dg.prefetch(lane.dev, lane.now());
        if let Some(ck) = resume {
            lane.event(Track::Ckpt, "resume", start, || {
                vec![
                    ("iteration", ck.iteration.into()),
                    ("words", ck.payload_words().into()),
                    ("kind", ck.state.kind().into()),
                ]
            });
        }
        Ok(vec![frontier])
    }

    fn active(&self, frontier: &Frontier, _done: u32) -> Option<u32> {
        Some(frontier.len).filter(|&len| len > 0)
    }

    fn compute(&self, frontier: &mut Frontier, lane: &mut Lane<'_>, step: u32) -> Sharded<()> {
        let (dg, res, levels, next) = (self.dg, self.res, self.levels, frontier.q.next);
        let propagate = |queue, len| MultiPropagateKernel {
            queue,
            len,
            col_idx: dg.col_idx,
            fresh: res.fresh,
            joint: res.joint,
            next_fresh: res.next_fresh,
            next,
            levels,
            n: res.n,
            iter: step,
        };
        frontier.step(lane, dg.row_offsets, self.k, None, propagate)?;
        // New frontier: swap its fresh masks in (an empty one launches
        // nothing), then continue.
        frontier.swap_and_count(lane);
        let swap = SwapFreshKernel {
            frontier: frontier.q.act.items,
            len: frontier.len,
            fresh: res.fresh,
            next_fresh: res.next_fresh,
        };
        lane.launch(&swap, frontier.len)
    }

    /// SwapFresh zeroed `next_fresh` for exactly the vertices that were
    /// enqueued (each was pushed once, on its first grower), so it is
    /// globally zero again at the boundary and fresh + joint + levels + the
    /// frontier *in queue order* are the complete state.
    fn snapshot(&self, frontier: &[Frontier], g: &mut Group<'_>) -> Sharded<CkptState> {
        let (res, n, levels) = (self.res, self.res.n as u64, self.levels);
        let (items, len) = (frontier[0].q.act.items, frontier[0].len as u64);
        let lane = &mut g.lane(0);
        lane.d2h(res.fresh, n);
        lane.d2h(res.joint, n);
        lane.d2h(levels, levels.len);
        lane.d2h(items, len);
        lane.poll()?;
        Ok(CkptState::MultiBfs {
            sources: self.sources.to_vec(),
            fresh: lane.read(res.fresh, n).to_vec(),
            joint: lane.read(res.joint, n).to_vec(),
            levels: lane.read(levels, levels.len).to_vec(),
            frontier: lane.read(items, len).to_vec(),
        })
    }

    fn finish(self, _: Vec<Frontier>, g: &mut Group<'_>) -> Sharded<Vec<Vec<u32>>> {
        let (levels, lane) = (self.levels, &mut g.lane(0));
        let words = lane.readback(levels, levels.len)?;
        Ok(words
            .chunks(self.res.n as usize)
            .map(<[u32]>::to_vec)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_graph::reference;
    use eta_sim::GpuConfig;

    fn device() -> Device {
        Device::new(GpuConfig::default_preset())
    }

    fn graph() -> Csr {
        rmat(&RmatConfig::paper(12, 70_000, 66))
    }

    #[test]
    fn batched_levels_match_individual_bfs() {
        let g = graph();
        let sources: Vec<u32> = vec![0, 1, 17, 999, 2048, 4000];
        let mut dev = device();
        let r = run(&mut dev, &g, &sources, &EtaConfig::paper()).unwrap();
        assert_eq!(r.levels.len(), sources.len());
        for (s, &src) in sources.iter().enumerate() {
            assert_eq!(r.levels[s], reference::bfs(&g, src), "source {src}");
        }
    }

    #[test]
    fn full_batch_of_32_sources() {
        let g = graph();
        let sources: Vec<u32> = (0..32u32).map(|i| i * 97 % g.n() as u32).collect();
        let mut dev = device();
        let r = run(&mut dev, &g, &sources, &EtaConfig::paper()).unwrap();
        for (s, &src) in sources.iter().enumerate() {
            assert_eq!(r.levels[s], reference::bfs(&g, src), "source {src}");
        }
    }

    #[test]
    fn duplicate_and_colliding_sources() {
        let g = graph();
        let sources = vec![5u32, 5, 5];
        let mut dev = device();
        let r = run(&mut dev, &g, &sources, &EtaConfig::paper()).unwrap();
        let expect = reference::bfs(&g, 5);
        for lv in &r.levels {
            assert_eq!(lv, &expect);
        }
    }

    #[test]
    fn batching_shares_topology_reads() {
        // The iBFS claim: B batched searches read the topology far less
        // than B sequential searches.
        let g = graph();
        let sources: Vec<u32> = (0..16u32).map(|i| i * 131 % g.n() as u32).collect();
        let mut dev = device();
        let batched = run(&mut dev, &g, &sources, &EtaConfig::paper()).unwrap();

        let mut sequential_gld = 0u64;
        let mut sequential_kernel_ns = 0u64;
        for &src in &sources {
            let mut dev = device();
            let r = crate::engine::run(
                &mut dev,
                &g,
                src,
                crate::Algorithm::Bfs,
                &EtaConfig::paper(),
            )
            .unwrap();
            sequential_gld += r.metrics.l1_requests;
            sequential_kernel_ns += r.kernel_ns;
        }
        // iBFS reports sharing factors well below the batch width because
        // sources expand at misaligned levels; 2x on 16 sources matches that.
        assert!(
            batched.metrics.l1_requests * 2 < sequential_gld,
            "batched {} vs sequential {} global loads",
            batched.metrics.l1_requests,
            sequential_gld
        );
        assert!(
            (batched.kernel_ns as f64) < 0.75 * sequential_kernel_ns as f64,
            "batched {} vs sequential {} kernel ns",
            batched.kernel_ns,
            sequential_kernel_ns
        );
    }

    #[test]
    fn resources_reuse_across_batches_and_footprint_is_exact() {
        let g = graph();
        let mut dev = device();
        let cfg = EtaConfig::paper();
        let before = dev.mem.explicit_used_bytes();
        let (dg, _) = DeviceGraph::upload(&mut dev, &g, cfg.transfer, 0).unwrap();
        let res = MultiBfsResources::alloc(&mut dev, &g, &cfg).unwrap();
        assert_eq!(
            dev.mem.explicit_used_bytes() - before,
            MultiBfsResources::footprint_bytes(&g, &cfg),
            "footprint estimator must match what alloc actually takes"
        );
        // Two batches back-to-back on the same resources, clock advancing.
        let r1 = run_on_ckpt(&mut dev, &dg, &res, &[0, 7], &cfg, 0, CkptCtl::off()).unwrap();
        let off = CkptCtl::off();
        let r2 = run_on_ckpt(&mut dev, &dg, &res, &[3], &cfg, r1.total_ns, off).unwrap();
        assert_eq!(r1.levels[0], reference::bfs(&g, 0));
        assert_eq!(r1.levels[1], reference::bfs(&g, 7));
        assert_eq!(r2.levels[0], reference::bfs(&g, 3));
        // Eviction path: everything explicit comes back.
        res.release(&mut dev);
        dg.release(&mut dev);
        assert_eq!(dev.mem.explicit_used_bytes(), before);
    }

    #[test]
    fn resumed_batch_matches_uninterrupted_run() {
        let g = graph();
        let cfg = EtaConfig::paper();
        let digest = g.digest();
        let sources = vec![0u32, 17, 999];
        let mut dev = device();
        let clean = run(&mut dev, &g, &sources, &cfg).unwrap();

        // Checkpointed run: results must be unchanged, snapshots taken.
        let mut dev2 = device();
        let (dg2, t2) = DeviceGraph::upload(&mut dev2, &g, cfg.transfer, 0).unwrap();
        let res2 = MultiBfsResources::alloc(&mut dev2, &g, &cfg).unwrap();
        let mut sink = eta_ckpt::CkptSink::every(2);
        let ckd = run_on_ckpt(
            &mut dev2,
            &dg2,
            &res2,
            &sources,
            &cfg,
            t2,
            CkptCtl::with_sink(&mut sink, digest),
        )
        .unwrap();
        assert_eq!(ckd.levels, clean.levels, "checkpointing is result-inert");
        assert!(sink.taken >= 1, "the policy fired at least once");
        assert!(
            ckd.total_ns > clean.total_ns,
            "snapshot PCIe traffic is charged on the simulated clock"
        );
        let ck = sink.take().unwrap();
        assert!(ck.iteration >= 2 && ck.iteration < ckd.iterations);

        // Resume on a *different, fresh* device — the migration path.
        let mut dev3 = device();
        let (dg3, t3) = DeviceGraph::upload(&mut dev3, &g, cfg.transfer, 0).unwrap();
        let res3 = MultiBfsResources::alloc(&mut dev3, &g, &cfg).unwrap();
        let mut sink3 = eta_ckpt::CkptSink::default();
        let resumed = run_on_ckpt(
            &mut dev3,
            &dg3,
            &res3,
            &sources,
            &cfg,
            t3,
            CkptCtl::resuming(&mut sink3, &ck, digest),
        )
        .unwrap();
        assert_eq!(
            resumed.levels, clean.levels,
            "a resumed run is byte-identical to the uninterrupted run"
        );
        assert_eq!(resumed.iterations, clean.iterations);

        // A snapshot from another graph epoch is a typed error, not
        // silent corruption.
        let err = run_on_ckpt(
            &mut dev3,
            &dg3,
            &res3,
            &sources,
            &cfg,
            0,
            CkptCtl::resuming(&mut sink3, &ck, digest ^ 1),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            QueryError::Checkpoint(CkptError::GraphDigest { .. })
        ));

        // A snapshot for a different batch shape is rejected too.
        let err = run_on_ckpt(
            &mut dev3,
            &dg3,
            &res3,
            &[0u32, 17],
            &cfg,
            0,
            CkptCtl::resuming(&mut sink3, &ck, digest),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::Checkpoint(CkptError::StateShape));
    }

    #[test]
    fn out_of_range_batch_source_is_a_typed_error() {
        let g = graph();
        let mut dev = device();
        let bad = g.n() as u32;
        let err = run(&mut dev, &g, &[0, bad], &EtaConfig::paper()).unwrap_err();
        assert_eq!(
            err,
            crate::error::QueryError::SourceOutOfRange {
                source: bad,
                vertices: g.n()
            }
        );
    }

    #[test]
    fn oversized_batch_is_rejected() {
        let g = graph();
        let sources: Vec<u32> = (0..33u32).collect();
        let mut dev = device();
        let err = run(&mut dev, &g, &sources, &EtaConfig::paper()).unwrap_err();
        let max = MAX_BATCH;
        assert_eq!(err, QueryError::BatchSize { sources: 33, max });
        assert_eq!(dev.mem.explicit_used_bytes(), 0, "refused before upload");
    }
}
