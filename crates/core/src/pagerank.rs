//! PageRank on the EtaGraph machinery — the generality demonstration.
//!
//! §II-C of the paper contrasts traversal algorithms with "PageRank-like
//! algorithms" that update every vertex every iteration, and §VIII claims
//! "SMP can be easily applied to other vertex-centric frameworks". This
//! module backs that claim: PageRank runs on the same Unified Degree Cut
//! shadow vertices and the same Shared-Memory-Prefetch access shape, with
//! one difference that actually *simplifies* things — because all vertices
//! are active every iteration, the UDC transformation runs **once** and the
//! virtual active set is reused for the whole computation.
//!
//! Ranks are IEEE-754 `f32` stored in device words; scatter-accumulation
//! uses the simulator's `atomicAdd(float)` analog. Results are validated
//! against the `f64` host reference within a tolerance.
//!
//! `Ranking` is the algorithm as a superstep-driver program: a
//! superstep is contrib + scatter per member, the exchange of cross-shard
//! contributions, then apply.

use crate::active_set::VirtualQueue;
use crate::config::{EtaConfig, THREADS_PER_BLOCK};
use crate::device_graph::DeviceGraph;
use crate::driver::{drive, owner, Group, Lane, Program, SendFn, ShardView};
use crate::error::QueryError;
use crate::kernels::smp_shared_words;
use crate::sharded::Sharded;
use crate::udc::shadow_count_graph;
use eta_ckpt::{Checkpoint, CkptCtl, CkptError, CkptState};
use eta_graph::Csr;
use eta_mem::system::{DSlice, MemError};
use eta_mem::Ns;
use eta_prof::Track;
use eta_sim::{
    active_lanes, lane_degrees, row_index, row_lanes, Device, Kernel, KernelMetrics, WarpCtx,
    WARP_SIZE,
};

/// PageRank configuration.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor (0.85 in the original formulation).
    pub damping: f32,
    /// Fixed Jacobi iteration count (PageRank-like algorithms iterate to
    /// value convergence; a fixed count keeps runs comparable).
    pub iterations: u32,
    /// EtaGraph machinery knobs (K, SMP, transfer mode).
    pub eta: EtaConfig,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            iterations: 20,
            eta: EtaConfig::paper(),
        }
    }
}

/// Outcome of a PageRank run.
#[derive(Debug, Clone, Default)]
pub struct PageRankResult {
    pub ranks: Vec<f32>,
    pub iterations: u32,
    pub kernel_ns: Ns,
    pub total_ns: Ns,
    pub metrics: KernelMetrics,
}

/// One-time kernel: cut ALL vertices into shadow tuples (static UDC).
pub(crate) struct StaticUdcKernel {
    pub(crate) n: u32,
    pub(crate) row_offsets: DSlice,
    pub(crate) out: VirtualQueue,
    pub(crate) k: u32,
}

impl Kernel for StaticUdcKernel {
    fn name(&self) -> &'static str {
        "pagerank_static_udc"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        if mask == 0 {
            return;
        }
        let (start, end) = w.load_bounds(self.row_offsets, &tids, mask);
        w.alu(2);
        let (deg, _) = lane_degrees(&start, &end, mask);
        let mut parts = [0u32; WARP_SIZE];
        for lane in active_lanes(mask) {
            parts[lane] = deg[lane].div_ceil(self.k);
        }
        w.append(self.out.count, &parts, |w, row, pos, p| {
            let s = row_index(&start, p * self.k, row);
            let mut e = row_index(&s, self.k, row);
            for lane in active_lanes(row) {
                e[lane] = e[lane].min(end[lane]);
            }
            w.alu(1);
            self.out.store(w, pos, &tids, &s, &e, row);
        });
    }
}

/// Per-iteration pass 1: `contrib[v] = rank[v] / out_degree(v)` (dangling
/// vertices contribute 0 here; their mass is redistributed on the host-side
/// base term, matching the reference).
pub(crate) struct ContribKernel {
    pub(crate) n: u32,
    pub(crate) row_offsets: DSlice,
    pub(crate) ranks: DSlice,
    pub(crate) contrib: DSlice,
}

impl Kernel for ContribKernel {
    fn name(&self) -> &'static str {
        "pagerank_contrib"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        if mask == 0 {
            return;
        }
        let (lo, hi) = w.load_bounds(self.row_offsets, &tids, mask);
        let rank = w.load(self.ranks, &tids, mask);
        w.alu(2);
        let (deg, _) = lane_degrees(&lo, &hi, mask);
        let mut out = [0u32; WARP_SIZE];
        for lane in active_lanes(mask) {
            let share = if deg[lane] == 0 {
                0.0
            } else {
                f32::from_bits(rank[lane]) / deg[lane] as f32
            };
            out[lane] = share.to_bits();
        }
        w.store(self.contrib, &tids, &out, mask);
    }
}

/// Per-iteration pass 2: scatter each shadow's contribution to its
/// neighbors with float atomics. SMP stages the neighbor IDs exactly as the
/// traversal kernel does.
pub(crate) struct ScatterKernel {
    pub(crate) smp: bool,
    pub(crate) k: u32,
    pub(crate) queue: VirtualQueue,
    pub(crate) len: u32,
    pub(crate) col_idx: DSlice,
    pub(crate) contrib: DSlice,
    pub(crate) next_ranks: DSlice,
}

impl Kernel for ScatterKernel {
    fn name(&self) -> &'static str {
        "pagerank_scatter"
    }

    fn shared_words_per_block(&self, threads_per_block: u32) -> u64 {
        smp_shared_words(self.smp, self.k, threads_per_block, false)
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
        let share_bits = w.load(self.contrib, &vid, mask);
        w.alu(1);
        let (deg, max_deg) = lane_degrees(&start, &end, mask);
        if max_deg == 0 {
            return;
        }

        let mut slot = [0u32; WARP_SIZE];
        if self.smp {
            slot = tids.map(|tid| tid % THREADS_PER_BLOCK * self.k);
            w.stage_burst(self.col_idx, &start, &deg, mask, &slot);
        }
        for j in 0..max_deg {
            let row = row_lanes(&deg, j);
            let dst = if self.smp {
                w.load_shared(&row_index(&slot, j, row), row)
            } else {
                w.load(self.col_idx, &row_index(&start, j, row), row)
            };
            let mut val = [0f32; WARP_SIZE];
            for lane in active_lanes(row) {
                val[lane] = f32::from_bits(share_bits[lane]);
            }
            w.atomic_add_f32(self.next_ranks, &dst, &val, row);
        }
    }
}

/// Per-iteration pass 3: `rank[v] = base + d * next[v]; next[v] = 0`.
pub(crate) struct ApplyKernel {
    pub(crate) n: u32,
    pub(crate) ranks: DSlice,
    pub(crate) next_ranks: DSlice,
    pub(crate) base: f32,
    pub(crate) damping: f32,
}

impl Kernel for ApplyKernel {
    fn name(&self) -> &'static str {
        "pagerank_apply"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        if mask == 0 {
            return;
        }
        let nx = w.load(self.next_ranks, &tids, mask);
        w.alu(2);
        let mut new = [0u32; WARP_SIZE];
        for lane in active_lanes(mask) {
            new[lane] = (self.base + self.damping * f32::from_bits(nx[lane])).to_bits();
        }
        w.store(self.ranks, &tids, &new, mask);
        w.store(self.next_ranks, &tids, &[0f32.to_bits(); WARP_SIZE], mask);
    }
}

/// Runs PageRank on the simulated device.
pub fn run(
    dev: &mut Device,
    csr: &Csr,
    cfg: &PageRankConfig,
) -> Result<PageRankResult, QueryError> {
    run_ckpt(dev, csr, cfg, CkptCtl::off())
}

/// [`run`] with checkpoint/resume control (see eta-ckpt). The iteration
/// boundary is after the apply step, where `next_ranks` is zero by
/// construction, so the rank words plus the completed-iteration count are
/// the complete state; the static UDC queue is recomputed deterministically
/// on resume rather than snapshotted.
pub fn run_ckpt(
    dev: &mut Device,
    csr: &Csr,
    cfg: &PageRankConfig,
    ckpt: CkptCtl<'_>,
) -> Result<PageRankResult, QueryError> {
    if csr.n() == 0 {
        return Ok(PageRankResult::default());
    }
    let (shard, ready) = RankShard::alloc(dev, csr, &cfg.eta)?;
    let views = [ShardView::whole(csr, shard.dg.n)];
    let prog = Ranking::new(cfg, csr, &views, std::slice::from_ref(&shard));
    let group = &mut Group::new(std::slice::from_mut(dev), vec![ready], &cfg.eta);
    let (run, ranks) = drive(group, None, prog, ckpt).map_err(|e| e.error)?;
    Ok(PageRankResult {
        ranks,
        iterations: cfg.iterations,
        kernel_ns: run.kernel_ns,
        total_ns: run.end_ns,
        metrics: run.metrics,
    })
}

/// One group member's device state: its share of the topology, the three
/// per-vertex arrays (halo rows included) and the static shadow queue.
pub(crate) struct RankShard {
    pub(crate) dg: DeviceGraph,
    ranks: DSlice,
    next_ranks: DSlice,
    contrib: DSlice,
    queue: VirtualQueue,
    /// Shadow vertices the static UDC cuts (the queue's final length).
    shadows: u32,
}

impl RankShard {
    /// Places `csr` on `dev` and allocates the rank arrays; returns the
    /// time synchronous setup completes.
    pub fn alloc(dev: &mut Device, csr: &Csr, cfg: &EtaConfig) -> Result<(Self, Ns), MemError> {
        let (dg, ready) = DeviceGraph::upload(dev, csr, cfg.transfer, 0)?;
        let shadows = shadow_count_graph(csr, cfg.k) as u32;
        let shard = RankShard {
            ranks: dev.mem.alloc_explicit(dg.n as u64)?,
            next_ranks: dev.mem.alloc_explicit(dg.n as u64)?,
            contrib: dev.mem.alloc_explicit(dg.n as u64)?,
            queue: VirtualQueue::alloc(dev, shadows.max(1))?,
            dg,
            shadows,
        };
        Ok((shard, ready))
    }

    pub fn release(self, dev: &mut Device) {
        self.dg.release(dev);
        for s in [self.ranks, self.next_ranks, self.contrib] {
            dev.mem.release(s);
        }
        self.queue.release(dev);
    }
}

/// Per-destination replay lists, flat: the sources of global vertex `v`'s
/// in-edges are `sources[offsets[v]..offsets[v + 1]]`, in the order the
/// single-device scatter applies them. Empty for a group of one.
#[derive(Default)]
struct Inedges {
    offsets: Vec<u32>,
    sources: Vec<u32>,
}

impl Inedges {
    fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    fn of(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.sources[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// What a group of more than one exchanges. The single-device scatter
/// applies `next[dst] += contrib[src]` in a total order fixed by the
/// simulator: blocks and warps run serially in index order, and within a
/// warp's unrolled edge loop lanes apply in lane order at each step `j`. For
/// the shadow at global queue slot `g` that is the key `(g/32, j, g%32)`.
/// Because the static-UDC queue is sorted by vertex id and halo rows cut
/// zero shadows, each shard's local queue is a contiguous slice of the
/// global one — so every message can carry its global key, and the owner
/// can re-apply all of them (local and remote) in the exact global order.
/// A counting pass sizes each destination's list; a second pass visits the
/// shadows in key order and appends each edge's source to its
/// destination's list, so every list comes out already in that order.
///
/// Also returns the `(from, to, messages)` batches of one superstep,
/// ascending: every edge into another member's range ships one message.
fn plan_exchange(
    csr: &Csr,
    k: u32,
    views: &[ShardView<'_>],
) -> (Inedges, Vec<(usize, usize, u64)>) {
    let k = k as usize;
    let mut offsets = vec![0u32; csr.n() + 1];
    let mut counts = vec![vec![0u64; views.len()]; views.len()];
    // The queue's shadows in slot order: (source, first edge, end edge).
    let mut shadows: Vec<(u32, usize, usize)> = Vec::new();
    for (u, row) in csr.row_offsets.windows(2).enumerate() {
        let (start, end) = (row[0] as usize, row[1] as usize);
        let from = owner(views, u as u32);
        for &dst in &csr.col_idx[start..end] {
            offsets[dst as usize + 1] += 1;
            counts[from][owner(views, dst)] += 1;
        }
        let cut = (start..end).step_by(k);
        shadows.extend(cut.map(|first| (u as u32, first, (first + k).min(end))));
    }
    for v in 0..csr.n() {
        offsets[v + 1] += offsets[v];
    }
    let mut next = offsets.clone();
    let mut sources = vec![0u32; csr.m()];
    for warp in shadows.chunks(32) {
        let steps = warp.iter().map(|&(_, first, end)| end - first).max();
        for j in 0..steps.unwrap_or(0) {
            for &(u, first, end) in warp {
                if first + j < end {
                    let slot = &mut next[csr.col_idx[first + j] as usize];
                    sources[*slot as usize] = u;
                    *slot += 1;
                }
            }
        }
    }
    let batches = counts.iter().enumerate().flat_map(|(from, row)| {
        let remote = row
            .iter()
            .enumerate()
            .filter(move |&(to, &c)| to != from && c > 0);
        remote.map(move |(to, &c)| (from, to, c))
    });
    (Inedges { offsets, sources }, batches.collect())
}

/// One PageRank member: its share of the graph and its device state.
type Member<'a> = (ShardView<'a>, &'a RankShard);

/// Every member's owned words of one per-vertex array, concatenated into
/// global vertex order (observer-side).
fn owned(members: &[Member<'_>], g: &Group<'_>, array: fn(&RankShard) -> DSlice) -> Vec<u32> {
    let mut words = Vec::new();
    for ((view, shard), dev) in members.iter().zip(&*g.devs) {
        words.extend_from_slice(dev.mem.host_read(array(shard), 0, view.own_len() as u64));
    }
    words
}

/// Charged readback of every member's owned ranks, in global order — a
/// snapshot and the final result are the same copy.
fn read_ranks(members: &[Member<'_>], g: &mut Group<'_>) -> Sharded<Vec<u32>> {
    for ((view, shard), mut lane) in members.iter().zip(g.lanes()) {
        lane.d2h(shard.ranks, view.own_len() as u64);
        lane.poll()?;
    }
    Ok(owned(members, g, |shard| shard.ranks))
}

/// PageRank as a driver program over a group of >= 1.
pub(crate) struct Ranking<'a> {
    cfg: &'a PageRankConfig,
    csr: &'a Csr,
    views: &'a [ShardView<'a>],
    shards: &'a [RankShard],
    /// Both empty for a group of one: its device scatter order *is* the
    /// global order, and nothing crosses.
    inedges: Inedges,
    cross: Vec<(usize, usize, u64)>,
}

impl<'a> Ranking<'a> {
    /// `shards[s]` must have been allocated for `views[s].csr`, and the
    /// views must partition `csr`.
    pub fn new(
        cfg: &'a PageRankConfig,
        csr: &'a Csr,
        views: &'a [ShardView<'a>],
        shards: &'a [RankShard],
    ) -> Self {
        let (inedges, cross) = match views.len() {
            1 => Default::default(),
            _ => plan_exchange(csr, cfg.eta.k, views),
        };
        Ranking {
            cfg,
            csr,
            views,
            shards,
            inedges,
            cross,
        }
    }
}

impl<'a> Program for Ranking<'a> {
    type Member = Member<'a>;
    type Output = Vec<f32>;

    fn vertices(&self) -> u32 {
        self.views.last().map_or(0, |v| v.hi)
    }

    fn init(&self, g: &mut Group<'_>, resume: Option<&Checkpoint>) -> Sharded<Vec<Member<'a>>> {
        let (n, k) = (self.vertices(), self.cfg.eta.k);
        let restored = match resume.map(|ck| (ck, &ck.state)) {
            None => None,
            Some((ck, CkptState::PageRank { ranks_bits }))
                if ranks_bits.len() == n as usize && ck.iteration <= self.cfg.iterations =>
            {
                Some((ck, ranks_bits))
            }
            Some(_) => return Err(CkptError::StateShape.into()),
        };
        let uniform = (1.0f32 / n as f32).to_bits();
        let members: Vec<Member<'a>> = self.views.iter().copied().zip(self.shards).collect();
        for (&(view, shard), mut lane) in members.iter().zip(g.lanes()) {
            let (local_n, lane) = (shard.dg.n, &mut lane);
            match restored {
                None => lane.h2d(shard.ranks, &vec![uniform; local_n as usize]),
                Some((ck, bits)) => {
                    let local: Vec<u32> = view.globals().map(|v| bits[v as usize]).collect();
                    lane.h2d(shard.ranks, &local);
                    // Single-shot semantics: the restore span opens at the
                    // run's time zero, upload included.
                    lane.event(Track::Ckpt, "resume", 0, || {
                        vec![
                            ("iteration", ck.iteration.into()),
                            ("words", ck.payload_words().into()),
                            ("kind", ck.state.kind().into()),
                        ]
                    });
                }
            }
            lane.h2d(shard.next_ranks, &vec![0f32.to_bits(); local_n as usize]);
            lane.h2d(shard.queue.count, &[0]);
            shard.dg.prefetch(lane.dev, lane.now());
            if local_n > 0 {
                // Static UDC: all vertices cut once, the queue reused every
                // iteration — and recomputed identically whether fresh or
                // resumed, so a snapshot never needs to carry it.
                let udc = StaticUdcKernel {
                    n: local_n,
                    row_offsets: shard.dg.row_offsets,
                    out: shard.queue,
                    k,
                };
                lane.launch(&udc, local_n)?;
                let len = lane.timed(|dev, now| shard.queue.read_count(dev, now));
                debug_assert_eq!(len, shard.shadows, "queue holds every owned shadow");
            }
        }
        Ok(members)
    }

    /// All-active: every member sweeps every owned vertex each iteration.
    fn active(&self, (view, _): &Member<'a>, done: u32) -> Option<u32> {
        (done < self.cfg.iterations).then(|| view.own_len())
    }

    /// The full local edge array, so regions escalate to streaming from the
    /// first boundary (prefetch is provably right for a dense sweep).
    fn announce(&self, (_, shard): &Member<'a>, _dev: &Device) -> Option<u64> {
        Some(shard.dg.m as u64 * 4)
    }

    fn compute(&self, (_, shard): &mut Member<'a>, lane: &mut Lane<'_>, _: u32) -> Sharded<()> {
        let (shard, eta) = (*shard, &self.cfg.eta);
        if shard.dg.n == 0 {
            return Ok(());
        }
        let contrib = ContribKernel {
            n: shard.dg.n,
            row_offsets: shard.dg.row_offsets,
            ranks: shard.ranks,
            contrib: shard.contrib,
        };
        lane.launch(&contrib, shard.dg.n)?;
        let scatter = ScatterKernel {
            smp: eta.smp,
            k: eta.k,
            queue: shard.queue,
            len: shard.shadows,
            col_idx: shard.dg.col_idx,
            contrib: shard.contrib,
            next_ranks: shard.next_ranks,
        };
        lane.launch(&scatter, shard.shadows)
    }

    fn collect(&self, _: &mut [Member<'a>], _: &Group<'_>, send: SendFn<'_>) {
        for &(from, to, messages) in &self.cross {
            send(from, to, messages);
        }
    }

    fn commit(&self, members: &mut [Member<'a>], g: &mut Group<'_>) -> Sharded<()> {
        let (n, damping) = (self.vertices() as f32, self.cfg.damping);
        // Dangling mass and base term, folded host-side in ascending global
        // vertex order from the rank snapshot (observer arithmetic: the
        // scalar a real implementation computes with a tiny reduction).
        let mut dangling = 0f32;
        let rows = self.csr.row_offsets.windows(2);
        for (row, bits) in rows.zip(owned(members, g, |shard| shard.ranks)) {
            if row[0] == row[1] {
                dangling += f32::from_bits(bits);
            }
        }
        let base = (1.0 - damping) / n + damping * dangling / n;

        // Replay every contribution at its owner in global scatter order and
        // write the folded sums over the device partials — the modeled
        // equivalent of shipping `(dst, contrib)` pairs over the fabric and
        // merging them in a canonical order.
        if !self.inedges.is_empty() {
            let contrib = owned(members, g, |shard| shard.contrib);
            for ((view, shard), dev) in members.iter().zip(g.devs.iter_mut()) {
                let sum = |v: u32| {
                    let sources = self.inedges.of(v).iter();
                    let shares = sources.map(|&u| f32::from_bits(contrib[u as usize]));
                    shares.fold(0f32, |acc, share| acc + share).to_bits()
                };
                let sums: Vec<u32> = (view.lo..view.hi).map(sum).collect();
                dev.mem.host_write(shard.next_ranks, 0, &sums);
            }
        }

        for ((_, shard), mut lane) in members.iter().zip(g.lanes()) {
            if shard.dg.n > 0 {
                let apply = ApplyKernel {
                    n: shard.dg.n,
                    ranks: shard.ranks,
                    next_ranks: shard.next_ranks,
                    base,
                    damping,
                };
                lane.launch(&apply, shard.dg.n)?;
            }
        }
        Ok(())
    }

    fn snapshot(&self, members: &[Member<'a>], g: &mut Group<'_>) -> Sharded<CkptState> {
        let ranks_bits = read_ranks(members, g)?;
        Ok(CkptState::PageRank { ranks_bits })
    }

    fn finish(self, members: Vec<Member<'a>>, g: &mut Group<'_>) -> Sharded<Vec<f32>> {
        let ranks = read_ranks(&members, g)?;
        Ok(ranks.into_iter().map(f32::from_bits).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransferMode;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_graph::reference;
    use eta_sim::GpuConfig;

    fn device() -> Device {
        Device::new(GpuConfig::default_preset())
    }

    fn max_abs_diff(a: &[f32], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x as f64 - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn pagerank_matches_f64_reference() {
        let g = rmat(&RmatConfig::paper(10, 15_000, 31));
        let cfg = PageRankConfig::default();
        let mut dev = device();
        let r = run(&mut dev, &g, &cfg).unwrap();
        let expect = reference::pagerank(&g, 0.85, 20);
        let err = max_abs_diff(&r.ranks, &expect);
        assert!(err < 1e-5, "f32 GPU vs f64 host diverged: {err}");
        let total: f32 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "mass {total}");
    }

    #[test]
    fn smp_does_not_change_ranks_but_cuts_transactions() {
        let g = rmat(&RmatConfig::paper(12, 120_000, 8));
        let with_cfg = PageRankConfig {
            iterations: 5,
            ..Default::default()
        };
        let mut without_cfg = with_cfg;
        without_cfg.eta.smp = false;

        let mut dev = device();
        let with = run(&mut dev, &g, &with_cfg).unwrap();
        let mut dev = device();
        let without = run(&mut dev, &g, &without_cfg).unwrap();
        let drift = with
            .ranks
            .iter()
            .zip(&without.ranks)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(drift < 1e-6, "SMP changed ranks by {drift}");
        assert!(
            (with.metrics.l1_requests as f64) < 0.9 * without.metrics.l1_requests as f64,
            "SMP applies to PageRank too: {} vs {}",
            with.metrics.l1_requests,
            without.metrics.l1_requests
        );
    }

    #[test]
    fn resumed_pagerank_is_bit_identical() {
        let g = rmat(&RmatConfig::paper(10, 15_000, 31));
        let cfg = PageRankConfig::default();
        let digest = g.digest();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut dev = device();
        let clean = run(&mut dev, &g, &cfg).unwrap();

        let mut dev2 = device();
        let mut sink = eta_ckpt::CkptSink::every(7);
        let ckd = run_ckpt(&mut dev2, &g, &cfg, CkptCtl::with_sink(&mut sink, digest)).unwrap();
        assert_eq!(
            bits(&ckd.ranks),
            bits(&clean.ranks),
            "checkpointing is result-inert"
        );
        let ck = sink.take().unwrap();
        assert_eq!(ck.iteration, 14, "snapshots at 7 and 14 of 20, keep last");

        let mut dev3 = device();
        let mut sink3 = eta_ckpt::CkptSink::default();
        let resumed = run_ckpt(
            &mut dev3,
            &g,
            &cfg,
            CkptCtl::resuming(&mut sink3, &ck, digest),
        )
        .unwrap();
        assert_eq!(
            bits(&resumed.ranks),
            bits(&clean.ranks),
            "resume replays the remaining iterations bit-for-bit"
        );
        assert_eq!(resumed.iterations, clean.iterations);
    }

    #[test]
    fn uniform_cycle_ranks_uniformly() {
        let n = 64u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Csr::from_edges(n as usize, &edges);
        let mut dev = device();
        let r = run(&mut dev, &g, &PageRankConfig::default()).unwrap();
        for &rank in &r.ranks {
            assert!((rank - 1.0 / n as f32).abs() < 1e-6);
        }
    }

    #[test]
    fn dangling_vertices_keep_mass_conserved() {
        // Half the vertices have no out-edges.
        let edges: Vec<(u32, u32)> = (0..32u32).map(|i| (i, 32 + i)).collect();
        let g = Csr::from_edges(64, &edges);
        let mut dev = device();
        let r = run(&mut dev, &g, &PageRankConfig::default()).unwrap();
        let total: f32 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "mass {total}");
        let expect = reference::pagerank(&g, 0.85, 20);
        assert!(max_abs_diff(&r.ranks, &expect) < 1e-5);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        let mut dev = device();
        let r = run(&mut dev, &g, &PageRankConfig::default()).unwrap();
        assert!(r.ranks.is_empty());
    }

    #[test]
    fn unified_memory_modes_agree() {
        let g = rmat(&RmatConfig::paper(9, 6_000, 3));
        let mut results = Vec::new();
        for transfer in [
            TransferMode::UnifiedPrefetch,
            TransferMode::Unified,
            TransferMode::ExplicitCopy,
        ] {
            let mut cfg = PageRankConfig::default();
            cfg.eta.transfer = transfer;
            cfg.iterations = 8;
            let mut dev = device();
            results.push(run(&mut dev, &g, &cfg).unwrap().ranks);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }
}
