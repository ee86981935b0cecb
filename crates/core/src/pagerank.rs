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
use crate::config::EtaConfig;
use crate::device_graph::DeviceGraph;
use crate::driver::{drive, owner, Group, Lane, Program, ShardView};
use crate::error::QueryError;
use crate::sharded::Sharded;
use crate::udc::shadow_count_graph;
use eta_ckpt::{Checkpoint, CkptCtl, CkptError, CkptState};
use eta_graph::Csr;
use eta_mem::system::{DSlice, MemError};
use eta_mem::Ns;
use eta_prof::Track;
use eta_sim::{Device, Kernel, KernelMetrics, WarpCtx, WARP_SIZE};

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
        let start = w.load(self.row_offsets, &tids, mask);
        let mut v1 = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            v1[lane] = tids[lane].wrapping_add(1);
        }
        let end = w.load(self.row_offsets, &v1, mask);
        w.alu(2);
        let mut parts = [0u32; WARP_SIZE];
        let mut any = 0u32;
        let mut max_p = 0u32;
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                let deg = end[lane] - start[lane];
                parts[lane] = deg.div_ceil(self.k);
                if parts[lane] > 0 {
                    any |= 1 << lane;
                    max_p = max_p.max(parts[lane]);
                }
            }
        }
        if any == 0 {
            return;
        }
        let base = w.atomic_add(self.out.count, &[0; WARP_SIZE], &parts, any);
        for p in 0..max_p {
            let mut row = 0u32;
            let mut pos = [0u32; WARP_SIZE];
            let mut s = [0u32; WARP_SIZE];
            let mut e = [0u32; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                if (any >> lane) & 1 == 1 && p < parts[lane] {
                    row |= 1 << lane;
                    pos[lane] = base[lane] + p;
                    s[lane] = start[lane] + p * self.k;
                    e[lane] = (s[lane] + self.k).min(end[lane]);
                }
            }
            w.alu(1);
            w.store(self.out.ids, &pos, &tids, row);
            w.store(self.out.starts, &pos, &s, row);
            w.store(self.out.ends, &pos, &e, row);
        }
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
        let lo = w.load(self.row_offsets, &tids, mask);
        let mut v1 = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            v1[lane] = tids[lane].wrapping_add(1);
        }
        let hi = w.load(self.row_offsets, &v1, mask);
        let rank = w.load(self.ranks, &tids, mask);
        w.alu(2);
        let mut out = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                let deg = hi[lane] - lo[lane];
                let share = if deg == 0 {
                    0.0
                } else {
                    f32::from_bits(rank[lane]) / deg as f32
                };
                out[lane] = share.to_bits();
            }
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
    pub(crate) threads_per_block: u32,
}

impl Kernel for ScatterKernel {
    fn name(&self) -> &'static str {
        "pagerank_scatter"
    }

    fn shared_words_per_block(&self, threads_per_block: u32) -> u64 {
        if self.smp {
            threads_per_block as u64 * self.k as u64
        } else {
            0
        }
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
        let mut deg = [0u32; WARP_SIZE];
        let mut max_deg = 0u32;
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                deg[lane] = end[lane] - start[lane];
                max_deg = max_deg.max(deg[lane]);
            }
        }
        if max_deg == 0 {
            return;
        }

        let scatter = |w: &mut WarpCtx<'_>, dst: &[u32; WARP_SIZE], row: u32| {
            let mut val = [0f32; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                if (row >> lane) & 1 == 1 {
                    val[lane] = f32::from_bits(share_bits[lane]);
                }
            }
            w.atomic_add_f32(self.next_ranks, dst, &val, row);
        };

        if self.smp {
            let tpb = self.threads_per_block;
            let mut slot_base = [0u32; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                slot_base[lane] = (tids[lane] % tpb) * self.k;
            }
            let rows = w.load_burst(self.col_idx, &start, &deg, mask);
            for j in 0..rows.rows() {
                let mut row = 0u32;
                let mut slots = [0u32; WARP_SIZE];
                for lane in 0..WARP_SIZE {
                    if (mask >> lane) & 1 == 1 && j < deg[lane] {
                        row |= 1 << lane;
                        slots[lane] = slot_base[lane] + j;
                    }
                }
                let row_vals = w.burst_row(rows, j);
                w.store_shared(&slots, &row_vals, row);
            }
            for j in 0..max_deg {
                let mut row = 0u32;
                let mut slots = [0u32; WARP_SIZE];
                for lane in 0..WARP_SIZE {
                    if (mask >> lane) & 1 == 1 && j < deg[lane] {
                        row |= 1 << lane;
                        slots[lane] = slot_base[lane] + j;
                    }
                }
                if row == 0 {
                    continue;
                }
                let dst = w.load_shared(&slots, row);
                scatter(w, &dst, row);
            }
        } else {
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
                scatter(w, &dst, row);
            }
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
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 {
                new[lane] = (self.base + self.damping * f32::from_bits(nx[lane])).to_bits();
            }
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
    dg: DeviceGraph,
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
            dev.mem.free_explicit(s);
        }
        self.queue.release(dev);
    }
}

/// Per-destination replay entries: for global vertex `v`, the source of
/// every in-edge in the order the single-device scatter applies them.
type Inedges = Vec<Vec<u32>>;

/// What a group of more than one exchanges. The single-device scatter
/// applies `next[dst] += contrib[src]` in a total order fixed by the
/// simulator: blocks and warps run serially in index order, and within a
/// warp's unrolled edge loop lanes apply in lane order at each step `j`. For
/// the shadow at global queue slot `g` that is the key `(g/32, j, g%32)`.
/// Because the static-UDC queue is sorted by vertex id and halo rows cut
/// zero shadows, each shard's local queue is a contiguous slice of the
/// global one — so every message can carry its global key, and the owner
/// can re-apply all of them (local and remote) in the exact global order.
///
/// Also returns the `(from, to, messages)` batches of one superstep,
/// ascending: every edge into another member's range ships one message.
fn plan_exchange(
    csr: &Csr,
    k: u32,
    views: &[ShardView<'_>],
) -> (Inedges, Vec<(usize, usize, u64)>) {
    let mut keyed: Vec<Vec<(u32, u32, u32, u32)>> = vec![Vec::new(); csr.n()];
    let mut counts = vec![vec![0u64; views.len()]; views.len()];
    let mut g = 0u32;
    for (u, row) in csr.row_offsets.windows(2).enumerate() {
        let from = owner(views, u as u32);
        for shadow in csr.col_idx[row[0] as usize..row[1] as usize].chunks(k as usize) {
            for (j, &dst) in shadow.iter().enumerate() {
                keyed[dst as usize].push((g / 32, j as u32, g % 32, u as u32));
                counts[from][owner(views, dst)] += 1;
            }
            g += 1;
        }
    }
    let inedges = keyed.into_iter().map(|mut list| {
        list.sort_unstable_by_key(|&(w, j, l, _)| (w, j, l));
        list.into_iter().map(|(.., u)| u).collect()
    });
    let batches = counts.iter().enumerate().flat_map(|(from, row)| {
        let remote = row
            .iter()
            .enumerate()
            .filter(move |&(to, &c)| to != from && c > 0);
        remote.map(move |(to, &c)| (from, to, c))
    });
    (inedges.collect(), batches.collect())
}

/// PageRank as a driver program over a group of >= 1.
pub(crate) struct Ranking<'a> {
    cfg: &'a PageRankConfig,
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
        csr: &Csr,
        views: &'a [ShardView<'a>],
        shards: &'a [RankShard],
    ) -> Self {
        let (inedges, cross) = match views.len() {
            1 => Default::default(),
            _ => plan_exchange(csr, cfg.eta.k, views),
        };
        Ranking {
            cfg,
            views,
            shards,
            inedges,
            cross,
        }
    }

    /// Every member's owned words of one per-vertex array, concatenated
    /// into global vertex order (observer-side).
    fn owned<'g>(
        &'g self,
        g: &'g Group<'_>,
        array: impl Fn(&RankShard) -> DSlice + 'g,
    ) -> impl Iterator<Item = u32> + 'g {
        let members = self.views.iter().zip(self.shards).enumerate();
        members.flat_map(move |(s, (view, shard))| {
            let words = g.devs[s]
                .mem
                .host_read(array(shard), 0, view.own_len() as u64);
            words.iter().copied()
        })
    }

    /// Charged readback of every member's owned ranks, in global order —
    /// a snapshot and the final result are the same copy.
    fn read_ranks(&self, g: &mut Group<'_>) -> Sharded<Vec<u32>> {
        for (s, (view, shard)) in self.views.iter().zip(self.shards).enumerate() {
            let lane = &mut g.lane(s);
            lane.d2h(shard.ranks, view.own_len() as u64);
            lane.poll()?;
        }
        Ok(self.owned(g, |shard| shard.ranks).collect())
    }
}

impl Program for Ranking<'_> {
    type Output = Vec<f32>;

    fn vertices(&self) -> u32 {
        self.views.last().map_or(0, |v| v.hi)
    }

    fn init(&mut self, g: &mut Group<'_>, resume: Option<&Checkpoint>) -> Sharded<()> {
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
        for (s, (view, shard)) in self.views.iter().zip(self.shards).enumerate() {
            let (local_n, lane) = (shard.dg.n, &mut g.lane(s));
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
        Ok(())
    }

    /// All-active: every member sweeps every owned vertex each iteration.
    fn active(&self, s: usize, done: u32) -> Option<u32> {
        (done < self.cfg.iterations).then(|| self.views[s].own_len())
    }

    /// The full local edge array, so regions escalate to streaming from the
    /// first boundary (prefetch is provably right for a dense sweep).
    fn announce(&self, _dev: &Device, s: usize) -> Option<u64> {
        Some(self.shards[s].dg.m as u64 * 4)
    }

    fn compute(&mut self, lane: &mut Lane<'_>, _step: u32) -> Sharded<()> {
        let (shard, eta) = (&self.shards[lane.member], &self.cfg.eta);
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
            threads_per_block: eta.threads_per_block,
        };
        lane.launch(&scatter, shard.shadows)
    }

    fn collect(&mut self, _g: &Group<'_>, send: &mut dyn FnMut(usize, usize, u64)) {
        for &(from, to, messages) in &self.cross {
            send(from, to, messages);
        }
    }

    fn commit(&mut self, g: &mut Group<'_>) -> Sharded<()> {
        let (n, damping) = (self.vertices() as f32, self.cfg.damping);
        // Dangling mass and base term, folded host-side in ascending global
        // vertex order from the rank snapshot (observer arithmetic: the
        // scalar a real implementation computes with a tiny reduction).
        let mut dangling = 0f32;
        for (s, (view, shard)) in self.views.iter().zip(self.shards).enumerate() {
            let ranks = g.devs[s]
                .mem
                .host_read(shard.ranks, 0, view.own_len() as u64);
            for (row, &bits) in view.csr.row_offsets.windows(2).zip(ranks) {
                if row[0] == row[1] {
                    dangling += f32::from_bits(bits);
                }
            }
        }
        let base = (1.0 - damping) / n + damping * dangling / n;

        // Replay every contribution at its owner in global scatter order and
        // write the folded sums over the device partials — the modeled
        // equivalent of shipping `(dst, contrib)` pairs over the fabric and
        // merging them in a canonical order.
        if !self.inedges.is_empty() {
            let contrib: Vec<u32> = self.owned(g, |shard| shard.contrib).collect();
            for (o, (view, shard)) in self.views.iter().zip(self.shards).enumerate() {
                let sum = |sources: &Vec<u32>| {
                    let shares = sources.iter().map(|&u| f32::from_bits(contrib[u as usize]));
                    shares.fold(0f32, |acc, share| acc + share).to_bits()
                };
                let owned = &self.inedges[view.lo as usize..view.hi as usize];
                let sums: Vec<u32> = owned.iter().map(sum).collect();
                g.devs[o].mem.host_write(shard.next_ranks, 0, &sums);
            }
        }

        for (s, shard) in self.shards.iter().enumerate().filter(|(_, sh)| sh.dg.n > 0) {
            let apply = ApplyKernel {
                n: shard.dg.n,
                ranks: shard.ranks,
                next_ranks: shard.next_ranks,
                base,
                damping,
            };
            g.lane(s).launch(&apply, shard.dg.n)?;
        }
        Ok(())
    }

    fn snapshot(&mut self, g: &mut Group<'_>) -> Sharded<CkptState> {
        let ranks_bits = self.read_ranks(g)?;
        Ok(CkptState::PageRank { ranks_bits })
    }

    fn finish(self, g: &mut Group<'_>) -> Sharded<Vec<f32>> {
        Ok(self
            .read_ranks(g)?
            .into_iter()
            .map(f32::from_bits)
            .collect())
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
