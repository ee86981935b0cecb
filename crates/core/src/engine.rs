//! The label-traversal engine: BFS / SSSP / SSWP / CC as a program of
//! the superstep driver (`crate::driver`, walked through in DESIGN.md's
//! "Superstep driver"), plus the device resources a traversal runs on.
//! [`run`] and [`run_query_ckpt`] run a query on one device — a group of
//! one — and `sharded::run_sharded` runs the same program on a device group.
//!
//! Two variants are keyed on what [`prepare`] built, not on who calls: a
//! [`UdcMode::OutOfCore`] table replaces the on-the-fly UDC with a
//! pre-materialized shadow table (§III-A's rejected alternative), and a
//! transposed graph lets BFS supersteps whose frontier spans a large
//! fraction of the edges pull instead of push (`direction_optimizing`).

use crate::active_set::{DeviceQueue, VirtualQueue, WorkQueues};
use crate::config::{Algorithm, EtaConfig, UdcMode};
use crate::device_graph::DeviceGraph;
use crate::driver::{drive, owner, Frontier, Group, Lane, Program, ShardView};
use crate::error::{check_source, QueryError};
use crate::kernels::{PullBfsKernel, TraversalKernel};
use crate::result::{IterationStats, RunResult};
use crate::sharded::Sharded;
use crate::udc::ShadowTable;
use eta_ckpt::{Checkpoint, CkptCtl, CkptError, CkptState};
use eta_graph::Csr;
use eta_mem::system::{DSlice, MemError};
use eta_mem::Ns;
use eta_prof::Track;
use eta_sim::Device;

/// Device-resident out-of-core shadow table.
pub(crate) struct DeviceShadowTable {
    pub(crate) ids: DSlice,
    pub(crate) starts: DSlice,
    pub(crate) ends: DSlice,
    pub(crate) vertex_range: DSlice,
}

/// Pull when `frontier_out_edges * PULL_ALPHA > |E|` (Beamer's alpha).
const PULL_ALPHA: u64 = 20;

/// Everything a traversal needs on the device besides per-query label
/// state: topology, work queues, and the optional out-of-core table /
/// transposed graph. Built once by [`prepare`], reusable across queries
/// (see [`crate::session::Session`]).
pub struct QueryResources {
    pub(crate) dg: DeviceGraph,
    /// Transposed topology for pull iterations.
    pub(crate) pull: Option<DeviceGraph>,
    pub(crate) labels: DSlice,
    pub(crate) tags: DSlice,
    pub(crate) queues: WorkQueues,
    pub(crate) shadow_table: Option<DeviceShadowTable>,
}

impl QueryResources {
    /// The resident topology these resources were prepared for.
    pub fn device_graph(&self) -> &DeviceGraph {
        &self.dg
    }

    /// Returns every explicit allocation's capacity to the device and drops
    /// unified residency, so another graph can take this one's place (the
    /// serving layer's eviction path). The bump storage itself is not
    /// reclaimed — see [`eta_mem::system::MemSystem::free_explicit`].
    pub fn release(self, dev: &mut Device) {
        self.dg.release(dev);
        if let Some(pg) = self.pull {
            pg.release(dev);
        }
        dev.mem.free_explicit(self.labels);
        dev.mem.free_explicit(self.tags);
        self.queues.release(dev);
        if let Some(t) = self.shadow_table {
            for s in [t.ids, t.starts, t.ends, t.vertex_range] {
                dev.mem.free_explicit(s);
            }
        }
    }
}

/// Uploads the topology and allocates every reusable device structure.
/// Returns the resources and the time at which synchronous setup completed.
pub fn prepare(
    dev: &mut Device,
    csr: &Csr,
    cfg: &EtaConfig,
    enable_pull: bool,
) -> Result<(QueryResources, eta_mem::Ns), MemError> {
    let n = csr.n() as u32;
    let m = csr.m() as u64;
    let (dg, mut now) = DeviceGraph::upload(dev, csr, cfg.transfer, 0)?;

    // Direction-optimizing BFS additionally needs the transposed topology.
    let pull = if enable_pull && cfg.direction_optimizing && m > 0 {
        let transposed = csr.transpose();
        let (tg, end) = DeviceGraph::upload(dev, &transposed, cfg.transfer, now)?;
        now = end;
        tg.prefetch(dev, now);
        Some(tg)
    } else {
        None
    };

    let labels = dev.mem.alloc_explicit(n as u64)?;
    let tags = dev.mem.alloc_explicit(n as u64)?;

    // Work queues. In-core UDC bounds the full queue by |E|/K and the tail
    // queue by |V|; the out-of-core table needs capacity for every shadow of
    // the graph at once — part of its extra-memory cost.
    let (queues, shadow_table) = match cfg.udc {
        UdcMode::InCore => {
            let full_cap = WorkQueues::full_capacity(dg.m, cfg.k);
            (WorkQueues::alloc(dev, n, full_cap, n)?, None)
        }
        UdcMode::OutOfCore => {
            let (act, next) = (DeviceQueue::alloc(dev, n)?, DeviceQueue::alloc(dev, n)?);
            let table = ShadowTable::build(csr, cfg.k);
            let n_shadows = table.len() as u32;
            let ids = dev.mem.alloc_explicit(n_shadows.max(1) as u64)?;
            let starts = dev.mem.alloc_explicit(n_shadows.max(1) as u64)?;
            let ends = dev.mem.alloc_explicit(n_shadows.max(1) as u64)?;
            let vertex_range = dev.mem.alloc_explicit(n as u64 + 1)?;
            // The table must be shipped to the device — the loading cost
            // §III-A says in-core UDC avoids.
            if n_shadows > 0 {
                now = dev.mem.copy_h2d(ids, 0, &table.ids, now);
                now = dev.mem.copy_h2d(starts, 0, &table.starts, now);
                now = dev.mem.copy_h2d(ends, 0, &table.ends, now);
            }
            now = dev.mem.copy_h2d(vertex_range, 0, &table.vertex_range, now);
            // A single mixed-degree queue in the `full` slot; no tails.
            let full = VirtualQueue::alloc(dev, n_shadows.max(1))?;
            let partial = VirtualQueue::alloc(dev, 1)?;
            let table = DeviceShadowTable {
                ids,
                starts,
                ends,
                vertex_range,
            };
            let queues = WorkQueues {
                act,
                next,
                full,
                partial,
            };
            (queues, Some(table))
        }
    };
    let res = QueryResources {
        dg,
        pull,
        labels,
        tags,
        queues,
        shadow_table,
    };
    Ok((res, now))
}

/// Runs one traversal on a fresh device state.
///
/// `csr` must carry weights when `alg` needs them. Returns
/// [`QueryError::SourceOutOfRange`] for a source id that is not a vertex,
/// and [`QueryError::Mem`] when the configured transfer mode requires
/// explicit device allocations that do not fit (the "w/o UM" ablation on
/// uk-2006).
pub fn run(
    dev: &mut Device,
    csr: &Csr,
    source: u32,
    alg: Algorithm,
    cfg: &EtaConfig,
) -> Result<RunResult, QueryError> {
    check_source(source, csr.n())?;
    let (res, ready) = prepare(dev, csr, cfg, alg == Algorithm::Bfs)?;
    // Single-shot semantics: preparation (upload, table copies) is part of
    // the measured total, so the query "starts" at time zero.
    run_query_ckpt(dev, &res, csr, source, alg, cfg, 0, ready, CkptCtl::off())
}

/// Runs one query on already-prepared resources, as a group of one.
///
/// `query_start` anchors the measured total and the timeline filter;
/// `ready_ns` is when the resources become usable (per-query work begins at
/// the later of the two). Per-query state (labels, tags, frontier seed) is
/// re-initialized and charged; the topology and work queues of `res` are
/// reused, so a warm query on a [`crate::session::Session`] skips the
/// upload entirely. `ckpt` is the driver's checkpoint hook: `CkptCtl::off()`
/// for a plain run, a sink to snapshot into, a snapshot to resume from.
#[allow(clippy::too_many_arguments)]
pub fn run_query_ckpt(
    dev: &mut Device,
    res: &QueryResources,
    csr: &Csr,
    source: u32,
    alg: Algorithm,
    cfg: &EtaConfig,
    query_start: Ns,
    ready_ns: Ns,
    ckpt: CkptCtl<'_>,
) -> Result<RunResult, QueryError> {
    let views = [ShardView::whole(csr, res.dg.n)];
    let prog = Traversal::new(alg, source, cfg, &views, std::slice::from_ref(res));
    check_source(source, csr.n())?;
    let ready = vec![query_start.max(ready_ns)];
    let group = &mut Group::new(std::slice::from_mut(dev), ready, cfg);
    let (run, (labels, per_iteration)) = drive(group, None, prog, ckpt).map_err(|e| e.error)?;
    Ok(group.solo_result(alg, labels, run.steps, per_iteration, query_start))
}

/// What the owner initializes global vertex `v` to — also the right
/// initial value for every halo replica, so senders never ship a label the
/// owner already has.
fn global_init_label(alg: Algorithm, source: u32, v: u32) -> u32 {
    if alg.all_active() {
        v
    } else if v == source {
        alg.source_label()
    } else {
        alg.init_label()
    }
}

/// Whether `new` beats `old` under the algorithm's merge order.
fn improves(alg: Algorithm, new: u32, old: u32) -> bool {
    if alg == Algorithm::Sswp {
        new > old
    } else {
        new < old
    }
}

/// One group member of a label traversal.
struct Member<'a> {
    view: ShardView<'a>,
    res: &'a QueryResources,
    frontier: Frontier,
    /// Last label shipped per halo slot; suppresses unimproved resends.
    last_sent: Vec<u32>,
    /// This superstep's `(global vertex, label)` messages in halo order.
    /// Halo ids ascend and owners hold contiguous ranges, so every owner's
    /// batch is one contiguous run of it.
    outbox: Vec<(u32, u32)>,
}

impl Member<'_> {
    /// Out-edges of the frontier's vertices (observer-side degree sum; real
    /// implementations track it while building the frontier).
    fn frontier_edges(&self, dev: &Device) -> u64 {
        let offsets = &self.view.csr.row_offsets;
        let degree = |&v: &u32| (offsets[v as usize + 1] - offsets[v as usize]) as u64;
        self.frontier.items(dev).iter().map(degree).sum()
    }

    /// The run of the outbox addressed to `owner`'s range.
    fn batch_for(&self, owner: &ShardView<'_>) -> &[(u32, u32)] {
        let from = self.outbox.partition_point(|msg| msg.0 < owner.lo);
        let to = self.outbox.partition_point(|msg| msg.0 < owner.hi);
        &self.outbox[from..to]
    }
}

/// Label traversal (BFS / SSSP / SSWP / CC) as a driver program. Labels,
/// tags and the frontier in queue order are the complete per-query state
/// (the virtual queues are rebuilt from the frontier every superstep), which
/// is what a snapshot holds — merged over the global vertex space, so one
/// taken on any group shape resumes on any other.
pub(crate) struct Traversal<'a> {
    alg: Algorithm,
    source: u32,
    cfg: &'a EtaConfig,
    views: &'a [ShardView<'a>],
    members: Vec<Member<'a>>,
    /// Filled for a group of one only (it is part of that event shape).
    per_iteration: Vec<IterationStats>,
}

impl<'a> Traversal<'a> {
    /// `resources[s]` must have been prepared for `views[s].csr`.
    pub fn new(
        alg: Algorithm,
        source: u32,
        cfg: &'a EtaConfig,
        views: &'a [ShardView<'a>],
        resources: &'a [QueryResources],
    ) -> Self {
        assert!(
            !alg.needs_weights() || views.iter().all(|v| v.csr.is_weighted()),
            "{} needs an edge-weighted graph",
            alg.name()
        );
        let member = |(&view, res): (&ShardView<'a>, &'a QueryResources)| Member {
            view,
            res,
            frontier: Frontier {
                q: res.queues,
                len: 0,
            },
            last_sent: Vec::new(),
            outbox: Vec::new(),
        };
        Traversal {
            alg,
            source,
            cfg,
            views,
            members: views.iter().zip(resources).map(member).collect(),
            per_iteration: Vec::new(),
        }
    }

    fn solo(&self) -> bool {
        self.views.len() == 1
    }
}

impl Program for Traversal<'_> {
    /// Global per-vertex labels (the owned ranges, concatenated) and the
    /// per-iteration statistics.
    type Output = (Vec<u32>, Vec<IterationStats>);

    fn vertices(&self) -> u32 {
        self.views.last().map_or(0, |v| v.hi)
    }

    fn init(&mut self, g: &mut Group<'_>, resume: Option<&Checkpoint>) -> Sharded<()> {
        let (alg, source, solo, n) = (self.alg, self.source, self.solo(), self.vertices());
        let restored = match resume.map(|ck| &ck.state) {
            None => None,
            Some(CkptState::SingleSource {
                source: s,
                labels,
                tags,
                frontier,
            }) if *s == source && labels.len() == n as usize && tags.len() == n as usize => {
                Some((labels, tags, frontier))
            }
            Some(_) => return Err(CkptError::StateShape.into()),
        };
        for (s, m) in self.members.iter_mut().enumerate() {
            let (view, owned) = (m.view, m.view.lo..m.view.hi);
            // "Init label and transfer to GPU": one local-size copy each for
            // labels and tags, halo replicas included. Fresh, the source
            // seeds its owner's frontier — and connected components is
            // all-active: every owned vertex, carrying its own id.
            let (local, local_tags, seeds): (Vec<u32>, Vec<u32>, Vec<u32>) = match restored {
                Some((labels, tags, frontier)) => {
                    let mut tags = tags[view.lo as usize..view.hi as usize].to_vec();
                    tags.resize(view.globals().count(), 0);
                    let mine = frontier.iter().filter(|v| owned.contains(v));
                    let labels = view.globals().map(|v| labels[v as usize]);
                    (labels.collect(), tags, mine.map(|v| v - view.lo).collect())
                }
                None => {
                    let labels = view.globals().map(|v| global_init_label(alg, source, v));
                    let seeds = if alg.all_active() {
                        (0..view.own_len()).collect()
                    } else if owned.contains(&source) {
                        vec![source - view.lo]
                    } else {
                        Vec::new()
                    };
                    (labels.collect(), vec![0; view.globals().count()], seeds)
                }
            };

            let lane = &mut g.lane(s);
            let start = lane.now();
            lane.h2d(m.res.labels, &local);
            lane.h2d(m.res.tags, &local_tags);
            m.frontier.seed(lane, &seeds);
            // Procedure 1: `cudaMemPrefetchAsync(CSR)` after the label
            // transfer. Idempotent on warm sessions.
            m.res.dg.prefetch(lane.dev, lane.now());
            if let Some(ck) = resume {
                lane.event(Track::Ckpt, "resume", start, || {
                    let mut args = vec![("iteration", ck.iteration.into())];
                    if solo {
                        args.push(("words", ck.payload_words().into()));
                        args.push(("kind", ck.state.kind().into()));
                    } else {
                        args.push(("shard", (s as u32).into()));
                        args.push(("frontier", m.frontier.len.into()));
                    }
                    args
                });
            }
            m.last_sent = local[view.own_len() as usize..].to_vec();
            if solo {
                lane.watch(&local, alg.init_label());
            }
        }
        Ok(())
    }

    fn active(&self, s: usize, _done: u32) -> Option<u32> {
        Some(self.members[s].frontier.len).filter(|&len| len > 0)
    }

    fn announce(&self, dev: &Device, s: usize) -> Option<u64> {
        Some(self.members[s].frontier_edges(dev) * 4)
    }

    fn compute(&mut self, lane: &mut Lane<'_>, step: u32) -> Sharded<()> {
        let (alg, cfg, solo) = (self.alg, self.cfg, self.solo());
        let m = &mut self.members[lane.member];
        let (res, active, start_ns) = (m.res, m.frontier.len, lane.now());
        let next = m.frontier.q.next;
        let pull = res.pull.as_ref().filter(|_| {
            alg == Algorithm::Bfs && m.frontier_edges(lane.dev) * PULL_ALPHA > res.dg.m as u64
        });
        let (nf, np) = if let Some(pg) = pull {
            lane.h2d(next.count, &[0]);
            let kern = PullBfsKernel {
                n: res.dg.n,
                t_row_offsets: pg.row_offsets,
                t_col_idx: pg.col_idx,
                labels: res.labels,
                next,
                iter: step,
            };
            lane.launch(&kern, res.dg.n)?;
            (0, 0)
        } else {
            let relax = |queue, len| TraversalKernel {
                alg,
                smp: cfg.smp,
                k: cfg.k,
                queue,
                len,
                col_idx: res.dg.col_idx,
                // BFS ignores weights even on a weighted graph.
                weights: res.dg.weights.filter(|_| alg.needs_weights()),
                labels: res.labels,
                tags: res.tags,
                next,
                iter: step,
                threads_per_block: cfg.threads_per_block,
            };
            let table = res.shadow_table.as_ref();
            m.frontier
                .step(lane, res.dg.row_offsets, cfg.k, table, relax)?
        };

        // Observer-only statistics: the tag claim in `relax_row` and the
        // found lanes of the pull kernel append each improved vertex once.
        let visited_total = solo.then(|| lane.visited(next, res.labels));
        let shard = lane.member as u32;
        lane.event(Track::Iteration, alg.name(), start_ns, || {
            let mut args = vec![("iteration", step.into())];
            if !solo {
                args.push(("shard", shard.into()));
            }
            args.push(("active", active.into()));
            args.push(("shadow_full", nf.into()));
            args.push(("shadow_partial", np.into()));
            if let Some(visited_total) = visited_total {
                args.push(("pulled", pull.is_some().into()));
                args.push(("visited_total", visited_total.into()));
            }
            args
        });
        if let Some(visited_total) = visited_total {
            self.per_iteration.push(IterationStats {
                iteration: step,
                active,
                shadow_full: nf,
                shadow_partial: np,
                pulled: pull.is_some(),
                visited_total,
                start_ns,
                end_ns: lane.now(),
            });
        }
        m.frontier.swap_and_count(lane);
        Ok(())
    }

    /// Host-observer work over the pre-merge state of every member (BSP:
    /// messages reflect the superstep just run).
    fn collect(&mut self, g: &Group<'_>, send: &mut dyn FnMut(usize, usize, u64)) {
        let (alg, views) = (self.alg, self.views);
        for (s, m) in self.members.iter_mut().enumerate() {
            m.outbox.clear();
            let labels = g.devs[s].mem.host_read(m.res.labels, 0, m.res.dg.n as u64);
            let replicas = &labels[m.view.own_len() as usize..];
            for ((&gv, &cur), sent) in m.view.halo.iter().zip(replicas).zip(&mut m.last_sent) {
                if improves(alg, cur, *sent) {
                    *sent = cur;
                    m.outbox.push((gv, cur));
                }
            }
            for batch in m
                .outbox
                .chunk_by(|a, b| owner(views, a.0) == owner(views, b.0))
            {
                send(s, owner(views, batch[0].0), batch.len() as u64);
            }
        }
    }

    /// Merges deliveries at their owners in (sender device id, vertex id)
    /// order and appends newly improved owned vertices to the owner's
    /// frontier. Host-observer work, free except for the rebuilt frontier's
    /// 4-byte count update — the same charging as a resume.
    fn commit(&mut self, g: &mut Group<'_>) -> Sharded<()> {
        for (o, view) in self.views.iter().enumerate() {
            let mut inbox = self
                .members
                .iter()
                .flat_map(|m| m.batch_for(view))
                .peekable();
            if inbox.peek().is_none() {
                continue;
            }
            let res = self.members[o].res;
            let mut labels = g.devs[o]
                .mem
                .host_read(res.labels, 0, res.dg.n as u64)
                .to_vec();
            let mut improved: Vec<u32> = Vec::new();
            for &(gv, label) in inbox {
                let local = gv - view.lo;
                if improves(self.alg, label, labels[local as usize]) {
                    labels[local as usize] = label;
                    improved.push(local);
                }
            }
            if improved.is_empty() {
                continue;
            }
            g.devs[o].mem.host_write(res.labels, 0, &labels);
            improved.sort_unstable();
            improved.dedup();
            let frontier = &mut self.members[o].frontier;
            let mut items = frontier.items(&g.devs[o]).to_vec();
            let mut queued = vec![false; labels.len()];
            for &v in &items {
                queued[v as usize] = true;
            }
            let before = items.len();
            items.extend(improved.into_iter().filter(|&v| !queued[v as usize]));
            if items.len() > before {
                frontier.seed(&mut g.lane(o), &items);
            }
        }
        Ok(())
    }

    /// Charged d2h copies of every member's owned labels, tags and
    /// frontier. Halo frontier entries are dropped — their deliveries were
    /// merged into the owners before this runs, so the owned entries are
    /// the complete active set.
    fn snapshot(&mut self, g: &mut Group<'_>) -> Sharded<CkptState> {
        let (mut labels, mut tags, mut frontier) = (Vec::new(), Vec::new(), Vec::new());
        for (s, m) in self.members.iter().enumerate() {
            let (own, items, lane) = (m.view.own_len(), m.frontier.q.act.items, &mut g.lane(s));
            lane.d2h(m.res.labels, own as u64);
            lane.d2h(m.res.tags, own as u64);
            lane.d2h(items, m.frontier.len as u64);
            lane.poll()?;
            labels.extend_from_slice(lane.read(m.res.labels, own as u64));
            tags.extend_from_slice(lane.read(m.res.tags, own as u64));
            let entries = lane.read(items, m.frontier.len as u64).iter();
            frontier.extend(entries.filter(|&&l| l < own).map(|&l| m.view.lo + l));
        }
        Ok(CkptState::SingleSource {
            source: self.source,
            labels,
            tags,
            frontier,
        })
    }

    fn finish(self, g: &mut Group<'_>) -> Sharded<Self::Output> {
        let mut labels = Vec::with_capacity(self.vertices() as usize);
        for (s, m) in self.members.iter().enumerate() {
            let (own, lane) = (m.view.own_len() as u64, &mut g.lane(s));
            labels.extend_from_slice(lane.readback(m.res.labels, own)?);
        }
        Ok((labels, self.per_iteration))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransferMode;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_graph::{reference, INF};
    use eta_sim::GpuConfig;

    fn device() -> Device {
        Device::new(GpuConfig::default_preset())
    }

    fn test_graph() -> Csr {
        rmat(&RmatConfig::paper(11, 30_000, 17)).with_random_weights(9, 32)
    }

    #[test]
    fn bfs_matches_reference_all_modes() {
        let g = test_graph();
        let expect = reference::bfs(&g, 0);
        for transfer in [
            TransferMode::UnifiedPrefetch,
            TransferMode::Unified,
            TransferMode::ExplicitCopy,
            TransferMode::ZeroCopy,
            TransferMode::Adaptive,
        ] {
            let cfg = EtaConfig {
                transfer,
                ..EtaConfig::default()
            };
            let mut dev = device();
            let r = run(&mut dev, &g, 0, Algorithm::Bfs, &cfg).unwrap();
            assert_eq!(r.labels, expect, "mode {transfer:?}");
            assert!(r.iterations > 2);
            assert!(r.total_ns >= r.kernel_ns);
        }
    }

    #[test]
    fn bfs_matches_reference_without_smp() {
        let g = test_graph();
        let expect = reference::bfs(&g, 3);
        let mut dev = device();
        let r = run(&mut dev, &g, 3, Algorithm::Bfs, &EtaConfig::without_smp()).unwrap();
        assert_eq!(r.labels, expect);
    }

    #[test]
    fn resumed_query_matches_uninterrupted_run() {
        let g = test_graph();
        let digest = g.digest();
        let cfg = EtaConfig::paper();
        let expect = reference::sssp(&g, 0);

        let mut dev = device();
        let (res, ready) = prepare(&mut dev, &g, &cfg, false).unwrap();
        let mut sink = eta_ckpt::CkptSink::every(2);
        let r = run_query_ckpt(
            &mut dev,
            &res,
            &g,
            0,
            Algorithm::Sssp,
            &cfg,
            0,
            ready,
            eta_ckpt::CkptCtl::with_sink(&mut sink, digest),
        )
        .unwrap();
        assert_eq!(r.labels, expect, "checkpointing is result-inert");
        let ck = sink.take().unwrap();
        assert!(ck.iteration >= 2);

        let mut dev2 = device();
        let (res2, ready2) = prepare(&mut dev2, &g, &cfg, false).unwrap();
        let mut sink2 = eta_ckpt::CkptSink::default();
        let r2 = run_query_ckpt(
            &mut dev2,
            &res2,
            &g,
            0,
            Algorithm::Sssp,
            &cfg,
            0,
            ready2,
            eta_ckpt::CkptCtl::resuming(&mut sink2, &ck, digest),
        )
        .unwrap();
        assert_eq!(r2.labels, expect, "resume is byte-identical");
        assert_eq!(r2.iterations, r.iterations);
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let g = test_graph();
        let expect = reference::sssp(&g, 0);
        let mut dev = device();
        let r = run(&mut dev, &g, 0, Algorithm::Sssp, &EtaConfig::paper()).unwrap();
        assert_eq!(r.labels, expect);
    }

    #[test]
    fn sswp_matches_reference() {
        let g = test_graph();
        let expect = reference::sswp(&g, 0);
        let mut dev = device();
        let r = run(&mut dev, &g, 0, Algorithm::Sswp, &EtaConfig::paper()).unwrap();
        assert_eq!(r.labels, expect);
    }

    #[test]
    fn out_of_core_udc_matches_in_core() {
        let g = test_graph();
        for alg in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Sswp] {
            let mut dev = device();
            let in_core = run(&mut dev, &g, 0, alg, &EtaConfig::paper()).unwrap();
            let mut dev = device();
            let out_core = run(&mut dev, &g, 0, alg, &EtaConfig::out_of_core()).unwrap();
            assert_eq!(in_core.labels, out_core.labels, "{}", alg.name());
            // The rejected variant always ships the shadow table (§III-A's
            // extra loading cost), visible as additional explicit copies.
            let h2d = |r: &crate::result::RunResult| -> u64 {
                r.timeline
                    .spans()
                    .iter()
                    .filter(|s| matches!(s.kind, eta_mem::timeline::SpanKind::CopyH2D))
                    .map(|s| s.bytes)
                    .sum()
            };
            assert!(
                h2d(&out_core) > h2d(&in_core),
                "{}: out-of-core must transfer the table",
                alg.name()
            );
        }
    }

    #[test]
    fn out_of_core_udc_loses_at_scale() {
        // On a large graph the table transfer and memory dominate the
        // per-iteration savings — the reason §III-A picks in-core.
        let g = rmat(&RmatConfig::paper(15, 3_000_000, 71));
        let mut dev = device();
        let in_core = run(&mut dev, &g, 0, Algorithm::Bfs, &EtaConfig::paper()).unwrap();
        let mut dev = device();
        let out_core = run(&mut dev, &g, 0, Algorithm::Bfs, &EtaConfig::out_of_core()).unwrap();
        assert_eq!(in_core.labels, out_core.labels);
        assert!(
            out_core.total_ns > in_core.total_ns,
            "out-of-core at scale: {} vs {}",
            out_core.total_ns,
            in_core.total_ns
        );
    }

    #[test]
    fn direction_optimizing_bfs_matches_reference() {
        let g = test_graph();
        let expect = reference::bfs(&g, 0);
        let mut dev = device();
        let r = run(
            &mut dev,
            &g,
            0,
            Algorithm::Bfs,
            &EtaConfig::direction_optimizing(),
        )
        .unwrap();
        assert_eq!(r.labels, expect);
        // A power-law graph's peak iterations must actually pull.
        assert!(
            r.per_iteration.iter().any(|s| s.pulled),
            "no iteration pulled on a dense-frontier graph"
        );
        assert!(
            !r.per_iteration[0].pulled,
            "the single-source first iteration must push"
        );
    }

    #[test]
    fn direction_optimizing_is_ignored_for_weighted_algorithms() {
        let g = test_graph();
        let mut dev = device();
        let r = run(
            &mut dev,
            &g,
            0,
            Algorithm::Sssp,
            &EtaConfig::direction_optimizing(),
        )
        .unwrap();
        assert_eq!(r.labels, reference::sssp(&g, 0));
        assert!(r.per_iteration.iter().all(|s| !s.pulled));
    }

    #[test]
    fn connected_components_match_union_find() {
        // CC propagates along out-edges, so symmetrize first (WCC).
        let base = rmat(&RmatConfig::paper(11, 18_000, 41));
        let mut edges = base.edge_tuples();
        edges.extend(base.edge_tuples().iter().map(|&(a, b)| (b, a)));
        let g = Csr::from_edges(base.n(), &edges);

        let mut dev = device();
        let r = run(&mut dev, &g, 0, Algorithm::Cc, &EtaConfig::paper()).unwrap();

        // Oracle: min vertex ID per union-find component.
        let mut uf = eta_graph::analysis::UnionFind::new(g.n());
        for (a, b) in g.edge_tuples() {
            uf.union(a, b);
        }
        let mut min_of_root = std::collections::HashMap::new();
        for v in 0..g.n() as u32 {
            let root = uf.find(v);
            let slot = min_of_root.entry(root).or_insert(v);
            *slot = (*slot).min(v);
        }
        for v in 0..g.n() as u32 {
            let expect = min_of_root[&uf.find(v)];
            assert_eq!(r.labels[v as usize], expect, "vertex {v}");
        }
        // All-active: activation is total by construction.
        assert_eq!(r.visited(), g.n());
    }

    #[test]
    fn cc_on_disconnected_islands() {
        // Two islands plus an isolated vertex; labels converge to each
        // island's minimum ID.
        let g = Csr::from_edges(7, &[(0, 1), (1, 0), (1, 2), (2, 1), (4, 5), (5, 4)]);
        let mut dev = device();
        let r = run(&mut dev, &g, 0, Algorithm::Cc, &EtaConfig::paper()).unwrap();
        assert_eq!(r.labels, vec![0, 0, 0, 3, 4, 4, 6]);
    }

    #[test]
    fn per_iteration_stats_are_consistent() {
        let g = test_graph();
        let mut dev = device();
        let r = run(&mut dev, &g, 0, Algorithm::Bfs, &EtaConfig::paper()).unwrap();
        assert_eq!(r.per_iteration.len(), r.iterations as usize);
        // Visits are cumulative and non-decreasing; times are monotone.
        for w in r.per_iteration.windows(2) {
            assert!(w[0].visited_total <= w[1].visited_total);
            assert!(w[0].end_ns <= w[1].start_ns);
        }
        // Active counts match Fig. 2's grow-then-shrink shape: the peak is
        // strictly inside the run for a power-law graph.
        let peak = r.per_iteration.iter().map(|s| s.active).max().unwrap();
        assert!(peak > r.per_iteration[0].active);
        assert!(peak > r.per_iteration.last().unwrap().active);
        // Final visited equals the labels' count.
        assert_eq!(
            r.per_iteration.last().unwrap().visited_total as usize,
            r.visited()
        );
    }

    #[test]
    fn unreachable_vertices_stay_inf() {
        let g = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        let mut dev = device();
        let r = run(&mut dev, &g, 0, Algorithm::Bfs, &EtaConfig::paper()).unwrap();
        assert_eq!(r.labels, vec![0, 1, INF, INF]);
        assert_eq!(r.visited(), 2);
    }

    #[test]
    fn single_vertex_graph_terminates() {
        let g = Csr::from_edges(1, &[]);
        let mut dev = device();
        let r = run(&mut dev, &g, 0, Algorithm::Bfs, &EtaConfig::paper()).unwrap();
        assert_eq!(r.labels, vec![0]);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn explicit_mode_ooms_on_tiny_device() {
        let g = test_graph();
        let mut dev = Device::new(GpuConfig::gtx1080ti_scaled(64 * 1024));
        let err = run(&mut dev, &g, 0, Algorithm::Bfs, &EtaConfig::without_um());
        assert!(matches!(err, Err(QueryError::Mem(MemError::Oom { .. }))));
    }

    #[test]
    fn out_of_range_source_is_a_typed_error_not_a_panic() {
        let g = Csr::from_edges(4, &[(0, 1)]);
        let mut dev = device();
        let err = run(&mut dev, &g, 4, Algorithm::Bfs, &EtaConfig::paper()).unwrap_err();
        assert_eq!(
            err,
            QueryError::SourceOutOfRange {
                source: 4,
                vertices: 4
            }
        );
        // The boundary vertex itself is valid and traverses normally.
        let r = run(&mut dev, &g, 3, Algorithm::Bfs, &EtaConfig::paper()).unwrap();
        assert_eq!(r.labels[3], 0);
    }

    #[test]
    fn released_resources_return_their_explicit_capacity() {
        // The second configuration holds a weighted transposed topology in
        // explicit memory: all three of its arrays must come back too.
        let pulling = EtaConfig {
            transfer: TransferMode::ExplicitCopy,
            ..EtaConfig::direction_optimizing()
        };
        let g = test_graph();
        for cfg in [EtaConfig::out_of_core(), pulling] {
            let mut dev = device();
            let before = dev.mem.explicit_used_bytes();
            let (res, _) = prepare(&mut dev, &g, &cfg, true).unwrap();
            assert!(dev.mem.explicit_used_bytes() > before);
            res.release(&mut dev);
            assert_eq!(dev.mem.explicit_used_bytes(), before);
        }
    }

    #[test]
    fn smp_reduces_dram_transactions() {
        // The headline Fig. 7 effect, end to end. Needs a graph whose edge
        // array exceeds the 2.75 MiB L2 and enough frontier width for high
        // occupancy — on tiny graphs everything is compulsory misses and SMP
        // can't help (which is also why the paper measures on LiveJournal).
        let g = rmat(&RmatConfig::paper(15, 3_000_000, 17));
        let mut dev = device();
        let with = run(&mut dev, &g, 0, Algorithm::Bfs, &EtaConfig::paper()).unwrap();
        let mut dev = device();
        let without = run(&mut dev, &g, 0, Algorithm::Bfs, &EtaConfig::without_smp()).unwrap();
        assert_eq!(with.labels, without.labels);
        // nvprof's gld_transactions analog: vectorized bursts need far
        // fewer global load transactions (paper Fig. 7: 0.48x).
        assert!(
            (with.metrics.l1_requests as f64) < 0.8 * without.metrics.l1_requests as f64,
            "SMP: {} vs w/o: {}",
            with.metrics.l1_requests,
            without.metrics.l1_requests
        );
        // And the kernel is faster end to end.
        assert!(with.metrics.cycles < without.metrics.cycles);
    }

    #[test]
    fn prefetch_beats_demand_paging_on_full_traversal() {
        // Large enough that demand paging pays many per-batch latencies
        // while prefetch streams a few 2 MiB chunks.
        let g = rmat(&RmatConfig::paper(14, 400_000, 23)).with_random_weights(5, 32);
        let mut dev = device();
        let ump = run(&mut dev, &g, 0, Algorithm::Sssp, &EtaConfig::paper()).unwrap();
        let mut dev = device();
        let no_ump = run(&mut dev, &g, 0, Algorithm::Sssp, &EtaConfig::without_ump()).unwrap();
        assert_eq!(ump.labels, no_ump.labels);
        assert!(
            ump.total_ns < no_ump.total_ns,
            "UMP {} vs w/o UMP {}",
            ump.total_ns,
            no_ump.total_ns
        );
        // Demand paging migrates in small batches; prefetch in 2 MiB chunks.
        assert!(no_ump.um_stats.migration_batches.len() > ump.um_stats.migration_batches.len());
        assert!(!ump.um_stats.prefetch_chunks.is_empty());
    }
}
