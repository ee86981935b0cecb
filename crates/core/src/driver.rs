//! The BSP superstep driver — the paper's Procedure 1, once, over a device
//! **group of >= 1**. `drive` owns the loop; an algorithm is a `Program`
//! plugged into it (label traversal in `engine`, batched BFS in `multi_bfs`,
//! PageRank in `pagerank`). A single device is a group of one: no fabric, an
//! empty halo, a barrier that is its own clock. DESIGN.md's "Superstep
//! driver" section has the hook contract, the timing model and the
//! group-of-one degenerations.
//!
//! The public surface is what an execution model that keeps its own loop
//! needs to run on the same launch path: a [`Group::solo`], its [`Lane`],
//! and [`Group::solo_result`] (DESIGN.md, "Execution models on a `Lane`").

use crate::active_set::{DeviceQueue, VirtualQueue, WorkQueues};
use crate::config::{Algorithm, EtaConfig, TransferMode};
use crate::engine::DeviceShadowTable;
use crate::result::{IterationStats, RunResult};
use crate::sharded::{fail, Sharded, SuperstepStats, MSG_BYTES};
use crate::udc::{ActToVirtKernel, ExpandFromTableKernel};
use eta_ckpt::{Checkpoint, CkptCtl, CkptState};
use eta_graph::Csr;
use eta_mem::system::DSlice;
use eta_mem::{Ns, PeerFabric};
use eta_prof::{ArgValue, Track};
use eta_sim::{Device, Kernel, KernelMetrics, LaunchConfig};

/// One group member's share of the graph, borrowed from whoever holds the
/// topology: a whole [`Csr`] for a group of one, an `eta_shard::ShardSpec`
/// otherwise. Local vertex ids are the owned range `lo..hi` followed by the
/// halo, as in eta-shard.
#[derive(Clone, Copy)]
pub(crate) struct ShardView<'a> {
    pub lo: u32,
    pub hi: u32,
    /// Global ids of the halo rows, ascending.
    pub halo: &'a [u32],
    pub csr: &'a Csr,
}

impl<'a> ShardView<'a> {
    /// The whole `n`-vertex graph as the only member's share.
    pub fn whole(csr: &'a Csr, n: u32) -> Self {
        let (lo, hi, halo) = (0, n, &[][..]);
        ShardView { lo, hi, halo, csr }
    }

    pub fn of(shard: &'a eta_shard::ShardSpec) -> Self {
        let (lo, hi, halo, csr) = (shard.lo, shard.hi, &shard.halo[..], &shard.csr);
        ShardView { lo, hi, halo, csr }
    }

    pub fn own_len(&self) -> u32 {
        self.hi - self.lo
    }

    /// Global vertex ids in local-id order: owned range, then halo.
    pub fn globals(&self) -> impl Iterator<Item = u32> + 'a {
        (self.lo..self.hi).chain(self.halo.iter().copied())
    }
}

/// The member owning global vertex `gv` (ranges are contiguous and cover
/// the vertex space; an empty range owns nothing).
pub(crate) fn owner(views: &[ShardView<'_>], gv: u32) -> usize {
    views.partition_point(|v| v.hi <= gv)
}

/// The device group a run executes on: one device and one simulated clock
/// per member, plus the kernel counters summed over every launch.
pub struct Group<'a> {
    pub(crate) devs: &'a mut [Device],
    pub(crate) clocks: Vec<Ns>,
    visited: Vec<Visited>,
    metrics: KernelMetrics,
    kernel_ns: Ns,
    threads_per_block: u32,
    adaptive: bool,
}

impl<'a> Group<'a> {
    /// `ready[s]` is when member `s` may start per-query work.
    pub(crate) fn new(devs: &'a mut [Device], ready: Vec<Ns>, cfg: &EtaConfig) -> Self {
        let adaptive = cfg.transfer == TransferMode::Adaptive;
        Self::build(devs, ready, cfg.threads_per_block, adaptive)
    }

    /// A group of one whose member may start work at `ready_ns`, for an
    /// execution model that keeps its own loop and runs it on
    /// [`Group::lane`]`(0)`.
    pub fn solo(dev: &'a mut Device, ready_ns: Ns, threads_per_block: u32) -> Self {
        let devs = std::slice::from_mut(dev);
        Self::build(devs, vec![ready_ns], threads_per_block, false)
    }

    fn build(
        devs: &'a mut [Device],
        clocks: Vec<Ns>,
        threads_per_block: u32,
        adaptive: bool,
    ) -> Self {
        assert!(!devs.is_empty() && devs.len() == clocks.len());
        Group {
            visited: devs.iter().map(|_| Visited::default()).collect(),
            devs,
            clocks,
            metrics: KernelMetrics::default(),
            kernel_ns: 0,
            threads_per_block,
            adaptive,
        }
    }

    /// The latest member clock: the barrier, and the run's end.
    pub(crate) fn end_ns(&self) -> Ns {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Member `s`, to run charged work on its device and clock.
    pub fn lane(&mut self, s: usize) -> Lane<'_> {
        Lane {
            member: s,
            dev: &mut self.devs[s],
            clock: &mut self.clocks[s],
            visited: &mut self.visited[s],
            metrics: &mut self.metrics,
            kernel_ns: &mut self.kernel_ns,
            threads_per_block: self.threads_per_block,
        }
    }

    /// Assembles what a finished run on a group of one measured: `labels`
    /// after `iterations` supersteps, the summed kernel counters, the
    /// spans since `query_start` (warm sessions accumulate earlier
    /// queries') and the end-to-end time from it.
    pub fn solo_result(
        &self,
        algorithm: Algorithm,
        labels: Vec<u32>,
        iterations: u32,
        per_iteration: Vec<IterationStats>,
        query_start: Ns,
    ) -> RunResult {
        let dev = &self.devs[0];
        let mut timeline = eta_mem::Timeline::new();
        let spans = dev.merged_timeline();
        let mine = spans.spans().iter().filter(|s| s.start >= query_start);
        mine.for_each(|s| timeline.push(*s));
        let total_ns = self.end_ns() - query_start;
        debug_assert!(
            total_ns >= self.kernel_ns,
            "kernels serialize on one device: total {total_ns} < kernel {}",
            self.kernel_ns
        );
        RunResult {
            algorithm,
            labels,
            iterations,
            kernel_ns: self.kernel_ns,
            total_ns,
            per_iteration,
            metrics: self.metrics,
            um_stats: dev.mem.um.stats.clone(),
            overlap_fraction: timeline.overlap_fraction(),
            timeline,
        }
    }
}

/// Observer state behind `visited_total`: which of a member's labels have
/// left `init_label`, and how many.
#[derive(Default)]
struct Visited {
    init_label: u32,
    seen: Vec<bool>,
    count: u64,
}

/// One group member: its device and its clock. Every launch and every
/// polled copy of every program and every baseline model goes through here:
/// the clock follows one rule, the counters sum in one place, and a device
/// fault comes back as an error bound to the member that raised it.
pub struct Lane<'a> {
    pub member: usize,
    pub dev: &'a mut Device,
    clock: &'a mut Ns,
    visited: &'a mut Visited,
    metrics: &'a mut KernelMetrics,
    kernel_ns: &'a mut Ns,
    threads_per_block: u32,
}

impl Lane<'_> {
    pub fn now(&self) -> Ns {
        *self.clock
    }

    /// Launches `kern` over `items` threads when its inputs are ready and
    /// advances to `max(kernel end, latest UM page arrival)`, so demand
    /// paging overlaps compute as in Fig. 4; then polls the fault watchdog.
    pub fn launch(&mut self, kern: &dyn Kernel, items: u32) -> Sharded<()> {
        let cfg = LaunchConfig::for_items(items, self.threads_per_block);
        let r = self.dev.launch(kern, cfg, *self.clock);
        self.metrics.merge(&r.metrics);
        *self.kernel_ns += r.metrics.time_ns;
        *self.clock = r.end_ns.max(r.metrics.data_ready_ns);
        self.poll()
    }

    /// Collects a device fault raised by the copies issued since the last
    /// launch (snapshots and result readbacks end with this).
    pub fn poll(&mut self) -> Sharded<()> {
        let fault = self.dev.take_fault();
        fault.map_or(Ok(()), |f| Err(fail(self.member, f.into())))
    }

    /// Runs a charged `(dev, now) -> (value, end)` operation (count
    /// readbacks, frontier seeding) on this member's clock.
    pub fn timed<T>(&mut self, op: impl FnOnce(&mut Device, Ns) -> (T, Ns)) -> T {
        let (value, end) = op(self.dev, *self.clock);
        *self.clock = end;
        value
    }

    /// Charged host→device copy of `data` to the start of `slice`.
    pub fn h2d(&mut self, slice: DSlice, data: &[u32]) {
        *self.clock = self.dev.mem.copy_h2d(slice, 0, data, *self.clock);
    }

    /// Charged device→host copy of `slice`'s first `len` words.
    pub fn d2h(&mut self, slice: DSlice, len: u64) {
        *self.clock = self.dev.mem.copy_d2h(slice, len, *self.clock);
    }

    /// A charged readback of `slice`'s first `len` words: the copy, the
    /// fault poll, then the words.
    pub fn readback(&mut self, slice: DSlice, len: u64) -> Sharded<&[u32]> {
        self.d2h(slice, len);
        self.poll()?;
        Ok(self.read(slice, len))
    }

    /// Host view of device words, free of charge: what a charged copy
    /// delivered, or an observer-only statistic.
    pub fn read(&self, slice: DSlice, len: u64) -> &[u32] {
        self.dev.mem.host_read(slice, 0, len)
    }

    /// Starts the `visited_total` observer (no simulated cost) from the
    /// labels this member was initialized with.
    pub fn watch(&mut self, labels: &[u32], init_label: u32) {
        let seen: Vec<bool> = labels.iter().map(|&l| l != init_label).collect();
        let count = seen.iter().filter(|&&s| s).count() as u64;
        *self.visited = Visited {
            init_label,
            seen,
            count,
        };
    }

    /// `visited_total` after a superstep of a frontier model. A label
    /// leaves `init_label` only by an improvement, and a frontier kernel
    /// appends every vertex it improves to `next` (once per superstep), so
    /// the newly visited are among this superstep's appends and no label
    /// is rescanned.
    pub fn visited(&mut self, next: DeviceQueue, labels: DSlice) -> u64 {
        let appended = self.read(next.count, 1)[0];
        for &v in self.dev.mem.host_read(next.items, 0, appended as u64) {
            if !std::mem::replace(&mut self.visited.seen[v as usize], true) {
                self.visited.count += 1;
            }
        }
        debug_assert_eq!(
            self.visited.count,
            self.visited_scan(labels, self.visited.init_label),
            "incremental visited_total diverged from the label scan"
        );
        self.visited.count
    }

    /// `visited_total` by scanning every label: the form for frontier-less
    /// models, which sweep O(m) per iteration anyway.
    pub fn visited_scan(&self, labels: DSlice, init_label: u32) -> u64 {
        let labels = self.read(labels, labels.len).iter();
        labels.filter(|&&l| l != init_label).count() as u64
    }

    /// Records a profiler span from `start` to now; `args` is only built
    /// when profiling is on.
    pub(crate) fn event(
        &mut self,
        track: Track,
        name: &str,
        start: Ns,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        let prof = &mut self.dev.mem.prof;
        if prof.is_enabled() {
            prof.record(track, name, start, *self.clock, args());
        }
    }
}

/// A member's frontier: its work queues — the `(act, next)` pair swapped
/// every superstep — and the host-known length of `act`.
pub(crate) struct Frontier {
    pub q: WorkQueues,
    pub len: u32,
}

impl Frontier {
    /// Replaces the frontier with host `items` (one charged count update).
    pub fn seed(&mut self, lane: &mut Lane<'_>, items: &[u32]) {
        self.len = lane.timed(|dev, now| self.q.act.seed(dev, items, now));
    }

    /// The frontier's vertices, observer-side.
    pub fn items<'d>(&self, dev: &'d Device) -> &'d [u32] {
        dev.mem.host_read(self.q.act.items, 0, self.len as u64)
    }

    /// One frontier expansion, charged as Procedure 1 runs it: reset the
    /// append counters, cut the active set into shadow vertices — on the fly
    /// by degree `k`, or, when the resources carry an out-of-core `table`,
    /// by table expansion into the `full` slot alone — read the counts back
    /// to size the launches, then run `edge`'s kernel over the uniform-K
    /// queue and the tails. Returns the `(full, tail)` counts.
    pub fn step<K: Kernel>(
        &self,
        lane: &mut Lane<'_>,
        row_offsets: DSlice,
        k: u32,
        table: Option<&DeviceShadowTable>,
        edge: impl Fn(VirtualQueue, u32) -> K,
    ) -> Sharded<(u32, u32)> {
        let WorkQueues {
            act,
            next,
            full,
            partial,
        } = self.q;
        lane.h2d(next.count, &[0]);
        lane.h2d(full.count, &[0]);
        if let Some(t) = table {
            let expand = ExpandFromTableKernel {
                act_items: act.items,
                act_len: self.len,
                table_ids: t.ids,
                table_starts: t.starts,
                table_ends: t.ends,
                vertex_range: t.vertex_range,
                out: full,
            };
            lane.launch(&expand, self.len)?;
        } else {
            lane.h2d(partial.count, &[0]);
            let a2v = ActToVirtKernel::new(&act, self.len, row_offsets, &full, &partial, k);
            lane.launch(&a2v, self.len)?;
        }
        let nf = lane.timed(|dev, now| full.read_count(dev, now));
        let np = match table {
            None => lane.timed(|dev, now| partial.read_count(dev, now)),
            Some(_) => 0,
        };
        for (queue, len) in [(full, nf), (partial, np)] {
            if len > 0 {
                lane.launch(&edge(queue, len), len)?;
            }
        }
        Ok((nf, np))
    }

    /// Swaps the queue pair and reads the new frontier's size back.
    pub fn swap_and_count(&mut self, lane: &mut Lane<'_>) {
        std::mem::swap(&mut self.q.act, &mut self.q.next);
        self.len = lane.timed(|dev, now| self.q.act.read_count(dev, now));
    }
}

/// What an algorithm hands the driver. Hooks taking a [`Lane`] run on one
/// member; hooks taking the [`Group`] see all of them and must visit
/// members in index order (the exchange's fixed total order).
pub(crate) trait Program {
    /// What [`Program::finish`] reads back.
    type Output;

    /// Vertices of the whole (unpartitioned) graph.
    fn vertices(&self) -> u32;

    /// Initializes every member's per-query state at its clock — or, given
    /// a snapshot (already validated against this graph), restores that.
    fn init(&mut self, g: &mut Group<'_>, resume: Option<&Checkpoint>) -> Sharded<()>;

    /// Frontier entries member `s` brings into the superstep after `done`
    /// completed ones; `None` when it sits that superstep out. The run ends
    /// when every member returns `None`.
    fn active(&self, s: usize, done: u32) -> Option<u32>;

    /// Bytes of edge data member `s`'s coming superstep will sweep, for
    /// the adaptive transfer policy; `None` keeps the policy unticked.
    fn announce(&self, _dev: &Device, _s: usize) -> Option<u64> {
        None
    }

    /// Superstep `step`'s local work on the lane's member.
    fn compute(&mut self, lane: &mut Lane<'_>, step: u32) -> Sharded<()>;

    /// Reports this superstep's halo batches as `send(from, to, messages)`,
    /// ascending in `(from, to)`; payloads stay with the program.
    fn collect(&mut self, _g: &Group<'_>, _send: &mut dyn FnMut(usize, usize, u64)) {}

    /// Post-exchange work: clocks already stand at `max(barrier, last
    /// incoming transfer)`.
    fn commit(&mut self, _g: &mut Group<'_>) -> Sharded<()> {
        Ok(())
    }

    /// Copies the complete state at a superstep boundary back to the host
    /// (charged), merged over the global vertex space.
    fn snapshot(&mut self, g: &mut Group<'_>) -> Sharded<CkptState>;

    /// Reads the results back (charged) and assembles them.
    fn finish(self, g: &mut Group<'_>) -> Sharded<Self::Output>;
}

/// Driver-side measurements of one run.
pub(crate) struct Run {
    /// Supersteps a resumed snapshot had already completed (0 when fresh).
    pub resumed: u32,
    /// Supersteps completed in total, resumed ones included.
    pub steps: u32,
    pub kernel_ns: Ns,
    /// The latest member clock at completion.
    pub end_ns: Ns,
    pub exchanged_bytes: u64,
    pub metrics: KernelMetrics,
    pub per_superstep: Vec<SuperstepStats>,
}

/// Runs `prog` to completion on the group. `fabric` carries the halo
/// exchange; a group of one passes `None` and skips it.
pub(crate) fn drive<P: Program>(
    g: &mut Group<'_>,
    mut fabric: Option<&mut PeerFabric>,
    mut prog: P,
    mut ckpt: CkptCtl<'_>,
) -> Sharded<(Run, P::Output)> {
    let members = g.devs.len();
    let running = |prog: &P, done: u32| (0..members).any(|s| prog.active(s, done).is_some());
    // A stale or mismatched snapshot is a typed error the serving layer
    // downgrades to restart-from-scratch.
    if let Some(ck) = ckpt.resume {
        ck.validate(ckpt.graph_digest, prog.vertices())?;
    }
    prog.init(g, ckpt.resume)?;
    let resumed = ckpt.resume.map_or(0, |ck| ck.iteration);
    let mut step = resumed;
    let mut per_superstep = Vec::new();
    let mut exchanged_bytes = 0u64;

    while running(&prog, step) {
        let entering: Vec<Option<u32>> = (0..members).map(|s| prog.active(s, step)).collect();
        let clocks = g.clocks.iter().zip(&entering);
        let start_ns = clocks.filter_map(|(&t, a)| a.map(|_| t)).min().unwrap_or(0);
        step += 1;

        // 1. Local work. The adaptive policy first folds the last
        //    superstep's access density into per-region routing, told the
        //    coming edge volume so a dense wave escalates to streaming
        //    *before* it breaks. Fire-and-forget like the prefetch:
        //    transitions queue on the member's link and its kernels stall on
        //    page arrival.
        for s in (0..members).filter(|&s| entering[s].is_some()) {
            let upcoming = g.adaptive.then(|| prog.announce(&g.devs[s], s)).flatten();
            if let Some(bytes) = upcoming {
                g.devs[s].mem.adaptive_tick(g.clocks[s], bytes);
            }
            prog.compute(&mut g.lane(s), step)?;
        }

        // 2. Barrier, then each sender->owner batch is charged to the pair's
        //    peer link (batches on one link serialize); a receiver resumes
        //    at `max(barrier, last incoming transfer end)`.
        let barrier = g.end_ns();
        let mut messages = 0u64;
        if let Some(fabric) = fabric.as_deref_mut() {
            let mark = fabric.log().len();
            let mut ready = vec![barrier; members];
            prog.collect(g, &mut |from, to, count| {
                let (_, end) = fabric.transfer(from as u32, to as u32, count * MSG_BYTES, barrier);
                ready[to] = ready[to].max(end);
                messages += count;
            });
            mirror_peer_spans(g.devs, fabric, mark);
            g.clocks = ready;
        }
        exchanged_bytes += messages * MSG_BYTES;

        // 3. Deliveries merge (or the update applies) at the owners.
        prog.commit(g)?;
        per_superstep.push(SuperstepStats {
            superstep: step,
            active: entering.iter().flatten().sum(),
            messages: u32::try_from(messages).unwrap_or(u32::MAX),
            exchanged_bytes: messages * MSG_BYTES,
            start_ns,
            end_ns: g.end_ns(),
        });

        // 4. Superstep boundary: the one place a snapshot is taken.
        if let Some(sink) = ckpt.sink.as_deref_mut() {
            if sink.policy.due(step) && running(&prog, step) {
                sink.store(checkpoint(g, &mut prog, step, ckpt.graph_digest)?);
            }
        }
    }

    let output = prog.finish(g)?;
    let run = Run {
        resumed,
        steps: step,
        kernel_ns: g.kernel_ns,
        end_ns: g.end_ns(),
        exchanged_bytes,
        metrics: g.metrics,
        per_superstep,
    };
    Ok((run, output))
}

/// Takes `prog`'s snapshot after `step` supersteps and records each
/// member's share of the copy-back on [`Track::Ckpt`].
fn checkpoint<P: Program>(
    g: &mut Group<'_>,
    prog: &mut P,
    step: u32,
    graph_digest: u64,
) -> Sharded<Checkpoint> {
    let starts = g.clocks.clone();
    let state = prog.snapshot(g)?;
    let frontier = state.frontier().map(<[u32]>::len);
    let solo = g.devs.len() == 1;
    for (s, &start) in starts.iter().enumerate() {
        g.lane(s).event(Track::Ckpt, "checkpoint", start, || {
            let mut args = vec![("iteration", step.into())];
            if solo {
                args.push(("words", state.payload_words().into()));
                args.extend(frontier.map(|len| ("frontier", len.into())));
            } else {
                args.push(("shard", s.into()));
            }
            args
        });
    }
    Ok(Checkpoint {
        graph_digest,
        n: prog.vertices(),
        iteration: step,
        taken_at_ns: g.end_ns(),
        state,
    })
}

/// Mirrors peer-fabric transfers recorded since `mark` into the sending
/// device's profiler on [`Track::Peer`].
fn mirror_peer_spans(devs: &mut [Device], fabric: &PeerFabric, mark: usize) {
    for t in fabric.log_since(mark) {
        let prof = &mut devs[t.from as usize].mem.prof;
        if prof.is_enabled() {
            let args = vec![
                ("from", t.from.into()),
                ("to", t.to.into()),
                ("bytes", t.bytes.into()),
            ];
            prof.record(Track::Peer, "halo_exchange", t.start, t.end, args);
        }
    }
}
