//! Device-group entry points: the superstep driver's programs run
//! over an [`eta_shard::GraphPartition`] (vertex-range shards, each owning
//! its range's out-edges plus zero-degree halo rows for cross-range
//! destinations) with halo traffic on an [`eta_mem::PeerFabric`]. This
//! module is the adapters and result types; the loop is the driver's and the
//! halo merge rules live with each program (`engine::Traversal`,
//! `pagerank::Ranking`).
//!
//! Labels (BFS/SSSP/SSWP/CC are monotone: one fixpoint whatever the group)
//! and ranks (scatter sums replayed in the single-device order) are
//! byte-identical to a single device's for every group size; iteration
//! *counts* may differ, since a cross-shard relaxation lands one superstep
//! later than the same intra-device one. The group path always runs the
//! in-core UDC and never direction-optimizes: pull needs the global
//! transposed topology, which no shard holds.

use crate::config::{Algorithm, EtaConfig, UdcMode};
use crate::driver::{drive, Group, ShardView};
use crate::engine::{self, Traversal};
use crate::error::{check_source, QueryError};
use crate::pagerank::{PageRankConfig, RankShard, Ranking};
use eta_ckpt::CkptCtl;
use eta_graph::Csr;
use eta_mem::system::MemError;
use eta_mem::{Ns, PeerFabric};
use eta_shard::{GraphPartition, ShardSpec};
use eta_sim::{Device, KernelMetrics};

/// Wire bytes per halo message: a global vertex id plus a label word.
pub const MSG_BYTES: u64 = 8;

/// A query error bound to the group member that raised it, so the serving
/// layer can quarantine the right device and regroup around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedError {
    /// Group slot (partition device index) of the failing shard.
    pub shard: u32,
    pub error: QueryError,
}

impl std::fmt::Display for ShardedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {}: {}", self.shard, self.error)
    }
}

impl std::error::Error for ShardedError {}

pub(crate) type Sharded<T> = Result<T, ShardedError>;

/// A snapshot that cannot be restored is no single member's fault; like
/// every whole-group failure it is bound to slot 0.
impl From<eta_ckpt::CkptError> for ShardedError {
    fn from(e: eta_ckpt::CkptError) -> Self {
        fail(0, e.into())
    }
}

pub(crate) fn fail(shard: usize, error: QueryError) -> ShardedError {
    ShardedError {
        shard: shard as u32,
        error,
    }
}

/// Per-superstep measurements of one sharded run.
#[derive(Debug, Clone, Copy)]
pub struct SuperstepStats {
    pub superstep: u32,
    /// Total frontier entries (over all shards) entering the superstep.
    pub active: u32,
    /// Halo messages exchanged at this superstep's boundary.
    pub messages: u32,
    /// Bytes those messages moved over the peer fabric.
    pub exchanged_bytes: u64,
    pub start_ns: Ns,
    pub end_ns: Ns,
}

/// Outcome of a sharded traversal.
#[derive(Debug, Clone)]
pub struct ShardedRunResult {
    pub algorithm: Algorithm,
    /// Global per-vertex labels, merged from the shards' owned ranges.
    pub labels: Vec<u32>,
    pub supersteps: u32,
    /// Kernel time summed over all shards.
    pub kernel_ns: Ns,
    /// End-to-end simulated time: the latest shard clock at completion.
    pub total_ns: Ns,
    /// Total bytes moved over the peer fabric by this run.
    pub exchanged_bytes: u64,
    pub metrics: KernelMetrics,
    pub per_superstep: Vec<SuperstepStats>,
}

impl ShardedRunResult {
    /// Average exchanged bytes per superstep (the Table-V-style scaling
    /// report's exchange-volume column).
    pub fn bytes_per_superstep(&self) -> u64 {
        self.exchanged_bytes
            .checked_div(self.supersteps as u64)
            .unwrap_or(0)
    }
}

/// Per-member device resources for every shard of `part`, with the time
/// each member's synchronous setup completes.
fn per_member<R>(
    devs: &mut [Device],
    part: &GraphPartition,
    alloc: impl Fn(&mut Device, &ShardSpec) -> Result<(R, Ns), MemError>,
) -> Sharded<(Vec<R>, Vec<Ns>)> {
    assert_eq!(devs.len(), part.shards.len(), "one device per shard");
    let (mut resources, mut ready) = (Vec::new(), Vec::new());
    for (s, (dev, shard)) in devs.iter_mut().zip(&part.shards).enumerate() {
        let (res, t) = alloc(dev, shard).map_err(|e| fail(s, e.into()))?;
        resources.push(res);
        ready.push(t);
    }
    Ok((resources, ready))
}

/// Pull needs the global transpose; out-of-core UDC would ship one table
/// per shard. Both are single-device experiments — a group normalizes them
/// away.
fn group_config(cfg: &EtaConfig) -> EtaConfig {
    EtaConfig {
        udc: UdcMode::InCore,
        direction_optimizing: false,
        ..*cfg
    }
}

/// Runs one traversal across the whole device group.
pub fn run_sharded(
    devs: &mut [Device],
    fabric: &mut PeerFabric,
    part: &GraphPartition,
    source: u32,
    alg: Algorithm,
    cfg: &EtaConfig,
) -> Result<ShardedRunResult, ShardedError> {
    run_sharded_ckpt(devs, fabric, part, source, alg, cfg, CkptCtl::off())
}

/// [`run_sharded`] with checkpoint/resume control. Snapshots are **global**
/// (`n = part.n`, `graph_digest` = the *global* CSR digest), so one taken on
/// any group shape resumes on any other — including a single device via
/// [`engine::run_query_ckpt`].
pub fn run_sharded_ckpt(
    devs: &mut [Device],
    fabric: &mut PeerFabric,
    part: &GraphPartition,
    source: u32,
    alg: Algorithm,
    cfg: &EtaConfig,
    ckpt: CkptCtl<'_>,
) -> Result<ShardedRunResult, ShardedError> {
    assert!(
        fabric.devices() as usize >= devs.len(),
        "fabric must span the group"
    );
    check_source(source, part.n as usize).map_err(|e| fail(0, e))?;
    let cfg = group_config(cfg);
    let views: Vec<ShardView<'_>> = part.shards.iter().map(ShardView::of).collect();
    let prepare =
        |dev: &mut Device, shard: &ShardSpec| engine::prepare(dev, &shard.csr, &cfg, false);
    let (resources, ready) = per_member(devs, part, prepare)?;
    let prog = Traversal::new(alg, source, &cfg, &views, &resources);
    let result = drive(&mut Group::new(devs, ready, &cfg), Some(fabric), prog, ckpt);
    // Resources go back on the fault path too: the serving layer reuses
    // group members after a fault elsewhere in the group.
    devs.iter_mut()
        .zip(resources)
        .for_each(|(dev, res)| res.release(dev));
    let (run, (labels, _)) = result?;
    Ok(ShardedRunResult {
        algorithm: alg,
        labels,
        supersteps: run.steps - run.resumed,
        kernel_ns: run.kernel_ns,
        total_ns: run.end_ns,
        exchanged_bytes: run.exchanged_bytes,
        metrics: run.metrics,
        per_superstep: run.per_superstep,
    })
}

/// Outcome of a sharded PageRank run.
#[derive(Debug, Clone, Default)]
pub struct ShardedPageRankResult {
    pub ranks: Vec<f32>,
    pub iterations: u32,
    pub kernel_ns: Ns,
    pub total_ns: Ns,
    pub exchanged_bytes: u64,
    pub metrics: KernelMetrics,
    pub per_superstep: Vec<SuperstepStats>,
}

/// Runs PageRank across the device group with **bit-identical** ranks to
/// the single-device [`crate::pagerank::run`]: the same program, with every
/// cross-shard contribution charged to the peer links each iteration
/// (PageRank is all-active: every cross edge sends each round).
pub fn run_sharded_pagerank(
    devs: &mut [Device],
    fabric: &mut PeerFabric,
    part: &GraphPartition,
    csr: &Csr,
    cfg: &PageRankConfig,
) -> Result<ShardedPageRankResult, ShardedError> {
    assert_eq!(part.n as usize, csr.n(), "partition must match the graph");
    if part.n == 0 {
        return Ok(ShardedPageRankResult::default());
    }
    let views: Vec<ShardView<'_>> = part.shards.iter().map(ShardView::of).collect();
    let alloc = |dev: &mut Device, shard: &ShardSpec| RankShard::alloc(dev, &shard.csr, &cfg.eta);
    let (shards, ready) = per_member(devs, part, alloc)?;
    let prog = Ranking::new(cfg, csr, &views, &shards);
    let group = &mut Group::new(devs, ready, &cfg.eta);
    let result = drive(group, Some(fabric), prog, CkptCtl::off());
    devs.iter_mut()
        .zip(shards)
        .for_each(|(dev, rs)| rs.release(dev));
    let (run, ranks) = result?;
    Ok(ShardedPageRankResult {
        ranks,
        iterations: cfg.iterations,
        kernel_ns: run.kernel_ns,
        total_ns: run.end_ns,
        exchanged_bytes: run.exchanged_bytes,
        metrics: run.metrics,
        per_superstep: run.per_superstep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_prof::Track;
    use eta_sim::GpuConfig;

    fn group(devices: usize) -> Vec<Device> {
        (0..devices)
            .map(|_| Device::new(GpuConfig::default_preset()))
            .collect()
    }

    fn test_graph() -> Csr {
        rmat(&RmatConfig::paper(11, 30_000, 17)).with_random_weights(9, 32)
    }

    #[test]
    fn sharded_labels_match_single_device_for_all_algorithms() {
        let g = test_graph();
        let cfg = EtaConfig::paper();
        for alg in [
            Algorithm::Bfs,
            Algorithm::Sssp,
            Algorithm::Sswp,
            Algorithm::Cc,
        ] {
            let mut dev = Device::new(GpuConfig::default_preset());
            let single = engine::run(&mut dev, &g, 0, alg, &cfg).unwrap();
            for devices in [2u32, 3, 4] {
                let part = GraphPartition::vertex_range(&g, devices);
                let mut devs = group(devices as usize);
                let mut fabric = PeerFabric::nvlink(devices);
                let r = run_sharded(&mut devs, &mut fabric, &part, 0, alg, &cfg).unwrap();
                assert_eq!(
                    r.labels,
                    single.labels,
                    "{} on {} devices",
                    alg.name(),
                    devices
                );
                assert!(r.exchanged_bytes > 0, "cross-shard traffic must exist");
                assert_eq!(r.exchanged_bytes, fabric.bytes_moved());
            }
        }
    }

    #[test]
    fn one_device_group_degenerates_to_no_exchange() {
        // A 1-shard partition and the plain engine are literally the same
        // loop: same labels, same kernels, same clock.
        let g = test_graph();
        let cfg = EtaConfig::paper();
        let part = GraphPartition::vertex_range(&g, 1);
        let mut devs = group(1);
        let mut fabric = PeerFabric::nvlink(1);
        let r = run_sharded(&mut devs, &mut fabric, &part, 0, Algorithm::Bfs, &cfg).unwrap();
        let mut dev = Device::new(GpuConfig::default_preset());
        let single = engine::run(&mut dev, &g, 0, Algorithm::Bfs, &cfg).unwrap();
        assert_eq!(r.labels, single.labels);
        assert_eq!(r.kernel_ns, single.kernel_ns);
        assert_eq!(r.total_ns, single.total_ns);
        assert_eq!(format!("{:?}", r.metrics), format!("{:?}", single.metrics));
        assert_eq!(r.supersteps, single.iterations);
        assert_eq!(r.exchanged_bytes, 0);
        assert!(r.per_superstep.iter().all(|s| s.messages == 0));
    }

    #[test]
    fn sharded_source_out_of_range_is_typed() {
        let g = Csr::from_edges(4, &[(0, 1)]);
        let part = GraphPartition::vertex_range(&g, 2);
        let mut devs = group(2);
        let mut fabric = PeerFabric::nvlink(2);
        let err = run_sharded(
            &mut devs,
            &mut fabric,
            &part,
            9,
            Algorithm::Bfs,
            &EtaConfig::paper(),
        )
        .unwrap_err();
        assert_eq!(
            err.error,
            QueryError::SourceOutOfRange {
                source: 9,
                vertices: 4
            }
        );
    }

    #[test]
    fn sharded_releases_every_explicit_allocation() {
        let g = test_graph();
        let part = GraphPartition::vertex_range(&g, 2);
        let mut devs = group(2);
        let before: Vec<u64> = devs.iter().map(|d| d.mem.explicit_used_bytes()).collect();
        let mut fabric = PeerFabric::nvlink(2);
        run_sharded(
            &mut devs,
            &mut fabric,
            &part,
            0,
            Algorithm::Bfs,
            &EtaConfig::paper(),
        )
        .unwrap();
        for (d, b) in devs.iter().zip(before) {
            assert_eq!(
                d.mem.explicit_used_bytes(),
                b,
                "device leaks explicit bytes"
            );
        }
    }

    #[test]
    fn checkpoint_resumes_on_a_regrouped_device_set() {
        let g = test_graph();
        let cfg = EtaConfig::paper();
        let digest = g.digest();
        let mut dev = Device::new(GpuConfig::default_preset());
        let clean = engine::run(&mut dev, &g, 0, Algorithm::Sssp, &cfg).unwrap();

        // Checkpoint every 2 supersteps on a 3-device group.
        let part3 = GraphPartition::vertex_range(&g, 3);
        let mut devs3 = group(3);
        let mut fabric3 = PeerFabric::nvlink(3);
        let mut sink = eta_ckpt::CkptSink::every(2);
        let ckd = run_sharded_ckpt(
            &mut devs3,
            &mut fabric3,
            &part3,
            0,
            Algorithm::Sssp,
            &cfg,
            CkptCtl::with_sink(&mut sink, digest),
        )
        .unwrap();
        assert_eq!(ckd.labels, clean.labels, "checkpointing is result-inert");
        let ck = sink.take().expect("snapshots were due");
        assert!(ck.iteration >= 2);

        // Resume the 3-device snapshot on a 2-device group — the global
        // checkpoint is group-shape agnostic.
        let part2 = GraphPartition::vertex_range(&g, 2);
        let mut devs2 = group(2);
        let mut fabric2 = PeerFabric::nvlink(2);
        let mut sink2 = eta_ckpt::CkptSink::default();
        let resumed = run_sharded_ckpt(
            &mut devs2,
            &mut fabric2,
            &part2,
            0,
            Algorithm::Sssp,
            &cfg,
            CkptCtl::resuming(&mut sink2, &ck, digest),
        )
        .unwrap();
        assert_eq!(resumed.labels, clean.labels, "regrouped resume is exact");

        // And on a single device through the plain engine.
        let mut dev1 = Device::new(GpuConfig::default_preset());
        let (res, ready) = engine::prepare(&mut dev1, &g, &cfg, false).unwrap();
        let mut sink1 = eta_ckpt::CkptSink::default();
        let r1 = engine::run_query_ckpt(
            &mut dev1,
            &res,
            &g,
            0,
            Algorithm::Sssp,
            &cfg,
            0,
            ready,
            CkptCtl::resuming(&mut sink1, &ck, digest),
        )
        .unwrap();
        assert_eq!(r1.labels, clean.labels, "group snapshot resumes solo");
    }

    #[test]
    fn a_faulted_member_reports_its_shard_index() {
        let g = test_graph();
        let part = GraphPartition::vertex_range(&g, 2);
        let mut devs = group(2);
        let plan = eta_fault::FaultPlan {
            hangs: vec![eta_fault::HangFault {
                device: 1,
                start_ns: 0,
                end_ns: Ns::MAX,
                budget_ns: 10,
            }],
            ..Default::default()
        };
        devs[1].mem.install_faults(&plan, 1);
        let mut fabric = PeerFabric::nvlink(2);
        let err = run_sharded(
            &mut devs,
            &mut fabric,
            &part,
            0,
            Algorithm::Bfs,
            &EtaConfig::paper(),
        )
        .unwrap_err();
        assert_eq!(err.shard, 1, "the fault names the group member");
        assert!(matches!(err.error, QueryError::DeviceFault(_)));
    }

    #[test]
    fn peer_spans_are_mirrored_into_the_sender_profiler() {
        let g = test_graph();
        let part = GraphPartition::vertex_range(&g, 2);
        let mut devs: Vec<Device> = (0..2)
            .map(|_| Device::new(GpuConfig::default_preset().with_profiling()))
            .collect();
        let mut fabric = PeerFabric::nvlink(2);
        let r = run_sharded(
            &mut devs,
            &mut fabric,
            &part,
            0,
            Algorithm::Bfs,
            &EtaConfig::paper(),
        )
        .unwrap();
        assert!(r.exchanged_bytes > 0);
        let peer_events: usize = devs
            .iter()
            .map(|d| {
                d.mem
                    .prof
                    .events()
                    .iter()
                    .filter(|e| e.track == Track::Peer)
                    .count()
            })
            .sum();
        assert_eq!(
            peer_events,
            fabric.log().len(),
            "every fabric transfer appears once on Track::Peer"
        );
    }

    #[test]
    fn sharded_pagerank_is_bit_identical() {
        let g = rmat(&RmatConfig::paper(10, 15_000, 31));
        let cfg = pagerank::PageRankConfig::default();
        let mut dev = Device::new(GpuConfig::default_preset());
        let single = pagerank::run(&mut dev, &g, &cfg).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for devices in [2u32, 3] {
            let part = GraphPartition::vertex_range(&g, devices);
            let mut devs = group(devices as usize);
            let mut fabric = PeerFabric::nvlink(devices);
            let r = run_sharded_pagerank(&mut devs, &mut fabric, &part, &g, &cfg).unwrap();
            assert_eq!(
                bits(&r.ranks),
                bits(&single.ranks),
                "scatter replay preserves the float order on {devices} devices"
            );
            assert!(r.exchanged_bytes > 0);
            assert_eq!(r.per_superstep.len(), cfg.iterations as usize);
        }
    }

    #[test]
    fn supersteps_report_exchange_volumes() {
        let g = test_graph();
        let part = GraphPartition::vertex_range(&g, 2);
        let mut devs = group(2);
        let mut fabric = PeerFabric::nvlink(2);
        let r = run_sharded(
            &mut devs,
            &mut fabric,
            &part,
            0,
            Algorithm::Bfs,
            &EtaConfig::paper(),
        )
        .unwrap();
        let total: u64 = r.per_superstep.iter().map(|s| s.exchanged_bytes).sum();
        assert_eq!(total, r.exchanged_bytes);
        assert_eq!(r.supersteps as usize, r.per_superstep.len());
        assert!(r.bytes_per_superstep() > 0);
        for w in r.per_superstep.windows(2) {
            assert!(w[0].end_ns <= w[1].end_ns, "superstep clocks are monotone");
        }
    }
}
