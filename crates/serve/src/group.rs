//! Device-group serving — one query across `group_size` devices — as names
//! only: [`GroupConfig`] maps field for field onto the one scheduler
//! ([`crate::sched`]) with the group placement, FIFO order, batch width 1
//! and first-strike quarantine (a group fault stalls `group_size` devices,
//! so one strike is enough). DESIGN.md's "Scheduler" chapter covers the
//! placement; `benchmark/` pins these two names.

use crate::placement::Placement;
use crate::qos::QosConfig;
use crate::registry::GraphRegistry;
use crate::sched::{Policy, ServeConfig, Service};
use eta_fault::FaultPlan;
use eta_sim::GpuConfig;
use etagraph::EtaConfig;

/// Shape of a group-serving service.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Devices in the pool (the group is drawn from these).
    pub devices: usize,
    /// Members acquired per query. A regrouped resume may run on fewer
    /// when quarantines shrink the healthy set.
    pub group_size: usize,
    pub gpu: GpuConfig,
    pub eta: EtaConfig,
    /// Bounded queue size; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// Per-device fault plan, installed on each member at every launch.
    pub faults: FaultPlan,
    /// Snapshot interval in supersteps (0 = checkpointing off; a faulted
    /// query then retries from scratch on the regrouped set).
    pub checkpoint_interval: u32,
    /// Overload control, on or off; off (the default) is byte-inert.
    pub qos: QosConfig,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            devices: 2,
            group_size: 2,
            gpu: GpuConfig::default_preset(),
            eta: EtaConfig::paper(),
            queue_capacity: 256,
            faults: FaultPlan::default(),
            checkpoint_interval: 0,
            qos: QosConfig::default(),
        }
    }
}

/// Constructor namespace for a [`Service`] on the group placement.
pub struct GroupService;

impl GroupService {
    /// The registry is taken mutably for compatibility only; partitions
    /// are cached behind `&GraphRegistry`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(registry: &mut GraphRegistry, cfg: GroupConfig) -> Service<'_> {
        let placement = Placement::Groups {
            size: cfg.group_size,
        };
        let cfg = ServeConfig {
            devices: cfg.devices,
            gpu: cfg.gpu,
            eta: cfg.eta,
            queue_capacity: cfg.queue_capacity,
            max_batch: 1,
            policy: Policy::Fifo,
            faults: cfg.faults,
            quarantine_after: 1,
            checkpoint_interval: cfg.checkpoint_interval,
            qos: cfg.qos,
        };
        Service::with_placement(registry, cfg, placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Priority, RejectReason, Request};
    use eta_ckpt::digest_words;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_graph::reference;
    use eta_mem::Ns;

    fn registry_with(names: &[(&str, u64)]) -> GraphRegistry {
        let mut reg = GraphRegistry::new();
        for &(name, seed) in names {
            reg.insert(name, rmat(&RmatConfig::paper(10, 8_000, seed)));
        }
        reg
    }

    fn req(id: u32, graph: &str, source: u32, arrival_ns: Ns) -> Request {
        Request {
            id,
            graph: graph.to_string(),
            class: Priority::Batch,
            source,
            arrival_ns,
            deadline_ns: None,
            timeout_ns: None,
        }
    }

    #[test]
    fn group_queries_answer_like_the_reference() {
        let mut reg = registry_with(&[("g", 1)]);
        let expect: Vec<u64> = (0..3u32)
            .map(|s| digest_words(&[&reference::bfs(reg.get("g").unwrap(), s)]))
            .collect();
        let trace: Vec<Request> = (0..3).map(|i| req(i, "g", i, 0)).collect();
        let cfg = GroupConfig {
            devices: 2,
            group_size: 2,
            ..GroupConfig::default()
        };
        let report = GroupService::new(&mut reg, cfg).run(&trace);
        assert_eq!(report.completed, 3);
        assert_eq!(report.degraded, 0);
        for r in &report.records {
            assert_eq!(r.levels_digest, expect[r.source as usize], "query {}", r.id);
        }
        assert_eq!(report.groups.len(), 1, "one composition: {{0,1}}");
        let g = &report.groups[0];
        assert_eq!(g.devices, vec![0, 1]);
        assert_eq!(g.queries, 3);
        assert!(g.exchanged_bytes > 0, "halo traffic crossed the fabric");
        assert!(g.bytes_per_superstep > 0);
        assert!(g.utilization > 0.0 && g.utilization <= 1.0);
    }

    #[test]
    fn groups_are_acquired_and_released_atomically() {
        let mut reg = registry_with(&[("g", 1)]);
        // Pool of 2, group of 2: two simultaneous queries must serialize —
        // a half-claimed group would let them overlap.
        let trace = vec![req(0, "g", 0, 0), req(1, "g", 5, 0)];
        let cfg = GroupConfig {
            devices: 2,
            group_size: 2,
            ..GroupConfig::default()
        };
        let report = GroupService::new(&mut reg, cfg).run(&trace);
        assert_eq!(report.completed, 2);
        assert_eq!(report.batches.len(), 2);
        let (a, b) = (&report.batches[0], &report.batches[1]);
        let (first, second) = if a.dispatched_ns <= b.dispatched_ns {
            (a, b)
        } else {
            (b, a)
        };
        assert!(
            second.dispatched_ns >= first.completed_ns,
            "second group query waited for the whole group"
        );
    }

    #[test]
    fn oversized_partitions_are_refused_at_admission() {
        use eta_shard::GraphPartition;
        let mut reg = registry_with(&[("g", 1)]);
        let cfg = GroupConfig::default();
        let csr = reg.get("g").unwrap().clone();
        let part = GraphPartition::vertex_range(&csr, 2);
        let max_shard = part
            .shards
            .iter()
            .map(|s| etagraph::engine::footprint_bytes(&s.csr, &cfg.eta))
            .max()
            .unwrap();
        // Regression for halo-blind admission: capacity sits between the
        // owned-only estimate (whole graph / group) and the true largest
        // member footprint. Sizing by owned ranges alone would admit — and
        // then OOM mid-flight; the halo-aware check must refuse upfront.
        let owned_only = max_shard
            - part
                .shards
                .iter()
                .map(|s| (s.halo.len() as u64) * 2 * 4) // halo label+tag words
                .max()
                .unwrap();
        assert!(owned_only < max_shard, "the halo replicas are what differ");
        let capacity = max_shard - 1;
        let gcfg = GroupConfig {
            gpu: GpuConfig::gtx1080ti_scaled(capacity),
            ..cfg
        };
        let report = GroupService::new(&mut reg, gcfg).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 0);
        assert_eq!(report.rejections.len(), 1);
        assert_eq!(report.rejections[0].reason, RejectReason::AdmissionDenied);
        // At exactly the largest member's footprint (plus topology slack
        // from the upload itself), the same query is admitted and served.
        let roomy = GroupConfig {
            gpu: GpuConfig::gtx1080ti_scaled(max_shard * 3),
            ..GroupConfig::default()
        };
        let report = GroupService::new(&mut reg, roomy).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn faulted_member_quarantines_and_the_query_regroups() {
        use eta_fault::HangFault;
        let mut reg = registry_with(&[("g", 1)]);
        let expect = digest_words(&[&reference::bfs(reg.get("g").unwrap(), 0)]);
        // Member 1 hangs instantly and permanently; pool of 3 with groups
        // of 2. The first attempt on {0, 1} faults, member 1 quarantines,
        // and the retry regroups on {0, 2} and completes on the devices.
        let plan = FaultPlan {
            hangs: vec![HangFault {
                device: 1,
                start_ns: 0,
                end_ns: Ns::MAX,
                budget_ns: 1_000,
            }],
            ..FaultPlan::default()
        };
        let cfg = GroupConfig {
            devices: 3,
            group_size: 2,
            faults: plan,
            checkpoint_interval: 2,
            ..GroupConfig::default()
        };
        let report = GroupService::new(&mut reg, cfg).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 1, "0 lost");
        assert_eq!(report.degraded, 0, "answered on devices, not the CPU");
        assert_eq!(report.records[0].levels_digest, expect, "0 wrong");
        assert_eq!(report.quarantines.len(), 1);
        assert_eq!(report.quarantines[0].device, 1);
        assert!(report.records[0].retries >= 1);
        let regrouped = report
            .groups
            .iter()
            .any(|g| g.devices == vec![0, 2] && g.queries == 1);
        assert!(regrouped, "the query completed on the regrouped set");
    }

    #[test]
    fn parked_snapshot_resumes_on_the_regrouped_set() {
        use eta_fault::HangFault;
        let mut reg = registry_with(&[("g", 1)]);
        let expect = digest_words(&[&reference::bfs(reg.get("g").unwrap(), 0)]);
        // A budget that admits the small early-superstep kernels but kills
        // the peak-frontier one: the interval-1 snapshot exists when member
        // 1 dies, so the regrouped retry resumes instead of restarting.
        let plan = FaultPlan {
            hangs: vec![HangFault {
                device: 1,
                start_ns: 0,
                end_ns: Ns::MAX,
                budget_ns: 40_000,
            }],
            ..FaultPlan::default()
        };
        let cfg = GroupConfig {
            devices: 3,
            group_size: 2,
            faults: plan,
            checkpoint_interval: 1,
            ..GroupConfig::default()
        };
        let report = GroupService::new(&mut reg, cfg).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded, 0);
        assert_eq!(report.records[0].levels_digest, expect);
        assert!(
            report.checkpoints >= 1,
            "a snapshot was taken before the kill"
        );
        assert_eq!(report.resumes, 1, "the retry resumed from the snapshot");
        assert_eq!(report.migrations, 1, "and on a different member set");
        assert!(report.work_saved_iterations >= 1);
    }

    #[test]
    fn group_runs_are_deterministic() {
        let trace: Vec<Request> = (0..5)
            .map(|i| req(i, "g", 2 * i, (i as Ns) * 10_000))
            .collect();
        let run = || {
            let mut reg = registry_with(&[("g", 1)]);
            let cfg = GroupConfig {
                devices: 3,
                group_size: 2,
                faults: FaultPlan::seeded(11, 1, 30_000_000),
                checkpoint_interval: 2,
                ..GroupConfig::default()
            };
            let report = GroupService::new(&mut reg, cfg).run(&trace);
            serde_json::to_string(&report).expect("report serializes")
        };
        assert_eq!(run(), run(), "same config, same trace, same bytes");
    }
}
