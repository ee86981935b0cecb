//! Integration tests for the overload-control (qos) layer: exactly-once
//! request disposition under saturation, byte-determinism, and the behavior
//! of each control — admission, shedding, fair share, the retry budget, and
//! brownout — observed through the public `Service` API, on both placements.
//!
//! Exactly-once disposition is not re-asserted per test. It rests on a
//! type-level argument plus one property: an admitted request is a
//! `Queued` token that is not `Clone` and that the ledger's terminal
//! transitions consume by value, so no request can be answered twice
//! (`sched::tests::queued_requests_cannot_be_cloned`, `tests/emit_sites.rs`);
//! that none is dropped is the saturation grid below, and in every debug
//! build `Service::run` asserts that dispositions add up to the trace.

use eta_fault::{FaultPlan, HangFault};
use eta_graph::generate::{rmat, RmatConfig};
use eta_mem::Ns;
use eta_serve::{
    poisson_trace, Arrival, GraphRegistry, GroupConfig, GroupService, Priority, QosConfig,
    RejectReason, Request, ServeConfig, ServeReport, Service, WorkloadConfig,
};
use std::collections::BTreeSet;

fn registry_with(names: &[(&str, u64)]) -> GraphRegistry {
    let mut reg = GraphRegistry::new();
    for &(name, seed) in names {
        reg.insert(name, rmat(&RmatConfig::paper(10, 8_000, seed)));
    }
    reg
}

fn req(id: u32, graph: &str, class: Priority, source: u32, arrival_ns: Ns) -> Request {
    Request {
        id,
        graph: graph.to_string(),
        class,
        source,
        arrival_ns,
        deadline_ns: None,
        timeout_ns: None,
    }
}

/// Every id in the trace must appear exactly once across completions and
/// rejections — no request lost, none double-counted.
fn assert_exactly_once(trace: &[Request], report: &ServeReport, label: &str) {
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for r in &report.records {
        assert!(seen.insert(r.id), "{label}: id {} double-completed", r.id);
    }
    for r in &report.rejections {
        assert!(
            seen.insert(r.id),
            "{label}: id {} both completed and rejected",
            r.id
        );
    }
    let expected: BTreeSet<u32> = trace.iter().map(|r| r.id).collect();
    assert_eq!(seen, expected, "{label}: disposition must cover the trace");
    assert_eq!(
        report.completed as usize + report.rejections.len(),
        trace.len(),
        "{label}: counts must add up"
    );
}

/// Property-style sweep: placements x rate multipliers x arrival shapes x
/// fault plans, all with the full qos profile on a small queue. Every cell
/// must dispose of every request exactly once, and a second run must
/// serialize to the same bytes.
#[test]
fn exactly_once_disposition_under_saturation_grid() {
    let mut reg = registry_with(&[("tenant-a", 1), ("tenant-b", 2)]);
    let names = vec!["tenant-a".to_string(), "tenant-b".to_string()];
    for grouped in [false, true] {
        for &rate in &[20_000.0f64, 80_000.0, 160_000.0] {
            for &arrival in &[Arrival::Poisson, Arrival::Burst] {
                for plan_seed in [None, Some(131u64)] {
                    let workload = WorkloadConfig {
                        requests: 80,
                        seed: 7,
                        rate_per_s: rate,
                        arrival,
                        interactive_fraction: 0.5,
                        interactive_slo_ns: Some(1_000_000),
                        batch_slo_ns: None,
                        timeout_ns: None,
                    };
                    let trace = poisson_trace(&reg, &names, &workload);
                    let faults = plan_seed
                        .map(|s| FaultPlan::seeded(s, 2, 10_000_000))
                        .unwrap_or_default();
                    // Pool of 2, or groups of 2 drawn from 3 devices.
                    let mut run = || {
                        if grouped {
                            let cfg = GroupConfig {
                                devices: 3,
                                group_size: 2,
                                queue_capacity: 16,
                                checkpoint_interval: 2,
                                faults: faults.clone(),
                                qos: QosConfig::standard(),
                                ..GroupConfig::default()
                            };
                            GroupService::new(&mut reg, cfg).run(&trace)
                        } else {
                            let cfg = ServeConfig {
                                devices: 2,
                                queue_capacity: 16,
                                checkpoint_interval: 2,
                                faults: faults.clone(),
                                qos: QosConfig::standard(),
                                ..ServeConfig::default()
                            };
                            Service::new(&reg, cfg).run(&trace)
                        }
                    };
                    let label = format!(
                        "grouped={grouped} rate={rate} arrival={} plan={plan_seed:?}",
                        arrival.name()
                    );
                    let a = run();
                    assert_exactly_once(&trace, &a, &label);
                    // The controls are on wherever they are configured:
                    // with shedding enabled a full queue sheds its worst
                    // entry, it never answers `queue_full`.
                    assert!(
                        a.rejections
                            .iter()
                            .all(|r| r.reason != RejectReason::QueueFull),
                        "{label}: shedding replaces queue_full"
                    );
                    let b = run();
                    let json = |r: &ServeReport| serde_json::to_string(r).expect("serializes");
                    assert_eq!(json(&a), json(&b), "{label}: reruns must be byte-identical");
                }
            }
        }
    }
}

/// With qos off (the default), the report carries no qos section at all —
/// the layer is invisible.
#[test]
fn qos_off_reports_no_qos_section() {
    let reg = registry_with(&[("g", 1)]);
    let report =
        Service::new(&reg, ServeConfig::default()).run(&[req(0, "g", Priority::Batch, 0, 0)]);
    assert!(report.qos.is_none());
    assert_eq!(report.completed, 1);
}

/// Below saturation the controls cost nothing: on a light trace (no
/// faults, the queue never reaches fair share's threshold of 8, an SLO far
/// above the service time) qos on serves every request exactly as qos off.
#[test]
fn qos_is_inert_below_saturation() {
    let reg = registry_with(&[("tenant-a", 1), ("tenant-b", 2)]);
    let names = vec!["tenant-a".to_string(), "tenant-b".to_string()];
    let workload = WorkloadConfig {
        requests: 60,
        rate_per_s: 2_000.0,
        interactive_slo_ns: Some(50_000_000),
        ..WorkloadConfig::default()
    };
    let trace = poisson_trace(&reg, &names, &workload);
    let run = |qos| {
        let cfg = ServeConfig {
            devices: 2,
            qos,
            ..ServeConfig::default()
        };
        Service::new(&reg, cfg).run(&trace)
    };
    let (off, on) = (run(QosConfig::default()), run(QosConfig::standard()));
    let stats = on.qos.as_ref().unwrap();
    assert!(stats.max_queue_depth < 8, "light load: {stats:?}");
    assert_eq!((on.completed, off.completed), (60, 60));
    assert!(on.records.iter().any(|r| r.deadline_met == Some(true)));
    assert_eq!(
        serde_json::to_string(&on.records).unwrap(),
        serde_json::to_string(&off.records).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&on.batches).unwrap(),
        serde_json::to_string(&off.batches).unwrap()
    );
}

/// Admission control refuses a request whose deadline is already
/// unmeetable at arrival; with qos off the same request is served (late).
#[test]
fn admission_rejects_infeasible_deadlines_at_arrival() {
    let reg = registry_with(&[("g", 1)]);
    let mut r = req(0, "g", Priority::Interactive, 0, 0);
    r.deadline_ns = Some(1); // one nanosecond after arrival: hopeless
    let trace = vec![r];

    let qos_on = ServeConfig {
        qos: QosConfig::standard(),
        ..ServeConfig::default()
    };
    let report = Service::new(&reg, qos_on).run(&trace);
    assert_eq!(report.completed, 0);
    assert_eq!(report.rejections.len(), 1);
    assert_eq!(
        report.rejections[0].reason,
        RejectReason::DeadlineInfeasible
    );
    assert_eq!(report.qos.as_ref().unwrap().admission_rejections, 1);

    let report = Service::new(&reg, ServeConfig::default()).run(&trace);
    assert_eq!(report.completed, 1, "without qos the request runs");
    assert_eq!(report.records[0].deadline_met, Some(false));
}

/// At queue capacity, shedding drops the worst queued entry (best-effort
/// batch traffic) to make room for a deadline-bearing interactive
/// newcomer — instead of bouncing the newcomer as `queue_full`.
#[test]
fn shed_evicts_worst_entry_not_the_newcomer() {
    let reg = registry_with(&[("g", 1)]);
    // Serial service (1 device, no batching) so the queue actually fills:
    // a wave of batch-class requests, then interactive stragglers.
    let mut trace: Vec<Request> = (0..10)
        .map(|i| req(i, "g", Priority::Batch, i, i as Ns))
        .collect();
    for i in 10..14u32 {
        let mut r = req(i, "g", Priority::Interactive, i, 100 + i as Ns);
        r.deadline_ns = Some(100 + i as Ns + 50_000_000);
        trace.push(r);
    }
    let cfg = ServeConfig {
        queue_capacity: 4,
        max_batch: 1,
        qos: QosConfig::standard(),
        ..ServeConfig::default()
    };
    let report = Service::new(&reg, cfg).run(&trace);
    let shed: Vec<u32> = report
        .rejections
        .iter()
        .filter(|r| r.reason == RejectReason::ShedOverload)
        .map(|r| r.id)
        .collect();
    assert!(!shed.is_empty(), "overload must shed something");
    assert!(
        shed.iter().all(|&id| id < 10),
        "only best-effort batch entries are shed, got {shed:?}"
    );
    for i in 10..14 {
        assert!(
            report.records.iter().any(|r| r.id == i),
            "interactive request {i} must complete"
        );
    }
    assert_eq!(
        report.qos.as_ref().unwrap().shed_rejections,
        shed.len() as u32
    );

    // The same hook on the group placement, which used to answer a full
    // queue `queue_full` while reporting qos as on: a burst of equals
    // against a one-slot queue sheds each newcomer (highest id = worst).
    let mut reg = reg;
    let burst: Vec<Request> = (0..6).map(|i| req(i, "g", Priority::Batch, i, 0)).collect();
    let cfg = GroupConfig {
        queue_capacity: 1,
        qos: QosConfig::standard(),
        ..GroupConfig::default()
    };
    let report = GroupService::new(&mut reg, cfg).run(&burst);
    assert_eq!(report.completed, 1);
    assert_eq!(report.rejections.len(), 5);
    assert!(report
        .rejections
        .iter()
        .all(|r| r.reason == RejectReason::ShedOverload));
    assert_eq!(report.qos.as_ref().unwrap().shed_rejections, 5);
}

/// Under congestion, per-tenant fair share throttles the flooding tenant
/// and the light tenant's requests all complete. The flood arrives at
/// once, so every charge is the cost model's prior: the tenant's 30 ms
/// burst admits about 700 requests on this graph, and the rest are
/// throttled.
#[test]
fn fair_share_throttles_the_flooding_tenant() {
    const FLOOD: u32 = 760;
    let mut reg = GraphRegistry::new();
    reg.insert("flood", rmat(&RmatConfig::paper(8, 2_000, 1)));
    reg.insert("light", rmat(&RmatConfig::paper(8, 2_000, 2)));
    let mut trace: Vec<Request> = (0..FLOOD)
        .map(|i| req(i, "flood", Priority::Batch, i % 256, i as Ns))
        .collect();
    for i in FLOOD..FLOOD + 6 {
        let arrival = (i - FLOOD) as Ns * 1_000_000;
        trace.push(req(i, "light", Priority::Batch, i % 256, arrival));
    }
    trace.sort_by_key(|r| (r.arrival_ns, r.id));
    let cfg = ServeConfig {
        queue_capacity: 1024,
        qos: QosConfig::standard(),
        ..ServeConfig::default()
    };
    let report = Service::new(&reg, cfg).run(&trace);
    let throttled: Vec<u32> = report
        .rejections
        .iter()
        .filter(|r| r.reason == RejectReason::TenantThrottled)
        .map(|r| r.id)
        .collect();
    assert!(!throttled.is_empty(), "the flood must hit its fair share");
    assert!(
        throttled.iter().all(|&id| id < FLOOD),
        "only the flooding tenant is throttled, got {throttled:?}"
    );
    for i in FLOOD..FLOOD + 6 {
        assert!(
            report.records.iter().any(|r| r.id == i),
            "light-tenant request {i} must complete"
        );
    }
    assert_eq!(
        report.qos.as_ref().unwrap().throttle_rejections,
        throttled.len() as u32
    );
}

/// The retry-amplification regression: on a permanently hanging device, an
/// exhausted retry budget (4 tokens, refilling at 100/s, far slower than
/// this trace) sends requests straight to the CPU fallback instead of
/// burning device time on doomed retries — every answer still arrives,
/// and the budgeted run finishes no later than the unbudgeted one.
#[test]
fn retry_budget_caps_amplification_on_a_hanging_device() {
    let reg = registry_with(&[("g", 1)]);
    let plan = FaultPlan {
        hangs: vec![HangFault {
            device: 0,
            start_ns: 0,
            end_ns: Ns::MAX,
            budget_ns: 1_000,
        }],
        ..FaultPlan::default()
    };
    let trace: Vec<Request> = (0..8)
        .map(|i| req(i, "g", Priority::Batch, i, (i as Ns) * 10_000))
        .collect();
    let unbudgeted = ServeConfig {
        faults: plan.clone(),
        ..ServeConfig::default()
    };
    let budgeted = ServeConfig {
        faults: plan,
        qos: QosConfig::standard(),
        ..ServeConfig::default()
    };
    let base = Service::new(&reg, unbudgeted).run(&trace);
    let capped = Service::new(&reg, budgeted).run(&trace);
    for r in [&base, &capped] {
        assert_eq!(r.completed, 8, "no request is lost either way");
        assert_eq!(r.rejected, 0);
        assert_eq!(r.degraded, 8, "every answer comes from the CPU fallback");
    }
    let stats = capped.qos.as_ref().unwrap();
    assert_eq!(stats.retries_granted, 4, "four tokens in the bucket");
    assert!(stats.retries_denied > 0, "the rest are denied");
    assert!(
        capped.fault_events.len() < base.fault_events.len(),
        "denied retries stop re-probing the hanging device ({} vs {})",
        capped.fault_events.len(),
        base.fault_events.len()
    );
    assert!(
        capped.makespan_ns <= base.makespan_ns,
        "the budget must not slow completion: {} vs {} ns",
        capped.makespan_ns,
        base.makespan_ns
    );
}

/// Sustained queue delay enters brownout (best-effort riders demoted and
/// run degraded via zero-copy); draining the queue exits it again.
#[test]
fn brownout_degrades_best_effort_and_recovers() {
    let reg = registry_with(&[("g", 1)]);
    // A dense wave of best-effort requests with a few interactive riders,
    // then a long-quiet tail so the wait EWMA decays back under the exit
    // threshold while brownout is still observable mid-run.
    let mut trace: Vec<Request> = (0..40)
        .map(|i| {
            let class = if i % 4 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            let mut r = req(i, "g", class, i, (i as Ns) * 1_000);
            if class == Priority::Interactive {
                r.deadline_ns = Some(r.arrival_ns + 100_000_000);
            }
            r
        })
        .collect();
    // The EWMA decays by 7/8 per near-zero-wait sample, so give the tail
    // enough spaced dispatches to fall from the wave's multi-ms wait down
    // under the exit threshold.
    for i in 40..100u32 {
        trace.push(req(i, "g", Priority::Batch, i, (i as Ns) * 2_000_000));
    }
    let cfg = ServeConfig {
        max_batch: 4,
        qos: QosConfig::standard(),
        ..ServeConfig::default()
    };
    let report = Service::new(&reg, cfg).run(&trace);
    let stats = report.qos.as_ref().unwrap();
    assert!(stats.brownout_entries > 0, "the wave must enter brownout");
    assert!(
        stats.brownout_batches > 0 && stats.brownout_downgrades > 0,
        "brownout must actually degrade best-effort batches: {stats:?}"
    );
    assert!(
        stats.brownout_exits > 0,
        "the quiet tail must exit brownout: {stats:?}"
    );
}
