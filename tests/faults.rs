//! Fault-injection contract tests, spanning eta-fault → sim/mem → engine →
//! serve.
//!
//! Two properties anchor the whole subsystem:
//!
//! 1. **The empty plan is inert.** Installing `FaultPlan::default()` must
//!    leave every observable byte — results, timings, profiles — identical
//!    to a device that never heard of faults. This is what lets the fault
//!    hooks live permanently inside the hot paths without a feature flag.
//! 2. **Recovery always terminates.** For *any* seeded plan, the serving
//!    loop must come back with every request accounted for (completed or
//!    rejected), deterministically.

use eta_fault::FaultPlan;
use eta_graph::generate::{rmat, RmatConfig};
use eta_graph::Csr;
use eta_serve::{poisson_trace, GraphRegistry, ServeConfig, Service, WorkloadConfig};
use eta_sim::{Device, GpuConfig, SanitizerMode};
use etagraph::{Algorithm, EtaConfig};
use proptest::prelude::*;

/// Strategy: an arbitrary directed graph with 2..=64 vertices.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (2usize..64).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..256)
            .prop_map(move |edges| Csr::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: a device with the empty plan installed runs any BFS to
    /// the same labels, the same simulated timings, and the same profile
    /// bytes as a device with no plan at all.
    #[test]
    fn empty_plan_is_byte_identical_to_no_plan(g in arb_graph(), idx in any::<proptest::sample::Index>()) {
        let src = idx.index(g.n()) as u32;
        let cfg = EtaConfig::paper();
        let run = |install: bool| {
            let mut dev = Device::new(GpuConfig::default_preset().with_profiling());
            if install {
                dev.install_faults(&FaultPlan::default(), 0);
            }
            let r = etagraph::engine::run(&mut dev, &g, src, Algorithm::Bfs, &cfg).unwrap();
            (r.labels, r.total_ns, r.kernel_ns, dev.profile().to_chrome_trace())
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// Property 2: retry + backoff terminates for any seeded plan — the
    /// service returns with every request accounted for, twice identically.
    #[test]
    fn recovery_terminates_for_any_seeded_plan(seed in any::<u64>(), horizon in 1u64..100_000_000) {
        let mut reg = GraphRegistry::new();
        reg.insert("g", rmat(&RmatConfig::paper(8, 2_000, 3)));
        let workload = WorkloadConfig {
            requests: 10,
            seed: 11,
            rate_per_s: 50_000.0,
            ..WorkloadConfig::default()
        };
        let trace = poisson_trace(&reg, &["g".to_string()], &workload);
        let cfg = ServeConfig {
            devices: 2,
            faults: FaultPlan::seeded(seed, 2, horizon),
            ..ServeConfig::default()
        };
        let a = Service::new(&reg, cfg.clone()).run(&trace);
        prop_assert_eq!(a.completed + a.rejected, 10, "every request accounted");
        let b = Service::new(&reg, cfg).run(&trace);
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same plan, same bytes"
        );
    }
}

/// The acceptance scenario end to end: a seeded plan with a persistently
/// hanging device, served with the sanitizer and profiler attached. No
/// panics; the faulty device is quarantined; degraded answers are flagged;
/// availability and the quarantine timeline are reported.
#[test]
fn seeded_faults_are_survived_detected_and_reported() {
    let mut reg = GraphRegistry::new();
    reg.insert("a", rmat(&RmatConfig::paper(10, 8_000, 1)));
    reg.insert("b", rmat(&RmatConfig::paper(10, 8_000, 2)));
    let workload = WorkloadConfig {
        requests: 48,
        seed: 7,
        rate_per_s: 20_000.0,
        ..WorkloadConfig::default()
    };
    let trace = poisson_trace(&reg, &["a".to_string(), "b".to_string()], &workload);

    // Pin device 0 into a permanent hang window (plus a seeded background
    // of ECC/UM/PCIe events) so the full ladder — retry, quarantine, CPU
    // fallback — must engage; device 1 keeps serving.
    let mut plan = FaultPlan::seeded(5, 2, 50_000_000);
    plan.hangs.push(eta_fault::HangFault {
        device: 0,
        start_ns: 0,
        end_ns: u64::MAX,
        budget_ns: 1_000,
    });
    let cfg = ServeConfig {
        devices: 2,
        gpu: GpuConfig::default_preset()
            .with_profiling()
            .with_sanitizer(SanitizerMode::Full),
        faults: plan,
        ..ServeConfig::default()
    };
    let mut service = Service::new(&reg, cfg);
    let report = service.run(&trace);

    assert_eq!(
        report.completed + report.rejected,
        48,
        "every request is accounted for"
    );
    assert!(report.availability > 0.0 && report.availability <= 1.0);
    assert!(
        !report.fault_events.is_empty(),
        "the hanging device must surface faults"
    );
    assert!(
        report.quarantines.iter().any(|q| q.device == 0),
        "device 0 must be quarantined"
    );
    assert!(
        report.records.iter().any(|r| r.degraded && r.retries > 0),
        "some request must have exhausted its retries into the CPU fallback"
    );
    // Degraded answers are still correct (reached counts match the oracle).
    for r in report.records.iter().filter(|r| r.degraded) {
        let levels = eta_graph::reference::bfs(reg.get(&r.graph).unwrap(), r.source);
        let reached = levels.iter().filter(|&&l| l != u32::MAX).count() as u32;
        assert_eq!(r.reached, reached, "degraded request {}", r.id);
    }
    // Detection surfaces beyond the scheduler: the profiler carries fault
    // instants on the faults track.
    let profile = service.profile();
    let fault_instants: Vec<&str> = profile
        .processes
        .iter()
        .flat_map(|p| p.events.iter())
        .filter(|e| e.track == eta_prof::Track::Fault)
        .map(|e| e.name.as_str())
        .collect();
    assert!(
        fault_instants.contains(&"kernel_hang"),
        "device-side hang instants recorded, got {fault_instants:?}"
    );
    assert!(
        fault_instants.contains(&"retry") && fault_instants.contains(&"quarantine"),
        "scheduler-side ladder instants recorded, got {fault_instants:?}"
    );
    // And the run itself is deterministic under faults (re-run, same bytes).
    let again = Service::new(
        &reg,
        ServeConfig {
            devices: 2,
            gpu: GpuConfig::default_preset()
                .with_profiling()
                .with_sanitizer(SanitizerMode::Full),
            faults: {
                let mut p = FaultPlan::seeded(5, 2, 50_000_000);
                p.hangs.push(eta_fault::HangFault {
                    device: 0,
                    start_ns: 0,
                    end_ns: u64::MAX,
                    budget_ns: 1_000,
                });
                p
            },
            ..ServeConfig::default()
        },
    )
    .run(&trace);
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&again).unwrap()
    );
}

/// `pagerank::run` used to launch without ever polling the fault watchdog:
/// under this plan it returned `Ok` with an ECC double-bit error left
/// pending on the device for its next user. Every launch now goes through
/// the driver's one polling site, so the fault surfaces as a typed error —
/// and either way nothing stays pending.
#[test]
fn pagerank_surfaces_device_faults_instead_of_swallowing_them() {
    use etagraph::pagerank::{self, PageRankConfig};
    let g = rmat(&RmatConfig::paper(10, 8_000, 3));
    let cfg = PageRankConfig::default();
    let run = |plan: Option<FaultPlan>| {
        let mut dev = Device::new(GpuConfig::default_preset());
        if let Some(plan) = &plan {
            dev.install_faults(plan, 0);
        }
        let r = pagerank::run(&mut dev, &g, &cfg);
        assert!(dev.take_fault().is_none(), "no fault may be left pending");
        r.map(|r| r.ranks.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
    };
    let faulted = run(Some(FaultPlan::seeded(5, 1, 1_000_000)));
    assert!(
        matches!(faulted, Err(etagraph::QueryError::DeviceFault(_))),
        "got {faulted:?}"
    );
    let clean = run(None).expect("no plan, no fault");
    let inert = run(Some(FaultPlan::default())).expect("the empty plan is inert");
    assert_eq!(clean, inert, "bit-identical ranks under the empty plan");
}
