//! `serve_overload`: the serving layer under rising, bursty, faulty load.
//!
//! Three R-MAT tenants (two scale 10, one scale 12) on a two-device pool
//! whose capacity is calibrated by a closed burst. Then 1500-request
//! traces: 1x Poisson on the plain service; 2x and 4x MMPP bursts with
//! `QosConfig::standard()`, checkpoints every 2 iterations, a seeded
//! `FaultPlan` and a permanently hanging device 0; and 150 requests through
//! `GroupService` (4 devices, groups of 2). The scheduler, qos, the recovery
//! ladder, the CPU fallback and warm 32-source `multi_bfs` batches on tiny
//! graphs do the work here; the memory model does little.
//!
//! The loop is open on the *simulated* clock — latency counts from arrival,
//! and the generator is never late, because arrivals are data, not sleeps —
//! and a single `run` call per trace on the host.

use crate::harness::{ProbeInput, Tally, Verdict, Workload};
use crate::span::Tracer;
use crate::stats;
use eta_ckpt::digest_words;
use eta_fault::{FaultPlan, HangFault};
use eta_graph::generate::{rmat, splitmix, RmatConfig};
use eta_graph::reference;
use eta_mem::Ns;
use eta_serve::{
    poisson_trace, Arrival, DeviceWorker, GraphRegistry, GroupConfig, GroupService, Priority,
    QosConfig, Request, ServeConfig, ServeReport, Service, WorkloadConfig,
};
use eta_sim::GpuConfig;
use etagraph::EtaConfig;
use std::collections::BTreeMap;

const REQUESTS: u32 = 1500;
const GROUP_REQUESTS: u32 = 150;
/// Interactive SLO in calibrated pool-wide request slots (about 3 ms). The
/// overload drill's 24 slots sit below the pool's own 1x latency with three
/// unequal tenants, which leaves attainment at a few per cent and mostly
/// noise; at 120 it reads 1.0 at 1x, about 0.9 at 2x and 0.6 at 4x.
const SLO_SLOTS: f64 = 120.0;
/// The calibration burst is a measurement of the pool, not an input of the
/// run: a fixed seed keeps the arrival rates and the SLO the same absolute
/// numbers under every `--seed`.
const CALIBRATION_SEED: u64 = 0xCA1;
/// Tenant topologies are fixed: the simulated end-to-end metrics are
/// absolute milliseconds, and an R-MAT draw moves the pool's capacity by a
/// third, which would drown any change to the system in seed noise. The
/// seed drives every source, arrival, class and fault instead.
const TENANTS: [(&str, u32, usize, u64); 3] = [
    ("tenant-a", 10, 8_000, 11),
    ("tenant-b", 10, 8_000, 12),
    ("tenant-c", 12, 32_000, 13),
];

#[derive(Clone, Copy, PartialEq)]
enum Cell {
    Pool1x,
    PoolBurst,
    Group,
}

struct Scenario {
    label: &'static str,
    metric: &'static str,
    cell: Cell,
    trace: Vec<Request>,
}

pub struct ServeOverload {
    registry: GraphRegistry,
    plan: FaultPlan,
    scenarios: Vec<Scenario>,
    warm_trace: Vec<Request>,
    reports: Vec<ServeReport>,
    /// CPU-reference level digests per (tenant, source), filled on demand.
    digests: BTreeMap<(String, u32), u64>,
}

fn pool_cfg(plan: &FaultPlan, qos: bool) -> ServeConfig {
    let base = ServeConfig {
        devices: 2,
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    if qos {
        ServeConfig {
            faults: plan.clone(),
            checkpoint_interval: 2,
            qos: QosConfig::standard(),
            ..base
        }
    } else {
        base
    }
}

fn group_cfg() -> GroupConfig {
    GroupConfig {
        devices: 4,
        group_size: 2,
        ..GroupConfig::default()
    }
}

impl ServeOverload {
    pub fn build(seed: u64, tr: &mut Tracer) -> Self {
        let mut registry = GraphRegistry::new();
        tr.in_span(
            "graph",
            "generate::rmat tenants",
            Some("graph.build_s"),
            || {
                for (name, scale, edges, graph_seed) in TENANTS {
                    registry.insert(name, rmat(&RmatConfig::paper(scale, edges, graph_seed)));
                }
            },
        );
        tr.lap();
        let names: Vec<String> = TENANTS.iter().map(|t| t.0.to_string()).collect();
        let workload = |requests, stream: u64, rate_per_s, arrival, slo| WorkloadConfig {
            requests,
            seed: splitmix(seed, stream),
            rate_per_s,
            arrival,
            interactive_fraction: 0.6,
            interactive_slo_ns: slo,
            batch_slo_ns: None,
            timeout_ns: None,
        };

        // Capacity: a closed burst on the plain pool; everything queues at
        // once, so completed / makespan is what the batched pool can drain.
        let capacity_qps = tr.in_span("serve", "calibrate capacity", None, || {
            let burst = WorkloadConfig {
                seed: CALIBRATION_SEED,
                interactive_fraction: 0.0,
                ..workload(64, 0, 1e7, Arrival::Poisson, None)
            };
            let trace = poisson_trace(&registry, &names, &burst);
            let report =
                Service::new(&registry, pool_cfg(&FaultPlan::default(), false)).run(&trace);
            report.completed as f64 / (report.makespan_ns.max(1) as f64 / 1e9)
        });
        tr.lap();
        let slo_ns = (SLO_SLOTS * 1e9 / capacity_qps) as Ns;
        let horizon = (REQUESTS as f64 / capacity_qps * 1e9) as Ns;

        let (scenarios, warm_trace) =
            tr.in_span("serve", "poisson_trace", Some("serve.trace_gen_ms"), || {
                let gen = |requests, stream, mult: f64, arrival| {
                    poisson_trace(
                        &registry,
                        &names,
                        &workload(requests, stream, capacity_qps * mult, arrival, Some(slo_ns)),
                    )
                };
                let scenarios = vec![
                    Scenario {
                        label: "Service::run 1x poisson",
                        metric: "serve.run_s.pool_1x",
                        cell: Cell::Pool1x,
                        trace: gen(REQUESTS, 1, 1.0, Arrival::Poisson),
                    },
                    Scenario {
                        label: "Service::run 2x burst qos+faults",
                        metric: "serve.run_s.pool_burst_qos",
                        cell: Cell::PoolBurst,
                        trace: gen(REQUESTS, 2, 2.0, Arrival::Burst),
                    },
                    Scenario {
                        label: "Service::run 4x burst qos+faults",
                        metric: "serve.run_s.pool_burst_qos",
                        cell: Cell::PoolBurst,
                        trace: gen(REQUESTS, 3, 4.0, Arrival::Burst),
                    },
                    Scenario {
                        label: "GroupService::run",
                        metric: "serve.run_s.group",
                        cell: Cell::Group,
                        trace: gen(GROUP_REQUESTS, 4, 0.25, Arrival::Poisson),
                    },
                ];
                (scenarios, gen(32, 5, 1.0, Arrival::Poisson))
            });

        // Seeded faults over the expected serving window, plus a device that
        // hangs on every launch for the whole of it.
        let mut plan = FaultPlan::seeded(splitmix(seed, 0xFA17), 2, horizon);
        plan.hangs.push(HangFault {
            device: 0,
            start_ns: 0,
            end_ns: horizon,
            budget_ns: 50_000,
        });
        ServeOverload {
            registry,
            plan,
            scenarios,
            warm_trace,
            reports: Vec::new(),
            digests: BTreeMap::new(),
        }
    }

    /// Serves one trace on a fresh service and tallies the pool devices'
    /// memory-system counts.
    fn serve(&mut self, cell: Cell, trace: &[Request], tally: &mut Tally) -> ServeReport {
        match cell {
            Cell::Pool1x | Cell::PoolBurst => {
                let cfg = pool_cfg(&self.plan, cell == Cell::PoolBurst);
                let mut service = Service::new(&self.registry, cfg);
                let report = service.run(trace);
                for w in service.workers() {
                    tally.add_um(&w.dev.mem.um.stats);
                    tally.add_timeline(&w.dev.merged_timeline());
                    tally.add_zero_copy(w.dev.mem.zero_copy_bytes);
                }
                report
            }
            Cell::Group => GroupService::new(&mut self.registry, group_cfg()).run(trace),
        }
    }
}

impl Workload for ServeOverload {
    fn warm_up(&mut self) {
        // One small trace through each service; the group run also fills
        // the registry's partition cache, as a long-lived server would have.
        let trace = std::mem::take(&mut self.warm_trace);
        self.serve(Cell::Pool1x, &trace, &mut Tally::default());
        self.serve(Cell::Group, &trace, &mut Tally::default());
        self.warm_trace = trace;
    }

    fn pass(&mut self, tr: &mut Tracer) -> Tally {
        let mut tally = Tally::default();
        let scenarios = std::mem::take(&mut self.scenarios);
        self.reports.clear();
        for (i, sc) in scenarios.iter().enumerate() {
            tr.set_query(i as u32 + 1);
            let id = tr.begin("serve", sc.label, Some(sc.metric));
            let report = self.serve(sc.cell, &sc.trace, &mut tally);
            tr.end(id);
            self.reports.push(report);
            tr.lap();
        }
        tr.set_query(0);

        let mut interactive_latencies: Vec<Ns> = Vec::new();
        let (mut batched, mut useful) = (0u64, 0u64);
        for (sc, report) in scenarios.iter().zip(&self.reports) {
            tally.queries += sc.trace.len() as u64;
            for req in &sc.trace {
                tally.edges += self.registry.get(&req.graph).map_or(0, |g| g.m()) as u64;
            }
            tally.sim_total_ns += report.makespan_ns;
            tally.slo_pool += sc.trace.iter().filter(|r| r.deadline_ns.is_some()).count() as u64;
            for r in &report.records {
                if !r.degraded {
                    tally.sim_kernel_ns += r.compute_ns as f64 / r.batch_size.max(1) as f64;
                }
                if r.deadline_met == Some(true) {
                    tally.good += 1;
                }
                if r.deadline_met != Some(false) {
                    useful += 1;
                }
                // The tail is the pool's: the group cell's few, slower
                // sharded queries would otherwise be the whole of it.
                if r.class == Priority::Interactive && sc.cell != Cell::Group {
                    interactive_latencies.push(r.latency_ns);
                }
                tally.add("serve.retries", r.retries as f64);
            }
            batched += report.batches.iter().map(|b| b.size as u64).sum::<u64>();
            tally.add("serve.completed", report.completed as f64);
            tally.add("serve.rejected", report.rejected as f64);
            tally.add("serve.degraded", report.degraded as f64);
            tally.add("serve.batches", report.batches.len() as f64);
            tally.add("serve.fault_events", report.fault_events.len() as f64);
            tally.add("serve.resumes", report.resumes as f64);
            for g in &report.groups {
                tally.add("shard.supersteps", g.supersteps as f64);
                tally.add("shard.exchanged_mb", g.exchanged_bytes as f64 / 1e6);
            }
        }
        let batches = tally.counts["serve.batches"];
        tally.add("serve.mean_batch", batched as f64 / batches.max(1.0));
        tally.add(
            "serve.useful_frac",
            useful as f64 / tally.queries.max(1) as f64,
        );
        // About 2000 interactive requests complete on the pool, so p99 has
        // more than ten samples beyond it; a smaller sample reports the
        // percentile it does support.
        let p = stats::highest_supported_percentile(interactive_latencies.len())
            .map_or(100.0, |p| p.min(99.0));
        tally.tail_ns = stats::percentile(&interactive_latencies, p).unwrap_or(0);
        tally.finish();
        self.scenarios = scenarios;
        tally
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        for (sc, report) in self.scenarios.iter().zip(&self.reports) {
            // Every id is disposed exactly once: completed xor rejected.
            let mut seen: BTreeMap<u32, u32> = BTreeMap::new();
            for id in report
                .records
                .iter()
                .map(|r| r.id)
                .chain(report.rejections.iter().map(|r| r.id))
            {
                *seen.entry(id).or_insert(0) += 1;
            }
            let known: BTreeMap<u32, &Request> = sc.trace.iter().map(|r| (r.id, r)).collect();
            let mut bad = seen.keys().filter(|id| !known.contains_key(id)).count();
            for req in &sc.trace {
                if seen.get(&req.id).copied().unwrap_or(0) != 1 {
                    bad += 1;
                }
            }
            // Every completed answer equals the CPU reference.
            for r in &report.records {
                let csr = self.registry.get(&r.graph);
                let want = *self
                    .digests
                    .entry((r.graph.clone(), r.source))
                    .or_insert_with(|| {
                        csr.map_or(0, |g| digest_words(&[&reference::bfs(g, r.source)]))
                    });
                if csr.is_none() || r.levels_digest != want {
                    bad += 1;
                }
            }
            v.attempted += sc.trace.len() as u64;
            v.failed += bad as u64;
            if bad > 0 {
                v.notes.push(format!(
                    "{}: {bad} requests lost, double-counted or wrong",
                    sc.label
                ));
            }
            // The faulted cells must actually exercise the recovery ladder.
            if sc.cell == Cell::PoolBurst {
                v.check(!report.fault_events.is_empty(), || {
                    format!("{}: the fault plan injected nothing", sc.label)
                });
            }
        }
        v
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        let graph = self
            .registry
            .get(TENANTS[2].0)
            .expect("tenant-c is registered");
        let source = self.scenarios[0]
            .trace
            .iter()
            .find(|r| r.graph == TENANTS[2].0 && graph.degree(r.source) > 0)
            .map_or(0, |r| r.source);
        ProbeInput { graph, source }
    }

    /// Replays the pool's completed device batches, regrouped by device and
    /// dispatch tick, straight through `DeviceWorker::run_batch`: the engine
    /// time inside `Service::run`. What is left is the scheduler's own.
    fn trace_extras(&mut self, tr: &mut Tracer, layer: &mut BTreeMap<String, f64>) {
        let eta = EtaConfig::paper();
        let mut replay_s = 0.0;
        let mut counts = Tally::default();
        for (sc, report) in self.scenarios.iter().zip(&self.reports) {
            if sc.cell == Cell::Group {
                continue;
            }
            let mut batches: BTreeMap<(u32, Ns, &str), Vec<u32>> = BTreeMap::new();
            for r in report.records.iter().filter(|r| !r.degraded) {
                batches
                    .entry((r.device, r.arrival_ns + r.queue_wait_ns, r.graph.as_str()))
                    .or_default()
                    .push(r.source);
            }
            let mut workers: Vec<DeviceWorker> = (0..2)
                .map(|d| DeviceWorker::new(d, GpuConfig::default_preset()))
                .collect();
            let id = tr.begin("core", "DeviceWorker::run_batch replay", None);
            let t0 = std::time::Instant::now();
            for ((device, tick, graph), sources) in &batches {
                let Some(csr) = self.registry.get(graph) else {
                    continue;
                };
                let worker = &mut workers[*device as usize % 2];
                let Ok(ready) = worker.ensure_resident(graph, csr, &eta, *tick) else {
                    continue;
                };
                for chunk in sources.chunks(etagraph::multi_bfs::MAX_BATCH) {
                    if let Ok(r) = worker.run_batch(graph, chunk, &eta, ready) {
                        counts.add_kernel_metrics(r.iterations, &r.metrics);
                    }
                }
            }
            replay_s += t0.elapsed().as_secs_f64();
            tr.end(id);
        }
        for (k, v) in counts.counts {
            layer.insert(k.to_string(), v);
        }
        let get = |layer: &BTreeMap<String, f64>, k: &str| layer.get(k).copied().unwrap_or(0.0);
        let pool_s = get(layer, "serve.run_s.pool_1x") + get(layer, "serve.run_s.pool_burst_qos");
        let run_s = pool_s + get(layer, "serve.run_s.group");
        let requests: usize = self.scenarios.iter().map(|s| s.trace.len()).sum();
        layer.insert("serve.engine_replay_s".into(), replay_s);
        if pool_s > 0.0 {
            layer.insert("serve.sched_self_frac".into(), 1.0 - replay_s / pool_s);
            let batches = get(layer, "serve.batches").max(1.0);
            layer.insert("serve.host_ms_per_batch".into(), run_s * 1e3 / batches);
        }
        layer.insert(
            "serve.host_us_per_request".into(),
            run_s * 1e6 / requests.max(1) as f64,
        );
    }
}
