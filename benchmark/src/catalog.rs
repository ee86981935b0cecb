//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics, each with its unit and direction. `BENCHMARK.json` at the
//! repository root lists the same names; a test keeps the two equal, and a
//! run refuses to report a name that is not here or to omit one that is.

/// How long one run measures when neither `--seconds` nor `--passes` is
/// given; equals `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 22;

/// Timed passes are never fewer than this, whatever the time budget.
pub const MIN_PASSES: usize = 3;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "social_sweep",
        why: "Closed loop, 1 client: cold BFS/SSSP/CC/SSWP on resident power-law graphs; per-access work in eta-sim record and eta-mem coalesce/L1/L2 replay dominates host time.",
    },
    WorkloadInfo {
        name: "web_deep",
        why: "Closed loop, 1 client: 40 BFS of ~800 tiny-frontier iterations on a small web graph; per-iteration and per-launch fixed host cost dominates, cache replay is almost nothing.",
    },
    WorkloadInfo {
        name: "oversub_transfer",
        why: "Closed loop, 1 client: one BFS under all five transfer modes with device memory at half the topology; eta-mem does paging, LRU eviction and routing instead of cache replay.",
    },
    WorkloadInfo {
        name: "sharded_group",
        why: "Closed loop, 1 client: 2- and 4-device sharded BFS/SSSP/PageRank plus single-device PageRank; eta-shard, the peer fabric and the BSP loops, where 4 devices cost more host time than 1.",
    },
    WorkloadInfo {
        name: "serve_overload",
        why: "Open loop on the simulated clock: 3 tenants at 1x Poisson, then 2x and 4x MMPP bursts with qos, checkpoints and faults, then device groups; scheduler, qos, recovery ladder and warm multi_bfs batches.",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Measured on the simulated clock: identical on every run of one seed.
    pub simulated: bool,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "host_medges_per_s",
        unit: "Medges/s",
        better: Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "host_req_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "sim_total_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        simulated: true,
    },
    EndToEnd {
        name: "sim_kernel_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        simulated: true,
    },
    EndToEnd {
        name: "sim_goodput_qps",
        unit: "1/s",
        better: Higher,
        bound: 0.20,
        simulated: true,
    },
    EndToEnd {
        name: "sim_slo_attainment",
        unit: "ratio",
        better: Higher,
        bound: 0.20,
        simulated: true,
    },
    EndToEnd {
        name: "sim_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        simulated: true,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count made by the program or a simulated quantity: it must repeat
    /// bit-for-bit between the first and the last pass of a process.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Layer = crate; names are `<layer>.<metric>[.<variant>]`. A time or count
/// sourced from the workload's own passes reads 0 on a workload that makes
/// no such call; probes run on every workload, on its own graph.
pub const PER_LAYER: [PerLayer; 87] = [
    // core (etagraph): the engine, sessions and batched BFS.
    host("core.prepare_s", "s", Lower),
    host("core.query_s.bfs", "s", Lower),
    host("core.query_s.sssp", "s", Lower),
    host("core.query_s.sswp", "s", Lower),
    host("core.query_s.cc", "s", Lower),
    host("core.pagerank_s", "s", Lower),
    exact("core.iterations", "count", Lower),
    host("core.host_us_per_iteration", "us", Lower),
    host("core.multi_bfs_batch_ms", "ms", Lower),
    host("core.session_warm_query_ms", "ms", Lower),
    // sim (eta-sim): counters of the simulated machine, launch probes.
    exact("sim.instructions", "count", Lower),
    exact("sim.l1_sectors", "count", Lower),
    exact("sim.l2_sectors", "count", Lower),
    exact("sim.dram_bytes", "count", Lower),
    exact("sim.kernel_ms", "ms", Lower),
    host("sim.host_ns_per_sector", "ns", Lower),
    host("sim.null_launch_us", "us", Lower),
    host("sim.null_launch_us.ht2", "us", Lower),
    host("sim.stream_mlanes_per_s", "Mlanes/s", Higher),
    host("sim.gather_mlanes_per_s", "Mlanes/s", Higher),
    host("sim.gather_ht2_speedup", "ratio", Higher),
    host("sim.sanitize_overhead_frac", "ratio", Lower),
    // mem (eta-mem): coalescer, caches, launch stages, UM driver, policy.
    host("mem.coalesce_ns_per_warp.dense", "ns", Lower),
    host("mem.coalesce_ns_per_warp.scattered", "ns", Lower),
    host("mem.cache_ns_per_probe.l1", "ns", Lower),
    host("mem.cache_ns_per_probe.l2", "ns", Lower),
    host("mem.smqueue_coalesce_msectors_per_s", "Msectors/s", Higher),
    host("mem.drain_l1_msectors_per_s", "Msectors/s", Higher),
    host("mem.um_touch_us_per_fault", "us", Lower),
    host("mem.um_touch_ns_resident", "ns", Lower),
    host("mem.adaptive_tick_us", "us", Lower),
    exact("mem.um_faults", "count", Lower),
    exact("mem.um_demand_batches", "count", Lower),
    exact("mem.um_prefetch_chunks", "count", Lower),
    exact("mem.um_evicted_pages", "count", Lower),
    exact("mem.um_migrated_mb", "MB", Lower),
    exact("mem.zero_copy_mb", "MB", Lower),
    exact("mem.pcie_busy_ms", "ms", Lower),
    exact("mem.overlap_frac", "ratio", Higher),
    // graph (eta-graph): generators, transforms, CPU references.
    host("graph.build_s", "s", Lower),
    host("graph.rmat_medges_per_s", "Medges/s", Higher),
    host("graph.weights_s", "s", Lower),
    host("graph.transpose_s", "s", Lower),
    host("graph.reference_bfs_ms", "ms", Lower),
    host("graph.digest_ms", "ms", Lower),
    // par (eta-par): thread dispatch and the parallel sort.
    host("par.dispatch_us", "us", Lower),
    host("par.sort_mkeys_per_s", "Mkeys/s", Higher),
    // shard (eta-shard + etagraph::sharded): partitioning and BSP runs.
    host("shard.partition_s.x2", "s", Lower),
    host("shard.partition_s.x4", "s", Lower),
    host("shard.run_s.bfs.x2", "s", Lower),
    host("shard.run_s.bfs.x4", "s", Lower),
    host("shard.run_s.sssp.x2", "s", Lower),
    host("shard.pagerank_s.x4", "s", Lower),
    host("shard.vs_single_ratio.bfs.x4", "ratio", Lower),
    exact("shard.supersteps", "count", Lower),
    exact("shard.exchanged_mb", "MB", Lower),
    exact("shard.halo_vertices", "count", Lower),
    // serve (eta-serve): scheduler, qos, recovery ladder.
    host("serve.trace_gen_ms", "ms", Lower),
    host("serve.run_s.pool_1x", "s", Lower),
    host("serve.run_s.pool_burst_qos", "s", Lower),
    host("serve.run_s.group", "s", Lower),
    host("serve.host_us_per_request", "us", Lower),
    host("serve.host_ms_per_batch", "ms", Lower),
    host("serve.engine_replay_s", "s", Lower),
    host("serve.sched_self_frac", "ratio", Lower),
    exact("serve.completed", "count", Higher),
    exact("serve.rejected", "count", Lower),
    exact("serve.degraded", "count", Lower),
    exact("serve.batches", "count", Lower),
    exact("serve.mean_batch", "count", Higher),
    exact("serve.fault_events", "count", Lower),
    exact("serve.retries", "count", Lower),
    exact("serve.resumes", "count", Higher),
    exact("serve.useful_frac", "ratio", Higher),
    // Watch-list for layers no workload headlines.
    host("prof.capture_overhead_frac", "ratio", Lower),
    host("prof.render_ms.text", "ms", Lower),
    host("prof.render_ms.json", "ms", Lower),
    host("prof.render_ms.chrome", "ms", Lower),
    exact("prof.events", "count", Lower),
    host("ckpt.overhead_frac.interval1", "ratio", Lower),
    exact("ckpt.snapshots", "count", Lower),
    host("fault.plan_parse_us", "us", Lower),
    host("fault.inert_overhead_frac", "ratio", Lower),
    host("baselines.run_s.cusha", "s", Lower),
    host("baselines.run_s.gunrock", "s", Lower),
    host("baselines.run_s.tigr", "s", Lower),
    // The harness itself.
    host("bench.trace_overhead_frac", "ratio", Lower),
];

/// Whether `name` obeys the contract's naming rule: starts with a letter or
/// a digit, at most 64 of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` obeys the contract's rule for units.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use serde_json::Value;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_obey_the_contract() {
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "workload {}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.name.contains('.'), "{} lacks its layer prefix", m.name);
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)) && valid_name(&"x".repeat(64)));
        assert!(!valid_unit("") && !valid_unit("a b") && valid_unit("1/s"));
    }

    #[test]
    fn counts_are_within_the_contract_limits_and_names_are_unique() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let all: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let doc = benchmark_json();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );
        let paths = doc.get("paths").and_then(Value::as_array).expect("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
        let command: Vec<&str> = doc
            .get("command")
            .and_then(Value::as_array)
            .expect("command")
            .iter()
            .map(|c| c.as_str().expect("string"))
            .collect();
        assert_eq!(command, ["bash", "benchmark/run.sh"]);

        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(keys(got), ["name", "why"]);
            assert_eq!(got.get("name").and_then(Value::as_str), Some(want.name));
            assert_eq!(got.get("why").and_then(Value::as_str), Some(want.why));
        }

        let e2e = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(keys(got), ["name", "unit", "better", "bound"]);
            assert_eq!(got.get("name").and_then(Value::as_str), Some(want.name));
            assert_eq!(got.get("unit").and_then(Value::as_str), Some(want.unit));
            assert_eq!(
                got.get("better").and_then(Value::as_str),
                Some(want.better.as_str())
            );
            assert_eq!(
                got.get("bound").and_then(Value::as_f64),
                Some(want.bound),
                "{}",
                want.name
            );
        }

        let layers = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(keys(got), ["name", "unit", "better"]);
            assert_eq!(got.get("name").and_then(Value::as_str), Some(want.name));
            assert_eq!(got.get("unit").and_then(Value::as_str), Some(want.unit));
            assert_eq!(
                got.get("better").and_then(Value::as_str),
                Some(want.better.as_str())
            );
        }
    }
}
