//! The measurement loop shared by every workload: set-up (timed, repeated),
//! one untimed warm-up, timed passes with the tracer off, verification of
//! every answer, the determinism guard, and — with `--trace` — one more pass
//! under the tracer plus the per-layer probes.
//!
//! Host throughput is taken from the *steady pass*: a pass is cut into laps
//! (one per query), and each lap counts at its fastest over the passes. On a
//! shared host other tenants only ever add time to a lap, in episodes of
//! seconds, so the fastest repeat of each short piece is what the code
//! itself costs; the median pass with its quartiles is reported beside it.

use crate::catalog::{END_TO_END, MIN_PASSES, PER_LAYER, WORKLOADS};
use crate::probes;
use crate::span::{self, Tracer};
use crate::stats;
use crate::workloads;
use eta_graph::Csr;
use eta_mem::timeline::Timeline;
use eta_mem::um::UmStats;
use eta_sim::KernelMetrics;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// An untraced run sets up `SETUPS_BEFORE` times before the passes and again
/// after them: at least `SETUPS_AFTER` times and, when set-up is cheap, until
/// the later round has spent `SETUP_BUDGET_S` or `MAX_SETUPS` have run in all.
/// `setup_s` is the steady set-up — every lap of it at its fastest over the
/// repeats — for the reason the steady pass is, and two rounds a whole run
/// apart rarely both fall into a busy spell of the host.
const SETUPS_BEFORE: usize = 2;
const SETUPS_AFTER: usize = 2;
const MAX_SETUPS: usize = 30;
const SETUP_BUDGET_S: f64 = 0.5;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Time budget for the timed passes; ignored when `passes` is set.
    pub seconds: f64,
    /// Exact number of timed passes.
    pub passes: Option<usize>,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// What one pass did, on the simulated clock and in counts. Everything here
/// is a function of the inputs alone, so the first and the last pass of a
/// process must agree bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted: queries, or served requests.
    pub queries: u64,
    /// Graph edges the attempted queries cover (x iterations for PageRank).
    pub edges: u64,
    /// Traversal: sum of simulated `total_ns`. Serving: sum of makespans.
    pub sim_total_ns: u64,
    /// Traversal: sum of simulated `kernel_ns`. Serving: kernel time of the
    /// batches that completed requests rode in.
    pub sim_kernel_ns: f64,
    /// Traversal: queries that returned an answer. Serving: completions
    /// that met their deadline.
    pub good: u64,
    /// Traversal: queries attempted. Serving: interactive requests
    /// attempted (a refused one counts as missed).
    pub slo_pool: u64,
    /// Serving: p99 simulated latency of completed interactive requests.
    /// Traversal: the slowest query's simulated time (with under eleven
    /// queries a pass no percentile has ten samples beyond it).
    pub tail_ns: u64,
    /// Per-layer counts, keyed by catalog name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Tally {
    /// One traversal query over a graph of `edges` edges was attempted.
    pub fn attempt(&mut self, edges: u64) {
        self.queries += 1;
        self.slo_pool += 1;
        self.edges += edges;
    }

    /// The attempted traversal query returned an answer.
    pub fn answered(&mut self, total_ns: u64, kernel_ns: u64) {
        self.good += 1;
        self.sim_total_ns += total_ns;
        self.sim_kernel_ns += kernel_ns as f64;
        self.tail_ns = self.tail_ns.max(total_ns);
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    pub fn add_kernel_metrics(&mut self, iterations: u32, m: &KernelMetrics) {
        self.add("core.iterations", iterations as f64);
        self.add("sim.instructions", m.instructions as f64);
        self.add("sim.l1_sectors", m.l1_requests as f64);
        self.add("sim.l2_sectors", m.l2_requests as f64);
        self.add("sim.dram_bytes", m.dram_bytes as f64);
        self.add("sim.kernel_ms", m.time_ns as f64 / 1e6);
    }

    pub fn add_um(&mut self, um: &UmStats) {
        self.add("mem.um_faults", um.faults as f64);
        self.add("mem.um_demand_batches", um.migration_batches.len() as f64);
        self.add("mem.um_prefetch_chunks", um.prefetch_chunks.len() as f64);
        self.add("mem.um_evicted_pages", um.evicted_pages as f64);
        self.add("mem.um_migrated_mb", um.migrated_bytes as f64 / 1e6);
    }

    /// Link occupancy and transfer/compute overlap of one device's merged
    /// timeline. `mem.overlap_frac` is finished by [`Tally::finish`].
    pub fn add_timeline(&mut self, t: &Timeline) {
        let busy = t.busy_time(|s| s.kind.is_transfer());
        self.add("mem.pcie_busy_ms", busy as f64 / 1e6);
        self.add("mem.overlap_frac", t.overlap_time() as f64 / 1e6);
    }

    pub fn add_zero_copy(&mut self, bytes: u64) {
        self.add("mem.zero_copy_mb", bytes as f64 / 1e6);
    }

    /// Turns the accumulated overlap time into a fraction of link-busy time.
    pub fn finish(&mut self) {
        let busy = self.counts.get("mem.pcie_busy_ms").copied().unwrap_or(0.0);
        if let Some(o) = self.counts.get_mut("mem.overlap_frac") {
            *o = if busy > 0.0 { *o / busy } else { 0.0 };
        }
    }
}

/// Outcome of checking one pass's answers.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Operations checked (at least the pass's `queries`).
    pub attempted: u64,
    /// Wrong + lost + double-counted + unexpected errors.
    pub failed: u64,
    /// One line per failure, for the operator.
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note());
            }
        }
    }
}

/// Input the per-layer probes derive their work from: the workload's own
/// graph and one of its seeded sources.
pub struct ProbeInput<'a> {
    pub graph: &'a Csr,
    pub source: u32,
}

pub trait Workload {
    /// One untimed query, so lazy set-up in the crates is done before timing.
    fn warm_up(&mut self);
    /// Runs every query of one pass and keeps the answers for `verify`.
    fn pass(&mut self, tr: &mut Tracer) -> Tally;
    /// Checks the answers of the last pass against the CPU references.
    fn verify(&mut self) -> Verdict;
    fn probe_input(&self) -> ProbeInput<'_>;
    /// Workload-specific traced extras (e.g. replaying served batches
    /// through the engine), written straight into the per-layer table.
    fn trace_extras(&mut self, _tr: &mut Tracer, _layer: &mut BTreeMap<String, f64>) {}
}

/// A host timing summarised over passes.
#[derive(Debug, Clone)]
pub struct HostStat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl HostStat {
    fn of(values: &[f64]) -> HostStat {
        let median = stats::median(values).unwrap_or(0.0);
        let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
        HostStat {
            median,
            q1,
            q3,
            samples: values.to_vec(),
        }
    }

    fn to_json(&self) -> Value {
        json!({"median": self.median, "q1": self.q1, "q3": self.q3, "samples": self.samples})
    }
}

pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub deterministic: bool,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub pass_s: HostStat,
    /// Sum over laps of each lap's fastest repeat; the host throughput
    /// metrics divide by this.
    pub steady_pass_s: f64,
    /// The laps of every timed pass, in seconds.
    pub laps: Vec<Vec<f64>>,
    pub steady_setup_s: f64,
    pub setup_s: HostStat,
    pub per_layer: Option<BTreeMap<String, f64>>,
    pub self_seconds: BTreeMap<&'static str, f64>,
    pub wall_s: f64,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.deterministic
    }

    pub fn ops_failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(
    tally: &Tally,
    pass_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
) -> BTreeMap<&'static str, f64> {
    let sim_s = tally.sim_total_ns as f64 / 1e9;
    let mut m = BTreeMap::new();
    m.insert("setup_s", setup_s);
    m.insert("host_medges_per_s", tally.edges as f64 / pass_s / 1e6);
    m.insert("host_req_per_s", tally.queries as f64 / pass_s);
    m.insert("peak_rss_mb", peak_rss_mb);
    m.insert("sim_total_ms", tally.sim_total_ns as f64 / 1e6);
    m.insert("sim_kernel_ms", tally.sim_kernel_ns / 1e6);
    m.insert("sim_goodput_qps", tally.good as f64 / sim_s);
    m.insert(
        "sim_slo_attainment",
        tally.good as f64 / tally.slo_pool.max(1) as f64,
    );
    m.insert("sim_p99_ms", tally.tail_ns as f64 / 1e6);
    m
}

/// Seconds a span metric accumulated, in the unit its name ends with.
fn in_named_unit(key: &str, seconds: f64) -> f64 {
    if key.ends_with("_ms") {
        seconds * 1e3
    } else if key.ends_with("_us") {
        seconds * 1e6
    } else {
        seconds
    }
}

fn record_span_metrics(tracer: &Tracer, mark: usize, layer: &mut BTreeMap<String, f64>) {
    for (k, s) in tracer.metric_seconds(mark) {
        layer.insert(k.to_string(), in_named_unit(k, s));
    }
}

/// One timed set-up: generate graphs, weights, sources, traces. Its laps
/// (the workload ends one after each piece it generates) are added to `laps`.
fn set_up(
    opts: &Options,
    tracer: &mut Tracer,
    laps: &mut Vec<Vec<f64>>,
) -> Result<Box<dyn Workload>, String> {
    tracer.start_laps();
    let id = tracer.begin("bench", "setup", None);
    let w = workloads::build(&opts.workload, opts.seed, tracer)?;
    tracer.end(id);
    tracer.lap();
    laps.push(tracer.take_laps());
    Ok(w)
}

/// The set-ups after the passes; their instances are dropped at once.
fn set_up_again(opts: &Options, laps: &mut Vec<Vec<f64>>) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let round = Instant::now();
    for done in 1.. {
        set_up(opts, &mut off, laps)?;
        let spent = round.elapsed().as_secs_f64() >= SETUP_BUDGET_S || laps.len() >= MAX_SETUPS;
        if done >= SETUPS_AFTER && spent {
            break;
        }
    }
    Ok(())
}

/// Checks the last pass and folds the outcome into the run's verdict.
fn verify_into(w: &mut dyn Workload, verdict: &mut Verdict) {
    let v = w.verify();
    verdict.attempted += v.attempted;
    verdict.failed += v.failed;
    verdict.notes.extend(v.notes);
}

/// The pass (or set-up) a quiet host would run: every lap at its fastest over
/// the repeats, summed. `None` unless every repeat has the same, nonzero
/// number of laps.
fn steady_s(laps: &[Vec<f64>]) -> Option<f64> {
    let n = laps.first()?.len();
    if n == 0 || laps.iter().any(|p| p.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|k| laps.iter().map(|p| p[k]).fold(f64::INFINITY, f64::min))
            .sum(),
    )
}

/// What the untraced passes established.
struct Timed {
    pass_times: Vec<f64>,
    /// The laps of every pass, in seconds; each pass's laps sum to its time.
    laps: Vec<Vec<f64>>,
    /// The first pass's tally; every later pass must equal it.
    tally: Tally,
    deterministic: bool,
}

/// Timed passes with the tracer off: these produce the end-to-end numbers.
fn timed_passes(opts: &Options, w: &mut dyn Workload, verdict: &mut Verdict) -> Timed {
    let mut off = Tracer::new(false);
    let mut pass_times = Vec::new();
    let mut laps = Vec::new();
    let mut first: Option<Tally> = None;
    let mut deterministic = true;
    let measuring = Instant::now();
    loop {
        off.start_laps();
        let tally = w.pass(&mut off);
        // The last lap is the pass's tail: its own bookkeeping.
        off.lap();
        let pass_laps = off.take_laps();
        let dt: f64 = pass_laps.iter().sum();
        pass_times.push(dt);
        laps.push(pass_laps);
        verify_into(w, verdict);
        match &first {
            None => first = Some(tally),
            Some(f) => deterministic &= *f == tally,
        }
        let done = pass_times.len();
        let enough = match opts.passes {
            Some(p) => done >= p,
            // A traced run spends its budget on the traced pass and probes.
            None if opts.trace => true,
            None => done >= MIN_PASSES && measuring.elapsed().as_secs_f64() + dt > opts.seconds,
        };
        if enough {
            return Timed {
                pass_times,
                laps,
                tally: first.expect("at least one pass ran"),
                deterministic,
            };
        }
    }
}

/// One more pass under the tracer, the workload's extras and the probes;
/// fills the per-layer table. Returns whether the traced pass tallied
/// exactly what the untraced ones did.
fn traced_pass(
    w: &mut dyn Workload,
    tracer: &mut Tracer,
    timed: &Timed,
    pass_s: f64,
    verdict: &mut Verdict,
    layer: &mut BTreeMap<String, f64>,
) -> bool {
    let mark = tracer.spans().len();
    let t0 = Instant::now();
    let id = tracer.begin("bench", "pass", None);
    let tally = w.pass(tracer);
    tracer.end(id);
    let traced_s = t0.elapsed().as_secs_f64();
    verify_into(w, verdict);

    record_span_metrics(tracer, mark, layer);
    for (k, v) in &tally.counts {
        layer.insert(k.to_string(), *v);
    }
    layer.insert("bench.trace_overhead_frac".into(), traced_s / pass_s - 1.0);
    let id = tracer.begin("bench", "extras", None);
    w.trace_extras(tracer, layer);
    tracer.end(id);
    let base_bfs_s = probes::run(&w.probe_input(), tracer, layer);

    let get = |k: &str| layer.get(k).copied().unwrap_or(0.0);
    let engine_s: f64 = ["bfs", "sssp", "sswp", "cc"]
        .iter()
        .map(|a| get(&format!("core.query_s.{a}")))
        .sum();
    let (iterations, sectors, x4) = (
        get("core.iterations"),
        get("sim.l1_sectors"),
        get("shard.run_s.bfs.x4"),
    );
    if engine_s > 0.0 && iterations > 0.0 {
        layer.insert(
            "core.host_us_per_iteration".into(),
            engine_s * 1e6 / iterations,
        );
    }
    if sectors > 0.0 {
        layer.insert("sim.host_ns_per_sector".into(), pass_s * 1e9 / sectors);
    }
    if x4 > 0.0 {
        layer.insert("shard.vs_single_ratio.bfs.x4".into(), x4 / base_bfs_s);
    }
    // Tracing must not move a single simulated number.
    tally == timed.tally
}

/// The per-layer table in catalog order: every catalog name is reported (0
/// where the workload makes no such call) and nothing else.
fn catalogued(layer: &BTreeMap<String, f64>) -> Result<BTreeMap<String, f64>, String> {
    if let Some(k) = layer
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == *k))
    {
        return Err(format!("per-layer metric {k:?} is not in the catalog"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                layer.get(m.name).copied().unwrap_or(0.0),
            )
        })
        .collect())
}

/// Runs one workload in this process and returns everything it measured.
pub fn run(opts: &Options) -> Result<WorkloadResult, String> {
    let wall = Instant::now();
    let mut tracer = Tracer::new(opts.trace);
    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    let mut verdict = Verdict::default();

    // A traced run keeps its time for the traced pass and the probes: one
    // set-up, under the tracer.
    let mut setup_laps = Vec::new();
    let mut w = set_up(opts, &mut tracer, &mut setup_laps)?;
    record_span_metrics(&tracer, 0, &mut layer);
    if !opts.trace {
        for _ in 1..SETUPS_BEFORE {
            // One instance at a time, so set-up does not set the peak RSS.
            drop(w);
            w = set_up(opts, &mut tracer, &mut setup_laps)?;
        }
    }
    w.warm_up();
    let timed = timed_passes(opts, w.as_mut(), &mut verdict);
    // Read before the later set-ups, which hold a second instance.
    let peak_rss_mb = peak_rss_mb();
    if !opts.trace {
        set_up_again(opts, &mut setup_laps)?;
    }
    let pass_s = HostStat::of(&timed.pass_times);
    let setup_times: Vec<f64> = setup_laps.iter().map(|l| l.iter().sum()).collect();
    let setup_s = HostStat::of(&setup_times);
    let same_laps = "the repeats of one workload must all have the same laps";
    let steady_pass_s = steady_s(&timed.laps).ok_or(same_laps)?;
    let steady_setup_s = steady_s(&setup_laps).ok_or(same_laps)?;
    let e2e = end_to_end(&timed.tally, steady_pass_s, steady_setup_s, peak_rss_mb);
    let mut deterministic = timed.deterministic;

    let mut self_seconds = BTreeMap::new();
    let per_layer = if opts.trace {
        deterministic &= traced_pass(
            w.as_mut(),
            &mut tracer,
            &timed,
            pass_s.median,
            &mut verdict,
            &mut layer,
        );
        self_seconds = span::self_seconds_by_layer(tracer.spans());
        std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("create out dir: {e}"))?;
        let path = opts.out_dir.join(format!("trace.{}.json", opts.workload));
        std::fs::write(&path, span::chrome_trace(tracer.spans()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Some(catalogued(&layer)?)
    } else {
        None
    };

    for m in &END_TO_END {
        let v = e2e.get(m.name).copied();
        if !v.is_some_and(|v| v.is_finite() && v > 0.0) {
            return Err(format!(
                "end-to-end metric {} is {v:?}; it must be a positive number",
                m.name
            ));
        }
    }
    if !deterministic {
        verdict.notes.push(
            "determinism guard: simulated metrics or counts differ between passes of one process"
                .into(),
        );
    }
    Ok(WorkloadResult {
        workload: opts.workload.clone(),
        seed: opts.seed,
        attempted: verdict.attempted.max(1),
        failed: verdict.failed,
        notes: verdict.notes,
        deterministic,
        end_to_end: e2e,
        pass_s,
        steady_pass_s,
        steady_setup_s,
        laps: timed.laps,
        setup_s,
        per_layer,
        self_seconds,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}

/// The contract's result line: `correct`, `attempted`, `failed`, `metrics`
/// — the end-to-end metrics of an untraced run, the per-layer ones of a
/// traced run.
pub fn contract_line(r: &WorkloadResult) -> String {
    let mut metrics = Map::new();
    match &r.per_layer {
        Some(layer) => {
            for m in &PER_LAYER {
                metrics.insert(
                    m.name.to_string(),
                    json!({"value": layer[m.name], "unit": m.unit}),
                );
            }
        }
        None => {
            for m in &END_TO_END {
                metrics.insert(
                    m.name.to_string(),
                    json!({"value": r.end_to_end[m.name], "unit": m.unit}),
                );
            }
        }
    }
    let metrics = Value::Object(metrics);
    json!({
        "correct": r.correct(),
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    })
    .to_string()
}

/// Everything one workload measured, for `out/result.<workload>.json` and
/// the `results.json` the full set assembles from them.
pub fn result_json(r: &WorkloadResult) -> Value {
    let mut e2e = Map::new();
    for m in &END_TO_END {
        e2e.insert(
            m.name.to_string(),
            json!({
                "value": r.end_to_end[m.name],
                "unit": m.unit,
                "better": m.better.as_str(),
                "bound": m.bound,
                "clock": if m.simulated { "simulated" } else { "host" },
            }),
        );
    }
    let mut layer = Map::new();
    if let Some(l) = &r.per_layer {
        for m in &PER_LAYER {
            layer.insert(
                m.name.to_string(),
                json!({"value": l[m.name], "unit": m.unit, "better": m.better.as_str(), "exact": m.exact}),
            );
        }
    }
    let mut own = Map::new();
    for (k, v) in &r.self_seconds {
        own.insert(k.to_string(), json!(v));
    }
    let (e2e, layer, own) = (Value::Object(e2e), Value::Object(layer), Value::Object(own));
    json!({
        "workload": r.workload,
        "seed": r.seed,
        "correct": r.correct(),
        "deterministic": r.deterministic,
        "attempted": r.attempted,
        "failed": r.failed,
        "ops_failed_frac": r.ops_failed_frac(),
        "notes": r.notes,
        "pass_s": r.pass_s.to_json(),
        "steady_pass_s": r.steady_pass_s,
        "laps_s": r.laps,
        "setup_s": r.setup_s.to_json(),
        "steady_setup_s": r.steady_setup_s,
        "wall_s": r.wall_s,
        "end_to_end": e2e,
        "per_layer": layer,
        "self_seconds_by_layer": own,
    })
}

/// Operator-facing report of one workload: every metric by name with its
/// unit.
pub fn print_report(r: &WorkloadResult) {
    println!(
        "== {} (seed {}): {} timed passes, median {:.3} s [q1 {:.3}, q3 {:.3}]; set-up steady {:.3} s, median {:.3} s over {}; {:.1} s wall",
        r.workload, r.seed, r.pass_s.samples.len(), r.pass_s.median, r.pass_s.q1, r.pass_s.q3,
        r.steady_setup_s, r.setup_s.median, r.setup_s.samples.len(), r.wall_s
    );
    println!(
        "  pass samples (s): {:.3?}; steady pass ({} laps, each at its fastest) {:.3} s",
        r.pass_s.samples,
        r.laps.first().map_or(0, Vec::len),
        r.steady_pass_s
    );
    if let Some(info) = WORKLOADS.iter().find(|w| w.name == r.workload) {
        println!("  why: {}", info.why);
    }
    for m in &END_TO_END {
        println!(
            "  {:<22} {:>16.6} {:<9} ({} clock, {} is better, bound {:.0} %)",
            m.name,
            r.end_to_end[m.name],
            m.unit,
            if m.simulated { "simulated" } else { "host" },
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!(
        "  {:<22} {:>16.6} {:<9} ({} failed of {} checked; deterministic: {})",
        "ops_failed_frac",
        r.ops_failed_frac(),
        "ratio",
        r.failed,
        r.attempted,
        r.deterministic
    );
    for n in &r.notes {
        println!("  ! {n}");
    }
    if let Some(layer) = &r.per_layer {
        println!("  -- per-layer (traced run; 0 = this workload makes no such call)");
        for m in &PER_LAYER {
            println!("  {:<40} {:>18.6} {}", m.name, layer[m.name], m.unit);
        }
        println!("  -- self time by layer (span minus children), seconds");
        for (k, v) in &r.self_seconds {
            println!("  {k:<40} {v:>18.6} s");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn result(traced: bool) -> WorkloadResult {
        let tally = Tally {
            queries: 5,
            edges: 1_000_000,
            sim_total_ns: 2_000_000,
            sim_kernel_ns: 500_000.0,
            good: 5,
            slo_pool: 5,
            tail_ns: 900_000,
            counts: BTreeMap::new(),
        };
        WorkloadResult {
            workload: "web_deep".into(),
            seed: 1,
            attempted: 15,
            failed: 0,
            notes: Vec::new(),
            deterministic: true,
            end_to_end: end_to_end(&tally, 2.0, 0.5, 100.0),
            pass_s: HostStat::of(&[2.0, 2.1, 1.9]),
            steady_pass_s: 2.0,
            laps: vec![vec![1.0, 1.0]],
            steady_setup_s: 0.5,
            setup_s: HostStat::of(&[0.5, 0.5, 0.6]),
            per_layer: traced.then(|| catalogued(&BTreeMap::new()).expect("empty is fine")),
            self_seconds: BTreeMap::new(),
            wall_s: 7.0,
        }
    }

    fn metric_names(line: &str) -> Vec<String> {
        let doc = json::parse(line).expect("the result line is JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(15));
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        for (name, m) in metrics.iter() {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
        }
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn an_untraced_run_reports_exactly_the_end_to_end_metrics() {
        let names = metric_names(&contract_line(&result(false)));
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn a_traced_run_reports_exactly_the_per_layer_metrics() {
        let names = metric_names(&contract_line(&result(true)));
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn a_metric_outside_the_catalog_is_refused() {
        let mut layer = BTreeMap::new();
        layer.insert("core.prepare_s".to_string(), 1.0);
        assert_eq!(
            catalogued(&layer).expect("known name")["core.prepare_s"],
            1.0
        );
        layer.insert("core.made_up".to_string(), 1.0);
        assert!(catalogued(&layer).is_err());
    }

    #[test]
    fn end_to_end_metrics_follow_their_definitions() {
        let r = result(false);
        assert_eq!(r.end_to_end["host_medges_per_s"], 0.5);
        assert_eq!(r.end_to_end["host_req_per_s"], 2.5);
        assert_eq!(r.end_to_end["sim_total_ms"], 2.0);
        assert_eq!(r.end_to_end["sim_kernel_ms"], 0.5);
        assert_eq!(r.end_to_end["sim_goodput_qps"], 2500.0);
        assert_eq!(r.end_to_end["sim_slo_attainment"], 1.0);
        assert_eq!(r.end_to_end["sim_p99_ms"], 0.9);
        assert_eq!(r.end_to_end["setup_s"], 0.5);
        assert_eq!(r.pass_s.median, 2.0);
    }

    #[test]
    fn the_steady_pass_takes_every_lap_at_its_fastest() {
        let laps = vec![
            vec![1.0, 5.0, 0.25],
            vec![2.0, 3.0, 0.5],
            vec![4.0, 4.0, 0.125],
        ];
        assert_eq!(steady_s(&laps), Some(1.0 + 3.0 + 0.125));
        assert_eq!(steady_s(&laps[..1]), Some(6.25));
        assert_eq!(steady_s(&[]), None);
        assert_eq!(steady_s(&[vec![]]), None);
        assert_eq!(steady_s(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn span_metrics_are_scaled_to_the_unit_in_their_name() {
        assert_eq!(in_named_unit("serve.trace_gen_ms", 0.002), 2.0);
        assert_eq!(in_named_unit("par.dispatch_us", 0.002), 2000.0);
        assert_eq!(in_named_unit("graph.build_s", 0.002), 0.002);
    }

    #[test]
    fn overlap_becomes_a_fraction_of_link_busy_time() {
        let mut t = Tally::default();
        t.add("mem.pcie_busy_ms", 4.0);
        t.add("mem.overlap_frac", 1.0);
        t.finish();
        assert_eq!(t.counts["mem.overlap_frac"], 0.25);
        let mut idle = Tally::default();
        idle.add("mem.overlap_frac", 0.0);
        idle.finish();
        assert_eq!(idle.counts["mem.overlap_frac"], 0.0);
    }
}
