//! `etagraph serve`: a deterministic multi-tenant workload; see `eta-serve`.

use super::config::{attach_profile, eta_config, fault_plan_from, gpu_config, sanitizer_reports};
use super::Output;
use crate::args::{ArgError, Args};
use eta_bench::stats::Summary;
use eta_graph::generate::{rmat, RmatConfig};
use eta_graph::{io, Csr};
use eta_serve::{poisson_trace, Priority};
use eta_sim::SanitizerMode;
use etagraph::multi_bfs::MAX_BATCH;
use serde_json::json;
use std::fmt::Write as _;

/// The latest arrival a served trace may hold: 2^62 ns (~146 years). It
/// leaves the simulated clock room to serve the last request; a trace that
/// passes it (a `--rate` so low that arrivals saturate the clock) is refused
/// before anything is served.
const ARRIVAL_HORIZON_NS: u64 = 1 << 62;

/// One `--graph` spec: `rmatN` generates an R-MAT graph in memory (graph
/// seed `42 + index`, paper edge factor); anything else loads a graph file.
/// The spec string itself becomes the registry name.
fn parse_graph_spec(spec: &str, idx: usize) -> Result<Csr, ArgError> {
    if let Some(scale) = spec
        .strip_prefix("rmat")
        .and_then(|s| s.parse::<u32>().ok())
    {
        if scale > 28 {
            return Err(ArgError(format!("--graph {spec}: scale above 28")));
        }
        let edges = (1usize << scale) * 16;
        return Ok(rmat(&RmatConfig::paper(scale, edges, 42 + idx as u64)));
    }
    io::load(spec).map_err(|e| ArgError(format!("loading {spec}: {e}")))
}

/// `--NAME MS` in nanoseconds; `None` when the flag is absent.
fn ns_from_ms(args: &Args, name: &str) -> Result<Option<u64>, ArgError> {
    if args.get(name).is_none() {
        return Ok(None);
    }
    let ms = args.require_parse::<u64>(name)?;
    let max = u64::MAX / 1_000_000;
    ms.checked_mul(1_000_000).map(Some).ok_or_else(|| {
        ArgError(format!(
            "--{name} {ms} overflows the nanosecond clock (at most {max})"
        ))
    })
}

/// Serves a deterministic Poisson workload over one or more tenant graphs
/// on a pool of simulated devices; see `eta-serve`.
pub(crate) fn serve(args: &Args) -> Result<Output, ArgError> {
    let specs: Vec<String> = args
        .get("graph")
        .ok_or_else(|| ArgError("missing --graph SPEC[,SPEC...]".into()))?
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    let mut registry = eta_serve::GraphRegistry::new();
    for (idx, spec) in specs.iter().enumerate() {
        registry.insert(spec, parse_graph_spec(spec, idx)?);
    }

    let workload = eta_serve::WorkloadConfig {
        requests: args.get_parse("requests", 200)?,
        seed: args.get_parse("seed", 7)?,
        rate_per_s: args.get_parse("rate", 2_000.0f64)?,
        arrival: match args.get("arrival") {
            None => eta_serve::Arrival::Poisson,
            Some(s) => eta_serve::Arrival::parse(s)
                .ok_or_else(|| ArgError(format!("--arrival takes poisson or burst, got {s:?}")))?,
        },
        interactive_fraction: args.get_parse("interactive-frac", 0.5f64)?,
        interactive_slo_ns: ns_from_ms(args, "slo-ms")?,
        batch_slo_ns: None,
        timeout_ns: ns_from_ms(args, "timeout-ms")?,
    };
    if !(workload.rate_per_s.is_finite() && workload.rate_per_s > 0.0) {
        return Err(ArgError("--rate must be finite and positive".into()));
    }
    if !(0.0..=1.0).contains(&workload.interactive_fraction) {
        return Err(ArgError(
            "--interactive-frac takes a fraction in [0, 1]".into(),
        ));
    }

    let mut gpu = gpu_config(args)?;
    let sanitize = args.switch("sanitize");
    if sanitize {
        gpu = gpu.with_sanitizer(SanitizerMode::Full);
    }
    let max_batch = if args.switch("no-batch") {
        1
    } else {
        args.get_parse("batch", MAX_BATCH)?
    };
    if !(1..=MAX_BATCH).contains(&max_batch) {
        return Err(ArgError(format!("--batch takes 1..={MAX_BATCH}")));
    }
    let cfg = eta_serve::ServeConfig {
        devices: args.get_parse("devices", 1)?,
        gpu,
        eta: eta_config(args)?,
        queue_capacity: args.get_parse("queue-cap", 256)?,
        max_batch,
        policy: if args.switch("fifo") {
            eta_serve::Policy::Fifo
        } else {
            eta_serve::Policy::PriorityDeadline
        },
        faults: fault_plan_from(args)?.unwrap_or_default(),
        checkpoint_interval: args.get_parse("ckpt-interval", 0)?,
        qos: if args.switch("qos") {
            eta_serve::QosConfig::standard()
        } else {
            eta_serve::QosConfig::default()
        },
        ..eta_serve::ServeConfig::default()
    };
    if cfg.devices == 0 {
        return Err(ArgError("--devices must be at least 1".into()));
    }
    if cfg.queue_capacity == 0 {
        return Err(ArgError("--queue-cap must be at least 1".into()));
    }
    args.ensure_consumed()?;

    let trace = poisson_trace(&registry, &specs, &workload);
    if trace
        .last()
        .is_some_and(|r| r.arrival_ns > ARRIVAL_HORIZON_NS)
    {
        return Err(ArgError(format!(
            "--rate {:e} puts the last of {} arrivals past the clock horizon \
             (2^62 ns, ~146 years); raise --rate or lower --requests",
            workload.rate_per_s, workload.requests
        )));
    }
    let mut service = eta_serve::Service::new(&registry, cfg.clone());
    let report = service.run(&trace);

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "served {} requests over {} graph(s) on {} device(s): {} completed, {} rejected",
        workload.requests,
        specs.len(),
        cfg.devices,
        report.completed,
        report.rejected
    );
    let _ = writeln!(
        text,
        "makespan {:.3} ms, throughput {:.0} qps, mean batch size {:.1} ({})",
        ms(report.makespan_ns),
        report.throughput_qps,
        report.mean_batch_size(),
        cfg.policy.name()
    );
    let mut latency_json = serde_json::Map::new();
    for (label, class) in [
        ("all", None),
        ("interactive", Some(Priority::Interactive)),
        ("batch", Some(Priority::Batch)),
    ] {
        if let Some(s) = Summary::of(&report.latencies_ns(class)) {
            let _ = writeln!(
                text,
                "latency [{label:>11}] n={:<4} p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
                s.count,
                ms(s.p50),
                ms(s.p95),
                ms(s.p99)
            );
            latency_json.insert(
                label.to_string(),
                serde_json::to_value(&s).unwrap_or_default(),
            );
        }
    }
    if let Some(slo) = report.slo_attainment() {
        let _ = writeln!(text, "SLO attainment: {:.1}%", slo * 100.0);
    }
    // Overload-control summary, only when a qos feature is actually on
    // (keeps qos-off output byte-identical to older builds).
    if let Some(q) = &report.qos {
        let _ = writeln!(
            text,
            "qos: goodput {:.0} qps, {} admission / {} shed / {} throttle rejection(s), \
             {} retry(ies) granted, {} denied, {} brownout batch(es)",
            report.goodput_qps(),
            q.admission_rejections,
            q.shed_rejections,
            q.throttle_rejections,
            q.retries_granted,
            q.retries_denied,
            q.brownout_batches
        );
    }
    // Fault-tolerance summary, only when the run actually saw faults (the
    // empty default plan keeps this output byte-identical to older builds).
    if !report.fault_events.is_empty() {
        let _ = writeln!(
            text,
            "faults: {} device fault(s), {} retried answer(s), {} degraded (CPU fallback), availability {:.4}",
            report.fault_events.len(),
            report.records.iter().filter(|r| r.retries > 0).count(),
            report.degraded,
            report.availability
        );
        for q in &report.quarantines {
            let _ = writeln!(
                text,
                "quarantine: device {} from {:.3} ms to {:.3} ms",
                q.device,
                ms(q.from_ns),
                ms(q.until_ns)
            );
        }
    }
    // Checkpoint summary, only when rung 0 actually did something (keeps
    // non-checkpointed output byte-identical to older builds).
    if report.checkpoints > 0 || report.resumes > 0 {
        let _ = writeln!(
            text,
            "checkpoints: {} snapshot(s), {} resume(s) ({} migrated), {} iteration(s) of work saved",
            report.checkpoints, report.resumes, report.migrations, report.work_saved_iterations
        );
    }
    for d in &report.devices {
        let _ = writeln!(
            text,
            "device {}: {:.1}% utilized, {} upload(s), {} eviction(s)",
            d.device,
            d.utilization * 100.0,
            d.uploads,
            d.evictions
        );
    }
    if !report.rejections.is_empty() {
        let mut by_reason: std::collections::BTreeMap<&str, u32> = Default::default();
        for r in &report.rejections {
            *by_reason.entry(r.reason.name()).or_default() += 1;
        }
        let reasons: Vec<String> = by_reason
            .iter()
            .map(|(name, count)| format!("{name} x{count}"))
            .collect();
        let _ = writeln!(text, "rejections: {}", reasons.join(", "));
    }

    let mut out = Output {
        json: json!({
            "graphs": specs,
            "requests": workload.requests,
            "seed": workload.seed,
            "devices": cfg.devices,
            "max_batch": cfg.max_batch,
            "policy": cfg.policy,
            "latency_ms_scale": 1e-6,
            "latency": serde_json::Value::Object(latency_json),
            "slo_attainment": report.slo_attainment(),
            "mean_batch_size": report.mean_batch_size(),
            "report": serde_json::to_value(&report).unwrap_or_default(),
        }),
        text,
    };
    if sanitize {
        let reports = sanitizer_reports(&mut out, service.workers().iter().map(|w| &w.dev));
        out.insert("sanitizer", serde_json::Value::Array(reports));
    }
    attach_profile(&mut out, &service.profile(), args)?;
    Ok(out)
}
