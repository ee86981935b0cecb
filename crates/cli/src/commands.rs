//! CLI subcommand implementations, separated from `main` for testability.

use crate::args::{ArgError, Args};
use eta_baselines::{ChunkStream, CushaLike, Framework, GunrockLike, TigrLike};
use eta_graph::generate::{rmat, web, RmatConfig, WebConfig};
use eta_graph::{analysis, io, Csr};
use eta_sim::{Device, GpuConfig, SanitizerMode};
use etagraph::{Algorithm, EtaConfig, RunResult, TransferMode, UdcMode};
use serde_json::json;
use std::fmt::Write as _;

/// A command's output: text for the terminal, optional JSON (with `--json`).
#[derive(Debug)]
pub struct Output {
    pub text: String,
    pub json: serde_json::Value,
}

/// Dispatches one invocation. `argv` excludes the program name.
pub fn dispatch(argv: Vec<String>) -> Result<Output, ArgError> {
    let args = Args::parse(argv);
    let _ = args.switch("json"); // handled by main; valid everywhere
    let out = match args.positional(0) {
        Some("generate") => generate(&args),
        Some("info") => info(&args),
        Some("run") => run(&args),
        Some("serve") => serve(&args),
        Some("chaos") => chaos(&args),
        Some("overload") => overload(&args),
        Some("lint") => lint(&args),
        Some("datasets") => datasets(&args),
        Some(other) => Err(ArgError(format!("unknown command {other:?}\n{}", usage()))),
        None => Err(ArgError(usage())),
    }?;
    // Reject typos and flags this command never read (a stale or wrong
    // invocation must not silently run something else).
    args.ensure_consumed()?;
    Ok(out)
}

pub fn usage() -> String {
    "usage:\n\
     etagraph generate rmat --scale S [--edges M] [--seed N] [--max-weight W] --out FILE\n\
     etagraph generate web --vertices V --edges M [--communities C] [--lcc F]\n\
     \x20                  [--island I] [--seed N] [--max-weight W] --out FILE\n\
     etagraph info FILE [--json]\n\
     etagraph run FILE --alg bfs|sssp|sswp|cc|pagerank [--source V] [--sources A,B,...] [--framework eta|tigr|gunrock|cusha|chunkstream]\n\
     \x20            [--k K] [--no-smp] [--transfer demand|prefetch|explicit|zerocopy|adaptive]\n\
     \x20            [--no-ump] [--no-um] [--out-of-core] [--pull] [--devices N]\n\
     \x20            [--device-mb MB] [--host-threads N] [--trace FILE] [--profile FILE] [--sanitize] [--faults PLAN.json] [--json]\n\
     etagraph serve --graph SPEC[,SPEC...] [--requests N] [--seed S] [--devices D] [--rate QPS]\n\
     \x20          [--arrival poisson|burst] [--batch B | --no-batch] [--fifo] [--queue-cap Q] [--timeout-ms T]\n\
     \x20          [--interactive-frac F] [--slo-ms S] [--device-mb MB] [--host-threads N] [--profile FILE] [--sanitize]\n\
     \x20          [--faults PLAN.json] [--ckpt-interval I] [--qos] [--json]\n\
     \x20          (SPEC: rmatN to generate, or a graph file path)\n\
     etagraph chaos [--full] [--out DIR] [--json]\n\
     etagraph overload [--full] [--out DIR] [--json]\n\
     etagraph lint [--root DIR] [--json]\n\
     etagraph datasets [--json]"
        .to_string()
}

fn generate(args: &Args) -> Result<Output, ArgError> {
    let kind = args.require_positional(1, "generator kind (rmat|web)")?;
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("missing --out FILE".into()))?
        .to_string();
    let seed: u64 = args.get_parse("seed", 42)?;
    let max_weight: u32 = args.get_parse("max-weight", 0)?;

    let (mut graph, source) = match kind {
        "rmat" => {
            let scale: u32 = args.require_parse("scale")?;
            if scale > 28 {
                return Err(ArgError("--scale above 28 is not supported".into()));
            }
            let edges: usize = args.get_parse("edges", (1usize << scale) * 16)?;
            (rmat(&RmatConfig::paper(scale, edges, seed)), 0u32)
        }
        "web" => {
            let vertices: usize = args.require_parse("vertices")?;
            let edges: usize = args.require_parse("edges")?;
            let communities: usize = args.get_parse("communities", 32)?;
            let lcc: f64 = args.get_parse("lcc", 0.8)?;
            let island: usize = args.get_parse("island", 0)?;
            web(&WebConfig {
                vertices,
                edges,
                communities,
                lcc_fraction: lcc,
                source_island: if island > 0 { Some(island) } else { None },
                seed,
            })
        }
        other => return Err(ArgError(format!("unknown generator {other:?}"))),
    };
    if max_weight > 0 {
        graph = graph.with_random_weights(seed ^ 0x77, max_weight);
    }
    // Reject typo'd flags *before* the side effect — every valid flag has
    // been read by now, so an unconsumed one is a mistake.
    args.ensure_consumed()?;
    io::save(&graph, &out).map_err(|e| ArgError(format!("writing {out}: {e}")))?;
    let text = format!(
        "wrote {out}: {} vertices, {} edges{} (suggested source: {source})",
        graph.n(),
        graph.m(),
        if graph.is_weighted() {
            ", weighted"
        } else {
            ""
        },
    );
    Ok(Output {
        json: json!({
            "file": out, "vertices": graph.n(), "edges": graph.m(),
            "weighted": graph.is_weighted(), "source": source,
        }),
        text,
    })
}

fn load_graph(args: &Args) -> Result<Csr, ArgError> {
    let path = args.require_positional(1, "graph file")?;
    io::load(path).map_err(|e| ArgError(format!("loading {path}: {e}")))
}

fn info(args: &Args) -> Result<Output, ArgError> {
    let g = load_graph(args)?;
    let comp = analysis::components(&g);
    let hist = g.degree_histogram(10);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} vertices, {} edges ({}weighted), avg degree {:.2}, max degree {}",
        g.n(),
        g.m(),
        if g.is_weighted() { "" } else { "un" },
        g.avg_degree(),
        g.max_degree()
    );
    let _ = writeln!(
        text,
        "{} components, largest covers {:.1}% of vertices",
        comp.components,
        comp.lcc_fraction * 100.0
    );
    let _ = writeln!(text, "out-degree histogram (last bucket = 9+):");
    for (d, &count) in hist.iter().enumerate() {
        let _ = writeln!(
            text,
            "  deg {d:>2}{}: {count}",
            if d == 9 { "+" } else { " " }
        );
    }
    Ok(Output {
        json: json!({
            "vertices": g.n(), "edges": g.m(), "weighted": g.is_weighted(),
            "avg_degree": g.avg_degree(), "max_degree": g.max_degree(),
            "components": comp.components, "lcc_percent": comp.lcc_fraction * 100.0,
            "degree_histogram": hist,
        }),
        text,
    })
}

/// Parses the `run` configuration flags into an [`EtaConfig`].
pub fn eta_config_from(args: &Args) -> Result<EtaConfig, ArgError> {
    let mut cfg = EtaConfig {
        k: args.get_parse("k", 16)?,
        ..EtaConfig::paper()
    };
    if cfg.k == 0 {
        return Err(ArgError("--k must be at least 1".into()));
    }
    if args.switch("no-smp") {
        cfg.smp = false;
    }
    // `--transfer` names the backend directly; the paper's ablation
    // switches (`--no-um`, `--no-ump`) stay as spellings of the same axis.
    // Naming both is ambiguous, so it is an error rather than a precedence
    // rule.
    let explicit_transfer = match args.get("transfer") {
        Some(s) => Some(TransferMode::parse(s).ok_or_else(|| {
            ArgError(format!(
                "unknown --transfer {s:?} (expected demand|prefetch|explicit|zerocopy|adaptive)"
            ))
        })?),
        None => None,
    };
    let ablation = if args.switch("no-um") {
        Some(TransferMode::ExplicitCopy)
    } else if args.switch("no-ump") {
        Some(TransferMode::Unified)
    } else {
        None
    };
    cfg.transfer = match (explicit_transfer, ablation) {
        (Some(t), None) => t,
        (None, Some(t)) => t,
        (None, None) => cfg.transfer,
        (Some(_), Some(_)) => {
            return Err(ArgError(
                "--transfer conflicts with --no-um/--no-ump; pick one spelling".into(),
            ))
        }
    };
    if args.switch("out-of-core") {
        cfg.udc = UdcMode::OutOfCore;
    }
    if args.switch("pull") {
        cfg.direction_optimizing = true;
    }
    Ok(cfg)
}

/// Parses `--faults PLAN.json` into a [`eta_fault::FaultPlan`]; `None`
/// when the flag is absent. A malformed plan is a named error, never a
/// silently-empty one.
fn fault_plan_from(args: &Args) -> Result<Option<eta_fault::FaultPlan>, ArgError> {
    let Some(path) = args.get("faults") else {
        return Ok(None);
    };
    let body = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("reading fault plan {path}: {e}")))?;
    eta_fault::FaultPlan::from_json_str(&body)
        .map(Some)
        .map_err(|e| ArgError(format!("fault plan {path}: {e}")))
}

/// Parses `--host-threads N` (default 1): how many host threads the
/// simulator may use for its per-SM drain stages. Simulated results are
/// byte-identical at every setting; only host wall-clock changes.
fn host_threads_from(args: &Args) -> Result<usize, ArgError> {
    let n: usize = args.get_parse("host-threads", 1)?;
    if n == 0 {
        return Err(ArgError("--host-threads must be at least 1".into()));
    }
    Ok(n)
}

/// Builds the simulated device, with the sanitizer attached when
/// `--sanitize` is present (full memcheck + racecheck + lint) and any
/// `--faults` plan installed (as device 0 — single-device runs).
fn device_from(args: &Args) -> Result<Device, ArgError> {
    let device_mb: u64 = args.get_parse("device-mb", 88)?;
    let mut gpu = GpuConfig::gtx1080ti_scaled(device_mb * 1024 * 1024)
        .with_host_threads(host_threads_from(args)?);
    if args.switch("sanitize") {
        gpu = gpu.with_sanitizer(SanitizerMode::Full);
    }
    if args.get("profile").is_some() {
        gpu = gpu.with_profiling();
    }
    let mut dev = Device::new(gpu);
    if let Some(plan) = fault_plan_from(args)? {
        dev.install_faults(&plan, 0);
    }
    Ok(dev)
}

/// With `--profile FILE`: writes the Chrome trace to FILE and appends the
/// nvprof-style summary to the command's text and JSON output.
fn attach_profile(
    out: &mut Output,
    profile: &eta_prof::Profile,
    args: &Args,
) -> Result<(), ArgError> {
    let Some(path) = args.get("profile") else {
        return Ok(());
    };
    std::fs::write(path, profile.to_chrome_trace())
        .map_err(|e| ArgError(format!("writing profile {path}: {e}")))?;
    out.text.push('\n');
    out.text.push_str(&profile.summary_text());
    let _ = writeln!(out.text, "chrome trace written to {path}");
    if let serde_json::Value::Object(m) = &mut out.json {
        let s = profile.summary();
        m.insert(
            "profile".into(),
            json!({
                "trace": path,
                "events": s.event_count,
                "kernel_busy_ns": s.kernel_busy_ns,
                "transfer_busy_ns": s.transfer_busy_ns,
                "overlap_ns": s.overlap_ns,
                "overlap_fraction": s.overlap_fraction,
                "makespan_ns": s.makespan_ns,
            }),
        );
    }
    Ok(())
}

/// Appends the sanitizer findings (if the run was sanitized) to a command's
/// text and JSON output.
fn attach_sanitizer(out: &mut Output, dev: &Device) {
    if let Some(report) = dev.sanitizer_report() {
        out.text.push('\n');
        out.text.push_str(&report.summarize());
        if let serde_json::Value::Object(m) = &mut out.json {
            m.insert(
                "sanitizer".into(),
                serde_json::to_value(&report).unwrap_or_default(),
            );
        }
    }
}

fn parse_algorithm(name: &str) -> Result<Algorithm, ArgError> {
    match name {
        "bfs" => Ok(Algorithm::Bfs),
        "sssp" => Ok(Algorithm::Sssp),
        "sswp" => Ok(Algorithm::Sswp),
        "cc" => Ok(Algorithm::Cc),
        other => Err(ArgError(format!("unknown algorithm {other:?}"))),
    }
}

fn run(args: &Args) -> Result<Output, ArgError> {
    let g = load_graph(args)?;
    if args.get("alg") == Some("pagerank") {
        return run_pagerank(args, &g);
    }
    if let Some(list) = args.get("sources") {
        let list = list.to_string();
        return run_multi_bfs(args, &g, &list);
    }
    let alg = parse_algorithm(args.get("alg").unwrap_or("bfs"))?;
    if alg.needs_weights() && !g.is_weighted() {
        return Err(ArgError(format!(
            "{} needs a weighted graph (generate with --max-weight)",
            alg.name()
        )));
    }
    let source: u32 = args.get_parse("source", 0)?;
    if source as usize >= g.n() {
        return Err(ArgError(format!(
            "--source {source} out of range (graph has {} vertices)",
            g.n()
        )));
    }
    let devices: u32 = args.get_parse("devices", 1)?;
    if devices > 1 {
        return run_sharded_cli(args, &g, alg, source, devices);
    }
    let mut dev = device_from(args)?;

    let result: RunResult = match args.get("framework").unwrap_or("eta") {
        "eta" => {
            let cfg = eta_config_from(args)?;
            etagraph::engine::run(&mut dev, &g, source, alg, &cfg)
                .map_err(|e| ArgError(format!("run failed: {e}")))?
        }
        name => {
            let fw: Box<dyn Framework> = match name {
                "tigr" => Box::new(TigrLike::default()),
                "gunrock" => Box::new(GunrockLike::default()),
                "cusha" => Box::new(CushaLike::default()),
                "chunkstream" => Box::new(ChunkStream::default()),
                other => return Err(ArgError(format!("unknown framework {other:?}"))),
            };
            fw.run(&mut dev, &g, source, alg)
                .map_err(|e| ArgError(format!("{name} failed: {e}")))?
        }
    };

    if let Some(path) = args.get("trace") {
        std::fs::write(path, result.timeline.to_chrome_trace())
            .map_err(|e| ArgError(format!("writing trace {path}: {e}")))?;
    }

    let m = &result.metrics;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} from {source}: visited {} of {} ({:.2}%) in {} iterations",
        alg.name(),
        result.visited(),
        g.n(),
        result.activation_percent(),
        result.iterations
    );
    let _ = writeln!(
        text,
        "simulated: {:.3} ms kernel, {:.3} ms total, {:.0}% of transfer hidden",
        result.kernel_ms(),
        result.total_ms(),
        result.overlap_fraction * 100.0
    );
    let _ = writeln!(
        text,
        "counters: IPC {:.2}, unified-cache hit {:.1}%, {} global read transactions, {:.1} KB migrated in {} batches",
        m.ipc(),
        m.l1_hit_rate() * 100.0,
        m.l1_requests,
        result.um_stats.migrated_bytes as f64 / 1024.0,
        result.um_stats.migration_batches.len(),
    );
    let digest = eta_ckpt::digest_words(&[&result.labels]);
    let _ = writeln!(text, "labels digest: {digest:016x}");
    let mut out = Output {
        json: json!({
            "algorithm": alg.name(),
            "source": source,
            "visited": result.visited(),
            "iterations": result.iterations,
            "kernel_ms": result.kernel_ms(),
            "total_ms": result.total_ms(),
            "overlap_fraction": result.overlap_fraction,
            "labels_digest": format!("{digest:016x}"),
            "metrics": m,
            "um": result.um_stats,
        }),
        text,
    };
    attach_sanitizer(&mut out, &dev);
    attach_profile(&mut out, &dev.profile(), args)?;
    Ok(out)
}

/// `run --devices N`: the same query sharded across an N-member device
/// group over a modeled NVLink fabric (`etagraph::sharded`). The labels
/// digest printed here is byte-comparable with the single-device run's —
/// the CI differential gate diffs exactly these two lines.
fn run_sharded_cli(
    args: &Args,
    g: &Csr,
    alg: Algorithm,
    source: u32,
    devices: u32,
) -> Result<Output, ArgError> {
    if args.get("framework").unwrap_or("eta") != "eta" {
        return Err(ArgError(
            "--devices applies to the eta framework only".into(),
        ));
    }
    for single_only in ["trace", "faults"] {
        if args.get(single_only).is_some() {
            return Err(ArgError(format!(
                "--{single_only} is a single-device flag; drop --devices"
            )));
        }
    }
    if args.switch("sanitize") {
        return Err(ArgError(
            "--sanitize is a single-device flag; drop --devices".into(),
        ));
    }
    let cfg = eta_config_from(args)?;
    let device_mb: u64 = args.get_parse("device-mb", 88)?;
    let mut gpu = GpuConfig::gtx1080ti_scaled(device_mb * 1024 * 1024)
        .with_host_threads(host_threads_from(args)?);
    if args.get("profile").is_some() {
        gpu = gpu.with_profiling();
    }
    let part = eta_shard::GraphPartition::vertex_range(g, devices);
    let mut devs: Vec<Device> = (0..devices).map(|_| Device::new(gpu)).collect();
    let mut fabric = eta_mem::PeerFabric::nvlink(devices);
    let r = etagraph::sharded::run_sharded(&mut devs, &mut fabric, &part, source, alg, &cfg)
        .map_err(|e| ArgError(format!("sharded run failed: {e}")))?;

    let init = alg.init_label();
    let visited = r.labels.iter().filter(|&&l| l != init).count();
    let digest = eta_ckpt::digest_words(&[&r.labels]);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} from {source} on {devices} devices: visited {} of {} ({:.2}%) in {} supersteps",
        alg.name(),
        visited,
        g.n(),
        visited as f64 * 100.0 / g.n().max(1) as f64,
        r.supersteps
    );
    let _ = writeln!(
        text,
        "simulated: {:.3} ms kernel (all shards), {:.3} ms total; {:.1} KB over the peer fabric ({:.1} KB/superstep)",
        r.kernel_ns as f64 / 1e6,
        r.total_ns as f64 / 1e6,
        r.exchanged_bytes as f64 / 1024.0,
        r.bytes_per_superstep() as f64 / 1024.0,
    );
    let _ = writeln!(text, "labels digest: {digest:016x}");
    let mut out = Output {
        json: json!({
            "algorithm": alg.name(),
            "source": source,
            "devices": devices,
            "visited": visited,
            "supersteps": r.supersteps,
            "kernel_ms": r.kernel_ns as f64 / 1e6,
            "total_ms": r.total_ns as f64 / 1e6,
            "exchanged_bytes": r.exchanged_bytes,
            "bytes_per_superstep": r.bytes_per_superstep(),
            "labels_digest": format!("{digest:016x}"),
            "metrics": r.metrics,
        }),
        text,
    };
    if args.get("profile").is_some() {
        let mut profile = eta_prof::Profile::new();
        for (s, d) in devs.iter().enumerate() {
            profile.push(&format!("device{s}"), d.mem.prof.events().to_vec());
        }
        attach_profile(&mut out, &profile, args)?;
    }
    Ok(out)
}

/// Batched concurrent BFS over a comma-separated source list (iBFS-style;
/// up to 32 sources share one traversal).
fn run_multi_bfs(args: &Args, g: &Csr, list: &str) -> Result<Output, ArgError> {
    let sources: Vec<u32> = list
        .split(',')
        .map(|tok| {
            tok.trim()
                .parse::<u32>()
                .map_err(|_| ArgError(format!("--sources: cannot parse {tok:?}")))
        })
        .collect::<Result<_, _>>()?;
    if sources.is_empty() || sources.len() > etagraph::multi_bfs::MAX_BATCH {
        return Err(ArgError(format!(
            "--sources takes 1..={} vertices",
            etagraph::multi_bfs::MAX_BATCH
        )));
    }
    for &s in &sources {
        if s as usize >= g.n() {
            return Err(ArgError(format!("--sources: vertex {s} out of range")));
        }
    }
    let cfg = eta_config_from(args)?;
    let mut dev = device_from(args)?;
    let r = etagraph::multi_bfs::run(&mut dev, g, &sources, &cfg)
        .map_err(|e| ArgError(format!("multi-bfs failed: {e}")))?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "batched BFS: {} sources in {} joint iterations, {:.3} ms kernel / {:.3} ms total",
        sources.len(),
        r.iterations,
        r.kernel_ns as f64 / 1e6,
        r.total_ns as f64 / 1e6
    );
    let mut jrows = Vec::new();
    for (s, &src) in sources.iter().enumerate() {
        let visited = r.levels[s].iter().filter(|&&l| l != u32::MAX).count();
        let _ = writeln!(text, "  source {src:>8}: reached {visited} vertices");
        jrows.push(json!({"source": src, "visited": visited}));
    }
    let mut out = Output {
        json: json!({
            "algorithm": "multi-BFS",
            "sources": jrows,
            "iterations": r.iterations,
            "kernel_ms": r.kernel_ns as f64 / 1e6,
            "total_ms": r.total_ns as f64 / 1e6,
        }),
        text,
    };
    attach_sanitizer(&mut out, &dev);
    attach_profile(&mut out, &dev.profile(), args)?;
    Ok(out)
}

fn run_pagerank(args: &Args, g: &Csr) -> Result<Output, ArgError> {
    let cfg = etagraph::pagerank::PageRankConfig {
        damping: args.get_parse("damping", 0.85f32)?,
        iterations: args.get_parse("iterations", 20)?,
        eta: eta_config_from(args)?,
    };
    let devices: u32 = args.get_parse("devices", 1)?;
    if devices > 1 {
        return run_pagerank_sharded(args, g, &cfg, devices);
    }
    let mut dev = device_from(args)?;
    let r = etagraph::pagerank::run(&mut dev, g, &cfg)
        .map_err(|e| ArgError(format!("pagerank failed: {e}")))?;
    let mut top: Vec<(u32, f32)> = r
        .ranks
        .iter()
        .copied()
        .enumerate()
        .map(|(v, rank)| (v as u32, rank))
        .collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut text = String::new();
    let _ = writeln!(
        text,
        "PageRank: {} iterations, {:.3} ms kernel / {:.3} ms total",
        r.iterations,
        r.kernel_ns as f64 / 1e6,
        r.total_ns as f64 / 1e6
    );
    let _ = writeln!(text, "top 10 vertices:");
    for &(v, rank) in top.iter().take(10) {
        let _ = writeln!(text, "  {v:>8}  {rank:.6}");
    }
    let bits: Vec<u32> = r.ranks.iter().map(|x| x.to_bits()).collect();
    let digest = eta_ckpt::digest_words(&[&bits]);
    let _ = writeln!(text, "ranks digest: {digest:016x}");
    let mut out = Output {
        json: json!({
            "algorithm": "PageRank",
            "iterations": r.iterations,
            "kernel_ms": r.kernel_ns as f64 / 1e6,
            "total_ms": r.total_ns as f64 / 1e6,
            "ranks_digest": format!("{digest:016x}"),
            "top10": top.iter().take(10).map(|&(v, rank)| json!({"vertex": v, "rank": rank})).collect::<Vec<_>>(),
        }),
        text,
    };
    attach_sanitizer(&mut out, &dev);
    attach_profile(&mut out, &dev.profile(), args)?;
    Ok(out)
}

/// `run --alg pagerank --devices N`: sharded PageRank with bit-identical
/// ranks (the digest line matches the single-device run's exactly).
fn run_pagerank_sharded(
    args: &Args,
    g: &Csr,
    cfg: &etagraph::pagerank::PageRankConfig,
    devices: u32,
) -> Result<Output, ArgError> {
    if args.switch("sanitize") || args.get("trace").is_some() || args.get("faults").is_some() {
        return Err(ArgError(
            "--sanitize/--trace/--faults are single-device flags; drop --devices".into(),
        ));
    }
    let device_mb: u64 = args.get_parse("device-mb", 88)?;
    let mut gpu = GpuConfig::gtx1080ti_scaled(device_mb * 1024 * 1024)
        .with_host_threads(host_threads_from(args)?);
    if args.get("profile").is_some() {
        gpu = gpu.with_profiling();
    }
    let part = eta_shard::GraphPartition::vertex_range(g, devices);
    let mut devs: Vec<Device> = (0..devices).map(|_| Device::new(gpu)).collect();
    let mut fabric = eta_mem::PeerFabric::nvlink(devices);
    let r = etagraph::sharded::run_sharded_pagerank(&mut devs, &mut fabric, &part, g, cfg)
        .map_err(|e| ArgError(format!("sharded pagerank failed: {e}")))?;
    let bits: Vec<u32> = r.ranks.iter().map(|x| x.to_bits()).collect();
    let digest = eta_ckpt::digest_words(&[&bits]);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "PageRank on {devices} devices: {} iterations, {:.3} ms kernel / {:.3} ms total; {:.1} KB over the peer fabric",
        r.iterations,
        r.kernel_ns as f64 / 1e6,
        r.total_ns as f64 / 1e6,
        r.exchanged_bytes as f64 / 1024.0,
    );
    let _ = writeln!(text, "ranks digest: {digest:016x}");
    let mut out = Output {
        json: json!({
            "algorithm": "PageRank",
            "devices": devices,
            "iterations": r.iterations,
            "kernel_ms": r.kernel_ns as f64 / 1e6,
            "total_ms": r.total_ns as f64 / 1e6,
            "exchanged_bytes": r.exchanged_bytes,
            "ranks_digest": format!("{digest:016x}"),
        }),
        text,
    };
    if args.get("profile").is_some() {
        let mut profile = eta_prof::Profile::new();
        for (s, d) in devs.iter().enumerate() {
            profile.push(&format!("device{s}"), d.mem.prof.events().to_vec());
        }
        attach_profile(&mut out, &profile, args)?;
    }
    Ok(out)
}

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

/// Serves a deterministic Poisson workload over one or more tenant graphs
/// on a pool of simulated devices; see `eta-serve`.
fn serve(args: &Args) -> Result<Output, ArgError> {
    use eta_bench::stats::Summary;
    use eta_serve::{poisson_trace, Priority};

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
        interactive_slo_ns: args
            .get("slo-ms")
            .map(|v| {
                v.parse::<u64>()
                    .map(|ms| ms * 1_000_000)
                    .map_err(|_| ArgError(format!("--slo-ms: cannot parse {v:?}")))
            })
            .transpose()?,
        batch_slo_ns: None,
        timeout_ns: args
            .get("timeout-ms")
            .map(|v| {
                v.parse::<u64>()
                    .map(|ms| ms * 1_000_000)
                    .map_err(|_| ArgError(format!("--timeout-ms: cannot parse {v:?}")))
            })
            .transpose()?,
    };
    if workload.rate_per_s <= 0.0 {
        return Err(ArgError("--rate must be positive".into()));
    }

    let device_mb: u64 = args.get_parse("device-mb", 88)?;
    let mut gpu = GpuConfig::gtx1080ti_scaled(device_mb * 1024 * 1024)
        .with_host_threads(host_threads_from(args)?);
    let sanitize = args.switch("sanitize");
    if sanitize {
        gpu = gpu.with_sanitizer(SanitizerMode::Full);
    }
    if args.get("profile").is_some() {
        gpu = gpu.with_profiling();
    }
    let max_batch = if args.switch("no-batch") {
        1
    } else {
        args.get_parse("batch", etagraph::multi_bfs::MAX_BATCH)?
    };
    if !(1..=etagraph::multi_bfs::MAX_BATCH).contains(&max_batch) {
        return Err(ArgError(format!(
            "--batch takes 1..={}",
            etagraph::multi_bfs::MAX_BATCH
        )));
    }
    let cfg = eta_serve::ServeConfig {
        devices: args.get_parse("devices", 1)?,
        gpu,
        eta: eta_config_from(args)?,
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
        let mut reports = Vec::new();
        for w in service.workers() {
            if let Some(report) = w.dev.sanitizer_report() {
                out.text.push('\n');
                out.text.push_str(&report.summarize());
                reports.push(serde_json::to_value(&report).unwrap_or_default());
            }
        }
        if let serde_json::Value::Object(m) = &mut out.json {
            m.insert("sanitizer".into(), serde_json::Value::Array(reports));
        }
    }
    attach_profile(&mut out, &service.profile(), args)?;
    Ok(out)
}

/// Runs the deterministic chaos-soak drill from `eta-bench`: seeded fault
/// plans crossed with checkpoint intervals, every completed answer checked
/// against the CPU reference.
fn chaos(args: &Args) -> Result<Output, ArgError> {
    drill(args, eta_bench::chaos::chaos, |_, lost, wrong| {
        if lost > 0 || wrong > 0 {
            return Err(format!(
                "{lost} lost, {wrong} wrong — minimal reproducers in the json artifact"
            ));
        }
        Ok("0 lost, 0 wrong".into())
    })
}

/// Runs the deterministic overload drill from `eta-bench`: arrival-rate
/// multipliers over calibrated capacity crossed with fault plans, every
/// trace served qos-off and qos-on, every id accounted for exactly once.
fn overload(args: &Args) -> Result<Output, ArgError> {
    drill(args, eta_bench::overload::overload, |json, lost, wrong| {
        let wins = json["saturated_qos_wins"].as_u64().unwrap_or(0);
        let cells = json["saturated_cells"].as_u64().unwrap_or(u64::MAX);
        if lost > 0 || wrong > 0 {
            return Err(format!(
                "{lost} lost, {wrong} wrong — per-cell detail in the json artifact"
            ));
        }
        if wins < cells {
            return Err(format!(
                "qos beat the baseline in only {wins}/{cells} saturated cells"
            ));
        }
        Ok(format!(
            "0 lost, 0 wrong; qos won all {cells} saturated cells"
        ))
    })
}

/// The drill runner: `--full` runs the large sweep, `--out DIR` also writes
/// the artifact pair exactly as `report <name> --out DIR` would, and
/// `verdict(json, lost, wrong)` decides pass (a summary) or fail (why).
fn drill(
    args: &Args,
    run: fn(eta_bench::Suite) -> eta_bench::tables::Artifact,
    verdict: fn(&serde_json::Value, u64, u64) -> Result<String, String>,
) -> Result<Output, ArgError> {
    let suite = if args.switch("full") {
        eta_bench::Suite::Full
    } else {
        eta_bench::Suite::Quick
    };
    let out_dir = args.get("out").map(std::path::PathBuf::from);
    args.ensure_consumed()?;

    let a = run(suite);
    let mut text = format!("{}\n\n{}", a.title, a.text);
    if let Some(dir) = &out_dir {
        let [txt, jsn] = a
            .write(dir)
            .map_err(|e| ArgError(format!("writing {} to {}: {e}", a.name, dir.display())))?;
        let _ = writeln!(text, "\nwrote {} and {}", txt.display(), jsn.display());
    }
    let lost = a.json["verification"]["lost"].as_u64().unwrap_or(u64::MAX);
    let wrong = a.json["verification"]["wrong"].as_u64().unwrap_or(u64::MAX);
    let summary = verdict(&a.json, lost, wrong)
        .map_err(|why| ArgError(format!("{} drill FAILED: {why}", a.name)))?;
    let _ = writeln!(text, "\n{} drill passed: {summary}", a.name);
    Ok(Output { json: a.json, text })
}

/// Runs the workspace static invariant checker (`crates/lint`): seven
/// token-pattern rules over every library source, minus the committed
/// `lint.allow` baseline. Any non-baselined finding — or any stale baseline
/// entry — fails the command, which is exactly what the ci.sh gate needs.
fn lint(args: &Args) -> Result<Output, ArgError> {
    let root = match args.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| ArgError(format!("reading current directory: {e}")))?;
            eta_lint::find_workspace_root(&cwd).ok_or_else(|| {
                ArgError(
                    "no workspace root (a directory holding crates/ and Cargo.toml) above \
                     the current directory; pass --root DIR"
                        .into(),
                )
            })?
        }
    };
    args.ensure_consumed()?;

    let report =
        eta_lint::lint_workspace(&root).map_err(|e| ArgError(format!("lint did not run: {e}")))?;
    let text = report.text();
    if !report.is_clean() {
        return Err(ArgError(text));
    }
    Ok(Output {
        json: eta_bench::lint_report::value(&report),
        text,
    })
}

fn datasets(_args: &Args) -> Result<Output, ArgError> {
    let mut text = String::from("scaled evaluation datasets (built in-memory by eta-bench):\n");
    let mut rows = Vec::new();
    for name in eta_graph::datasets::ALL {
        let _ = writeln!(text, "  {name}");
        rows.push(json!(name));
    }
    let _ = writeln!(
        text,
        "regenerate the paper's tables: cargo run --release -p eta-bench --bin report -- all"
    );
    Ok(Output {
        json: serde_json::Value::Array(rows),
        text,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("etagraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_info_run_pipeline() {
        let f = tmpfile("pipeline.etag");
        let out = dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --seed 7 --max-weight 32 --out {f}"
        )))
        .unwrap();
        assert!(out.text.contains("weighted"));

        let info = dispatch(argv(&format!("info {f}"))).unwrap();
        assert_eq!(info.json["vertices"], 512);
        assert!(info.json["weighted"].as_bool().unwrap());

        let run = dispatch(argv(&format!("run {f} --alg sssp --source 3"))).unwrap();
        assert!(run.json["visited"].as_u64().unwrap() > 0);
        assert_eq!(run.json["algorithm"], "SSSP");

        // Baseline frameworks work through the same interface.
        let tigr = dispatch(argv(&format!("run {f} --alg bfs --framework tigr"))).unwrap();
        assert!(tigr.json["total_ms"].as_f64().unwrap() > 0.0);
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn sharded_run_matches_single_device_digest() {
        let f = tmpfile("sharded.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --seed 7 --max-weight 32 --out {f}"
        )))
        .unwrap();
        for alg in ["bfs", "sssp"] {
            let single = dispatch(argv(&format!("run {f} --alg {alg} --source 3"))).unwrap();
            let sharded =
                dispatch(argv(&format!("run {f} --alg {alg} --source 3 --devices 2"))).unwrap();
            assert_eq!(
                single.json["labels_digest"], sharded.json["labels_digest"],
                "{alg}: sharded answer must match the single-device one"
            );
            assert_eq!(sharded.json["devices"], 2);
            assert!(sharded.json["exchanged_bytes"].as_u64().unwrap() > 0);
            assert!(sharded.text.contains("labels digest"));
        }
        let pr1 = dispatch(argv(&format!("run {f} --alg pagerank --iterations 5"))).unwrap();
        let pr2 = dispatch(argv(&format!(
            "run {f} --alg pagerank --iterations 5 --devices 2"
        )))
        .unwrap();
        assert_eq!(pr1.json["ranks_digest"], pr2.json["ranks_digest"]);
        // Single-device-only flags are refused, not silently ignored.
        let err = dispatch(argv(&format!("run {f} --alg bfs --devices 2 --sanitize"))).unwrap_err();
        assert!(err.0.contains("single-device"), "{err}");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn run_flags_map_to_config() {
        let a = Args::parse(argv("run g --no-smp --no-ump --out-of-core --pull --k 8"));
        let cfg = eta_config_from(&a).unwrap();
        assert!(!cfg.smp);
        assert_eq!(cfg.transfer, TransferMode::Unified);
        assert_eq!(cfg.udc, UdcMode::OutOfCore);
        assert!(cfg.direction_optimizing);
        assert_eq!(cfg.k, 8);
        let bad = Args::parse(argv("run g --k 0"));
        assert!(eta_config_from(&bad).is_err());
    }

    #[test]
    fn transfer_flag_selects_the_backend() {
        for (spelling, mode) in [
            ("demand", TransferMode::Unified),
            ("prefetch", TransferMode::UnifiedPrefetch),
            ("explicit", TransferMode::ExplicitCopy),
            ("zerocopy", TransferMode::ZeroCopy),
            ("adaptive", TransferMode::Adaptive),
        ] {
            let a = Args::parse(argv(&format!("run g --transfer {spelling}")));
            assert_eq!(eta_config_from(&a).unwrap().transfer, mode);
        }
        // Unknown value is a named error, not a silent default.
        let bad = Args::parse(argv("run g --transfer mapped"));
        let err = eta_config_from(&bad).unwrap_err();
        assert!(err.0.contains("mapped"), "{err}");
        // Mixing the direct spelling with an ablation switch is ambiguous.
        let both = Args::parse(argv("run g --transfer adaptive --no-um"));
        let err = eta_config_from(&both).unwrap_err();
        assert!(err.0.contains("conflicts"), "{err}");
        // The ablation switches still work on their own.
        let ab = Args::parse(argv("run g --no-um"));
        assert_eq!(
            eta_config_from(&ab).unwrap().transfer,
            TransferMode::ExplicitCopy
        );
    }

    #[test]
    fn helpful_errors() {
        assert!(dispatch(argv("frobnicate")).is_err());
        // Typo'd flags are named, not ignored.
        let f0 = tmpfile("typo.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 8 --edges 2000 --out {f0}"
        )))
        .unwrap();
        let err = dispatch(argv(&format!("run {f0} --alg bfs --sorces 0,1"))).unwrap_err();
        assert!(err.0.contains("--sorces"), "{err}");
        // A typo'd generate must fail *without* writing the file.
        let f1 = tmpfile("never-written.etag");
        let err = dispatch(argv(&format!(
            "generate rmat --scale 8 --edges 2000 --out {f1} --sede 7"
        )))
        .unwrap_err();
        assert!(err.0.contains("--sede"), "{err}");
        assert!(
            !std::path::Path::new(&f1).exists(),
            "no side effect on error"
        );
        std::fs::remove_file(&f0).ok();
        assert!(dispatch(argv("generate rmat --out /tmp/x.etag"))
            .unwrap_err()
            .0
            .contains("--scale"));
        let f = tmpfile("unweighted.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 8 --edges 2000 --out {f}"
        )))
        .unwrap();
        let err = dispatch(argv(&format!("run {f} --alg sssp"))).unwrap_err();
        assert!(err.0.contains("weighted"), "{err}");
        let err = dispatch(argv(&format!("run {f} --alg bfs --source 99999"))).unwrap_err();
        assert!(err.0.contains("out of range"));
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn web_generator_with_island() {
        let f = tmpfile("web.etag");
        let out = dispatch(argv(&format!(
            "generate web --vertices 5000 --edges 30000 --communities 8 --island 50 --out {f}"
        )))
        .unwrap();
        assert_eq!(out.json["source"], 0);
        let run = dispatch(argv(&format!("run {f} --alg bfs"))).unwrap();
        assert_eq!(run.json["visited"], 50, "island traversal");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn connected_components_via_cli() {
        let f = tmpfile("cc.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        let out = dispatch(argv(&format!("run {f} --alg cc"))).unwrap();
        assert_eq!(out.json["algorithm"], "CC");
        // Baselines reject the extension cleanly.
        let err = dispatch(argv(&format!("run {f} --alg cc --framework tigr"))).unwrap_err();
        assert!(err.0.contains("EtaGraph-only"), "{err}");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn pagerank_via_cli() {
        let f = tmpfile("pr.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        let out = dispatch(argv(&format!("run {f} --alg pagerank --iterations 5"))).unwrap();
        assert_eq!(out.json["algorithm"], "PageRank");
        assert_eq!(out.json["top10"].as_array().unwrap().len(), 10);
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn multi_bfs_and_trace_via_cli() {
        let f = tmpfile("multi.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        let out = dispatch(argv(&format!("run {f} --sources 0,1,7"))).unwrap();
        assert_eq!(out.json["algorithm"], "multi-BFS");
        assert_eq!(out.json["sources"].as_array().unwrap().len(), 3);
        let bad = dispatch(argv(&format!("run {f} --sources 0,abc"))).unwrap_err();
        assert!(bad.0.contains("--sources"));

        let trace = tmpfile("run.trace.json");
        dispatch(argv(&format!("run {f} --alg bfs --trace {trace}"))).unwrap();
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.contains("\"ph\":\"X\""));
        assert!(body.trim_end().ends_with(']'));
        std::fs::remove_file(&f).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn profile_flag_writes_deterministic_chrome_trace() {
        let f = tmpfile("prof.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 10 --edges 16000 --out {f}"
        )))
        .unwrap();
        let trace = tmpfile("run.profile.json");
        let out = dispatch(argv(&format!("run {f} --alg bfs --profile {trace}"))).unwrap();
        assert!(out.text.contains("==eta-prof=="), "{}", out.text);
        assert!(
            out.text.contains("transfer/compute overlap"),
            "{}",
            out.text
        );
        assert!(out.json["profile"]["events"].as_u64().unwrap() > 0);
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.contains("\"name\":\"kernels\""), "kernel track named");
        assert!(body.contains("\"name\":\"pcie transfers\""));
        assert!(body.contains("\"ph\":\"X\""));
        // Byte-identical on a repeated identical invocation.
        let trace2 = tmpfile("run.profile2.json");
        dispatch(argv(&format!("run {f} --alg bfs --profile {trace2}"))).unwrap();
        assert_eq!(body, std::fs::read_to_string(&trace2).unwrap());
        // Unprofiled runs attach nothing.
        let plain = dispatch(argv(&format!("run {f} --alg bfs"))).unwrap();
        assert!(plain.json["profile"].is_null());
        for p in [f, trace, trace2] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn profile_flag_covers_serve_and_secondary_run_paths() {
        let trace = tmpfile("serve.profile.json");
        let out = dispatch(argv(&format!(
            "serve --graph rmat10 --requests 20 --seed 7 --rate 5000 --profile {trace}"
        )))
        .unwrap();
        assert!(out.text.contains("==eta-prof=="), "{}", out.text);
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.contains("\"name\":\"scheduler\""), "scheduler process");
        assert!(body.contains("\"name\":\"device0\""), "device process");
        std::fs::remove_file(&trace).ok();

        let f = tmpfile("prof-multi.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        let t1 = tmpfile("multi.profile.json");
        let multi = dispatch(argv(&format!("run {f} --sources 0,1 --profile {t1}"))).unwrap();
        assert!(multi.json["profile"]["events"].as_u64().unwrap() > 0);
        let t2 = tmpfile("pr.profile.json");
        let pr = dispatch(argv(&format!(
            "run {f} --alg pagerank --iterations 3 --profile {t2}"
        )))
        .unwrap();
        assert!(pr.json["profile"]["events"].as_u64().unwrap() > 0);
        for p in [f, t1, t2] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn sanitize_flag_reports_per_run_mode() {
        let f = tmpfile("sanitize.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        // Sanitized EtaGraph run: report present and clean.
        let out = dispatch(argv(&format!("run {f} --alg bfs --sanitize"))).unwrap();
        assert!(out.text.contains("sanitizer (full)"), "{}", out.text);
        assert_eq!(out.json["sanitizer"]["errors"].as_array().unwrap().len(), 0);
        assert!(out.json["sanitizer"]["launches"].as_u64().unwrap() > 0);
        // Baselines run sanitized through the same flag.
        let tigr = dispatch(argv(&format!(
            "run {f} --alg bfs --framework tigr --sanitize"
        )))
        .unwrap();
        assert_eq!(
            tigr.json["sanitizer"]["errors"].as_array().unwrap().len(),
            0
        );
        // PageRank and multi-BFS paths carry the report too.
        let pr = dispatch(argv(&format!(
            "run {f} --alg pagerank --iterations 3 --sanitize"
        )))
        .unwrap();
        assert!(pr.json["sanitizer"]["launches"].as_u64().unwrap() > 0);
        let multi = dispatch(argv(&format!("run {f} --sources 0,1 --sanitize"))).unwrap();
        assert!(multi.json["sanitizer"]["launches"].as_u64().unwrap() > 0);
        // Without the flag, no report is attached.
        let plain = dispatch(argv(&format!("run {f} --alg bfs"))).unwrap();
        assert!(plain.json["sanitizer"].is_null());
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn serve_subcommand_end_to_end() {
        let out = dispatch(argv(
            "serve --graph rmat10 --requests 40 --seed 7 --rate 5000",
        ))
        .unwrap();
        assert_eq!(out.json["requests"], 40);
        let completed = out.json["report"]["completed"].as_u64().unwrap();
        let rejected = out.json["report"]["rejected"].as_u64().unwrap();
        assert_eq!(completed + rejected, 40);
        assert!(out.json["latency"]["all"]["p95"].as_u64().unwrap() > 0);
        assert!(out.text.contains("throughput"), "{}", out.text);
        // Same invocation, byte-identical JSON (the determinism contract).
        let again = dispatch(argv(
            "serve --graph rmat10 --requests 40 --seed 7 --rate 5000",
        ))
        .unwrap();
        assert_eq!(
            serde_json::to_string(&out.json).unwrap(),
            serde_json::to_string(&again.json).unwrap()
        );
        // A different seed produces a different trace.
        let other = dispatch(argv(
            "serve --graph rmat10 --requests 40 --seed 8 --rate 5000",
        ))
        .unwrap();
        assert_ne!(
            serde_json::to_string(&out.json["report"]).unwrap(),
            serde_json::to_string(&other.json["report"]).unwrap()
        );
    }

    #[test]
    fn serve_flags_are_validated() {
        assert!(dispatch(argv("serve --requests 10"))
            .unwrap_err()
            .0
            .contains("--graph"));
        assert!(dispatch(argv("serve --graph rmat10 --batch 99"))
            .unwrap_err()
            .0
            .contains("--batch"));
        assert!(dispatch(argv("serve --graph rmat10 --rate -1"))
            .unwrap_err()
            .0
            .contains("--rate"));
        // Typo'd flags are named, like every other subcommand.
        let err = dispatch(argv("serve --graph rmat10 --reqests 10")).unwrap_err();
        assert!(err.0.contains("--reqests"), "{err}");
    }

    #[test]
    fn serve_with_file_graph_sanitizer_and_no_batch() {
        let f = tmpfile("serve.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        let out = dispatch(argv(&format!(
            "serve --graph {f} --requests 12 --no-batch --fifo --sanitize --devices 2"
        )))
        .unwrap();
        assert_eq!(out.json["report"]["completed"], 12u32);
        // Unbatched: every launch carries exactly one request.
        assert_eq!(out.json["mean_batch_size"].as_f64().unwrap(), 1.0);
        let sans = out.json["sanitizer"].as_array().unwrap();
        assert_eq!(sans.len(), 2, "one report per device");
        assert!(sans
            .iter()
            .all(|s| s["errors"].as_array().unwrap().is_empty()));
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn faults_flag_degrades_run_and_is_survived_by_serve() {
        let f = tmpfile("faults.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        // A permanent hang window: the bare engine has no recovery ladder,
        // so `run` reports the typed fault as a named error.
        let plan = tmpfile("hang-plan.json");
        std::fs::write(
            &plan,
            r#"{"seed": 0, "ecc": [], "um": [],
                "hangs": [{"device": 0, "start_ns": 0, "end_ns": 99999999999, "budget_ns": 1000}],
                "pcie": []}"#,
        )
        .unwrap();
        let err = dispatch(argv(&format!("run {f} --alg bfs --faults {plan}"))).unwrap_err();
        assert!(err.0.contains("kernel_hang"), "{err}");
        // The serving layer survives the same plan: retries, quarantine,
        // then the CPU fallback keeps availability at 1.
        let out = dispatch(argv(&format!(
            "serve --graph {f} --requests 6 --rate 5000 --faults {plan}"
        )))
        .unwrap();
        assert!(out.text.contains("availability"), "{}", out.text);
        assert!(out.text.contains("quarantine"), "{}", out.text);
        let report = &out.json["report"];
        assert_eq!(report["completed"], 6u32);
        assert!(report["degraded"].as_u64().unwrap() > 0);
        assert_eq!(report["availability"].as_f64().unwrap(), 1.0);
        // An empty plan is inert: byte-identical output to no flag at all.
        let empty = tmpfile("empty-plan.json");
        std::fs::write(&empty, "{}").unwrap();
        let with = dispatch(argv(&format!(
            "serve --graph {f} --requests 6 --rate 5000 --faults {empty}"
        )))
        .unwrap();
        let without =
            dispatch(argv(&format!("serve --graph {f} --requests 6 --rate 5000"))).unwrap();
        assert_eq!(with.text, without.text);
        assert_eq!(
            serde_json::to_string(&with.json).unwrap(),
            serde_json::to_string(&without.json).unwrap()
        );
        // A malformed plan is a named error.
        let bad = tmpfile("bad-plan.json");
        std::fs::write(&bad, r#"{"bogus": 1}"#).unwrap();
        let err = dispatch(argv(&format!("run {f} --alg bfs --faults {bad}"))).unwrap_err();
        assert!(err.0.contains("fault plan"), "{err}");
        for p in [f, plan, empty, bad] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn ckpt_interval_flag_arms_rung_zero_of_the_ladder() {
        let f = tmpfile("ckpt.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 10 --edges 8000 --out {f}"
        )))
        .unwrap();
        // A permanent 50 µs hang budget on the single device: long enough
        // that early small-frontier kernels pass (snapshots get taken),
        // short enough to kill the peak-frontier iteration.
        let plan = tmpfile("ckpt-plan.json");
        std::fs::write(
            &plan,
            r#"{"seed": 0, "ecc": [], "um": [],
                "hangs": [{"device": 0, "start_ns": 0, "end_ns": 99999999999, "budget_ns": 50000}],
                "pcie": []}"#,
        )
        .unwrap();
        let out = dispatch(argv(&format!(
            "serve --graph {f} --requests 6 --rate 5000 --faults {plan} --ckpt-interval 2"
        )))
        .unwrap();
        let report = &out.json["report"];
        assert_eq!(
            report["completed"].as_u64().unwrap() + report["rejected"].as_u64().unwrap(),
            6
        );
        assert!(report["checkpoints"].as_u64().unwrap() > 0);
        assert!(out.text.contains("checkpoints:"), "{}", out.text);
        // Without the flag, the report carries no checkpoint traffic and
        // the summary line stays absent.
        let off = dispatch(argv(&format!(
            "serve --graph {f} --requests 6 --rate 5000 --faults {plan}"
        )))
        .unwrap();
        assert_eq!(off.json["report"]["checkpoints"], 0u32);
        assert!(!off.text.contains("checkpoints:"), "{}", off.text);
        for p in [f, plan] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn chaos_subcommand_runs_the_drill_and_writes_artifacts() {
        let dir = tmpfile("chaos-out");
        let out = dispatch(argv(&format!("chaos --out {dir}"))).unwrap();
        assert!(out.text.contains("chaos drill passed"), "{}", out.text);
        assert_eq!(out.json["verification"]["lost"], 0);
        assert_eq!(out.json["verification"]["wrong"], 0);
        let body = std::fs::read_to_string(format!("{dir}/chaos.json")).unwrap();
        assert!(body.contains("\"curve\""));
        assert!(std::path::Path::new(&format!("{dir}/chaos.txt")).exists());
        std::fs::remove_dir_all(&dir).ok();
        // Typo'd flags are named here too.
        let err = dispatch(argv("chaos --fulll")).unwrap_err();
        assert!(err.0.contains("--fulll"), "{err}");
    }

    #[test]
    fn overload_subcommand_writes_the_report_binarys_bytes() {
        // One artifact writer: `etagraph overload --out D` must leave what
        // `report overload --quick --out D` leaves, so `--check` says `same`
        // (the drills used to drop the text file's final newline).
        let dir = tmpfile("overload-out");
        let out = dispatch(argv(&format!("overload --out {dir}"))).unwrap();
        assert!(out.text.contains("overload drill passed"), "{}", out.text);
        let regenerated = eta_bench::overload::overload(eta_bench::Suite::Quick);
        for (path, bytes) in regenerated.files(std::path::Path::new(&dir)) {
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{}", path.display());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_subcommand_is_clean_at_head() {
        // The test binary runs from the workspace (or a crate dir under
        // it), so root discovery finds the real tree.
        let out = dispatch(argv("lint")).unwrap();
        assert!(
            out.text.contains("clean: no non-baselined findings"),
            "{}",
            out.text
        );
        assert_eq!(out.json["clean"], true);
        assert_eq!(out.json["new"], 0u32);
        // A root with no workspace shape is a proper error, not a panic.
        let err = dispatch(argv("lint --root /nonexistent-root")).unwrap_err();
        assert!(err.0.contains("lint did not run"), "{err}");
        // Typo'd flags are named.
        let err = dispatch(argv("lint --rot .")).unwrap_err();
        assert!(err.0.contains("--rot"), "{err}");
    }

    #[test]
    fn datasets_lists_the_suite() {
        let out = dispatch(argv("datasets")).unwrap();
        assert_eq!(out.json.as_array().unwrap().len(), 7);
        assert!(out.text.contains("uk2006"));
    }

    #[test]
    fn device_oom_is_reported() {
        let f = tmpfile("oom.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 12 --edges 80000 --out {f}"
        )))
        .unwrap();
        let err = dispatch(argv(&format!(
            "run {f} --alg bfs --framework cusha --device-mb 1"
        )))
        .unwrap_err();
        assert!(err.0.contains("O.O.M"), "{err}");
        std::fs::remove_file(&f).ok();
    }
}
