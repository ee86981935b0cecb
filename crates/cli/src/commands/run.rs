//! `etagraph run`: a traversal or PageRank on one device or sharded over a
//! `--devices N` group, or batched BFS (`--sources`) on one device.

use super::config::{attach, eta_config, members, smp_config, traversal_config};
use super::{load_graph, Output};
use crate::args::{ArgError, Args};
use eta_baselines::{ChunkStream, CushaLike, Framework, GunrockLike, TigrLike};
use eta_graph::Csr;
use eta_sim::Device;
use etagraph::multi_bfs::MAX_BATCH;
use etagraph::pagerank::PageRankConfig;
use etagraph::{Algorithm, EtaConfig};
use serde_json::json;
use std::fmt::Write as _;

pub(crate) fn run(args: &Args) -> Result<Output, ArgError> {
    let g = load_graph(args)?;
    let framework = args.get("framework").unwrap_or("eta");
    let sources = args.get("sources");
    let alg = args.get("alg");
    let devices: u32 = match sources {
        Some(_) => 1,
        None => args.get_parse("devices", 1)?,
    };
    if devices == 0 {
        return Err(ArgError("--devices must be at least 1".into()));
    }
    if framework != "eta" && (sources.is_some() || alg == Some("pagerank") || devices > 1) {
        return Err(ArgError(format!(
            "--framework {framework} runs one-device traversals only"
        )));
    }
    let mut devs = members(args, devices)?;
    let program = match (sources, alg) {
        (Some(list), None | Some("bfs")) => multi_bfs_plan(args, &g, list)?,
        (Some(_), Some(alg)) => {
            return Err(ArgError(format!(
                "--sources runs batched BFS; drop --alg {alg}"
            )))
        }
        (None, Some("pagerank")) => pagerank_plan(args)?,
        (None, alg) => {
            let alg = match alg.unwrap_or("bfs") {
                "bfs" => Algorithm::Bfs,
                "sssp" => Algorithm::Sssp,
                "sswp" => Algorithm::Sswp,
                "cc" => Algorithm::Cc,
                other => return Err(ArgError(format!("unknown algorithm {other:?}"))),
            };
            traversal_plan(args, &g, alg, framework, &devs)?
        }
    };
    // Every flag the program honours is read: refuse an unread one before
    // the first launch, so a typo costs no simulation.
    args.ensure_consumed()?;
    let mut out = match program {
        Program::Traversal {
            alg,
            source,
            solver,
        } => traversal(&g, alg, source, solver, &mut devs)?,
        Program::PageRank(cfg) => pagerank(&g, &cfg, &mut devs)?,
        Program::MultiBfs { sources, cfg } => multi_bfs(&g, &sources, &cfg, &mut devs[0])?,
    };
    attach(&mut out, &devs, args)?;
    Ok(out)
}

/// What `run` executes, built from its flags before the first launch.
enum Program<'a> {
    Traversal {
        alg: Algorithm,
        source: u32,
        solver: Solver<'a>,
    },
    PageRank(PageRankConfig),
    MultiBfs {
        sources: Vec<u32>,
        cfg: EtaConfig,
    },
}

/// Who runs a traversal: EtaGraph with its config, or a named baseline.
enum Solver<'a> {
    Eta(EtaConfig),
    Baseline(&'a str, Box<dyn Framework>),
}

/// The vertex-range partition and the NVLink fabric of a group.
fn group(g: &Csr, devs: &[Device]) -> (eta_shard::GraphPartition, eta_mem::PeerFabric) {
    // `members` built the group from a `u32` count, so this never saturates.
    let n = u32::try_from(devs.len()).unwrap_or(u32::MAX);
    let fabric = eta_mem::PeerFabric::nvlink(n);
    (eta_shard::GraphPartition::vertex_range(g, n), fabric)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The answer digest the CLI prints: identical across group sizes.
fn digest(words: impl Iterator<Item = u32>) -> String {
    let words: Vec<u32> = words.collect();
    format!("{:016x}", eta_ckpt::digest_words(&[&words]))
}

/// A traversal from `--source`, with the config its solver honours: a
/// one-device EtaGraph run reads [`traversal_config`], a group
/// [`smp_config`], a baseline nothing more.
fn traversal_plan<'a>(
    args: &Args,
    g: &Csr,
    alg: Algorithm,
    framework: &'a str,
    devs: &[Device],
) -> Result<Program<'a>, ArgError> {
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
    let weighted = alg.needs_weights();
    let solver = match (framework, devs) {
        ("eta", [_]) => Solver::Eta(traversal_config(args, weighted)?),
        ("eta", _) => Solver::Eta(smp_config(args, weighted)?),
        (name, _) => {
            let fw: Box<dyn Framework> = match name {
                "tigr" => Box::new(TigrLike::default()),
                "gunrock" => Box::new(GunrockLike::default()),
                "cusha" => Box::new(CushaLike::default()),
                "chunkstream" => Box::new(ChunkStream::default()),
                other => return Err(ArgError(format!("unknown framework {other:?}"))),
            };
            Solver::Baseline(name, fw)
        }
    };
    Ok(Program::Traversal {
        alg,
        source,
        solver,
    })
}

/// One traversal. The labels digest is byte-comparable across group sizes
/// — the CI differential gate diffs exactly that line.
fn traversal(
    g: &Csr,
    alg: Algorithm,
    source: u32,
    solver: Solver<'_>,
    devs: &mut [Device],
) -> Result<Output, ArgError> {
    let mut text = String::new();
    let (digest, json) = if let [dev] = devs {
        let result = match &solver {
            Solver::Eta(cfg) => etagraph::engine::run(dev, g, source, alg, cfg)
                .map_err(|e| ArgError(format!("run failed: {e}")))?,
            Solver::Baseline(name, fw) => fw
                .run(dev, g, source, alg)
                .map_err(|e| ArgError(format!("{name} failed: {e}")))?,
        };
        let m = &result.metrics;
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
        let digest = digest(result.labels.iter().copied());
        let json = json!({
            "algorithm": alg.name(),
            "source": source,
            "visited": result.visited(),
            "iterations": result.iterations,
            "kernel_ms": result.kernel_ms(),
            "total_ms": result.total_ms(),
            "overlap_fraction": result.overlap_fraction,
            "labels_digest": digest,
            "metrics": m,
            "um": result.um_stats,
        });
        (digest, json)
    } else {
        let Solver::Eta(cfg) = &solver else {
            unreachable!("`run` refuses a baseline on a group")
        };
        let (part, mut fabric) = group(g, devs);
        let r = etagraph::sharded::run_sharded(devs, &mut fabric, &part, source, alg, cfg)
            .map_err(|e| ArgError(format!("sharded run failed: {e}")))?;
        let init = alg.init_label();
        let visited = r.labels.iter().filter(|&&l| l != init).count();
        let _ = writeln!(
            text,
            "{} from {source} on {} devices: visited {} of {} ({:.2}%) in {} supersteps",
            alg.name(),
            devs.len(),
            visited,
            g.n(),
            visited as f64 * 100.0 / g.n().max(1) as f64,
            r.supersteps
        );
        let _ = writeln!(
            text,
            "simulated: {:.3} ms kernel (all shards), {:.3} ms total; {:.1} KB over the peer fabric ({:.1} KB/superstep)",
            ms(r.kernel_ns),
            ms(r.total_ns),
            r.exchanged_bytes as f64 / 1024.0,
            r.bytes_per_superstep() as f64 / 1024.0,
        );
        let digest = digest(r.labels.iter().copied());
        let json = json!({
            "algorithm": alg.name(),
            "source": source,
            "devices": devs.len(),
            "visited": visited,
            "supersteps": r.supersteps,
            "kernel_ms": ms(r.kernel_ns),
            "total_ms": ms(r.total_ns),
            "exchanged_bytes": r.exchanged_bytes,
            "bytes_per_superstep": r.bytes_per_superstep(),
            "labels_digest": digest,
            "metrics": r.metrics,
        });
        (digest, json)
    };
    let _ = writeln!(text, "labels digest: {digest}");
    Ok(Output { json, text })
}

/// PageRank's `--damping`, `--iterations` and [`smp_config`].
fn pagerank_plan(args: &Args) -> Result<Program<'static>, ArgError> {
    let cfg = PageRankConfig {
        damping: args.get_parse("damping", 0.85f32)?,
        iterations: args.get_parse("iterations", 20)?,
        eta: smp_config(args, false)?,
    };
    if !(0.0..=1.0).contains(&cfg.damping) {
        return Err(ArgError("--damping takes a fraction in [0, 1]".into()));
    }
    Ok(Program::PageRank(cfg))
}

/// PageRank; the ranks are bit-identical across group sizes (the digest
/// line matches the single-device run's exactly).
fn pagerank(g: &Csr, cfg: &PageRankConfig, devs: &mut [Device]) -> Result<Output, ArgError> {
    let mut text = String::new();
    let (digest, json) = if let [dev] = devs {
        let r = etagraph::pagerank::run(dev, g, cfg)
            .map_err(|e| ArgError(format!("pagerank failed: {e}")))?;
        let mut top: Vec<(usize, f32)> = r.ranks.iter().copied().enumerate().collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1));
        top.truncate(10);
        let _ = writeln!(
            text,
            "PageRank: {} iterations, {:.3} ms kernel / {:.3} ms total",
            r.iterations,
            ms(r.kernel_ns),
            ms(r.total_ns)
        );
        let _ = writeln!(text, "top 10 vertices:");
        for &(v, rank) in &top {
            let _ = writeln!(text, "  {v:>8}  {rank:.6}");
        }
        let digest = digest(r.ranks.iter().map(|x| x.to_bits()));
        let json = json!({
            "algorithm": "PageRank",
            "iterations": r.iterations,
            "kernel_ms": ms(r.kernel_ns),
            "total_ms": ms(r.total_ns),
            "ranks_digest": digest,
            "top10": top.iter().map(|&(v, rank)| json!({"vertex": v, "rank": rank})).collect::<Vec<_>>(),
        });
        (digest, json)
    } else {
        let (part, mut fabric) = group(g, devs);
        let r = etagraph::sharded::run_sharded_pagerank(devs, &mut fabric, &part, g, cfg)
            .map_err(|e| ArgError(format!("sharded pagerank failed: {e}")))?;
        let _ = writeln!(
            text,
            "PageRank on {} devices: {} iterations, {:.3} ms kernel / {:.3} ms total; {:.1} KB over the peer fabric",
            devs.len(),
            r.iterations,
            ms(r.kernel_ns),
            ms(r.total_ns),
            r.exchanged_bytes as f64 / 1024.0,
        );
        let digest = digest(r.ranks.iter().map(|x| x.to_bits()));
        let json = json!({
            "algorithm": "PageRank",
            "devices": devs.len(),
            "iterations": r.iterations,
            "kernel_ms": ms(r.kernel_ns),
            "total_ms": ms(r.total_ns),
            "exchanged_bytes": r.exchanged_bytes,
            "ranks_digest": digest,
        });
        (digest, json)
    };
    let _ = writeln!(text, "ranks digest: {digest}");
    Ok(Output { json, text })
}

/// Batched BFS's comma-separated `--sources` and [`eta_config`].
fn multi_bfs_plan(args: &Args, g: &Csr, list: &str) -> Result<Program<'static>, ArgError> {
    let sources: Vec<u32> = list
        .split(',')
        .map(|tok| {
            tok.trim()
                .parse::<u32>()
                .map_err(|_| ArgError(format!("--sources: cannot parse {tok:?}")))
        })
        .collect::<Result<_, _>>()?;
    if sources.is_empty() || sources.len() > MAX_BATCH {
        return Err(ArgError(format!(
            "--sources takes 1..={MAX_BATCH} vertices"
        )));
    }
    if let Some(s) = sources.iter().find(|&&s| s as usize >= g.n()) {
        return Err(ArgError(format!("--sources: vertex {s} out of range")));
    }
    Ok(Program::MultiBfs {
        sources,
        cfg: eta_config(args)?,
    })
}

/// Batched concurrent BFS (iBFS-style; up to 32 sources share one
/// traversal).
fn multi_bfs(
    g: &Csr,
    sources: &[u32],
    cfg: &EtaConfig,
    dev: &mut Device,
) -> Result<Output, ArgError> {
    let r = etagraph::multi_bfs::run(dev, g, sources, cfg)
        .map_err(|e| ArgError(format!("multi-bfs failed: {e}")))?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "batched BFS: {} sources in {} joint iterations, {:.3} ms kernel / {:.3} ms total",
        sources.len(),
        r.iterations,
        ms(r.kernel_ns),
        ms(r.total_ns)
    );
    let mut jrows = Vec::new();
    for (s, &src) in sources.iter().enumerate() {
        let visited = r.levels[s].iter().filter(|&&l| l != u32::MAX).count();
        let _ = writeln!(text, "  source {src:>8}: reached {visited} vertices");
        jrows.push(json!({"source": src, "visited": visited}));
    }
    let json = json!({
        "algorithm": "multi-BFS",
        "sources": jrows,
        "iterations": r.iterations,
        "kernel_ms": ms(r.kernel_ns),
        "total_ms": ms(r.total_ns),
    });
    Ok(Output { json, text })
}
