//! `generate`, `info`, `lint`, `datasets`.

use super::{load_graph, Output};
use crate::args::{ArgError, Args};
use eta_graph::generate::{rmat, web, RmatConfig, WebConfig};
use eta_graph::{analysis, io};
use serde_json::json;
use std::fmt::Write as _;

pub(crate) fn generate(args: &Args) -> Result<Output, ArgError> {
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
            if vertices < 4 {
                return Err(ArgError("--vertices must be at least 4".into()));
            }
            if island >= vertices / 4 {
                return Err(ArgError(format!(
                    "--island {island} must be below a quarter of --vertices {vertices}"
                )));
            }
            if !(0.0..=1.0).contains(&lcc) {
                return Err(ArgError("--lcc takes a fraction in [0, 1]".into()));
            }
            // Each community holds at least 4 vertices; more than fit
            // would grow the graph past --vertices.
            if communities == 0 || island + 4 * communities > vertices {
                return Err(ArgError(format!(
                    "--communities {communities} must be at least 1 and fit 4 vertices each \
                     beside --island {island} in --vertices {vertices}"
                )));
            }
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

pub(crate) fn info(args: &Args) -> Result<Output, ArgError> {
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

/// Runs the workspace static invariant checker (`crates/lint`): eight
/// token-pattern rules over every library source, minus the committed
/// `lint.allow` baseline. Any non-baselined finding — or any stale baseline
/// entry — fails the command, which is exactly what the ci.sh gate needs.
pub(crate) fn lint(args: &Args) -> Result<Output, ArgError> {
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

pub(crate) fn datasets(_args: &Args) -> Result<Output, ArgError> {
    let mut text = String::from("scaled evaluation datasets (built in-memory by eta-bench):\n");
    for name in eta_graph::datasets::ALL {
        let _ = writeln!(text, "  {name}");
    }
    let _ = writeln!(
        text,
        "regenerate the paper's tables: cargo run --release -p eta-bench --bin report -- all"
    );
    let json = json!(eta_graph::datasets::ALL);
    Ok(Output { json, text })
}
