//! The `transfer` artifact: the transfer backends raced head-to-head.
//!
//! For each Table V graph plus a deliberately *sparse* web analog (an
//! island-sourced traversal that touches a sliver of the topology), BFS and
//! SSSP run under all four host→device routings: demand paging, upfront
//! prefetch, zero-copy (direct host reads, no migration), and the adaptive
//! per-page-group policy (`eta_mem::adaptive`). The report shows simulated
//! time per mode plus a label byte-identity count — routing must change
//! *when bytes move*, never *what the traversal computes*.
//!
//! The load-bearing result is the crossover the adaptive policy exists to
//! exploit: dense traversals (the Table V graphs, which eventually touch
//! most of the CSR) are fastest under prefetch, while the sparse analog is
//! fastest under zero-copy or demand (32 B sectors beat 4 KiB page
//! migrations plus fault service when most of each page would go unused).
//! The adaptive policy, which starts every group on demand paging and
//! re-decides per iteration from observed density plus the engine's
//! announced frontier volume, must land within 2% of the best static
//! mode on every cell (on most cells it lands within 0.1%, and often
//! *under* the best static mode: escalation skips static prefetch's
//! pre-traversal stall; the 2% headroom exists for uk2005, where demand
//! narrowly beats prefetch because prefetch ships never-touched pages,
//! and adaptive, having correctly escalated, inherits that gap) and
//! strictly under **every** static mode on the sweep's total simulated
//! time — that is what "hybrid transfer management" buys: no
//! per-workload mode flag, none of any static mode's worst case on the
//! cells raced here.
//!
//! An appended *oversubscribed* section races livejournal BFS and SSSP
//! again on a device that holds only the working set and half the
//! topology. There the static prefetch and demand modes thrash, and the
//! adaptive policy, pricing each escalation against the device's free
//! bytes, streams only the regions that fit and reads the rest over the
//! link: it must land strictly under every static mode on both cells.

use crate::suite::{self, Suite};
use crate::tables::Artifact;
use crate::text;
use eta_graph::generate::{web, WebConfig};
use eta_graph::Csr;
use eta_mem::AdaptiveTotals;
use eta_sim::{Device, GpuConfig};
use etagraph::{engine, Algorithm, EtaConfig, TransferMode};
use serde_json::{json, Value};

/// The raced modes, in column order. `explicit` is excluded: Table III
/// already covers it, and it OOMs by design on the larger graphs.
pub const MODES: [TransferMode; 4] = [
    TransferMode::Unified,
    TransferMode::UnifiedPrefetch,
    TransferMode::ZeroCopy,
    TransferMode::Adaptive,
];

/// The sparse web analog: an island source in a low-connectivity web graph,
/// so the traversal reaches only the island community and the topology is
/// touched at a few sectors per page — zero-copy territory.
fn sparse_web() -> (Csr, u32) {
    web(&WebConfig {
        vertices: 60_000,
        edges: 1_200_000,
        communities: 24,
        lcc_fraction: 0.7,
        source_island: Some(60),
        seed: 0x2066,
    })
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// One (graph, algorithm) row: simulated ns per mode, in [`MODES`] order,
/// plus label mismatches of each mode against the demand-paging run.
struct Row {
    dataset: &'static str,
    algorithm: &'static str,
    ns: Vec<u64>,
    mismatches: u64,
    /// Adaptive run's final decision mix.
    groups: AdaptiveTotals,
    /// Adaptive run's bytes moved onto the device (demand-migrated plus
    /// prefetched) and read over the link.
    adaptive_moved: u64,
    adaptive_zero_copy: u64,
}

fn race(name: &'static str, g: &Csr, source: u32, alg: Algorithm, gpu: GpuConfig) -> Row {
    let mut ns = Vec::new();
    let mut mismatches = 0u64;
    let mut baseline: Option<Vec<u32>> = None;
    let mut groups = AdaptiveTotals::default();
    let (mut adaptive_moved, mut adaptive_zero_copy) = (0, 0);
    for mode in MODES {
        let cfg = EtaConfig {
            transfer: mode,
            ..EtaConfig::paper()
        };
        let mut dev = Device::new(gpu);
        // lint: allow(L-PANIC): every raced mode is host-backed (no OOM); an error is a bench bug
        let r = engine::run(&mut dev, g, source, alg, &cfg).expect("race run");
        ns.push(r.total_ns);
        if mode == TransferMode::Adaptive {
            groups = dev.mem.adaptive_totals().unwrap_or_default();
            adaptive_moved = r.um_stats.migrated_bytes + r.um_stats.prefetched_bytes;
            adaptive_zero_copy = dev.mem.zero_copy_bytes;
        }
        match &baseline {
            None => baseline = Some(r.labels),
            Some(b) => mismatches += b.iter().zip(&r.labels).filter(|(x, y)| x != y).count() as u64,
        }
    }
    Row {
        dataset: name,
        algorithm: alg.name(),
        ns,
        mismatches,
        groups,
        adaptive_moved,
        adaptive_zero_copy,
    }
}

/// Graphs of the sweep: the Table V list (dense traversals) — the sparse
/// analog is appended by [`transfer`] itself.
pub fn graphs_for(suite: Suite) -> Vec<&'static str> {
    crate::shard::graphs_for(suite)
}

/// Generates the `transfer` artifact.
pub fn transfer(suite: Suite) -> Artifact {
    let names = graphs_for(suite);
    let algs = [Algorithm::Bfs, Algorithm::Sssp];
    let mut rows: Vec<Row> = Vec::new();
    for &name in &names {
        for alg in algs {
            let g = suite::graph_for(name, alg);
            let source = suite::dataset(name).source;
            rows.push(race(name, &g, source, alg, GpuConfig::default_preset()));
        }
    }
    let (sparse, sparse_source) = sparse_web();
    let sparse_weighted = sparse.clone().with_random_weights(0x2066 ^ 0x77, 32);
    for alg in algs {
        let g = if alg.needs_weights() {
            &sparse_weighted
        } else {
            &sparse
        };
        rows.push(race(
            "web-sparse",
            g,
            sparse_source,
            alg,
            GpuConfig::default_preset(),
        ));
    }

    // Verdicts. "Static" excludes adaptive; "best static" is the per-row
    // minimum the adaptive policy has to meet.
    let mut trows = Vec::new();
    let mut jrows = Vec::new();
    let mut total_mismatches = 0u64;
    let mut adaptive_wins = 0usize;
    let mut adaptive_within = 0usize;
    let mut adaptive_tenth = 0usize;
    let mut dense_prefetch_wins = 0usize;
    let mut dense_cells = 0usize;
    let mut sparse_zerocopy_wins = 0usize;
    let mut sparse_cells = 0usize;
    let mut totals = [0u64; 4];
    for row in &rows {
        let (demand, prefetch, zerocopy, adaptive) = (row.ns[0], row.ns[1], row.ns[2], row.ns[3]);
        for (t, &v) in totals.iter_mut().zip(&row.ns) {
            *t += v;
        }
        let best_static = demand.min(prefetch).min(zerocopy);
        let best_name = MODES[..3]
            .iter()
            .zip(&row.ns)
            .min_by_key(|(_, &t)| t)
            .map(|(m, _)| m.as_str())
            // lint: allow(L-PANIC): MODES is a non-empty const; bench code may panic
            .expect("three static modes");
        let sparse = row.dataset == "web-sparse";
        if sparse {
            sparse_cells += 1;
            sparse_zerocopy_wins += usize::from(zerocopy < prefetch);
        } else {
            dense_cells += 1;
            dense_prefetch_wins += usize::from(prefetch < zerocopy);
        }
        adaptive_wins += usize::from(adaptive <= best_static);
        // Within-tolerance: escalation pays demand faults for the one or
        // two pre-wave iterations, so a cell can land a few hundred ns
        // over static prefetch — 0.1% is an order above that residue. The
        // gate itself is 2%: on uk2005, demand narrowly beats prefetch
        // (prefetch ships pages the traversal never touches), so adaptive,
        // having correctly escalated into prefetch, lands ~1.5% over the
        // best static. That is the policy working as designed, not a
        // regression, and the gate must not flag it.
        adaptive_tenth += usize::from(adaptive <= best_static + best_static / 1000);
        adaptive_within += usize::from(adaptive <= best_static + best_static / 50);
        total_mismatches += row.mismatches;
        trows.push(vec![
            row.dataset.to_string(),
            row.algorithm.to_string(),
            ms(demand),
            ms(prefetch),
            ms(zerocopy),
            ms(adaptive),
            best_name.to_string(),
            format!("{:.2}x", best_static as f64 / adaptive.max(1) as f64),
            row.mismatches.to_string(),
        ]);
        jrows.push(json!({
            "dataset": row.dataset,
            "algorithm": row.algorithm,
            "demand_ns": demand,
            "prefetch_ns": prefetch,
            "zerocopy_ns": zerocopy,
            "adaptive_ns": adaptive,
            "best_static": best_name,
            "adaptive_vs_best_static": best_static as f64 / adaptive.max(1) as f64,
            "adaptive_groups": {
                "demand": row.groups.demand,
                "prefetch": row.groups.prefetch,
                "zerocopy": row.groups.zero_copy,
                "escalated_regions": row.groups.escalated,
            },
            "mismatches": row.mismatches,
        }));
    }
    let crossover = dense_prefetch_wins == dense_cells && sparse_zerocopy_wins == sparse_cells;
    let adaptive_within_tolerance = adaptive_within == rows.len();
    // The headline: one policy, strictly less total simulated time than
    // every static mode over the whole sweep.
    let [demand_total, prefetch_total, zerocopy_total, adaptive_total] = totals;
    let best_static_total = demand_total.min(prefetch_total).min(zerocopy_total);
    let adaptive_beats_every_static = adaptive_total < best_static_total;

    let mut body = text::table(
        &[
            "dataset",
            "algorithm",
            "demand (ms)",
            "prefetch (ms)",
            "zerocopy (ms)",
            "adaptive (ms)",
            "best static",
            "adaptive vs best",
            "mismatches",
        ],
        &trows,
    );
    body.push_str(&format!(
        "\ncrossover: prefetch fastest static on {dense_prefetch_wins}/{dense_cells} dense cells, \
         zero-copy fastest static on {sparse_zerocopy_wins}/{sparse_cells} sparse cells\n\
         adaptive at-or-under the best static mode on {adaptive_wins}/{} cells, \
         within 2% on {adaptive_within}/{} (within 0.1% on {adaptive_tenth})\n\
         sweep totals (ms): demand {} / prefetch {} / zerocopy {} / adaptive {} — \
         adaptive {} every static mode\n\
         byte-identity: {total_mismatches} label mismatches across every mode pair \
         (routing changes when bytes move, never the answer)\n",
        rows.len(),
        rows.len(),
        ms(demand_total),
        ms(prefetch_total),
        ms(zerocopy_total),
        ms(adaptive_total),
        if adaptive_beats_every_static {
            "beats"
        } else {
            "does NOT beat"
        },
    ));
    let (oversub_text, oversub_json, adaptive_beats_every_static_oversubscribed) =
        oversubscribed(names[0]);
    body.push_str(&oversub_text);
    Artifact {
        name: "transfer",
        title: "Transfer: demand / prefetch / zero-copy / adaptive, raced (Table V + sparse web)"
            .into(),
        text: body,
        json: json!({
            "graphs": names,
            "modes": MODES.iter().map(|m| m.as_str()).collect::<Vec<_>>(),
            "total_mismatches": total_mismatches,
            "crossover_observed": crossover,
            "adaptive_within_tolerance": adaptive_within_tolerance,
            "adaptive_within_tenth_pct": adaptive_tenth as u64,
            "adaptive_beats_every_static": adaptive_beats_every_static,
            "adaptive_wins": adaptive_wins as u64,
            "cells": rows.len() as u64,
            "totals_ns": {
                "demand": demand_total,
                "prefetch": prefetch_total,
                "zerocopy": zerocopy_total,
                "adaptive": adaptive_total,
            },
            "rows": Value::Array(jrows),
            "oversubscribed": oversub_json,
            "adaptive_beats_every_static_oversubscribed": adaptive_beats_every_static_oversubscribed,
        }),
    }
}

/// The oversubscribed section: BFS and SSSP on `name` under every routing,
/// on a device that holds the engine's explicit working set and half the
/// topology (the `oversub_transfer` benchmark's device size). A region
/// streamed there evicts its own pages before the wave reads them, so the
/// adaptive policy must price the stream and read over the link instead.
/// Returns the section's text, its JSON, and whether adaptive is strictly
/// under every static mode on every cell.
fn oversubscribed(name: &'static str) -> (String, Value, bool) {
    let mut trows = Vec::new();
    let mut jrows = Vec::new();
    let mut beats = 0usize;
    let algs = [Algorithm::Bfs, Algorithm::Sssp];
    for alg in algs {
        let g = suite::graph_for(name, alg);
        let device_bytes =
            engine::footprint_bytes(&g, &EtaConfig::paper()) + g.topology_bytes() / 2;
        let gpu = GpuConfig::gtx1080ti_scaled(device_bytes);
        let row = race(name, &g, suite::dataset(name).source, alg, gpu);
        let adaptive = row.ns[3];
        let best_static = row.ns[..3].iter().copied().min().unwrap_or(0);
        beats += usize::from(adaptive < best_static);
        let mb = |bytes: u64| format!("{:.1}", bytes as f64 / 1e6);
        trows.push(vec![
            row.dataset.to_string(),
            row.algorithm.to_string(),
            mb(device_bytes),
            ms(row.ns[0]),
            ms(row.ns[1]),
            ms(row.ns[2]),
            ms(adaptive),
            format!("{:.2}x", best_static as f64 / adaptive.max(1) as f64),
            mb(row.adaptive_moved),
            mb(row.adaptive_zero_copy),
            format!("{}/{}", row.groups.escalated, row.groups.linked),
            row.mismatches.to_string(),
        ]);
        jrows.push(json!({
            "dataset": row.dataset,
            "algorithm": row.algorithm,
            "device_bytes": device_bytes,
            "topology_bytes": g.topology_bytes(),
            "demand_ns": row.ns[0],
            "prefetch_ns": row.ns[1],
            "zerocopy_ns": row.ns[2],
            "adaptive_ns": adaptive,
            "adaptive_vs_best_static": best_static as f64 / adaptive.max(1) as f64,
            "adaptive_moved_bytes": row.adaptive_moved,
            "adaptive_zero_copy_bytes": row.adaptive_zero_copy,
            "adaptive_groups": {
                "demand": row.groups.demand,
                "prefetch": row.groups.prefetch,
                "zerocopy": row.groups.zero_copy,
                "escalated_regions": row.groups.escalated,
                "linked_regions": row.groups.linked,
            },
            "mismatches": row.mismatches,
        }));
    }
    let all = beats == algs.len();
    let mut text =
        format!("\noversubscribed: {name}, device = explicit working set + topology/2\n");
    text.push_str(&text::table(
        &[
            "dataset",
            "algorithm",
            "device (MB)",
            "demand (ms)",
            "prefetch (ms)",
            "zerocopy (ms)",
            "adaptive (ms)",
            "adaptive vs best",
            "adaptive moved (MB)",
            "adaptive link (MB)",
            "streamed/linked regions",
            "mismatches",
        ],
        &trows,
    ));
    text.push_str(&format!(
        "\noversubscribed: adaptive strictly under every static mode on {beats}/{} cells — \
         adaptive {} every static routing when the topology does not fit\n",
        algs.len(),
        if all { "beats" } else { "does NOT beat" },
    ));
    (text, Value::Array(jrows), all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_artifact_shows_crossover_and_adaptive_wins() {
        let a = transfer(Suite::Quick);
        assert_eq!(a.name, "transfer");
        assert_eq!(
            a.json["total_mismatches"], 0u64,
            "labels must not depend on routing"
        );
        assert_eq!(a.json["crossover_observed"], true, "{}", a.text);
        assert_eq!(a.json["adaptive_within_tolerance"], true, "{}", a.text);
        assert_eq!(a.json["adaptive_beats_every_static"], true, "{}", a.text);
        assert_eq!(
            a.json["adaptive_beats_every_static_oversubscribed"], true,
            "{}",
            a.text
        );
    }
}
