//! Generators for Tables I–V of the paper.

use crate::suite::{self, dataset, frameworks, run_cell, weighted, CellOutcome, Suite};
use crate::text;
use eta_graph::{analysis, EdgeList, GShards, Vst};
use eta_sim::GpuConfig;
use etagraph::{Algorithm, EtaConfig};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// A regenerated table or figure: human text plus machine-readable JSON.
pub struct Artifact {
    pub name: &'static str,
    pub title: String,
    pub text: String,
    pub json: Value,
}

impl Artifact {
    /// The two files an artifact is committed as under `dir`, with their
    /// bytes: `<name>.txt` and `<name>.json`. The one rendering every writer
    /// (the `report` binary, the CLI's drills) and `report --check` share.
    pub fn files(&self, dir: &Path) -> [(PathBuf, Vec<u8>); 2] {
        let json = serde_json::to_string_pretty(&self.json).unwrap_or_default();
        let txt = format!("{}\n\n{}\n", self.title, self.text);
        [("txt", txt), ("json", json)]
            .map(|(ext, body)| (dir.join(format!("{}.{ext}", self.name)), body.into_bytes()))
    }

    /// Writes both files (creating `dir`) and returns their paths.
    pub fn write(&self, dir: &Path) -> std::io::Result<[PathBuf; 2]> {
        std::fs::create_dir_all(dir)?;
        let files = self.files(dir);
        for (path, bytes) in &files {
            std::fs::write(path, bytes)?;
        }
        Ok(files.map(|(path, _)| path))
    }

    /// Whether `dir` holds exactly the bytes [`Artifact::write`] would.
    pub fn matches(&self, dir: &Path) -> bool {
        let same = |(path, bytes): (PathBuf, Vec<u8>)| std::fs::read(path).ok() == Some(bytes);
        self.files(dir).into_iter().all(same)
    }
}

/// Table I: theoretical space overhead and normalized transfer volume of
/// the candidate topology representations on the LiveJournal analog.
pub fn table1() -> Artifact {
    let d = dataset("livejournal");
    let g = &d.csr;
    let (e, v) = (g.m() as u64, g.n() as u64);

    let csr_bytes = g.topology_bytes();
    let gshard_bytes = GShards::from_csr(g, GShards::DEFAULT_WINDOW).topology_bytes();
    let edgelist_bytes = EdgeList::from_csr(g).topology_bytes();
    // The paper computes |N| with K = 10.
    let vst = Vst::from_csr(g, 10);
    let vst_bytes = vst.topology_bytes();
    let n_shadow = etagraph::udc::shadow_count_graph(g, 10);
    assert_eq!(
        n_shadow as usize,
        vst.n_virtual(),
        "UDC and VST agree on |N|"
    );

    let norm = |b: u64| b as f64 / csr_bytes as f64;
    let rows = [
        (
            "G-Shard",
            "2|E|".to_string(),
            gshard_bytes,
            norm(gshard_bytes),
        ),
        (
            "Edge List",
            "2|E|".to_string(),
            edgelist_bytes,
            norm(edgelist_bytes),
        ),
        (
            "VST",
            "|E| + 2|N| + 2|V|".to_string(),
            vst_bytes,
            norm(vst_bytes),
        ),
        ("CSR", "|E| + |V|".to_string(), csr_bytes, norm(csr_bytes)),
    ];
    let text_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, theory, bytes, norm)| {
            vec![
                name.to_string(),
                theory.clone(),
                text::human_bytes(*bytes),
                format!("{norm:.2}"),
            ]
        })
        .collect();
    let mut body = text::table(
        &["structure", "theory", "measured", "normalized vs CSR"],
        &text_rows,
    );
    body.push_str(&format!(
        "\nlivejournal analog: |V|={v}, |E|={e}, |N| (K=10) = {n_shadow}\n"
    ));
    Artifact {
        name: "table1",
        title: "Table I: topology space overhead, normalized to CSR (livejournal)".into(),
        text: body,
        json: json!({
            "V": v, "E": e, "N_k10": n_shadow,
            "rows": rows.iter().map(|(n, t, b, f)| json!({
                "structure": n, "theory": t, "bytes": b, "normalized": f
            })).collect::<Vec<_>>(),
        }),
    }
}

/// Table II: dataset inventory with %LCC.
pub fn table2(suite: Suite) -> Artifact {
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for name in suite::datasets_for(suite) {
        let d = dataset(name);
        let g = &d.csr;
        let comp = analysis::components(g);
        let size_bytes = g.topology_bytes();
        rows.push(vec![
            name.to_string(),
            d.analog_of.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            format!("{:.1}", g.avg_degree()),
            format!("{}", g.max_degree()),
            text::human_bytes(size_bytes),
            format!("{:.1}", comp.lcc_fraction * 100.0),
        ]);
        jrows.push(json!({
            "name": name, "analog_of": d.analog_of,
            "vertices": g.n(), "edges": g.m(),
            "avg_degree": g.avg_degree(), "max_degree": g.max_degree(),
            "size_bytes": size_bytes, "lcc_percent": comp.lcc_fraction * 100.0,
            "source": d.source,
        }));
    }
    Artifact {
        name: "table2",
        title: "Table II: scaled datasets".into(),
        text: text::table(
            &[
                "dataset",
                "analog of",
                "#vertices",
                "#edges",
                "avg.deg",
                "max.deg",
                "size",
                "%LCC",
            ],
            &rows,
        ),
        json: Value::Array(jrows),
    }
}

/// Table III: kernel/total runtimes of all frameworks × algorithms ×
/// datasets, with O.O.M cells.
pub fn table3(suite: Suite) -> Artifact {
    let names = suite::datasets_for(suite);
    let fws = frameworks();
    let mut rows = Vec::new();
    let mut jcells = Vec::new();
    for alg in Algorithm::ALL {
        for fw in &fws {
            let mut row = vec![alg.name().to_string(), fw.name().to_string()];
            for &ds in &names {
                let cell = run_cell(fw.as_ref(), ds, alg);
                row.push(cell.format());
                jcells.push(json!({
                    "algorithm": alg.name(),
                    "framework": fw.name(),
                    "dataset": ds,
                    "kernel_ms": cell.result().map(|r| r.kernel_ms()),
                    "total_ms": cell.total_ms(),
                    "iterations": cell.result().map(|r| r.iterations),
                    "outcome": match cell { CellOutcome::Ok(_) => "ok",
                                            CellOutcome::Oom => "oom",
                                            CellOutcome::Unsupported => "unsupported",
                                            CellOutcome::Fault => "fault" },
                }));
            }
            rows.push(row);
        }
    }
    let mut headers: Vec<&str> = vec!["alg", "framework"];
    headers.extend(names.iter());
    Artifact {
        name: "table3",
        title: "Table III: runtime comparison (kernel ms / total ms)".into(),
        text: text::table(&headers, &rows),
        json: Value::Array(jcells),
    }
}

/// Table IV: EtaGraph activation percentage and iteration count per dataset
/// (BFS from each dataset's source).
pub fn table4(suite: Suite) -> Artifact {
    let names = suite::datasets_for(suite);
    let fw = eta_baselines::EtaFramework::paper();
    let mut act_row = vec!["Act. %".to_string()];
    let mut itr_row = vec!["Itr. #".to_string()];
    let mut jrows = Vec::new();
    for &ds in &names {
        let d = dataset(ds);
        let r = eta_baselines::run_fresh(
            &fw,
            GpuConfig::default_preset(),
            &d.csr,
            d.source,
            Algorithm::Bfs,
        )
        .expect("EtaGraph never OOMs");
        let act = r.activation_percent();
        act_row.push(if act < 0.1 {
            format!("{act:.2E}")
        } else {
            format!("{act:.0}")
        });
        itr_row.push(r.iterations.to_string());
        jrows.push(json!({
            "dataset": ds,
            "activation_percent": act,
            "iterations": r.iterations,
        }));
    }
    let mut headers = vec![""];
    headers.extend(names.iter());
    Artifact {
        name: "table4",
        title: "Table IV: EtaGraph activation and iteration details (BFS)".into(),
        text: text::table(&headers, &[act_row, itr_row]),
        json: Value::Array(jrows),
    }
}

/// Table V: migrated page/batch sizes with and without UM prefetch,
/// for SSSP on the four datasets the paper samples.
pub fn table5(suite: Suite) -> Artifact {
    let names: Vec<&'static str> = match suite {
        Suite::Quick => vec!["livejournal", "orkut"],
        Suite::Full => vec!["livejournal", "orkut", "rmat22", "uk2005"],
    };
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for prefetch in [false, true] {
        for &ds in &names {
            let g = weighted(ds);
            let d = dataset(ds);
            let cfg = if prefetch {
                EtaConfig::paper()
            } else {
                EtaConfig::without_ump()
            };
            let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
            let r = etagraph::engine::run(&mut dev, &g, d.source, Algorithm::Sssp, &cfg)
                .expect("UM runs never OOM");
            let sizes = r.um_stats.all_sizes();
            let digest = crate::stats::Summary::of(&sizes);
            let (avg, min, max, p50, p95) = match &digest {
                Some(s) => (s.mean, s.min, s.max, s.p50, s.p95),
                None => (0.0, 0, 0, 0, 0),
            };
            let label = format!("{}{}", ds, if prefetch { "" } else { " w/o UMP" });
            rows.push(vec![
                label.clone(),
                format!("{:.1}", avg / 1024.0),
                format!("{:.0}", min as f64 / 1024.0),
                format!("{:.0}", p50 as f64 / 1024.0),
                format!("{:.0}", p95 as f64 / 1024.0),
                format!("{:.0}", max as f64 / 1024.0),
                sizes.len().to_string(),
            ]);
            jrows.push(json!({
                "dataset": ds, "prefetch": prefetch,
                "avg_kb": avg / 1024.0, "min_kb": min as f64 / 1024.0,
                "p50_kb": p50 as f64 / 1024.0, "p95_kb": p95 as f64 / 1024.0,
                "max_kb": max as f64 / 1024.0, "migrations": sizes.len(),
                "faults": r.um_stats.faults,
            }));
        }
    }
    Artifact {
        name: "table5",
        title: "Table V: size of migrated pages (SSSP)".into(),
        text: text::table(
            &[
                "configuration",
                "avg size (KB)",
                "min (KB)",
                "p50 (KB)",
                "p95 (KB)",
                "max (KB)",
                "#batches",
            ],
            &rows,
        ),
        json: Value::Array(jrows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_normalizations_match_paper_ordering() {
        let a = table1();
        let rows = a.json["rows"].as_array().unwrap();
        let get = |name: &str| {
            rows.iter().find(|r| r["structure"] == name).unwrap()["normalized"]
                .as_f64()
                .unwrap()
        };
        assert_eq!(get("CSR"), 1.0);
        // Paper: G-Shard/EdgeList 1.87, VST 1.32 on LiveJournal.
        assert!(
            (get("Edge List") - 1.87).abs() < 0.15,
            "{}",
            get("Edge List")
        );
        assert!((get("G-Shard") - 1.9).abs() < 0.2);
        assert!((get("VST") - 1.32).abs() < 0.2, "{}", get("VST"));
    }

    #[test]
    fn table2_quick_has_three_rows() {
        let a = table2(Suite::Quick);
        assert_eq!(a.json.as_array().unwrap().len(), 3);
        assert!(a.text.contains("slashdot"));
    }

    #[test]
    fn table4_quick_reports_activation() {
        let a = table4(Suite::Quick);
        let rows = a.json.as_array().unwrap();
        assert_eq!(rows.len(), 3);
        for r in rows {
            let act = r["activation_percent"].as_f64().unwrap();
            assert!(act > 50.0, "social analogs are mostly reachable: {act}");
            assert!(r["iterations"].as_u64().unwrap() >= 4);
        }
    }
}
