//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p eta-bench --bin report -- all            # everything
//! cargo run --release -p eta-bench --bin report -- table3 fig7   # a subset
//! cargo run --release -p eta-bench --bin report -- all --quick   # small datasets
//! cargo run --release -p eta-bench --bin report -- all --out reports/
//! cargo run --release -p eta-bench --bin report -- all --check reports/
//! ```
//!
//! Each artifact is printed and, with `--out DIR`, also written as
//! `DIR/<name>.txt` and `DIR/<name>.json`. With `--check DIR` nothing is
//! written: each regenerated artifact is compared byte for byte against the
//! files committed in `DIR`, one `same`/`DIFF` line per artifact, and the
//! exit status is nonzero on any difference.

use eta_bench::hosttime::Stopwatch;
use eta_bench::tables::Artifact;
use eta_bench::{figs, tables, Suite};
use std::path::PathBuf;

const KNOWN: [&str; 20] = [
    "table1", "table2", "table3", "table4", "table5", "fig2", "fig4", "fig5", "fig6", "fig7",
    "extras", "sanitize", "serve", "shard", "transfer", "profile", "faults", "chaos", "lint",
    "overload",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut check_dir: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out_dir = Some(PathBuf::from(
                    it.next().expect("--out needs a directory argument"),
                ))
            }
            "--check" => {
                check_dir = Some(PathBuf::from(
                    it.next().expect("--check needs a directory argument"),
                ))
            }
            "all" => wanted.extend(KNOWN.iter().map(|s| s.to_string())),
            other if KNOWN.contains(&other) => wanted.push(other.to_string()),
            other => {
                eprintln!(
                    "unknown artifact {other:?}; known: {KNOWN:?}, 'all', --quick, --out DIR, --check DIR"
                );
                std::process::exit(2);
            }
        }
    }
    if wanted.is_empty() {
        eprintln!("usage: report <artifact...|all> [--quick] [--out DIR | --check DIR]");
        eprintln!("artifacts: {KNOWN:?}");
        std::process::exit(2);
    }
    wanted.dedup();
    let suite = if quick { Suite::Quick } else { Suite::Full };

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }

    let mut differing = 0;
    for name in wanted {
        let sw = Stopwatch::started();
        let artifact = generate(&name, suite);
        if let Some(dir) = &check_dir {
            let same = render(&artifact).into_iter().all(|(ext, bytes)| {
                std::fs::read(artifact_path(dir, &artifact, ext)).ok() == Some(bytes)
            });
            let verdict = if same { "same" } else { "DIFF" };
            println!("{verdict} {} [{:.1}s]", artifact.name, sw.elapsed_secs());
            differing += usize::from(!same);
            continue;
        }
        println!("\n=== {} ===", artifact.title);
        println!("{}", artifact.text);
        println!("[generated in {:.1}s]", sw.elapsed_secs());
        if let Some(dir) = &out_dir {
            write_artifact(dir, &artifact);
        }
    }
    if differing > 0 {
        eprintln!("report --check: {differing} artifact(s) differ from the committed bytes");
        std::process::exit(1);
    }
}

fn generate(name: &str, suite: Suite) -> Artifact {
    match name {
        "table1" => tables::table1(),
        "table2" => tables::table2(suite),
        "table3" => tables::table3(suite),
        "table4" => tables::table4(suite),
        "table5" => tables::table5(suite),
        "fig2" => figs::fig2(),
        "fig4" => figs::fig4(suite),
        "fig5" => figs::fig5(suite),
        "fig6" => figs::fig6(suite),
        "fig7" => figs::fig7(),
        "extras" => eta_bench::extras::extras(if suite == Suite::Quick {
            "slashdot"
        } else {
            "livejournal"
        }),
        "sanitize" => eta_bench::sanitize::sanitize(if suite == Suite::Quick {
            "slashdot"
        } else {
            "livejournal"
        }),
        "serve" => eta_bench::serve_report::serve(suite),
        "shard" => eta_bench::shard::shard(suite),
        "transfer" => eta_bench::transfer::transfer(suite),
        "profile" => eta_bench::profile_report::profile(suite),
        "faults" => eta_bench::faults_report::faults(suite),
        "chaos" => eta_bench::chaos::chaos(suite),
        "overload" => eta_bench::overload::overload(suite),
        "lint" => eta_bench::lint_report::lint(),
        _ => unreachable!("validated in main"),
    }
}

fn artifact_path(dir: &std::path::Path, a: &Artifact, ext: &str) -> PathBuf {
    dir.join(format!("{}.{ext}", a.name))
}

/// The two files an artifact is committed as: `(extension, bytes)`.
fn render(a: &Artifact) -> [(&'static str, Vec<u8>); 2] {
    let json = serde_json::to_string_pretty(&a.json).expect("serialize artifact");
    [
        ("txt", format!("{}\n\n{}\n", a.title, a.text).into_bytes()),
        ("json", json.into_bytes()),
    ]
}

fn write_artifact(dir: &std::path::Path, a: &Artifact) {
    for (ext, bytes) in render(a) {
        std::fs::write(artifact_path(dir, a, ext), bytes).expect("write artifact");
    }
    let (txt, json) = (artifact_path(dir, a, "txt"), artifact_path(dir, a, "json"));
    eprintln!("wrote {} and {}", txt.display(), json.display());
}
