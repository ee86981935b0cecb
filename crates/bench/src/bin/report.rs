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
//! exit status is nonzero on any difference. The two flags are exclusive.

use eta_bench::hosttime::Stopwatch;
use eta_bench::tables::Artifact;
use eta_bench::{figs, tables, Suite};
use std::path::PathBuf;

type Generator = fn(Suite) -> Artifact;

/// Every artifact by name, in `all` order.
const ARTIFACTS: [(&str, Generator); 20] = [
    ("table1", |_| tables::table1()),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("fig2", |_| figs::fig2()),
    ("fig4", figs::fig4),
    ("fig5", figs::fig5),
    ("fig6", figs::fig6),
    ("fig7", |_| figs::fig7()),
    ("extras", |suite| {
        eta_bench::extras::extras(sweep_dataset(suite))
    }),
    ("sanitize", |suite| {
        eta_bench::sanitize::sanitize(sweep_dataset(suite))
    }),
    ("serve", eta_bench::serve_report::serve),
    ("shard", eta_bench::shard::shard),
    ("transfer", eta_bench::transfer::transfer),
    ("profile", eta_bench::profile_report::profile),
    ("faults", eta_bench::faults_report::faults),
    ("chaos", eta_bench::chaos::chaos),
    ("lint", |_| eta_bench::lint_report::lint()),
    ("overload", eta_bench::overload::overload),
];

/// The one dataset the single-graph sweeps (`extras`, `sanitize`) run on.
fn sweep_dataset(suite: Suite) -> &'static str {
    if suite == Suite::Quick {
        "slashdot"
    } else {
        "livejournal"
    }
}

/// A usage or output error: the message on stderr, exit status 2.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// The directory argument that must follow `flag`.
fn dir_after(flag: &str, next: Option<String>) -> PathBuf {
    next.map(PathBuf::from)
        .unwrap_or_else(|| fail(&format!("{flag} needs a directory argument")))
}

fn main() {
    let known: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    // `--out DIR` or `--check DIR`, as (is `--check`, DIR); never both.
    let mut dir: Option<(bool, PathBuf)> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" | "--check" if dir.is_some() => fail("--out and --check are exclusive"),
            "--out" | "--check" => dir = Some((a == "--check", dir_after(&a, it.next()))),
            "all" => wanted.extend(known.iter().map(|s| s.to_string())),
            other if known.contains(&other) => wanted.push(other.to_string()),
            other => fail(&format!(
                "unknown artifact {other:?}; known: {known:?}, 'all', --quick, --out DIR, --check DIR"
            )),
        }
    }
    if wanted.is_empty() {
        eprintln!("usage: report <artifact...|all> [--quick] [--out DIR | --check DIR]");
        eprintln!("artifacts: {known:?}");
        std::process::exit(2);
    }
    // Each artifact runs once, at its first mention: `all table1` is 20.
    let mut seen = std::collections::BTreeSet::new();
    wanted.retain(|name| seen.insert(name.clone()));
    let suite = if quick { Suite::Quick } else { Suite::Full };

    let mut differing = 0;
    for name in wanted {
        let sw = Stopwatch::started();
        let generate = ARTIFACTS.iter().find(|(known, _)| *known == name);
        let artifact = generate.expect("validated while parsing").1(suite);
        if let Some((true, dir)) = &dir {
            let same = artifact.matches(dir);
            let verdict = if same { "same" } else { "DIFF" };
            println!("{verdict} {} [{:.1}s]", artifact.name, sw.elapsed_secs());
            differing += usize::from(!same);
            continue;
        }
        println!("\n=== {} ===", artifact.title);
        println!("{}", artifact.text);
        println!("[generated in {:.1}s]", sw.elapsed_secs());
        if let Some((false, dir)) = &dir {
            let [txt, json] = artifact.write(dir).unwrap_or_else(|e| {
                fail(&format!(
                    "writing {} to {}: {e}",
                    artifact.name,
                    dir.display()
                ))
            });
            eprintln!("wrote {} and {}", txt.display(), json.display());
        }
    }
    if differing > 0 {
        eprintln!("report --check: {differing} artifact(s) differ from the committed bytes");
        std::process::exit(1);
    }
}
