//! One launch path, checked. `etagraph::driver` is meant to be the only
//! product code that launches a kernel on a `Device`, polls its fault
//! watchdog, sums `KernelMetrics` or assembles a solo `RunResult`. Nothing
//! in the type system can say "this call appears in one file", so this test
//! reads the non-test source text of every crate above the simulator.

use std::fs;
use std::path::{Path, PathBuf};

const CRATES: [&str; 5] = ["baselines", "core", "serve", "cli", "bench"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(path relative to crates/, code lines before the first #[cfg(test)])`.
fn sources() -> Vec<(String, Vec<String>)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for name in CRATES {
        rust_files(&crates.join(name).join("src"), &mut files);
    }
    files.sort();
    let code = |path: &PathBuf| {
        let text = fs::read_to_string(path).expect("source is UTF-8");
        let product = text.split("#[cfg(test)]").next().unwrap_or("");
        let lines = product.lines().map(str::to_string);
        lines
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect()
    };
    let relative = |path: &PathBuf| {
        let tail = path.strip_prefix(&crates).expect("found under crates/");
        tail.to_string_lossy().replace('\\', "/")
    };
    files.iter().map(|p| (relative(p), code(p))).collect()
}

/// Whether `line` opens a `RunResult { .. }` struct literal: not the
/// sharded result, the type's declaration, an impl or a signature.
fn builds_run_result(line: &str) -> bool {
    let not_literal = [
        "ShardedRunResult {",
        "struct RunResult {",
        "impl RunResult {",
        "-> RunResult {",
    ];
    line.contains("RunResult {") && !not_literal.iter().any(|other| line.contains(other))
}

#[test]
fn the_driver_is_the_only_launch_path() {
    type Hit = fn(&str) -> bool;
    let needles: [(&str, Hit); 5] = [
        ("a kernel launch on a Device", |l| {
            l.contains("dev.launch(") || l.contains("].launch(")
        }),
        ("a fault poll", |l| l.contains("take_fault(")),
        ("a KernelMetrics sum", |l| l.contains("metrics.merge(")),
        ("a kernel-time sum", |l| l.contains("kernel_ns +=")),
        ("a RunResult literal", builds_run_result),
    ];
    let src = sources();
    assert!(src.len() > 40, "scanned only {} files", src.len());
    for (what, hit) in needles {
        let sites: Vec<String> = src
            .iter()
            .flat_map(|(file, code)| code.iter().filter(|l| hit(l)).map(move |_| file.clone()))
            .collect();
        assert_eq!(sites, ["core/src/driver.rs"], "files holding {what}");
    }
}

/// One relax rule: `Algorithm::relax` is the only place an execution model
/// spells out the relaxed label. The needle is SSSP's label-plus-weight sum
/// (a weight operand, so the token bucket's `saturating_add(add)` in
/// eta-serve is no hit); before the rule moved onto `Algorithm`, EtaGraph's
/// kernel and all four baselines each held a copy.
#[test]
fn the_relax_rule_is_written_once() {
    let sites: Vec<String> = sources()
        .into_iter()
        .filter(|(_, code)| code.iter().any(|l| l.contains("saturating_add(w")))
        .map(|(file, _)| file)
        .collect();
    assert_eq!(
        sites,
        ["core/src/config.rs"],
        "files holding the relax rule"
    );
}
