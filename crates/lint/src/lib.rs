//! `eta-lint` — the workspace-wide static invariant checker.
//!
//! Every CI gate in this repository — byte-identical chaos reruns,
//! deterministic prof/serve/faults artifacts, panic-free library crates —
//! rests on invariants that were previously enforced only by convention
//! and by *dynamic* checks in the sanitizer (which only sees executed
//! paths). This crate checks them statically, on every line of every
//! kernel and library crate, executed or not.
//!
//! The pipeline: a comment/string/raw-string-aware [`lexer`], structural
//! [`regions`] (test items, function bodies, `WarpCtx` kernel scopes), a
//! token-pattern rule engine ([`rules`], eight rules — seven per file and
//! the workspace-wide `L-ORPHAN`; see [`rules::RULES`]), the committed
//! suppression [`baseline`] (`lint.allow`), and deterministic text/JSON
//! [`report`] sinks.
//!
//! Run it as `etagraph lint`, or regenerate the committed artifact with
//! `cargo run --release -p eta-bench --bin report -- lint --out reports`.
//! Suppress a single accepted site inline with a justified comment:
//!
//! ```text
//! let g = guard.lock().unwrap(); // lint: allow(L-PANIC): poisoning aborts anyway
//! ```

pub mod baseline;
pub mod lexer;
pub mod regions;
pub mod report;
pub mod rules;

pub use baseline::BaselineEntry;
pub use report::LintReport;
pub use rules::{FileClass, Finding, RuleMeta, RULES};

use std::path::{Path, PathBuf};

/// A lint *run* failure (I/O, malformed baseline) — distinct from findings,
/// which are data.
#[derive(Debug)]
pub struct LintError(pub String);

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LintError {}

/// One source file, lexed once.
struct Source {
    /// Workspace-relative, forward slashes.
    path: String,
    text: String,
    lexed: lexer::LexOutput,
    regions: regions::Regions,
}

impl Source {
    fn new(path: String, text: String) -> Source {
        let lexed = lexer::lex(&text);
        let regions = regions::compute(&lexed.toks);
        Source {
            path,
            text,
            lexed,
            regions,
        }
    }

    /// This file's findings under the per-file rules (all but L-ORPHAN).
    fn scan(&self) -> Vec<Finding> {
        let class = FileClass::of(&self.path);
        rules::scan(&self.path, class, &self.lexed.toks, &self.regions)
    }

    /// A justified inline directive on the finding's line (or the line
    /// above it) suppresses it; an unjustified one does not.
    fn allows(&self, f: &Finding) -> bool {
        self.lexed
            .allows
            .iter()
            .any(|a| a.justified && a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line))
    }

    /// The trimmed text of 1-based `line`.
    fn source_line(&self, line: u32) -> String {
        self.text
            .lines()
            .nth(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Lints a single source text as if it lived at `path` (workspace-relative,
/// forward slashes) under the per-file rules. Inline `lint: allow`
/// directives are applied; the baseline is not. Returns findings paired
/// with their trimmed source lines. This is the entry point fixtures and
/// tests use.
pub fn lint_source(path: &str, text: &str) -> Vec<(Finding, String)> {
    let src = Source::new(path.to_string(), text.to_string());
    src.scan()
        .into_iter()
        .filter(|f| !src.allows(f))
        .map(|f| {
            let line = src.source_line(f.line);
            (f, line)
        })
        .collect()
}

/// Lints `files` (workspace-relative path, text) as one workspace: every
/// scannable file under the per-file rules, and L-ORPHAN across all of
/// them; a file that is not scannable (tests, examples, the benchmark)
/// only counts as a place that names functions. Inline directives are
/// applied, the baseline is not. Returns the findings left, each with its
/// trimmed source line, and how many inline directives suppressed.
pub fn lint_files(files: Vec<(String, String)>) -> (Vec<(Finding, String)>, usize) {
    let sources: Vec<Source> = files
        .into_iter()
        .map(|(path, text)| Source::new(path, text))
        .collect();
    let by_path: std::collections::BTreeMap<&str, &Source> =
        sources.iter().map(|s| (s.path.as_str(), s)).collect();
    let mut raw: Vec<Finding> = sources
        .iter()
        .filter(|s| scannable(&s.path))
        .flat_map(Source::scan)
        .collect();
    let all: Vec<_> = sources
        .iter()
        .map(|s| (s.path.as_str(), s.lexed.toks.as_slice(), &s.regions))
        .collect();
    raw.extend(rules::scan_orphans(&all));
    let mut kept = Vec::new();
    let mut allowed = 0;
    for f in raw {
        let Some(src) = by_path.get(f.path.as_str()) else {
            continue;
        };
        if src.allows(&f) {
            allowed += 1;
        } else {
            let line = src.source_line(f.line);
            kept.push((f, line));
        }
    }
    (kept, allowed)
}

/// True for paths the workspace scan covers: Rust sources of the member
/// crates plus the root package's `src/`. Test/bench/example/fixture code
/// is exempt by design — the invariants protect shipped library code.
fn scannable(rel: &str) -> bool {
    if !rel.ends_with(".rs") {
        return false;
    }
    let exempt = ["/tests/", "/benches/", "/examples/", "/fixtures/"];
    if exempt.iter().any(|e| rel.contains(e)) {
        return false;
    }
    rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))
}

/// Recursively collects every Rust source under `root`'s `crates`, `src`,
/// `tests`, `examples` and `benchmark/src`, sorted by relative path so the
/// report is deterministic. The scannable ones are linted; the rest only
/// count as places that name functions (L-ORPHAN).
fn collect_files(root: &Path) -> Result<Vec<(String, PathBuf)>, LintError> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = ["crates", "src", "tests", "examples", "benchmark/src"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) if !dir.exists() => continue,
            Err(e) => return Err(LintError(format!("reading {}: {e}", dir.display()))),
        };
        for entry in entries {
            let entry = entry.map_err(|e| LintError(format!("reading {}: {e}", dir.display())))?;
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if let Ok(rel) = p.strip_prefix(root) {
                let rel = rel.to_string_lossy().replace('\\', "/");
                if rel.ends_with(".rs") {
                    out.push((rel, p));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the whole workspace rooted at `root`, applying `lint.allow` when
/// present. The returned report is sorted and deterministic.
pub fn lint_workspace(root: &Path) -> Result<LintReport, LintError> {
    let baseline_path = root.join("lint.allow");
    let entries = if baseline_path.exists() {
        let content = std::fs::read_to_string(&baseline_path)
            .map_err(|e| LintError(format!("reading lint.allow: {e}")))?;
        baseline::parse(&content)
            .map_err(|e| LintError(format!("lint.allow line {}: {}", e.line, e.message)))?
    } else {
        Vec::new()
    };

    let mut files = Vec::new();
    for (rel, abs) in collect_files(root)? {
        let text =
            std::fs::read_to_string(&abs).map_err(|e| LintError(format!("reading {rel}: {e}")))?;
        files.push((rel, text));
    }
    let files_scanned = files.iter().filter(|(rel, _)| scannable(rel)).count();
    if files_scanned == 0 {
        // A gate that scanned nothing would pass vacuously — treat it as a
        // misconfigured root instead.
        return Err(LintError(format!(
            "no Rust sources found under {} — wrong root?",
            root.display()
        )));
    }
    let (all, inline_allowed) = lint_files(files);
    // Baseline application keys on the finding's trimmed source line.
    let sources: std::collections::BTreeMap<(String, u32, String), String> = all
        .iter()
        .map(|(f, s)| ((f.path.clone(), f.line, f.rule.to_string()), s.clone()))
        .collect();
    let findings: Vec<Finding> = all.into_iter().map(|(f, _)| f).collect();
    let applied = baseline::apply(findings, &entries, |f| {
        sources
            .get(&(f.path.clone(), f.line, f.rule.to_string()))
            .cloned()
            .unwrap_or_default()
    });

    let source_lines: Vec<String> = applied
        .new
        .iter()
        .map(|f| {
            sources
                .get(&(f.path.clone(), f.line, f.rule.to_string()))
                .cloned()
                .unwrap_or_default()
        })
        .collect();
    let mut report = LintReport {
        files_scanned,
        findings: applied.new,
        baselined: applied.suppressed,
        inline_allowed,
        unjustified_allows: 0,
        stale_baseline: applied.stale,
        source_lines,
    };
    report.sort();
    Ok(report)
}

/// Ascends from `start` to the workspace root (the directory holding the
/// `crates/` tree). Lets `etagraph lint` work from any subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scannable_paths() {
        assert!(scannable("crates/core/src/kernels.rs"));
        assert!(scannable("crates/bench/src/bin/report.rs"));
        assert!(scannable("src/lib.rs"));
        assert!(!scannable("crates/lint/tests/fixtures/bad.rs"));
        assert!(!scannable("tests/serve.rs"));
        assert!(!scannable("crates/bench/benches/x.rs"));
        assert!(!scannable("crates/core/src/kernels.txt"));
        assert!(!scannable("vendor/serde/src/lib.rs"));
    }

    #[test]
    fn inline_allow_suppresses_only_with_justification() {
        let bad = "fn f(o: Option<u32>) -> u32 { o.unwrap() }";
        assert_eq!(lint_source("crates/graph/src/io.rs", bad).len(), 1);
        let justified =
            "fn f(o: Option<u32>) -> u32 {\n    // lint: allow(L-PANIC): checked two lines up\n    o.unwrap()\n}";
        assert!(lint_source("crates/graph/src/io.rs", justified).is_empty());
        let trailing =
            "fn f(o: Option<u32>) -> u32 { o.unwrap() } // lint: allow(L-PANIC): bounded by caller";
        assert!(lint_source("crates/graph/src/io.rs", trailing).is_empty());
        let bare = "fn f(o: Option<u32>) -> u32 {\n    // lint: allow(L-PANIC)\n    o.unwrap()\n}";
        assert_eq!(
            lint_source("crates/graph/src/io.rs", bare).len(),
            1,
            "unjustified directives do not suppress"
        );
        let wrong_rule = "fn f(o: Option<u32>) -> u32 {\n    // lint: allow(L-DET-HASH): nope\n    o.unwrap()\n}";
        assert_eq!(lint_source("crates/graph/src/io.rs", wrong_rule).len(), 1);
    }

    #[test]
    fn findings_carry_their_source_line() {
        let bad = "fn f(v: &[u32]) -> u32 {\n    v.len() as u32\n}";
        let hits = lint_source("crates/graph/src/csr.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, "v.len() as u32");
        assert_eq!(hits[0].0.line, 2);
    }
}
