//! The `lint` artifact: a full `eta-lint` run over this workspace, rendered
//! through the same `Artifact` pipeline as the paper's tables so
//! `reports/lint.{txt,json}` regenerate alongside everything else.

use crate::tables::Artifact;
use eta_lint::LintReport;
use serde_json::{json, Value};

/// Converts a lint report into its JSON value: the one JSON writer behind
/// both `reports/lint.json` and `etagraph lint --json`.
pub fn value(r: &LintReport) -> Value {
    let rules: Vec<Value> = eta_lint::RULES
        .iter()
        .map(|m| json!({"id": m.id, "summary": m.summary}))
        .collect();
    let findings: Vec<Value> = r
        .findings
        .iter()
        .zip(&r.source_lines)
        .map(|(f, src)| {
            json!({
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "message": f.message,
                "source": src,
            })
        })
        .collect();
    let stale: Vec<Value> = r
        .stale_baseline
        .iter()
        .map(|e| json!({"rule": e.rule, "path": e.path, "source": e.line_text}))
        .collect();
    json!({
        "version": 1,
        "files_scanned": r.files_scanned,
        "new": r.findings.len(),
        "baselined": r.baselined,
        "inline_allowed": r.inline_allowed,
        "clean": r.is_clean(),
        "rules": rules,
        "findings": findings,
        "stale_baseline": stale,
    })
}

/// Runs the linter over the enclosing workspace and packages the result.
pub fn lint() -> Artifact {
    let root = std::env::current_dir()
        .ok()
        .and_then(|d| eta_lint::find_workspace_root(&d))
        .unwrap_or_else(|| {
            // Fallback for odd CWDs: this crate lives at <root>/crates/bench.
            let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
            manifest
                .parent()
                .and_then(|p| p.parent())
                .unwrap_or(manifest)
                .to_path_buf()
        });
    match eta_lint::lint_workspace(&root) {
        Ok(report) => Artifact {
            name: "lint",
            title: "eta-lint: workspace static invariant check".into(),
            text: report.text(),
            json: value(&report),
        },
        Err(e) => Artifact {
            name: "lint",
            title: "eta-lint: workspace static invariant check".into(),
            text: format!("lint run failed: {e}\n"),
            json: json!({"version": 1, "clean": false, "error": e.to_string()}),
        },
    }
}
