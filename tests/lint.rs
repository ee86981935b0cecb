//! The lint gate, as a test: the workspace at HEAD must be clean under
//! `eta-lint` (zero non-baselined findings, zero stale baseline entries),
//! and the staleness machinery itself must work — a suppression entry that
//! no longer matches any finding is an error, not silence.

use eta_lint::{baseline, lint_workspace, Finding};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean_at_head() {
    let report = lint_workspace(&workspace_root()).expect("lint runs");
    assert!(report.files_scanned > 50, "walker found the workspace");
    assert!(
        report.findings.is_empty(),
        "non-baselined findings at HEAD:\n{}",
        report.text()
    );
    assert!(
        report.stale_baseline.is_empty(),
        "stale lint.allow entries at HEAD:\n{}",
        report.text()
    );
    assert!(report.is_clean());
}

#[test]
fn report_output_is_deterministic() {
    let a = lint_workspace(&workspace_root()).expect("lint runs");
    let b = lint_workspace(&workspace_root()).expect("lint runs");
    assert_eq!(a.text(), b.text());
}

#[test]
fn stale_baseline_entries_are_errors() {
    // An entry whose source line matches nothing is reported stale, and a
    // report carrying a stale entry is not clean — this is what turns the
    // ci.sh gate red when a fix forgets to delete its suppression.
    let entries =
        baseline::parse("L-PANIC\tcrates/ghost/src/lib.rs\tthis_line_no_longer_exists.unwrap();\n")
            .expect("well-formed entry");
    let applied = baseline::apply(Vec::<Finding>::new(), &entries, |_| String::new());
    assert_eq!(applied.stale.len(), 1);
    assert_eq!(applied.stale[0].path, "crates/ghost/src/lib.rs");

    let mut report = eta_lint::LintReport {
        files_scanned: 1,
        stale_baseline: applied.stale,
        ..Default::default()
    };
    report.sort();
    assert!(!report.is_clean());
    assert!(report.text().contains("STALE-BASELINE"));
}

#[test]
fn malformed_baseline_fails_the_run() {
    let err = baseline::parse("L-PANIC missing-tabs here\n").expect_err("rejected");
    assert_eq!(err.line, 1);
}
