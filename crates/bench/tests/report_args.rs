//! The `report` binary answers bad arguments with a message and exit
//! status 2, the way it already answers an unknown artifact name, instead
//! of panicking, and runs each named artifact once.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("the report binary starts")
}

fn assert_usage_error(out: &Output, expect: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(expect), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_missing_directory_is_a_usage_error() {
    for flag in ["--out", "--check"] {
        let out = report(&["all", flag]);
        assert_usage_error(&out, &format!("{flag} needs a directory argument"));
    }
}

#[test]
fn an_unwritable_out_directory_is_an_error() {
    // A directory below a regular file cannot be created, whoever runs this.
    let file = std::env::temp_dir().join(format!("report-args-{}", std::process::id()));
    std::fs::write(&file, "").unwrap();
    let dir = file.join("out");
    let out = report(&["lint", "--out", dir.to_str().unwrap()]);
    std::fs::remove_file(&file).ok();
    assert_usage_error(&out, "writing lint to");
}

#[test]
fn out_and_check_together_are_a_usage_error() {
    // Refused before any artifact runs, whichever flag comes first; a
    // repeated flag is refused too, rather than the last one winning.
    let (a, b) = ("report-out-unused", "report-check-unused");
    for args in [
        ["lint", "--out", a, "--check", b],
        ["lint", "--check", b, "--out", a],
        ["lint", "--out", a, "--out", b],
    ] {
        assert_usage_error(&report(&args), "--out and --check are exclusive");
    }
    assert!(!std::path::Path::new(a).exists(), "nothing is written");
}

#[test]
fn an_unknown_artifact_is_a_usage_error() {
    assert_usage_error(&report(&["table9"]), "unknown artifact \"table9\"");
}

#[test]
fn a_repeated_artifact_runs_once() {
    let dir = std::env::temp_dir().join(format!("report-repeat-{}", std::process::id()));
    let dir_arg = dir.to_str().unwrap();
    assert!(report(&["lint", "table1", "--quick", "--out", dir_arg])
        .status
        .success());
    // Not adjacent: a plain `dedup` would keep both `lint`s.
    let out = report(&["lint", "table1", "lint", "--quick", "--check", dir_arg]);
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let verdicts: Vec<&str> = stdout
        .lines()
        .map(|l| l.split(" [").next().unwrap())
        .collect();
    assert_eq!(verdicts, ["same lint", "same table1"], "{stdout}");
}

#[test]
fn check_names_a_changed_artifact_and_exits_1() {
    let dir = std::env::temp_dir().join(format!("report-diff-{}", std::process::id()));
    let dir_arg = dir.to_str().unwrap();
    assert!(report(&["lint", "--quick", "--out", dir_arg])
        .status
        .success());
    let json = dir.join("lint.json");
    let mut bytes = std::fs::read(&json).unwrap();
    bytes[0] ^= 1;
    std::fs::write(&json, bytes).unwrap();
    let out = report(&["lint", "--check", dir_arg]);
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.starts_with("DIFF lint"), "{stdout}");
}
