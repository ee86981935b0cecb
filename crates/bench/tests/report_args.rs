//! The `report` binary answers bad arguments with a message and exit
//! status 2, the way it already answers an unknown artifact name, instead
//! of panicking.

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
fn an_unknown_artifact_is_a_usage_error() {
    assert_usage_error(&report(&["table9"]), "unknown artifact \"table9\"");
}
