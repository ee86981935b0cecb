//! `eta-benchmark`: the repository's benchmark on two clocks.
//!
//! With `--workload W` the process runs that workload itself and ends its
//! standard output with the contract's one-line JSON result. Without it,
//! the process is the conductor: it runs each workload in a child process
//! of its own, one after another (never two at once), collects their result
//! files into `out/results.json`, and with `--check-repeat` does the whole
//! set twice and holds the second against the first. See `README.md`.

mod catalog;
mod harness;
mod json;
mod probes;
mod span;
mod stats;
mod workloads;

use catalog::{END_TO_END, RUN_SECONDS};
use harness::Options;
use serde_json::{json, Value};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S | --passes P] \
[--trace [0|1]] [--check-repeat] [--out-dir DIR] | --selftest";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    passes: Option<usize>,
    trace: bool,
    check_repeat: bool,
    out_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        passes: None,
        trace: false,
        check_repeat: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => cli.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                cli.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = s;
            }
            "--passes" => {
                let p: usize = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--passes takes a whole number".to_string())?;
                if !(1..=1000).contains(&p) {
                    return Err("--passes must be in 1..=1000".into());
                }
                cli.passes = Some(p);
            }
            // `--trace` alone switches tracing on; the driver's spelling is
            // `--trace 0` / `--trace 1`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--check-repeat" => cli.check_repeat = true,
            "--out-dir" => cli.out_dir = PathBuf::from(value(&mut i, flag)?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    if let Some(w) = &cli.workload {
        if !catalog::workload_names().contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; known: {:?}",
                catalog::workload_names()
            ));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &cli.workload {
        Some(w) => run_one(&cli, w),
        None => conduct(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn result_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("result.{workload}.json"))
}

/// Runs one workload in this process. `Ok(true)` when every answer was right.
fn run_one(cli: &Cli, workload: &str) -> Result<bool, String> {
    let opts = Options {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        passes: cli.passes,
        trace: cli.trace,
        out_dir: cli.out_dir.clone(),
    };
    let r = harness::run(&opts)?;
    std::fs::create_dir_all(&cli.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let path = result_path(&cli.out_dir, workload);
    let doc = serde_json::to_string_pretty(&harness::result_json(&r)).map_err(|e| e.to_string())?;
    std::fs::write(&path, doc + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    harness::print_report(&r);
    // The contract's result line is the last thing on standard output.
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", harness::contract_line(&r)).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    Ok(r.correct())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what the numbers were taken; compare runs of one host only.
fn host_info() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load1 = std::fs::read_to_string("/proc/loadavg").ok().and_then(|s| {
        s.split_whitespace()
            .next()
            .and_then(|x| x.parse::<f64>().ok())
    });
    if let Some(l) = load1 {
        if l > nproc as f64 / 2.0 {
            eprintln!(
                "warning: load average {l:.2} is above nproc/2 ({nproc} cores); host timings will be noisy"
            );
        }
    }
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|m| m.trim().to_string())
    });
    json!({
        "nproc": nproc,
        "load_average_at_start": load1,
        "rustc": command_line("rustc", &["--version"]),
        "git_rev": command_line("git", &["rev-parse", "HEAD"]),
        "cpu_model": cpu,
    })
}

/// Runs every workload in a child process, one at a time, and returns their
/// result documents.
fn run_set(cli: &Cli) -> Result<(Vec<Value>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut all_ok = true;
    for w in catalog::workload_names() {
        let mut cmd = Command::new(&exe);
        cmd.arg("--workload").arg(w);
        cmd.arg("--seed").arg(cli.seed.to_string());
        cmd.arg("--out-dir").arg(&cli.out_dir);
        cmd.arg("--trace").arg(if cli.trace { "1" } else { "0" });
        match cli.passes {
            Some(p) => cmd.arg("--passes").arg(p.to_string()),
            None => cmd.arg("--seconds").arg(cli.seconds.to_string()),
        };
        let status = cmd.status().map_err(|e| format!("spawn {w}: {e}"))?;
        all_ok &= status.success();
        let path = result_path(&cli.out_dir, w);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{w} left no result file {}: {e}", path.display()))?;
        results.push(json::parse(&text)?);
    }
    Ok((results, all_ok))
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("end_to_end")?.get(name)?.get("value")?.as_f64()
}

fn stat_text(result: &Value, key: &str) -> String {
    let f = |k: &str| {
        result
            .get(key)
            .and_then(|s| s.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    format!(
        "{:.3} s [q1 {:.3}, q3 {:.3}]",
        f("median"),
        f("q1"),
        f("q3")
    )
}

/// Holds the second set of runs against the first: host metrics may be
/// worse by at most their bound, simulated metrics must be equal.
fn compare_sets(a: &[Value], b: &[Value]) -> (Vec<Value>, bool) {
    let mut rows = Vec::new();
    let mut ok = true;
    for (ra, rb) in a.iter().zip(b) {
        let w = ra.get("workload").and_then(Value::as_str).unwrap_or("?");
        println!(
            "== repeat {w}: pass A {} | B {}",
            stat_text(ra, "pass_s"),
            stat_text(rb, "pass_s")
        );
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(ra, m.name), metric_value(rb, m.name)) else {
                ok = false;
                continue;
            };
            // Positive = B is worse than A, as a share of A.
            let worse = match m.better {
                catalog::Better::Lower => (vb - va) / va,
                catalog::Better::Higher => (va - vb) / va,
            };
            let agrees = if m.simulated {
                va == vb
            } else {
                worse.abs() <= m.bound
            };
            ok &= agrees;
            println!(
                "  {:<22} A {:>16.6} B {:>16.6} {:<9} {:>+8.2} % {}",
                m.name,
                va,
                vb,
                m.unit,
                worse * 100.0,
                match (agrees, m.simulated) {
                    (true, true) => "equal",
                    (true, false) => "within bound",
                    (false, true) => "SIMULATED METRIC DIFFERS",
                    (false, false) => "OUTSIDE BOUND",
                }
            );
            rows.push(json!({
                "workload": w, "metric": m.name, "a": va, "b": vb,
                "b_worse_by": worse, "bound": m.bound, "agrees": agrees,
            }));
        }
        // Traced sets also carry the per-layer table: its counts and
        // simulated quantities must repeat exactly.
        let exact_of = |r: &Value, name: &str| {
            let m = r.get("per_layer")?.get(name)?;
            (m.get("exact")?.as_bool()?).then(|| m.get("value")?.as_f64())?
        };
        for m in &catalog::PER_LAYER {
            if let (Some(va), Some(vb)) = (exact_of(ra, m.name), exact_of(rb, m.name)) {
                if va != vb {
                    ok = false;
                    println!("  {:<40} A {va} B {vb} COUNT DIFFERS", m.name);
                    rows.push(json!({
                        "workload": w, "metric": m.name, "a": va, "b": vb, "agrees": false,
                    }));
                }
            }
        }
    }
    (rows, ok)
}

/// The full set (twice with `--check-repeat`), assembled into
/// `out/results.json`.
fn conduct(cli: &Cli) -> Result<bool, String> {
    let host = host_info();
    let (first, mut ok) = run_set(cli)?;
    let mut doc = serde_json::Map::new();
    doc.insert("host".into(), host);
    doc.insert("seed".into(), json!(cli.seed));
    doc.insert("seconds".into(), json!(cli.seconds));
    doc.insert("passes".into(), json!(cli.passes));
    doc.insert("traced".into(), json!(cli.trace));
    if cli.check_repeat {
        let (second, second_ok) = run_set(cli)?;
        let (rows, agree) = compare_sets(&first, &second);
        ok &= second_ok && agree;
        doc.insert("repeat".into(), Value::Array(second));
        doc.insert("repeat_comparison".into(), Value::Array(rows));
        doc.insert("repeat_agrees".into(), json!(agree));
        println!(
            "check-repeat: {}",
            if agree {
                "the two sets agree (host metrics within their bounds, simulated metrics equal)"
            } else {
                "THE TWO SETS DISAGREE"
            }
        );
    }
    doc.insert("workloads".into(), Value::Array(first));
    std::fs::create_dir_all(&cli.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let path = cli.out_dir.join("results.json");
    let text = serde_json::to_string_pretty(&Value::Object(doc)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_spelling_parses() {
        let cli = parse_cli(&args("--workload web_deep --seed 9 --seconds 12 --trace 0")).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("web_deep"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (9, 12.0, false));
        let cli = parse_cli(&args("--workload web_deep --seed 9 --seconds 12 --trace 1")).unwrap();
        assert!(cli.trace);
    }

    #[test]
    fn the_operator_spelling_parses() {
        let cli = parse_cli(&args("--trace --passes 5 --check-repeat")).unwrap();
        assert!(cli.trace && cli.check_repeat);
        assert_eq!(cli.passes, Some(5));
        assert_eq!(cli.workload, None);
        let cli = parse_cli(&args("--trace --seed 2")).unwrap();
        assert!(cli.trace);
        assert_eq!(cli.seed, 2);
        let cli = parse_cli(&[]).unwrap();
        assert_eq!(
            (cli.seed, cli.seconds, cli.passes),
            (1, RUN_SECONDS as f64, None)
        );
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seed",
            "--seconds 0",
            "--seconds -1",
            "--passes 0",
            "--frobnicate",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn repeat_comparison_flags_a_slow_host_metric_and_any_simulated_change() {
        let doc = |host: f64, sim: f64| {
            let mut e2e = serde_json::Map::new();
            for m in &END_TO_END {
                let v = if m.simulated { sim } else { host };
                e2e.insert(m.name.to_string(), json!({"value": v}));
            }
            let e2e = Value::Object(e2e);
            json!({"workload": "w", "end_to_end": e2e,
                   "pass_s": {"median": 1.0, "q1": 1.0, "q3": 1.0}})
        };
        assert!(compare_sets(&[doc(100.0, 5.0)], &[doc(103.0, 5.0)]).1);
        assert!(!compare_sets(&[doc(100.0, 5.0)], &[doc(160.0, 5.0)]).1);
        assert!(!compare_sets(&[doc(100.0, 5.0)], &[doc(100.0, 5.000001)]).1);
    }
}
