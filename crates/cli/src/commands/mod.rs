//! CLI subcommands, separated from `main` for testability. A flag is read
//! only by the code that honours it, so [`Args::ensure_consumed`] also
//! refuses a flag the chosen program would ignore.

mod config;
mod run;
mod serve;
mod tools;

use crate::args::{ArgError, Args};

/// A command's output: text for the terminal, optional JSON (with `--json`).
#[derive(Debug)]
pub struct Output {
    pub text: String,
    pub json: serde_json::Value,
}

impl Output {
    /// Appends `key` to the JSON object.
    fn insert(&mut self, key: &str, value: serde_json::Value) {
        if let serde_json::Value::Object(m) = &mut self.json {
            m.insert(key.into(), value);
        }
    }
}

/// Loads the graph file named by the first positional after the command.
fn load_graph(args: &Args) -> Result<eta_graph::Csr, ArgError> {
    let path = args.require_positional(1, "graph file")?;
    eta_graph::io::load(path).map_err(|e| ArgError(format!("loading {path}: {e}")))
}

/// Dispatches one invocation. `argv` excludes the program name.
pub fn dispatch(argv: Vec<String>) -> Result<Output, ArgError> {
    let args = Args::parse(argv);
    let out = execute(&args)?;
    // Reject typos and flags this command never read (a stale or wrong
    // invocation must not silently run something else). `run` already
    // checked before its first launch; this is the backstop for the rest.
    args.ensure_consumed()?;
    Ok(out)
}

/// Runs the subcommand `args` names, reading only the flags it honours.
fn execute(args: &Args) -> Result<Output, ArgError> {
    let _ = args.switch("json"); // handled by main; valid everywhere
    match args.positional(0) {
        Some("generate") => tools::generate(args),
        Some("info") => tools::info(args),
        Some("run") => run::run(args),
        Some("serve") => serve::serve(args),
        Some("lint") => tools::lint(args),
        Some("datasets") => tools::datasets(args),
        Some(other) => Err(ArgError(format!("unknown command {other:?}\n{}", usage()))),
        None => Err(ArgError(usage())),
    }
}

fn usage() -> String {
    "usage:\n\
     etagraph generate rmat --scale S [--edges M] [--seed N] [--max-weight W] --out FILE\n\
     etagraph generate web --vertices V --edges M [--communities C] [--lcc F]\n\
     \x20                  [--island I] [--seed N] [--max-weight W] --out FILE\n\
     etagraph info FILE [--json]\n\
     etagraph run FILE --alg bfs|sssp|sswp|cc|pagerank [--source V] [--sources A,B,...] [--framework eta|tigr|gunrock|cusha|chunkstream]\n\
     \x20            [--k K] [--no-smp] [--transfer demand|prefetch|explicit|zerocopy|adaptive]\n\
     \x20            [--no-ump] [--no-um] [--out-of-core] [--pull] [--devices N] [--damping D] [--iterations I]\n\
     \x20            [--device-mb MB] [--host-threads N] [--profile FILE] [--sanitize] [--faults PLAN.json] [--json]\n\
     etagraph serve --graph SPEC[,SPEC...] [--requests N] [--seed S] [--devices D] [--rate QPS]\n\
     \x20          [--arrival poisson|burst] [--batch B | --no-batch] [--fifo] [--queue-cap Q] [--timeout-ms T]\n\
     \x20          [--interactive-frac F] [--slo-ms S] [--k K] [--transfer MODE | --no-ump | --no-um]\n\
     \x20          [--device-mb MB] [--host-threads N] [--profile FILE] [--sanitize] [--faults PLAN.json] [--ckpt-interval I] [--qos] [--json]\n\
     \x20          (SPEC: rmatN to generate, or a graph file path)\n\
     etagraph lint [--root DIR] [--json]\n\
     etagraph datasets [--json]"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::config::{eta_config, traversal_config};
    use super::*;
    use etagraph::{TransferMode, UdcMode};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("etagraph-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_info_run_pipeline() {
        let f = tmpfile("pipeline.etag");
        let out = dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --seed 7 --max-weight 32 --out {f}"
        )))
        .unwrap();
        assert!(out.text.contains("weighted"));

        let info = dispatch(argv(&format!("info {f}"))).unwrap();
        assert_eq!(info.json["vertices"], 512);
        assert!(info.json["weighted"].as_bool().unwrap());

        let run = dispatch(argv(&format!("run {f} --alg sssp --source 3"))).unwrap();
        assert!(run.json["visited"].as_u64().unwrap() > 0);
        assert_eq!(run.json["algorithm"], "SSSP");

        // Baseline frameworks work through the same interface.
        let tigr = dispatch(argv(&format!("run {f} --alg bfs --framework tigr"))).unwrap();
        assert!(tigr.json["total_ms"].as_f64().unwrap() > 0.0);
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn sharded_run_matches_single_device_digest() {
        let f = tmpfile("sharded.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --seed 7 --max-weight 32 --out {f}"
        )))
        .unwrap();
        for alg in ["bfs", "sssp"] {
            let single = dispatch(argv(&format!("run {f} --alg {alg} --source 3"))).unwrap();
            let sharded =
                dispatch(argv(&format!("run {f} --alg {alg} --source 3 --devices 2"))).unwrap();
            assert_eq!(
                single.json["labels_digest"], sharded.json["labels_digest"],
                "{alg}: sharded answer must match the single-device one"
            );
            assert_eq!(sharded.json["devices"], 2);
            assert!(sharded.json["exchanged_bytes"].as_u64().unwrap() > 0);
            assert!(sharded.text.contains("labels digest"));
        }
        let pr1 = dispatch(argv(&format!("run {f} --alg pagerank --iterations 5"))).unwrap();
        let pr2 = dispatch(argv(&format!(
            "run {f} --alg pagerank --iterations 5 --devices 2"
        )))
        .unwrap();
        assert_eq!(pr1.json["ranks_digest"], pr2.json["ranks_digest"]);
        // Single-device-only flags are refused, not silently ignored.
        let err = dispatch(argv(&format!("run {f} --alg bfs --devices 2 --sanitize"))).unwrap_err();
        assert!(err.0.contains("single-device"), "{err}");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn run_flags_map_to_config() {
        let a = Args::parse(argv("run g --no-smp --no-ump --out-of-core --pull --k 8"));
        let cfg = traversal_config(&a, true).unwrap();
        assert!(!cfg.smp);
        assert_eq!(cfg.transfer, TransferMode::Unified);
        assert_eq!(cfg.udc, UdcMode::OutOfCore);
        assert!(cfg.direction_optimizing);
        assert_eq!(cfg.k, 8);
        let bad = Args::parse(argv("run g --k 0"));
        assert!(eta_config(&bad).is_err());
    }

    #[test]
    fn transfer_flag_selects_the_backend() {
        for (spelling, mode) in [
            ("demand", TransferMode::Unified),
            ("prefetch", TransferMode::UnifiedPrefetch),
            ("explicit", TransferMode::ExplicitCopy),
            ("zerocopy", TransferMode::ZeroCopy),
            ("adaptive", TransferMode::Adaptive),
        ] {
            let a = Args::parse(argv(&format!("run g --transfer {spelling}")));
            assert_eq!(eta_config(&a).unwrap().transfer, mode);
        }
        // Unknown value is a named error, not a silent default.
        let bad = Args::parse(argv("run g --transfer mapped"));
        let err = eta_config(&bad).unwrap_err();
        assert!(err.0.contains("mapped"), "{err}");
        // Mixing the direct spelling with an ablation switch is ambiguous.
        let both = Args::parse(argv("run g --transfer adaptive --no-um"));
        let err = eta_config(&both).unwrap_err();
        assert!(err.0.contains("conflicts"), "{err}");
        // The ablation switches still work on their own.
        let ab = Args::parse(argv("run g --no-um"));
        assert_eq!(
            eta_config(&ab).unwrap().transfer,
            TransferMode::ExplicitCopy
        );
    }

    #[test]
    fn helpful_errors() {
        assert!(dispatch(argv("frobnicate")).is_err());
        // Typo'd flags are named, not ignored.
        let f0 = tmpfile("typo.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 8 --edges 2000 --out {f0}"
        )))
        .unwrap();
        let err = dispatch(argv(&format!("run {f0} --alg bfs --sorces 0,1"))).unwrap_err();
        assert!(err.0.contains("--sorces"), "{err}");
        // A typo'd generate must fail *without* writing the file.
        let f1 = tmpfile("never-written.etag");
        let err = dispatch(argv(&format!(
            "generate rmat --scale 8 --edges 2000 --out {f1} --sede 7"
        )))
        .unwrap_err();
        assert!(err.0.contains("--sede"), "{err}");
        assert!(
            !std::path::Path::new(&f1).exists(),
            "no side effect on error"
        );
        std::fs::remove_file(&f0).ok();
        assert!(dispatch(argv("generate rmat --out /tmp/x.etag"))
            .unwrap_err()
            .0
            .contains("--scale"));
        let f = tmpfile("unweighted.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 8 --edges 2000 --out {f}"
        )))
        .unwrap();
        let err = dispatch(argv(&format!("run {f} --alg sssp"))).unwrap_err();
        assert!(err.0.contains("weighted"), "{err}");
        let err = dispatch(argv(&format!("run {f} --alg bfs --source 99999"))).unwrap_err();
        assert!(err.0.contains("out of range"));
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn web_generator_with_island() {
        let f = tmpfile("web.etag");
        let out = dispatch(argv(&format!(
            "generate web --vertices 5000 --edges 30000 --communities 8 --island 50 --out {f}"
        )))
        .unwrap();
        assert_eq!(out.json["source"], 0);
        let run = dispatch(argv(&format!("run {f} --alg bfs"))).unwrap();
        assert_eq!(run.json["visited"], 50, "island traversal");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn web_generator_refuses_bad_shapes_before_generating() {
        let f = tmpfile("web-bad.etag");
        std::fs::remove_file(&f).ok();
        for (flags, named) in [
            ("--vertices 3", "--vertices"),
            ("--vertices 100 --island 90", "--island"),
            ("--vertices 100 --island 25", "--island"),
            ("--vertices 100 --lcc nan", "--lcc"),
            ("--vertices 100 --lcc -1", "--lcc"),
            ("--vertices 100 --lcc 2", "--lcc"),
            (
                "--vertices 100 --edges 100 --communities 1000",
                "--communities",
            ),
            ("--vertices 100 --communities 26", "--communities"),
            (
                "--vertices 100 --island 10 --communities 23",
                "--communities",
            ),
            ("--vertices 100 --communities 0", "--communities"),
        ] {
            let cmd = format!("generate web {flags} --edges 400 --out {f}");
            let err = dispatch(argv(&cmd)).unwrap_err();
            assert!(err.0.contains(named), "{flags}: {err}");
            assert!(!std::path::Path::new(&f).exists(), "{flags} wrote a graph");
        }
        // The boundary: the island plus 4 vertices per community fill 100.
        for flags in ["--communities 25", "--island 12 --communities 22"] {
            let cmd = format!("generate web --vertices 100 --edges 400 {flags} --out {f}");
            let out = dispatch(argv(&cmd)).unwrap();
            assert_eq!(out.json["vertices"], 100, "{flags}");
            std::fs::remove_file(&f).ok();
        }
    }

    #[test]
    fn pagerank_refuses_a_damping_outside_the_unit_interval() {
        let f = tmpfile("pr-damping.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 8 --edges 2000 --out {f}"
        )))
        .unwrap();
        for damping in ["nan", "-0.1", "1.5", "inf"] {
            let cmd = format!("run {f} --alg pagerank --damping {damping}");
            let err = dispatch(argv(&cmd)).unwrap_err();
            assert!(err.0.contains("--damping"), "{damping}: {err}");
        }
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn connected_components_via_cli() {
        let f = tmpfile("cc.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        let out = dispatch(argv(&format!("run {f} --alg cc"))).unwrap();
        assert_eq!(out.json["algorithm"], "CC");
        // Baselines reject the extension cleanly.
        let err = dispatch(argv(&format!("run {f} --alg cc --framework tigr"))).unwrap_err();
        assert!(err.0.contains("EtaGraph-only"), "{err}");
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn pagerank_via_cli() {
        let f = tmpfile("pr.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        let out = dispatch(argv(&format!("run {f} --alg pagerank --iterations 5"))).unwrap();
        assert_eq!(out.json["algorithm"], "PageRank");
        assert_eq!(out.json["top10"].as_array().unwrap().len(), 10);
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn multi_bfs_via_cli_and_trace_is_refused() {
        let f = tmpfile("multi.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        let out = dispatch(argv(&format!("run {f} --sources 0,1,7"))).unwrap();
        assert_eq!(out.json["algorithm"], "multi-BFS");
        assert_eq!(out.json["sources"].as_array().unwrap().len(), 3);
        let bad = dispatch(argv(&format!("run {f} --sources 0,abc"))).unwrap_err();
        assert!(bad.0.contains("--sources"));

        // `--trace` is gone: `--profile FILE` writes the one Chrome trace,
        // and a refused invocation writes neither.
        let (trace, profile) = (tmpfile("run.trace.json"), tmpfile("run.refused.json"));
        for p in [&trace, &profile] {
            std::fs::remove_file(p).ok();
        }
        for flags in [
            format!("--trace {trace}"),
            format!("--trace {trace} --profile {profile}"),
        ] {
            let err = dispatch(argv(&format!("run {f} --alg bfs {flags}"))).unwrap_err();
            assert!(err.0.contains("--trace"), "{err}");
            for p in [&trace, &profile] {
                assert!(!std::path::Path::new(p).exists(), "{flags} wrote {p}");
            }
        }
        std::fs::remove_file(&f).ok();
    }

    /// The `traceEvents` of a Chrome trace, read as JSON.
    fn trace_events(body: &str) -> Vec<serde_json::Value> {
        let trace: serde_json::Value = serde_json::from_str(body).unwrap();
        assert_eq!(trace["displayTimeUnit"], "ns");
        trace["traceEvents"].as_array().unwrap().clone()
    }

    /// The names a trace's `kind` metadata events (`process_name`,
    /// `thread_name`) give their tracks.
    fn track_names<'e>(events: &'e [serde_json::Value], kind: &str) -> Vec<&'e str> {
        let named = events
            .iter()
            .filter(|e| e["ph"] == "M" && e["name"] == kind);
        named.filter_map(|e| e["args"]["name"].as_str()).collect()
    }

    #[test]
    fn profile_flag_writes_deterministic_chrome_trace() {
        let f = tmpfile("prof.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 10 --edges 16000 --out {f}"
        )))
        .unwrap();
        let trace = tmpfile("run.profile.json");
        let out = dispatch(argv(&format!("run {f} --alg bfs --profile {trace}"))).unwrap();
        assert!(out.text.contains("==eta-prof=="), "{}", out.text);
        assert!(
            out.text.contains("transfer/compute overlap"),
            "{}",
            out.text
        );
        assert!(out.json["profile"]["events"].as_u64().unwrap() > 0);
        let body = std::fs::read_to_string(&trace).unwrap();
        let events = trace_events(&body);
        let threads = track_names(&events, "thread_name");
        assert!(
            threads.contains(&"kernels"),
            "kernel track named: {threads:?}"
        );
        assert!(threads.contains(&"pcie transfers"), "{threads:?}");
        assert!(events.iter().any(|e| e["ph"] == "X"), "no complete span");
        // Byte-identical on a repeated identical invocation.
        let trace2 = tmpfile("run.profile2.json");
        dispatch(argv(&format!("run {f} --alg bfs --profile {trace2}"))).unwrap();
        assert_eq!(body, std::fs::read_to_string(&trace2).unwrap());
        // Unprofiled runs attach nothing.
        let plain = dispatch(argv(&format!("run {f} --alg bfs"))).unwrap();
        assert!(plain.json["profile"].is_null());
        for p in [f, trace, trace2] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn profile_flag_covers_serve_and_secondary_run_paths() {
        let trace = tmpfile("serve.profile.json");
        let out = dispatch(argv(&format!(
            "serve --graph rmat10 --requests 20 --seed 7 --rate 5000 --profile {trace}"
        )))
        .unwrap();
        assert!(out.text.contains("==eta-prof=="), "{}", out.text);
        let events = trace_events(&std::fs::read_to_string(&trace).unwrap());
        let processes = track_names(&events, "process_name");
        assert!(processes.contains(&"scheduler"), "{processes:?}");
        assert!(processes.contains(&"device0"), "{processes:?}");
        std::fs::remove_file(&trace).ok();

        let f = tmpfile("prof-multi.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        let t1 = tmpfile("multi.profile.json");
        let multi = dispatch(argv(&format!("run {f} --sources 0,1 --profile {t1}"))).unwrap();
        assert!(multi.json["profile"]["events"].as_u64().unwrap() > 0);
        let t2 = tmpfile("pr.profile.json");
        let pr = dispatch(argv(&format!(
            "run {f} --alg pagerank --iterations 3 --profile {t2}"
        )))
        .unwrap();
        assert!(pr.json["profile"]["events"].as_u64().unwrap() > 0);
        for p in [f, t1, t2] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn sanitize_flag_reports_per_run_mode() {
        let f = tmpfile("sanitize.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        // Sanitized EtaGraph run: report present and clean.
        let out = dispatch(argv(&format!("run {f} --alg bfs --sanitize"))).unwrap();
        assert!(out.text.contains("sanitizer (full)"), "{}", out.text);
        assert_eq!(out.json["sanitizer"]["errors"].as_array().unwrap().len(), 0);
        assert!(out.json["sanitizer"]["launches"].as_u64().unwrap() > 0);
        // Baselines run sanitized through the same flag.
        let tigr = dispatch(argv(&format!(
            "run {f} --alg bfs --framework tigr --sanitize"
        )))
        .unwrap();
        assert_eq!(
            tigr.json["sanitizer"]["errors"].as_array().unwrap().len(),
            0
        );
        // PageRank and multi-BFS paths carry the report too.
        let pr = dispatch(argv(&format!(
            "run {f} --alg pagerank --iterations 3 --sanitize"
        )))
        .unwrap();
        assert!(pr.json["sanitizer"]["launches"].as_u64().unwrap() > 0);
        let multi = dispatch(argv(&format!("run {f} --sources 0,1 --sanitize"))).unwrap();
        assert!(multi.json["sanitizer"]["launches"].as_u64().unwrap() > 0);
        // Without the flag, no report is attached.
        let plain = dispatch(argv(&format!("run {f} --alg bfs"))).unwrap();
        assert!(plain.json["sanitizer"].is_null());
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn serve_subcommand_end_to_end() {
        let out = dispatch(argv(
            "serve --graph rmat10 --requests 40 --seed 7 --rate 5000",
        ))
        .unwrap();
        assert_eq!(out.json["requests"], 40);
        let completed = out.json["report"]["completed"].as_u64().unwrap();
        let rejected = out.json["report"]["rejected"].as_u64().unwrap();
        assert_eq!(completed + rejected, 40);
        assert!(out.json["latency"]["all"]["p95"].as_u64().unwrap() > 0);
        assert!(out.text.contains("throughput"), "{}", out.text);
        // Same invocation, byte-identical JSON (the determinism contract).
        let again = dispatch(argv(
            "serve --graph rmat10 --requests 40 --seed 7 --rate 5000",
        ))
        .unwrap();
        assert_eq!(
            serde_json::to_string(&out.json).unwrap(),
            serde_json::to_string(&again.json).unwrap()
        );
        // A different seed produces a different trace.
        let other = dispatch(argv(
            "serve --graph rmat10 --requests 40 --seed 8 --rate 5000",
        ))
        .unwrap();
        assert_ne!(
            serde_json::to_string(&out.json["report"]).unwrap(),
            serde_json::to_string(&other.json["report"]).unwrap()
        );
    }

    #[test]
    fn serve_flags_are_validated() {
        assert!(dispatch(argv("serve --requests 10"))
            .unwrap_err()
            .0
            .contains("--graph"));
        assert!(dispatch(argv("serve --graph rmat10 --batch 99"))
            .unwrap_err()
            .0
            .contains("--batch"));
        assert!(dispatch(argv("serve --graph rmat10 --rate -1"))
            .unwrap_err()
            .0
            .contains("--rate"));
        // Each of these used to panic, trip an assert or pass silently.
        for (flags, named) in [
            ("--slo-ms 18446744073710", "--slo-ms"),
            ("--timeout-ms 18446744073710", "--timeout-ms"),
            ("--rate nan", "--rate"),
            ("--rate inf", "--rate"),
            ("--interactive-frac 7", "--interactive-frac"),
            ("--interactive-frac nan", "--interactive-frac"),
            ("--interactive-frac -0.5", "--interactive-frac"),
        ] {
            let err = dispatch(argv(&format!("serve --graph rmat10 {flags}"))).unwrap_err();
            assert!(err.0.contains(named), "{flags}: {err}");
        }
        // The largest SLO the clock holds serves: its deadlines saturate.
        let out = dispatch(argv(
            "serve --graph rmat10 --requests 5 --rate 5000 --slo-ms 18446744073709",
        ))
        .unwrap();
        assert_eq!(out.json["report"]["completed"], 5);
        // Typo'd flags are named, like every other subcommand.
        let err = dispatch(argv("serve --graph rmat10 --reqests 10")).unwrap_err();
        assert!(err.0.contains("--reqests"), "{err}");
    }

    #[test]
    fn serve_refuses_arrivals_past_the_clock_horizon() {
        // A rate this low saturated every arrival at `u64::MAX` ns: a debug
        // build overflowed the link clock, a release build served garbage.
        for rate in ["1e-300", "1e-15"] {
            let cmd = format!("serve --graph rmat8 --rate {rate} --requests 3");
            let err = dispatch(argv(&cmd)).unwrap_err();
            assert!(err.0.contains("--rate"), "{rate}: {err}");
        }
        // A slow trace whose arrivals stay inside the horizon still serves.
        let out = dispatch(argv("serve --graph rmat8 --rate 1e-6 --requests 3")).unwrap();
        assert_eq!(out.json["report"]["completed"], 3);
    }

    #[test]
    fn serve_with_file_graph_sanitizer_and_no_batch() {
        let f = tmpfile("serve.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        let out = dispatch(argv(&format!(
            "serve --graph {f} --requests 12 --no-batch --fifo --sanitize --devices 2"
        )))
        .unwrap();
        assert_eq!(out.json["report"]["completed"], 12u32);
        // Unbatched: every launch carries exactly one request.
        assert_eq!(out.json["mean_batch_size"].as_f64().unwrap(), 1.0);
        let sans = out.json["sanitizer"].as_array().unwrap();
        assert_eq!(sans.len(), 2, "one report per device");
        assert!(sans
            .iter()
            .all(|s| s["errors"].as_array().unwrap().is_empty()));
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn faults_flag_degrades_run_and_is_survived_by_serve() {
        let f = tmpfile("faults.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 9 --edges 4000 --out {f}"
        )))
        .unwrap();
        // A permanent hang window: the bare engine has no recovery ladder,
        // so `run` reports the typed fault as a named error.
        let plan = tmpfile("hang-plan.json");
        std::fs::write(
            &plan,
            r#"{"seed": 0, "ecc": [], "um": [],
                "hangs": [{"device": 0, "start_ns": 0, "end_ns": 99999999999, "budget_ns": 1000}],
                "pcie": []}"#,
        )
        .unwrap();
        let err = dispatch(argv(&format!("run {f} --alg bfs --faults {plan}"))).unwrap_err();
        assert!(err.0.contains("kernel_hang"), "{err}");
        // The serving layer survives the same plan: retries, quarantine,
        // then the CPU fallback keeps availability at 1.
        let out = dispatch(argv(&format!(
            "serve --graph {f} --requests 6 --rate 5000 --faults {plan}"
        )))
        .unwrap();
        assert!(out.text.contains("availability"), "{}", out.text);
        assert!(out.text.contains("quarantine"), "{}", out.text);
        let report = &out.json["report"];
        assert_eq!(report["completed"], 6u32);
        assert!(report["degraded"].as_u64().unwrap() > 0);
        assert_eq!(report["availability"].as_f64().unwrap(), 1.0);
        // An empty plan is inert: byte-identical output to no flag at all.
        let empty = tmpfile("empty-plan.json");
        std::fs::write(&empty, "{}").unwrap();
        let with = dispatch(argv(&format!(
            "serve --graph {f} --requests 6 --rate 5000 --faults {empty}"
        )))
        .unwrap();
        let without =
            dispatch(argv(&format!("serve --graph {f} --requests 6 --rate 5000"))).unwrap();
        assert_eq!(with.text, without.text);
        assert_eq!(
            serde_json::to_string(&with.json).unwrap(),
            serde_json::to_string(&without.json).unwrap()
        );
        // A malformed plan is a named error.
        let bad = tmpfile("bad-plan.json");
        std::fs::write(&bad, r#"{"bogus": 1}"#).unwrap();
        let err = dispatch(argv(&format!("run {f} --alg bfs --faults {bad}"))).unwrap_err();
        assert!(err.0.starts_with(&format!("{bad}: fault plan: ")), "{err}");
        assert_eq!(err.0.matches("fault plan").count(), 1, "{err}");
        for p in [f, plan, empty, bad] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn a_deeply_nested_fault_plan_is_a_named_error() {
        let f = tmpfile("deep-plan.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 6 --edges 200 --out {f}"
        )))
        .unwrap();
        let deep = tmpfile("deep-plan.json");
        std::fs::write(&deep, "[".repeat(200_000)).unwrap();
        let err = dispatch(argv(&format!("run {f} --alg bfs --faults {deep}"))).unwrap_err();
        assert!(
            err.0.starts_with(&format!("{deep}: fault plan JSON: ")),
            "{err}"
        );
        assert_eq!(err.0.matches("fault plan").count(), 1, "{err}");
        assert!(err.0.contains("nesting deeper than 64 levels"), "{err}");
        for p in [f, deep] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn run_refuses_an_unread_flag_before_the_first_launch() {
        let f = tmpfile("refuse-first.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 12 --edges 600000 --max-weight 8 --out {f}"
        )))
        .unwrap();
        // Device 0 hangs on its first launch, and a 1 MiB group member
        // cannot hold its shard: each program below fails at its first
        // simulated launch or upload, so an error that names the unread
        // flag instead shows that none happened before the refusal.
        let plan = tmpfile("refuse-first-hang.json");
        std::fs::write(
            &plan,
            r#"{"hangs": [{"device": 0, "start_ns": 0, "end_ns": 99999999999, "budget_ns": 1}]}"#,
        )
        .unwrap();
        let hang = format!("--faults {plan}");
        for (program, failure) in [
            (format!("--alg sssp {hang}"), "kernel_hang"),
            (format!("--alg bfs --framework tigr {hang}"), "kernel_hang"),
            (
                format!("--alg pagerank --iterations 2 {hang}"),
                "kernel_hang",
            ),
            (format!("--sources 0,1 {hang}"), "kernel_hang"),
            (
                "--alg bfs --devices 2 --device-mb 1 --transfer explicit".to_string(),
                "out of device memory",
            ),
            (
                "--alg pagerank --devices 2 --device-mb 1 --transfer explicit".to_string(),
                "out of device memory",
            ),
        ] {
            let cmd = format!("run {f} {program}");
            let err = dispatch(argv(&cmd)).unwrap_err();
            assert!(err.0.contains(failure), "{cmd}: {err}");
            let err = dispatch(argv(&format!("{cmd} --bogus 1"))).unwrap_err();
            assert!(
                err.0.contains("unknown or unused flag(s): --bogus"),
                "{cmd} --bogus 1: {err}"
            );
        }
        for p in [f, plan] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn ckpt_interval_flag_arms_rung_zero_of_the_ladder() {
        let f = tmpfile("ckpt.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 10 --edges 8000 --out {f}"
        )))
        .unwrap();
        // A permanent 50 µs hang budget on the single device: long enough
        // that early small-frontier kernels pass (snapshots get taken),
        // short enough to kill the peak-frontier iteration.
        let plan = tmpfile("ckpt-plan.json");
        std::fs::write(
            &plan,
            r#"{"seed": 0, "ecc": [], "um": [],
                "hangs": [{"device": 0, "start_ns": 0, "end_ns": 99999999999, "budget_ns": 50000}],
                "pcie": []}"#,
        )
        .unwrap();
        let out = dispatch(argv(&format!(
            "serve --graph {f} --requests 6 --rate 5000 --faults {plan} --ckpt-interval 2"
        )))
        .unwrap();
        let report = &out.json["report"];
        assert_eq!(
            report["completed"].as_u64().unwrap() + report["rejected"].as_u64().unwrap(),
            6
        );
        assert!(report["checkpoints"].as_u64().unwrap() > 0);
        assert!(out.text.contains("checkpoints:"), "{}", out.text);
        // Without the flag, the report carries no checkpoint traffic and
        // the summary line stays absent.
        let off = dispatch(argv(&format!(
            "serve --graph {f} --requests 6 --rate 5000 --faults {plan}"
        )))
        .unwrap();
        assert_eq!(off.json["report"]["checkpoints"], 0u32);
        assert!(!off.text.contains("checkpoints:"), "{}", off.text);
        for p in [f, plan] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn lint_subcommand_is_clean_at_head() {
        // The test binary runs from the workspace (or a crate dir under
        // it), so root discovery finds the real tree.
        let out = dispatch(argv("lint")).unwrap();
        assert!(
            out.text.contains("clean: no non-baselined findings"),
            "{}",
            out.text
        );
        assert_eq!(out.json["clean"], true);
        assert_eq!(out.json["new"], 0u32);
        // A root with no workspace shape is a proper error, not a panic.
        let err = dispatch(argv("lint --root /nonexistent-root")).unwrap_err();
        assert!(err.0.contains("lint did not run"), "{err}");
        // Typo'd flags are named.
        let err = dispatch(argv("lint --rot .")).unwrap_err();
        assert!(err.0.contains("--rot"), "{err}");
    }

    #[test]
    fn datasets_lists_the_suite() {
        let out = dispatch(argv("datasets")).unwrap();
        assert_eq!(out.json.as_array().unwrap().len(), 7);
        assert!(out.text.contains("uk2006"));
    }

    #[test]
    fn device_oom_is_reported() {
        let f = tmpfile("oom.etag");
        dispatch(argv(&format!(
            "generate rmat --scale 12 --edges 80000 --out {f}"
        )))
        .unwrap();
        let err = dispatch(argv(&format!(
            "run {f} --alg bfs --framework cusha --device-mb 1"
        )))
        .unwrap_err();
        assert!(err.0.contains("O.O.M"), "{err}");
        std::fs::remove_file(&f).ok();
    }

    /// A weighted scale-`scale` R-MAT file for one test.
    fn graph_file(name: &str, scale: u32) -> String {
        let f = tmpfile(name);
        let edges = 8u32 << scale;
        dispatch(argv(&format!(
            "generate rmat --scale {scale} --edges {edges} --seed 7 --max-weight 32 --out {f}"
        )))
        .unwrap();
        f
    }

    #[test]
    fn flags_a_program_does_not_honour_are_refused() {
        let f = graph_file("refused.etag", 9);
        let serve = format!("serve --graph {f} --requests 4 --rate 5000");
        let pagerank = format!("run {f} --alg pagerank --iterations 2");
        let sources = format!("run {f} --sources 0,1");
        let run = format!("run {f}");
        // (a valid invocation, the flag that makes it invalid, the name the
        // error must carry)
        let rows = [
            (format!("{run} --devices 2"), "--pull", "--pull"),
            (
                format!("{run} --devices 2"),
                "--out-of-core",
                "--out-of-core",
            ),
            (pagerank.clone(), "--pull", "--pull"),
            (pagerank.clone(), "--out-of-core", "--out-of-core"),
            (sources.clone(), "--no-smp", "--no-smp"),
            (sources.clone(), "--pull", "--pull"),
            (sources.clone(), "--out-of-core", "--out-of-core"),
            (sources.clone(), "--alg sssp", "--alg"),
            (serve.clone(), "--no-smp", "--no-smp"),
            (serve.clone(), "--pull", "--pull"),
            (serve.clone(), "--out-of-core", "--out-of-core"),
            (run.clone(), "--devices 0", "--devices"),
            (pagerank.clone(), "--framework tigr", "tigr"),
            (sources.clone(), "--framework gunrock", "gunrock"),
        ];
        for (valid, extra, named) in rows {
            dispatch(argv(&valid)).unwrap_or_else(|e| panic!("{valid}: {e}"));
            let err = dispatch(argv(&format!("{valid} {extra}"))).unwrap_err();
            assert!(err.0.contains(named), "{valid} {extra}: {err}");
        }
        // An ignored flag is not called unknown.
        let err = dispatch(argv(&format!("{sources} --no-smp"))).unwrap_err();
        assert!(err.0.contains("unknown or unused flag(s)"), "{err}");
        // `--framework eta` is accepted wherever EtaGraph is the only framework.
        for valid in [pagerank, sources] {
            dispatch(argv(&format!("{valid} --framework eta"))).unwrap();
        }
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn a_k_beyond_shared_memory_is_refused_while_smp_is_on() {
        let f = graph_file("smp_k.etag", 8);
        // A block's 256 threads stage K words each (SSSP: 2K) into 96 KiB.
        for (bad, needed) in [
            ("--alg bfs --k 97", "99328 B"),
            ("--alg pagerank --iterations 2 --k 97", "99328 B"),
            ("--alg sssp --k 49", "100352 B"),
            ("--alg bfs --k 97 --devices 2", "99328 B"),
            (
                "--alg pagerank --iterations 2 --k 97 --devices 2",
                "99328 B",
            ),
            ("--alg sssp --k 49 --devices 2", "100352 B"),
        ] {
            let err = dispatch(argv(&format!("run {f} {bad}"))).unwrap_err();
            for named in ["--k", needed, "98304 B", "--no-smp"] {
                assert!(err.0.contains(named), "{bad}: {err}");
            }
        }
        for good in [
            "--alg bfs --k 96",
            "--alg sssp --k 48",
            "--alg bfs --k 97 --no-smp",
            "--alg sssp --k 200 --no-smp --devices 2",
            "--sources 0,1 --k 200",
        ] {
            dispatch(argv(&format!("run {f} {good}"))).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        dispatch(argv(&format!("serve --graph {f} --requests 2 --k 200"))).unwrap();
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn device_mb_that_overflows_bytes_is_an_error() {
        let f = graph_file("overflow.etag", 8);
        // 2^44 MiB is 2^64 bytes: it used to wrap to 0 B (an O.O.M), and one
        // MiB more wrapped to a 1 MiB device that ran.
        for mb in ["17592186044416", "17592186044417"] {
            for cmd in [
                format!("run {f}"),
                format!("run {f} --devices 2"),
                format!("serve --graph {f} --requests 2"),
            ] {
                let err = dispatch(argv(&format!("{cmd} --device-mb {mb}"))).unwrap_err();
                assert!(err.0.contains("--device-mb"), "{cmd}: {err}");
            }
        }
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn every_flag_a_command_reads_is_in_usage() {
        let usage = usage();
        let documented: std::collections::BTreeSet<&str> = usage
            .split(|c: char| c.is_whitespace() || "[]|".contains(c))
            .filter_map(|tok| tok.strip_prefix("--"))
            .collect();
        let g = graph_file("usage.etag", 8);
        let (web, profile, plan) = (
            tmpfile("usage-web.etag"),
            tmpfile("usage.profile.json"),
            tmpfile("usage-plan.json"),
        );
        std::fs::write(&plan, "{}").unwrap();
        // One invocation per subcommand and per `run` program.
        let rows = [
            format!("generate rmat --scale 8 --out {g} --max-weight 8"),
            format!("generate web --vertices 400 --edges 1600 --out {web}"),
            format!("info {g}"),
            format!(
                "run {g} --alg sssp --framework eta --k 8 --no-smp --out-of-core --pull \
                 --profile {profile} --sanitize --faults {plan}"
            ),
            format!("run {g} --alg bfs --framework tigr"),
            format!("run {g} --alg bfs --devices 2"),
            format!("run {g} --alg pagerank --iterations 2"),
            format!("run {g} --alg pagerank --iterations 2 --devices 2"),
            format!("run {g} --sources 0,1"),
            format!("serve --graph {g} --requests 4"),
            "lint".to_string(),
            "datasets".to_string(),
        ];
        for cmd in rows {
            let args = Args::parse(argv(&cmd));
            let result = execute(&args).and_then(|_| args.ensure_consumed());
            assert!(result.is_ok(), "{cmd}: {result:?}");
            for name in args.consumed() {
                assert!(
                    documented.contains(name.as_str()),
                    "{cmd} reads --{name}, which usage() does not list"
                );
            }
        }
        // The drills' artifacts come from `report chaos|overload` alone.
        for cmd in ["chaos", "overload"] {
            let err = dispatch(argv(cmd)).unwrap_err();
            assert!(err.0.starts_with("unknown command"), "{cmd}: {err}");
        }
        for p in [g, web, profile, plan] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn readme_run_lines_run() {
        // Scale 10: README's `--sources` line names vertex 1000.
        let g = graph_file("readme.etag", 10);
        let plan = tmpfile("readme-plan.json");
        std::fs::write(&plan, "{}").unwrap();
        let outputs = ["trace.json", "p.json"].map(|name| tmpfile(&format!("readme.{name}")));
        let readme = include_str!("../../../../README.md");
        let mut ran = 0;
        for line in readme.lines() {
            let Some(cmd) = line.strip_prefix("target/release/etagraph run ") else {
                continue;
            };
            let cmd = cmd.split(" #").next().unwrap();
            let tokens: Vec<String> = std::iter::once("run")
                .chain(cmd.split_whitespace())
                .map(|tok| match tok {
                    "g.etag" => g.clone(),
                    "plan.json" => plan.clone(),
                    "trace.json" => outputs[0].clone(),
                    "p.json" => outputs[1].clone(),
                    other => other.to_string(),
                })
                .collect();
            dispatch(tokens).unwrap_or_else(|e| panic!("README: {line}: {e}"));
            ran += 1;
        }
        assert!(ran >= 10, "found only {ran} README run lines");
        for p in outputs.into_iter().chain([g, plan]) {
            std::fs::remove_file(&p).ok();
        }
    }
}
