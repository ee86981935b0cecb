//! Flags to engine configs and devices; the output attached over devices.

use super::Output;
use crate::args::{ArgError, Args};
use eta_sim::{Device, GpuConfig, SanitizerMode};
use etagraph::kernels::smp_shared_words;
use etagraph::{EtaConfig, TransferMode, UdcMode, THREADS_PER_BLOCK};
use serde_json::json;
use std::fmt::Write as _;

/// Flags only a one-device run honours; a group refuses each by name.
const SINGLE_DEVICE: [&str; 4] = ["faults", "sanitize", "pull", "out-of-core"];

/// `--k` and the transfer spellings: what every EtaGraph program honours.
pub(crate) fn eta_config(args: &Args) -> Result<EtaConfig, ArgError> {
    let cfg = EtaConfig {
        k: args.get_parse("k", 16)?,
        ..EtaConfig::paper()
    };
    if cfg.k == 0 {
        return Err(ArgError("--k must be at least 1".into()));
    }
    // `--transfer` names the backend directly; the paper's ablation
    // switches (`--no-um`, `--no-ump`) stay as spellings of the same axis.
    // Naming two is ambiguous, so it is an error rather than a precedence
    // rule.
    let transfer = match (
        args.get("transfer"),
        args.switch("no-um"),
        args.switch("no-ump"),
    ) {
        (None, false, false) => cfg.transfer,
        (None, true, false) => TransferMode::ExplicitCopy,
        (None, false, true) => TransferMode::Unified,
        (Some(s), false, false) => TransferMode::parse(s).ok_or_else(|| {
            ArgError(format!(
                "unknown --transfer {s:?} (expected demand|prefetch|explicit|zerocopy|adaptive)"
            ))
        })?,
        _ => {
            return Err(ArgError(
                "the transfer setting conflicts: pass one of --transfer, --no-um, --no-ump".into(),
            ))
        }
    };
    Ok(EtaConfig { transfer, ..cfg })
}

/// [`eta_config`] plus `--no-smp`: traversal and PageRank (multi-BFS has no
/// SMP path). With SMP on, a `--k` whose staging — neighbour ids, and their
/// weights when `weighted` — overflows one SM's shared memory is refused
/// here, before any launch.
pub(crate) fn smp_config(args: &Args, weighted: bool) -> Result<EtaConfig, ArgError> {
    let mut cfg = eta_config(args)?;
    cfg.smp &= !args.switch("no-smp");
    let words = smp_shared_words(cfg.smp, cfg.k, THREADS_PER_BLOCK, weighted);
    if words * 4 > GpuConfig::SHARED_MEM_PER_SM {
        return Err(ArgError(format!(
            "--k {} needs {} B of shared memory per block for Shared Memory Prefetch; \
             the SM has {} B (lower --k or pass --no-smp)",
            cfg.k,
            words * 4,
            GpuConfig::SHARED_MEM_PER_SM
        )));
    }
    Ok(cfg)
}

/// [`smp_config`] plus `--out-of-core` and `--pull`: a one-device traversal
/// only (a group normalises both away).
pub(crate) fn traversal_config(args: &Args, weighted: bool) -> Result<EtaConfig, ArgError> {
    let mut cfg = smp_config(args, weighted)?;
    if args.switch("out-of-core") {
        cfg.udc = UdcMode::OutOfCore;
    }
    cfg.direction_optimizing |= args.switch("pull");
    Ok(cfg)
}

/// Parses `--faults PLAN.json` into a [`eta_fault::FaultPlan`]; `None`
/// when the flag is absent. A malformed plan is a named error, never a
/// silently-empty one.
pub(crate) fn fault_plan_from(args: &Args) -> Result<Option<eta_fault::FaultPlan>, ArgError> {
    let Some(path) = args.get("faults") else {
        return Ok(None);
    };
    let body = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("reading fault plan {path}: {e}")))?;
    eta_fault::FaultPlan::from_json_str(&body)
        .map(Some)
        .map_err(|e| ArgError(format!("{path}: {e}")))
}

/// The one device builder: `--device-mb` (default 88), `--host-threads`
/// (default 2: simulated results are byte-identical at every setting, only
/// host wall-clock changes) and `--profile`.
pub(crate) fn gpu_config(args: &Args) -> Result<GpuConfig, ArgError> {
    let device_mb: u64 = args.get_parse("device-mb", 88)?;
    let bytes = device_mb
        .checked_mul(1024 * 1024)
        .ok_or_else(|| ArgError(format!("--device-mb {device_mb} is too large")))?;
    let host_threads: usize =
        args.get_parse("host-threads", GpuConfig::default_preset().host_threads)?;
    if host_threads == 0 {
        return Err(ArgError("--host-threads must be at least 1".into()));
    }
    let mut gpu = GpuConfig::gtx1080ti_scaled(bytes).with_host_threads(host_threads);
    if args.get("profile").is_some() {
        gpu = gpu.with_profiling();
    }
    Ok(gpu)
}

/// A run's `n` devices, built from [`gpu_config`]. Only a one-member run
/// reads `--sanitize` (full memcheck + racecheck + lint) and `--faults`
/// (installed as device 0); a group refuses every single-device flag.
pub(crate) fn members(args: &Args, n: u32) -> Result<Vec<Device>, ArgError> {
    let mut gpu = gpu_config(args)?;
    if n > 1 {
        if let Some(flag) = SINGLE_DEVICE
            .iter()
            .find(|flag| args.get(flag).is_some() || args.switch(flag))
        {
            return Err(ArgError(format!(
                "--{flag} is a single-device flag; drop --devices"
            )));
        }
        return Ok((0..n).map(|_| Device::new(gpu)).collect());
    }
    if args.switch("sanitize") {
        gpu = gpu.with_sanitizer(SanitizerMode::Full);
    }
    let mut dev = Device::new(gpu);
    if let Some(plan) = fault_plan_from(args)? {
        dev.install_faults(&plan, 0);
    }
    Ok(vec![dev])
}

/// Attaches what a run over `devs` recorded: one device's sanitizer report
/// and its profile (process `device`), or one `deviceN` process per group
/// member.
pub(crate) fn attach(out: &mut Output, devs: &[Device], args: &Args) -> Result<(), ArgError> {
    if let Some(report) = sanitizer_reports(out, devs).pop() {
        out.insert("sanitizer", report);
    }
    let profile = match devs {
        [dev] => dev.profile(),
        _ => {
            let mut profile = eta_prof::Profile::new();
            for (s, d) in devs.iter().enumerate() {
                profile.push(&format!("device{s}"), d.mem.prof.events().to_vec());
            }
            profile
        }
    };
    attach_profile(out, &profile, args)
}

/// Appends the findings of each sanitized device to the text output and
/// returns the reports as JSON.
pub(crate) fn sanitizer_reports<'a>(
    out: &mut Output,
    devs: impl IntoIterator<Item = &'a Device>,
) -> Vec<serde_json::Value> {
    let mut reports = Vec::new();
    for report in devs.into_iter().filter_map(Device::sanitizer_report) {
        out.text.push('\n');
        out.text.push_str(&report.summarize());
        reports.push(serde_json::to_value(&report).unwrap_or_default());
    }
    reports
}

/// With `--profile FILE`: writes the Chrome trace to FILE and appends the
/// nvprof-style summary to the command's text and JSON output.
pub(crate) fn attach_profile(
    out: &mut Output,
    profile: &eta_prof::Profile,
    args: &Args,
) -> Result<(), ArgError> {
    let Some(path) = args.get("profile") else {
        return Ok(());
    };
    std::fs::write(path, profile.to_chrome_trace())
        .map_err(|e| ArgError(format!("writing profile {path}: {e}")))?;
    out.text.push('\n');
    out.text.push_str(&profile.summary_text());
    let _ = writeln!(out.text, "chrome trace written to {path}");
    let s = profile.summary();
    let summary = json!({
        "trace": path,
        "events": s.event_count,
        "kernel_busy_ns": s.kernel_busy_ns,
        "transfer_busy_ns": s.transfer_busy_ns,
        "overlap_ns": s.overlap_ns,
        "overlap_fraction": s.overlap_fraction,
        "makespan_ns": s.makespan_ns,
    });
    out.insert("profile", summary);
    Ok(())
}
