//! Integration tests for the `eta-prof` profiling layer: overlap visibility
//! on a UM-oversubscribed run, byte-determinism of every sink, and the
//! PROFILING.md contract that each documented counter is actually emitted.

use eta_graph::generate::{rmat, RmatConfig};
use eta_prof::{Profile, Track};
use eta_sim::{Device, GpuConfig};
use etagraph::{Algorithm, EtaConfig};
use serde_json::Value;

/// One BFS on a device sized below the run's working set (CSR + labels +
/// frontier state), so UM pages the topology while kernels run (the Fig. 4
/// overlap), with profiling on.
fn oversubscribed_bfs() -> Device {
    let g = rmat(&RmatConfig::paper(13, 94_000, 0x51));
    let device_mem = (g.m() as f64 * 1.5 * 4.0) as u64;
    let gpu = GpuConfig::gtx1080ti_scaled(device_mem).with_profiling();
    let mut dev = Device::new(gpu);
    etagraph::engine::run(&mut dev, &g, 0, Algorithm::Bfs, &EtaConfig::paper())
        .expect("UM oversubscription must not OOM");
    dev
}

/// The `traceEvents` of a Chrome trace, read as JSON.
fn trace_events(trace: &str) -> Vec<Value> {
    let trace: Value = serde_json::from_str(trace).expect("the Chrome trace is JSON");
    trace["traceEvents"]
        .as_array()
        .expect("traceEvents")
        .clone()
}

#[test]
fn oversubscribed_bfs_profile_shows_transfer_compute_overlap() {
    let dev = oversubscribed_bfs();
    let p = dev.profile();
    assert!(p.kernel_busy_ns() > 0, "kernel track empty");
    assert!(p.transfer_busy_ns() > 0, "no UM/PCIe traffic recorded");
    assert!(
        p.overlap_ns() > 0,
        "demand-paged BFS must overlap migrations with compute"
    );
    let um_events = p.processes[0]
        .events
        .iter()
        .filter(|e| e.track == Track::Um)
        .count();
    assert!(um_events > 0, "migrations/evictions missing from Um track");

    // The Chrome trace shows the overlap as distinct, named tracks.
    let events = trace_events(&p.to_chrome_trace());
    for (track, label) in [(Track::Kernel, "kernels"), (Track::Um, "unified memory")] {
        let on = |e: &&Value| e["tid"] == track.tid();
        assert!(events
            .iter()
            .filter(on)
            .any(|e| e["name"] == "thread_name" && e["args"]["name"] == label));
        assert!(
            events.iter().filter(on).any(|e| e["ph"] == "X"),
            "{label} spans"
        );
    }
}

#[test]
fn every_sink_is_byte_identical_across_runs() {
    let a = oversubscribed_bfs().profile();
    let b = oversubscribed_bfs().profile();
    assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.summary_text(), b.summary_text());
}

#[test]
fn json_sinks_are_structurally_valid() {
    let p = oversubscribed_bfs().profile();
    let spans = trace_events(&p.to_chrome_trace())
        .into_iter()
        .filter(|e| e["ph"] != "M")
        .count();
    assert_eq!(spans, p.event_count(), "one trace event per recorded event");
    let json: Value = serde_json::from_str(&p.to_json()).expect("to_json is JSON");
    assert_eq!(json["schema"], "eta-prof-v1");
    assert_eq!(json["summary"]["event_count"], p.event_count());
}

#[test]
fn every_counter_documented_in_profiling_md_is_emitted() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/PROFILING.md"))
        .expect("PROFILING.md must exist at the repo root");
    let start = doc
        .find("<!-- counters:begin -->")
        .expect("counters:begin marker");
    let end = doc
        .find("<!-- counters:end -->")
        .expect("counters:end marker");
    let table = &doc[start..end];
    // Counter names are the first backticked token of each table row.
    let documented: Vec<&str> = table
        .lines()
        .filter(|l| l.trim_start().starts_with("| `"))
        .filter_map(|l| {
            let open = l.find('`')? + 1;
            let close = l[open..].find('`')? + open;
            Some(&l[open..close])
        })
        .collect();
    assert!(
        documented.len() >= 20,
        "marker block lists the counter table, found {documented:?}"
    );
    let events = trace_events(&oversubscribed_bfs().profile().to_chrome_trace());
    let emitted = |name: &str| {
        events
            .iter()
            .any(|e| e["ph"] != "M" && e["args"].get(name).is_some())
    };
    for name in documented {
        assert!(
            emitted(name),
            "PROFILING.md documents counter {name:?} but no event emits it"
        );
    }
}

#[test]
fn disabled_profiling_is_the_default_and_records_nothing() {
    let g = rmat(&RmatConfig::paper(10, 8_000, 3));
    let mut dev = Device::new(GpuConfig::default_preset());
    etagraph::engine::run(&mut dev, &g, 0, Algorithm::Bfs, &EtaConfig::paper()).unwrap();
    let p = dev.profile();
    assert_eq!(p.event_count(), 0);
    assert_eq!(
        p.processes[0].events.capacity(),
        0,
        "no allocation when off"
    );
    // An empty profile still renders every sink deterministically.
    assert_eq!(
        Profile::single("device", Vec::new()).summary_text(),
        p.summary_text()
    );
}
