//! Host-parallelism byte-identity: `--host-threads` may only change host
//! wall-clock, never a simulated artifact.
//!
//! A multi-wave launch at two or more host threads records, coalesces and
//! replays residency for later blocks on the calling thread while a worker
//! drains the L1s and the L2 for earlier ones (DESIGN.md, "Host
//! parallelism").
//! These tests pin the contract that pipeline exists to keep: every
//! observable artifact — run results down to the last counter, the
//! sanitizer report, the profiler trace, the transfer timeline (part of the
//! run result's debug rendering) — is
//! byte-identical at one, two and four host threads, across algorithms
//! and transfer backends, on arbitrary graphs.

use eta_graph::generate::{rmat, RmatConfig};
use eta_graph::Csr;
use eta_sim::{Device, GpuConfig, SanitizerMode};
use etagraph::{engine, Algorithm, EtaConfig, TransferMode};
use proptest::prelude::*;

/// Every simulated artifact of one sanitized, profiled run, rendered to
/// comparable bytes.
#[derive(Debug, Clone, PartialEq)]
struct Artifacts {
    run: String,
    sanitizer: String,
    profile: String,
}

fn run_artifacts(
    g: &Csr,
    source: u32,
    alg: Algorithm,
    mode: TransferMode,
    host_threads: usize,
) -> Artifacts {
    let gpu = GpuConfig::default_preset()
        .with_host_threads(host_threads)
        .with_sanitizer(SanitizerMode::Full)
        .with_profiling();
    let mut dev = Device::new(gpu);
    let cfg = EtaConfig {
        transfer: mode,
        ..EtaConfig::paper()
    };
    let r = engine::run(&mut dev, g, source, alg, &cfg).expect("host-backed run cannot OOM");
    let report = dev.sanitizer_report().expect("sanitizer was attached");
    Artifacts {
        run: format!("{r:?}"),
        sanitizer: serde_json::to_string(&report).expect("report serializes"),
        profile: dev.profile().to_chrome_trace(),
    }
}

/// Strategy: an arbitrary weighted digraph (≤ 96 vertices) plus a source.
fn arb_weighted_with_source() -> impl Strategy<Value = (Csr, u32)> {
    (2usize..96, 0u64..u64::MAX, any::<proptest::sample::Index>()).prop_flat_map(
        |(n, seed, idx)| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..400).prop_map(move |edges| {
                let g = Csr::from_edges(n, &edges).with_random_weights(seed, 32);
                (g, idx.index(n) as u32)
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One, two and four host threads produce byte-identical artifacts for
    /// every algorithm × transfer backend on arbitrary graphs.
    #[test]
    fn artifacts_are_byte_identical_across_host_threads(
        (g, src) in arb_weighted_with_source(),
        alg_pick in any::<proptest::sample::Index>(),
        mode_pick in any::<proptest::sample::Index>(),
    ) {
        const ALGS: [Algorithm; 4] =
            [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Sswp, Algorithm::Cc];
        const MODES: [TransferMode; 5] = [
            TransferMode::Unified, TransferMode::UnifiedPrefetch, TransferMode::ExplicitCopy,
            TransferMode::ZeroCopy, TransferMode::Adaptive,
        ];
        let alg = ALGS[alg_pick.index(ALGS.len())];
        let mode = MODES[mode_pick.index(MODES.len())];
        let serial = run_artifacts(&g, src, alg, mode, 1);
        for host_threads in [2, 4] {
            prop_assert_eq!(&serial, &run_artifacts(&g, src, alg, mode, host_threads));
        }
    }
}

/// Sharded traversal: per-device launches at 1, 2 and 4 host threads agree
/// on labels, timing, exchange volume, and every merged counter.
#[test]
fn sharded_run_is_identical_across_host_threads() {
    let g = rmat(&RmatConfig::paper(9, 4_000, 17));
    let part = eta_shard::GraphPartition::vertex_range(&g, 2);
    let run = |host_threads: usize| {
        let gpu = GpuConfig::default_preset().with_host_threads(host_threads);
        let mut devs: Vec<Device> = (0..2).map(|_| Device::new(gpu)).collect();
        let mut fabric = eta_mem::PeerFabric::nvlink(2);
        let r = etagraph::sharded::run_sharded(
            &mut devs,
            &mut fabric,
            &part,
            0,
            Algorithm::Bfs,
            &EtaConfig::paper(),
        )
        .expect("sharded run");
        format!("{r:?}")
    };
    let serial = run(1);
    assert_eq!(serial, run(2));
    assert_eq!(serial, run(4));
}
