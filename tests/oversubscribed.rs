//! The adaptive policy on a device that cannot hold the topology.
//!
//! The device holds the engine's explicit working set plus half the
//! topology (the `oversub_transfer` benchmark's sizing). Streaming a region
//! that does not fit evicts its own pages before the wave reads them, so
//! the adaptive policy must price the stream and read over the link
//! instead: its labels stay the CPU reference's, its total lands at or
//! under every static routing, and it moves less onto the device than the
//! topology holds.

use eta_graph::generate::{rmat, RmatConfig};
use eta_graph::{reference, Csr};
use eta_sim::{Device, GpuConfig};
use etagraph::{engine, Algorithm, EtaConfig, TransferMode};

const STATIC_MODES: [TransferMode; 3] = [
    TransferMode::Unified,
    TransferMode::UnifiedPrefetch,
    TransferMode::ZeroCopy,
];

#[test]
fn adaptive_reads_over_the_link_when_the_topology_does_not_fit() {
    let plain = rmat(&RmatConfig::paper(12, 60_000, 5));
    let weighted = plain.clone().with_random_weights(5, 32);
    let source = (0..plain.n() as u32)
        .max_by_key(|&v| plain.degree(v))
        .unwrap();
    for (alg, g) in [(Algorithm::Bfs, &plain), (Algorithm::Sssp, &weighted)] {
        let device_bytes = engine::footprint_bytes(g, &EtaConfig::paper()) + g.topology_bytes() / 2;
        let run = |transfer: TransferMode| {
            let mut dev = Device::new(GpuConfig::gtx1080ti_scaled(device_bytes));
            let cfg = EtaConfig {
                transfer,
                ..EtaConfig::paper()
            };
            let r = engine::run(&mut dev, g, source, alg, &cfg).unwrap();
            (r, dev.mem.adaptive_totals())
        };
        let (adaptive, totals) = run(TransferMode::Adaptive);
        let linked = totals.map_or(0, |t| t.linked);
        assert!(linked > 0, "{alg:?}: no region took the link: {totals:?}");
        assert_eq!(adaptive.labels, cpu_reference(g, alg, source), "{alg:?}");
        for mode in STATIC_MODES {
            let (r, _) = run(mode);
            assert!(
                adaptive.total_ns <= r.total_ns,
                "{alg:?}: adaptive {} ns over {mode:?} {} ns",
                adaptive.total_ns,
                r.total_ns
            );
        }
        let moved = adaptive.um_stats.migrated_bytes + adaptive.um_stats.prefetched_bytes;
        assert!(
            moved < g.topology_bytes(),
            "{alg:?}: adaptive moved {moved} B of a {} B topology",
            g.topology_bytes()
        );
    }
}

fn cpu_reference(g: &Csr, alg: Algorithm, source: u32) -> Vec<u32> {
    match alg {
        Algorithm::Bfs => reference::bfs(g, source),
        _ => reference::sssp(g, source),
    }
}
