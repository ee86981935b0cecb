//! Replay exactness: the staged launch pipeline's counters, pinned.
//!
//! Record, coalesce, the L1 drain and the L2 drain are host-speed code —
//! they may be rewritten, never re-modelled. This pins the whole
//! `KernelMetrics` (bank conflicts, L1/L2 hits and misses, DRAM bytes,
//! stall cycles, cycles) and both clocks of four small runs, so a replay
//! drift fails `cargo test -q` in seconds rather than the 18-minute
//! `report all --check reports/`. The values were taken at the parent of
//! PR 18 (the per-access rewrite of those four stages); a change that moves
//! them on purpose is a model change and re-pins them with the reports.

use eta_graph::datasets;
use eta_sim::{Device, GpuConfig};
use etagraph::{engine, Algorithm, EtaConfig};

const PINNED: [(Algorithm, bool, &str); 4] = [
    (
        Algorithm::Bfs,
        true,
        "kernel_ns: 215955, total_ns: 298334, KernelMetrics { instructions: 32326, \
         cycles: 319605, time_ns: 215955, l1_requests: 61158, \
         l1: CacheStats { hits: 23361, misses: 37797 }, l2_requests: 37797, \
         l2: CacheStats { hits: 9058, misses: 28739 }, dram_transactions: 28739, \
         dram_write_transactions: 25452, dram_bytes: 1734112, shared_accesses: 9048, \
         shared_bank_conflicts: 166870, lane_ops: 623147, lane_slots: 1034432, \
         atomics: 115259, mem_stall_cycles: 3370622, warps: 624, occupancy_warps: 6, \
         data_ready_ns: 284461 }",
    ),
    (
        Algorithm::Bfs,
        false,
        "kernel_ns: 266220, total_ns: 348599, KernelMetrics { instructions: 26599, \
         cycles: 393995, time_ns: 266220, l1_requests: 119224, \
         l1: CacheStats { hits: 79782, misses: 39442 }, l2_requests: 39442, \
         l2: CacheStats { hits: 10206, misses: 29236 }, dram_transactions: 29236, \
         dram_write_transactions: 28083, dram_bytes: 1834208, shared_accesses: 0, \
         shared_bank_conflicts: 0, lane_ops: 505235, lane_slots: 851168, \
         atomics: 115259, mem_stall_cycles: 4405166, warps: 624, occupancy_warps: 6, \
         data_ready_ns: 333092 }",
    ),
    (
        Algorithm::Sssp,
        true,
        "kernel_ns: 751094, total_ns: 913549, KernelMetrics { instructions: 111955, \
         cycles: 1111590, time_ns: 751094, l1_requests: 231499, \
         l1: CacheStats { hits: 93458, misses: 138041 }, l2_requests: 138041, \
         l2: CacheStats { hits: 23139, misses: 114902 }, dram_transactions: 114902, \
         dram_write_transactions: 67422, dram_bytes: 5834368, shared_accesses: 45172, \
         shared_bank_conflicts: 821976, lane_ops: 2072128, lane_slots: 3582560, \
         atomics: 289498, mem_stall_cycles: 9782128, warps: 1488, occupancy_warps: 8, \
         data_ready_ns: 905548 }",
    ),
    (
        Algorithm::Sssp,
        false,
        "kernel_ns: 1137126, total_ns: 1299581, KernelMetrics { instructions: 83393, \
         cycles: 1682921, time_ns: 1137126, l1_requests: 518705, \
         l1: CacheStats { hits: 373017, misses: 145688 }, l2_requests: 145688, \
         l2: CacheStats { hits: 28478, misses: 117210 }, dram_transactions: 117210, \
         dram_write_transactions: 80380, dram_bytes: 6322880, shared_accesses: 0, \
         shared_bank_conflicts: 0, lane_ops: 1491056, lane_slots: 2668576, \
         atomics: 289498, mem_stall_cycles: 15043640, warps: 1488, occupancy_warps: 8, \
         data_ready_ns: 1291693 }",
    ),
];

#[test]
fn slashdot_counters_and_clocks_are_pinned() {
    let d = datasets::build("slashdot");
    let weighted = d.weighted();
    for (alg, smp, want) in PINNED {
        let g = if alg.needs_weights() {
            &weighted
        } else {
            &d.csr
        };
        let cfg = if smp {
            EtaConfig::paper()
        } else {
            EtaConfig::without_smp()
        };
        let mut dev = Device::new(GpuConfig::default_preset());
        let r = engine::run(&mut dev, g, d.source, alg, &cfg).expect("slashdot fits the device");
        let got = format!(
            "kernel_ns: {}, total_ns: {}, {:?}",
            r.kernel_ns, r.total_ns, r.metrics
        );
        assert_eq!(got, want, "{alg:?}, smp {smp}");
    }
}
