//! Replay exactness: the staged launch pipeline's counters, pinned.
//!
//! Record, coalesce, the L1 drain and the L2 drain are host-speed code —
//! they may be rewritten, never re-modelled. This pins the whole
//! `KernelMetrics` (bank conflicts, L1/L2 hits and misses, DRAM bytes,
//! stall cycles, cycles) and both clocks of small runs, so a replay drift
//! fails `cargo test -q` in seconds rather than the 18-minute
//! `report all --check reports/`. A change that moves a value on purpose is
//! a model change and re-pins it with the reports.
//!
//! Two sets. `PINNED` (taken at the parent of PR 18, the per-access rewrite
//! of the four stages) runs slashdot on the default 28-SM machine, where no
//! launch exceeds 28 blocks: one wave each. `PINNED_WAVES` (taken at the
//! parent of PR 22, which made the wave the unit of the pipeline) runs it on
//! a 4-SM machine, so launches span many waves with ragged tails, under
//! prefetch, demand and adaptive transfer, and pins the UM statistics too.
//! `um_migrations_follow_block_order` is the black-box check of the
//! canonical order itself.

use eta_graph::datasets::{self, Dataset};
use eta_graph::Csr;
use eta_mem::system::DSlice;
use eta_mem::timeline::SpanKind;
use eta_sim::{Device, GpuConfig, Kernel, LaunchConfig, WarpCtx, WARP_SIZE};
use etagraph::{engine, Algorithm, EtaConfig, RunResult, TransferMode};

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

/// Both clocks and the whole `KernelMetrics` of one slashdot run.
fn clocks_and_metrics(r: &RunResult) -> String {
    format!(
        "kernel_ns: {}, total_ns: {}, {:?}",
        r.kernel_ns, r.total_ns, r.metrics
    )
}

/// Slashdot with its weighted copy, built once per test.
struct Slashdot {
    d: Dataset,
    weighted: Csr,
}

impl Slashdot {
    fn build() -> Self {
        let d = datasets::build("slashdot");
        let weighted = d.weighted();
        Slashdot { d, weighted }
    }

    fn run(&self, gpu: GpuConfig, alg: Algorithm, cfg: &EtaConfig) -> RunResult {
        let g = if alg.needs_weights() {
            &self.weighted
        } else {
            &self.d.csr
        };
        let mut dev = Device::new(gpu);
        engine::run(&mut dev, g, self.d.source, alg, cfg).expect("slashdot fits the device")
    }
}

#[test]
fn slashdot_counters_and_clocks_are_pinned() {
    let slashdot = Slashdot::build();
    for (alg, smp, want) in PINNED {
        let cfg = if smp {
            EtaConfig::paper()
        } else {
            EtaConfig::without_smp()
        };
        let r = slashdot.run(GpuConfig::default_preset(), alg, &cfg);
        assert_eq!(clocks_and_metrics(&r), want, "{alg:?}, smp {smp}");
    }
}

/// The pinned line: clocks, `KernelMetrics` and the UM statistics (`digest`
/// folds the demand-batch and prefetch-chunk sizes in issue order, so a
/// reordered migration moves it).
const PINNED_WAVES: [(Algorithm, TransferMode, &str); 6] = [
    (
        Algorithm::Bfs,
        TransferMode::UnifiedPrefetch,
        "kernel_ns: 79322, total_ns: 161701, KernelMetrics { instructions: 32326, cycles: \
         117389, time_ns: 79322, l1_requests: 61158, l1: CacheStats { hits: 17996, misses: \
         43162 }, l2_requests: 43162, l2: CacheStats { hits: 20500, misses: 22662 }, \
         dram_transactions: 22662, dram_write_transactions: 9746, dram_bytes: 1037056, \
         shared_accesses: 9048, shared_bank_conflicts: 166870, lane_ops: 623147, lane_slots: \
         1034432, atomics: 115259, mem_stall_cycles: 3290854, warps: 624, occupancy_warps: \
         36, data_ready_ns: 151805 }, um: batches 0 chunks 2 faults 0 evicted 0 migrated 0 \
         prefetched 404528 digest 0x80040000dc2ae0",
    ),
    (
        Algorithm::Bfs,
        TransferMode::Unified,
        "kernel_ns: 79322, total_ns: 183187, KernelMetrics { instructions: 32326, cycles: \
         117389, time_ns: 79322, l1_requests: 61158, l1: CacheStats { hits: 17996, misses: \
         43162 }, l2_requests: 43162, l2: CacheStats { hits: 20500, misses: 22662 }, \
         dram_transactions: 22662, dram_write_transactions: 9746, dram_bytes: 1037056, \
         shared_accesses: 9048, shared_bank_conflicts: 166870, lane_ops: 623147, lane_slots: \
         1034432, atomics: 115259, mem_stall_cycles: 3290854, warps: 624, occupancy_warps: \
         36, data_ready_ns: 173291 }, um: batches 8 chunks 0 faults 21 evicted 0 migrated \
         404524 prefetched 0 digest 0x7af5f5c0b501aec4",
    ),
    (
        Algorithm::Bfs,
        TransferMode::Adaptive,
        "kernel_ns: 79322, total_ns: 161397, KernelMetrics { instructions: 32326, cycles: \
         117389, time_ns: 79322, l1_requests: 61158, l1: CacheStats { hits: 17996, misses: \
         43162 }, l2_requests: 43162, l2: CacheStats { hits: 20500, misses: 22662 }, \
         dram_transactions: 22662, dram_write_transactions: 9746, dram_bytes: 1037056, \
         shared_accesses: 9048, shared_bank_conflicts: 166870, lane_ops: 623147, lane_slots: \
         1034432, atomics: 115259, mem_stall_cycles: 3290854, warps: 624, occupancy_warps: \
         36, data_ready_ns: 151501 }, um: batches 1 chunks 2 faults 1 evicted 0 migrated \
         32768 prefetched 371760 digest 0xb280040170be2ae0",
    ),
    (
        Algorithm::Sssp,
        TransferMode::UnifiedPrefetch,
        "kernel_ns: 295024, total_ns: 457479, KernelMetrics { instructions: 111955, cycles: \
         436608, time_ns: 295024, l1_requests: 231499, l1: CacheStats { hits: 78600, misses: \
         152899 }, l2_requests: 152899, l2: CacheStats { hits: 56546, misses: 96353 }, \
         dram_transactions: 96353, dram_write_transactions: 24338, dram_bytes: 3862112, \
         shared_accesses: 45172, shared_bank_conflicts: 821976, lane_ops: 2072128, \
         lane_slots: 3582560, atomics: 289498, mem_stall_cycles: 9624868, warps: 1488, \
         occupancy_warps: 50, data_ready_ns: 450368 }, um: batches 0 chunks 3 faults 0 \
         evicted 0 migrated 0 prefetched 776284 digest 0xb5b1ac017619768c",
    ),
    (
        Algorithm::Sssp,
        TransferMode::Unified,
        "kernel_ns: 295024, total_ns: 511428, KernelMetrics { instructions: 111955, cycles: \
         436608, time_ns: 295024, l1_requests: 231499, l1: CacheStats { hits: 78600, misses: \
         152899 }, l2_requests: 152899, l2: CacheStats { hits: 56546, misses: 96353 }, \
         dram_transactions: 96353, dram_write_transactions: 24338, dram_bytes: 3862112, \
         shared_accesses: 45172, shared_bank_conflicts: 821976, lane_ops: 2072128, \
         lane_slots: 3582560, atomics: 289498, mem_stall_cycles: 9624868, warps: 1488, \
         occupancy_warps: 50, data_ready_ns: 504317 }, um: batches 15 chunks 0 faults 41 \
         evicted 0 migrated 776280 prefetched 0 digest 0x314ced441f4df820",
    ),
    (
        Algorithm::Sssp,
        TransferMode::Adaptive,
        "kernel_ns: 295024, total_ns: 461752, KernelMetrics { instructions: 111955, cycles: \
         436608, time_ns: 295024, l1_requests: 231499, l1: CacheStats { hits: 78600, misses: \
         152899 }, l2_requests: 152899, l2: CacheStats { hits: 56546, misses: 96353 }, \
         dram_transactions: 96353, dram_write_transactions: 24338, dram_bytes: 3862112, \
         shared_accesses: 45172, shared_bank_conflicts: 821976, lane_ops: 2072128, \
         lane_slots: 3582560, atomics: 289498, mem_stall_cycles: 9624868, warps: 1488, \
         occupancy_warps: 50, data_ready_ns: 454641 }, um: batches 2 chunks 3 faults 2 \
         evicted 0 migrated 65536 prefetched 710748 digest 0x50b5d4a8594a768c",
    ),
];

#[test]
fn multi_wave_counters_clocks_and_um_stats_are_pinned() {
    let slashdot = Slashdot::build();
    let gpu = GpuConfig {
        num_sms: 4,
        ..GpuConfig::default_preset()
    };
    for (alg, transfer, want) in PINNED_WAVES {
        let cfg = EtaConfig {
            transfer,
            ..EtaConfig::paper()
        };
        let r = slashdot.run(gpu, alg, &cfg);
        let um = &r.um_stats;
        let digest = um
            .all_sizes()
            .iter()
            .fold(0u64, |h, &b| h.wrapping_mul(0x100_0000_01b3) ^ b);
        let got = format!(
            "{}, um: batches {} chunks {} faults {} evicted {} migrated {} prefetched {} digest {digest:#x}",
            clocks_and_metrics(&r),
            um.migration_batches.len(),
            um.prefetch_chunks.len(),
            um.faults,
            um.evicted_pages,
            um.migrated_bytes,
            um.prefetched_bytes,
        );
        assert_eq!(got, want, "{alg:?}, {transfer:?}");
    }
}

/// Lane 0 of block `b` reads the first word of `pages[b]`.
struct FirstTouch {
    pages: Vec<DSlice>,
}

impl Kernel for FirstTouch {
    fn name(&self) -> &'static str {
        "first_touch"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let id = w.id();
        if id.warp_in_block == 0 {
            w.load(self.pages[id.block as usize], &[0; WARP_SIZE], 1);
        }
    }
}

/// The canonical order is block order: over three full waves and a ragged
/// tail of a 4-SM machine, block `b` first-touches unified allocation
/// `pi(b)`, each a single partial page of its own size, so the demand
/// migrations on the link name their blocks — and must come in block order.
#[test]
fn um_migrations_follow_block_order() {
    const BLOCKS: u32 = 3 * 4 + 2;
    let pi = |b: u32| (5 * b + 3) % BLOCKS;
    for host_threads in [1, 4] {
        let mut dev = Device::new(
            GpuConfig {
                num_sms: 4,
                ..GpuConfig::default_preset()
            }
            .with_host_threads(host_threads),
        );
        let bytes_of = |i: u32| 32 * (i as u64 + 1);
        let allocs: Vec<DSlice> = (0..BLOCKS)
            .map(|i| dev.mem.alloc_unified(bytes_of(i) / 4))
            .collect();
        let kernel = FirstTouch {
            pages: (0..BLOCKS).map(|b| allocs[pi(b) as usize]).collect(),
        };
        let launch = LaunchConfig {
            blocks: BLOCKS,
            threads_per_block: 64,
        };
        dev.launch(&kernel, launch, 0);
        let migrated: Vec<u64> = dev
            .mem
            .pcie
            .timeline
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Migration)
            .map(|s| s.bytes)
            .collect();
        let want: Vec<u64> = (0..BLOCKS).map(|b| bytes_of(pi(b))).collect();
        assert_eq!(migrated, want, "{host_threads} host thread(s)");
    }
}
