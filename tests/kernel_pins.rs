//! Every kernel family, pinned in seconds.
//!
//! `replay_exact.rs` pins EtaGraph BFS and SSSP: the traversal kernel, the
//! in-core cut and nothing else. The other kernels — SSWP and CC relaxation,
//! pull BFS, the out-of-core cut, PageRank's four passes with and without
//! SMP, multi-BFS, and the four baseline execution models — were checked
//! only by the full `report all --check`. Each line below holds both clocks
//! and the whole `KernelMetrics` of one small run on slashdot (28 SMs, one
//! wave per launch), in `replay_exact.rs`'s form. A kernel refactor keeps
//! every line byte-identical; a change that moves one on purpose is a model
//! change and re-pins it together with the reports.
//!
//! Device groups get the same treatment: sharded BFS, SSSP and PageRank on
//! slashdot split by vertex range, each line adding the supersteps and the
//! halo exchange's bytes to the summed counters of every member.

use eta_baselines::{ChunkStream, CushaLike, Framework, GunrockLike, TigrLike};
use eta_graph::datasets::{self, Dataset};
use eta_graph::Csr;
use eta_mem::{Ns, PeerFabric};
use eta_shard::GraphPartition;
use eta_sim::{Device, GpuConfig, KernelMetrics};
use etagraph::pagerank::{self, PageRankConfig};
use etagraph::sharded::{run_sharded, run_sharded_pagerank};
use etagraph::{engine, multi_bfs, Algorithm, EtaConfig, RunResult};

/// Both clocks and the whole `KernelMetrics` of one run.
fn line(kernel_ns: Ns, total_ns: Ns, metrics: &KernelMetrics) -> String {
    format!("kernel_ns: {kernel_ns}, total_ns: {total_ns}, {metrics:?}")
}

fn clocks_and_metrics(r: &RunResult) -> String {
    line(r.kernel_ns, r.total_ns, &r.metrics)
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

    fn graph(&self, alg: Algorithm) -> &Csr {
        if alg.needs_weights() {
            &self.weighted
        } else {
            &self.d.csr
        }
    }

    fn eta(&self, alg: Algorithm, cfg: &EtaConfig) -> RunResult {
        let mut dev = Device::new(GpuConfig::default_preset());
        engine::run(&mut dev, self.graph(alg), self.d.source, alg, cfg)
            .expect("slashdot fits the device")
    }
}

#[test]
fn etagraph_kernel_families_are_pinned() {
    let s = Slashdot::build();
    let sswp = s.eta(Algorithm::Sswp, &EtaConfig::paper());
    let cc = s.eta(Algorithm::Cc, &EtaConfig::paper());
    let pull = s.eta(Algorithm::Bfs, &EtaConfig::direction_optimizing());
    assert!(
        pull.per_iteration.iter().any(|it| it.pulled),
        "the pull kernel must run"
    );
    let ooc = s.eta(Algorithm::Bfs, &EtaConfig::out_of_core());
    let got = [
        ("SSWP", clocks_and_metrics(&sswp)),
        ("CC", clocks_and_metrics(&cc)),
        ("pull BFS", clocks_and_metrics(&pull)),
        ("out-of-core BFS", clocks_and_metrics(&ooc)),
    ];
    for ((what, got), want) in got.iter().zip(PINNED_ETA) {
        assert_eq!(got, want, "{what}");
    }
}

#[test]
fn pagerank_and_multi_bfs_are_pinned() {
    let s = Slashdot::build();
    let rank = |eta: EtaConfig| {
        let cfg = PageRankConfig {
            iterations: 5,
            eta,
            ..PageRankConfig::default()
        };
        let r = pagerank::run(
            &mut Device::new(GpuConfig::default_preset()),
            &s.d.csr,
            &cfg,
        )
        .expect("slashdot fits the device");
        line(r.kernel_ns, r.total_ns, &r.metrics)
    };
    let sources = [s.d.source, 0, 17, 123, 4000];
    let multi = multi_bfs::run(
        &mut Device::new(GpuConfig::default_preset()),
        &s.d.csr,
        &sources,
        &EtaConfig::paper(),
    )
    .expect("slashdot fits the device");
    let got = [
        ("PageRank, SMP", rank(EtaConfig::paper())),
        ("PageRank, no SMP", rank(EtaConfig::without_smp())),
        (
            "multi-BFS",
            line(multi.kernel_ns, multi.total_ns, &multi.metrics),
        ),
    ];
    for ((what, got), want) in got.iter().zip(PINNED_PAGERANK_MULTI) {
        assert_eq!(got, want, "{what}");
    }
}

#[test]
fn baseline_models_are_pinned() {
    let s = Slashdot::build();
    let frameworks: [&dyn Framework; 4] = [
        &GunrockLike::default(),
        &TigrLike::default(),
        &CushaLike::default(),
        &ChunkStream::default(),
    ];
    let mut want = PINNED_BASELINES.iter();
    for fw in frameworks {
        for alg in [Algorithm::Bfs, Algorithm::Sssp] {
            let mut dev = Device::new(GpuConfig::default_preset());
            let r = fw
                .run(&mut dev, s.graph(alg), s.d.source, alg)
                .expect("slashdot fits the device");
            let want = want.next().expect("one pinned line per run");
            assert_eq!(&clocks_and_metrics(&r), want, "{}, {alg:?}", fw.name());
        }
    }
    assert!(want.next().is_none(), "every pinned line runs");
}

/// A device group's line: both clocks, the supersteps (or iterations), the
/// bytes the halo exchange moved and the kernel counters of every member.
fn group_line(kernel_ns: Ns, total_ns: Ns, steps: u32, bytes: u64, m: &KernelMetrics) -> String {
    let counters = line(kernel_ns, total_ns, m);
    format!("{counters}, supersteps: {steps}, exchanged_bytes: {bytes}")
}

#[test]
fn device_groups_are_pinned() {
    let s = Slashdot::build();
    let group = |csr: &Csr, n: u32| -> (Vec<Device>, PeerFabric, GraphPartition) {
        let devs = (0..n).map(|_| Device::new(GpuConfig::default_preset()));
        let part = GraphPartition::vertex_range(csr, n);
        (devs.collect(), PeerFabric::nvlink(n), part)
    };
    let traverse = |alg: Algorithm, n: u32| {
        let (mut devs, mut fabric, part) = group(s.graph(alg), n);
        let cfg = EtaConfig::paper();
        let r = run_sharded(&mut devs, &mut fabric, &part, s.d.source, alg, &cfg)
            .expect("slashdot fits the group");
        group_line(
            r.kernel_ns,
            r.total_ns,
            r.supersteps,
            r.exchanged_bytes,
            &r.metrics,
        )
    };
    let rank = {
        let (mut devs, mut fabric, part) = group(&s.d.csr, 2);
        let cfg = PageRankConfig {
            iterations: 3,
            ..PageRankConfig::default()
        };
        let r = run_sharded_pagerank(&mut devs, &mut fabric, &part, &s.d.csr, &cfg)
            .expect("slashdot fits the group");
        group_line(
            r.kernel_ns,
            r.total_ns,
            r.iterations,
            r.exchanged_bytes,
            &r.metrics,
        )
    };
    let got = [
        ("BFS on 2", traverse(Algorithm::Bfs, 2)),
        ("BFS on 4", traverse(Algorithm::Bfs, 4)),
        ("SSSP on 2", traverse(Algorithm::Sssp, 2)),
        ("PageRank on 2", rank),
    ];
    for ((what, got), want) in got.iter().zip(PINNED_GROUPS) {
        assert_eq!(got, want, "{what}");
    }
}

const PINNED_GROUPS: [&str; 4] = [
    // BFS on 2
    "kernel_ns: 554559, total_ns: 401056, KernelMetrics { instructions: 38074, cycles: \
     820729, time_ns: 554559, l1_requests: 71450, l1: CacheStats { hits: 29202, \
     misses: 42248 }, l2_requests: 42248, l2: CacheStats { hits: 11520, misses: 30728 \
     }, dram_transactions: 30728, dram_write_transactions: 28095, dram_bytes: 1882336, \
     shared_accesses: 9174, shared_bank_conflicts: 166668, lane_ops: 686453, \
     lane_slots: 1218368, atomics: 123509, mem_stall_cycles: 4028438, warps: 872, \
     occupancy_warps: 5, data_ready_ns: 393527 }, supersteps: 6, exchanged_bytes: \
     52616",
    // BFS on 4
    "kernel_ns: 1110028, total_ns: 433520, KernelMetrics { instructions: 44751, \
     cycles: 1642809, time_ns: 1110028, l1_requests: 86927, l1: CacheStats { hits: \
     38275, misses: 48652 }, l2_requests: 48652, l2: CacheStats { hits: 15873, misses: \
     32779 }, dram_transactions: 32779, dram_write_transactions: 30949, dram_bytes: \
     2039296, shared_accesses: 9338, shared_bank_conflicts: 166344, lane_ops: 777283, \
     lane_slots: 1432032, atomics: 139235, mem_stall_cycles: 4849250, warps: 1304, \
     occupancy_warps: 4, data_ready_ns: 427128 }, supersteps: 6, exchanged_bytes: \
     130208",
    // SSSP on 2
    "kernel_ns: 1649809, total_ns: 1099723, KernelMetrics { instructions: 138793, \
     cycles: 2441667, time_ns: 1649809, l1_requests: 279187, l1: CacheStats { hits: \
     116480, misses: 162707 }, l2_requests: 162707, l2: CacheStats { hits: 32053, \
     misses: 130654 }, dram_transactions: 130654, dram_write_transactions: 80681, \
     dram_bytes: 6762720, shared_accesses: 50432, shared_bank_conflicts: 887204, \
     lane_ops: 2425990, lane_slots: 4441376, atomics: 335813, mem_stall_cycles: \
     12513710, warps: 2320, occupancy_warps: 8, data_ready_ns: 1092845 }, supersteps: \
     13, exchanged_bytes: 135112",
    // PageRank on 2
    "kernel_ns: 50607, total_ns: 100166, KernelMetrics { instructions: 75320, cycles: \
     74885, time_ns: 50607, l1_requests: 133155, l1: CacheStats { hits: 64505, misses: \
     68650 }, l2_requests: 68650, l2: CacheStats { hits: 1898, misses: 66752 }, \
     dram_transactions: 66752, dram_write_transactions: 59021, dram_bytes: 4024736, \
     shared_accesses: 30324, shared_bank_conflicts: 499152, lane_ops: 1688168, \
     lane_slots: 2410240, atomics: 286203, mem_stall_cycles: 9253818, warps: 4312, \
     occupancy_warps: 10, data_ready_ns: 97739 }, supersteps: 3, exchanged_bytes: \
     1114632",
];

const PINNED_ETA: [&str; 4] = [
    // SSWP
    "kernel_ns: 1059920, total_ns: 1276483, KernelMetrics { instructions: 127299, cycles: \
     1568636, time_ns: 1059920, l1_requests: 271687, l1: CacheStats { hits: 116082, \
     misses: 155605 }, l2_requests: 155605, l2: CacheStats { hits: 24210, misses: 131395 \
     }, dram_transactions: 131395, dram_write_transactions: 74533, dram_bytes: 6589696, \
     shared_accesses: 52528, shared_bank_conflicts: 1036960, lane_ops: 2485998, \
     lane_slots: 4073568, atomics: 347389, mem_stall_cycles: 10813962, warps: 1744, \
     occupancy_warps: 8, data_ready_ns: 1266932 }",
    // CC
    "kernel_ns: 51804, total_ns: 122159, KernelMetrics { instructions: 59074, cycles: \
     76663, time_ns: 51804, l1_requests: 101026, l1: CacheStats { hits: 40801, misses: \
     60225 }, l2_requests: 60225, l2: CacheStats { hits: 11277, misses: 48948 }, \
     dram_transactions: 48948, dram_write_transactions: 42692, dram_bytes: 2932480, \
     shared_accesses: 18250, shared_bank_conflicts: 334180, lane_ops: 1236189, \
     lane_slots: 1890368, atomics: 216969, mem_stall_cycles: 5900086, warps: 1160, \
     occupancy_warps: 10, data_ready_ns: 114398 }",
    // pull BFS
    "kernel_ns: 38044, total_ns: 144110, KernelMetrics { instructions: 13681, cycles: \
     56301, time_ns: 38044, l1_requests: 44402, l1: CacheStats { hits: 13954, misses: \
     30448 }, l2_requests: 30448, l2: CacheStats { hits: 15059, misses: 15389 }, \
     dram_transactions: 15389, dram_write_transactions: 1694, dram_bytes: 546656, \
     shared_accesses: 94, shared_bank_conflicts: 1130, lane_ops: 235064, lane_slots: \
     437792, atomics: 15506, mem_stall_cycles: 2577320, warps: 808, occupancy_warps: 10, \
     data_ready_ns: 130480 }",
    // out-of-core BFS
    "kernel_ns: 156704, total_ns: 253384, KernelMetrics { instructions: 35125, cycles: \
     231915, time_ns: 156704, l1_requests: 89743, l1: CacheStats { hits: 32242, misses: \
     57501 }, l2_requests: 57501, l2: CacheStats { hits: 10585, misses: 46916 }, \
     dram_transactions: 46916, dram_write_transactions: 27121, dram_bytes: 2369184, \
     shared_accesses: 9594, shared_bank_conflicts: 165548, lane_ops: 624601, lane_slots: \
     1124000, atomics: 113801, mem_stall_cycles: 4052894, warps: 592, occupancy_warps: 8, \
     data_ready_ns: 239511 }",
];

const PINNED_PAGERANK_MULTI: [&str; 3] = [
    // PageRank, SMP
    "kernel_ns: 45236, total_ns: 96931, KernelMetrics { instructions: 109019, cycles: \
     66931, time_ns: 45236, l1_requests: 199464, l1: CacheStats { hits: 99658, misses: \
     99806 }, l2_requests: 99806, l2: CacheStats { hits: 1696, misses: 98110 }, \
     dram_transactions: 98110, dram_write_transactions: 88531, dram_bytes: 5972512, \
     shared_accesses: 50330, shared_bank_conflicts: 832220, lane_ops: 2338478, \
     lane_slots: 3488608, atomics: 472081, mem_stall_cycles: 13287054, warps: 4456, \
     occupancy_warps: 12, data_ready_ns: 91258 }",
    // PageRank, no SMP
    "kernel_ns: 57026, total_ns: 108721, KernelMetrics { instructions: 77494, cycles: \
     84381, time_ns: 57026, l1_requests: 482424, l1: CacheStats { hits: 361518, misses: \
     120906 }, l2_requests: 120906, l2: CacheStats { hits: 22736, misses: 98170 }, \
     dram_transactions: 98170, dram_write_transactions: 100301, dram_bytes: 6351072, \
     shared_accesses: 0, shared_bank_conflicts: 0, lane_ops: 1742318, lane_slots: \
     2479808, atomics: 472081, mem_stall_cycles: 16717954, warps: 4456, occupancy_warps: \
     12, data_ready_ns: 103048 }",
    // multi-BFS
    "kernel_ns: 377722, total_ns: 516139, KernelMetrics { instructions: 78994, cycles: \
     559011, time_ns: 377722, l1_requests: 289710, l1: CacheStats { hits: 181394, misses: \
     108316 }, l2_requests: 108316, l2: CacheStats { hits: 22565, misses: 85751 }, \
     dram_transactions: 85751, dram_write_transactions: 118647, dram_bytes: 6540736, \
     shared_accesses: 0, shared_bank_conflicts: 0, lane_ops: 1268137, lane_slots: \
     2527808, atomics: 266747, mem_stall_cycles: 10808434, warps: 1880, occupancy_warps: \
     8, data_ready_ns: 492228 }",
];

const PINNED_BASELINES: [&str; 8] = [
    // Gunrock, Bfs
    "kernel_ns: 456381, total_ns: 546893, KernelMetrics { instructions: 29790, cycles: \
     675435, time_ns: 456381, l1_requests: 103474, l1: CacheStats { hits: 54721, misses: \
     48753 }, l2_requests: 48753, l2: CacheStats { hits: 14774, misses: 33979 }, \
     dram_transactions: 33979, dram_write_transactions: 19868, dram_bytes: 1723104, \
     shared_accesses: 0, shared_bank_conflicts: 0, lane_ops: 557094, lane_slots: 953280, \
     atomics: 106873, mem_stall_cycles: 4998414, warps: 760, occupancy_warps: 6, \
     data_ready_ns: 529634 }",
    // Gunrock, Sssp
    "kernel_ns: 1144555, total_ns: 1311785, KernelMetrics { instructions: 115680, cycles: \
     1693907, time_ns: 1144555, l1_requests: 435648, l1: CacheStats { hits: 246491, \
     misses: 189157 }, l2_requests: 189157, l2: CacheStats { hits: 48481, misses: 140676 \
     }, dram_transactions: 140676, dram_write_transactions: 81931, dram_bytes: 7123424, \
     shared_accesses: 0, shared_bank_conflicts: 0, lane_ops: 1814038, lane_slots: \
     3701760, atomics: 301828, mem_stall_cycles: 21405628, warps: 2512, occupancy_warps: \
     8, data_ready_ns: 1303462 }",
    // Tigr, Bfs
    "kernel_ns: 118070, total_ns: 221328, KernelMetrics { instructions: 25803, cycles: \
     174735, time_ns: 118070, l1_requests: 137562, l1: CacheStats { hits: 86339, misses: \
     51223 }, l2_requests: 51223, l2: CacheStats { hits: 11900, misses: 39323 }, \
     dram_transactions: 39323, dram_write_transactions: 28897, dram_bytes: 2183040, \
     shared_accesses: 0, shared_bank_conflicts: 0, lane_ops: 495617, lane_slots: 825696, \
     atomics: 113801, mem_stall_cycles: 4483902, warps: 592, occupancy_warps: 8, \
     data_ready_ns: 204279 }",
    // Tigr, Sssp
    "kernel_ns: 537095, total_ns: 721079, KernelMetrics { instructions: 84099, cycles: \
     794881, time_ns: 537095, l1_requests: 565057, l1: CacheStats { hits: 389799, misses: \
     175258 }, l2_requests: 175258, l2: CacheStats { hits: 33632, misses: 141626 }, \
     dram_transactions: 141626, dram_write_transactions: 84391, dram_bytes: 7232544, \
     shared_accesses: 0, shared_bank_conflicts: 0, lane_ops: 1486571, lane_slots: \
     2691168, atomics: 287816, mem_stall_cycles: 15588788, warps: 1424, occupancy_warps: \
     10, data_ready_ns: 713047 }",
    // CuSha, Bfs
    "kernel_ns: 22667, total_ns: 140415, KernelMetrics { instructions: 68973, cycles: \
     33537, time_ns: 22667, l1_requests: 435375, l1: CacheStats { hits: 250390, misses: \
     184985 }, l2_requests: 184985, l2: CacheStats { hits: 580, misses: 184405 }, \
     dram_transactions: 184405, dram_write_transactions: 78756, dram_bytes: 8421152, \
     shared_accesses: 0, shared_bank_conflicts: 0, lane_ops: 2036115, lane_slots: \
     2207136, atomics: 292280, mem_stall_cycles: 7437200, warps: 3680, occupancy_warps: \
     14, data_ready_ns: 131616 }",
    // CuSha, Sssp
    "kernel_ns: 66821, total_ns: 249263, KernelMetrics { instructions: 197801, cycles: \
     98874, time_ns: 66821, l1_requests: 1434030, l1: CacheStats { hits: 802035, misses: \
     631995 }, l2_requests: 631995, l2: CacheStats { hits: 1418, misses: 630577 }, \
     dram_transactions: 630577, dram_write_transactions: 223349, dram_bytes: 27325632, \
     shared_accesses: 0, shared_bank_conflicts: 0, lane_ops: 5889206, lane_slots: \
     6329632, atomics: 1053180, mem_stall_cycles: 23817760, warps: 9568, occupancy_warps: \
     14, data_ready_ns: 240131 }",
    // ChunkStream, Bfs
    "kernel_ns: 12547, total_ns: 320935, KernelMetrics { instructions: 45790, cycles: \
     18567, time_ns: 12547, l1_requests: 81393, l1: CacheStats { hits: 7509, misses: \
     73884 }, l2_requests: 73884, l2: CacheStats { hits: 2720, misses: 71164 }, \
     dram_transactions: 71164, dram_write_transactions: 51334, dram_bytes: 3919936, \
     shared_accesses: 0, shared_bank_conflicts: 0, lane_ops: 1399117, lane_slots: \
     1465280, atomics: 283786, mem_stall_cycles: 11067096, warps: 8736, occupancy_warps: \
     64, data_ready_ns: 310748 }",
    // ChunkStream, Sssp
    "kernel_ns: 40458, total_ns: 1086792, KernelMetrics { instructions: 128712, cycles: \
     59872, time_ns: 40458, l1_requests: 271243, l1: CacheStats { hits: 0, misses: 271243 \
     }, l2_requests: 271243, l2: CacheStats { hits: 23663, misses: 247580 }, \
     dram_transactions: 247580, dram_write_transactions: 134343, dram_bytes: 12221536, \
     shared_accesses: 0, shared_bank_conflicts: 0, lane_ops: 3924832, lane_slots: \
     4118784, atomics: 671820, mem_stall_cycles: 36682100, warps: 20384, occupancy_warps: \
     64, data_ready_ns: 1075059 }",
];
