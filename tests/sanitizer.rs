//! Integration tests for the sanitizer (the workspace's compute-sanitizer
//! analogue). Two halves:
//!
//! 1. every shipped kernel family runs under `SanitizerMode::Full` with zero
//!    errors (lint warnings are advisory and allowed);
//! 2. deliberately-buggy kernels — the classic GPU graph-traversal bugs the
//!    tool exists to catch — are each detected with the right finding kind
//!    and a usable site report.

use eta_graph::generate::{rmat, RmatConfig};
use eta_mem::system::DSlice;
use eta_sim::{
    Device, FindingKind, GpuConfig, Kernel, LaunchConfig, SanitizerMode, SanitizerReport, Severity,
    WarpCtx,
};
use etagraph::{Algorithm, EtaConfig};

fn sanitized_dev() -> Device {
    Device::new(GpuConfig::default_preset().with_sanitizer(SanitizerMode::Full))
}

fn report(dev: &Device) -> SanitizerReport {
    dev.sanitizer_report().expect("sanitizer was enabled")
}

// ---------------------------------------------------------------------------
// Half 1: the shipped kernels are clean.
// ---------------------------------------------------------------------------

#[test]
fn etagraph_kernels_are_clean_across_all_configurations() {
    let g = rmat(&RmatConfig::paper(10, 12_000, 42)).with_random_weights(3, 32);
    let cases: Vec<(&str, Algorithm, EtaConfig)> = vec![
        ("bfs paper", Algorithm::Bfs, EtaConfig::paper()),
        ("sssp paper", Algorithm::Sssp, EtaConfig::paper()),
        ("sswp paper", Algorithm::Sswp, EtaConfig::paper()),
        ("cc paper", Algorithm::Cc, EtaConfig::paper()),
        (
            "bfs no-smp",
            Algorithm::Bfs,
            EtaConfig {
                smp: false,
                ..EtaConfig::paper()
            },
        ),
        (
            "sssp no-smp",
            Algorithm::Sssp,
            EtaConfig {
                smp: false,
                ..EtaConfig::paper()
            },
        ),
        ("bfs out-of-core", Algorithm::Bfs, EtaConfig::out_of_core()),
        (
            "sssp out-of-core",
            Algorithm::Sssp,
            EtaConfig::out_of_core(),
        ),
        (
            "bfs pull",
            Algorithm::Bfs,
            EtaConfig::direction_optimizing(),
        ),
        ("bfs w/o ump", Algorithm::Bfs, EtaConfig::without_ump()),
    ];
    for (label, alg, cfg) in cases {
        let mut dev = sanitized_dev();
        etagraph::engine::run(&mut dev, &g, 0, alg, &cfg).expect("run fits");
        let rep = report(&dev);
        assert!(
            rep.is_clean(),
            "sanitizer errors in {label}:\n{}",
            rep.summarize()
        );
        assert!(rep.launches > 0, "{label} launched nothing");
    }
}

#[test]
fn pagerank_and_multi_bfs_are_clean() {
    let g = rmat(&RmatConfig::paper(10, 12_000, 7));
    let mut dev = sanitized_dev();
    let cfg = etagraph::pagerank::PageRankConfig {
        iterations: 5,
        ..Default::default()
    };
    etagraph::pagerank::run(&mut dev, &g, &cfg).expect("pagerank fits");
    let rep = report(&dev);
    assert!(rep.is_clean(), "pagerank:\n{}", rep.summarize());

    let mut dev = sanitized_dev();
    etagraph::multi_bfs::run(&mut dev, &g, &[0, 1, 5, 9], &EtaConfig::paper())
        .expect("multi-bfs fits");
    let rep = report(&dev);
    assert!(rep.is_clean(), "multi-bfs:\n{}", rep.summarize());
}

#[test]
fn baseline_framework_kernels_are_clean() {
    use eta_baselines::{ChunkStream, CushaLike, Framework, GunrockLike, TigrLike};
    let g = rmat(&RmatConfig::paper(10, 12_000, 11)).with_random_weights(2, 16);
    let baselines: Vec<Box<dyn Framework>> = vec![
        Box::new(CushaLike::default()),
        Box::new(GunrockLike::default()),
        Box::new(TigrLike::default()),
        Box::new(ChunkStream::default()),
    ];
    for fw in baselines {
        for alg in [Algorithm::Bfs, Algorithm::Sssp] {
            let mut dev = sanitized_dev();
            match fw.run(&mut dev, &g, 0, alg) {
                Ok(_) => {
                    let rep = report(&dev);
                    assert!(
                        rep.is_clean(),
                        "{} {}:\n{}",
                        fw.name(),
                        alg.name(),
                        rep.summarize()
                    );
                }
                Err(e) => panic!("{} {} failed: {e}", fw.name(), alg.name()),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Half 2: injected bugs are caught.
// ---------------------------------------------------------------------------

/// Finds the first error of `kind` or panics with the whole report.
fn expect_error(rep: &SanitizerReport, kind: FindingKind) -> &eta_sim::Finding {
    rep.errors
        .iter()
        .find(|f| f.kind == kind)
        .unwrap_or_else(|| panic!("no {kind:?} error found; report:\n{}", rep.summarize()))
}

/// Bug 1: an out-of-bounds column index — the classic unvalidated
/// `col_idx[e]` read past the frontier array.
struct OobLoadKernel {
    data: DSlice,
    n: u32,
}

impl Kernel for OobLoadKernel {
    fn name(&self) -> &'static str {
        "oob_load"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let ids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        // BUG: reads data[tid + 8], sailing past the end of the slice.
        let mut idx = [0u32; 32];
        for (i, &t) in idx.iter_mut().zip(ids.iter()) {
            *i = t + 8;
        }
        w.load(self.data, &idx, mask);
    }
}

#[test]
fn detects_out_of_bounds_read() {
    let mut dev = sanitized_dev();
    let n = 256u32;
    let data = dev.mem.alloc_explicit(n as u64).unwrap();
    dev.mem.host_write(data, 0, &vec![1u32; n as usize]);
    let k = OobLoadKernel { data, n };
    dev.launch(&k, LaunchConfig::for_items(n, 64), 0);
    let rep = report(&dev);
    let f = expect_error(&rep, FindingKind::OutOfBounds);
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.kernel, "oob_load");
    assert_eq!(f.slice_len, n as u64);
    assert!(f.index >= n as u64, "site index {} within bounds?", f.index);
    // All 32 overrunning threads fold into one finding (8 per trailing warp
    // of each of the 4 blocks).
    assert!(f.occurrences >= 8, "occurrences: {}", f.occurrences);
}

/// Bug 2: label relaxation with a plain store — warps of the same launch
/// overwrite each other's labels (the race `PullBfsKernel` had before it
/// switched to `atomic_min`).
struct NonAtomicRelaxKernel {
    labels: DSlice,
    n: u32,
}

impl Kernel for NonAtomicRelaxKernel {
    fn name(&self) -> &'static str {
        "non_atomic_relax"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let ids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        // BUG: every warp writes labels[tid % 32] with a plain store; the
        // same words are hit by every warp in the launch.
        let mut idx = [0u32; 32];
        for (i, &t) in idx.iter_mut().zip(ids.iter()) {
            *i = t % 32;
        }
        let vals = ids;
        w.store(self.labels, &idx, &vals, mask);
    }
}

#[test]
fn detects_global_race_between_warps() {
    let mut dev = sanitized_dev();
    let n = 512u32;
    let labels = dev.mem.alloc_explicit(32).unwrap();
    dev.mem.host_fill(labels, u32::MAX);
    let k = NonAtomicRelaxKernel { labels, n };
    dev.launch(&k, LaunchConfig::for_items(n, 128), 0);
    let rep = report(&dev);
    let f = expect_error(&rep, FindingKind::GlobalRace);
    assert_eq!(f.kernel, "non_atomic_relax");
    assert!(f.detail.contains("store"), "detail: {}", f.detail);
}

/// The fixed version of the same kernel: atomics on the shared words.
struct AtomicRelaxKernel {
    labels: DSlice,
    n: u32,
}

impl Kernel for AtomicRelaxKernel {
    fn name(&self) -> &'static str {
        "atomic_relax"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let ids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        let mut idx = [0u32; 32];
        for (i, &t) in idx.iter_mut().zip(ids.iter()) {
            *i = t % 32;
        }
        w.atomic_min(self.labels, &idx, &ids, mask);
    }
}

#[test]
fn atomic_relaxation_is_race_free() {
    let mut dev = sanitized_dev();
    let n = 512u32;
    let labels = dev.mem.alloc_explicit(32).unwrap();
    dev.mem.host_fill(labels, u32::MAX);
    dev.launch(
        &AtomicRelaxKernel { labels, n },
        LaunchConfig::for_items(n, 128),
        0,
    );
    let rep = report(&dev);
    assert!(rep.is_clean(), "{}", rep.summarize());
}

/// Bug 3: reading an allocation the host never initialized (a forgotten
/// `cudaMemcpy`/`host_write` of the frontier).
struct UninitReadKernel {
    data: DSlice,
    n: u32,
}

impl Kernel for UninitReadKernel {
    fn name(&self) -> &'static str {
        "uninit_read"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let ids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        w.load(self.data, &ids, mask);
    }
}

#[test]
fn detects_uninitialized_read() {
    let mut dev = sanitized_dev();
    let n = 128u32;
    let data = dev.mem.alloc_explicit(n as u64).unwrap(); // never written
    dev.launch(
        &UninitReadKernel { data, n },
        LaunchConfig::for_items(n, 64),
        0,
    );
    let rep = report(&dev);
    let f = expect_error(&rep, FindingKind::UninitRead);
    assert_eq!(f.kernel, "uninit_read");
    assert_eq!(f.index, 0, "first uninit word is the first read");
}

/// Bug 4: frontier-append without the dedup guard. Every thread grabs a
/// queue slot with an atomic, but because no visited-tag check filters
/// duplicates, the queue (sized for the deduplicated frontier) overflows —
/// a stale-tag bug surfacing as an out-of-bounds store.
struct StaleTagAppendKernel {
    counter: DSlice,
    queue: DSlice,
    queue_cap: u32,
    n: u32,
}

impl Kernel for StaleTagAppendKernel {
    fn name(&self) -> &'static str {
        "stale_tag_append"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let ids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        // BUG: the dedup test is skipped, so every thread appends.
        let zeros = [0u32; 32];
        let ones = [1u32; 32];
        let slots = w.atomic_add(self.counter, &zeros, &ones, mask);
        let _ = self.queue_cap; // sized for the deduplicated frontier
        w.store(self.queue, &slots, &ids, mask);
    }
}

#[test]
fn detects_queue_overflow_from_skipped_dedup() {
    let mut dev = sanitized_dev();
    let n = 256u32;
    let cap = 64u32; // what a deduplicated frontier would need
    let counter = dev.mem.alloc_explicit(1).unwrap();
    let queue = dev.mem.alloc_explicit(cap as u64).unwrap();
    dev.mem.host_fill(counter, 0);
    let k = StaleTagAppendKernel {
        counter,
        queue,
        queue_cap: cap,
        n,
    };
    dev.launch(&k, LaunchConfig::for_items(n, 64), 0);
    let rep = report(&dev);
    let f = expect_error(&rep, FindingKind::OutOfBounds);
    assert_eq!(f.kernel, "stale_tag_append");
    assert_eq!(f.slice_len, cap as u64);
    assert!(f.index >= cap as u64);
    // The first `cap` appends were fine; the remaining n - cap overflowed.
    assert_eq!(f.occurrences, (n - cap) as u64);
}

/// Bug 5: two warps of one block write the same shared-memory word without
/// any synchronization (a reduction missing its barrier discipline).
struct SharedRaceKernel {
    n: u32,
}

impl Kernel for SharedRaceKernel {
    fn name(&self) -> &'static str {
        "shared_race"
    }

    fn shared_words_per_block(&self, _t: u32) -> u64 {
        1
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let ids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        // BUG: every warp of the block stores its own value to shared[0].
        let zeros = [0u32; 32];
        w.store_shared(&zeros, &ids, mask);
    }
}

#[test]
fn detects_shared_memory_race_between_warps_of_a_block() {
    let mut dev = sanitized_dev();
    let n = 128u32; // 4 warps in one block
    dev.launch(
        &SharedRaceKernel { n },
        LaunchConfig {
            blocks: 1,
            threads_per_block: 128,
        },
        0,
    );
    let rep = report(&dev);
    let f = expect_error(&rep, FindingKind::SharedRace);
    assert_eq!(f.kernel, "shared_race");
    assert_eq!(f.addr, 0, "the raced shared word");
}

// ---------------------------------------------------------------------------
// Bursts: the Shared-Memory-Prefetch access shape goes through the same
// global hook as a plain instruction, so each memcheck/racecheck finding
// has a burst fixture too.
// ---------------------------------------------------------------------------

/// One warp; lane `l` bursts the `count` words from `2l` and stores its
/// first row to `out`. Lane 31's `[62..66)` overruns a 64-word slice.
struct BurstOverrunKernel {
    data: DSlice,
    out: DSlice,
    count: u32,
}

impl Kernel for BurstOverrunKernel {
    fn name(&self) -> &'static str {
        "burst_overrun"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let ids = w.thread_ids();
        let start = ids.map(|t| 2 * t);
        let rows = w.load_burst(self.data, &start, &[self.count; 32], u32::MAX);
        let first = w.burst_row(rows, 0);
        w.store(self.out, &ids, &first, u32::MAX);
    }
}

#[test]
fn detects_a_burst_that_overruns_its_slice() {
    let mut dev = sanitized_dev();
    let data = dev.mem.alloc_explicit(64).unwrap();
    dev.mem.host_write(data, 0, &(1..=64).collect::<Vec<u32>>());
    let out = dev.mem.alloc_explicit(32).unwrap();
    let k = BurstOverrunKernel {
        data,
        out,
        count: 4,
    };
    dev.launch(&k, LaunchConfig::for_items(32, 32), 0);
    let rep = report(&dev);
    let f = expect_error(&rep, FindingKind::OutOfBounds);
    assert_eq!(
        (f.kernel.as_str(), f.lane, f.occurrences),
        ("burst_overrun", 31, 1)
    );
    assert_eq!(f.index, 62 + 4 - 1, "the burst's last word");
    assert_eq!(f.addr, data.word_off + 62, "the burst's first word");
    assert_eq!(f.slice_len, 64);
    assert_eq!(
        f.detail,
        "burst [62..66) out of bounds for slice of 64 words"
    );
    // The overrunning lane is dropped whole; lane 30's [60..64) still reads.
    let first = dev.mem.host_read(out, 0, 32);
    assert_eq!((first[30], first[31]), (61, 0));
}

/// Lane `l` bursts the 4 words from `4l` of a slice the host wrote only
/// word 0 of.
struct BurstUninitKernel {
    data: DSlice,
}

impl Kernel for BurstUninitKernel {
    fn name(&self) -> &'static str {
        "burst_uninit"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let start = w.thread_ids().map(|t| 4 * t);
        w.load_burst(self.data, &start, &[4; 32], u32::MAX);
    }
}

#[test]
fn detects_a_burst_over_never_written_words() {
    let mut dev = sanitized_dev();
    let data = dev.mem.alloc_explicit(128).unwrap();
    dev.mem.host_write(data, 0, &[7]);
    dev.launch(
        &BurstUninitKernel { data },
        LaunchConfig::for_items(32, 32),
        0,
    );
    let rep = report(&dev);
    let f = expect_error(&rep, FindingKind::UninitRead);
    assert_eq!(f.kernel, "burst_uninit");
    // Lanes ascending, then each lane's rows ascending: lane 0's second
    // word comes before lane 1's first, and the other 126 fold into it.
    assert_eq!((f.lane, f.index, f.occurrences), (0, 1, 127));
    assert_eq!(
        f.detail,
        "burst read of never-written device word (index 1)"
    );
}

/// Warp 0 plainly stores words 0..32; warp 1's lanes 0..8 then burst them
/// back, 4 words each, in the same launch.
struct BurstRaceKernel {
    data: DSlice,
}

impl Kernel for BurstRaceKernel {
    fn name(&self) -> &'static str {
        "burst_race"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let lanes: [u32; 32] = std::array::from_fn(|l| l as u32);
        if w.id().warp_in_block == 0 {
            w.store(self.data, &lanes, &lanes, u32::MAX);
        } else {
            let start = lanes.map(|l| 4 * l);
            w.load_burst(self.data, &start, &[4; 32], 0xFF);
        }
    }
}

#[test]
fn detects_a_burst_racing_a_plain_store() {
    let mut dev = sanitized_dev();
    let data = dev.mem.alloc_explicit(32).unwrap();
    dev.mem.host_fill(data, 0);
    dev.launch(
        &BurstRaceKernel { data },
        LaunchConfig::for_items(64, 64),
        0,
    );
    let rep = report(&dev);
    let f = expect_error(&rep, FindingKind::GlobalRace);
    assert_eq!(f.kernel, "burst_race");
    assert_eq!(
        (f.warp, f.lane, f.index),
        (1, 0, 0),
        "the burst's first word"
    );
    assert_eq!(
        f.detail,
        "non-atomic store by warp (0,0) races warp (0,1) on the same word"
    );
    assert_eq!(f.occurrences, 32, "every stored word races once");
}
