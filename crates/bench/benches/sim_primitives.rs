//! Microbenchmarks of the simulator substrate itself: coalescer, cache and
//! warp access throughput. These bound how fast the reproduction can run
//! and guard against performance regressions in the hot paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use eta_mem::access::{PipeOp, SmQueue};
use eta_mem::cache::{Cache, CacheConfig};
use eta_mem::coalesce::sectors_for_warp;
use eta_mem::pcie::PcieLink;
use eta_mem::system::{MemSystem, TransferMode};
use eta_sim::{GpuConfig, Kernel, Lanes, LaunchConfig, WarpCtx, WarpId, FULL_MASK};
use std::hint::black_box;

struct NullKernel;

impl Kernel for NullKernel {
    fn run(&self, _w: &mut WarpCtx<'_>) {}
}

struct StreamKernel {
    data: eta_mem::DSlice,
    n: u32,
}

impl Kernel for StreamKernel {
    fn run(&self, w: &mut WarpCtx<'_>) {
        let ids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        if mask != 0 {
            black_box(w.load(self.data, &ids, mask));
        }
    }
}

/// A queue of `warps` recorded 32-lane loads, lane `l` of warp `w` at
/// `addr(w, l)` — what stage 2 of every launch coalesces.
fn recorded_queue(warps: u64, addr: impl Fn(u64, u64) -> u64) -> SmQueue {
    let mut queue = SmQueue::default();
    for w in 0..warps {
        let start = queue.addrs.len();
        queue.addrs.extend((0..32).map(|l| addr(w, l)));
        queue.commit(0, PipeOp::Load, false, true, start);
    }
    queue
}

fn bench_primitives(c: &mut Criterion) {
    // Coalescer: the sanitizer lint's per-warp map, then the launch
    // pipeline's stage 2 over a recorded queue — consecutive lanes (the
    // ascending fast path) and hashed ones (sort and dedup).
    let scattered: Vec<u64> = (0..32).map(|i| i * 4096).collect();
    let mut scratch = Vec::new();
    let mut group = c.benchmark_group("sim_primitives");
    group.throughput(Throughput::Elements(32));
    group.bench_function("coalesce_scattered_warp", |b| {
        b.iter(|| {
            sectors_for_warp(black_box(&scattered), u32::MAX, &mut scratch);
            black_box(scratch.len())
        })
    });

    const QUEUE_WARPS: u64 = 1024;
    group.throughput(Throughput::Elements(32 * QUEUE_WARPS));
    group.bench_function("smqueue_coalesce_dense", |b| {
        let mut queue = recorded_queue(QUEUE_WARPS, |w, l| w * 32 + l);
        b.iter(|| {
            queue.coalesce();
            black_box(queue.sectors.len())
        })
    });
    group.bench_function("smqueue_coalesce_scattered", |b| {
        let mut queue = recorded_queue(QUEUE_WARPS, |w, l| {
            (w * 32 + l).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40
        });
        b.iter(|| {
            queue.coalesce();
            black_box(queue.sectors.len())
        })
    });

    // Cache probe streams: hit-heavy against an 8-way L1, then mostly
    // missing against the preset's 16-way L2 (the victim scan's regime).
    group.throughput(Throughput::Elements(32));
    group.bench_function("cache_probe", |b| {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 48 * 1024,
            line_bytes: 32,
            ways: 8,
            retention: 768,
        });
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 97) % 10_000;
            cache.tick(3);
            black_box(cache.access(i))
        })
    });

    group.bench_function("cache_probe_l2_miss_stream", |b| {
        let mut cache = Cache::new(GpuConfig::default_preset().l2);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            cache.tick(28);
            black_box(cache.access(i >> 42))
        })
    });

    // One SMP row through shared memory: a store and a load at the slot
    // stride of K = 16, the pattern whose bank conflicts record counts.
    group.bench_function("shared_row_store_load", |b| {
        let cfg = GpuConfig::default_preset();
        let mut mem = MemSystem::new(cfg.device_mem_bytes, PcieLink::new(12.0, 1000));
        let (mut queue, mut rows) = (SmQueue::default(), Vec::new());
        let mut shared = vec![0u32; 32 * 16];
        let id = WarpId {
            block: 0,
            warp_in_block: 0,
            threads_per_block: 32,
            grid_blocks: 1,
        };
        let mut w =
            WarpCtx::new_recording(&cfg, &mut mem, &mut queue, &mut shared, &mut rows, id, None);
        let slots: Lanes = std::array::from_fn(|lane| lane as u32 * 16 + 3);
        b.iter(|| {
            w.store_shared(black_box(&slots), &slots, FULL_MASK);
            black_box(w.load_shared(&slots, FULL_MASK))
        })
    });

    // Full warp load through the hierarchy.
    group.throughput(Throughput::Elements(1 << 16));
    group.bench_function("device_stream_64k_loads", |b| {
        let cfg = GpuConfig::default_preset();
        let n = 1u32 << 16;
        b.iter(|| {
            let mut dev = eta_sim::Device::new(cfg);
            let data = dev.mem.alloc_explicit(n as u64).unwrap();
            let k = StreamKernel { data, n };
            let r = dev.launch(&k, LaunchConfig::for_items(n, 256), 0);
            black_box(r.metrics.cycles)
        })
    });

    // The per-launch floor on a warm device: a whole-machine grid that
    // records nothing, and the deep-traversal shape — one block, one load.
    // (The compute timeline is the launches' output log; drained so the
    // loop measures launches, not its growth.)
    group.throughput(Throughput::Elements(1));
    group.bench_function("null_launch", |b| {
        let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
        let grid = LaunchConfig {
            blocks: dev.cfg.num_sms as u32,
            threads_per_block: 256,
        };
        b.iter(|| {
            dev.compute_timeline.clear();
            black_box(dev.launch(&NullKernel, grid, 0).end_ns)
        })
    });
    group.bench_function("one_block_launch", |b| {
        let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
        let n = 256u32;
        let data = dev.mem.alloc_explicit(n as u64).unwrap();
        let k = StreamKernel { data, n };
        b.iter(|| {
            dev.compute_timeline.clear();
            black_box(dev.launch(&k, LaunchConfig::for_items(n, 256), 0).end_ns)
        })
    });

    // MemSystem residency path.
    group.bench_function("um_resident_touch", |b| {
        let mut m = MemSystem::new(1 << 30, PcieLink::new(12.0, 1000));
        let (a, _) = m
            .place(&vec![0; 1 << 20], TransferMode::UnifiedPrefetch, 0)
            .unwrap();
        m.prefetch(a, 0);
        let sector = a.word_off / 8 + 100;
        let mut zc = [false];
        b.iter(|| black_box(m.resolve_access(a.region, &[sector], 0, &mut zc)))
    });
    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
