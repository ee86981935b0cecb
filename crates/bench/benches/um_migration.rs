//! Criterion counterpart of Table V / Fig. 4: Unified Memory demand paging
//! versus prefetch streaming, including the fault-batching machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eta_mem::pcie::PcieLink;
use eta_mem::um::{UmDriver, UmRegion, PAGE_BYTES, PAGE_WORDS};
use std::hint::black_box;

fn bench_um(c: &mut Criterion) {
    let pages = 4096u64; // 16 MiB region
    let mut group = c.benchmark_group("um_migration");

    group.bench_function(BenchmarkId::new("prefetch", pages), |b| {
        b.iter(|| {
            let mut d = UmDriver::new();
            let r = d.add_region(UmRegion::new(0, pages * PAGE_WORDS));
            let mut link = PcieLink::new(12.0, 1000);
            black_box(d.prefetch(r, 0, u64::MAX, &mut link))
        })
    });

    group.bench_function(BenchmarkId::new("demand_sweep", pages), |b| {
        b.iter(|| {
            let mut d = UmDriver::new();
            let r = d.add_region(UmRegion::new(0, pages * PAGE_WORDS));
            let mut link = PcieLink::new(12.0, 1000);
            let mut end = 0;
            let mut p = 0usize;
            while p < pages as usize {
                end = d.touch_pages(r, &[p], end, u64::MAX, &mut link);
                p = d.region(r).resident_pages();
            }
            black_box(end)
        })
    });

    group.bench_function(BenchmarkId::new("demand_scattered", pages), |b| {
        b.iter(|| {
            let mut d = UmDriver::new();
            let r = d.add_region(UmRegion::new(0, pages * PAGE_WORDS));
            let mut link = PcieLink::new(12.0, 1000);
            let mut end = 0;
            // Deterministic stride pattern touching every 64th page.
            for i in 0..64usize {
                end = d.touch_pages(r, &[(i * 67) % pages as usize], end, u64::MAX, &mut link);
            }
            black_box(end)
        })
    });

    // Over budget: the two shapes the LRU victim index serves. Half the
    // region fits, so the second half of every sweep evicts the first.
    let budget = pages / 2 * PAGE_BYTES;
    group.bench_function(BenchmarkId::new("demand_oversubscribed", pages), |b| {
        b.iter(|| {
            let mut d = UmDriver::new();
            let r = d.add_region(UmRegion::new(0, pages * PAGE_WORDS));
            let mut link = PcieLink::new(12.0, 1000);
            let mut end = 0;
            for _sweep in 0..2 {
                for p in 0..pages as usize {
                    end = d.touch_pages(r, &[p], end, budget, &mut link);
                }
            }
            black_box((end, d.stats.evicted_pages))
        })
    });

    group.bench_function(BenchmarkId::new("prefetch_oversubscribed", pages), |b| {
        b.iter(|| {
            let mut d = UmDriver::new();
            let r = d.add_region(UmRegion::new(0, pages * PAGE_WORDS));
            let mut link = PcieLink::new(12.0, 1000);
            let mut end = 0;
            for _sweep in 0..2 {
                end = d.prefetch(r, end, budget, &mut link);
            }
            black_box((end, d.stats.evicted_pages))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_um);
criterion_main!(benches);
