//! The per-launch floor: a warm `Device::launch` allocates nothing, visits
//! only the SMs its grid runs blocks on, and reads the same at any host
//! thread count. And the memory bound: launch scratch is the size of one
//! wave (`num_sms` blocks), however many waves the grid has — also at two
//! host threads, where a multi-wave launch hands its per-SM queues block by
//! block to the worker that drains its caches, spawned once per launch.

use eta_mem::system::DSlice;
use eta_sim::{Device, GpuConfig, Kernel, LaunchConfig, WarpCtx, WARP_SIZE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    // A thread past its thread-local destructors still allocates; those
    // calls are nobody's measurement.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations of 100 launches of `kernel` on a device one launch
/// warm. The compute timeline is the launches' output — an append-only log
/// of one span each that the caller owns — not launch scratch, so it is
/// drained between launches instead of left to grow.
fn warm_launch_allocations(dev: &mut Device, kernel: &dyn Kernel, grid: LaunchConfig) -> u64 {
    dev.launch(kernel, grid, 0);
    let before = ALLOCS.with(Cell::get);
    for i in 1..=100 {
        dev.compute_timeline.clear();
        dev.launch(kernel, grid, i * 1_000);
    }
    ALLOCS.with(Cell::get) - before
}

struct NullKernel;

impl Kernel for NullKernel {
    fn run(&self, _w: &mut WarpCtx<'_>) {}
}

/// Per thread: a coalesced load, a 4-element burst, an atomic on one shared
/// counter and a store of the burst's sum. No word is loaded twice (the
/// bursts read `data` past `burst_base`, the loads before it), so every
/// full block records and replays the same amount of work.
struct MixedKernel {
    data: DSlice,
    out: DSlice,
    counter: DSlice,
    burst_base: u32,
    n: u32,
}

impl Kernel for MixedKernel {
    fn name(&self) -> &'static str {
        "mixed"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        if mask == 0 {
            return;
        }
        let vals = w.load(self.data, &tids, mask);
        let start = tids.map(|t| self.burst_base + t * 4);
        let burst = w.load_burst(self.data, &start, &[4; WARP_SIZE], mask);
        let mut sum = vals;
        for r in 0..burst.rows() {
            let row = w.burst_row(burst, r);
            for lane in 0..WARP_SIZE {
                sum[lane] = sum[lane].wrapping_add(row[lane]);
            }
        }
        w.atomic_add(self.counter, &[0; WARP_SIZE], &vals, mask);
        w.store(self.out, &tids, &sum, mask);
    }
}

const TPB: u32 = 256;

/// A device with `MixedKernel`'s buffers for up to `blocks` blocks.
fn mixed_rig(host_threads: usize, blocks: u32) -> (Device, MixedKernel) {
    let mut dev = Device::new(GpuConfig::default_preset().with_host_threads(host_threads));
    let n = blocks * TPB;
    let data = dev.mem.alloc_explicit(5 * n as u64).unwrap();
    let out = dev.mem.alloc_explicit(n as u64).unwrap();
    let counter = dev.mem.alloc_explicit(8).unwrap();
    let init: Vec<u32> = (0..5 * n).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    dev.mem.host_write(data, 0, &init);
    dev.mem.host_fill(out, 0);
    dev.mem.host_fill(counter, 0);
    let kernel = MixedKernel {
        data,
        out,
        counter,
        burst_base: n,
        n,
    };
    (dev, kernel)
}

fn grid(blocks: u32) -> LaunchConfig {
    LaunchConfig {
        blocks,
        threads_per_block: TPB,
    }
}

#[test]
fn warm_launches_allocate_nothing_and_touch_only_their_sms() {
    // A one-wave launch runs inline at any host thread count.
    for host_threads in [1, 2] {
        // Null kernel over the whole machine: the fixed cost of a launch.
        let cfg = GpuConfig::default_preset().with_host_threads(host_threads);
        let mut dev = Device::new(cfg);
        let whole = grid(dev.cfg.num_sms as u32);
        let allocs = warm_launch_allocations(&mut dev, &NullKernel, whole);
        assert_eq!(
            allocs, 0,
            "warm null launches allocated, {host_threads} thread(s)"
        );

        // One block of real work (the deep-traversal shape).
        let (mut dev, mut kernel) = mixed_rig(host_threads, 3);
        kernel.n = TPB;
        let allocs = warm_launch_allocations(&mut dev, &kernel, grid(1));
        assert_eq!(
            allocs, 0,
            "warm one-block launches allocated, {host_threads} thread(s)"
        );
    }
    let (mut dev, mut kernel) = mixed_rig(2, 3);

    // A grid visits SMs 0..blocks and leaves the rest empty — also the SMs
    // a wider launch filled before it.
    kernel.n = 3 * TPB;
    dev.launch(&kernel, grid(3), 200_000);
    for sm in 0..dev.cfg.num_sms {
        assert_eq!(dev.sm_queue(sm).recs.is_empty(), sm >= 3, "SM {sm}");
    }
    kernel.n = TPB;
    dev.launch(&kernel, grid(1), 300_000);
    for sm in 0..dev.cfg.num_sms {
        assert_eq!(dev.sm_queue(sm).recs.is_empty(), sm >= 1, "SM {sm}");
    }

    // The same launches read the same at 1, 2 and 4 host threads.
    for blocks in [1, 3] {
        let run = |host_threads| {
            let (mut dev, mut kernel) = mixed_rig(host_threads, 3);
            kernel.n = blocks * TPB;
            let cold = dev.launch(&kernel, grid(blocks), 0);
            let warm = dev.launch(&kernel, grid(blocks), cold.end_ns);
            let out = dev.mem.host_read(kernel.out, 0, kernel.n as u64).to_vec();
            let counter = dev.mem.host_read(kernel.counter, 0, 1)[0];
            format!("{cold:?} {warm:?} {out:?} {counter}")
        };
        let serial = run(1);
        assert_eq!(serial, run(2), "{blocks}-block grid");
        assert_eq!(serial, run(4), "{blocks}-block grid");
    }
}

/// Capacities of the five queue arenas a launch fills on SM `sm` (a warp
/// coalesces as it records, so no raw-address arena is among them).
fn arena_capacities(dev: &Device, sm: usize) -> [usize; 5] {
    let q = dev.sm_queue(sm);
    [
        q.recs.capacity(),
        q.sectors.capacity(),
        q.zc.capacity(),
        q.l2q.capacity(),
        q.l2q_sectors.capacity(),
    ]
}

#[test]
fn launch_scratch_is_one_wave_however_many_waves_the_grid_has() {
    for host_threads in [1, 2] {
        scratch_is_one_wave(host_threads);
    }
}

fn scratch_is_one_wave(host_threads: usize) {
    let num_sms = GpuConfig::default_preset().num_sms;
    let wave = num_sms as u32;
    let (mut dev, mut kernel) = mixed_rig(host_threads, 50 * wave + 5);
    let capacities = |dev: &Device| -> Vec<[usize; 5]> {
        (0..num_sms).map(|sm| arena_capacities(dev, sm)).collect()
    };

    kernel.n = wave * TPB;
    dev.launch(&kernel, grid(wave), 0);
    let one_wave = capacities(&dev);
    assert!(
        one_wave.iter().flatten().all(|&cap| cap > 0),
        "{one_wave:?}"
    );

    // The same per-block work over 3 and 50 waves, and over 50 waves and a
    // ragged tail of 5 blocks: no arena grew past what one wave needs.
    for blocks in [3 * wave, 50 * wave, 50 * wave + 5] {
        kernel.n = blocks * TPB;
        dev.launch(&kernel, grid(blocks), 0);
        assert_eq!(capacities(&dev), one_wave, "{blocks} blocks");
        // The queues show the last wave: all SMs, or only the tail's.
        let last = match blocks % wave {
            0 => num_sms,
            tail => tail as usize,
        };
        for sm in 0..num_sms {
            assert_eq!(dev.sm_queue(sm).recs.is_empty(), sm >= last, "SM {sm}");
        }
    }

    // The launch after a ragged one still empties the tail's queues.
    kernel.n = TPB;
    dev.launch(&kernel, grid(1), 0);
    for sm in 0..num_sms {
        assert_eq!(dev.sm_queue(sm).recs.is_empty(), sm >= 1, "SM {sm}");
    }

    // Warm multi-wave launches with a ragged tail allocate nothing per
    // block: nothing inline, and at two threads only the worker's spawn and
    // the handoff's two queues — the same count at 4 waves as at 50.
    let mut per_launch = Vec::new();
    for blocks in [3 * wave + 5, 50 * wave] {
        kernel.n = blocks * TPB;
        let allocs = warm_launch_allocations(&mut dev, &kernel, grid(blocks));
        assert_eq!(
            allocs % 100,
            0,
            "{blocks} blocks: {allocs} over 100 launches"
        );
        per_launch.push(allocs / 100);
    }
    assert_eq!(per_launch[0], per_launch[1], "allocations grow with waves");
    if host_threads == 1 {
        assert_eq!(
            per_launch[0], 0,
            "warm inline multi-wave launches allocated"
        );
    }
    assert_eq!(capacities(&dev), one_wave);
}

/// Allocations on this thread of one launch of `blocks` on a fresh rig.
fn cold_launch_allocations(host_threads: usize, blocks: u32) -> u64 {
    let (mut dev, mut kernel) = mixed_rig(host_threads, blocks);
    kernel.n = blocks * TPB;
    let before = ALLOCS.with(Cell::get);
    dev.launch(&kernel, grid(blocks), 0);
    ALLOCS.with(Cell::get) - before
}

/// Every queue arena grows on the calling thread: a cold multi-wave launch
/// at two threads allocates there what it allocates inline plus what a
/// warm one spends on the worker's spawn and the handoff, so the worker
/// allocates nothing. (A worker's allocations would sit in an allocator
/// arena of its own — glibc gives each thread one — a second heap of queue
/// memory.)
#[test]
fn the_cache_drain_worker_allocates_nothing() {
    let wave = GpuConfig::default_preset().num_sms as u32;
    let blocks = 3 * wave + 5;
    // Also pays this thread's one-time costs of a first spawn.
    let (mut dev, mut kernel) = mixed_rig(2, blocks);
    kernel.n = blocks * TPB;
    let spawn = warm_launch_allocations(&mut dev, &kernel, grid(blocks)) / 100;
    assert!(spawn > 0, "a warm multi-wave launch at two threads spawns");
    assert_eq!(
        cold_launch_allocations(2, blocks),
        cold_launch_allocations(1, blocks) + spawn
    );
}
