//! Per-layer probes: small timed calls into one public function of one
//! crate, on inputs derived from the workload's own graph.
//!
//! The workloads time whole queries; the probes say what a single coalesce,
//! cache probe, page fault, launch or dispatch costs underneath them, so an
//! optimisation of one of those can be predicted ("this should move
//! `host_medges_per_s` on `social_sweep`") and then checked. Probes run only
//! in the traced run and never feed an end-to-end number.

use crate::harness::ProbeInput;
use crate::span::Tracer;
use crate::stats;
use eta_baselines::{run_fresh, CushaLike, Framework, GunrockLike, TigrLike};
use eta_ckpt::{CkptCtl, CkptSink};
use eta_fault::{FaultPlan, HangFault};
use eta_graph::generate::{rmat, splitmix, RmatConfig};
use eta_graph::{datasets, reference, Csr};
use eta_mem::access::{drain_l1, L1DrainParams, PipeOp, SmQueue};
use eta_mem::cache::Cache;
use eta_mem::coalesce::sectors_for_warp;
use eta_mem::pcie::PcieLink;
use eta_mem::system::{DSlice, MemSystem};
use eta_mem::um::{UmDriver, UmRegion, PAGE_BYTES, PAGE_WORDS};
use eta_sim::{Device, GpuConfig, Kernel, LaunchConfig, SanitizerMode, WarpCtx, FULL_MASK};
use etagraph::session::Session;
use etagraph::{engine, Algorithm, EtaConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Address-stream length cap: enough warps to time, small enough that the
/// probes of a big graph stay a fraction of a second each.
const MAX_STREAM: usize = 1 << 20;

fn time_s<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Median seconds of three runs of `f`.
fn median3(mut f: impl FnMut() -> f64) -> f64 {
    let runs = [f(), f(), f()];
    stats::median(&runs).expect("three samples")
}

struct Recorder<'a> {
    tr: &'a mut Tracer,
    layer: &'a mut BTreeMap<String, f64>,
}

impl Recorder<'_> {
    /// Runs `f` under a span and returns its seconds.
    fn timed<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (f64, T) {
        self.tr.in_span(layer, name, None, || time_s(f))
    }

    fn set(&mut self, key: &str, v: f64) {
        self.layer.insert(key.to_string(), v);
    }
}

struct NullKernel;

impl Kernel for NullKernel {
    fn name(&self) -> &'static str {
        "probe_null"
    }
    fn run(&self, _w: &mut WarpCtx<'_>) {}
}

/// Coalesced streaming read: lane `i` loads `data[tid]`.
struct StreamKernel {
    data: DSlice,
    n: u32,
}

impl Kernel for StreamKernel {
    fn name(&self) -> &'static str {
        "probe_stream"
    }
    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        if mask != 0 {
            black_box(w.load(self.data, &tids, mask));
        }
    }
}

/// The traversal's access shape: load a neighbour id, then gather its label.
struct GatherKernel {
    col: DSlice,
    labels: DSlice,
    n: u32,
}

impl Kernel for GatherKernel {
    fn name(&self) -> &'static str {
        "probe_gather"
    }
    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.n);
        if mask != 0 {
            let idx = w.load(self.col, &tids, mask);
            black_box(w.load(self.labels, &idx, mask));
        }
    }
}

/// One cold single-device BFS; hands the device back for inspection.
fn cold_bfs(g: &Csr, source: u32, gpu: GpuConfig) -> Device {
    let mut dev = Device::new(gpu);
    engine::run(&mut dev, g, source, Algorithm::Bfs, &EtaConfig::paper())
        .expect("the workload already ran this query");
    dev
}

/// Runs every probe and writes its metric into `layer`. Returns the seconds
/// of a plain cold single-device BFS on the probe graph (the base of the
/// overhead fractions, and of `shard.vs_single_ratio.bfs.x4`).
pub fn run(input: &ProbeInput<'_>, tr: &mut Tracer, layer: &mut BTreeMap<String, f64>) -> f64 {
    let mut rec = Recorder { tr, layer };
    let all = rec.tr.begin("bench", "probes", None);
    let g = input.graph;
    let source = input.source;
    let gpu = GpuConfig::default_preset();
    // Whole warps of neighbour ids: the address stream of a label gather.
    let mut stream: Vec<u64> = g
        .col_idx
        .iter()
        .take(MAX_STREAM)
        .map(|&v| v as u64)
        .collect();
    stream.truncate(stream.len() / 32 * 32);
    assert!(!stream.is_empty(), "the probe graph has under 32 edges");

    graph_probes(&mut rec, g, source);
    par_probes(&mut rec, &stream);
    mem_probes(&mut rec, g, &stream, &gpu);
    launch_probes(&mut rec, g, &stream);
    let base = engine_probes(&mut rec, g, source);
    baseline_probes(&mut rec);
    rec.tr.end(all);
    base
}

fn graph_probes(rec: &mut Recorder<'_>, g: &Csr, source: u32) {
    let (s, small) = rec.timed("graph", "generate::rmat scale 14", || {
        rmat(&RmatConfig::paper(14, 200_000, 7))
    });
    rec.set("graph.rmat_medges_per_s", small.m() as f64 / s / 1e6);
    let copy = g.clone();
    let (s, _) = rec.timed("graph", "with_random_weights", || {
        black_box(copy.with_random_weights(0x77, datasets::MAX_WEIGHT))
    });
    rec.set("graph.weights_s", s);
    let (s, _) = rec.timed("graph", "transpose", || black_box(g.transpose()));
    rec.set("graph.transpose_s", s);
    let (s, _) = rec.timed("graph", "reference::bfs", || {
        black_box(reference::bfs(g, source))
    });
    rec.set("graph.reference_bfs_ms", s * 1e3);
    let (s, _) = rec.timed("graph", "digest", || black_box(g.digest()));
    rec.set("graph.digest_ms", s * 1e3);
}

fn par_probes(rec: &mut Recorder<'_>, stream: &[u64]) {
    const CALLS: usize = 200;
    let mut items = [0u64; 28];
    let (s, _) = rec.timed("par", "for_each_mut_threads(2, 28 no-ops)", || {
        for _ in 0..CALLS {
            eta_par::for_each_mut_threads(2, &mut items, |i, x| *x = black_box(i as u64));
        }
    });
    rec.set("par.dispatch_us", s * 1e6 / CALLS as f64);
    let mut keys: Vec<u64> = stream.to_vec();
    let (s, _) = rec.timed("par", "par_sort_by_key", || {
        eta_par::sort::par_sort_by_key(&mut keys, |&k| k);
    });
    rec.set("par.sort_mkeys_per_s", keys.len() as f64 / s / 1e6);
}

fn mem_probes(rec: &mut Recorder<'_>, g: &Csr, stream: &[u64], gpu: &GpuConfig) {
    // Coalescer: consecutive lanes (4 sectors a warp) against neighbour ids
    // used as addresses (up to 32 sectors a warp).
    let warps = stream.len() / 32;
    let mut scratch = Vec::with_capacity(32);
    let (s, _) = rec.timed("mem", "sectors_for_warp dense", || {
        for w in 0..warps as u64 {
            let addrs: [u64; 32] = std::array::from_fn(|lane| w * 32 + lane as u64);
            sectors_for_warp(&addrs, FULL_MASK, &mut scratch);
            black_box(scratch.len());
        }
    });
    rec.set("mem.coalesce_ns_per_warp.dense", s * 1e9 / warps as f64);
    let (s, _) = rec.timed("mem", "sectors_for_warp scattered", || {
        for chunk in stream.chunks_exact(32) {
            sectors_for_warp(chunk, FULL_MASK, &mut scratch);
            black_box(scratch.len());
        }
    });
    rec.set("mem.coalesce_ns_per_warp.scattered", s * 1e9 / warps as f64);

    // Caches: the same neighbour-id sector stream against an L1 and the L2.
    for (key, cfg, name) in [
        ("mem.cache_ns_per_probe.l1", gpu.l1, "Cache::access l1"),
        ("mem.cache_ns_per_probe.l2", gpu.l2, "Cache::access l2"),
    ] {
        let mut cache = Cache::new(cfg);
        let (s, _) = rec.timed("mem", name, || {
            for chunk in stream.chunks(32) {
                for &a in chunk {
                    black_box(cache.access(a / 8));
                }
                cache.tick(chunk.len() as u64);
            }
        });
        rec.set(key, s * 1e9 / stream.len() as f64);
    }

    // Launch stages 2 and 4 on one SM's queue of recorded gather loads.
    let mut queue = SmQueue::default();
    for chunk in stream.chunks_exact(32) {
        let start = queue.addrs.len();
        queue.addrs.extend_from_slice(chunk);
        queue.commit(0, PipeOp::Load, false, true, start);
    }
    let (_, s) = rec.timed("mem", "SmQueue::coalesce x3", || {
        median3(|| time_s(|| queue.coalesce()).0)
    });
    let sectors = queue.sectors.len() as f64;
    rec.set("mem.smqueue_coalesce_msectors_per_s", sectors / s / 1e6);
    let params = L1DrainParams {
        l1_latency: gpu.l1_latency,
        zero_copy_latency: gpu.zero_copy_latency,
        interleave: 8,
    };
    let (_, s) = rec.timed("mem", "drain_l1 x3", || {
        median3(|| {
            let mut l1 = Cache::new(gpu.l1);
            queue.l2q.clear();
            queue.l2q_sectors.clear();
            time_s(|| drain_l1(&mut queue, &mut l1, &params)).0
        })
    });
    rec.set("mem.drain_l1_msectors_per_s", sectors / s / 1e6);

    // UM driver: one-page touches over a region the size of the graph's
    // topology, first with room for half of it (faults, evictions), then
    // fully resident.
    let words = (g.topology_bytes() / 4).max(PAGE_WORDS);
    let n_pages = words.div_ceil(PAGE_WORDS) as usize;
    let touches: Vec<usize> = (0..4096u64)
        .map(|i| (splitmix(0x0051, i) % n_pages as u64) as usize)
        .collect();
    let mut um = UmDriver::new();
    let region = um.add_region(UmRegion::new(0, words));
    let mut link = PcieLink::new(gpu.pcie_bandwidth_gb_s, gpu.pcie_latency_ns);
    let budget = (n_pages as u64 * PAGE_BYTES / 2).max(PAGE_BYTES);
    let (s, _) = rec.timed("mem", "UmDriver::touch_pages oversubscribed", || {
        for (now, &p) in touches.iter().enumerate() {
            black_box(um.touch_pages(region, &[p], now as u64 * 1_000, budget, &mut link));
        }
    });
    rec.set(
        "mem.um_touch_us_per_fault",
        s * 1e6 / um.stats.faults.max(1) as f64,
    );
    let mut um = UmDriver::new();
    let region = um.add_region(UmRegion::new(0, words));
    let roomy = n_pages as u64 * PAGE_BYTES * 2;
    um.prefetch(region, 0, roomy, &mut link);
    let (s, _) = rec.timed("mem", "UmDriver::touch_pages resident", || {
        for (now, &p) in touches.iter().enumerate() {
            black_box(um.touch_pages(region, &[p], now as u64 * 1_000, roomy, &mut link));
        }
    });
    rec.set("mem.um_touch_ns_resident", s * 1e9 / touches.len() as f64);

    // Adaptive policy: ticks over a region with observed accesses.
    const TICKS: usize = 50;
    let mut mem = MemSystem::new(
        GpuConfig::DEFAULT_DEVICE_MEM,
        PcieLink::new(gpu.pcie_bandwidth_gb_s, gpu.pcie_latency_ns),
    );
    let slice = mem.alloc_unified(words);
    mem.enable_adaptive(slice);
    let first_sector = slice.word_off / 8;
    rec.timed("mem", "MemSystem::ensure_resident (observations)", || {
        for t in 0..TICKS as u64 {
            let sectors: Vec<u64> = (0..64)
                .map(|i| first_sector + splitmix(t, i) % (words / 8).max(1))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            mem.ensure_resident(slice.region, &sectors, t * 10_000);
        }
    });
    let (s, _) = rec.timed("mem", "MemSystem::adaptive_tick x50", || {
        for t in 0..TICKS as u64 {
            black_box(mem.adaptive_tick(t * 10_000, 4096));
        }
    });
    rec.set("mem.adaptive_tick_us", s * 1e6 / TICKS as f64);
}

fn launch_probes(rec: &mut Recorder<'_>, g: &Csr, stream: &[u64]) {
    const LAUNCHES: usize = 200;
    for (key, threads) in [("sim.null_launch_us", 1), ("sim.null_launch_us.ht2", 2)] {
        let mut dev = Device::new(GpuConfig::default_preset().with_host_threads(threads));
        let cfg = LaunchConfig {
            blocks: dev.cfg.num_sms as u32,
            threads_per_block: 256,
        };
        let (s, _) = rec.timed("sim", "Device::launch null kernel", || {
            for i in 0..LAUNCHES {
                black_box(dev.launch(&NullKernel, cfg, i as u64 * 1_000));
            }
        });
        rec.set(key, s * 1e6 / LAUNCHES as f64);
    }

    let n = stream.len() as u32;
    let col: Vec<u32> = stream.iter().map(|&v| v as u32).collect();
    let launch = LaunchConfig::for_items(n, 256);
    let mut gather_s = [0.0; 2];
    for (slot, threads) in [(0, 1), (1, 2)] {
        let mut dev = Device::new(GpuConfig::default_preset().with_host_threads(threads));
        let col_d = dev
            .mem
            .alloc_explicit(n.max(1) as u64)
            .expect("stream fits");
        let labels = dev
            .mem
            .alloc_explicit(g.n().max(1) as u64)
            .expect("labels fit");
        dev.mem.host_write(col_d, 0, &col);
        dev.mem.host_fill(labels, 0);
        if threads == 1 {
            let kernel = StreamKernel { data: col_d, n };
            let (s, _) = rec.timed("sim", "Device::launch stream kernel", || {
                black_box(dev.launch(&kernel, launch, 0))
            });
            rec.set("sim.stream_mlanes_per_s", n as f64 / s / 1e6);
        }
        let kernel = GatherKernel {
            col: col_d,
            labels,
            n,
        };
        let (s, _) = rec.timed("sim", "Device::launch gather kernel", || {
            black_box(dev.launch(&kernel, launch, 1_000_000))
        });
        gather_s[slot] = s;
    }
    rec.set("sim.gather_mlanes_per_s", n as f64 / gather_s[0] / 1e6);
    rec.set("sim.gather_ht2_speedup", gather_s[0] / gather_s[1]);
}

/// Whole-query probes: a plain cold BFS as the base, then the same query
/// with one optional layer switched on at a time.
fn engine_probes(rec: &mut Recorder<'_>, g: &Csr, source: u32) -> f64 {
    let gpu = GpuConfig::default_preset();
    let cfg = EtaConfig::paper();

    let (s, _) = rec.timed("core", "engine::prepare", || {
        let mut dev = Device::new(gpu);
        engine::prepare(&mut dev, g, &cfg, true).expect("the workload's graph fits")
    });
    rec.set("core.prepare_s", s);

    let (a, _) = rec.timed("core", "engine::run BFS (base)", || {
        cold_bfs(g, source, gpu)
    });
    let (b, _) = rec.timed("core", "engine::run BFS (base)", || {
        cold_bfs(g, source, gpu)
    });
    let base = a.min(b);

    let (s, _) = rec.timed("sim", "engine::run BFS sanitizer=full", || {
        cold_bfs(g, source, gpu.with_sanitizer(SanitizerMode::Full))
    });
    rec.set("sim.sanitize_overhead_frac", s / base - 1.0);

    let (s, dev) = rec.timed("prof", "engine::run BFS profiling=on", || {
        cold_bfs(g, source, gpu.with_profiling())
    });
    rec.set("prof.capture_overhead_frac", s / base - 1.0);
    let profile = dev.profile();
    rec.set("prof.events", profile.event_count() as f64);
    let (s, _) = rec.timed("prof", "Profile::summary_text", || {
        black_box(profile.summary_text())
    });
    rec.set("prof.render_ms.text", s * 1e3);
    let (s, _) = rec.timed("prof", "Profile::to_json", || black_box(profile.to_json()));
    rec.set("prof.render_ms.json", s * 1e3);
    let (s, _) = rec.timed("prof", "Profile::to_chrome_trace", || {
        black_box(profile.to_chrome_trace())
    });
    rec.set("prof.render_ms.chrome", s * 1e3);

    let mut sink = CkptSink::every(1);
    let (s, _) = rec.timed("ckpt", "engine::run_query_ckpt interval=1", || {
        let mut dev = Device::new(gpu);
        let (res, ready) = engine::prepare(&mut dev, g, &cfg, true).expect("fits");
        let ctl = CkptCtl::with_sink(&mut sink, g.digest());
        engine::run_query_ckpt(
            &mut dev,
            &res,
            g,
            source,
            Algorithm::Bfs,
            &cfg,
            0,
            ready,
            ctl,
        )
        .expect("the workload already ran this query")
    });
    rec.set("ckpt.overhead_frac.interval1", s / base - 1.0);
    rec.set("ckpt.snapshots", sink.taken as f64);

    // A plan that arms the fault machinery but can never fire.
    let inert = FaultPlan {
        hangs: vec![HangFault {
            device: 0,
            start_ns: u64::MAX / 2,
            end_ns: u64::MAX,
            budget_ns: 1,
        }],
        ..FaultPlan::default()
    };
    let (s, _) = rec.timed("fault", "engine::run BFS inert fault plan", || {
        let mut dev = Device::new(gpu);
        dev.install_faults(&inert, 0);
        engine::run(&mut dev, g, source, Algorithm::Bfs, &cfg).expect("an inert plan fails nothing")
    });
    rec.set("fault.inert_overhead_frac", s / base - 1.0);
    let text = serde_json::to_string(&FaultPlan::seeded(7, 2, 1_000_000_000)).expect("render plan");
    const PARSES: usize = 20;
    let (s, _) = rec.timed("fault", "FaultPlan::from_json_str", || {
        for _ in 0..PARSES {
            black_box(FaultPlan::from_json_str(&text).expect("a rendered plan parses"));
        }
    });
    rec.set("fault.plan_parse_us", s * 1e6 / PARSES as f64);

    // Warm paths: a resident session answering a single query and a
    // 32-source batch.
    let mut session = Session::new(g, cfg).expect("the workload's graph fits");
    session.query(Algorithm::Bfs, source).expect("cold query");
    let (s, _) = rec.timed("core", "Session::query (warm)", || {
        session.query(Algorithm::Bfs, source).expect("warm query")
    });
    rec.set("core.session_warm_query_ms", s * 1e3);
    let sources: Vec<u32> = (0..32)
        .map(|i| (splitmix(source as u64, i) % g.n() as u64) as u32)
        .collect();
    let (s, _) = rec.timed("core", "Session::query_batch (32 sources)", || {
        session.query_batch(&sources).expect("batched query")
    });
    rec.set("core.multi_bfs_batch_ms", s * 1e3);
    base
}

fn baseline_probes(rec: &mut Recorder<'_>) {
    let ds = datasets::build("slashdot");
    let frameworks: [(&str, Box<dyn Framework>); 3] = [
        ("baselines.run_s.cusha", Box::new(CushaLike::default())),
        ("baselines.run_s.gunrock", Box::new(GunrockLike::default())),
        ("baselines.run_s.tigr", Box::new(TigrLike::default())),
    ];
    for (key, fw) in frameworks {
        let (s, r) = rec.timed("baselines", fw.name(), || {
            run_fresh(
                fw.as_ref(),
                GpuConfig::default_preset(),
                &ds.csr,
                ds.source,
                Algorithm::Bfs,
            )
        });
        r.expect("slashdot BFS fits every framework");
        rec.set(key, s);
    }
}
