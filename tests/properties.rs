//! Property-based tests of the reproduction's core invariants.
//!
//! Random graphs are small (≤ 96 vertices) so each case simulates in
//! microseconds; proptest then explores hundreds of shapes including the
//! pathological ones (isolated vertices, self-loops, stars, chains).

use eta_graph::{reference, Csr, Vst};
use eta_sim::GpuConfig;
use etagraph::pagerank::PageRankConfig;
use etagraph::udc::{shadow_count_graph, shadow_slices};
use etagraph::{Algorithm, EtaConfig, EtaGraph, TransferMode};
use proptest::prelude::*;

/// Strategy: an arbitrary directed graph with ≤ `max_n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Csr> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| Csr::from_edges(n, &edges))
    })
}

/// Strategy: a weighted graph plus a valid source vertex.
fn arb_weighted_with_source() -> impl Strategy<Value = (Csr, u32)> {
    (
        arb_graph(96, 400),
        0u64..u64::MAX,
        any::<proptest::sample::Index>(),
    )
        .prop_map(|(g, seed, idx)| {
            let src = idx.index(g.n()) as u32;
            (g.with_random_weights(seed, 32), src)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- Unified Degree Cut: Definition 3 --------------------------------

    /// Shadow slices partition the edge range: disjoint, covering, bounded.
    #[test]
    fn udc_slices_partition(start in 0u32..10_000, len in 0u32..500, k in 1u32..40) {
        let end = start + len;
        let slices = shadow_slices(start, end, k);
        let mut cursor = start;
        for &(s, e) in &slices {
            prop_assert_eq!(s, cursor, "slices must tile without gaps");
            prop_assert!(e > s && e - s <= k, "degree bound violated");
            cursor = e;
        }
        prop_assert_eq!(cursor, end, "slices must cover the range");
        // |shadows| = ceil(deg / K)
        prop_assert_eq!(slices.len() as u32, len.div_ceil(k));
    }

    /// UDC and Tigr's VST agree on |N| for every graph and K — they encode
    /// the same Definition-3 mapping, materialized vs on-the-fly.
    #[test]
    fn udc_matches_vst_shadow_count((g, _) in arb_weighted_with_source(), k in 1u32..32) {
        let vst = Vst::from_csr(&g, k);
        prop_assert_eq!(vst.n_virtual() as u64, shadow_count_graph(&g, k));
    }

    // ---- Theorems 1 & 2: traversal through shadow vertices ---------------

    /// BFS through the simulated GPU equals the CPU oracle on arbitrary
    /// graphs (reachability preserved through shadow vertices).
    #[test]
    fn gpu_bfs_equals_oracle((g, src) in arb_weighted_with_source()) {
        let eta = EtaGraph::new(&g, EtaConfig::paper());
        let r = eta.run(Algorithm::Bfs, src).unwrap();
        prop_assert_eq!(r.labels, reference::bfs(&g, src));
    }

    /// SSSP label equality (virtual paths cost the same as real paths).
    #[test]
    fn gpu_sssp_equals_oracle((g, src) in arb_weighted_with_source()) {
        let eta = EtaGraph::new(&g, EtaConfig::paper());
        let r = eta.run(Algorithm::Sssp, src).unwrap();
        prop_assert_eq!(r.labels, reference::sssp(&g, src));
    }

    /// SSWP label equality under the max-min semiring.
    #[test]
    fn gpu_sswp_equals_oracle((g, src) in arb_weighted_with_source()) {
        let eta = EtaGraph::new(&g, EtaConfig::paper());
        let r = eta.run(Algorithm::Sswp, src).unwrap();
        prop_assert_eq!(r.labels, reference::sswp(&g, src));
    }

    /// The degree limit K never changes results, only performance.
    #[test]
    fn results_invariant_under_k((g, src) in arb_weighted_with_source(), k in 1u32..40) {
        let cfg = EtaConfig { k, ..EtaConfig::paper() };
        let r = EtaGraph::new(&g, cfg).run(Algorithm::Bfs, src).unwrap();
        prop_assert_eq!(r.labels, reference::bfs(&g, src));
    }

    /// Neither SMP nor the transfer mode changes results.
    #[test]
    fn results_invariant_under_config((g, src) in arb_weighted_with_source(), smp in any::<bool>()) {
        let expect = reference::sssp(&g, src);
        for transfer in [
            TransferMode::Unified,
            TransferMode::UnifiedPrefetch,
            TransferMode::ZeroCopy,
            TransferMode::Adaptive,
        ] {
            let cfg = EtaConfig { smp, transfer, ..EtaConfig::paper() };
            let r = EtaGraph::new(&g, cfg).run(Algorithm::Sssp, src).unwrap();
            prop_assert_eq!(&r.labels, &expect, "smp={} transfer={:?}", smp, transfer);
        }
    }

    // ---- representations --------------------------------------------------

    /// Every alternative representation preserves the edge multiset.
    #[test]
    fn representations_preserve_edges((g, _) in arb_weighted_with_source()) {
        let mut csr_edges = g.edge_tuples();
        csr_edges.sort_unstable();
        let gs = eta_graph::GShards::from_csr(&g, 8);
        prop_assert_eq!(gs.edge_tuples(), csr_edges.clone());
        let el = eta_graph::EdgeList::from_csr(&g);
        let mut el_edges: Vec<(u32, u32)> =
            el.src.iter().zip(&el.dst).map(|(&a, &b)| (a, b)).collect();
        el_edges.sort_unstable();
        prop_assert_eq!(el_edges, csr_edges.clone());
        // Transpose twice is the identity.
        prop_assert_eq!(g.transpose().transpose(), g.clone());
        // Serialization round-trips.
        let mut buf = Vec::new();
        eta_graph::io::write_csr(&g, &mut buf).unwrap();
        prop_assert_eq!(eta_graph::io::read_csr(&mut buf.as_slice()).unwrap(), g);
    }

    // ---- accounting invariants --------------------------------------------

    /// Metric identities hold for every run: cache hits never exceed
    /// requests, DRAM reads never exceed L2 reads, times are consistent.
    #[test]
    fn metric_identities((g, src) in arb_weighted_with_source()) {
        let r = EtaGraph::new(&g, EtaConfig::paper()).run(Algorithm::Sssp, src).unwrap();
        let m = &r.metrics;
        prop_assert!(m.l1.hits <= m.l1_requests);
        prop_assert!(m.l2_requests <= m.l1_requests);
        prop_assert!(m.dram_transactions <= m.l2_requests);
        prop_assert_eq!(m.l1.accesses(), m.l1_requests);
        prop_assert!(r.total_ns >= r.kernel_ns);
        prop_assert!(r.overlap_fraction >= 0.0 && r.overlap_fraction <= 1.0);
        // Iterations and per-iteration stats agree.
        prop_assert_eq!(r.per_iteration.len(), r.iterations as usize);
    }

    /// Activation accounting: visited == reachable set size for BFS.
    #[test]
    fn activation_equals_reachability((g, src) in arb_weighted_with_source()) {
        let r = EtaGraph::new(&g, EtaConfig::paper()).run(Algorithm::Bfs, src).unwrap();
        prop_assert_eq!(r.visited(), eta_graph::analysis::reachable_from(&g, src));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ---- hybrid transfer management ---------------------------------------

    /// The adaptive policy routes bytes, never results: labels are
    /// byte-identical to every static transfer mode for every frontier
    /// algorithm, and PageRank rank bits are identical too (f32 adds in the
    /// same order regardless of how operands crossed the link).
    #[test]
    fn adaptive_results_match_every_static_mode((g, src) in arb_weighted_with_source()) {
        let statics = [
            TransferMode::Unified,
            TransferMode::UnifiedPrefetch,
            TransferMode::ZeroCopy,
        ];
        for alg in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Sswp] {
            let a = EtaGraph::new(&g, EtaConfig::adaptive()).run(alg, src).unwrap();
            for transfer in statics {
                let cfg = EtaConfig { transfer, ..EtaConfig::paper() };
                let r = EtaGraph::new(&g, cfg).run(alg, src).unwrap();
                prop_assert_eq!(&r.labels, &a.labels, "alg={:?} transfer={:?}", alg, transfer);
            }
        }
        let ranks = |transfer| {
            let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
            let cfg = PageRankConfig {
                iterations: 5,
                eta: EtaConfig { transfer, ..EtaConfig::paper() },
                ..PageRankConfig::default()
            };
            let bits: Vec<u32> = etagraph::pagerank::run(&mut dev, &g, &cfg)
                .unwrap()
                .ranks
                .iter()
                .map(|r| r.to_bits())
                .collect();
            bits
        };
        let adaptive_bits = ranks(TransferMode::Adaptive);
        for transfer in statics {
            prop_assert_eq!(&ranks(transfer), &adaptive_bits, "transfer={:?}", transfer);
        }
    }

    /// Adaptive decisions are a pure function of the access stream: two
    /// runs of the same query agree byte-for-byte on labels, simulated
    /// time, and the final per-backend decision mix.
    #[test]
    fn adaptive_runs_are_deterministic((g, src) in arb_weighted_with_source()) {
        let run = || {
            let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
            let cfg = EtaConfig::adaptive();
            let r = etagraph::engine::run(&mut dev, &g, src, Algorithm::Sssp, &cfg).unwrap();
            (r.labels, r.total_ns, dev.mem.adaptive_totals())
        };
        prop_assert_eq!(run(), run());
    }

    /// The zero-copy backend acquires no residency: the UM driver's
    /// resident footprint stays zero while every touched graph byte is
    /// served over the link.
    #[test]
    fn zero_copy_acquires_no_residency((g, src) in arb_weighted_with_source()) {
        let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
        let cfg = EtaConfig::zero_copy();
        let r = etagraph::engine::run(&mut dev, &g, src, Algorithm::Sssp, &cfg).unwrap();
        prop_assert_eq!(dev.mem.um.resident_bytes(), 0, "zero-copy must not migrate pages");
        if g.degree(src) > 0 {
            prop_assert!(dev.mem.zero_copy_bytes > 0, "graph reads must cross the link");
        }
        prop_assert_eq!(r.labels, reference::sssp(&g, src));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Device capacity only separates run/OOM — never changes labels.
    #[test]
    fn capacity_never_changes_results((g, src) in arb_weighted_with_source(), mb in 1u64..4) {
        let gpu = GpuConfig::gtx1080ti_scaled(mb * 1024 * 1024);
        let eta = EtaGraph::new(&g, EtaConfig::paper()).with_gpu(gpu);
        if let Ok(r) = eta.run(Algorithm::Bfs, src) {
            prop_assert_eq!(r.labels, reference::bfs(&g, src));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel sort agrees with the standard sort on arbitrary inputs.
    #[test]
    fn par_sort_matches_std(mut v in proptest::collection::vec((0u32..500, 0u32..u32::MAX), 0..5000)) {
        let mut expect = v.clone();
        expect.sort_unstable();
        eta_par::par_sort_by_key(&mut v, |&pair| pair);
        prop_assert_eq!(v, expect);
    }

    /// GPU connected components equal the union-find oracle on symmetrized
    /// random graphs.
    #[test]
    fn gpu_cc_equals_union_find((g, _) in arb_weighted_with_source()) {
        let mut edges = g.edge_tuples();
        edges.extend(g.edge_tuples().iter().map(|&(a, b)| (b, a)));
        let sym = Csr::from_edges(g.n(), &edges);
        let r = EtaGraph::new(&sym, EtaConfig::paper())
            .run(Algorithm::Cc, 0)
            .unwrap();
        let mut uf = eta_graph::analysis::UnionFind::new(sym.n());
        for (a, b) in sym.edge_tuples() {
            uf.union(a, b);
        }
        let mut min_of_root = std::collections::HashMap::new();
        for v in 0..sym.n() as u32 {
            let root = uf.find(v);
            let e = min_of_root.entry(root).or_insert(v);
            *e = (*e).min(v);
        }
        for v in 0..sym.n() as u32 {
            prop_assert_eq!(r.labels[v as usize], min_of_root[&uf.find(v)]);
        }
    }

    /// Batched multi-source BFS equals per-source BFS for arbitrary graphs
    /// and batch compositions, up to the full 32-wide reach mask, whether
    /// launched one-shot or through a warm session. Exercises duplicate
    /// sources and every batch width class (1, partial, full).
    #[test]
    fn multi_bfs_equals_individual((g, src) in arb_weighted_with_source(), extra in proptest::collection::vec(any::<proptest::sample::Index>(), 0..31)) {
        let mut sources = vec![src];
        for idx in extra {
            sources.push(idx.index(g.n()) as u32);
        }
        assert!(sources.len() <= etagraph::multi_bfs::MAX_BATCH);
        let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
        let r = etagraph::multi_bfs::run(&mut dev, &g, &sources, &EtaConfig::paper()).unwrap();
        for (s, &source) in sources.iter().enumerate() {
            prop_assert_eq!(&r.levels[s], &reference::bfs(&g, source), "source {}", source);
        }
        // The warm-session path (resources allocated once, reused) agrees
        // with the one-shot path on the same batch.
        let mut session = etagraph::session::Session::new(&g, EtaConfig::paper()).unwrap();
        let warm = session.query_batch(&sources).unwrap();
        for (s, &source) in sources.iter().enumerate() {
            prop_assert_eq!(&warm.levels[s], &r.levels[s], "warm source {}", source);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interrupt/resume is invisible in the answer: a traversal that parks
    /// a snapshot at an arbitrary interval and is then restarted from that
    /// snapshot on a fresh device produces labels byte-identical to the
    /// uninterrupted run, for every algorithm and graph shape.
    #[test]
    fn resumed_traversal_is_byte_identical(
        (g, src) in arb_weighted_with_source(),
        interval in 1u32..5,
        which in 0usize..3,
    ) {
        let alg = [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Sswp][which];
        let cfg = EtaConfig::paper();
        let digest = g.digest();

        let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
        let (res, ready) = etagraph::engine::prepare(&mut dev, &g, &cfg, false).unwrap();
        let mut sink = eta_ckpt::CkptSink::every(interval);
        let clean = etagraph::engine::run_query_ckpt(
            &mut dev, &res, &g, src, alg, &cfg, 0, ready,
            eta_ckpt::CkptCtl::with_sink(&mut sink, digest),
        ).unwrap();

        // Short traversals may finish before the first snapshot; resume
        // only applies when a snapshot was actually parked.
        if let Some(ck) = sink.take() {
            prop_assert!(ck.iteration >= interval);
            let mut dev2 = eta_sim::Device::new(GpuConfig::default_preset());
            let (res2, ready2) = etagraph::engine::prepare(&mut dev2, &g, &cfg, false).unwrap();
            let mut sink2 = eta_ckpt::CkptSink::default();
            let resumed = etagraph::engine::run_query_ckpt(
                &mut dev2, &res2, &g, src, alg, &cfg, 0, ready2,
                eta_ckpt::CkptCtl::resuming(&mut sink2, &ck, digest),
            ).unwrap();
            prop_assert_eq!(&resumed.labels, &clean.labels, "labels diverge after resume");
            prop_assert_eq!(resumed.iterations, clean.iterations);
        }
    }

    /// Same property for PageRank, whose state is float-valued: the resumed
    /// ranks must match the uninterrupted ranks bit-for-bit, not just
    /// approximately.
    #[test]
    fn resumed_pagerank_is_bit_identical((g, _) in arb_weighted_with_source(), interval in 1u32..8) {
        let cfg = etagraph::pagerank::PageRankConfig {
            damping: 0.85,
            iterations: 10,
            eta: EtaConfig::paper(),
        };
        let digest = g.digest();
        let bits = |ranks: &[f32]| ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>();

        let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
        let mut sink = eta_ckpt::CkptSink::every(interval);
        let clean = etagraph::pagerank::run_ckpt(
            &mut dev, &g, &cfg, eta_ckpt::CkptCtl::with_sink(&mut sink, digest),
        ).unwrap();

        if let Some(ck) = sink.take() {
            let mut dev2 = eta_sim::Device::new(GpuConfig::default_preset());
            let mut sink2 = eta_ckpt::CkptSink::default();
            let resumed = etagraph::pagerank::run_ckpt(
                &mut dev2, &g, &cfg, eta_ckpt::CkptCtl::resuming(&mut sink2, &ck, digest),
            ).unwrap();
            prop_assert_eq!(bits(&resumed.ranks), bits(&clean.ranks));
            prop_assert_eq!(resumed.iterations, clean.iterations);
        }
    }
}

/// The deep, tiny-frontier regime (hundreds of one-block launches): labels
/// equal the CPU reference and every superstep's `visited_total` — kept
/// incrementally from the frontier appends — equals a recount over the
/// final BFS levels, on a fresh run and on one resumed from a mid-run
/// snapshot (whose seen-set starts from the restored labels).
#[test]
fn deep_traversal_counts_visits_exactly_fresh_and_resumed() {
    use eta_ckpt::{CkptCtl, CkptSink};
    use eta_graph::generate::{web, WebConfig};
    use eta_sim::Device;
    use etagraph::engine;

    let (g, src) = web(&WebConfig {
        vertices: 4_000,
        edges: 12_000,
        communities: 128,
        lcc_fraction: 0.7,
        source_island: None,
        seed: 11,
    });
    let (cfg, digest, levels) = (EtaConfig::paper(), g.digest(), reference::bfs(&g, src));
    let check = |run: &etagraph::RunResult, first: u32| {
        assert_eq!(run.labels, levels);
        assert_eq!(run.per_iteration[0].iteration, first);
        for it in &run.per_iteration {
            let reached = levels.iter().filter(|&&l| l <= it.iteration).count();
            assert_eq!(
                it.visited_total, reached as u64,
                "superstep {}",
                it.iteration
            );
        }
    };

    let mut dev = Device::new(GpuConfig::default_preset());
    let (res, ready) = engine::prepare(&mut dev, &g, &cfg, true).unwrap();
    let mut sink = CkptSink::every(97);
    let ctl = CkptCtl::with_sink(&mut sink, digest);
    let fresh =
        engine::run_query_ckpt(&mut dev, &res, &g, src, Algorithm::Bfs, &cfg, 0, ready, ctl)
            .unwrap();
    assert!(fresh.iterations >= 200, "{} supersteps", fresh.iterations);
    assert!(fresh.per_iteration.iter().all(|it| it.active < 256));
    check(&fresh, 1);

    let ck = sink.take().expect("a snapshot every 97 supersteps");
    assert!(ck.iteration >= 97 && ck.iteration < fresh.iterations);
    let mut dev = Device::new(GpuConfig::default_preset());
    let (res, ready) = engine::prepare(&mut dev, &g, &cfg, true).unwrap();
    let ctl = CkptCtl::resuming(&mut sink, &ck, digest);
    let resumed =
        engine::run_query_ckpt(&mut dev, &res, &g, src, Algorithm::Bfs, &cfg, 0, ready, ctl)
            .unwrap();
    assert_eq!(resumed.iterations, fresh.iterations);
    check(&resumed, ck.iteration + 1);
}

/// Checkpoint control is inert until a snapshot is due: with a sink
/// attached whose policy never fires, every program — label traversal,
/// PageRank, batched BFS — under every transfer mode matches its plain entry
/// point in simulated time, kernel counters and answer bits. (The plain and
/// checkpointed PageRank loops once disagreed on the adaptive policy tick;
/// this graph is the smallest R-MAT where that tick moves the clock.)
#[test]
fn a_sink_that_is_never_due_changes_nothing() {
    use eta_ckpt::{CkptCtl, CkptSink};
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_sim::Device;
    use etagraph::{engine, multi_bfs, pagerank, session::Session};

    let g = rmat(&RmatConfig::paper(11, 30_000, 3));
    let (digest, gpu, sources) = (g.digest(), GpuConfig::default_preset(), [0u32, 7, 99]);
    // (total_ns, kernel_ns, metrics) of the two runs, then their answers.
    type Clock<'m> = (u64, u64, &'m eta_sim::KernelMetrics);
    fn same(what: String, plain: Clock<'_>, ckpt: Clock<'_>, answers_agree: bool) {
        let key =
            |(total, kernel, m): Clock<'_>| (total, kernel, serde_json::to_string(m).unwrap());
        assert_eq!(key(plain), key(ckpt), "{what}: clock or counters moved");
        assert!(answers_agree, "{what}: answer bits moved");
    }
    for transfer in [
        TransferMode::UnifiedPrefetch,
        TransferMode::Unified,
        TransferMode::ExplicitCopy,
        TransferMode::ZeroCopy,
        TransferMode::Adaptive,
    ] {
        let cfg = EtaConfig {
            transfer,
            ..EtaConfig::paper()
        };
        let mut sink = CkptSink::every(u32::MAX);

        let a = engine::run(&mut Device::new(gpu), &g, 0, Algorithm::Bfs, &cfg).unwrap();
        let mut dev = Device::new(gpu);
        let (res, ready) = engine::prepare(&mut dev, &g, &cfg, true).unwrap();
        let ctl = CkptCtl::with_sink(&mut sink, digest);
        let b = engine::run_query_ckpt(&mut dev, &res, &g, 0, Algorithm::Bfs, &cfg, 0, ready, ctl)
            .unwrap();
        same(
            format!("bfs under {transfer:?}"),
            (a.total_ns, a.kernel_ns, &a.metrics),
            (b.total_ns, b.kernel_ns, &b.metrics),
            a.labels == b.labels,
        );

        let pr_cfg = PageRankConfig {
            iterations: 3,
            eta: cfg,
            ..PageRankConfig::default()
        };
        let bits = |ranks: &[f32]| ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        let a = pagerank::run(&mut Device::new(gpu), &g, &pr_cfg).unwrap();
        let ctl = CkptCtl::with_sink(&mut sink, digest);
        let b = pagerank::run_ckpt(&mut Device::new(gpu), &g, &pr_cfg, ctl).unwrap();
        same(
            format!("pagerank under {transfer:?}"),
            (a.total_ns, a.kernel_ns, &a.metrics),
            (b.total_ns, b.kernel_ns, &b.metrics),
            bits(&a.ranks) == bits(&b.ranks),
        );

        let mut session = Session::with_gpu(&g, cfg, gpu).unwrap();
        let a = session.query_batch(&sources).unwrap();
        let mut dev = Device::new(gpu);
        let (res, ready) = engine::prepare(&mut dev, &g, &cfg, true).unwrap();
        let multi = multi_bfs::MultiBfsResources::alloc(&mut dev, &g, &cfg).unwrap();
        let (dg, ctl) = (res.device_graph(), CkptCtl::with_sink(&mut sink, digest));
        let b = multi_bfs::run_on_ckpt(&mut dev, dg, &multi, &sources, &cfg, ready, ctl).unwrap();
        same(
            format!("multi-bfs under {transfer:?}"),
            (a.total_ns, a.kernel_ns, &a.metrics),
            (b.total_ns, b.kernel_ns, &b.metrics),
            a.levels == b.levels,
        );
        assert_eq!(sink.taken, 0, "the policy never fired");
    }
}

// ---- eta-shard: vertex-range partitioning & the sharded BSP loop ---------

/// The config the sharded loop normalizes every run to (in-core UDC,
/// push-only); the single-device baseline must use the same one so label
/// comparisons measure partitioning, not configuration drift.
fn sharded_cfg() -> EtaConfig {
    EtaConfig {
        udc: etagraph::UdcMode::InCore,
        direction_optimizing: false,
        ..EtaConfig::paper()
    }
}

fn device_group(n: u32) -> Vec<eta_sim::Device> {
    (0..n)
        .map(|_| eta_sim::Device::new(GpuConfig::default_preset()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cuts tile `0..n` and every global edge — weight included — lands
    /// in exactly one shard's owned rows, recoverable through `to_global`.
    #[test]
    fn partition_assigns_every_edge_exactly_once(
        (g, _) in arb_weighted_with_source(),
        devices in 1u32..5,
    ) {
        let part = eta_shard::GraphPartition::vertex_range(&g, devices);
        prop_assert_eq!(part.shards.len(), devices as usize);
        prop_assert_eq!(part.cuts[0], 0);
        prop_assert_eq!(*part.cuts.last().unwrap(), g.n() as u32);
        prop_assert!(part.cuts.windows(2).all(|w| w[0] <= w[1]));

        let mut local: Vec<(u32, u32, u32)> = Vec::new();
        for s in &part.shards {
            prop_assert_eq!(s.own_len(), s.hi - s.lo);
            prop_assert_eq!(s.local_m(), s.csr.m() as u64);
            for v in 0..s.own_len() {
                let ws = s.csr.edge_weights(v);
                for (i, &dst) in s.csr.neighbors(v).iter().enumerate() {
                    local.push((s.to_global(v), s.to_global(dst), ws[i]));
                }
            }
        }
        let mut global: Vec<(u32, u32, u32)> = Vec::new();
        for v in 0..g.n() as u32 {
            let ws = g.edge_weights(v);
            for (i, &dst) in g.neighbors(v).iter().enumerate() {
                global.push((v, dst, ws[i]));
            }
        }
        local.sort_unstable();
        global.sort_unstable();
        prop_assert_eq!(local, global);
    }

    /// A shard's halo is exactly the set of cross-range destinations of its
    /// owned edges: sorted, deduplicated, nothing owned, nothing missing.
    #[test]
    fn halo_is_exactly_the_cross_shard_destination_set(
        (g, _) in arb_weighted_with_source(),
        devices in 1u32..5,
    ) {
        let part = eta_shard::GraphPartition::vertex_range(&g, devices);
        for s in &part.shards {
            let mut expected: Vec<u32> = (s.lo..s.hi)
                .flat_map(|v| g.neighbors(v).iter().copied())
                .filter(|&d| d < s.lo || d >= s.hi)
                .collect();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(&s.halo, &expected);
            // Local ids round-trip: owned then halo, densely packed.
            for &h in &s.halo {
                let l = s.to_local(h).unwrap();
                prop_assert!(s.is_halo_local(l));
                prop_assert_eq!(s.to_global(l), h);
            }
        }
    }

    /// `ShardSpec::footprint_bytes` is *exact*: preparing the shard on a
    /// fresh device moves the allocator's explicit accounting by precisely
    /// the predicted figure, for every K and both topology transfer modes.
    /// (Group admission in eta-serve sizes residency off this number, so an
    /// estimate that drifts would admit partitions that OOM mid-flight.)
    #[test]
    fn shard_footprint_bytes_is_exact(
        (g, _) in arb_weighted_with_source(),
        devices in 1u32..5,
        k in 1u32..40,
        explicit in any::<bool>(),
    ) {
        let cfg = EtaConfig {
            k,
            transfer: if explicit {
                TransferMode::ExplicitCopy
            } else {
                TransferMode::UnifiedPrefetch
            },
            ..sharded_cfg()
        };
        let part = eta_shard::GraphPartition::vertex_range(&g, devices);
        for s in &part.shards {
            let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
            let before = dev.mem.explicit_used_bytes();
            etagraph::engine::prepare(&mut dev, &s.csr, &cfg, false).unwrap();
            let used = dev.mem.explicit_used_bytes() - before;
            prop_assert_eq!(used, s.footprint_bytes(k, explicit),
                "shard {}..{} (halo {})", s.lo, s.hi, s.halo.len());
        }
    }
}

proptest! {
    // Each case runs a full multi-device BSP simulation; keep the case
    // count modest (the strategies still cover stars, chains, empty tails).
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merged sharded labels are byte-identical to the single-device engine
    /// for every traversal algorithm, group size and graph shape — including
    /// partitions where tail shards own an empty range.
    #[test]
    fn sharded_group_matches_single_device(
        (g, src) in arb_weighted_with_source(),
        devices in 2u32..5,
        which in 0usize..3,
    ) {
        let alg = [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Sswp][which];
        let cfg = sharded_cfg();
        let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
        let single = etagraph::engine::run(&mut dev, &g, src, alg, &cfg).unwrap();

        let part = eta_shard::GraphPartition::vertex_range(&g, devices);
        let mut devs = device_group(devices);
        let mut fabric = eta_mem::PeerFabric::nvlink(devices);
        let sharded =
            etagraph::sharded::run_sharded(&mut devs, &mut fabric, &part, src, alg, &cfg)
                .unwrap();
        prop_assert_eq!(&sharded.labels, &single.labels, "labels diverge under sharding");
        // Conservation: what left the wire is what the per-superstep log saw.
        prop_assert_eq!(
            sharded.per_superstep.iter().map(|s| s.exchanged_bytes).sum::<u64>(),
            sharded.exchanged_bytes
        );
    }

    /// Sharded PageRank — float-valued, all-active — merges to ranks
    /// bit-identical to the single-device run at every group size.
    #[test]
    fn sharded_pagerank_is_bit_identical(
        (g, _) in arb_weighted_with_source(),
        devices in 2u32..5,
    ) {
        let cfg = etagraph::pagerank::PageRankConfig {
            damping: 0.85,
            iterations: 8,
            eta: EtaConfig::paper(),
        };
        let bits = |ranks: &[f32]| ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        let mut dev = eta_sim::Device::new(GpuConfig::default_preset());
        let single = etagraph::pagerank::run(&mut dev, &g, &cfg).unwrap();

        let part = eta_shard::GraphPartition::vertex_range(&g, devices);
        let mut devs = device_group(devices);
        let mut fabric = eta_mem::PeerFabric::nvlink(devices);
        let sharded = etagraph::sharded::run_sharded_pagerank(
            &mut devs, &mut fabric, &part, &g, &cfg,
        )
        .unwrap();
        prop_assert_eq!(bits(&sharded.ranks), bits(&single.ranks));
        prop_assert_eq!(sharded.iterations, single.iterations);
    }
}
