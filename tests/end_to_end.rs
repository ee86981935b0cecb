//! End-to-end integration tests across the workspace: datasets → device
//! placement → kernels → results, validated against the CPU references.

use eta_baselines::{
    run_fresh, ChunkStream, CushaLike, EtaFramework, Framework, FrameworkError, GunrockLike,
    TigrLike,
};
use eta_fault::{FaultKind, FaultPlan, HangFault};
use eta_graph::generate::{rmat, web, RmatConfig, WebConfig};
use eta_graph::{analysis, reference};
use eta_sim::{Device, GpuConfig};
use etagraph::{Algorithm, EtaConfig, EtaGraph};

fn frameworks() -> Vec<Box<dyn Framework>> {
    vec![
        Box::new(CushaLike::default()),
        Box::new(GunrockLike::default()),
        Box::new(TigrLike::default()),
        Box::new(EtaFramework::paper()),
        Box::new(EtaFramework::without_ump()),
    ]
}

#[test]
fn all_frameworks_agree_on_all_algorithms() {
    let g = rmat(&RmatConfig::paper(12, 60_000, 2024)).with_random_weights(3, 48);
    let src = 0u32;
    let oracles = [
        (Algorithm::Bfs, reference::bfs(&g, src)),
        (Algorithm::Sssp, reference::sssp(&g, src)),
        (Algorithm::Sswp, reference::sswp(&g, src)),
    ];
    for fw in frameworks() {
        for (alg, expect) in &oracles {
            let r = run_fresh(fw.as_ref(), GpuConfig::default_preset(), &g, src, *alg)
                .unwrap_or_else(|e| panic!("{} {} failed: {e}", fw.name(), alg.name()));
            assert_eq!(&r.labels, expect, "{} {}", fw.name(), alg.name());
            assert!(r.total_ns >= r.kernel_ns, "{}: total < kernel", fw.name());
            assert!(r.iterations >= 1);
        }
    }
}

/// Every execution model runs on the driver's one launch path, so a fault
/// plan applies to all five alike: a hang window is a typed error, and the
/// empty plan changes nothing.
#[test]
fn every_framework_polls_faults_and_ignores_the_empty_plan() {
    let g = rmat(&RmatConfig::paper(10, 12_000, 99)).with_random_weights(5, 32);
    let src = 1u32;
    let mut hang = FaultPlan::default();
    hang.hangs.push(HangFault {
        device: 0,
        start_ns: 0,
        end_ns: u64::MAX,
        budget_ns: 1_000,
    });
    let mut fws = frameworks();
    fws.push(Box::new(ChunkStream::default()));
    for fw in fws {
        for (alg, expect) in [
            (Algorithm::Bfs, reference::bfs(&g, src)),
            (Algorithm::Sssp, reference::sssp(&g, src)),
            (Algorithm::Sswp, reference::sswp(&g, src)),
        ] {
            let what = format!("{} {}", fw.name(), alg.name());
            let mut dev = Device::new(GpuConfig::default_preset());
            dev.install_faults(&hang, 0);
            match fw.run(&mut dev, &g, src, alg) {
                Err(FrameworkError::DeviceFault(f)) => assert_eq!(f.kind, FaultKind::KernelHang),
                other => panic!(
                    "{what}: expected a kernel hang, got {:?}",
                    other.map(|_| ())
                ),
            }
            let mut dev = Device::new(GpuConfig::default_preset());
            dev.install_faults(&FaultPlan::default(), 0);
            let r = fw.run(&mut dev, &g, src, alg).unwrap();
            assert_eq!(r.labels, expect, "{what}");
            assert!(r.total_ns >= r.kernel_ns, "{what}: total < kernel");
        }
    }
}

#[test]
fn full_runs_are_deterministic() {
    let g = rmat(&RmatConfig::paper(11, 30_000, 5)).with_random_weights(1, 16);
    let eta = EtaGraph::new(&g, EtaConfig::paper());
    let a = eta.run(Algorithm::Sssp, 3).unwrap();
    let b = eta.run(Algorithm::Sssp, 3).unwrap();
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.total_ns, b.total_ns, "timing must be reproducible");
    assert_eq!(a.metrics.instructions, b.metrics.instructions);
    assert_eq!(
        a.um_stats.migration_batches.len(),
        b.um_stats.migration_batches.len()
    );
}

#[test]
fn graph_io_roundtrip_preserves_traversal() {
    let g = rmat(&RmatConfig::paper(10, 12_000, 77)).with_random_weights(2, 8);
    let dir = std::env::temp_dir().join("etagraph-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.etag");
    eta_graph::io::save(&g, &path).unwrap();
    let loaded = eta_graph::io::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(g, loaded);

    let eta = EtaGraph::new(&loaded, EtaConfig::paper());
    let r = eta.run(Algorithm::Sssp, 0).unwrap();
    assert_eq!(r.labels, reference::sssp(&g, 0));
}

#[test]
fn multi_source_queries_are_independent() {
    let g = rmat(&RmatConfig::paper(11, 25_000, 13));
    let eta = EtaGraph::new(&g, EtaConfig::paper());
    for src in [0u32, 1, 17, 1000] {
        let r = eta.run(Algorithm::Bfs, src).unwrap();
        assert_eq!(r.labels, reference::bfs(&g, src), "source {src}");
    }
}

#[test]
fn web_graph_traversal_matches_reference_and_structure() {
    let (g, src) = web(&WebConfig {
        vertices: 30_000,
        edges: 200_000,
        communities: 24,
        lcc_fraction: 0.7,
        source_island: None,
        seed: 4,
    });
    let expect = reference::bfs(&g, src);
    let eta = EtaGraph::new(&g, EtaConfig::paper());
    let r = eta.run(Algorithm::Bfs, src).unwrap();
    assert_eq!(r.labels, expect);
    // Chain-of-communities: BFS needs roughly 2 iterations per community.
    assert!(
        r.iterations >= 24,
        "high-diameter web graph should need many iterations, got {}",
        r.iterations
    );
    // Reachability ≈ LCC share.
    let frac = r.visited() as f64 / g.n() as f64;
    let lcc = analysis::components(&g).lcc_fraction;
    assert!((frac - lcc).abs() < 0.1, "visited {frac} vs lcc {lcc}");
}

#[test]
fn oom_pattern_mini() {
    // A miniature of Table III's O.O.M staircase: on a device sized to ~3
    // words/edge, CuSha (≈5.5 w/e) dies, Gunrock BFS (≈1.5 w/e) lives.
    let g = rmat(&RmatConfig::paper(12, 120_000, 9));
    let bytes_per_edge = |w: f64| (g.m() as f64 * w * 4.0) as u64;
    let gpu = GpuConfig::gtx1080ti_scaled(bytes_per_edge(3.0));

    assert!(
        run_fresh(&CushaLike::default(), gpu, &g, 0, Algorithm::Bfs).is_err(),
        "CuSha must OOM at 3 words/edge"
    );
    let gunrock = run_fresh(&GunrockLike::default(), gpu, &g, 0, Algorithm::Bfs);
    assert!(gunrock.is_ok(), "Gunrock BFS fits at 3 words/edge");
    let tigr = run_fresh(&TigrLike::default(), gpu, &g, 0, Algorithm::Bfs);
    assert!(tigr.is_ok(), "Tigr BFS fits at 3 words/edge");
    // EtaGraph runs even when the device holds almost nothing.
    let tiny = GpuConfig::gtx1080ti_scaled(bytes_per_edge(1.2));
    let eta = run_fresh(&EtaFramework::paper(), tiny, &g, 0, Algorithm::Bfs);
    assert!(eta.is_ok(), "EtaGraph oversubscribes via UM");
}

#[test]
fn zero_copy_mode_works_but_is_slow() {
    let g = rmat(&RmatConfig::paper(10, 10_000, 3));
    let zc = EtaGraph::new(
        &g,
        EtaConfig {
            transfer: etagraph::TransferMode::ZeroCopy,
            ..EtaConfig::default()
        },
    );
    let um = EtaGraph::new(&g, EtaConfig::paper());
    let rz = zc.run(Algorithm::Bfs, 0).unwrap();
    let ru = um.run(Algorithm::Bfs, 0).unwrap();
    assert_eq!(rz.labels, ru.labels);
    assert!(
        rz.kernel_ns as f64 > 1.2 * ru.kernel_ns as f64,
        "zero-copy pays interconnect latency per access: {} vs {}",
        rz.kernel_ns,
        ru.kernel_ns
    );
}

#[test]
fn empty_and_degenerate_graphs() {
    // Single vertex, no edges.
    let g = eta_graph::Csr::from_edges(1, &[]);
    let r = EtaGraph::new(&g, EtaConfig::paper())
        .run(Algorithm::Bfs, 0)
        .unwrap();
    assert_eq!(r.labels, vec![0]);

    // Self loops only.
    let g = eta_graph::Csr::from_edges(3, &[(0, 0), (1, 1), (2, 2)]);
    let r = EtaGraph::new(&g, EtaConfig::paper())
        .run(Algorithm::Bfs, 1)
        .unwrap();
    assert_eq!(r.labels, vec![u32::MAX, 0, u32::MAX]);

    // Star graph: one UDC split covers everything.
    let star: Vec<(u32, u32)> = (1..500u32).map(|d| (0, d)).collect();
    let g = eta_graph::Csr::from_edges(500, &star);
    let r = EtaGraph::new(&g, EtaConfig::paper())
        .run(Algorithm::Bfs, 0)
        .unwrap();
    assert_eq!(r.visited(), 500);
    assert_eq!(r.iterations, 2);
}
