//! An installed fault plan applies to every framework alike: all five run
//! on the driver's `Lane`, which polls the device after every launch. At
//! the commit before the baselines moved onto it the four models returned
//! `Ok` with `total_ns < kernel_ns` under a hang plan.

use eta_baselines::{
    ChunkStream, CushaLike, EtaFramework, Framework, FrameworkError, GunrockLike, TigrLike,
};
use eta_fault::{EccFault, FaultKind, FaultPlan, HangFault};
use eta_graph::generate::{rmat, RmatConfig};
use eta_graph::Csr;
use eta_mem::timeline::SpanKind;
use eta_sim::{Device, GpuConfig};
use etagraph::{Algorithm, RunResult};

fn frameworks() -> Vec<Box<dyn Framework>> {
    vec![
        Box::new(EtaFramework::paper()),
        Box::new(TigrLike::default()),
        Box::new(GunrockLike::default()),
        Box::new(CushaLike::default()),
        Box::new(ChunkStream { chunk_edges: 4096 }),
    ]
}

fn graph() -> Csr {
    rmat(&RmatConfig::paper(11, 25_000, 61)).with_random_weights(7, 32)
}

fn run(fw: &dyn Framework, g: &Csr, plan: Option<&FaultPlan>) -> Result<RunResult, FrameworkError> {
    let mut dev = Device::new(GpuConfig::default_preset());
    if let Some(plan) = plan {
        dev.install_faults(plan, 0);
    }
    fw.run(&mut dev, g, 0, Algorithm::Sssp)
}

fn fault_of(r: Result<RunResult, FrameworkError>, fw: &str) -> eta_fault::DeviceFault {
    match r {
        Err(FrameworkError::DeviceFault(f)) => f,
        Err(e) => panic!("{fw}: expected a device fault, got {e}"),
        Ok(r) => panic!(
            "{fw}: the fault was swallowed ({} ns kernel, {} ns total)",
            r.kernel_ns, r.total_ns
        ),
    }
}

#[test]
fn a_hang_plan_is_a_typed_error_for_every_framework() {
    let g = graph();
    let mut plan = FaultPlan::default();
    plan.hangs.push(HangFault {
        device: 0,
        start_ns: 0,
        end_ns: u64::MAX,
        budget_ns: 1_000,
    });
    for fw in frameworks() {
        let f = fault_of(run(fw.as_ref(), &g, Some(&plan)), fw.name());
        assert_eq!(f.kind, FaultKind::KernelHang, "{}", fw.name());
    }
}

#[test]
fn a_double_bit_ecc_inside_a_launch_is_a_typed_error_for_every_framework() {
    let g = graph();
    for fw in frameworks() {
        let clean = run(fw.as_ref(), &g, None).unwrap();
        let kernels = clean.timeline.spans().iter();
        let second = kernels
            .filter(|s| s.kind == SpanKind::Compute)
            .nth(1)
            .expect("at least two launches");
        let mut plan = FaultPlan::default();
        plan.ecc.push(EccFault {
            device: 0,
            at_ns: (second.start + second.end) / 2,
            addr_start: 0,
            addr_words: 8,
            double_bit: true,
        });
        let f = fault_of(run(fw.as_ref(), &g, Some(&plan)), fw.name());
        assert_eq!(f.kind, FaultKind::EccDoubleBit, "{}", fw.name());
    }
}

#[test]
fn the_empty_plan_is_inert_for_every_framework() {
    let g = graph();
    for fw in frameworks() {
        let bare = run(fw.as_ref(), &g, None).unwrap();
        let planned = run(fw.as_ref(), &g, Some(&FaultPlan::default())).unwrap();
        assert_eq!(format!("{bare:?}"), format!("{planned:?}"), "{}", fw.name());
        assert!(bare.total_ns >= bare.kernel_ns, "{}", fw.name());
    }
}
