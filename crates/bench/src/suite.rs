//! Dataset caching and framework-cell execution for the report harness.

use eta_baselines::{
    run_fresh, CushaLike, EtaFramework, Framework, FrameworkError, GunrockLike, TigrLike,
};
use eta_graph::datasets::{self, Dataset};
use eta_graph::Csr;
use eta_sim::GpuConfig;
use etagraph::{Algorithm, RunResult};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Which datasets a report run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// slashdot / livejournal / orkut — seconds, used by tests and benches.
    Quick,
    /// All seven Table II analogs — the full reproduction.
    Full,
}

/// Dataset names for a suite, in Table II order.
pub fn datasets_for(suite: Suite) -> Vec<&'static str> {
    match suite {
        Suite::Quick => datasets::SMALL.to_vec(),
        Suite::Full => datasets::ALL.to_vec(),
    }
}

struct Cache {
    plain: BTreeMap<&'static str, Arc<Dataset>>,
    unweighted: BTreeMap<&'static str, Arc<Csr>>,
    weighted: BTreeMap<&'static str, Arc<Csr>>,
}

fn cache() -> &'static Mutex<Cache> {
    static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Mutex::new(Cache {
            plain: BTreeMap::new(),
            unweighted: BTreeMap::new(),
            weighted: BTreeMap::new(),
        })
    })
}

/// Builds (once per process) and returns a dataset.
pub fn dataset(name: &'static str) -> Arc<Dataset> {
    // lint: allow(L-PANIC): a poisoned cache lock means a bench thread already panicked
    let mut c = cache().lock().unwrap();
    if let Some(d) = c.plain.get(name) {
        return d.clone();
    }
    let d = Arc::new(datasets::build(name));
    c.plain.insert(name, d.clone());
    d
}

/// The weighted topology of a dataset (cached).
pub fn weighted(name: &'static str) -> Arc<Csr> {
    {
        // lint: allow(L-PANIC): a poisoned cache lock means a bench thread already panicked
        let c = cache().lock().unwrap();
        if let Some(w) = c.weighted.get(name) {
            return w.clone();
        }
    }
    let d = dataset(name);
    let w = Arc::new(d.weighted());
    // lint: allow(L-PANIC): a poisoned cache lock means a bench thread already panicked
    cache().lock().unwrap().weighted.insert(name, w.clone());
    w
}

/// The graph appropriate for an algorithm (weighted iff needed), cached so
/// repeated Table III cells share one topology copy.
pub fn graph_for(name: &'static str, alg: Algorithm) -> Arc<Csr> {
    if alg.needs_weights() {
        return weighted(name);
    }
    {
        // lint: allow(L-PANIC): a poisoned cache lock means a bench thread already panicked
        let c = cache().lock().unwrap();
        if let Some(g) = c.unweighted.get(name) {
            return g.clone();
        }
    }
    let g = Arc::new(dataset(name).csr.clone());
    // lint: allow(L-PANIC): a poisoned cache lock means a bench thread already panicked
    cache().lock().unwrap().unweighted.insert(name, g.clone());
    g
}

/// One Table III cell.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    Ok(Box<RunResult>),
    Oom,
    Unsupported,
    /// The device failed under an installed fault plan.
    Fault,
}

impl CellOutcome {
    /// `t_kernel/t_total` in the paper's milliseconds format.
    pub fn format(&self) -> String {
        match self {
            CellOutcome::Ok(r) => format!("{:.2}/{:.2}", r.kernel_ms(), r.total_ms()),
            CellOutcome::Oom => "O.O.M".to_string(),
            CellOutcome::Unsupported => "-".to_string(),
            CellOutcome::Fault => "FAULT".to_string(),
        }
    }

    pub fn total_ms(&self) -> Option<f64> {
        match self {
            CellOutcome::Ok(r) => Some(r.total_ms()),
            _ => None,
        }
    }

    pub fn result(&self) -> Option<&RunResult> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// The five Table III rows per algorithm.
pub fn frameworks() -> Vec<Box<dyn Framework>> {
    vec![
        Box::new(CushaLike::default()),
        Box::new(GunrockLike::default()),
        Box::new(TigrLike::default()),
        Box::new(EtaFramework::paper()),
        Box::new(EtaFramework::without_ump()),
    ]
}

/// Runs one framework on one dataset/algorithm with the default GPU.
pub fn run_cell(fw: &dyn Framework, name: &'static str, alg: Algorithm) -> CellOutcome {
    let g = graph_for(name, alg);
    let d = dataset(name);
    match run_fresh(fw, GpuConfig::default_preset(), &g, d.source, alg) {
        Ok(r) => CellOutcome::Ok(Box::new(r)),
        Err(FrameworkError::Oom(_)) => CellOutcome::Oom,
        Err(FrameworkError::Unsupported(_)) => CellOutcome::Unsupported,
        Err(FrameworkError::DeviceFault(_)) => CellOutcome::Fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_members() {
        assert_eq!(datasets_for(Suite::Quick).len(), 3);
        assert_eq!(datasets_for(Suite::Full).len(), 7);
        assert_eq!(datasets_for(Suite::Full)[0], "slashdot");
    }

    #[test]
    fn dataset_cache_returns_same_instance() {
        let a = dataset("slashdot");
        let b = dataset("slashdot");
        assert!(Arc::ptr_eq(&a, &b));
        let wa = weighted("slashdot");
        let wb = weighted("slashdot");
        assert!(Arc::ptr_eq(&wa, &wb));
        assert!(wa.is_weighted());
    }

    #[test]
    fn run_cell_produces_numbers_on_small_dataset() {
        let fws = frameworks();
        for fw in &fws {
            let cell = run_cell(fw.as_ref(), "slashdot", Algorithm::Bfs);
            let s = cell.format();
            assert!(
                cell.total_ms().is_some(),
                "{} should run slashdot BFS, got {s}",
                fw.name()
            );
        }
    }

    #[test]
    fn cell_formats() {
        assert_eq!(CellOutcome::Oom.format(), "O.O.M");
        assert_eq!(CellOutcome::Unsupported.format(), "-");
    }
}
