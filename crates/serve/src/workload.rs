//! Open-loop workload generation: a Poisson arrival process over named
//! graphs, driven entirely by counter-based SplitMix streams — no wall
//! clock, no stateful RNG, so a `(seed, requests)` pair always produces the
//! same trace.

use crate::registry::GraphRegistry;
use crate::request::{Priority, Request};
use eta_graph::generate::{splitmix, unit};
use eta_mem::Ns;

/// Arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Homogeneous Poisson: exponential gaps at `rate_per_s`.
    Poisson,
    /// Two-state Markov-modulated Poisson process (MMPP): a background
    /// *calm* state at half of `rate_per_s` and a *burst* state at four
    /// times it, with exponential sojourns drawn from a seeded stream
    /// independent of the per-request draws. Sojourn means are expressed
    /// in mean inter-arrival gaps at the base rate (16 calm, 4 burst), so
    /// the modulation tracks the workload's own timescale at any rate.
    /// Same mean intensity ballpark as `Poisson`, but the load arrives in
    /// squalls — the arrival pattern that defeats naive averaged
    /// admission control.
    Burst,
}

impl Arrival {
    pub fn name(self) -> &'static str {
        match self {
            Arrival::Poisson => "poisson",
            Arrival::Burst => "burst",
        }
    }

    /// Parses a CLI spelling; `None` for anything unknown.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "poisson" => Some(Arrival::Poisson),
            "burst" => Some(Arrival::Burst),
            _ => None,
        }
    }
}

/// Shape of a generated request stream.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    pub requests: u32,
    pub seed: u64,
    /// Mean arrival rate of the Poisson process, requests per simulated
    /// second.
    pub rate_per_s: f64,
    /// Arrival process: homogeneous Poisson (default) or two-state MMPP
    /// bursts.
    pub arrival: Arrival,
    /// Fraction of requests in the interactive class, in [0, 1].
    pub interactive_fraction: f64,
    /// Completion SLO attached to interactive requests (deadline =
    /// arrival + SLO); `None` = no deadline.
    pub interactive_slo_ns: Option<Ns>,
    /// Completion SLO attached to batch-class requests.
    pub batch_slo_ns: Option<Ns>,
    /// Queue-wait timeout attached to every request.
    pub timeout_ns: Option<Ns>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            requests: 200,
            seed: 7,
            rate_per_s: 2_000.0,
            arrival: Arrival::Poisson,
            interactive_fraction: 0.5,
            interactive_slo_ns: None,
            batch_slo_ns: None,
            timeout_ns: None,
        }
    }
}

/// Generates an open-loop arrival trace of BFS requests over `graphs` —
/// homogeneous Poisson by default, or two-state MMPP squalls with
/// [`Arrival::Burst`].
///
/// Each request draws four independent SplitMix streams (inter-arrival gap,
/// graph pick, source pick, class pick), so changing one knob never
/// perturbs the other draws. Inter-arrival gaps are exponential via inverse
/// CDF (`-ln(1-u)/rate`). Sources are drawn uniformly over the picked
/// graph's vertices; a name missing from the registry keeps its raw draw
/// (the service will refuse it as `UnknownGraph`, which is itself useful
/// for rejection testing).
pub fn poisson_trace(
    registry: &GraphRegistry,
    graphs: &[String],
    cfg: &WorkloadConfig,
) -> Vec<Request> {
    assert!(!graphs.is_empty(), "need at least one graph name");
    assert!(cfg.rate_per_s > 0.0, "arrival rate must be positive");
    // MMPP modulation (Arrival::Burst): the state schedule is drawn from
    // its own counter namespace (`1<<40 + k`, far above any per-request
    // stream index), so switching arrival modes never perturbs the graph,
    // source, or class draws of a given request id.
    const CALM_MULT: f64 = 0.5;
    const BURST_MULT: f64 = 4.0;
    // Sojourn means in mean base-rate inter-arrival gaps: ~8 arrivals per
    // calm stretch (at 0.5x) and ~16 per squall (at 4x), at any rate.
    const CALM_SOJOURN_GAPS: f64 = 16.0;
    const BURST_SOJOURN_GAPS: f64 = 4.0;
    let gap_ns = 1e9 / cfg.rate_per_s;
    let mut bursting = false;
    let mut sojourns = 0u64;
    let mut state_until = {
        let u = unit(cfg.seed, 1 << 40);
        -(1.0 - u).ln() * CALM_SOJOURN_GAPS * gap_ns
    };
    let mut arrival = 0f64;
    let mut trace = Vec::with_capacity(cfg.requests as usize);
    for i in 0..cfg.requests as u64 {
        let gap_u = unit(cfg.seed, i * 4);
        let rate = match cfg.arrival {
            Arrival::Poisson => cfg.rate_per_s,
            Arrival::Burst => cfg.rate_per_s * if bursting { BURST_MULT } else { CALM_MULT },
        };
        arrival += -(1.0 - gap_u).ln() * 1e9 / rate;
        if cfg.arrival == Arrival::Burst {
            // Advance the modulating chain past this arrival. Exponential
            // gaps are memoryless, so drawing each gap at the rate of the
            // state active when the previous request arrived is a faithful
            // discretization of the MMPP.
            while arrival >= state_until {
                bursting = !bursting;
                sojourns += 1;
                let u = unit(cfg.seed, (1 << 40) + sojourns);
                let mean = if bursting {
                    BURST_SOJOURN_GAPS
                } else {
                    CALM_SOJOURN_GAPS
                };
                state_until += -(1.0 - u).ln() * mean * gap_ns;
            }
        }
        let graph = &graphs[(splitmix(cfg.seed, i * 4 + 1) % graphs.len() as u64) as usize];
        let source = match registry.get(graph) {
            Some(csr) => (splitmix(cfg.seed, i * 4 + 2) % csr.n().max(1) as u64) as u32,
            None => splitmix(cfg.seed, i * 4 + 2) as u32,
        };
        let class = if unit(cfg.seed, i * 4 + 3) < cfg.interactive_fraction {
            Priority::Interactive
        } else {
            Priority::Batch
        };
        let arrival_ns = arrival as Ns;
        let slo = match class {
            Priority::Interactive => cfg.interactive_slo_ns,
            Priority::Batch => cfg.batch_slo_ns,
        };
        trace.push(Request {
            id: i as u32,
            graph: graph.clone(),
            class,
            source,
            arrival_ns,
            deadline_ns: slo.map(|s| arrival_ns.saturating_add(s)),
            timeout_ns: cfg.timeout_ns,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_graph::generate::{rmat, RmatConfig};

    fn registry() -> GraphRegistry {
        let mut reg = GraphRegistry::new();
        reg.insert("g", rmat(&RmatConfig::paper(8, 1_000, 1)));
        reg
    }

    #[test]
    fn traces_are_deterministic_and_sorted() {
        let reg = registry();
        let names = vec!["g".to_string()];
        let cfg = WorkloadConfig {
            requests: 50,
            ..WorkloadConfig::default()
        };
        let a = poisson_trace(&reg, &names, &cfg);
        let b = poisson_trace(&reg, &names, &cfg);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival_ns, y.arrival_ns);
            assert_eq!(x.source, y.source);
            assert_eq!(x.class, y.class);
        }
        assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        let n = reg.get("g").unwrap().n() as u32;
        assert!(a.iter().all(|r| r.source < n));
    }

    #[test]
    fn seeds_change_the_trace_and_slos_attach_by_class() {
        let reg = registry();
        let names = vec!["g".to_string()];
        let base = WorkloadConfig {
            requests: 40,
            interactive_slo_ns: Some(1_000_000),
            batch_slo_ns: None,
            ..WorkloadConfig::default()
        };
        let a = poisson_trace(&reg, &names, &base);
        let b = poisson_trace(
            &reg,
            &names,
            &WorkloadConfig {
                seed: 8,
                ..base.clone()
            },
        );
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.arrival_ns != y.arrival_ns || x.source != y.source),
            "different seeds must differ somewhere"
        );
        let mut interactive = 0;
        for r in &a {
            match r.class {
                Priority::Interactive => {
                    interactive += 1;
                    assert_eq!(r.deadline_ns, Some(r.arrival_ns + 1_000_000));
                }
                Priority::Batch => assert_eq!(r.deadline_ns, None),
            }
        }
        assert!(
            interactive > 0 && interactive < 40,
            "mixed classes expected, got {interactive}/40 interactive"
        );
    }

    #[test]
    fn deadlines_saturate_at_the_end_of_the_clock() {
        let cfg = WorkloadConfig {
            requests: 50,
            interactive_fraction: 1.0,
            interactive_slo_ns: Some(Ns::MAX - 1),
            ..WorkloadConfig::default()
        };
        let trace = poisson_trace(&registry(), &["g".to_string()], &cfg);
        assert!(
            trace.last().unwrap().arrival_ns > 1,
            "arrivals move the clock"
        );
        assert!(trace.iter().all(|r| r.deadline_ns >= Some(Ns::MAX - 1)));
        assert_eq!(trace.last().unwrap().deadline_ns, Some(Ns::MAX));
    }

    #[test]
    fn burst_arrivals_are_deterministic_and_burstier_than_poisson() {
        let reg = registry();
        let names = vec!["g".to_string()];
        let cfg = WorkloadConfig {
            requests: 400,
            arrival: Arrival::Burst,
            ..WorkloadConfig::default()
        };
        let a = poisson_trace(&reg, &names, &cfg);
        let b = poisson_trace(&reg, &names, &cfg);
        assert_eq!(a.len(), 400);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.id, x.arrival_ns, x.source),
                (y.id, y.arrival_ns, y.source)
            );
        }
        assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        // Only the gaps change relative to Poisson: request i keeps its
        // graph, source, and class draws.
        let p = poisson_trace(
            &reg,
            &names,
            &WorkloadConfig {
                arrival: Arrival::Poisson,
                ..cfg.clone()
            },
        );
        for (x, y) in a.iter().zip(&p) {
            assert_eq!((x.source, x.class), (y.source, y.class));
        }
        assert!(
            a.iter().zip(&p).any(|(x, y)| x.arrival_ns != y.arrival_ns),
            "modulation must actually move arrivals"
        );
        // Burstiness: the squared coefficient of variation of inter-arrival
        // gaps exceeds the exponential's (which is 1). Use a generous
        // threshold so the test pins the property, not the sample noise.
        let cv2 = |t: &[Request]| {
            let gaps: Vec<f64> = t
                .windows(2)
                .map(|w| (w[1].arrival_ns - w[0].arrival_ns) as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        assert!(
            cv2(&a) > cv2(&p) * 1.2,
            "MMPP gaps must be overdispersed: burst cv2 {} vs poisson cv2 {}",
            cv2(&a),
            cv2(&p)
        );
    }
}
