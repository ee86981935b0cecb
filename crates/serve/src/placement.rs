//! Placements: how one launch occupies the device pool, and the two launch
//! back-ends — the only scheduler code that is per-placement (DESIGN.md,
//! "Scheduler", has the table of what differs and which artifact pins it).

use crate::pool::DeviceWorker;
use crate::sched::{Job, Service};
use eta_ckpt::{CkptCtl, CkptSink};
use eta_fault::DeviceFault;
use eta_mem::{Ns, PeerFabric};
use eta_sim::Device;
use etagraph::sharded::run_sharded_ckpt;
use etagraph::{Algorithm, EtaConfig, QueryError};

/// What a launch acquires from the pool, atomically.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Placement {
    /// One persistent worker: a [`etagraph::multi_bfs`] batch on a graph
    /// resident there, on the service clock.
    Pool,
    /// `size` members, each a fresh device, joined by a peer fabric: one
    /// [`etagraph::sharded`] query over the registry's cached partition.
    Groups { size: usize },
}

impl Placement {
    /// Members a fresh launch needs idle.
    pub fn members(self) -> usize {
        match self {
            Placement::Pool => 1,
            Placement::Groups { size } => size,
        }
    }

    /// What the profile calls this placement's success span (scheduler
    /// track) and its fault instant (fault track).
    pub fn event_names(self) -> (&'static str, &'static str) {
        match self {
            Placement::Pool => ("batch", "device_fault"),
            Placement::Groups { .. } => ("group_query", "group_member_fault"),
        }
    }
}

/// A launch that ran to completion, in placement-neutral terms.
pub(crate) struct Served {
    /// Kernel work start on the service clock (after any cold upload).
    pub started_ns: Ns,
    pub completed_ns: Ns,
    pub kernel_ns: Ns,
    /// Level arrays, one per slot of the job's source list.
    pub levels: Vec<Vec<u32>>,
    /// Peer-fabric bytes and supersteps, when the launch spanned a group.
    pub exchange: Option<(u64, u32)>,
}

/// How a launch ended.
pub(crate) enum Launch {
    Served(Served),
    /// The member at `slot` of the acquired list died; `fault.at_ns` is on
    /// the service clock.
    Faulted {
        slot: usize,
        fault: DeviceFault,
    },
    /// The members could not allocate the job (capacity raced the
    /// admission estimate, or residency pressure).
    Refused,
    /// The snapshot did not validate against the graph (stale epoch or
    /// shape mismatch): as good as no snapshot.
    Stale,
}

impl Launch {
    fn failed(slot: usize, error: QueryError, clock_base: Ns) -> Launch {
        match error {
            QueryError::DeviceFault(fault) => Launch::Faulted {
                slot,
                fault: DeviceFault {
                    at_ns: clock_base + fault.at_ns,
                    ..fault
                },
            },
            QueryError::Mem(_) => Launch::Refused,
            QueryError::Checkpoint(_) => Launch::Stale,
            QueryError::SourceOutOfRange { .. } => unreachable!("sources validated at admission"),
        }
    }
}

impl Service<'_> {
    /// Group back-end. Partitioned residency is per query, so every member
    /// gets a fresh device whose clock — and fault windows — start at the
    /// acquisition: a window at `[0, end)` re-arms on every launch, which
    /// keeps permanent faults permanent and makes regrouping, not waiting,
    /// the way out.
    pub(crate) fn launch_sharded(
        &mut self,
        members: &[usize],
        job: &Job,
        eta: &EtaConfig,
        now: Ns,
        sink: &mut CkptSink,
    ) -> Launch {
        let size = u32::try_from(members.len()).unwrap_or(u32::MAX);
        let Some(part) = self.registry.partition(&job.graph, size) else {
            return Launch::Refused;
        };
        let mut devices: Vec<Device> = members
            .iter()
            .map(|&m| {
                let mut dev = Device::new(self.cfg.gpu);
                dev.install_faults(&self.cfg.faults, m as u32);
                dev
            })
            .collect();
        let mut fabric = PeerFabric::nvlink(size);
        let digest = job.csr.digest();
        let ctl = match &job.resume {
            Some((ck, _)) => CkptCtl::resuming(sink, ck, digest),
            None => CkptCtl::with_sink(sink, digest),
        };
        let result = run_sharded_ckpt(
            &mut devices,
            &mut fabric,
            &part,
            job.sources[0],
            Algorithm::Bfs,
            eta,
            ctl,
        );
        // Each member keeps the device of its latest launch, for post-run
        // metric and profile inspection.
        for (dev, &m) in devices.into_iter().zip(members) {
            self.workers[m].dev = dev;
        }
        match result {
            Ok(r) => {
                for &m in members {
                    self.workers[m].uploads += 1; // here: queries served
                }
                Launch::Served(Served {
                    started_ns: now,
                    completed_ns: now + r.total_ns,
                    kernel_ns: r.kernel_ns,
                    levels: vec![r.labels],
                    exchange: Some((r.exchanged_bytes, r.supersteps)),
                })
            }
            Err(e) => Launch::failed(e.shard as usize, e.error, now),
        }
    }
}

/// Pool back-end: make the graph resident (upload, evicting as needed),
/// then run the batch against it on the worker's own clock.
pub(crate) fn launch_resident(
    worker: &mut DeviceWorker,
    job: &Job,
    eta: &EtaConfig,
    now: Ns,
    sink: &mut CkptSink,
) -> Launch {
    let Ok(ready) = worker.ensure_resident(&job.graph, job.csr, eta, now) else {
        return Launch::Refused;
    };
    worker.pin(&job.graph);
    let resume = job.resume.as_ref().map(|(ck, _)| ck);
    let result = worker.run_batch_ckpt(&job.graph, &job.sources, eta, ready, sink, resume);
    worker.unpin(&job.graph);
    match result {
        Ok(r) => Launch::Served(Served {
            started_ns: ready,
            completed_ns: ready + r.total_ns,
            kernel_ns: r.kernel_ns,
            levels: r.levels,
            exchange: None,
        }),
        // The device clock is the service clock here.
        Err(e) => Launch::failed(0, e, 0),
    }
}
