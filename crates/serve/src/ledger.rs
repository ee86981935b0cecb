//! The ledger: the scheduler's sole writer (DESIGN.md, "Scheduler").
//!
//! Every transition of the request lifecycle — Queued → Dispatched →
//! {Completed, Retrying, Parked, FellBack, Rejected(reason)} — is applied
//! here and nowhere else: this module alone builds a record, bumps a
//! counter or a [`QosStats`] field, or emits a scheduler prof event, and it
//! does each from exactly one site (`tests/emit_sites.rs` counts them).
//! Terminal transitions take the [`Queued`] by value and `Queued` is not
//! `Clone`, so a request cannot be disposed of twice.

use crate::placement::{Placement, Served};
use crate::pool::DeviceWorker;
use crate::qos::{BrownoutTransition, QosStats};
use crate::report::{
    BatchRecord, DeviceStats, FaultEvent, GroupStats, QuarantineRecord, RequestRecord, ServeReport,
};
use crate::request::{RejectReason, Rejection, Request};
use crate::sched::Queued;
use eta_ckpt::digest_words;
use eta_fault::DeviceFault;
use eta_mem::Ns;
use eta_prof::{ArgValue, Event, Profiler, Track};
use std::collections::BTreeMap;

type Args = Vec<(&'static str, ArgValue)>;

/// Sizes and device ids are `u32` in every record; each is narrowed once,
/// where the ledger first sees it.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// The part of a [`RequestRecord`] that depends on who answered.
struct Answer<'a> {
    levels: &'a [u32],
    transfer_ns: Ns,
    compute_ns: Ns,
    completed_ns: Ns,
    batch_size: u32,
    device: u32,
    degraded: bool,
}

/// What one run has produced so far; drained into the report by
/// [`Ledger::finish`].
#[derive(Default)]
struct RunLog {
    records: Vec<RequestRecord>,
    rejections: Vec<Rejection>,
    batches: Vec<BatchRecord>,
    fault_events: Vec<FaultEvent>,
    quarantines: Vec<QuarantineRecord>,
    /// Keyed by composition; the derived ratios are filled in at the end.
    groups: BTreeMap<Vec<u32>, GroupStats>,
    checkpoints: u32,
    resumes: u32,
    migrations: u32,
    work_saved_iterations: u64,
    qos: QosStats,
}

pub(crate) struct Ledger {
    placement: Placement,
    /// Scheduler-side `eta-prof` events; follows `GpuConfig::profiling`
    /// like the per-device profilers do, and outlives the run so
    /// `Service::profile` can read it.
    prof: Profiler,
    log: RunLog,
}

impl Ledger {
    pub fn new(placement: Placement, profiling: bool) -> Self {
        Ledger {
            placement,
            prof: Profiler::new(profiling),
            log: RunLog::default(),
        }
    }

    pub fn events(&self) -> &[Event] {
        self.prof.events()
    }

    /// Requests disposed of so far (completed or rejected).
    pub fn disposed(&self) -> usize {
        self.log.records.len() + self.log.rejections.len()
    }

    /// Arguments are built only when profiling is on, so a quiet service
    /// allocates nothing here.
    fn instant(&mut self, track: Track, name: &str, at: Ns, args: impl FnOnce() -> Args) {
        if self.prof.is_enabled() {
            self.prof.instant(track, name, at, args());
        }
    }

    // --- Admission: an arrival is refused or becomes Queued. ---------------

    /// Rejected(reason) for an arrival that never entered the queue.
    pub fn refuse(&mut self, req: &Request, reason: RejectReason, now: Ns) {
        let id = req.id;
        self.instant(Track::Sched, "reject", now, || {
            vec![("id", id.into()), ("reason", reason.name().into())]
        });
        self.log.rejections.push(Rejection {
            id,
            reason,
            at_ns: now,
        });
    }

    /// The feasibility hook's verdict: the deadline cannot be met.
    pub fn infeasible(&mut self, req: &Request, predicted: Ns, deadline: Ns, now: Ns) {
        self.log.qos.admission_rejections += 1;
        self.instant(Track::Qos, "admission_infeasible", now, || {
            vec![
                ("id", req.id.into()),
                ("predicted_ns", predicted.into()),
                ("deadline_ns", deadline.into()),
            ]
        });
        self.refuse(req, RejectReason::DeadlineInfeasible, now);
    }

    /// The fair-share hook's verdict: the tenant is over its share.
    pub fn throttled(&mut self, req: &Request, now: Ns) {
        self.log.qos.throttle_rejections += 1;
        self.instant(Track::Qos, "tenant_throttled", now, || {
            vec![("id", req.id.into()), ("tenant", req.graph.as_str().into())]
        });
        self.refuse(req, RejectReason::TenantThrottled, now);
    }

    /// The shed hook's verdict at capacity: the `victim` the newcomer
    /// displaced from the queue, or (with none) the newcomer itself.
    pub fn shed(&mut self, victim: Option<Queued>, newcomer: &Request, now: Ns) {
        self.log.qos.shed_rejections += 1;
        let shed = victim.as_ref().map_or(newcomer, |v| &v.req);
        self.instant(Track::Qos, "shed", now, || {
            let mut args: Args = vec![("id", shed.id.into())];
            if victim.is_some() {
                args.push(("displaced_by", newcomer.id.into()));
            }
            args
        });
        self.refuse(shed, RejectReason::ShedOverload, now);
    }

    /// Queued: the request sits at `depth` in the bounded queue.
    pub fn enqueued(&mut self, q: &Queued, depth: usize, now: Ns) {
        self.log.qos.max_queue_depth = self.log.qos.max_queue_depth.max(narrow(depth));
        self.instant(Track::Sched, "enqueue", now, || {
            vec![
                ("id", q.req.id.into()),
                ("graph", q.req.graph.as_str().into()),
                ("class", q.req.class.name().into()),
                ("depth", depth.into()),
            ]
        });
    }

    // --- Pick: a queued request leaves the queue unserved, or rides. -------

    /// Rejected(reason) for a request that was queued.
    pub fn reject(&mut self, q: Queued, reason: RejectReason, now: Ns) {
        self.refuse(&q.req, reason, now);
    }

    pub fn brownout(&mut self, transition: BrownoutTransition, wait_ewma: Ns, now: Ns) {
        let name = match transition {
            BrownoutTransition::Entered => {
                self.log.qos.brownout_entries += 1;
                "brownout_enter"
            }
            BrownoutTransition::Exited => {
                self.log.qos.brownout_exits += 1;
                "brownout_exit"
            }
        };
        self.instant(Track::Qos, name, now, || {
            vec![("wait_ewma_ns", wait_ewma.into())]
        });
    }

    // --- Settle: what a launch did to its riders. --------------------------

    pub fn checkpoints(&mut self, taken: u32) {
        self.log.checkpoints += taken;
    }

    /// A fresh launch ran in the brownout (zero-copy) route.
    pub fn degraded_launch(&mut self, riders: usize) {
        self.log.qos.brownout_batches += 1;
        self.log.qos.brownout_downgrades += narrow(riders);
    }

    /// Completed, for every rider of a launch on `members` that was
    /// dispatched at `now`. `resumed` carries the restored iteration and
    /// the members that parked the snapshot.
    pub fn launched(
        &mut self,
        graph: String,
        members: &[usize],
        now: Ns,
        served: &Served,
        riders: Vec<(usize, Queued)>,
        resumed: Option<(u32, &[usize])>,
    ) {
        let leader = narrow(members[0]);
        let size = narrow(riders.len());
        let held_ns = served.completed_ns - now;
        if let Some((iteration, from)) = resumed {
            let migrated = from != members;
            self.log.resumes += 1;
            self.log.migrations += u32::from(migrated);
            self.log.work_saved_iterations += u64::from(iteration);
            let name = if migrated { "migrate" } else { "resume" };
            self.instant(Track::Ckpt, name, now, || {
                vec![
                    ("device", leader.into()),
                    (
                        "from_device",
                        from.first().map_or(leader, |&d| narrow(d)).into(),
                    ),
                    ("iteration", iteration.into()),
                    ("riders", size.into()),
                ]
            });
        } else if self.prof.is_enabled() {
            let mut args: Args = vec![
                ("graph", graph.as_str().into()),
                ("device", leader.into()),
                ("size", size.into()),
            ];
            if let Some((bytes, _)) = served.exchange {
                args.push(("group", members.len().into()));
                args.push(("exchanged_bytes", bytes.into()));
            }
            let (span, _) = self.placement.event_names();
            self.prof
                .record(Track::Sched, span, now, served.completed_ns, args);
        }
        if let Some((bytes, supersteps)) = served.exchange {
            let devices: Vec<u32> = members.iter().map(|&m| narrow(m)).collect();
            let group = self.log.groups.entry(devices).or_default();
            group.queries += 1;
            group.busy_ns += held_ns;
            group.exchanged_bytes += bytes;
            group.supersteps += u64::from(supersteps);
        }
        self.log.batches.push(BatchRecord {
            device: leader,
            graph,
            size,
            dispatched_ns: now,
            started_ns: served.started_ns,
            completed_ns: served.completed_ns,
        });
        for (slot, q) in riders {
            let answer = Answer {
                levels: &served.levels[slot],
                transfer_ns: held_ns.saturating_sub(served.kernel_ns),
                compute_ns: served.kernel_ns,
                completed_ns: served.completed_ns,
                batch_size: size,
                device: leader,
                degraded: false,
            };
            self.complete(q, now, answer);
        }
    }

    /// A launch died on `device`; the fault is already on the service clock.
    pub fn faulted(&mut self, device: usize, fault: &DeviceFault, fail_at: Ns, members: usize) {
        let device = narrow(device);
        self.log.fault_events.push(FaultEvent {
            device,
            kind: fault.kind.name().to_string(),
            at_ns: fault.at_ns,
        });
        let (_, name) = self.placement.event_names();
        let grouped = matches!(self.placement, Placement::Groups { .. });
        self.instant(Track::Fault, name, fail_at, || {
            let mut args: Args = vec![
                ("device", device.into()),
                ("kind", fault.kind.name().into()),
            ];
            if grouped {
                args.push(("group", members.into()));
            }
            args
        });
    }

    pub fn quarantined(&mut self, device: usize, from_ns: Ns, until_ns: Ns) {
        let device = narrow(device);
        self.log.quarantines.push(QuarantineRecord {
            device,
            from_ns,
            until_ns,
        });
        self.instant(Track::Fault, "quarantine", from_ns, || {
            vec![("device", device.into()), ("until_ns", until_ns.into())]
        });
    }

    /// The retry budget's verdict on one rider (only issued when the
    /// budget is on).
    pub fn retry_verdict(&mut self, q: &Queued, granted: bool, at: Ns) {
        if granted {
            self.log.qos.retries_granted += 1;
        } else {
            self.log.qos.retries_denied += 1;
            self.instant(Track::Qos, "retry_denied", at, || {
                vec![("id", q.req.id.into())]
            });
        }
    }

    /// Retrying: the rider rejoins the queue behind its backoff gate.
    pub fn retrying(&mut self, q: &Queued, at: Ns) {
        self.instant(Track::Fault, "retry", at, || {
            vec![("id", q.req.id.into()), ("not_before", q.not_before.into())]
        });
    }

    /// Parked: `riders` wait on the snapshot of `iteration`.
    pub fn parked(&mut self, device: usize, iteration: u32, riders: usize, at: Ns) {
        self.instant(Track::Ckpt, "park", at, || {
            vec![
                ("device", narrow(device).into()),
                ("iteration", iteration.into()),
                ("riders", riders.into()),
            ]
        });
    }

    /// FellBack: the CPU reference answered, `cpu_ns` after the fault.
    pub fn fell_back(
        &mut self,
        q: Queued,
        levels: &[u32],
        cpu_ns: Ns,
        now: Ns,
        fail_at: Ns,
        device: usize,
    ) {
        self.instant(Track::Fault, "cpu_fallback", fail_at, || {
            vec![("id", q.req.id.into()), ("cpu_ns", cpu_ns.into())]
        });
        let answer = Answer {
            levels,
            transfer_ns: 0,
            compute_ns: cpu_ns,
            completed_ns: fail_at + cpu_ns,
            batch_size: 1,
            device: narrow(device),
            degraded: true,
        };
        self.complete(q, now, answer);
    }

    /// The one place a request becomes a record. `now` is the dispatch
    /// that picked it up (its queue wait ends there).
    fn complete(&mut self, q: Queued, now: Ns, a: Answer) {
        let Queued { req, retries, .. } = q;
        let reached = a.levels.iter().filter(|&&l| l != u32::MAX).count() as u32;
        self.log.records.push(RequestRecord {
            id: req.id,
            graph: req.graph,
            class: req.class,
            source: req.source,
            arrival_ns: req.arrival_ns,
            queue_wait_ns: now - req.arrival_ns,
            transfer_ns: a.transfer_ns,
            compute_ns: a.compute_ns,
            latency_ns: a.completed_ns - req.arrival_ns,
            batch_size: a.batch_size,
            device: a.device,
            reached,
            levels_digest: digest_words(&[a.levels]),
            deadline_met: req.deadline_ns.map(|d| a.completed_ns <= d),
            degraded: a.degraded,
            retries,
        });
    }

    /// Assembles the report — makespan, throughput, availability,
    /// per-device and per-group stats, the fault/quarantine timelines —
    /// and leaves the ledger empty for the next run.
    pub fn finish(&mut self, workers: &[DeviceWorker], qos_on: bool) -> ServeReport {
        let mut log = std::mem::take(&mut self.log);
        log.records.sort_by_key(|r| r.id);
        log.rejections.sort_by_key(|r| r.id);
        let (completed, rejected) = (log.records.len(), log.rejections.len());
        // CPU-fallback completions have no batch record, so the makespan
        // also covers per-request completion times (identical to the batch
        // maximum on a fault-free run).
        let makespan_ns = (log.batches.iter().map(|b| b.completed_ns))
            .chain(log.records.iter().map(|r| r.arrival_ns + r.latency_ns))
            .max()
            .unwrap_or(0);
        let utilization = |busy_ns: Ns| {
            if makespan_ns == 0 {
                0.0
            } else {
                busy_ns as f64 / makespan_ns as f64
            }
        };
        let devices = workers
            .iter()
            .map(|w| DeviceStats {
                device: narrow(w.id),
                busy_ns: w.busy_ns,
                utilization: utilization(w.busy_ns),
                uploads: w.uploads,
                evictions: w.evictions,
            })
            .collect();
        let groups = (log.groups.into_iter())
            .map(|(devices, g)| GroupStats {
                devices,
                utilization: utilization(g.busy_ns),
                bytes_per_superstep: g.exchanged_bytes.checked_div(g.supersteps).unwrap_or(0),
                ..g
            })
            .collect();
        ServeReport {
            completed: narrow(completed),
            rejected: narrow(rejected),
            degraded: log.records.iter().filter(|r| r.degraded).count() as u32,
            availability: if completed + rejected == 0 {
                1.0
            } else {
                completed as f64 / (completed + rejected) as f64
            },
            makespan_ns,
            throughput_qps: if makespan_ns == 0 {
                0.0
            } else {
                completed as f64 / (makespan_ns as f64 / 1e9)
            },
            records: log.records,
            rejections: log.rejections,
            batches: log.batches,
            devices,
            fault_events: log.fault_events,
            quarantines: log.quarantines,
            checkpoints: log.checkpoints,
            resumes: log.resumes,
            migrations: log.migrations,
            work_saved_iterations: log.work_saved_iterations,
            groups,
            qos: qos_on.then_some(log.qos),
        }
    }
}
