//! The scheduler: one simulated-time event loop over a device pool, for
//! every placement. DESIGN.md's "Scheduler" chapter is the reference — the
//! loop, the request lifecycle, the per-placement table and the qos hooks;
//! `ledger.rs` is the lifecycle's sole writer and `placement.rs` holds the
//! two launch back-ends.

use crate::ledger::Ledger;
use crate::placement::{launch_resident, Launch, Placement};
use crate::pool::DeviceWorker;
use crate::qos::{QosConfig, QosState};
use crate::registry::GraphRegistry;
use crate::report::ServeReport;
use crate::request::{RejectReason, Request};
use eta_ckpt::{Checkpoint, CkptSink};
use eta_fault::{DeviceFault, FaultPlan};
use eta_graph::{reference, Csr};
use eta_mem::Ns;
use eta_prof::Profile;
use eta_sim::GpuConfig;
use etagraph::multi_bfs::MAX_BATCH;
use etagraph::{EtaConfig, TransferMode};
use serde::Serialize;

/// Dispatch-order policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Policy {
    /// Strict arrival order, ties on id.
    Fifo,
    /// Interactive before batch, then earliest deadline, then arrival.
    PriorityDeadline,
}

impl Policy {
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::PriorityDeadline => "priority_deadline",
        }
    }
}

/// Service shape: how many devices, how they are configured, and how the
/// queue behaves.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated devices in the pool.
    pub devices: usize,
    /// Configuration each device is built with.
    pub gpu: GpuConfig,
    /// Engine configuration (K, SMP, transfer mode) used for every batch.
    pub eta: EtaConfig,
    /// Bounded queue size; arrivals beyond it are rejected (backpressure).
    pub queue_capacity: usize,
    /// Max same-graph requests coalesced per launch (1 = no batching,
    /// up to [`MAX_BATCH`]).
    pub max_batch: usize,
    pub policy: Policy,
    /// Device-fault injection plan, installed per device. The default
    /// (empty) plan is inert: the service behaves — and its report
    /// serializes — exactly as if the fault machinery did not exist.
    pub faults: FaultPlan,
    /// Device-fault retries per request before the CPU fallback answers it.
    pub max_retries: u32,
    /// First retry delay; doubles per retry (`base << retries`, simulated
    /// time).
    pub backoff_base_ns: Ns,
    /// Consecutive faults (no intervening success) that quarantine a device.
    pub quarantine_after: u32,
    /// How long a quarantined device sits out of dispatch before the
    /// scheduler re-probes it with ordinary traffic.
    pub quarantine_ns: Ns,
    /// Snapshot interval in traversal iterations (0 = checkpointing off;
    /// the service then behaves — and its report serializes — exactly as
    /// if the checkpoint machinery did not exist). With an interval, a
    /// faulted launch parks its newest snapshot and resumes from it after
    /// the backoff instead of restarting from scratch.
    pub checkpoint_interval: u32,
    /// Overload control ([`crate::qos`]). The default disables every
    /// feature — the service then behaves, and its report serializes,
    /// exactly as if the qos layer did not exist.
    pub qos: QosConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: 1,
            gpu: GpuConfig::default_preset(),
            eta: EtaConfig::paper(),
            queue_capacity: 256,
            max_batch: MAX_BATCH,
            policy: Policy::PriorityDeadline,
            faults: FaultPlan::default(),
            max_retries: 2,
            backoff_base_ns: 50_000,
            quarantine_after: 3,
            quarantine_ns: 2_000_000,
            checkpoint_interval: 0,
            qos: QosConfig::default(),
        }
    }
}

/// An admitted request: the lifecycle's one token. It is created at
/// admission, moved — never cloned — through queue, launch and parking lot,
/// and consumed by exactly one of the ledger's terminal transitions. The
/// public [`Request`] stays a pure tenant-facing value; retry bookkeeping
/// never leaks into it.
#[derive(Debug)]
pub(crate) struct Queued<'r> {
    pub(crate) req: Request,
    /// The registered graph, looked up once at admission.
    csr: &'r Csr,
    /// Device-fault retries so far.
    pub(crate) retries: u32,
    /// Backoff gate: not dispatchable before this time.
    pub(crate) not_before: Ns,
    /// Qos cost-model estimate at admission (device-ns this request is
    /// expected to consume); feeds the backlog term of later admission
    /// decisions. Unused when qos is off.
    est_ns: Ns,
}

/// One launch's worth of work: a source list and the riders waiting on its
/// level arrays. A snapshot's level slots index the *original* source
/// list, so a resumed job relaunches the full list even when some riders
/// have already exited to the CPU fallback — only surviving riders produce
/// records.
pub(crate) struct Job<'r> {
    pub(crate) graph: String,
    pub(crate) csr: &'r Csr,
    pub(crate) sources: Vec<u32>,
    /// Surviving riders as (slot into `sources`, request).
    riders: Vec<(usize, Queued<'r>)>,
    /// Snapshot to resume from, and the members that parked it.
    pub(crate) resume: Option<(Checkpoint, Vec<usize>)>,
    /// Brownout route: run in zero-copy mode.
    degrade: bool,
    /// Backoff gate while the job sits parked on its snapshot.
    not_before: Ns,
}

/// Scheduler working state for one run (what the report is made from
/// lives in the ledger).
struct RunState<'r> {
    queue: Vec<Queued<'r>>,
    /// Faulted jobs waiting out their backoff with a snapshot in hand.
    parked: Vec<Job<'r>>,
    qos: QosState,
}

/// The running service: registry + device pool + placement + ledger.
pub struct Service<'r> {
    pub(crate) registry: &'r GraphRegistry,
    pub(crate) cfg: ServeConfig,
    pub(crate) placement: Placement,
    pub(crate) workers: Vec<DeviceWorker>,
    ledger: Ledger,
}

impl<'r> Service<'r> {
    /// A pool service: every launch is a batch on one device.
    pub fn new(registry: &'r GraphRegistry, cfg: ServeConfig) -> Self {
        Self::with_placement(registry, cfg, Placement::Pool)
    }

    pub(crate) fn with_placement(
        registry: &'r GraphRegistry,
        cfg: ServeConfig,
        placement: Placement,
    ) -> Self {
        assert!(placement.members() >= 1, "a launch needs a member");
        assert!(
            placement.members() <= cfg.devices,
            "a launch cannot exceed the pool"
        );
        assert!(
            (1..=MAX_BATCH).contains(&cfg.max_batch),
            "max_batch must be 1..={MAX_BATCH}"
        );
        let workers = (0..cfg.devices)
            .map(|id| {
                let mut w = DeviceWorker::new(id, cfg.gpu);
                w.install_faults(&cfg.faults);
                w
            })
            .collect();
        let ledger = Ledger::new(placement, cfg.gpu.profiling);
        Service {
            registry,
            cfg,
            placement,
            workers,
            ledger,
        }
    }

    /// The device pool, for post-run inspection (e.g. sanitizer reports).
    /// On the group placement each member holds the device of its most
    /// recent launch.
    pub fn workers(&self) -> &[DeviceWorker] {
        &self.workers
    }

    /// The multi-process `eta-prof` profile: one "scheduler" process for
    /// the ledger's events, one "deviceN" process per worker (peer-fabric
    /// spans appear in the sending member's process). Empty unless the
    /// service's [`GpuConfig`] enables profiling.
    pub fn profile(&self) -> Profile {
        let mut p = Profile::new();
        p.push("scheduler", self.ledger.events().to_vec());
        for w in &self.workers {
            p.push(&format!("device{}", w.id), w.dev.mem.prof.events().to_vec());
        }
        p
    }

    /// Serves `trace` (must be sorted by arrival time) to completion and
    /// reports what happened. Deterministic: same registry, config, and
    /// trace produce an identical report.
    pub fn run(&mut self, trace: &[Request]) -> ServeReport {
        debug_assert!(
            trace.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns),
            "trace must be sorted by arrival time"
        );
        let mut st = RunState {
            queue: Vec::new(),
            parked: Vec::new(),
            qos: QosState::new(&self.cfg.qos),
        };
        let mut next = 0usize;
        let mut now: Ns = 0;
        loop {
            while next < trace.len() && trace[next].arrival_ns <= now {
                self.admit(&trace[next], now, &mut st);
                next += 1;
            }
            let idle = self.workers.iter().filter(|w| w.is_idle(now)).count();
            // Parked jobs go first: their riders are the oldest work in the
            // system and their snapshots embody iterations already paid
            // for. A resume makes do with whatever healthy members exist.
            let job = if idle >= 1 && st.parked.iter().any(|p| p.not_before <= now) {
                Self::pick_parked(now, &mut st)
            } else if idle >= self.placement.members()
                && st.queue.iter().any(|q| q.not_before <= now)
            {
                self.pick(now, &mut st)
            } else {
                match self.next_event(trace.get(next), now, &st) {
                    Some(t) => now = t,
                    None => break,
                }
                continue;
            };
            if let Some(job) = job {
                self.launch(job, now, &mut st);
            }
        }
        // Exactly-once disposition, checked continuously in debug builds:
        // `Queued` moves by value, so no request is answered twice; nothing
        // may be left waiting, and the dispositions must add up to the
        // trace, so none was dropped on the way either.
        debug_assert!(
            st.queue.is_empty() && st.parked.is_empty(),
            "the event loop may not leave requests stranded"
        );
        debug_assert_eq!(self.ledger.disposed(), trace.len(), "a request was dropped");
        self.ledger
            .finish(&self.workers, self.cfg.qos.any_enabled())
    }

    /// Nothing is dispatchable at `now`: the next of {arrival, member
    /// freeing up or leaving quarantine, backoff gate}. An idle pool with
    /// nothing waiting is not an event; a gate is one even with devices
    /// idle.
    fn next_event(&self, arrival: Option<&Request>, now: Ns, st: &RunState) -> Option<Ns> {
        let waiting = !(st.queue.is_empty() && st.parked.is_empty());
        let workers = self
            .workers
            .iter()
            .filter(|_| waiting)
            .flat_map(|w| [w.free_at, w.quarantined_until]);
        let gates = st
            .queue
            .iter()
            .map(|q| q.not_before)
            .chain(st.parked.iter().map(|p| p.not_before));
        let later = workers.chain(gates).filter(|&t| t > now).min();
        [arrival.map(|r| r.arrival_ns), later]
            .into_iter()
            .flatten()
            .min()
    }

    /// Admission control at arrival time: validation, the placement's
    /// footprint, then the qos hooks — deadline feasibility, tenant fair
    /// share, worst-first shedding at capacity (arbitrate before you
    /// spend) — each inert when its feature is off. Every refusal is a
    /// typed rejection; admitted requests enter the bounded queue.
    fn admit(&mut self, req: &Request, now: Ns, st: &mut RunState<'r>) {
        let registry = self.registry;
        let Some(csr) = registry.get(&req.graph) else {
            return self.ledger.refuse(req, RejectReason::UnknownGraph, now);
        };
        if req.source as usize >= csr.n() {
            return self.ledger.refuse(req, RejectReason::SourceOutOfRange, now);
        }
        // A graph whose footprint exceeds a member even when it is the sole
        // tenant can never be served; refuse it upfront rather than letting
        // it evict everyone else and still fail. A group sizes its largest
        // member's shard, halo replicas included.
        let footprint = match self.placement {
            Placement::Pool => Some(DeviceWorker::footprint_bytes(csr, &self.cfg.eta)),
            Placement::Groups { size } => u32::try_from(size)
                .ok()
                .and_then(|n| registry.group_footprint_bytes(&req.graph, n, &self.cfg.eta)),
        };
        if footprint.is_none_or(|bytes| bytes > self.workers[0].dev.mem.capacity_bytes()) {
            return self.ledger.refuse(req, RejectReason::AdmissionDenied, now);
        }
        let qos = &self.cfg.qos;
        let est_ns = st.qos.cost.estimate(&req.graph, csr, &self.cfg.eta);
        // Hook: deadline feasibility. Predicted completion = the earliest
        // any device frees up, plus the queued backlog spread across the
        // pool, plus this request's own estimate. A request that cannot
        // make its deadline even under that optimistic schedule is refused
        // now, before it wastes queue space and device time on a
        // guaranteed SLO miss.
        if let (true, Some(deadline)) = (qos.admission, req.deadline_ns) {
            let backlog: Ns = st.queue.iter().map(|q| q.est_ns).sum();
            let earliest_free = self
                .workers
                .iter()
                .map(|w| w.free_at.max(w.quarantined_until))
                .min()
                .unwrap_or(now)
                .max(now);
            let width = (self.cfg.devices / self.placement.members()) as Ns;
            let predicted = earliest_free + backlog / width + est_ns;
            if predicted > deadline {
                return self.ledger.infeasible(req, predicted, deadline, now);
            }
        }
        // Hook: tenant fair share, enforced only under congestion so the
        // policy stays work-conserving: an idle pool serves anyone, a
        // backlogged pool charges each tenant's bucket for its estimated
        // device time.
        if qos.fair_share
            && st.queue.len() >= qos.fair_share_min_queue
            && !st.qos.tenant_try_charge(qos, &req.graph, now, est_ns)
        {
            return self.ledger.throttled(req, now);
        }
        if st.queue.len() >= self.cfg.queue_capacity {
            if !qos.shed {
                return self.ledger.refuse(req, RejectReason::QueueFull, now);
            }
            // Hook: deterministic worst-first shedding. Among the queue and
            // the newcomer, drop the entry with (lowest priority, latest
            // deadline, highest id) — ids are unique, so there are no ties.
            let key = |r: &Request| (r.class.rank(), r.deadline_ns.unwrap_or(Ns::MAX), r.id);
            let worst = (0..st.queue.len()).max_by_key(|&i| key(&st.queue[i].req));
            match worst {
                Some(i) if key(&st.queue[i].req) > key(req) => {
                    let victim = st.queue.remove(i);
                    self.ledger.shed(Some(victim), req, now);
                }
                _ => return self.ledger.shed(None, req, now),
            }
        }
        let q = Queued {
            req: req.clone(),
            csr,
            retries: 0,
            not_before: now,
            est_ns,
        };
        self.ledger.enqueued(&q, st.queue.len() + 1, now);
        st.queue.push(q);
    }

    /// The ready parked job with the earliest gate, then the lowest
    /// surviving rider id (rider ids are unique across the whole system,
    /// so this total order has no ties).
    fn pick_parked(now: Ns, st: &mut RunState<'r>) -> Option<Job<'r>> {
        let idx = (0..st.parked.len())
            .filter(|&i| st.parked[i].not_before <= now)
            .min_by_key(|&i| {
                let job = &st.parked[i];
                let min_id = job.riders.iter().map(|(_, q)| q.req.id).min();
                (job.not_before, min_id.unwrap_or(u32::MAX))
            })?;
        Some(st.parked.remove(idx))
    }

    /// One pick at time `now`: drop expired requests, order the queue by
    /// policy, and coalesce the head's graph-mates into a job, up to
    /// `max_batch` riders.
    fn pick(&mut self, now: Ns, st: &mut RunState<'r>) -> Option<Job<'r>> {
        // Timeout semantics are inclusive at the boundary tick: a request
        // whose wait has *reached* its limit is already too old to serve
        // (so `timeout_ns: Some(0)` never dispatches, even at its own
        // arrival tick).
        let expired = |q: &mut Queued| {
            q.req
                .timeout_ns
                .is_some_and(|limit| now - q.req.arrival_ns >= limit)
        };
        for q in st.queue.extract_if(.., expired) {
            self.ledger.reject(q, RejectReason::TimedOut, now);
        }
        // Hook: brownout. The state is sampled once per pick; transitions
        // observed below take effect at the *next* one (hysteresis by
        // construction — one decision is never half-degraded).
        let brownout = self.cfg.qos.brownout && st.qos.brownout_active;
        match self.cfg.policy {
            Policy::Fifo => st.queue.sort_by_key(|q| (q.req.arrival_ns, q.req.id)),
            // Under brownout, best-effort (deadline-less) requests are
            // demoted below every SLO-bound class so deadline traffic
            // drains first.
            Policy::PriorityDeadline => st.queue.sort_by_key(|q| {
                let demoted = brownout && q.req.deadline_ns.is_none();
                (
                    q.req.class.rank() + if demoted { 2 } else { 0 },
                    q.req.deadline_ns.unwrap_or(Ns::MAX),
                    q.req.arrival_ns,
                    q.req.id,
                )
            }),
        }
        // The first dispatchable entry (backoff gate passed) defines the
        // job's graph; later dispatchable entries for the same graph ride
        // along. Entries still backing off stay queued. `None`: every
        // dispatchable entry timed out above.
        let head = st.queue.iter().find(|q| q.not_before <= now)?;
        let (graph, csr) = (head.req.graph.clone(), head.csr);
        let head_wait = now - head.req.arrival_ns;
        // A best-effort head under brownout runs its job in zero-copy mode
        // (no bulk upload contending with SLO traffic), trading its own
        // kernel time for bus headroom, and only coalesces other
        // best-effort riders — an SLO-bound request never rides a degraded
        // launch.
        let degrade = brownout && head.req.deadline_ns.is_none();
        let mut room = self.cfg.max_batch;
        let rides = |q: &mut Queued| {
            let rides = room > 0
                && q.req.graph == graph
                && q.not_before <= now
                && (!brownout || q.req.deadline_ns.is_none() == degrade);
            room -= usize::from(rides);
            rides
        };
        let riders: Vec<(usize, Queued)> = st.queue.extract_if(.., rides).enumerate().collect();
        // The wait the dispatched head experienced is the freshest
        // congestion signal for the brownout state machine.
        if self.cfg.qos.brownout {
            if let Some(transition) = st.qos.observe_wait(&self.cfg.qos, head_wait) {
                self.ledger.brownout(transition, st.qos.wait_ewma(), now);
            }
        }
        Some(Job {
            sources: riders.iter().map(|(_, q)| q.req.source).collect(),
            graph,
            csr,
            riders,
            resume: None,
            degrade,
            not_before: now,
        })
    }

    /// Healthy idle members for a launch, ascending: a resumed job takes
    /// back the members that parked it where they are dispatchable again
    /// (a re-probe — on the pool its graph is still resident there), the
    /// rest are the lowest-numbered. A fresh launch takes the placement's
    /// full complement; a resume regroups on as many as there are.
    fn acquire(&self, now: Ns, from: &[usize]) -> Vec<usize> {
        let others = (0..self.workers.len()).filter(|m| !from.contains(m));
        let mut members: Vec<usize> = (from.iter().copied().chain(others))
            .filter(|&m| self.workers[m].is_idle(now))
            .take(self.placement.members())
            .collect();
        members.sort_unstable();
        members
    }

    /// Dispatches `job` at `now`: acquire members, run the placement's
    /// back-end, settle the outcome for every rider — release the members,
    /// calibrate the cost model, complete or re-route each request.
    /// Acquisition is atomic: every member's clock advances to the same
    /// completion (or fault) time before the next scheduling decision.
    fn launch(&mut self, mut job: Job<'r>, now: Ns, st: &mut RunState<'r>) {
        let from = job.resume.as_ref().map_or(&[][..], |(_, from)| from);
        let members = self.acquire(now, from);
        let eta = if job.degrade {
            EtaConfig {
                transfer: TransferMode::ZeroCopy,
                ..self.cfg.eta
            }
        } else {
            self.cfg.eta
        };
        let mut sink = CkptSink::every(self.cfg.checkpoint_interval);
        let outcome = match self.placement {
            Placement::Pool => {
                launch_resident(&mut self.workers[members[0]], &job, &eta, now, &mut sink)
            }
            Placement::Groups { .. } => self.launch_sharded(&members, &job, &eta, now, &mut sink),
        };
        self.ledger.checkpoints(sink.taken);
        match outcome {
            Launch::Served(served) => {
                for &m in &members {
                    let w = &mut self.workers[m];
                    w.consecutive_faults = 0;
                    w.busy_ns += served.completed_ns - now;
                    w.free_at = served.completed_ns;
                }
                let resumed = job
                    .resume
                    .as_ref()
                    .map(|(ck, from)| (ck.iteration, &from[..]));
                let riders = job.riders.len();
                match (resumed, job.degrade) {
                    // A resumed run is no sample of a fresh request's cost,
                    // and a degraded (zero-copy) one would bias estimates
                    // for the normal path.
                    (Some(_), _) => {}
                    (None, true) => self.ledger.degraded_launch(riders),
                    (None, false) => {
                        let per_request = (served.completed_ns - served.started_ns) / riders as Ns;
                        let eta = &self.cfg.eta;
                        st.qos.cost.observe(&job.graph, job.csr, eta, per_request);
                    }
                }
                self.ledger
                    .launched(job.graph, &members, now, &served, job.riders, resumed);
            }
            Launch::Faulted { slot, fault } => {
                let (device, fail_at) = self.note_fault(&members, slot, fault, now);
                // Progress is never thrown away: a snapshot taken during
                // this launch supersedes the one it resumed from; otherwise
                // the old one is parked again — the iterations it saved
                // are still saved.
                let snapshot = sink.take().or(job.resume.take().map(|(ck, _)| ck));
                job.resume = snapshot.map(|ck| (ck, members));
                self.ladder(job, device, fail_at, now, st);
            }
            // A fresh job the members cannot host is refused; the rest of
            // the queue keeps flowing.
            Launch::Refused if job.resume.is_none() => {
                for (_, q) in job.riders {
                    self.ledger.reject(q, RejectReason::AdmissionDenied, now);
                }
            }
            // No usable snapshot after all: the riders restart from
            // scratch through the ordinary queue (their gates have passed).
            Launch::Refused | Launch::Stale => {
                st.queue.extend(job.riders.into_iter().map(|(_, q)| q));
            }
        }
    }

    /// Device-fault bookkeeping for a launch that died at member `slot`:
    /// every member was held until the fault surfaced; the faulting one
    /// takes a strike and is quarantined when its consecutive strikes
    /// reach `quarantine_after`. Returns the faulting device and the fault
    /// time on the service clock.
    fn note_fault(
        &mut self,
        members: &[usize],
        slot: usize,
        fault: DeviceFault,
        now: Ns,
    ) -> (usize, Ns) {
        let fail_at = fault.at_ns.max(now);
        for &m in members {
            let w = &mut self.workers[m];
            w.busy_ns += fail_at - now;
            w.free_at = fail_at;
        }
        let w = &mut self.workers[members[slot]];
        w.consecutive_faults += 1;
        w.faults += 1;
        self.ledger.faulted(w.id, &fault, fail_at, members.len());
        if w.consecutive_faults >= self.cfg.quarantine_after {
            w.consecutive_faults = 0;
            w.quarantined_until = fail_at + self.cfg.quarantine_ns;
            self.ledger.quarantined(w.id, fail_at, w.quarantined_until);
        }
        (w.id, fail_at)
    }

    /// The recovery ladder, walked per rider of a job that faulted on
    /// `device` at `fail_at`: retries spent → CPU fallback; retry budget
    /// denied → CPU fallback (under correlated faults, unbudgeted retries
    /// amplify load exactly when the pool is weakest); a snapshot in hand
    /// (`job.resume`) → park and resume after the backoff; otherwise
    /// re-queue behind the backoff and restart from scratch.
    fn ladder(
        &mut self,
        mut job: Job<'r>,
        device: usize,
        fail_at: Ns,
        now: Ns,
        st: &mut RunState<'r>,
    ) {
        let snapshot = job.resume.as_ref().map(|(ck, _)| ck.iteration);
        for (slot, mut q) in std::mem::take(&mut job.riders) {
            let mut granted = q.retries < self.cfg.max_retries;
            if granted {
                if let Some(verdict) = st.qos.retry_try_take(&self.cfg.qos, fail_at) {
                    self.ledger.retry_verdict(&q, verdict, fail_at);
                    granted = verdict;
                }
            }
            if !granted {
                self.cpu_fallback(q, now, fail_at, device);
            } else if snapshot.is_some() {
                job.riders.push((slot, q));
            } else {
                q.not_before = self.gate(q.retries, fail_at, now);
                q.retries += 1;
                self.ledger.retrying(&q, fail_at);
                st.queue.push(q);
            }
        }
        // With every rider gone to the CPU reference the snapshot has no
        // one left to serve and is dropped.
        let (Some(iteration), false) = (snapshot, job.riders.is_empty()) else {
            return;
        };
        let fewest = job.riders.iter().map(|(_, q)| q.retries).min();
        job.not_before = self.gate(fewest.unwrap_or(0), fail_at, now);
        for (_, q) in &mut job.riders {
            q.not_before = job.not_before;
            q.retries += 1;
        }
        self.ledger
            .parked(device, iteration, job.riders.len(), fail_at);
        // A resume runs the normal route, whatever the first attempt did.
        job.degrade = false;
        st.parked.push(job);
    }

    /// Exponential backoff after a fault at `fail_at`; the gate is strictly
    /// in the future, so the event loop always advances.
    fn gate(&self, retries: u32, fail_at: Ns, now: Ns) -> Ns {
        (fail_at + (self.cfg.backoff_base_ns << retries)).max(now + 1)
    }

    /// Last rung: the CPU reference answers a rider. Slow but sure — the
    /// response is correct, only the path is degraded. Its simulated cost
    /// is a fixed software overhead plus memory-bound per-vertex and
    /// per-edge walks, far off the GPU's rates; deterministic by
    /// construction.
    fn cpu_fallback(&mut self, q: Queued<'r>, now: Ns, fail_at: Ns, device: usize) {
        let levels = reference::bfs(q.csr, q.req.source);
        let cpu_ns = 10_000 + 2 * q.csr.n() as Ns + 4 * q.csr.m() as Ns;
        self.ledger
            .fell_back(q, &levels, cpu_ns, now, fail_at, device);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use eta_graph::generate::{rmat, RmatConfig};

    fn registry_with(names: &[(&str, u64)]) -> GraphRegistry {
        let mut reg = GraphRegistry::new();
        for &(name, seed) in names {
            reg.insert(name, rmat(&RmatConfig::paper(10, 8_000, seed)));
        }
        reg
    }

    fn req(id: u32, graph: &str, source: u32, arrival_ns: Ns) -> Request {
        Request {
            id,
            graph: graph.to_string(),
            class: Priority::Batch,
            source,
            arrival_ns,
            deadline_ns: None,
            timeout_ns: None,
        }
    }

    #[test]
    fn simultaneous_same_graph_requests_share_one_launch() {
        let reg = registry_with(&[("g", 1)]);
        let trace: Vec<Request> = (0..5).map(|i| req(i, "g", i, 0)).collect();
        let mut service = Service::new(&reg, ServeConfig::default());
        let report = service.run(&trace);
        assert_eq!(report.completed, 5);
        assert_eq!(report.batches.len(), 1, "5 waiting sources → one launch");
        assert_eq!(report.batches[0].size, 5);
        // Every answer matches the host reference.
        let g = reg.get("g").unwrap();
        for r in &report.records {
            let levels = reference::bfs(g, r.source);
            let reached = levels.iter().filter(|&&l| l != u32::MAX).count() as u32;
            assert_eq!(r.reached, reached, "request {} reach count", r.id);
        }
    }

    #[test]
    fn batching_cannot_lose_to_unbatched_fifo() {
        let reg = registry_with(&[("g", 1)]);
        let trace: Vec<Request> = (0..12).map(|i| req(i, "g", 3 * i, 0)).collect();
        let batched = Service::new(&reg, ServeConfig::default()).run(&trace);
        let unbatched = Service::new(
            &reg,
            ServeConfig {
                max_batch: 1,
                policy: Policy::Fifo,
                ..ServeConfig::default()
            },
        )
        .run(&trace);
        assert_eq!(batched.completed, 12);
        assert_eq!(unbatched.completed, 12);
        assert!(
            batched.makespan_ns < unbatched.makespan_ns,
            "batched {} ns should beat unbatched {} ns",
            batched.makespan_ns,
            unbatched.makespan_ns
        );
    }

    #[test]
    fn admission_rejects_with_typed_reasons() {
        let reg = registry_with(&[("g", 1)]);
        let n = reg.get("g").unwrap().n() as u32;
        let trace = vec![
            req(0, "nope", 0, 0),
            req(1, "g", n, 0), // first out-of-range id
            req(2, "g", 0, 0),
        ];
        let mut service = Service::new(&reg, ServeConfig::default());
        let report = service.run(&trace);
        assert_eq!(report.completed, 1);
        assert_eq!(report.rejections.len(), 2);
        assert_eq!(report.rejections[0].reason, RejectReason::UnknownGraph);
        assert_eq!(report.rejections[1].reason, RejectReason::SourceOutOfRange);
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let reg = registry_with(&[("g", 1)]);
        // Three arrive while the queue holds two: one launch is in flight
        // (the t=0 request), two wait, the third bounces.
        let trace = vec![
            req(0, "g", 0, 0),
            req(1, "g", 1, 1),
            req(2, "g", 2, 1),
            req(3, "g", 3, 1),
        ];
        let cfg = ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let report = Service::new(&reg, cfg).run(&trace);
        assert_eq!(report.completed, 3);
        assert_eq!(report.rejections.len(), 1);
        assert_eq!(report.rejections[0].id, 3);
        assert_eq!(report.rejections[0].reason, RejectReason::QueueFull);
    }

    #[test]
    fn priority_policy_serves_interactive_first() {
        let reg = registry_with(&[("a", 1), ("b", 2)]);
        // One launch in flight; then a batch-class and an interactive
        // request (different graphs, so they cannot share a launch).
        let mut trace = vec![req(0, "a", 0, 0)];
        let mut batch_req = req(1, "a", 1, 1);
        batch_req.class = Priority::Batch;
        let mut inter_req = req(2, "b", 2, 2);
        inter_req.class = Priority::Interactive;
        trace.push(batch_req);
        trace.push(inter_req);
        let report = Service::new(&reg, ServeConfig::default()).run(&trace);
        assert_eq!(report.completed, 3);
        let dispatched = |id: u32| {
            let r = report.records.iter().find(|r| r.id == id).unwrap();
            r.arrival_ns + r.queue_wait_ns
        };
        assert!(
            dispatched(2) < dispatched(1),
            "interactive request must dispatch before the earlier batch one"
        );
    }

    /// Both placements, shaped so that every launch carries one request:
    /// the pool without batching, and groups of two over two devices.
    fn serial_service<'r>(reg: &'r GraphRegistry, placement: Placement) -> Service<'r> {
        let cfg = ServeConfig {
            devices: placement.members(),
            max_batch: 1,
            ..ServeConfig::default()
        };
        Service::with_placement(reg, cfg, placement)
    }

    const PLACEMENTS: [Placement; 2] = [Placement::Pool, Placement::Groups { size: 2 }];

    #[test]
    fn timeouts_drop_stale_requests_at_dispatch() {
        let reg = registry_with(&[("g", 1)]);
        for placement in PLACEMENTS {
            let mut stale = req(1, "g", 1, 1);
            stale.timeout_ns = Some(10); // far shorter than any BFS launch
            let trace = vec![req(0, "g", 0, 0), stale, req(2, "g", 2, 2)];
            let report = serial_service(&reg, placement).run(&trace);
            assert_eq!(report.completed, 2, "{placement:?}");
            assert_eq!(report.rejections.len(), 1);
            assert_eq!(report.rejections[0].id, 1);
            assert_eq!(report.rejections[0].reason, RejectReason::TimedOut);
            // A burst at t = 0 with a 1 µs limit: whoever the first launch
            // picks up has waited 0 ns; by the next pick (hundreds of µs
            // later) everyone else is too old. The group placement used to
            // ignore the limit and serve all six.
            let burst: Vec<Request> = (0..6)
                .map(|i| Request {
                    timeout_ns: Some(1_000),
                    ..req(i, "g", i, 0)
                })
                .collect();
            let report = serial_service(&reg, placement).run(&burst);
            assert_eq!(report.completed, 1, "{placement:?}");
            assert!(report.records.iter().all(|r| r.queue_wait_ns < 1_000));
            assert_eq!(report.rejections.len(), 5);
            assert!(report
                .rejections
                .iter()
                .all(|r| r.reason == RejectReason::TimedOut && r.at_ns >= 1_000));
        }
    }

    #[test]
    fn profiled_service_records_scheduler_and_device_events() {
        let reg = registry_with(&[("g", 1)]);
        let n = reg.get("g").unwrap().n() as u32;
        let trace = vec![req(0, "g", 0, 0), req(1, "g", 1, 0), req(2, "g", n, 0)];
        let cfg = ServeConfig {
            gpu: GpuConfig::default_preset().with_profiling(),
            ..ServeConfig::default()
        };
        let mut service = Service::new(&reg, cfg);
        service.run(&trace);
        let p = service.profile();
        assert_eq!(p.processes.len(), 2, "scheduler + one device");
        let sched = &p.processes[0];
        assert_eq!(sched.name, "scheduler");
        let names: Vec<&str> = sched.events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"enqueue"));
        assert!(names.contains(&"reject"), "out-of-range source rejected");
        assert!(names.contains(&"batch"));
        assert!(p.kernel_busy_ns() > 0, "device process has kernel events");
        // Default config records nothing at all.
        let mut quiet = Service::new(&reg, ServeConfig::default());
        quiet.run(&trace);
        assert_eq!(quiet.profile().event_count(), 0);
    }

    #[test]
    fn zero_timeout_is_rejected_at_its_arrival_tick() {
        // Regression for the boundary bug: the old `>` comparison let a
        // request whose wait exactly equalled its timeout slip through.
        // The pinned semantics are inclusive: wait >= limit is too old,
        // so a zero timeout can never dispatch — not even at the arrival
        // tick, where the wait is exactly 0. On every placement.
        let reg = registry_with(&[("g", 1)]);
        for placement in PLACEMENTS {
            let zeros: Vec<Request> = (0..2)
                .map(|i| Request {
                    timeout_ns: Some(0),
                    ..req(i, "g", i, 0)
                })
                .collect();
            let report = serial_service(&reg, placement).run(&zeros);
            assert_eq!(report.completed, 0, "{placement:?}");
            assert_eq!(report.rejections.len(), 2);
            for r in &report.rejections {
                assert_eq!(r.reason, RejectReason::TimedOut);
                assert_eq!(r.at_ns, 0, "dropped at the arrival tick");
            }
        }
    }

    #[test]
    fn queued_requests_cannot_be_cloned() {
        // The type-level half of exactly-once disposition: the ledger's
        // terminal transitions take `Queued` by value, so the only way to
        // answer a request twice would be to copy it first. If `Queued`
        // ever gains `Clone`, both impls below apply and the call is
        // ambiguous — a compile error, not a test failure.
        trait AmbiguousIfClone<Marker> {
            fn check() {}
        }
        impl<T> AmbiguousIfClone<()> for T {}
        impl<T: Clone> AmbiguousIfClone<u8> for T {}
        <Queued<'static> as AmbiguousIfClone<_>>::check();
    }

    #[test]
    fn one_shot_fault_is_absorbed_by_a_retry() {
        use eta_fault::{EccFault, FaultPlan};
        let reg = registry_with(&[("g", 1)]);
        // One uncorrectable ECC hit early on device 0; it fires during the
        // first batch, the retry runs on a now-clean device and succeeds.
        let plan = FaultPlan {
            ecc: vec![EccFault {
                device: 0,
                at_ns: 50_000,
                addr_start: 0,
                addr_words: u64::MAX,
                double_bit: true,
            }],
            ..FaultPlan::default()
        };
        let cfg = ServeConfig {
            faults: plan,
            ..ServeConfig::default()
        };
        let report = Service::new(&reg, cfg).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded, 0, "device answered after the retry");
        assert_eq!(report.fault_events.len(), 1);
        assert_eq!(report.fault_events[0].kind, "ecc_double_bit");
        assert!(report.quarantines.is_empty(), "one strike is not enough");
        let r = &report.records[0];
        assert_eq!(r.retries, 1);
        assert!(!r.degraded);
        let expect = reference::bfs(reg.get("g").unwrap(), 0);
        let reached = expect.iter().filter(|&&l| l != u32::MAX).count() as u32;
        assert_eq!(r.reached, reached, "retried answer is still correct");
        assert_eq!(report.availability, 1.0);
    }

    #[test]
    fn persistent_faults_quarantine_the_device_and_fall_back_to_cpu() {
        use eta_fault::{FaultPlan, HangFault};
        let reg = registry_with(&[("g", 1)]);
        // A permanent hang window with a tiny budget: every launch on
        // device 0 faults, so the ladder runs to its last rung.
        let plan = FaultPlan {
            hangs: vec![HangFault {
                device: 0,
                start_ns: 0,
                end_ns: Ns::MAX,
                budget_ns: 1_000,
            }],
            ..FaultPlan::default()
        };
        let cfg = ServeConfig {
            faults: plan,
            ..ServeConfig::default()
        };
        let report = Service::new(&reg, cfg).run(&[req(0, "g", 0, 0)]);
        // Attempts at retries 0, 1, 2 all hang; the third strike both
        // quarantines the device and exhausts max_retries (2), so the CPU
        // reference answers.
        assert_eq!(report.completed, 1, "no request is lost to faults");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.availability, 1.0);
        assert_eq!(report.fault_events.len(), 3);
        assert!(report
            .fault_events
            .iter()
            .all(|f| f.kind == "kernel_hang" && f.device == 0));
        assert_eq!(report.quarantines.len(), 1, "third strike quarantines");
        let q = &report.quarantines[0];
        assert_eq!(q.device, 0);
        assert!(q.until_ns > q.from_ns);
        let r = &report.records[0];
        assert!(r.degraded);
        assert_eq!(r.retries, 2);
        let expect = reference::bfs(reg.get("g").unwrap(), 0);
        let reached = expect.iter().filter(|&&l| l != u32::MAX).count() as u32;
        assert_eq!(r.reached, reached, "the CPU fallback answer is correct");
        assert!(r.latency_ns > 0);
        assert_eq!(report.makespan_ns, r.arrival_ns + r.latency_ns);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let reg = registry_with(&[("g", 1), ("h", 2)]);
        let plan = eta_fault::FaultPlan::seeded(7, 1, 40_000_000);
        assert!(!plan.is_empty());
        let trace: Vec<Request> = (0..8)
            .map(|i| req(i, if i % 2 == 0 { "g" } else { "h" }, i, (i as Ns) * 10_000))
            .collect();
        let cfg = ServeConfig {
            faults: plan,
            ..ServeConfig::default()
        };
        let a = Service::new(&reg, cfg.clone()).run(&trace);
        let b = Service::new(&reg, cfg).run(&trace);
        let json = |r: &ServeReport| serde_json::to_string(r).expect("report serializes");
        assert_eq!(json(&a), json(&b), "same plan, same trace, same bytes");
        assert_eq!(a.completed + a.rejected, 8, "every request is accounted");
    }

    #[test]
    fn checkpointed_ladder_resumes_and_beats_restart_from_scratch() {
        use eta_fault::{FaultPlan, HangFault};
        let reg = registry_with(&[("g", 1)]);
        let trace = vec![req(0, "g", 0, 0)];
        // Budget 50 µs: the small early-iteration kernels fit, the
        // peak-frontier propagate kernel does not — the watchdog kills the
        // traversal mid-run, after the interval-2 snapshot exists.
        let permanent = |end_ns| FaultPlan {
            hangs: vec![HangFault {
                device: 0,
                start_ns: 0,
                end_ns,
                budget_ns: 50_000,
            }],
            ..FaultPlan::default()
        };
        // Probe: a permanent window pins down the (deterministic) time of
        // the first mid-traversal kill under checkpointing.
        let probe = Service::new(
            &reg,
            ServeConfig {
                faults: permanent(Ns::MAX),
                checkpoint_interval: 2,
                ..ServeConfig::default()
            },
        )
        .run(&trace);
        assert_eq!(probe.completed, 1, "even a permanent hang loses nothing");
        let fail_at = probe.fault_events[0].at_ns;
        // Close the window just after that first kill: the re-probe on the
        // same device (rung 0, after one backoff) then runs clean.
        let ckpt = Service::new(
            &reg,
            ServeConfig {
                faults: permanent(fail_at + 1),
                checkpoint_interval: 2,
                ..ServeConfig::default()
            },
        )
        .run(&trace);
        assert_eq!(ckpt.completed, 1);
        assert_eq!(ckpt.degraded, 0, "the resume answered, not the CPU");
        assert_eq!(ckpt.resumes, 1, "one resume-from-checkpoint");
        assert_eq!(ckpt.migrations, 0, "same-device re-probe, no migration");
        assert!(ckpt.checkpoints >= 1);
        assert_eq!(
            ckpt.work_saved_iterations, 2,
            "the interval-2 snapshot restored iteration 2"
        );
        let r = &ckpt.records[0];
        assert_eq!(r.retries, 1);
        let expect = reference::bfs(reg.get("g").unwrap(), 0);
        assert_eq!(
            r.levels_digest,
            eta_ckpt::digest_words(&[&expect]),
            "resumed answer is bit-identical to the host reference"
        );
        // The same plan without checkpointing restarts from scratch; the
        // resume path must strictly beat it on the service clock.
        let scratch = Service::new(
            &reg,
            ServeConfig {
                faults: permanent(fail_at + 1),
                ..ServeConfig::default()
            },
        )
        .run(&trace);
        assert_eq!(scratch.completed, 1);
        assert_eq!(scratch.resumes, 0);
        assert!(
            ckpt.makespan_ns < scratch.makespan_ns,
            "resume ({} ns) must beat restart-from-scratch ({} ns)",
            ckpt.makespan_ns,
            scratch.makespan_ns
        );
    }

    #[test]
    fn resume_migrates_off_a_quarantined_device() {
        use eta_fault::{FaultPlan, HangFault};
        let reg = registry_with(&[("g", 1)]);
        // Device 0 hangs forever at the peak-frontier kernel and is
        // quarantined on its first strike; the parked batch must migrate
        // to healthy device 1 and finish from the snapshot.
        let plan = FaultPlan {
            hangs: vec![HangFault {
                device: 0,
                start_ns: 0,
                end_ns: Ns::MAX,
                budget_ns: 50_000,
            }],
            ..FaultPlan::default()
        };
        let cfg = ServeConfig {
            devices: 2,
            faults: plan,
            quarantine_after: 1,
            checkpoint_interval: 2,
            ..ServeConfig::default()
        };
        let report = Service::new(&reg, cfg).run(&[req(0, "g", 0, 0)]);
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded, 0);
        assert_eq!(report.quarantines.len(), 1);
        assert_eq!(report.quarantines[0].device, 0);
        assert_eq!(report.resumes, 1);
        assert_eq!(report.migrations, 1, "resume landed on the other device");
        assert_eq!(report.work_saved_iterations, 2);
        let r = &report.records[0];
        assert_eq!(r.device, 1, "answered by the healthy device");
        let expect = reference::bfs(reg.get("g").unwrap(), 0);
        assert_eq!(r.levels_digest, eta_ckpt::digest_words(&[&expect]));
    }

    #[test]
    fn consecutive_fault_counter_resets_on_successful_reprobe() {
        use eta_fault::{FaultPlan, HangFault};
        let reg = registry_with(&[("g", 1)]);
        let trace = vec![req(0, "g", 0, 0)];
        // Probe the first kill time, then close the window just after it:
        // the retry runs clean on the same device.
        let permanent = |end_ns| FaultPlan {
            hangs: vec![HangFault {
                device: 0,
                start_ns: 0,
                end_ns,
                budget_ns: 50_000,
            }],
            ..FaultPlan::default()
        };
        let probe = Service::new(
            &reg,
            ServeConfig {
                faults: permanent(Ns::MAX),
                ..ServeConfig::default()
            },
        )
        .run(&trace);
        let fail_at = probe.fault_events[0].at_ns;
        let mut service = Service::new(
            &reg,
            ServeConfig {
                faults: permanent(fail_at + 1),
                ..ServeConfig::default()
            },
        );
        let report = service.run(&trace);
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded, 0);
        assert_eq!(report.fault_events.len(), 1);
        let w = &service.workers()[0];
        assert_eq!(
            w.consecutive_faults, 0,
            "a successful re-probe must clear the quarantine strikes"
        );
        assert_eq!(w.faults, 1, "the lifetime fault count is kept");
        assert!(report.quarantines.is_empty());
    }

    #[test]
    fn mid_batch_quarantine_strands_no_riders() {
        use eta_fault::{FaultPlan, HangFault};
        let reg = registry_with(&[("g", 1)]);
        // A batch of 5 rides a device that hangs instantly and quarantines
        // on the first strike. Every rider must still be answered: the
        // ladder walks retry → quarantine wait → retry → CPU fallback.
        let plan = FaultPlan {
            hangs: vec![HangFault {
                device: 0,
                start_ns: 0,
                end_ns: Ns::MAX,
                budget_ns: 1_000,
            }],
            ..FaultPlan::default()
        };
        let cfg = ServeConfig {
            faults: plan,
            quarantine_after: 1,
            checkpoint_interval: 2,
            ..ServeConfig::default()
        };
        let trace: Vec<Request> = (0..5).map(|i| req(i, "g", i, 0)).collect();
        let report = Service::new(&reg, cfg).run(&trace);
        assert_eq!(
            report.completed + report.rejected,
            5,
            "a quarantine mid-batch may not strand its riders"
        );
        assert_eq!(report.completed, 5);
        assert_eq!(report.degraded, 5, "instant hangs push everyone to CPU");
        assert!(!report.quarantines.is_empty());
        for r in &report.records {
            let expect = reference::bfs(reg.get("g").unwrap(), r.source);
            assert_eq!(r.levels_digest, eta_ckpt::digest_words(&[&expect]));
        }
    }

    #[test]
    fn checkpointed_faulted_runs_are_deterministic() {
        let reg = registry_with(&[("g", 1), ("h", 2)]);
        let plan = eta_fault::FaultPlan::seeded(7, 1, 40_000_000);
        let trace: Vec<Request> = (0..8)
            .map(|i| req(i, if i % 2 == 0 { "g" } else { "h" }, i, (i as Ns) * 10_000))
            .collect();
        let cfg = ServeConfig {
            faults: plan,
            checkpoint_interval: 2,
            ..ServeConfig::default()
        };
        let a = Service::new(&reg, cfg.clone()).run(&trace);
        let b = Service::new(&reg, cfg).run(&trace);
        let json = |r: &ServeReport| serde_json::to_string(r).expect("report serializes");
        assert_eq!(json(&a), json(&b), "same plan, same trace, same bytes");
        assert_eq!(a.completed + a.rejected, 8, "every request is accounted");
    }

    #[test]
    fn two_devices_split_independent_graphs() {
        let reg = registry_with(&[("a", 1), ("b", 2)]);
        let trace = vec![req(0, "a", 0, 0), req(1, "b", 0, 0)];
        let cfg = ServeConfig {
            devices: 2,
            ..ServeConfig::default()
        };
        let mut service = Service::new(&reg, cfg);
        let report = service.run(&trace);
        assert_eq!(report.completed, 2);
        let used: Vec<u32> = report.batches.iter().map(|b| b.device).collect();
        assert!(used.contains(&0) && used.contains(&1), "both devices used");
        // Both launches start at t=0: the second was not serialized behind
        // the first.
        assert!(report.batches.iter().all(|b| b.dispatched_ns == 0));
    }
}
