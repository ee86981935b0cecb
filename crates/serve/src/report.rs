//! What a served workload produced: per-request latency decomposition,
//! per-batch launch records, rejections, and per-device utilization.
//!
//! The report stores raw nanosecond samples only. Percentile math
//! (p50/p95/p99) deliberately lives in `eta-bench`'s `stats` module so one
//! documented nearest-rank implementation serves both the paper tables and
//! the serving artifacts — this crate stays a pure producer.

use crate::qos::QosStats;
use crate::request::{Priority, Rejection};
use eta_mem::Ns;
use serde::Serialize;

/// One completed request, with its latency broken into the three phases the
/// scheduler controls: waiting in queue, moving data, and computing.
#[derive(Debug, Clone, Serialize)]
pub struct RequestRecord {
    pub id: u32,
    pub graph: String,
    pub class: Priority,
    pub source: u32,
    pub arrival_ns: Ns,
    /// Arrival → the dispatch that picked this request up.
    pub queue_wait_ns: Ns,
    /// Non-kernel service time: topology upload (cold graphs), label
    /// initialization copies, per-iteration count readbacks, UM stalls.
    pub transfer_ns: Ns,
    /// Kernel execution time of the batch this request rode in.
    pub compute_ns: Ns,
    /// Arrival → completion (the sum of the three phases).
    pub latency_ns: Ns,
    /// How many requests shared the batch launch (1 = unbatched).
    pub batch_size: u32,
    /// Device that served the batch.
    pub device: u32,
    /// Vertices this source reached (a cheap correctness fingerprint).
    pub reached: u32,
    /// FNV-1a digest of this request's full level array — the strong
    /// correctness fingerprint the chaos harness compares against the CPU
    /// reference, catching wrong *distances* that `reached` alone would miss.
    pub levels_digest: u64,
    /// Whether completion beat the request's deadline; `None` = no deadline.
    pub deadline_met: Option<bool>,
    /// `true` when the answer came from the CPU reference fallback after the
    /// device-side recovery ladder was exhausted. The answer is still
    /// correct — "degraded" refers to the service path, not the result.
    pub degraded: bool,
    /// Device-fault retries this request went through before completing.
    pub retries: u32,
}

/// One batched launch: which device, which graph, how many sources rode
/// along, and when it ran.
#[derive(Debug, Clone, Serialize)]
pub struct BatchRecord {
    pub device: u32,
    pub graph: String,
    pub size: u32,
    /// Dispatch decision time.
    pub dispatched_ns: Ns,
    /// Kernel work start (after any cold upload).
    pub started_ns: Ns,
    pub completed_ns: Ns,
}

/// Per-device accounting over the whole run.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceStats {
    pub device: u32,
    pub busy_ns: Ns,
    /// busy / makespan, in [0, 1].
    pub utilization: f64,
    pub uploads: u32,
    pub evictions: u32,
}

/// One injected device fault the scheduler observed (a batch failed).
#[derive(Debug, Clone, Serialize)]
pub struct FaultEvent {
    pub device: u32,
    /// Stable fault name (`ecc_double_bit`, `kernel_hang`,
    /// `um_migration_fail`).
    pub kind: String,
    /// When the device reported the fault, on the service clock.
    pub at_ns: Ns,
}

/// One quarantine window: the scheduler kept the device out of dispatch
/// for `[from_ns, until_ns)` after repeated faults.
#[derive(Debug, Clone, Serialize)]
pub struct QuarantineRecord {
    pub device: u32,
    pub from_ns: Ns,
    pub until_ns: Ns,
}

/// Accounting for one device-group composition used by sharded serving:
/// which members, how much work they did together, and how much halo
/// traffic the queries moved over the peer fabric.
#[derive(Debug, Clone, Default, Serialize)]
pub struct GroupStats {
    /// Member device ids, ascending. Groups are keyed by composition, so a
    /// regrouped resume after a quarantine shows up as a separate entry.
    pub devices: Vec<u32>,
    /// Sharded queries this composition completed.
    pub queries: u32,
    /// Wall time the group was held (members are acquired and released
    /// together, so this is also each member's busy time in the group).
    pub busy_ns: Ns,
    /// busy / makespan, in [0, 1].
    pub utilization: f64,
    /// Peer-fabric bytes the group's queries exchanged.
    pub exchanged_bytes: u64,
    /// BSP supersteps across the group's queries.
    pub supersteps: u64,
    /// exchanged_bytes / supersteps — mean halo traffic per iteration.
    pub bytes_per_superstep: u64,
}

/// The full outcome of serving one trace. Deterministic: identical inputs
/// serialize byte-identically.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    pub completed: u32,
    pub rejected: u32,
    /// Completed requests answered by the CPU fallback (`degraded: true`).
    pub degraded: u32,
    /// completed / (completed + rejected); `1.0` for an empty trace. The
    /// recovery ladder keeps device faults out of this number — a faulted
    /// request counts as completed once a retry or the fallback answers it.
    pub availability: f64,
    /// First arrival → last completion on the service clock.
    pub makespan_ns: Ns,
    /// Completed requests per simulated second.
    pub throughput_qps: f64,
    pub records: Vec<RequestRecord>,
    pub rejections: Vec<Rejection>,
    pub batches: Vec<BatchRecord>,
    pub devices: Vec<DeviceStats>,
    /// Every device fault the scheduler observed, in observation order.
    pub fault_events: Vec<FaultEvent>,
    /// Quarantine windows imposed on repeatedly-faulting devices.
    pub quarantines: Vec<QuarantineRecord>,
    /// Snapshots taken across all batches (0 when checkpointing is off).
    pub checkpoints: u32,
    /// Faulted batches restarted from a snapshot instead of from scratch.
    pub resumes: u32,
    /// Resumes that landed on a different device than the one that faulted
    /// (a subset of `resumes`).
    pub migrations: u32,
    /// Sum over all resumes of the iteration each snapshot restored — the
    /// traversal work the ladder did *not* have to redo.
    pub work_saved_iterations: u64,
    /// Device-group accounting, one entry per group composition used.
    /// Empty (and absent from the serialization) for single-device
    /// services, so pre-group reports stay byte-identical.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub groups: Vec<GroupStats>,
    /// Overload-control accounting; `None` while qos is
    /// [`Off`](crate::qos::QosConfig::Off).
    pub qos: Option<QosStats>,
}

impl ServeReport {
    /// Latency samples of completed requests, optionally restricted to one
    /// class. Raw data for `eta-bench`'s percentile helpers.
    pub fn latencies_ns(&self, class: Option<Priority>) -> Vec<Ns> {
        self.records
            .iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .map(|r| r.latency_ns)
            .collect()
    }

    /// Mean number of requests per launch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        let total: u64 = self.batches.iter().map(|b| b.size as u64).sum();
        total as f64 / self.batches.len() as f64
    }

    /// Goodput: completions that met their deadline, per simulated second
    /// of makespan. Best-effort completions (no deadline) do not count —
    /// goodput measures *useful* SLO-bound work, which is what collapses
    /// under overload while raw throughput stays flat.
    pub fn goodput_qps(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        let met = self
            .records
            .iter()
            .filter(|r| r.deadline_met == Some(true))
            .count();
        met as f64 / (self.makespan_ns as f64 / 1e9)
    }

    /// Completed requests that had a deadline and met it, over all that had
    /// one.
    pub fn slo_attainment(&self) -> Option<f64> {
        let with: Vec<bool> = self.records.iter().filter_map(|r| r.deadline_met).collect();
        if with.is_empty() {
            None
        } else {
            Some(with.iter().filter(|&&m| m).count() as f64 / with.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(class: Priority, latency: Ns, met: Option<bool>) -> RequestRecord {
        RequestRecord {
            id: 0,
            graph: "g".into(),
            class,
            source: 0,
            arrival_ns: 0,
            queue_wait_ns: 1,
            transfer_ns: 2,
            compute_ns: 3,
            latency_ns: latency,
            batch_size: 1,
            device: 0,
            reached: 1,
            levels_digest: 0,
            deadline_met: met,
            degraded: false,
            retries: 0,
        }
    }

    #[test]
    fn summaries_filter_by_class_and_count_slos() {
        let report = ServeReport {
            completed: 3,
            rejected: 0,
            degraded: 0,
            availability: 1.0,
            makespan_ns: 100,
            throughput_qps: 0.0,
            records: vec![
                record(Priority::Interactive, 10, Some(true)),
                record(Priority::Batch, 20, Some(false)),
                record(Priority::Interactive, 30, None),
            ],
            rejections: vec![],
            batches: vec![
                BatchRecord {
                    device: 0,
                    graph: "g".into(),
                    size: 3,
                    dispatched_ns: 0,
                    started_ns: 0,
                    completed_ns: 50,
                },
                BatchRecord {
                    device: 0,
                    graph: "g".into(),
                    size: 1,
                    dispatched_ns: 50,
                    started_ns: 50,
                    completed_ns: 100,
                },
            ],
            devices: vec![],
            fault_events: vec![],
            quarantines: vec![],
            checkpoints: 0,
            resumes: 0,
            migrations: 0,
            work_saved_iterations: 0,
            groups: vec![],
            qos: None,
        };
        assert_eq!(report.latencies_ns(None), vec![10, 20, 30]);
        assert_eq!(report.goodput_qps(), 1e7, "1 met deadline over 100 ns");
        assert_eq!(
            report.latencies_ns(Some(Priority::Interactive)),
            vec![10, 30]
        );
        assert_eq!(report.mean_batch_size(), 2.0);
        assert_eq!(report.slo_attainment(), Some(0.5));
    }
}
