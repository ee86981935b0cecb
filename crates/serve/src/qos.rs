//! `eta-qos` — overload control for the serving layer, on simulated time.
//!
//! Past saturation a bounded queue alone collapses into indiscriminate
//! queue-full rejections and timeout churn: the scheduler keeps spending
//! device time on requests whose deadlines are already unmeetable, and the
//! fault ladder's retries amplify load exactly when the pool can least
//! afford them. Each admitted traversal is a large indivisible unit of
//! device time (one bulk-synchronous launch), which is the regime where
//! *admission-time* decisions beat queue-time decisions — arbitrate before
//! you spend.
//!
//! This module supplies the policy pieces; [`crate::sched`] consults them
//! at its named hooks (DESIGN.md, "Scheduler") and the ledger counts their
//! verdicts:
//!
//! * [`CostModel`] — per-graph per-request device-time estimates, seeded by
//!   an analytic prior over the graph's size and calibrated online from the
//!   latency decomposition of completed batches.
//! * admission control — a request whose predicted completion (queue
//!   backlog / pool width + its own estimate) cannot meet its deadline is
//!   refused at arrival with
//!   [`RejectReason::DeadlineInfeasible`](crate::request::RejectReason).
//! * priority- and tenant-aware shedding — at queue capacity the *worst*
//!   entry (lowest priority, latest deadline, highest id) is shed, not
//!   blindly the newcomer; per-tenant [`TokenBucket`]s keep one hot tenant
//!   from starving the rest under congestion.
//! * retry budgets — a global [`TokenBucket`] gates the recovery ladder's
//!   retries (a regroup-resume on the group placement is one) so fault
//!   recovery degrades to the CPU fallback instead of amplifying a
//!   saturated pool.
//! * brownout — when the queue-delay EWMA crosses a threshold, best-effort
//!   requests (no deadline) lose their batching-priority boost and are
//!   routed to zero-copy transfer (no pin pressure); both revert
//!   deterministically when the EWMA recovers.
//!
//! Everything runs on the service's simulated clock with integer
//! arithmetic, so a trace replays to byte-identical reports. Qos is on or
//! off: [`QosConfig::Off`], the default, builds no qos state, so the
//! service behaves — and its report serializes — exactly as if this module
//! did not exist; [`QosConfig::Standard`] turns every control on with the
//! thresholds below.

use eta_graph::Csr;
use eta_mem::Ns;
use etagraph::{EtaConfig, TransferMode};
use serde::Serialize;
use std::collections::BTreeMap;

/// Device-nanoseconds each tenant's fair-share bucket accrues per
/// simulated second: 70% of one device, so two tenants can saturate a
/// two-device pool and one tenant alone cannot.
const TENANT_RATE_NS_PER_S: u64 = 700_000_000;
/// Device-nanoseconds a tenant bucket holds at most (its burst).
const TENANT_BURST_NS: u64 = 30_000_000;
/// Fair share is work-conserving: buckets are only consulted while the
/// queue holds at least this many entries.
const FAIR_SHARE_MIN_QUEUE: usize = 8;
/// Retry tokens accrued per simulated second.
const RETRY_RATE_PER_S: u64 = 100;
/// Retry tokens the bucket holds at most.
const RETRY_BURST: u64 = 4;
/// Queue-delay EWMA at or above this enters brownout.
const BROWNOUT_ENTER_NS: Ns = 2_000_000;
/// Queue-delay EWMA at or below this exits brownout.
const BROWNOUT_EXIT_NS: Ns = 500_000;
const _: () = assert!(BROWNOUT_EXIT_NS < BROWNOUT_ENTER_NS, "hysteresis");

/// Overload control, on or off. The CLI's `--qos` flag and the overload
/// drill use [`QosConfig::standard`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QosConfig {
    /// Every control off: the scheduler's qos hooks are inert and the
    /// report carries no qos section.
    #[default]
    Off,
    /// Every control on — deadline-feasibility admission, worst-first
    /// shedding, tenant fair share, the retry budget and brownout — with
    /// thresholds sized for the simulated pool (sub-millisecond
    /// traversals, a few devices, a couple of tenants).
    Standard,
}

impl QosConfig {
    /// The all-on profile.
    pub fn standard() -> Self {
        QosConfig::Standard
    }

    /// The run state this setting needs: none when qos is off.
    pub(crate) fn state(self) -> Option<QosState> {
        (self == QosConfig::Standard).then(QosState::new)
    }
}

/// A token bucket on simulated time with exact integer refill: the
/// fractional part of `elapsed_ns * rate / 1e9` is carried between refills,
/// so no token is ever lost to rounding and identical call sequences
/// produce identical balances.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_s: u64,
    burst: u64,
    tokens: u64,
    /// Sub-token refill remainder, always `< 1e9`.
    carry: u64,
    last_ns: Ns,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(rate_per_s: u64, burst: u64) -> Self {
        TokenBucket {
            rate_per_s,
            burst,
            tokens: burst,
            carry: 0,
            last_ns: 0,
        }
    }

    fn refill(&mut self, now: Ns) {
        if now <= self.last_ns {
            return;
        }
        let elapsed = now - self.last_ns;
        self.last_ns = now;
        let num = elapsed as u128 * self.rate_per_s as u128 + self.carry as u128;
        // lint: allow(L-CAST-TRUNC): both quotients are < num, and tokens saturate at `burst` below
        let add = (num / 1_000_000_000).min(u64::MAX as u128) as u64;
        self.carry = (num % 1_000_000_000) as u64;
        self.tokens = self.tokens.saturating_add(add).min(self.burst);
        if self.tokens == self.burst {
            // A full bucket banks nothing: the carry would otherwise grant
            // a phantom token the instant one is spent.
            self.carry = 0;
        }
    }

    /// Takes `n` tokens if available at `now`; `false` leaves the balance
    /// untouched.
    fn try_take(&mut self, now: Ns, n: u64) -> bool {
        self.refill(now);
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }
}

/// Per-graph per-request device-time estimates. A graph starts on an
/// analytic prior over its size; every completed batch feeds one
/// `total_ns / batch_size` sample into an EWMA (α = 1/8), so the model
/// converges to the *batched* per-request cost — which is what admission
/// should charge, since the scheduler will batch.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    est: BTreeMap<String, Ns>,
}

impl CostModel {
    pub fn new() -> Self {
        CostModel::default()
    }

    /// Analytic prior: a launch overhead plus memory-bound per-vertex and
    /// per-edge walks at GPU rates. Zero-copy pays per-edge sector reads
    /// over PCIe, so its prior doubles.
    fn prior(csr: &Csr, eta: &EtaConfig) -> Ns {
        let base = 30_000 + csr.n() as Ns / 2 + csr.m() as Ns / 4;
        if eta.transfer == TransferMode::ZeroCopy {
            base * 2
        } else {
            base
        }
    }

    /// Estimated device-ns one request against `graph` will consume.
    pub fn estimate(&self, graph: &str, csr: &Csr, eta: &EtaConfig) -> Ns {
        match self.est.get(graph) {
            Some(&e) => e,
            None => Self::prior(csr, eta),
        }
    }

    /// Feeds one observed per-request sample (a completed batch's
    /// `total_ns / size`) into the graph's EWMA.
    pub fn observe(&mut self, graph: &str, csr: &Csr, eta: &EtaConfig, sample: Ns) {
        let prior = Self::prior(csr, eta);
        let e = self.est.entry(graph.to_string()).or_insert(prior);
        *e = *e - *e / 8 + sample / 8;
    }
}

/// What the qos layer did over one run. Attached to
/// [`ServeReport`](crate::report::ServeReport) as `Some(..)` whenever any
/// feature was enabled.
#[derive(Debug, Clone, Default, Serialize)]
pub struct QosStats {
    /// Arrivals refused as `deadline_infeasible`.
    pub admission_rejections: u32,
    /// Entries shed at queue capacity (`shed_overload`), newcomer or not.
    pub shed_rejections: u32,
    /// Arrivals refused as `tenant_throttled`.
    pub throttle_rejections: u32,
    /// Ladder retries the budget admitted.
    pub retries_granted: u32,
    /// Ladder retries the budget refused — those requests fell straight to
    /// the CPU fallback instead of re-entering the queue.
    pub retries_denied: u32,
    /// Brownout enter transitions.
    pub brownout_entries: u32,
    /// Brownout exit transitions.
    pub brownout_exits: u32,
    /// Batches served degraded (zero-copy route) during brownout.
    pub brownout_batches: u32,
    /// Requests that rode a brownout-degraded batch.
    pub brownout_downgrades: u32,
    /// Deepest the queue ever got.
    pub max_queue_depth: u32,
}

/// A brownout transition the scheduler should log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutTransition {
    Entered,
    Exited,
}

/// Mutable qos policy state for one run: the cost model, the tenant and
/// retry buckets, and the brownout EWMA. The scheduler holds one only
/// while qos is on. Verdicts are returned, not counted — [`QosStats`]
/// belongs to the scheduler's ledger.
#[derive(Debug, Clone)]
pub(crate) struct QosState {
    pub(crate) cost: CostModel,
    tenants: BTreeMap<String, TokenBucket>,
    retry: TokenBucket,
    /// Whether brownout degradation is currently in force.
    pub(crate) brownout_active: bool,
    wait_ewma: Ns,
}

impl QosState {
    pub(crate) fn new() -> Self {
        QosState {
            cost: CostModel::new(),
            tenants: BTreeMap::new(),
            retry: TokenBucket::new(RETRY_RATE_PER_S, RETRY_BURST),
            brownout_active: false,
            wait_ewma: 0,
        }
    }

    /// Fair share for an arrival that finds `queued` entries waiting:
    /// below [`FAIR_SHARE_MIN_QUEUE`] it is admitted untouched; otherwise
    /// `cost_ns` is charged against the tenant's bucket and `false` means
    /// the tenant is over its share right now. Buckets are created full on
    /// first sight, so a tenant's initial burst is never penalized.
    pub(crate) fn tenant_try_charge(
        &mut self,
        tenant: &str,
        queued: usize,
        now: Ns,
        cost_ns: Ns,
    ) -> bool {
        if queued < FAIR_SHARE_MIN_QUEUE {
            return true;
        }
        let bucket = self
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TokenBucket::new(TENANT_RATE_NS_PER_S, TENANT_BURST_NS));
        bucket.try_take(now, cost_ns)
    }

    /// Asks the global retry budget for one retry token.
    pub(crate) fn retry_try_take(&mut self, now: Ns) -> bool {
        self.retry.try_take(now, 1)
    }

    /// Feeds one queue-delay sample (the dispatched head's wait) into the
    /// brownout EWMA (α = 1/8) and reports a threshold crossing, if any.
    pub(crate) fn observe_wait(&mut self, wait_ns: Ns) -> Option<BrownoutTransition> {
        self.wait_ewma = self.wait_ewma - self.wait_ewma / 8 + wait_ns / 8;
        if !self.brownout_active && self.wait_ewma >= BROWNOUT_ENTER_NS {
            self.brownout_active = true;
            Some(BrownoutTransition::Entered)
        } else if self.brownout_active && self.wait_ewma <= BROWNOUT_EXIT_NS {
            self.brownout_active = false;
            Some(BrownoutTransition::Exited)
        } else {
            None
        }
    }

    /// The current queue-delay EWMA (for reporting and tests).
    pub(crate) fn wait_ewma(&self) -> Ns {
        self.wait_ewma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_graph::generate::{rmat, RmatConfig};

    impl TokenBucket {
        /// Current balance at `now` (refills first).
        fn available(&mut self, now: Ns) -> u64 {
            self.refill(now);
            self.tokens
        }
    }

    #[test]
    fn token_bucket_refills_exactly_with_carry() {
        // 3 tokens/s: after 333_333_333 ns the bucket holds 0 (rounds
        // down); after 1 s exactly 3 accrued with no drift.
        let mut b = TokenBucket::new(3, 10);
        assert!(b.try_take(0, 10), "starts full");
        assert_eq!(b.available(333_333_333), 0, "0.999… tokens rounds down");
        assert_eq!(b.available(666_666_666), 1);
        assert_eq!(b.available(1_000_000_000), 3, "carry loses nothing");
    }

    #[test]
    fn token_bucket_caps_at_burst_and_banks_no_carry_when_full() {
        let mut b = TokenBucket::new(1_000, 5);
        assert_eq!(b.available(10_000_000_000), 5, "caps at burst");
        // The long idle period must not bank a fractional token: the next
        // nanosecond grants nothing.
        assert!(b.try_take(10_000_000_000, 5));
        assert_eq!(b.available(10_000_000_001), 0);
    }

    #[test]
    fn token_bucket_denies_without_spending() {
        let mut b = TokenBucket::new(0, 2);
        assert!(b.try_take(0, 1));
        assert!(b.try_take(0, 1));
        assert!(!b.try_take(0, 1), "zero rate never refills");
        assert!(!b.try_take(1_000_000_000, 1));
    }

    #[test]
    fn cost_model_calibrates_toward_samples() {
        let csr = rmat(&RmatConfig::paper(8, 1_000, 1));
        let eta = EtaConfig::paper();
        let mut m = CostModel::new();
        let prior = m.estimate("g", &csr, &eta);
        assert_eq!(prior, CostModel::prior(&csr, &eta));
        // Feed a sample far above the prior: the EWMA moves toward it and
        // converges within a few hundred observations.
        for _ in 0..256 {
            m.observe("g", &csr, &eta, 1_000_000);
        }
        let e = m.estimate("g", &csr, &eta);
        assert!(e > prior, "estimate moved up toward the samples");
        assert!(
            (900_000..=1_000_000).contains(&e),
            "converged near the sample, got {e}"
        );
    }

    #[test]
    fn zero_copy_prior_is_costlier() {
        let csr = rmat(&RmatConfig::paper(8, 1_000, 1));
        assert!(
            CostModel::prior(&csr, &EtaConfig::zero_copy())
                > CostModel::prior(&csr, &EtaConfig::paper())
        );
    }

    #[test]
    fn brownout_has_hysteresis() {
        let mut st = QosState::new();
        let mut entered_at = None;
        for i in 0..64 {
            if st.observe_wait(4 * BROWNOUT_ENTER_NS) == Some(BrownoutTransition::Entered) {
                entered_at = Some(i);
                break;
            }
        }
        assert!(entered_at.is_some(), "sustained delay must enter brownout");
        assert!(st.brownout_active);
        // A single quiet sample must not exit (hysteresis); a sustained
        // quiet period must.
        assert_eq!(st.observe_wait(0), None);
        assert!(st.brownout_active);
        let mut exited = false;
        for _ in 0..64 {
            if st.observe_wait(0) == Some(BrownoutTransition::Exited) {
                exited = true;
                break;
            }
        }
        assert!(exited, "sustained recovery must exit brownout");
        assert!(!st.brownout_active);
    }

    #[test]
    fn tenant_buckets_are_independent_and_charged_only_under_congestion() {
        let mut st = QosState::new();
        let busy = FAIR_SHARE_MIN_QUEUE;
        // An uncongested arrival is admitted without touching its bucket.
        assert!(st.tenant_try_charge("a", busy - 1, 0, 10 * TENANT_BURST_NS));
        assert!(st.tenant_try_charge("a", busy, 0, TENANT_BURST_NS));
        assert!(!st.tenant_try_charge("a", busy, 0, 1), "a is drained");
        assert!(
            st.tenant_try_charge("a", busy - 1, 0, 1),
            "idle pools serve anyone"
        );
        assert!(
            st.tenant_try_charge("b", busy, 0, TENANT_BURST_NS),
            "b is untouched"
        );
        // 1 ms refills 70% of a device-millisecond.
        assert!(st.tenant_try_charge("a", busy, 1_000_000, 700_000));
        assert!(!st.tenant_try_charge("a", busy, 1_000_000, 1));
    }

    #[test]
    fn retry_budget_denies_when_drained_and_refills() {
        let mut st = QosState::new();
        for _ in 0..RETRY_BURST {
            assert!(st.retry_try_take(0), "the burst is granted");
        }
        assert!(!st.retry_try_take(0), "a drained budget denies");
        let one_token_ns = 1_000_000_000 / RETRY_RATE_PER_S;
        assert!(!st.retry_try_take(one_token_ns - 1));
        assert!(st.retry_try_take(one_token_ns));
    }

    #[test]
    fn only_the_standard_profile_builds_qos_state() {
        assert_eq!(QosConfig::default(), QosConfig::Off);
        assert!(QosConfig::Off.state().is_none());
        assert!(QosConfig::standard().state().is_some());
    }
}
