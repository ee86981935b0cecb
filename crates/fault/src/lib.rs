//! # eta-fault: deterministic device-fault injection
//!
//! A [`FaultPlan`] is a seeded, fully explicit schedule of device-level
//! failures on the *simulated* clock: ECC single/double-bit errors in chosen
//! address ranges, Unified-Memory migration failures and page-fault storms,
//! kernel hangs (cycle-budget exceeded), and PCIe bandwidth-degradation
//! windows. Because every layer of this workspace is simulated and
//! deterministic, the same plan reproduces the same faults byte-for-byte —
//! something a real CUDA stack cannot offer.
//!
//! The crate is a leaf: it defines the plan, the per-device runtime state
//! ([`DeviceFaultState`]) that the memory system and device simulator poll
//! from their injection hooks, and the typed [`DeviceFault`] error that
//! propagates up through `etagraph::QueryError` into the serving layer's
//! recovery ladder (retry → quarantine → CPU fallback; see DESIGN.md).
//!
//! Plans are written as JSON (`--faults PLAN.json`): serialization goes
//! through the `Serialize` derive, [`FaultPlan::from_json_str`] checks the
//! schema on what `serde_json::from_str` reads, and the two round-trip.

use serde::Serialize;
use serde_json::Value;

/// Simulated nanoseconds — the one clock every subsystem shares.
pub type Ns = u64;

// ---------------------------------------------------------------------------
// Plan schema
// ---------------------------------------------------------------------------

/// One ECC event: at `at_ns` the word range `[addr_start, addr_start +
/// addr_words)` of device `device` takes a bit flip. A single-bit error is
/// corrected by hardware (counted, surfaced as a sanitizer warning and a
/// profiler instant, execution continues); a double-bit error is
/// uncorrectable and fails the enclosing kernel launch with
/// [`FaultKind::EccDoubleBit`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EccFault {
    pub device: u32,
    pub at_ns: Ns,
    pub addr_start: u64,
    pub addr_words: u64,
    pub double_bit: bool,
}

/// What a UM window does. Variants are unit-only so the vendored
/// `Serialize` derive applies; per-window parameters live on [`UmFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum UmFaultKind {
    /// Demand migrations inside the window fail: the touching operation
    /// surfaces [`FaultKind::UmMigrationFail`].
    MigrationFail,
    /// A page-fault storm: every demand-migrating touch inside the window
    /// costs `extra_ns` more fault-service time (no error).
    Storm,
}

/// One Unified-Memory fault window `[start_ns, end_ns)` on one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UmFault {
    pub device: u32,
    pub start_ns: Ns,
    pub end_ns: Ns,
    pub kind: UmFaultKind,
    /// Extra fault-service latency per migrating touch ([`UmFaultKind::Storm`]
    /// only; ignored for `MigrationFail`).
    pub extra_ns: Ns,
}

/// A kernel-hang window: any launch *starting* in `[start_ns, end_ns)` whose
/// modelled duration exceeds `budget_ns` is killed by the watchdog at
/// `start + budget_ns` and surfaces [`FaultKind::KernelHang`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HangFault {
    pub device: u32,
    pub start_ns: Ns,
    pub end_ns: Ns,
    pub budget_ns: Ns,
}

/// A PCIe degradation window: transfers starting in `[start_ns, end_ns)`
/// take `factor`× their nominal wire time (link retraining, lane drop).
/// No error is raised — this is a pure slowdown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PcieDegradation {
    pub device: u32,
    pub start_ns: Ns,
    pub end_ns: Ns,
    pub factor: f64,
}

/// The full injection schedule. An empty plan (`is_empty()`) is the
/// contractual no-op: installing it must leave every simulated timing and
/// every report byte identical to not installing anything (the test suite
/// and the committed report baselines enforce this).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Provenance only: the seed [`FaultPlan::seeded`] expanded, or 0 for
    /// hand-written plans. Never consulted at injection time — the plan is
    /// fully explicit.
    pub seed: u64,
    pub ecc: Vec<EccFault>,
    pub um: Vec<UmFault>,
    pub hangs: Vec<HangFault>,
    pub pcie: Vec<PcieDegradation>,
}

impl FaultPlan {
    /// True iff the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.ecc.is_empty() && self.um.is_empty() && self.hangs.is_empty() && self.pcie.is_empty()
    }

    /// PCIe slowdown windows for one device, in plan order.
    pub fn pcie_windows(&self, device: u32) -> Vec<(Ns, Ns, f64)> {
        self.pcie
            .iter()
            .filter(|p| p.device == device)
            .map(|p| (p.start_ns, p.end_ns, p.factor))
            .collect()
    }

    /// Expands a seed into a small pseudo-random plan over `devices` devices
    /// and the time horizon `[0, horizon_ns)`. Deterministic: the same
    /// arguments always yield the same plan (splitmix64 underneath). Used by
    /// `report faults`, the CLI's `--faults seed:N` shorthand, and the
    /// property tests.
    pub fn seeded(seed: u64, devices: u32, horizon_ns: Ns) -> FaultPlan {
        let devices = devices.max(1);
        let horizon = horizon_ns.max(1);
        let mut rng = SplitMix64(seed);
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        for _ in 0..1 + rng.next() % 3 {
            plan.ecc.push(EccFault {
                device: (rng.next() % devices as u64) as u32,
                at_ns: rng.next() % horizon,
                addr_start: (rng.next() % 4096) * 32,
                addr_words: 1 + rng.next() % 64,
                double_bit: rng.next().is_multiple_of(2),
            });
        }
        for _ in 0..rng.next() % 3 {
            let start = rng.next() % horizon;
            let len = 1 + horizon / 8 + rng.next() % (horizon / 4 + 1);
            plan.um.push(UmFault {
                device: (rng.next() % devices as u64) as u32,
                start_ns: start,
                end_ns: start.saturating_add(len),
                kind: if rng.next().is_multiple_of(2) {
                    UmFaultKind::MigrationFail
                } else {
                    UmFaultKind::Storm
                },
                extra_ns: 500 + rng.next() % 2000,
            });
        }
        for _ in 0..rng.next() % 2 {
            let start = rng.next() % horizon;
            let len = 1 + horizon / 4 + rng.next() % (horizon / 2 + 1);
            plan.hangs.push(HangFault {
                device: (rng.next() % devices as u64) as u32,
                start_ns: start,
                end_ns: start.saturating_add(len),
                budget_ns: 1_000 + rng.next() % (horizon / 4 + 1),
            });
        }
        for _ in 0..rng.next() % 3 {
            let start = rng.next() % horizon;
            let len = 1 + horizon / 8 + rng.next() % (horizon / 4 + 1);
            plan.pcie.push(PcieDegradation {
                device: (rng.next() % devices as u64) as u32,
                start_ns: start,
                end_ns: start.saturating_add(len),
                factor: 1.5 + (rng.next() % 6) as f64 * 0.5,
            });
        }
        plan
    }
}

/// splitmix64 — the standard 64-bit mixing PRNG (public domain, Vigna).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

// ---------------------------------------------------------------------------
// The typed error that propagates up
// ---------------------------------------------------------------------------

/// The kind of failure a device surfaced. `Copy + Eq` so it can ride inside
/// `etagraph::QueryError` unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultKind {
    EccDoubleBit,
    KernelHang,
    UmMigrationFail,
}

impl FaultKind {
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::EccDoubleBit => "ecc_double_bit",
            FaultKind::KernelHang => "kernel_hang",
            FaultKind::UmMigrationFail => "um_migration_fail",
        }
    }
}

/// A device failure, detected at `at_ns` on the simulated clock. This is
/// what `Device::take_fault` yields and what the serving layer's recovery
/// ladder consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFault {
    pub kind: FaultKind,
    pub device: u32,
    pub at_ns: Ns,
}

impl std::fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device {} fault {} at {} ns",
            self.device,
            self.kind.name(),
            self.at_ns
        )
    }
}

// ---------------------------------------------------------------------------
// Per-device runtime state (owned by eta-mem::MemSystem)
// ---------------------------------------------------------------------------

/// Cumulative fault counters, surfaced through profiling and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultCounters {
    /// Single-bit ECC errors (corrected in place, run continues).
    pub ecc_corrected: u64,
    /// Double-bit ECC errors (uncorrectable, launch failed).
    pub ecc_uncorrected: u64,
    /// Demand migrations that failed inside a `MigrationFail` window.
    pub um_failures: u64,
    /// Touches slowed by a page-fault `Storm` window.
    pub storms: u64,
    /// Launches killed by the hang watchdog.
    pub hangs: u64,
}

/// The per-device slice of a [`FaultPlan`], plus the mutable state the
/// injection hooks need: which one-shot ECC events already fired, and the
/// first pending (not yet collected) [`DeviceFault`].
///
/// The default state is inert: `active` is false and every hook is a cheap
/// early return, so a device with no plan installed behaves byte-identically
/// to one that predates this crate.
#[derive(Debug, Clone, Default)]
pub struct DeviceFaultState {
    /// Fast-path guard: false means every hook returns immediately.
    pub active: bool,
    device: u32,
    ecc: Vec<(EccFault, bool)>,
    um: Vec<UmFault>,
    hangs: Vec<HangFault>,
    pending: Option<DeviceFault>,
    pub counters: FaultCounters,
}

impl DeviceFaultState {
    /// Filters `plan` down to the entries targeting `device`. PCIe windows
    /// are not carried here — they install directly on the link (see
    /// [`FaultPlan::pcie_windows`]).
    pub fn from_plan(plan: &FaultPlan, device: u32) -> DeviceFaultState {
        let ecc: Vec<(EccFault, bool)> = plan
            .ecc
            .iter()
            .filter(|e| e.device == device)
            .map(|e| (*e, false))
            .collect();
        let um: Vec<UmFault> = plan
            .um
            .iter()
            .filter(|u| u.device == device)
            .copied()
            .collect();
        let hangs: Vec<HangFault> = plan
            .hangs
            .iter()
            .filter(|h| h.device == device)
            .copied()
            .collect();
        DeviceFaultState {
            active: !ecc.is_empty() || !um.is_empty() || !hangs.is_empty(),
            device,
            ecc,
            um,
            hangs,
            pending: None,
            counters: FaultCounters::default(),
        }
    }

    pub fn device(&self) -> u32 {
        self.device
    }

    /// Records a fault for collection. The first fault wins: a later one
    /// arriving before the pending one is collected is dropped (the run is
    /// already doomed at the earlier timestamp).
    pub fn set_pending(&mut self, fault: DeviceFault) {
        if self.pending.is_none() {
            self.pending = Some(fault);
        }
    }

    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Collects and clears the pending fault, if any.
    pub fn take_pending(&mut self) -> Option<DeviceFault> {
        self.pending.take()
    }

    /// The watchdog budget for a launch starting at `start_ns`: the minimum
    /// `budget_ns` over hang windows containing that instant (minimum so the
    /// result is independent of plan order).
    pub fn hang_budget(&self, start_ns: Ns) -> Option<Ns> {
        self.hangs
            .iter()
            .filter(|h| h.start_ns <= start_ns && start_ns < h.end_ns)
            .map(|h| h.budget_ns)
            .min()
    }

    /// Fires every not-yet-fired ECC event whose `at_ns` lies in the launch
    /// span `[start_ns, end_ns]`, updating the corrected/uncorrected
    /// counters. Returned in `(at_ns, addr_start)` order so downstream
    /// reporting is independent of plan order.
    pub fn fire_ecc(&mut self, start_ns: Ns, end_ns: Ns) -> Vec<EccFault> {
        let mut fired = Vec::new();
        for (e, done) in &mut self.ecc {
            if !*done && start_ns <= e.at_ns && e.at_ns <= end_ns {
                *done = true;
                if e.double_bit {
                    self.counters.ecc_uncorrected += 1;
                } else {
                    self.counters.ecc_corrected += 1;
                }
                fired.push(*e);
            }
        }
        fired.sort_by_key(|e| (e.at_ns, e.addr_start));
        fired
    }

    /// The first `MigrationFail` window containing `now`, if any.
    pub fn migration_fail(&self, now: Ns) -> Option<UmFault> {
        self.um
            .iter()
            .find(|u| u.kind == UmFaultKind::MigrationFail && u.start_ns <= now && now < u.end_ns)
            .copied()
    }

    /// Total extra fault-service latency from `Storm` windows containing
    /// `now` (summed, so overlapping storms compound).
    pub fn storm_extra(&self, now: Ns) -> Ns {
        self.um
            .iter()
            .filter(|u| u.kind == UmFaultKind::Storm && u.start_ns <= now && now < u.end_ns)
            .map(|u| u.extra_ns)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Reading a plan from JSON
// ---------------------------------------------------------------------------

/// The value, or an error saying field `what` must be `kind`.
fn want<T>(got: Option<T>, what: &str, kind: &str) -> Result<T, String> {
    got.ok_or_else(|| format!("fault plan: `{what}` must be {kind}"))
}

/// A non-negative integral value no larger than 2^53, so window
/// arithmetic cannot overflow. Read through `as_f64`, so `1e3` and `5.0`
/// count as integers.
fn int(v: &Value, what: &str) -> Result<u64, String> {
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= 9.007_199_254_740_992e15 => Ok(n as u64),
        _ => want(None, what, "a non-negative integer"),
    }
}

/// A device id: a non-negative integer that fits a `u32`. A wider id
/// would wrap onto a real device, so it is an error, not a truncation.
fn device(v: &Value, what: &str) -> Result<u32, String> {
    let id = int(v, what)?;
    u32::try_from(id).map_err(|_| format!("fault plan: `{what}` {id} does not fit a u32 device id"))
}

/// `section`'s `[start_ns, end_ns)` window. An empty one (`end <= start`)
/// can never intersect a launch, so a plan carrying one is almost
/// certainly a typo'd timestamp pair — fail loudly instead of silently
/// injecting nothing.
fn window(f: &mut Fields, section: &str) -> Result<(Ns, Ns), String> {
    let start = int(f.take("start_ns")?, &format!("{section}.start_ns"))?;
    let end = int(f.take("end_ns")?, &format!("{section}.end_ns"))?;
    if end <= start {
        let shape = if end < start {
            "inverted"
        } else {
            "zero-length"
        };
        return Err(format!(
            "fault plan: `{section}` window [{start}, {end}) is {shape} \
             (end_ns must be strictly greater than start_ns)"
        ));
    }
    Ok((start, end))
}

/// An object with every key consumed exactly once; leftovers are an error,
/// so typos in hand-written plans fail loudly instead of injecting nothing.
struct Fields<'v> {
    what: &'static str,
    fields: Vec<(&'v str, &'v Value)>,
}

impl<'v> Fields<'v> {
    fn new(v: &'v Value, what: &'static str) -> Result<Fields<'v>, String> {
        let map = want(v.as_object(), what, "an object")?;
        let fields = map.iter().map(|(k, v)| (k.as_str(), v)).collect();
        Ok(Fields { what, fields })
    }

    fn take(&mut self, key: &str) -> Result<&'v Value, String> {
        self.take_opt(key)
            .ok_or_else(|| format!("fault plan: `{}` is missing `{key}`", self.what))
    }

    fn take_opt(&mut self, key: &str) -> Option<&'v Value> {
        let i = self.fields.iter().position(|(k, _)| *k == key)?;
        Some(self.fields.remove(i).1)
    }

    fn finish(self) -> Result<(), String> {
        if let Some((k, _)) = self.fields.first() {
            return Err(format!("fault plan: `{}` has unknown key `{k}`", self.what));
        }
        Ok(())
    }
}

impl FaultPlan {
    /// Parses a plan from its JSON text. Strict: malformed JSON (see
    /// [`serde_json::from_str`]), unknown keys, missing fields or bad values
    /// are errors with a byte offset or a field name, never a silently empty
    /// plan. All top-level sections are optional — `{}` is the empty plan.
    pub fn from_json_str(text: &str) -> Result<FaultPlan, String> {
        let root = serde_json::from_str(text).map_err(|e| format!("fault plan JSON: {e}"))?;
        let mut top = Fields::new(&root, "plan")?;
        let mut plan = FaultPlan::default();
        if let Some(v) = top.take_opt("seed") {
            plan.seed = int(v, "seed")?;
        }
        if let Some(v) = top.take_opt("ecc") {
            for item in want(v.as_array(), "ecc", "an array")? {
                let mut f = Fields::new(item, "ecc entry")?;
                let device = device(f.take("device")?, "ecc.device")?;
                let at_ns = int(f.take("at_ns")?, "ecc.at_ns")?;
                let addr_start = int(f.take("addr_start")?, "ecc.addr_start")?;
                let addr_words = int(f.take("addr_words")?, "ecc.addr_words")?;
                if addr_words == 0 {
                    Err(
                        "fault plan: `ecc.addr_words` is 0 — an empty address range \
                         corrupts nothing, so the event could never fire",
                    )?;
                }
                plan.ecc.push(EccFault {
                    device,
                    at_ns,
                    addr_start,
                    addr_words,
                    double_bit: want(
                        f.take("double_bit")?.as_bool(),
                        "ecc.double_bit",
                        "a boolean",
                    )?,
                });
                f.finish()?;
            }
        }
        if let Some(v) = top.take_opt("um") {
            for item in want(v.as_array(), "um", "an array")? {
                let mut f = Fields::new(item, "um entry")?;
                let kind = match f.take("kind")?.as_str() {
                    Some("MigrationFail") => UmFaultKind::MigrationFail,
                    Some("Storm") => UmFaultKind::Storm,
                    _ => Err("fault plan: `um.kind` must be \"MigrationFail\" or \"Storm\"")?,
                };
                let (start_ns, end_ns) = window(&mut f, "um")?;
                plan.um.push(UmFault {
                    device: device(f.take("device")?, "um.device")?,
                    start_ns,
                    end_ns,
                    kind,
                    extra_ns: f
                        .take_opt("extra_ns")
                        .map_or(Ok(0), |v| int(v, "um.extra_ns"))?,
                });
                f.finish()?;
            }
        }
        if let Some(v) = top.take_opt("hangs") {
            for item in want(v.as_array(), "hangs", "an array")? {
                let mut f = Fields::new(item, "hangs entry")?;
                let (start_ns, end_ns) = window(&mut f, "hangs")?;
                plan.hangs.push(HangFault {
                    device: device(f.take("device")?, "hangs.device")?,
                    start_ns,
                    end_ns,
                    budget_ns: int(f.take("budget_ns")?, "hangs.budget_ns")?,
                });
                f.finish()?;
            }
        }
        if let Some(v) = top.take_opt("pcie") {
            for item in want(v.as_array(), "pcie", "an array")? {
                let mut f = Fields::new(item, "pcie entry")?;
                let factor = want(f.take("factor")?.as_f64(), "pcie.factor", "a number")?;
                if !factor.is_finite() || factor < 1.0 {
                    return Err("fault plan: `pcie.factor` must be a finite number >= 1.0".into());
                }
                let (start_ns, end_ns) = window(&mut f, "pcie")?;
                plan.pcie.push(PcieDegradation {
                    device: device(f.take("device")?, "pcie.device")?,
                    start_ns,
                    end_ns,
                    factor,
                });
                f.finish()?;
            }
        }
        top.finish()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let st = DeviceFaultState::from_plan(&plan, 0);
        assert!(!st.active);
        assert_eq!(st.hang_budget(0), None);
        assert_eq!(st.migration_fail(0), None);
        assert_eq!(st.storm_extra(0), 0);
        assert!(plan.pcie_windows(0).is_empty());
    }

    #[test]
    fn seeded_is_deterministic_and_nonempty() {
        let a = FaultPlan::seeded(7, 2, 1_000_000);
        let b = FaultPlan::seeded(7, 2, 1_000_000);
        assert_eq!(a, b);
        assert!(
            !a.ecc.is_empty(),
            "seeded plans always carry >= 1 ECC event"
        );
        let c = FaultPlan::seeded(8, 2, 1_000_000);
        assert_ne!(a, c, "different seeds give different plans");
        for e in &a.ecc {
            assert!(e.device < 2);
            assert!(e.at_ns < 1_000_000);
        }
    }

    #[test]
    fn state_filters_by_device() {
        let mut plan = FaultPlan::default();
        plan.hangs.push(HangFault {
            device: 1,
            start_ns: 100,
            end_ns: 200,
            budget_ns: 50,
        });
        let st0 = DeviceFaultState::from_plan(&plan, 0);
        assert!(!st0.active);
        let st1 = DeviceFaultState::from_plan(&plan, 1);
        assert!(st1.active);
        assert_eq!(st1.hang_budget(150), Some(50));
        assert_eq!(st1.hang_budget(200), None, "window end is exclusive");
        assert_eq!(st1.hang_budget(99), None);
    }

    #[test]
    fn hang_budget_takes_minimum_over_overlapping_windows() {
        let mut plan = FaultPlan::default();
        for budget in [80, 30, 60] {
            plan.hangs.push(HangFault {
                device: 0,
                start_ns: 0,
                end_ns: 100,
                budget_ns: budget,
            });
        }
        let st = DeviceFaultState::from_plan(&plan, 0);
        assert_eq!(st.hang_budget(10), Some(30));
    }

    #[test]
    fn ecc_fires_once_per_event_and_counts_by_severity() {
        let mut plan = FaultPlan::default();
        plan.ecc.push(EccFault {
            device: 0,
            at_ns: 50,
            addr_start: 0,
            addr_words: 8,
            double_bit: false,
        });
        plan.ecc.push(EccFault {
            device: 0,
            at_ns: 60,
            addr_start: 32,
            addr_words: 8,
            double_bit: true,
        });
        let mut st = DeviceFaultState::from_plan(&plan, 0);
        assert!(st.fire_ecc(0, 40).is_empty(), "before the events: nothing");
        let fired = st.fire_ecc(0, 100);
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].at_ns, 50, "sorted by time");
        assert!(st.fire_ecc(0, 100).is_empty(), "one-shot: never refires");
        assert_eq!(st.counters.ecc_corrected, 1);
        assert_eq!(st.counters.ecc_uncorrected, 1);
    }

    #[test]
    fn pending_fault_first_wins_and_take_clears() {
        let mut st = DeviceFaultState::from_plan(&FaultPlan::default(), 3);
        let first = DeviceFault {
            kind: FaultKind::KernelHang,
            device: 3,
            at_ns: 10,
        };
        st.set_pending(first);
        st.set_pending(DeviceFault {
            kind: FaultKind::EccDoubleBit,
            device: 3,
            at_ns: 20,
        });
        assert!(st.has_pending());
        assert_eq!(st.take_pending(), Some(first), "first fault wins");
        assert_eq!(st.take_pending(), None);
    }

    #[test]
    fn um_windows_distinguish_kinds() {
        let mut plan = FaultPlan::default();
        plan.um.push(UmFault {
            device: 0,
            start_ns: 0,
            end_ns: 100,
            kind: UmFaultKind::Storm,
            extra_ns: 400,
        });
        plan.um.push(UmFault {
            device: 0,
            start_ns: 50,
            end_ns: 150,
            kind: UmFaultKind::Storm,
            extra_ns: 100,
        });
        plan.um.push(UmFault {
            device: 0,
            start_ns: 200,
            end_ns: 300,
            kind: UmFaultKind::MigrationFail,
            extra_ns: 0,
        });
        let st = DeviceFaultState::from_plan(&plan, 0);
        assert_eq!(st.storm_extra(75), 500, "overlapping storms compound");
        assert_eq!(st.storm_extra(120), 100);
        assert_eq!(st.migration_fail(75), None);
        assert_eq!(st.migration_fail(250).map(|u| u.start_ns), Some(200));
    }

    #[test]
    fn parses_a_full_plan() {
        let text = r#"{
            "seed": 9,
            "ecc": [
                {"device": 0, "at_ns": 1000, "addr_start": 64, "addr_words": 8, "double_bit": true}
            ],
            "um": [
                {"device": 1, "start_ns": 0, "end_ns": 5000, "kind": "Storm", "extra_ns": 700},
                {"device": 1, "start_ns": 0, "end_ns": 5000, "kind": "MigrationFail"}
            ],
            "hangs": [
                {"device": 0, "start_ns": 100, "end_ns": 900, "budget_ns": 250}
            ],
            "pcie": [
                {"device": 0, "start_ns": 0, "end_ns": 2000, "factor": 3.5}
            ]
        }"#;
        let plan = FaultPlan::from_json_str(text).expect("valid plan");
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.ecc.len(), 1);
        assert!(plan.ecc[0].double_bit);
        assert_eq!(plan.um.len(), 2);
        assert_eq!(plan.um[0].kind, UmFaultKind::Storm);
        assert_eq!(plan.um[1].extra_ns, 0, "extra_ns defaults to 0");
        assert_eq!(plan.hangs[0].budget_ns, 250);
        assert_eq!(plan.pcie[0].factor, 3.5);
        assert_eq!(plan.pcie_windows(0), vec![(0, 2000, 3.5)]);
    }

    #[test]
    fn empty_object_is_the_empty_plan() {
        let plan = FaultPlan::from_json_str("{}").expect("valid");
        assert!(plan.is_empty());
        assert_eq!(plan.seed, 0);
    }

    #[test]
    fn rejects_malformed_plans_with_a_reason() {
        for (text, needle) in [
            ("", "end of input"),
            ("{", "expected"),
            ("[1,2]", "must be an object"),
            (r#"{"bogus": 1}"#, "unknown key `bogus`"),
            (r#"{"ecc": [{"device": 0}]}"#, "missing `at_ns`"),
            (
                r#"{"um": [{"device":0,"start_ns":0,"end_ns":1,"kind":"Nope"}]}"#,
                "MigrationFail",
            ),
            (
                r#"{"pcie": [{"device":0,"start_ns":0,"end_ns":1,"factor":0.5}]}"#,
                ">= 1.0",
            ),
            (r#"{"seed": -4}"#, "non-negative"),
            (
                r#"{"ecc": [{"device":4294967297,"at_ns":0,"addr_start":0,"addr_words":1,"double_bit":false}]}"#,
                "`ecc.device` 4294967297 does not fit",
            ),
            (
                r#"{"um": [{"device":4294967296,"start_ns":0,"end_ns":1,"kind":"Storm"}]}"#,
                "`um.device` 4294967296 does not fit",
            ),
            (
                r#"{"hangs": [{"device":4294967296,"start_ns":0,"end_ns":1,"budget_ns":1}]}"#,
                "`hangs.device` 4294967296 does not fit",
            ),
            (
                r#"{"pcie": [{"device":4294967296,"start_ns":0,"end_ns":1,"factor":2.0}]}"#,
                "`pcie.device` 4294967296 does not fit",
            ),
            ("{} x", "trailing"),
        ] {
            let err = FaultPlan::from_json_str(text).expect_err(text);
            assert!(err.contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn rejects_duplicate_keys_everywhere() {
        // Top level: the second `seed` would silently shadow (or be
        // shadowed by) the first.
        let err = FaultPlan::from_json_str(r#"{"seed": 1, "seed": 2}"#).unwrap_err();
        assert!(err.contains("duplicate key `seed`"), "{err}");
        // Nested entries reject duplicates too.
        let err = FaultPlan::from_json_str(
            r#"{"hangs": [{"device": 0, "start_ns": 0, "start_ns": 5,
                           "end_ns": 10, "budget_ns": 1}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("duplicate key `start_ns`"), "{err}");
    }

    #[test]
    fn rejects_empty_ecc_address_ranges() {
        let err = FaultPlan::from_json_str(
            r#"{"ecc": [{"device": 0, "at_ns": 10, "addr_start": 0,
                         "addr_words": 0, "double_bit": false}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("addr_words"), "{err}");
        assert!(err.contains("empty address range"), "{err}");
    }

    #[test]
    fn rejects_zero_length_and_inverted_windows() {
        // Every windowed section names itself in the error; both the
        // zero-length and the inverted shape are called out explicitly.
        let cases = [
            (
                r#"{"um": [{"device": 0, "start_ns": 5, "end_ns": 5, "kind": "Storm"}]}"#,
                "um",
                "zero-length",
            ),
            (
                r#"{"um": [{"device": 0, "start_ns": 9, "end_ns": 2, "kind": "Storm"}]}"#,
                "um",
                "inverted",
            ),
            (
                r#"{"hangs": [{"device": 0, "start_ns": 7, "end_ns": 7, "budget_ns": 1}]}"#,
                "hangs",
                "zero-length",
            ),
            (
                r#"{"hangs": [{"device": 0, "start_ns": 7, "end_ns": 3, "budget_ns": 1}]}"#,
                "hangs",
                "inverted",
            ),
            (
                r#"{"pcie": [{"device": 0, "start_ns": 4, "end_ns": 4, "factor": 2.0}]}"#,
                "pcie",
                "zero-length",
            ),
            (
                r#"{"pcie": [{"device": 0, "start_ns": 4, "end_ns": 1, "factor": 2.0}]}"#,
                "pcie",
                "inverted",
            ),
        ];
        for (text, section, shape) in cases {
            let err = FaultPlan::from_json_str(text).expect_err(text);
            assert!(
                err.contains(&format!("`{section}` window")),
                "{text:?} -> {err}"
            );
            assert!(err.contains(shape), "{text:?} -> {err}");
        }
    }

    #[test]
    fn seeded_plan_round_trips_through_json() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let plan = FaultPlan::seeded(seed, 3, 2_000_000);
            let text = serde_json::to_string(&plan).expect("plan serializes");
            let back = FaultPlan::from_json_str(&text).expect("serialized plan parses");
            assert_eq!(plan, back, "round trip for seed {seed}");
        }
    }

    #[test]
    fn a_deeply_nested_plan_is_a_typed_error() {
        let err = FaultPlan::from_json_str(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 64 levels"), "{err}");
    }

    #[test]
    fn plan_json_is_strict_rfc_8259() {
        // Escapes the hand-rolled reader refused now decode...
        let plan = FaultPlan::from_json_str(
            r#"{"se\u0065d": 3, "um": [{"device": 0, "start_ns": 0, "end_ns": 1,
                                        "kind": "St\u006frm"}]}"#,
        )
        .unwrap();
        assert_eq!((plan.seed, plan.um[0].kind), (3, UmFaultKind::Storm));
        // ...and numbers it took through `str::parse::<f64>` are refused.
        for (text, needle) in [
            (r#"{"seed": 01}"#, "malformed number"),
            (r#"{"seed": 1.}"#, "malformed number"),
            (r#"{"seed": 1.e3}"#, "malformed number"),
            (r#"{"seed": 1e999}"#, "number `1e999` out of range"),
            ("{\"se\u{1}ed\": 3}", "raw control character"),
            (
                r#"{"seed": 1, "seed": 2}"#,
                "duplicate key `seed` at byte 18",
            ),
            (
                r#"{"bogus": [[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[["#,
                "nesting",
            ),
        ] {
            let err = FaultPlan::from_json_str(text).expect_err(text);
            assert!(err.starts_with("fault plan JSON: "), "{text:?} -> {err}");
            assert!(err.contains(needle), "{text:?} -> {err}");
        }
        // An integer field keeps its rule: integral, >= 0, <= 2^53, as f64.
        for (text, seed) in [
            (r#"{"seed": 1e3}"#, Some(1000)),
            (r#"{"seed": 5.0}"#, Some(5)),
            (r#"{"seed": -0}"#, Some(0)),
            (r#"{"seed": 9007199254740992}"#, Some(1 << 53)),
            (r#"{"seed": 9007199254740994}"#, None),
            (r#"{"seed": 0.5}"#, None),
        ] {
            assert_eq!(
                FaultPlan::from_json_str(text).ok().map(|p| p.seed),
                seed,
                "{text}"
            );
        }
    }

    /// Truncation at every offset and seeded one-byte flips to ASCII of
    /// rendered plans and a nested value: both readers answer `Ok` or `Err`
    /// and never panic, and no proper prefix of a plan is a plan.
    #[test]
    fn corrupt_plans_are_errors_not_panics() {
        let nested = serde_json::json!({"ecc": [{"device": 0, "deep": [[[{"s": "\u{e9}\n"}]]]}],
                                        "seed": -1.5, "pcie": null});
        let mut docs = vec![serde_json::to_string(&nested).unwrap()];
        for seed in [0u64, 1, 7, 42, 0xDEAD_BEEF] {
            let plan = FaultPlan::seeded(seed, 3, 2_000_000);
            let value = serde_json::to_value(plan.clone()).unwrap();
            for text in [
                serde_json::to_string(&plan).unwrap(),
                serde_json::to_string_pretty(&plan).unwrap(),
            ] {
                assert_eq!(serde_json::from_str(&text).unwrap(), value);
                assert_eq!(FaultPlan::from_json_str(&text).unwrap(), plan);
                docs.push(text);
            }
        }
        let mut rng = SplitMix64(0xF17E);
        for text in &docs {
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                assert!(serde_json::from_str(&text[..cut]).is_err());
                assert!(FaultPlan::from_json_str(&text[..cut]).is_err());
            }
            for _ in 0..2000 {
                let mut bytes = text.clone().into_bytes();
                let at = (rng.next() % bytes.len() as u64) as usize;
                bytes[at] = (rng.next() % 0x80) as u8;
                if let Ok(flipped) = String::from_utf8(bytes) {
                    let _ = serde_json::from_str(&flipped);
                    let _ = FaultPlan::from_json_str(&flipped);
                }
            }
        }
    }

    #[test]
    fn display_formats_the_fault() {
        let f = DeviceFault {
            kind: FaultKind::UmMigrationFail,
            device: 2,
            at_ns: 777,
        };
        assert_eq!(f.to_string(), "device 2 fault um_migration_fail at 777 ns");
    }
}
