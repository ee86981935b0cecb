//! Adaptive per-region transfer policy: demand paging, prefetch, or
//! zero-copy per page group, decided from observed access density.
//!
//! HyTGraph's observation (see PAPERS.md) is that no single transfer
//! backend dominates a traversal: dense, streaming regions want the 2 MiB
//! prefetch path, sparsely-touched regions want demand paging, and regions
//! where only a few cachelines of each page are ever read want zero-copy —
//! migrating a 4 KiB page to serve 32 B is the uk-2006 pathology. This
//! module tracks access density per *page group* (a fixed 64 KiB window of
//! a unified region) across iterations and re-decides each group's backend
//! at iteration boundaries.
//!
//! **Determinism.** Every input to a decision is itself deterministic: the
//! counters derive only from the sector streams the kernels emit, the
//! thresholds are constants, and groups are visited in address order. Two
//! runs of the same query therefore make byte-identical decisions, and —
//! because routing a read through a different backend never changes the
//! value read, only its timing — labels are byte-identical across all
//! backends (the property tests pin this).
//!
//! **Hysteresis.** A group only switches backend after its desired choice
//! has been stable for [`HYSTERESIS`] consecutive iterations, so one odd
//! frontier cannot flap a group between prefetch and zero-copy; flapping
//! would re-migrate the same pages every iteration.
//!
//! **Escalation.** Per-group decisions are reactive: by the time a group is
//! observed dense, its pages have already been demand-migrated, so a
//! group-local prefetch arrives too late to help a traversal that touches
//! each edge once. The region therefore *escalates* — every group,
//! including the untouched ones ahead of the frontier, switches route at
//! once — on either of two signals ([`Trigger`]):
//!
//! * **Announced work** (forward-looking): frontier engines know the coming
//!   iteration's frontier before its kernels run, and pass its edge volume
//!   to [`AdaptiveRegion::tick`] as `upcoming_bytes`. When that volume is
//!   at least 1/[`ESCALATE_HINT_DIVISOR`]th of the region, the dense wave
//!   is about to break and the region escalates *before* it — this is
//!   HyTGraph's move of picking transfer routes from the active set rather
//!   than from the wreckage it leaves. On a power-law traversal the hint
//!   fires one iteration ahead of the bulk transfer, which is what lets
//!   the adaptive policy land on static prefetch's timing.
//! * **Observed density** (reactive backstop, for callers with no frontier
//!   to announce): at least [`ESCALATE_DENSE_GROUPS`] dense groups, dense
//!   groups a majority of the touched ones, for [`HYSTERESIS`] consecutive
//!   iterations.
//!
//! **Priced escalation.** Streaming pays only when the region stays on the
//! device: a region larger than the memory left to it evicts its own
//! streamed pages before the wave reads them, and every later touch faults
//! them back — the paper's uk-2006 prefetch pathology (Table III). So
//! [`AdaptiveRegion::tick`] also takes the region's *budget*, the device
//! bytes it may claim, and an escalation picks one of two terminal
//! [`Route`]s: [`Route::Stream`] (every group prefetches, as above) when
//! all of the region's pages fit the budget, else [`Route::Link`] (every
//! group reads zero-copy, EMOGI's answer to data the device cannot hold).
//! A region that fits never sees the link route, so with every region
//! fitting each decision is the unpriced policy's. There is no partial
//! route: streaming the part that fits and reading the rest over the link
//! delays the wave behind the partial stream. The budget is set by
//! [`crate::system::MemSystem::adaptive_tick`]: the device's free bytes
//! minus what every *other* adaptive region claims by decision (its
//! prefetch-routed groups, [`AdaptiveRegion::claimed_bytes`]), walked in
//! region id order so a claim made earlier in the same tick counts against
//! the regions after it. Two arrays that each fit alone but not together
//! therefore stream the first and read the second over the link.
//!
//! Escalation is terminal — a streamed region runs ahead of the traversal
//! (already-resident pages cost nothing to "re-prefetch") and keeps its
//! claim until it is released, and demoting a resident group buys nothing
//! — so a single forward-looking signal is safe: there is no flapping to
//! damp, which is why the hint needs no hysteresis. A sparse traversal
//! never produces either signal and keeps its demand/zero-copy mix.

use crate::um::PAGE_BYTES;
use serde::Serialize;

/// Pages per decision group: 16 × 4 KiB = 64 KiB, small enough to separate
/// a power-law graph's hot core from its sparse tail, large enough that a
/// group prefetch amortizes the link setup latency.
pub const GROUP_PAGES: usize = 16;

/// Distinct pages of a group touched in one iteration at or above which the
/// group is dense: stream it with the prefetch backend.
pub const DENSE_PAGES: u32 = 10;

/// Bytes read per touched page (sector touches × 32 B, repeats included) at
/// or below which migration is waste: serve the group zero-copy. 512 B is
/// 1/8th of a page — below it, moving the page costs more wire time than
/// rereading the sectors ever will.
pub const SPARSE_BYTES_PER_PAGE: u64 = 512;

/// Consecutive iterations a group's desired backend must repeat before the
/// switch is applied.
pub const HYSTERESIS: u32 = 2;

/// Dense groups observed in one iteration at or above which (when they are
/// also the majority of touched groups) the iteration counts toward
/// region-wide prefetch escalation.
pub const ESCALATE_DENSE_GROUPS: usize = 4;

/// Announced-work escalation threshold: a coming iteration whose announced
/// read volume is at least `region_bytes / ESCALATE_HINT_DIVISOR` escalates
/// the region to prefetch before its kernels run. The announcement counts
/// edge *bytes*, but a frontier's reads scatter — a thousand adjacency
/// lists touch a thousand separate pages — so its page footprint (what
/// demand paging would actually migrate, in whole fault batches) runs an
/// order of magnitude past the announced volume: 1/32nd of the region in
/// edge bytes is the step before the region-sweeping wave. A sparse
/// traversal's frontiers announce hundreds of bytes against megabyte
/// regions, two orders below the threshold.
pub const ESCALATE_HINT_DIVISOR: u64 = 32;

/// The backend a page group is currently served by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TransferChoice {
    /// Fault-driven page migration (the UM default).
    Demand,
    /// Keep the group resident via range prefetch.
    Prefetch,
    /// No *new* residency: sectors on non-resident pages cross the link
    /// directly; pages already migrated keep serving locally until evicted.
    ZeroCopy,
}

impl TransferChoice {
    pub fn name(self) -> &'static str {
        match self {
            TransferChoice::Demand => "demand",
            TransferChoice::Prefetch => "prefetch",
            TransferChoice::ZeroCopy => "zerocopy",
        }
    }
}

/// One page group's density counters and decision state.
#[derive(Debug, Clone)]
struct GroupState {
    /// Sector touches this iteration (repeats included — repeats mean reuse,
    /// which favors residency).
    sectors: u64,
    /// Distinct pages of the group touched this iteration (bit per page).
    page_mask: u16,
    choice: TransferChoice,
    /// Last desired backend and how many consecutive iterations it repeated.
    target: TransferChoice,
    streak: u32,
}

impl GroupState {
    fn new() -> Self {
        GroupState {
            sectors: 0,
            page_mask: 0,
            choice: TransferChoice::Demand,
            target: TransferChoice::Demand,
            streak: 0,
        }
    }

    /// The backend this iteration's density asks for. An untouched group
    /// keeps its current backend — no evidence, no change.
    fn desired(&self) -> TransferChoice {
        let pages = self.page_mask.count_ones();
        if pages == 0 {
            return self.choice;
        }
        if pages >= DENSE_PAGES {
            return TransferChoice::Prefetch;
        }
        if self.sectors * 32 <= pages as u64 * SPARSE_BYTES_PER_PAGE {
            return TransferChoice::ZeroCopy;
        }
        TransferChoice::Demand
    }
}

/// One group's decision for the coming iteration, as applied by
/// [`crate::system::MemSystem::adaptive_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupDecision {
    pub first_page: usize,
    /// Inclusive.
    pub last_page: usize,
    pub choice: TransferChoice,
    /// Whether the backend switched this tick.
    pub changed: bool,
}

/// The signal that escalated a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// The coming iteration's announced read volume reached the hint
    /// threshold.
    Announced,
    /// Dense groups dominated the touched ones for [`HYSTERESIS`]
    /// iterations.
    Dense,
}

impl Trigger {
    pub fn name(self) -> &'static str {
        match self {
            Trigger::Announced => "announced",
            Trigger::Dense => "dense",
        }
    }
}

/// Where an escalated region's groups are served from (terminal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Every group prefetches: the region fit its budget.
    Stream,
    /// Every group reads zero-copy: the region did not fit its budget.
    Link,
}

impl Route {
    pub fn name(self) -> &'static str {
        match self {
            Route::Stream => "stream",
            Route::Link => "link",
        }
    }
}

/// A region's terminal routing decision together with its inputs — what
/// the profile's `adaptive_route` instant records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Escalation {
    pub trigger: Trigger,
    pub route: Route,
    /// The region's bytes (whole pages).
    pub region_bytes: u64,
    /// The device bytes the region could claim when it escalated.
    pub budget: u64,
}

/// Device-wide decision mix over every adaptive region, as
/// [`crate::system::MemSystem::adaptive_totals`] sums it: page groups per
/// backend, and regions per terminal route.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveTotals {
    pub demand: u64,
    pub prefetch: u64,
    pub zero_copy: u64,
    /// Regions escalated to [`Route::Stream`].
    pub escalated: u64,
    /// Regions escalated to [`Route::Link`].
    pub linked: u64,
}

/// Adaptive policy state for one unified region.
#[derive(Debug, Clone)]
pub struct AdaptiveRegion {
    /// The region's index in the UM driver (transitions go through it).
    pub um_index: usize,
    n_pages: usize,
    groups: Vec<GroupState>,
    /// Consecutive iterations whose observation was streaming-dominant.
    dense_streak: u32,
    /// Set once, by the tick that escalated the region.
    escalation: Option<Escalation>,
    /// Retired by [`AdaptiveRegion::release`]: claims nothing, routes
    /// nothing.
    released: bool,
}

impl AdaptiveRegion {
    pub fn new(um_index: usize, n_pages: usize) -> Self {
        let n_groups = n_pages.div_ceil(GROUP_PAGES).max(1);
        AdaptiveRegion {
            um_index,
            n_pages,
            groups: vec![GroupState::new(); n_groups],
            dense_streak: 0,
            escalation: None,
            released: false,
        }
    }

    /// Records one sector touch on `page` (called per coalesced sector).
    #[inline]
    pub fn note_sector(&mut self, page: usize) {
        let g = &mut self.groups[page / GROUP_PAGES];
        g.sectors += 1;
        g.page_mask |= 1 << (page % GROUP_PAGES);
    }

    /// The backend currently serving `page`.
    #[inline]
    pub fn choice_for_page(&self, page: usize) -> TransferChoice {
        self.groups[page / GROUP_PAGES].choice
    }

    /// The region's terminal decision and its inputs, once escalated.
    pub fn escalation(&self) -> Option<Escalation> {
        self.escalation
    }

    fn region_bytes(&self) -> u64 {
        self.n_pages as u64 * PAGE_BYTES
    }

    /// First and last (inclusive) page of group `gi`.
    fn group_pages(&self, gi: usize) -> (usize, usize) {
        let first_page = gi * GROUP_PAGES;
        let last_page = (first_page + GROUP_PAGES - 1).min(self.n_pages.saturating_sub(1));
        (first_page, last_page)
    }

    /// Device bytes the region holds by decision: its prefetch-routed
    /// groups' pages (all of them once streamed), nothing once released.
    pub fn claimed_bytes(&self) -> u64 {
        if self.released {
            return 0;
        }
        let groups = self.groups.iter().enumerate();
        let pages = groups
            .filter(|(_, g)| g.choice == TransferChoice::Prefetch)
            .map(|(gi, _)| self.n_pages.min((gi + 1) * GROUP_PAGES) - gi * GROUP_PAGES);
        pages.sum::<usize>() as u64 * PAGE_BYTES
    }

    /// Retires the region (its allocation was released): it drops its
    /// claim, and later ticks route nothing — a released region must not
    /// stream its pages back in.
    pub fn release(&mut self) {
        self.released = true;
    }

    /// Ends an iteration: folds this iteration's counters into each group's
    /// decision (with hysteresis), resets the counters, and returns the
    /// per-group decisions in address order. `upcoming_bytes` is the read
    /// volume the engine announces for the *coming* iteration (its
    /// frontier's out-edges in bytes; `0` when the caller has nothing to
    /// announce) — a volume of at least 1/[`ESCALATE_HINT_DIVISOR`]th of
    /// the region escalates it before the wave, as does a
    /// streaming-dominant observation stable for [`HYSTERESIS`] iterations
    /// (see the module docs). `budget` is the device bytes the region may
    /// claim: an escalation streams only when every page fits it, and
    /// routes the whole region over the link otherwise. A released region
    /// returns no decisions.
    pub fn tick(&mut self, upcoming_bytes: u64, budget: u64) -> Vec<GroupDecision> {
        if self.released {
            return Vec::new();
        }
        // Escalation is terminal: a streamed region's pages are (becoming)
        // resident and demoting a resident group buys nothing; a linked
        // region never fits. Keep emitting the route's decisions so evicted
        // streamed groups heal.
        if self.escalation.is_some() {
            let mut out = Vec::with_capacity(self.groups.len());
            for gi in 0..self.groups.len() {
                let (first_page, last_page) = self.group_pages(gi);
                let g = &mut self.groups[gi];
                g.sectors = 0;
                g.page_mask = 0;
                out.push(GroupDecision {
                    first_page,
                    last_page,
                    choice: g.choice,
                    changed: false,
                });
            }
            return out;
        }
        if upcoming_bytes.saturating_mul(ESCALATE_HINT_DIVISOR) >= self.region_bytes() {
            return self.escalate_now(Trigger::Announced, budget);
        }
        {
            let touched = self.groups.iter().filter(|g| g.page_mask != 0).count();
            let dense = self
                .groups
                .iter()
                .filter(|g| g.page_mask.count_ones() >= DENSE_PAGES)
                .count();
            if dense >= ESCALATE_DENSE_GROUPS && dense * 2 >= touched {
                self.dense_streak += 1;
            } else {
                self.dense_streak = 0;
            }
            if self.dense_streak >= HYSTERESIS {
                return self.escalate_now(Trigger::Dense, budget);
            }
        }
        let mut out = Vec::with_capacity(self.groups.len());
        for gi in 0..self.groups.len() {
            let (first_page, last_page) = self.group_pages(gi);
            let g = &mut self.groups[gi];
            let desired = g.desired();
            if desired == g.target {
                g.streak += 1;
            } else {
                g.target = desired;
                g.streak = 1;
            }
            let changed = g.streak >= HYSTERESIS && g.target != g.choice;
            if changed {
                g.choice = g.target;
            }
            g.sectors = 0;
            g.page_mask = 0;
            out.push(GroupDecision {
                first_page,
                last_page,
                choice: g.choice,
                changed,
            });
        }
        out
    }

    /// Applies escalation: every group switches to the route's backend —
    /// prefetch when the whole region fits `budget`, zero-copy otherwise —
    /// counters and streaks reset, and the decision is recorded (terminal).
    fn escalate_now(&mut self, trigger: Trigger, budget: u64) -> Vec<GroupDecision> {
        let region_bytes = self.region_bytes();
        let (route, choice) = if region_bytes <= budget {
            (Route::Stream, TransferChoice::Prefetch)
        } else {
            (Route::Link, TransferChoice::ZeroCopy)
        };
        self.escalation = Some(Escalation {
            trigger,
            route,
            region_bytes,
            budget,
        });
        let mut out = Vec::with_capacity(self.groups.len());
        for gi in 0..self.groups.len() {
            let (first_page, last_page) = self.group_pages(gi);
            let g = &mut self.groups[gi];
            let changed = g.choice != choice;
            g.choice = choice;
            g.target = choice;
            g.streak = 0;
            g.sectors = 0;
            g.page_mask = 0;
            out.push(GroupDecision {
                first_page,
                last_page,
                choice,
                changed,
            });
        }
        out
    }

    /// Group counts per backend `(demand, prefetch, zero_copy)` — the
    /// observable the transfer report and the property tests read.
    pub fn group_counts(&self) -> (u64, u64, u64) {
        let mut c = (0u64, 0u64, 0u64);
        for g in &self.groups {
            match g.choice {
                TransferChoice::Demand => c.0 += 1,
                TransferChoice::Prefetch => c.1 += 1,
                TransferChoice::ZeroCopy => c.2 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AdaptiveRegion {
        /// Whether the region has escalated to region-wide prefetch.
        fn is_escalated(&self) -> bool {
            self.escalation.is_some_and(|e| e.route == Route::Stream)
        }
    }

    fn touched(r: &mut AdaptiveRegion, page: usize, sectors: u64) {
        for _ in 0..sectors {
            r.note_sector(page);
        }
    }

    #[test]
    fn groups_start_on_demand() {
        let r = AdaptiveRegion::new(0, 64);
        assert_eq!(r.group_counts(), (4, 0, 0));
        assert_eq!(r.choice_for_page(0), TransferChoice::Demand);
    }

    #[test]
    fn dense_group_switches_to_prefetch_after_hysteresis() {
        let mut r = AdaptiveRegion::new(0, 32);
        for round in 0..HYSTERESIS {
            for p in 0..16 {
                touched(&mut r, p, 64); // dense: all 16 pages, heavy reuse
            }
            let d = r.tick(0, u64::MAX);
            if round + 1 < HYSTERESIS {
                assert_eq!(d[0].choice, TransferChoice::Demand, "not yet");
                assert!(!d[0].changed);
            } else {
                assert_eq!(d[0].choice, TransferChoice::Prefetch);
                assert!(d[0].changed);
            }
        }
        // Group 1 was never touched: still demand.
        assert_eq!(r.choice_for_page(20), TransferChoice::Demand);
    }

    #[test]
    fn sparse_group_switches_to_zero_copy() {
        let mut r = AdaptiveRegion::new(0, 16);
        for _ in 0..HYSTERESIS {
            touched(&mut r, 3, 2); // 64 B read off one page
            r.tick(0, u64::MAX);
        }
        assert_eq!(r.choice_for_page(3), TransferChoice::ZeroCopy);
    }

    #[test]
    fn medium_density_stays_demand() {
        let mut r = AdaptiveRegion::new(0, 16);
        for _ in 0..4 {
            // 4 of 16 pages, well above the zero-copy byte threshold.
            for p in 0..4 {
                touched(&mut r, p, 100);
            }
            r.tick(0, u64::MAX);
        }
        assert_eq!(r.choice_for_page(0), TransferChoice::Demand);
    }

    #[test]
    fn one_odd_iteration_does_not_flap() {
        let mut r = AdaptiveRegion::new(0, 16);
        for _ in 0..HYSTERESIS {
            for p in 0..16 {
                touched(&mut r, p, 64);
            }
            r.tick(0, u64::MAX);
        }
        assert_eq!(r.choice_for_page(0), TransferChoice::Prefetch);
        // One sparse iteration: desired flips, choice must not.
        touched(&mut r, 0, 1);
        let d = r.tick(0, u64::MAX);
        assert_eq!(d[0].choice, TransferChoice::Prefetch);
        assert!(!d[0].changed);
    }

    #[test]
    fn untouched_iteration_keeps_choice() {
        let mut r = AdaptiveRegion::new(0, 16);
        for _ in 0..HYSTERESIS {
            for p in 0..16 {
                touched(&mut r, p, 64);
            }
            r.tick(0, u64::MAX);
        }
        for _ in 0..5 {
            r.tick(0, u64::MAX); // silence
        }
        assert_eq!(r.choice_for_page(0), TransferChoice::Prefetch);
    }

    #[test]
    fn streaming_dominant_region_escalates_to_full_prefetch() {
        // 8 groups: dense touches on 6 of them for HYSTERESIS iterations
        // escalate the whole region — including the untouched tail groups.
        let mut r = AdaptiveRegion::new(0, 8 * GROUP_PAGES);
        for round in 0..HYSTERESIS {
            for g in 0..6 {
                for p in 0..DENSE_PAGES as usize {
                    touched(&mut r, g * GROUP_PAGES + p, 8);
                }
            }
            let d = r.tick(0, u64::MAX);
            if round + 1 < HYSTERESIS {
                assert!(!r.is_escalated());
                assert_eq!(d[7].choice, TransferChoice::Demand);
            }
        }
        assert!(r.is_escalated());
        assert_eq!(r.group_counts(), (0, 8, 0), "every group streams");
        assert_eq!(r.choice_for_page(7 * GROUP_PAGES), TransferChoice::Prefetch);
        // Escalation is terminal: a later sparse iteration demotes nothing,
        // and ticks keep emitting prefetch decisions so evicted groups heal.
        touched(&mut r, 0, 1);
        let d = r.tick(0, u64::MAX);
        assert!(d.iter().all(|g| g.choice == TransferChoice::Prefetch));
        assert!(d.iter().all(|g| !g.changed));
    }

    #[test]
    fn announced_wave_escalates_before_it_breaks() {
        // A hint of 1/8th of the region escalates immediately — no touches,
        // no streak: the policy streams *ahead* of the announced wave.
        let mut r = AdaptiveRegion::new(0, 8 * GROUP_PAGES);
        let region_bytes = 8 * GROUP_PAGES as u64 * PAGE_BYTES;
        let d = r.tick(region_bytes / ESCALATE_HINT_DIVISOR, u64::MAX);
        assert!(r.is_escalated());
        assert_eq!(r.group_counts(), (0, 8, 0));
        assert!(d.iter().all(|g| g.choice == TransferChoice::Prefetch));
        assert!(d.iter().all(|g| g.changed));
    }

    #[test]
    fn small_announcements_do_not_escalate() {
        // A sparse traversal's frontier (a few hundred edges) never reaches
        // the hint threshold; the per-group policy stays in charge.
        let mut r = AdaptiveRegion::new(0, 8 * GROUP_PAGES);
        let region_bytes = 8 * GROUP_PAGES as u64 * PAGE_BYTES;
        for _ in 0..6 {
            touched(&mut r, 3, 2);
            r.tick(region_bytes / ESCALATE_HINT_DIVISOR - 1, u64::MAX);
        }
        assert!(!r.is_escalated());
        assert_eq!(r.choice_for_page(3), TransferChoice::ZeroCopy);
    }

    #[test]
    fn sparse_touches_do_not_escalate() {
        let mut r = AdaptiveRegion::new(0, 8 * GROUP_PAGES);
        for _ in 0..6 {
            // A couple of sectors on a couple of groups: never dense.
            touched(&mut r, 0, 2);
            touched(&mut r, 3 * GROUP_PAGES, 2);
            r.tick(0, u64::MAX);
        }
        assert!(!r.is_escalated());
        assert_eq!(r.choice_for_page(7 * GROUP_PAGES), TransferChoice::Demand);
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut r = AdaptiveRegion::new(0, 64);
            for i in 0..6 {
                for p in 0..(8 + i * 7) {
                    touched(&mut r, p % 64, 3 + (p as u64 % 5));
                }
                r.tick(0, u64::MAX);
            }
            let d = r.tick(0, u64::MAX);
            d.iter().map(|g| g.choice).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_region_over_its_budget_never_streams() {
        let region_bytes = 8 * GROUP_PAGES as u64 * PAGE_BYTES;
        // Announced wave: one byte short of the region, the whole region
        // reads over the link instead.
        let mut r = AdaptiveRegion::new(0, 8 * GROUP_PAGES);
        let d = r.tick(region_bytes / ESCALATE_HINT_DIVISOR, region_bytes - 1);
        assert!(d
            .iter()
            .all(|g| g.choice == TransferChoice::ZeroCopy && g.changed));
        assert_eq!(r.group_counts(), (0, 0, 8));
        assert_eq!(
            r.escalation(),
            Some(Escalation {
                trigger: Trigger::Announced,
                route: Route::Link,
                region_bytes,
                budget: region_bytes - 1,
            })
        );
        // Dense streak: the same refusal.
        let mut r = AdaptiveRegion::new(0, 8 * GROUP_PAGES);
        for _ in 0..HYSTERESIS {
            for g in 0..6 {
                for p in 0..DENSE_PAGES as usize {
                    touched(&mut r, g * GROUP_PAGES + p, 8);
                }
            }
            r.tick(0, GROUP_PAGES as u64 * PAGE_BYTES);
        }
        assert_eq!(r.escalation().map(|e| e.route), Some(Route::Link));
        assert_eq!(r.escalation().map(|e| e.trigger), Some(Trigger::Dense));
        assert!(!r.is_escalated());
        assert_eq!(r.claimed_bytes(), 0, "a linked region claims nothing");
        // Terminal: neither a later roomy budget nor another wave streams it.
        for _ in 0..3 {
            let d = r.tick(region_bytes, u64::MAX);
            assert!(d
                .iter()
                .all(|g| g.choice == TransferChoice::ZeroCopy && !g.changed));
        }
        assert_eq!(r.group_counts(), (0, 0, 8));
    }

    #[test]
    fn two_regions_that_fit_alone_but_not_together_stream_the_first() {
        use crate::system::tests::system;
        let pages = 4 * GROUP_PAGES as u64;
        let region_bytes = pages * PAGE_BYTES;
        let mut m = system(region_bytes * 3 / 2);
        let a = m.alloc_unified(pages * PAGE_BYTES / 4);
        let b = m.alloc_unified(pages * PAGE_BYTES / 4);
        m.enable_adaptive(a);
        m.enable_adaptive(b);
        let end = m.adaptive_tick(0, region_bytes);
        assert!(end > 0, "the first region streams");
        let totals = m.adaptive_totals().unwrap();
        assert_eq!((totals.escalated, totals.linked), (1, 1));
        assert_eq!(m.um.region(0).resident_pages(), pages as usize);
        assert_eq!(m.um.region(1).resident_pages(), 0);
        // The streamed region keeps its claim while it lives; released, a
        // region placed after it fits again.
        m.release(a);
        let c = m.alloc_unified(pages * PAGE_BYTES / 4);
        m.enable_adaptive(c);
        m.adaptive_tick(end, region_bytes);
        let totals = m.adaptive_totals().unwrap();
        assert_eq!((totals.escalated, totals.linked), (2, 1));
        assert_eq!(m.um.region(0).resident_pages(), 0, "never streamed back");
        assert_eq!(m.um.region(2).resident_pages(), pages as usize);
    }

    #[test]
    fn a_budget_that_fits_decides_exactly_like_no_budget() {
        use crate::test_rng::Rng;
        let mut streamed = 0;
        for seed in 0..64u64 {
            let n_pages = 3 * GROUP_PAGES + seed as usize % GROUP_PAGES;
            let region_bytes = n_pages as u64 * PAGE_BYTES;
            let (mut free, mut fitted) = (
                AdaptiveRegion::new(0, n_pages),
                AdaptiveRegion::new(0, n_pages),
            );
            let mut rng = Rng(seed);
            for _ in 0..12 {
                for _ in 0..rng.below(200) {
                    let page = rng.below(n_pages);
                    let sectors = 1 + rng.below(40) as u64;
                    touched(&mut free, page, sectors);
                    touched(&mut fitted, page, sectors);
                }
                let upcoming = match rng.below(8) {
                    0 => region_bytes / ESCALATE_HINT_DIVISOR,
                    _ => rng.below(256) as u64,
                };
                let budget = region_bytes + rng.below(2) as u64 * rng.below(1 << 20) as u64;
                assert_eq!(
                    free.tick(upcoming, u64::MAX),
                    fitted.tick(upcoming, budget),
                    "seed {seed}"
                );
            }
            assert_eq!(
                free.escalation().map(|e| e.route),
                fitted.escalation().map(|e| e.route)
            );
            streamed += usize::from(fitted.is_escalated());
        }
        assert!(streamed > 0, "the stream escalated some regions");
    }

    #[test]
    fn short_tail_group_bounds() {
        let mut r = AdaptiveRegion::new(0, 20); // 16 + 4 pages
        assert_eq!(r.group_counts(), (2, 0, 0));
        let d = r.tick(0, u64::MAX);
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].first_page, d[0].last_page), (0, 15));
        assert_eq!((d[1].first_page, d[1].last_page), (16, 19));
    }
}
