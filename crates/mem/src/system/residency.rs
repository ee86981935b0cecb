//! Residency and routing, by placement: explicit regions are resident,
//! paged regions fault pages in, adaptive regions route each sector by
//! their own policy, zero-copy regions route every sector over the link.

use super::{DSlice, MemSystem, Placed, Region, RegionId};
use crate::adaptive::{AdaptiveRegion, GroupDecision, TransferChoice};
use crate::timeline::SpanKind;
use crate::um::{UmRegion, PAGE_WORDS};
use crate::Ns;
use eta_fault::{DeviceFault, FaultKind};
use eta_prof::Track;

/// The page of a region starting at `start_word` that holds `sector`.
#[inline]
fn page_of(start_word: u64, sector: u64) -> usize {
    ((sector * 8).saturating_sub(start_word) / PAGE_WORDS) as usize
}

/// Whether an adaptive region serves `page` over the link. Only
/// non-resident pages of a zero-copy group do: pages migrated before the
/// group switched keep serving locally until evicted.
#[inline]
fn crosses_link(policy: &AdaptiveRegion, pages: &UmRegion, page: usize) -> bool {
    policy.choice_for_page(page) == TransferChoice::ZeroCopy && !pages.page_resident(page)
}

impl MemSystem {
    // ---- adaptive transfer policy ----------------------------------------

    /// Puts a unified region under the adaptive transfer policy: its page
    /// groups start on demand paging and migrate between demand, prefetch
    /// and zero-copy as [`MemSystem::adaptive_tick`] observes their access
    /// density. No-op for explicit and zero-copy regions.
    pub fn enable_adaptive(&mut self, slice: DSlice) {
        let r = &mut self.regions[slice.region];
        if let Placed::Paged { um_index, .. } = r.placed {
            let n_pages = self.um.region(um_index).n_pages();
            r.placed = Placed::Adaptive(AdaptiveRegion::new(um_index, n_pages));
        }
    }

    /// Device-wide adaptive totals `(demand, prefetch, zero_copy,
    /// escalated_regions)` summed over every adaptive region; `None` when
    /// the policy is not in use (the transfer report's decision mix).
    pub fn adaptive_totals(&self) -> Option<(u64, u64, u64, u64)> {
        let policies = self.regions.iter().filter_map(|r| match &r.placed {
            Placed::Adaptive(policy) => Some(policy),
            _ => None,
        });
        policies
            .map(|p| {
                let (d, pf, z) = p.group_counts();
                (d, pf, z, u64::from(p.is_escalated()))
            })
            .reduce(|a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3))
    }

    /// Iteration boundary for the adaptive policy: folds this iteration's
    /// density observations into per-group backend decisions (with
    /// hysteresis) and applies the transitions — prefetch groups are
    /// (re)streamed, zero-copy groups simply stop acquiring residency (their
    /// already-migrated pages keep serving locally until the LRU reclaims
    /// them). Regions are walked in id order. `upcoming_bytes` is the
    /// engine's announcement of the coming iteration's read volume (its
    /// frontier's out-edges in bytes, `0` when unknown) — a large
    /// announcement escalates regions to streaming before the wave (see
    /// [`crate::adaptive`]). Returns the completion time of the latest
    /// transfer issued, `now` when nothing moved. With no adaptive regions
    /// this is a no-op, byte-identical to not calling it.
    pub fn adaptive_tick(&mut self, now: Ns, upcoming_bytes: u64) -> Ns {
        let budget = self.free_bytes();
        let mut end = now;
        // Decisions are collected first: applying them borrows `self.um`
        // and `self.pcie`, which the region walk would otherwise pin.
        let ticked: Vec<(usize, Vec<GroupDecision>)> = self
            .regions
            .iter_mut()
            .filter_map(|r| match &mut r.placed {
                Placed::Adaptive(policy) => Some((policy.um_index, policy.tick(upcoming_bytes))),
                _ => None,
            })
            .collect();
        for (um_index, decisions) in ticked {
            // Adjacent prefetch groups coalesce into maximal page runs, so
            // an escalated region streams like `cudaMemPrefetchAsync`
            // (2 MiB chunks) instead of one transfer per 64 KiB group.
            // Demand and zero-copy decisions need no device work: demand
            // groups fault as before, zero-copy groups stop acquiring
            // residency from here on.
            let mut runs: Vec<(usize, usize)> = Vec::new();
            for d in decisions {
                if d.choice == TransferChoice::Prefetch {
                    match runs.last_mut() {
                        Some((_, last)) if *last + 1 == d.first_page => *last = d.last_page,
                        _ => runs.push((d.first_page, d.last_page)),
                    }
                }
            }
            for (first_page, last_page) in runs {
                // Called every tick: a fully resident run costs nothing
                // (no span), an evicted group inside it is healed.
                let mark = self.pcie.timeline.spans().len();
                let e = self.um.prefetch_range(
                    um_index,
                    first_page,
                    last_page,
                    now,
                    budget,
                    &mut self.pcie,
                );
                self.prof_link_spans(mark);
                end = end.max(e);
            }
        }
        end
    }

    /// Records one kernel launch's aggregate zero-copy traffic as a
    /// [`SpanKind::ZeroCopyRead`] span on the link: zero-copy reads are not
    /// free bandwidth — they occupy the same interconnect as migrations, at
    /// full wire rate (no pageable staging, no fault service). Returns the
    /// span's end time; `now` when no bytes moved.
    pub fn charge_zero_copy(&mut self, bytes: u64, now: Ns) -> Ns {
        if bytes == 0 {
            return now;
        }
        let mark = self.pcie.timeline.spans().len();
        let (_, end) = self.pcie.transfer(SpanKind::ZeroCopyRead, bytes, now);
        self.prof_link_spans(mark);
        end
    }

    /// `cudaMemPrefetchAsync` analog: streams a region placed under
    /// [`super::TransferMode::UnifiedPrefetch`]; a no-op returning `now` for
    /// every other placement.
    pub fn prefetch(&mut self, slice: DSlice, now: Ns) -> Ns {
        let Placed::Paged {
            um_index,
            prefetch: true,
        } = self.regions[slice.region].placed
        else {
            return now;
        };
        let budget = self.free_bytes();
        let mark = self.pcie.timeline.spans().len();
        let end = self.um.prefetch(um_index, now, budget, &mut self.pcie);
        self.prof_link_spans(mark);
        end
    }

    // ---- kernel access path ------------------------------------------------

    /// [`MemSystem::resolve_access`] for a caller that keeps no flags.
    pub fn ensure_resident(&mut self, region: RegionId, sectors: &[u64], now: Ns) -> Ns {
        self.resolve_access(region, sectors, now, &mut vec![false; sectors.len()])
    }

    /// The serial residency stage of the staged launch pipeline (see
    /// [`crate::access`]): brings in what one access needs, returning the
    /// latest data arrival (`now` when all resident), then flags each sector
    /// zero-copy or cache-bound in `zc` and counts 32 B per flagged sector
    /// in [`MemSystem::zero_copy_bytes`], which the launch charges to the
    /// link — so a sector charged to the link is a sector routed to it, even
    /// when this access's own fault batch migrated its page. The flags are
    /// set here, between this access's residency and the next one's, because
    /// the adaptive policy's choices evolve access by access.
    pub fn resolve_access(
        &mut self,
        region: RegionId,
        sectors: &[u64],
        now: Ns,
        zc: &mut [bool],
    ) -> Ns {
        let arrival = self.touch(region, sectors, now);
        let r = &self.regions[region];
        let routed = match &r.placed {
            Placed::Explicit | Placed::Paged { .. } => 0,
            Placed::ZeroCopy => {
                let n = zc.len().min(sectors.len());
                zc[..n].fill(true);
                n as u64
            }
            Placed::Adaptive(policy) => {
                let pages = self.um.region(policy.um_index);
                let mut n = 0u64;
                for (flag, &s) in zc.iter_mut().zip(sectors) {
                    *flag = crosses_link(policy, pages, page_of(r.start_word, s));
                    n += u64::from(*flag);
                }
                n
            }
        };
        self.zero_copy_bytes += routed * 32;
        arrival
    }

    /// Migrates the UM pages the access's (sorted, unique) sectors need.
    /// An adaptive region notes every sector with its density estimator and
    /// skips migration for the sectors it routes over the link.
    fn touch(&mut self, region: RegionId, sectors: &[u64], now: Ns) -> Ns {
        let budget = self.free_bytes();
        let Region {
            start_word, placed, ..
        } = &mut self.regions[region];
        let pages = &mut self.page_scratch;
        pages.clear();
        let um_index = match placed {
            Placed::Explicit | Placed::ZeroCopy => return now,
            Placed::Paged { um_index, .. } => {
                pages.extend(sectors.iter().map(|&s| page_of(*start_word, s)));
                *um_index
            }
            Placed::Adaptive(policy) => {
                let um_region = self.um.region(policy.um_index);
                let mut routed = false;
                for &s in sectors {
                    let p = page_of(*start_word, s);
                    policy.note_sector(p);
                    if crosses_link(policy, um_region, p) {
                        routed = true;
                    } else {
                        pages.push(p);
                    }
                }
                if routed && pages.is_empty() {
                    // Whole access served zero-copy: no residency work.
                    return now;
                }
                policy.um_index
            }
        };
        pages.dedup();
        let mark = self.pcie.timeline.spans().len();
        let mut end = self
            .um
            .touch_pages(um_index, pages, now, budget, &mut self.pcie);
        self.prof_link_spans(mark);
        // Fault injection applies to *demand* migrations only (a prefetch
        // is driver-paced and retries internally). A touch that migrated
        // nothing stays untouched, so the no-fault timing path is
        // byte-identical.
        if self.faults.active
            && self.pcie.timeline.spans()[mark..]
                .iter()
                .any(|s| s.kind == SpanKind::Migration)
        {
            let extra = self.faults.storm_extra(now);
            if extra > 0 {
                self.faults.counters.storms += 1;
                end += extra;
                self.prof.instant(
                    Track::Fault,
                    "um_storm",
                    end,
                    vec![("extra_ns", extra.into())],
                );
            }
            if self.faults.migration_fail(now).is_some() && !self.faults.has_pending() {
                self.faults.counters.um_failures += 1;
                let device = self.faults.device();
                self.faults.set_pending(DeviceFault {
                    kind: FaultKind::UmMigrationFail,
                    device,
                    at_ns: end,
                });
                self.prof.instant(
                    Track::Fault,
                    "um_migration_fail",
                    end,
                    vec![("device", device.into())],
                );
            }
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use crate::adaptive::HYSTERESIS;
    use crate::system::tests::system;
    use crate::system::{MemSystem, TransferMode};
    use crate::timeline::SpanKind;
    use crate::um::{PAGE_BYTES, PAGE_WORDS};

    /// Resolves one access and returns its arrival and routing flags.
    fn resolve(m: &mut MemSystem, region: usize, sectors: &[u64], now: u64) -> (u64, Vec<bool>) {
        let mut zc = vec![false; sectors.len()];
        let t = m.resolve_access(region, sectors, now, &mut zc);
        (t, zc)
    }

    #[test]
    fn ensure_resident_faults_unified_pages_once() {
        let mut m = system(1 << 24);
        let a = m.alloc_unified(PAGE_BYTES / 4 * 8); // 8 pages
        let sector0 = a.word_off / 8;
        let t1 = m.ensure_resident(a.region, &[sector0], 0);
        assert!(t1 > 0);
        let t2 = m.ensure_resident(a.region, &[sector0], t1);
        assert_eq!(t2, t1, "resident page returns its arrival time");
    }

    #[test]
    fn empty_unified_region_prefetches_and_retires_as_a_noop() {
        // Regression: `prefetch` computed `n_pages - 1` on zero pages.
        let mut m = system(1 << 20);
        let a = m.alloc(0, TransferMode::UnifiedPrefetch);
        assert_eq!(m.prefetch(a, 42), 42);
        m.enable_adaptive(a);
        assert_eq!(m.adaptive_tick(42, 1 << 20), 42);
        m.release(a);
        assert!(m.pcie.timeline.spans().is_empty());
        m.um.check_invariants();
    }

    #[test]
    fn explicit_regions_never_fault() {
        let mut m = system(1 << 20);
        let a = m.alloc_explicit(1024).unwrap();
        let t = m.ensure_resident(a.region, &[a.word_off / 8], 123);
        assert_eq!(t, 123);
        assert_eq!(m.um.stats.faults, 0);
    }

    #[test]
    fn zero_copy_counts_traffic() {
        let mut m = system(1 << 20);
        let a = m.alloc(1024, TransferMode::ZeroCopy);
        let (t, zc) = resolve(&mut m, a.region, &[a.word_off / 8, a.word_off / 8 + 1], 5);
        assert_eq!(t, 5);
        assert_eq!(zc, [true, true]);
        assert_eq!(m.zero_copy_bytes, 64);
    }

    #[test]
    fn charge_zero_copy_records_a_link_span() {
        let mut m = system(1 << 20);
        m.prof.set_enabled(true);
        let end = m.charge_zero_copy(12_000, 0);
        assert!(end > 0, "zero-copy traffic occupies the link");
        let spans = m.pcie.timeline.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::ZeroCopyRead);
        assert_eq!(spans[0].bytes, 12_000);
        // Mirrored 1:1 into the profiler like every other link span.
        assert_eq!(m.prof.len(), 1);
        assert_eq!(m.prof.events()[0].name, "zero_copy_read");
        // Zero bytes: no span, no time.
        assert_eq!(m.charge_zero_copy(0, end), end);
        assert_eq!(m.pcie.timeline.spans().len(), 1);
    }

    #[test]
    fn without_adaptive_regions_the_tick_is_inert() {
        let mut m = system(1 << 24);
        let a = m.alloc_unified(PAGE_BYTES / 4 * 64);
        let t = m.ensure_resident(a.region, &[a.word_off / 8], 0);
        assert_eq!(m.mode(a.region), TransferMode::Unified);
        assert_eq!(m.adaptive_tick(t, 0), t, "no adaptive regions: no-op");
        assert_eq!(m.adaptive_totals(), None);
        assert_eq!(m.zero_copy_bytes, 0);
    }

    #[test]
    fn adaptive_sparse_group_goes_zero_copy() {
        let mut m = system(1 << 24);
        let a = m.alloc_unified(PAGE_BYTES / 4 * 64);
        m.enable_adaptive(a);
        assert_eq!(m.mode(a.region), TransferMode::Adaptive);
        let s0 = a.word_off / 8; // one sector of page 0, every iteration
        let mut now = 0;
        for _ in 0..HYSTERESIS {
            now = m.ensure_resident(a.region, &[s0], now);
            now = m.adaptive_tick(now, 0);
        }
        assert_eq!(m.adaptive_totals(), Some((3, 0, 1, 0)));
        // Page 0 was migrated during the demand phase and stays resident:
        // it keeps serving locally even though its group went zero-copy.
        let (_, zc) = resolve(&mut m, a.region, &[s0], now);
        assert_eq!(zc, [false]);
        // A cold page of the same group routes zero-copy: no migration,
        // no new residency, traffic counted.
        // Page 15 (same 16-page group): outside page 0's 8-page fault batch.
        let s1 = s0 + 15 * (PAGE_BYTES / 32);
        let resident_before = m.um.resident_bytes();
        let zc_before = m.zero_copy_bytes;
        let (t, zc) = resolve(&mut m, a.region, &[s1], now);
        assert_eq!(t, now);
        assert_eq!(zc, [true]);
        assert_eq!(m.um.resident_bytes(), resident_before);
        assert_eq!(m.zero_copy_bytes, zc_before + 32);
    }

    #[test]
    fn adaptive_dense_group_gets_prefetched() {
        let mut m = system(1 << 24);
        let a = m.alloc_unified(PAGE_BYTES / 4 * 32);
        m.enable_adaptive(a);
        // Touch 12 distinct pages of group 0 (dense) for HYSTERESIS rounds.
        let sectors: Vec<u64> = (0..12).map(|p| a.word_off / 8 + p * 128).collect();
        let mut now = 0;
        for _ in 0..HYSTERESIS {
            now = m.ensure_resident(a.region, &sectors, now);
            now = m.adaptive_tick(now, 0);
        }
        let (_, prefetch_groups, _, escalated) = m.adaptive_totals().unwrap();
        assert_eq!(prefetch_groups, 1, "dense group promoted to prefetch");
        assert_eq!(escalated, 0);
        // The group is fully resident: 16 pages of group 0 (+ nothing else —
        // group 1 was never touched and stays on demand).
        assert_eq!(m.um.region(0).resident_pages(), 16);
        let (_, zc) = resolve(&mut m, a.region, &sectors[..1], now);
        assert_eq!(zc, [false]);
    }

    #[test]
    fn a_sector_charged_to_the_link_is_a_sector_routed_to_it() {
        // Residency runs before routing, and a demand fault batch grows to
        // as much as 1 MiB on a streaming streak: rounding into a
        // neighbouring zero-copy group, it migrates a page that, before the
        // touch, would have crossed the link. That sector is then served
        // through the caches, so it must not also be charged to the link.
        let mut m = system(1 << 24);
        let a = m.alloc_unified(64 * PAGE_WORDS); // page groups 0..4
        m.enable_adaptive(a);
        let sector = |page: u64| a.word_off / 8 + page * (PAGE_WORDS / 8);
        // Group 3 (pages 48..64) goes zero-copy on one sector a round of its
        // last page; that first touch migrates pages 56..64 on demand.
        let mut now = 0;
        for _ in 0..HYSTERESIS {
            now = m.ensure_resident(a.region, &[sector(63)], now);
            now = m.adaptive_tick(now, 0);
        }
        assert_eq!(m.adaptive_totals(), Some((3, 0, 1, 0)));
        // A streaming streak doubles the fault batch: 8, 16, then 32 pages.
        for page in [0, 8, 16] {
            now = m.ensure_resident(a.region, &[sector(page)], now);
        }
        assert!(!m.um.region(0).page_resident(50));
        // Page 32's batch (64 pages now) rounds out over the cold pages of
        // group 3 up to the resident page 56, page 50 included.
        let before = m.zero_copy_bytes;
        let (_, zc) = resolve(&mut m, a.region, &[sector(32), sector(50)], now);
        assert!(m.um.region(0).page_resident(50));
        assert_eq!(zc, [false, false], "page 50 arrived with the batch");
        let flagged = zc.iter().filter(|&&f| f).count() as u64;
        assert_eq!(m.zero_copy_bytes - before, 32 * flagged);
    }

    #[test]
    fn prefetch_streams_only_a_prefetch_placement() {
        for mode in crate::system::tests::MODES {
            let mut m = system(1 << 24);
            let (a, _) = m.place(&[1; 4 * PAGE_WORDS as usize], mode, 0).unwrap();
            let moved = m.pcie.bytes_moved();
            assert_eq!(
                m.prefetch(a, 77) > 77,
                mode == TransferMode::UnifiedPrefetch
            );
            assert_eq!(
                m.pcie.bytes_moved() > moved,
                mode == TransferMode::UnifiedPrefetch,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn profiler_mirrors_every_timed_transfer() {
        let mut m = system(1 << 24);
        m.prof.set_enabled(true);
        let a = m.alloc_explicit(1024).unwrap();
        m.copy_h2d(a, 0, &vec![1u32; 1024], 0);
        m.copy_d2h(a, 1024, 5_000);
        let u = m.alloc(PAGE_BYTES / 4 * 100, TransferMode::UnifiedPrefetch);
        m.prefetch(u, 10_000);
        m.ensure_resident(u.region, &[u.word_off / 8], 20_000);
        let names: Vec<&str> = m.prof.events().iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"copy_h2d"));
        assert!(names.contains(&"copy_d2h"));
        assert!(names.contains(&"um_prefetch"));
        // The touched page was already prefetched, so no migration event —
        // but every recorded event matches a link span one-to-one.
        assert_eq!(m.prof.len(), m.pcie.timeline.spans().len());
        let h2d = m
            .prof
            .events()
            .iter()
            .find(|e| e.name == "copy_h2d")
            .unwrap();
        assert_eq!(h2d.track, eta_prof::Track::Transfer);
        assert!(h2d
            .args
            .iter()
            .any(|(k, v)| *k == "bytes" && matches!(v, eta_prof::ArgValue::U64(4096))));
        let pf = m
            .prof
            .events()
            .iter()
            .find(|e| e.name == "um_prefetch")
            .unwrap();
        assert_eq!(pf.track, eta_prof::Track::Um);
        assert!(pf.args.iter().any(|(k, _)| *k == "pages"));
    }

    #[test]
    fn um_migration_fail_window_sets_a_pending_fault() {
        use eta_fault::{FaultPlan, UmFault, UmFaultKind};
        let mut m = system(1 << 24);
        let mut plan = FaultPlan::default();
        plan.um.push(UmFault {
            device: 0,
            start_ns: 0,
            end_ns: u64::MAX,
            kind: UmFaultKind::MigrationFail,
            extra_ns: 0,
        });
        m.install_faults(&plan, 0);
        let a = m.alloc_unified(PAGE_BYTES / 4 * 8);
        let end = m.ensure_resident(a.region, &[a.word_off / 8], 0);
        let fault = m.faults.take_pending().expect("demand migration failed");
        assert_eq!(fault.kind, eta_fault::FaultKind::UmMigrationFail);
        assert_eq!(fault.at_ns, end);
        assert_eq!(m.faults.counters.um_failures, 1);
        // Resident re-touch migrates nothing: no new fault.
        m.ensure_resident(a.region, &[a.word_off / 8], end);
        assert!(m.faults.take_pending().is_none());
    }

    #[test]
    fn um_storm_window_slows_demand_migration() {
        use eta_fault::{FaultPlan, UmFault, UmFaultKind};
        let mut baseline = system(1 << 24);
        let a = baseline.alloc_unified(PAGE_BYTES / 4 * 8);
        let clean_end = baseline.ensure_resident(a.region, &[a.word_off / 8], 0);

        let mut m = system(1 << 24);
        let mut plan = FaultPlan::default();
        plan.um.push(UmFault {
            device: 0,
            start_ns: 0,
            end_ns: u64::MAX,
            kind: UmFaultKind::Storm,
            extra_ns: 1234,
        });
        m.install_faults(&plan, 0);
        let b = m.alloc_unified(PAGE_BYTES / 4 * 8);
        let end = m.ensure_resident(b.region, &[b.word_off / 8], 0);
        assert_eq!(end, clean_end + 1234);
        assert_eq!(m.faults.counters.storms, 1);
        assert!(m.faults.take_pending().is_none(), "storms slow, not fail");
    }

    #[test]
    fn installing_an_empty_plan_changes_nothing() {
        let mut clean = system(1 << 24);
        let a = clean.alloc_unified(PAGE_BYTES / 4 * 8);
        let t_clean = clean.ensure_resident(a.region, &[a.word_off / 8], 0);

        let mut m = system(1 << 24);
        m.install_faults(&eta_fault::FaultPlan::default(), 0);
        assert!(!m.faults.active);
        let b = m.alloc_unified(PAGE_BYTES / 4 * 8);
        let t = m.ensure_resident(b.region, &[b.word_off / 8], 0);
        assert_eq!(t, t_clean);
        assert_eq!(
            m.pcie.timeline.spans(),
            clean.pcie.timeline.spans(),
            "empty plan: identical link timeline"
        );
    }

    #[test]
    fn prefetch_unified_makes_pages_resident() {
        let mut m = system(1 << 24);
        let a = m.alloc(PAGE_BYTES / 4 * 100, TransferMode::UnifiedPrefetch);
        let end = m.prefetch(a, 0);
        assert!(end > 0);
        // Subsequent access should not fault.
        let faults_before = m.um.stats.faults;
        m.ensure_resident(a.region, &[a.word_off / 8 + 80], end);
        assert_eq!(m.um.stats.faults, faults_before);
    }
}
