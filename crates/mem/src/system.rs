//! The device-visible memory system: one word-addressed address space with
//! explicit, unified and zero-copy regions, plus the PCIe link and UM driver.
//!
//! Frameworks allocate through this facade; an explicit allocation that does
//! not fit in device memory fails with [`MemError::Oom`], which is how the
//! O.O.M entries of the paper's Table III are reproduced (each baseline's
//! *actual* footprint is allocated, not estimated). Unified allocations are
//! host-backed and never fail; their device residency is managed by
//! [`crate::um::UmDriver`].

use crate::adaptive::{AdaptiveRegion, GroupDecision, TransferChoice};
use crate::pcie::PcieLink;
use crate::timeline::{Span, SpanKind};
use crate::um::{UmDriver, UmRegion, PAGE_BYTES, PAGE_WORDS};
use crate::Ns;
use eta_fault::{DeviceFault, DeviceFaultState, FaultKind, FaultPlan};
use eta_prof::{ArgValue, Profiler, Track};
use std::collections::BTreeMap;

/// How a region behaves with respect to device residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// `cudaMalloc`-style: always resident, counts against capacity.
    Explicit,
    /// CUDA Unified Memory: host-backed, pages migrate on demand.
    Unified { um_index: usize },
    /// Pinned host memory mapped into the device: never resident, every
    /// access crosses the interconnect.
    ZeroCopy,
}

/// Identifies a region within a [`MemSystem`].
pub type RegionId = usize;

/// A typed (u32-element) device slice: the simulator's pointer type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DSlice {
    pub region: RegionId,
    /// Global word offset of element 0.
    pub word_off: u64,
    /// Length in words.
    pub len: u64,
}

impl DSlice {
    /// Global word address of element `idx`.
    ///
    /// Always bounds-checked: a kernel indexing past its slice is a bug in
    /// the kernel's capacity math, and silently writing into the neighboring
    /// device allocation (what real out-of-bounds global accesses do) would
    /// corrupt results with no diagnostic. The check is one compare on a
    /// path that already does cache simulation per access.
    #[inline]
    pub fn addr(&self, idx: u64) -> u64 {
        assert!(
            idx < self.len,
            "device slice index {idx} out of bounds (len {})",
            self.len
        );
        self.word_off + idx
    }

    /// A sub-slice covering `start..start+len` elements.
    pub fn slice(&self, start: u64, len: u64) -> DSlice {
        assert!(start + len <= self.len, "sub-slice out of bounds");
        DSlice {
            region: self.region,
            word_off: self.word_off + start,
            len,
        }
    }

    pub fn bytes(&self) -> u64 {
        self.len * 4
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Device memory exhausted (the paper's "O.O.M").
    Oom {
        requested_bytes: u64,
        free_bytes: u64,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Oom {
                requested_bytes,
                free_bytes,
            } => write!(
                f,
                "out of device memory: requested {requested_bytes} B, {free_bytes} B free"
            ),
        }
    }
}

impl std::error::Error for MemError {}

#[derive(Debug, Clone)]
struct Region {
    kind: RegionKind,
    start_word: u64,
    len_words: u64,
}

/// Per-word initialization bitmap: the memcheck shadow state.
///
/// One bit per device word, grown lazily. A word becomes initialized when
/// the host writes it (`host_write`/`host_fill`/`copy_h2d`) or a kernel
/// stores to it (`set_word`); allocation alone does not initialize — the
/// backing `Vec` is zeroed, but reading that zero is exactly the bug class
/// `compute-sanitizer --tool initcheck` exists to catch.
#[derive(Debug, Default)]
struct InitShadow {
    bits: Vec<u64>,
}

impl InitShadow {
    #[inline]
    fn mark(&mut self, addr: u64) {
        let w = (addr / 64) as usize;
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        self.bits[w] |= 1 << (addr % 64);
    }

    fn mark_range(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = start + len - 1;
        let last_word = (end / 64) as usize;
        if last_word >= self.bits.len() {
            self.bits.resize(last_word + 1, 0);
        }
        for addr in start..=end {
            self.bits[(addr / 64) as usize] |= 1 << (addr % 64);
        }
    }

    #[inline]
    fn is_init(&self, addr: u64) -> bool {
        let w = (addr / 64) as usize;
        w < self.bits.len() && (self.bits[w] >> (addr % 64)) & 1 == 1
    }
}

/// The device memory system.
#[derive(Debug)]
pub struct MemSystem {
    /// Backing store for every region (host and device see the same values;
    /// only *residency* is simulated).
    words: Vec<u32>,
    capacity_bytes: u64,
    explicit_used: u64,
    regions: Vec<Region>,
    pub pcie: PcieLink,
    pub um: UmDriver,
    /// Bytes accessed through zero-copy regions or adaptive zero-copy page
    /// groups (always cross the link).
    pub zero_copy_bytes: u64,
    /// Per-region adaptive transfer policy state; empty unless
    /// [`MemSystem::enable_adaptive`] was called, in which case unified
    /// accesses are partitioned between demand paging and zero-copy per
    /// page group. A `BTreeMap` so every policy walk is in region order —
    /// decisions must be deterministic.
    adaptive: BTreeMap<RegionId, AdaptiveRegion>,
    /// Scratch: the page indices of the warp access being resolved.
    page_scratch: Vec<usize>,
    /// Memcheck shadow state; `None` unless a sanitizer enabled it.
    shadow: Option<InitShadow>,
    /// Event recorder shared by every layer above (disabled by default —
    /// `eta_sim::Device` enables it when its config asks for profiling).
    pub prof: Profiler,
    /// Fault-injection state (inert by default; see
    /// [`MemSystem::install_faults`] and eta-fault).
    pub faults: DeviceFaultState,
}

impl MemSystem {
    pub fn new(capacity_bytes: u64, pcie: PcieLink) -> Self {
        MemSystem {
            words: Vec::new(),
            capacity_bytes,
            explicit_used: 0,
            regions: Vec::new(),
            pcie,
            um: UmDriver::new(),
            zero_copy_bytes: 0,
            adaptive: BTreeMap::new(),
            page_scratch: Vec::new(),
            shadow: None,
            prof: Profiler::off(),
            faults: DeviceFaultState::default(),
        }
    }

    /// Installs `plan`'s faults for device `device`: the per-device slice of
    /// ECC/UM/hang events lands in [`MemSystem::faults`], PCIe degradation
    /// windows install directly on the link. Installing an empty plan leaves
    /// every timing byte-identical to never having called this.
    pub fn install_faults(&mut self, plan: &FaultPlan, device: u32) {
        self.faults = DeviceFaultState::from_plan(plan, device);
        self.pcie.set_slowdowns(plan.pcie_windows(device));
    }

    /// Mirrors the link spans recorded since `mark` into the profiler. The
    /// PCIe timeline already has exactly the event granularity we want (one
    /// span per copy, per fault-group migration batch, per prefetch chunk,
    /// per eviction), so it is the single source of truth: diffing it here
    /// instruments every transfer path without touching `UmDriver`.
    fn prof_link_spans(&mut self, mark: usize) {
        if !self.prof.is_enabled() {
            return;
        }
        let spans: Vec<Span> = self.pcie.timeline.spans()[mark..].to_vec();
        for s in spans {
            let track = match s.kind {
                SpanKind::CopyH2D | SpanKind::CopyD2H => Track::Transfer,
                SpanKind::PeerCopy => Track::Peer,
                _ => Track::Um,
            };
            let mut args: Vec<(&'static str, ArgValue)> = vec![("bytes", s.bytes.into())];
            if matches!(s.kind, SpanKind::Migration | SpanKind::Prefetch) {
                args.push(("pages", s.bytes.div_ceil(PAGE_BYTES).into()));
            }
            self.prof.record(track, s.kind.name(), s.start, s.end, args);
        }
    }

    /// Turns on per-word initialization tracking. Call before any data is
    /// written: words written earlier are treated as uninitialized.
    pub fn enable_init_tracking(&mut self) {
        if self.shadow.is_none() {
            self.shadow = Some(InitShadow::default());
        }
    }

    pub fn init_tracking_enabled(&self) -> bool {
        self.shadow.is_some()
    }

    /// Whether `addr` has been written since tracking was enabled. Always
    /// `true` when tracking is off, so callers need no mode check.
    #[inline]
    pub fn is_word_init(&self, addr: u64) -> bool {
        match &self.shadow {
            Some(s) => s.is_init(addr),
            None => true,
        }
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    pub fn explicit_used_bytes(&self) -> u64 {
        self.explicit_used
    }

    /// Device bytes left for explicit allocations.
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.explicit_used)
    }

    /// Device budget available to UM residency.
    pub fn um_budget_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.explicit_used)
    }

    fn bump(&mut self, len_words: u64, align_words: u64) -> u64 {
        let start = (self.words.len() as u64).div_ceil(align_words) * align_words;
        self.words.resize((start + len_words) as usize, 0);
        start
    }

    /// `cudaMalloc` analog: fails when the device is full.
    pub fn alloc_explicit(&mut self, len_words: u64) -> Result<DSlice, MemError> {
        let bytes = len_words * 4;
        if self.explicit_used + bytes > self.capacity_bytes {
            return Err(MemError::Oom {
                requested_bytes: bytes,
                free_bytes: self.free_bytes(),
            });
        }
        self.explicit_used += bytes;
        let start = self.bump(len_words, 8); // sector aligned
        self.regions.push(Region {
            kind: RegionKind::Explicit,
            start_word: start,
            len_words,
        });
        Ok(DSlice {
            region: self.regions.len() - 1,
            word_off: start,
            len: len_words,
        })
    }

    /// `cudaMallocManaged` analog: host-backed, page-aligned, never fails.
    pub fn alloc_unified(&mut self, len_words: u64) -> DSlice {
        let start = self.bump(len_words, PAGE_WORDS);
        let um_index = self.um.add_region(UmRegion::new(start, len_words));
        self.regions.push(Region {
            kind: RegionKind::Unified { um_index },
            start_word: start,
            len_words,
        });
        DSlice {
            region: self.regions.len() - 1,
            word_off: start,
            len: len_words,
        }
    }

    /// Pinned zero-copy host allocation mapped into the device.
    pub fn alloc_zero_copy(&mut self, len_words: u64) -> DSlice {
        let start = self.bump(len_words, 8);
        self.regions.push(Region {
            kind: RegionKind::ZeroCopy,
            start_word: start,
            len_words,
        });
        DSlice {
            region: self.regions.len() - 1,
            word_off: start,
            len: len_words,
        }
    }

    pub fn region_kind(&self, id: RegionId) -> RegionKind {
        self.regions[id].kind
    }

    /// Frees an explicit region's capacity (bump storage is not reclaimed —
    /// experiments construct a fresh `MemSystem` per run).
    pub fn free_explicit(&mut self, slice: DSlice) {
        if let RegionKind::Explicit = self.regions[slice.region].kind {
            self.explicit_used = self
                .explicit_used
                .saturating_sub(self.regions[slice.region].len_words * 4);
        }
    }

    /// Retires a unified region: drops its page residency so the bytes
    /// return to the UM budget. No-op for explicit and zero-copy regions
    /// (free those with [`MemSystem::free_explicit`]).
    pub fn invalidate_unified(&mut self, slice: DSlice) {
        if let RegionKind::Unified { um_index } = self.regions[slice.region].kind {
            self.um.invalidate_region(um_index);
        }
    }

    // ---- adaptive transfer policy ----------------------------------------

    /// Puts a unified region under the adaptive transfer policy: its page
    /// groups start on demand paging and migrate between demand, prefetch
    /// and zero-copy as [`MemSystem::adaptive_tick`] observes their access
    /// density. No-op for explicit and zero-copy regions.
    pub fn enable_adaptive(&mut self, slice: DSlice) {
        if let RegionKind::Unified { um_index } = self.regions[slice.region].kind {
            let n_pages = self.um.region(um_index).n_pages();
            self.adaptive
                .insert(slice.region, AdaptiveRegion::new(um_index, n_pages));
        }
    }

    pub fn region_is_adaptive(&self, region: RegionId) -> bool {
        self.adaptive.contains_key(&region)
    }

    /// Whether an access to `sector` of `region` is currently served
    /// zero-copy (the warp model charges per-sector link latency for these
    /// instead of consulting the cache hierarchy). Only non-resident pages
    /// of a zero-copy group route over the link: pages migrated before the
    /// group switched keep serving locally until evicted.
    pub fn sector_zero_copy(&self, region: RegionId, sector: u64) -> bool {
        match self.adaptive.get(&region) {
            Some(ar) => {
                let start_word = self.regions[region].start_word;
                let p = ((sector * 8).saturating_sub(start_word) / PAGE_WORDS) as usize;
                ar.choice_for_page(p) == TransferChoice::ZeroCopy
                    && !self.um.region(ar.um_index).page_resident(p)
            }
            None => false,
        }
    }

    /// Group counts `(demand, prefetch, zero_copy)` for an adaptive region,
    /// or `None` if the region is not adaptive. Read by the transfer report.
    pub fn adaptive_group_counts(&self, region: RegionId) -> Option<(u64, u64, u64)> {
        self.adaptive.get(&region).map(|ar| ar.group_counts())
    }

    /// Device-wide adaptive totals `(demand, prefetch, zero_copy,
    /// escalated_regions)` summed over every adaptive region; `None` when
    /// the policy is not in use. The transfer report prints these so the
    /// decision mix behind each timing is visible.
    pub fn adaptive_totals(&self) -> Option<(u64, u64, u64, u64)> {
        if self.adaptive.is_empty() {
            return None;
        }
        let mut t = (0u64, 0u64, 0u64, 0u64);
        for ar in self.adaptive.values() {
            let (d, p, z) = ar.group_counts();
            t.0 += d;
            t.1 += p;
            t.2 += z;
            t.3 += u64::from(ar.is_escalated());
        }
        Some(t)
    }

    /// Iteration boundary for the adaptive policy: folds this iteration's
    /// density observations into per-group backend decisions (with
    /// hysteresis) and applies the transitions — prefetch groups are
    /// (re)streamed, zero-copy groups simply stop acquiring residency (their
    /// already-migrated pages keep serving locally until the LRU reclaims
    /// them). `upcoming_bytes` is the engine's announcement of the coming
    /// iteration's read volume (its frontier's out-edges in bytes, `0` when
    /// unknown) — a large announcement escalates regions to streaming
    /// before the wave (see [`crate::adaptive`]). Returns the completion
    /// time of the latest transfer issued, `now` when nothing moved. With
    /// no adaptive regions this is a no-op, byte-identical to not calling
    /// it.
    pub fn adaptive_tick(&mut self, now: Ns, upcoming_bytes: u64) -> Ns {
        if self.adaptive.is_empty() {
            return now;
        }
        let budget = self.capacity_bytes.saturating_sub(self.explicit_used);
        let mut end = now;
        // Decisions are collected first: applying them borrows `self.um`
        // and `self.pcie`, which the policy map borrow would otherwise pin.
        let ticked: Vec<(usize, Vec<GroupDecision>)> = self
            .adaptive
            .values_mut()
            .map(|ar| (ar.um_index, ar.tick(upcoming_bytes)))
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

    // ---- host-side data access (no timing) -------------------------------

    /// Host write without transfer cost (dataset construction before timing).
    pub fn host_write(&mut self, slice: DSlice, offset: u64, data: &[u32]) {
        assert!(offset + data.len() as u64 <= slice.len, "host_write OOB");
        let start = (slice.word_off + offset) as usize;
        self.words[start..start + data.len()].copy_from_slice(data);
        if let Some(shadow) = &mut self.shadow {
            shadow.mark_range(slice.word_off + offset, data.len() as u64);
        }
    }

    pub fn host_read(&self, slice: DSlice, offset: u64, len: u64) -> &[u32] {
        assert!(offset + len <= slice.len, "host_read OOB");
        let start = (slice.word_off + offset) as usize;
        &self.words[start..start + len as usize]
    }

    /// Host fill (label initialization etc.), no transfer cost.
    pub fn host_fill(&mut self, slice: DSlice, value: u32) {
        let start = slice.word_off as usize;
        self.words[start..start + slice.len as usize].fill(value);
        if let Some(shadow) = &mut self.shadow {
            shadow.mark_range(slice.word_off, slice.len);
        }
    }

    // ---- timed transfers ---------------------------------------------------

    /// Explicit host→device copy: writes the data and occupies the link.
    pub fn copy_h2d(&mut self, slice: DSlice, offset: u64, data: &[u32], now: Ns) -> Ns {
        self.host_write(slice, offset, data);
        let mark = self.pcie.timeline.spans().len();
        let (_, end) = self
            .pcie
            .transfer(SpanKind::CopyH2D, data.len() as u64 * 4, now);
        self.prof_link_spans(mark);
        end
    }

    /// Explicit device→host copy of `len` words (results readback).
    pub fn copy_d2h(&mut self, _slice: DSlice, len: u64, now: Ns) -> Ns {
        let mark = self.pcie.timeline.spans().len();
        let (_, end) = self.pcie.transfer(SpanKind::CopyD2H, len * 4, now);
        self.prof_link_spans(mark);
        end
    }

    /// `cudaMemPrefetchAsync` analog for a unified region.
    pub fn prefetch(&mut self, slice: DSlice, now: Ns) -> Ns {
        match self.regions[slice.region].kind {
            RegionKind::Unified { um_index } => {
                let budget = self.capacity_bytes.saturating_sub(self.explicit_used);
                let mark = self.pcie.timeline.spans().len();
                let end = self.um.prefetch(um_index, now, budget, &mut self.pcie);
                self.prof_link_spans(mark);
                end
            }
            _ => now,
        }
    }

    // ---- kernel access path ------------------------------------------------

    /// Raw word load (functional value).
    #[inline]
    pub fn word(&self, addr: u64) -> u32 {
        self.words[addr as usize]
    }

    /// Raw word store (functional value).
    #[inline]
    pub fn set_word(&mut self, addr: u64, value: u32) {
        self.words[addr as usize] = value;
        if let Some(shadow) = &mut self.shadow {
            shadow.mark(addr);
        }
    }

    /// Residency handling for a warp access: given the unique sectors the
    /// coalescer produced for `region`, migrate any missing UM pages and
    /// return the latest data-arrival time (`now` when all resident).
    ///
    /// Zero-copy accesses return `now` but count their traffic; the caller
    /// charges per-sector link latency instead.
    pub fn ensure_resident(&mut self, region: RegionId, sectors: &[u64], now: Ns) -> Ns {
        match self.regions[region].kind {
            RegionKind::Explicit => now,
            RegionKind::ZeroCopy => {
                self.zero_copy_bytes += sectors.len() as u64 * 32;
                now
            }
            RegionKind::Unified { um_index } => {
                let start_word = self.regions[region].start_word;
                // sectors are sorted; map to sorted page indices. Under the
                // adaptive policy, sectors landing in zero-copy groups skip
                // page migration entirely: they are counted as zero-copy
                // traffic (the launch charges them as one ZeroCopyRead span)
                // while every sector still feeds the density estimator.
                let pages = &mut self.page_scratch;
                pages.clear();
                let mut zc_sectors = 0u64;
                if let Some(ar) = self.adaptive.get_mut(&region) {
                    let um_region = self.um.region(ar.um_index);
                    for &s in sectors {
                        let p = ((s * 8).saturating_sub(start_word) / PAGE_WORDS) as usize;
                        ar.note_sector(p);
                        if ar.choice_for_page(p) == TransferChoice::ZeroCopy
                            && !um_region.page_resident(p)
                        {
                            zc_sectors += 1;
                        } else {
                            pages.push(p);
                        }
                    }
                    self.zero_copy_bytes += zc_sectors * 32;
                } else {
                    pages.extend(
                        sectors
                            .iter()
                            .map(|&s| ((s * 8).saturating_sub(start_word) / PAGE_WORDS) as usize),
                    );
                }
                pages.dedup();
                if pages.is_empty() && zc_sectors > 0 {
                    // Whole access served zero-copy: no residency work.
                    return now;
                }
                let budget = self.capacity_bytes.saturating_sub(self.explicit_used);
                let mark = self.pcie.timeline.spans().len();
                let mut end = self
                    .um
                    .touch_pages(um_index, pages, now, budget, &mut self.pcie);
                self.prof_link_spans(mark);
                // Fault injection applies to *demand* migrations only (a
                // prefetch is driver-paced and retries internally). A touch
                // that migrated nothing stays untouched, so the no-fault
                // timing path is byte-identical.
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
    }

    /// The serial residency stage of the staged launch pipeline (see
    /// [`crate::access`]): runs [`MemSystem::ensure_resident`] for one
    /// recorded access and *immediately* classifies each of its sectors as
    /// zero-copy or cache-bound into `zc`.
    ///
    /// The classification must happen right here, between this access's
    /// residency and the next one's — the adaptive policy's per-page-group
    /// choices evolve access by access (`note_sector`, residency changes),
    /// so flags computed after the whole launch's residency would describe
    /// a later policy state than the access saw.
    pub fn resolve_access(
        &mut self,
        region: RegionId,
        sectors: &[u64],
        now: Ns,
        zc: &mut [bool],
    ) -> Ns {
        let arrival = self.ensure_resident(region, sectors, now);
        let all_zero_copy = matches!(self.region_kind(region), RegionKind::ZeroCopy);
        let adaptive = !all_zero_copy && self.region_is_adaptive(region);
        if all_zero_copy || adaptive {
            for (flag, &sec) in zc.iter_mut().zip(sectors) {
                *flag = all_zero_copy || self.sector_zero_copy(region, sec);
            }
        }
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::um::PAGE_BYTES;

    fn system(capacity: u64) -> MemSystem {
        MemSystem::new(capacity, PcieLink::new(12.0, 1_000))
    }

    #[test]
    fn explicit_alloc_respects_capacity() {
        let mut m = system(1024);
        let a = m.alloc_explicit(128).expect("512 B fits in 1 KiB");
        assert_eq!(a.len, 128);
        assert_eq!(m.free_bytes(), 512);
        let err = m.alloc_explicit(200).unwrap_err();
        match err {
            MemError::Oom {
                requested_bytes,
                free_bytes,
            } => {
                assert_eq!(requested_bytes, 800);
                assert_eq!(free_bytes, 512);
            }
        }
    }

    #[test]
    fn free_explicit_returns_capacity() {
        let mut m = system(1024);
        let a = m.alloc_explicit(256).unwrap();
        assert_eq!(m.free_bytes(), 0);
        m.free_explicit(a);
        assert_eq!(m.free_bytes(), 1024);
    }

    #[test]
    fn unified_alloc_never_fails() {
        let mut m = system(64);
        let big = m.alloc_unified(1_000_000);
        assert_eq!(big.len, 1_000_000);
        assert_eq!(big.word_off % PAGE_WORDS, 0, "page aligned");
    }

    #[test]
    fn host_roundtrip() {
        let mut m = system(1 << 20);
        let a = m.alloc_explicit(16).unwrap();
        m.host_write(a, 4, &[7, 8, 9]);
        assert_eq!(m.host_read(a, 4, 3), &[7, 8, 9]);
        assert_eq!(m.word(a.addr(5)), 8);
        m.set_word(a.addr(5), 42);
        assert_eq!(m.host_read(a, 5, 1), &[42]);
    }

    #[test]
    fn copy_h2d_charges_the_link() {
        let mut m = system(1 << 20);
        let a = m.alloc_explicit(1024).unwrap();
        let end = m.copy_h2d(a, 0, &vec![1u32; 1024], 0);
        assert!(end >= 1_000, "setup latency must be paid");
        assert_eq!(m.pcie.bytes_moved(), 4096);
        assert_eq!(m.host_read(a, 0, 1), &[1]);
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
        let a = m.alloc_unified(0);
        assert_eq!(m.prefetch(a, 42), 42);
        m.enable_adaptive(a);
        assert_eq!(m.adaptive_tick(42, 1 << 20), 42);
        m.invalidate_unified(a);
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
        let a = m.alloc_zero_copy(1024);
        m.ensure_resident(a.region, &[a.word_off / 8, a.word_off / 8 + 1], 0);
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
    fn adaptive_disabled_map_is_inert() {
        // Same access stream with and without the (empty) adaptive map code
        // path: identical timelines.
        let mut m = system(1 << 24);
        let a = m.alloc_unified(PAGE_BYTES / 4 * 64);
        let t = m.ensure_resident(a.region, &[a.word_off / 8], 0);
        assert!(!m.region_is_adaptive(a.region));
        assert_eq!(m.adaptive_tick(t, 0), t, "no adaptive regions: no-op");
        assert_eq!(m.zero_copy_bytes, 0);
    }

    #[test]
    fn adaptive_sparse_group_goes_zero_copy() {
        let mut m = system(1 << 24);
        let a = m.alloc_unified(PAGE_BYTES / 4 * 64);
        m.enable_adaptive(a);
        assert!(m.region_is_adaptive(a.region));
        let s0 = a.word_off / 8; // one sector of page 0, every iteration
        let mut now = 0;
        for _ in 0..crate::adaptive::HYSTERESIS {
            now = m.ensure_resident(a.region, &[s0], now);
            now = m.adaptive_tick(now, 0);
        }
        // Page 0 was migrated during the demand phase and stays resident:
        // it keeps serving locally even though its group went zero-copy.
        assert!(!m.sector_zero_copy(a.region, s0));
        // A cold page of the same group routes zero-copy: no migration,
        // no new residency, traffic counted.
        // Page 15 (same 16-page group): outside page 0's 8-page fault batch.
        let s1 = s0 + 15 * (PAGE_BYTES / 32);
        assert!(m.sector_zero_copy(a.region, s1));
        let resident_before = m.um.resident_bytes();
        let zc_before = m.zero_copy_bytes;
        let t = m.ensure_resident(a.region, &[s1], now);
        assert_eq!(t, now);
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
        for _ in 0..crate::adaptive::HYSTERESIS {
            now = m.ensure_resident(a.region, &sectors, now);
            now = m.adaptive_tick(now, 0);
        }
        let (_, prefetch_groups, _) = m.adaptive_group_counts(a.region).unwrap();
        assert_eq!(prefetch_groups, 1, "dense group promoted to prefetch");
        // The group is fully resident: 16 pages of group 0 (+ nothing else —
        // group 1 was never touched and stays on demand).
        assert_eq!(m.um.region(0).resident_pages(), 16);
        assert!(!m.sector_zero_copy(a.region, sectors[0]));
    }

    #[test]
    fn dslice_sub_slicing() {
        let mut m = system(1 << 20);
        let a = m.alloc_explicit(100).unwrap();
        let s = a.slice(10, 20);
        assert_eq!(s.addr(0), a.addr(10));
        assert_eq!(s.len, 20);
        assert_eq!(s.bytes(), 80);
    }

    #[test]
    #[should_panic(expected = "sub-slice out of bounds")]
    fn dslice_oob_slice_panics() {
        let mut m = system(1 << 20);
        let a = m.alloc_explicit(10).unwrap();
        let _ = a.slice(5, 6);
    }

    #[test]
    fn init_tracking_off_reports_everything_initialized() {
        let mut m = system(1 << 20);
        let a = m.alloc_explicit(16).unwrap();
        assert!(!m.init_tracking_enabled());
        assert!(m.is_word_init(a.addr(0)), "no tracking: always init");
    }

    #[test]
    fn init_tracking_follows_writes() {
        let mut m = system(1 << 20);
        m.enable_init_tracking();
        let a = m.alloc_explicit(256).unwrap();
        assert!(!m.is_word_init(a.addr(0)), "fresh allocation is uninit");
        m.host_write(a, 4, &[1, 2, 3]);
        assert!(!m.is_word_init(a.addr(3)));
        assert!(m.is_word_init(a.addr(4)));
        assert!(m.is_word_init(a.addr(6)));
        assert!(!m.is_word_init(a.addr(7)));
        m.set_word(a.addr(100), 9);
        assert!(m.is_word_init(a.addr(100)));
        m.host_fill(a, 0);
        assert!(m.is_word_init(a.addr(255)), "fill initializes the slice");
    }

    #[test]
    fn init_tracking_copy_h2d_marks_words() {
        let mut m = system(1 << 20);
        m.enable_init_tracking();
        let a = m.alloc_explicit(64).unwrap();
        m.copy_h2d(a, 8, &[5; 8], 0);
        assert!(m.is_word_init(a.addr(8)));
        assert!(m.is_word_init(a.addr(15)));
        assert!(!m.is_word_init(a.addr(16)));
    }

    #[test]
    fn prefetch_noop_on_explicit() {
        let mut m = system(1 << 20);
        let a = m.alloc_explicit(64).unwrap();
        assert_eq!(m.prefetch(a, 77), 77);
    }

    #[test]
    fn profiler_mirrors_every_timed_transfer() {
        let mut m = system(1 << 24);
        m.prof.set_enabled(true);
        let a = m.alloc_explicit(1024).unwrap();
        m.copy_h2d(a, 0, &vec![1u32; 1024], 0);
        m.copy_d2h(a, 1024, 5_000);
        let u = m.alloc_unified(PAGE_BYTES / 4 * 100);
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
    fn disabled_profiler_records_nothing_on_transfers() {
        let mut m = system(1 << 20);
        let a = m.alloc_explicit(1024).unwrap();
        m.copy_h2d(a, 0, &vec![1u32; 1024], 0);
        assert!(m.prof.is_empty());
        assert_eq!(m.prof.allocated_bytes(), 0);
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
        let a = m.alloc_unified(PAGE_BYTES / 4 * 100);
        let end = m.prefetch(a, 0);
        assert!(end > 0);
        // Subsequent access should not fault.
        let faults_before = m.um.stats.faults;
        m.ensure_resident(a.region, &[a.word_off / 8 + 80], end);
        assert_eq!(m.um.stats.faults, faults_before);
    }
}
