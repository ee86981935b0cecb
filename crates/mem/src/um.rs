//! Unified Memory: page residency, demand migration, prefetch, eviction.
//!
//! Models the CUDA UM behaviour the paper leans on (§IV-B, Tables III/V,
//! Fig. 4):
//!
//! * Allocations are host-backed and page-granular (4 KiB). A GPU access to a
//!   non-resident page raises a fault; the driver migrates a *batch* of
//!   contiguous faulting pages, rounded out to a fault-group granularity, so
//!   observed migration sizes range from one page to ~1 MiB (Table V, "w/o
//!   UMP" rows: avg ≈ 44 KB, min 4 KB, max ≈ 996 KB).
//! * `prefetch` (the `cudaMemPrefetchAsync` analog) streams the allocation in
//!   2 MiB chunks, which is why Table V's prefetch rows are almost all 2 MB.
//! * When resident pages would exceed the device budget, least-recently-used
//!   pages are evicted (*oversubscription*), letting traversal run on graphs
//!   larger than device memory — the paper's uk-2006 case. Victims leave in
//!   exact `(last_access, region, page)` order, served by a lazy min-heap
//!   (DESIGN.md, "Unified Memory eviction").

use crate::pcie::PcieLink;
use crate::timeline::SpanKind;
use crate::Ns;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// UM page size in bytes (x86 system page, as in the paper's Table V).
pub const PAGE_BYTES: u64 = 4096;
/// UM page size in device words.
pub const PAGE_WORDS: u64 = PAGE_BYTES / 4;
/// Base driver fault-group granularity: a demand batch is rounded out to
/// this boundary over non-resident pages before migrating. When faults
/// arrive densely (streaming access), the driver escalates the group size
/// up to [`MAX_BATCH_BYTES`] — CUDA's density-tree heuristic — which is why
/// the paper's Table V sees migrated sizes from one 4 KiB page up to
/// ~1 MB with a ~44 KB average.
pub const FAULT_GROUP_BYTES: u64 = 32 * 1024;
/// Upper bound on one demand-migration batch.
pub const MAX_BATCH_BYTES: u64 = 1024 * 1024;
/// Prefetch streaming chunk (large-page granularity the driver promotes to).
pub const PREFETCH_CHUNK_BYTES: u64 = 2 * 1024 * 1024;
/// Driver-side service time per demand-migration batch (fault report, TLB
/// shootdown, page-table update) — the cost `cudaMemPrefetchAsync` avoids,
/// scaled with the rest of the interconnect constants.
pub const FAULT_SERVICE_NS: Ns = 4_000;

#[derive(Debug, Clone, Copy, Default)]
struct PageState {
    resident: bool,
    /// Link time at which the page's data is available on-device.
    arrival: Ns,
    /// LRU clock of the last GPU access.
    last_access: u64,
    /// Whether the driver's victim index holds this page's (single) entry.
    indexed: bool,
}

/// Victim-index entry: `(last_access, region idx, page idx)`, min first.
type Victim = Reverse<(u64, usize, usize)>;

/// Aggregate migration statistics (drives Table V).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct UmStats {
    /// Size in bytes of every demand-migrated batch.
    pub migration_batches: Vec<u64>,
    /// Size in bytes of every prefetch chunk.
    pub prefetch_chunks: Vec<u64>,
    /// Number of GPU page faults (batches may serve several).
    pub faults: u64,
    /// Pages evicted under oversubscription.
    pub evicted_pages: u64,
    /// Total bytes demand-migrated.
    pub migrated_bytes: u64,
    /// Total bytes prefetched.
    pub prefetched_bytes: u64,
}

impl UmStats {
    pub fn batch_avg_bytes(&self) -> f64 {
        if self.migration_batches.is_empty() {
            0.0
        } else {
            self.migrated_bytes as f64 / self.migration_batches.len() as f64
        }
    }

    pub fn batch_min_bytes(&self) -> u64 {
        self.migration_batches.iter().copied().min().unwrap_or(0)
    }

    pub fn batch_max_bytes(&self) -> u64 {
        self.migration_batches.iter().copied().max().unwrap_or(0)
    }

    /// All observed migration sizes (demand batches and prefetch chunks),
    /// matching what the paper's Table V reports per configuration.
    pub fn all_sizes(&self) -> Vec<u64> {
        let mut v = self.migration_batches.clone();
        v.extend_from_slice(&self.prefetch_chunks);
        v
    }
}

/// Residency bookkeeping for one unified allocation.
#[derive(Debug, Clone)]
pub struct UmRegion {
    /// First device word of the allocation (page aligned).
    pub start_word: u64,
    /// Length in words.
    pub len_words: u64,
    pages: Vec<PageState>,
    /// Number of resident pages (kept in step with the page table).
    resident: usize,
    /// Last page the driver migrated (for the density heuristic).
    last_batch_end: usize,
    /// Consecutive near-adjacent fault batches observed.
    streak: u32,
}

impl UmRegion {
    pub fn new(start_word: u64, len_words: u64) -> Self {
        debug_assert_eq!(start_word % PAGE_WORDS, 0, "UM regions are page aligned");
        let n_pages = len_words.div_ceil(PAGE_WORDS) as usize;
        UmRegion {
            start_word,
            len_words,
            pages: vec![PageState::default(); n_pages],
            resident: 0,
            last_batch_end: usize::MAX,
            streak: 0,
        }
    }

    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Whether one page is currently resident (the adaptive policy routes
    /// zero-copy reads only to pages that are *not*).
    #[inline]
    pub fn page_resident(&self, page: usize) -> bool {
        self.pages[page].resident
    }

    /// Page index containing a global word address.
    pub fn page_of_word(&self, word_addr: u64) -> usize {
        debug_assert!(word_addr >= self.start_word);
        ((word_addr - self.start_word) / PAGE_WORDS) as usize
    }

    fn bytes_of_page(&self, page: usize) -> u64 {
        let start_w = page as u64 * PAGE_WORDS;
        let end_w = (start_w + PAGE_WORDS).min(self.len_words);
        (end_w - start_w) * 4
    }

    /// Drops residency of a page range, zeroing the LRU stamps and index
    /// marks too when `reset` (the caller then purges the victim index);
    /// returns the bytes freed.
    fn drop_pages(&mut self, range: std::ops::Range<usize>, reset: bool) -> u64 {
        let mut freed = 0u64;
        for pi in range {
            if self.pages[pi].resident {
                freed += self.bytes_of_page(pi);
                self.resident -= 1;
            }
            let st = &mut self.pages[pi];
            st.resident = false;
            st.arrival = 0;
            if reset {
                st.last_access = 0;
                st.indexed = false;
            }
        }
        freed
    }
}

/// The Unified Memory driver state shared by all UM regions of a device.
#[derive(Debug, Clone)]
pub struct UmDriver {
    regions: Vec<UmRegion>,
    /// LRU clock; bumped on every GPU access batch.
    clock: u64,
    resident_bytes: u64,
    /// Lazy exact-LRU victim index: one entry per indexed page, keyed by the
    /// stamp the page had when pushed. A touch never updates it; `make_room`
    /// re-keys entries touched since and drops those no longer resident.
    victims: BinaryHeap<Victim>,
    /// Region, budget and inclusive page ranges of the last fault event (a
    /// demand touch's batches, or one prefetch chunk); the ranges are
    /// protected from that event's evictions.
    event_region: usize,
    event_budget: u64,
    protect: Vec<(usize, usize)>,
    /// Scratch: missing pages of the touch being served; protected victims
    /// `make_room` popped and pushes back.
    missing: Vec<usize>,
    aside: Vec<Victim>,
    pub stats: UmStats,
}

impl Default for UmDriver {
    fn default() -> Self {
        Self::new()
    }
}

impl UmDriver {
    pub fn new() -> Self {
        UmDriver {
            regions: Vec::new(),
            clock: 0,
            resident_bytes: 0,
            victims: BinaryHeap::new(),
            event_region: 0,
            event_budget: u64::MAX,
            protect: Vec::new(),
            missing: Vec::new(),
            aside: Vec::new(),
            stats: UmStats::default(),
        }
    }

    pub fn add_region(&mut self, region: UmRegion) -> usize {
        self.regions.push(region);
        self.regions.len() - 1
    }

    pub fn region(&self, idx: usize) -> &UmRegion {
        &self.regions[idx]
    }

    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Ensures the given pages of `region` are resident, migrating on demand.
    ///
    /// `pages` must be sorted (the coalescer emits sorted sectors, so this is
    /// free for callers). Returns the latest arrival time among the touched
    /// pages — `now` if everything was already on-device — which the caller
    /// charges as transfer wait.
    ///
    /// `budget_bytes` is the device memory available to UM (capacity minus
    /// explicit allocations); exceeding it triggers LRU eviction.
    pub fn touch_pages(
        &mut self,
        region_idx: usize,
        pages: &[usize],
        now: Ns,
        budget_bytes: u64,
        link: &mut PcieLink,
    ) -> Ns {
        self.clock += 1;
        let mut latest = now;

        // Mark accesses and collect the non-resident pages (sorted, unique).
        self.missing.clear();
        let region = &mut self.regions[region_idx];
        let mut prev = usize::MAX;
        for &p in pages {
            if p == prev {
                continue;
            }
            prev = p;
            let st = &mut region.pages[p];
            st.last_access = self.clock;
            if st.resident {
                latest = latest.max(st.arrival);
            } else {
                self.missing.push(p);
            }
        }
        if self.missing.is_empty() {
            return latest;
        }
        self.stats.faults += self.missing.len() as u64;

        // Group contiguous missing pages, round each group out to the fault
        // granularity over non-resident neighbours, cap at MAX_BATCH_BYTES.
        // Every batch of this fault event is protected from eviction, not
        // just the current one: under a tight budget, a later batch's
        // eviction pass must not reclaim pages an earlier batch of the same
        // event just migrated (the uk-2006 double-charge anomaly — the
        // page's arrival was charged, then it vanished before the kernel
        // read it, so the very next access re-faulted and paid the full
        // migration again).
        self.event_region = region_idx;
        self.event_budget = budget_bytes;
        self.plan_batches(region_idx);
        for i in 0..self.protect.len() {
            let (first, last) = self.protect[i];
            // Only non-resident pages move; planning guarantees this, but
            // recompute defensively so accounting can never drift.
            let bytes = self.missing_bytes(region_idx, first, last);
            if bytes == 0 {
                continue;
            }
            self.make_room(bytes, now, link);
            let (_, end) =
                link.transfer_with_setup(SpanKind::Migration, bytes, now, FAULT_SERVICE_NS);
            self.admit(region_idx, first, last, end, true);
            self.resident_bytes += bytes;
            self.stats.migration_batches.push(bytes);
            self.stats.migrated_bytes += bytes;
            latest = latest.max(end);
        }
        latest
    }

    /// Bytes of the non-resident pages in `first..=last`.
    fn missing_bytes(&self, region_idx: usize, first: usize, last: usize) -> u64 {
        let region = &self.regions[region_idx];
        (first..=last)
            .filter(|&p| !region.pages[p].resident)
            .map(|p| region.bytes_of_page(p))
            .sum()
    }

    /// Marks the non-resident pages of `first..=last` resident, arriving at
    /// `arrival`, and makes them eviction candidates. A demand migration
    /// stamps them with the current LRU clock; a prefetch keeps their old
    /// stamp (the GPU has not accessed them).
    fn admit(&mut self, region_idx: usize, first: usize, last: usize, arrival: Ns, stamp: bool) {
        let region = &mut self.regions[region_idx];
        for p in first..=last {
            let st = &mut region.pages[p];
            if st.resident {
                continue;
            }
            st.resident = true;
            st.arrival = arrival;
            if stamp {
                st.last_access = self.clock;
            }
            // A page evicted lazily may still own an entry (keyed no later
            // than its stamp): one entry per page is enough.
            if !st.indexed {
                st.indexed = true;
                self.victims.push(Reverse((st.last_access, region_idx, p)));
            }
            region.resident += 1;
        }
    }

    /// Groups the sorted `missing` pages into inclusive `(first, last)`
    /// batches in `protect`, applying the density heuristic: each batch near
    /// the previous one doubles the speculative group size, up to
    /// [`MAX_BATCH_BYTES`].
    fn plan_batches(&mut self, region_idx: usize) {
        let region = &mut self.regions[region_idx];
        let base_group = (FAULT_GROUP_BYTES / PAGE_BYTES) as usize;
        let max_pages = (MAX_BATCH_BYTES / PAGE_BYTES) as usize;
        let n_pages = region.pages.len();

        let out = &mut self.protect;
        out.clear();
        for &p in &self.missing {
            let mut prev_last = None;
            if let Some((first, last)) = out.last_mut() {
                if p <= *last {
                    continue; // already covered by the previous rounded batch
                }
                if p == *last + 1 && (p - *first) < max_pages {
                    *last = p;
                    continue;
                }
                prev_last = Some(*last);
            }
            // Density escalation: only faults landing immediately after the
            // previous batch (a streaming sweep) grow the speculative group
            // (16 KiB -> ... -> 1 MiB); anything scattered resets it.
            let near = region.last_batch_end != usize::MAX
                && p > region.last_batch_end
                && p - region.last_batch_end <= base_group;
            region.streak = if near { (region.streak + 1).min(6) } else { 0 };
            let group_pages = (base_group << region.streak).min(max_pages);

            // Start the batch at the group boundary, but never cover
            // already-resident pages (the driver only moves missing ones)
            // nor pages already claimed by the previous batch.
            let mut first = p - (p % group_pages);
            if let Some(prev_last) = prev_last {
                first = first.max(prev_last + 1);
            }
            while first < p && region.pages[first].resident {
                first += 1;
            }
            // Round the tail out to the end of the group as long as the
            // pages there are also missing (speculative migration).
            let group_end = ((p / group_pages) + 1) * group_pages;
            let mut last = p;
            while last + 1 < n_pages.min(group_end) && !region.pages[last + 1].resident {
                last += 1;
            }
            region.last_batch_end = last;
            out.push((first, last));
        }
    }

    /// Whether the current fault event protects page `pi` of region `ri`.
    fn protected(&self, ri: usize, pi: usize) -> bool {
        ri == self.event_region && self.protect.iter().any(|&(f, l)| (f..=l).contains(&pi))
    }

    /// Evicts pages in ascending `(last_access, region idx, page idx)` order,
    /// skipping the protected ranges of the current fault event, until
    /// `incoming_bytes` fits in the event's budget.
    fn make_room(&mut self, incoming_bytes: u64, now: Ns, link: &mut PcieLink) {
        let mut to_free = (self.resident_bytes + incoming_bytes).saturating_sub(self.event_budget);
        let mut evicted_bytes = 0u64;
        while to_free > 0 {
            // An empty index means only protected pages are left: the
            // budget is simply exceeded.
            let Some(mut top) = self.victims.peek_mut() else {
                break;
            };
            let Reverse((stamp, ri, pi)) = *top;
            let st = self.regions[ri].pages[pi];
            if st.resident && st.last_access != stamp {
                // Touched since it was pushed: re-key in place with the true
                // stamp (the entry sifts down as `top` drops).
                top.0 .0 = st.last_access;
                continue;
            }
            PeekMut::pop(top);
            if !st.resident {
                // Invalidated since it was pushed: the entry just goes.
                self.regions[ri].pages[pi].indexed = false;
            } else if self.protected(ri, pi) {
                self.aside.push(Reverse((stamp, ri, pi)));
            } else {
                let region = &mut self.regions[ri];
                region.pages[pi].resident = false;
                region.pages[pi].indexed = false;
                region.resident -= 1;
                let bytes = region.bytes_of_page(pi);
                self.resident_bytes -= bytes;
                self.stats.evicted_pages += 1;
                evicted_bytes += bytes;
                to_free = to_free.saturating_sub(bytes);
            }
        }
        self.victims.extend(self.aside.drain(..));
        if evicted_bytes > 0 {
            // Topology pages are clean on the GPU (graph data is read-only
            // during traversal), so eviction is a cheap unmap, but we still
            // record the event on the timeline for Fig. 4 style accounting.
            link.transfer(SpanKind::Eviction, evicted_bytes / 64, now);
        }
    }

    /// Streams the whole region to the device in 2 MiB chunks
    /// (`cudaMemPrefetchAsync`). Returns the completion time of the last
    /// chunk. Pages become individually available as their chunk lands, so
    /// compute can start before the prefetch finishes.
    pub fn prefetch(
        &mut self,
        region_idx: usize,
        now: Ns,
        budget_bytes: u64,
        link: &mut PcieLink,
    ) -> Ns {
        self.prefetch_range(region_idx, 0, usize::MAX, now, budget_bytes, link)
    }

    /// Streams one inclusive page range of a region to the device in 2 MiB
    /// chunks, skipping already-resident pages — a no-op (no span, no stats)
    /// when the whole range is resident (or empty), so the adaptive policy
    /// can call it every iteration to keep its prefetch groups healed after
    /// evictions.
    pub fn prefetch_range(
        &mut self,
        region_idx: usize,
        first_page: usize,
        last_page: usize,
        now: Ns,
        budget_bytes: u64,
        link: &mut PcieLink,
    ) -> Ns {
        let chunk_pages = (PREFETCH_CHUNK_BYTES / PAGE_BYTES) as usize;
        // Exclusive end: an empty region or range streams nothing.
        let end_page = last_page
            .saturating_add(1)
            .min(self.regions[region_idx].n_pages());
        let mut end = now;
        let mut p = first_page;
        while p < end_page {
            let last = (p + chunk_pages).min(end_page) - 1;
            // Skip already-resident prefix/suffix inside the chunk.
            let bytes = self.missing_bytes(region_idx, p, last);
            if bytes > 0 {
                self.event_region = region_idx;
                self.event_budget = budget_bytes;
                self.protect.clear();
                self.protect.push((p, last));
                self.make_room(bytes, now, link);
                let (_, chunk_end) = link.transfer(SpanKind::Prefetch, bytes, now);
                self.admit(region_idx, p, last, chunk_end, false);
                self.resident_bytes += bytes;
                self.stats.prefetch_chunks.push(bytes);
                self.stats.prefetched_bytes += bytes;
                end = end.max(chunk_end);
            }
            p = last + 1;
        }
        end
    }

    /// Drops one region's residency (the allocation is being retired, e.g.
    /// a served graph evicted from the registry). Its device bytes return
    /// to the UM budget; the host-backed storage itself is bump-allocated
    /// and not reclaimed, like [`crate::system::MemSystem::free_explicit`].
    pub fn invalidate_region(&mut self, region_idx: usize) {
        let region = &mut self.regions[region_idx];
        self.resident_bytes -= region.drop_pages(0..region.pages.len(), true);
        region.last_batch_end = usize::MAX;
        region.streak = 0;
        // The stamps are zeroed, so the region's entries cannot stay lazily.
        self.victims.retain(|&Reverse((_, ri, _))| ri != region_idx);
    }

    /// Drops residency of one inclusive page range (the adaptive policy
    /// moving a group to zero-copy: its pages no longer earn their device
    /// bytes). Returns the bytes freed. Unlike [`Self::invalidate_region`]
    /// this leaves the density heuristic state (`last_batch_end`, `streak`)
    /// and the LRU stamps untouched — the rest of the region keeps
    /// demand-faulting normally.
    pub fn invalidate_pages(
        &mut self,
        region_idx: usize,
        first_page: usize,
        last_page: usize,
    ) -> u64 {
        let region = &mut self.regions[region_idx];
        let end_page = last_page.saturating_add(1).min(region.pages.len());
        let freed = region.drop_pages(first_page..end_page, false);
        self.resident_bytes -= freed;
        freed
    }

    /// Drops all residency (new experiment on the same data).
    pub fn invalidate_all(&mut self) {
        self.victims.clear();
        for region_idx in 0..self.regions.len() {
            self.invalidate_region(region_idx);
        }
        self.clock = 0;
    }

    /// Panics unless the residency bookkeeping is consistent: the byte and
    /// per-region page counters equal the page tables, the victim index holds
    /// exactly the indexed pages (every resident one among them, each keyed
    /// no later than its stamp), and the last fault event's budget is
    /// exceeded by nothing but that event's protected pages. `Device::launch`
    /// runs this after every launch in debug builds.
    pub fn check_invariants(&self) {
        let (mut bytes, mut evictable, mut indexed) = (0u64, 0usize, Vec::new());
        for (ri, region) in self.regions.iter().enumerate() {
            let mut resident = 0usize;
            for (pi, st) in region.pages.iter().enumerate() {
                if st.indexed {
                    indexed.push((ri, pi));
                }
                if st.resident {
                    assert!(st.indexed, "resident page {ri}:{pi} is not indexed");
                    resident += 1;
                    bytes += region.bytes_of_page(pi);
                    evictable += usize::from(!self.protected(ri, pi));
                }
            }
            assert_eq!(resident, region.resident, "region {ri} resident counter");
        }
        assert_eq!(bytes, self.resident_bytes, "resident_bytes");
        let entry = |&Reverse((stamp, ri, pi)): &Victim| {
            let st = &self.regions[ri].pages[pi];
            assert!(stamp <= st.last_access, "entry {ri}:{pi} keyed late");
            (ri, pi)
        };
        let mut entries: Vec<(usize, usize)> = self.victims.iter().map(entry).collect();
        entries.sort_unstable();
        assert_eq!(entries, indexed, "victim index != indexed pages");
        assert!(
            bytes <= self.event_budget || evictable == 0,
            "budget exceeded with {evictable} evictable page(s) resident"
        );
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;

    fn driver_with_region(pages: u64) -> (UmDriver, usize) {
        let mut d = UmDriver::new();
        let idx = d.add_region(UmRegion::new(0, pages * PAGE_WORDS));
        (d, idx)
    }

    fn link() -> PcieLink {
        PcieLink::new(12.0, 5_000)
    }

    #[test]
    fn first_touch_faults_then_hits() {
        let (mut d, r) = driver_with_region(64);
        let mut l = link();
        let t1 = d.touch_pages(r, &[3], 0, u64::MAX, &mut l);
        assert!(t1 > 0, "fault must cost transfer time");
        assert_eq!(d.stats.faults, 1);
        let batches = d.stats.migration_batches.len();
        // Second touch of the same page: resident, no new batch.
        let t2 = d.touch_pages(r, &[3], t1, u64::MAX, &mut l);
        assert_eq!(t2, t1);
        assert_eq!(d.stats.migration_batches.len(), batches);
    }

    #[test]
    fn fault_group_rounds_out_batches() {
        let (mut d, r) = driver_with_region(64);
        let mut l = link();
        d.touch_pages(r, &[0], 0, u64::MAX, &mut l);
        // One cold fault migrates the base fault group.
        assert_eq!(d.stats.migration_batches, vec![FAULT_GROUP_BYTES]);
        assert_eq!(
            d.region(r).resident_pages() as u64,
            FAULT_GROUP_BYTES / PAGE_BYTES
        );
    }

    #[test]
    fn dense_faults_escalate_group_size() {
        let (mut d, r) = driver_with_region(2048); // 8 MiB region
        let mut l = link();
        // Stream faults through the region page by page, as a dense sweep
        // would: the driver must escalate batch sizes toward the 1 MiB cap.
        let mut p = 0usize;
        while p < 2048 {
            d.touch_pages(r, &[p], 0, u64::MAX, &mut l);
            // jump to the first page past everything resident
            while p < 2048 && d.region(r).resident_pages() > 0 && {
                // advance p to the next non-resident page
                let resident = d.region(r).resident_pages();
                resident > p
            } {
                p += 1;
            }
            p = d.region(r).resident_pages();
        }
        let max = d.stats.batch_max_bytes();
        let min = d.stats.batch_min_bytes();
        assert_eq!(max, MAX_BATCH_BYTES, "dense faulting reaches the 1 MiB cap");
        assert_eq!(min, FAULT_GROUP_BYTES, "the first cold batch stays small");
    }

    #[test]
    fn sparse_faults_stay_small() {
        let (mut d, r) = driver_with_region(4096);
        let mut l = link();
        // Far-apart faults never escalate.
        for p in [0usize, 1000, 2000, 3000] {
            d.touch_pages(r, &[p], 0, u64::MAX, &mut l);
        }
        assert!(d.stats.batch_max_bytes() <= 2 * FAULT_GROUP_BYTES);
    }

    #[test]
    fn isolated_fault_at_region_tail_migrates_one_page() {
        // A region of 17 pages: the second fault group holds a single page,
        // so faulting it moves exactly 4 KiB (Table V min column).
        let (mut d, r) = driver_with_region(17);
        let mut l = link();
        d.touch_pages(r, &[16], 0, u64::MAX, &mut l);
        assert_eq!(
            d.stats.migration_batches,
            vec![PAGE_BYTES],
            "min migrated size is one 4 KiB page"
        );
    }

    #[test]
    fn refault_of_evicted_page_can_migrate_alone() {
        let (mut d, r) = driver_with_region(16);
        let mut l = link();
        d.touch_pages(r, &[0], 0, u64::MAX, &mut l); // whole group resident
                                                     // Evict exactly page 3 by hand via invalidate + selective re-touch is
                                                     // impossible through the public API, so emulate the state: touch a
                                                     // fresh driver where only page 3 is missing.
        d.invalidate_all();
        d.touch_pages(r, &[0], 0, u64::MAX, &mut l); // group resident again
                                                     // Now all 16 pages are resident; nothing to migrate.
        d.stats.migration_batches.clear();
        d.touch_pages(r, &[3], 0, u64::MAX, &mut l);
        assert!(d.stats.migration_batches.is_empty());
    }

    #[test]
    fn prefetch_uses_two_mb_chunks() {
        let pages = 3 * 512 + 100; // 3 full chunks + a tail
        let (mut d, r) = driver_with_region(pages as u64);
        let mut l = link();
        let end = d.prefetch(r, 0, u64::MAX, &mut l);
        assert!(end > 0);
        assert_eq!(d.stats.prefetch_chunks.len(), 4);
        assert_eq!(d.stats.prefetch_chunks[0], PREFETCH_CHUNK_BYTES);
        assert_eq!(d.stats.prefetch_chunks[3], 100 * PAGE_BYTES);
        assert_eq!(d.region(r).resident_pages(), pages);
    }

    #[test]
    fn oversubscription_evicts_lru() {
        let (mut d, r) = driver_with_region(32);
        let mut l = link();
        let budget = 16 * PAGE_BYTES;
        // Touch pages one by one with the group heuristic disabled by
        // touching non-aligned isolated pages far apart.
        for p in (0..32).step_by(1) {
            d.touch_pages(r, &[p], 0, budget, &mut l);
        }
        assert!(d.resident_bytes() <= budget, "budget must be respected");
        assert!(d.stats.evicted_pages > 0, "eviction must have happened");
        // The protected (most recent) page is still resident.
        assert!(d.region(r).resident_pages() >= 1);
    }

    #[test]
    fn touch_after_eviction_refaults() {
        let (mut d, r) = driver_with_region(64);
        let mut l = link();
        let budget = FAULT_GROUP_BYTES; // one fault group fits
        d.touch_pages(r, &[0], 0, budget, &mut l);
        d.touch_pages(r, &[20], 0, budget, &mut l); // evicts the first group
        let before = d.stats.migration_batches.len();
        d.touch_pages(r, &[0], 0, budget, &mut l);
        assert!(d.stats.migration_batches.len() > before);
    }

    #[test]
    fn stats_summaries() {
        let (mut d, r) = driver_with_region(512);
        let mut l = link();
        d.touch_pages(r, &[0], 0, u64::MAX, &mut l);
        d.touch_pages(r, &[400], 0, u64::MAX, &mut l);
        assert_eq!(d.stats.batch_min_bytes(), FAULT_GROUP_BYTES);
        assert!(d.stats.batch_avg_bytes() > 0.0);
        assert!(d.stats.batch_max_bytes() <= MAX_BATCH_BYTES);
    }

    #[test]
    fn invalidate_region_returns_only_its_bytes() {
        let mut d = UmDriver::new();
        let a = d.add_region(UmRegion::new(0, 16 * PAGE_WORDS));
        let b = d.add_region(UmRegion::new(16 * PAGE_WORDS, 16 * PAGE_WORDS));
        let mut l = link();
        d.prefetch(a, 0, u64::MAX, &mut l);
        d.prefetch(b, 0, u64::MAX, &mut l);
        let both = d.resident_bytes();
        d.invalidate_region(a);
        assert_eq!(d.resident_bytes(), both / 2, "only region a's bytes freed");
        assert_eq!(d.region(a).resident_pages(), 0);
        assert_eq!(d.region(b).resident_pages(), 16);
        // Idempotent: a second invalidation frees nothing more.
        d.invalidate_region(a);
        assert_eq!(d.resident_bytes(), both / 2);
    }

    #[test]
    fn tight_budget_fault_event_keeps_all_its_batches() {
        // Regression for the uk-2006 double-charge anomaly: one fault event
        // produces two batches under a budget that fits exactly one. The
        // second batch's eviction pass used to reclaim the first batch's
        // just-migrated pages (only the current batch was protected), so the
        // kernel re-faulted data whose arrival it had already paid for.
        let (mut d, r) = driver_with_region(64);
        let mut l = link();
        // Budget fits ONE batch: batch 2's make_room must look for victims,
        // and batch 1's pages are the only resident ones. Protected, the
        // budget is simply exceeded for the event — never a self-eviction.
        let budget = FAULT_GROUP_BYTES;
        let t = d.touch_pages(r, &[16, 32], 0, budget, &mut l);
        assert!(t > 0);
        assert_eq!(d.stats.migration_batches.len(), 2, "two disjoint batches");
        assert_eq!(d.stats.evicted_pages, 0, "batch 2 must not evict batch 1");
        // Both faulted pages are on-device after the event that charged them.
        let before = d.stats.migration_batches.len();
        let t2 = d.touch_pages(r, &[16, 32], t, budget, &mut l);
        assert_eq!(t2, t, "re-touch is free: no double charge");
        assert_eq!(d.stats.migration_batches.len(), before);
    }

    #[test]
    fn prefetch_range_targets_only_the_range() {
        let (mut d, r) = driver_with_region(64);
        let mut l = link();
        let end = d.prefetch_range(r, 16, 31, 0, u64::MAX, &mut l);
        assert!(end > 0);
        assert_eq!(d.region(r).resident_pages(), 16);
        assert_eq!(d.stats.prefetched_bytes, 16 * PAGE_BYTES);
        // Idempotent once resident: no new chunk, no time.
        let chunks = d.stats.prefetch_chunks.len();
        let end2 = d.prefetch_range(r, 16, 31, end, u64::MAX, &mut l);
        assert_eq!(end2, end);
        assert_eq!(d.stats.prefetch_chunks.len(), chunks);
    }

    #[test]
    fn invalidate_pages_frees_only_the_range() {
        let (mut d, r) = driver_with_region(32);
        let mut l = link();
        d.prefetch(r, 0, u64::MAX, &mut l);
        assert_eq!(d.region(r).resident_pages(), 32);
        let freed = d.invalidate_pages(r, 8, 15);
        assert_eq!(freed, 8 * PAGE_BYTES);
        assert_eq!(d.region(r).resident_pages(), 24);
        assert_eq!(d.resident_bytes(), 24 * PAGE_BYTES);
        // Idempotent.
        assert_eq!(d.invalidate_pages(r, 8, 15), 0);
    }

    #[test]
    fn prefetch_respects_budget_via_eviction() {
        let pages = 1024u64; // 4 MiB region
        let (mut d, r) = driver_with_region(pages);
        let mut l = link();
        let budget = 2 * 1024 * 1024; // half fits
        d.prefetch(r, 0, budget, &mut l);
        assert!(d.resident_bytes() <= budget);
        assert!(d.stats.evicted_pages > 0);
    }

    #[test]
    fn empty_region_and_empty_ranges_are_noops() {
        // `alloc_unified(0)` is reachable through the public API; prefetch
        // and invalidate used to compute `n_pages - 1` on it.
        let mut d = UmDriver::new();
        let empty = d.add_region(UmRegion::new(0, 0));
        let full = d.add_region(UmRegion::new(0, 8 * PAGE_WORDS));
        let mut l = link();
        assert_eq!(d.prefetch(empty, 7, u64::MAX, &mut l), 7);
        assert_eq!(d.prefetch_range(empty, 0, 3, 7, u64::MAX, &mut l), 7);
        assert_eq!(d.invalidate_pages(empty, 0, 3), 0);
        d.invalidate_region(empty);
        // A range starting past the end of a non-empty region, or inverted.
        assert_eq!(d.prefetch_range(full, 8, 20, 7, u64::MAX, &mut l), 7);
        assert_eq!(d.prefetch_range(full, 5, 2, 7, u64::MAX, &mut l), 7);
        assert_eq!(d.invalidate_pages(full, 8, 20), 0);
        assert_eq!(d.invalidate_pages(full, 5, 2), 0);
        assert!(l.timeline.spans().is_empty() && d.stats == UmStats::default());
        d.check_invariants();
    }

    impl UmDriver {
        /// `(resident, arrival, last_access)` of every page, region by region.
        fn page_table(&self) -> Vec<Vec<(bool, Ns, u64)>> {
            let state = |p: &PageState| (p.resident, p.arrival, p.last_access);
            let rows = self.regions.iter();
            rows.map(|r| r.pages.iter().map(state).collect()).collect()
        }
    }

    /// The driver and the scan-and-sort oracle, fed the same operations.
    struct Pair {
        new: UmDriver,
        old: oracle::UmDriver,
        link_new: PcieLink,
        link_old: PcieLink,
        /// Pages per region.
        sizes: Vec<usize>,
        now: Ns,
    }

    impl Pair {
        /// Regions of the given lengths in words, laid out back to back.
        fn new(lens_words: &[u64]) -> Self {
            let mut pair = Pair {
                new: UmDriver::new(),
                old: oracle::UmDriver::new(),
                link_new: link(),
                link_old: link(),
                sizes: Vec::new(),
                now: 0,
            };
            let mut start = 0u64;
            for &len in lens_words {
                pair.new.add_region(UmRegion::new(start, len));
                pair.old.add_region(oracle::UmRegion::new(start, len));
                pair.sizes.push(len.div_ceil(PAGE_WORDS) as usize);
                start += len.div_ceil(PAGE_WORDS) * PAGE_WORDS;
            }
            pair
        }

        fn touch(&mut self, r: usize, pages: &[usize], budget: u64) {
            let (now, ln, lo) = (self.now, &mut self.link_new, &mut self.link_old);
            let t = self.new.touch_pages(r, pages, now, budget, ln);
            assert_eq!(t, self.old.touch_pages(r, pages, now, budget, lo));
            self.now = t;
        }

        fn prefetch_range(&mut self, r: usize, first: usize, last: usize, budget: u64) {
            let (now, ln, lo) = (self.now, &mut self.link_new, &mut self.link_old);
            let t = self.new.prefetch_range(r, first, last, now, budget, ln);
            assert_eq!(t, self.old.prefetch_range(r, first, last, now, budget, lo));
        }

        fn invalidate_pages(&mut self, r: usize, first: usize, last: usize) {
            let freed = self.new.invalidate_pages(r, first, last);
            assert_eq!(freed, self.old.invalidate_pages(r, first, last));
        }

        fn invalidate_region(&mut self, r: usize) {
            self.new.invalidate_region(r);
            self.old.invalidate_region(r);
        }

        fn invalidate_all(&mut self) {
            self.new.invalidate_all();
            self.old.invalidate_all();
        }

        /// Identical page tables (residency, arrival, LRU stamp), counters,
        /// statistics and link timeline, span for span.
        fn assert_same(&self) {
            assert_eq!(self.new.page_table(), self.old.page_table());
            assert_eq!(self.new.resident_bytes(), self.old.resident_bytes());
            assert_eq!(self.new.stats, self.old.stats);
            assert_eq!(
                self.link_new.timeline.spans(),
                self.link_old.timeline.spans()
            );
            for (r, &n) in self.sizes.iter().enumerate() {
                let resident = (0..n).filter(|&p| self.new.region(r).page_resident(p));
                assert_eq!(self.new.region(r).resident_pages(), resident.count());
            }
            self.new.check_invariants();
        }
    }

    #[test]
    fn lazy_index_matches_oracle_across_stamp_resets_and_reprefetch() {
        // Two 32-page regions under a 24-page budget.
        let mut pair = Pair::new(&[32 * PAGE_WORDS, 32 * PAGE_WORDS]);
        let budget = 24 * PAGE_BYTES;
        let resident = |pair: &Pair, r: usize, p: usize| pair.new.region(r).page_resident(p);
        pair.prefetch_range(0, 0, 15, budget); // 16 pages, stamps stay 0
        pair.touch(1, &[0], budget); // one fault group: the budget is full
        pair.touch(0, &[12, 13], budget); // resident: stamps move, index does not
        pair.touch(1, &[20], budget); // evicts region 0's pages 0..8, stamp 0
        pair.assert_same();
        assert!(!resident(&pair, 0, 7) && resident(&pair, 0, 8));
        // Evicted pages are prefetched back with their old stamp 0; the
        // victims are the other stamp-0 pages, skipping touched 12 and 13.
        pair.prefetch_range(0, 0, 7, budget);
        pair.assert_same();
        assert!(resident(&pair, 0, 0) && !resident(&pair, 0, 11) && resident(&pair, 0, 12));
        // invalidate_pages keeps stamps (their entries stay behind, lazily):
        // re-prefetched, region 1's pages 0..8 still carry stamp 1.
        pair.invalidate_pages(1, 0, 7);
        pair.prefetch_range(1, 0, 7, budget);
        pair.touch(0, &[30], budget);
        pair.assert_same();
        // invalidate_region zeroes them: re-prefetched, pages 4..12 are the
        // first victims again, in page order, ahead of region 0's residents.
        pair.invalidate_region(1);
        pair.prefetch_range(1, 4, 11, budget);
        pair.touch(1, &[31], budget);
        pair.assert_same();
        assert!(!resident(&pair, 1, 5) && resident(&pair, 1, 6) && resident(&pair, 0, 12));
        // A multi-batch event under a one-group budget overflows it with
        // nothing but its own protected pages.
        pair.invalidate_all();
        pair.touch(0, &[0, 8, 31], FAULT_GROUP_BYTES);
        pair.assert_same();
        assert!(pair.new.resident_bytes() > FAULT_GROUP_BYTES);
    }

    #[test]
    fn differential_random_ops_match_scan_and_sort_oracle() {
        for case in 0..300u64 {
            let mut rng = Rng(case);
            // 1-3 regions of 1-160 pages, the last page of each ragged.
            let lens: Vec<u64> = (0..1 + rng.below(3))
                .map(|_| (1 + rng.below(160)) as u64 * PAGE_WORDS - rng.below(1000) as u64)
                .collect();
            let mut pair = Pair::new(&lens);
            let total: u64 = pair.sizes.iter().map(|&n| n as u64 * PAGE_BYTES).sum();
            // From one fault group (a multi-batch event overflows it) through
            // fractions of the footprint to unlimited.
            let budgets = [
                FAULT_GROUP_BYTES,
                total / 4,
                total / 2,
                total - PAGE_BYTES,
                u64::MAX,
            ];
            let mut budget = budgets[rng.below(budgets.len())];
            let mut cursor = 0usize;
            for _ in 0..250 {
                let r = rng.below(pair.sizes.len());
                let n = pair.sizes[r];
                // An inclusive range that may be inverted or overrun the end.
                let (a, b) = (rng.below(n + 2), rng.below(n + 40));
                match rng.below(100) {
                    0..=39 => {
                        // Sorted multi-page access (duplicates allowed).
                        let mut pages: Vec<usize> =
                            (0..1 + rng.below(6)).map(|_| rng.below(n)).collect();
                        pages.sort_unstable();
                        pair.touch(r, &pages, budget);
                    }
                    40..=64 => {
                        // Streaming sweep: drives the density escalation.
                        cursor = (cursor + 1 + rng.below(3)) % n;
                        pair.touch(r, &[cursor], budget);
                    }
                    65..=79 => pair.prefetch_range(r, a.min(b), b, budget),
                    80..=83 => pair.prefetch_range(r, 0, usize::MAX, budget),
                    84..=91 => pair.invalidate_pages(r, a, b),
                    92..=95 => pair.invalidate_region(r),
                    96 => pair.invalidate_all(),
                    // Explicit allocations move the budget between events.
                    _ => budget = budgets[rng.below(budgets.len())],
                }
                pair.assert_same();
            }
        }
    }
}
