//! Reference Unified Memory driver for the differential test: the driver as
//! it stood before the victim index, whose `make_room` scans every page of
//! every region, sorts the resident ones by `(last_access, region, page)` and
//! evicts from the front. Kept as it was (own page tables, own allocations
//! per fault) so the test also covers the scratch-buffer reuse and the
//! resident counters of the real driver, not just its eviction order.

use super::{
    UmStats, FAULT_GROUP_BYTES, FAULT_SERVICE_NS, MAX_BATCH_BYTES, PAGE_BYTES, PAGE_WORDS,
    PREFETCH_CHUNK_BYTES,
};
use crate::pcie::PcieLink;
use crate::timeline::SpanKind;
use crate::Ns;

#[derive(Debug, Clone, Copy)]
struct PageState {
    resident: bool,
    /// Link time at which the page's data is available on-device.
    arrival: Ns,
    /// LRU clock of the last GPU access.
    last_access: u64,
}

/// Residency bookkeeping for one unified allocation.
#[derive(Debug, Clone)]
pub struct UmRegion {
    /// Length in words.
    len_words: u64,
    pages: Vec<PageState>,
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
            len_words,
            pages: vec![
                PageState {
                    resident: false,
                    arrival: 0,
                    last_access: 0,
                };
                n_pages
            ],
            last_batch_end: usize::MAX,
            streak: 0,
        }
    }

    fn bytes_of_page(&self, page: usize) -> u64 {
        let start_w = page as u64 * PAGE_WORDS;
        let end_w = (start_w + PAGE_WORDS).min(self.len_words);
        (end_w - start_w) * 4
    }
}

/// The Unified Memory driver state shared by all UM regions of a device.
#[derive(Debug, Clone)]
pub struct UmDriver {
    regions: Vec<UmRegion>,
    /// LRU clock; bumped on every GPU access batch.
    clock: u64,
    resident_bytes: u64,
    pub stats: UmStats,
}

impl UmDriver {
    pub fn new() -> Self {
        UmDriver {
            regions: Vec::new(),
            clock: 0,
            resident_bytes: 0,
            stats: UmStats::default(),
        }
    }

    pub fn add_region(&mut self, region: UmRegion) -> usize {
        self.regions.push(region);
        self.regions.len() - 1
    }

    /// `(resident, arrival, last_access)` of every page, region by region.
    pub fn page_table(&self) -> Vec<Vec<(bool, Ns, u64)>> {
        let state = |p: &PageState| (p.resident, p.arrival, p.last_access);
        let rows = self.regions.iter();
        rows.map(|r| r.pages.iter().map(state).collect()).collect()
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
        let mut missing: Vec<usize> = Vec::new();
        {
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
                    missing.push(p);
                }
            }
        }
        if missing.is_empty() {
            return latest;
        }
        self.stats.faults += missing.len() as u64;

        // Group contiguous missing pages, round each group out to the fault
        // granularity over non-resident neighbours, cap at MAX_BATCH_BYTES.
        let batches = self.plan_batches(region_idx, &missing);
        for &(first, last) in &batches {
            // Only non-resident pages move; planning guarantees this, but
            // recompute defensively so accounting can never drift.
            let bytes: u64 = (first..=last)
                .filter(|&p| !self.regions[region_idx].pages[p].resident)
                .map(|p| self.regions[region_idx].bytes_of_page(p))
                .sum();
            if bytes == 0 {
                continue;
            }
            // Every batch of this fault event is protected from eviction, not
            // just the current one: under a tight budget, a later batch's
            // eviction pass must not reclaim pages an earlier batch of the
            // same event just migrated (the uk-2006 double-charge anomaly —
            // the page's arrival was charged, then it vanished before the
            // kernel read it, so the very next access re-faulted and paid
            // the full migration again).
            self.make_room(region_idx, &batches, bytes, budget_bytes, now, link);
            let (_, end) =
                link.transfer_with_setup(SpanKind::Migration, bytes, now, FAULT_SERVICE_NS);
            let region = &mut self.regions[region_idx];
            for p in first..=last {
                let st = &mut region.pages[p];
                if st.resident {
                    continue;
                }
                st.resident = true;
                st.arrival = end;
                st.last_access = self.clock;
            }
            self.resident_bytes += bytes;
            self.stats.migration_batches.push(bytes);
            self.stats.migrated_bytes += bytes;
            latest = latest.max(end);
        }
        latest
    }

    /// Groups sorted missing pages into `(first, last)` inclusive batches,
    /// applying the density heuristic: each batch near the previous one
    /// doubles the speculative group size, up to [`MAX_BATCH_BYTES`].
    fn plan_batches(&mut self, region_idx: usize, missing: &[usize]) -> Vec<(usize, usize)> {
        let region = &mut self.regions[region_idx];
        let base_group = (FAULT_GROUP_BYTES / PAGE_BYTES) as usize;
        let max_pages = (MAX_BATCH_BYTES / PAGE_BYTES) as usize;
        let n_pages = region.pages.len();

        let mut out: Vec<(usize, usize)> = Vec::new();
        for &p in missing {
            if let Some(&(first, last)) = out.last() {
                if p <= last {
                    continue; // already covered by the previous rounded batch
                }
                if p == last + 1 && (p - first) < max_pages {
                    out.pop();
                    out.push((first, p));
                    continue;
                }
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
            if let Some(&(_, prev_last)) = out.last() {
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
        out
    }

    /// Evicts LRU pages (skipping the `protect`ed inclusive page ranges of
    /// `region_idx`) until `incoming_bytes` fits in the budget.
    fn make_room(
        &mut self,
        region_idx: usize,
        protect: &[(usize, usize)],
        incoming_bytes: u64,
        budget_bytes: u64,
        now: Ns,
        link: &mut PcieLink,
    ) {
        if self.resident_bytes + incoming_bytes <= budget_bytes {
            return;
        }
        let mut to_free = (self.resident_bytes + incoming_bytes).saturating_sub(budget_bytes);
        let mut evicted_bytes = 0u64;
        // One scan collects every evictable page; sorting by last access then
        // gives LRU order without rescanning per victim (heavy
        // oversubscription evicts thousands of pages per call).
        let mut candidates: Vec<(u64, usize, usize)> = Vec::new();
        for (ri, region) in self.regions.iter().enumerate() {
            for (pi, st) in region.pages.iter().enumerate() {
                if !st.resident {
                    continue;
                }
                if ri == region_idx && protect.iter().any(|&(f, l)| (f..=l).contains(&pi)) {
                    continue;
                }
                candidates.push((st.last_access, ri, pi));
            }
        }
        candidates.sort_unstable();
        for (_, ri, pi) in candidates {
            if to_free == 0 {
                break;
            }
            let bytes = self.regions[ri].bytes_of_page(pi);
            self.regions[ri].pages[pi].resident = false;
            self.resident_bytes -= bytes;
            self.stats.evicted_pages += 1;
            evicted_bytes += bytes;
            to_free = to_free.saturating_sub(bytes);
        }
        // If the candidate list ran out first, the budget is simply exceeded.
        if evicted_bytes > 0 {
            // Topology pages are clean on the GPU (graph data is read-only
            // during traversal), so eviction is a cheap unmap, but we still
            // record the event on the timeline for Fig. 4 style accounting.
            link.transfer(SpanKind::Eviction, evicted_bytes / 64, now);
        }
    }

    /// Streams one inclusive page range of a region to the device in 2 MiB
    /// chunks, skipping already-resident pages — a no-op (no span, no stats)
    /// when the whole range is resident, so the adaptive policy can call it
    /// every iteration to keep its prefetch groups healed after evictions.
    pub fn prefetch_range(
        &mut self,
        region_idx: usize,
        first_page: usize,
        last_page: usize,
        now: Ns,
        budget_bytes: u64,
        link: &mut PcieLink,
    ) -> Ns {
        let n_pages = self.regions[region_idx].pages.len();
        let last_page = last_page.min(n_pages - 1);
        let chunk_pages = (PREFETCH_CHUNK_BYTES / PAGE_BYTES) as usize;
        let mut end = now;
        let mut p = first_page;
        while p <= last_page {
            let last = (p + chunk_pages - 1).min(last_page);
            // Skip already-resident prefix/suffix inside the chunk.
            let bytes: u64 = (p..=last)
                .filter(|&q| !self.regions[region_idx].pages[q].resident)
                .map(|q| self.regions[region_idx].bytes_of_page(q))
                .sum();
            if bytes > 0 {
                self.make_room(region_idx, &[(p, last)], bytes, budget_bytes, now, link);
                let (_, chunk_end) = link.transfer(SpanKind::Prefetch, bytes, now);
                let region = &mut self.regions[region_idx];
                for q in p..=last {
                    let st = &mut region.pages[q];
                    if !st.resident {
                        st.resident = true;
                        st.arrival = chunk_end;
                    }
                }
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
        let mut freed = 0u64;
        for (pi, st) in region.pages.iter_mut().enumerate() {
            if st.resident {
                freed += {
                    let start_w = pi as u64 * PAGE_WORDS;
                    let end_w = (start_w + PAGE_WORDS).min(region.len_words);
                    (end_w - start_w) * 4
                };
            }
            st.resident = false;
            st.arrival = 0;
            st.last_access = 0;
        }
        region.last_batch_end = usize::MAX;
        region.streak = 0;
        self.resident_bytes -= freed;
    }

    /// Drops residency of one inclusive page range (the adaptive policy
    /// moving a group to zero-copy: its pages no longer earn their device
    /// bytes). Returns the bytes freed. Unlike [`Self::invalidate_region`]
    /// this leaves the density heuristic state (`last_batch_end`, `streak`)
    /// untouched — the rest of the region keeps demand-faulting normally.
    pub fn invalidate_pages(
        &mut self,
        region_idx: usize,
        first_page: usize,
        last_page: usize,
    ) -> u64 {
        let region = &mut self.regions[region_idx];
        let last_page = last_page.min(region.pages.len() - 1);
        let mut freed = 0u64;
        for pi in first_page..=last_page {
            let st = &mut region.pages[pi];
            if st.resident {
                freed += {
                    let start_w = pi as u64 * PAGE_WORDS;
                    let end_w = (start_w + PAGE_WORDS).min(region.len_words);
                    (end_w - start_w) * 4
                };
            }
            st.resident = false;
            st.arrival = 0;
        }
        self.resident_bytes -= freed;
        freed
    }

    /// Drops all residency (new experiment on the same data).
    pub fn invalidate_all(&mut self) {
        for region in &mut self.regions {
            for st in &mut region.pages {
                st.resident = false;
                st.arrival = 0;
                st.last_access = 0;
            }
            region.last_batch_end = usize::MAX;
            region.streak = 0;
        }
        self.resident_bytes = 0;
        self.clock = 0;
    }
}
