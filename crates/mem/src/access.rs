//! Per-SM access recording for the staged launch pipeline.
//!
//! A launch does not probe the cache hierarchy while its warps execute: so
//! that the cache replay of earlier blocks can overlap the recording of
//! later ones on a second host thread *without changing a single output
//! byte*, it is split into stages (see DESIGN.md "Host parallelism"). Every
//! block runs all five stages in its SM's queue, which held the SM's block
//! of the previous *wave* (`num_sms` consecutive blocks dealt one per SM
//! from SM 0; the last wave of a grid is ragged), so launch scratch — the
//! [`SmQueue`] arenas — is the size of a wave, not of the grid:
//!
//! 1. **Record** (block-major order): the block's warps execute
//!    functionally and append one [`AccessRec`] per global-memory
//!    instruction to their SM's [`SmQueue`].
//! 2. **Coalesce** ([`SmQueue::coalesce`], per SM): raw lane word
//!    addresses become sorted, deduplicated 32-byte sector IDs.
//! 3. **Residency** (canonical order):
//!    [`crate::system::MemSystem::resolve_access`] replays UM migrations and
//!    zero-copy classification access by access.
//! 4. **L1 drain** ([`drain_l1`], per SM): each SM's private L1 —
//!    invalidated at launch start by an O(1) [`Cache::flush`], not cleared,
//!    and carried from wave to wave — is probed over its own queue; sectors
//!    that miss are staged as [`L2Work`].
//! 5. **L2/DRAM drain** (canonical order): the shared L2 is probed with
//!    each block's [`L2Work`] in turn.
//!
//! A queue holds one block at a time and blocks run in index order, which
//! is the canonical (block-major) order, so no stage needs an order log.
//! Stages 1–3 touch the memory system and stages 4–5 only the caches, so
//! the two groups can run on different blocks at once; each group sees the
//! same access sequence as a launch that staged the whole grid, so every
//! counter, span, and sanitizer finding is byte-identical at any thread
//! count and any grid size.
//!
//! All buffers are flat arenas (`Vec`s of plain data indexed by ranges),
//! cleared between blocks with their capacity kept, so no stage allocates
//! once a launch's widest wave has warmed them.

use crate::cache::Cache;
use crate::coalesce::sector_of_word;
use crate::system::RegionId;

/// What a recorded access does to the cache hierarchy. Loads allocate in
/// L1; stores and atomics are write-through L2-allocate (Pascal global
/// stores bypass L1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeOp {
    Load,
    Store,
    Atomic,
}

/// One recorded global-memory instruction: an address range in the queue's
/// `addrs` arena (filled at record time) and a sector range in its
/// `sectors` arena (filled by [`SmQueue::coalesce`]).
#[derive(Debug, Clone, Copy)]
pub struct AccessRec {
    pub region: RegionId,
    pub op: PipeOp,
    /// Burst (pipelined) issue: cache clocks advance by the access's own
    /// insertions instead of the interleave-multiplied amount.
    pub burst: bool,
    /// Whether the access's worst sector latency is charged as warp stall
    /// (loads and the first non-empty burst group; stores/atomics charge
    /// constant costs at record time instead).
    pub charge: bool,
    pub addr_start: usize,
    pub addr_len: usize,
    pub sec_start: usize,
    pub sec_len: usize,
}

/// An access whose sectors missed L1 (or bypass it) and must visit the
/// shared L2 in canonical order. `worst_c` carries the L1-stage latency
/// floor so the final stall charge is `max(worst_c, worst_l2_dram)`.
#[derive(Debug, Clone, Copy)]
pub struct L2Work {
    /// Index of the owning [`AccessRec`] in the queue.
    pub rec: usize,
    /// Range into the queue's `l2q_sectors` arena.
    pub sec_start: usize,
    pub sec_len: usize,
    pub worst_c: u64,
}

/// Latency constants the L1 drain stage needs (a plain-data subset of the
/// GPU config, so eta-mem does not depend on eta-sim).
#[derive(Debug, Clone, Copy)]
pub struct L1DrainParams {
    pub l1_latency: u64,
    pub zero_copy_latency: u64,
    /// Co-resident warps per SM: the L1 interleave factor for non-burst
    /// accesses.
    pub interleave: u64,
}

/// One SM's recorded accesses of one block and the per-SM results of the
/// stages that replay them. Cleared (capacity kept) by the SM's next block.
#[derive(Debug, Default)]
pub struct SmQueue {
    /// Raw active-lane word addresses, one range per [`AccessRec`].
    pub addrs: Vec<u64>,
    pub recs: Vec<AccessRec>,
    /// Coalesced sector IDs, one range per [`AccessRec`].
    pub sectors: Vec<u64>,
    /// Per-sector zero-copy flags, parallel to `sectors` (filled by the
    /// residency stage).
    pub zc: Vec<bool>,
    /// Accesses with L2-bound sectors, in record order.
    pub l2q: Vec<L2Work>,
    /// Sectors bound for the shared L2, one range per [`L2Work`].
    pub l2q_sectors: Vec<u64>,
    /// Stall cycles charged by the L1 stage (accesses that never reach L2).
    pub stall: u64,
    pub l1_requests: u64,
    pub l1_hits: u64,
}

impl SmQueue {
    /// Empties every arena, keeping capacity for the next wave.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.recs.clear();
        self.sectors.clear();
        self.zc.clear();
        self.l2q.clear();
        self.l2q_sectors.clear();
        self.stall = 0;
        self.l1_requests = 0;
        self.l1_hits = 0;
    }

    /// Appends one access; `addr_start` marks where its addresses begin in
    /// `addrs` (the caller pushed them just before).
    pub fn commit(
        &mut self,
        region: RegionId,
        op: PipeOp,
        burst: bool,
        charge: bool,
        addr_start: usize,
    ) {
        self.recs.push(AccessRec {
            region,
            op,
            burst,
            charge,
            addr_start,
            addr_len: self.addrs.len() - addr_start,
            sec_start: 0,
            sec_len: 0,
        });
    }

    /// Stage 2: coalesces every access's raw addresses into sorted,
    /// deduplicated sector IDs — the map of
    /// [`crate::coalesce::sectors_for_warp`], over all of a burst group's
    /// (lane, row) addresses at once. Per-SM state only.
    ///
    /// One pass maps addresses to sectors straight into the arena, dropping
    /// a sector equal to its predecessor (a lane's consecutive words, a dense
    /// warp's neighbouring lanes). A run that comes out ascending is already
    /// the answer; only the others are sorted and deduplicated, in place.
    pub fn coalesce(&mut self) {
        self.sectors.clear();
        for rec in &mut self.recs {
            let start = self.sectors.len();
            let mut ascending = true;
            let mut last = None;
            for &addr in &self.addrs[rec.addr_start..rec.addr_start + rec.addr_len] {
                let sec = sector_of_word(addr);
                if last != Some(sec) {
                    // `None < Some(_)`: the first sector never descends.
                    ascending &= last < Some(sec);
                    self.sectors.push(sec);
                    last = Some(sec);
                }
            }
            if !ascending {
                let run = &mut self.sectors[start..];
                run.sort_unstable();
                let mut kept = 1;
                for i in 1..run.len() {
                    if run[i] != run[kept - 1] {
                        run[kept] = run[i];
                        kept += 1;
                    }
                }
                self.sectors.truncate(start + kept);
            }
            rec.sec_start = start;
            rec.sec_len = self.sectors.len() - start;
        }
        self.zc.clear();
        self.zc.resize(self.sectors.len(), false);
    }
}

/// Stage 4: replays one SM's queue against its private L1 — per access:
/// zero-copy sectors skip the caches and raise the latency floor; load
/// sectors probe L1 and stage misses for L2; store/atomic sectors bypass
/// L1 entirely; then the L1 clock advances by the access's insertions
/// (interleave-multiplied unless burst).
///
/// Accesses with L2-bound sectors defer their stall charge to the L2
/// drain (the final charge is `max(worst_c, worst_l2_dram)`); accesses
/// fully absorbed here charge `worst_c` into `queue.stall` directly.
pub fn drain_l1(queue: &mut SmQueue, l1: &mut Cache, p: &L1DrainParams) {
    for i in 0..queue.recs.len() {
        let rec = queue.recs[i];
        let mut worst_c = p.l1_latency;
        let mut l1_inserted = 0u64;
        let l2_start = queue.l2q_sectors.len();
        for k in rec.sec_start..rec.sec_start + rec.sec_len {
            let sec = queue.sectors[k];
            if queue.zc[k] {
                worst_c = worst_c.max(p.zero_copy_latency);
                continue;
            }
            match rec.op {
                PipeOp::Load => {
                    l1_inserted += 1;
                    queue.l1_requests += 1;
                    if l1.access(sec) {
                        queue.l1_hits += 1;
                    } else {
                        queue.l2q_sectors.push(sec);
                    }
                }
                PipeOp::Store | PipeOp::Atomic => {
                    queue.l2q_sectors.push(sec);
                }
            }
        }
        if rec.burst {
            l1.tick(l1_inserted);
        } else {
            l1.tick(p.interleave * l1_inserted);
        }
        let sec_len = queue.l2q_sectors.len() - l2_start;
        if sec_len > 0 {
            queue.l2q.push(L2Work {
                rec: i,
                sec_start: l2_start,
                sec_len,
                worst_c,
            });
        } else if rec.charge {
            queue.stall += worst_c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::test_rng::Rng;

    fn queue_with(recs: &[(PipeOp, bool, bool, &[u64])]) -> SmQueue {
        let mut q = SmQueue::default();
        for &(op, burst, charge, addrs) in recs {
            let start = q.addrs.len();
            q.addrs.extend_from_slice(addrs);
            q.commit(0, op, burst, charge, start);
        }
        q.coalesce();
        q
    }

    #[test]
    fn coalesce_sorts_and_dedups_per_access() {
        let q = queue_with(&[
            (PipeOp::Load, false, true, &[80, 0, 80, 9, 8, 1, 200, 0]),
            (PipeOp::Store, false, false, &[17, 16]),
        ]);
        assert_eq!(q.recs[0].sec_len, 4);
        assert_eq!(&q.sectors[..4], &[0, 1, 10, 25]);
        assert_eq!(q.recs[1].sec_start, 4);
        assert_eq!(&q.sectors[4..], &[2]);
        assert_eq!(q.zc.len(), q.sectors.len());
    }

    /// Stage 2 as it was before the one-pass form — every access copied out,
    /// sorted, deduplicated and copied back — kept as the differential
    /// oracle: `(sectors, per-access (sec_start, sec_len))`.
    fn coalesce_by_sort(q: &SmQueue) -> (Vec<u64>, Vec<(usize, usize)>) {
        let mut sectors = Vec::new();
        let mut ranges = Vec::new();
        for rec in &q.recs {
            let mut run: Vec<u64> = q.addrs[rec.addr_start..rec.addr_start + rec.addr_len]
                .iter()
                .map(|&a| sector_of_word(a))
                .collect();
            run.sort_unstable();
            run.dedup();
            ranges.push((sectors.len(), run.len()));
            sectors.extend(run);
        }
        (sectors, ranges)
    }

    #[test]
    fn coalesce_matches_per_access_sort_and_dedup() {
        for case in 0..200u64 {
            let mut rng = Rng(case);
            let mut q = SmQueue::default();
            for _ in 0..rng.below(40) {
                let start = q.addrs.len();
                let base = rng.below(1 << 20) as u64;
                match rng.below(7) {
                    // Dense and strided ascending warps.
                    0 => q.addrs.extend((0..32).map(|l| base + l)),
                    1 => q.addrs.extend((0..32).map(|l| base + 8 * l)),
                    2 => q.addrs.extend((0..32).rev().map(|l| base + 3 * l)),
                    // Few sectors, many repeats, no order.
                    3 => q.addrs.extend((0..32).map(|_| base + rng.below(24) as u64)),
                    // A gather: anywhere.
                    4 => q
                        .addrs
                        .extend((0..rng.below(33)).map(|_| rng.below(1 << 20) as u64)),
                    // A burst group: four consecutive words per lane, the
                    // lanes in ascending or in arbitrary order.
                    5 => q
                        .addrs
                        .extend((0..128).map(|i| base + (i / 4) * 16 + i % 4)),
                    _ => {
                        for _ in 0..32 {
                            let lane = rng.below(1 << 12) as u64 * 4;
                            q.addrs.extend((0..4).map(|r| lane + r));
                        }
                    }
                }
                // Every fifth access loses its tail; some lose everything.
                if rng.below(5) == 0 {
                    q.addrs.truncate(start + rng.below(3));
                }
                q.commit(0, PipeOp::Load, false, true, start);
            }
            q.coalesce();
            let (sectors, ranges) = coalesce_by_sort(&q);
            assert_eq!(q.sectors, sectors, "case {case}");
            let got: Vec<_> = q.recs.iter().map(|r| (r.sec_start, r.sec_len)).collect();
            assert_eq!(got, ranges, "case {case}");
            assert_eq!(q.zc.len(), sectors.len(), "case {case}");
            // A second run over the same records starts from a clean arena.
            q.coalesce();
            assert_eq!(q.sectors, sectors, "case {case}, again");
        }
    }

    #[test]
    fn drain_l1_splits_hits_from_l2_work() {
        let mut q = queue_with(&[
            (PipeOp::Load, false, true, &[0, 8]), // sectors 0, 1: cold misses
            (PipeOp::Load, false, true, &[0]),    // sector 0 again: L1 hit
            (PipeOp::Store, false, false, &[0]),  // stores bypass L1
        ]);
        let mut l1 = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            ways: 4,
            retention: 1024,
        });
        let p = L1DrainParams {
            l1_latency: 32,
            zero_copy_latency: 2_000,
            interleave: 2,
        };
        drain_l1(&mut q, &mut l1, &p);
        assert_eq!(q.l1_requests, 3);
        assert_eq!(q.l1_hits, 1);
        // Access 0 misses both sectors; access 1 hits and charges inline;
        // access 2 always stages its sector for L2.
        assert_eq!(q.l2q.len(), 2);
        assert_eq!((q.l2q[0].rec, q.l2q[0].sec_len), (0, 2));
        assert_eq!((q.l2q[1].rec, q.l2q[1].sec_len), (2, 1));
        assert_eq!(q.stall, 32, "the L1 hit charges its base latency");
    }

    #[test]
    fn zero_copy_sectors_skip_the_cache_and_raise_the_floor() {
        let mut q = queue_with(&[(PipeOp::Load, false, true, &[0, 8])]);
        q.zc[0] = true;
        q.zc[1] = true;
        let mut l1 = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            ways: 4,
            retention: 1024,
        });
        let p = L1DrainParams {
            l1_latency: 32,
            zero_copy_latency: 2_000,
            interleave: 2,
        };
        drain_l1(&mut q, &mut l1, &p);
        assert_eq!(q.l1_requests, 0);
        assert!(q.l2q.is_empty());
        assert_eq!(q.stall, 2_000);
        assert_eq!(l1.stats().accesses(), 0);
    }

    #[test]
    fn clear_keeps_capacity_and_zeroes_counters() {
        let mut q = queue_with(&[(PipeOp::Load, false, true, &[0, 8, 16])]);
        q.stall = 7;
        q.l1_requests = 3;
        let cap = q.addrs.capacity();
        q.clear();
        assert!(q.addrs.is_empty() && q.recs.is_empty() && q.sectors.is_empty());
        assert_eq!((q.stall, q.l1_requests, q.l1_hits), (0, 0, 0));
        assert_eq!(q.addrs.capacity(), cap);
    }
}
