//! Per-SM access recording for the staged launch pipeline.
//!
//! A launch does not probe the cache hierarchy while its warps execute: so
//! that the cache replay of earlier blocks can overlap the recording of
//! later ones on a second host thread *without changing a single output
//! byte*, it is split into stages (see DESIGN.md "Host parallelism"). Every
//! block runs all four stages in its SM's queue, which held the SM's block
//! of the previous *wave* (`num_sms` consecutive blocks dealt one per SM
//! from SM 0; the last wave of a grid is ragged), so launch scratch — the
//! [`SmQueue`] arenas `recs`, `sectors`, `zc`, `l2q` and `l2q_sectors` — is
//! the size of a wave, not of the grid:
//!
//! 1. **Record** (block-major order): the block's warps execute
//!    functionally and coalesce as they go. Each lane's word address
//!    becomes its 32-byte sector at once ([`SmQueue::push_words`]), and each
//!    global-memory instruction closes its sectors into one [`AccessRec`]
//!    ([`SmQueue::close`]) — sorted and deduplicated, as
//!    [`crate::coalesce::sectors_for_warp`] defines them.
//! 2. **Residency** (canonical order):
//!    [`crate::system::MemSystem::resolve_access`] replays UM migrations and
//!    zero-copy classification access by access.
//! 3. **L1 drain** ([`drain_l1`], per SM): each SM's private L1 —
//!    invalidated at launch start by an O(1) [`Cache::flush`], not cleared,
//!    and carried from wave to wave — is probed over its own queue; sectors
//!    that miss are staged as [`L2Work`].
//! 4. **L2/DRAM drain** (canonical order): the shared L2 is probed with
//!    each block's [`L2Work`] in turn.
//!
//! A queue holds one block at a time and blocks run in index order, which
//! is the canonical (block-major) order, so no stage needs an order log.
//! Stages 1–2 touch the memory system and stages 3–4 only the caches, so
//! the two groups can run on different blocks at once; each group sees the
//! same access sequence as a launch that staged the whole grid, so every
//! counter, span, and sanitizer finding is byte-identical at any thread
//! count and any grid size.
//!
//! All buffers are flat arenas (`Vec`s of plain data indexed by ranges),
//! cleared between blocks with their capacity kept, so no stage allocates
//! once a launch's widest wave has warmed them. The raw-address arena
//! `addrs` with [`SmQueue::commit`] and [`SmQueue::coalesce`] is a shim for
//! the synthetic coalesce probe of the repository benchmark
//! (`mem.smqueue_coalesce_msectors_per_s`, which therefore times only that
//! shim); a launch never fills it.

use crate::cache::Cache;
use crate::coalesce::sector_of_word;
use crate::system::RegionId;
use std::ops::Range;

/// What a recorded access does to the cache hierarchy. Loads allocate in
/// L1; stores and atomics are write-through L2-allocate (Pascal global
/// stores bypass L1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeOp {
    Load,
    Store,
    Atomic,
}

/// One recorded global-memory instruction: a range of sorted, unique
/// sector IDs in its queue's `sectors` arena.
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

/// The access being recorded: its sectors so far, at the tail of the
/// queue's `sectors` arena from `start`.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    start: usize,
    /// The run's last sector plus one; 0 while it is empty, so the first
    /// sector neither repeats nor descends.
    next: u64,
    /// Whether some sector came out below its predecessor.
    descended: bool,
}

impl Run {
    /// Appends `new` sectors to the run in `sectors`, dropping each one
    /// equal to its predecessor (a lane's consecutive words, a dense warp's
    /// neighbouring lanes). They are written into the arena in one pass and
    /// compacted in place, which keeps the loop clear of a per-sector
    /// `Vec::push`.
    #[inline]
    fn push(&mut self, sectors: &mut Vec<u64>, new: impl Iterator<Item = u64>) {
        let from = sectors.len();
        sectors.extend(new);
        let (mut next, mut descended, mut kept) = (self.next, self.descended, from);
        for i in from..sectors.len() {
            let key = sectors[i] + 1;
            if key != next {
                descended |= key < next;
                sectors[kept] = sectors[i];
                kept += 1;
                next = key;
            }
        }
        sectors.truncate(kept);
        (self.next, self.descended) = (next, descended);
    }

    /// Ends the run and returns its range in `sectors`. A run that came out
    /// ascending is already sorted and unique; only the others are sorted
    /// and deduplicated, in place.
    fn seal(&mut self, sectors: &mut Vec<u64>) -> (usize, usize) {
        let start = self.start;
        if self.descended {
            let run = &mut sectors[start..];
            run.sort_unstable();
            let mut kept = 1;
            for i in 1..run.len() {
                if run[i] != run[kept - 1] {
                    run[kept] = run[i];
                    kept += 1;
                }
            }
            sectors.truncate(start + kept);
        }
        *self = Run {
            start: sectors.len(),
            ..Run::default()
        };
        (start, sectors.len() - start)
    }
}

/// One SM's recorded accesses of one block and the per-SM results of the
/// stages that replay them. Cleared (capacity kept) by the SM's next block.
#[derive(Debug, Default)]
pub struct SmQueue {
    /// Raw word addresses of the accesses [`SmQueue::commit`] appended: the
    /// benchmark probe's input, never filled by a launch.
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
    run: Run,
    /// Each committed access's range in `addrs`, one per [`AccessRec`].
    addr_runs: Vec<Range<usize>>,
}

impl SmQueue {
    /// Empties every arena, keeping capacity for the next wave.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.addr_runs.clear();
        self.recs.clear();
        self.sectors.clear();
        self.zc.clear();
        self.l2q.clear();
        self.l2q_sectors.clear();
        self.stall = 0;
        self.l1_requests = 0;
        self.l1_hits = 0;
        self.run = Run::default();
    }

    /// Adds the sectors of word addresses `words` to the access being
    /// recorded.
    #[inline]
    pub fn push_words(&mut self, words: &[u64]) {
        let new = words.iter().map(|&w| sector_of_word(w));
        self.run.push(&mut self.sectors, new);
    }

    /// Adds the sectors of the `len` consecutive words from word address
    /// `first` (one lane's rows of a burst group) to the access being
    /// recorded: the same sectors [`SmQueue::push_words`] adds for those
    /// words.
    #[inline]
    pub fn push_span(&mut self, first: u64, len: u64) {
        if len > 0 {
            let new = sector_of_word(first)..=sector_of_word(first + len - 1);
            self.run.push(&mut self.sectors, new);
        }
    }

    /// Closes the sectors pushed since the last close into one
    /// [`AccessRec`]. An access with no sector records nothing; returns
    /// whether one was recorded.
    pub fn close(&mut self, region: RegionId, op: PipeOp, burst: bool, charge: bool) -> bool {
        let (sec_start, sec_len) = self.run.seal(&mut self.sectors);
        if sec_len > 0 {
            self.recs.push(AccessRec {
                region,
                op,
                burst,
                charge,
                sec_start,
                sec_len,
            });
        }
        sec_len > 0
    }

    /// Appends one access whose word addresses the caller pushed onto
    /// `addrs` from `addr_start`; [`SmQueue::coalesce`] maps them to
    /// sectors. The benchmark probe's way of filling a queue.
    pub fn commit(
        &mut self,
        region: RegionId,
        op: PipeOp,
        burst: bool,
        charge: bool,
        addr_start: usize,
    ) {
        self.addr_runs.push(addr_start..self.addrs.len());
        self.recs.push(AccessRec {
            region,
            op,
            burst,
            charge,
            sec_start: 0,
            sec_len: 0,
        });
    }

    /// Rebuilds `sectors` from the committed accesses' `addrs` through the
    /// same run builder a warp records with (an access with no address
    /// keeps an empty range), and sizes `zc` to match.
    pub fn coalesce(&mut self) {
        self.sectors.clear();
        self.run = Run::default();
        for i in 0..self.recs.len() {
            let words = &self.addrs[self.addr_runs[i].clone()];
            let new = words.iter().map(|&w| sector_of_word(w));
            self.run.push(&mut self.sectors, new);
            let (sec_start, sec_len) = self.run.seal(&mut self.sectors);
            self.recs[i].sec_start = sec_start;
            self.recs[i].sec_len = sec_len;
        }
        self.zc.clear();
        self.zc.resize(self.sectors.len(), false);
    }
}

/// The definition every recorded sector run is checked against: each
/// access's word addresses mapped to sectors, sorted and deduplicated, laid
/// end to end. Returns the sectors and each access's `(start, len)` in
/// them. The differential oracle of eta-mem's and eta-sim's tests.
pub fn coalesce_by_sort<'a>(
    accesses: impl IntoIterator<Item = &'a [u64]>,
) -> (Vec<u64>, Vec<(usize, usize)>) {
    let mut sectors = Vec::new();
    let mut ranges = Vec::new();
    for words in accesses {
        let mut run: Vec<u64> = words.iter().map(|&a| sector_of_word(a)).collect();
        run.sort_unstable();
        run.dedup();
        ranges.push((sectors.len(), run.len()));
        sectors.extend(run);
    }
    (sectors, ranges)
}

/// Stage 3: replays one SM's queue against its private L1 — per access:
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

    /// A queue recorded the way a warp records: every access's words
    /// pushed, then closed.
    fn queue_with(recs: &[(PipeOp, bool, bool, &[u64])]) -> SmQueue {
        let mut q = SmQueue::default();
        for &(op, burst, charge, words) in recs {
            q.push_words(words);
            assert!(q.close(0, op, burst, charge));
        }
        q.zc.resize(q.sectors.len(), false);
        q
    }

    #[test]
    fn close_sorts_and_dedups_per_access() {
        let q = queue_with(&[
            (PipeOp::Load, false, true, &[80, 0, 80, 9, 8, 1, 200, 0]),
            (PipeOp::Store, false, false, &[17, 16]),
        ]);
        assert_eq!(q.recs[0].sec_len, 4);
        assert_eq!(&q.sectors[..4], &[0, 1, 10, 25]);
        assert_eq!(q.recs[1].sec_start, 4);
        assert_eq!(&q.sectors[4..], &[2]);
        assert!(q.addrs.is_empty(), "recording keeps no raw address");
    }

    #[test]
    fn an_empty_access_records_nothing() {
        let mut q = SmQueue::default();
        assert!(!q.close(0, PipeOp::Load, false, true));
        q.push_words(&[]);
        assert!(!q.close(0, PipeOp::Load, false, true));
        q.push_words(&[40]);
        assert!(q.close(0, PipeOp::Load, false, true));
        assert!(!q.close(0, PipeOp::Load, true, false));
        assert_eq!(q.recs.len(), 1);
        assert_eq!((q.recs[0].sec_start, q.recs[0].sec_len), (0, 1));
    }

    /// One seeded access shape: dense, strided, reversed, few sectors with
    /// many repeats, a gather, or a burst group of four words per lane.
    fn access_words(rng: &mut Rng) -> Vec<u64> {
        let base = rng.below(1 << 20) as u64;
        let mut words: Vec<u64> = match rng.below(7) {
            // Dense and strided ascending warps.
            0 => (0..32).map(|l| base + l).collect(),
            1 => (0..32).map(|l| base + 8 * l).collect(),
            2 => (0..32).rev().map(|l| base + 3 * l).collect(),
            // Few sectors, many repeats, no order.
            3 => (0..32).map(|_| base + rng.below(24) as u64).collect(),
            // A gather: anywhere.
            4 => (0..rng.below(33))
                .map(|_| rng.below(1 << 20) as u64)
                .collect(),
            // A burst group: four consecutive words per lane, the lanes in
            // ascending or in arbitrary order.
            5 => (0..128).map(|i| base + (i / 4) * 16 + i % 4).collect(),
            _ => (0..32)
                .flat_map(|_| {
                    let lane = rng.below(1 << 12) as u64 * 4;
                    (0..4).map(move |r| lane + r)
                })
                .collect(),
        };
        // Every fifth access loses its tail; some lose everything.
        if rng.below(5) == 0 {
            words.truncate(rng.below(3));
        }
        words
    }

    #[test]
    fn coalesce_matches_per_access_sort_and_dedup() {
        for case in 0..200u64 {
            let mut rng = Rng(case);
            let accesses: Vec<Vec<u64>> =
                (0..rng.below(40)).map(|_| access_words(&mut rng)).collect();
            let (sectors, ranges) = coalesce_by_sort(accesses.iter().map(Vec::as_slice));

            // The probe shim: raw addresses, then one coalesce pass.
            let mut q = SmQueue::default();
            for words in &accesses {
                let start = q.addrs.len();
                q.addrs.extend_from_slice(words);
                q.commit(0, PipeOp::Load, false, true, start);
            }
            q.coalesce();
            assert_eq!(q.sectors, sectors, "case {case}");
            let got: Vec<_> = q.recs.iter().map(|r| (r.sec_start, r.sec_len)).collect();
            assert_eq!(got, ranges, "case {case}");
            assert_eq!(q.zc.len(), sectors.len(), "case {case}");
            // A second run over the same records starts from a clean arena.
            q.coalesce();
            assert_eq!(q.sectors, sectors, "case {case}, again");

            // Recording: the same runs, pushed in pieces of any size (a
            // burst group pushes lane by lane) and closed as they come; an
            // access with no address leaves no record.
            let mut q = SmQueue::default();
            for words in &accesses {
                let mut rest = &words[..];
                while !rest.is_empty() {
                    let (piece, tail) = rest.split_at(1 + rng.below(rest.len()));
                    q.push_words(piece);
                    rest = tail;
                }
                q.close(0, PipeOp::Load, false, true);
            }
            assert_eq!(q.sectors, sectors, "case {case}, recorded");
            let nonempty: Vec<_> = ranges.iter().copied().filter(|r| r.1 > 0).collect();
            let got: Vec<_> = q.recs.iter().map(|r| (r.sec_start, r.sec_len)).collect();
            assert_eq!(got, nonempty, "case {case}, recorded");
        }
    }

    #[test]
    fn a_span_adds_the_sectors_of_its_words() {
        let mut rng = Rng(7);
        for _ in 0..500 {
            let (mut by_span, mut by_words) = (SmQueue::default(), SmQueue::default());
            for _ in 0..1 + rng.below(6) {
                let (first, len) = (rng.below(64) as u64, rng.below(13) as u64);
                by_span.push_span(first, len);
                by_words.push_words(&(first..first + len).collect::<Vec<_>>());
            }
            by_span.close(0, PipeOp::Load, true, true);
            by_words.close(0, PipeOp::Load, true, true);
            assert_eq!(by_span.sectors, by_words.sectors);
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
        let cap = q.sectors.capacity();
        q.clear();
        assert!(q.recs.is_empty() && q.sectors.is_empty() && q.zc.is_empty());
        assert_eq!((q.stall, q.l1_requests, q.l1_hits), (0, 0, 0));
        assert_eq!(q.sectors.capacity(), cap);
        // The next access starts a fresh run at the arena's start.
        q.push_words(&[8, 0]);
        assert!(q.close(0, PipeOp::Load, false, true));
        assert_eq!(q.sectors, [0, 1]);
        assert_eq!((q.recs[0].sec_start, q.recs[0].sec_len), (0, 2));
    }
}
