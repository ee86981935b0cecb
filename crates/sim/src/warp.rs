//! Warp-level execution context: the API kernels are written against.
//!
//! A kernel processes one warp per [`crate::kernel::Kernel::run`] call, with
//! explicit 32-lane register arrays and an active-lane mask — the same shape
//! CUDA kernels take after the SIMT transformation. Every global access goes
//! through the coalescer and the cache hierarchy, so divergence, scattered
//! access and reuse cost exactly what they would on hardware:
//!
//! * [`WarpCtx::load`] / [`WarpCtx::store`] — one warp instruction; the 32
//!   lane addresses coalesce into 32 B sector transactions.
//! * [`WarpCtx::load_burst`] — the Shared-Memory-Prefetch access shape: up to
//!   `K` back-to-back loads per lane with pipelined issue. Burst steps
//!   advance the cache-interleaving clock by one instead of the co-resident
//!   warp count, so sector reuse inside the burst survives — the mechanism
//!   behind the paper's Fig. 7.
//! * [`WarpCtx::atomic_add`] / [`WarpCtx::atomic_min`] — lane-serialized
//!   read-modify-write at L2, used for active-set appends and label
//!   relaxation.
//! * [`WarpCtx::load_shared`] / [`WarpCtx::store_shared`] — block-shared
//!   scratchpad at L1 speed with no global traffic.
//!
//! Every kernel builds from the same few lane idioms, written once here:
//! [`row_lanes`] and [`row_index`] walk each lane's run of items one row
//! at a time, [`lane_degrees`] sizes the runs, [`lanes_where`] narrows a
//! mask; [`WarpCtx::load_bounds`] loads a CSR-style `(offsets[v],
//! offsets[v + 1])` pair, [`WarpCtx::append`] reserves and fills a
//! per-lane run of queue slots, and [`WarpCtx::stage_burst`] is Shared
//! Memory Prefetch's burst-to-shared staging. Each issues exactly the warp
//! instructions a kernel would otherwise spell out by hand, in that order
//! and under those masks, and none charges ALU work: that stays at the call
//! site, where each execution model charges it.

use crate::config::{GpuConfig, WARP_SIZE};
use crate::metrics::KernelMetrics;
use crate::sanitizer::Sanitizer;
use eta_mem::access::{PipeOp, SmQueue};
use eta_mem::system::{DSlice, MemSystem};

/// Per-lane register file slice: one `u32` per lane.
pub type Lanes = [u32; WARP_SIZE];

/// A fully-active warp mask.
pub const FULL_MASK: u32 = u32::MAX;

/// The lanes set in `mask`, in ascending order.
#[inline]
pub fn active_lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// The lanes of `mask` for which `pred(lane)` holds.
#[inline]
pub fn lanes_where(mask: u32, mut pred: impl FnMut(usize) -> bool) -> u32 {
    active_lanes(mask).fold(0, |m, lane| m | u32::from(pred(lane)) << lane)
}

/// The lanes of row `j` of a per-lane walk: those with more than `j` items
/// (a lane outside the walk has a count of 0).
#[inline]
pub fn row_lanes(count: &Lanes, j: u32) -> u32 {
    (0..WARP_SIZE).fold(0, |row, lane| row | u32::from(j < count[lane]) << lane)
}

/// Row `j`'s index into each `row` lane's run starting at `base[lane]`:
/// `base[lane] + j`, and 0 on the other lanes.
#[inline]
pub fn row_index(base: &Lanes, j: u32, row: u32) -> Lanes {
    let mut idx = [0u32; WARP_SIZE];
    for lane in active_lanes(row) {
        idx[lane] = base[lane] + j;
    }
    idx
}

/// Each `mask` lane's run length `end - start` (0 on the other lanes) and
/// the longest run.
#[inline]
pub fn lane_degrees(start: &Lanes, end: &Lanes, mask: u32) -> (Lanes, u32) {
    let (mut deg, mut max) = ([0u32; WARP_SIZE], 0);
    for lane in active_lanes(mask) {
        deg[lane] = end[lane].wrapping_sub(start[lane]);
        max = max.max(deg[lane]);
    }
    (deg, max)
}

/// Identity of a warp within a launch.
#[derive(Debug, Clone, Copy)]
pub struct WarpId {
    pub block: u32,
    pub warp_in_block: u32,
    pub threads_per_block: u32,
    pub grid_blocks: u32,
}

/// The rows one [`WarpCtx::load_burst`] read, held in the launch's row
/// arena until the warp finishes; [`WarpCtx::burst_row`] reads them back.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    first: usize,
    rows: u32,
}

impl Burst {
    /// Rows read: the largest `count` over the burst's active lanes.
    pub fn rows(self) -> u32 {
        self.rows
    }
}

/// Mutable execution state for one warp.
///
/// Global accesses are *recorded*, not probed: each appends one access —
/// its lanes' sorted, unique sectors — to the owning SM's queue, and the
/// staged launch pipeline (see [`eta_mem::access`]) replays the wave's
/// queues against residency, L1 and L2. Loads therefore charge their
/// memory stall in the drain stages; stores, atomics and shared accesses
/// charge constant costs here.
pub struct WarpCtx<'a> {
    pub mem: &'a mut MemSystem,
    queue: &'a mut SmQueue,
    /// `queue.recs.len()` when this warp started.
    first_rec: usize,
    shared: &'a mut [u32],
    /// Row arena behind [`Burst`] handles, cleared per warp.
    burst_rows: &'a mut Vec<Lanes>,
    id: WarpId,
    /// Warp instruction count (this warp).
    instructions: u64,
    /// Constant-cost stall cycles charged at record time (this warp).
    stall: u64,
    shared_accesses: u64,
    shared_bank_conflicts: u64,
    /// Active lanes over lane-maskable instructions (divergence numerator).
    lane_ops: u64,
    /// 32 × lane-maskable instructions issued (divergence denominator).
    lane_slots: u64,
    atomics: u64,
    /// Sanitizer sink; `None` unless the device was built with one attached.
    san: Option<&'a mut Sanitizer>,
}

impl<'a> WarpCtx<'a> {
    /// Builds the context of one warp of a launch: global accesses append
    /// to `queue` (its SM's arena); `burst_rows` is launch scratch, emptied
    /// here.
    pub(crate) fn new_recording(
        mem: &'a mut MemSystem,
        queue: &'a mut SmQueue,
        shared: &'a mut [u32],
        burst_rows: &'a mut Vec<Lanes>,
        id: WarpId,
        san: Option<&'a mut Sanitizer>,
    ) -> Self {
        burst_rows.clear();
        WarpCtx {
            mem,
            first_rec: queue.recs.len(),
            queue,
            shared,
            burst_rows,
            id,
            instructions: 0,
            stall: 0,
            shared_accesses: 0,
            shared_bank_conflicts: 0,
            lane_ops: 0,
            lane_slots: 0,
            atomics: 0,
            san,
        }
    }

    // ---- identity --------------------------------------------------------

    pub fn id(&self) -> WarpId {
        self.id
    }

    /// Global thread ID of lane 0.
    fn first_thread(&self) -> u32 {
        self.id.block * self.id.threads_per_block + self.id.warp_in_block * 32
    }

    /// Global thread ID of each lane.
    pub fn thread_ids(&self) -> Lanes {
        let base = self.first_thread();
        let mut out = [0u32; WARP_SIZE];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = base + lane as u32;
        }
        out
    }

    /// Mask of lanes whose global thread ID is below `n_items`.
    pub fn mask_for_items(&self, n_items: u32) -> u32 {
        match n_items.saturating_sub(self.first_thread()) {
            live if live >= WARP_SIZE as u32 => FULL_MASK,
            live => (1 << live) - 1,
        }
    }

    // ---- accounting ------------------------------------------------------

    /// Charges `n` ALU warp instructions (address math, compares, ...).
    /// ALU work carries no lane mask in this API, so it counts fully
    /// active — divergence is measured on the masked memory path.
    pub fn alu(&mut self, n: u64) {
        self.instructions += n;
        self.lane_ops += n * WARP_SIZE as u64;
        self.lane_slots += n * WARP_SIZE as u64;
    }

    /// Tallies one lane-maskable instruction's active lanes into the
    /// warp-execution-efficiency counters.
    #[inline]
    fn count_lanes(&mut self, active: u32) {
        self.lane_ops += active as u64;
        self.lane_slots += WARP_SIZE as u64;
    }

    /// Drains this warp's counters into launch-level accumulators.
    /// Returns `(instructions, stall_cycles)` for per-SM aggregation and the
    /// number of accesses the warp recorded.
    pub fn finish(self, metrics: &mut KernelMetrics) -> (u64, u64, usize) {
        metrics.instructions += self.instructions;
        metrics.mem_stall_cycles += self.stall;
        metrics.shared_accesses += self.shared_accesses;
        metrics.shared_bank_conflicts += self.shared_bank_conflicts;
        metrics.lane_ops += self.lane_ops;
        metrics.lane_slots += self.lane_slots;
        metrics.atomics += self.atomics;
        metrics.warps += 1;
        let recorded = self.queue.recs.len() - self.first_rec;
        (self.instructions, self.stall, recorded)
    }

    // ---- global memory ---------------------------------------------------

    /// Resolves active lanes' element indices to word addresses and records
    /// their sectors as one access of the owning SM's queue. Returns the
    /// effective lane mask (the sanitizer drops out-of-bounds lanes, report-
    /// and-continue, where `DSlice::addr` would otherwise panic) and its
    /// lanes' word addresses, in lane order at the front of the array.
    fn access(&mut self, s: DSlice, idx: &Lanes, mask: u32, op: PipeOp) -> (u32, [u64; WARP_SIZE]) {
        let mask = match self.san.as_deref_mut() {
            Some(san) => san.global(self.id, op, s, idx, None, mask, self.mem),
            None => mask,
        };
        self.count_lanes(mask.count_ones());
        let mut words = [0u64; WARP_SIZE];
        // No active lane coalesces to no sectors: nothing to record.
        if mask == 0 {
            return (mask, words);
        }
        for (slot, lane) in words.iter_mut().zip(active_lanes(mask)) {
            *slot = s.addr(idx[lane] as u64);
        }
        self.queue.push_words(&words[..mask.count_ones() as usize]);
        // Loads charge their worst sector latency once it is known (the
        // L1/L2 drain stages); stores and atomics charge constant costs at
        // the call sites below, so their records charge nothing.
        let charge = op == PipeOp::Load;
        self.queue.close(s.region, op, false, charge);
        (mask, words)
    }

    /// One warp load instruction: `out[lane] = s[idx[lane]]` for active lanes.
    pub fn load(&mut self, s: DSlice, idx: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        let (mask, words) = self.access(s, idx, mask, PipeOp::Load);
        let mut out = [0u32; WARP_SIZE];
        for (lane, &addr) in active_lanes(mask).zip(&words) {
            out[lane] = self.mem.word(addr);
        }
        out
    }

    /// Two warp loads, `s[idx[lane]]` then `s[idx[lane] + 1]`: the bounds
    /// of each lane's row in a CSR-style offsets array.
    #[inline]
    pub fn load_bounds(&mut self, s: DSlice, idx: &Lanes, mask: u32) -> (Lanes, Lanes) {
        let lo = self.load(s, idx, mask);
        let hi = self.load(s, &idx.map(|i| i.wrapping_add(1)), mask);
        (lo, hi)
    }

    /// One warp store instruction: `s[idx[lane]] = vals[lane]`.
    pub fn store(&mut self, s: DSlice, idx: &Lanes, vals: &Lanes, mask: u32) {
        self.instructions += 1;
        let (mask, words) = self.access(s, idx, mask, PipeOp::Store);
        // Stores retire through the write queue; charge issue cost only.
        self.stall += GpuConfig::BURST_ISSUE;
        for (lane, &addr) in active_lanes(mask).zip(&words) {
            self.mem.set_word(addr, vals[lane]);
        }
    }

    /// Elements one vectorized burst instruction covers per lane (an
    /// `LDG.128` on hardware: four consecutive `u32`s).
    pub const BURST_VEC: u32 = 4;

    /// Burst load: each active lane reads `count[lane]` consecutive elements
    /// starting at `start[lane]` — the unrolled Shared-Memory-Prefetch
    /// access shape. Row `r` of the result ([`WarpCtx::burst_row`]) holds
    /// each lane's `r`-th element (0 where `r >= count[lane]`).
    ///
    /// Because the unrolled loop makes per-lane addresses consecutive and
    /// statically known, the compiler emits **vectorized** 16-byte loads:
    /// each instruction covers [`Self::BURST_VEC`] rows, so a K-element
    /// prefetch issues `K/4` load transactions' worth of sector requests
    /// instead of `K` — the "global memory read transactions" reduction of
    /// the paper's Fig. 7. Groups issue back to back: the first pays its
    /// miss latency, later ones the pipelined issue cost, and the
    /// interleaving clock advances only by the burst's own insertions so
    /// sector reuse inside the burst survives.
    pub fn load_burst(&mut self, s: DSlice, start: &Lanes, count: &Lanes, mask: u32) -> Burst {
        let mask = match self.san.as_deref_mut() {
            Some(san) => san.global(self.id, PipeOp::Load, s, start, Some(count), mask, self.mem),
            None => mask,
        };
        let rows = active_lanes(mask).map(|l| count[l]).max().unwrap_or(0);
        let first = self.burst_rows.len();
        self.burst_rows
            .resize(first + rows as usize, [0; WARP_SIZE]);
        let mut group_start = 0u32;
        let mut first_group = true;
        while group_start < rows {
            let group_end = (group_start + Self::BURST_VEC).min(rows);
            // One vectorized instruction: every active (lane, row) address
            // in the group is one recorded access, coalesced together.
            self.instructions += 1;
            let mut active = 0u32;
            for lane in active_lanes(mask) {
                let end = group_end.min(count[lane]);
                if end <= group_start {
                    continue;
                }
                active += 1;
                for r in group_start..end {
                    let addr = s.addr((start[lane] + r) as u64);
                    self.burst_rows[first + r as usize][lane] = self.mem.word(addr);
                }
                // The lane's rows are consecutive words.
                let lo = s.addr((start[lane] + group_start) as u64);
                self.queue.push_span(lo, u64::from(end - group_start));
            }
            self.count_lanes(active);
            // The first non-empty group charges its worst sector latency
            // once the drain stages know it; later groups pay the
            // pipelined issue cost right here.
            if self.queue.close(s.region, PipeOp::Load, true, first_group) {
                if first_group {
                    first_group = false;
                } else {
                    self.stall += GpuConfig::BURST_ISSUE;
                }
            }
            group_start = group_end;
        }
        Burst { first, rows }
    }

    /// Row `r` of a burst this warp loaded.
    pub fn burst_row(&self, burst: Burst, r: u32) -> Lanes {
        assert!(
            r < burst.rows,
            "burst has {} rows, asked for {r}",
            burst.rows
        );
        self.burst_rows[burst.first + r as usize]
    }

    /// Shared Memory Prefetch's staging: bursts each `mask` lane's
    /// `count[lane]` elements of `s` from `start[lane]`
    /// ([`WarpCtx::load_burst`]), then stores row `j` to shared words
    /// `slot[lane] + j`, one shared store per row. `count` is 0 outside
    /// `mask`.
    #[inline]
    pub fn stage_burst(
        &mut self,
        s: DSlice,
        start: &Lanes,
        count: &Lanes,
        mask: u32,
        slot: &Lanes,
    ) {
        let rows = self.load_burst(s, start, count, mask);
        for j in 0..rows.rows() {
            let row = row_lanes(count, j);
            let vals = self.burst_row(rows, j);
            self.store_shared(&row_index(slot, j, row), &vals, row);
        }
    }

    /// Per-lane reserve-and-emit: one atomic add on `counter` reserves
    /// `count[lane]` consecutive slots for every lane with a nonzero count,
    /// then `emit(w, row, pos, p)` fills row `p` of the runs for each `p`
    /// below the longest, where `row` holds the lanes with more than `p`
    /// items and `pos` their `p`-th slot. A warp with nothing to append
    /// issues nothing.
    #[inline]
    pub fn append(
        &mut self,
        counter: DSlice,
        count: &Lanes,
        mut emit: impl FnMut(&mut Self, u32, &Lanes, u32),
    ) {
        let any = row_lanes(count, 0);
        if any == 0 {
            return;
        }
        let base = self.atomic_add(counter, &[0; WARP_SIZE], count, any);
        let rows = count.iter().copied().max().unwrap_or(0);
        for p in 0..rows {
            let row = row_lanes(count, p);
            emit(self, row, &row_index(&base, p, row), p);
        }
    }

    /// One lane-serialized read-modify-write at L2: each active lane reads
    /// its old word, in lane order, and writes back `op(lane, old)` when that
    /// is `Some`. Returns the old words.
    #[inline]
    fn atomic(
        &mut self,
        s: DSlice,
        idx: &Lanes,
        mask: u32,
        mut op: impl FnMut(usize, u32) -> Option<u32>,
    ) -> Lanes {
        self.instructions += 1;
        let (mask, words) = self.access(s, idx, mask, PipeOp::Atomic);
        let active = mask.count_ones() as u64;
        self.stall += GpuConfig::L2_LATENCY + active * GpuConfig::ATOMIC_SERIALIZE;
        self.atomics += active;
        let mut out = [0u32; WARP_SIZE];
        for (lane, &addr) in active_lanes(mask).zip(&words) {
            let old = self.mem.word(addr);
            out[lane] = old;
            if let Some(new) = op(lane, old) {
                self.mem.set_word(addr, new);
            }
        }
        out
    }

    /// Lane-serialized atomic add at L2: returns each lane's old value.
    /// Lanes apply in lane order, so same-address adds see prior lanes.
    pub fn atomic_add(&mut self, s: DSlice, idx: &Lanes, delta: &Lanes, mask: u32) -> Lanes {
        self.atomic(s, idx, mask, |lane, old| {
            Some(old.wrapping_add(delta[lane]))
        })
    }

    /// Lane-serialized atomic min at L2: returns each lane's old value.
    pub fn atomic_min(&mut self, s: DSlice, idx: &Lanes, val: &Lanes, mask: u32) -> Lanes {
        self.atomic(s, idx, mask, |lane, old| {
            (val[lane] < old).then_some(val[lane])
        })
    }

    /// Lane-serialized atomic OR at L2 (`atomicOr`) — the primitive behind
    /// bitmask frontiers (iBFS-style concurrent traversals). Returns old
    /// values; lanes apply in lane order.
    pub fn atomic_or(&mut self, s: DSlice, idx: &Lanes, val: &Lanes, mask: u32) -> Lanes {
        self.atomic(s, idx, mask, |lane, old| Some(old | val[lane]))
    }

    /// Lane-serialized atomic float add at L2 (`atomicAdd(float*)`),
    /// interpreting the device words as IEEE-754 `f32` bits. Used by
    /// accumulation workloads (PageRank's rank scatter). Returns old values.
    pub fn atomic_add_f32(
        &mut self,
        s: DSlice,
        idx: &Lanes,
        val: &[f32; WARP_SIZE],
        mask: u32,
    ) -> [f32; WARP_SIZE] {
        self.atomic(s, idx, mask, |lane, old| {
            Some((f32::from_bits(old) + val[lane]).to_bits())
        })
        .map(f32::from_bits)
    }

    /// Lane-serialized atomic max at L2 (SSWP's widest-path update).
    pub fn atomic_max(&mut self, s: DSlice, idx: &Lanes, val: &Lanes, mask: u32) -> Lanes {
        self.atomic(s, idx, mask, |lane, old| {
            (val[lane] > old).then_some(val[lane])
        })
    }

    // ---- shared memory -----------------------------------------------------

    /// Charges one shared-memory instruction and returns its effective lane
    /// mask (the sanitizer drops out-of-bounds lanes).
    fn shared_access(&mut self, op: PipeOp, idx: &Lanes, mask: u32) -> u32 {
        self.instructions += 1;
        self.shared_accesses += 1;
        self.stall += GpuConfig::SHARED_LATENCY;
        let mask = match self.san.as_deref_mut() {
            Some(san) => san.shared(self.id, op, self.shared.len(), idx, mask),
            None => mask,
        };
        self.count_lanes(mask.count_ones());
        self.shared_bank_conflicts += bank_conflicts(idx, mask);
        mask
    }

    /// Shared-memory load: `out[lane] = shared[idx[lane]]`.
    pub fn load_shared(&mut self, idx: &Lanes, mask: u32) -> Lanes {
        let mask = self.shared_access(PipeOp::Load, idx, mask);
        let mut out = [0u32; WARP_SIZE];
        for lane in active_lanes(mask) {
            out[lane] = self.shared[idx[lane] as usize];
        }
        out
    }

    /// Shared-memory store: `shared[idx[lane]] = vals[lane]`.
    pub fn store_shared(&mut self, idx: &Lanes, vals: &Lanes, mask: u32) {
        let mask = self.shared_access(PipeOp::Store, idx, mask);
        for lane in active_lanes(mask) {
            self.shared[idx[lane] as usize] = vals[lane];
        }
    }
}

/// Shared-memory bank-conflict replays for one warp access: shared memory
/// has 32 word-wide banks (`word % 32`); lanes addressing *different* words
/// in the same bank serialize, while lanes reading the same word broadcast.
/// Returns `Σ_banks (distinct words in bank − 1)` over active lanes, which
/// is `distinct words − touched banks` because equal words share a bank.
fn bank_conflicts(idx: &Lanes, mask: u32) -> u64 {
    let mut words = [0u32; WARP_SIZE];
    let mut n = 0usize;
    let mut banks = 0u32;
    // Strictly increasing in lane order (the SMP slot pattern `tid·K + j`):
    // every word is distinct and nothing needs sorting.
    let mut increasing = true;
    for lane in active_lanes(mask) {
        increasing &= n == 0 || words[n - 1] < idx[lane];
        words[n] = idx[lane];
        n += 1;
        banks |= 1 << (idx[lane] % 32);
    }
    let words = &mut words[..n];
    let mut distinct = n;
    if !increasing {
        words.sort_unstable();
        distinct -= words.windows(2).filter(|w| w[0] == w[1]).count();
    }
    (distinct - banks.count_ones() as usize) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use eta_mem::access::{drain_l1, L1DrainParams};
    use eta_mem::cache::Cache;
    use eta_mem::pcie::PcieLink;

    /// One SM's share of the launch pipeline: a warp records into `queue`,
    /// [`Rig::replay`] drains it through `l1`.
    struct Rig {
        cfg: GpuConfig,
        mem: MemSystem,
        queue: SmQueue,
        shared: Vec<u32>,
        burst_rows: Vec<Lanes>,
        l1: Cache,
    }

    impl Rig {
        fn new() -> Self {
            let cfg = GpuConfig::default_preset();
            let mem = MemSystem::new(cfg.device_mem_bytes, PcieLink::new(12.0, 8000));
            Rig {
                cfg,
                mem,
                queue: SmQueue::default(),
                shared: vec![0; 4096],
                burst_rows: Vec::new(),
                l1: Cache::new(cfg.l1),
            }
        }

        fn warp(&mut self) -> WarpCtx<'_> {
            WarpCtx::new_recording(
                &mut self.mem,
                &mut self.queue,
                &mut self.shared,
                &mut self.burst_rows,
                WarpId {
                    block: 0,
                    warp_in_block: 0,
                    threads_per_block: 256,
                    grid_blocks: 1,
                },
                None,
            )
        }

        /// Stage 3 of the launch pipeline over what the warps recorded
        /// (every region here is explicit, so the residency stage has
        /// nothing to classify).
        fn replay(&mut self, interleave: u64) {
            self.queue.zc.resize(self.queue.sectors.len(), false);
            let params = L1DrainParams {
                l1_latency: self.cfg.l1_latency,
                zero_copy_latency: self.cfg.zero_copy_latency,
                interleave,
            };
            drain_l1(&mut self.queue, &mut self.l1, &params);
        }
    }

    fn iota() -> Lanes {
        let mut l = [0u32; WARP_SIZE];
        for (i, s) in l.iter_mut().enumerate() {
            *s = i as u32;
        }
        l
    }

    /// The definition, as `bank_conflicts` computed it before the closed
    /// form: sort the active `(bank, word)` pairs, count each bank's distinct
    /// words. Kept as the differential oracle.
    fn bank_conflicts_by_sort(idx: &Lanes, mask: u32) -> u64 {
        let mut pairs: Vec<(u32, u32)> = (0..WARP_SIZE)
            .filter(|&lane| (mask >> lane) & 1 == 1)
            .map(|lane| (idx[lane] % 32, idx[lane]))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|bank| bank.len() as u64 - 1)
            .sum()
    }

    #[test]
    fn bank_conflicts_match_the_sort_based_definition() {
        let pattern =
            |f: &dyn Fn(u32) -> u32| -> Lanes { std::array::from_fn(|lane| f(lane as u32)) };
        let mut patterns = vec![
            pattern(&|l| l),
            pattern(&|_| 7),
            pattern(&|l| 31 - l),
            pattern(&|l| 4000 - 33 * l),
        ];
        for stride in [2, 16, 32, 33] {
            patterns.push(pattern(&|l| l * stride));
        }
        // The SMP slot pattern: thread `tid` owns slots `tid·K + j`.
        for k in [1, 4, 16, 17] {
            for j in [0, 1, k - 1] {
                patterns.push(pattern(&|l| (64 + l) * k + j));
            }
        }
        // Seeded draws from few words, few banks, and anywhere: repeats,
        // shared banks and unsorted lane order all occur.
        let mut state = 0x5eed_u64;
        let mut draw = |below: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32 % below
        };
        for below in [3, 40, 4096, u32::MAX] {
            for _ in 0..40 {
                patterns.push(std::array::from_fn(|_| draw(below)));
            }
        }
        let mut masks = vec![0, FULL_MASK, 0x5555_5555, 0xAAAA_AAAA, 0x0000_FFFF];
        masks.extend((0..WARP_SIZE).map(|lane| 1u32 << lane));
        masks.extend((0..20).map(|_| draw(u32::MAX)));
        for idx in &patterns {
            for &mask in &masks {
                assert_eq!(
                    bank_conflicts(idx, mask),
                    bank_conflicts_by_sort(idx, mask),
                    "idx {idx:?} mask {mask:#x}"
                );
            }
        }
    }

    #[test]
    fn bank_conflict_counting() {
        // Coalesced iota: every lane in its own bank — no conflicts.
        assert_eq!(bank_conflicts(&iota(), FULL_MASK), 0);
        // All 32 lanes read the same word: broadcast, free.
        assert_eq!(bank_conflicts(&[7u32; WARP_SIZE], FULL_MASK), 0);
        // Stride 32: every lane a distinct word in bank 0 — 31 replays.
        let mut stride = [0u32; WARP_SIZE];
        for (i, s) in stride.iter_mut().enumerate() {
            *s = (i as u32) * 32;
        }
        assert_eq!(bank_conflicts(&stride, FULL_MASK), 31);
        // Inactive lanes are ignored: only lanes 0 and 1 active, same bank,
        // different words — one replay.
        assert_eq!(bank_conflicts(&stride, 0b11), 1);
        assert_eq!(bank_conflicts(&stride, 0), 0);
    }

    #[test]
    fn shared_access_counts_lanes_and_conflicts() {
        let mut rig = Rig::new();
        let mut w = rig.warp();
        let vals = iota();
        w.store_shared(&iota(), &vals, FULL_MASK);
        let out = w.load_shared(&iota(), FULL_MASK);
        assert_eq!(out, vals);
        let mut m = KernelMetrics::default();
        w.finish(&mut m);
        assert_eq!(m.shared_bank_conflicts, 0, "iota is conflict-free");
        assert_eq!(m.lane_ops, 64, "two full-warp shared instructions");
        assert_eq!(m.lane_slots, 64);
        assert!((m.warp_execution_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn thread_ids_and_masks() {
        let mut rig = Rig::new();
        let w = rig.warp();
        let ids = w.thread_ids();
        assert_eq!(ids[0], 0);
        assert_eq!(ids[31], 31);
        assert_eq!(w.mask_for_items(0), 0);
        assert_eq!(w.mask_for_items(1), 1);
        assert_eq!(w.mask_for_items(32), FULL_MASK);
        assert_eq!(w.mask_for_items(5), 0b11111);
    }

    #[test]
    fn load_returns_stored_values() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        rig.mem
            .host_write(a, 0, &(0..64).map(|i| i * 10).collect::<Vec<_>>());
        let mut w = rig.warp();
        let vals = w.load(a, &iota(), FULL_MASK);
        assert_eq!(vals[0], 0);
        assert_eq!(vals[7], 70);
        assert_eq!(vals[31], 310);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut w = rig.warp();
        let vals = {
            let mut v = [0u32; WARP_SIZE];
            for (i, s) in v.iter_mut().enumerate() {
                *s = (i * i) as u32;
            }
            v
        };
        w.store(a, &iota(), &vals, FULL_MASK);
        let back = w.load(a, &iota(), FULL_MASK);
        assert_eq!(back, vals);
    }

    #[test]
    fn masked_lanes_do_not_write() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut w = rig.warp();
        w.store(a, &iota(), &[7; WARP_SIZE], 0b1010);
        assert_eq!(rig.mem.host_read(a, 0, 4), &[0, 7, 0, 7]);
    }

    #[test]
    fn coalesced_load_touches_four_sectors() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut w = rig.warp();
        w.load(a, &iota(), FULL_MASK);
        rig.replay(1);
        assert_eq!(rig.l1.stats().accesses(), 4, "32 u32 lanes = 4 sectors");
    }

    #[test]
    fn scattered_load_touches_32_sectors() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(32 * 64).unwrap();
        let mut idx = [0u32; WARP_SIZE];
        for (i, s) in idx.iter_mut().enumerate() {
            *s = (i * 64) as u32;
        }
        let mut w = rig.warp();
        w.load(a, &idx, FULL_MASK);
        rig.replay(1);
        assert_eq!(rig.l1.stats().accesses(), 32);
    }

    #[test]
    fn burst_preserves_sector_reuse_under_interleave() {
        // The SMP mechanism: with heavy interleaving, a per-iteration loop
        // loses its sectors between accesses, a burst does not.
        let k = 8u32;
        let stride = 8u32; // one sector per lane-range
        let len = 32 * stride;

        // Loop-style: K separate loads with a huge interleave factor.
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(len as u64).unwrap();
        {
            let mut w = rig.warp();
            for r in 0..k {
                let mut idx = [0u32; WARP_SIZE];
                for lane in 0..WARP_SIZE {
                    idx[lane] = lane as u32 * stride + r;
                }
                w.load(a, &idx, FULL_MASK);
            }
        }
        rig.replay(100_000);
        let loop_misses = rig.l1.stats().misses;

        // Burst-style: same addresses as one burst.
        let mut rig2 = Rig::new();
        let b = rig2.mem.alloc_explicit(len as u64).unwrap();
        {
            let mut w = rig2.warp();
            let mut start = [0u32; WARP_SIZE];
            for lane in 0..WARP_SIZE {
                start[lane] = lane as u32 * stride;
            }
            w.load_burst(b, &start, &[k; WARP_SIZE], FULL_MASK);
        }
        rig2.replay(100_000);
        let burst_misses = rig2.l1.stats().misses;

        assert_eq!(burst_misses, 32, "one miss per lane's sector");
        assert!(
            loop_misses >= 4 * burst_misses,
            "interleaved loop must thrash: {loop_misses} vs {burst_misses}"
        );
    }

    #[test]
    fn burst_values_and_row_masks() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(256).unwrap();
        rig.mem.host_write(a, 0, &(0..256).collect::<Vec<u32>>());
        let mut w = rig.warp();
        let mut start = [0u32; WARP_SIZE];
        let mut count = [0u32; WARP_SIZE];
        start[0] = 10;
        count[0] = 3;
        start[1] = 100;
        count[1] = 1;
        let rows = w.load_burst(a, &start, &count, 0b11);
        assert_eq!(rows.rows(), 3);
        assert_eq!(w.burst_row(rows, 0)[0], 10);
        assert_eq!(w.burst_row(rows, 1)[0], 11);
        assert_eq!(w.burst_row(rows, 2)[0], 12);
        assert_eq!(w.burst_row(rows, 0)[1], 100);
        assert_eq!(w.burst_row(rows, 1)[1], 0, "lane 1 inactive past its count");
        // A second burst leaves the first one's rows readable.
        let again = w.load_burst(a, &start, &count, 0b10);
        assert_eq!(again.rows(), 1);
        assert_eq!(w.burst_row(again, 0)[1], 100);
        assert_eq!(w.burst_row(rows, 2)[0], 12);
    }

    /// A warp's global instruction as the oracle sees it: the word
    /// addresses it touched (lane order, a lane's rows in order) and the
    /// record it must leave.
    struct Touched {
        words: Vec<u64>,
        region: eta_mem::system::RegionId,
        op: PipeOp,
        burst: bool,
        charge: bool,
    }

    /// Seeded plain loads, stores and atomics and Shared Memory Prefetch
    /// bursts on one warp: the sector runs it records equal
    /// `coalesce_by_sort` over the words each instruction touched, and each
    /// record carries its instruction's region, op, burst and charge.
    #[test]
    fn recorded_sectors_match_sort_and_dedup_of_the_touched_words() {
        const LEN: u32 = 1 << 14;
        let mut state = 0x5ec7_0125_u64;
        let mut draw = move |below: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) % below as u64) as u32
        };
        let mut burst_rows_seen = [false; 18];
        for case in 0..300 {
            let mut rig = Rig::new();
            let slices = [
                rig.mem.alloc_explicit(LEN as u64).unwrap(),
                rig.mem.alloc_explicit(LEN as u64).unwrap(),
            ];
            let mut touched = Vec::new();
            let mut w = rig.warp();
            for _ in 0..draw(12) {
                let s = slices[draw(2) as usize];
                let mask = match draw(4) {
                    0 => FULL_MASK,
                    1 => 0,
                    2 => draw(u32::MAX) & draw(u32::MAX),
                    _ => draw(u32::MAX),
                };
                let base = draw(LEN - 32 * 17);
                let op = [PipeOp::Load, PipeOp::Store, PipeOp::Atomic][draw(3) as usize];
                if draw(4) > 0 {
                    // Dense, strided, reversed, few words, or a gather.
                    let (shape, stride, few) = (draw(5), 1 + draw(17), draw(40) + 1);
                    let idx: Lanes = std::array::from_fn(|lane| match shape {
                        0 => base + lane as u32,
                        1 => base + stride * lane as u32,
                        2 => base + 3 * (31 - lane as u32),
                        3 => base + draw(few),
                        _ => draw(LEN),
                    });
                    match op {
                        PipeOp::Load => drop(w.load(s, &idx, mask)),
                        PipeOp::Store => w.store(s, &idx, &idx, mask),
                        PipeOp::Atomic => drop(w.atomic_add(s, &idx, &idx, mask)),
                    }
                    let words: Vec<u64> = active_lanes(mask)
                        .map(|lane| s.addr(idx[lane] as u64))
                        .collect();
                    if !words.is_empty() {
                        let charge = op == PipeOp::Load;
                        touched.push(Touched {
                            words,
                            region: s.region,
                            op,
                            burst: false,
                            charge,
                        });
                    }
                    continue;
                }
                // A burst: up to 17 rows a lane (every group boundary), the
                // lanes' runs disjoint, overlapping or anywhere; lanes
                // outside `mask` carry counts it must ignore.
                let spread = [16, 2, 0][draw(3) as usize];
                let start: Lanes = std::array::from_fn(|lane| match spread {
                    0 => draw(LEN - 17),
                    d => base + d * lane as u32 + draw(3),
                });
                let most = draw(18);
                let count: Lanes = std::array::from_fn(|_| draw(most + 1));
                let rows = w.load_burst(s, &start, &count, mask).rows();
                burst_rows_seen[rows as usize] = true;
                let vec = WarpCtx::BURST_VEC;
                for group in (0..rows).step_by(vec as usize) {
                    let words: Vec<u64> = active_lanes(mask)
                        .flat_map(|lane| {
                            (group..(group + vec).min(count[lane]))
                                .map(move |r| s.addr((start[lane] + r) as u64))
                        })
                        .collect();
                    assert!(!words.is_empty(), "a group below `rows` has a lane");
                    let charge = group == 0;
                    touched.push(Touched {
                        words,
                        region: s.region,
                        op: PipeOp::Load,
                        burst: true,
                        charge,
                    });
                }
            }
            let (_, _, recorded) = w.finish(&mut KernelMetrics::default());
            assert_eq!(recorded, touched.len(), "case {case}");
            let (sectors, ranges) =
                eta_mem::access::coalesce_by_sort(touched.iter().map(|t| t.words.as_slice()));
            assert_eq!(rig.queue.sectors, sectors, "case {case}");
            for ((rec, t), &(start, len)) in rig.queue.recs.iter().zip(&touched).zip(&ranges) {
                assert_eq!(
                    (
                        rec.sec_start,
                        rec.sec_len,
                        rec.region,
                        rec.op,
                        rec.burst,
                        rec.charge
                    ),
                    (start, len, t.region, t.op, t.burst, t.charge),
                    "case {case}"
                );
            }
        }
        assert!(
            burst_rows_seen.iter().all(|&seen| seen),
            "bursts of 0..=17 rows: {burst_rows_seen:?}"
        );
    }

    #[test]
    fn atomic_add_serializes_same_address() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        let mut w = rig.warp();
        let olds = w.atomic_add(a, &[0; WARP_SIZE], &[1; WARP_SIZE], FULL_MASK);
        // Lane i must observe i prior increments.
        for (lane, &old) in olds.iter().enumerate() {
            assert_eq!(old, lane as u32);
        }
        assert_eq!(rig.mem.host_read(a, 0, 1), &[32]);
    }

    #[test]
    fn atomic_min_keeps_smallest() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        rig.mem.host_write(a, 0, &[100]);
        let mut w = rig.warp();
        let mut vals = [0u32; WARP_SIZE];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = 50 + i as u32;
        }
        let old = w.atomic_min(a, &[0; WARP_SIZE], &vals, 0b11);
        assert_eq!(old[0], 100);
        assert_eq!(old[1], 50, "lane 1 sees lane 0's update");
        assert_eq!(rig.mem.host_read(a, 0, 1), &[50]);
    }

    #[test]
    fn atomic_max_keeps_largest() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        rig.mem.host_write(a, 0, &[5]);
        let mut w = rig.warp();
        let old = w.atomic_max(a, &[0; WARP_SIZE], &[9; WARP_SIZE], 0b1);
        assert_eq!(old[0], 5);
        assert_eq!(rig.mem.host_read(a, 0, 1), &[9]);
    }

    #[test]
    fn atomic_or_merges_bits_in_lane_order() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        let mut w = rig.warp();
        let mut bits = [0u32; WARP_SIZE];
        bits[0] = 0b001;
        bits[1] = 0b010;
        bits[2] = 0b100;
        let olds = w.atomic_or(a, &[0; WARP_SIZE], &bits, 0b111);
        assert_eq!(olds[0], 0);
        assert_eq!(olds[1], 0b001, "lane 1 sees lane 0's bit");
        assert_eq!(olds[2], 0b011);
        assert_eq!(rig.mem.host_read(a, 0, 1), &[0b111]);
    }

    #[test]
    fn atomic_add_f32_accumulates_and_returns_olds() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        rig.mem.host_write(a, 0, &[1.5f32.to_bits()]);
        let mut w = rig.warp();
        let olds = w.atomic_add_f32(a, &[0; WARP_SIZE], &[0.25f32; WARP_SIZE], 0b111);
        assert_eq!(olds[0], 1.5);
        assert_eq!(olds[1], 1.75);
        assert_eq!(olds[2], 2.0);
        assert_eq!(f32::from_bits(rig.mem.host_read(a, 0, 1)[0]), 2.25);
    }

    #[test]
    fn atomic_add_f32_masked_lanes_do_nothing() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        let mut w = rig.warp();
        w.atomic_add_f32(a, &[0; WARP_SIZE], &[7.0; WARP_SIZE], 0);
        assert_eq!(f32::from_bits(rig.mem.host_read(a, 0, 1)[0]), 0.0);
    }

    #[test]
    fn mask_zero_ops_issue_no_transactions_and_no_metric_drift() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut metrics = KernelMetrics::default();
        {
            let mut w = rig.warp();
            let vals = w.load(a, &iota(), 0);
            assert_eq!(vals, [0u32; WARP_SIZE]);
            w.store(a, &iota(), &[9; WARP_SIZE], 0);
            w.atomic_add(a, &[0; WARP_SIZE], &[1; WARP_SIZE], 0);
            let (instr, _, recorded) = w.finish(&mut metrics);
            assert_eq!(instr, 3, "instructions still issue");
            assert_eq!(recorded, 0);
        }
        assert!(rig.queue.recs.is_empty(), "nothing recorded to replay");
        assert_eq!(metrics.atomics, 0);
        assert_eq!(
            rig.mem.host_read(a, 0, 4),
            &[0, 0, 0, 0],
            "no writes landed"
        );
    }

    #[test]
    fn mask_zero_burst_is_a_noop() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut metrics = KernelMetrics::default();
        {
            let mut w = rig.warp();
            let rows = w.load_burst(a, &[0; WARP_SIZE], &[4; WARP_SIZE], 0);
            assert_eq!(rows.rows(), 0, "no active lane, no rows");
            let (instr, stall, recorded) = w.finish(&mut metrics);
            assert_eq!(instr, 0, "a fully-masked burst issues nothing");
            assert_eq!((stall, recorded), (0, 0));
        }
        assert!(rig.queue.recs.is_empty());
    }

    #[test]
    fn zero_count_burst_issues_nothing() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut w = rig.warp();
        let rows = w.load_burst(a, &iota(), &[0; WARP_SIZE], FULL_MASK);
        assert_eq!(rows.rows(), 0, "count 0 on every lane, no rows");
        assert!(rig.queue.recs.is_empty());
    }

    #[test]
    fn atomic_add_f32_serializes_in_lane_order_under_sparse_mask() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(8).unwrap();
        rig.mem.host_write(a, 0, &[0f32.to_bits()]);
        let mut w = rig.warp();
        let mask = (1 << 1) | (1 << 5) | (1 << 30);
        let mut vals = [0f32; WARP_SIZE];
        vals[1] = 1.0;
        vals[5] = 2.0;
        vals[30] = 4.0;
        let olds = w.atomic_add_f32(a, &[0; WARP_SIZE], &vals, mask);
        assert_eq!(olds[1], 0.0, "lowest active lane applies first");
        assert_eq!(olds[5], 1.0, "lane 5 sees lane 1's add");
        assert_eq!(olds[30], 3.0, "lane 30 sees lanes 1 and 5");
        assert_eq!(olds[0], 0.0, "inactive lanes return the default");
        assert_eq!(f32::from_bits(rig.mem.host_read(a, 0, 1)[0]), 7.0);
    }

    #[test]
    fn shared_memory_roundtrip_and_no_global_traffic() {
        let mut rig = Rig::new();
        let mut w = rig.warp();
        let vals = iota();
        w.store_shared(&iota(), &vals, FULL_MASK);
        let back = w.load_shared(&iota(), FULL_MASK);
        assert_eq!(back, vals);
        assert!(rig.queue.recs.is_empty());
    }

    #[test]
    fn finish_reports_counters() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        let mut metrics = KernelMetrics::default();
        let mut w = rig.warp();
        w.load(a, &iota(), FULL_MASK);
        w.alu(3);
        let (instr, stall, recorded) = w.finish(&mut metrics);
        assert_eq!((instr, stall), (4, 0), "a load's stall is charged at drain");
        assert_eq!(recorded, 1, "one memory instruction, one record");
        assert_eq!(metrics.instructions, 4);
        assert_eq!(metrics.warps, 1);
        rig.replay(1);
        assert_eq!(rig.queue.l2q.len(), 1, "the cold load goes on to L2");
        assert!(rig.queue.l2q[0].worst_c > 0);
    }

    #[test]
    fn lane_walk_helpers() {
        let mut count = [0u32; WARP_SIZE];
        count[..4].copy_from_slice(&[2, 0, 3, 1]);
        assert_eq!(row_lanes(&count, 0), 0b1101);
        assert_eq!(row_lanes(&count, 1), 0b0101);
        assert_eq!(row_lanes(&count, 2), 0b0100);
        assert_eq!(row_lanes(&count, 3), 0);
        let idx = row_index(&iota(), 10, 0b0101);
        assert_eq!((idx[0], idx[1], idx[2], idx[3]), (10, 0, 12, 0));
        let (deg, max) = lane_degrees(&iota(), &iota().map(|i| 3 * i), 0b1110);
        assert_eq!((&deg[..5], max), (&[0, 2, 4, 6, 0][..], 6));
        assert_eq!(lanes_where(0b1111, |lane| lane % 2 == 1), 0b1010);
    }

    #[test]
    fn load_bounds_is_two_loads_in_order() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        rig.mem
            .host_write(a, 0, &(0..64).map(|i| i * i).collect::<Vec<u32>>());
        let mut metrics = KernelMetrics::default();
        let mut w = rig.warp();
        let (lo, hi) = w.load_bounds(a, &iota(), 0b110);
        assert_eq!((&lo[..3], &hi[..3]), (&[0, 1, 4][..], &[0, 4, 9][..]));
        assert_eq!(w.finish(&mut metrics), (2, 0, 2), "two loads, two records");
    }

    #[test]
    fn append_reserves_runs_and_emits_rows() {
        let mut rig = Rig::new();
        let counter = rig.mem.alloc_explicit(1).unwrap();
        rig.mem.host_write(counter, 0, &[5]);
        let mut count = [0u32; WARP_SIZE];
        count[..3].copy_from_slice(&[2, 0, 3]);
        let mut w = rig.warp();
        let mut rows = Vec::new();
        w.append(counter, &count, |_, row, pos, p| {
            rows.push((p, row, pos[0], pos[2]));
        });
        // Lane 0 reserves slots 5..7, lane 2 slots 7..10.
        assert_eq!(rows, [(0, 0b101, 5, 7), (1, 0b101, 6, 8), (2, 0b100, 0, 9)]);
        assert_eq!(rig.mem.host_read(counter, 0, 1), &[10]);
        let mut w = rig.warp();
        w.append(counter, &[0; WARP_SIZE], |_, _, _, _| unreachable!());
        assert_eq!(
            w.finish(&mut KernelMetrics::default()).0,
            0,
            "nothing issued"
        );
    }

    #[test]
    fn stage_burst_stores_each_row_at_its_slot() {
        let mut rig = Rig::new();
        let a = rig.mem.alloc_explicit(64).unwrap();
        rig.mem.host_write(a, 0, &(100..164).collect::<Vec<u32>>());
        let mut start = [0u32; WARP_SIZE];
        let mut count = [0u32; WARP_SIZE];
        start[..2].copy_from_slice(&[4, 20]);
        count[..2].copy_from_slice(&[3, 1]);
        let slot = iota().map(|lane| 8 * lane);
        let mut w = rig.warp();
        w.stage_burst(a, &start, &count, 0b11, &slot);
        let mut words = [0u32; WARP_SIZE];
        words[..5].copy_from_slice(&[0, 1, 2, 8, 9]);
        let back = w.load_shared(&words, 0b11111);
        assert_eq!(&back[..5], &[104, 105, 106, 120, 0], "lane 1 has one row");
    }
}
