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

use crate::config::{GpuConfig, WARP_SIZE};
use crate::metrics::KernelMetrics;
use crate::sanitizer::{AccessKind, Sanitizer};
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
/// Global accesses are *recorded*, not probed: each appends one access to
/// the owning SM's queue, and the staged launch pipeline (see
/// [`eta_mem::access`]) replays the wave's queues against residency, L1 and
/// L2. Loads therefore charge their memory stall in the drain stages;
/// stores, atomics and shared accesses charge constant costs here.
pub struct WarpCtx<'a> {
    pub cfg: &'a GpuConfig,
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
    pub fn new_recording(
        cfg: &'a GpuConfig,
        mem: &'a mut MemSystem,
        queue: &'a mut SmQueue,
        shared: &'a mut [u32],
        burst_rows: &'a mut Vec<Lanes>,
        id: WarpId,
        san: Option<&'a mut Sanitizer>,
    ) -> Self {
        burst_rows.clear();
        WarpCtx {
            cfg,
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
    /// them as one access of the owning SM's queue. Returns the effective
    /// lane mask (the sanitizer drops out-of-bounds lanes, report-and-
    /// continue, where `DSlice::addr` would otherwise panic) and its lanes'
    /// addresses, in lane order at the front of the array.
    fn access(
        &mut self,
        s: DSlice,
        idx: &Lanes,
        mask: u32,
        op: AccessOp,
    ) -> (u32, [u64; WARP_SIZE]) {
        let mask = match self.san.as_deref_mut() {
            Some(san) => san.pre_access(self.id, s, idx, mask),
            None => mask,
        };
        self.count_lanes(mask.count_ones());
        if let Some(san) = self.san.as_deref_mut() {
            san.global_access(self.id, op.kind(), s, idx, mask, self.mem);
        }
        // No active lane coalesces to no sectors: nothing to record. The
        // raw addresses are coalesced by stage 2 of the pipeline, off the
        // serial critical path.
        let mut addrs = [0u64; WARP_SIZE];
        if mask == 0 {
            return (mask, addrs);
        }
        for (slot, lane) in addrs.iter_mut().zip(active_lanes(mask)) {
            *slot = s.addr(idx[lane] as u64);
        }
        let addr_start = self.queue.addrs.len();
        self.queue
            .addrs
            .extend_from_slice(&addrs[..mask.count_ones() as usize]);
        // Loads charge their worst sector latency once it is known (the
        // L1/L2 drain stages); stores and atomics charge constant costs at
        // the call sites below, so their records charge nothing.
        let charge = matches!(op, AccessOp::Load);
        self.queue
            .commit(s.region, op.pipe(), false, charge, addr_start);
        (mask, addrs)
    }

    /// One warp load instruction: `out[lane] = s[idx[lane]]` for active lanes.
    pub fn load(&mut self, s: DSlice, idx: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        let (mask, addrs) = self.access(s, idx, mask, AccessOp::Load);
        let mut out = [0u32; WARP_SIZE];
        for (lane, &addr) in active_lanes(mask).zip(&addrs) {
            out[lane] = self.mem.word(addr);
        }
        out
    }

    /// One warp store instruction: `s[idx[lane]] = vals[lane]`.
    pub fn store(&mut self, s: DSlice, idx: &Lanes, vals: &Lanes, mask: u32) {
        self.instructions += 1;
        let (mask, addrs) = self.access(s, idx, mask, AccessOp::Store);
        // Stores retire through the write queue; charge issue cost only.
        self.stall += self.cfg.burst_issue;
        for (lane, &addr) in active_lanes(mask).zip(&addrs) {
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
            Some(san) => {
                let ok = san.pre_burst(self.id, s, start, count, mask);
                san.burst_access(self.id, s, start, count, ok, self.mem);
                ok
            }
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
            let addr_start = self.queue.addrs.len();
            for lane in active_lanes(mask) {
                active += (count[lane] > group_start) as u32;
                for r in group_start..group_end.min(count[lane]) {
                    let addr = s.addr((start[lane] + r) as u64);
                    self.queue.addrs.push(addr);
                    self.burst_rows[first + r as usize][lane] = self.mem.word(addr);
                }
            }
            self.count_lanes(active);
            if self.queue.addrs.len() > addr_start {
                // The first non-empty group charges its worst sector
                // latency once the drain stages know it; later groups pay
                // the pipelined issue cost right here.
                self.queue
                    .commit(s.region, PipeOp::Load, true, first_group, addr_start);
                if first_group {
                    first_group = false;
                } else {
                    self.stall += self.cfg.burst_issue;
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

    /// Lane-serialized atomic add at L2: returns each lane's old value.
    /// Lanes apply in lane order, so same-address adds see prior lanes.
    pub fn atomic_add(&mut self, s: DSlice, idx: &Lanes, delta: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        let (mask, addrs) = self.access(s, idx, mask, AccessOp::Atomic);
        let active = mask.count_ones() as u64;
        self.stall += self.cfg.l2_latency + active * self.cfg.atomic_serialize;
        self.atomics += active;
        let mut out = [0u32; WARP_SIZE];
        for (lane, &addr) in active_lanes(mask).zip(&addrs) {
            let old = self.mem.word(addr);
            out[lane] = old;
            self.mem.set_word(addr, old.wrapping_add(delta[lane]));
        }
        out
    }

    /// Lane-serialized atomic min at L2: returns each lane's old value.
    pub fn atomic_min(&mut self, s: DSlice, idx: &Lanes, val: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        let (mask, addrs) = self.access(s, idx, mask, AccessOp::Atomic);
        let active = mask.count_ones() as u64;
        self.stall += self.cfg.l2_latency + active * self.cfg.atomic_serialize;
        self.atomics += active;
        let mut out = [0u32; WARP_SIZE];
        for (lane, &addr) in active_lanes(mask).zip(&addrs) {
            let old = self.mem.word(addr);
            out[lane] = old;
            if val[lane] < old {
                self.mem.set_word(addr, val[lane]);
            }
        }
        out
    }

    /// Lane-serialized atomic OR at L2 (`atomicOr`) — the primitive behind
    /// bitmask frontiers (iBFS-style concurrent traversals). Returns old
    /// values; lanes apply in lane order.
    pub fn atomic_or(&mut self, s: DSlice, idx: &Lanes, val: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        let (mask, addrs) = self.access(s, idx, mask, AccessOp::Atomic);
        let active = mask.count_ones() as u64;
        self.stall += self.cfg.l2_latency + active * self.cfg.atomic_serialize;
        self.atomics += active;
        let mut out = [0u32; WARP_SIZE];
        for (lane, &addr) in active_lanes(mask).zip(&addrs) {
            let old = self.mem.word(addr);
            out[lane] = old;
            self.mem.set_word(addr, old | val[lane]);
        }
        out
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
        self.instructions += 1;
        let (mask, addrs) = self.access(s, idx, mask, AccessOp::Atomic);
        let active = mask.count_ones() as u64;
        self.stall += self.cfg.l2_latency + active * self.cfg.atomic_serialize;
        self.atomics += active;
        let mut out = [0f32; WARP_SIZE];
        for (lane, &addr) in active_lanes(mask).zip(&addrs) {
            let old = f32::from_bits(self.mem.word(addr));
            out[lane] = old;
            self.mem.set_word(addr, (old + val[lane]).to_bits());
        }
        out
    }

    /// Lane-serialized atomic max at L2 (SSWP's widest-path update).
    pub fn atomic_max(&mut self, s: DSlice, idx: &Lanes, val: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        let (mask, addrs) = self.access(s, idx, mask, AccessOp::Atomic);
        let active = mask.count_ones() as u64;
        self.stall += self.cfg.l2_latency + active * self.cfg.atomic_serialize;
        self.atomics += active;
        let mut out = [0u32; WARP_SIZE];
        for (lane, &addr) in active_lanes(mask).zip(&addrs) {
            let old = self.mem.word(addr);
            out[lane] = old;
            if val[lane] > old {
                self.mem.set_word(addr, val[lane]);
            }
        }
        out
    }

    // ---- shared memory -----------------------------------------------------

    /// Shared-memory load: `out[lane] = shared[idx[lane]]`.
    pub fn load_shared(&mut self, idx: &Lanes, mask: u32) -> Lanes {
        self.instructions += 1;
        self.shared_accesses += 1;
        self.stall += self.cfg.shared_latency;
        let mask = match self.san.as_deref_mut() {
            Some(san) => san.shared_access(self.id, AccessKind::Load, self.shared.len(), idx, mask),
            None => mask,
        };
        self.count_lanes(mask.count_ones());
        self.shared_bank_conflicts += bank_conflicts(idx, mask);
        let mut out = [0u32; WARP_SIZE];
        for lane in active_lanes(mask) {
            out[lane] = self.shared[idx[lane] as usize];
        }
        out
    }

    /// Shared-memory store: `shared[idx[lane]] = vals[lane]`.
    pub fn store_shared(&mut self, idx: &Lanes, vals: &Lanes, mask: u32) {
        self.instructions += 1;
        self.shared_accesses += 1;
        self.stall += self.cfg.shared_latency;
        let mask = match self.san.as_deref_mut() {
            Some(san) => {
                san.shared_access(self.id, AccessKind::Store, self.shared.len(), idx, mask)
            }
            None => mask,
        };
        self.count_lanes(mask.count_ones());
        self.shared_bank_conflicts += bank_conflicts(idx, mask);
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

#[derive(Clone, Copy, PartialEq, Eq)]
enum AccessOp {
    Load,
    Store,
    Atomic,
}

impl AccessOp {
    fn kind(self) -> AccessKind {
        match self {
            AccessOp::Load => AccessKind::Load,
            AccessOp::Store => AccessKind::Store,
            AccessOp::Atomic => AccessKind::Atomic,
        }
    }

    fn pipe(self) -> PipeOp {
        match self {
            AccessOp::Load => PipeOp::Load,
            AccessOp::Store => PipeOp::Store,
            AccessOp::Atomic => PipeOp::Atomic,
        }
    }
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
                &self.cfg,
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

        /// Stages 2 and 4 of the launch pipeline over what the warps
        /// recorded (every region here is explicit, so the residency stage
        /// has nothing to classify).
        fn replay(&mut self, interleave: u64) {
            self.queue.coalesce();
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
}
