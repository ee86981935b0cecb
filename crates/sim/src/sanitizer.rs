//! `eta-sanitizer`: a `compute-sanitizer` analogue for the simulated GPU.
//!
//! The simulator executes warps to completion, one at a time, so bug classes
//! that corrupt results on real hardware are silently serialized away:
//! inter-warp data races on label arrays, out-of-bounds CSR indexing, reads
//! of never-initialized device words. This module is the diagnostic layer
//! that makes them visible again — the same job `compute-sanitizer` does for
//! real CUDA kernels. Three analyses run over the per-lane access stream:
//!
//! * **memcheck** — every global access is bounds-checked against its
//!   [`DSlice`] before address resolution (offending lanes are masked off
//!   and reported, mirroring compute-sanitizer's report-and-continue), and
//!   every global read is checked against the per-word initialization shadow
//!   state kept by [`MemSystem`] (`--tool memcheck` / `--tool initcheck`).
//! * **racecheck** — within one launch, two warps touching the same global
//!   word where at least one access is a *non-atomic* store is a data race:
//!   the run-to-completion scheduler imposes an ordering the hardware does
//!   not. Shared-memory words get the same treatment between warps of one
//!   block; the kernel API has no `__syncthreads` analogue, so any such pair
//!   is a true hazard, not a barrier-ordered handoff (`--tool racecheck`).
//! * **lint** — advisory access-pattern diagnostics per kernel: sectors per
//!   instruction and the fraction of fully-uncoalesced sites, branch
//!   divergence ratio, degenerate (≤1-row) SMP bursts, and a shared-memory
//!   bank-conflict estimate. These mirror what Nsight Compute flags; on
//!   irregular graph traversal some are expected and they are therefore
//!   [`Severity::Warning`], never errors.
//!
//! [`crate::warp::WarpCtx`] calls one hook per memory space:
//! [`Sanitizer::global`] for every global instruction — a plain one is a
//! burst of one row per lane — and [`Sanitizer::shared`]. The sanitizer is
//! opt-in via [`crate::GpuConfig::sanitizer`]; attached, it runs all three
//! analyses, and when off the hot paths skip every hook.

use crate::config::WARP_SIZE;
use crate::warp::{active_lanes, Lanes, WarpId};
use eta_mem::access::PipeOp;
use eta_mem::coalesce::sectors_for_warp;
use eta_mem::system::{DSlice, MemSystem, TransferMode};
use serde::Serialize;
use std::collections::HashMap;

/// Whether a sanitizer is attached: `Full` (what `--sanitize` selects)
/// runs memcheck, racecheck and lint together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizerMode {
    #[default]
    Off,
    Full,
}

impl SanitizerMode {
    pub fn enabled(self) -> bool {
        self == SanitizerMode::Full
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FindingKind {
    /// Global index past its slice length (memcheck).
    OutOfBounds,
    /// Shared-memory index past the block's shared allocation (memcheck).
    SharedOutOfBounds,
    /// Global read of a word no host copy or kernel store wrote (memcheck).
    UninitRead,
    /// Two warps, same global word, ≥1 non-atomic store (racecheck).
    GlobalRace,
    /// Two warps of one block, same shared word, ≥1 store (racecheck).
    SharedRace,
    /// Sectors/instruction near the active lane count: no coalescing (lint).
    UncoalescedAccess,
    /// Mean active-lane fraction below threshold (lint).
    HighDivergence,
    /// SMP bursts that cover ≤1 row: vectorization buys nothing (lint).
    DegenerateBurst,
    /// Estimated shared-memory bank serialization above threshold (lint).
    SharedBankConflicts,
    /// An injected ECC error detected during a launch (eta-fault): corrected
    /// single-bit flips are warnings, uncorrectable double-bit flips errors.
    EccError,
    /// Store or atomic to a zero-copy region (lint). Writes over the mapped
    /// pinned path are uncached and serialize on the interconnect — real
    /// zero-copy graph layouts keep mutable state (labels, frontiers) in
    /// device memory and map only read-only topology.
    ZeroCopyStore,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Severity {
    Error,
    Warning,
}

/// One reported site. Repeats at the same (kind, kernel, slice) fold into
/// `occurrences`, keeping the first site's coordinates — the
/// compute-sanitizer convention of one report per distinct hazard.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    pub kind: FindingKind,
    pub severity: Severity,
    pub kernel: String,
    pub block: u32,
    pub warp: u32,
    pub lane: u32,
    /// Region id of the slice (shared-memory findings use `u64::MAX`).
    pub region: u64,
    /// Global word address (shared findings: the shared word index).
    pub addr: u64,
    /// Element index within the slice at the first site.
    pub index: u64,
    pub slice_len: u64,
    pub occurrences: u64,
    pub detail: String,
}

/// Per-kernel access-pattern aggregates, accumulated across launches.
#[derive(Debug, Clone, Default, Serialize)]
pub struct KernelLintStats {
    pub name: String,
    pub launches: u64,
    /// Global-memory warp instructions (loads, stores, atomics; not bursts).
    pub mem_instructions: u64,
    /// Sum of active lanes over those instructions.
    pub active_lanes: u64,
    /// Sum of 32 B sector transactions those instructions issued.
    pub sectors: u64,
    /// Instructions with ≥8 active lanes that coalesced nothing at all.
    pub uncoalesced_sites: u64,
    pub shared_instructions: u64,
    /// Σ(max ways − 1) of the per-instruction bank multiplicity estimate.
    pub bank_conflict_excess: u64,
    pub bursts: u64,
    pub degenerate_bursts: u64,
}

impl KernelLintStats {
    /// Mean fraction of the 32 lanes active per global-memory instruction.
    pub fn divergence_ratio(&self) -> f64 {
        if self.mem_instructions == 0 {
            return 1.0;
        }
        self.active_lanes as f64 / (self.mem_instructions * WARP_SIZE as u64) as f64
    }

    pub fn sectors_per_instruction(&self) -> f64 {
        if self.mem_instructions == 0 {
            return 0.0;
        }
        self.sectors as f64 / self.mem_instructions as f64
    }

    pub fn uncoalesced_fraction(&self) -> f64 {
        if self.mem_instructions == 0 {
            return 0.0;
        }
        self.uncoalesced_sites as f64 / self.mem_instructions as f64
    }

    /// Mean shared-memory bank serialization (1.0 = conflict-free).
    pub fn avg_bank_conflict_ways(&self) -> f64 {
        if self.shared_instructions == 0 {
            return 1.0;
        }
        1.0 + self.bank_conflict_excess as f64 / self.shared_instructions as f64
    }
}

/// Lint thresholds (see DESIGN.md for the rationale). A kernel below the
/// instruction floors is too small to judge.
pub const LINT_MIN_INSTRUCTIONS: u64 = 64;
pub const LINT_UNCOALESCED_FRACTION: f64 = 0.25;
pub const LINT_UNCOALESCED_SECTORS_PER_INSTR: f64 = 8.0;
pub const LINT_DIVERGENCE_RATIO: f64 = 0.5;
pub const LINT_BANK_CONFLICT_WAYS: f64 = 2.0;
pub const LINT_MIN_BURSTS: u64 = 16;

/// The full result of a sanitized run, JSON-serializable for `--sanitize`
/// and `report sanitize`.
#[derive(Debug, Clone, Serialize)]
pub struct SanitizerReport {
    pub mode: &'static str,
    pub launches: u64,
    pub errors: Vec<Finding>,
    pub warnings: Vec<Finding>,
    pub kernels: Vec<KernelLintStats>,
}

impl SanitizerReport {
    /// No memcheck/racecheck errors (lint warnings are advisory).
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Human-readable summary, one line per finding.
    pub fn summarize(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sanitizer ({}): {} launches, {} error(s), {} warning(s)",
            self.mode,
            self.launches,
            self.errors.len(),
            self.warnings.len()
        );
        for f in self.errors.iter().chain(self.warnings.iter()) {
            let _ = writeln!(
                out,
                "  {:?} [{:?}] kernel={} warp=({},{}) lane={} addr={} x{}: {}",
                f.severity,
                f.kind,
                f.kernel,
                f.block,
                f.warp,
                f.lane,
                f.addr,
                f.occurrences,
                f.detail
            );
        }
        out
    }
}

/// The racecheck state of one word within one launch: the first two distinct
/// warps seen and the first warp that did a non-atomic store. A race exists
/// as soon as a storing warp and any *other* warp have both touched the word
/// — the store warp is one of the (≤2) recorded warps, so two distinct warps
/// plus a recorded store is necessary and sufficient.
#[derive(Debug, Clone, Copy)]
struct WordState {
    first_warp: (u32, u32),
    second_warp: Option<(u32, u32)>,
    store_warp: Option<(u32, u32)>,
    reported: bool,
}

/// Updates `map[key]` with one access; returns `Some((store_warp,
/// other_warp))` the first time the word becomes a race.
fn track<K: Eq + std::hash::Hash>(
    map: &mut HashMap<K, WordState>,
    key: K,
    warp: (u32, u32),
    plain_store: bool,
) -> Option<((u32, u32), (u32, u32))> {
    let st = map.entry(key).or_insert(WordState {
        first_warp: warp,
        second_warp: None,
        store_warp: None,
        reported: false,
    });
    if st.second_warp.is_none() && warp != st.first_warp {
        st.second_warp = Some(warp);
    }
    if plain_store && st.store_warp.is_none() {
        st.store_warp = Some(warp);
    }
    if st.reported {
        return None;
    }
    let sw = st.store_warp?;
    let other = if st.first_warp != sw {
        st.first_warp
    } else {
        st.second_warp?
    };
    st.reported = true;
    Some((sw, other))
}

/// Region id stand-in for shared-memory findings (shared memory is per-block
/// scratch, not a [`MemSystem`] region).
const SHARED_REGION: u64 = u64::MAX;

/// Region id stand-in for ECC findings (an ECC event hits a physical word
/// range, not a specific slice).
const ECC_REGION: u64 = u64::MAX - 1;

/// One hazard a hook saw, before [`Sanitizer::record`] folds it into a
/// [`Finding`] of the current kernel. Only a zero-copy store is a warning.
struct Site {
    kind: FindingKind,
    id: WarpId,
    lane: usize,
    region: u64,
    addr: u64,
    index: u64,
    slice_len: u64,
    detail: String,
}

/// The streaming analysis sink. Owned by [`crate::Device`]; a mutable
/// reference is threaded through every [`crate::warp::WarpCtx`].
#[derive(Default)]
pub struct Sanitizer {
    launches: u64,
    findings: Vec<Finding>,
    /// Folded sites: (kind, the kernel's index in `lint`, region) to the
    /// finding's index in `findings`.
    dedup: HashMap<(FindingKind, usize, u64), usize>,
    /// Per-launch racecheck state, keyed by global word address.
    global_words: HashMap<u64, WordState>,
    /// Per-launch shared racecheck state, keyed by (block, shared index).
    shared_words: HashMap<(u32, u32), WordState>,
    lint: Vec<KernelLintStats>,
    lint_index: HashMap<String, usize>,
    /// The launching kernel's index in `lint`.
    cur_lint: usize,
    /// Coalescing scratch for the lint transaction count.
    sector_scratch: Vec<u64>,
}

impl Sanitizer {
    pub fn begin_launch(&mut self, kernel: &str) {
        self.launches += 1;
        self.cur_lint = match self.lint_index.get(kernel) {
            Some(&i) => i,
            None => {
                self.lint_index.insert(kernel.to_string(), self.lint.len());
                self.lint.push(KernelLintStats {
                    name: kernel.to_string(),
                    ..KernelLintStats::default()
                });
                self.lint.len() - 1
            }
        };
        self.lint[self.cur_lint].launches += 1;
    }

    /// The racecheck scope is one launch: kernels in one grid run concurrently,
    /// successive launches are ordered by the stream.
    pub fn end_launch(&mut self) {
        self.global_words.clear();
        self.shared_words.clear();
    }

    fn record(&mut self, site: Site) {
        let key = (site.kind, self.cur_lint, site.region);
        if let Some(&i) = self.dedup.get(&key) {
            self.findings[i].occurrences += 1;
            return;
        }
        self.dedup.insert(key, self.findings.len());
        self.findings.push(Finding {
            kind: site.kind,
            severity: match site.kind {
                FindingKind::ZeroCopyStore => Severity::Warning,
                _ => Severity::Error,
            },
            kernel: self.lint[self.cur_lint].name.clone(),
            block: site.id.block,
            warp: site.id.warp_in_block,
            lane: site.lane as u32,
            region: site.region,
            addr: site.addr,
            index: site.index,
            slice_len: site.slice_len,
            occurrences: 1,
            detail: site.detail,
        });
    }

    /// Records an injected ECC event (eta-fault) detected during `kernel`'s
    /// launch span. ECC detection is hardware-side, so it is no access
    /// hook's finding; each event is its own finding (no site folding —
    /// every ECC hit is a distinct physical event).
    pub fn note_ecc(
        &mut self,
        kernel: &str,
        addr_start: u64,
        addr_words: u64,
        double_bit: bool,
        at_ns: u64,
    ) {
        let (severity, what) = if double_bit {
            (Severity::Error, "uncorrectable double-bit")
        } else {
            (Severity::Warning, "corrected single-bit")
        };
        self.findings.push(Finding {
            kind: FindingKind::EccError,
            severity,
            kernel: kernel.to_string(),
            block: 0,
            warp: 0,
            lane: 0,
            region: ECC_REGION,
            addr: addr_start,
            index: 0,
            slice_len: addr_words,
            occurrences: 1,
            detail: format!(
                "{what} ECC error in words [{addr_start}, {}) at {at_ns} ns",
                addr_start + addr_words
            ),
        });
    }

    /// The global-memory hook, called once per warp instruction before any
    /// address resolves. Each `mask` lane touches the `count[lane]`
    /// consecutive words of `s` from `start[lane]` — an SMP burst — or,
    /// with no `count`, the one word `start[lane]`: a plain instruction is
    /// a one-row burst. Checks bounds, then per lane and row in ascending
    /// order initialization (loads and atomics) and races, and accounts the
    /// lint of the shape. Returns `mask` without the out-of-bounds lanes
    /// (report-and-continue, where `DSlice::addr` would panic).
    #[allow(clippy::too_many_arguments)] // an instruction is irreducibly wide
    pub fn global(
        &mut self,
        id: WarpId,
        op: PipeOp,
        s: DSlice,
        start: &Lanes,
        count: Option<&Lanes>,
        mask: u32,
        mem: &MemSystem,
    ) -> u32 {
        let rows = |lane: usize| count.map_or(1, |count| count[lane] as u64);
        let site = |kind, lane, addr, index, detail| Site {
            kind,
            id,
            lane,
            region: s.region as u64,
            addr,
            index,
            slice_len: s.len,
            detail,
        };
        let burst = count.is_some();
        let mut ok = mask;
        for lane in active_lanes(mask) {
            let (first, n) = (start[lane] as u64, rows(lane));
            if n > 0 && first + n > s.len {
                ok &= !(1 << lane);
                let what = if burst {
                    format!("burst [{first}..{})", first + n)
                } else {
                    format!("global index {first}")
                };
                let detail = format!("{what} out of bounds for slice of {} words", s.len);
                let (addr, last) = (s.word_off + first, first + n - 1);
                self.record(site(FindingKind::OutOfBounds, lane, addr, last, detail));
            }
        }
        let l = &mut self.lint[self.cur_lint];
        if burst {
            l.bursts += 1;
            l.degenerate_bursts += u64::from(active_lanes(ok).all(|lane| rows(lane) <= 1));
        } else {
            let addrs = start.map(|i| s.word_off + i as u64);
            sectors_for_warp(&addrs, ok, &mut self.sector_scratch);
            let (active, sectors) = (ok.count_ones() as u64, self.sector_scratch.len() as u64);
            l.mem_instructions += 1;
            l.active_lanes += active;
            l.sectors += sectors;
            l.uncoalesced_sites += u64::from(active >= 8 && sectors >= active);
            if ok != 0 && op != PipeOp::Load && mem.mode(s.region) == TransferMode::ZeroCopy {
                let lane = ok.trailing_zeros() as usize;
                let (addr, index) = (addrs[lane], start[lane] as u64);
                let detail = "store/atomic to a zero-copy mapping: uncached host writes serialize on the link";
                self.record(site(
                    FindingKind::ZeroCopyStore,
                    lane,
                    addr,
                    index,
                    detail.into(),
                ));
            }
        }
        let read = if burst { "burst read" } else { "read" };
        let plain_store = op == PipeOp::Store;
        let warp = (id.block, id.warp_in_block);
        for lane in active_lanes(ok) {
            let first = start[lane] as u64;
            for index in first..first + rows(lane) {
                let addr = s.word_off + index;
                // Atomics read-modify-write, so they join loads here.
                if !plain_store && !mem.is_word_init(addr) {
                    let detail = format!("{read} of never-written device word (index {index})");
                    self.record(site(FindingKind::UninitRead, lane, addr, index, detail));
                }
                if let Some((sw, other)) = track(&mut self.global_words, addr, warp, plain_store) {
                    let detail = format!(
                        "non-atomic store by warp ({},{}) races warp ({},{}) on the same word",
                        sw.0, sw.1, other.0, other.1
                    );
                    self.record(site(FindingKind::GlobalRace, lane, addr, index, detail));
                }
            }
        }
        ok
    }

    /// The shared-memory hook: bounds (returning the filtered mask),
    /// bank-conflict lint, and inter-warp race tracking within the block.
    pub fn shared(
        &mut self,
        id: WarpId,
        op: PipeOp,
        shared_len: usize,
        idx: &Lanes,
        mask: u32,
    ) -> u32 {
        let site = |kind, lane: usize, detail| Site {
            kind,
            id,
            lane,
            region: SHARED_REGION,
            addr: idx[lane] as u64,
            index: idx[lane] as u64,
            slice_len: shared_len as u64,
            detail,
        };
        let mut ok = mask;
        for lane in active_lanes(mask) {
            if idx[lane] as usize >= shared_len {
                ok &= !(1 << lane);
                let detail = format!(
                    "shared index {} out of bounds for {shared_len} shared words",
                    idx[lane]
                );
                self.record(site(FindingKind::SharedOutOfBounds, lane, detail));
            }
        }
        // Bank multiplicity over *distinct* addresses: same-word access
        // broadcasts on hardware and does not serialize.
        let mut distinct: Vec<u32> = active_lanes(ok).map(|lane| idx[lane]).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut banks = [0u64; 32];
        for a in distinct {
            banks[(a % 32) as usize] += 1;
        }
        let l = &mut self.lint[self.cur_lint];
        l.shared_instructions += 1;
        l.bank_conflict_excess += banks.into_iter().max().unwrap_or(0).saturating_sub(1);
        let (warp, plain_store) = ((id.block, id.warp_in_block), op == PipeOp::Store);
        for lane in active_lanes(ok) {
            let key = (id.block, idx[lane]);
            if let Some((sw, other)) = track(&mut self.shared_words, key, warp, plain_store) {
                let detail = format!(
                    "warps ({},{}) and ({},{}) of block {} conflict on shared word {} with no barrier",
                    sw.0, sw.1, other.0, other.1, id.block, idx[lane]
                );
                self.record(site(FindingKind::SharedRace, lane, detail));
            }
        }
        ok
    }

    pub fn report(&self) -> SanitizerReport {
        let (errors, mut warnings): (Vec<Finding>, Vec<Finding>) = self
            .findings
            .iter()
            .cloned()
            .partition(|f| f.severity == Severity::Error);
        for l in &self.lint {
            let site = |kind, detail| Finding {
                kind,
                severity: Severity::Warning,
                kernel: l.name.clone(),
                block: 0,
                warp: 0,
                lane: 0,
                region: 0,
                addr: 0,
                index: 0,
                slice_len: 0,
                occurrences: 1,
                detail,
            };
            if l.mem_instructions >= LINT_MIN_INSTRUCTIONS
                && l.uncoalesced_fraction() > LINT_UNCOALESCED_FRACTION
                && l.sectors_per_instruction() > LINT_UNCOALESCED_SECTORS_PER_INSTR
            {
                warnings.push(site(
                    FindingKind::UncoalescedAccess,
                    format!(
                        "{:.0}% of global instructions coalesce nothing ({:.1} sectors/instr)",
                        l.uncoalesced_fraction() * 100.0,
                        l.sectors_per_instruction()
                    ),
                ));
            }
            if l.mem_instructions >= LINT_MIN_INSTRUCTIONS
                && l.divergence_ratio() < LINT_DIVERGENCE_RATIO
            {
                warnings.push(site(
                    FindingKind::HighDivergence,
                    format!(
                        "mean active-lane fraction {:.2} below {LINT_DIVERGENCE_RATIO}",
                        l.divergence_ratio()
                    ),
                ));
            }
            if l.bursts >= LINT_MIN_BURSTS && l.degenerate_bursts * 2 > l.bursts {
                warnings.push(site(
                    FindingKind::DegenerateBurst,
                    format!(
                        "{} of {} SMP bursts cover ≤1 row",
                        l.degenerate_bursts, l.bursts
                    ),
                ));
            }
            if l.shared_instructions >= LINT_MIN_INSTRUCTIONS
                && l.avg_bank_conflict_ways() > LINT_BANK_CONFLICT_WAYS
            {
                warnings.push(site(
                    FindingKind::SharedBankConflicts,
                    format!(
                        "estimated {:.1}-way shared-memory bank serialization",
                        l.avg_bank_conflict_ways()
                    ),
                ));
            }
        }
        SanitizerReport {
            mode: "full",
            launches: self.launches,
            errors,
            warnings,
            kernels: self.lint.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wid(block: u32, warp: u32) -> WarpId {
        WarpId {
            block,
            warp_in_block: warp,
            threads_per_block: 256,
            grid_blocks: 4,
        }
    }

    fn dslice(len: u64) -> DSlice {
        DSlice {
            region: 0,
            word_off: 0,
            len,
        }
    }

    fn mem() -> MemSystem {
        MemSystem::new(1 << 20, eta_mem::PcieLink::new(12.0, 1000))
    }

    #[test]
    fn mode_is_off_or_full() {
        assert!(!SanitizerMode::Off.enabled());
        assert!(SanitizerMode::Full.enabled());
        assert_eq!(SanitizerMode::default(), SanitizerMode::Off);
        assert_eq!(Sanitizer::default().report().mode, "full");
    }

    #[test]
    fn global_masks_and_reports_oob() {
        let mut san = Sanitizer::default();
        san.begin_launch("k");
        let mut idx = [0u32; WARP_SIZE];
        idx[3] = 100; // past the slice
        let ok = san.global(
            wid(0, 0),
            PipeOp::Load,
            dslice(10),
            &idx,
            None,
            0b1111,
            &mem(),
        );
        assert_eq!(ok, 0b0111, "offending lane dropped");
        let rep = san.report();
        assert_eq!(rep.errors.len(), 1);
        assert_eq!(rep.errors[0].kind, FindingKind::OutOfBounds);
        assert_eq!(rep.errors[0].lane, 3);
        assert_eq!(rep.errors[0].index, 100);
        assert_eq!(rep.errors[0].slice_len, 10);
    }

    #[test]
    fn repeats_fold_into_occurrences() {
        let mut san = Sanitizer::default();
        san.begin_launch("k");
        let mut idx = [0u32; WARP_SIZE];
        idx[0] = 50;
        for _ in 0..5 {
            san.global(wid(0, 0), PipeOp::Load, dslice(10), &idx, None, 1, &mem());
        }
        let rep = san.report();
        assert_eq!(rep.errors.len(), 1);
        assert_eq!(rep.errors[0].occurrences, 5);
    }

    #[test]
    fn race_needs_two_warps_and_a_plain_store() {
        // Same warp storing twice: no race.
        let mut m: HashMap<u64, WordState> = HashMap::new();
        assert!(track(&mut m, 7, (0, 0), true).is_none());
        assert!(track(&mut m, 7, (0, 0), true).is_none());
        // Second warp *loads* the stored word: race, reported once.
        let hit = track(&mut m, 7, (0, 1), false);
        assert_eq!(hit, Some(((0, 0), (0, 1))));
        assert!(track(&mut m, 7, (0, 2), false).is_none(), "reported once");

        // Atomics from many warps: never a race.
        let mut m2: HashMap<u64, WordState> = HashMap::new();
        for w in 0..8 {
            assert!(track(&mut m2, 9, (0, w), false).is_none());
        }
        // A store arriving *after* other warps already touched the word.
        assert_eq!(track(&mut m2, 9, (7, 7), true), Some(((7, 7), (0, 0))));
    }

    #[test]
    fn end_launch_clears_race_scope() {
        let mut san = Sanitizer::default();
        let mut mem = mem();
        let s = mem.alloc_explicit(64).unwrap();
        let idx = [0u32; WARP_SIZE];
        san.begin_launch("a");
        san.global(wid(0, 0), PipeOp::Store, s, &idx, None, 1, &mem);
        san.end_launch();
        // A different launch touching the same word is stream-ordered.
        san.begin_launch("b");
        san.global(wid(1, 0), PipeOp::Load, s, &idx, None, 1, &mem);
        san.end_launch();
        assert!(san.report().is_clean());
    }

    #[test]
    fn lint_thresholds() {
        let mut l = KernelLintStats {
            mem_instructions: 100,
            active_lanes: 100 * 8,
            sectors: 100 * 30,
            uncoalesced_sites: 90,
            ..KernelLintStats::default()
        };
        assert!(l.divergence_ratio() < LINT_DIVERGENCE_RATIO);
        assert!(l.uncoalesced_fraction() > LINT_UNCOALESCED_FRACTION);
        assert!(l.sectors_per_instruction() > LINT_UNCOALESCED_SECTORS_PER_INSTR);
        l.shared_instructions = 100;
        l.bank_conflict_excess = 1500; // 16-way conflicts throughout
        assert!(l.avg_bank_conflict_ways() > LINT_BANK_CONFLICT_WAYS);
        // Empty stats stay neutral.
        let e = KernelLintStats::default();
        assert_eq!(e.divergence_ratio(), 1.0);
        assert_eq!(e.avg_bank_conflict_ways(), 1.0);
    }

    #[test]
    fn shared_bank_conflict_estimate_counts_strided_access() {
        let mut san = Sanitizer::default();
        san.begin_launch("k");
        // Stride 16 over 32 lanes → addresses hit 2 banks, 16 deep.
        let mut idx = [0u32; WARP_SIZE];
        for (lane, slot) in idx.iter_mut().enumerate() {
            *slot = (lane as u32) * 16;
        }
        san.shared(wid(0, 0), PipeOp::Load, 1 << 10, &idx, u32::MAX);
        assert_eq!(san.lint[0].bank_conflict_excess, 15);
        // Broadcast (same word) is conflict-free.
        san.shared(wid(0, 0), PipeOp::Load, 1 << 10, &[5; WARP_SIZE], u32::MAX);
        assert_eq!(san.lint[0].bank_conflict_excess, 15);
    }

    #[test]
    fn zero_copy_store_is_a_lint_warning() {
        let mut san = Sanitizer::default();
        let mut mem = mem();
        let (zc, _) = mem.place(&[0; 64], TransferMode::ZeroCopy, 0).unwrap();
        san.begin_launch("k");
        let idx = [0u32; WARP_SIZE];
        // Loads through zero-copy are the intended pattern: clean.
        san.global(wid(0, 0), PipeOp::Load, zc, &idx, None, 1, &mem);
        assert!(san.report().warnings.is_empty());
        // A store is flagged — as a warning, so gates stay green.
        san.global(wid(0, 0), PipeOp::Store, zc, &idx, None, 1, &mem);
        san.global(wid(0, 0), PipeOp::Atomic, zc, &idx, None, 1, &mem);
        let rep = san.report();
        assert!(rep.is_clean(), "warnings never break is_clean");
        assert_eq!(rep.warnings.len(), 1, "site-folded");
        assert_eq!(rep.warnings[0].kind, FindingKind::ZeroCopyStore);
        assert_eq!(rep.warnings[0].occurrences, 2);
        // Stores to a normal explicit region are not flagged.
        let ex = mem.alloc_explicit(64).unwrap();
        san.global(wid(0, 0), PipeOp::Store, ex, &idx, None, 1, &mem);
        assert_eq!(san.report().warnings.len(), 1);
    }

    #[test]
    fn report_serializes_to_json() {
        let mut san = Sanitizer::default();
        san.begin_launch("k");
        let mut idx = [0u32; WARP_SIZE];
        idx[0] = 99;
        san.global(wid(2, 1), PipeOp::Load, dslice(4), &idx, None, 1, &mem());
        let rep = san.report();
        assert!(!rep.is_clean());
        let text = rep.summarize();
        assert!(text.contains("OutOfBounds"), "{text}");
        assert!(text.contains("kernel=k"), "{text}");
    }
}
