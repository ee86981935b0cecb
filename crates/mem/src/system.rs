//! The device-visible memory system: one word-addressed address space whose
//! regions each record the [`TransferMode`] they were placed under (by
//! [`MemSystem::place`], the one placement path), plus the PCIe link and the
//! UM driver. Release, prefetch and routing ask the region, not the caller.
//!
//! An explicit allocation that does not fit fails with [`MemError::Oom`] —
//! the O.O.M entries of the paper's Table III (each baseline's *actual*
//! footprint is allocated, not estimated). Host-backed allocations never
//! fail; their residency is managed by [`crate::um::UmDriver`]. Regions and
//! allocation live here, residency and routing in `residency`, the
//! host-side copy paths in `host`.

mod host;
mod residency;

use crate::adaptive::AdaptiveRegion;
use crate::pcie::PcieLink;
use crate::timeline::{Span, SpanKind};
use crate::um::{UmDriver, UmRegion, PAGE_BYTES, PAGE_WORDS};
use crate::Ns;
use eta_fault::{DeviceFaultState, FaultPlan};
use eta_prof::{ArgValue, Profiler, Track};
use host::InitShadow;

/// How a region's bytes reach the device (§IV-B and the Fig. 6 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Unified Memory with demand paging ("EtaGraph w/o UMP").
    Unified,
    /// Unified Memory plus `cudaMemPrefetchAsync` at start ("EtaGraph").
    UnifiedPrefetch,
    /// `cudaMalloc` + upfront `cudaMemcpy` ("w/o UM"); can go out of memory.
    ExplicitCopy,
    /// Pinned host memory mapped into the device; every access crosses the
    /// interconnect (§IV-B discusses this alternative).
    ZeroCopy,
    /// HyTGraph-style hybrid: unified allocation whose 64 KiB page groups
    /// are each served by demand paging, prefetch, or zero-copy, re-decided
    /// every iteration from observed access density (see
    /// [`crate::adaptive`]). Labels are byte-identical to every static mode
    /// — only timing differs.
    Adaptive,
}

impl TransferMode {
    /// CLI spelling (`--transfer {demand,prefetch,explicit,zerocopy,adaptive}`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "demand" => Some(TransferMode::Unified),
            "prefetch" => Some(TransferMode::UnifiedPrefetch),
            "explicit" => Some(TransferMode::ExplicitCopy),
            "zerocopy" => Some(TransferMode::ZeroCopy),
            "adaptive" => Some(TransferMode::Adaptive),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            TransferMode::Unified => "demand",
            TransferMode::UnifiedPrefetch => "prefetch",
            TransferMode::ExplicitCopy => "explicit",
            TransferMode::ZeroCopy => "zerocopy",
            TransferMode::Adaptive => "adaptive",
        }
    }

    /// Whether data placed under this mode lives in explicit device
    /// allocations. Every other mode keeps it host-backed.
    pub fn topology_is_explicit(self) -> bool {
        matches!(self, TransferMode::ExplicitCopy)
    }

    /// Device bytes [`MemSystem::place`] pins for `words` words under this
    /// mode: the explicit allocation, one word at least, or nothing for a
    /// host-backed mode (paged data competes for the UM budget that is left,
    /// and a zero-copy mapping never occupies device memory).
    pub fn pinned_bytes(self, words: usize) -> u64 {
        if self.topology_is_explicit() {
            words.max(1) as u64 * 4
        } else {
            0
        }
    }
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

/// One allocation: where it sits in the word space and how it was placed.
#[derive(Debug)]
struct Region {
    start_word: u64,
    len_words: u64,
    placed: Placed,
}

/// A region's [`TransferMode`] together with the state that mode needs.
#[derive(Debug)]
enum Placed {
    /// Device memory: always resident, counts against capacity.
    Explicit,
    /// Pinned host memory: never resident, every access crosses the link.
    ZeroCopy,
    /// UM driver region `um_index`, demand paged (and streamed by
    /// [`MemSystem::prefetch`] when placed for `prefetch`).
    Paged { um_index: usize, prefetch: bool },
    /// UM pages routed per page group by the region's own policy.
    Adaptive(AdaptiveRegion),
}

impl Placed {
    fn mode(&self) -> TransferMode {
        match self {
            Placed::Explicit => TransferMode::ExplicitCopy,
            Placed::ZeroCopy => TransferMode::ZeroCopy,
            Placed::Paged {
                prefetch: false, ..
            } => TransferMode::Unified,
            Placed::Paged { prefetch: true, .. } => TransferMode::UnifiedPrefetch,
            Placed::Adaptive(_) => TransferMode::Adaptive,
        }
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
    /// Every allocation in id order — the order every policy walk takes,
    /// so adaptive decisions are deterministic.
    regions: Vec<Region>,
    pub pcie: PcieLink,
    pub um: UmDriver,
    /// Bytes accessed through zero-copy regions or adaptive zero-copy page
    /// groups (always cross the link).
    pub zero_copy_bytes: u64,
    /// Scratch: the page indices of the warp access being resolved.
    page_scratch: Vec<usize>,
    /// The memcheck shadow state; `None` unless a sanitizer enabled it.
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

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    pub fn explicit_used_bytes(&self) -> u64 {
        self.explicit_used
    }

    /// Device bytes no explicit allocation holds: what is left for
    /// explicit allocations and, as its budget, for UM residency.
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.explicit_used)
    }

    /// The transfer mode `region` was placed under.
    pub fn mode(&self, region: RegionId) -> TransferMode {
        self.regions[region].placed.mode()
    }

    /// Records a region of `len_words` placed under `mode`, page aligned if
    /// paged, else sector aligned. [`MemSystem::alloc_explicit`] charges
    /// explicit capacity first.
    fn alloc(&mut self, len_words: u64, mode: TransferMode) -> DSlice {
        let paged = !matches!(mode, TransferMode::ExplicitCopy | TransferMode::ZeroCopy);
        let align = if paged { PAGE_WORDS } else { 8 };
        let start_word = (self.words.len() as u64).div_ceil(align) * align;
        self.words.resize((start_word + len_words) as usize, 0);
        let placed = match mode {
            TransferMode::ExplicitCopy => Placed::Explicit,
            TransferMode::ZeroCopy => Placed::ZeroCopy,
            TransferMode::Unified | TransferMode::UnifiedPrefetch | TransferMode::Adaptive => {
                Placed::Paged {
                    um_index: self.um.add_region(UmRegion::new(start_word, len_words)),
                    prefetch: mode == TransferMode::UnifiedPrefetch,
                }
            }
        };
        self.regions.push(Region {
            start_word,
            len_words,
            placed,
        });
        let slice = DSlice {
            region: self.regions.len() - 1,
            word_off: start_word,
            len: len_words,
        };
        if mode == TransferMode::Adaptive {
            self.enable_adaptive(slice);
        }
        slice
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
        Ok(self.alloc(len_words, TransferMode::ExplicitCopy))
    }

    /// `cudaMallocManaged` analog: host-backed, page-aligned, never fails.
    pub fn alloc_unified(&mut self, len_words: u64) -> DSlice {
        self.alloc(len_words, TransferMode::Unified)
    }

    /// Places `data` under `mode` at `now` in a region of `data.len().max(1)`
    /// words: an explicit copy chains on the link from `now`, host-backed
    /// data is written for free, and an adaptive region starts routing.
    /// Returns the slice and when its data is usable on the device.
    pub fn place(
        &mut self,
        data: &[u32],
        mode: TransferMode,
        now: Ns,
    ) -> Result<(DSlice, Ns), MemError> {
        let len_words = data.len().max(1) as u64;
        if mode.topology_is_explicit() {
            let slice = self.alloc_explicit(len_words)?;
            return Ok((slice, self.copy_h2d(slice, 0, data, now)));
        }
        let slice = self.alloc(len_words, mode);
        self.host_write(slice, 0, data);
        Ok((slice, now))
    }

    /// Retires a region the way it was placed: an explicit region returns
    /// its capacity, a paged or adaptive one its page residency (an
    /// adaptive one its claim on the budget too), and a zero-copy mapping
    /// held none. The bump storage is not reclaimed —
    /// experiments construct a fresh `MemSystem` per run.
    pub fn release(&mut self, slice: DSlice) {
        let r = &mut self.regions[slice.region];
        match &mut r.placed {
            Placed::Explicit => {
                self.explicit_used = self.explicit_used.saturating_sub(r.len_words * 4);
            }
            Placed::ZeroCopy => {}
            Placed::Paged { um_index, .. } => self.um.invalidate_region(*um_index),
            Placed::Adaptive(policy) => {
                // A retired region drops its claim and is never streamed
                // back in by a later tick.
                policy.release();
                self.um.invalidate_region(policy.um_index);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) const MODES: [TransferMode; 5] = [
        TransferMode::Unified,
        TransferMode::UnifiedPrefetch,
        TransferMode::ExplicitCopy,
        TransferMode::ZeroCopy,
        TransferMode::Adaptive,
    ];

    pub(crate) fn system(capacity: u64) -> MemSystem {
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
    fn release_returns_explicit_capacity() {
        let mut m = system(1024);
        let a = m.alloc_explicit(256).unwrap();
        assert_eq!(m.free_bytes(), 0);
        m.release(a);
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
    fn transfer_mode_parse_roundtrip() {
        for m in MODES {
            assert_eq!(TransferMode::parse(m.as_str()), Some(m));
            assert_eq!(m.topology_is_explicit(), m == TransferMode::ExplicitCopy);
        }
        assert_eq!(TransferMode::parse("um"), None);
        assert_eq!(TransferMode::parse(""), None);
    }

    #[test]
    fn place_records_its_mode_and_pins_what_it_says() {
        let data: Vec<u32> = (0..3000).collect();
        for mode in MODES {
            for words in [&data[..], &data[..0]] {
                let mut m = system(1 << 20);
                m.alloc_explicit(3).unwrap(); // unaligned bump pointer
                let before = m.explicit_used_bytes();
                let (s, ready) = m.place(words, mode, 500).unwrap();
                assert_eq!(m.mode(s.region), mode);
                assert_eq!(
                    m.explicit_used_bytes() - before,
                    mode.pinned_bytes(words.len())
                );
                let align = if mode.topology_is_explicit() || mode == TransferMode::ZeroCopy {
                    8
                } else {
                    PAGE_WORDS
                };
                assert_eq!(s.word_off % align, 0, "{mode:?}");
                assert_eq!(s.len, words.len().max(1) as u64);
                assert_eq!(m.host_read(s, 0, words.len() as u64), words);
                // Only the explicit copy occupies the link.
                if mode.topology_is_explicit() {
                    assert!(ready > 500);
                    assert_eq!(m.pcie.bytes_moved(), words.len() as u64 * 4);
                } else {
                    assert_eq!(ready, 500);
                    assert!(m.pcie.timeline.spans().is_empty());
                }
            }
        }
    }

    #[test]
    fn explicit_place_fails_typed_when_full() {
        let mut m = system(1024);
        let err = m
            .place(&[7; 300], TransferMode::ExplicitCopy, 0)
            .unwrap_err();
        assert!(matches!(err, MemError::Oom { .. }));
        assert_eq!(m.explicit_used_bytes(), 0);
        // The host-backed modes never fail.
        for mode in [TransferMode::Unified, TransferMode::ZeroCopy] {
            assert!(m.place(&[7; 300], mode, 0).is_ok());
        }
    }

    #[test]
    fn release_follows_the_placement() {
        // A region of each mode, filled, then released: explicit capacity
        // and UM residency both return to where they were, and a zero-copy
        // release touches neither.
        for mode in MODES {
            let mut m = system(1 << 24);
            let (used, resident) = (m.explicit_used_bytes(), m.um.resident_bytes());
            let (s, _) = m.place(&vec![1; 8 * PAGE_WORDS as usize], mode, 0).unwrap();
            let sectors: Vec<u64> = (s.word_off / 8..(s.word_off + s.len) / 8).collect();
            m.ensure_resident(s.region, &sectors, 0);
            let paged = !matches!(mode, TransferMode::ExplicitCopy | TransferMode::ZeroCopy);
            assert_eq!(m.um.resident_bytes() > resident, paged, "{mode:?}");
            m.release(s);
            assert_eq!(m.explicit_used_bytes(), used, "{mode:?}");
            assert_eq!(m.um.resident_bytes(), resident, "{mode:?}");
            m.um.check_invariants();
        }
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
}
