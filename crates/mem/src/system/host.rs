//! Host-side paths: untimed host reads and writes, timed explicit copies,
//! functional word loads and stores, and the memcheck shadow they keep.

use super::{DSlice, MemSystem};
use crate::timeline::SpanKind;
use crate::Ns;

/// Per-word initialization bitmap: the memcheck shadow state.
///
/// One bit per device word, grown lazily. A word becomes initialized when
/// the host writes it (`host_write`/`host_fill`/`copy_h2d`) or a kernel
/// stores to it (`set_word`); allocation alone does not initialize — the
/// backing `Vec` is zeroed, but reading that zero is exactly the bug class
/// `compute-sanitizer --tool initcheck` exists to catch.
#[derive(Debug, Default)]
pub(super) struct InitShadow {
    bits: Vec<u64>,
}

impl InitShadow {
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

impl MemSystem {
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
            shadow.mark_range(addr, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::system::tests::system;

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
    fn disabled_profiler_records_nothing_on_transfers() {
        let mut m = system(1 << 20);
        let a = m.alloc_explicit(1024).unwrap();
        m.copy_h2d(a, 0, &vec![1u32; 1024], 0);
        assert!(m.prof.is_empty());
        assert_eq!(m.prof.allocated_bytes(), 0);
    }
}
