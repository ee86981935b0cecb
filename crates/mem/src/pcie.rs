//! PCIe interconnect model.
//!
//! The link is a serially-occupied resource: each transfer has a fixed setup
//! latency (driver + DMA launch) followed by `bytes / bandwidth` of wire
//! time, and transfers queue behind each other. That is all the fidelity the
//! paper's results need — its data-transfer findings are about *volume*
//! (space-efficient CSR transfers less), *granularity* (4 KiB faults vs 2 MiB
//! prefetch chunks amortize the setup latency very differently, Table V) and
//! *scheduling* (on-demand migration overlaps with compute, Fig. 4).

use crate::timeline::{Span, SpanKind, Timeline};
use crate::Ns;

/// Pageable-memory copies reach only a fraction of the pinned-memory wire
/// rate: `cudaMemcpy` from ordinary host allocations stages through a
/// pinned bounce buffer. UM migrations and prefetches are driver-managed
/// pinned transfers and run at full bandwidth — one of the reasons the
/// paper's Unified-Memory variants beat plain `cudaMalloc`+`cudaMemcpy`.
pub const PAGEABLE_FACTOR: f64 = 0.65;

/// A PCIe-like host↔device link.
#[derive(Debug, Clone)]
pub struct PcieLink {
    /// Effective bandwidth in bytes per nanosecond (= GB/s).
    bytes_per_ns: f64,
    /// Fixed per-transfer setup latency.
    latency_ns: Ns,
    /// Time at which the link becomes free.
    busy_until: Ns,
    /// Recorded transfer spans.
    pub timeline: Timeline,
    /// Total payload bytes moved (both directions).
    bytes_moved: u64,
    /// Degradation windows `(start, end, factor)`: a transfer *starting*
    /// inside `[start, end)` takes `factor`× its nominal wire time (link
    /// retraining, lane drop). Empty by default, so the untouched link is
    /// byte-identical to one that predates fault injection.
    slowdowns: Vec<(Ns, Ns, f64)>,
}

impl PcieLink {
    /// `bandwidth_gb_s` is in GB/s (1 GB/s == 1 byte/ns).
    pub fn new(bandwidth_gb_s: f64, latency_ns: Ns) -> Self {
        assert!(bandwidth_gb_s > 0.0);
        PcieLink {
            bytes_per_ns: bandwidth_gb_s,
            latency_ns,
            busy_until: 0,
            timeline: Timeline::new(),
            bytes_moved: 0,
            slowdowns: Vec::new(),
        }
    }

    /// Installs bandwidth-degradation windows (from a fault plan).
    pub fn set_slowdowns(&mut self, windows: Vec<(Ns, Ns, f64)>) {
        self.slowdowns = windows;
    }

    pub fn latency_ns(&self) -> Ns {
        self.latency_ns
    }

    pub fn bandwidth_gb_s(&self) -> f64 {
        self.bytes_per_ns
    }

    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    pub fn busy_until(&self) -> Ns {
        self.busy_until
    }

    /// Pure wire time for `bytes` (no queueing, no latency).
    pub fn wire_time(&self, bytes: u64) -> Ns {
        (bytes as f64 / self.bytes_per_ns).ceil() as Ns
    }

    /// Schedules a transfer requested at `now`; returns `(start, end)`.
    ///
    /// The transfer starts when both the requester is ready (`now`) and the
    /// link is free, pays the setup latency, then streams the payload.
    pub fn transfer(&mut self, kind: SpanKind, bytes: u64, now: Ns) -> (Ns, Ns) {
        self.transfer_with_setup(kind, bytes, now, 0)
    }

    /// Like [`Self::transfer`] but with additional setup time, used for
    /// page-fault-triggered migrations whose driver-side service (fault
    /// reporting, TLB shootdown, page-table updates) far exceeds the DMA
    /// launch cost.
    pub fn transfer_with_setup(
        &mut self,
        kind: SpanKind,
        bytes: u64,
        now: Ns,
        extra_setup_ns: Ns,
    ) -> (Ns, Ns) {
        debug_assert!(kind.is_transfer(), "compute spans don't use the link");
        let start = now.max(self.busy_until);
        let mut wire = match kind {
            // Explicit copies of pageable host memory pay the staging tax.
            SpanKind::CopyH2D | SpanKind::CopyD2H => {
                (self.wire_time(bytes) as f64 / PAGEABLE_FACTOR).ceil() as Ns
            }
            _ => self.wire_time(bytes),
        };
        // Overlapping degradation windows compound multiplicatively. With no
        // matching window (the common case) `wire` is untouched, keeping the
        // empty-plan path byte-identical.
        for &(w_start, w_end, factor) in &self.slowdowns {
            if w_start <= start && start < w_end {
                wire = (wire as f64 * factor).ceil() as Ns;
            }
        }
        let end = start + self.latency_ns + extra_setup_ns + wire;
        self.busy_until = end;
        self.bytes_moved += bytes;
        self.timeline.push(Span {
            kind,
            start,
            end,
            bytes,
        });
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_scales_with_bytes() {
        let link = PcieLink::new(12.0, 1000);
        assert_eq!(link.wire_time(12_000), 1000);
        assert_eq!(link.wire_time(0), 0);
    }

    #[test]
    fn transfers_queue_serially() {
        let mut link = PcieLink::new(1.0, 100);
        let (s1, e1) = link.transfer(SpanKind::Migration, 1000, 0);
        assert_eq!((s1, e1), (0, 1100));
        // Requested before the link frees — must queue.
        let (s2, e2) = link.transfer(SpanKind::Migration, 1000, 50);
        assert_eq!((s2, e2), (1100, 2200));
        // Requested after the link frees — starts immediately.
        let (s3, _) = link.transfer(SpanKind::Migration, 10, 5000);
        assert_eq!(s3, 5000);
    }

    #[test]
    fn small_transfers_pay_disproportionate_latency() {
        // The mechanism behind Table V: many 4 KiB faults vs few 2 MiB chunks.
        let mut link = PcieLink::new(12.0, 10_000);
        let n_pages = 512u64;
        let page = 4096u64;
        let mut now = 0;
        for _ in 0..n_pages {
            let (_, end) = link.transfer(SpanKind::Migration, page, now);
            now = end;
        }
        let faulting_total = now;

        let mut link2 = PcieLink::new(12.0, 10_000);
        let (_, chunk_end) = link2.transfer(SpanKind::Prefetch, n_pages * page, 0);
        assert!(
            faulting_total > 5 * chunk_end,
            "page-by-page ({faulting_total} ns) must be much slower than one chunk ({chunk_end} ns)"
        );
    }

    #[test]
    fn slowdown_windows_scale_wire_time_only_inside_the_window() {
        let mut link = PcieLink::new(1.0, 100);
        link.set_slowdowns(vec![(0, 1000, 3.0)]);
        // Starts at 0, inside the window: 100 latency + 3×1000 wire.
        let (_, e1) = link.transfer(SpanKind::Migration, 1000, 0);
        assert_eq!(e1, 3100);
        // Starts after the window closes: nominal timing.
        let (_, e2) = link.transfer(SpanKind::Migration, 1000, 5000);
        assert_eq!(e2, 5000 + 100 + 1000);
        // No windows installed: byte-identical to the nominal link.
        let mut plain = PcieLink::new(1.0, 100);
        let (_, e3) = plain.transfer(SpanKind::Migration, 1000, 0);
        assert_eq!(e3, 1100);
    }

    #[test]
    fn bytes_accounting() {
        let mut link = PcieLink::new(2.0, 0);
        link.transfer(SpanKind::CopyH2D, 100, 0);
        link.transfer(SpanKind::CopyD2H, 50, 0);
        assert_eq!(link.bytes_moved(), 150);
    }
}
