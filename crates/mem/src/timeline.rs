//! Execution timelines: recorded spans of transfer and compute activity.
//!
//! Fig. 4 of the paper plots "execution status" of EtaGraph w/o UMP — which
//! intervals the PCIe link and the SMs are busy — and reports 60–80 %
//! transfer/compute overlap. We reproduce that by recording every transfer
//! and every kernel as a [`Span`] and measuring interval overlap directly,
//! through eta-prof's interval algebra, so a timeline and a profile of the
//! same spans agree.

use crate::Ns;
use serde::Serialize;

/// What a span of busy time represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SpanKind {
    /// Explicit host→device copy (cudaMemcpy-style).
    CopyH2D,
    /// Explicit device→host copy.
    CopyD2H,
    /// Demand page migration triggered by a GPU page fault.
    Migration,
    /// Asynchronous prefetch chunk (cudaMemPrefetchAsync-style).
    Prefetch,
    /// Page eviction under oversubscription (device→host writeback).
    Eviction,
    /// Peer-to-peer device copy over an NVLink-style link (see `peer`).
    PeerCopy,
    /// Aggregate zero-copy traffic of one kernel launch: sector-sized direct
    /// host reads from a pinned mapping (no page migration). Recorded once
    /// per launch with the launch's total zero-copy bytes.
    ZeroCopyRead,
    /// Kernel execution.
    Compute,
}

impl SpanKind {
    /// Whether this span occupies the interconnect (vs the SMs).
    pub fn is_transfer(self) -> bool {
        !matches!(self, SpanKind::Compute)
    }

    /// Stable event name, as the profiler records it.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::CopyH2D => "copy_h2d",
            SpanKind::CopyD2H => "copy_d2h",
            SpanKind::Migration => "um_migration",
            SpanKind::Prefetch => "um_prefetch",
            SpanKind::Eviction => "um_eviction",
            SpanKind::PeerCopy => "peer_copy",
            SpanKind::ZeroCopyRead => "zero_copy_read",
            SpanKind::Compute => "kernel",
        }
    }
}

/// One contiguous interval of busy time on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Span {
    pub kind: SpanKind,
    pub start: Ns,
    pub end: Ns,
    /// Bytes moved, for transfer spans; 0 for compute.
    pub bytes: u64,
}

impl Span {
    pub fn duration(&self) -> Ns {
        self.end.saturating_sub(self.start)
    }
}

/// An append-only recording of spans.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    spans: Vec<Span>,
}

impl Timeline {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, span: Span) {
        debug_assert!(span.end >= span.start, "span must not be inverted");
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Total busy time of spans matching `pred`, merging overlaps.
    pub fn busy_time<F: Fn(&Span) -> bool>(&self, pred: F) -> Ns {
        eta_prof::union_ns(self.intervals(pred))
    }

    /// Time during which both a transfer span and a compute span are active.
    pub fn overlap_time(&self) -> Ns {
        eta_prof::intersection_ns(
            self.intervals(|s| s.kind.is_transfer()),
            self.intervals(|s| !s.kind.is_transfer()),
        )
    }

    fn intervals<'a>(
        &'a self,
        pred: impl Fn(&Span) -> bool + 'a,
    ) -> impl Iterator<Item = (Ns, Ns)> + 'a {
        self.spans
            .iter()
            .filter(move |s| pred(s))
            .map(|s| (s.start, s.end))
    }

    /// Fraction of transfer busy time that is hidden under compute.
    pub fn overlap_fraction(&self) -> f64 {
        let t = self.busy_time(|s| s.kind.is_transfer());
        if t == 0 {
            return 0.0;
        }
        self.overlap_time() as f64 / t as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start: Ns, end: Ns) -> Span {
        Span {
            kind,
            start,
            end,
            bytes: 0,
        }
    }

    #[test]
    fn busy_time_merges_overlaps() {
        let mut t = Timeline::new();
        t.push(span(SpanKind::Migration, 0, 10));
        t.push(span(SpanKind::Migration, 5, 15));
        t.push(span(SpanKind::Prefetch, 20, 30));
        assert_eq!(t.busy_time(|s| s.kind.is_transfer()), 25);
    }

    #[test]
    fn overlap_of_disjoint_resources() {
        let mut t = Timeline::new();
        t.push(span(SpanKind::Compute, 0, 100));
        t.push(span(SpanKind::Migration, 20, 60));
        t.push(span(SpanKind::Migration, 110, 150));
        assert_eq!(t.overlap_time(), 40);
        let frac = t.overlap_fraction();
        assert!((frac - 0.5).abs() < 1e-12, "40 of 80 transfer ns hidden");
    }

    #[test]
    fn empty_timeline_is_zero() {
        let t = Timeline::new();
        assert_eq!(t.overlap_time(), 0);
        assert_eq!(t.overlap_fraction(), 0.0);
    }

    /// A timeline and a profile of the same spans measure through the one
    /// interval algebra, so they agree on zero-length, touching, nested and
    /// duplicated spans alike.
    #[test]
    fn timeline_and_profile_agree_on_degenerate_spans() {
        use eta_prof::{Profile, Profiler, Track};
        let spans = [
            (SpanKind::Compute, 0, 100),
            (SpanKind::Compute, 10, 20),   // nested
            (SpanKind::Compute, 100, 150), // touching
            (SpanKind::Compute, 150, 150), // zero-length, touching
            (SpanKind::Migration, 40, 60),
            (SpanKind::Migration, 40, 60),  // duplicated
            (SpanKind::Migration, 60, 60),  // zero-length, touching
            (SpanKind::CopyH2D, 60, 120),   // touching
            (SpanKind::Prefetch, 200, 200), // zero-length, alone
            (SpanKind::CopyD2H, 150, 170),  // touching compute's end
        ];
        let mut t = Timeline::new();
        let mut prof = Profiler::new(true);
        for (kind, start, end) in spans {
            t.push(span(kind, start, end));
            let track = match kind {
                SpanKind::Compute => Track::Kernel,
                SpanKind::CopyH2D | SpanKind::CopyD2H => Track::Transfer,
                _ => Track::Um,
            };
            prof.record(track, kind.name(), start, end, Vec::new());
        }
        let p = Profile::single("device", prof.events().to_vec());
        // Compute covers [0, 150); transfers [40, 120) and [150, 170).
        assert_eq!(t.busy_time(|s| !s.kind.is_transfer()), 150);
        assert_eq!(p.kernel_busy_ns(), 150);
        assert_eq!(t.busy_time(|s| s.kind.is_transfer()), 100);
        assert_eq!(p.transfer_busy_ns(), 100);
        assert_eq!(t.overlap_time(), 80);
        assert_eq!(p.overlap_ns(), 80);
        assert_eq!(t.overlap_fraction(), p.overlap_fraction());
    }

    #[test]
    fn intersect_handles_nested_intervals() {
        let mut t = Timeline::new();
        t.push(span(SpanKind::Compute, 0, 100));
        t.push(span(SpanKind::Compute, 10, 20));
        t.push(span(SpanKind::Migration, 15, 25));
        assert_eq!(t.overlap_time(), 10);
    }
}
