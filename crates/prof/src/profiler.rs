//! The recorder: a per-subsystem event sink with zero-cost disable.

use crate::event::{ArgValue, Event, Track};
use crate::Ns;

/// An append-only event recorder.
///
/// Disabled (the default), every method returns before touching its
/// buffer; since `Vec::new` does not allocate, a disabled profiler never
/// allocates — [`Profiler::allocated_bytes`] stays 0, which the test suite
/// asserts. Enabled, it records whole spans and instants on *simulated*
/// time, so the recording is deterministic and byte-identical across runs;
/// there is no open-span state, so a span cannot be left unclosed.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    enabled: bool,
    events: Vec<Event>,
}

impl Profiler {
    /// A profiler that is recording iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            events: Vec::new(),
        }
    }

    /// A disabled profiler (what subsystems embed by default).
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Flips recording. Enabling mid-run starts recording from the next
    /// event; disabling keeps what was already recorded.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Records a complete span. `args` order becomes output order.
    pub fn record(
        &mut self,
        track: Track,
        name: &str,
        start: Ns,
        end: Ns,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.enabled {
            return;
        }
        debug_assert!(end >= start, "span must not be inverted");
        self.events.push(Event {
            name: name.to_string(),
            track,
            start,
            end,
            args,
        });
    }

    /// Records a zero-duration instant (arrival, rejection, fault…).
    pub fn instant(
        &mut self,
        track: Track,
        name: &str,
        ts: Ns,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.record(track, name, ts, ts, args);
    }

    /// Recorded events, in recording order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Heap bytes held by the event buffer. Exposed so tests can
    /// assert the disabled mode's zero-allocation guarantee.
    pub fn allocated_bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<Event>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_never_allocates() {
        let mut p = Profiler::off();
        for i in 0..1000u64 {
            p.record(Track::Kernel, "k", i, i + 1, Vec::new());
            p.instant(Track::Sched, "arrival", i, Vec::new());
        }
        assert!(p.is_empty());
        assert_eq!(p.allocated_bytes(), 0, "disabled mode must not allocate");
    }

    #[test]
    fn instants_have_zero_extent() {
        let mut p = Profiler::new(true);
        p.instant(
            Track::Sched,
            "reject",
            7,
            vec![("reason", "queue_full".into())],
        );
        assert!(p.events()[0].is_instant());
        assert_eq!(p.events()[0].start, 7);
    }
}
