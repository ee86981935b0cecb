//! The recorder: a per-subsystem event sink with zero-cost disable.

use crate::event::{ArgValue, Event, Track};
use crate::Ns;

/// An in-progress nested span, closed by [`Profiler::end`].
#[derive(Debug, Clone)]
struct OpenSpan {
    name: String,
    track: Track,
    start: Ns,
}

/// An append-only event recorder.
///
/// Disabled (the default), every method returns before touching its
/// buffers; since `Vec::new` does not allocate, a disabled profiler never
/// allocates — [`Profiler::allocated_bytes`] stays 0, which the test suite
/// asserts. Enabled, it records spans and instants on *simulated* time, so
/// the recording is deterministic and byte-identical across runs.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    enabled: bool,
    events: Vec<Event>,
    stack: Vec<OpenSpan>,
}

impl Profiler {
    /// A profiler that is recording iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            events: Vec::new(),
            stack: Vec::new(),
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

    /// Opens a nested span; close it with [`Profiler::end`]. Spans may nest
    /// arbitrarily; a child is recorded before its parent (it ends first),
    /// which Chrome's containment-based nesting renders correctly.
    pub fn begin(&mut self, track: Track, name: &str, ts: Ns) {
        if !self.enabled {
            return;
        }
        self.stack.push(OpenSpan {
            name: name.to_string(),
            track,
            start: ts,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, ts: Ns) {
        self.end_with_args(ts, Vec::new());
    }

    /// Closes the innermost open span, attaching args known only at close
    /// time (e.g. the iteration's frontier size). A stray `end` with no
    /// open span is ignored rather than corrupting the recording.
    pub fn end_with_args(&mut self, ts: Ns, args: Vec<(&'static str, ArgValue)>) {
        if !self.enabled {
            return;
        }
        if let Some(open) = self.stack.pop() {
            self.events.push(Event {
                name: open.name,
                track: open.track,
                start: open.start,
                end: ts,
                args,
            });
        }
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.stack.len()
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

    /// Heap bytes held by the recording buffers. Exposed so tests can
    /// assert the disabled mode's zero-allocation guarantee.
    pub fn allocated_bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<Event>()
            + self.stack.capacity() * std::mem::size_of::<OpenSpan>()
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
            p.begin(Track::Iteration, "iter", i);
            p.instant(Track::Sched, "arrival", i, Vec::new());
            p.end(i + 1);
        }
        assert!(p.is_empty());
        assert_eq!(p.allocated_bytes(), 0, "disabled mode must not allocate");
    }

    #[test]
    fn nested_spans_close_inner_first() {
        let mut p = Profiler::new(true);
        p.begin(Track::Iteration, "query", 0);
        p.begin(Track::Iteration, "iteration", 10);
        p.end_with_args(20, vec![("active", 4u64.into())]);
        p.end(100);
        assert_eq!(p.depth(), 0);
        let ev = p.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "iteration");
        assert_eq!((ev[0].start, ev[0].end), (10, 20));
        assert_eq!(ev[1].name, "query");
        assert_eq!((ev[1].start, ev[1].end), (0, 100));
        // The child is contained in the parent — Chrome nests by containment.
        assert!(ev[1].start <= ev[0].start && ev[0].end <= ev[1].end);
    }

    #[test]
    fn stray_end_is_ignored() {
        let mut p = Profiler::new(true);
        p.end(5);
        assert!(p.is_empty());
        assert_eq!(p.depth(), 0);
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
