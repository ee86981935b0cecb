//! Host-clock spans recorded around every call the benchmark makes into a
//! layer of the system.
//!
//! A span is (name, start, end, parent, query id). Spans live in memory and
//! are written out once, when the workload ends, as a Chrome trace-event
//! file. A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover. The passes that produce the end-to-end
//! numbers get a disabled tracer: `begin`/`end` are then two branches and no
//! clock read.
//!
//! The tracer also carries the *lap clock*, which runs whether spans are
//! recorded or not: a workload calls [`Tracer::lap`] after each query of a
//! pass, cutting the pass into consecutive pieces that do the same work in
//! every pass. The harness takes each piece at its fastest over the passes
//! (see `harness::steady_pass_s`).

use eta_prof::fmt::json_escape;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval on the host clock, in nanoseconds since the
/// tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The crate ("layer") the call went into; `bench` for the harness.
    pub layer: &'static str,
    /// Per-layer metric this span's duration accumulates into, if any.
    pub metric: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one query share this id (0 = not part of a query).
    pub query: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    query: u32,
    lap_mark: Instant,
    laps: Vec<f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
            lap_mark: Instant::now(),
            laps: Vec::new(),
        }
    }

    /// Starts the lap clock of a pass, dropping any earlier laps.
    pub fn start_laps(&mut self) {
        self.laps.clear();
        self.lap_mark = Instant::now();
    }

    /// Ends a lap: the seconds since the previous lap ended (or the pass
    /// started). Laps are back to back, so they sum to the pass.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.laps.push((now - self.lap_mark).as_secs_f64());
        self.lap_mark = now;
    }

    /// The laps since `start_laps`, in seconds.
    pub fn take_laps(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.laps)
    }

    /// Spans opened from now on carry this query id.
    pub fn set_query(&mut self, query: u32) {
        self.query = query;
    }

    pub fn begin(
        &mut self,
        layer: &'static str,
        name: &str,
        metric: Option<&'static str>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            metric,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            query: self.query,
        });
        self.open.push(idx);
        // Read the clock last so the bookkeeping above lands in the parent.
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(Some(idx))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost-first"
        );
        self.spans[idx].end_ns = now;
    }

    /// Runs `f` inside a span. `f` cannot reach the tracer, so this is for
    /// leaf calls; nesting uses `begin` / `end`.
    pub fn in_span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        metric: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(layer, name, metric);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per metric key over spans recorded since `mark`
    /// (an earlier `spans().len()`), in seconds.
    pub fn metric_seconds(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans[mark..] {
            if let Some(m) = s.metric {
                *out.entry(m).or_insert(0.0) += s.duration_ns() as f64 / 1e9;
            }
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it. Children are siblings on one thread, so they
/// never overlap each other and the union is a plain sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            own[p] = own[p].saturating_sub(hi.saturating_sub(lo));
        }
    }
    own
}

/// Self time summed per layer, in seconds.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *ns.entry(s.layer).or_insert(0) += own;
    }
    ns.into_iter().map(|(k, v)| (k, v as f64 / 1e9)).collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, one thread row per layer, microsecond
/// timestamps. `args` carries the parent index, query id and self time.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut layers: Vec<&'static str> = spans.iter().map(|s| s.layer).collect();
    layers.sort_unstable();
    layers.dedup();
    let own = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for (tid, layer) in layers.iter().enumerate() {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(layer)
            ),
            &mut out,
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let tid = layers.binary_search(&s.layer).unwrap_or(0);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        push(
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"query\":{},\"self_us\":{:.3}}}}}",
                json_escape(&s.name),
                json_escape(s.layer),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.query,
                own[i] as f64 / 1e3,
            ),
            &mut out,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: format!("{layer}:{start}"),
            layer,
            metric: None,
            start_ns: start,
            end_ns: end,
            parent,
            query: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("core", 10, 40, Some(0)),
            span("sim", 15, 25, Some(1)),
            span("core", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let by_layer = self_seconds_by_layer(&spans);
        assert_eq!(by_layer["bench"], 30e-9);
        assert_eq!(by_layer["core"], 60e-9);
        assert_eq!(by_layer["sim"], 10e-9);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        // A child that (through clock granularity) ends after its parent
        // only subtracts the part inside the parent.
        let spans = vec![span("bench", 0, 100, None), span("core", 90, 120, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![90, 30]);
    }

    #[test]
    fn tracer_nests_and_tags_queries() {
        let mut tr = Tracer::new(true);
        let a = tr.begin("bench", "pass", None);
        tr.set_query(7);
        let b = tr.begin("core", "engine::run", Some("core.query_s.bfs"));
        tr.end(b);
        tr.set_query(0);
        tr.end(a);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].query, 7);
        assert_eq!(s[0].query, 0);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let m = tr.metric_seconds(0);
        assert_eq!(m.len(), 1);
        assert!(m["core.query_s.bfs"] >= 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let a = tr.begin("core", "x", None);
        tr.end(a);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn laps_run_with_spans_off_and_partition_the_pass() {
        let mut tr = Tracer::new(false);
        tr.lap();
        tr.start_laps();
        let t0 = Instant::now();
        tr.lap();
        tr.lap();
        let whole = t0.elapsed().as_secs_f64();
        let laps = tr.take_laps();
        assert_eq!(laps.len(), 2);
        assert!(laps.iter().all(|&l| l >= 0.0));
        assert!(laps.iter().sum::<f64>() <= whole);
        assert!(tr.take_laps().is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_panics() {
        let mut tr = Tracer::new(true);
        let a = tr.begin("bench", "a", None);
        let _b = tr.begin("core", "b", None);
        tr.end(a);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span_plus_thread_names() {
        let spans = vec![
            span("bench", 0, 2_000, None),
            span("core", 500, 1_500, Some(0)),
        ];
        let text = chrome_trace(&spans);
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"M\"").count(), 2);
        assert!(text.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(text.contains("\"parent\":0"));
        assert!(text.contains("\"self_us\":1.000"));
        crate::json::parse(&text).expect("trace must be valid JSON");
    }
}
