//! Assembled profiles and their three sinks: nvprof-style text summary,
//! machine-readable JSON, and a Chrome `trace_event` file for Perfetto.

use crate::event::{Event, Track};
use crate::fmt;
use crate::Ns;

/// One process row in the trace: a device, or the serve scheduler.
#[derive(Debug, Clone)]
pub struct ProfileProcess {
    pub pid: u32,
    pub name: String,
    pub events: Vec<Event>,
}

/// A complete profile: one or more processes' recordings, assembled after a
/// run. Single-device runs have one process; a serve run has the scheduler
/// as process 1 and each device worker after it.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub processes: Vec<ProfileProcess>,
}

/// Aggregated statistics for one `(track, name)` group, nvprof-row style.
#[derive(Debug, Clone)]
pub struct SummaryRow {
    pub track: Track,
    pub name: String,
    pub calls: u64,
    pub total_ns: Ns,
    pub min_ns: Ns,
    pub max_ns: Ns,
    /// Sum of the group's `bytes` args (transfer rows; 0 elsewhere).
    pub bytes: u64,
}

impl SummaryRow {
    pub fn avg_ns(&self) -> Ns {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }
}

/// Min/avg/max of one numeric counter across a kernel's launches.
#[derive(Debug, Clone)]
pub struct CounterStat {
    pub name: &'static str,
    pub avg: f64,
    pub min: f64,
    pub max: f64,
}

/// Per-kernel counter aggregation (the `nvprof --metrics` analogue).
#[derive(Debug, Clone)]
pub struct KernelCounters {
    pub kernel: String,
    pub calls: u64,
    pub counters: Vec<CounterStat>,
}

/// Everything the text sink prints, exposed as data so callers (the bench
/// `report profile` artifact, the CLI) can re-serialize it without parsing.
#[derive(Debug, Clone)]
pub struct Summary {
    pub rows: Vec<SummaryRow>,
    pub kernel_counters: Vec<KernelCounters>,
    pub kernel_busy_ns: Ns,
    pub transfer_busy_ns: Ns,
    pub overlap_ns: Ns,
    /// Fraction of transfer busy time hidden under compute (the same
    /// definition as `eta_mem::timeline::Timeline::overlap_fraction`).
    pub overlap_fraction: f64,
    pub makespan_ns: Ns,
    pub event_count: usize,
}

impl Profile {
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-process profile (the common non-serve case).
    pub fn single(name: &str, events: Vec<Event>) -> Self {
        let mut p = Self::new();
        p.push(name, events);
        p
    }

    /// Appends a process; pids are assigned in push order starting at 1.
    pub fn push(&mut self, name: &str, events: Vec<Event>) {
        let pid = self.processes.len() as u32 + 1;
        self.processes.push(ProfileProcess {
            pid,
            name: name.to_string(),
            events,
        });
    }

    pub fn event_count(&self) -> usize {
        self.processes.iter().map(|p| p.events.len()).sum()
    }

    /// Merged busy time of kernel-track spans, summed over processes
    /// (each process has its own clock, so intervals never merge across).
    pub fn kernel_busy_ns(&self) -> Ns {
        self.busy(|t| t == Track::Kernel)
    }

    /// Merged busy time of transfer-class spans (PCIe copies + UM traffic).
    pub fn transfer_busy_ns(&self) -> Ns {
        self.busy(|t| t == Track::Transfer || t == Track::Um)
    }

    /// Time during which a transfer span and a kernel span are simultaneously
    /// active within the same process.
    pub fn overlap_ns(&self) -> Ns {
        self.processes
            .iter()
            .map(|p| {
                let kern = intervals(&p.events, |t| t == Track::Kernel);
                let xfer = intervals(&p.events, |t| t == Track::Transfer || t == Track::Um);
                intersection_ns(kern, xfer)
            })
            .sum()
    }

    /// Fraction of transfer busy time hidden under compute.
    pub fn overlap_fraction(&self) -> f64 {
        let t = self.transfer_busy_ns();
        if t == 0 {
            return 0.0;
        }
        self.overlap_ns() as f64 / t as f64
    }

    /// Latest event end across all processes.
    pub fn makespan_ns(&self) -> Ns {
        self.processes
            .iter()
            .flat_map(|p| p.events.iter())
            .map(|e| e.end)
            .max()
            .unwrap_or(0)
    }

    fn busy<F: Fn(Track) -> bool>(&self, pred: F) -> Ns {
        self.processes
            .iter()
            .map(|p| union_ns(intervals(&p.events, &pred)))
            .sum()
    }

    /// Aggregates the recording into nvprof-style rows and counter tables.
    pub fn summary(&self) -> Summary {
        let mut rows: Vec<SummaryRow> = Vec::new();
        for p in &self.processes {
            for e in &p.events {
                let dur = e.duration();
                let bytes = e
                    .args
                    .iter()
                    .find(|(k, _)| *k == "bytes")
                    .and_then(|(_, v)| v.as_f64())
                    .unwrap_or(0.0) as u64;
                match rows
                    .iter_mut()
                    .find(|r| r.track == e.track && r.name == e.name)
                {
                    Some(r) => {
                        r.calls += 1;
                        r.total_ns += dur;
                        r.min_ns = r.min_ns.min(dur);
                        r.max_ns = r.max_ns.max(dur);
                        r.bytes += bytes;
                    }
                    None => rows.push(SummaryRow {
                        track: e.track,
                        name: e.name.clone(),
                        calls: 1,
                        total_ns: dur,
                        min_ns: dur,
                        max_ns: dur,
                        bytes,
                    }),
                }
            }
        }
        // nvprof sorts within a section by time share; ties break on name so
        // the output is a total order (byte-identical across runs).
        rows.sort_by(|a, b| {
            a.track
                .tid()
                .cmp(&b.track.tid())
                .then(b.total_ns.cmp(&a.total_ns))
                .then(a.name.cmp(&b.name))
        });

        let mut kernel_counters: Vec<KernelCounters> = Vec::new();
        for p in &self.processes {
            for e in p.events.iter().filter(|e| e.track == Track::Kernel) {
                let kc = match kernel_counters.iter_mut().find(|k| k.kernel == e.name) {
                    Some(kc) => kc,
                    None => {
                        kernel_counters.push(KernelCounters {
                            kernel: e.name.clone(),
                            calls: 0,
                            counters: Vec::new(),
                        });
                        kernel_counters.last_mut().expect("just pushed")
                    }
                };
                kc.calls += 1;
                for (k, v) in &e.args {
                    let Some(x) = v.as_f64() else { continue };
                    match kc.counters.iter_mut().find(|c| c.name == *k) {
                        Some(c) => {
                            // Accumulate the sum in `avg`; finalized below.
                            c.avg += x;
                            c.min = c.min.min(x);
                            c.max = c.max.max(x);
                        }
                        None => kc.counters.push(CounterStat {
                            name: k,
                            avg: x,
                            min: x,
                            max: x,
                        }),
                    }
                }
            }
        }
        for kc in &mut kernel_counters {
            for c in &mut kc.counters {
                c.avg /= kc.calls as f64;
            }
        }
        kernel_counters.sort_by(|a, b| a.kernel.cmp(&b.kernel));

        Summary {
            rows,
            kernel_counters,
            kernel_busy_ns: self.kernel_busy_ns(),
            transfer_busy_ns: self.transfer_busy_ns(),
            overlap_ns: self.overlap_ns(),
            overlap_fraction: self.overlap_fraction(),
            makespan_ns: self.makespan_ns(),
            event_count: self.event_count(),
        }
    }

    /// The nvprof-style text report.
    pub fn summary_text(&self) -> String {
        let s = self.summary();
        let mut out = String::new();
        out.push_str(&format!(
            "==eta-prof== profile summary (simulated time, makespan {}, {} events)\n",
            fmt::dur(s.makespan_ns),
            s.event_count
        ));
        let names: Vec<&str> = self.processes.iter().map(|p| p.name.as_str()).collect();
        out.push_str(&format!("==eta-prof== processes: {}\n", names.join(", ")));

        for track in Track::all() {
            let rows: Vec<&SummaryRow> = s.rows.iter().filter(|r| r.track == track).collect();
            if rows.is_empty() {
                continue;
            }
            let total: Ns = rows.iter().map(|r| r.total_ns).sum();
            out.push_str(&format!("\n{}:\n", track.label()));
            out.push_str(&format!(
                "{:>8} {:>12} {:>7} {:>12} {:>12} {:>12}  {}\n",
                "Time(%)", "Time", "Calls", "Avg", "Min", "Max", "Name"
            ));
            for r in rows {
                let share = if total == 0 {
                    0.0
                } else {
                    r.total_ns as f64 / total as f64
                };
                out.push_str(&format!(
                    "{:>8} {:>12} {:>7} {:>12} {:>12} {:>12}  {}\n",
                    fmt::pct(share),
                    fmt::dur(r.total_ns),
                    r.calls,
                    fmt::dur(r.avg_ns()),
                    fmt::dur(r.min_ns),
                    fmt::dur(r.max_ns),
                    r.name
                ));
            }
        }

        if !s.kernel_counters.is_empty() {
            out.push_str("\nkernel counters (avg / min / max over launches):\n");
            for kc in &s.kernel_counters {
                out.push_str(&format!("  {} ({} launches)\n", kc.kernel, kc.calls));
                for c in &kc.counters {
                    out.push_str(&format!(
                        "    {:<24} {} / {} / {}\n",
                        c.name,
                        fmt::f64_json(c.avg),
                        fmt::f64_json(c.min),
                        fmt::f64_json(c.max)
                    ));
                }
            }
        }

        out.push_str(&format!(
            "\ntransfer/compute overlap: {} of {} transfer busy ({})\n",
            fmt::dur(s.overlap_ns),
            fmt::dur(s.transfer_busy_ns),
            fmt::pct(s.overlap_fraction)
        ));
        out
    }

    /// The machine-readable profile (schema `eta-prof-v1`), hand-formatted
    /// so it is byte-identical across runs.
    pub fn to_json(&self) -> String {
        let s = self.summary();
        let mut out = String::from("{\n  \"schema\": \"eta-prof-v1\",\n  \"processes\": [\n");
        for (pi, p) in self.processes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\n      \"pid\": {},\n      \"name\": \"{}\",\n      \"events\": [\n",
                p.pid,
                fmt::json_escape(&p.name)
            ));
            for (ei, e) in p.events.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"name\":\"{}\",\"track\":\"{}\",\"tid\":{},\"start_ns\":{},\"end_ns\":{},\"dur_ns\":{},\"args\":{}}}{}\n",
                    fmt::json_escape(&e.name),
                    e.track.label(),
                    e.track.tid(),
                    e.start,
                    e.end,
                    e.duration(),
                    e.args_json(),
                    if ei + 1 < p.events.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "      ]\n    }}{}\n",
                if pi + 1 < self.processes.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ],\n  \"summary\": {\n    \"rows\": [\n");
        for (ri, r) in s.rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"track\":\"{}\",\"name\":\"{}\",\"calls\":{},\"total_ns\":{},\"avg_ns\":{},\"min_ns\":{},\"max_ns\":{},\"bytes\":{}}}{}\n",
                r.track.label(),
                fmt::json_escape(&r.name),
                r.calls,
                r.total_ns,
                r.avg_ns(),
                r.min_ns,
                r.max_ns,
                r.bytes,
                if ri + 1 < s.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ],\n    \"kernel_counters\": [\n");
        for (ki, kc) in s.kernel_counters.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"kernel\":\"{}\",\"calls\":{},\"counters\":{{",
                fmt::json_escape(&kc.kernel),
                kc.calls
            ));
            for (ci, c) in kc.counters.iter().enumerate() {
                if ci > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":{{\"avg\":{},\"min\":{},\"max\":{}}}",
                    c.name,
                    fmt::f64_json(c.avg),
                    fmt::f64_json(c.min),
                    fmt::f64_json(c.max)
                ));
            }
            out.push_str(&format!(
                "}}}}{}\n",
                if ki + 1 < s.kernel_counters.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str(&format!(
            "    ],\n    \"kernel_busy_ns\": {},\n    \"transfer_busy_ns\": {},\n    \"overlap_ns\": {},\n    \"overlap_fraction\": {},\n    \"makespan_ns\": {},\n    \"event_count\": {}\n  }}\n}}\n",
            s.kernel_busy_ns,
            s.transfer_busy_ns,
            s.overlap_ns,
            fmt::f64_json(s.overlap_fraction),
            s.makespan_ns,
            s.event_count
        ));
        out
    }

    /// The Chrome `trace_event` sink (JSON object format), loadable in
    /// `chrome://tracing` and Perfetto. Each process gets `process_name`
    /// metadata and one named thread per active track, so kernel and
    /// transfer activity render as distinct rows whose overlap is visible.
    /// Durations are in microseconds (integer math — byte-stable).
    pub fn to_chrome_trace(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for p in &self.processes {
            lines.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                p.pid,
                fmt::json_escape(&p.name)
            ));
            for track in Track::all() {
                if !p.events.iter().any(|e| e.track == track) {
                    continue;
                }
                lines.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    p.pid,
                    track.tid(),
                    track.label()
                ));
            }
            for e in &p.events {
                if e.is_instant() {
                    lines.push(format!(
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{},\"args\":{}}}",
                        fmt::json_escape(&e.name),
                        p.pid,
                        e.track.tid(),
                        fmt::us(e.start),
                        e.args_json()
                    ));
                } else {
                    lines.push(format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{}}}",
                        fmt::json_escape(&e.name),
                        p.pid,
                        e.track.tid(),
                        fmt::us(e.start),
                        fmt::us(e.duration()),
                        e.args_json()
                    ));
                }
            }
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&lines.join(",\n"));
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// The `(start, end)` intervals of the events on a track matching `pred`.
fn intervals<'a>(
    events: &'a [Event],
    pred: impl Fn(Track) -> bool + 'a,
) -> impl Iterator<Item = (Ns, Ns)> + 'a {
    events
        .iter()
        .filter(move |e| pred(e.track))
        .map(|e| (e.start, e.end))
}

/// Sorted, merged intervals: overlapping and touching intervals join, and
/// empty ones are dropped (they hold no time).
fn merge(iv: impl IntoIterator<Item = (Ns, Ns)>) -> Vec<(Ns, Ns)> {
    let mut iv: Vec<(Ns, Ns)> = iv.into_iter().filter(|&(a, b)| b > a).collect();
    iv.sort_unstable();
    let mut out: Vec<(Ns, Ns)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Busy time of a set of intervals: the length of their union. The one
/// interval algebra of the workspace, with [`intersection_ns`]; both a
/// [`Profile`] and `eta_mem`'s link timelines measure through it.
pub fn union_ns(iv: impl IntoIterator<Item = (Ns, Ns)>) -> Ns {
    merge(iv).iter().map(|&(a, b)| b - a).sum()
}

/// Time during which both interval sets are busy: the length of the
/// intersection of their unions.
pub fn intersection_ns(
    a: impl IntoIterator<Item = (Ns, Ns)>,
    b: impl IntoIterator<Item = (Ns, Ns)>,
) -> Ns {
    let (a, b) = (merge(a), merge(b));
    let (mut i, mut j) = (0usize, 0usize);
    let mut total = 0;
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArgValue;
    use crate::Profiler;

    fn sample() -> Profile {
        let mut p = Profiler::new(true);
        p.record(
            Track::Kernel,
            "bfs_expand",
            0,
            100,
            vec![("cycles", 50u64.into()), ("ipc", 0.5.into())],
        );
        p.record(
            Track::Kernel,
            "bfs_expand",
            120,
            160,
            vec![("cycles", 30u64.into()), ("ipc", 0.7.into())],
        );
        p.record(
            Track::Um,
            "um_migration",
            50,
            130,
            vec![("bytes", ArgValue::U64(4096))],
        );
        p.instant(
            Track::Sched,
            "reject",
            10,
            vec![("reason", "queue\"full".into())],
        );
        Profile::single("device", p.events().to_vec())
    }

    #[test]
    fn overlap_counts_kernel_transfer_intersection() {
        let p = sample();
        // kernel [0,100)∪[120,160); transfer [50,130) → [50,100)+[120,130).
        assert_eq!(p.overlap_ns(), 60);
        assert_eq!(p.transfer_busy_ns(), 80);
        assert_eq!(p.kernel_busy_ns(), 140);
        assert!((p.overlap_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(p.makespan_ns(), 160);
    }

    #[test]
    fn summary_groups_by_name_and_averages_counters() {
        let s = sample().summary();
        let kernel = s
            .rows
            .iter()
            .find(|r| r.name == "bfs_expand")
            .expect("kernel row");
        assert_eq!(kernel.calls, 2);
        assert_eq!(kernel.total_ns, 140);
        assert_eq!((kernel.min_ns, kernel.max_ns), (40, 100));
        let mig = s
            .rows
            .iter()
            .find(|r| r.name == "um_migration")
            .expect("migration row");
        assert_eq!(mig.bytes, 4096);

        assert_eq!(s.kernel_counters.len(), 1);
        let kc = &s.kernel_counters[0];
        assert_eq!(kc.calls, 2);
        let cycles = kc.counters.iter().find(|c| c.name == "cycles").unwrap();
        assert!((cycles.avg - 40.0).abs() < 1e-12);
        assert!((cycles.min - 30.0).abs() < 1e-12);
        assert!((cycles.max - 50.0).abs() < 1e-12);
    }

    #[test]
    fn sinks_are_byte_identical_across_calls() {
        let p = sample();
        assert_eq!(p.to_chrome_trace(), p.to_chrome_trace());
        assert_eq!(p.to_json(), p.to_json());
        assert_eq!(p.summary_text(), p.summary_text());
        // And across two identically-constructed profiles.
        let q = sample();
        assert_eq!(p.to_chrome_trace(), q.to_chrome_trace());
        assert_eq!(p.to_json(), q.to_json());
    }

    #[test]
    fn chrome_trace_has_metadata_and_distinct_tracks() {
        let trace = sample().to_chrome_trace();
        assert!(trace.contains("\"ph\":\"M\""));
        assert!(trace.contains("\"name\":\"process_name\""));
        assert!(trace.contains("\"name\":\"kernels\""));
        assert!(trace.contains("\"name\":\"unified memory\""));
        // Kernel and transfer events land on different tids.
        assert!(trace.contains("\"tid\":1,\"ts\":0.000"));
        assert!(trace.contains("\"tid\":3,\"ts\":0.050"));
        // Instants use the instant phase with thread scope.
        assert!(trace.contains("\"ph\":\"i\",\"s\":\"t\""));
        // Escaped quote from the rejection reason survives round-tripping.
        assert!(trace.contains("queue\\\"full"));
        assert!(trace.trim_end().ends_with("\"displayTimeUnit\":\"ns\"}"));
    }

    #[test]
    fn json_sink_carries_summary_and_events() {
        let j = sample().to_json();
        assert!(j.contains("\"schema\": \"eta-prof-v1\""));
        assert!(j.contains("\"name\":\"bfs_expand\""));
        assert!(j.contains("\"overlap_ns\": 60"));
        assert!(j.contains("\"cycles\":{\"avg\":40.000000"));
        // Balanced braces/brackets (structural sanity without a parser).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn multi_process_profiles_keep_clocks_separate() {
        let mut a = Profiler::new(true);
        a.record(Track::Kernel, "k", 0, 100, Vec::new());
        let mut b = Profiler::new(true);
        b.record(Track::Um, "um_migration", 0, 100, Vec::new());
        let mut p = Profile::new();
        p.push("scheduler", a.events().to_vec());
        p.push("device0", b.events().to_vec());
        assert_eq!(p.processes[0].pid, 1);
        assert_eq!(p.processes[1].pid, 2);
        // Same wall interval but different processes: no cross-overlap.
        assert_eq!(p.overlap_ns(), 0);
        let trace = p.to_chrome_trace();
        assert!(trace.contains("\"pid\":1"));
        assert!(trace.contains("\"pid\":2"));
    }
}
