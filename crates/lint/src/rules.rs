//! The invariant catalogue: seven token-pattern rules over one file, and
//! one rule, `L-ORPHAN`, over the whole workspace.
//!
//! Each rule protects a CI gate that is otherwise enforced only by
//! convention or by dynamic checks (see DESIGN.md's invariant catalogue for
//! the rule-by-rule rationale). Rules match on the lexed token stream, so
//! comments, strings, and test regions can never trigger them.

use crate::lexer::{Tok, TokKind};
use crate::regions::Regions;
use std::collections::{HashMap, HashSet};

/// One rule's identity, for reports and the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    pub id: &'static str,
    pub summary: &'static str,
}

/// Every rule the engine knows, in report order.
pub const RULES: [RuleMeta; 8] = [
    RuleMeta {
        id: "L-DET-HASH",
        summary: "HashMap/HashSet in a report/sink/serve-output crate: iteration order is \
                  nondeterministic; use BTreeMap/BTreeSet or sort before emitting",
    },
    RuleMeta {
        id: "L-DET-TIME",
        summary: "std::time::Instant/SystemTime outside the allowlisted host-timing module: \
                  artifacts must be functions of the simulated clock only",
    },
    RuleMeta {
        id: "L-DET-RAND",
        summary: "thread_rng/RandomState/DefaultHasher: only the seeded SplitMix64 generators \
                  are allowed, so every run is replayable",
    },
    RuleMeta {
        id: "L-PANIC",
        summary: "unwrap/expect/panic! in non-test library code: route through the typed \
                  error ladders (QueryError/CkptError/MemError/...) or justify inline",
    },
    RuleMeta {
        id: "L-KERNEL-RAW",
        summary: "raw (non-atomic) store to a cross-warp-visible buffer, or direct indexing \
                  of a device buffer, inside a kernel: use the instrumented atomic accessors",
    },
    RuleMeta {
        id: "L-CAST-TRUNC",
        summary: "lossy `as` cast of a length/count into a vertex-or-edge id width: use \
                  u32::try_from or justify why the value is bounded",
    },
    RuleMeta {
        id: "L-PROF-SPAN",
        summary: "profiler span begun but not ended on every path out of the function: \
                  unbalanced spans corrupt every downstream trace sink",
    },
    RuleMeta {
        id: "L-ORPHAN",
        summary: "pub fn under crates/*/src that no other file of crates, src, tests, \
                  examples or benchmark/src names: make it private, move it into its \
                  file's tests, delete it, or justify inline",
    },
];

/// A single violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    pub message: String,
}

/// Which rule families apply to a file, derived from its path. Test,
/// bench, example, and fixture sources are skipped before this is built.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Report/sink/serve-output crates, where map iteration feeds emitted
    /// bytes: `L-DET-HASH` applies.
    pub output_path: bool,
    /// Binary entry points (`src/bin/`, `src/main.rs`): exempt from
    /// `L-PANIC` (a CLI may abort on startup errors) but not from the
    /// determinism rules.
    pub is_bin: bool,
    /// Files holding simulated-kernel code: `L-KERNEL-RAW` applies.
    pub kernel_file: bool,
    /// The one module allowed to touch the host wall clock.
    pub time_allowlisted: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path (forward slashes).
    pub fn of(path: &str) -> FileClass {
        const OUTPUT_CRATES: [&str; 4] = [
            "crates/serve/src/",
            "crates/prof/src/",
            "crates/bench/src/",
            "crates/cli/src/",
        ];
        const KERNEL_FILES: [&str; 4] = [
            "crates/core/src/kernels.rs",
            "crates/core/src/udc.rs",
            "crates/core/src/multi_bfs.rs",
            "crates/core/src/pagerank.rs",
        ];
        FileClass {
            output_path: OUTPUT_CRATES.iter().any(|p| path.starts_with(p)),
            is_bin: path.contains("/src/bin/") || path.ends_with("/src/main.rs"),
            kernel_file: KERNEL_FILES.contains(&path) || path.starts_with("crates/baselines/src/"),
            time_allowlisted: path == "crates/bench/src/hosttime.rs",
        }
    }
}

/// Buffers that other warps read or write concurrently within a launch;
/// a raw `store` to one of these is the static shape of the PR 1 pull-BFS
/// race (labels must go through the atomic accessors).
const SHARED_KERNEL_BUFFERS: [&str; 2] = ["labels", "tags"];

/// Device-buffer names that kernel code must never index directly — every
/// access goes through the instrumented `WarpCtx` load/store accessors so
/// the sanitizer and the coalescer see it.
const DEVICE_BUFFERS: [&str; 8] = [
    "labels",
    "tags",
    "col_idx",
    "row_offsets",
    "t_col_idx",
    "t_row_offsets",
    "weights",
    "ranks",
];

/// Runs every applicable rule over one file's tokens.
pub fn scan(path: &str, class: FileClass, toks: &[Tok], regions: &Regions) -> Vec<Finding> {
    let mut out = Vec::new();
    let mk = |rule: &'static str, line: u32, message: String| Finding {
        rule,
        path: path.to_string(),
        line,
        message,
    };

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || regions.in_test(i) {
            continue;
        }
        match t.text.as_str() {
            // --- L-DET-HASH -------------------------------------------------
            "HashMap" | "HashSet" if class.output_path => out.push(mk(
                "L-DET-HASH",
                t.line,
                format!(
                    "{} in an output-path crate: iteration order is nondeterministic; \
                     use BTreeMap/BTreeSet or sort before emitting",
                    t.text
                ),
            )),
            // --- L-DET-TIME -------------------------------------------------
            "Instant" | "SystemTime" if !class.time_allowlisted => out.push(mk(
                "L-DET-TIME",
                t.line,
                format!(
                    "std::time::{} reads the host wall clock; only eta_bench::hosttime may \
                     (artifacts are functions of the simulated clock)",
                    t.text
                ),
            )),
            // --- L-DET-RAND -------------------------------------------------
            "thread_rng" | "RandomState" | "DefaultHasher" => out.push(mk(
                "L-DET-RAND",
                t.line,
                format!(
                    "{} is nondeterministically seeded; use the workspace's seeded \
                     SplitMix64 generators",
                    t.text
                ),
            )),
            // --- L-PANIC ----------------------------------------------------
            "unwrap" | "expect"
                if !class.is_bin
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                out.push(mk(
                    "L-PANIC",
                    t.line,
                    format!(
                        ".{}() panics in library code; return the crate's typed error \
                         (or justify with `lint: allow(L-PANIC): why`)",
                        t.text
                    ),
                ));
            }
            "panic" if !class.is_bin && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) => {
                out.push(mk(
                    "L-PANIC",
                    t.line,
                    "panic! in library code; return the crate's typed error \
                     (or justify with `lint: allow(L-PANIC): why`)"
                        .to_string(),
                ));
            }
            // --- L-KERNEL-RAW: raw store to a shared buffer -----------------
            "store"
                if class.kernel_file
                    && regions.in_kernel_fn(i)
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                if let Some(buf) = first_arg_shared_buffer(toks, i + 1) {
                    out.push(mk(
                        "L-KERNEL-RAW",
                        t.line,
                        format!(
                            "raw store to `{buf}`, which other warps access concurrently \
                             in this launch; use atomic_min/atomic_max/atomic_or (the \
                             PR 1 pull-BFS race, statically)"
                        ),
                    ));
                }
            }
            // --- L-KERNEL-RAW: direct device-buffer indexing ----------------
            name if class.kernel_file
                && regions.in_kernel_fn(i)
                && DEVICE_BUFFERS.contains(&name)
                && toks.get(i + 1).is_some_and(|n| n.is_punct('[')) =>
            {
                out.push(mk(
                    "L-KERNEL-RAW",
                    t.line,
                    format!(
                        "direct indexing of device buffer `{name}` bypasses the \
                         instrumented accessors; use WarpCtx load/store"
                    ),
                ));
            }
            // --- L-CAST-TRUNC -----------------------------------------------
            "len" | "n" | "m"
                if toks.get(i + 1).is_some_and(|a| a.is_punct('('))
                    && toks.get(i + 2).is_some_and(|b| b.is_punct(')'))
                    && toks.get(i + 3).is_some_and(|c| c.is_ident("as"))
                    && toks.get(i + 4).is_some_and(|d| d.is_ident("u32")) =>
            {
                out.push(mk(
                    "L-CAST-TRUNC",
                    t.line,
                    format!(
                        "`{}() as u32` silently truncates above u32::MAX; use \
                         u32::try_from or justify the bound",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }

    scan_prof_spans(path, toks, regions, &mut out);
    out
}

/// For a `.store(` at `open_paren`, returns the shared-buffer name if the
/// *first argument* (tokens up to the first comma at call depth 1) mentions
/// one — that argument is the destination slice.
fn first_arg_shared_buffer(toks: &[Tok], open_paren: usize) -> Option<&'static str> {
    let mut depth = 0i32;
    for t in toks.iter().skip(open_paren) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return None;
                    }
                }
                "," if depth == 1 => return None,
                _ => {}
            }
        } else if t.kind == TokKind::Ident && depth >= 1 {
            if let Some(b) = SHARED_KERNEL_BUFFERS.iter().find(|b| t.text == **b) {
                return Some(b);
            }
        }
    }
    None
}

/// L-PROF-SPAN: within each function body, `.begin(Track::…)` must be
/// balanced by `.end(…)`/`.end_with_args(…)` — and no `?` or `return` may
/// execute while a span is open (the early exit would leak it). This is a
/// conservative syntactic check: code that closes spans on every path by
/// construction (RAII-style guards) trivially passes because it contains
/// no bare `begin`.
fn scan_prof_spans(path: &str, toks: &[Tok], regions: &Regions, out: &mut Vec<Finding>) {
    for f in &regions.fns {
        let Some((body_start, body_end)) = f.body else {
            continue;
        };
        if regions.in_test(f.start) {
            continue;
        }
        // Skip tokens of nested fns: they are scanned as their own entry.
        let nested: Vec<(usize, usize)> = regions
            .fns
            .iter()
            .filter(|g| g.start != f.start)
            .filter_map(|g| g.body)
            .filter(|&(a, b)| body_start <= a && b <= body_end)
            .collect();
        let mut open: Vec<u32> = Vec::new(); // lines of unmatched begins
        let mut i = body_start;
        while i < body_end {
            if let Some(&(_, skip_to)) = nested.iter().find(|&&(a, _)| a == i) {
                i = skip_to;
                continue;
            }
            let t = &toks[i];
            let begins_span = t.is_ident("begin")
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("Track"));
            if begins_span {
                open.push(t.line);
            } else if (t.is_ident("end") || t.is_ident("end_with_args"))
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                open.pop();
            } else if !open.is_empty() && (t.is_punct('?') || t.is_ident("return")) {
                out.push(Finding {
                    rule: "L-PROF-SPAN",
                    path: path.to_string(),
                    line: t.line,
                    message: format!(
                        "early exit from `{}` while the span begun on line {} is still \
                         open; close it (or restructure) so every path ends the span",
                        f.name,
                        open[open.len() - 1]
                    ),
                });
            }
            i += 1;
        }
        for line in open {
            out.push(Finding {
                rule: "L-PROF-SPAN",
                path: path.to_string(),
                line,
                message: format!(
                    "span begun here is never ended in `{}`; every begin(Track::…) \
                     needs a matching end on all paths",
                    f.name
                ),
            });
        }
    }
}

/// L-ORPHAN, the one workspace-wide rule. `files` is every workspace
/// source as `(path, tokens, regions)`; a `pub fn` outside test regions
/// under `crates/*/src` is a finding when no other file names it as an
/// identifier. The check is by name, so it never flags a live function but
/// misses an orphan whose name is used for something else elsewhere.
pub fn scan_orphans(files: &[(&str, &[Tok], &Regions)]) -> Vec<Finding> {
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for (_, toks, _) in files {
        let idents: HashSet<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        for name in idents {
            *files_naming.entry(name).or_default() += 1;
        }
    }
    let mut out = Vec::new();
    for &(path, toks, regions) in files {
        if !(path.starts_with("crates/") && path.contains("/src/")) {
            continue;
        }
        for f in &regions.fns {
            if is_pub(toks, f.start)
                && !regions.in_test(f.start)
                && files_naming.get(f.name.as_str()) == Some(&1)
            {
                out.push(Finding {
                    rule: "L-ORPHAN",
                    path: path.to_string(),
                    line: f.line,
                    message: format!(
                        "`pub fn {}` is named in no other workspace file; make it private, \
                         move it into this file's tests if only they call it, or delete it",
                        f.name
                    ),
                });
            }
        }
    }
    out
}

/// True when the `fn` at `fn_idx` is plain `pub` (not `pub(crate)`), past
/// any `const`/`unsafe`/`async` qualifiers.
fn is_pub(toks: &[Tok], fn_idx: usize) -> bool {
    let mut i = fn_idx;
    while i > 0
        && ["const", "unsafe", "async"]
            .iter()
            .any(|q| toks[i - 1].is_ident(q))
    {
        i -= 1;
    }
    i > 0 && toks[i - 1].is_ident("pub")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::regions;

    fn scan_src(path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let regs = regions::compute(&lexed.toks);
        scan(path, FileClass::of(path), &lexed.toks, &regs)
    }

    #[test]
    fn hash_rule_only_fires_in_output_crates() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32,u32>; }";
        assert_eq!(scan_src("crates/serve/src/lib.rs", src).len(), 2);
        assert!(scan_src("crates/sim/src/sanitizer.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_skips_bins_and_unwrap_or() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) }";
        assert!(scan_src("crates/graph/src/io.rs", src).is_empty());
        let bad = "fn f(o: Option<u32>) -> u32 { o.unwrap() }";
        let hits = scan_src("crates/graph/src/io.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "L-PANIC");
        assert!(
            scan_src("crates/cli/src/main.rs", bad).is_empty(),
            "bins exempt"
        );
        assert!(scan_src("crates/bench/src/bin/report.rs", bad).is_empty());
    }

    #[test]
    fn kernel_raw_needs_warpctx_scope() {
        let bad = "impl K { fn run(&self, w: &mut WarpCtx<'_>) {\n\
                   w.store(self.labels, &tids, &levels, found);\n} }";
        let hits = scan_src("crates/core/src/kernels.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].rule, hits[0].line), ("L-KERNEL-RAW", 2));
        // The same store outside a kernel file or fn is not a finding.
        assert!(scan_src("crates/graph/src/csr.rs", bad).is_empty());
        let host = "fn host() { w.store(self.labels, &tids, &levels, found); }";
        assert!(scan_src("crates/core/src/kernels.rs", host).is_empty());
        // Stores to per-thread or claimed-slot buffers are fine.
        let ok = "impl K { fn run(&self, w: &mut WarpCtx<'_>) {\n\
                  w.store(self.next.items, &pos, &dst, push);\n} }";
        assert!(scan_src("crates/core/src/kernels.rs", ok).is_empty());
    }

    #[test]
    fn cast_trunc_matches_len_but_not_fields() {
        let bad = "fn f(v: &[u32]) -> u32 { v.len() as u32 }";
        assert_eq!(scan_src("crates/graph/src/csr.rs", bad).len(), 1);
        let field = "fn f(&self) -> u64 { self.len as u64 }";
        assert!(scan_src("crates/graph/src/csr.rs", field).is_empty());
        let widening = "fn f(v: &[u32]) -> u64 { v.len() as u64 }";
        assert!(scan_src("crates/graph/src/csr.rs", widening).is_empty());
    }

    #[test]
    fn prof_span_balance_and_early_exit() {
        let leaky = "fn f(p: &mut P) { p.begin(Track::Kernel, \"k\", 0); }";
        let hits = scan_src("crates/core/src/engine.rs", leaky);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "L-PROF-SPAN");
        let early = "fn f(p: &mut P) -> R { p.begin(Track::Kernel, \"k\", 0); \
                     let x = fallible()?; p.end(1); Ok(x) }";
        let hits = scan_src("crates/core/src/engine.rs", early);
        assert_eq!(hits.len(), 1, "the `?` leaks the span");
        let balanced = "fn f(p: &mut P) { p.begin(Track::Kernel, \"k\", 0); p.end(1); }";
        assert!(scan_src("crates/core/src/engine.rs", balanced).is_empty());
    }

    #[test]
    fn test_regions_are_exempt_everywhere() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); let t = Instant::now(); }\n}";
        assert!(scan_src("crates/graph/src/io.rs", src).is_empty());
    }
}
