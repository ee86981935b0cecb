//! Fixture tests: one seeded violation per rule, asserted down to the
//! exact (rule id, file, line) triple, plus a clean fixture that packs
//! every trigger word into positions the engine must ignore — and the
//! PR 1 pull-BFS regression, checked against the *real* kernel source.

use eta_lint::{lint_files, lint_source, Finding};

fn lint_fixture(as_path: &str, fixture: &str) -> Vec<Finding> {
    lint_source(as_path, fixture)
        .into_iter()
        .map(|(f, _)| f)
        .collect()
}

/// Asserts the fixture produces exactly one finding, at the given triple.
fn assert_single(as_path: &str, fixture: &str, rule: &str, line: u32) {
    let hits = lint_fixture(as_path, fixture);
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {rule} finding in {as_path}, got {hits:#?}"
    );
    assert_eq!(hits[0].rule, rule);
    assert_eq!(hits[0].path, as_path);
    assert_eq!(hits[0].line, line, "wrong line for {rule}: {hits:#?}");
}

#[test]
fn det_hash_fixture() {
    assert_single(
        "crates/serve/src/lib.rs",
        include_str!("fixtures/det_hash.rs"),
        "L-DET-HASH",
        4,
    );
}

#[test]
fn det_time_fixture() {
    assert_single(
        "crates/prof/src/trace.rs",
        include_str!("fixtures/det_time.rs"),
        "L-DET-TIME",
        5,
    );
}

#[test]
fn det_time_is_allowed_only_in_hosttime() {
    let fixture = include_str!("fixtures/det_time.rs");
    assert!(
        lint_fixture("crates/bench/src/hosttime.rs", fixture).is_empty(),
        "the allowlisted host-timing module may read the wall clock"
    );
}

#[test]
fn det_rand_fixture() {
    assert_single(
        "crates/graph/src/generate.rs",
        include_str!("fixtures/det_rand.rs"),
        "L-DET-RAND",
        6,
    );
}

#[test]
fn panic_fixture() {
    let as_path = "crates/graph/src/io.rs";
    assert_single(as_path, include_str!("fixtures/panic.rs"), "L-PANIC", 6);
    // The same source under a binary path is exempt.
    assert!(lint_fixture("crates/cli/src/main.rs", include_str!("fixtures/panic.rs")).is_empty());
}

#[test]
fn kernel_raw_fixture() {
    let hits = lint_fixture(
        "crates/core/src/kernels.rs",
        include_str!("fixtures/kernel_raw.rs"),
    );
    assert!(hits.iter().all(|f| f.rule == "L-KERNEL-RAW"), "{hits:#?}");
    // Line 10: the raw store to `labels`. Line 13: direct indexing of
    // `row_offsets` (twice on that line).
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    assert!(
        lines.contains(&10),
        "missing the raw-store finding: {hits:#?}"
    );
    assert!(
        lines.contains(&13),
        "missing the direct-index finding: {hits:#?}"
    );
    // Outside the kernel file set, the same code is not a finding.
    assert!(lint_fixture(
        "crates/graph/src/csr.rs",
        include_str!("fixtures/kernel_raw.rs")
    )
    .is_empty());
}

#[test]
fn cast_trunc_fixture() {
    assert_single(
        "crates/graph/src/vst.rs",
        include_str!("fixtures/cast_trunc.rs"),
        "L-CAST-TRUNC",
        5,
    );
}

#[test]
fn orphan_fixture() {
    let lib = (
        "crates/demo/src/lib.rs".to_string(),
        include_str!("fixtures/orphan.rs").to_string(),
    );
    let caller = (
        "tests/demo.rs".to_string(),
        "fn main() { demo::fixture_called_elsewhere(); }".to_string(),
    );
    let lines = |files| -> Vec<(String, u32)> {
        let (hits, _) = lint_files(files);
        hits.into_iter()
            .map(|(f, _)| {
                assert_eq!(f.rule, "L-ORPHAN", "{f:#?}");
                (f.path, f.line)
            })
            .collect()
    };
    let (_, allowed) = lint_files(vec![lib.clone(), caller.clone()]);
    assert_eq!(allowed, 1, "the justified inline allow suppresses");
    assert_eq!(
        lines(vec![lib.clone(), caller]),
        [("crates/demo/src/lib.rs".to_string(), 4)]
    );
    // Without the caller, the other `pub fn` is an orphan too.
    assert_eq!(
        lines(vec![lib.clone()]),
        [
            ("crates/demo/src/lib.rs".to_string(), 4),
            ("crates/demo/src/lib.rs".to_string(), 8)
        ]
    );
    // Only `crates/*/src` defines functions the rule checks.
    assert!(lines(vec![("tests/demo.rs".to_string(), lib.1)]).is_empty());
}

#[test]
fn clean_fixture_has_zero_findings_everywhere() {
    let fixture = include_str!("fixtures/clean.rs");
    // Check under the strictest classifications: an output-path library
    // file, a kernel file, and a plain library file.
    for as_path in [
        "crates/serve/src/lib.rs",
        "crates/core/src/kernels.rs",
        "crates/graph/src/csr.rs",
    ] {
        let hits = lint_fixture(as_path, fixture);
        assert!(
            hits.is_empty(),
            "false positives under {as_path}: {hits:#?}"
        );
    }
}

/// The regression the rule exists for: take the kernel file as it is
/// committed today, swap the atomic pull-BFS label publish back to the
/// plain `store` that PR 1's sanitizer caught dynamically, and assert the
/// linter catches it statically.
#[test]
fn reintroducing_the_pull_bfs_raw_store_is_caught() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let kernels_path = manifest.join("../core/src/kernels.rs");
    let current = std::fs::read_to_string(&kernels_path).expect("kernels.rs exists");

    let atomic = "w.atomic_min(self.labels, &tids, &levels, found);";
    assert!(
        current.contains(atomic),
        "expected the atomic pull-BFS label publish in kernels.rs; \
         update this test if the kernel was refactored"
    );
    // Today's kernel source is clean.
    assert!(
        lint_fixture("crates/core/src/kernels.rs", &current).is_empty(),
        "committed kernels.rs must be lint-clean"
    );

    let regressed = current.replace(atomic, "w.store(self.labels, &tids, &levels, found);");
    let hits = lint_fixture("crates/core/src/kernels.rs", &regressed);
    assert!(
        hits.iter().any(|f| f.rule == "L-KERNEL-RAW"),
        "the re-introduced raw label store must be an L-KERNEL-RAW finding, got {hits:#?}"
    );
}
