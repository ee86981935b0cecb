//! One emitting site per event, checked (ROADMAP "Explain and diff" (d)).
//!
//! The scheduler's ledger is meant to be the only code that builds a
//! record or names a scheduler event. Nothing in the type system can say
//! "this struct literal appears once", so this test reads the crate's
//! non-test source text and counts.

use std::fs;
use std::path::Path;

/// `(file name, text before the first #[cfg(test)], comment lines dropped)`.
fn sources() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).expect("src/ is readable") {
        let path = entry.expect("dir entry").path();
        let text = fs::read_to_string(&path).expect("source is UTF-8");
        let code: String = text
            .split("#[cfg(test)]")
            .next()
            .unwrap_or("")
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .map(|l| format!("{l}\n"))
            .collect();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((name, code));
    }
    out.sort();
    out
}

/// Occurrences of `needle` over every file but `skip`.
fn count(sources: &[(String, String)], needle: &str, skip: &str) -> usize {
    sources
        .iter()
        .filter(|(name, _)| name != skip)
        .map(|(_, code)| code.matches(needle).count())
        .sum()
}

#[test]
fn every_record_is_built_in_exactly_one_place() {
    let src = sources();
    for ty in [
        "RequestRecord",
        "Rejection",
        "BatchRecord",
        "FaultEvent",
        "QuarantineRecord",
        "ServeReport",
    ] {
        // `Name {` opens a struct literal unless the line declares the
        // type, opens an impl, or is a signature returning it.
        let literals: usize = src
            .iter()
            .flat_map(|(_, code)| code.lines())
            .filter(|l| l.contains(&format!("{ty} {{")))
            .filter(|l| {
                !["struct ", "impl ", "-> "]
                    .iter()
                    .any(|kw| l.contains(&format!("{kw}{ty} {{")))
            })
            .count();
        assert_eq!(literals, 1, "`{ty} {{ .. }}` literals in crates/serve/src");
    }
}

#[test]
fn every_scheduler_event_has_exactly_one_emitting_site() {
    let src = sources();
    // request.rs is the vocabulary file: it spells the reject reasons and
    // priority classes, two of which share a word with an event.
    for event in [
        "enqueue",
        "reject",
        "retry",
        "retry_denied",
        "park",
        "resume",
        "migrate",
        "cpu_fallback",
        "quarantine",
        "shed",
        "tenant_throttled",
        "admission_infeasible",
        "brownout_enter",
        "brownout_exit",
        // The success span and the fault instant, once per placement name.
        "batch",
        "group_query",
        "device_fault",
        "group_member_fault",
    ] {
        let n = count(&src, &format!("\"{event}\""), "request.rs");
        assert_eq!(n, 1, "sites naming the `{event}` event");
    }
}

#[test]
fn every_reject_reason_is_used_by_the_scheduler() {
    let src = sources();
    let (_, vocab) = src
        .iter()
        .find(|(name, _)| name == "request.rs")
        .expect("request.rs exists");
    let body = vocab
        .split("pub enum RejectReason {")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .expect("RejectReason is declared in request.rs");
    let variants: Vec<&str> = body
        .split(',')
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .collect();
    assert_eq!(variants.len(), 8, "parsed {variants:?}");
    for v in variants {
        let n = count(&src, &format!("RejectReason::{v}"), "request.rs");
        assert!(n >= 1, "RejectReason::{v} is never issued");
    }
}

#[test]
fn one_scheduler_countable() {
    let src = sources();
    for (needle, what) in [
        ("fn admit(", "admission functions"),
        ("fn finish(", "report assemblers"),
        ("fn cpu_fallback(", "CPU fallbacks"),
        ("10_000 + 2 *", "copies of the CPU cost model"),
        (".retry_try_take(", "retry-budget call sites"),
        ("BACKOFF_BASE_NS <<", "backoff computations"),
        ("loop {", "event loops"),
    ] {
        assert_eq!(count(&src, needle, ""), 1, "{what} (`{needle}`)");
    }
    for gone in [
        "GroupMember",
        "GroupQueued",
        "GroupRunState",
        "ResumableBatch",
    ] {
        assert_eq!(count(&src, gone, ""), 0, "`{gone}` is folded away");
    }
    // `Queued` moves; it is never copied (the in-crate
    // `queued_requests_cannot_be_cloned` is the compile-time half).
    let (_, sched) = src
        .iter()
        .find(|(name, _)| name == "sched.rs")
        .expect("sched.rs exists");
    let decl = sched
        .find("struct Queued")
        .expect("Queued is declared in sched.rs");
    let derive = sched[..decl]
        .rfind("#[derive(")
        .expect("Queued derives Debug");
    assert!(
        !sched[derive..decl].contains("Clone"),
        "Queued must not derive Clone"
    );
    assert_eq!(count(&src, "Clone for Queued", ""), 0);
}
