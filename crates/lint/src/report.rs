//! Deterministic text and JSON rendering of a lint run.
//!
//! Both sinks are byte-identical across runs and platforms: findings are
//! sorted by (path, line, rule), paths use forward slashes, and the JSON is
//! hand-emitted (this crate is dependency-free) with escaped strings and no
//! floating-point values.

use crate::baseline::BaselineEntry;
use crate::rules::{Finding, RULES};

/// The outcome of linting a workspace, after baseline application.
#[derive(Debug, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    /// Non-baselined findings — any entry here fails the gate.
    pub findings: Vec<Finding>,
    /// Findings suppressed by `lint.allow`.
    pub baselined: usize,
    /// Findings suppressed by justified inline `lint: allow(...)` comments.
    pub inline_allowed: usize,
    /// Inline directives that lack a justification (these are findings in
    /// their own right and appear in `findings` as the rule they name).
    pub unjustified_allows: usize,
    /// Baseline entries that no longer match any source line.
    pub stale_baseline: Vec<BaselineEntry>,
    /// `finding → trimmed source line` resolved at scan time.
    pub source_lines: Vec<String>,
}

impl LintReport {
    /// Clean means: zero non-baselined findings *and* zero stale baseline
    /// entries. Both fail CI.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale_baseline.is_empty()
    }

    /// Sorts findings (with their source lines) by (path, line, rule).
    pub fn sort(&mut self) {
        let mut pairs: Vec<(Finding, String)> = self
            .findings
            .drain(..)
            .zip(self.source_lines.drain(..))
            .collect();
        pairs.sort_by(|(a, _), (b, _)| {
            (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
        });
        for (f, s) in pairs {
            self.findings.push(f);
            self.source_lines.push(s);
        }
        self.stale_baseline.sort();
    }

    pub fn text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "eta-lint: scanned {} files against {} rules\n",
            self.files_scanned,
            RULES.len()
        ));
        out.push_str(&format!(
            "findings: {} new, {} baselined, {} inline-allowed, {} stale baseline entr{}\n",
            self.findings.len(),
            self.baselined,
            self.inline_allowed,
            self.stale_baseline.len(),
            if self.stale_baseline.len() == 1 {
                "y"
            } else {
                "ies"
            },
        ));
        for (f, src) in self.findings.iter().zip(&self.source_lines) {
            out.push_str(&format!(
                "{} {}:{}: {}\n",
                f.rule, f.path, f.line, f.message
            ));
            if !src.is_empty() {
                out.push_str(&format!("    {src}\n"));
            }
        }
        for e in &self.stale_baseline {
            out.push_str(&format!(
                "STALE-BASELINE lint.allow entry matches no current finding: {}\n",
                e.display()
            ));
        }
        if self.is_clean() {
            out.push_str("clean: no non-baselined findings\n");
        }
        out
    }

    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"new\": {},\n", self.findings.len()));
        out.push_str(&format!("  \"baselined\": {},\n", self.baselined));
        out.push_str(&format!("  \"inline_allowed\": {},\n", self.inline_allowed));
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str("  \"rules\": [\n");
        for (i, r) in RULES.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"summary\": {}}}{}\n",
                json_str(r.id),
                json_str(r.summary),
                if i + 1 < RULES.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"findings\": [\n");
        for (i, (f, src)) in self.findings.iter().zip(&self.source_lines).enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \"source\": {}}}{}\n",
                json_str(f.rule),
                json_str(&f.path),
                f.line,
                json_str(&f.message),
                json_str(src),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"stale_baseline\": [\n");
        for (i, e) in self.stale_baseline.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"source\": {}}}{}\n",
                json_str(&e.rule),
                json_str(&e.path),
                json_str(&e.line_text),
                if i + 1 < self.stale_baseline.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_renders_clean() {
        let r = LintReport {
            files_scanned: 10,
            ..Default::default()
        };
        assert!(r.is_clean());
        assert!(r.text().contains("clean: no non-baselined findings"));
        assert!(r.json().contains("\"clean\": true"));
    }

    #[test]
    fn findings_render_sorted_and_escaped() {
        let mut r = LintReport {
            files_scanned: 1,
            findings: vec![
                Finding {
                    rule: "L-PANIC",
                    path: "b.rs".into(),
                    line: 2,
                    message: "say \"no\"".into(),
                },
                Finding {
                    rule: "L-DET-HASH",
                    path: "a.rs".into(),
                    line: 9,
                    message: "m".into(),
                },
            ],
            source_lines: vec!["x.unwrap();".into(), "HashMap::new();".into()],
            ..Default::default()
        };
        r.sort();
        assert!(!r.is_clean());
        assert_eq!(r.findings[0].path, "a.rs");
        assert_eq!(r.source_lines[0], "HashMap::new();");
        let json = r.json();
        assert!(json.contains("\\\"no\\\""));
        let text = r.text();
        assert!(text.contains("L-PANIC b.rs:2"));
    }

    #[test]
    fn stale_entries_fail_cleanliness() {
        let r = LintReport {
            files_scanned: 1,
            stale_baseline: vec![crate::baseline::BaselineEntry {
                rule: "L-PANIC".into(),
                path: "a.rs".into(),
                line_text: "gone".into(),
            }],
            ..Default::default()
        };
        assert!(!r.is_clean());
        assert!(r.text().contains("STALE-BASELINE"));
    }
}
