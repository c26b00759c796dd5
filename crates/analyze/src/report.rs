//! Report assembly and output: gcc-style text lines for humans and
//! editors, JSON for machines (the CI gate and the shape test consume
//! it). The JSON writer is hand-rolled — same offline constraint as
//! everything else — with full string escaping.

use crate::findings::{Finding, LintId};
use std::collections::BTreeMap;

/// The result of one analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// Files scanned, by role, for the summary line.
    pub files_scanned: usize,
}

impl Report {
    /// Sort findings for stable output: file, then line, then lint.
    pub fn finalize(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    }

    pub fn total(&self) -> usize {
        self.findings.len()
    }

    pub fn allowed(&self) -> usize {
        self.findings.iter().filter(|f| f.allowed.is_some()).count()
    }

    /// Findings not covered by an annotation — the gate fails on these.
    pub fn unannotated(&self) -> usize {
        self.total() - self.allowed()
    }

    pub fn by_lint(&self) -> BTreeMap<LintId, (usize, usize)> {
        let mut m: BTreeMap<LintId, (usize, usize)> = BTreeMap::new();
        for f in &self.findings {
            let e = m.entry(f.lint).or_default();
            e.0 += 1;
            if f.allowed.is_some() {
                e.1 += 1;
            }
        }
        m
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match &f.allowed {
                Some(reason) => format!(" (allowed: {reason})"),
                None => String::new(),
            };
            out.push_str(&format!(
                "{}:{}: [{}] {}{}\n",
                f.file, f.line, f.lint, f.message, tag
            ));
        }
        out.push_str(&format!(
            "orchestra-analyze: {} files scanned, {} findings ({} allowed, {} unannotated)\n",
            self.files_scanned,
            self.total(),
            self.allowed(),
            self.unannotated(),
        ));
        for (lint, (total, allowed)) in self.by_lint() {
            out.push_str(&format!(
                "  {lint}: {total} ({allowed} allowed, {} unannotated)\n",
                total - allowed
            ));
        }
        out
    }

    /// Machine-readable report.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str("  \"tool\": \"orchestra-analyze\",\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"lint\": {}, ", json_str(f.lint.as_str())));
            out.push_str(&format!("\"file\": {}, ", json_str(&f.file)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
            match &f.allowed {
                Some(reason) => out.push_str(&format!(
                    "\"allowed\": true, \"reason\": {}",
                    json_str(reason)
                )),
                None => out.push_str("\"allowed\": false"),
            }
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"summary\": {\n");
        out.push_str(&format!("    \"total\": {},\n", self.total()));
        out.push_str(&format!("    \"allowed\": {},\n", self.allowed()));
        out.push_str(&format!("    \"unannotated\": {},\n", self.unannotated()));
        out.push_str("    \"by_lint\": {");
        let by = self.by_lint();
        for (i, (lint, (total, allowed))) in by.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {}: {{\"total\": {}, \"allowed\": {}, \"unannotated\": {}}}",
                json_str(lint.as_str()),
                total,
                allowed,
                total - allowed
            ));
        }
        if !by.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("}\n  }\n}\n");
        out
    }
}

/// Escape a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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
    use crate::findings::Finding;

    fn sample() -> Report {
        let mut r = Report {
            findings: vec![Finding::new(LintId::LockOrder, "b.rs", 3, "lock cycle"), {
                let mut f = Finding::new(LintId::Determinism, "a.rs", 9, "hash order \"quoted\"");
                f.allowed = Some("checked by hand".into());
                f
            }],
            files_scanned: 2,
        };
        r.finalize();
        r
    }

    #[test]
    fn text_is_sorted_and_tagged() {
        let text = sample().render_text();
        let a = text.find("a.rs:9").unwrap();
        let b = text.find("b.rs:3").unwrap();
        assert!(a < b);
        assert!(text.contains("(allowed: checked by hand)"));
        assert!(text.contains("1 allowed, 1 unannotated"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let json = sample().render_json();
        assert!(json.contains("\"hash order \\\"quoted\\\"\""));
        assert!(json.contains("\"unannotated\": 1,"));
        assert!(json.contains("\"allowed\": false"));
    }
}
