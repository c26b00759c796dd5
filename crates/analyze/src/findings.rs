//! Finding and lint-id types shared by every lint, plus the
//! `// analyze: allow(..)` annotation table for one file.

use crate::lexer::Lexed;
use std::cell::Cell;
use std::fmt;

/// Stable lint identifiers — these appear in annotations, CLI filters,
/// JSON output, and docs, so renaming one is a breaking change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    LockOrder,
    Failpoint,
    DocDrift,
    Determinism,
    /// Meta-lint: torn/unknown/unused `analyze:` annotations. Not
    /// allowable (an annotation cannot vouch for itself).
    BadAnnotation,
}

impl LintId {
    pub const ALL: [LintId; 5] = [
        LintId::LockOrder,
        LintId::Failpoint,
        LintId::DocDrift,
        LintId::Determinism,
        LintId::BadAnnotation,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            LintId::LockOrder => "lock-order",
            LintId::Failpoint => "failpoint",
            LintId::DocDrift => "doc-drift",
            LintId::Determinism => "determinism",
            LintId::BadAnnotation => "bad-annotation",
        }
    }

    pub fn parse(s: &str) -> Option<LintId> {
        LintId::ALL.iter().copied().find(|l| l.as_str() == s)
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: LintId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// `Some(reason)` when an `analyze: allow` annotation covers the
    /// finding — it is then reported but does not fail the run.
    pub allowed: Option<String>,
}

impl Finding {
    pub fn new(lint: LintId, file: &str, line: u32, message: impl Into<String>) -> Finding {
        Finding {
            lint,
            file: file.to_string(),
            line,
            message: message.into(),
            allowed: None,
        }
    }
}

/// A parsed `// analyze: allow(<lint>) -- <reason>` annotation.
#[derive(Debug)]
pub struct Allow {
    pub lint: LintId,
    pub reason: String,
    /// The code line the annotation vouches for: its own line for a
    /// trailing annotation, the next code line for an own-line one.
    pub target_line: u32,
    /// Line the annotation comment itself sits on.
    pub comment_line: u32,
    /// Set when a finding (or a lint's internal suppression) consumed
    /// this allow; unconsumed allows become `bad-annotation` findings
    /// so stale annotations cannot rot in place.
    pub used: Cell<bool>,
}

/// Annotation scan result for one file.
#[derive(Debug, Default)]
pub struct AllowTable {
    pub allows: Vec<Allow>,
    /// Malformed annotations, reported as `bad-annotation`.
    pub torn: Vec<(u32, String)>,
}

impl AllowTable {
    /// Look up (and mark used) an allow covering `lint` at `line`.
    pub fn consume(&self, lint: LintId, line: u32) -> Option<&Allow> {
        let hit = self
            .allows
            .iter()
            .find(|a| a.lint == lint && a.target_line == line)?;
        hit.used.set(true);
        Some(hit)
    }

    /// Non-consuming check (for lints that probe speculatively).
    pub fn covers(&self, lint: LintId, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.lint == lint && a.target_line == line)
    }
}

/// The marker every annotation starts with, after the comment
/// introducer.
const MARKER: &str = "analyze:";

/// Scan a file's comments for annotations. `lexed` supplies both the
/// comments and the code-line map used to resolve own-line annotation
/// targets.
pub fn scan_allows(lexed: &Lexed<'_>) -> AllowTable {
    let mut table = AllowTable::default();
    for c in &lexed.comments {
        // Strip the comment introducer and leading `/`/`!`/`*` noise so
        // `///` and `//!` doc comments can carry annotations too.
        let body = c
            .text
            .trim_start_matches('/')
            .trim_start_matches(['!', '*'])
            .trim();
        // The annotation must be the comment's entire content: prose
        // that merely *mentions* `analyze:` mid-sentence is not one.
        if !body.starts_with(MARKER) {
            continue;
        }
        let rest = body[MARKER.len()..].trim();
        match parse_allow(rest) {
            Ok((lint, reason)) => {
                let target_line = if c.own_line {
                    // The next line holding a code token.
                    lexed
                        .tokens
                        .iter()
                        .map(|t| t.line)
                        .find(|l| *l > c.line)
                        .unwrap_or(c.line)
                } else {
                    c.line
                };
                table.allows.push(Allow {
                    lint,
                    reason,
                    target_line,
                    comment_line: c.line,
                    used: Cell::new(false),
                });
            }
            Err(why) => table.torn.push((c.line, why)),
        }
    }
    table
}

/// Parse the part after `analyze:`. Grammar:
/// `allow(<lint-id>) -- <reason>` with a non-empty reason.
fn parse_allow(rest: &str) -> Result<(LintId, String), String> {
    let Some(inner) = rest.strip_prefix("allow(") else {
        return Err(format!(
            "expected `allow(<lint>) -- <reason>` after `analyze:`, found `{rest}`"
        ));
    };
    let Some(close) = inner.find(')') else {
        return Err("unclosed `allow(` — missing `)`".to_string());
    };
    let id = inner[..close].trim();
    let Some(lint) = LintId::parse(id) else {
        return Err(format!(
            "unknown lint `{id}` (known: lock-order, failpoint, doc-drift, determinism)"
        ));
    };
    if lint == LintId::BadAnnotation {
        return Err("`bad-annotation` cannot be allowed".to_string());
    }
    let after = inner[close + 1..].trim();
    let Some(reason) = after.strip_prefix("--") else {
        return Err("missing ` -- <reason>` after `allow(..)`".to_string());
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err("empty reason — annotations must say why".to_string());
    }
    Ok((lint, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src =
            "let n = m.keys().count(); // analyze: allow(determinism) -- a count has no order\n";
        let t = scan_allows(&lex(src));
        assert_eq!(t.allows.len(), 1);
        assert_eq!(t.allows[0].lint, LintId::Determinism);
        assert_eq!(t.allows[0].target_line, 1);
        assert_eq!(t.allows[0].reason, "a count has no order");
    }

    #[test]
    fn own_line_allow_targets_next_code_line() {
        let src = "\n// analyze: allow(lock-order) -- audited below\n\nlet g = a.lock();\n";
        let t = scan_allows(&lex(src));
        assert_eq!(t.allows.len(), 1);
        assert_eq!(t.allows[0].target_line, 4);
    }

    #[test]
    fn torn_annotations_reported() {
        for bad in [
            "// analyze: allow(determinism)",                 // no reason
            "// analyze: allow(determinism) -- ",             // empty reason
            "// analyze: allow(nonsense) -- whatever",        // unknown lint
            "// analyze: allow(panic) -- clippy's now",       // retired lint
            "// analyze: allowing(determinism) -- whatever",  // wrong verb
            "// analyze: allow(determinism -- missing close", // unclosed
        ] {
            let t = scan_allows(&lex(bad));
            assert_eq!(t.allows.len(), 0, "{bad}");
            assert_eq!(t.torn.len(), 1, "{bad}");
        }
    }

    #[test]
    fn consume_marks_used() {
        let src = "x.lock(); // analyze: allow(lock-order) -- fine\n";
        let t = scan_allows(&lex(src));
        assert!(t.consume(LintId::LockOrder, 1).is_some());
        assert!(t.allows[0].used.get());
        assert!(t.consume(LintId::Determinism, 1).is_none());
    }
}
