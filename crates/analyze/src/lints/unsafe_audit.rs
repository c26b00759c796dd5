//! `unsafe` lint: every `unsafe` occurrence in library code must be
//! within reach of a `// SAFETY:` comment (or, for `unsafe fn`, a
//! `# Safety` doc section) stating the obligation being discharged.
//! The one such block in the workspace today is `DurableStore`'s `flock`
//! call (`store/src/durable/mod.rs`), whose justification lives next to
//! the FFI call it guards.

use crate::context::ParsedFile;
use crate::findings::{Finding, LintId};
use crate::lexer::TokenKind;

/// How many lines above the `unsafe` token a SAFETY comment may sit
/// (attributes or a `let` binding line may intervene), and how far
/// into the block it may lead.
const ABOVE: u32 = 6;
const BELOW: u32 = 2;

pub fn run(files: &[ParsedFile<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    for pf in files {
        let toks = &pf.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "unsafe" || pf.is_test_code(i) {
                continue;
            }
            let next = toks.get(i + 1).map(|n| n.text).unwrap_or("");
            // `unsafe` in a fn-pointer/trait-bound type position
            // (`unsafe fn()` as a type) still deserves scrutiny, so no
            // attempt to distinguish — but only the *first* token of an
            // `unsafe fn` item should anchor, not every keyword.
            let documented = pf.lexed.comments.iter().any(|c| {
                let satisfies = c.text.contains("SAFETY:") || c.text.contains("# Safety");
                satisfies && c.line + ABOVE >= t.line && c.line <= t.line + BELOW
            });
            if !documented {
                let what = if next == "fn" {
                    "`unsafe fn` without a `# Safety` doc section or `// SAFETY:` comment"
                } else if next == "impl" {
                    "`unsafe impl` without a `// SAFETY:` comment justifying the contract"
                } else {
                    "`unsafe` block without a `// SAFETY:` comment justifying it"
                };
                out.push(pf.finding(LintId::Unsafe, t.line, what));
            }
        }
    }
    out
}
