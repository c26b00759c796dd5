//! `panic` lint: panic-freedom for library code.
//!
//! A panic in library code tears through every invariant this codebase
//! stakes its correctness on — a poisoned WAL half-write, a server
//! worker that dies mid-connection, an evaluation lane that takes the
//! whole pool down. The lint flags, in non-test non-bench library
//! code:
//!
//! * `.unwrap()` / `.expect(..)` method calls;
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` macros;
//! * subscript indexing (`buf[i]`, `&buf[a..b]`) — but only inside the
//!   **panic-critical modules** (the durable store and the archive
//!   index it shares with the other backends, the shared frame codec,
//!   and the network stack), where the input is untrusted bytes
//!   or a torn file and a bounds panic is a crash where an error was
//!   owed. Elsewhere indexing is pervasive and invariant-guarded
//!   (dense `Sym`/`NodeId` tables), so it is not flagged.
//!
//! Escape hatch: `// analyze: allow(panic) -- <why this cannot fire>`.

use crate::context::ParsedFile;
use crate::findings::{Finding, LintId};
use crate::lexer::TokenKind;

/// Path prefixes where subscript indexing is also flagged: code that
/// parses bytes from disk or the wire.
const INDEX_CRITICAL: &[&str] = &[
    "crates/store/src/archive.rs",
    "crates/store/src/durable/",
    "crates/store/src/frame.rs",
    "crates/net/src/",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub fn run(files: &[ParsedFile<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    for pf in files {
        let rel = &pf.entry.rel_path;
        let index_critical = INDEX_CRITICAL.iter().any(|p| rel.starts_with(p));
        let toks = &pf.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if pf.is_test_code(i) {
                continue;
            }
            let prev = i.checked_sub(1).map(|j| toks[j].text).unwrap_or("");
            let next = toks.get(i + 1).map(|n| n.text).unwrap_or("");
            if t.kind == TokenKind::Ident {
                let flagged = match t.text {
                    "unwrap" | "expect" if prev == "." && next == "(" => Some(format!(
                        "`.{}()` in library code — propagate the error instead, or annotate why it cannot fire",
                        t.text
                    )),
                    m if PANIC_MACROS.contains(&m) && next == "!" => Some(format!(
                        "`{m}!` in library code — return an error instead, or annotate why this is unreachable",
                    )),
                    _ => None,
                };
                if let Some(message) = flagged {
                    out.push(pf.finding(LintId::Panic, t.line, message));
                }
            } else if index_critical && t.kind == TokenKind::Punct && t.text == "[" {
                // Subscript: `[` directly after an expression tail.
                // `#[attr]`, `vec![..]`, types `[u8; 4]`, and slice
                // patterns all have a non-expression token before the
                // bracket.
                let is_subscript = i > 0 && {
                    let p = &toks[i - 1];
                    match p.kind {
                        TokenKind::Ident => !crate::parse::is_keyword(p.text),
                        TokenKind::Punct => p.text == ")" || p.text == "]",
                        _ => false,
                    }
                };
                if is_subscript {
                    out.push(
                        pf.finding(
                            LintId::Panic,
                            t.line,
                            "indexing in a byte-parsing/recovery path can panic on torn input — \
                         use `get()`/length checks, or annotate the guard"
                                .to_string(),
                        ),
                    );
                }
            }
        }
    }
    out
}
