//! # orchestra-analyze
//!
//! A dependency-free workspace invariant linter. The codebase stakes
//! its correctness on rules no compiler checks — byte-identical output
//! across engines fed the same input, witness-after-absorb ordering,
//! unique documented failpoint sites, a hand-maintained wire spec —
//! and this crate turns those tribal rules into CI-gated checks: a
//! hand-rolled token-level Rust scanner (crates.io is unreachable, so
//! no `syn`) plus four lints.
//!
//! | lint id | invariant |
//! |---------|-----------|
//! | `lock-order` | no cyclic lock-acquisition order (deadlock candidates) |
//! | `failpoint` | fault-injection sites unique and exercised |
//! | `doc-drift` | opcode / counter / failpoint tables match the docs |
//! | `determinism` | no hash-order iteration in determinism-critical merge/serialize paths |
//!
//! Panic-freedom and the `// SAFETY:` audit are clippy's: each crate
//! root warns on the clippy restriction lints for them outside
//! `cfg(test)`, and a site that cannot panic is waived with
//! `#[expect(clippy::<lint>, reason = "..")]`.
//!
//! Any analyzer finding can be waived in place with
//! `// analyze: allow(<lint>) -- <reason>`; unannotated findings fail
//! the run (exit 1). Torn or stale annotations are themselves
//! findings (`bad-annotation`). See `docs/static-analysis.md`.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::undocumented_unsafe_blocks,
    )
)]

pub mod context;
pub mod files;
pub mod findings;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod report;

use context::ParsedFile;
use files::{FileKind, Workspace};
use findings::{Finding, LintId};
use report::Report;
use std::path::Path;

/// Which lints to run (all by default).
#[derive(Debug, Clone)]
pub struct Options {
    pub lints: Vec<LintId>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            lints: LintId::ALL.to_vec(),
        }
    }
}

/// Run the analyzer over the workspace at `root`.
pub fn analyze(root: &Path, opts: &Options) -> std::io::Result<Report> {
    let ws = files::load_workspace(root)?;
    Ok(analyze_workspace(&ws, opts))
}

/// Run the analyzer over an already-loaded workspace (fixture tests
/// build synthetic ones).
pub fn analyze_workspace(ws: &Workspace, opts: &Options) -> Report {
    // Parse every library file once; the other roles are read as raw
    // text by the lints that need them (coverage evidence, docs).
    let parsed: Vec<ParsedFile<'_>> = ws
        .files
        .iter()
        .filter(|f| f.kind == FileKind::Lib)
        .map(|entry| {
            let lexed = lexer::lex(&entry.src);
            let structure = parse::structure(&lexed);
            let allows = findings::scan_allows(&lexed);
            ParsedFile {
                entry,
                lexed,
                structure,
                allows,
            }
        })
        .collect();

    let mut findings: Vec<Finding> = Vec::new();
    let on = |l: LintId| opts.lints.contains(&l);
    if on(LintId::LockOrder) {
        findings.extend(lints::lock_order::run(&parsed));
    }
    if on(LintId::Failpoint) {
        findings.extend(lints::failpoints::run(ws, &parsed));
    }
    if on(LintId::DocDrift) {
        findings.extend(lints::doc_drift::run(ws, &parsed));
    }
    if on(LintId::Determinism) {
        findings.extend(lints::determinism::run(&parsed));
    }

    // Apply allow-annotations: a finding on an annotated line (for its
    // lint) is downgraded to `allowed` and the annotation is consumed.
    for f in &mut findings {
        if f.allowed.is_some() {
            continue;
        }
        if let Some(pf) = parsed.iter().find(|p| p.entry.rel_path == f.file) {
            if let Some(a) = pf.allows.consume(f.lint, f.line) {
                f.allowed = Some(a.reason.clone());
            }
        }
    }

    // Annotation hygiene: torn annotations and unused allows.
    if on(LintId::BadAnnotation) {
        for pf in &parsed {
            for (line, why) in &pf.allows.torn {
                findings.push(pf.finding(
                    LintId::BadAnnotation,
                    *line,
                    format!("torn `analyze:` annotation — {why}"),
                ));
            }
            for a in &pf.allows.allows {
                // An allow can only be judged stale when its lint ran:
                // under a `--lint` filter the other lints never got the
                // chance to consume their annotations.
                if on(a.lint) && !a.used.get() {
                    findings.push(pf.finding(
                        LintId::BadAnnotation,
                        a.comment_line,
                        format!(
                            "unused `allow({})` — nothing on line {} triggers this lint \
                             anymore; remove the stale annotation",
                            a.lint, a.target_line
                        ),
                    ));
                }
            }
        }
    }

    let mut report = Report {
        findings,
        files_scanned: parsed.len(),
    };
    report.finalize();
    report
}
