//! CLI for the workspace invariant linter.
//!
//! ```text
//! cargo run -p orchestra-analyze -- --workspace            # gate mode
//! cargo run -p orchestra-analyze -- --workspace --json     # machine output
//! cargo run -p orchestra-analyze -- --workspace --lint lock-order --lint determinism
//! cargo run -p orchestra-analyze -- --root /path/to/tree
//! ```
//!
//! Exit codes: `0` clean (no unannotated findings), `1` unannotated
//! findings, `2` usage or I/O error.

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

use orchestra_analyze::findings::LintId;
use orchestra_analyze::Options;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut lints: Vec<LintId> = Vec::new();
    let mut workspace = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--lint" => match args.next().as_deref().map(LintId::parse) {
                Some(Some(l)) => lints.push(l),
                Some(None) => return usage("unknown lint id (see --list-lints)"),
                None => return usage("--lint needs a lint id"),
            },
            "--list-lints" => {
                for l in LintId::ALL {
                    println!("{l}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "orchestra-analyze: workspace invariant linter\n\n\
                     USAGE: orchestra-analyze --workspace [--root PATH] [--json] [--lint ID]...\n\n\
                     Lints: lock-order, failpoint, doc-drift, determinism\n\
                     Annotate findings with `// analyze: allow(<lint>) -- <reason>`.\n\
                     Docs: docs/static-analysis.md"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if !workspace && root.is_none() {
        return usage("pass --workspace (scan the current workspace) or --root PATH");
    }

    let root = root.unwrap_or_else(find_workspace_root);
    let mut opts = Options::default();
    if !lints.is_empty() {
        // Annotation hygiene always runs alongside explicit selections.
        lints.push(LintId::BadAnnotation);
        opts.lints = lints;
    }

    match orchestra_analyze::analyze(&root, &opts) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.unannotated() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!(
                "orchestra-analyze: cannot read workspace at {}: {e}",
                root.display()
            );
            ExitCode::from(2)
        }
    }
}

/// Walk up from the current directory to the first directory that has
/// a `crates/` subdirectory next to a `Cargo.toml` (the workspace
/// root); fall back to `.`.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for _ in 0..5 {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return dir;
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => break,
        }
    }
    PathBuf::from(".")
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("orchestra-analyze: {msg}\ntry `orchestra-analyze --help`");
    ExitCode::from(2)
}
