//! Workspace discovery: find every Rust source file (plus the docs and
//! CI config the drift lints compare against) and classify it, because
//! almost every lint scopes by file role — only library code is
//! linted, failpoint-conformance *reads* tests as coverage evidence,
//! the shims are vendored stand-ins for external crates and are
//! skipped entirely.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What role a Rust file plays in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library/binary source under some crate's `src/` (or the umbrella
    /// `src/`). The full lint set applies.
    Lib,
    /// Integration tests (`crates/*/tests/**`, root `tests/**`).
    Test,
    /// The bench/experiment harness crate. Not linted, but scanned as
    /// failpoint exercise evidence (the CI fault matrix drives it).
    Bench,
    /// `examples/**` — demo code, not linted.
    Example,
    /// `crates/shims/**` — vendored stand-ins for crates.io
    /// dependencies. They deliberately mirror external APIs and are
    /// skipped entirely.
    Shim,
}

/// One loaded source file.
#[derive(Debug)]
pub struct FileEntry {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    pub kind: FileKind,
    /// Owning crate name (`store`, `net`, …); the umbrella package and
    /// root-level tests/examples report `orchestra`.
    pub crate_name: String,
    pub src: String,
}

/// A non-Rust file the doc-sync lints read (markdown docs, CI yaml).
#[derive(Debug)]
pub struct DocFile {
    pub rel_path: String,
    pub src: String,
}

/// The loaded workspace.
#[derive(Debug)]
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<FileEntry>,
    pub docs: Vec<DocFile>,
}

impl Workspace {
    pub fn doc(&self, rel: &str) -> Option<&DocFile> {
        self.docs.iter().find(|d| d.rel_path == rel)
    }
}

/// Load the workspace rooted at `root`. Fails only on I/O errors for
/// files that exist but cannot be read; missing optional docs are
/// simply absent (the doc-drift lint then reports them).
pub fn load_workspace(root: &Path) -> io::Result<Workspace> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_rs(root, &dir, &mut files)?;
        }
    }
    // Deterministic order regardless of readdir order.
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));

    let mut docs = Vec::new();
    for rel in [
        "docs/wire-protocol.md",
        "docs/architecture.md",
        "docs/observability.md",
        "README.md",
    ] {
        let p = root.join(rel);
        if p.is_file() {
            docs.push(DocFile {
                rel_path: rel.to_string(),
                src: fs::read_to_string(&p)?,
            });
        }
    }
    let wf = root.join(".github/workflows");
    if wf.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&wf)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension()
                    .map(|e| e == "yml" || e == "yaml")
                    .unwrap_or(false)
            })
            .collect();
        entries.sort();
        for p in entries {
            docs.push(DocFile {
                rel_path: rel_str(root, &p),
                src: fs::read_to_string(&p)?,
            });
        }
    }
    Ok(Workspace {
        root: root.to_path_buf(),
        files,
        docs,
    })
}

fn rel_str(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

fn walk_rs(root: &Path, dir: &Path, out: &mut Vec<FileEntry>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `target/` build output, hidden dirs, and lint fixture
            // corpora (deliberate violations) are never workspace
            // source.
            if name == "target" || name.starts_with('.') || name == "fixtures" {
                continue;
            }
            walk_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = rel_str(root, &path);
            let (kind, crate_name) = classify(&rel);
            out.push(FileEntry {
                rel_path: rel,
                kind,
                crate_name,
                src: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

/// Classify a workspace-relative path.
pub fn classify(rel: &str) -> (FileKind, String) {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("orchestra")
        .to_string();
    let kind = if rel.starts_with("crates/shims/") {
        FileKind::Shim
    } else if rel.starts_with("crates/bench/") {
        FileKind::Bench
    } else if rel.starts_with("examples/") || rel.contains("/examples/") {
        FileKind::Example
    } else if rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/") {
        FileKind::Test
    } else {
        FileKind::Lib
    };
    (kind, crate_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_roles() {
        assert_eq!(
            classify("crates/store/src/replicated.rs"),
            (FileKind::Lib, "store".to_string())
        );
        assert_eq!(
            classify("crates/store/tests/durable_recovery.rs").0,
            FileKind::Test
        );
        assert_eq!(classify("tests/properties.rs").0, FileKind::Test);
        assert_eq!(classify("tests/properties.rs").1, "orchestra");
        assert_eq!(classify("crates/bench/src/json.rs").0, FileKind::Bench);
        assert_eq!(
            classify("crates/shims/parking_lot/src/lib.rs").0,
            FileKind::Shim
        );
        assert_eq!(classify("examples/quickstart.rs").0, FileKind::Example);
        assert_eq!(classify("src/lib.rs").0, FileKind::Lib);
    }
}
