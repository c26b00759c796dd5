//! `determinism` lint: byte-identical results across engines fed the
//! same input is a headline guarantee (engine merges, provenance
//! recording order, durable bytes on disk). `HashMap`/`HashSet`
//! iteration order is unspecified, so iterating one inside a
//! merge/drain/serialize function of a determinism-critical module
//! silently couples output to hasher state — unless the iteration feeds
//! a sort or an order-insensitive sink.
//!
//! Heuristics, by construction of the token-level scanner:
//!
//! * hash-container names are collected from field/param/local
//!   declarations and `HashMap::new()`-style initializers in the same
//!   file — std's `HashMap`/`HashSet` and the word-hashed
//!   `FxHashMap`/`FxHashSet` aliases alike (a seedless hash still has
//!   no order worth relying on);
//! * an iteration is exempt when its own statement chain sorts
//!   (`.sort*`), reduces order-insensitively (`.sum`/`.count`/`.min`/
//!   `.max`/`.all`/`.any`/`.fold` into a commutative op is on the
//!   author to annotate), or collects into an ordered container
//!   (`BTreeMap`/`BTreeSet`/`BinaryHeap`);
//! * everything else needs `// analyze: allow(determinism) -- <why
//!   order cannot leak>`.

use crate::context::ParsedFile;
use crate::findings::{Finding, LintId};
use crate::lexer::TokenKind;
use std::collections::BTreeSet;

/// Determinism-critical modules (workspace-relative path prefixes).
const CRITICAL: &[&str] = &[
    "crates/datalog/src/compile.rs",
    "crates/datalog/src/delete.rs",
    "crates/datalog/src/engine.rs",
    "crates/datalog/src/join.rs",
    "crates/datalog/src/node.rs",
    "crates/datalog/src/provgraph.rs",
    "crates/provenance/src/",
    "crates/store/src/archive.rs",
    "crates/store/src/durable/",
];

/// Hash-container type names: std's and `orchestra_relational`'s
/// word-hashed aliases.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Function-name fragments that mark order-sensitive work.
const FN_MARKERS: &[&str] = &[
    "merge",
    "drain",
    "serialize",
    "encode",
    "snapshot",
    "flush",
    "write",
    "emit",
];

/// Iteration methods whose order is the hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Chain members that make hash order harmless within the statement.
const ORDER_SINKS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sum",
    "count",
    "min",
    "max",
    "all",
    "any",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

pub fn run(files: &[ParsedFile<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    for pf in files {
        let rel = &pf.entry.rel_path;
        if !CRITICAL.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let toks = &pf.lexed.tokens;
        let hash_names = collect_hash_names(pf);
        for f in &pf.structure.functions {
            if f.is_test || f.body.is_empty() {
                continue;
            }
            let lname = f.name.to_lowercase();
            if !FN_MARKERS.iter().any(|m| lname.contains(m)) {
                continue;
            }
            for i in f.body.clone() {
                let t = &toks[i];
                if t.kind != TokenKind::Ident || !hash_names.contains(t.text) {
                    continue;
                }
                // Form 1: `name.iter()` / `.keys()` / `.drain()` …
                let method_iter = toks.get(i + 1).map(|n| n.text) == Some(".")
                    && toks
                        .get(i + 2)
                        .map(|n| ITER_METHODS.contains(&n.text))
                        .unwrap_or(false)
                    && toks.get(i + 3).map(|n| n.text) == Some("(");
                // Form 2: `for pat in name {` / `for pat in &name {`
                let for_iter = {
                    let mut j = i;
                    // Step back over `&` / `&mut`.
                    while j > 0 && (toks[j - 1].text == "&" || toks[j - 1].text == "mut") {
                        j -= 1;
                    }
                    j > 0
                        && toks[j - 1].text == "in"
                        && toks.get(i + 1).map(|n| n.text) == Some("{")
                };
                if !(method_iter || for_iter) {
                    continue;
                }
                if method_iter && statement_is_order_safe(pf, i) {
                    continue;
                }
                out.push(pf.finding(
                    LintId::Determinism,
                    t.line,
                    format!(
                        "iteration over hash container `{}` in determinism-critical `{}` — \
                         hash order is unspecified; sort first, use a BTree container, or \
                         annotate the order-insensitive sink",
                        t.text, f.name
                    ),
                ));
            }
        }
    }
    out
}

/// Scan forward from the iteration to the end of its statement; exempt
/// if the chain hits a sorting/reducing sink.
fn statement_is_order_safe(pf: &ParsedFile<'_>, start: usize) -> bool {
    let toks = &pf.lexed.tokens;
    let mut depth = 0i32;
    for t in toks.iter().skip(start) {
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            ";" if depth == 0 => return false,
            s if ORDER_SINKS.contains(&s) => return true,
            _ => {}
        }
    }
    false
}

/// Names declared or initialized as one of [`HASH_TYPES`] anywhere in
/// the file (fields, params, locals). One namespace per file is coarse but
/// errs toward flagging.
fn collect_hash_names<'t>(pf: &'t ParsedFile<'_>) -> BTreeSet<&'t str> {
    let toks = &pf.lexed.tokens;
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || !HASH_TYPES.contains(&t.text) {
            continue;
        }
        // Walk back over a path prefix (`std :: collections ::`).
        let mut j = i;
        while j >= 2 && toks[j - 1].text == "::" {
            j -= 2;
        }
        if j == 0 {
            continue;
        }
        let before = toks[j - 1].text;
        if before == ":" && j >= 2 {
            // `name : HashMap<..>` — field, param, or typed local.
            if toks[j - 2].kind == TokenKind::Ident {
                names.insert(toks[j - 2].text);
            }
        } else if before == "&" || before == "mut" {
            // `name : & mut HashMap<..>` — step back to the colon.
            let mut k = j - 1;
            while k > 0 && (toks[k - 1].text == "&" || toks[k - 1].text == "mut") {
                k -= 1;
            }
            if k >= 2 && toks[k - 1].text == ":" && toks[k - 2].kind == TokenKind::Ident {
                names.insert(toks[k - 2].text);
            }
        } else if before == "=" && j >= 2 {
            // `let [mut] name = HashMap::new()`.
            if toks[j - 2].kind == TokenKind::Ident {
                names.insert(toks[j - 2].text);
            }
        }
    }
    names
}
