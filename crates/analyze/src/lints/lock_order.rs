//! `lock-order` lint: deadlock candidates from inconsistent lock
//! acquisition order.
//!
//! The workspace nests locks across many layers — `ReplicatedStore`'s
//! holder registry, `MeshNode` neighbor lists,
//! `PeerServer` connection tables — and nothing but discipline keeps
//! thread A from taking `X` then `Y` while thread B takes `Y` then
//! `X`. This lint recovers that discipline mechanically:
//!
//! * **Acquisitions.** `.lock()` / `.read()` / `.write()` calls *with
//!   no arguments* (the shim/std lock API shape — `io::Read::read`
//!   takes a buffer and is skipped) on a resolvable receiver:
//!   `self.field` chains (keyed `Type.field` by the enclosing impl),
//!   `SCREAMING_CASE` statics, and locals/params whose declared type
//!   is known (keyed through that type). Unresolvable receivers are
//!   skipped — the annotation hatch covers hand-known cases.
//! * **Hold tracking.** A `let`-bound guard is held to the end of its
//!   enclosing block (or an explicit `drop(guard)`); a temporary is
//!   held to the end of its statement. Acquiring `B` while `A` is held
//!   adds the edge `A → B`.
//! * **Call edges.** While a lock is held, calls to functions whose
//!   name resolves *uniquely inside the same crate* contribute edges
//!   to every lock that callee (transitively) acquires.
//! * **Cycles.** Strongly connected components of the edge graph with
//!   more than one lock — or a self-edge (re-acquiring a held lock) —
//!   are reported as deadlock candidates, with one representative
//!   acquisition site per edge.
//!
//! An `// analyze: allow(lock-order) -- reason` on an acquisition or
//! call line suppresses the edges that site contributes.

use crate::context::ParsedFile;
use crate::findings::{Finding, LintId};
use crate::lexer::{Token, TokenKind};
use crate::parse::{is_keyword, Func};
use std::collections::{BTreeMap, BTreeSet};

/// One lock-acquisition edge: `from` held while `to` acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
    note: String,
}

#[derive(Debug, Clone)]
enum Release {
    /// Temporary guard: released at the end of the statement.
    StmtEnd,
    /// `let`-bound guard: released when the block at `depth` closes.
    BlockEnd(i32),
}

#[derive(Debug, Clone)]
struct Held {
    key: String,
    release: Release,
    /// Binding name for `drop(name)` release, when `let`-bound.
    binding: Option<String>,
}

/// Ubiquitous std method names: a bare `.len()` on a guard or buffer
/// must not resolve to a same-named crate method (`RemoteStore::len`
/// locks the pool; `Vec::len` does not). Call edges through these
/// names are never drawn.
const STD_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "push",
    "pop",
    "insert",
    "get",
    "get_mut",
    "remove",
    "contains",
    "contains_key",
    "extend",
    "clear",
    "take",
    "replace",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "to_string",
    "to_vec",
    "to_owned",
    "into",
    "from",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "default",
];

fn callee_resolvable(name: &str) -> bool {
    !STD_METHODS.contains(&name)
}

/// Per-function facts for the call-edge closure.
#[derive(Debug, Default)]
struct FnFacts {
    /// Locks acquired directly in this function (any position).
    direct: BTreeSet<String>,
    /// Callee names invoked anywhere in this function.
    callees: BTreeSet<String>,
}

pub fn run(files: &[ParsedFile<'_>]) -> Vec<Finding> {
    // Group library files per crate: call edges resolve intra-crate.
    let mut crates: BTreeMap<&str, Vec<&ParsedFile<'_>>> = BTreeMap::new();
    for pf in files {
        crates.entry(&pf.entry.crate_name).or_default().push(pf);
    }

    let mut edges: Vec<Edge> = Vec::new();
    for files in crates.values() {
        collect_crate_edges(files, &mut edges);
    }
    edges.sort();
    edges.dedup_by(|a, b| a.from == b.from && a.to == b.to);

    report_cycles(&edges)
}

/// Scan one crate: direct nesting edges plus call-closure edges.
fn collect_crate_edges(files: &[&ParsedFile<'_>], edges: &mut Vec<Edge>) {
    // Pass A: per-function direct locks + callees; direct nesting
    // edges and held-at-call records.
    let mut facts: BTreeMap<String, FnFacts> = BTreeMap::new();
    // Function name → number of definitions (for unique resolution).
    let mut def_count: BTreeMap<&str, usize> = BTreeMap::new();
    for pf in files {
        for f in &pf.structure.functions {
            if !f.is_test {
                *def_count.entry(f.name.as_str()).or_default() += 1;
            }
        }
    }
    // (held lock, callee, site) records to expand after the closure.
    let mut call_records: Vec<(String, String, String, u32)> = Vec::new();

    for pf in files {
        for f in &pf.structure.functions {
            if f.is_test || f.body.is_empty() {
                continue;
            }
            let mut ff = FnFacts::default();
            scan_function(pf, f, edges, &mut ff, &mut call_records);
            // Multiple fns may share a name; merge facts conservatively.
            let entry = facts.entry(f.name.clone()).or_default();
            entry.direct.extend(ff.direct);
            entry.callees.extend(ff.callees);
        }
    }

    // Pass B: transitive lock closure per function, resolving callees
    // only when their name is defined exactly once in this crate.
    let mut closure: BTreeMap<String, BTreeSet<String>> = facts
        .iter()
        .map(|(k, v)| (k.clone(), v.direct.clone()))
        .collect();
    loop {
        let mut changed = false;
        let snapshot = closure.clone();
        for (name, ff) in &facts {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for callee in &ff.callees {
                if callee_resolvable(callee) && def_count.get(callee.as_str()).copied() == Some(1) {
                    if let Some(locks) = snapshot.get(callee) {
                        add.extend(locks.iter().cloned());
                    }
                }
            }
            let mine = closure.entry(name.clone()).or_default();
            for l in add {
                changed |= mine.insert(l);
            }
        }
        if !changed {
            break;
        }
    }

    // Pass C: expand call records into edges.
    for (held, callee, file, line) in call_records {
        if !callee_resolvable(&callee) || def_count.get(callee.as_str()).copied() != Some(1) {
            continue;
        }
        if let Some(locks) = closure.get(&callee) {
            for to in locks {
                edges.push(Edge {
                    from: held.clone(),
                    to: to.clone(),
                    file: file.clone(),
                    line,
                    note: format!("via call to `{callee}`"),
                });
            }
        }
    }
}

/// Walk one function body tracking held locks.
fn scan_function(
    pf: &ParsedFile<'_>,
    f: &Func,
    edges: &mut Vec<Edge>,
    ff: &mut FnFacts,
    call_records: &mut Vec<(String, String, String, u32)>,
) {
    let toks = &pf.lexed.tokens;
    let params = param_types(toks, f);
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let mut stmt_start = true; // at a statement boundary
    let mut stmt_is_let = false;
    let mut let_binding: Option<String> = None;

    let mut i = f.body.start;
    while i < f.body.end {
        let t = &toks[i];
        match t.text {
            "{" => {
                depth += 1;
                stmt_start = true;
                i += 1;
                continue;
            }
            "}" => {
                held.retain(|h| !matches!(h.release, Release::BlockEnd(d) if d >= depth));
                depth -= 1;
                held.retain(|h| !matches!(h.release, Release::StmtEnd));
                stmt_start = true;
                i += 1;
                continue;
            }
            ";" => {
                held.retain(|h| !matches!(h.release, Release::StmtEnd));
                stmt_start = true;
                stmt_is_let = false;
                let_binding = None;
                i += 1;
                continue;
            }
            _ => {}
        }
        if t.kind == TokenKind::Ident {
            if stmt_start {
                stmt_is_let = t.text == "let";
                let_binding = None;
                stmt_start = false;
                if stmt_is_let {
                    // Binding name: first ident after `let` (skipping
                    // `mut`); destructuring patterns leave it None.
                    let mut j = i + 1;
                    while j < f.body.end && toks[j].text == "mut" {
                        j += 1;
                    }
                    if j < f.body.end
                        && toks[j].kind == TokenKind::Ident
                        && !is_keyword(toks[j].text)
                    {
                        let_binding = Some(toks[j].text.to_string());
                    }
                    i += 1;
                    continue;
                }
            }
            // Explicit guard drop: `drop(name)`.
            if t.text == "drop" && toks.get(i + 1).map(|n| n.text) == Some("(") {
                if let Some(name) = toks.get(i + 2).filter(|n| n.kind == TokenKind::Ident) {
                    held.retain(|h| h.binding.as_deref() != Some(name.text));
                }
                i += 3;
                continue;
            }
            // Acquisition: `.lock()` / `.read()` / `.write()` no-arg.
            let is_acq = matches!(t.text, "lock" | "read" | "write")
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).map(|n| n.text) == Some("(")
                && toks.get(i + 2).map(|n| n.text) == Some(")");
            if is_acq {
                if let Some(key) = receiver_key(toks, i - 1, f, &params) {
                    let line = t.line;
                    let suppressed = pf.allows.consume(LintId::LockOrder, line).is_some();
                    if !suppressed {
                        for h in &held {
                            edges.push(Edge {
                                from: h.key.clone(),
                                to: key.clone(),
                                file: pf.entry.rel_path.clone(),
                                line,
                                note: format!("`.{}()` in `{}`", t.text, f.name),
                            });
                        }
                        ff.direct.insert(key.clone());
                    }
                    // `let pooled = x.lock().pop();` binds the *chain
                    // result*, not the guard — the guard is a temporary
                    // dropped at the end of the statement. Only an
                    // unchained `let g = x.lock();` holds to block end.
                    let chained = toks.get(i + 3).map(|n| n.text) == Some(".");
                    let bound = stmt_is_let && !chained;
                    held.push(Held {
                        key,
                        release: if bound {
                            Release::BlockEnd(depth)
                        } else {
                            Release::StmtEnd
                        },
                        binding: if bound { let_binding.clone() } else { None },
                    });
                }
                i += 3;
                continue;
            }
            // Call: ident followed by `(`, not a macro, not a keyword.
            if !is_keyword(t.text)
                && toks.get(i + 1).map(|n| n.text) == Some("(")
                && !matches!(t.text, "lock" | "read" | "write" | "drop")
            {
                ff.callees.insert(t.text.to_string());
                if !held.is_empty() && !pf.allows.covers(LintId::LockOrder, t.line) {
                    for h in &held {
                        call_records.push((
                            h.key.clone(),
                            t.text.to_string(),
                            pf.entry.rel_path.clone(),
                            t.line,
                        ));
                    }
                } else if !held.is_empty() {
                    // Annotated call site: consume the allow.
                    pf.allows.consume(LintId::LockOrder, t.line);
                }
            }
        }
        stmt_start = false;
        i += 1;
    }
}

/// Resolve the receiver chain ending at the `.` before the acquisition
/// method into a stable lock key, or `None` when unresolvable.
fn receiver_key(
    toks: &[Token<'_>],
    dot_idx: usize,
    f: &Func,
    params: &BTreeMap<String, String>,
) -> Option<String> {
    // Walk back over `ident . ident . … `; stop at anything else.
    let mut parts: Vec<&str> = Vec::new();
    let mut j = dot_idx; // points at the `.` before lock/read/write
    loop {
        if j == 0 {
            break;
        }
        let prev = &toks[j - 1];
        if prev.kind == TokenKind::Ident {
            parts.push(prev.text);
            if j == 1 {
                break;
            }
            let before = &toks[j - 2];
            if before.text == "." {
                j -= 2;
                continue;
            }
            break;
        }
        // `)` / `]` / `::` chains (method-call receivers, indexing,
        // path statics) — only plain field chains resolve.
        if prev.text == "::" {
            // `Type :: STATIC . lock()` — take the static name alone.
            return parts
                .last()
                .filter(|p| is_screaming(p))
                .map(|p| (*p).to_string());
        }
        return None;
    }
    parts.reverse();
    match parts.split_first() {
        Some((&"self", rest)) if !rest.is_empty() => {
            let owner = f
                .impl_type
                .clone()
                .unwrap_or_else(|| format!("fn:{}", f.name));
            Some(format!("{owner}.{}", rest.join(".")))
        }
        Some((first, rest)) if is_screaming(first) && rest.is_empty() => Some((*first).to_string()),
        Some((first, rest)) => {
            // Local/param receiver: resolve through its declared type
            // when the function signature names one.
            let ty = params.get(*first)?;
            if rest.is_empty() {
                // `shared.lock()` where shared: &Mutex<..> — key the
                // param itself under its type.
                Some(format!("{ty}.{first}"))
            } else {
                Some(format!("{ty}.{}", rest.join(".")))
            }
        }
        None => None,
    }
}

fn is_screaming(s: &str) -> bool {
    s.len() > 1
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Parameter name → type name from a fn signature. Type name = the
/// *last* ident of the type tokens (innermost generic: `&Arc<Shared>`
/// → `Shared`).
fn param_types(toks: &[Token<'_>], f: &Func) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    // Signature tokens run from sig_start to body.start (or a bit
    // before; scanning the parens is enough).
    let mut i = f.sig_start;
    let end = if f.body.is_empty() {
        toks.len().min(f.sig_start + 256)
    } else {
        f.body.start
    };
    // Find the opening paren of the parameter list.
    while i < end && toks[i].text != "(" {
        i += 1;
    }
    if i >= end {
        return out;
    }
    let mut depth = 0i32;
    let mut current_name: Option<String> = None;
    let mut last_ty_ident: Option<String> = None;
    while i < end {
        let t = &toks[i];
        match t.text {
            "(" | "[" | "<" => depth += 1,
            // Nested generics close with a glued `>>` token.
            ">>" => depth -= 2,
            ")" | "]" | ">" => {
                depth -= 1;
                if depth == 0 {
                    if let (Some(n), Some(ty)) = (current_name.take(), last_ty_ident.take()) {
                        out.insert(n, ty);
                    }
                    break;
                }
            }
            "," if depth == 1 => {
                if let (Some(n), Some(ty)) = (current_name.take(), last_ty_ident.take()) {
                    out.insert(n, ty);
                }
            }
            ":" if depth == 1 => {
                // The ident just before a top-level `:` is the param
                // name (already captured in last_ty_ident).
                current_name = last_ty_ident.take();
            }
            _ => {
                if t.kind == TokenKind::Ident && !is_keyword(t.text) {
                    last_ty_ident = Some(t.text.to_string());
                }
            }
        }
        i += 1;
    }
    out
}

/// Find cycles (SCCs with >1 node, or self-edges) and render findings.
fn report_cycles(edges: &[Edge]) -> Vec<Finding> {
    let mut out = Vec::new();

    // Self-edges first: re-acquiring a lock already held.
    for e in edges {
        if e.from == e.to {
            out.push(Finding::new(
                LintId::LockOrder,
                &e.file,
                e.line,
                format!(
                    "lock `{}` acquired while already held ({}) — self-deadlock \
                     candidate (the shim mutexes are not reentrant)",
                    e.from, e.note
                ),
            ));
        }
    }

    // Tarjan SCC (iterative) over the lock graph.
    let mut nodes: Vec<&str> = edges
        .iter()
        .flat_map(|e| [e.from.as_str(), e.to.as_str()])
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for e in edges {
        if e.from != e.to {
            adj[index_of[e.from.as_str()]].push(index_of[e.to.as_str()]);
        }
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    let sccs = tarjan(&adj);
    for scc in sccs {
        if scc.len() < 2 {
            continue;
        }
        let members: Vec<&str> = scc.iter().map(|&i| nodes[i]).collect();
        // Representative sites: one edge per ordered pair inside the
        // SCC, listed so the report shows *where* each direction is
        // taken.
        let mut sites: Vec<String> = Vec::new();
        let mut anchor: Option<(&str, u32)> = None;
        for e in edges {
            if members.contains(&e.from.as_str()) && members.contains(&e.to.as_str()) {
                sites.push(format!(
                    "{} → {} at {}:{} ({})",
                    e.from, e.to, e.file, e.line, e.note
                ));
                if anchor.is_none() {
                    anchor = Some((e.file.as_str(), e.line));
                }
            }
        }
        let (file, line) = anchor.unwrap_or(("<workspace>", 0));
        out.push(Finding::new(
            LintId::LockOrder,
            file,
            line,
            format!(
                "lock-order cycle between {{{}}} — deadlock candidate; edges: {}",
                members.join(", "),
                sites.join("; ")
            ),
        ));
    }
    out
}

/// Iterative Tarjan strongly-connected components.
fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();

    // Explicit DFS stack: (node, child cursor).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *cursor < adj[v].len() {
                let w = adj[v][*cursor];
                *cursor += 1;
                if index[w] == usize::MAX {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
                dfs.pop();
                if let Some(&mut (parent, _)) = dfs.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    sccs
}
