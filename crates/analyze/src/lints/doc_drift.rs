//! `doc-drift` lint: hand-maintained docs must mechanically match the
//! code they describe. Three contracts are enforced:
//!
//! 1. **Opcodes** — every `const OP_<NAME>: u8 = 0x..;` in
//!    `crates/net/src/proto.rs` has a row in the opcode table of
//!    `docs/wire-protocol.md` with the same value and name, and every
//!    table row corresponds to a real constant.
//! 2. **PROBE_OK store counters** — every field of `StoreStats` is
//!    named in `docs/wire-protocol.md`, and the documented
//!    `N×uvarint` arity matches the struct's field count.
//! 3. **Failpoint sites** — every `orchestra_fault::check` site is
//!    listed (backtick-quoted, exact) in the site table of
//!    `docs/architecture.md`, and every site-shaped name in that doc
//!    exists in code.
//! 4. **Metric names** — every `obs::counter!/gauge!/histogram!` name
//!    registered in library code is cataloged (backtick-quoted) in
//!    `docs/observability.md`, and every metric-kind table row in that
//!    doc names a metric that exists in code. Rows with a `<…>`
//!    placeholder (dynamic names like `fault.fired.<site>`) are
//!    documentation-only and skipped in the reverse direction.
//!
//! Doc-side findings are anchored at the markdown line; code-side at
//! the constant/site. Drift findings are fixable by definition, so
//! they accept no `allow` in markdown — fix the doc or the code.

use crate::context::ParsedFile;
use crate::files::Workspace;
use crate::findings::{Finding, LintId};
use crate::lexer::TokenKind;
use crate::lints::failpoints::collect_sites;
use std::collections::BTreeMap;

const PROTO: &str = "crates/net/src/proto.rs";
const STORE_API: &str = "crates/store/src/api.rs";
const WIRE_DOC: &str = "docs/wire-protocol.md";
const ARCH_DOC: &str = "docs/architecture.md";
const OBS_DOC: &str = "docs/observability.md";

pub fn run(ws: &Workspace, files: &[ParsedFile<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(check_opcodes(ws, files));
    out.extend(check_counters(ws, files));
    out.extend(check_failpoint_table(ws, files));
    out.extend(check_metrics(ws, files));
    out
}

/// `const OP_<NAME>: u8 = 0x..;` constants from proto.rs.
fn opcode_consts(files: &[ParsedFile<'_>]) -> Vec<(String, u8, u32)> {
    let Some(pf) = files.iter().find(|p| p.entry.rel_path == PROTO) else {
        return Vec::new();
    };
    let toks = &pf.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && t.text.starts_with("OP_")
            && i >= 1
            && toks[i - 1].text == "const"
        {
            // const OP_X : u8 = <number> ;
            if let Some(num) = toks.get(i + 4).filter(|n| n.kind == TokenKind::Number) {
                if let Some(v) = parse_u8(num.text) {
                    out.push((t.text["OP_".len()..].to_string(), v, t.line));
                }
            }
        }
    }
    out
}

fn parse_u8(s: &str) -> Option<u8> {
    let s = s.replace('_', "");
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Opcode rows `| `0xNN` | … | NAME … |` from the wire doc.
fn opcode_rows(doc: &str) -> Vec<(String, u8, u32)> {
    let mut out = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // `| a | b | c |` splits into ["", a, b, c, ""].
        if cells.len() < 4 {
            continue;
        }
        // Only the opcode table has a direction column; the ERR code
        // table also leads with hex values and must not be conflated.
        if !cells[2].contains('→') {
            continue;
        }
        let value_cell = cells[1].trim_matches('`');
        let Some(hex) = value_cell.strip_prefix("0x") else {
            continue;
        };
        let Ok(value) = u8::from_str_radix(hex, 16) else {
            continue;
        };
        // Opcode name: first word of the third cell (strip the `(v2)`
        // marker and backticks).
        let name = cells[3]
            .split_whitespace()
            .next()
            .unwrap_or("")
            .trim_matches('`')
            .to_string();
        if !name.is_empty() {
            out.push((name, value, idx as u32 + 1));
        }
    }
    out
}

fn check_opcodes(ws: &Workspace, files: &[ParsedFile<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    let consts = opcode_consts(files);
    if consts.is_empty() {
        return out; // proto.rs absent or unparsable — nothing to sync.
    }
    let Some(doc) = ws.doc(WIRE_DOC) else {
        out.push(Finding::new(
            LintId::DocDrift,
            PROTO,
            consts[0].2,
            format!("`{WIRE_DOC}` is missing — the wire protocol must stay documented"),
        ));
        return out;
    };
    let rows = opcode_rows(&doc.src);
    let row_by_value: BTreeMap<u8, &(String, u8, u32)> = rows.iter().map(|r| (r.1, r)).collect();
    for (name, value, line) in &consts {
        match row_by_value.get(value) {
            None => out.push(Finding::new(
                LintId::DocDrift,
                PROTO,
                *line,
                format!(
                    "opcode `OP_{name}` (0x{value:02x}) has no row in the {WIRE_DOC} \
                     opcode table"
                ),
            )),
            Some((doc_name, _, doc_line)) if !doc_name.eq_ignore_ascii_case(name) => {
                out.push(Finding::new(
                    LintId::DocDrift,
                    WIRE_DOC,
                    *doc_line,
                    format!(
                        "opcode 0x{value:02x} is documented as `{doc_name}` but the code \
                         names it `OP_{name}`"
                    ),
                ))
            }
            _ => {}
        }
    }
    let const_values: BTreeMap<u8, &str> =
        consts.iter().map(|(n, v, _)| (*v, n.as_str())).collect();
    for (doc_name, value, doc_line) in &rows {
        if !const_values.contains_key(value) {
            out.push(Finding::new(
                LintId::DocDrift,
                WIRE_DOC,
                *doc_line,
                format!(
                    "documented opcode `{doc_name}` (0x{value:02x}) does not exist in \
                     {PROTO}"
                ),
            ));
        }
    }
    out
}

fn check_counters(ws: &Workspace, files: &[ParsedFile<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(doc) = ws.doc(WIRE_DOC) else {
        return out; // already reported by check_opcodes
    };
    // PROBE_OK's counter list: the server store's stats block.
    let Some(pf) = files.iter().find(|p| p.entry.rel_path == STORE_API) else {
        return out;
    };
    let fields = struct_fields(pf, "StoreStats");
    let Some(&(_, first_line)) = fields.first() else {
        return out;
    };
    for (field, line) in &fields {
        if !doc.src.contains(field.as_str()) {
            out.push(Finding::new(
                LintId::DocDrift,
                STORE_API,
                *line,
                format!(
                    "PROBE_OK counter `{field}` (StoreStats) is not mentioned in \
                     {WIRE_DOC} — the counter list drifted"
                ),
            ));
        }
    }
    let arity = format!("{}×uvarint", fields.len());
    if !doc.src.contains(&arity) {
        out.push(Finding::new(
            LintId::DocDrift,
            STORE_API,
            first_line,
            format!(
                "StoreStats has {} fields but {WIRE_DOC} never states the arity \
                 `{arity}` — the PROBE_OK body description drifted",
                fields.len()
            ),
        ));
    }
    out
}

/// Field names (with lines) of `struct <name> { … }` in a parsed file.
fn struct_fields(pf: &ParsedFile<'_>, name: &str) -> Vec<(String, u32)> {
    let toks = &pf.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != name || i == 0 || toks[i - 1].text != "struct" {
            continue;
        }
        // Find `{`, then collect `ident :` pairs at depth 1.
        let mut j = i + 1;
        while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
            j += 1;
        }
        if j >= toks.len() || toks[j].text != "{" {
            return out;
        }
        let Some(close) = pf.structure.close_of(j) else {
            return out;
        };
        let mut depth = 0i32;
        for k in j..close {
            match toks[k].text {
                "{" | "(" | "[" | "<" => depth += 1,
                "}" | ")" | "]" | ">" => depth -= 1,
                ":" if depth == 1 && toks[k - 1].kind == TokenKind::Ident => {
                    // Skip `::` path separators (lexed as one token, so
                    // a bare `:` here is a field/type separator).
                    out.push((toks[k - 1].text.to_string(), toks[k - 1].line));
                }
                _ => {}
            }
        }
        return out;
    }
    out
}

fn check_failpoint_table(ws: &Workspace, files: &[ParsedFile<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    let sites = collect_sites(files);
    if sites.is_empty() {
        return out;
    }
    let Some(doc) = ws.doc(ARCH_DOC) else {
        out.push(Finding::new(
            LintId::DocDrift,
            &sites[0].file,
            sites[0].line,
            format!("`{ARCH_DOC}` is missing — failpoint sites must stay documented"),
        ));
        return out;
    };
    // Forward: each code site must appear backtick-quoted, exact.
    for s in &sites {
        let quoted = format!("`{}`", s.name);
        if !doc.src.contains(&quoted) {
            out.push(Finding::new(
                LintId::DocDrift,
                &s.file,
                s.line,
                format!(
                    "failpoint site `{}` is not listed in the {ARCH_DOC} site table \
                     (expected the exact backtick-quoted name)",
                    s.name
                ),
            ));
        }
    }
    // Reverse: site-shaped backtick-quoted names in the doc must exist.
    let known: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
    for (idx, line) in doc.src.lines().enumerate() {
        for cand in backtick_spans(line) {
            let site_shaped = cand.contains('.')
                && !cand.contains('/')
                && !cand.contains('=')
                && ["store.", "net.", "mesh."]
                    .iter()
                    .any(|p| cand.starts_with(p))
                && cand
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_');
            if site_shaped && !known.contains(&cand) {
                out.push(Finding::new(
                    LintId::DocDrift,
                    ARCH_DOC,
                    idx as u32 + 1,
                    format!(
                        "documented failpoint site `{cand}` does not exist in the code — \
                         remove the row or fix the name"
                    ),
                ));
            }
        }
    }
    out
}

/// A metric name registered in library code: `counter!("…")`,
/// `gauge!("…")`, `histogram!("…")`, `time_histogram!("…")`, or the
/// function-form registration `orchestra_obs::counter("…")` etc.
/// Test code and `test.`-prefixed names are harness-local and exempt.
fn collect_metric_names(files: &[ParsedFile<'_>]) -> Vec<(String, String, u32)> {
    const KINDS: [&str; 4] = ["counter", "gauge", "histogram", "time_histogram"];
    let mut out = Vec::new();
    for pf in files {
        let toks = &pf.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || !KINDS.contains(&t.text) || pf.is_test_code(i) {
                continue;
            }
            // Macro form: `counter ! ( "name"` — possibly after an
            // `orchestra_obs ::` path. Function form: the registration
            // helpers, which require the `orchestra_obs ::` (or
            // `obs ::`) path so unrelated functions never match.
            let lit = if toks.get(i + 1).map(|n| n.text) == Some("!")
                && toks.get(i + 2).map(|n| n.text) == Some("(")
            {
                toks.get(i + 3)
            } else if toks.get(i + 1).map(|n| n.text) == Some("(")
                && i >= 2
                && toks[i - 1].text == "::"
                && matches!(toks[i - 2].text, "orchestra_obs" | "obs")
            {
                toks.get(i + 2)
            } else {
                None
            };
            let Some(lit) = lit.filter(|n| n.kind == TokenKind::Str) else {
                continue;
            };
            let name = lit.text.trim_matches('"').to_string();
            if name.starts_with("test.") {
                continue;
            }
            out.push((name, pf.entry.rel_path.clone(), t.line));
        }
    }
    out
}

fn check_metrics(ws: &Workspace, files: &[ParsedFile<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    let names = collect_metric_names(files);
    if names.is_empty() {
        return out; // No instrumented code — nothing to catalog.
    }
    let Some(doc) = ws.doc(OBS_DOC) else {
        out.push(Finding::new(
            LintId::DocDrift,
            &names[0].1,
            names[0].2,
            format!("`{OBS_DOC}` is missing — registered metrics must stay cataloged"),
        ));
        return out;
    };
    // Forward: every registered name appears backtick-quoted, exact.
    for (name, file, line) in &names {
        let quoted = format!("`{name}`");
        if !doc.src.contains(&quoted) {
            out.push(Finding::new(
                LintId::DocDrift,
                file,
                *line,
                format!(
                    "metric `{name}` is not cataloged in {OBS_DOC} — add it to the \
                     metric table (backtick-quoted, exact)"
                ),
            ));
        }
    }
    // Reverse: every metric-kind row of the catalog table names a
    // metric that exists in code. Only rows whose second cell is a
    // metric kind are considered, so span names and prose stay exempt;
    // `<…>` placeholder rows document dynamic names and are skipped.
    let known: Vec<&str> = names.iter().map(|(n, _, _)| n.as_str()).collect();
    for (idx, line) in doc.src.lines().enumerate() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 4 || !matches!(cells[2], "counter" | "gauge" | "histogram") {
            continue;
        }
        let name = cells[1].trim_matches('`');
        if name.is_empty() || name.contains('<') {
            continue;
        }
        if !known.contains(&name) {
            out.push(Finding::new(
                LintId::DocDrift,
                OBS_DOC,
                idx as u32 + 1,
                format!(
                    "cataloged metric `{name}` is not registered anywhere in library \
                     code — remove the row or fix the name"
                ),
            ));
        }
    }
    out
}

/// Backtick-quoted spans in a markdown line.
fn backtick_spans(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        out.push(&after[..close]);
        rest = &after[close + 1..];
    }
    out
}
