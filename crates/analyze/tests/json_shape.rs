//! Shape test for `--json` output: the rendered report must be valid
//! JSON (checked by a minimal recursive-descent parser — no external
//! crates) with the documented fields, and the counts must be
//! internally consistent.

use orchestra_analyze::files::{classify, FileEntry, Workspace};
use orchestra_analyze::{analyze_workspace, Options};
use std::collections::BTreeMap;
use std::path::PathBuf;

// ---- minimal JSON value + parser ---------------------------------------

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.ws();
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.ws();
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through intact.
                    let s = std::str::from_utf8(&self.b[self.i..]).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                other => return Err(format!("expected , or ] got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut out = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            out.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                other => return Err(format!("expected , or }} got {other:?}")),
            }
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.ws();
        if self.i != self.b.len() {
            return Err(format!("trailing garbage at byte {}", self.i));
        }
        Ok(v)
    }
}

// ---- the shape test -----------------------------------------------------

#[test]
fn json_report_parses_with_documented_shape() {
    // A workspace with both unannotated and allowed findings, plus a
    // message containing quotes/backslashes to exercise escaping.
    let src = r#"
pub fn merge_sizes(buckets: &HashMap<u64, Vec<u64>>) -> Vec<usize> {
    let mut out: Vec<usize> = buckets.values().map(Vec::len).collect();
    out.extend(buckets.keys().map(|_| 0)); // analyze: allow(determinism) -- "quoted \ reason"
    out
}
"#;
    let (kind, crate_name) = classify("crates/datalog/src/engine.rs");
    let ws = Workspace {
        root: PathBuf::from("<fixture>"),
        files: vec![FileEntry {
            rel_path: "crates/datalog/src/engine.rs".to_string(),
            kind,
            crate_name,
            src: src.to_string(),
        }],
        docs: vec![],
    };
    let report = analyze_workspace(&ws, &Options::default());
    assert!(report.total() >= 2, "{}", report.render_text());
    assert!(report.allowed() >= 1, "{}", report.render_text());

    let json = report.render_json();
    let v = Parser::new(&json)
        .parse()
        .unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{json}"));

    assert_eq!(v.get("version").and_then(Json::as_num), Some(1.0));
    assert_eq!(
        v.get("tool").and_then(Json::as_str),
        Some("orchestra-analyze")
    );
    assert_eq!(v.get("files_scanned").and_then(Json::as_num), Some(1.0));

    let findings = v
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings[]");
    assert_eq!(findings.len(), report.total());
    for f in findings {
        assert!(f.get("lint").and_then(Json::as_str).is_some());
        assert!(f.get("file").and_then(Json::as_str).is_some());
        assert!(f.get("line").and_then(Json::as_num).is_some());
        assert!(f.get("message").and_then(Json::as_str).is_some());
        match f.get("allowed") {
            Some(Json::Bool(true)) => {
                assert!(f.get("reason").and_then(Json::as_str).is_some())
            }
            Some(Json::Bool(false)) => assert!(f.get("reason").is_none()),
            other => panic!("allowed must be a bool, got {other:?}"),
        }
    }
    // The escaped reason round-trips exactly.
    assert!(findings
        .iter()
        .filter_map(|f| f.get("reason").and_then(Json::as_str))
        .any(|r| r == "\"quoted \\ reason\""));

    let summary = v.get("summary").expect("summary");
    let total = summary.get("total").and_then(Json::as_num).expect("total") as usize;
    let allowed = summary
        .get("allowed")
        .and_then(Json::as_num)
        .expect("allowed") as usize;
    let unannotated = summary
        .get("unannotated")
        .and_then(Json::as_num)
        .expect("unannotated") as usize;
    assert_eq!(total, report.total());
    assert_eq!(allowed, report.allowed());
    assert_eq!(unannotated, total - allowed);

    let by_lint = summary.get("by_lint").expect("by_lint");
    let determinism_bucket = by_lint.get("determinism").expect("determinism bucket");
    assert_eq!(
        determinism_bucket
            .get("total")
            .and_then(Json::as_num)
            .map(|n| n as usize),
        Some(report.total())
    );
}
