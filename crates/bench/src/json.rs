//! Dependency-free JSON for the experiment harness: a writer for the
//! `BENCH_*.json` result files and a minimal parser so CI can validate
//! their shape without pulling in serde.
//!
//! The emitted schema (stable; CI's smoke test checks it):
//!
//! ```text
//! {
//!   "experiment": "e4" | "e8" | "e12" | "e13",
//!   "variant":    free-form tag ("interned", "paged", ...),
//!   "smoke":      bool,
//!   "peak_rss_kb": u64          // VmHWM proxy, 0 where unsupported
//!   "rows":    [ { per-experiment columns, each numeric or string } ],
//!   "summary": { "tuples_per_sec": f64, "rounds": u64, "firings": u64 }
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object keys keep insertion order irrelevant: they are
/// sorted, which makes emitted files diff-stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always emitted as a finite f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object member by key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Build an object from pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parse a JSON document (strict enough for our own emissions).
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\t' => write!(f, "\\t")?,
                        '\r' => write!(f, "\\r")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            Json::Arr(v) => {
                write!(f, "[")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            Json::Obj(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                write!(f, "}}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, s: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected ',' or ']' at {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{s}' at {start}"))
    }
}

/// Peak resident-set size proxy in kB: `VmHWM` from `/proc/self/status`,
/// falling back to current `VmRSS` in sandboxes that omit the high-water
/// mark, and to 0 where the proc filesystem is unavailable.
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            let field = |key: &str| {
                status.lines().find_map(|line| {
                    line.strip_prefix(key)?
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<u64>()
                        .ok()
                })
            };
            if let Some(kb) = field("VmHWM:").or_else(|| field("VmRSS:")) {
                return kb;
            }
        }
    }
    0
}

/// One experiment's machine-readable result file.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Experiment name ("e4", "e8", …).
    pub experiment: String,
    /// Build/config tag distinguishing runs ("interned", "paged", …).
    pub variant: String,
    /// True when produced by a reduced smoke workload.
    pub smoke: bool,
    /// Per-configuration measurement rows.
    pub rows: Vec<BTreeMap<String, Json>>,
    /// Aggregate throughput and engine counters.
    pub tuples_per_sec: f64,
    /// Aggregate semi-naive rounds across the run.
    pub rounds: u64,
    /// Aggregate rule firings across the run.
    pub firings: u64,
    /// Extra summary counters (engine stats, etc.).
    pub extra: BTreeMap<String, Json>,
}

impl BenchReport {
    /// Start an empty report.
    pub fn new(experiment: &str, variant: &str, smoke: bool) -> Self {
        BenchReport {
            experiment: experiment.to_string(),
            variant: variant.to_string(),
            smoke,
            rows: Vec::new(),
            tuples_per_sec: 0.0,
            rounds: 0,
            firings: 0,
            extra: BTreeMap::new(),
        }
    }

    /// Append a row of `(column, value)` pairs.
    pub fn row(&mut self, cols: impl IntoIterator<Item = (&'static str, Json)>) {
        self.rows
            .push(cols.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    }

    /// Add a summary counter beyond the required three.
    pub fn summary_extra(&mut self, key: &str, value: impl Into<Json>) {
        self.extra.insert(key.to_string(), value.into());
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut summary: BTreeMap<String, Json> = self.extra.clone();
        summary.insert("tuples_per_sec".into(), Json::Num(self.tuples_per_sec));
        summary.insert("rounds".into(), Json::from(self.rounds));
        summary.insert("firings".into(), Json::from(self.firings));
        Json::obj([
            ("experiment", Json::from(self.experiment.as_str())),
            ("variant", Json::from(self.variant.as_str())),
            ("smoke", Json::from(self.smoke)),
            ("peak_rss_kb", Json::from(peak_rss_kb())),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| Json::Obj(r.clone())).collect()),
            ),
            ("summary", Json::Obj(summary)),
        ])
    }

    /// Write the report into `dir` as `BENCH_<experiment>.json`.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, format!("{}\n", self.to_json()))?;
        Ok(path)
    }
}

/// The `obs` summary block for experiments that report their
/// instrumentation (E12): the registry's entry counts and per-subsystem
/// event totals.
pub fn obs_block() -> Json {
    let snap = orchestra_obs::snapshot();
    let sum = |prefix: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, value)| *value)
            .sum()
    };
    Json::obj([
        ("counters", Json::from(snap.counters.len())),
        ("gauges", Json::from(snap.gauges.len())),
        ("histograms", Json::from(snap.histograms.len())),
        ("spans", Json::from(snap.spans.len())),
        ("store_events", Json::from(sum("store."))),
        ("net_events", Json::from(sum("net."))),
        ("server_events", Json::from(sum("server."))),
        ("engine_events", Json::from(sum("engine."))),
    ])
}

/// Validate the `BENCH_*.json` shape. Returns the list of problems (empty
/// when the document conforms). CI's smoke step runs a small workload and
/// feeds the emitted files through this.
pub fn validate_report_shape(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let mut need_str = |key: &str| {
        if doc.get(key).and_then(Json::as_str).is_none() {
            errs.push(format!("missing string field `{key}`"));
        }
    };
    need_str("experiment");
    need_str("variant");
    if doc.get("peak_rss_kb").and_then(Json::as_f64).is_none() {
        errs.push("missing numeric field `peak_rss_kb`".into());
    }
    match doc.get("rows").and_then(Json::as_arr) {
        None => errs.push("missing array field `rows`".into()),
        Some(rows) => {
            if rows.is_empty() {
                errs.push("`rows` must be non-empty".into());
            }
            for (i, r) in rows.iter().enumerate() {
                if !matches!(r, Json::Obj(_)) {
                    errs.push(format!("rows[{i}] is not an object"));
                } else if r.get("tuples_per_sec").and_then(Json::as_f64).is_none() {
                    errs.push(format!("rows[{i}] missing numeric `tuples_per_sec`"));
                }
            }
        }
    }
    match doc.get("summary") {
        Some(s @ Json::Obj(_)) => {
            for key in ["tuples_per_sec", "rounds", "firings"] {
                if s.get(key).and_then(Json::as_f64).is_none() {
                    errs.push(format!("summary missing numeric `{key}`"));
                }
            }
        }
        _ => errs.push("missing object field `summary`".into()),
    }
    // The `obs` block is optional (only E12 emits it), but when
    // present it must carry the registry's entry counts.
    if let Some(obs) = doc.get("summary").and_then(|s| s.get("obs")) {
        for key in ["counters", "gauges", "histograms", "spans"] {
            if obs.get(key).and_then(Json::as_f64).is_none() {
                errs.push(format!("summary.obs missing numeric `{key}`"));
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_report() {
        let mut r = BenchReport::new("e4", "baseline", true);
        r.row([
            ("topology", Json::from("chain")),
            ("tuples_per_sec", Json::Num(123.5)),
        ]);
        r.tuples_per_sec = 123.5;
        r.rounds = 7;
        r.firings = 42;
        let text = r.to_json().to_string();
        let parsed = Json::parse(&text).unwrap();
        assert!(validate_report_shape(&parsed).is_empty(), "{text}");
        assert_eq!(
            parsed.get("summary").unwrap().get("firings").unwrap(),
            &Json::Num(42.0)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{}x").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = Json::parse(r#"{"a":"x\ny","b":[1,-2.5,1e3],"c":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c"), Some(&Json::Null));
    }

    #[test]
    fn shape_validator_flags_problems() {
        let bad = Json::parse(r#"{"experiment":"e4","rows":[]}"#).unwrap();
        let errs = validate_report_shape(&bad);
        assert!(errs.iter().any(|e| e.contains("variant")));
        assert!(errs.iter().any(|e| e.contains("non-empty")));
        assert!(errs.iter().any(|e| e.contains("summary")));
    }
}
