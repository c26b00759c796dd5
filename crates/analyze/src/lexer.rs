//! A hand-rolled, dependency-free Rust lexer.
//!
//! The build environment cannot reach crates.io, so `syn` is off the
//! table; every lint in this crate works off the token stream this
//! module produces. It is *not* a full Rust lexer — it is exactly
//! faithful for the things the lints care about:
//!
//! * comments (line, block incl. nesting, doc) are lexed and kept in a
//!   **side table** so annotation scanning (`// analyze: allow(..)`,
//!   `// SAFETY:`) sees them while structural scanning does not;
//! * string/char/byte/raw-string literals are consumed atomically, so a
//!   `".lock()"` inside a string can never fool a lint;
//! * identifiers, lifetimes, numbers, and multi-char punctuation are
//!   single tokens with line numbers.
//!
//! Anything fancier (macro expansion, type inference) is deliberately
//! out of scope; lints compensate with conservative heuristics plus the
//! annotation escape hatch.

/// One lexed token. `text` borrows from the source for identifiers and
/// literals; punctuation carries its exact spelling too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    pub kind: TokenKind,
    /// Exact source text of the token. For string literals this is the
    /// raw source slice including quotes.
    pub text: &'a str,
    /// 1-based line of the token's first character.
    pub line: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (the lexer does not distinguish; lints
    /// match on text).
    Ident,
    /// `'a` lifetime (or loop label).
    Lifetime,
    /// Integer or float literal.
    Number,
    /// `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `c"…"` string literal.
    Str,
    /// `'c'` or `b'c'` char literal.
    Char,
    /// Any punctuation: single char (`{`) or glued (`::`, `->`, `..=`).
    Punct,
}

/// A comment captured to the side table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment<'a> {
    /// Full text including the `//` / `/*` introducer.
    pub text: &'a str,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// True when nothing but whitespace precedes the comment on its
    /// line (an "own-line" comment — the kind annotations live in).
    pub own_line: bool,
}

/// Lexer output: the code token stream plus the comment side table,
/// both in source order.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    pub tokens: Vec<Token<'a>>,
    pub comments: Vec<Comment<'a>>,
}

/// Multi-char punctuation, longest first so maximal munch works.
const GLUED: &[&str] = &[
    "<<=", ">>=", "...", "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Lex `src` into tokens + comments. Unterminated constructs (string,
/// block comment) are tolerated by consuming to end-of-input — the
/// lints prefer degraded output over refusing a file.
pub fn lex(src: &str) -> Lexed<'_> {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Byte offset of the first non-whitespace on the current line, used
    // to mark own-line comments; reset at every newline.
    let mut line_has_code = false;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: &src[start..i],
                    line,
                    own_line: !line_has_code,
                });
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let own = !line_has_code;
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    text: &src[start..i],
                    line: start_line,
                    own_line: own,
                });
            }
            b'"' => {
                line_has_code = true;
                let (end, nl) = scan_string(bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: &src[i..end],
                    line,
                });
                line += nl;
                i = end;
            }
            b'r' | b'b' | b'c' if is_string_prefix(bytes, i) => {
                line_has_code = true;
                let start = i;
                // Skip the prefix letters (`r`, `b`, `br`, `cr`, …).
                while i < bytes.len() && (bytes[i] as char).is_ascii_alphabetic() {
                    i += 1;
                }
                let (end, nl) = if bytes[i] == b'#' || bytes[i] == b'"' {
                    if src[start..i].contains('r') {
                        scan_raw_string(bytes, i)
                    } else {
                        scan_string(bytes, i)
                    }
                } else {
                    // b'x' byte char
                    (scan_char(bytes, i), 0)
                };
                let kind = if bytes[i] == b'\'' {
                    TokenKind::Char
                } else {
                    TokenKind::Str
                };
                out.tokens.push(Token {
                    kind,
                    text: &src[start..end],
                    line,
                });
                line += nl;
                i = end;
            }
            b'\'' => {
                line_has_code = true;
                // Either a lifetime (`'a`) or a char literal (`'x'`).
                if is_lifetime(bytes, i) {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && is_ident_continue(bytes[i]) {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: &src[start..i],
                        line,
                    });
                } else {
                    let end = scan_char(bytes, i);
                    out.tokens.push(Token {
                        kind: TokenKind::Char,
                        text: &src[i..end],
                        line,
                    });
                    i = end;
                }
            }
            _ if is_ident_start(b) => {
                line_has_code = true;
                let start = i;
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: &src[start..i],
                    line,
                });
            }
            _ if b.is_ascii_digit() => {
                line_has_code = true;
                let start = i;
                i += 1;
                // Consume the number body: digits, `_`, hex/bin letters,
                // type suffixes, a decimal point followed by a digit,
                // exponents. `1..2` must not eat the range dots.
                while i < bytes.len() {
                    let c = bytes[i];
                    let continues = c.is_ascii_alphanumeric()
                        || c == b'_'
                        || (c == b'.'
                            && i + 1 < bytes.len()
                            && bytes[i + 1].is_ascii_digit()
                            && !src[start..i].contains('.'));
                    if continues {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    text: &src[start..i],
                    line,
                });
            }
            _ => {
                line_has_code = true;
                let rest = &src[i..];
                let glued = GLUED.iter().find(|g| rest.starts_with(**g));
                let len = glued.map(|g| g.len()).unwrap_or_else(|| {
                    // Fall back to one UTF-8 character.
                    rest.chars().next().map(char::len_utf8).unwrap_or(1)
                });
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: &src[i..i + len],
                    line,
                });
                i += len;
            }
        }
    }
    out
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic() || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80
}

/// Does the `r`/`b`/`c` at `i` introduce a string/char prefix
/// (`r"`, `r#"`, `b"`, `b'`, `br"`, `cr#"` …) rather than an ident?
fn is_string_prefix(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    while j < bytes.len() && (bytes[j] as char).is_ascii_alphabetic() && j - i <= 2 {
        j += 1;
    }
    if j - i > 2 || j >= bytes.len() {
        return false;
    }
    let prefix = &bytes[i..j];
    let ok_prefix = matches!(prefix, b"r" | b"b" | b"c" | b"br" | b"cr");
    if !ok_prefix {
        return false;
    }
    match bytes[j] {
        b'"' => true,
        b'\'' => prefix == b"b",
        b'#' if prefix.contains(&b'r') => {
            // `r#"…"#` raw string — but `r#ident` is a raw identifier;
            // only a quote after the hashes makes it a string.
            let mut k = j;
            while k < bytes.len() && bytes[k] == b'#' {
                k += 1;
            }
            k < bytes.len() && bytes[k] == b'"'
        }
        _ => false,
    }
}

/// Is the `'` at `i` a lifetime/label rather than a char literal?
/// Lifetime: `'ident` not followed by a closing `'`.
fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    if i + 1 >= bytes.len() || !is_ident_start(bytes[i + 1]) {
        return false;
    }
    // 'static, 'a — scan the ident; if it ends with `'` it was a char
    // like 'x'.
    let mut j = i + 1;
    while j < bytes.len() && is_ident_continue(bytes[j]) {
        j += 1;
    }
    !(j < bytes.len() && bytes[j] == b'\'' && j == i + 2)
}

/// Scan a `"…"` string starting at the opening quote (or at `i` where
/// `bytes[i] == b'"'`). Returns (end offset past closing quote, newline
/// count inside).
fn scan_string(bytes: &[u8], i: usize) -> (usize, u32) {
    let mut j = i + 1;
    let mut nl = 0u32;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => {
                // An escaped newline (line-continuation) still advances
                // the line counter — later tokens must keep true lines.
                if bytes.get(j + 1) == Some(&b'\n') {
                    nl += 1;
                }
                j += 2;
            }
            b'\n' => {
                nl += 1;
                j += 1;
            }
            b'"' => return (j + 1, nl),
            _ => j += 1,
        }
    }
    (j, nl)
}

/// Scan a raw string starting at `#`s or the quote: `r#"…"#`. `i`
/// points at the first `#` or `"` after the prefix letters.
fn scan_raw_string(bytes: &[u8], i: usize) -> (usize, u32) {
    let mut hashes = 0usize;
    let mut j = i;
    while j < bytes.len() && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j < bytes.len() && bytes[j] == b'"' {
        j += 1;
    }
    let mut nl = 0u32;
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            nl += 1;
            j += 1;
        } else if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut h = 0usize;
            while k < bytes.len() && bytes[k] == b'#' && h < hashes {
                h += 1;
                k += 1;
            }
            if h == hashes {
                return (k, nl);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (j, nl)
}

/// Scan a char literal `'x'` / `'\n'` / `b'x'` starting at the quote.
fn scan_char(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            b'\n' => return j, // malformed; stop at line end
            _ => j += 1,
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .iter()
            .map(|t| (t.kind, t.text.to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("fn foo(x: &mut u32) -> bool {}");
        assert_eq!(toks[0], (TokenKind::Ident, "fn".into()));
        assert_eq!(toks[1], (TokenKind::Ident, "foo".into()));
        assert!(toks.iter().any(|t| t.1 == "->"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let s = "a.lock() // not a comment"; x.lock();"#);
        assert_eq!(l.comments.len(), 0);
        let locks: Vec<_> = l.tokens.iter().filter(|t| t.text == "lock").collect();
        assert_eq!(locks.len(), 1, "lock inside a string must not tokenize");
    }

    #[test]
    fn raw_strings_and_hashes() {
        let l = lex(r##"let s = r#"quote " inside"#; y"##);
        assert!(l.tokens.iter().any(|t| t.text == "y"));
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            1
        );
    }

    #[test]
    fn comments_side_table_with_lines() {
        let src = "let a = 1;\n// analyze: allow(determinism) -- test\nlet b = 2; // trailing\n/* block\nspans */ let c = 3;\n";
        let l = lex(src);
        assert_eq!(l.comments.len(), 3);
        assert_eq!(l.comments[0].line, 2);
        assert!(l.comments[0].own_line);
        assert_eq!(l.comments[1].line, 3);
        assert!(!l.comments[1].own_line);
        assert_eq!(l.comments[2].line, 4);
        let c_tok = l.tokens.iter().find(|t| t.text == "c").unwrap();
        assert_eq!(c_tok.line, 5);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            2
        );
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still */ code");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.tokens.len(), 1);
        assert_eq!(l.tokens[0].text, "code");
    }

    #[test]
    fn escaped_newline_in_string_keeps_line_count() {
        let src = "let s = \"first \\\n    second\";\nlet after = 1;\n";
        let l = lex(src);
        let after = l.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let l = lex("for i in 0..10 {}");
        assert!(l.tokens.iter().any(|t| t.text == ".."));
        assert!(l.tokens.iter().any(|t| t.text == "0"));
        assert!(l.tokens.iter().any(|t| t.text == "10"));
    }

    #[test]
    fn byte_strings_and_chars() {
        let l = lex("let a = b\"bytes\"; let c = b'x'; let r = br\"raw\";");
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            2
        );
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            1
        );
    }
}
