//! A minimal Rust lexer for the static analysis suite.
//!
//! Produces two views of a source file in one pass:
//!
//! * a token stream (identifiers, punctuation, literals, lifetimes) with
//!   line numbers, for the syntax-aware rule (event parity), and
//! * *sanitized lines*: the original lines with comment text and
//!   string/char-literal *contents* blanked to spaces (delimiters kept),
//!   so the line-oriented legacy rules stop false-positiving on rule
//!   patterns that appear inside strings or comments.
//!
//! The lexer understands line comments, nested block comments, string
//! and byte-string literals with escapes, raw strings (`r#"…"#`, any
//! number of `#`s), char literals, lifetimes, and numeric literals. It
//! does not expand macros or resolve paths.

/// Token classification — only as fine as the rules need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `self`, field names, …).
    Ident,
    /// Single punctuation character (`.`, `:`, `{`, …). Multi-character
    /// operators arrive as consecutive tokens.
    Punct,
    /// String/char/numeric literal. String and char contents are
    /// dropped; numeric text is kept (tuple indices like `gate.0`).
    Lit,
    /// A lifetime (`'a`) — distinct from char literals.
    Lifetime,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    /// Token text. Empty for string/char literals.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

impl Tok {
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }
}

/// Lexer output: the token stream plus the sanitized line view.
pub struct Lexed {
    pub tokens: Vec<Tok>,
    /// Source lines with comments and literal contents blanked.
    pub code_lines: Vec<String>,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}
fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Lexes `src`, producing tokens and sanitized lines. Invalid UTF-8 is
/// not expected (callers read with `read_to_string`); non-ASCII bytes
/// inside identifiers or literals are passed through untouched.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out: Vec<u8> = b.to_vec(); // sanitized copy, blanked in place
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;

    // Blanks out[lo..hi], preserving newlines so line structure holds.
    let blank = |out: &mut Vec<u8>, lo: usize, hi: usize| {
        for x in &mut out[lo..hi] {
            if *x != b'\n' {
                *x = b' ';
            }
        }
    };

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                blank(&mut out, start, i);
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            b'"' => {
                let (end, nl) = scan_string(b, i, 0);
                blank(&mut out, i + 1, end.saturating_sub(1).max(i + 1));
                tokens.push(Tok {
                    kind: TokKind::Lit,
                    text: String::new(),
                    line,
                });
                line += nl;
                i = end;
            }
            b'r' | b'b' if raw_or_byte_string(b, i).is_some() => {
                let (body_start, hashes) = raw_or_byte_string(b, i).unwrap();
                if hashes == usize::MAX {
                    // b"…" — ordinary escaped string with a prefix.
                    let (end, nl) = scan_string(b, body_start, 0);
                    blank(&mut out, body_start + 1, end.saturating_sub(1));
                    tokens.push(Tok {
                        kind: TokKind::Lit,
                        text: String::new(),
                        line,
                    });
                    line += nl;
                    i = end;
                } else {
                    // r##"…"## — find the matching close quote + hashes.
                    let (end, nl) = scan_raw(b, body_start, hashes);
                    blank(&mut out, body_start + 1, end.saturating_sub(1 + hashes));
                    tokens.push(Tok {
                        kind: TokKind::Lit,
                        text: String::new(),
                        line,
                    });
                    line += nl;
                    i = end;
                }
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let mut j = i + 1;
                if j < b.len() && is_ident_start(b[j]) && b[j] != b'\\' {
                    let mut k = j + 1;
                    while k < b.len() && is_ident_cont(b[k]) {
                        k += 1;
                    }
                    if k < b.len() && b[k] == b'\'' && k == j + 1 {
                        // 'x' — a one-char literal, not a lifetime.
                        blank(&mut out, i + 1, k);
                        tokens.push(Tok {
                            kind: TokKind::Lit,
                            text: String::new(),
                            line,
                        });
                        i = k + 1;
                    } else {
                        // 'abc — lifetime (or loop label).
                        tokens.push(Tok {
                            kind: TokKind::Lifetime,
                            text: String::from_utf8_lossy(&b[i..k]).into_owned(),
                            line,
                        });
                        i = k;
                    }
                } else {
                    // '\n' / '\'' / '\u{…}' — escaped char literal.
                    j = i + 1;
                    while j < b.len() {
                        if b[j] == b'\\' {
                            j += 2;
                        } else if b[j] == b'\'' {
                            j += 1;
                            break;
                        } else {
                            j += 1;
                        }
                    }
                    blank(&mut out, i + 1, j.saturating_sub(1).max(i + 1));
                    tokens.push(Tok {
                        kind: TokKind::Lit,
                        text: String::new(),
                        line,
                    });
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < b.len() && (is_ident_cont(b[i])) {
                    i += 1;
                }
                // Float part: `1.5`, `1.5e-3` — but not `1.max(2)` or `0..n`.
                if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < b.len() && is_ident_cont(b[i]) {
                        i += 1;
                    }
                    if i + 1 < b.len()
                        && (b[i] == b'-' || b[i] == b'+')
                        && i > start
                        && (b[i - 1] == b'e' || b[i - 1] == b'E')
                    {
                        i += 1;
                        while i < b.len() && b[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                tokens.push(Tok {
                    kind: TokKind::Lit,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line,
                });
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
                tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line,
                });
            }
            _ => {
                tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }

    let code_lines = String::from_utf8_lossy(&out)
        .lines()
        .map(|l| l.to_string())
        .collect();
    Lexed { tokens, code_lines }
}

/// Scans an ordinary (escaped) string literal starting at the opening
/// quote `b[start]`. Returns (index past the closing quote, newlines
/// crossed).
fn scan_string(b: &[u8], start: usize, _hashes: usize) -> (usize, usize) {
    let mut i = start + 1;
    let mut nl = 0usize;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return (i + 1, nl),
            b'\n' => {
                nl += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (i, nl)
}

/// Scans a raw string whose body starts at the opening quote
/// `b[start]`, closed by `"` followed by `hashes` `#`s.
fn scan_raw(b: &[u8], start: usize, hashes: usize) -> (usize, usize) {
    let mut i = start + 1;
    let mut nl = 0usize;
    while i < b.len() {
        if b[i] == b'\n' {
            nl += 1;
            i += 1;
        } else if b[i] == b'"'
            && b[i + 1..].len() >= hashes
            && b[i + 1..i + 1 + hashes].iter().all(|&c| c == b'#')
        {
            return (i + 1 + hashes, nl);
        } else {
            i += 1;
        }
    }
    (i, nl)
}

/// Detects `r"`, `r#"`, `b"`, `br#"` … prefixes at `b[i]`. Returns the
/// index of the opening quote and the hash count (`usize::MAX` marks a
/// plain `b"…"` escaped string). `None` when `b[i]` starts an ordinary
/// identifier like `r` or `broker`.
fn raw_or_byte_string(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    let mut raw = false;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        raw = true;
        j += 1;
    }
    if j == i {
        return None;
    }
    if raw {
        let mut hashes = 0usize;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < b.len() && b[j] == b'"' {
            return Some((j, hashes));
        }
        None
    } else if j < b.len() && b[j] == b'"' {
        Some((j, usize::MAX))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let a = \"Instant::now()\"; // Instant::now()\nlet b = 1;";
        let lx = lex(src);
        assert!(!lx.code_lines[0].contains("Instant"));
        assert!(lx.code_lines[0].contains("let a ="));
        assert!(lx.code_lines[1].contains("let b = 1;"));
    }

    #[test]
    fn raw_strings_and_chars() {
        let src = "let s = r#\"x.lock()\"#; let c = '\\n'; let lt: &'a str = \"\";";
        let lx = lex(src);
        assert!(!lx.code_lines[0].contains("lock"));
        let lifetimes: Vec<_> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 1);
        assert_eq!(lifetimes[0].text, "'a");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still */ fn f() {}";
        let lx = lex(src);
        assert!(lx.tokens[0].is_ident("fn"));
    }

    #[test]
    fn token_lines_survive_multiline_strings() {
        let src = "let s = \"a\nb\nc\";\nfn g() {}";
        let lx = lex(src);
        let g = lx.tokens.iter().find(|t| t.is_ident("g")).unwrap();
        assert_eq!(g.line, 4);
    }

    #[test]
    fn tuple_index_is_a_literal_token() {
        let lx = lex("gate.0.lock()");
        let kinds: Vec<_> = lx.tokens.iter().map(|t| (t.kind, t.text.clone())).collect();
        assert_eq!(kinds[0], (TokKind::Ident, "gate".into()));
        assert_eq!(kinds[2], (TokKind::Lit, "0".into()));
        assert_eq!(kinds[4], (TokKind::Ident, "lock".into()));
    }
}
