//! Analysis rules. Shared source-file representation and helpers;
//! one module per rule family.
//!
//! * [`legacy`] — the line-oriented determinism rule and
//!   `forbid-unsafe`, on the lexer's sanitized lines so patterns inside
//!   string literals and comments do not fire.
//! * [`event_parity`] — server/sim `EventKind` construction parity.

pub mod event_parity;
pub mod legacy;

use crate::lexer::{self, Lexed};

/// A lexed workspace source file, shared by every rule.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Original lines — used for `lint:sorted` markers,
    /// which live in comments and are blanked in the sanitized view.
    pub raw_lines: Vec<String>,
    pub lexed: Lexed,
    /// 1-based line of the first `#[cfg(test)]`; everything at or after
    /// it is test code. `usize::MAX` when the file has no test module.
    pub test_boundary: usize,
}

impl SourceFile {
    pub fn new(rel: &str, content: &str) -> Self {
        let raw_lines: Vec<String> = content.lines().map(|l| l.to_string()).collect();
        let test_boundary = raw_lines
            .iter()
            .position(|l| l.trim() == "#[cfg(test)]")
            .map(|i| i + 1)
            .unwrap_or(usize::MAX);
        SourceFile {
            rel: rel.to_string(),
            raw_lines,
            lexed: lexer::lex(content),
            test_boundary,
        }
    }

    /// True when 1-based `line` is inside the trailing test module.
    pub fn in_test(&self, line: usize) -> bool {
        line >= self.test_boundary
    }

    /// True when `marker` appears on 1-based line `line` or within
    /// `window` raw lines above it (escape-hatch comments).
    pub fn marked(&self, line: usize, marker: &str, window: usize) -> bool {
        if line == 0 || self.raw_lines.is_empty() {
            return false;
        }
        let idx = (line - 1).min(self.raw_lines.len() - 1);
        let lo = idx.saturating_sub(window);
        self.raw_lines[lo..=idx].iter().any(|l| l.contains(marker))
    }
}

/// Skips a balanced `(…)`, `[…]`, or `{…}` group forward: `i` indexes
/// the opening token; returns the index just past the matching closer.
pub fn skip_group(tokens: &[lexer::Tok], i: usize) -> usize {
    let (open, close) = match tokens[i].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return i + 1,
    };
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].is_punct(open) {
            depth += 1;
        } else if tokens[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_boundary_and_marked() {
        let f = SourceFile::new(
            "x.rs",
            "fn a() {}\n// lint:sorted: why\nfn b() {}\n#[cfg(test)]\nmod t {}\n",
        );
        assert_eq!(f.test_boundary, 4);
        assert!(f.in_test(4) && f.in_test(5) && !f.in_test(3));
        assert!(f.marked(3, "lint:sorted", 3));
        assert!(!f.marked(1, "lint:sorted", 3));
    }

    #[test]
    fn group_skipping() {
        let lx = crate::lexer::lex("f(a, (b, c))[0] + g");
        let toks = &lx.tokens;
        let open = toks.iter().position(|t| t.is_punct('(')).unwrap();
        let past = skip_group(toks, open);
        assert!(toks[past].is_punct('['));
        assert!(toks[skip_group(toks, past)].is_punct('+'));
    }
}
