//! Analysis rules. Shared source-file representation and helpers;
//! one module per rule family.
//!
//! * [`legacy`] — the line-oriented determinism rules and
//!   `forbid-unsafe`, on the lexer's sanitized lines so patterns inside
//!   string literals and comments do not fire.
//! * [`lock_order`] — static lock-acquisition-order analysis against
//!   the declared hierarchy in `docs/lock-order.md`.
//! * [`event_parity`] — server/sim `EventKind` construction parity.

pub mod event_parity;
pub mod legacy;
pub mod lock_order;

use crate::lexer::{self, Lexed};

/// A lexed workspace source file, shared by every rule.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Original lines — used for `lint:allow` / `lint:sorted` markers,
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

/// Skips a balanced group backward: `i` indexes the closing token;
/// returns the index of the matching opener.
pub fn skip_group_back(tokens: &[lexer::Tok], i: usize) -> usize {
    let (open, close) = match tokens[i].text.as_str() {
        ")" => ('(', ')'),
        "]" => ('[', ']'),
        "}" => ('{', '}'),
        _ => return i,
    };
    let mut depth = 0i32;
    let mut j = i as isize;
    while j >= 0 {
        let t = &tokens[j as usize];
        if t.is_punct(close) {
            depth += 1;
        } else if t.is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return j as usize;
            }
        }
        j -= 1;
    }
    0
}

/// Extracts a fenced code block tagged `tag` from a markdown document:
/// the lines between ```` ```<tag> ```` and the closing ```` ``` ````,
/// each paired with its 1-based line number in the document. This is
/// the machine-readable-spec convention used by `docs/lock-order.md`.
pub fn fenced_block(md: &str, tag: &str) -> Result<Vec<(usize, String)>, String> {
    let fence = format!("```{tag}");
    let mut out = Vec::new();
    let mut inside = false;
    for (i, line) in md.lines().enumerate() {
        let t = line.trim();
        if !inside && t == fence {
            inside = true;
        } else if inside && t == "```" {
            return Ok(out);
        } else if inside {
            out.push((i + 1, line.to_string()));
        }
    }
    if inside {
        Err(format!("unterminated ```{tag} block"))
    } else {
        Err(format!("no ```{tag} block found"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_boundary_and_marked() {
        let f = SourceFile::new(
            "x.rs",
            "fn a() {}\n// lint:allow(x): why\nfn b() {}\n#[cfg(test)]\nmod t {}\n",
        );
        assert_eq!(f.test_boundary, 4);
        assert!(f.in_test(4) && f.in_test(5) && !f.in_test(3));
        assert!(f.marked(3, "lint:allow(x)", 3));
        assert!(!f.marked(1, "lint:allow(x)", 3));
    }

    #[test]
    fn fenced_block_extraction() {
        let md = "# Doc\n\n```lock-order\nclass a 10 a\n```\ntrailing\n";
        let b = fenced_block(md, "lock-order").unwrap();
        assert_eq!(b, vec![(4, "class a 10 a".to_string())]);
        assert!(fenced_block(md, "other").is_err());
    }

    #[test]
    fn group_skipping() {
        let lx = crate::lexer::lex("f(a, (b, c))[0] + g");
        let toks = &lx.tokens;
        let open = toks.iter().position(|t| t.is_punct('(')).unwrap();
        let past = skip_group(toks, open);
        assert!(toks[past].is_punct('['));
        let close = past - 1;
        assert_eq!(skip_group_back(toks, close), open);
    }
}
