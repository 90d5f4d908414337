//! The line-oriented lint clippy has no equal for (`nondet-iter`) plus
//! `forbid-unsafe`, on the lexer's sanitized line view. Panics on the hot
//! path and undocumented `unsafe` are clippy's now: `unwrap_used` /
//! `expect_used` at the top of the hot-path files and
//! `-W clippy::undocumented_unsafe_blocks` on the clippy command line.
//! Lock order and locks held across I/O are the debug-build lockdep's
//! (`vmqs_core::sync::lockdep`).
//!
//! `nondet-iter` keeps its line-oriented shape (it reasons about marker
//! windows in terms of lines), but matches against
//! [`SourceFile::lexed::code_lines`] — the source with comment text and
//! string/char-literal contents blanked — so a rule pattern that
//! appears inside a string literal or a comment can no longer fire.
//! The escape-hatch marker (`lint:sorted:`) lives in comments, so it is
//! looked up on the *raw* lines.

use crate::diag::Diagnostic;
use crate::rules::SourceFile;

/// Files on the deterministic surface: ranking decisions and
/// conformance-trace output. Iteration order here is observable in
/// golden traces, so rule `nondet-iter` applies.
pub const SURFACE_FILES: &[&str] = &[
    "crates/core/src/rank.rs",
    "crates/core/src/graph.rs",
    "crates/core/src/strategy.rs",
    "crates/obs/src/event.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/timeline.rs",
];

/// Crates allowed to contain `unsafe` (and therefore exempt from the
/// `#![forbid(unsafe_code)]` requirement): only the storage layer's
/// AVX-512 page fill.
pub const UNSAFE_CRATES: &[&str] = &["crates/storage"];

/// Runs `nondet-iter` on one file; the caller picks the files on the
/// deterministic surface. `i` below is 0-based; diagnostics carry
/// 1-based lines.
pub fn check_file(f: &SourceFile) -> Vec<Diagnostic> {
    let code_lines = &f.lexed.code_lines;
    let mut out = Vec::new();
    // Lines at or after the `#[cfg(test)]` boundary are test code, which
    // the rule does not read.
    let test_start = if f.test_boundary == usize::MAX {
        code_lines.len()
    } else {
        (f.test_boundary - 1).min(code_lines.len())
    };

    // Pass 1: names declared with a HashMap/HashSet type anywhere in the
    // file (fields and annotated locals).
    let mut hash_names: Vec<String> = Vec::new();
    for code in code_lines {
        let mut rest = code.as_str();
        while let Some(p) = rest.find("Hash") {
            let after = &rest[p..];
            if after.starts_with("HashMap<") || after.starts_with("HashSet<") {
                let before = rest[..p].trim_end();
                if let Some(b) = before.strip_suffix(':') {
                    let name: String = b
                        .trim_end()
                        .chars()
                        .rev()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect::<Vec<_>>()
                        .into_iter()
                        .rev()
                        .collect();
                    if !name.is_empty() && !hash_names.contains(&name) {
                        hash_names.push(name);
                    }
                }
            }
            rest = &rest[p + 4..];
        }
    }
    // Pass 2: iteration over any such name.
    const ITER_CALLS: &[&str] = &[".iter()", ".keys()", ".values()", ".into_iter()", ".drain("];
    for (i, code) in code_lines.iter().enumerate().take(test_start) {
        for name in &hash_names {
            let method = ITER_CALLS
                .iter()
                .any(|c| code.contains(&format!("{name}{c}")));
            let for_loop = code.contains("for ")
                && code
                    .find(" in ")
                    .is_some_and(|p| code[p + 4..].contains(name.as_str()));
            if (method || for_loop) && !f.marked(i + 1, "lint:sorted", 3) {
                out.push(Diagnostic {
                    rule: "nondet-iter",
                    file: f.rel.clone(),
                    line: i + 1,
                    message: format!(
                        "iterating hash-ordered `{name}` on a deterministic surface; \
                         use BTreeMap/BTreeSet, sort first, or justify with `// lint:sorted:`"
                    ),
                });
            }
        }
    }
    out
}

/// Checks that a crate's `lib.rs` forbids unsafe code (unless the crate
/// is on the [`UNSAFE_CRATES`] allowlist).
pub fn check_forbid(rel_lib: &str, content: &str) -> Vec<Diagnostic> {
    let crate_dir = rel_lib.trim_end_matches("/src/lib.rs");
    if UNSAFE_CRATES.contains(&crate_dir) || content.contains("#![forbid(unsafe_code)]") {
        return Vec::new();
    }
    vec![Diagnostic {
        rule: "forbid-unsafe",
        file: rel_lib.to_string(),
        line: 1,
        message: "crate does not need unsafe: add `#![forbid(unsafe_code)]`".into(),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_in_strings_and_comments_do_not_fire() {
        let src = r#"
struct S { names: HashMap<u64, u8> }
fn doc(s: &S) {
    let msg = "never call names.keys() here";
    // for n in names would be wrong
}
"#;
        assert!(check_file(&SourceFile::new("x.rs", src)).is_empty());
    }

    #[test]
    fn real_sites_still_fire() {
        let src =
            "struct S {\n    names: HashMap<u64, u8>,\n}\nfn f(s: &S) {\n    s.names.keys();\n}\n";
        let v = check_file(&SourceFile::new("x.rs", src));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "nondet-iter");
        assert_eq!(v[0].line, 5);
    }
}
