//! The four line-oriented determinism/safety lints, on the lexer's
//! sanitized line view.
//!
//! The rules keep their line-oriented shape (they reason about guard
//! extents and marker windows in terms of lines), but match against
//! [`SourceFile::lexed::code_lines`] — the source with comment text and
//! string/char-literal contents blanked — so a rule pattern that
//! appears inside a string literal or a comment can no longer fire.
//! Escape-hatch markers (`lint:allow(…)`, `lint:sorted:`, `SAFETY:`)
//! live in comments, so those are looked up on the *raw* lines.

use crate::diag::{fingerprint, Diagnostic};
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

/// Files on the server hot path: the worker loop and the submit path,
/// the shard transitions they call under the shard lock, and the
/// footprint index every submit probes and files into under that lock.
/// Rules `hot-unwrap` and `guard-across-io` apply.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/server/src/engine.rs",
    "crates/server/src/pages.rs",
    "crates/core/src/sched.rs",
    "crates/core/src/spatial.rs",
];

/// Crates allowed to contain `unsafe` (and therefore exempt from the
/// `#![forbid(unsafe_code)]` requirement): only the storage layer's
/// AVX-512 page fill.
pub const UNSAFE_CRATES: &[&str] = &["crates/storage"];

/// Per-file lint configuration, derived from the workspace-relative
/// path (and constructed directly by the fixture tests).
#[derive(Clone, Copy, Default)]
pub struct FileCtx {
    pub surface: bool,
    pub hot_path: bool,
}

impl FileCtx {
    pub fn for_path(rel: &str) -> Self {
        FileCtx {
            surface: SURFACE_FILES.contains(&rel),
            hot_path: HOT_PATH_FILES.contains(&rel),
        }
    }
}

/// Builds a diagnostic whose fingerprint keys on the sanitized line
/// *text*, not the line number — reordering unrelated code does not
/// change a finding's identity. Identical lines in one file are told
/// apart later by [`crate::diag::disambiguate`].
fn line_diag(
    file: &SourceFile,
    rule: &'static str,
    idx: usize,
    code: &str,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        file: file.rel.clone(),
        line: idx + 1,
        message,
        fingerprint: fingerprint(rule, &file.rel, code.trim()),
    }
}

/// Runs the four line rules on one file. `idx` below is 0-based;
/// diagnostics carry 1-based lines.
pub fn check_file(ctx: FileCtx, f: &SourceFile) -> Vec<Diagnostic> {
    let code_lines = &f.lexed.code_lines;
    let mut out = Vec::new();
    // Lines at or after the `#[cfg(test)]` boundary are test code:
    // hot-path panics there are fine.
    let test_start = if f.test_boundary == usize::MAX {
        code_lines.len()
    } else {
        (f.test_boundary - 1).min(code_lines.len())
    };

    // ---- nondet-iter --------------------------------------------------
    if ctx.surface {
        // Pass 1: names declared with a HashMap/HashSet type anywhere in
        // the file (fields and annotated locals).
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
                    out.push(line_diag(
                        f,
                        "nondet-iter",
                        i,
                        code,
                        format!(
                            "iterating hash-ordered `{name}` on a deterministic surface; \
                             use BTreeMap/BTreeSet, sort first, or justify with `// lint:sorted:`"
                        ),
                    ));
                }
            }
        }
    }

    // ---- hot-unwrap ---------------------------------------------------
    if ctx.hot_path {
        for (i, code) in code_lines.iter().enumerate().take(test_start) {
            if (code.contains(".unwrap()") || code.contains(".expect("))
                && !f.marked(i + 1, "lint:allow(unwrap)", 3)
            {
                out.push(line_diag(
                    f,
                    "hot-unwrap",
                    i,
                    code,
                    "panic on the worker/submit path; return a typed ServerError \
                     or justify with `// lint:allow(unwrap):`"
                        .into(),
                ));
            }
        }
    }

    // ---- guard-across-io ----------------------------------------------
    if ctx.hot_path {
        // `.fetch(` with its dot: the Page Space core's `complete_fetch(`
        // and `abort_fetch(` are bookkeeping under the lock, not I/O.
        // The `spill.` calls are tier-2 file I/O (a frame write, read or
        // unlink), named with their receiver because `.write(` and
        // `.read(` alone are how the guards themselves are taken.
        const IO_MARKERS: &[&str] = &[
            "read_page(",
            "fetch_pages(",
            ".fetch(",
            ".execute(",
            "session_for(",
            "spill.write(",
            "spill.read(",
            "spill.remove(",
        ];
        for (i, code) in code_lines.iter().enumerate().take(test_start) {
            let trimmed = code.trim_start();
            let Some(rest) = trimmed.strip_prefix("let ") else {
                continue;
            };
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            // Only bindings whose value IS the guard: `let g = x.lock();`.
            // A trailing method call (`x.lock().stats();`) drops the
            // temporary at the end of the statement.
            let end = code.trim_end();
            let is_guard = end.ends_with(".lock();")
                || end.ends_with(".read();")
                || end.ends_with(".write();");
            if name.is_empty() || !is_guard || f.marked(i + 1, "lint:allow(guard-across-io)", 3) {
                continue;
            }
            let indent = code.len() - code.trim_start().len();
            let dropper = format!("drop({name})");
            for (j, later) in code_lines.iter().enumerate().take(test_start).skip(i + 1) {
                if later.trim().is_empty() {
                    continue;
                }
                let lindent = later.len() - later.trim_start().len();
                if lindent < indent || later.contains(&dropper) {
                    break;
                }
                if IO_MARKERS.iter().any(|m| later.contains(m)) {
                    out.push(line_diag(
                        f,
                        "guard-across-io",
                        j,
                        later,
                        format!(
                            "I/O or kernel call while guard `{name}` (taken at line {}) is \
                             held; drop it first or justify with \
                             `// lint:allow(guard-across-io):`",
                            i + 1
                        ),
                    ));
                    break;
                }
            }
        }
    }

    // ---- safety-comment -----------------------------------------------
    // Applies in test code too: unsafe in a test still needs a reason.
    for (i, code) in code_lines.iter().enumerate() {
        let code = code.trim_start();
        let starts_unsafe = code.contains("unsafe fn ")
            || code.contains("unsafe impl ")
            || code.contains("unsafe {");
        if starts_unsafe && !f.marked(i + 1, "SAFETY:", 2) && !f.marked(i + 1, "# Safety", 6) {
            out.push(line_diag(
                f,
                "safety-comment",
                i,
                code,
                "`unsafe` without a `// SAFETY:` comment within 5 lines".into(),
            ));
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
        fingerprint: fingerprint("forbid-unsafe", rel_lib, "missing"),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_in_strings_and_comments_do_not_fire() {
        let src = r#"
fn doc() {
    let msg = "never call Instant::now() here";
    // Instant::now() would be wrong
    let p = "x.unwrap() is banned";
}
"#;
        let f = SourceFile::new("x.rs", src);
        let ctx = FileCtx {
            hot_path: true,
            ..FileCtx::default()
        };
        assert!(check_file(ctx, &f).is_empty());
    }

    #[test]
    fn real_sites_still_fire() {
        let src = "fn f() {\n    let t = x.unwrap();\n}\n";
        let f = SourceFile::new("x.rs", src);
        let ctx = FileCtx {
            hot_path: true,
            ..FileCtx::default()
        };
        let v = check_file(ctx, &f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "hot-unwrap");
        assert_eq!(v[0].line, 2);
    }
}
