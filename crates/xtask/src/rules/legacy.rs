//! The two line-oriented lints clippy has no equal for (`nondet-iter`,
//! `guard-across-io`) plus `forbid-unsafe`, on the lexer's sanitized line
//! view. Panics on the hot path and undocumented `unsafe` are clippy's
//! now: `unwrap_used` / `expect_used` at the top of the hot-path files
//! and `-W clippy::undocumented_unsafe_blocks` on the clippy command line.
//!
//! The rules keep their line-oriented shape (they reason about guard
//! extents and marker windows in terms of lines), but match against
//! [`SourceFile::lexed::code_lines`] — the source with comment text and
//! string/char-literal contents blanked — so a rule pattern that
//! appears inside a string literal or a comment can no longer fire.
//! Escape-hatch markers (`lint:allow(…)`, `lint:sorted:`) live in
//! comments, so those are looked up on the *raw* lines.

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

/// Files on the server hot path: the worker loop and the submit path,
/// the shard transitions they call under the shard lock, and the
/// footprint index every submit probes and files into under that lock.
/// Rule `guard-across-io` applies.
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

fn line_diag(file: &SourceFile, rule: &'static str, idx: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        file: file.rel.clone(),
        line: idx + 1,
        message,
    }
}

/// Runs the two line rules on one file. `idx` below is 0-based;
/// diagnostics carry 1-based lines.
pub fn check_file(ctx: FileCtx, f: &SourceFile) -> Vec<Diagnostic> {
    let code_lines = &f.lexed.code_lines;
    let mut out = Vec::new();
    // Lines at or after the `#[cfg(test)]` boundary are test code,
    // which neither rule reads.
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
                        format!(
                            "iterating hash-ordered `{name}` on a deterministic surface; \
                             use BTreeMap/BTreeSet, sort first, or justify with `// lint:sorted:`"
                        ),
                    ));
                }
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

    const HOT: FileCtx = FileCtx {
        surface: false,
        hot_path: true,
    };

    #[test]
    fn patterns_in_strings_and_comments_do_not_fire() {
        let src = r#"
fn doc(m: &Mutex<u8>) {
    let g = m.lock();
    let msg = "never call read_page( here";
    // spill.write( would be wrong
}
"#;
        assert!(check_file(HOT, &SourceFile::new("x.rs", src)).is_empty());
    }

    #[test]
    fn real_sites_still_fire() {
        let src = "fn f(m: &Mutex<u8>) {\n    let g = m.lock();\n    src.read_page(0);\n}\n";
        let v = check_file(HOT, &SourceFile::new("x.rs", src));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "guard-across-io");
        assert_eq!(v[0].line, 3);
    }
}
