//! Workspace task runner: the static analysis suite.
//!
//! ```text
//! cargo xtask analyze [workspace-root] [--format text|json] [--out path]
//! cargo xtask lint [workspace-root]        # back-compat alias
//! ```
//!
//! `analyze` lexes every Rust source under `crates/`, `src/`, `tests/`,
//! and `examples/` (token stream + sanitized lines; see `lexer`) and
//! runs three rules over the workspace:
//!
//! * `nondet-iter`, a line rule blind to string/comment text, on the
//!   deterministic-surface files;
//! * `forbid-unsafe` per crate (raw clock reads, panics on the hot path
//!   and undocumented `unsafe` are clippy lints, not rules here);
//! * `event-parity` — server/sim `EventKind` construction parity.
//!
//! Lock order and locks held across I/O are checked by the debug-build
//! lockdep in `vmqs_core::sync`, on every path the tests run.
//!
//! Exit is non-zero on any finding. The seeded-violation fixtures under
//! `crates/xtask/fixtures/` are exercised only by the unit tests, which
//! double as mutation validation: deleting a rule's core check makes its
//! fixture test fail.

mod diag;
mod lexer;
mod rules;

use diag::{to_json, Diagnostic};
use rules::{event_parity, legacy, SourceFile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Build outputs, VCS metadata, and the seeded-violation lint
            // fixtures (scanned by the unit tests instead) are out of
            // scope.
            if name == "target" || name == "fixtures" || name == ".git" {
                continue;
            }
            rust_files_under(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Reads and lexes every workspace source file.
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        rust_files_under(&root.join(top), &mut files);
    }
    if files.is_empty() {
        return Err(format!(
            "no Rust sources under {} — wrong workspace root?",
            root.display()
        ));
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let content =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        out.push(SourceFile::new(&rel, &content));
    }
    Ok(out)
}

/// Runs every rule; returns diagnostics sorted by (file, line, rule).
fn analyze(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let files = collect_sources(root)?;
    let mut diags: Vec<Diagnostic> = Vec::new();

    for f in &files {
        if legacy::SURFACE_FILES.contains(&f.rel.as_str()) {
            diags.extend(legacy::check_file(f));
        }
        if f.rel.starts_with("crates/") && f.rel.ends_with("/src/lib.rs") {
            diags.extend(legacy::check_forbid(&f.rel, &f.raw_lines.join("\n")));
        }
    }

    // Server/sim event parity.
    if let Some(obs) = files.iter().find(|f| f.rel == "crates/obs/src/event.rs") {
        let server: Vec<&SourceFile> = files
            .iter()
            .filter(|f| f.rel.starts_with("crates/server/src/"))
            .collect();
        let sim: Vec<&SourceFile> = files
            .iter()
            .filter(|f| f.rel.starts_with("crates/sim/src/"))
            .collect();
        diags.extend(event_parity::check(obs, &server, &sim));
    }

    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    Ok(diags)
}

struct Cli {
    root: PathBuf,
    json: bool,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        root: PathBuf::from("."),
        json: false,
        out: None,
    };
    let mut it = args.iter();
    let mut saw_root = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => cli.json = false,
                Some("json") => cli.json = true,
                other => return Err(format!("--format must be text or json, got {other:?}")),
            },
            "--out" => cli.out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            root if !saw_root => {
                cli.root = PathBuf::from(root);
                saw_root = true;
            }
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    Ok(cli)
}

/// Prints the findings; true when there are none.
fn run(cli: &Cli) -> Result<bool, String> {
    let diags = analyze(&cli.root)?;
    if cli.json {
        let json = to_json(&diags);
        match &cli.out {
            Some(p) => {
                std::fs::write(p, &json).map_err(|e| format!("write {}: {e}", p.display()))?
            }
            None => print!("{json}"),
        }
    } else {
        for d in &diags {
            eprintln!("{d}");
        }
    }
    eprintln!("xtask analyze: {} finding(s)", diags.len());
    Ok(diags.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => ("", &args[..]),
    };
    // `lint` is the historical name of `analyze`.
    let parsed = match cmd {
        "analyze" | "lint" => parse_cli(rest),
        _ => {
            eprintln!(
                "usage: cargo xtask analyze [root] [--format text|json] [--out path]\n       \
                 cargo xtask lint [root]"
            );
            return ExitCode::FAILURE;
        }
    };
    match parsed.and_then(|cli| run(&cli)) {
        Ok(true) => {
            eprintln!("xtask {cmd}: clean");
            ExitCode::SUCCESS
        }
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> String {
        let p = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
    }

    fn fixture_file(name: &str) -> SourceFile {
        SourceFile::new(name, &fixture(name))
    }

    fn rules_of(v: &[Diagnostic]) -> Vec<&'static str> {
        v.iter().map(|d| d.rule).collect()
    }

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf()
    }

    // ---- ported line-rule fixtures -----------------------------------

    #[test]
    fn nondet_iter_fixture_fires() {
        let v = legacy::check_file(&fixture_file("nondet_iter.rs"));
        assert_eq!(rules_of(&v), ["nondet-iter", "nondet-iter"]);
    }

    #[test]
    fn clean_fixture_is_clean() {
        let v = legacy::check_file(&fixture_file("clean.rs"));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn string_literal_fixture_is_clean() {
        // Rule patterns inside strings, raw strings, and comments — the
        // regex linter used to flag these; the lexer view must not.
        let v = legacy::check_file(&fixture_file("strings_clean.rs"));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn forbid_rule() {
        assert_eq!(
            rules_of(&legacy::check_forbid(
                "crates/demo/src/lib.rs",
                "pub fn f() {}"
            )),
            ["forbid-unsafe"]
        );
        assert!(legacy::check_forbid(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}"
        )
        .is_empty());
        // Allowlisted unsafe crate.
        assert!(legacy::check_forbid("crates/storage/src/lib.rs", "pub fn f() {}").is_empty());
    }

    // ---- event-parity fixtures ---------------------------------------

    #[test]
    fn event_parity_bad_fixture_fires() {
        let enum_f = fixture_file("parity_events.rs");
        let server = fixture_file("parity_server_bad.rs");
        let sim = fixture_file("parity_sim.rs");
        let v = event_parity::check(&enum_f, &[&server], &[&sim]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "event-parity");
        assert_eq!(v[0].file, "parity_server_bad.rs");
        assert!(v[0].message.contains("server engine"), "{}", v[0].message);
        assert!(v[0].line > 0);
    }

    #[test]
    fn event_parity_clean_fixture_is_clean() {
        let enum_f = fixture_file("parity_events.rs");
        let server = fixture_file("parity_server_clean.rs");
        let sim = fixture_file("parity_sim.rs");
        let v = event_parity::check(&enum_f, &[&server], &[&sim]);
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- whole workspace ---------------------------------------------

    /// The real workspace, checked exactly the way CI checks it: no
    /// finding at all.
    #[test]
    fn workspace_is_clean() {
        let diags = analyze(&workspace_root()).unwrap();
        assert!(diags.is_empty(), "findings: {diags:#?}");
    }
}
