//! Workspace task runner: the static analysis suite.
//!
//! ```text
//! cargo xtask analyze [workspace-root] [--format text|json]
//!                     [--baseline path] [--strict-baseline]
//!                     [--write-baseline] [--out path]
//! cargo xtask lint [workspace-root]        # back-compat alias
//! ```
//!
//! `analyze` lexes every Rust source under `crates/`, `src/`, `tests/`,
//! and `examples/` (token stream + sanitized lines; see `lexer`) and
//! runs six rules over the workspace:
//!
//! * the four line rules — `nondet-iter`, `hot-unwrap`,
//!   `guard-across-io`, `safety-comment` (plus `forbid-unsafe` per
//!   crate) — blind to string/comment text (raw clock reads are banned
//!   by resolved path in `clippy.toml`, not here);
//! * `lock-order` — static lock-acquisition-order analysis against
//!   `docs/lock-order.md` with depth-1 call propagation and cycle
//!   detection (production sources under `crates/*/src/`);
//! * `event-parity` — server/sim `EventKind` construction parity.
//!
//! Diagnostics carry reorder-stable fingerprints. With `--baseline`,
//! findings listed in the baseline file are suppressed (ratcheted, not
//! ignored: stale entries are reported, and fail the run under
//! `--strict-baseline` — the CI honesty job). Exit is non-zero on any
//! new finding. The seeded-violation fixtures under
//! `crates/xtask/fixtures/` are exercised only by the unit tests, which
//! double as mutation validation: deleting a rule's core check makes
//! its fixture test fail.

mod diag;
mod lexer;
mod rules;

use diag::{apply_baseline, disambiguate, parse_baseline, to_json, Diagnostic};
use rules::{event_parity, fenced_block, legacy, lock_order, SourceFile};
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

    // Line rules, every scanned file.
    for f in &files {
        diags.extend(legacy::check_file(legacy::FileCtx::for_path(&f.rel), f));
        if f.rel.starts_with("crates/") && f.rel.ends_with("/src/lib.rs") {
            diags.extend(legacy::check_forbid(&f.rel, &f.raw_lines.join("\n")));
        }
    }

    // Lock-order: production sources only (crates/*/src/**) — loom
    // models and integration tests construct scratch locks whose
    // classes are meaningless to the declared hierarchy.
    let lock_md = std::fs::read_to_string(root.join("docs/lock-order.md"))
        .map_err(|e| format!("read docs/lock-order.md: {e}"))?;
    let lock_spec = lock_order::LockSpec::parse(&fenced_block(&lock_md, "lock-order")?)?;
    let prod: Vec<&SourceFile> = files
        .iter()
        .filter(|f| f.rel.starts_with("crates/") && f.rel.contains("/src/"))
        .collect();
    diags.extend(lock_order::check(&lock_spec, &prod));

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
    disambiguate(&mut diags);
    Ok(diags)
}

struct Cli {
    root: PathBuf,
    format: String,
    baseline: Option<PathBuf>,
    strict_baseline: bool,
    write_baseline: bool,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String], default_baseline: bool) -> Result<Cli, String> {
    let mut cli = Cli {
        root: PathBuf::from("."),
        format: "text".into(),
        baseline: None,
        strict_baseline: false,
        write_baseline: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    let mut saw_root = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                if v != "text" && v != "json" {
                    return Err(format!("--format must be text or json, got {v:?}"));
                }
                cli.format = v.clone();
            }
            "--baseline" => {
                cli.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?));
            }
            "--strict-baseline" => cli.strict_baseline = true,
            "--write-baseline" => cli.write_baseline = true,
            "--out" => cli.out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            root if !saw_root => {
                cli.root = PathBuf::from(root);
                saw_root = true;
            }
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    if cli.baseline.is_none() && default_baseline && cli.root.join("lint-baseline.json").is_file() {
        cli.baseline = Some(PathBuf::from("lint-baseline.json"));
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<bool, String> {
    let diags = analyze(&cli.root)?;

    let baseline_path = cli.baseline.as_ref().map(|p| {
        if p.is_absolute() {
            p.clone()
        } else {
            cli.root.join(p)
        }
    });

    if cli.write_baseline {
        let path = baseline_path.ok_or("--write-baseline requires --baseline <path>")?;
        let text = diag::write_baseline(&diags, &[]);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "xtask analyze: wrote {} entr{} to {} — add a justification note to each",
            diags.len(),
            if diags.len() == 1 { "y" } else { "ies" },
            path.display()
        );
        return Ok(true);
    }

    let baseline = match &baseline_path {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("read baseline {}: {e}", p.display()))?;
            parse_baseline(&text)?
        }
        None => Vec::new(),
    };
    let (new, stale) = apply_baseline(&diags, &baseline);

    match cli.format.as_str() {
        "json" => {
            let owned: Vec<Diagnostic> = new.iter().map(|d| (*d).clone()).collect();
            let json = to_json(&owned);
            match &cli.out {
                Some(p) => {
                    std::fs::write(p, &json).map_err(|e| format!("write {}: {e}", p.display()))?
                }
                None => print!("{json}"),
            }
        }
        _ => {
            for d in &new {
                eprintln!("{d}");
            }
        }
    }
    for s in &stale {
        eprintln!(
            "xtask analyze: stale baseline entry {} [{}] {} — finding no longer exists; \
             remove it from the baseline",
            s.fingerprint, s.rule, s.note
        );
    }
    let suppressed = diags.len() - new.len();
    eprintln!(
        "xtask analyze: {} new finding(s), {suppressed} baselined, {} stale baseline entr{}",
        new.len(),
        stale.len(),
        if stale.len() == 1 { "y" } else { "ies" },
    );
    let stale_fails = cli.strict_baseline && !stale.is_empty();
    Ok(new.is_empty() && !stale_fails)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => ("", &args[..]),
    };
    // `lint` is the historical entry point: text output, picking up
    // `lint-baseline.json` from the workspace root when present.
    let parsed = match cmd {
        "analyze" => parse_cli(rest, false),
        "lint" => parse_cli(rest, true),
        _ => {
            eprintln!(
                "usage: cargo xtask analyze [root] [--format text|json] [--baseline path] \
                 [--strict-baseline] [--write-baseline] [--out path]\n       cargo xtask lint [root]"
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
    use proptest::prelude::*;

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
        let ctx = legacy::FileCtx {
            surface: true,
            ..legacy::FileCtx::default()
        };
        let f = fixture_file("nondet_iter.rs");
        let v = legacy::check_file(ctx, &f);
        assert_eq!(rules_of(&v), ["nondet-iter", "nondet-iter"]);
        // ...but not on a non-surface file.
        assert!(legacy::check_file(legacy::FileCtx::default(), &f).is_empty());
    }

    #[test]
    fn hot_unwrap_fixture_fires() {
        let ctx = legacy::FileCtx {
            hot_path: true,
            ..legacy::FileCtx::default()
        };
        let f = fixture_file("unwrap_hot.rs");
        let v = legacy::check_file(ctx, &f);
        assert_eq!(rules_of(&v), ["hot-unwrap", "hot-unwrap"]);
        assert!(legacy::check_file(legacy::FileCtx::default(), &f).is_empty());
    }

    #[test]
    fn guard_across_io_fixture_fires() {
        let ctx = legacy::FileCtx {
            hot_path: true,
            ..legacy::FileCtx::default()
        };
        let f = fixture_file("guard_across_io.rs");
        let v = legacy::check_file(ctx, &f);
        assert_eq!(rules_of(&v), ["guard-across-io"; 6]);
        assert!(v[0].message.contains("`g`"), "{:?}", v[0]);
        assert!(v[1].message.contains("`ds`"), "{:?}", v[1]);
        assert!(v[2].message.contains("`plan`"), "{:?}", v[2]);
        // Tier-2 frame I/O (write, read, unlink) under the store guard.
        for (d, call) in v[3..]
            .iter()
            .zip(["spill.write(", "spill.read(", "spill.remove("])
        {
            assert!(d.message.contains("`ds`"), "{d:?}");
            assert!(f.raw_lines[d.line - 1].contains(call), "{d:?}");
        }
        assert!(legacy::check_file(legacy::FileCtx::default(), &f).is_empty());
    }

    #[test]
    fn missing_safety_fixture_fires() {
        let v = legacy::check_file(
            legacy::FileCtx::default(),
            &fixture_file("missing_safety.rs"),
        );
        assert_eq!(rules_of(&v), ["safety-comment"]);
    }

    #[test]
    fn clean_fixture_is_clean() {
        let ctx = legacy::FileCtx {
            surface: true,
            hot_path: true,
        };
        let v = legacy::check_file(ctx, &fixture_file("clean.rs"));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn string_literal_fixture_is_clean() {
        // Rule patterns inside strings, raw strings, and comments — the
        // regex linter used to flag these; the lexer view must not.
        let ctx = legacy::FileCtx {
            surface: true,
            hot_path: true,
        };
        let v = legacy::check_file(ctx, &fixture_file("strings_clean.rs"));
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

    // ---- lock-order fixtures -----------------------------------------

    fn fixture_lock_spec() -> lock_order::LockSpec {
        lock_order::LockSpec::parse(&[
            (1, "class admission 10 admission".into()),
            (2, "class quarantine 20 quarantine".into()),
            (3, "class shard.state 30 state".into()),
            (4, "class store 40 store".into()),
            (5, "class metrics 60 metrics".into()),
        ])
        .unwrap()
    }

    #[test]
    fn lock_order_bad_fixture_fires() {
        let v = lock_order::check(&fixture_lock_spec(), &[&fixture_file("lock_order_bad.rs")]);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|d| d.rule == "lock-order"));
        assert!(
            v.iter()
                .any(|d| d.message.contains("`inverted`") && d.message.contains("ascending")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|d| d.message.contains("same-shard-only")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|d| d.message.contains("via call to `lock_admission_inner`")),
            "{v:?}"
        );
        // Each diagnostic names the file and a real line.
        assert!(v
            .iter()
            .all(|d| d.file == "lock_order_bad.rs" && d.line > 0));
    }

    #[test]
    fn lock_order_clean_fixture_is_clean() {
        let v = lock_order::check(
            &fixture_lock_spec(),
            &[&fixture_file("lock_order_clean.rs")],
        );
        assert!(v.is_empty(), "{v:?}");
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

    // ---- fingerprint stability ---------------------------------------

    /// Decodes permutation `n` of `0..k` (factorial number system).
    fn nth_permutation(mut n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..k).collect();
        let mut out = Vec::with_capacity(k);
        for i in (1..=k).rev() {
            let fact: usize = (1..i).product();
            let idx = n / fact;
            n %= fact;
            out.push(pool.remove(idx));
        }
        out
    }

    proptest! {
        /// Reordering unrelated items must not change a finding's
        /// fingerprint — otherwise the ratchet baseline churns on every
        /// refactor.
        #[test]
        fn fingerprints_stable_under_reordering(perm in 0usize..24) {
            const BLOCKS: [&str; 4] = [
                "fn alpha() { let x = 1; }",
                "fn beta() -> u32 { 2 }",
                "fn gamma(o: Option<u8>) { o.unwrap(); }",
                "fn delta(v: &mut Vec<u8>) { v.clear(); }",
            ];
            let ctx = legacy::FileCtx {
                hot_path: true,
                ..legacy::FileCtx::default()
            };
            let canonical = {
                let src = BLOCKS.join("\n");
                let f = SourceFile::new("p.rs", &src);
                let v = legacy::check_file(ctx, &f);
                prop_assert_eq!(v.len(), 1);
                v[0].fingerprint.clone()
            };
            let order = nth_permutation(perm, 4);
            let src: String = order
                .iter()
                .map(|&i| BLOCKS[i])
                .collect::<Vec<_>>()
                .join("\n");
            let f = SourceFile::new("p.rs", &src);
            let v = legacy::check_file(ctx, &f);
            prop_assert_eq!(v.len(), 1);
            prop_assert_eq!(&v[0].fingerprint, &canonical);
        }
    }

    // ---- whole-workspace ratchet -------------------------------------

    /// The real workspace, checked exactly the way CI checks it: every
    /// finding is either fixed or justified in lint-baseline.json, and
    /// no baseline entry is stale.
    #[test]
    fn workspace_matches_baseline() {
        let root = workspace_root();
        let diags = analyze(&root).unwrap();
        let text = std::fs::read_to_string(root.join("lint-baseline.json")).unwrap();
        let baseline = parse_baseline(&text).unwrap();
        let (new, stale) = apply_baseline(&diags, &baseline);
        assert!(new.is_empty(), "new findings: {new:#?}");
        assert!(stale.is_empty(), "stale baseline entries: {stale:#?}");
        // The acceptance bar: a small, justified baseline.
        assert!(
            baseline.len() <= 5,
            "baseline too large: {}",
            baseline.len()
        );
        assert!(
            baseline.iter().all(|b| !b.note.is_empty()),
            "every baseline entry needs a justification note"
        );
    }
}
