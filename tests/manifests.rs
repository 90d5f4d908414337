//! `unsafe` is forbidden workspace-wide by `[workspace.lints.rust]`, but
//! a lint table reaches only the members that inherit it. This test
//! fails when a crate under `crates/` or `compat/` does not, so a new
//! crate cannot slip out from under the rule. `vmqs-storage`, the one
//! crate allowed `unsafe`, keeps a `[lints.rust]` table of its own.

use std::path::Path;

/// True when `manifest` has a `header` table holding `entry` (spaces
/// ignored) before the next table starts.
fn table_has(manifest: &str, header: &str, entry: &str) -> bool {
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if inside && line.replace(' ', "") == entry {
            return true;
        }
    }
    false
}

#[test]
fn every_member_but_storage_inherits_the_unsafe_code_forbid() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read =
        |p: &Path| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    let workspace = read(&root.join("Cargo.toml"));
    assert!(table_has(
        &workspace,
        "[workspace.lints.rust]",
        "unsafe_code=\"forbid\""
    ));
    assert!(
        table_has(&workspace, "[lints]", "workspace=true"),
        "root package"
    );
    let mut checked = 0;
    for dir in ["crates", "compat"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("member directory") {
            let manifest = entry.expect("directory entry").path().join("Cargo.toml");
            if !manifest.exists() || manifest.ends_with("crates/storage/Cargo.toml") {
                continue;
            }
            assert!(
                table_has(&read(&manifest), "[lints]", "workspace=true"),
                "{} needs `[lints] workspace = true`",
                manifest.display()
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} member manifests found");
}
