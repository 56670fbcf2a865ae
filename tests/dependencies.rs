//! The dependency ledger: what the manifests name is what `depstubs/`
//! vendors, and both are the two crates DESIGN.md allows. A third name in
//! any manifest, or a stub nobody names, fails here before it reaches a
//! build that would need the network.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const ALLOWED: [&str; 2] = ["proptest", "rand"];

/// Names in the manifest's dependency tables (`[dependencies]`,
/// `[dev-dependencies]`, `[build-dependencies]`,
/// `[workspace.dependencies]`) that are not path crates. An entry that
/// defers to the workspace (`name.workspace = true`, `{ workspace = true,
/// .. }`) is skipped: cargo makes it name a `[workspace.dependencies]`
/// entry, and the root manifest is read like any other.
fn external_names(manifest: &Path) -> Vec<String> {
    let text = fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("reading {}: {e}", manifest.display()));
    let mut in_deps = false;
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line.trim_matches(['[', ']']).ends_with("dependencies");
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .unwrap_or_else(|| panic!("{}: not `key = value`: {line}", manifest.display()));
        let deferred = key.trim().ends_with(".workspace") || value.contains("workspace = true");
        if !deferred && !value.contains("path =") {
            out.push(key.trim().to_string());
        }
    }
    out
}

fn dirs_in(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("listing {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.is_dir())
        .collect();
    v.sort();
    v
}

#[test]
fn the_only_external_crates_are_rand_and_proptest() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests.extend(
        dirs_in(&root.join("crates"))
            .iter()
            .map(|d| d.join("Cargo.toml")),
    );
    assert!(manifests.len() > 10, "found only {manifests:?}");

    let external: BTreeSet<String> = manifests.iter().flat_map(|m| external_names(m)).collect();
    assert_eq!(
        external.iter().map(String::as_str).collect::<Vec<_>>(),
        ALLOWED,
        "non-path dependency names across {} manifests",
        manifests.len()
    );

    let stubs: Vec<String> = dirs_in(&root.join("depstubs"))
        .iter()
        .map(|d| d.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(stubs, ALLOWED, "crates vendored under depstubs/");
}
