//! The dependency ledger: what the manifests name is what `depstubs/`
//! vendors, and both are the two crates DESIGN.md allows. A third name in
//! any manifest, or a stub nobody names, fails here before it reaches a
//! build that would need the network. The edges between the workspace's
//! own crates are pinned too, so a new one is a reviewed change to
//! [`PATH_EDGES`], not a side effect.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const ALLOWED: [&str; 2] = ["proptest", "rand"];

/// Every workspace package and the path crates its manifest names, in
/// any dependency table: one `package: crate crate …` line each.
const PATH_EDGES: &str = "
    bench:           cluster cosmo hot kernels msg netsim nodesim obs query sph store
    ckpt:
    cluster:         ckpt cosmo hot kernels msg netsim nodesim obs query store
    cosmo:           hot kernels
    hostbench:       ckpt cluster cosmo hot kernels msg netsim nodesim obs query sph store
    hot:             msg
    kernels:         hot obs
    msg:             netsim nodesim obs
    netsim:          obs
    nodesim:
    obs:
    query:           ckpt hot msg obs store
    space-simulator: cluster cosmo hot kernels msg netsim nodesim obs query sph
    sph:             hot msg
    store:           ckpt hot
";

/// A manifest's `[package]` name and the `(table, key, value)` entries
/// of its dependency tables (`[dependencies]`, `[dev-dependencies]`,
/// `[build-dependencies]`, `[workspace.dependencies]`).
struct Manifest {
    package: String,
    deps: Vec<(String, String, String)>,
}

fn read_manifest(manifest: &Path) -> Manifest {
    let text = fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("reading {}: {e}", manifest.display()));
    let mut table = String::new();
    let mut package = None;
    let mut deps = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let in_deps = table.ends_with("dependencies");
        if line.is_empty() || line.starts_with('#') || !(in_deps || table == "package") {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .unwrap_or_else(|| panic!("{}: not `key = value`: {line}", manifest.display()));
        let (key, value) = (key.trim(), value.trim());
        if in_deps {
            deps.push((table.clone(), key.to_string(), value.to_string()));
        } else if key == "name" {
            package = Some(value.trim_matches('"').to_string());
        }
    }
    let package = package.unwrap_or_else(|| panic!("{}: no package name", manifest.display()));
    Manifest { package, deps }
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

/// The root manifest and every `crates/*/Cargo.toml`.
fn manifests(root: &Path) -> Vec<Manifest> {
    let mut paths = vec![root.join("Cargo.toml")];
    paths.extend(
        dirs_in(&root.join("crates"))
            .iter()
            .map(|d| d.join("Cargo.toml")),
    );
    assert!(paths.len() > 10, "found only {paths:?}");
    paths.iter().map(|p| read_manifest(p)).collect()
}

/// Names in the dependency tables that are not path crates. An entry
/// that defers to the workspace (`name.workspace = true`, `{ workspace =
/// true, .. }`) is skipped: cargo makes it name a
/// `[workspace.dependencies]` entry, and the root manifest is read like
/// any other.
#[test]
fn the_only_external_crates_are_rand_and_proptest() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifests = manifests(root);

    let external: BTreeSet<&str> = manifests
        .iter()
        .flat_map(|m| &m.deps)
        .filter(|(_, key, value)| {
            let deferred = key.ends_with(".workspace") || value.contains("workspace = true");
            !deferred && !value.contains("path =")
        })
        .map(|(_, key, _)| key.as_str())
        .collect();
    assert_eq!(
        external.into_iter().collect::<Vec<_>>(),
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

/// A package's own dependency tables (not the root's
/// `[workspace.dependencies]`) name a path crate when the entry's name,
/// less any `.workspace`, is a workspace package.
#[test]
fn workspace_crates_name_exactly_the_pinned_path_crates() {
    let manifests = manifests(Path::new(env!("CARGO_MANIFEST_DIR")));
    let packages: BTreeSet<&str> = manifests.iter().map(|m| m.package.as_str()).collect();

    let found: BTreeMap<&str, BTreeSet<&str>> = manifests
        .iter()
        .map(|m| {
            let deps = m
                .deps
                .iter()
                .filter(|(table, ..)| table != "workspace.dependencies")
                .map(|(_, key, _)| key.trim_end_matches(".workspace"))
                .filter(|name| packages.contains(name))
                .collect();
            (m.package.as_str(), deps)
        })
        .collect();
    let pinned: BTreeMap<&str, BTreeSet<&str>> = PATH_EDGES
        .lines()
        .filter_map(|line| line.split_once(':'))
        .map(|(package, deps)| (package.trim(), deps.split_whitespace().collect()))
        .collect();
    assert_eq!(
        found, pinned,
        "path crates named by each workspace manifest"
    );
}
