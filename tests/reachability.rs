//! The reachability ledger: every module under `crates/*/src` has a row
//! in DESIGN.md's *Module → file map* saying what runs it — an exhibit, a
//! `BENCH_report.json` row, a hostbench layer, a binary, an example or an
//! oracle — and every row names a file that exists. A new module must say
//! what runs it before it lands; a deleted one must take its row along.
//! No row may say that only an oracle or an example runs it, except the
//! module that is itself an oracle.
//! `crates/hostbench` is the frozen measuring stick and keeps its own
//! README.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// `crates/<c>/src/<m>.rs` for every crate but hostbench, `lib.rs`
/// standing for a crate only when it is the crate's whole source.
fn source_modules(root: &Path) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for krate in fs::read_dir(root.join("crates")).expect("listing crates/") {
        let krate = krate.expect("directory entry").file_name();
        let krate = krate.to_string_lossy();
        if krate == "hostbench" {
            continue;
        }
        let src = format!("crates/{krate}/src");
        let files: Vec<String> = fs::read_dir(root.join(&src))
            .unwrap_or_else(|e| panic!("listing {src}: {e}"))
            .map(|e| e.expect("directory entry").file_name())
            .map(|f| f.to_string_lossy().into_owned())
            .filter(|f| f.ends_with(".rs"))
            .collect();
        let only_lib = files.len() == 1;
        out.extend(
            files
                .iter()
                .filter(|f| only_lib || *f != "lib.rs")
                .map(|f| format!("{src}/{f}")),
        );
    }
    out
}

/// The module rows of the table: every line between the *Module → file
/// map* heading and the next heading of the same depth whose first cell
/// is a code span, split into its cells.
fn table_rows(design: &str) -> Vec<Vec<&str>> {
    design
        .lines()
        .skip_while(|l| !l.starts_with("## Module → file map"))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with("| `"))
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect()
}

/// The file column of the table.
fn table_files(design: &str) -> BTreeSet<String> {
    table_rows(design)
        .iter()
        .filter_map(|row| row.get(1))
        .map(|cell| cell.trim_matches('`').to_string())
        .filter(|cell| cell.starts_with("crates/"))
        .collect()
}

fn read_design(root: &Path) -> String {
    fs::read_to_string(root.join("DESIGN.md")).expect("reading DESIGN.md")
}

/// The one module whose reason to exist is to be an oracle: the
/// Sedov–Taylor blast holds the SPH hydro to R ∝ t^0.4.
const ORACLE_MODULE: &str = "sph::sedov";

#[test]
fn every_module_has_a_row_saying_what_runs_it() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = read_design(root);
    let modules = source_modules(root);
    let rows = table_files(&design);
    assert!(modules.len() > 80, "found only {} modules", modules.len());

    let unlisted: Vec<_> = modules.difference(&rows).collect();
    assert!(
        unlisted.is_empty(),
        "no row in DESIGN.md's Module → file map for {unlisted:?}: say what runs it"
    );
    let stale: Vec<_> = rows.difference(&modules).collect();
    assert!(
        stale.is_empty(),
        "DESIGN.md's Module → file map names files that do not exist: {stale:?}"
    );
}

/// Reached or removed: a module that only its own oracle or an example
/// runs is wired into an exhibit, a ledger row or a hostbench workload,
/// or it is deleted.
#[test]
fn no_module_is_run_only_by_an_oracle_or_an_example() {
    let design = read_design(Path::new(env!("CARGO_MANIFEST_DIR")));
    let rows = table_rows(&design);
    assert!(rows.len() > 80, "found only {} rows", rows.len());

    let unreached: Vec<&str> = rows
        .iter()
        .filter(|row| {
            row.iter().any(|cell| {
                let cell = cell.to_lowercase();
                cell.contains("oracle-only") || cell.contains("example-only")
            })
        })
        .map(|row| row[0].trim_matches('`'))
        .filter(|module| *module != ORACLE_MODULE)
        .collect();
    assert!(
        unreached.is_empty(),
        "DESIGN.md's Module → file map says only an oracle or an example runs \
         {unreached:?}: wire each into an exhibit, ledger row or hostbench workload, or delete it"
    );
}
