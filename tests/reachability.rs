//! The reachability ledger: every module under `crates/*/src` has a row
//! in DESIGN.md's *Module → file map* saying what runs it — an exhibit, a
//! `BENCH_report.json` row, a hostbench layer, a binary, an example or an
//! oracle — and every row names a file that exists. A new module must say
//! what runs it before it lands; a deleted one must take its row along.
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

/// The file column of the table: second cell of every row between the
/// *Module → file map* heading and the next heading of the same depth.
fn table_files(design: &str) -> BTreeSet<String> {
    design
        .lines()
        .skip_while(|l| !l.starts_with("## Module → file map"))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter_map(|l| l.strip_prefix("| `")?.split('|').nth(1))
        .map(|cell| cell.trim().trim_matches('`').to_string())
        .filter(|cell| cell.starts_with("crates/"))
        .collect()
}

#[test]
fn every_module_has_a_row_saying_what_runs_it() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("reading DESIGN.md");
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
