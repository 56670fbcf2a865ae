//! The one exhibits binary and the table behind it (ISSUE 15): the
//! index names the paper's sixteen exhibits in print order, every fast
//! exhibit renders under its own title, and `all_exhibits` resolves
//! names against the same table.

use bench::exhibits::EXHIBITS;
use std::process::Command;

const NAMES: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "reliability",
    "figure7",
    "figure8",
];

fn all_exhibits(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_all_exhibits"))
        .args(args)
        .output()
        .expect("all_exhibits runs")
}

#[test]
fn list_names_the_sixteen_exhibits_in_order() {
    let out = all_exhibits(&["--list"]);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).unwrap();
    assert_eq!(listed.lines().collect::<Vec<_>>(), NAMES);
}

#[test]
fn unknown_name_exits_2_naming_the_valid_ones() {
    // Checked before anything renders: the valid name costs nothing.
    let out = all_exhibits(&["table1", "table8"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("\"table8\""), "{err}");
    for name in NAMES {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}

#[test]
fn named_exhibits_print_without_banners() {
    let out = all_exhibits(&["table1", "figure2"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("Table 1:"), "{text}");
    assert!(text.contains("\n# Figure 2:"), "{text}");
    assert!(!text.contains("====="), "{text}");
}

#[test]
fn fast_exhibits_render_under_their_titles() {
    // figure7 (cosmology volume run) and figure8 (500-step collapse)
    // take the better part of a minute in debug builds.
    let fast = EXHIBITS
        .iter()
        .filter(|(name, _)| !matches!(*name, "figure7" | "figure8"));
    for (name, render) in fast {
        let title = match *name {
            "figure1" => "The Space Simulator, 294 nodes".to_string(),
            "reliability" => "Section 2.1: hardware failures".to_string(),
            _ => {
                // "table3" -> "Table 3", "figure6" -> "Figure 6"
                let (kind, number) = name.split_at(name.len() - 1);
                format!("{}{} {number}", kind[..1].to_uppercase(), &kind[1..])
            }
        };
        let text = render();
        assert!(text.ends_with('\n'), "{name} is not newline-terminated");
        assert!(
            text.lines().next().is_some_and(|l| l.contains(&title)),
            "{name} does not open with {title:?}:\n{text}"
        );
    }
}
