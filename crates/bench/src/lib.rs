//! The paper's exhibits and the standing perf ledger.
//!
//! Every table and figure of the paper is a function of [`exhibits`]
//! (`cargo run -p bench --bin all_exhibits [-- NAME...]` prints them,
//! `-- --list` names them; `--bin ablations` holds the design
//! ablations). [`report`] is the ledger behind `BENCH_report.json`
//! (`--bin bench_report`) and [`scaling`] the weak/strong sweeps that
//! write the same rows (`--bin scaling_sweep`). This module holds the
//! formatting they share.

/// Render an aligned text table: a header row plus data rows.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let line = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    line(&mut out);
    for (w, h) in widths.iter().zip(header) {
        out.push_str(&format!("| {h:>w$} "));
    }
    out.push_str("|\n");
    line(&mut out);
    for row in rows {
        for (w, cell) in widths.iter().zip(row) {
            out.push_str(&format!("| {cell:>w$} "));
        }
        out.push_str("|\n");
    }
    line(&mut out);
    out
}

/// Format a float with `digits` decimal places.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Format a ratio as "model/paper = r".
pub fn ratio(model: f64, paper: f64) -> String {
    format!("{:.2}", model / paper)
}

/// Render an (x, series...) data block as TSV for plotting.
pub fn render_series(title: &str, header: &[&str], rows: &[Vec<f64>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!("# {}\n", header.join("\t")));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .map(|v| {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.0}")
                } else {
                    format!("{v:.5}")
                }
            })
            .collect();
        out.push_str(&cells.join("\t"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "T",
            &["name", "val"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "2.25".into()],
            ],
        );
        assert!(t.contains("| longer |"));
        assert!(t.contains("|      a |"));
    }

    #[test]
    fn series_renders_tsv() {
        let s = render_series("S", &["x", "y"], &[vec![1.0, 2.0]]);
        assert!(s.contains("# S"));
        assert!(s.contains("1\t2"));
    }
}

pub mod exhibits;
pub mod report;
pub mod scaling;
