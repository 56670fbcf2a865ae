//! The scaling-curve exhibit (ISSUE PR 9): weak/strong treecode sweeps
//! over the two-switch Space Simulator fabric and an ideal crossbar.
//!
//! ```bash
//! cargo run --release -p bench --bin scaling_sweep
//! cargo run --release -p bench --bin scaling_sweep -- \
//!     --max-ranks 64 --out BENCH_scaling.json --curves \
//!     --floor weak_xbar_64:scaling_efficiency:0.5
//! ```
//!
//! Writes every curve point as one scenario row of a `BenchReport`
//! JSON (the same format as the standing `BENCH_report.json`, tagged
//! `mode`/`fabric` and carrying `bodies`/`scaling_efficiency`) and
//! prints a summary table. `--curves`
//! additionally prints each curve as a TSV series for plotting.
//! `--floor SCENARIO:METRIC:MIN` (repeatable) asserts an absolute
//! ratchet on the freshly swept report — CI pins the parallel and
//! scaling efficiency at the largest swept rank count — and the exit
//! code is nonzero when a floor breaks.
//!
//! Flags: `--max-ranks N` caps the rank list (CI runs the reduced 2→64
//! sweep), `--mode weak|strong|both` and `--fabric lam|xbar|both` select
//! curves, `--steps`, `--bodies-per-rank`, and `--strong-bodies` resize
//! the per-point work.

use bench::report::{check_floors, parse_floor, summary_table, to_json};
use bench::scaling::{run_sweep, FabricKind, Mode, SweepConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: scaling_sweep [--out PATH] [--max-ranks N] [--steps N] \
[--bodies-per-rank N] [--strong-bodies N] [--mode weak|strong|both] \
[--fabric lam|xbar|both] [--curves] [--floor SCENARIO:METRIC:MIN]...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = SweepConfig::default();
    let mut out_path = "BENCH_scaling.json".to_string();
    let mut curves = false;
    let mut floors = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut want = |what: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("{a} wants {what}\n{USAGE}");
            }
            v
        };
        match a.as_str() {
            "--out" => match want("a path") {
                Some(p) => out_path = p,
                None => return ExitCode::from(2),
            },
            "--max-ranks" => match want("a count").and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => cfg = cfg.capped(n),
                None => return ExitCode::from(2),
            },
            "--steps" => match want("a count").and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => cfg.steps = n,
                _ => return ExitCode::from(2),
            },
            "--bodies-per-rank" => match want("a count").and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => cfg.bodies_per_rank = n,
                _ => return ExitCode::from(2),
            },
            "--strong-bodies" => match want("a count").and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => cfg.strong_bodies = n,
                _ => return ExitCode::from(2),
            },
            "--mode" => match want("weak|strong|both").as_deref() {
                Some("weak") => cfg.modes = vec![Mode::Weak],
                Some("strong") => cfg.modes = vec![Mode::Strong],
                Some("both") => cfg.modes = vec![Mode::Weak, Mode::Strong],
                _ => return ExitCode::from(2),
            },
            "--fabric" => match want("lam|xbar|both").as_deref() {
                Some("lam") => cfg.fabrics = vec![FabricKind::Lam],
                Some("xbar") => cfg.fabrics = vec![FabricKind::Xbar],
                Some("both") => cfg.fabrics = vec![FabricKind::Lam, FabricKind::Xbar],
                _ => return ExitCode::from(2),
            },
            "--curves" => curves = true,
            "--floor" => match parse_floor(&want("SCENARIO:METRIC:MIN").unwrap_or_default()) {
                Ok(floor) => floors.push(floor),
                Err(e) => {
                    eprintln!("{e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if cfg.ranks.is_empty() {
        eprintln!("--max-ranks left no rank counts to sweep\n{USAGE}");
        return ExitCode::from(2);
    }

    let report = run_sweep(&cfg);

    print!("{}", summary_table("scaling_sweep curves", &report));
    if curves {
        for &mode in &cfg.modes {
            for &fabric in &cfg.fabrics {
                print!("{}", bench::scaling::render_curve(&report, mode, fabric));
            }
        }
    }

    let json = to_json(&report);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path} (schema v{})", report.schema_version);

    let broken = check_floors(&report, &floors);
    if broken.is_empty() {
        if !floors.is_empty() {
            println!("{} floor(s) held", floors.len());
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("FLOOR VIOLATIONS ({}):", broken.len());
        for b in &broken {
            eprintln!("  {b}");
        }
        ExitCode::FAILURE
    }
}
