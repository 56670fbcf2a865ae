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

/// What the command line asked for.
struct Opts {
    cfg: SweepConfig,
    out_path: String,
    curves: bool,
    floors: Vec<(String, String, f64)>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        cfg: SweepConfig::default(),
        out_path: "BENCH_scaling.json".to_string(),
        curves: false,
        floors: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{a} wants {what}"));
        let count = |v: &String, min: usize| match v.parse::<usize>() {
            Ok(n) if n >= min => Ok(n),
            _ => Err(format!("{a} wants a count of at least {min}, got {v:?}")),
        };
        match a.as_str() {
            "--out" => o.out_path = value("a path")?.clone(),
            "--max-ranks" => {
                let max = count(value("a count")?, 0)?;
                o.cfg = o.cfg.capped(max);
            }
            "--steps" => o.cfg.steps = count(value("a count")?, 1)? as u64,
            "--bodies-per-rank" => o.cfg.bodies_per_rank = count(value("a count")?, 1)?,
            "--strong-bodies" => o.cfg.strong_bodies = count(value("a count")?, 1)?,
            "--mode" => {
                o.cfg.modes = match value("weak|strong|both")?.as_str() {
                    "weak" => vec![Mode::Weak],
                    "strong" => vec![Mode::Strong],
                    "both" => vec![Mode::Weak, Mode::Strong],
                    other => return Err(format!("{a} wants weak|strong|both, got {other:?}")),
                }
            }
            "--fabric" => {
                o.cfg.fabrics = match value("lam|xbar|both")?.as_str() {
                    "lam" => vec![FabricKind::Lam],
                    "xbar" => vec![FabricKind::Xbar],
                    "both" => vec![FabricKind::Lam, FabricKind::Xbar],
                    other => return Err(format!("{a} wants lam|xbar|both, got {other:?}")),
                }
            }
            "--curves" => o.curves = true,
            "--floor" => o.floors.push(parse_floor(value("SCENARIO:METRIC:MIN")?)?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if o.cfg.ranks.is_empty() {
        return Err("--max-ranks left no rank counts to sweep".to_string());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Opts {
        cfg,
        out_path,
        curves,
        floors,
    } = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

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
