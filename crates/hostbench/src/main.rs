//! The repo's benchmark: host CPU-seconds and virtual seconds on five
//! workloads, with a per-layer replay trace. See the README beside
//! this crate's manifest for every metric name and what moves it.
//!
//!     cargo run --release -p hostbench -- run --seed 42
//!     cargo run --release -p hostbench -- trace --seed 42
//!     cargo run --release -p hostbench -- repeat --seed 42
//!     cargo run --release -p hostbench -- \
//!         --workload serial_cosmo --seed 7 --seconds 10 --trace 0
//!
//! The last form is the one-workload, one-result-line contract of
//! `BENCHMARK.json`.

mod child;
mod driver;
mod host;
mod json;
mod layers;
mod metrics;
mod span;
mod stats;
mod workloads;

use driver::{Stop, SuiteConfig};
use json::Value;
use metrics::{END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::NAMES;

/// Timed repetitions per workload of `run` and `repeat` (`--smoke`
/// makes one). Odd, so the median is a sample. Nine left `host_cpu_s`
/// unresolved at its 10 % bound on four of five workloads (README,
/// "Steadiness"); fifteen is as far as the issue lets it go before a
/// bound has to move instead.
const REPS: usize = 15;

/// Children per workload in contract mode: each gives one set-up and
/// one peak-RSS sample, so both are medians of three.
const CONTRACT_CHILDREN: usize = 3;

const USAGE: &str = "usage:
  hostbench run    [--seed N] [--smoke]   timed reps of all five workloads, oracles, results file, traced pass
  hostbench trace  [--seed N] [--smoke]   one traced pass per workload: per-layer metrics, span files
  hostbench repeat [--seed N] [--smoke]   the suite twice, compared under the benchmark's own bounds
  hostbench --workload NAME --seed N --seconds S --trace 0|1
                                          one workload, one JSON result line (BENCHMARK.json contract)
  --smoke: sizes / 32 and one timed repetition";

#[derive(Default)]
struct Args {
    command: Option<String>,
    /// The word after `workload` (internal child invocation).
    child: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        ..Default::default()
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match a.as_str() {
            "--seed" => {
                args.seed = value(a)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(a)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--workload" => args.workload = Some(value(a)?),
            "--smoke" => args.smoke = true,
            "workload" if args.command.is_none() => {
                args.command = Some(a.clone());
                args.child = Some(value(a)?);
            }
            "run" | "trace" | "repeat" if args.command.is_none() => args.command = Some(a.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(args)
}

/// The one result line of the benchmark contract.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&str, &str, f64)>,
) -> String {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::obj(metrics.into_iter().map(|(name, unit, value)| {
                (
                    name,
                    Value::obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(unit.to_string())),
                    ]),
                )
            })),
        ),
    ])
    .to_line()
}

fn contract(args: &Args) -> Result<bool, String> {
    let workload = args.workload.as_deref().expect("checked by the caller");
    if !NAMES.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; the five are {NAMES:?}"
        ));
    }
    let seconds = args.seconds.ok_or("--workload needs --seconds")?;
    let dir = driver::out_dir();
    if args.trace == Some(true) {
        let trace = driver::trace_suite(args.seed, args.smoke, &dir, Some(workload))?;
        trace.print();
        let base = &trace.workloads[workload].base;
        let metrics = PER_LAYER
            .iter()
            .map(|l| (l.name, l.unit, trace.value(l, workload)))
            .collect();
        for note in &base.notes {
            println!("! {note}");
        }
        let correct = base.failed == 0 && base.attempted > 0;
        println!(
            "{}",
            result_line(correct, base.attempted, base.failed, metrics)
        );
        return Ok(correct);
    }
    let suite = driver::run_suite(&SuiteConfig {
        workloads: &[workload],
        seed: args.seed,
        smoke: args.smoke,
        children: CONTRACT_CHILDREN,
        stop: Stop::Seconds(seconds),
        calibrate: false,
    })?;
    driver::print_suite(&suite);
    let w = &suite.workloads[0];
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, w.value(m.name)))
        .collect();
    println!(
        "{}",
        result_line(suite.correct(), w.attempted.max(1), w.failed, metrics)
    );
    Ok(suite.correct())
}

fn subcommand(command: &str, args: &Args) -> Result<bool, String> {
    let dir = driver::out_dir();
    let cfg = SuiteConfig {
        workloads: &NAMES,
        seed: args.seed,
        smoke: args.smoke,
        children: 1,
        stop: Stop::Reps(if args.smoke { 1 } else { REPS }),
        calibrate: true,
    };
    match command {
        "run" => {
            // End-to-end numbers first, tracing off, printed and on
            // disk before the traced pass starts: nothing that goes
            // wrong in that pass can take them or the oracles' verdict
            // away.
            let suite = driver::run_suite(&cfg)?;
            driver::print_suite(&suite);
            let file = format!("results-{}.json", args.seed);
            let mut doc = suite.to_json();
            let path = driver::write_file(&dir, &file, &doc)?;
            println!("end-to-end results written to {}", path.display());
            let trace = driver::trace_suite(args.seed, args.smoke, &dir, None).map_err(|e| {
                format!("the traced pass failed, so there are no per-layer metrics (the end-to-end results above stand): {e}")
            })?;
            trace.print();
            if let Value::Obj(pairs) = &mut doc {
                pairs.push(("per_layer".to_string(), trace.to_json()));
            }
            driver::write_file(&dir, &file, &doc)?;
            println!("per-layer results added to it; span files are beside it");
            Ok(suite.correct())
        }
        "trace" => {
            let trace = driver::trace_suite(args.seed, args.smoke, &dir, None)?;
            trace.print();
            println!("span files written to {}", dir.display());
            Ok(true)
        }
        "repeat" => driver::repeat(&cfg),
        _ => unreachable!("parse_args admits no other command"),
    }
}

fn main() -> ExitCode {
    if !host::SUPPORTED {
        eprintln!(
            "hostbench: reads Linux CPU-time clocks and /proc; it measures on 64-bit Linux only"
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.command, &args.child, &args.workload) {
        (Some(_), Some(name), _) => child::run(name, args.seed, args.smoke).map(|()| true),
        (Some(command), None, None) => subcommand(command, &args),
        (None, None, Some(_)) => contract(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        // Metrics are printed either way; the exit code says whether
        // every oracle passed (and, for `repeat`, every pair was `ok`).
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) if args.command.as_deref() == Some("repeat") => {
            eprintln!("hostbench: the two runs do not agree within the bounds on every pair");
            ExitCode::FAILURE
        }
        Ok(false) => {
            eprintln!("hostbench: an oracle failed (failed_ops_share > 0)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse_args(&argv(
            "--workload serial_cosmo --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serial_cosmo"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), Some(true)));
        assert!(a.command.is_none());
        let a = parse_args(&argv("run --seed 3 --smoke")).unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!((a.seed, a.smoke), (3, true));
        let a = parse_args(&argv("workload layers --seed 1")).unwrap();
        assert_eq!(a.child.as_deref(), Some("layers"));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds nan",
            "--reps 5",
            "run trace",
            "frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 1000, 0, vec![("setup_s", "s", 0.8127)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
    }
}
