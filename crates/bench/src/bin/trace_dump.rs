//! Dump the virtual-time trace of the golden treecode16 run, or diff two
//! previously captured artifacts.
//!
//! Runs `cluster::ics::golden_run` — the run behind the committed
//! snapshots in `crates/cluster/tests/golden/` and the ledger's
//! `treecode16` scenario — with tracing and the timeline on, then
//! prints the merged world timeline in whichever export formats are
//! requested:
//!
//! ```bash
//! cargo run --release -p bench --bin trace_dump                # summary + gantt + analysis
//! cargo run --release -p bench --bin trace_dump -- --chrome    # trace_event JSON
//! cargo run --release -p bench --bin trace_dump -- --gantt
//! cargo run --release -p bench --bin trace_dump -- --summary
//! cargo run --release -p bench --bin trace_dump -- --analysis  # critical path + efficiency
//! cargo run --release -p bench --bin trace_dump -- --timeline-csv   # windowed series, CSV
//! cargo run --release -p bench --bin trace_dump -- --timeline-json  # windowed series, JSON
//! cargo run --release -p bench --bin trace_dump -- --sparkline      # text exhibit
//! ```
//!
//! Flags combine: `--summary --analysis` prints both, in flag order.
//! The `--chrome` output loads in `chrome://tracing` / Perfetto: one
//! row per rank, span nesting preserved, timestamps in virtual
//! microseconds. Because the run uses `Machine::ideal` and a
//! deterministic retransmit plan, the bytes printed are identical on
//! every invocation — `--summary` reproduces the committed
//! `treecode16.summary` byte for byte, which CI checks.
//!
//! Diff mode compares two structural summaries captured with
//! `--summary` (committed goldens work too) and names the top regressed
//! segments — per-phase span time, per-link-class critical-path wire
//! time, efficiency factors — exiting nonzero when anything regressed
//! beyond the tolerance:
//!
//! ```bash
//! trace_dump --diff old.summary new.summary --max-regress 5
//! ```
//!
//! The trace is validated with `check_invariants` before printing; a
//! malformed trace exits nonzero, so CI can use any `trace_dump`
//! invocation as a structural smoke test.

use cluster::chaos::ChaosConfig;
use cluster::ics::{golden_chaos, golden_plan, golden_run, GOLDEN_STEPS, GOLDEN_TIMELINE_WINDOW_S};
use std::process::ExitCode;

const USAGE: &str = "usage: trace_dump [--summary] [--gantt] [--chrome] [--analysis] \
[--timeline-csv] [--timeline-json] [--sparkline]\n\
       trace_dump --diff OLD NEW [--max-regress PCT]";

fn run_diff(args: &[String]) -> ExitCode {
    let (mut old, mut new, mut max_regress) = (None, None, 5.0f64);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-regress" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_regress = v,
                None => {
                    eprintln!("--max-regress needs a numeric percent\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            _ if old.is_none() => old = Some(a.clone()),
            _ if new.is_none() => new = Some(a.clone()),
            _ => {
                eprintln!("unexpected diff argument {a:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(old), Some(new)) = (old, new) else {
        eprintln!("--diff needs OLD and NEW paths\n{USAGE}");
        return ExitCode::from(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let (old_text, new_text) = (read(&old), read(&new));
    let d = obs::diff_summaries(&old_text, &new_text);
    let (text, regressed) = obs::render_diff(&d, max_regress);
    print!("{text}");
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        return run_diff(&args[1..]);
    }
    let mut modes = args;
    for m in &modes {
        if !matches!(
            m.as_str(),
            "--summary"
                | "--gantt"
                | "--chrome"
                | "--analysis"
                | "--timeline-csv"
                | "--timeline-json"
                | "--sparkline"
        ) {
            eprintln!("unknown flag {m:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if modes.is_empty() {
        modes = vec![
            "--summary".to_string(),
            "--gantt".to_string(),
            "--analysis".to_string(),
        ];
    }

    let chaos = ChaosConfig {
        timeline_window_s: Some(GOLDEN_TIMELINE_WINDOW_S),
        ..golden_chaos()
    };
    let (_, report, trace) = golden_run(&golden_plan(), &chaos, GOLDEN_STEPS);
    assert!(report.completed, "trace_dump run did not complete");
    let trace = trace.expect("completed traced run always yields a trace");

    if let Err(e) = trace.check_invariants() {
        eprintln!("trace invariant violated: {e}");
        return ExitCode::FAILURE;
    }
    let timeline = obs::WorldTimeline::from_trace(&trace)
        .expect("timeline armed on every rank of the dump run");
    if let Err(e) = timeline.check_invariants(&trace) {
        eprintln!("timeline invariant violated: {e}");
        return ExitCode::FAILURE;
    }

    for mode in &modes {
        let text = match mode.as_str() {
            "--chrome" => obs::export::chrome_trace_json(&trace),
            "--gantt" => obs::export::gantt(&trace, 100),
            "--summary" => obs::export::structural_summary(&trace),
            "--analysis" => obs::analysis_report(&trace),
            "--timeline-csv" => obs::timeline_csv(&timeline),
            "--timeline-json" => obs::timeline_json(&timeline),
            "--sparkline" => obs::sparkline(&timeline),
            _ => unreachable!("flags validated above"),
        };
        // Exactly the export's bytes (the committed goldens are these),
        // newline-terminated.
        print!("{text}{}", if text.ends_with('\n') { "" } else { "\n" });
    }
    ExitCode::SUCCESS
}
