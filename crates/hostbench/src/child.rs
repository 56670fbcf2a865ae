//! The workload side of the process model: one long-lived process per
//! workload that sets up, warms up, and then answers one command per
//! line on stdin with one JSON line on stdout. Repetitions of different
//! workloads therefore interleave round-robin under the driver, an idle
//! child burns no CPU, and peak memory is per workload.
//!
//! Commands: `go` (one timed repetition), `verify` (oracle on the last
//! repetition's full output), `trace <rep_cpu_s> <span file>` (the
//! traced pass). The child exits when its stdin closes.

use crate::host::{peak_rss_mb, process_cpu_s};
use crate::json::Value;
use crate::layers;
use crate::span::Recorder;
use crate::workloads::hot_distributed::HotDistributed;
use crate::workloads::query_service::QueryService;
use crate::workloads::serial_cosmo::SerialCosmo;
use crate::workloads::sph_collapse::SphCollapse;
use crate::workloads::treecode::Treecode;
use crate::workloads::{Check, Metrics, Rep, Workload};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The pseudo-workload name under which the workload-independent layer
/// replays and the host calibration run in a child of their own.
pub const LAYERS: &str = "layers";

pub fn run(name: &str, seed: u64, smoke: bool) -> Result<(), String> {
    match name {
        Treecode::NAME => serve::<Treecode>(seed, smoke),
        HotDistributed::NAME => serve::<HotDistributed>(seed, smoke),
        QueryService::NAME => serve::<QueryService>(seed, smoke),
        SerialCosmo::NAME => serve::<SerialCosmo>(seed, smoke),
        SphCollapse::NAME => serve::<SphCollapse>(seed, smoke),
        LAYERS => serve_layers(seed, smoke),
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(())
}

fn reply(v: Value) {
    let mut out = std::io::stdout().lock();
    // The driver closing the pipe early is its decision, not an error
    // worth a panic message on top of whatever made it do so.
    let _ = writeln!(out, "{}", v.to_line());
    let _ = out.flush();
}

fn metrics_json(m: &Metrics) -> Value {
    Value::obj(m.iter().map(|(k, v)| (*k, Value::Num(*v))))
}

fn write_spans(rec: &Recorder, path: &str) -> Result<(), String> {
    std::fs::write(path, rec.to_json().to_pretty()).map_err(|e| format!("write {path}: {e}"))
}

fn self_times_json(rec: &Recorder) -> Value {
    Value::Arr(
        rec.self_times()
            .into_iter()
            .map(|((clock, name), s)| {
                Value::obj([
                    ("name", Value::Str(name)),
                    ("clock", Value::Str(clock.name().to_string())),
                    ("self_s", Value::Num(s)),
                ])
            })
            .collect(),
    )
}

fn commands() -> impl Iterator<Item = String> {
    std::io::stdin().lock().lines().map_while(Result::ok)
}

/// `trace <rep_cpu_s> <span file>`: the file is the rest of the line,
/// spaces and all, since it lies under a directory the user names
/// (`CARGO_TARGET_DIR`).
fn trace_command(line: &str) -> Option<(f64, &str)> {
    let (rep_cpu_s, path) = line.strip_prefix("trace ")?.split_once(' ')?;
    (!path.is_empty()).then_some((rep_cpu_s.parse().ok()?, path))
}

fn serve<W: Workload>(seed: u64, smoke: bool) {
    let w = W::setup(seed, smoke);
    // A panicking repetition is a failed repetition, not a dead child:
    // the driver still wants the other numbers.
    let guarded_rep = || catch_unwind(AssertUnwindSafe(|| w.rep())).ok();
    let mut last: Option<Rep<W::Output>> = guarded_rep();
    reply(Value::obj([
        ("ready", Value::Bool(last.is_some())),
        // Process start to here: input generation, machine
        // construction, the warm-up repetition.
        ("setup_s", Value::Num(process_cpu_s())),
        ("operations", Value::Num(w.operations() as f64)),
        ("digest_repeats", Value::Bool(W::DIGEST_REPEATS)),
        ("vtime_repeats", Value::Bool(W::VTIME_REPEATS)),
    ]));

    for line in commands() {
        match line.split_ascii_whitespace().next() {
            Some("go") => {
                let cpu0 = process_cpu_s();
                let t0 = Instant::now();
                last = guarded_rep();
                let cpu_s = process_cpu_s() - cpu0;
                let wall_s = t0.elapsed().as_secs_f64();
                reply(match &last {
                    None => Value::obj([("panicked", Value::Bool(true))]),
                    Some(rep) => Value::obj([
                        ("cpu_s", Value::Num(cpu_s)),
                        ("wall_s", Value::Num(wall_s)),
                        ("vtime_s", Value::Num(rep.vtime_s)),
                        // High-water mark so far: the oracle, which runs
                        // later in this process, stays out of it.
                        ("peak_rss_mb", Value::Num(peak_rss_mb())),
                        // As hex text: a u64 does not fit a JSON number.
                        ("digest", Value::Str(format!("{:016x}", rep.digest))),
                        (
                            "counts",
                            Value::obj(rep.counts.iter().map(|(k, v)| (*k, Value::Num(*v as f64)))),
                        ),
                    ]),
                });
            }
            Some("verify") => {
                let check = last
                    .as_ref()
                    .and_then(|rep| catch_unwind(AssertUnwindSafe(|| w.verify(&rep.output))).ok())
                    .unwrap_or_else(|| {
                        let mut c = Check::new(w.operations());
                        c.require(false, || {
                            "no output to verify: the repetition or its oracle panicked".to_string()
                        });
                        c
                    });
                reply(Value::obj([
                    ("attempted", Value::Num(check.attempted as f64)),
                    ("failed", Value::Num(check.failed as f64)),
                    (
                        "notes",
                        Value::Arr(check.notes.into_iter().map(Value::Str).collect()),
                    ),
                ]));
            }
            Some("trace") => {
                let Some((rep_cpu_s, path)) = trace_command(&line) else {
                    reply(Value::obj([(
                        "error",
                        Value::Str(format!("bad command {line:?}")),
                    )]));
                    continue;
                };
                let mut rec = Recorder::new(W::NAME);
                let traced = catch_unwind(AssertUnwindSafe(|| w.trace(&mut rec, rep_cpu_s)));
                reply(match traced {
                    Err(_) => Value::obj([("panicked", Value::Bool(true))]),
                    Ok(m) => match write_spans(&rec, path) {
                        Err(e) => Value::obj([("error", Value::Str(e))]),
                        Ok(()) => Value::obj([
                            ("metrics", metrics_json(&m)),
                            ("self_times", self_times_json(&rec)),
                            (
                                "counts",
                                Value::obj(
                                    rec.counts
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Value::Num(*v as f64))),
                                ),
                            ),
                        ]),
                    },
                });
            }
            _ => reply(Value::obj([(
                "error",
                Value::Str(format!("unknown command {line:?}")),
            )])),
        }
    }
}

/// The `layers` child knows two commands: `calibrate` and
/// `trace <ignored> <span file>`.
fn serve_layers(seed: u64, smoke: bool) {
    reply(Value::obj([
        ("ready", Value::Bool(true)),
        ("setup_s", Value::Num(process_cpu_s())),
        ("operations", Value::Num(0.0)),
    ]));
    for line in commands() {
        match (line.as_str(), trace_command(&line)) {
            ("calibrate", _) => {
                reply(Value::obj([(
                    "metrics",
                    metrics_json(&layers::calibration(seed, smoke)),
                )]));
            }
            (_, Some((_, path))) => {
                let mut rec = Recorder::new(LAYERS);
                let m = layers::replay(&mut rec, seed, smoke);
                reply(match write_spans(&rec, path) {
                    Err(e) => Value::obj([("error", Value::Str(e))]),
                    Ok(()) => Value::obj([
                        ("metrics", metrics_json(&m)),
                        ("self_times", self_times_json(&rec)),
                    ]),
                });
            }
            _ => reply(Value::obj([(
                "error",
                Value::Str(format!("unknown command {line:?}")),
            )])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::trace_command;

    #[test]
    fn the_span_file_is_the_rest_of_the_trace_line() {
        assert_eq!(
            trace_command("trace 1.25 /tmp/my build/hostbench/trace-x.json"),
            Some((1.25, "/tmp/my build/hostbench/trace-x.json"))
        );
        assert_eq!(trace_command("trace 0 t.json"), Some((0.0, "t.json")));
        for bad in ["trace", "trace 1.25", "trace 1.25 ", "trace x t.json", "go"] {
            assert_eq!(trace_command(bad), None, "{bad}");
        }
    }
}
