//! The driver side of the process model. It is single-threaded as far
//! as the measurement goes: it spawns one long-lived child per workload
//! (several of the same workload when it wants several set-up samples),
//! hands out one `go` at a time round-robin, and aggregates medians.
//! The one helper thread per child only blocks on the child's stdout so
//! that a repetition that hangs can be timed out and counted as failed
//! instead of hanging the benchmark; it never runs while a child
//! computes.

use crate::child::LAYERS;
use crate::json::{self, Value};
use crate::metrics::{Layer, Source, END_TO_END, PER_LAYER};
use crate::stats::{max, median, min, spread};
use crate::workloads::NAMES;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// No repetition, oracle or traced pass of these sizes takes a tenth of
/// this on a loaded 2-core box; past it the child is hung.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(90);

/// `run.rep_spread` above this, or a calibration number that moved by
/// more than `CALIBRATION_DRIFT` across the suite, marks results NOISY.
const NOISY_SPREAD: f64 = 0.15;
const CALIBRATION_DRIFT: f64 = 0.10;

/// Where result and span files go: next to the build, inside the
/// checkout.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("hostbench")
}

struct Proc {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Proc {
    /// Start a child and wait for its `ready` line: set-up and warm-up
    /// are done when this returns.
    fn spawn(workload: &str, seed: u64, smoke: bool) -> Result<(Proc, Value), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["workload", workload, "--seed", &seed.to_string()]);
        if smoke {
            cmd.arg("--smoke");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {workload} child: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut proc = Proc {
            child,
            stdin,
            lines,
            reader: Some(reader),
        };
        let ready = proc.read()?;
        Ok((proc, ready))
    }

    fn read(&mut self) -> Result<Value, String> {
        let line = self
            .lines
            .recv_timeout(REQUEST_TIMEOUT)
            .map_err(|e| format!("no answer from child: {e}"))?;
        let v = json::parse(&line).map_err(|e| format!("child said {line:?}: {e}"))?;
        if let Some(e) = v.get("error").and_then(Value::as_str) {
            return Err(e.to_string());
        }
        Ok(v)
    }

    fn request(&mut self, command: &str) -> Result<Value, String> {
        let stdin = self.stdin.as_mut().ok_or("child already closed")?;
        writeln!(stdin, "{command}").map_err(|e| format!("write to child: {e}"))?;
        self.read()
    }
}

impl Drop for Proc {
    /// Every process started is stopped and waited for, on every path:
    /// closing stdin is the exit command, and a child that does not
    /// take it (hung in a repetition) is killed.
    fn drop(&mut self) {
        self.stdin = None;
        let deadline = Instant::now() + Duration::from_secs(5);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("child answer lacks {key:?}: {}", v.to_line()))
}

fn map_from(v: Option<&Value>) -> BTreeMap<String, f64> {
    v.and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

fn map_json(m: &BTreeMap<String, f64>) -> Value {
    Value::obj(m.iter().map(|(k, v)| (k.clone(), Value::Num(*v))))
}

fn nums_json(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().map(|x| Value::Num(*x)).collect())
}

/// When to stop handing out repetitions.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many timed repetitions per child.
    Reps(usize),
    /// After measuring for this long (every child gets at least one).
    Seconds(f64),
}

/// One timed repetition as the child reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct RepSample {
    pub cpu_s: f64,
    pub wall_s: f64,
    pub vtime_s: f64,
    pub digest: String,
    pub counts: BTreeMap<String, f64>,
}

impl RepSample {
    /// `Ok(None)` for a repetition that panicked in the child.
    fn from_reply(v: &Value) -> Result<Option<RepSample>, String> {
        if v.get("panicked").is_some() {
            return Ok(None);
        }
        Ok(Some(RepSample {
            cpu_s: num(v, "cpu_s")?,
            wall_s: num(v, "wall_s")?,
            vtime_s: num(v, "vtime_s")?,
            digest: v
                .get("digest")
                .and_then(Value::as_str)
                .ok_or("repetition lacks a digest")?
                .to_string(),
            counts: map_from(v.get("counts")),
        }))
    }
}

/// Everything measured about one workload in one suite run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    pub name: String,
    /// Operations one repetition attempts.
    pub operations: u64,
    pub reps: Vec<RepSample>,
    /// Repetitions that panicked, hung or whose child died.
    pub lost_reps: u64,
    /// One sample per child: CPU-seconds from process start to `ready`.
    pub setup_s: Vec<f64>,
    /// One sample per child: `VmHWM` after its last timed repetition,
    /// before any oracle ran in it.
    pub peak_rss_mb: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub noisy: bool,
}

impl WorkloadResult {
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        match metric {
            "host_cpu_s" => self.reps.iter().map(|r| r.cpu_s).collect(),
            "vtime_s" => self.reps.iter().map(|r| r.vtime_s).collect(),
            "wall_s" => self.reps.iter().map(|r| r.wall_s).collect(),
            "peak_rss_mb" => self.peak_rss_mb.clone(),
            "setup_s" => self.setup_s.clone(),
            other => panic!("no samples named {other}"),
        }
    }

    /// Median of an end-to-end metric; NaN when nothing was measured.
    pub fn value(&self, metric: &str) -> f64 {
        let xs = self.samples(metric);
        if xs.is_empty() {
            f64::NAN
        } else {
            median(&xs)
        }
    }

    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The oracles and the repeat-exactly checks over the timed reps.
    /// `verdict` is the child's answer to `verify` for its last rep.
    fn account(&mut self, digest_repeats: bool, vtime_repeats: bool, verdict: Option<&Value>) {
        let ops = self.operations;
        self.attempted = ops * (self.reps.len() as u64 + self.lost_reps);
        self.failed = ops * self.lost_reps;
        if self.lost_reps > 0 {
            self.notes
                .push(format!("{} repetitions panicked or hung", self.lost_reps));
        }
        let Some(first) = self.reps.first() else {
            return;
        };
        let odd_reps = self
            .reps
            .iter()
            .filter(|r| {
                (digest_repeats && r.digest != first.digest)
                    || (vtime_repeats && r.vtime_s.to_bits() != first.vtime_s.to_bits())
            })
            .count() as u64;
        if odd_reps > 0 {
            self.failed += ops * odd_reps;
            self.notes.push(format!(
                "{odd_reps} repetitions did not reproduce the first one's output digest or virtual time"
            ));
        }
        match verdict {
            Some(v) => {
                // The verified rep is already in `attempted`.
                self.failed += num(v, "failed").unwrap_or(ops as f64) as u64;
                if let Some(notes) = v.get("notes").and_then(Value::as_arr) {
                    self.notes
                        .extend(notes.iter().filter_map(|n| n.as_str().map(str::to_string)));
                }
            }
            None => {
                self.failed += ops;
                self.notes.push("the oracle gave no verdict".to_string());
            }
        }
        self.failed = self.failed.min(self.attempted);
    }
}

/// One run of (part of) the suite.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Suite {
    pub seed: u64,
    pub workloads: Vec<WorkloadResult>,
    /// The three `kernels.*` numbers before and after, when taken.
    pub calibration: Vec<BTreeMap<String, f64>>,
    /// A calibration number moved by more than the drift bound.
    pub host_changed: bool,
}

impl Suite {
    pub fn correct(&self) -> bool {
        self.workloads
            .iter()
            .all(|w| w.failed == 0 && w.attempted > 0)
    }
}

pub struct SuiteConfig<'a> {
    pub workloads: &'a [&'a str],
    pub seed: u64,
    pub smoke: bool,
    /// Children per workload: each is one set-up and one peak-RSS sample.
    pub children: usize,
    pub stop: Stop,
    /// Take the `kernels.*` calibration before and after.
    pub calibrate: bool,
}

/// One child of a suite run. `proc` is `None` once it hung or died.
struct Live {
    proc: Option<Proc>,
    workload: usize,
    peak_rss_mb: Option<f64>,
}

fn calibrate(seed: u64, smoke: bool) -> Result<BTreeMap<String, f64>, String> {
    let (mut p, _) = Proc::spawn(LAYERS, seed, smoke)?;
    Ok(map_from(p.request("calibrate")?.get("metrics")))
}

/// Run the timed, untraced repetitions: the end-to-end numbers.
pub fn run_suite(cfg: &SuiteConfig) -> Result<Suite, String> {
    let mut suite = Suite {
        seed: cfg.seed,
        ..Default::default()
    };
    if cfg.calibrate {
        suite.calibration.push(calibrate(cfg.seed, cfg.smoke)?);
    }

    // Set-up, one child at a time so that set-ups do not share the box.
    let mut live: Vec<Live> = Vec::new();
    let mut repeats: Vec<(bool, bool)> = Vec::new();
    for (wi, name) in cfg.workloads.iter().enumerate() {
        let mut result = WorkloadResult {
            name: name.to_string(),
            ..Default::default()
        };
        let mut flags = (false, false);
        for _ in 0..cfg.children {
            let (proc, ready) = Proc::spawn(name, cfg.seed, cfg.smoke)?;
            result.operations = num(&ready, "operations")? as u64;
            result.setup_s.push(num(&ready, "setup_s")?);
            flags = (
                ready.get("digest_repeats").and_then(Value::as_bool) == Some(true),
                ready.get("vtime_repeats").and_then(Value::as_bool) == Some(true),
            );
            if ready.get("ready").and_then(Value::as_bool) != Some(true) {
                result
                    .notes
                    .push("the warm-up repetition panicked".to_string());
            }
            live.push(Live {
                proc: Some(proc),
                workload: wi,
                peak_rss_mb: None,
            });
        }
        repeats.push(flags);
        suite.workloads.push(result);
    }

    // Timed repetitions, round-robin across every child.
    let started = Instant::now();
    let mut round = 0;
    'rounds: loop {
        for l in &mut live {
            if let Stop::Seconds(s) = cfg.stop {
                if round > 0 && started.elapsed().as_secs_f64() >= s {
                    break 'rounds;
                }
            }
            let result = &mut suite.workloads[l.workload];
            let Some(proc) = l.proc.as_mut() else {
                result.lost_reps += 1;
                continue;
            };
            match proc.request("go") {
                Ok(v) => match RepSample::from_reply(&v)? {
                    Some(rep) => {
                        result.reps.push(rep);
                        l.peak_rss_mb = v.get("peak_rss_mb").and_then(Value::as_f64);
                    }
                    None => result.lost_reps += 1,
                },
                Err(e) => {
                    // Hung or dead: stop it (Drop kills and reaps).
                    result.notes.push(e);
                    result.lost_reps += 1;
                    l.proc = None;
                }
            }
        }
        round += 1;
        if matches!(cfg.stop, Stop::Reps(n) if round >= n) {
            break;
        }
    }

    // Oracles run after the timed reps, on the last rep of the last
    // live child of each workload; then every child exits.
    let mut verdicts: Vec<Option<Value>> = vec![None; suite.workloads.len()];
    for l in live.iter_mut().rev() {
        if verdicts[l.workload].is_none() {
            if let Some(proc) = l.proc.as_mut() {
                verdicts[l.workload] = proc.request("verify").ok();
            }
        }
    }
    for l in live {
        suite.workloads[l.workload]
            .peak_rss_mb
            .extend(l.peak_rss_mb);
    }
    for ((w, flags), verdict) in suite.workloads.iter_mut().zip(repeats).zip(&verdicts) {
        w.account(flags.0, flags.1, verdict.as_ref());
        let cpu = w.samples("host_cpu_s");
        w.noisy = cpu.len() > 1 && spread(&cpu) > NOISY_SPREAD;
    }

    if cfg.calibrate {
        suite.calibration.push(calibrate(cfg.seed, cfg.smoke)?);
        let (before, after) = (&suite.calibration[0], &suite.calibration[1]);
        suite.host_changed = before.iter().any(|(k, b)| {
            k.starts_with("kernels.")
                && after
                    .get(k)
                    .is_none_or(|a| (a - b).abs() > CALIBRATION_DRIFT * b.abs())
        });
    }
    Ok(suite)
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// `1.234 [1.200 .. 1.300] n=9`
fn summary(xs: &[f64]) -> String {
    if xs.is_empty() {
        return "not measured".to_string();
    }
    format!(
        "{:<12.6} [{:.6} .. {:.6}] n={}",
        median(xs),
        min(xs),
        max(xs),
        xs.len()
    )
}

/// Print every end-to-end metric of every workload by name, with unit
/// and clock, the sample count and the range beside each median.
pub fn print_suite(suite: &Suite) {
    println!(
        "end-to-end, seed {}, {} hardware threads (median [min .. max] n=samples)",
        suite.seed,
        parallelism()
    );
    for w in &suite.workloads {
        let flag = if w.noisy || suite.host_changed {
            "  NOISY"
        } else {
            ""
        };
        println!("{}{flag}", w.name);
        for m in &END_TO_END {
            println!(
                "  {:<18} {:<4} {:<8} {}",
                m.name,
                m.unit,
                m.clock.name(),
                summary(&w.samples(m.name)),
            );
        }
        // Reported, not gated: wall time does not repeat on a shared box.
        println!(
            "  {:<18} {:<4} {:<8} {}",
            "wall_s",
            "s",
            "host",
            summary(&w.samples("wall_s"))
        );
        let cpu: Vec<String> = w.reps.iter().map(|r| format!("{:.4}", r.cpu_s)).collect();
        println!("  host_cpu_s per rep: {}", cpu.join(" "));
        println!(
            "  {:<18} {:<13} {} ({} of {} operations failed)",
            "failed_ops_share",
            "fraction",
            w.failed_ops_share(),
            w.failed,
            w.attempted
        );
        let mut counts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in &w.reps {
            for (k, v) in &r.counts {
                counts.entry(k).or_default().push(*v);
            }
        }
        for (k, vs) in counts {
            let exact = if min(&vs) == max(&vs) {
                "same every rep"
            } else {
                "varies"
            };
            println!("  {k:<28} count    {} ({exact})", median(&vs));
        }
        for note in &w.notes {
            println!("  ! {note}");
        }
    }
    if let [before, after] = suite.calibration.as_slice() {
        println!("host calibration before -> after the suite");
        for (k, b) in before {
            let a = after.get(k).copied().unwrap_or(f64::NAN);
            println!("  {k:<28} {b:.4} -> {a:.4}");
        }
        if suite.host_changed {
            println!(
                "  NOISY: a kernels.* number moved by more than {:.0} %; the box changed under the suite",
                CALIBRATION_DRIFT * 100.0
            );
        }
    }
}

impl Suite {
    /// The results file: medians first for people, every sample after
    /// for tools.
    pub fn to_json(&self) -> Value {
        let workloads = self.workloads.iter().map(|w| {
            let medians = END_TO_END
                .iter()
                .map(|m| (m.name, Value::Num(w.value(m.name))));
            let reps = w.reps.iter().map(|r| {
                Value::obj([
                    ("cpu_s", Value::Num(r.cpu_s)),
                    ("wall_s", Value::Num(r.wall_s)),
                    ("vtime_s", Value::Num(r.vtime_s)),
                    ("digest", Value::Str(r.digest.clone())),
                    ("counts", map_json(&r.counts)),
                ])
            });
            Value::obj([
                ("name", Value::Str(w.name.clone())),
                ("noisy", Value::Bool(w.noisy || self.host_changed)),
                ("medians", Value::obj(medians)),
                ("failed_ops_share", Value::Num(w.failed_ops_share())),
                ("operations", Value::Num(w.operations as f64)),
                ("attempted", Value::Num(w.attempted as f64)),
                ("failed", Value::Num(w.failed as f64)),
                ("lost_reps", Value::Num(w.lost_reps as f64)),
                (
                    "notes",
                    Value::Arr(w.notes.iter().cloned().map(Value::Str).collect()),
                ),
                ("setup_s", nums_json(&w.setup_s)),
                ("peak_rss_mb", nums_json(&w.peak_rss_mb)),
                ("reps", Value::Arr(reps.collect())),
            ])
        });
        Value::obj([
            ("seed", Value::Num(self.seed as f64)),
            ("hardware_threads", Value::Num(parallelism() as f64)),
            ("host_changed", Value::Bool(self.host_changed)),
            (
                "calibration",
                Value::Arr(self.calibration.iter().map(map_json).collect()),
            ),
            ("workloads", Value::Arr(workloads.collect())),
        ])
    }
}

pub fn write_file(dir: &Path, name: &str, v: &Value) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, v.to_pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// One workload's traced pass as its child reported it.
#[derive(Default)]
pub struct TracedWorkload {
    pub metrics: BTreeMap<String, f64>,
    /// `(span name, clock, self seconds)`.
    pub self_times: Vec<(String, String, f64)>,
    pub counts: BTreeMap<String, f64>,
    /// The untraced repetitions made for the overhead baseline.
    pub base: WorkloadResult,
}

impl TracedWorkload {
    fn from_reply(v: &Value, base: WorkloadResult) -> TracedWorkload {
        let self_times = v
            .get("self_times")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|e| {
                Some((
                    e.get("name")?.as_str()?.to_string(),
                    e.get("clock")?.as_str()?.to_string(),
                    e.get("self_s")?.as_f64()?,
                ))
            })
            .collect();
        TracedWorkload {
            metrics: map_from(v.get("metrics")),
            self_times,
            counts: map_from(v.get("counts")),
            base,
        }
    }
}

pub struct Trace {
    pub seed: u64,
    pub calibration: BTreeMap<String, f64>,
    pub generic: TracedWorkload,
    pub workloads: BTreeMap<String, TracedWorkload>,
}

/// Untraced repetitions a trace child makes first: the baseline the
/// traced pass's overhead is taken against.
const TRACE_BASE_REPS: usize = 2;

/// The traced pass over all five workloads plus the generic layer
/// replays. Writes one span file per workload into `dir`. `verify`
/// names a workload whose baseline repetitions also go through the
/// oracle.
pub fn trace_suite(
    seed: u64,
    smoke: bool,
    dir: &Path,
    verify: Option<&str>,
) -> Result<Trace, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let span_file = |name: &str| dir.join(format!("trace-{name}.json")).display().to_string();

    let (mut p, _) = Proc::spawn(LAYERS, seed, smoke)?;
    let calibration = map_from(p.request("calibrate")?.get("metrics"));
    let v = p.request(&format!("trace 0 {}", span_file(LAYERS)))?;
    drop(p);
    let generic = TracedWorkload::from_reply(&v, WorkloadResult::default());

    let mut workloads = BTreeMap::new();
    for name in NAMES {
        let (mut proc, ready) = Proc::spawn(name, seed, smoke)?;
        let mut base = WorkloadResult {
            name: name.to_string(),
            operations: num(&ready, "operations")? as u64,
            setup_s: vec![num(&ready, "setup_s")?],
            ..Default::default()
        };
        for _ in 0..TRACE_BASE_REPS {
            match RepSample::from_reply(&proc.request("go")?)? {
                Some(rep) => base.reps.push(rep),
                None => return Err(format!("{name}: a baseline repetition panicked")),
            }
        }
        if verify == Some(name) {
            let verdict = proc.request("verify").ok();
            base.account(false, false, verdict.as_ref());
        }
        let rep_cpu_s = base.value("host_cpu_s");
        let v = proc.request(&format!("trace {rep_cpu_s} {}", span_file(name)))?;
        if v.get("panicked").is_some() {
            return Err(format!("{name}: the traced pass panicked"));
        }
        drop(proc);
        let mut t = TracedWorkload::from_reply(&v, base);
        // The harness's own rows for this workload.
        let cpu = t.base.samples("host_cpu_s");
        let wall = t.base.samples("wall_s");
        let ratios: Vec<f64> = cpu.iter().zip(&wall).map(|(c, w)| c / w).collect();
        let traced_cpu_s = t.metrics.get("traced_cpu_s").copied().unwrap_or(f64::NAN);
        let layer_cpu_s = t.metrics.get("layer_cpu_s").copied().unwrap_or(f64::NAN);
        for (k, v) in [
            ("obs.trace_overhead_frac", traced_cpu_s / rep_cpu_s - 1.0),
            ("run.wall_s", median(&wall)),
            ("run.cpu_over_wall", median(&ratios)),
            ("run.rep_spread", spread(&cpu)),
            ("run.layer_coverage", layer_cpu_s / rep_cpu_s),
            ("run.reps", cpu.len() as f64),
        ] {
            t.metrics.insert(k.to_string(), v);
        }
        workloads.insert(name.to_string(), t);
    }
    Ok(Trace {
        seed,
        calibration,
        generic,
        workloads,
    })
}

impl Trace {
    /// The value of one per-layer metric in the row of `workload`.
    pub fn value(&self, layer: &Layer, workload: &str) -> f64 {
        let from = match layer.source {
            Source::Calibration => &self.calibration,
            Source::Generic => &self.generic.metrics,
            Source::Replay(owner) => &self.workloads[owner].metrics,
            Source::Observed | Source::Run => &self.workloads[workload].metrics,
        };
        from.get(layer.name).copied().unwrap_or(f64::NAN)
    }

    /// Every workload's full per-layer row, for the results file.
    pub fn to_json(&self) -> Value {
        Value::obj(NAMES.iter().map(|w| {
            (
                *w,
                Value::obj(
                    PER_LAYER
                        .iter()
                        .map(|l| (l.name, Value::Num(self.value(l, w)))),
                ),
            )
        }))
    }

    pub fn print(&self) {
        println!(
            "per-layer, seed {} (one traced pass per workload)",
            self.seed
        );
        println!(
            "  stream arrays {:.1} MB each, last-level cache {:.1} MB",
            self.calibration
                .get("stream_array_mb")
                .copied()
                .unwrap_or(f64::NAN),
            self.calibration
                .get("last_level_cache_mb")
                .copied()
                .unwrap_or(f64::NAN),
        );
        for layer in &PER_LAYER {
            let head = format!(
                "  {:<36} {:<9} {:<8} {:<7}",
                layer.name,
                layer.unit,
                layer.clock.name(),
                layer.better.name()
            );
            match layer.source {
                Source::Observed | Source::Run => {
                    println!("{head}");
                    for w in NAMES {
                        println!("      {:<24} {}", w, self.value(layer, w));
                    }
                }
                Source::Replay(owner) => {
                    println!("{head} {}  (from {owner})", self.value(layer, owner))
                }
                Source::Calibration | Source::Generic => {
                    println!("{head} {}", self.value(layer, NAMES[0]))
                }
            }
        }
        println!("self time per span name (a span's duration minus what its children cover)");
        let all = std::iter::once((LAYERS, &self.generic))
            .chain(self.workloads.iter().map(|(k, v)| (k.as_str(), v)));
        for (name, t) in all {
            println!("  {name}");
            for (span, clock, s) in &t.self_times {
                println!("      {span:<32} {clock:<8} {s:.6} s");
            }
            for (k, v) in &t.counts {
                println!("      {k:<32} count    {v}");
            }
        }
    }
}

/// The smallest shift between two runs' medians that `xs` lets one
/// tell from noise, as a share of the median. A median of n samples
/// has a standard error of 1.2533·σ/√n, and σ is IQR/1.349 for
/// bell-shaped noise; two medians differ by √2 of that, and two
/// standard errors is the line: 2·√2·1.2533/1.349 = 2.63. With one
/// sample per run (set-up, memory) there is no spread to go by and the
/// bound alone decides.
pub fn resolution(xs: &[f64]) -> f64 {
    2.63 * spread(xs) / (xs.len() as f64).sqrt()
}

/// Verdict of comparing two runs of the same code on one
/// (metric, workload) pair. All end-to-end metrics are better lower.
pub fn verdict(first: &[f64], second: &[f64], bound: f64) -> &'static str {
    if first.is_empty() || second.is_empty() {
        return "unresolved";
    }
    if resolution(first).max(resolution(second)) > bound {
        "unresolved"
    } else if median(second) > median(first) * (1.0 + bound) {
        "regressed"
    } else {
        "ok"
    }
}

/// Run the suite twice and compare the two runs under the benchmark's
/// own per-workload bounds. Returns whether every pair is `ok`.
pub fn repeat(cfg: &SuiteConfig) -> Result<bool, String> {
    let first = run_suite(cfg)?;
    let second = run_suite(cfg)?;
    println!(
        "repeat, seed {}: two runs of the same code, {} hardware threads",
        cfg.seed,
        parallelism()
    );
    println!(
        "| workload | metric | first | second | second/first | rep spread | resolves | bound | verdict |\n|---|---|---|---|---|---|---|---|---|"
    );
    let mut all_ok = first.correct() && second.correct();
    for (a, b) in first.workloads.iter().zip(&second.workloads) {
        for m in &END_TO_END {
            let (xs, ys) = (a.samples(m.name), b.samples(m.name));
            let bound = m.bound_on(&a.name);
            let v = verdict(&xs, &ys, bound);
            all_ok &= v == "ok";
            let widest = |f: fn(&[f64]) -> f64| {
                if xs.is_empty() || ys.is_empty() {
                    f64::NAN
                } else {
                    f(&xs).max(f(&ys))
                }
            };
            println!(
                "| {} | {} | {:.6} | {:.6} | {:.4} | {:.4} | {:.4} | {:.2} | {v} |",
                a.name,
                m.name,
                a.value(m.name),
                b.value(m.name),
                b.value(m.name) / a.value(m.name),
                widest(spread),
                widest(resolution),
                bound,
            );
        }
        println!(
            "| {} | failed_ops_share | {} | {} | | | | 0 | {} |",
            a.name,
            a.failed_ops_share(),
            b.failed_ops_share(),
            if a.failed + b.failed == 0 {
                "ok"
            } else {
                "regressed"
            }
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_suite() -> Suite {
        let rep = |cpu_s: f64| RepSample {
            cpu_s,
            wall_s: cpu_s / 1.8,
            vtime_s: 0.089_091_234_567_891_2,
            digest: "00ff00ff00ff00ff".to_string(),
            counts: BTreeMap::from([("msg.sends".to_string(), 1920.0)]),
        };
        let mut w = WorkloadResult {
            name: "treecode_replicated16".to_string(),
            operations: 16_384,
            reps: vec![rep(2.91), rep(2.87), rep(3.02)],
            setup_s: vec![1.5, 1.6],
            peak_rss_mb: vec![41.25, 42.0],
            notes: vec!["a note with \"quotes\"".to_string()],
            ..Default::default()
        };
        let verdict = json::parse("{\"attempted\":16384,\"failed\":0,\"notes\":[]}").unwrap();
        w.account(true, true, Some(&verdict));
        Suite {
            seed: 42,
            workloads: vec![w],
            calibration: vec![BTreeMap::from([(
                "kernels.karp_mflops".to_string(),
                5432.1,
            )])],
            host_changed: false,
        }
    }

    /// What the writer wrote, the reader reads back: every sample with
    /// all its digits, and the medians where a person looks for them.
    #[test]
    fn results_file_round_trips_through_the_reader() {
        let suite = sample_suite();
        let doc = suite.to_json();
        let back = json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back, doc);

        let w = &back.get("workloads").and_then(Value::as_arr).unwrap()[0];
        let medians = w.get("medians").unwrap();
        assert_eq!(
            medians.get("host_cpu_s").and_then(Value::as_f64),
            Some(2.91)
        );
        assert_eq!(medians.get("setup_s").and_then(Value::as_f64), Some(1.55));
        assert_eq!(w.get("failed_ops_share").and_then(Value::as_f64), Some(0.0));
        let reps = w.get("reps").and_then(Value::as_arr).unwrap();
        let again: Vec<RepSample> = reps
            .iter()
            .map(|r| RepSample::from_reply(r).unwrap().unwrap())
            .collect();
        assert_eq!(again, suite.workloads[0].reps);
        assert_eq!(
            map_from(
                back.get("calibration")
                    .and_then(Value::as_arr)
                    .unwrap()
                    .first()
            ),
            suite.calibration[0]
        );
    }

    #[test]
    fn accounting_counts_whole_reps_and_the_oracle() {
        let mut suite = sample_suite();
        let w = &suite.workloads[0];
        assert_eq!((w.attempted, w.failed), (3 * 16_384, 0));
        assert!(suite.correct());

        // One rep with another digest, one lost rep, and an oracle that
        // found 5 bad operations.
        let w = &mut suite.workloads[0];
        w.reps[1].digest = "dead".to_string();
        w.lost_reps = 1;
        w.notes.clear();
        let verdict =
            json::parse("{\"attempted\":16384,\"failed\":5,\"notes\":[\"five\"]}").unwrap();
        w.account(true, true, Some(&verdict));
        assert_eq!(w.attempted, 4 * 16_384);
        assert_eq!(w.failed, 2 * 16_384 + 5);
        assert_eq!(w.notes.len(), 3);
        assert!(!suite.correct());

        // Where the output need not repeat, another digest is no failure;
        // a missing verdict fails the verified rep.
        let w = &mut suite.workloads[0];
        w.lost_reps = 0;
        w.account(false, false, None);
        assert_eq!(w.failed, 16_384);

        // A virtual time that differs in the last bit is a failure where
        // virtual time is exact.
        let w = &mut suite.workloads[0];
        w.reps[1].digest = w.reps[0].digest.clone();
        w.reps[2].vtime_s = f64::from_bits(w.reps[0].vtime_s.to_bits() + 1);
        w.account(true, true, Some(&verdict));
        assert_eq!(w.failed, 16_384 + 5);
    }

    #[test]
    fn medians_and_shares() {
        let suite = sample_suite();
        let w = &suite.workloads[0];
        assert_eq!(w.value("host_cpu_s"), 2.91);
        assert_eq!(w.value("setup_s"), 1.55);
        assert_eq!(w.value("peak_rss_mb"), 41.625);
        assert_eq!(w.failed_ops_share(), 0.0);
        assert!(WorkloadResult::default().value("host_cpu_s").is_nan());
    }

    #[test]
    fn verdicts() {
        let steady = [1.0, 1.01, 0.99, 1.0, 1.0];
        let slower = [1.2, 1.21, 1.19, 1.2, 1.2];
        let wild = [1.0, 1.5, 0.6, 1.0, 1.3];
        assert_eq!(verdict(&steady, &steady, 0.10), "ok");
        assert_eq!(verdict(&steady, &slower, 0.10), "regressed");
        assert_eq!(verdict(&slower, &steady, 0.10), "ok");
        assert_eq!(verdict(&steady, &wild, 0.10), "unresolved");
        assert_eq!(verdict(&[], &steady, 0.10), "unresolved");
        assert_eq!(verdict(&[1.0], &[1.3], 0.25), "regressed");
        // Nine reps resolve a shift of 0.88 of their spread; more reps
        // resolve less.
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((resolution(&nine) - 2.63 / 3.0).abs() < 1e-12);
        assert_eq!(resolution(&[1.0]), 0.0);
    }
}
