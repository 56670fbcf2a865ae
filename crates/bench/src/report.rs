//! The standing perf ledger: schema-versioned bench reports, a
//! dependency-free JSON round-trip, and the regression comparator.
//!
//! `cargo run -p bench --bin bench_report` folds the standard scenario
//! traces into a [`BenchReport`] and writes `BENCH_report.json`; CI
//! diffs that against the committed baseline with [`compare`], which
//! fails on any metric moving in the bad direction by more than the
//! tolerance. A scenario is a name, a determinism flag, string tags and
//! a `name -> f64` map holding only what it measures; everything the
//! ledger knows about a metric is its row in [`METRICS`], so a new
//! metric is a new row there, never a new schema. The writer emits a
//! fixed key order by hand and [`from_json`] is a minimal
//! recursive-descent parser over exactly the subset the writer uses
//! (objects, arrays, strings, f64 numbers).

use cluster::ChaosReport;
use obs::{LinkClass, WorldTrace};
use std::collections::BTreeMap;

/// Bump when the row *shape* changes (not when a metric is added); the
/// comparator refuses to diff across versions and the parser refuses
/// files older than this one.
pub const SCHEMA_VERSION: u64 = 5;

/// Which direction of a metric is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
    /// Ledgered for the record; [`compare`] bounds no drift on it.
    Info,
}
use Better::{Higher, Info, Lower};

/// One ledger metric — everything [`to_json`], [`from_json`],
/// [`compare`], [`check_floors`] and [`summary_table`] know about it:
/// `(name, better, timing, floorable)`. `timing` marks a value derived
/// from virtual timings, comparable only between rows that both claim
/// byte-determinism. `floorable` marks a ratio or throughput level that
/// makes sense as an absolute `--floor`; timing totals scale with
/// scenario size and belong to [`compare`].
pub type MetricDef = (&'static str, Better, bool, bool);

/// Every metric a scenario may carry, in report order. A key absent
/// from a scenario means "no claim".
pub const METRICS: &[MetricDef] = &[
    ("ranks", Info, false, false),
    // Total bodies of a scaling-sweep point.
    ("bodies", Info, false, false),
    // Efficiency relative to the same curve's smallest rank count:
    // weak scaling `T(p0)/T(p)`, strong scaling `T(p0)·p0/(T(p)·p)`.
    ("scaling_efficiency", Higher, true, true),
    // Virtual seconds from trace start to the last rank's finish.
    ("end_vtime_s", Lower, true, false),
    // Force-kernel interactions (treecode p2p+m2p), and per virtual
    // second — the throughput headline.
    ("interactions", Info, false, false),
    ("interactions_per_s", Higher, true, true),
    // Kept-work fraction from the chaos report (1.0 for fault-free).
    ("availability", Higher, false, true),
    // Critical-path breakdown, virtual seconds, then wire time per
    // link class.
    ("cp_total_s", Info, true, false),
    ("cp_work_s", Info, true, false),
    ("cp_wire_s", Info, true, false),
    ("cp_wait_s", Info, true, false),
    ("cp_wire_local_s", Info, true, false),
    ("cp_wire_intra_s", Info, true, false),
    ("cp_wire_uplink_s", Info, true, false),
    ("cp_wire_trunk_s", Info, true, false),
    // POP factors.
    ("parallel_efficiency", Higher, true, true),
    ("load_balance", Info, true, true),
    ("comm_efficiency", Info, true, true),
    ("transfer_efficiency", Info, true, true),
    ("serialization_efficiency", Info, true, true),
    // Queries answered by the scenario's client fleet, per virtual
    // second (the service headline), and client-observed reply latency
    // percentiles in virtual seconds.
    ("queries", Info, false, false),
    ("queries_per_s", Higher, true, true),
    ("query_p50_s", Info, true, false),
    ("query_p95_s", Info, true, false),
    ("query_p99_s", Lower, true, false),
    // Snapshot-store effective throughput: committed (decoded) *state*
    // megabytes per virtual second of checkpoint I/O. Delta commits
    // ship fewer bytes than the state they represent, so these exceed
    // the raw disk rate when compression works.
    ("store_write_mb_s", Info, false, true),
    ("store_read_mb_s", Info, false, true),
    // `full_bytes / commit_bytes` over the commit history: what the
    // same generations would have cost as full snapshots, over what the
    // incremental log shipped. A byte ratio, not a timing: comparable
    // even on noisy fabrics. Floored in CI.
    ("incremental_ratio", Higher, false, true),
];

fn metric_def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|d| d.0 == name)
}

fn horizon_s(trace: &WorldTrace) -> f64 {
    trace.end_time() - trace.start_time()
}

/// One scenario's row.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    /// Whether the scenario's timings are byte-deterministic across
    /// runs. The contended-fabric scenarios serialize transfers in
    /// wall-clock arrival order, so their virtual timings carry
    /// scheduling noise (tens of percent on a loaded single-core
    /// runner); the comparator skips `timing` metrics for these and
    /// checks only the structural claims (tags, availability).
    pub deterministic: bool,
    /// `mode` (`"standing"` for the fixed scenarios, `"weak"` /
    /// `"strong"` for sweep rows), `fabric` (`"lam"` / `"xbar"` on sweep
    /// rows) and `dominant_wire` (`LinkClass::name()` of the dominant
    /// critical-path wire class, or `"none"`).
    pub tags: BTreeMap<String, String>,
    /// Keys are [`METRICS`] names, which is what lets [`to_json`] write
    /// them in table order without losing any.
    metrics: BTreeMap<String, f64>,
}

impl Scenario {
    /// A deterministic standing scenario with no metrics yet.
    pub fn new(name: &str) -> Scenario {
        let mut s = Scenario {
            name: name.to_string(),
            deterministic: true,
            tags: BTreeMap::new(),
            metrics: BTreeMap::new(),
        };
        s.set_tag("mode", "standing");
        s
    }

    /// Fold a traced run into a row: horizon, critical path and POP
    /// factors.
    pub fn from_trace(name: &str, trace: &WorldTrace, availability: f64) -> Scenario {
        let cp = obs::critical_path(trace);
        let eff = obs::efficiency(trace, &cp);
        let mut s = Scenario::new(name);
        let dominant = cp.dominant_wire().map_or("none", LinkClass::name);
        s.set_tag("dominant_wire", dominant);
        s.set("ranks", trace.size() as f64);
        s.set("end_vtime_s", horizon_s(trace));
        s.set("availability", availability);
        s.set("cp_total_s", cp.total());
        s.set("cp_work_s", cp.work_s());
        s.set("cp_wire_s", cp.wire_total_s());
        s.set("cp_wait_s", cp.wait_s());
        for (class, wire_s) in LinkClass::ALL.iter().zip(cp.wire_by_class()) {
            s.set(&format!("cp_wire_{}_s", class.name()), wire_s);
        }
        s.set("parallel_efficiency", eff.parallel_efficiency);
        s.set("load_balance", eff.load_balance);
        s.set("comm_efficiency", eff.comm_efficiency);
        s.set("transfer_efficiency", eff.transfer_efficiency);
        s.set("serialization_efficiency", eff.serialization_efficiency);
        s
    }

    /// Fold a traced chaos-harness treecode run, once it completed and
    /// its trace passes the structural invariants: the trace family plus
    /// the force-kernel interaction count and rate.
    pub fn from_treecode(name: &str, report: &ChaosReport, trace: Option<WorldTrace>) -> Scenario {
        assert!(report.completed, "{name} failed: {report:?}");
        let trace = trace.expect("traced run yields a trace");
        (trace.check_invariants()).unwrap_or_else(|e| panic!("{name} invariants: {e}"));
        let mut s = Scenario::from_trace(name, &trace, report.availability);
        let interactions = trace.counter_total("walk.interactions");
        s.set_rate("interactions", interactions, &trace);
        s
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Record a measurement. Panics on a name with no [`METRICS`] row:
    /// the comparator would silently ignore it.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(metric_def(name).is_some(), "no METRICS row for {name:?}");
        self.metrics.insert(name.to_string(), value);
    }

    /// Record `count` events as `{name}` and, over the traced horizon,
    /// as `{name}_per_s`.
    pub fn set_rate(&mut self, name: &str, count: u64, trace: &WorldTrace) {
        let end = horizon_s(trace);
        self.set(name, count as f64);
        let rate = if end > 0.0 { count as f64 / end } else { 0.0 };
        self.set(&format!("{name}_per_s"), rate);
    }

    /// A tag's value; `""` when the scenario does not carry it.
    pub fn tag(&self, key: &str) -> &str {
        self.tags.get(key).map_or("", String::as_str)
    }

    pub fn set_tag(&mut self, key: &str, value: &str) {
        self.tags.insert(key.to_string(), value.to_string());
    }
}

/// The full report: one row per scenario, in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub schema_version: u64,
    pub scenarios: Vec<Scenario>,
}

impl BenchReport {
    pub fn new(scenarios: Vec<Scenario>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            scenarios,
        }
    }

    pub fn scenario(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// Shortest-roundtrip float, with non-finite values (which JSON cannot
/// carry) clamped to 0 — a bench metric that went NaN is a bug the
/// comparator will surface as a wild regression, not a parse error.
fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serialize with a fixed key order — tags alphabetical, metrics in
/// [`METRICS`] order: byte-deterministic for a deterministic report.
pub fn to_json(r: &BenchReport) -> String {
    let mut out = format!(
        "{{\n  \"schema_version\": {},\n  \"scenarios\": [",
        r.schema_version
    );
    for (i, s) in r.scenarios.iter().enumerate() {
        let tags: Vec<String> = (s.tags.iter())
            .map(|(k, v)| format!("{}: {}", jstr(k), jstr(v)))
            .collect();
        let metrics: Vec<String> = (METRICS.iter())
            .filter_map(|&(name, ..)| Some((name, s.metric(name)?)))
            .map(|(name, v)| format!("\n        {}: {}", jstr(name), jnum(v)))
            .collect();
        out.push_str(&format!(
            "{}\n    {{\n      \"name\": {},\n      \"deterministic\": {},\n      \
             \"tags\": {{{}}},\n      \"metrics\": {{{}{}}}\n    }}",
            if i > 0 { "," } else { "" },
            jstr(&s.name),
            s.deterministic,
            tags.join(", "),
            metrics.join(","),
            if metrics.is_empty() { "" } else { "\n      " },
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The parser's value tree — just enough JSON for our own files.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Bool(bool),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "byte {}: expected {:?}, found {:?}",
                self.pos,
                b as char,
                self.bytes.get(self.pos).map(|c| *c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => Ok(Value::Obj(self.seq(b'}', Parser::field)?)),
            Some(b'[') => Ok(Value::Arr(self.seq(b']', Parser::value)?)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, val: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(format!("byte {}: expected {word:?}", self.pos))
        }
    }

    /// The comma-separated items of an object or array, up to `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1; // the opening bracket `value` dispatched on
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b) if *b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                other => return Err(format!("byte {}: unexpected {other:?}", self.pos)),
            }
        }
    }

    fn field(&mut self) -> Result<(String, Value), String> {
        self.skip_ws();
        let key = self.string()?;
        self.expect(b':')?;
        Ok((key, self.value()?))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one full (possibly multi-byte) scalar.
                    let s =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty char")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {s:?}: {e}"))
    }
}

/// Parse a report previously written by [`to_json`].
pub fn from_json(text: &str) -> Result<BenchReport, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let root = p.value()?;
    let Some(Value::Num(schema_version)) = root.get("schema_version") else {
        return Err("missing \"schema_version\" number".to_string());
    };
    let schema_version = *schema_version as u64;
    if schema_version < SCHEMA_VERSION {
        return Err(format!(
            "schema version changed: file {schema_version} vs current {SCHEMA_VERSION} \
             (regenerate the baseline)"
        ));
    }
    let Some(Value::Arr(rows)) = root.get("scenarios") else {
        return Err("missing \"scenarios\" array".to_string());
    };
    let mut scenarios = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let (
            Some(Value::Str(name)),
            Some(Value::Bool(deterministic)),
            Some(Value::Obj(tags)),
            Some(Value::Obj(metrics)),
        ) = (
            row.get("name"),
            row.get("deterministic"),
            row.get("tags"),
            row.get("metrics"),
        )
        else {
            return Err(format!(
                "scenario {i}: wants a string name, a bool deterministic, tags and metrics objects"
            ));
        };
        let mut s = Scenario {
            name: name.clone(),
            deterministic: *deterministic,
            tags: BTreeMap::new(),
            metrics: BTreeMap::new(),
        };
        for (key, v) in tags {
            let Value::Str(v) = v else {
                return Err(format!("{name}: tag {key:?}: expected string"));
            };
            s.tags.insert(key.clone(), v.clone());
        }
        for (key, v) in metrics {
            let (Value::Num(x), Some((metric, ..))) = (v, metric_def(key)) else {
                return Err(format!(
                    "{name}: metric {key:?}: not a number, or no METRICS row"
                ));
            };
            s.metrics.insert(metric.to_string(), *x);
        }
        scenarios.push(s);
    }
    Ok(BenchReport {
        schema_version,
        scenarios,
    })
}

/// Diff `new` against the `baseline`; every returned string is a
/// regression beyond `max_regress` (a fraction: 0.05 = 5%). Empty
/// means pass. Improvements, new scenarios and metrics only `new`
/// carries never fail. Besides directional drift this flags the
/// absolute failures: a scenario, tag or metric going missing (absent,
/// or zero / non-finite where the baseline had a value — "infinitely
/// better" readings are broken folds, not wins) and a scenario losing
/// its byte-determinism claim, which would otherwise silently exempt
/// every timing metric.
pub fn compare(baseline: &BenchReport, new: &BenchReport, max_regress: f64) -> Vec<String> {
    let mut out = Vec::new();
    if baseline.schema_version != new.schema_version {
        out.push(format!(
            "schema version changed: baseline {} vs new {} (regenerate the baseline)",
            baseline.schema_version, new.schema_version
        ));
        return out;
    }
    for b in &baseline.scenarios {
        let Some(n) = new.scenario(&b.name) else {
            out.push(format!("scenario {:?} missing from new report", b.name));
            continue;
        };
        // Tags are the structural claims — above all the dominant wire
        // class a contended scenario exists to name ("the trunk is
        // critical-path dominant"); a flip is a regression regardless
        // of timings.
        for (key, old) in &b.tags {
            if n.tag(key) != old.as_str() {
                out.push(format!(
                    "{}: {key} changed {old:?} -> {:?}",
                    b.name,
                    n.tag(key)
                ));
            }
        }
        // Losing the determinism claim would exempt every timing metric
        // below — that is itself a regression, not a free pass. (Gaining
        // determinism is an improvement; the baseline's noisy numbers
        // just aren't comparable yet.)
        if b.deterministic && !n.deterministic {
            out.push(format!(
                "{}: deterministic flipped true -> false (timing claims lost)",
                b.name
            ));
        }
        for &(metric, better, timing, _) in METRICS {
            let Some(old) = b.metric(metric) else {
                continue;
            };
            // A metric that vanished — absent, NaN, or zero where the
            // baseline had a value — fails regardless of direction or
            // noise: tolerance explains drift, not absence. (NaN would
            // also sail through the comparisons below, which are all
            // false.)
            let Some(newv) = n.metric(metric) else {
                out.push(format!(
                    "{}: {metric} vanished: {old:.6e} -> absent",
                    b.name
                ));
                continue;
            };
            if better == Info {
                continue;
            }
            if !newv.is_finite() || (old > 0.0 && newv <= 0.0) {
                out.push(format!(
                    "{}: {metric} vanished: {old:.6e} -> {newv}",
                    b.name
                ));
                continue;
            }
            // Timing metrics are only comparable when both sides claim
            // byte-determinism; contended-fabric timings carry
            // scheduling noise well past any sensible tolerance.
            if (timing && !(b.deterministic && n.deterministic)) || old <= 0.0 {
                continue;
            }
            let regressed = if better == Higher {
                newv < old * (1.0 - max_regress)
            } else {
                newv > old * (1.0 + max_regress)
            };
            if regressed {
                let pct = (newv / old - 1.0) * 100.0;
                out.push(format!(
                    "{}: {metric} {old:.6e} -> {newv:.6e} ({pct:+.2}%, tolerance {:.2}%)",
                    b.name,
                    max_regress * 100.0
                ));
            }
        }
    }
    out
}

/// One `--floor SCENARIO:METRIC:MIN` operand.
pub fn parse_floor(spec: &str) -> Result<(String, String, f64), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        [s, m, v] => match v.parse::<f64>() {
            Ok(min) => Ok((s.to_string(), m.to_string(), min)),
            Err(_) => Err(format!("--floor MIN must be numeric, got {spec:?}")),
        },
        _ => Err(format!("--floor wants SCENARIO:METRIC:MIN, got {spec:?}")),
    }
}

/// A ratchet: each floor is `(scenario, metric, min)` and the metric
/// must hold at least `min` absolutely. `compare` bounds *drift*
/// against the previous report, so a big win can erode back one
/// sub-tolerance step at a time; a committed floor pins the level
/// itself. Returns one message per violated/unresolvable floor.
pub fn check_floors(r: &BenchReport, floors: &[(String, String, f64)]) -> Vec<String> {
    let mut out = Vec::new();
    for (scenario, metric, min) in floors {
        let Some(s) = r.scenario(scenario) else {
            out.push(format!(
                "floor {scenario}:{metric}: scenario missing from report"
            ));
            continue;
        };
        if !metric_def(metric).is_some_and(|&(.., floorable)| floorable) {
            out.push(format!("floor {scenario}:{metric}: unknown metric"));
            continue;
        }
        match s.metric(metric) {
            // A NaN reading trips rather than vacuously passing.
            Some(val) if val.is_nan() || val < *min => out.push(format!(
                "{scenario}: {metric} {val:.6} below committed floor {min:.6}"
            )),
            Some(_) => {}
            None => out.push(format!(
                "{scenario}: {metric} absent, committed floor {min:.6}"
            )),
        }
    }
    out
}

/// The headline table both report binaries print: one row per
/// scenario, one column per directional metric some row carries.
pub fn summary_table(title: &str, r: &BenchReport) -> String {
    let cols: Vec<&str> = (METRICS.iter())
        .filter(|(name, better, ..)| {
            *better != Info && r.scenarios.iter().any(|s| s.metric(name).is_some())
        })
        .map(|&(name, ..)| name)
        .collect();
    let cell = |v: Option<f64>| match v {
        None => "-".to_string(),
        Some(v) if (1e-3..1e4).contains(&v.abs()) => format!("{v:.6}"),
        Some(v) => format!("{v:.3e}"),
    };
    let rows: Vec<Vec<String>> = (r.scenarios.iter())
        .map(|s| {
            let mut row = vec![s.name.clone()];
            row.extend(cols.iter().map(|c| cell(s.metric(c))));
            row.push(s.tag("dominant_wire").to_string());
            row
        })
        .collect();
    let header: Vec<&str> = (["scenario"].into_iter())
        .chain(cols.iter().copied())
        .chain(["dominant_wire"])
        .collect();
    crate::render_table(title, &header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut s = Scenario::new("treecode16");
        s.set_tag("dominant_wire", "intra");
        for (name, value) in [
            ("ranks", 16.0),
            ("bodies", 192.0),
            ("end_vtime_s", 0.0062866896),
            ("interactions", 94640.0),
            ("interactions_per_s", 1.5e7),
            ("availability", 1.0),
            ("cp_total_s", 0.0062866896),
            ("cp_work_s", 6.5e-4),
            ("cp_wire_s", 5.6e-3),
            ("cp_wait_s", 0.0),
            ("cp_wire_local_s", 0.0),
            ("cp_wire_intra_s", 5.6e-3),
            ("cp_wire_uplink_s", 0.0),
            ("cp_wire_trunk_s", 0.0),
            ("parallel_efficiency", 0.06),
            ("load_balance", 1.0),
            ("comm_efficiency", 0.06),
            ("transfer_efficiency", 0.104),
            ("serialization_efficiency", 0.577),
            ("queries", 768.0),
            ("queries_per_s", 1.2e5),
            ("query_p50_s", 4.0e-5),
            ("query_p95_s", 1.1e-4),
            ("query_p99_s", 2.3e-4),
            ("store_write_mb_s", 210.0),
            ("store_read_mb_s", 430.0),
            ("incremental_ratio", 2.4),
        ] {
            s.set(name, value);
        }
        BenchReport::new(vec![s])
    }

    /// The sample's one row, with `metric` set (or, with `None`,
    /// dropped).
    fn with(base: &BenchReport, metric: &str, value: Option<f64>) -> BenchReport {
        let mut r = base.clone();
        match value {
            Some(v) => r.scenarios[0].set(metric, v),
            None => assert!(r.scenarios[0].metrics.remove(metric).is_some()),
        }
        r
    }

    fn scaled(base: &BenchReport, metric: &str, factor: f64) -> BenchReport {
        let old = base.scenarios[0].metric(metric).unwrap();
        with(base, metric, Some(old * factor))
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample();
        let text = to_json(&r);
        let back = from_json(&text).unwrap();
        assert_eq!(r, back);
        // And the writer is deterministic.
        assert_eq!(text, to_json(&back));
    }

    #[test]
    fn comparator_catches_injected_slowdown() {
        let base = sample();
        let slow = scaled(&base, "end_vtime_s", 1.30);
        let slow = scaled(&slow, "interactions_per_s", 1.0 / 1.30);
        let regressions = compare(&base, &slow, 0.05);
        assert_eq!(regressions.len(), 2, "{regressions:?}");
        assert!(regressions[0].contains("end_vtime_s"), "{regressions:?}");
        assert!(
            regressions[1].contains("interactions_per_s"),
            "{regressions:?}"
        );
    }

    #[test]
    fn comparator_passes_identical_and_improved() {
        let base = sample();
        assert!(compare(&base, &base, 0.05).is_empty());
        let fast = scaled(&base, "end_vtime_s", 0.5);
        let fast = scaled(&fast, "interactions_per_s", 2.0);
        assert!(compare(&base, &fast, 0.05).is_empty());
    }

    #[test]
    fn comparator_catches_query_service_regression() {
        let base = sample();
        let slow = scaled(&base, "queries_per_s", 1.0 / 1.30);
        let slow = scaled(&slow, "query_p99_s", 1.30);
        let r = compare(&base, &slow, 0.05);
        assert_eq!(r.len(), 2, "{r:?}");
        assert!(r[0].contains("queries_per_s"), "{r:?}");
        assert!(r[1].contains("query_p99_s"), "{r:?}");
        // And the throughput headline can be floored absolutely.
        let f = |v: f64| ("treecode16".to_string(), "queries_per_s".to_string(), v);
        assert!(check_floors(&base, &[f(1.0e5)]).is_empty());
        let r = check_floors(&base, &[f(2.0e5)]);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("below committed floor"), "{r:?}");
    }

    #[test]
    fn comparator_flags_missing_scenario_and_schema_drift() {
        let base = sample();
        let empty = BenchReport::new(vec![]);
        let r = compare(&base, &empty, 0.05);
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("missing"));

        let mut vnext = base.clone();
        vnext.schema_version += 1;
        let r = compare(&base, &vnext, 0.05);
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("schema version"), "{r:?}");
    }

    #[test]
    fn nondeterministic_scenarios_skip_timings_but_keep_structure() {
        let mut base = sample();
        base.scenarios[0].deterministic = false;
        base.scenarios[0].set_tag("dominant_wire", "trunk");

        // 30% timing drift on a scenario marked non-deterministic is
        // scheduling noise, not a regression.
        let noisy = scaled(&base, "end_vtime_s", 1.30);
        let noisy = scaled(&noisy, "parallel_efficiency", 1.0 / 1.30);
        assert!(compare(&base, &noisy, 0.05).is_empty());
        // Timings are compared only when *both* rows are deterministic.
        let mut now_det = noisy.clone();
        now_det.scenarios[0].deterministic = true;
        assert!(compare(&base, &now_det, 0.05).is_empty());

        // But the structural claims still bite: a dominant-wire flip
        // or an availability drop fails even without timings.
        let mut flipped = noisy.clone();
        flipped.scenarios[0].set_tag("dominant_wire", "intra");
        let r = compare(&base, &flipped, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("dominant_wire"), "{r:?}");

        let lossy = with(&noisy, "availability", Some(0.5));
        let r = compare(&base, &lossy, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("availability"), "{r:?}");
    }

    #[test]
    fn comparator_flags_vanished_and_nonfinite_metrics() {
        let base = sample();
        let zeroed = with(&base, "interactions_per_s", Some(0.0));
        let r = compare(&base, &zeroed, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("vanished"), "{r:?}");

        let nan = with(&base, "end_vtime_s", Some(f64::NAN));
        let r = compare(&base, &nan, 0.05);
        assert!(
            r.iter()
                .any(|m| m.contains("end_vtime_s") && m.contains("vanished")),
            "{r:?}"
        );

        // A zeroed timing on a *non-deterministic* scenario still fails:
        // scheduling noise explains drift, not absence.
        let mut noisy_base = base.clone();
        noisy_base.scenarios[0].deterministic = false;
        let gone = with(&noisy_base, "end_vtime_s", Some(0.0));
        let r = compare(&noisy_base, &gone, 0.05);
        assert!(r.iter().any(|m| m.contains("vanished")), "{r:?}");
    }

    #[test]
    fn absent_metrics_vanish_one_way_only() {
        let base = sample();
        // In the baseline, absent in the new row: vanished — for a
        // compared metric and for an informational one alike, timings
        // comparable or not.
        for metric in ["parallel_efficiency", "cp_wait_s", "query_p50_s"] {
            let mut noisy_base = base.clone();
            noisy_base.scenarios[0].deterministic = false;
            for b in [&base, &noisy_base] {
                let r = compare(b, &with(b, metric, None), 0.05);
                assert_eq!(r.len(), 1, "{r:?}");
                assert!(r[0].contains(metric) && r[0].contains("vanished"), "{r:?}");
            }
        }
        // Only the new row has it: a new claim, never a regression.
        let lean = with(&base, "queries_per_s", None);
        assert!(compare(&lean, &base, 0.05).is_empty());
    }

    #[test]
    fn comparator_flags_determinism_flip() {
        let base = sample();
        let mut flip = base.clone();
        flip.scenarios[0].deterministic = false;
        let r = compare(&base, &flip, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("deterministic"), "{r:?}");
        // Gaining determinism is an improvement, not a regression.
        assert!(compare(&flip, &base, 0.05).is_empty());
    }

    #[test]
    fn floors_hold_pass_and_trip() {
        let base = sample();
        let f = |s: &str, m: &str, v: f64| (s.to_string(), m.to_string(), v);
        // At 0.06 parallel efficiency the committed floor of 0.05 holds.
        assert!(check_floors(&base, &[f("treecode16", "parallel_efficiency", 0.05)]).is_empty());
        // A floor above the reading trips with the level, not a delta.
        let r = check_floors(&base, &[f("treecode16", "parallel_efficiency", 0.12)]);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("below committed floor"), "{r:?}");
        // NaN and absent readings trip rather than vacuously pass.
        for reading in [Some(f64::NAN), None] {
            let bad = with(&base, "parallel_efficiency", reading);
            let r = check_floors(&bad, &[f("treecode16", "parallel_efficiency", 0.05)]);
            assert_eq!(r.len(), 1, "{r:?}");
        }
        // Missing scenarios, unknown metrics and metrics that are not
        // levels are errors, not passes.
        let r = check_floors(&base, &[f("nope", "parallel_efficiency", 0.0)]);
        assert!(r[0].contains("missing"), "{r:?}");
        for metric in ["not_a_metric", "end_vtime_s"] {
            let r = check_floors(&base, &[f("treecode16", metric, 0.0)]);
            assert!(r[0].contains("unknown metric"), "{r:?}");
        }
    }

    #[test]
    fn non_finite_values_serialize_safely() {
        let r = with(&sample(), "cp_wait_s", Some(f64::NAN));
        let text = to_json(&r);
        assert!(!text.contains("NaN"));
        let back = from_json(&text).unwrap();
        assert_eq!(back.scenarios[0].metric("cp_wait_s"), Some(0.0));
    }

    #[test]
    fn store_columns_are_compared_and_floorable() {
        let base = sample();
        // Shipping relatively more bytes per committed state is a
        // compression regression even when every timing is unchanged.
        let bloated = with(&base, "incremental_ratio", Some(1.1));
        let r = compare(&base, &bloated, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("incremental_ratio"), "{r:?}");

        let f = |m: &str, v: f64| ("treecode16".to_string(), m.to_string(), v);
        assert!(check_floors(&base, &[f("incremental_ratio", 2.0)]).is_empty());
        let r = check_floors(&base, &[f("incremental_ratio", 3.0)]);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("below committed floor"), "{r:?}");
        assert!(check_floors(&base, &[f("store_write_mb_s", 100.0)]).is_empty());
        assert!(check_floors(&base, &[f("store_read_mb_s", 400.0)]).is_empty());
    }

    #[test]
    fn scaling_efficiency_is_compared_and_floorable() {
        let mut base = with(&sample(), "scaling_efficiency", Some(0.8));
        base.scenarios[0].set_tag("mode", "weak");
        base.scenarios[0].set_tag("fabric", "xbar");

        let worse = with(&base, "scaling_efficiency", Some(0.6));
        let r = compare(&base, &worse, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("scaling_efficiency"), "{r:?}");
        // A row that moved to another curve is a different claim.
        let mut moved = base.clone();
        moved.scenarios[0].set_tag("fabric", "lam");
        let r = compare(&base, &moved, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("fabric"), "{r:?}");

        let f = |v: f64| {
            (
                "treecode16".to_string(),
                "scaling_efficiency".to_string(),
                v,
            )
        };
        assert!(check_floors(&base, &[f(0.75)]).is_empty());
        let r = check_floors(&base, &[f(0.9)]);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("below committed floor"), "{r:?}");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"schema_version\": 1}").is_err());
        assert!(from_json("{\"scenarios\": []}").is_err());
        // A v4 file: older than the parser's schema, so refused with the
        // schema-version error rather than loaded with guessed columns.
        let err = from_json("{\"schema_version\": 4, \"scenarios\": []}").unwrap_err();
        assert!(err.contains("schema version"), "{err}");
        // A metric the table does not know would be dropped on rewrite.
        let row = |metrics: &str| {
            format!(
                "{{\"schema_version\": 5, \"scenarios\": [{{\"name\": \"x\", \
                 \"deterministic\": true, \"tags\": {{}}, \"metrics\": {{{metrics}}}}}]}}"
            )
        };
        assert!(from_json(&row("\"ranks\": 2.0")).is_ok());
        assert!(from_json(&row("\"rnaks\": 2.0")).is_err());
        assert!(from_json(&row("\"ranks\": \"2\"")).is_err());
    }
}
