//! The standing perf ledger: schema-versioned bench reports, a
//! dependency-free JSON round-trip, and the regression comparator.
//!
//! `cargo run -p bench --bin bench_report` folds the standard scenario
//! traces into a [`BenchReport`] and writes `BENCH_report.json`; CI
//! diffs that against the committed baseline with [`compare`], which
//! fails on any metric moving in the bad direction by more than the
//! tolerance. No `serde` in the dependency tree, so the writer emits a
//! fixed key order by hand and [`from_json`] is a minimal
//! recursive-descent parser over exactly the subset the writer uses
//! (objects, arrays, strings, f64 numbers).

use obs::{CriticalPath, Efficiency, WorldTrace};

/// Bump whenever a field is added, removed, or changes meaning; the
/// comparator refuses to diff across versions and the parser refuses
/// files older than this one.
pub const SCHEMA_VERSION: u64 = 4;

/// One scenario's folded metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    pub name: String,
    pub ranks: u64,
    /// Scenario family: `"standing"` for the fixed bench scenarios,
    /// `"weak"` / `"strong"` for scaling-sweep rows.
    pub mode: String,
    /// Fabric tag for sweep rows: `"lam"` (the two-switch Space
    /// Simulator fabric), `"xbar"` (ideal crossbar), `""` for standing
    /// scenarios that fix their own machine.
    pub fabric: String,
    /// Total bodies in the run (0 for non-physics scenarios).
    pub bodies: u64,
    /// Efficiency relative to the same curve's smallest rank count:
    /// weak scaling `T(p0)/T(p)`, strong scaling `T(p0)·p0/(T(p)·p)`.
    /// 1.0 at the curve's base point; 0.0 for standing scenarios.
    pub scaling_efficiency: f64,
    /// Virtual seconds from trace start to the last rank's finish.
    pub end_vtime_s: f64,
    /// Total force-kernel interactions (treecode p2p+m2p or SPH pairs;
    /// 0 for pure communication scenarios).
    pub interactions: u64,
    /// `interactions / end_vtime_s` — the throughput headline.
    pub interactions_per_s: f64,
    /// Kept-work fraction from the chaos report (1.0 for fault-free).
    pub availability: f64,
    /// Whether the scenario's timings are byte-deterministic across
    /// runs. The contended-fabric scenarios serialize transfers in
    /// wall-clock arrival order, so their virtual timings carry
    /// scheduling noise (tens of percent on a loaded single-core
    /// runner); the comparator skips timing metrics for these and
    /// checks only the structural claims (dominant wire class,
    /// availability).
    pub deterministic: bool,
    /// Critical-path breakdown, virtual seconds.
    pub cp_total_s: f64,
    pub cp_work_s: f64,
    pub cp_wire_s: f64,
    pub cp_wait_s: f64,
    /// Wire time per link class, `LinkClass::ALL` order.
    pub cp_wire_by_class_s: [f64; 4],
    /// `LinkClass::name()` of the dominant wire class, or `"none"`.
    pub dominant_wire: String,
    /// POP factors.
    pub parallel_efficiency: f64,
    pub load_balance: f64,
    pub comm_efficiency: f64,
    pub transfer_efficiency: f64,
    pub serialization_efficiency: f64,
    /// Queries answered by the scenario's client fleet (0 for scenarios
    /// without one — the service columns then carry no claim).
    pub queries: u64,
    /// `queries / end_vtime_s` — the service throughput headline.
    pub queries_per_s: f64,
    /// Client-observed reply latency percentiles, virtual seconds.
    pub query_p50_s: f64,
    pub query_p95_s: f64,
    pub query_p99_s: f64,
    /// Snapshot-store effective write throughput: committed *state*
    /// megabytes per virtual second of checkpoint I/O. Delta commits
    /// ship fewer bytes than the state they represent, so this exceeds
    /// the raw disk rate when compression works (0 = no store claim).
    pub store_write_mb_s: f64,
    /// Effective time-travel read throughput: decoded state megabytes
    /// per virtual second spent reading the record chain.
    pub store_read_mb_s: f64,
    /// `full_bytes / commit_bytes` over the commit history: what the
    /// same generations would have cost as full snapshots, over what
    /// the incremental log actually shipped. >= 1; higher is better;
    /// floored in CI.
    pub incremental_ratio: f64,
}

impl ScenarioReport {
    /// Fold a traced run into a scenario row.
    pub fn from_trace(
        name: &str,
        trace: &WorldTrace,
        cp: &CriticalPath,
        eff: &Efficiency,
        interactions: u64,
        availability: f64,
    ) -> ScenarioReport {
        let end = trace.end_time() - trace.start_time();
        ScenarioReport {
            name: name.to_string(),
            ranks: trace.size() as u64,
            mode: "standing".to_string(),
            fabric: String::new(),
            bodies: 0,
            scaling_efficiency: 0.0,
            end_vtime_s: end,
            interactions,
            interactions_per_s: if end > 0.0 {
                interactions as f64 / end
            } else {
                0.0
            },
            availability,
            deterministic: true,
            cp_total_s: cp.total(),
            cp_work_s: cp.work_s(),
            cp_wire_s: cp.wire_total_s(),
            cp_wait_s: cp.wait_s(),
            cp_wire_by_class_s: cp.wire_by_class(),
            dominant_wire: cp
                .dominant_wire()
                .map_or("none".to_string(), |c| c.name().to_string()),
            parallel_efficiency: eff.parallel_efficiency,
            load_balance: eff.load_balance,
            comm_efficiency: eff.comm_efficiency,
            transfer_efficiency: eff.transfer_efficiency,
            serialization_efficiency: eff.serialization_efficiency,
            queries: 0,
            queries_per_s: 0.0,
            query_p50_s: 0.0,
            query_p95_s: 0.0,
            query_p99_s: 0.0,
            store_write_mb_s: 0.0,
            store_read_mb_s: 0.0,
            incremental_ratio: 0.0,
        }
    }

    /// Attach the query-service columns (scenarios with a client fleet).
    pub fn with_queries(mut self, queries: u64, p50: f64, p95: f64, p99: f64) -> ScenarioReport {
        self.queries = queries;
        self.queries_per_s = if self.end_vtime_s > 0.0 {
            queries as f64 / self.end_vtime_s
        } else {
            0.0
        };
        self.query_p50_s = p50;
        self.query_p95_s = p95;
        self.query_p99_s = p99;
        self
    }

    /// Attach the snapshot-store columns (the `store_bench` scenario).
    pub fn with_store(mut self, write_mb_s: f64, read_mb_s: f64, ratio: f64) -> ScenarioReport {
        self.store_write_mb_s = write_mb_s;
        self.store_read_mb_s = read_mb_s;
        self.incremental_ratio = ratio;
        self
    }

    /// Tag a row as one point of a scaling curve. `scaling_efficiency`
    /// stays 0 until the whole curve exists; the sweep fills it in
    /// relative to the curve's smallest rank count.
    pub fn with_scaling(mut self, mode: &str, fabric: &str, bodies: u64) -> ScenarioReport {
        self.mode = mode.to_string();
        self.fabric = fabric.to_string();
        self.bodies = bodies;
        self
    }
}

/// The full report: one row per scenario, in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub schema_version: u64,
    pub scenarios: Vec<ScenarioReport>,
}

impl BenchReport {
    pub fn new(scenarios: Vec<ScenarioReport>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            scenarios,
        }
    }

    pub fn scenario(&self, name: &str) -> Option<&ScenarioReport> {
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

/// Serialize with a fixed key order: byte-deterministic for a
/// deterministic report.
pub fn to_json(r: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {},\n", r.schema_version));
    out.push_str("  \"scenarios\": [");
    for (i, s) in r.scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        let fields: Vec<(&str, String)> = vec![
            ("name", jstr(&s.name)),
            ("ranks", s.ranks.to_string()),
            ("mode", jstr(&s.mode)),
            ("fabric", jstr(&s.fabric)),
            ("bodies", s.bodies.to_string()),
            ("scaling_efficiency", jnum(s.scaling_efficiency)),
            ("end_vtime_s", jnum(s.end_vtime_s)),
            ("interactions", s.interactions.to_string()),
            ("interactions_per_s", jnum(s.interactions_per_s)),
            ("availability", jnum(s.availability)),
            ("deterministic", s.deterministic.to_string()),
            ("cp_total_s", jnum(s.cp_total_s)),
            ("cp_work_s", jnum(s.cp_work_s)),
            ("cp_wire_s", jnum(s.cp_wire_s)),
            ("cp_wait_s", jnum(s.cp_wait_s)),
            (
                "cp_wire_by_class_s",
                format!(
                    "[{}]",
                    s.cp_wire_by_class_s
                        .iter()
                        .map(|v| jnum(*v))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
            ("dominant_wire", jstr(&s.dominant_wire)),
            ("parallel_efficiency", jnum(s.parallel_efficiency)),
            ("load_balance", jnum(s.load_balance)),
            ("comm_efficiency", jnum(s.comm_efficiency)),
            ("transfer_efficiency", jnum(s.transfer_efficiency)),
            ("serialization_efficiency", jnum(s.serialization_efficiency)),
            ("queries", s.queries.to_string()),
            ("queries_per_s", jnum(s.queries_per_s)),
            ("query_p50_s", jnum(s.query_p50_s)),
            ("query_p95_s", jnum(s.query_p95_s)),
            ("query_p99_s", jnum(s.query_p99_s)),
            ("store_write_mb_s", jnum(s.store_write_mb_s)),
            ("store_read_mb_s", jnum(s.store_read_mb_s)),
            ("incremental_ratio", jnum(s.incremental_ratio)),
        ];
        for (j, (k, v)) in fields.iter().enumerate() {
            out.push_str(&format!(
                "      {}: {v}{}\n",
                jstr(k),
                if j + 1 < fields.len() { "," } else { "" }
            ));
        }
        out.push_str("    }");
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

    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Value::Num(x)) => Ok(*x),
            other => Err(format!("field {key:?}: expected number, got {other:?}")),
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Value::Str(s)) => Ok(s),
            other => Err(format!("field {key:?}: expected string, got {other:?}")),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            other => Err(format!("field {key:?}: expected bool, got {other:?}")),
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
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
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

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => return Err(format!("in object: unexpected {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("in array: unexpected {other:?}")),
            }
        }
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
                Some(&b) => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let s =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty char")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                    let _ = b;
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
    let schema_version = root.num("schema_version")? as u64;
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
    for row in rows {
        let mut wire = [0.0f64; 4];
        if let Some(Value::Arr(vals)) = row.get("cp_wire_by_class_s") {
            for (slot, v) in wire.iter_mut().zip(vals) {
                if let Value::Num(x) = v {
                    *slot = *x;
                }
            }
        }
        scenarios.push(ScenarioReport {
            name: row.str("name")?.to_string(),
            ranks: row.num("ranks")? as u64,
            mode: row.str("mode")?.to_string(),
            fabric: row.str("fabric")?.to_string(),
            bodies: row.num("bodies")? as u64,
            scaling_efficiency: row.num("scaling_efficiency")?,
            end_vtime_s: row.num("end_vtime_s")?,
            interactions: row.num("interactions")? as u64,
            interactions_per_s: row.num("interactions_per_s")?,
            availability: row.num("availability")?,
            deterministic: row.bool("deterministic")?,
            cp_total_s: row.num("cp_total_s")?,
            cp_work_s: row.num("cp_work_s")?,
            cp_wire_s: row.num("cp_wire_s")?,
            cp_wait_s: row.num("cp_wait_s")?,
            cp_wire_by_class_s: wire,
            dominant_wire: row.str("dominant_wire")?.to_string(),
            parallel_efficiency: row.num("parallel_efficiency")?,
            load_balance: row.num("load_balance")?,
            comm_efficiency: row.num("comm_efficiency")?,
            transfer_efficiency: row.num("transfer_efficiency")?,
            serialization_efficiency: row.num("serialization_efficiency")?,
            queries: row.num("queries")? as u64,
            queries_per_s: row.num("queries_per_s")?,
            query_p50_s: row.num("query_p50_s")?,
            query_p95_s: row.num("query_p95_s")?,
            query_p99_s: row.num("query_p99_s")?,
            store_write_mb_s: row.num("store_write_mb_s")?,
            store_read_mb_s: row.num("store_read_mb_s")?,
            incremental_ratio: row.num("incremental_ratio")?,
        });
    }
    Ok(BenchReport {
        schema_version,
        scenarios,
    })
}

/// Diff `new` against the `baseline`; every returned string is a
/// regression beyond `max_regress` (a fraction: 0.05 = 5%). Empty
/// means pass. Improvements and new scenarios never fail. Besides
/// directional drift this flags the absolute failures: a scenario or
/// metric going missing (zero / non-finite where the baseline had a
/// value — "infinitely better" readings are broken folds, not wins)
/// and a scenario losing its byte-determinism claim, which would
/// otherwise silently exempt every timing metric.
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
        // The dominant wire class is the structural claim a contended
        // scenario exists to make (e.g. "the trunk is critical-path
        // dominant"); a flip is a regression regardless of timings.
        if b.dominant_wire != n.dominant_wire {
            out.push(format!(
                "{}: dominant_wire changed {:?} -> {:?}",
                b.name, b.dominant_wire, n.dominant_wire
            ));
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
        // Timing metrics are only comparable when both sides claim
        // byte-determinism; contended-fabric timings carry scheduling
        // noise well past any sensible tolerance.
        let timings_comparable = b.deterministic && n.deterministic;
        // (metric, baseline, new, higher_is_better, comparable)
        let checks = [
            (
                "end_vtime_s",
                b.end_vtime_s,
                n.end_vtime_s,
                false,
                timings_comparable,
            ),
            (
                "interactions_per_s",
                b.interactions_per_s,
                n.interactions_per_s,
                true,
                timings_comparable,
            ),
            (
                "parallel_efficiency",
                b.parallel_efficiency,
                n.parallel_efficiency,
                true,
                timings_comparable,
            ),
            ("availability", b.availability, n.availability, true, true),
            (
                "scaling_efficiency",
                b.scaling_efficiency,
                n.scaling_efficiency,
                true,
                timings_comparable,
            ),
            (
                "queries_per_s",
                b.queries_per_s,
                n.queries_per_s,
                true,
                timings_comparable,
            ),
            (
                "query_p99_s",
                b.query_p99_s,
                n.query_p99_s,
                false,
                timings_comparable,
            ),
            // A byte ratio, not a timing: deterministic even on noisy
            // fabrics, so always comparable.
            (
                "incremental_ratio",
                b.incremental_ratio,
                n.incremental_ratio,
                true,
                true,
            ),
        ];
        for (metric, old, newv, higher_better, comparable) in checks {
            // A metric that vanished — NaN, or zero where the baseline
            // had a value — fails regardless of direction or noise:
            // tolerance explains drift, not absence. (NaN would also
            // sail through the comparisons below, which are all false.)
            if !newv.is_finite() || (old > 0.0 && newv <= 0.0) {
                out.push(format!(
                    "{}: {metric} vanished: {old:.6e} -> {newv}",
                    b.name
                ));
                continue;
            }
            if !comparable {
                continue;
            }
            if old <= 0.0 {
                continue;
            }
            let regressed = if higher_better {
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

/// Resolve a floorable metric by name. Only ratio-style metrics (and
/// the throughput headline) make sense as absolute floors; timing
/// totals scale with scenario size and belong to `compare`.
fn metric_value(s: &ScenarioReport, metric: &str) -> Option<f64> {
    Some(match metric {
        "interactions_per_s" => s.interactions_per_s,
        "queries_per_s" => s.queries_per_s,
        "availability" => s.availability,
        "parallel_efficiency" => s.parallel_efficiency,
        "scaling_efficiency" => s.scaling_efficiency,
        "load_balance" => s.load_balance,
        "comm_efficiency" => s.comm_efficiency,
        "transfer_efficiency" => s.transfer_efficiency,
        "serialization_efficiency" => s.serialization_efficiency,
        "store_write_mb_s" => s.store_write_mb_s,
        "store_read_mb_s" => s.store_read_mb_s,
        "incremental_ratio" => s.incremental_ratio,
        _ => return None,
    })
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
        let Some(val) = metric_value(s, metric) else {
            out.push(format!("floor {scenario}:{metric}: unknown metric"));
            continue;
        };
        // `!(>=)` rather than `<` so a NaN reading also trips.
        if !(val >= *min) {
            out.push(format!(
                "{scenario}: {metric} {val:.6} below committed floor {min:.6}"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport::new(vec![ScenarioReport {
            name: "treecode16".to_string(),
            ranks: 16,
            mode: "standing".to_string(),
            fabric: String::new(),
            bodies: 192,
            scaling_efficiency: 0.0,
            end_vtime_s: 0.0062866896,
            interactions: 94640,
            interactions_per_s: 1.5e7,
            availability: 1.0,
            deterministic: true,
            cp_total_s: 0.0062866896,
            cp_work_s: 6.5e-4,
            cp_wire_s: 5.6e-3,
            cp_wait_s: 0.0,
            cp_wire_by_class_s: [0.0, 5.6e-3, 0.0, 0.0],
            dominant_wire: "intra".to_string(),
            parallel_efficiency: 0.06,
            load_balance: 1.0,
            comm_efficiency: 0.06,
            transfer_efficiency: 0.104,
            serialization_efficiency: 0.577,
            queries: 768,
            queries_per_s: 1.2e5,
            query_p50_s: 4.0e-5,
            query_p95_s: 1.1e-4,
            query_p99_s: 2.3e-4,
            store_write_mb_s: 210.0,
            store_read_mb_s: 430.0,
            incremental_ratio: 2.4,
        }])
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
        let mut slow = base.clone();
        slow.scenarios[0].end_vtime_s *= 1.30;
        slow.scenarios[0].interactions_per_s /= 1.30;
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
        let mut fast = base.clone();
        fast.scenarios[0].end_vtime_s *= 0.5;
        fast.scenarios[0].interactions_per_s *= 2.0;
        assert!(compare(&base, &fast, 0.05).is_empty());
    }

    #[test]
    fn comparator_catches_query_service_regression() {
        let base = sample();
        let mut slow = base.clone();
        slow.scenarios[0].queries_per_s /= 1.30;
        slow.scenarios[0].query_p99_s *= 1.30;
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
        base.scenarios[0].dominant_wire = "trunk".to_string();

        // 30% timing drift on a scenario marked non-deterministic is
        // scheduling noise, not a regression.
        let mut noisy = base.clone();
        noisy.scenarios[0].end_vtime_s *= 1.30;
        noisy.scenarios[0].parallel_efficiency /= 1.30;
        assert!(compare(&base, &noisy, 0.05).is_empty());

        // But the structural claims still bite: a dominant-wire flip
        // or an availability drop fails even without timings.
        let mut flipped = noisy.clone();
        flipped.scenarios[0].dominant_wire = "intra".to_string();
        let r = compare(&base, &flipped, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("dominant_wire"), "{r:?}");

        let mut lossy = noisy.clone();
        lossy.scenarios[0].availability = 0.5;
        let r = compare(&base, &lossy, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("availability"), "{r:?}");
    }

    #[test]
    fn comparator_flags_vanished_and_nonfinite_metrics() {
        let base = sample();
        let mut zeroed = base.clone();
        zeroed.scenarios[0].interactions_per_s = 0.0;
        let r = compare(&base, &zeroed, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("vanished"), "{r:?}");

        let mut nan = base.clone();
        nan.scenarios[0].end_vtime_s = f64::NAN;
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
        let mut gone = noisy_base.clone();
        gone.scenarios[0].end_vtime_s = 0.0;
        let r = compare(&noisy_base, &gone, 0.05);
        assert!(r.iter().any(|m| m.contains("vanished")), "{r:?}");
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
        // NaN readings trip rather than vacuously pass.
        let mut nan = base.clone();
        nan.scenarios[0].parallel_efficiency = f64::NAN;
        let r = check_floors(&nan, &[f("treecode16", "parallel_efficiency", 0.05)]);
        assert_eq!(r.len(), 1, "{r:?}");
        // Missing scenarios and unknown metrics are errors, not passes.
        let r = check_floors(&base, &[f("nope", "parallel_efficiency", 0.0)]);
        assert!(r[0].contains("missing"), "{r:?}");
        let r = check_floors(&base, &[f("treecode16", "not_a_metric", 0.0)]);
        assert!(r[0].contains("unknown metric"), "{r:?}");
    }

    #[test]
    fn non_finite_values_serialize_safely() {
        let mut r = sample();
        r.scenarios[0].cp_wait_s = f64::NAN;
        let text = to_json(&r);
        assert!(!text.contains("NaN"));
        assert_eq!(from_json(&text).unwrap().scenarios[0].cp_wait_s, 0.0);
    }

    #[test]
    fn store_columns_are_compared_and_floorable() {
        let base = sample();
        // Shipping relatively more bytes per committed state is a
        // compression regression even when every timing is unchanged.
        let mut bloated = base.clone();
        bloated.scenarios[0].incremental_ratio = 1.1;
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
        let mut base = sample();
        base.scenarios[0] = base.scenarios[0].clone().with_scaling("weak", "xbar", 1024);
        base.scenarios[0].scaling_efficiency = 0.8;
        assert_eq!(base.scenarios[0].mode, "weak");
        assert_eq!(base.scenarios[0].fabric, "xbar");
        assert_eq!(base.scenarios[0].bodies, 1024);

        let mut worse = base.clone();
        worse.scenarios[0].scaling_efficiency = 0.6;
        let r = compare(&base, &worse, 0.05);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("scaling_efficiency"), "{r:?}");

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
        // A v3 file: older than the parser's schema, so refused with the
        // schema-version error rather than loaded with guessed columns.
        let err = from_json("{\"schema_version\": 3, \"scenarios\": []}").unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }
}
