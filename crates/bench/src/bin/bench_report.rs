//! The bench-trajectory harness (ISSUE PR 4).
//!
//! Default mode runs the standard scenarios — the golden 16-rank
//! treecode, the same run under injected faults (restart recovery and
//! detector-armed degraded-mode shard recovery), the 288-rank
//! bisection exchange on both the two-switch Space Simulator fabric and
//! an ideal crossbar, the 16-rank simulation-as-a-service query
//! engine under its standing client fleet, and the snapshot-store
//! commit/materialize cycle — folds each trace through the
//! critical-path and efficiency analyses, and writes a schema-versioned
//! `BENCH_report.json` (see `bench::report` for the format).
//!
//! ```bash
//! cargo run -p bench --bin bench_report [-- --out PATH]
//! cargo run -p bench --bin bench_report -- --compare BASELINE NEW \
//!     [--max-regress PCT] [--floor SCENARIO:METRIC:MIN]...
//! ```
//!
//! Compare mode diffs two report files and exits nonzero if any metric
//! regressed beyond the tolerance (default 5%); CI runs it against the
//! committed baseline at the repo root. `--floor` (repeatable) adds an
//! absolute ratchet on the NEW report: the named metric must hold at
//! least MIN, so a hard-won level cannot erode back one sub-tolerance
//! step at a time.

use bench::report::{
    check_floors, compare, from_json, parse_floor, summary_table, to_json, BenchReport, Scenario,
};
use cluster::bisection_exchange_traced;
use cluster::chaos::{run_treecode, ChaosConfig};
use cluster::ics::{
    golden_bodies, golden_chaos, golden_gravity, golden_plan, golden_run, GOLDEN_DT, GOLDEN_RANKS,
    GOLDEN_STEPS,
};
use cluster::io::IoModel;
use hot::integrate::Simulation;
use msg::{FaultPlan, HeartbeatConfig, Machine};
use netsim::LinkFault;
use std::process::ExitCode;
use store::{GenerationLog, RecordKind, StoreConfig};

const EXCHANGE_RANKS: usize = 288;
const EXCHANGE_BYTES: usize = 512 * 1024;
const EXCHANGE_ROUNDS: u32 = 4;

/// Horizon of the degraded-mode scenario. Long enough that the failure
/// detector's verdict latency (~158 heartbeat intervals of virtual
/// silence: suspicion threshold plus confirmation window) plus the lost
/// work since the last shard commit stays under a tenth of the run, so
/// the availability >= 0.90 ratchet measures recovery quality rather
/// than detection overhead.
const DEGRADED_STEPS: u64 = 128;

/// The golden 16-rank treecode (same config as the committed trace
/// snapshot), fault-free. Returns the row plus its end time, which the
/// chaos scenario uses to place its crash mid-run.
fn treecode16() -> (Scenario, f64) {
    let (_, report, trace) = golden_run(&golden_plan(), &golden_chaos(), GOLDEN_STEPS);
    let row = Scenario::from_treecode("treecode16", &report, trace);
    (row, report.final_vtime)
}

/// The same treecode under duplicate floods plus one guaranteed mid-run
/// crash: availability < 1, physics identical (the reliability tests
/// pin that; here we ledger the cost).
fn chaos16(clean_vtime: f64) -> Scenario {
    let plan = golden_plan()
        .with_duplicate(0.25)
        .with_crash(5, 0.6 * clean_vtime);
    // Scale the reboot penalty to the bench's tiny virtual horizon so
    // availability reflects lost work + restart cost rather than being
    // swamped by the default (realistically huge) reboot constant.
    let chaos = ChaosConfig {
        restart_penalty_s: 0.3 * clean_vtime,
        ..golden_chaos()
    };
    let (_, report, trace) = golden_run(&plan, &chaos, GOLDEN_STEPS);
    assert!(report.restarts >= 1, "crash never fired: {report:?}");
    Scenario::from_treecode("chaos16", &report, trace)
}

/// The graceful-degradation scenario (ISSUE PR 7): failure detector
/// armed, per-rank checkpoint shards, one guaranteed mid-run crash,
/// a dead switch port that heals, and a permanently slow node. The
/// condemned rank must fail over from its own shard — zero world
/// restarts — with physics bit-identical to the fault-free control and
/// availability >= 0.90 (the CI ratchet).
fn chaos_degraded16() -> Scenario {
    // Tight heartbeat cadence keeps verdict latency (suspicion floor +
    // confirmation aging, ~158 intervals of virtual silence) small
    // against the horizon. The confirmation window stays at its default
    // *count*: idle-warp aging advances one interval per hysteresis
    // window of polls, so the wall-clock grace against stalls is
    // measured in intervals and shrinking `every_s` does not erode it.
    let hb = HeartbeatConfig {
        every_s: 2.0e-5,
        ..Default::default()
    };
    let chaos = ChaosConfig {
        checkpoint_every: 4,
        // Spare-node failover on the bench's compressed horizon: scaled
        // like chaos16's restart penalty, but two orders smaller — the
        // whole point of shard recovery is that it is not a reboot.
        failover_penalty_s: 2.0e-4,
        ..Default::default()
    };
    // Fault-free control run: fixes the crash placement mid-run and
    // pins the degraded run's physics.
    let (clean_bodies, clean) = run_treecode(
        &Machine::ideal(GOLDEN_RANKS as u32),
        GOLDEN_RANKS,
        &golden_plan(),
        &chaos,
        golden_bodies(),
        &golden_gravity(),
        DEGRADED_STEPS,
        GOLDEN_DT,
    );
    assert!(
        clean.completed && clean.restarts == 0,
        "degraded control failed: {clean:?}"
    );
    let horizon = clean.final_vtime;
    let plan = FaultPlan::none(11)
        .with_heartbeat(hb)
        .with_crash(5, 0.55 * horizon)
        // A switch port dies for a window an order of magnitude shorter
        // than the verdict latency: suspicion may rise but must be
        // retracted once the port heals and retransmits flush through.
        .with_link_fault(LinkFault::dead(3, 0.30 * horizon, 0.30 * horizon + 1.0e-3))
        // One node behind a port at quarter speed for the whole run —
        // the health-weighted decomposition sheds work off it instead
        // of letting it pace every step.
        .with_link_fault(LinkFault::degraded(9, 0.0, 0.25));
    let (bodies, report, trace) = golden_run(&plan, &chaos, DEGRADED_STEPS);
    assert_eq!(
        report.restarts, 0,
        "degraded mode must never restart the world: {report:?}"
    );
    assert_eq!(
        report.shard_recoveries, 1,
        "exactly one shard failover expected: {report:?}"
    );
    assert!(report.diagnosis.is_none(), "diagnosed: {report:?}");
    // Recovery must reproduce the fault-free universe bit for bit.
    assert_eq!(bodies.len(), clean_bodies.len());
    for (d, c) in bodies.iter().zip(&clean_bodies) {
        assert_eq!(d.pos, c.pos, "degraded recovery changed the physics");
        assert_eq!(d.vel, c.vel, "degraded recovery changed the physics");
    }
    let mut row = Scenario::from_treecode("chaos_degraded16", &report, trace);
    // Verdict timing rides the retransmit timer and the poll cadence,
    // both wall-racy; the comparator pins only availability (floored)
    // and the structural facts asserted above.
    row.deterministic = false;
    row
}

/// The simulation-as-a-service scenario (ISSUE PR 8): the golden
/// 16-rank replicated universe advancing while each rank's open-loop
/// client fleet issues point/region/cone/kNN/time-travel queries,
/// answered from the shared per-tick spatial index and merged across
/// the rank partition. The headline is service throughput
/// (`queries_per_s`) plus client latency percentiles; every phase
/// receives in peer order on a crossbar, so the row is deterministic.
/// ICs come from the rand-free `golden_ics` so the committed workload
/// is platform-stable.
fn queries16() -> Scenario {
    let qcfg = query::EngineConfig {
        gravity: golden_gravity(),
        dt: 0.05,
        steps: 4,
        checkpoint_every: 2,
        fleet: query::FleetConfig {
            per_rank: 64,
            ..query::FleetConfig::default()
        },
        ..query::EngineConfig::default()
    };
    let ics = golden_bodies();
    let (outs, trace) = msg::comm::run_observed(Machine::ideal(18), 16, move |comm| {
        query::run(comm, ics.clone(), &qcfg)
    });
    trace.check_invariants().expect("queries16 invariants");
    let mut answered = 0u64;
    let mut lats: Vec<f64> = Vec::new();
    for o in &outs {
        assert_eq!(o.stats.dup_replies, 0, "duplicate replies: {:?}", o.stats);
        assert_eq!(o.stats.unanswered, 0, "dropped queries: {:?}", o.stats);
        assert_eq!(o.stats.issued, o.stats.answered, "{:?}", o.stats);
        answered += o.stats.answered;
        lats.extend(o.replies.iter().map(|r| r.done_s - r.at_s));
    }
    lats.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| lats[((lats.len() - 1) as f64 * p) as usize];
    let mut row = Scenario::from_trace("queries16", &trace, 1.0);
    row.set_rate("queries", answered, &trace);
    row.set("query_p50_s", q(0.50));
    row.set("query_p95_s", q(0.95));
    row.set("query_p99_s", q(0.99));
    row
}

/// Commit cadence and horizon of the snapshot-store scenario: 17
/// commits over 32 steps spans two full frames at the store's
/// `FULL_EVERY = 8`, so the incremental ratio prices real chains, not
/// just the first full frame.
const STORE_STEPS: u64 = 32;
const STORE_COMMIT_EVERY: u64 = 2;

/// The snapshot-store scenario (ISSUE PR 10): the golden universe
/// evolves serially and commits every other step into a
/// [`GenerationLog`] — first frame full, the rest dirty-cell deltas.
/// Virtual I/O cost comes from the §4.3 local-disk model, so the
/// headline throughputs are *effective* state rates: a delta that
/// ships 1/3 of the bytes reads back at 3× the disk rate. The
/// `incremental_ratio` (full bytes over shipped bytes) is the
/// compression claim itself, floored in CI.
fn store_bench() -> Scenario {
    let run_once = || {
        let mut sim = Simulation::new(golden_bodies(), golden_gravity(), GOLDEN_DT);
        let mut log = GenerationLog::new(StoreConfig::default(), 0);
        log.commit(0, &sim.bodies, &[]);
        for step in 1..=STORE_STEPS {
            sim.step();
            if step % STORE_COMMIT_EVERY == 0 {
                log.commit(step, &sim.bodies, &[]);
            }
        }
        log
    };
    let log = run_once();
    // The store's canonical-ordering claim, held at bench scale: the
    // same physics must commit byte-identical records on a second run.
    let again = run_once();
    let frames = |l: &GenerationLog| -> Vec<u8> {
        l.steps()
            .flat_map(|s| l.record(s).expect("committed").bytes().to_vec())
            .collect()
    };
    assert_eq!(
        frames(&log),
        frames(&again),
        "store commits are not byte-deterministic"
    );
    assert!(
        log.commit_bytes < log.full_bytes,
        "deltas never beat full frames: {} committed vs {} full",
        log.commit_bytes,
        log.full_bytes
    );

    let io = IoModel::space_simulator(16);
    // Write side: the log shipped `commit_bytes` to disk to persist
    // `full_bytes` worth of state.
    let write_s = io.snapshot_time(log.commit_bytes as f64);
    let write_mb_s = log.full_bytes as f64 / 1e6 / write_s;
    // Read side: materialize every generation cold; each read pays for
    // its chain (nearest full frame plus the deltas up to the step) and
    // delivers a full decoded state.
    let records: Vec<(u64, usize, bool)> = log
        .steps()
        .map(|s| {
            let r = log.record(s).expect("committed");
            let full = matches!(
                store::record_kind(r.bytes()).expect("committed record"),
                RecordKind::Full
            );
            (s, r.bytes().len(), full)
        })
        .collect();
    let mut read_bytes = 0u64;
    let mut delivered = 0u64;
    for (i, (s, _, _)) in records.iter().enumerate() {
        let base = records[..=i]
            .iter()
            .rposition(|(_, _, full)| *full)
            .expect("chains start full");
        read_bytes += records[base..=i]
            .iter()
            .map(|(_, len, _)| *len as u64)
            .sum::<u64>();
        let snap = log.materialize(*s).expect("pristine log materializes");
        delivered += snap.to_bytes().len() as u64;
    }
    let read_s = io.snapshot_time(read_bytes as f64);
    let read_mb_s = delivered as f64 / 1e6 / read_s;

    // No trace behind this row: only its own family plus the cells every
    // row shares.
    let mut row = Scenario::new("store_bench");
    row.set("ranks", 1.0);
    row.set("end_vtime_s", write_s + read_s);
    row.set("availability", 1.0);
    row.set("store_write_mb_s", write_mb_s);
    row.set("store_read_mb_s", read_mb_s);
    row.set(
        "incremental_ratio",
        log.full_bytes as f64 / log.commit_bytes as f64,
    );
    row
}

/// 288-rank bisection exchange on the two-switch fabric: the scenario
/// whose report must name the 8 Gbit trunk as the dominant
/// critical-path resource.
fn bisection_trunk() -> Scenario {
    let m = Machine::space_simulator_lam();
    let trace = bisection_exchange_traced(&m, EXCHANGE_RANKS, EXCHANGE_BYTES, EXCHANGE_ROUNDS);
    let mut row = Scenario::from_trace("bisection288_trunk", &trace, 1.0);
    // Contended-fabric transfers serialize in wall-clock arrival order,
    // so this scenario's timings vary run to run; the comparator pins
    // only the structural claim (dominant_wire == trunk).
    row.deterministic = false;
    row
}

/// The same exchange on an ideal crossbar: the control run — no trunk,
/// no contention.
fn bisection_xbar() -> Scenario {
    let m = Machine::ideal(EXCHANGE_RANKS as u32);
    let trace = bisection_exchange_traced(&m, EXCHANGE_RANKS, EXCHANGE_BYTES, EXCHANGE_ROUNDS);
    Scenario::from_trace("bisection288_xbar", &trace, 1.0)
}

fn run_all() -> BenchReport {
    let ran = |row: Scenario| {
        eprintln!("ran {}", row.name);
        row
    };
    let (tc, vtime) = treecode16();
    BenchReport::new(vec![
        ran(tc),
        ran(chaos16(vtime)),
        ran(chaos_degraded16()),
        ran(bisection_trunk()),
        ran(bisection_xbar()),
        ran(queries16()),
        ran(store_bench()),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(base_path), Some(new_path)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!("usage: bench_report --compare BASELINE NEW [--max-regress PCT]");
            return ExitCode::from(2);
        };
        let max_regress = match args.iter().position(|a| a == "--max-regress") {
            Some(j) => match args.get(j + 1).and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) => pct / 100.0,
                None => {
                    eprintln!("--max-regress wants a percentage");
                    return ExitCode::from(2);
                }
            },
            None => 0.05,
        };
        let mut floors = Vec::new();
        for (j, _) in args.iter().enumerate().filter(|(_, a)| *a == "--floor") {
            match parse_floor(args.get(j + 1).map_or("", String::as_str)) {
                Ok(floor) => floors.push(floor),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            }
        }
        let load = |path: &str| -> Result<BenchReport, String> {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
        };
        let (base, new) = match (load(base_path), load(new_path)) {
            (Ok(b), Ok(n)) => (b, n),
            (b, n) => {
                for r in [b.err(), n.err()].into_iter().flatten() {
                    eprintln!("error: {r}");
                }
                return ExitCode::from(2);
            }
        };
        let mut regressions = compare(&base, &new, max_regress);
        regressions.extend(check_floors(&new, &floors));
        if regressions.is_empty() {
            println!(
                "OK: {} scenarios within {:.1}% of baseline, {} floor(s) held",
                base.scenarios.len(),
                max_regress * 100.0,
                floors.len()
            );
            return ExitCode::SUCCESS;
        }
        eprintln!("REGRESSIONS ({}):", regressions.len());
        for r in &regressions {
            eprintln!("  {r}");
        }
        return ExitCode::FAILURE;
    }

    let out_path = match args.iter().position(|a| a == "--out") {
        Some(i) => match args.get(i + 1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("--out wants a path");
                return ExitCode::from(2);
            }
        },
        None => "BENCH_report.json".to_string(),
    };

    let report = run_all();
    print!("{}", summary_table("bench_report scenarios", &report));
    let json = to_json(&report);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path} (schema v{})", report.schema_version);
    ExitCode::SUCCESS
}
