//! Golden-trace harness: the PR's headline test.
//!
//! A 16-rank replicated treecode runs on the ideal (contention-free)
//! machine with the virtual-time observability layer on. Because every
//! quantity in the trace is keyed to the virtual clock — never wall
//! time — two runs of the same program export **byte-identical** traces,
//! and a committed snapshot of the structural summary pins the behaviour
//! of the scheduler, collectives, transport, and checkpoint path: any
//! drift in span structure, message counts, wire bytes, or virtual
//! timings shows up as a text diff.
//!
//! Determinism preconditions, chosen deliberately:
//! * ideal crossbar fabric — transfer times are stateless, so wall-clock
//!   interleaving of ranks cannot leak into virtual arrival times;
//! * [`RetransmitConfig::deterministic`] — the retransmit timer is
//!   disabled, so ack servicing order (which races wall clock) cannot
//!   change what goes on the wire;
//! * fault injection limited to duplicates — the one fault whose repair
//!   is invisible to delivery order and timing;
//! * ICs from [`cluster::ics::golden_ics`] — SplitMix64 expansion using
//!   only arithmetic and comparisons (no `rand` crate, no libm), so the
//!   committed snapshot is stable across dependency versions and
//!   platforms. The bench harness uses the same generator, so the golden
//!   snapshot and the committed bench baseline describe the same run.

use cluster::chaos::ChaosConfig;
use cluster::ics::{
    self, golden_chaos, golden_plan, GOLDEN_RANKS, GOLDEN_STEPS, GOLDEN_TIMELINE_WINDOW_S,
};
use hot::tree::Body;
use msg::FaultPlan;
use obs::{chrome_trace_json, gantt, structural_summary, WorldTrace};

/// One golden run (`cluster::ics::golden_run`): 16 ranks, 4 KDK steps,
/// checkpoints every 2 steps. Panics if the run needed a restart
/// (golden plans are crash-free).
///
/// `timeline` arms the windowed telemetry plane. The clean plan's
/// windowed series are virtual-time deterministic, but a plan that
/// injects faults is not windowable byte-stably: fault counters sync to
/// the registry at window boundaries in program order, and which window
/// a repair's counter lands in races the wall-clock channel drain — so
/// the duplicate-replay test below keeps the timeline off.
fn golden_run_with(plan: &FaultPlan, timeline: Option<f64>) -> (Vec<Body>, WorldTrace) {
    let chaos = ChaosConfig {
        timeline_window_s: timeline,
        ..golden_chaos()
    };
    let (bodies, report, trace) = ics::golden_run(plan, &chaos, GOLDEN_STEPS);
    assert!(report.completed && report.restarts == 0, "{report:?}");
    (bodies, trace.expect("completed traced run yields a trace"))
}

fn golden_run(plan: &FaultPlan) -> (Vec<Body>, WorldTrace) {
    golden_run_with(plan, Some(GOLDEN_TIMELINE_WINDOW_S))
}

#[test]
fn same_seed_runs_export_byte_identical_traces() {
    let (b1, t1) = golden_run(&golden_plan());
    let (b2, t2) = golden_run(&golden_plan());
    t1.check_invariants().unwrap();

    // All three export formats, byte for byte.
    assert_eq!(structural_summary(&t1), structural_summary(&t2));
    assert_eq!(chrome_trace_json(&t1), chrome_trace_json(&t2));
    assert_eq!(gantt(&t1, 120), gantt(&t2, 120));
    // And the physics underneath them.
    assert_eq!(b1.len(), b2.len());
    for (x, y) in b1.iter().zip(&b2) {
        assert_eq!(x.pos, y.pos);
        assert_eq!(x.vel, y.vel);
    }

    // The trace actually covers the stack: integrator phases, the
    // collectives under them, and the transport counters.
    let summary = structural_summary(&t1);
    for needle in [
        "span chaos.restore",
        "span chaos.force",
        "span chaos.exchange",
        "span chaos.checkpoint",
        "span coll.allgather",
        "span coll.barrier",
        // The derived analysis block: critical path and POP efficiency
        // factors, byte-deterministic like everything above it.
        "analysis v1",
        "critical-path total_s",
        "efficiency parallel",
        "phase chaos.force",
        // The time-resolved plane rides the same snapshot.
        "timeline v1",
    ] {
        assert!(
            summary.contains(needle),
            "summary missing {needle:?}:\n{summary}"
        );
    }
    assert!(t1.counter_total("msg.sends") > 0);
    assert_eq!(t1.counter_total("fault.retransmits"), 0);
    // The degraded-mode counters are identically zero here (no detector
    // armed, deterministic transport, nothing retransmitted) — and zero
    // counters are *absent* from summaries, so the committed golden
    // snapshot cannot silently absorb transport or health noise.
    for counter in [
        "net.retx",
        "net.rto",
        "net.window_stalls",
        "health.heartbeats",
        "health.suspicions",
        "health.verdicts",
    ] {
        assert_eq!(t1.counter_total(counter), 0, "{counter} in clean world");
        assert!(!summary.contains(counter), "{counter} leaked into summary");
    }
    assert_eq!(t1.size(), GOLDEN_RANKS);

    // The analysis invariants hold on the real workload, not just the
    // synthetic proptest worlds: the path tiles the horizon and the POP
    // factorization is exact.
    let cp = obs::critical_path(&t1);
    let eff = obs::efficiency(&t1, &cp);
    assert!((cp.total() - (t1.end_time() - t1.start_time())).abs() < 1e-9);
    let product = eff.load_balance * eff.transfer_efficiency * eff.serialization_efficiency;
    assert!((product - eff.parallel_efficiency).abs() < 1e-9);

    // Timeline structure: every rank windowed on the shared grid, the
    // windowed deltas conserving the end-of-run aggregates, and every
    // export byte-identical across the replay.
    let tl1 = obs::WorldTimeline::from_trace(&t1).expect("timeline armed on every rank");
    let tl2 = obs::WorldTimeline::from_trace(&t2).unwrap();
    tl1.check_invariants(&t1).unwrap();
    assert_eq!(obs::timeline_csv(&tl1), obs::timeline_csv(&tl2));
    assert_eq!(obs::timeline_json(&tl1), obs::timeline_json(&tl2));
    assert_eq!(obs::sparkline(&tl1), obs::sparkline(&tl2));
    // The windowed series resolve the run in time: the force phase and
    // the wire traffic each span more than one window.
    let merged = tl1.merged();
    assert!(merged.len() > 2, "horizon should span several windows");
    let busy_windows = merged
        .iter()
        .filter(|w| w.phase_busy.contains_key("chaos.force"))
        .count();
    assert!(busy_windows > 1, "force phase collapsed into one window");
    let wire_windows = merged
        .iter()
        .filter(|w| w.wire_bytes.iter().sum::<u64>() > 0)
        .count();
    assert!(wire_windows > 1, "wire traffic collapsed into one window");
}

#[test]
fn duplicate_fault_replay_is_byte_identical() {
    // Duplicates are the one injectable fault whose repair (receiver-side
    // dedup) cannot perturb delivery order or virtual timing; with the
    // retransmit timer disabled the injected world is as deterministic
    // as the clean one.
    // Timeline off: which window a repair's fault counter lands in races
    // the wall-clock channel drain (see `golden_run_with`), and this test
    // is exactly a byte-compare.
    let plan = golden_plan().with_duplicate(0.25);
    let (b1, t1) = golden_run_with(&plan, None);
    let (b2, t2) = golden_run_with(&plan, None);
    t1.check_invariants().unwrap();
    assert_eq!(structural_summary(&t1), structural_summary(&t2));
    assert_eq!(chrome_trace_json(&t1), chrome_trace_json(&t2));

    // The plan really injected, and the transport really repaired:
    // physics is bit-identical across replays and to the fault-free
    // world.
    assert!(t1.counter_total("fault.duplicates") > 0, "plan never fired");
    let (clean_bodies, _) = golden_run(&golden_plan());
    for ((x, y), z) in b1.iter().zip(&b2).zip(&clean_bodies) {
        assert_eq!(x.pos, y.pos, "replay diverged");
        assert_eq!(x.pos, z.pos, "duplicates changed the physics");
    }
}

#[test]
fn degraded_run_surfaces_health_and_net_counters() {
    // With the failure detector armed the same golden world runs in
    // degraded mode: heartbeat traffic must surface in the structural
    // summary (a human reading a degraded run's trace sees the detector
    // working), and no verdict may fire on a healthy world. This run is
    // wall-cadence-dependent, so nothing here is snapshot-pinned — the
    // schedule digest excludes `net.*`/`health.*` for exactly that
    // reason.
    let plan = FaultPlan::none(11).with_heartbeat(msg::HeartbeatConfig::default());
    let (_, trace) = golden_run(&plan);
    assert!(
        trace.counter_total("health.heartbeats") > 0,
        "armed detector emitted no heartbeats"
    );
    assert_eq!(
        trace.counter_total("health.verdicts"),
        0,
        "false verdict on a healthy world"
    );
    let summary = structural_summary(&trace);
    assert!(
        summary.contains("health.heartbeats"),
        "health counters missing from structural summary:\n{summary}"
    );
}

#[test]
fn committed_golden_snapshot_matches() {
    let (_, trace) = golden_run(&golden_plan());
    let got = structural_summary(&trace);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/treecode16.summary"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        eprintln!("golden snapshot rewritten: {path}");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read golden snapshot {path}: {e}; regenerate with UPDATE_GOLDEN=1")
    });
    assert!(
        got == want,
        "trace drifted from the committed golden snapshot.\n\
         If the change is intentional, regenerate with:\n\
         UPDATE_GOLDEN=1 cargo test -p cluster --test golden_trace\n\
         --- committed ---\n{want}\n--- current ---\n{got}"
    );
}

/// The golden world's happens-before edges, one record a line: per rank
/// its horizon and modeled compute, its spans, its blocked receives and
/// the sends those name — exactly what `obs`'s critical path and
/// efficiency read. `obs` cannot run a world, so its unit tests analyse
/// the golden world from this file (and check that it reproduces the
/// summary's `analysis v1` block).
fn edge_fixture(w: &WorldTrace) -> String {
    use std::fmt::Write;
    let mut out = format!("golden-edges v1\nranks {}\n", w.size());
    for r in &w.ranks {
        let compute = r.metrics.gauge("vt.compute_s").unwrap_or(0.0);
        let _ = writeln!(
            out,
            "rank {} start {:?} end {:?} compute_s {compute:?}",
            r.rank, r.start, r.end
        );
        for s in &r.spans {
            let _ = writeln!(
                out,
                "span {} {:?} {:?} {} {}",
                s.name, s.t0, s.t1, s.depth, s.seq
            );
        }
        for rec in r.recvs.iter().filter(|rec| rec.wait > 0.0) {
            let _ = writeln!(
                out,
                "recv {} {} {:?} {:?} {:?}",
                rec.src, rec.seq, rec.arrival, rec.t_end, rec.wait
            );
        }
        let named = |seq: u64| {
            w.ranks.iter().any(|d| {
                d.recvs
                    .iter()
                    .any(|rec| rec.wait > 0.0 && rec.src as usize == r.rank && rec.seq == seq)
            })
        };
        for s in r.sends.iter().filter(|s| named(s.seq)) {
            let _ = writeln!(
                out,
                "send {} {} {:?} {} {:?} {}",
                s.dst,
                s.seq,
                s.t,
                s.bytes,
                s.queued,
                s.link.name()
            );
        }
    }
    out
}

#[test]
fn committed_edge_fixture_matches() {
    let (_, trace) = golden_run(&golden_plan());
    let got = edge_fixture(&trace);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/treecode16.edges");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        eprintln!("golden edges rewritten: {path}");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read golden edges {path}: {e}; regenerate with UPDATE_GOLDEN=1")
    });
    assert!(
        got == want,
        "edges drifted from the committed golden fixture.\n\
         If the change is intentional, regenerate with:\n\
         UPDATE_GOLDEN=1 cargo test -p cluster --test golden_trace"
    );
}

/// The timeline CSV is its own committed artifact: wider than the
/// summary's `timeline v1` block (per-rank rows, histogram percentiles,
/// gauge levels), and exactly what the CI observability job uploads.
#[test]
fn committed_timeline_csv_matches() {
    let (_, trace) = golden_run(&golden_plan());
    let tl = obs::WorldTimeline::from_trace(&trace).expect("timeline armed");
    let got = obs::timeline_csv(&tl);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/treecode16.timeline.csv"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        eprintln!("golden timeline rewritten: {path}");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read golden timeline {path}: {e}; regenerate with UPDATE_GOLDEN=1")
    });
    assert!(
        got == want,
        "timeline drifted from the committed golden CSV.\n\
         If the change is intentional, regenerate with:\n\
         UPDATE_GOLDEN=1 cargo test -p cluster --test golden_trace\n\
         --- committed ---\n{want}\n--- current ---\n{got}"
    );
}
