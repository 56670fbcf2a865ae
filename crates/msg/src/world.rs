//! The world runner: one builder, one spawn/join/classify loop.
//!
//! The paper ran the same MPI programs under MPICH, MPICH2 and LAM by
//! swapping the library underneath, never the program's entry point.
//! [`World`] is that discipline here: what a run carries — a
//! [`FaultPlan`], an adversarial [`SchedPlan`], a recorded
//! [`ScheduleLog`] to replay, a restart `clock0`, a trace recorder — is
//! set on the builder, and [`World::run`] is the only place in the crate
//! that spawns rank threads, wires their channels, catches rank panics,
//! classifies how each rank ended and assembles the traces.
//! [`crate::run`], [`crate::run_with`] and [`crate::run_observed`] are
//! one-line shorthands for the fault-free, unscheduled world.

use crate::comm::{Comm, Port};
use crate::fault::{install_quiet_hook, FaultPlan, QuietCrash, RankCrash, WorldAborted};
use crate::machine::Machine;
use crate::replicated;
use crate::sched::{ReplayCtx, SchedCtx, SchedPlan, SchedShared, ScheduleLog, Stall, StallAbort};
use crate::transport::FaultCtx;
use obs::{RankTrace, WorldTrace};
use std::panic::{resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;

/// How a world ended.
#[derive(Debug)]
pub enum WorldOutcome<T> {
    /// Every rank ran to completion; per-rank results in rank order.
    Completed(Vec<T>),
    /// A rank died (scheduled crash, unreachable peer, or a failure-
    /// detector verdict); the earliest death is reported. Restore a
    /// checkpoint and rerun. Only worlds with a fault plan crash.
    Crashed { rank: usize, at: f64 },
    /// A liveness watchdog fired: the schedule drove the program into a
    /// deadlock (`deadlock: true`) or past its virtual-time budget. Only
    /// worlds with a schedule installed stall.
    Stalled {
        rank: usize,
        at: f64,
        deadlock: bool,
    },
}

impl<T> WorldOutcome<T> {
    /// The results of a world that must have completed.
    pub fn expect_completed(self, msg: &str) -> Vec<T> {
        match self {
            WorldOutcome::Completed(v) => v,
            WorldOutcome::Crashed { rank, at } => {
                panic!("{msg}: world crashed (rank {rank} at t={at:.3})")
            }
            WorldOutcome::Stalled { rank, at, deadlock } => panic!(
                "{msg}: world stalled (rank {rank} at t={at:.3}, {})",
                if deadlock {
                    "deadlock"
                } else {
                    "budget exceeded"
                }
            ),
        }
    }
}

/// Everything a finished world hands back.
#[derive(Debug)]
pub struct WorldRun<T> {
    pub outcome: WorldOutcome<T>,
    /// The merged virtual-time trace of an observed world that completed.
    /// Crashed and stalled worlds return none: a surviving rank's
    /// timeline ends wherever it happened to observe the abort flag,
    /// which is a wall-clock race, not a virtual-time fact.
    pub trace: Option<WorldTrace>,
    /// Every wildcard-receive decision a scheduled world made, recorded
    /// up to the failure when it crashed or stalled; empty when no
    /// schedule was installed.
    pub log: ScheduleLog,
}

/// One `nranks`-way world on `machine`, configured before it runs.
///
/// ```
/// use msg::{FaultPlan, Machine, SchedPlan, World, WorldOutcome};
///
/// let (faults, schedule) = (FaultPlan::none(42).with_drop(0.1), SchedPlan::new(7));
/// let run = World::new(Machine::ideal(4), 4)
///     .faults(&faults)
///     .schedule(&schedule)
///     .observe(true)
///     .run(|c| c.allreduce(c.rank() as u64, |a, b| a + b));
/// match run.outcome {
///     WorldOutcome::Completed(sums) => assert_eq!(sums, vec![6; 4]),
///     other => panic!("{other:?}"),
/// }
/// assert!(run.trace.is_some());
/// let replayed = World::new(Machine::ideal(4), 4)
///     .faults(&faults)
///     .schedule(&schedule)
///     .replay(&run.log, usize::MAX)
///     .run(|c| c.allreduce(c.rank() as u64, |a, b| a + b));
/// assert_eq!(replayed.log, run.log);
/// ```
pub struct World<'a> {
    machine: Machine,
    nranks: usize,
    faults: Option<&'a FaultPlan>,
    schedule: Option<&'a SchedPlan>,
    replay: Option<(&'a ScheduleLog, usize)>,
    clock0: f64,
    observe: bool,
}

impl<'a> World<'a> {
    /// A fault-free, unscheduled, unobserved world whose virtual clocks
    /// start at zero.
    pub fn new(machine: Machine, nranks: usize) -> Self {
        World {
            machine,
            nranks,
            faults: None,
            schedule: None,
            replay: None,
            clock0: 0.0,
            observe: false,
        }
    }

    /// Run under `plan`: all messaging goes through the reliable
    /// transport (sequence numbers, cumulative acks, timeout/retransmit
    /// with exponential backoff — [`crate::transport`]); scheduled crashes,
    /// and senders exhausting their retries against a dead peer, tear the
    /// world down and report [`WorldOutcome::Crashed`].
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Run under an adversarial delivery schedule (see [`crate::sched`]),
    /// with the liveness watchdogs armed.
    pub fn schedule(mut self, plan: &'a SchedPlan) -> Self {
        self.schedule = Some(plan);
        self
    }

    /// Replay a recorded schedule: each rank's first `prefix` wildcard
    /// decisions are forced to the logged source (the receiver waits for
    /// that source's head-of-line packet), and decisions past the prefix
    /// fall back to deterministic first-match. `prefix = usize::MAX`
    /// replays the whole log; smaller prefixes are the shrink knob — the
    /// smallest prefix that still fails is the minimal schedule
    /// divergence.
    ///
    /// Needs the recorded run's [`World::schedule`] plan: jitter draws
    /// are consumed per send in deterministic order, so they replay from
    /// the seed; `perturb_limit` is ignored while the replay cursor is
    /// active.
    pub fn replay(mut self, log: &'a ScheduleLog, prefix: usize) -> Self {
        self.replay = Some((log, prefix));
        self
    }

    /// Start every rank's virtual clock at `t`, so a restart attempt
    /// continues the absolute cluster timeline and crash events stay
    /// comparable across attempts — events at or before `t` are treated
    /// as already spent.
    pub fn clock0(mut self, t: f64) -> Self {
        self.clock0 = t;
        self
    }

    /// Record a virtual-time trace on every rank and return them merged
    /// in [`WorldRun::trace`].
    pub fn observe(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }

    /// Run the world: each rank executes `f` on its own thread. Genuine
    /// panics (assertion failures) in any rank propagate once the whole
    /// world is torn down.
    pub fn run<T, F>(self, f: F) -> WorldRun<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let World {
            machine,
            nranks,
            faults,
            schedule,
            replay,
            clock0,
            observe,
        } = self;
        assert!(nranks >= 1, "need at least one rank");
        assert!(
            (machine.fabric.topology().total_ports() as usize) >= nranks,
            "machine has too few ports for {nranks} ranks"
        );
        if let Some((log, _)) = replay {
            assert!(schedule.is_some(), "replay needs the recorded run's plan");
            assert_eq!(
                log.per_rank.len(),
                nranks,
                "replay log is for a {}-rank world",
                log.per_rank.len()
            );
        }
        if faults.is_some() || schedule.is_some() {
            install_quiet_hook();
        }
        // The fabric is shared (Arc) and reused across runs and restart
        // attempts; make the fault set exactly this world's, not
        // accumulated.
        machine.fabric.clear_link_faults();
        for lf in faults.into_iter().flat_map(|p| &p.link_faults) {
            machine.fabric.inject_link_fault(*lf);
        }
        let abort = Arc::new(AtomicBool::new(false));
        let drained = Arc::new(AtomicUsize::new(0));
        let watchdog = schedule.map(|_| Arc::new(SchedShared::new(nranks)));
        let once_table = Arc::new(replicated::Table::default());
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..nranks).map(|_| channel()).unzip();
        let rank_main = |rank: usize, rx| -> RankEnd<(T, Option<RankTrace>)> {
            let fctx = faults.map(|plan| {
                let (abort, drained) = (abort.clone(), drained.clone());
                Box::new(FaultCtx::new(plan, rank, nranks, clock0, abort, drained))
            });
            let armed = schedule.zip(watchdog.as_ref());
            let sctx = armed.map(|(plan, shared)| {
                let replay = replay.map(|(log, prefix)| ReplayCtx {
                    choices: Arc::new(log.per_rank[rank].clone()),
                    cursor: 0,
                    prefix,
                });
                Box::new(SchedCtx::new(plan, rank, nranks, shared.clone(), replay))
            });
            let (machine, senders) = (machine.clone(), senders.clone());
            let port = Port::new(rank, nranks, clock0, machine, senders, armed);
            let mut comm = Comm::construct(port, rx, once_table.clone(), fctx, sctx);
            let program = AssertUnwindSafe(|| {
                if observe {
                    comm.install_recorder();
                }
                let v = f(&mut comm);
                // Traces end when the program returns: the transport
                // drain below costs virtual time per real-time poll,
                // which would poison the trace's determinism.
                let trace = observe.then(|| comm.take_trace().expect("recorder installed above"));
                // A rank may still owe its peers retransmissions of
                // packets the injector ate; it stays at the NIC until the
                // whole world's unacked queues drain.
                comm.retire();
                (v, trace)
            });
            match std::panic::catch_unwind(program) {
                Ok(v) => RankEnd::Done(v),
                Err(p) => RankEnd::classify(p, &abort, watchdog.as_deref()),
            }
        };
        let rank_main = &rank_main;
        let ends: Vec<_> = thread::scope(|scope| {
            // Spawn the whole world before joining any of it.
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, rx)| {
                    thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .stack_size(16 << 20)
                        .spawn_scoped(scope, move || rank_main(rank, rx))
                        .expect("failed to spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)))
                .collect()
        });
        let mut stall: Option<Stall> = None;
        let mut crash: Option<RankCrash> = None;
        let mut results = Vec::with_capacity(nranks);
        for end in ends {
            match end {
                RankEnd::Done(v) => results.push(v),
                RankEnd::Stall(s) if stall.is_none_or(|b| s.at < b.at) => stall = Some(s),
                RankEnd::Crash(c) if crash.is_none_or(|b| c.at < b.at) => crash = Some(c),
                RankEnd::Stall(_) | RankEnd::Crash(_) | RankEnd::Aborted => {}
                RankEnd::Panic(p) => resume_unwind(p),
            }
        }
        let log = watchdog.map_or_else(ScheduleLog::default, |shared| shared.take_log());
        let (outcome, trace) = if let Some(Stall { rank, at, deadlock }) = stall {
            (WorldOutcome::Stalled { rank, at, deadlock }, None)
        } else if let Some(RankCrash { rank, at }) = crash {
            (WorldOutcome::Crashed { rank, at }, None)
        } else {
            assert_eq!(
                results.len(),
                nranks,
                "aborted world without a stall or crash"
            );
            let (values, traces): (Vec<T>, Vec<Option<RankTrace>>) = results.into_iter().unzip();
            let traces: Option<Vec<RankTrace>> = traces.into_iter().collect();
            (
                WorldOutcome::Completed(values),
                traces.map(WorldTrace::from_ranks),
            )
        };
        WorldRun {
            outcome,
            trace,
            log,
        }
    }
}

/// How one rank's thread ended.
enum RankEnd<T> {
    Done(T),
    Crash(RankCrash),
    Stall(Stall),
    /// Torn down because another rank crashed or stalled.
    Aborted,
    /// A genuine panic (assertion failure); re-raised by the runner.
    Panic(Box<dyn std::any::Any + Send>),
}

impl<T> RankEnd<T> {
    /// Sort a caught panic payload, waking the rest of the world unless
    /// the death is meant to go unnoticed.
    fn classify(
        p: Box<dyn std::any::Any + Send>,
        abort: &AtomicBool,
        sched: Option<&SchedShared>,
    ) -> Self {
        if let Some(c) = p.downcast_ref::<QuietCrash>() {
            // Silent death: the world keeps running — the failure
            // detector on the surviving ranks must notice and raise the
            // abort itself (via a quorum verdict).
            return RankEnd::Crash(RankCrash {
                rank: c.rank,
                at: c.at,
            });
        }
        // Both flags wake every blocked peer: fault-mode ranks poll
        // `abort`, fault-free scheduled ranks poll `stalled`.
        abort.store(true, Ordering::SeqCst);
        if let Some(s) = sched {
            s.stalled.store(true, Ordering::SeqCst);
        }
        if let Some(s) = p.downcast_ref::<Stall>() {
            RankEnd::Stall(*s)
        } else if let Some(c) = p.downcast_ref::<RankCrash>() {
            RankEnd::Crash(*c)
        } else if p.is::<WorldAborted>() || p.is::<StallAbort>() {
            RankEnd::Aborted
        } else {
            RankEnd::Panic(p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_with;
    use crate::fault::RetransmitConfig;
    use netsim::LinkFault;

    /// Ring pass with a wildcard receive, a compute phase, an allreduce;
    /// returns what the rank saw and the bits of its end virtual time.
    fn ring_allreduce(c: &mut Comm) -> (usize, u64, u64, u64) {
        let right = (c.rank() + 1) % c.size();
        c.send(right, 1, c.rank() as u64);
        let (src, v) = c.recv::<u64>(None, 1);
        c.compute(1.0e7, 0.0);
        let sum = c.allreduce(v, |a, b| a + b);
        (src, v, sum, c.time().to_bits())
    }

    #[test]
    fn builder_axes_are_independent() {
        // An empty plan still swaps the transport. The deterministic
        // tuning makes its virtual time a pure function of the program
        // (the default charges `poll_s` per real-time poll).
        let fplan = FaultPlan::none(7).with_retransmit(RetransmitConfig::deterministic());
        // The reference schedule must be indistinguishable from running
        // without a scheduler at all.
        let splan = SchedPlan::reference(9);
        let mut baseline = [None, None];
        for reliable in [false, true] {
            for scheduled in [false, true] {
                for observed in [false, true] {
                    let mut world = World::new(Machine::ideal(4), 4).observe(observed);
                    if reliable {
                        world = world.faults(&fplan);
                    }
                    if scheduled {
                        world = world.schedule(&splan);
                    }
                    let row = format!("faults={reliable} schedule={scheduled} observe={observed}");
                    let run = world.run(ring_allreduce);
                    let out = run.outcome.expect_completed(&row);
                    for (rank, &(src, v, sum, _)) in out.iter().enumerate() {
                        assert_eq!((src, v, sum), ((rank + 3) % 4, src as u64, 6), "{row}");
                    }
                    // End times are exact on the crossbar: bit-identical
                    // across schedule and observe, within a transport.
                    let want = baseline[reliable as usize].get_or_insert_with(|| out.clone());
                    assert_eq!(&out, want, "{row}");
                    assert_eq!(run.trace.is_some(), observed, "{row}");
                    if scheduled {
                        assert_eq!(run.log.per_rank, vec![vec![3], vec![0], vec![1], vec![2]]);
                    } else {
                        assert_eq!(run.log, ScheduleLog::default(), "{row}");
                    }
                }
            }
        }
    }

    #[test]
    fn link_faults_do_not_outlive_their_world() {
        // Port 1 is dead for the first 20 ms of the faulted run; the
        // fabric is shared by every clone of the machine, so the plain
        // run after it must start from a clean fault set.
        let machine = Machine::ideal(2);
        let plan = FaultPlan::none(3).with_link_fault(LinkFault::dead(1, 0.0, 2.0e-2));
        let ping = |c: &mut Comm| {
            if c.rank() == 0 {
                c.send(1, 4, 99u64);
            } else {
                assert_eq!(c.recv_from::<u64>(0, 4), 99);
            }
            c.time()
        };
        let faulted = World::new(machine.clone(), 2).faults(&plan).run(ping);
        let times = faulted.outcome.expect_completed("the port heals");
        assert!(
            times[1] >= 2.0e-2,
            "delivered through a dead port: {times:?}"
        );
        assert_eq!(machine.fabric.link_faults().len(), 1);
        // A plain send into a dead port would arrive at t = infinity.
        let times = run_with(machine.clone(), 2, ping);
        assert!(times[1] < 2.0e-2, "stale link fault: {times:?}");
        assert!(machine.fabric.link_faults().is_empty());
    }
}
