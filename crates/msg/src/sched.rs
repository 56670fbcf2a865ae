//! Adversarial delivery-schedule exploration — the engine under
//! `cluster::simcheck`.
//!
//! Every distributed result in the paper rests on a runtime that must be
//! correct under *any* delivery order, yet our nastiest bugs so far
//! (mailbox FIFO reorder, the Safra send under-count, the blocking-mode
//! livelock) were delivery-order bugs found by luck. This module makes
//! the hunt systematic: a seeded [`SchedPlan`] arms three per-rank
//! perturbations inside [`crate::Comm`]:
//!
//! * **match permutation** — a wildcard receive chooses uniformly among
//!   the head-of-line packet of each source currently queued, instead of
//!   always taking the first match. Per-`(src, tag)` FIFO is preserved by
//!   construction (only the head of each source's queue is a candidate);
//!   what gets explored is exactly the set of cross-source arrival races
//!   a real network could produce.
//! * **delivery jitter** — each transmitted packet's arrival time gains a
//!   seeded extra delay in `[0, jitter_s)`, perturbing which packets race
//!   in virtual time without ever violating causality (arrival can only
//!   move later).
//! * **liveness watchdogs** — a deadlock detector (every rank parked in a
//!   blocking receive with nothing in flight) and a virtual-time budget
//!   (livelocks keep the clock moving, so a run that blows past its
//!   budget is flagged). Both report
//!   [`WorldOutcome::Stalled`](crate::WorldOutcome::Stalled) instead of
//!   hanging the process.
//!
//! A schedule is installed with [`World::schedule`](crate::World::schedule)
//! and a recorded one replayed with
//! [`World::replay`](crate::World::replay). Everything is a pure function
//! of `(plan, fault plan, program)`:
//! rerunning the same seed replays the same schedule decisions bit for
//! bit, because all decisions are drawn from per-rank `SplitMix64`
//! streams indexed by deterministic state — never by wall-clock time.
//! [`SchedPlan::perturb_limit`] bounds how many match decisions may
//! deviate from the deterministic first-match rule: `0` is the reference
//! schedule, `u64::MAX` unbounded exploration.

use crate::comm::{Mailbox, Port, Tag};
use crate::fault::SplitMix64;
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How and how much a scheduled world may deviate from deterministic
/// first-match delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedPlan {
    /// Seed for the per-rank decision streams (match choice and jitter).
    pub seed: u64,
    /// Upper bound on the injected per-packet delivery delay (virtual
    /// seconds); `0` disables jitter and consumes no RNG words for it.
    pub jitter_s: f64,
    /// Maximum number of wildcard-match decisions **per rank** that may
    /// deviate from the deterministic first-match rule. `0` is the
    /// reference schedule, `u64::MAX` unbounded exploration. Shrinking a
    /// failure means finding the smallest limit that still fails.
    pub perturb_limit: u64,
    /// Absolute virtual-time budget: a rank whose clock passes this is
    /// flagged as livelocked
    /// ([`WorldOutcome::Stalled`](crate::WorldOutcome::Stalled) with
    /// `deadlock: false`).
    pub budget_s: f64,
}

/// Virtual charge per empty fault-free `try_recv` probe of a scheduled
/// world, so spin loops advance the clock toward the budget instead of
/// livelocking at a frozen virtual time. (Fault-mode probes are charged
/// by `RetransmitConfig::probe_s`.)
pub(crate) const PROBE_S: f64 = 1.0e-6;

impl SchedPlan {
    /// Unbounded exploration from `seed`: every wildcard match is
    /// permuted, no jitter, no budget.
    pub fn new(seed: u64) -> Self {
        SchedPlan {
            seed,
            jitter_s: 0.0,
            perturb_limit: u64::MAX,
            budget_s: f64::INFINITY,
        }
    }

    /// The reference schedule: deterministic first-match delivery, no
    /// jitter. Running under this must be indistinguishable from running
    /// without a scheduler at all (the watchdogs stay armed).
    pub fn reference(seed: u64) -> Self {
        SchedPlan {
            perturb_limit: 0,
            ..SchedPlan::new(seed)
        }
    }

    /// Seed of `rank`'s jitter stream: distinct per rank and from the
    /// match stream, so the draws never alias.
    pub(crate) fn jitter_seed(&self, rank: usize) -> u64 {
        (self.seed ^ 0x5851_F42D_4C95_7F2D)
            .wrapping_add((rank as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB))
    }

    pub fn with_jitter(mut self, jitter_s: f64) -> Self {
        assert!(jitter_s >= 0.0, "jitter {jitter_s}");
        self.jitter_s = jitter_s;
        self
    }

    pub fn with_budget(mut self, budget_s: f64) -> Self {
        assert!(budget_s > 0.0, "budget {budget_s}");
        self.budget_s = budget_s;
        self
    }
}

/// The per-rank sequence of wildcard-receive source choices a scheduled
/// run made — every successful wildcard match records which source it
/// took, whether the pick was permuted, first-match, or forced.
///
/// This is what makes a failing schedule **replayable**: wildcard races
/// are the only wall-clock-dependent decisions in a fault-free world
/// (virtual time handles everything else), so feeding the log back
/// through [`World::replay`](crate::World::replay) pins each decision to
/// its recorded source —
/// the replaying rank simply waits until that source's head-of-line
/// packet is present — and the whole execution, virtual clocks included,
/// reconstructs bit for bit. (Fault-mode worlds additionally charge
/// retransmit-poll time, which races the wall clock by design; their
/// replays reproduce the decision sequence and all schedule-invariant
/// oracles, not raw timestamps.)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScheduleLog {
    pub per_rank: Vec<Vec<u32>>,
}

impl ScheduleLog {
    /// The longest per-rank decision count — an upper bound for prefix
    /// shrinking.
    pub fn max_decisions(&self) -> usize {
        self.per_rank.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Replay state: follow `choices` for the first `prefix` wildcard
/// decisions, then fall back to deterministic first-match.
pub(crate) struct ReplayCtx {
    pub choices: Arc<Vec<u32>>,
    pub cursor: usize,
    pub prefix: usize,
}

/// World-wide watchdog state shared by every rank's [`SchedCtx`].
pub(crate) struct SchedShared {
    pub size: usize,
    /// Packets pushed onto a channel and not yet pulled off. Incremented
    /// *before* the push and decremented *after* the pull, so a nonzero
    /// reading is always trustworthy: the deadlock detector can report a
    /// false negative (a packet to a dead rank leaks a count) but never a
    /// false positive.
    pub inflight: AtomicI64,
    /// Ranks currently parked in a blocking receive with no local work.
    pub parked: AtomicUsize,
    /// Ranks whose program function has returned (fault-free worlds; a
    /// faulted world's ranks park in the transport drain instead).
    pub retired: AtomicUsize,
    /// Some rank stalled (deadlock or budget); everyone else tears down.
    pub stalled: AtomicBool,
    /// Where each rank's [`SchedCtx`] flushes its decision log on drop —
    /// survives rank panics, so a stalled or crashed schedule still
    /// yields a replayable log.
    log: Mutex<Vec<Vec<u32>>>,
}

impl SchedShared {
    pub(crate) fn new(size: usize) -> Self {
        SchedShared {
            size,
            inflight: AtomicI64::new(0),
            parked: AtomicUsize::new(0),
            retired: AtomicUsize::new(0),
            stalled: AtomicBool::new(false),
            log: Mutex::new(vec![Vec::new(); size]),
        }
    }

    /// The parked-world deadlock check: tear down if some rank already
    /// stalled; flag a deadlock if every rank is parked or retired with
    /// nothing in flight and the world is not just `finishing`. Called by
    /// a rank that counts as parked.
    pub(crate) fn check_deadlock(&self, port: &Port, finishing: bool) {
        if self.stalled.load(Ordering::SeqCst) {
            self.parked.fetch_sub(1, Ordering::SeqCst);
            panic_any(StallAbort);
        }
        let everyone_blocked =
            self.parked.load(Ordering::SeqCst) + self.retired.load(Ordering::SeqCst) >= self.size;
        if everyone_blocked && !finishing && self.inflight.load(Ordering::SeqCst) <= 0 {
            self.stalled.store(true, Ordering::SeqCst);
            self.parked.fetch_sub(1, Ordering::SeqCst);
            panic_any(Stall {
                rank: port.rank,
                at: port.clock,
                deadlock: true,
            });
        }
    }

    /// The world's decision log, once every rank's ctx has dropped.
    pub(crate) fn take_log(&self) -> ScheduleLog {
        ScheduleLog {
            per_rank: std::mem::take(&mut *self.log.lock().expect("log sink poisoned")),
        }
    }
}

/// Per-rank scheduler state installed into a [`Comm`].
pub(crate) struct SchedCtx {
    perturb_limit: u64,
    budget_s: f64,
    /// Wildcard-match decisions that have deviated so far (per rank).
    perturbed: u64,
    rng_match: SplitMix64,
    /// Scratch: `(position, source)` of each source's head-of-line
    /// candidate.
    heads: Vec<(usize, usize)>,
    /// Scratch: which sources already contributed a head candidate.
    seen: Vec<bool>,
    pub shared: Arc<SchedShared>,
    rank: usize,
    /// Every wildcard match taken, in order (the schedule log).
    log: Vec<u32>,
    replay: Option<ReplayCtx>,
}

impl SchedCtx {
    pub(crate) fn new(
        plan: &SchedPlan,
        rank: usize,
        size: usize,
        shared: Arc<SchedShared>,
        replay: Option<ReplayCtx>,
    ) -> Self {
        let match_seed = plan
            .seed
            .wrapping_add((rank as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        SchedCtx {
            perturb_limit: plan.perturb_limit,
            budget_s: plan.budget_s,
            perturbed: 0,
            rng_match: SplitMix64(match_seed),
            heads: Vec::with_capacity(size),
            seen: vec![false; size],
            shared,
            rank,
            log: Vec::new(),
            replay,
        }
    }

    /// Liveness watchdog: tear down if some rank already stalled, and
    /// flag this rank if its virtual clock has left the schedule's budget
    /// (livelock detection).
    pub(crate) fn check_budget(&self, port: &Port) {
        if self.shared.stalled.load(Ordering::Relaxed) {
            panic_any(StallAbort);
        }
        if port.clock > self.budget_s {
            self.shared.stalled.store(true, Ordering::SeqCst);
            panic_any(Stall {
                rank: port.rank,
                at: port.clock,
                deadlock: false,
            });
        }
    }

    /// The match policy for a wildcard receive on `tag`: the mailbox
    /// position to take, or `None` when nothing eligible is queued.
    ///
    /// A wildcard receive with several sources queued is a real arrival
    /// race, so the adversary may pick any source's head-of-line packet.
    /// Only the *first* match per source is a candidate — per-(src, tag)
    /// FIFO is preserved by construction. Every wildcard take is logged
    /// (replay follows the log: the match waits for the logged source,
    /// which removes the one wall-clock race a wildcard receive has —
    /// whether a slower source's packet had really arrived when the pick
    /// was made).
    pub(crate) fn pick(&mut self, mailbox: &Mailbox, tag: Tag) -> Option<usize> {
        if let Some(rp) = &mut self.replay {
            if rp.cursor < rp.prefix.min(rp.choices.len()) {
                let want = rp.choices[rp.cursor];
                let mut queued = mailbox.iter();
                let pos = queued.position(|p| p.tag == tag && p.src == want as usize)?;
                rp.cursor += 1;
                self.log.push(want);
                return Some(pos);
            }
        }
        self.heads.clear();
        let queued = mailbox.iter().enumerate().filter(|(_, p)| p.tag == tag);
        if self.replay.is_none() && self.perturbed < self.perturb_limit {
            self.seen.fill(false);
            for (i, p) in queued {
                if !std::mem::replace(&mut self.seen[p.src], true) {
                    self.heads.push((i, p.src));
                }
            }
        } else {
            // Deterministic first-match: the reference schedule, a spent
            // perturbation budget, or a replay past its prefix.
            self.heads.extend(queued.map(|(i, p)| (i, p.src)).take(1));
        }
        let (pos, src) = match self.heads.len() {
            0 => return None,
            1 => self.heads[0],
            n => {
                // A decision point: one deviation spent even if the draw
                // lands on the first match, so perturb_limit counts
                // decisions, and shrink prefixes are schedule-stable.
                self.perturbed += 1;
                self.heads[(self.rng_match.next_u64() % n as u64) as usize]
            }
        };
        self.log.push(src as u32);
        Some(pos)
    }
}

impl Drop for SchedCtx {
    fn drop(&mut self) {
        // A poisoned sink only loses this rank's log; panicking here
        // could abort the process mid-unwind.
        if let Ok(mut out) = self.shared.log.lock() {
            out[self.rank] = std::mem::take(&mut self.log);
        }
    }
}

/// Panic payload of a rank flagged by a liveness watchdog.
#[derive(Debug, Clone, Copy)]
pub struct Stall {
    pub rank: usize,
    /// Virtual time at which the stall was detected.
    pub at: f64,
    /// `true`: every rank parked with nothing in flight (deadlock).
    /// `false`: the virtual-time budget was exceeded (livelock).
    pub deadlock: bool,
}

/// Panic payload of a rank noticing that another rank stalled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StallAbort;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abm::{Abm, Termination};
    use crate::comm::Comm;
    use crate::fault::FaultPlan;
    use crate::machine::Machine;
    use crate::world::{World, WorldOutcome};

    #[test]
    fn fifo_survives_full_permutation() {
        // The PR-1 regression, now under every schedule: same-(src, tag)
        // streams must stay in send order no matter how the scheduler
        // permutes wildcard matches.
        for seed in 0..24u64 {
            let plan = SchedPlan::new(seed).with_jitter(2.0e-5);
            let world = World::new(Machine::ideal(2), 2).schedule(&plan);
            let run = world.run(|c| {
                if c.rank() == 0 {
                    for v in 1..=5u64 {
                        c.send(1, 8, v);
                    }
                    c.send(1, 9, 0u64);
                } else {
                    let _ = c.recv_from::<u64>(0, 9);
                    let got: Vec<u64> = (0..5).map(|_| c.recv_from::<u64>(0, 8)).collect();
                    assert_eq!(got, vec![1, 2, 3, 4, 5]);
                }
            });
            run.outcome.expect_completed("fifo under permutation");
        }
    }

    #[test]
    fn wildcard_matches_actually_permute() {
        // Three senders park a message each before the receiver looks;
        // across seeds the receiver must observe more than one source
        // order (otherwise the scheduler is a no-op).
        let mut orders = std::collections::BTreeSet::new();
        for seed in 0..16u64 {
            let plan = SchedPlan::new(seed);
            let run = World::new(Machine::ideal(4), 4).schedule(&plan).run(|c| {
                if c.rank() == 0 {
                    // Each sender's tag-5 packet precedes its tag-7 note
                    // in the channel, so once three notes have drained,
                    // all three tag-5 packets sit in the mailbox and the
                    // wildcard receives below are genuine three-way
                    // match decisions.
                    let mut ready = 0;
                    while ready < 3 {
                        if c.try_recv::<u64>(None, 7).is_some() {
                            ready += 1;
                        }
                        std::thread::yield_now();
                    }
                    let mut order = Vec::new();
                    for _ in 0..3 {
                        order.push(c.recv::<u64>(None, 5).0);
                    }
                    order
                } else {
                    c.send(0, 5, c.rank() as u64);
                    c.send(0, 7, 1u64);
                    Vec::new()
                }
            });
            let out = run.outcome.expect_completed("permutation probe");
            orders.insert(out[0].clone());
        }
        assert!(
            orders.len() >= 2,
            "scheduler never permuted a wildcard match: {orders:?}"
        );
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        // Classic head-to-head: both ranks receive before sending. The
        // watchdog must flag it (deadlock, not budget) instead of hanging.
        let plan = SchedPlan::new(3);
        let run = World::new(Machine::ideal(2), 2).schedule(&plan).run(|c| {
            let peer = 1 - c.rank();
            let _ = c.recv_from::<u64>(peer, 1);
            c.send(peer, 1, 0u64);
        });
        match run.outcome {
            WorldOutcome::Stalled { deadlock, .. } => assert!(deadlock, "must report deadlock"),
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn budget_flags_a_livelocked_spin() {
        // A try_recv spin on a tag nobody sends: the probe charge moves
        // the clock, the budget fires, and the outcome says livelock.
        let plan = SchedPlan::new(5).with_budget(1.0e-3);
        let run = World::new(Machine::ideal(2), 2)
            .schedule(&plan)
            .run(|c| loop {
                if c.try_recv::<u64>(None, 99).is_some() {
                    return;
                }
            });
        match run.outcome {
            WorldOutcome::Stalled { deadlock, at, .. } => {
                assert!(!deadlock, "budget stall, not deadlock");
                assert!(at >= 1.0e-3, "stall at {at}");
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn jitter_preserves_causality_and_content() {
        for seed in 0..8u64 {
            let plan = SchedPlan::new(seed).with_jitter(5.0e-4);
            let run = World::new(Machine::ideal(3), 3).schedule(&plan).run(|c| {
                if c.rank() == 0 {
                    c.compute(1.0e8, 0.0);
                    let t_send = c.time();
                    c.send(1, 2, 41u64);
                    c.send(2, 2, 42u64);
                    (0u64, t_send)
                } else {
                    let v = c.recv_from::<u64>(0, 2);
                    (v, c.time())
                }
            });
            let out = run.outcome.expect_completed("jittered world");
            assert_eq!(out[1].0, 41);
            assert_eq!(out[2].0, 42);
            // A receive can never complete before the (pre-jitter) send.
            assert!(out[1].1 >= out[0].1, "{out:?}");
            assert!(out[2].1 >= out[0].1, "{out:?}");
        }
    }

    #[test]
    fn same_seed_is_content_stable() {
        // Two random-mode runs of one seed can consume wildcard matches
        // in different orders (whether a packet had *really* arrived at
        // pick time races the wall clock — recorded replay is the exact
        // mechanism, see `recorded_schedule_replays_bit_exactly`), but
        // everything schedule-invariant must match: message counts and
        // the delivered content.
        let plan = SchedPlan::new(77).with_jitter(3.0e-5);
        let runs: Vec<Vec<(u64, u64)>> = (0..2)
            .map(|_| {
                let run = World::new(Machine::ideal(4), 4).schedule(&plan).run(|c| {
                    if c.rank() == 0 {
                        let mut sum = 0u64;
                        for _ in 0..9 {
                            sum += c.recv::<u64>(None, 4).1;
                        }
                        (sum, c.stats().recvs)
                    } else {
                        for i in 0..3u64 {
                            c.send(0, 4, (c.rank() as u64) * 100 + i);
                        }
                        (0, c.stats().sends)
                    }
                });
                run.outcome.expect_completed("seeded run")
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same plan must deliver the same content");
    }

    #[test]
    fn recorded_schedule_replays_bit_exactly() {
        // A fan-in with real wildcard races: rank 0's consumption order —
        // and therefore its virtual clock — depends on which packets had
        // arrived when each pick was made, which races the wall clock.
        // Replaying the decision log must pin all of it: same sources in
        // the same order, and bit-identical virtual end times.
        let program = |c: &mut Comm| {
            if c.rank() == 0 {
                let mut order = Vec::new();
                for _ in 0..9 {
                    let (src, v) = c.recv::<u64>(None, 4);
                    order.push((src, v));
                    c.compute(1.0e6, 0.0);
                }
                (order, c.time().to_bits())
            } else {
                for i in 0..3u64 {
                    c.send(0, 4, (c.rank() as u64) * 100 + i);
                    c.compute(5.0e5, 0.0);
                }
                (Vec::new(), c.time().to_bits())
            }
        };
        let plan = SchedPlan::new(31).with_jitter(2.0e-5);
        let world = || {
            World::new(Machine::ideal(4), 4)
                .schedule(&plan)
                .observe(true)
        };
        let recorded = world().run(program);
        let log = recorded.log;
        let first = recorded.outcome.expect_completed("recorded run");
        for round in 0..2 {
            let replay = world().replay(&log, usize::MAX).run(program);
            let replayed = replay.outcome.expect_completed("replay run");
            assert_eq!(first, replayed, "replay {round} diverged");
            assert_eq!(log, replay.log, "replay {round} rewrote the log");
        }
    }

    #[test]
    fn replay_prefix_zero_is_the_reference_schedule() {
        // Prefix 0 ignores the log entirely: every decision falls back to
        // first-match. The world must still complete (sanity for the
        // shrink scan's lower end).
        let program = |c: &mut Comm| {
            if c.rank() == 0 {
                (0..6).map(|_| c.recv::<u64>(None, 4).1).sum::<u64>()
            } else {
                for i in 0..3u64 {
                    c.send(0, 4, i);
                }
                0
            }
        };
        let plan = SchedPlan::new(13);
        let world = || {
            World::new(Machine::ideal(3), 3)
                .schedule(&plan)
                .observe(true)
        };
        let recorded = world().run(program);
        let full = recorded.outcome.expect_completed("recorded run");
        let replay = world().replay(&recorded.log, 0).run(program);
        let pref = replay.outcome.expect_completed("prefix-0 replay");
        // Content is schedule-invariant either way.
        assert_eq!(full[0], pref[0]);
    }

    #[test]
    fn scheduled_crash_still_reported_under_schedule() {
        let fplan = FaultPlan::none(1).with_crash(1, 0.5);
        let splan = SchedPlan::new(2);
        let world = World::new(Machine::ideal(2), 2)
            .faults(&fplan)
            .schedule(&splan);
        let run = world.run(|c| -> u64 {
            let peer = 1 - c.rank();
            let mut n = 0u64;
            loop {
                if c.rank() == 0 {
                    c.send(peer, 1, n);
                    n = c.recv_from::<u64>(peer, 1);
                } else {
                    n = c.recv_from::<u64>(peer, 1);
                    c.send(peer, 1, n + 1);
                }
                c.compute(1e7, 0.0);
            }
        });
        match run.outcome {
            WorldOutcome::Crashed { rank, at } => {
                assert_eq!(rank, 1);
                assert!(at >= 0.5);
            }
            other => panic!("expected crash, got {other:?}"),
        }
    }

    /// The storm world also used by `cluster::simcheck`: every rank
    /// scatters uniquely-numbered messages through an Abm channel, runs
    /// Safra termination, and the union of receipts must equal the union
    /// of sends exactly. `mutant` arms the PR-1 Safra under-count.
    fn storm(
        nranks: usize,
        per_rank: u64,
        fplan: &FaultPlan,
        splan: &SchedPlan,
        mutant: bool,
    ) -> WorldOutcome<Vec<u64>> {
        World::new(Machine::ideal(nranks as u32), nranks)
            .faults(fplan)
            .schedule(splan)
            .run(|c| {
                let mut abm: Abm<u64> = Abm::new(c.size(), 3, 3);
                abm.undercount_auto_flush = mutant;
                let mut term = Termination::new();
                for i in 0..per_rank {
                    let id = (c.rank() as u64) << 32 | i;
                    // Deterministic scatter, independent of schedule.
                    let dst = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % c.size();
                    abm.post(c, dst, id);
                }
                abm.flush_all(c);
                term.on_send(abm.sent);
                let mut sent_acc = abm.sent;
                let mut got: Vec<u64> = Vec::new();
                loop {
                    let batches = abm.poll(c);
                    let mut busy = false;
                    for (_, batch) in batches {
                        term.on_recv(1);
                        busy = true;
                        got.extend(batch);
                    }
                    abm.flush_all(c);
                    if abm.sent > sent_acc {
                        term.on_send(abm.sent - sent_acc);
                        sent_acc = abm.sent;
                    }
                    if !busy && term.poll(c) {
                        break;
                    }
                }
                got
            })
            .outcome
    }

    fn storm_violation(seed: u64, mutant: bool) -> Option<String> {
        let nranks = 5;
        let per_rank = 12u64;
        let fplan = FaultPlan::none(seed ^ 0xC0FF_EE00)
            .with_duplicate(0.2)
            .with_reorder(0.2);
        // Generous liveness budget: the fault path charges `poll_s` of
        // virtual time per wall-clock poll, so accrual varies with build
        // mode and host speed. A genuine Safra deadlock is still caught
        // fast by the parked-with-nothing-in-flight detector; the budget
        // only has to bound livelock.
        let splan = SchedPlan::new(seed).with_jitter(2.0e-5).with_budget(30.0);
        match storm(nranks, per_rank, &fplan, &splan, mutant) {
            WorldOutcome::Completed(got) => {
                let mut all: Vec<u64> = got.into_iter().flatten().collect();
                all.sort_unstable();
                let expect: Vec<u64> = (0..nranks as u64)
                    .flat_map(|r| (0..per_rank).map(move |i| r << 32 | i))
                    .collect();
                (all != expect).then(|| format!("seed {seed}: payload multiset mismatch"))
            }
            WorldOutcome::Stalled { rank, at, deadlock } => Some(format!(
                "seed {seed}: stalled (rank {rank} at t={at:.4}, deadlock={deadlock})"
            )),
            WorldOutcome::Crashed { rank, at } => {
                Some(format!("seed {seed}: crashed (rank {rank} at t={at:.4})"))
            }
        }
    }

    #[test]
    fn storm_exactly_once_under_adversarial_schedules() {
        for seed in 0..8u64 {
            if let Some(v) = storm_violation(seed, false) {
                panic!("clean storm violated an oracle: {v}");
            }
        }
    }

    /// The storm world on four ranks whose idle turns block until a packet
    /// arrives ([`Comm::await_arrival`]) instead of spinning on Safra's
    /// poll, as the distributed tree walk's do. `defer` arms
    /// `abm::DEFER_RELAUNCH`.
    fn blocking_storm(seed: u64, defer: bool) -> WorldOutcome<Vec<u64>> {
        let splan = SchedPlan::new(seed).with_jitter(2.0e-5);
        World::new(Machine::ideal(4), 4)
            .schedule(&splan)
            .run(|c| {
                crate::abm::DEFER_RELAUNCH.set(defer);
                let mut abm: Abm<u64> = Abm::new(c.size(), 3, 3);
                let mut term = Termination::new();
                for i in 0..12u64 {
                    let id = (c.rank() as u64) << 32 | i;
                    let dst = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % c.size();
                    abm.post(c, dst, id);
                }
                abm.flush_all(c);
                term.on_send(abm.sent);
                let mut got: Vec<u64> = Vec::new();
                loop {
                    // The mark comes first: a token the polls below pump
                    // in but leave queued is then news to the wait.
                    let seen = c.arrivals();
                    let batches = abm.poll(c);
                    let busy = !batches.is_empty();
                    for (_, batch) in batches {
                        term.on_recv(1);
                        got.extend(batch);
                    }
                    if busy {
                        continue;
                    }
                    if term.poll(c) {
                        break;
                    }
                    c.await_arrival(seen);
                }
                got
            })
            .outcome
    }

    #[test]
    fn blocking_storm_terminates_with_every_message_received_once() {
        for seed in 0..8u64 {
            let got = blocking_storm(seed, false).expect_completed("blocking storm");
            let mut all: Vec<u64> = got.into_iter().flatten().collect();
            all.sort_unstable();
            let expect: Vec<u64> = (0..4u64)
                .flat_map(|r| (0..12).map(move |i| r << 32 | i))
                .collect();
            assert_eq!(all, expect, "seed {seed}");
        }
    }

    #[test]
    fn termination_oracle_catches_a_deferred_relaunch() {
        // Teeth: rank 0 sits on an unfinished token until its next poll,
        // but an idle rank polls again only once a packet wakes it, and
        // every rank is idle: the parked-world detector must say so.
        let caught = (0..8u64).find_map(|seed| match blocking_storm(seed, true) {
            WorldOutcome::Completed(_) => None,
            stalled => Some(stalled),
        });
        match caught.expect("the deferred relaunch must be caught") {
            WorldOutcome::Stalled { deadlock, .. } => assert!(deadlock, "deadlock, not budget"),
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn simcheck_catches_safra_undercount_mutant() {
        // Teeth: re-arm the PR-1 Safra send under-count and assert the
        // checker's oracles (exactly-once or liveness) catch it within
        // the CI seed set.
        let mut caught = None;
        for seed in 0..8u64 {
            if let Some(v) = storm_violation(seed, true) {
                caught = Some(v);
                break;
            }
        }
        let v = caught.expect("the Safra under-count mutant must be caught");
        eprintln!("mutant caught: {v}");
    }
}
