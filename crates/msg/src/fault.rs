//! Fault injection and crash-capable worlds.
//!
//! §2.1 of the paper is a nine-month failure log — disks dominate, switch
//! ports develop soft errors, whole-node hardware dies — and the authors
//! ran production science *through* those failures. This module makes the
//! failures executable instead of merely tabulated:
//!
//! * a [`FaultPlan`] (seeded, explicit or derived from the
//!   `nodesim::ReliabilityModel` rates) injects packet drop / corruption /
//!   duplication / reordering at the `Comm` boundary, applies
//!   [`netsim::LinkFault`] windows to switch ports, and crashes ranks at
//!   scheduled virtual times;
//! * [`World::faults`](crate::World::faults) runs a world under a plan:
//!   every rank gets the reliable-delivery transport of
//!   [`crate::transport`] (and, when a [`HeartbeatConfig`] arms it, the
//!   failure detector of [`crate::health`]), and a rank crash tears the
//!   world down and reports
//!   [`WorldOutcome::Crashed`](crate::WorldOutcome::Crashed) so a harness
//!   can restore a checkpoint and rerun.
//!
//! Fault-free worlds ([`crate::run`], [`crate::run_with`]) never touch any
//! of this: injection is pay-for-what-you-inject.

use netsim::LinkFault;
use std::sync::Once;

/// Seconds in the 30.44-day month used by the §2.1 monthly rates.
pub const MONTH_S: f64 = 30.44 * 86_400.0;

/// A rank dying at a scheduled point in (absolute) virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    pub rank: usize,
    /// Absolute cluster virtual time of the crash — comparable across
    /// restart attempts started at different `clock0`.
    pub at: f64,
}

/// Tuning for the reliable-delivery sublayer (all times virtual seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetransmitConfig {
    /// Initial ack timeout. The modeled GigE round trip is ~0.2–0.4 ms,
    /// so 2 ms is a comfortable first RTO.
    pub rto0_s: f64,
    /// Ceiling on the backed-off timeout.
    pub rto_max_s: f64,
    /// Multiplier applied to the RTO on every retransmission.
    pub backoff: f64,
    /// Consecutive retransmissions of one packet before the sender
    /// declares the peer unreachable and aborts the world.
    pub max_retries: u32,
    /// Virtual cost of emitting one ack (in-kernel, far below the MPI
    /// per-message overhead).
    pub ack_overhead_s: f64,
    /// Virtual time charged per idle poll iteration in a blocking recv.
    pub poll_s: f64,
    /// Virtual time charged per empty `try_recv` probe.
    pub probe_s: f64,
    /// Backpressure: maximum unacknowledged packets in flight toward one
    /// destination. A send past the window parks (still servicing timers
    /// and ingesting acks) until the peer acks something, so a slow or
    /// partitioned peer throttles its senders instead of accumulating an
    /// arbitrarily deep retransmit queue — every packet launched into an
    /// outage is a guaranteed future retransmission.
    pub window: usize,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            rto0_s: 2.0e-3,
            rto_max_s: 5.0e-2,
            backoff: 2.0,
            max_retries: 40,
            ack_overhead_s: 5.0e-6,
            poll_s: 5.0e-5,
            probe_s: 1.0e-6,
            window: 64,
        }
    }
}

impl RetransmitConfig {
    /// A configuration whose virtual-time evolution is a pure function of
    /// the program and the fault plan — nothing depends on how many real
    /// polling iterations a rank happened to spin through.
    ///
    /// The idle-poll and probe charges go to zero (they are multiplied by
    /// a wall-clock-dependent iteration count) and the retransmit timer is
    /// pushed out beyond any plausible run length so timer-based resends
    /// (which race real delivery) never fire. **Only safe for plans where
    /// every data packet is eventually delivered intact and promptly**:
    /// no drops, corruption, reordering, link faults, or crashes — with
    /// the timer effectively disabled, anything needing a retransmit (or a
    /// held packet waiting out its release window) would stall forever.
    /// Duplicate injection is fine: the original copy still arrives and
    /// is acked.
    pub fn deterministic() -> Self {
        RetransmitConfig {
            rto0_s: 1.0e9,
            rto_max_s: 1.0e9,
            backoff: 1.0,
            max_retries: u32::MAX,
            ack_overhead_s: 0.0,
            poll_s: 0.0,
            probe_s: 0.0,
            window: usize::MAX,
        }
    }
}

/// Failure-detector tuning: virtual-time heartbeats with a phi-accrual
/// style suspicion score at the Comm boundary (all times virtual seconds).
///
/// With a detector armed, a scheduled rank crash is *silent* — the dead
/// rank stops emitting instead of broadcasting an out-of-band abort — and
/// the survivors must reach a consistent verdict: a rank that suspects a
/// peer (its silence exceeds `suspect_after` smoothed arrival intervals)
/// broadcasts a suspicion vote, retracting it if the peer is heard again,
/// and only condemns the peer once the suspicion has *aged* unretracted
/// through the confirmation window **and** a majority quorum of votes
/// agrees. The verdict tears the world down with the *dead peer's* rank
/// in the crash report, so a recovery harness knows exactly whose state
/// to restore.
///
/// The confirmation window is what makes stragglers survivable: at every
/// synchronization point downstream of a slow rank, clocks jump forward
/// together and the whole world transiently suspects everyone it has not
/// heard from since before the jump. Those suspicions — and the quorum of
/// votes that instantly accompanies them — are retracted within a few
/// packet exchanges; only a peer that stays silent through the window is
/// really dead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatConfig {
    /// Interval between heartbeat broadcasts.
    pub every_s: f64,
    /// Suspicion threshold, in units of the smoothed inter-arrival
    /// interval estimate (floored at `every_s`): the virtual-time analog
    /// of a phi-accrual detector's phi threshold.
    pub suspect_after: f64,
    /// Confirmation window, in units of `every_s`: a suspicion must
    /// survive this long unretracted before a quorum may condemn.
    ///
    /// Size this against the *idle-warp rate*, not the beat cadence: a
    /// rank blocked on a silent peer advances its virtual clock one
    /// `every_s` step per hysteresis window of empty polls, so the wall
    /// time a live-but-stalled peer gets to retract is roughly
    /// `confirm_for * IDLE_WARP_POLLS * poll quantum`. The default (150
    /// beats ≈ a second of wall grace) rides out debug-build force
    /// phases and OS scheduling hiccups; a genuinely dead rank still
    /// condemns, just those beats later on the warped clock.
    pub confirm_for: f64,
    /// Mutation tooth (split-brain): drop the confirmation window and
    /// condemn the moment a quorum of suspicion votes lines up. A
    /// straggler's clock jump then turns the transient all-suspect-all
    /// storm at the next synchronization point into a verdict against a
    /// live rank — exactly the failure confirmation exists to prevent —
    /// and the simcheck seed set must catch it. Gated behind the
    /// `sim-mutants` feature (or this crate's own tests) so production
    /// builds cannot even express the broken detector.
    #[cfg(any(test, feature = "sim-mutants"))]
    pub condemn_unconfirmed: bool,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            every_s: 5.0e-4,
            suspect_after: 8.0,
            confirm_for: 150.0,
            #[cfg(any(test, feature = "sim-mutants"))]
            condemn_unconfirmed: false,
        }
    }
}

/// A seeded schedule of injected failures for one simulated job.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-rank injection streams.
    pub seed: u64,
    /// Per-message probability the packet silently vanishes.
    pub drop: f64,
    /// Per-message probability of delivered-but-corrupt (CRC discard).
    pub corrupt: f64,
    /// Per-message probability an extra copy is delivered.
    pub duplicate: f64,
    /// Per-message probability the packet is held back past a successor.
    pub reorder: f64,
    /// Scheduled rank deaths (absolute virtual time).
    pub crashes: Vec<CrashEvent>,
    /// Switch-port faults applied to the fabric for the whole run.
    pub link_faults: Vec<LinkFault>,
    pub retransmit: RetransmitConfig,
    /// Failure detector; `None` (the default) keeps crashes loud (the
    /// abort flag broadcasts the death) and adds zero behavior change.
    pub heartbeat: Option<HeartbeatConfig>,
}

impl FaultPlan {
    /// A plan that injects nothing (still usable with
    /// [`World::faults`](crate::World::faults), e.g. as the control arm
    /// of an experiment).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            crashes: Vec::new(),
            link_faults: Vec::new(),
            retransmit: RetransmitConfig::default(),
            heartbeat: None,
        }
    }

    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability {p}");
        self.drop = p;
        self
    }

    pub fn with_corrupt(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "corrupt probability {p}");
        self.corrupt = p;
        self
    }

    pub fn with_duplicate(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "duplicate probability {p}");
        self.duplicate = p;
        self
    }

    pub fn with_reorder(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "reorder probability {p}");
        self.reorder = p;
        self
    }

    pub fn with_crash(mut self, rank: usize, at: f64) -> Self {
        self.crashes.push(CrashEvent { rank, at });
        self
    }

    pub fn with_link_fault(mut self, fault: LinkFault) -> Self {
        self.link_faults.push(fault);
        self
    }

    /// Replace the reliable-transport tuning (e.g. with
    /// [`RetransmitConfig::deterministic`] for replayable traces).
    pub fn with_retransmit(mut self, cfg: RetransmitConfig) -> Self {
        self.retransmit = cfg;
        self
    }

    /// Arm the heartbeat failure detector (crashes go silent; survivors
    /// must detect the death and reach a quorum verdict).
    pub fn with_heartbeat(mut self, cfg: HeartbeatConfig) -> Self {
        assert!(cfg.every_s > 0.0, "heartbeat interval {}", cfg.every_s);
        assert!(cfg.suspect_after > 1.0, "threshold {}", cfg.suspect_after);
        assert!(cfg.confirm_for >= 0.0, "confirm window {}", cfg.confirm_for);
        self.heartbeat = Some(cfg);
        self
    }

    /// Derive a plan from the §2.1 reliability model, compressed in time.
    ///
    /// Real rates are per component-month; a simulated job lasts virtual
    /// seconds, so `acceleration` scales nine months of hardware attrition
    /// into the run: every non-switch component failure takes its node
    /// (rank) down at a uniformly random time in `[0, horizon_s)`, and the
    /// soft switch-port error rate becomes a per-message loss/corruption
    /// probability through the two ports each message crosses.
    pub fn paper_calibrated(
        model: &nodesim::ReliabilityModel,
        nranks: usize,
        horizon_s: f64,
        acceleration: f64,
        seed: u64,
    ) -> Self {
        use nodesim::ComponentClass;
        let mut rng = SplitMix64(seed ^ 0xFA17_0000_0000_0001);
        // Per-node fatal failures per month (cluster rate / 294 nodes).
        let nodes = 294.0;
        let mut node_rate = 0.0;
        let mut port_rate = 0.0;
        for c in &model.components {
            let cluster_rate = c.population as f64 * c.monthly_rate;
            if c.class == ComponentClass::SwitchPort {
                port_rate = c.monthly_rate;
            } else {
                node_rate += cluster_rate / nodes;
            }
        }
        let lambda = node_rate * acceleration * horizon_s / MONTH_S;
        let mut crashes = Vec::new();
        for rank in 0..nranks {
            if rng.unit() < 1.0 - (-lambda).exp() {
                crashes.push(CrashEvent {
                    rank,
                    at: rng.unit() * horizon_s,
                });
            }
        }
        let p = (2.0 * port_rate * acceleration).min(0.25);
        FaultPlan {
            seed: rng.next_u64(),
            drop: p,
            corrupt: 0.25 * p,
            duplicate: 0.1 * p,
            reorder: 0.25 * p,
            crashes,
            link_faults: Vec::new(),
            retransmit: RetransmitConfig::default(),
            heartbeat: None,
        }
    }
}

/// Panic payload of a rank hitting its scheduled crash time (or giving up
/// on an unreachable peer).
#[derive(Debug, Clone, Copy)]
pub struct RankCrash {
    pub rank: usize,
    pub at: f64,
}

/// Panic payload of a rank noticing the world's abort flag.
#[derive(Debug, Clone, Copy)]
pub struct WorldAborted;

/// Panic payload of a rank dying *silently*: a scheduled crash with the
/// failure detector armed. Unlike [`RankCrash`] it does not raise the
/// world-abort flag — real dead nodes don't announce themselves, so the
/// survivors must notice the silence through the heartbeat layer and
/// reach a quorum verdict on their own.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuietCrash {
    pub rank: usize,
    pub at: f64,
}

/// Keep the default panic hook from spamming stderr for the expected,
/// caught panic payloads (crash/abort teardown and the scheduler's stall
/// verdicts); real panics still print.
pub(crate) fn install_quiet_hook() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<RankCrash>().is_none()
                && p.downcast_ref::<WorldAborted>().is_none()
                && p.downcast_ref::<QuietCrash>().is_none()
                && p.downcast_ref::<crate::sched::Stall>().is_none()
                && p.downcast_ref::<crate::sched::StallAbort>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// SplitMix64 (Steele et al.): small, seedable, dependency-free — the
/// workspace's one generator for injection draws, schedule decisions,
/// deterministic initial conditions and the query fleet. Integer mixing
/// and IEEE-754 multiplies only, so seeded artifacts are bit-stable
/// across platforms.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Uniform in `[-1, 1)`.
    pub fn sym(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abm::{Abm, Termination};
    use crate::machine::Machine;
    use crate::world::{World, WorldOutcome};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Chaos tests honor CHAOS_SEED (CI logs it) so a failure reproduces.
    fn chaos_seed() -> u64 {
        std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    /// Every rank scatters `per_rank` uniquely-numbered messages through
    /// an Abm channel, runs Safra termination, and returns what it got.
    /// The union of receipts must be exactly the union of sends — once
    /// each — no matter what the transport injected.
    fn storm_exactly_once(nranks: usize, per_rank: u64, plan: &FaultPlan) {
        let out = World::new(Machine::ideal(nranks as u32), nranks)
            .faults(plan)
            .run(|c| {
                let mut rng = SmallRng::seed_from_u64(1000 + c.rank() as u64);
                let mut abm: Abm<u64> = Abm::new(c.size(), 3, 4);
                let mut term = Termination::new();
                for i in 0..per_rank {
                    let id = (c.rank() as u64) << 32 | i;
                    let dst = rng.gen_range(0..c.size());
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
                (got, c.stats())
            })
            .outcome
            .expect_completed("no crashes scheduled");
        let mut all: Vec<u64> = out.iter().flat_map(|(g, _)| g.iter().copied()).collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..nranks as u64)
            .flat_map(|r| (0..per_rank).map(move |i| r << 32 | i))
            .collect();
        assert_eq!(
            all, expect,
            "payload multiset mismatch (lost or duplicated messages)"
        );
    }

    #[test]
    fn zero_fault_plan_delivers_and_injects_nothing() {
        let plan = FaultPlan::none(chaos_seed());
        let vals = World::new(Machine::ideal(4), 4)
            .faults(&plan)
            .run(|c| {
                let right = (c.rank() + 1) % c.size();
                c.send(right, 1, c.rank() as u64);
                let (_, v) = c.recv::<u64>(None, 1);
                assert_eq!(c.stats().fault.drops, 0);
                assert_eq!(c.stats().fault.retransmits, 0);
                v
            })
            .outcome
            .expect_completed("trivial plan");
        assert_eq!(vals, vec![3, 0, 1, 2]);
    }

    /// Ring pass, allreduce, then an ABM storm with Safra termination,
    /// every receive either source-specific or taken after the clock has
    /// passed every arrival, so the end state is a pure function of the
    /// program, the plan and the seed.
    fn deterministic_workout(c: &mut crate::comm::Comm) -> (u64, u64, u64, u64, u64, u64) {
        let (rank, size) = (c.rank(), c.size());
        c.send((rank + 1) % size, 1, rank as u64);
        let left = c.recv_from::<u64>((rank + size - 1) % size, 1);
        c.compute(1.0e7 * (rank + 1) as f64, 0.0);
        let sum = c.allreduce(left, |a, b| a + b);
        assert_eq!(sum, (size * (size - 1) / 2) as u64);
        let mut abm: Abm<u64> = Abm::new(size, 3, 4);
        let mut term = Termination::new();
        for i in 0..10 * size as u64 {
            abm.post(c, (rank + i as usize) % size, (rank as u64) << 32 | i);
        }
        abm.flush_all(c);
        term.on_send(abm.sent);
        // Every batch is on its destination's channel once the barrier
        // completes; past t + 1 s each accept costs the receive overhead
        // and no wait, whatever order the channel delivered them in.
        c.barrier();
        c.elapse(1.0);
        let mut got = 0;
        while got < 10 * size {
            for (_, batch) in abm.poll(c) {
                term.on_recv(1);
                got += batch.len();
            }
        }
        c.barrier();
        while !term.poll(c) {
            assert!(abm.poll(c).is_empty(), "storm already drained");
        }
        let s = c.stats();
        (
            c.time().to_bits(),
            s.sends,
            s.recvs,
            s.bytes_sent,
            s.fault.retransmits,
            s.fault.duplicates,
        )
    }

    #[test]
    fn deterministic_profile_end_state_is_pinned() {
        // Recorded at e011c66, before the transport moved out of `Comm`
        // and the six blocking loops became one: end-time bits, sends,
        // recvs, bytes sent, retransmits, injected duplicates per rank.
        let plan = FaultPlan::none(17)
            .with_duplicate(0.25)
            .with_retransmit(RetransmitConfig::deterministic());
        let out = World::new(Machine::ideal(4), 4)
            .faults(&plan)
            .run(deterministic_workout)
            .outcome
            .expect_completed("duplicates are transparent");
        let pinned = [
            (4607260135999682435, 22, 21, 1066, 0, 10),
            (4607260511278453438, 21, 21, 1026, 0, 3),
            (4607260886557224441, 22, 22, 1066, 0, 6),
            (4607261243821596935, 20, 21, 994, 0, 4),
        ];
        assert_eq!(out, pinned);
    }

    #[test]
    fn clock0_offsets_the_virtual_timeline() {
        let plan = FaultPlan::none(7);
        let times = World::new(Machine::ideal(2), 2)
            .faults(&plan)
            .clock0(100.0)
            .run(|c| {
                c.compute(1e8, 0.0);
                c.time()
            })
            .outcome
            .expect_completed("no faults");
        assert!(times.iter().all(|&t| t > 100.0), "{times:?}");
    }

    #[test]
    fn lossy_ring_recovers_via_retransmit() {
        let plan = FaultPlan::none(chaos_seed()).with_drop(0.4);
        let out = World::new(Machine::ideal(4), 4)
            .faults(&plan)
            .run(|c| {
                let right = (c.rank() + 1) % c.size();
                // Enough traffic that some of it is certain to be dropped.
                for i in 0..50u64 {
                    c.send(right, 2, i);
                }
                let mut sum = 0u64;
                for _ in 0..50 {
                    sum += c.recv::<u64>(None, 2).1;
                }
                (sum, c.stats())
            })
            .outcome
            .expect_completed("drops are recoverable");
        let total_drops: u64 = out.iter().map(|(_, s)| s.fault.drops).sum();
        let total_retx: u64 = out.iter().map(|(_, s)| s.fault.retransmits).sum();
        assert!(total_drops > 0, "40% loss over 200 sends must drop some");
        assert!(total_retx > 0, "drops must trigger retransmissions");
        for (sum, _) in &out {
            assert_eq!(*sum, (0..50).sum::<u64>());
        }
    }

    #[test]
    fn idle_rank_jumps_to_retransmit_deadline() {
        // A dead port eats the first copy; the only recovery is the
        // retransmit timer at t = 200 s virtual. Creeping there one 50 µs
        // poll quantum per 100 µs wall wakeup would take ~4e6 wakeups
        // (minutes of wall time); the event-driven skip completes this
        // test in milliseconds by jumping the blocked sender's clock
        // straight to the deadline.
        let slow = RetransmitConfig {
            rto0_s: 200.0,
            rto_max_s: 200.0,
            backoff: 1.0,
            ..RetransmitConfig::default()
        };
        let plan = FaultPlan::none(3)
            .with_link_fault(LinkFault::dead(1, 0.0, 100.0))
            .with_retransmit(slow);
        let out = World::new(Machine::ideal(2), 2)
            .faults(&plan)
            .run(|c| {
                if c.rank() == 0 {
                    c.send(1, 4, 99u64);
                    let (_, echo) = c.recv::<u64>(Some(1), 4);
                    (echo, c.time(), c.stats().fault.retransmits)
                } else {
                    let (_, v) = c.recv::<u64>(Some(0), 4);
                    c.send(0, 4, v);
                    (v, c.time(), c.stats().fault.retransmits)
                }
            })
            .outcome
            .expect_completed("port cured before the retransmit fires");
        assert_eq!(out[0].0, 99);
        assert_eq!(out[1].0, 99);
        // The echo cannot exist before the t = 200 s retransmit delivered
        // the original, so both clocks must have crossed the deadline.
        assert!(out[0].1 >= 200.0, "rank 0 finished at t={}", out[0].1);
        assert!(out[1].1 >= 200.0, "rank 1 finished at t={}", out[1].1);
        assert!(
            out[0].2 >= 1,
            "recovery must come from the retransmit timer"
        );
    }

    #[test]
    fn corruption_and_duplication_are_transparent() {
        let plan = FaultPlan::none(chaos_seed())
            .with_corrupt(0.2)
            .with_duplicate(0.3);
        let out = World::new(Machine::ideal(2), 2)
            .faults(&plan)
            .run(|c| {
                let peer = 1 - c.rank();
                for i in 0..60u64 {
                    c.send(peer, 5, i);
                }
                let got: Vec<u64> = (0..60).map(|_| c.recv_from::<u64>(peer, 5)).collect();
                (got, c.stats())
            })
            .outcome
            .expect_completed("recoverable faults");
        for (got, _) in &out {
            // FIFO per (src, tag) stream must survive: exactly 0..60.
            assert_eq!(*got, (0..60).collect::<Vec<u64>>());
        }
        let dups: u64 = out.iter().map(|(_, s)| s.fault.duplicates).sum();
        let corr: u64 = out.iter().map(|(_, s)| s.fault.corruptions).sum();
        assert!(dups > 0 && corr > 0, "dups {dups} corr {corr}");
    }

    #[test]
    fn scheduled_crash_is_reported_with_rank_and_time() {
        let plan = FaultPlan::none(1).with_crash(1, 0.5);
        let out: WorldOutcome<u64> = World::new(Machine::ideal(2), 2)
            .faults(&plan)
            .run(|c| {
                // Ping-pong forever; rank 1 dies at t=0.5 and rank 0 must
                // notice (abort flag) instead of hanging.
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
                    c.compute(1e7, 0.0); // ~4 ms/iteration: crash hits fast
                }
            })
            .outcome;
        match out {
            WorldOutcome::Crashed { rank, at } => {
                assert_eq!(rank, 1);
                assert!(at >= 0.5, "crash at {at}");
            }
            _ => panic!("world must crash"),
        }
    }

    #[test]
    fn crash_before_clock0_is_already_spent() {
        // Restart semantics: an event at t=0.5 must not re-fire in an
        // attempt starting at clock0=1.0.
        let plan = FaultPlan::none(1).with_crash(1, 0.5);
        let vals = World::new(Machine::ideal(2), 2)
            .faults(&plan)
            .clock0(1.0)
            .run(|c| c.rank() as u64)
            .outcome
            .expect_completed("crash already in the past");
        assert_eq!(vals, vec![0, 1]);
    }

    #[test]
    fn dead_switch_port_is_survivable_if_it_heals() {
        // Port 1's link is dead for the first 20 ms of virtual time; the
        // transport must carry the ring through it via retransmits.
        let plan = FaultPlan::none(chaos_seed()).with_link_fault(LinkFault::dead(1, 0.0, 2.0e-2));
        let out = World::new(Machine::ideal(3), 3)
            .faults(&plan)
            .run(|c| {
                let right = (c.rank() + 1) % c.size();
                c.send(right, 1, c.rank() as u64);
                let (_, v) = c.recv::<u64>(None, 1);
                (v, c.stats())
            })
            .outcome
            .expect_completed("link heals in time");
        let vals: Vec<u64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(vals, vec![2, 0, 1]);
        let retx: u64 = out.iter().map(|(_, s)| s.fault.retransmits).sum();
        assert!(retx > 0, "dead-port windows must force retransmits");
    }

    #[test]
    fn paper_calibrated_plan_has_sane_shape() {
        let model = nodesim::ReliabilityModel::space_simulator();
        // Nine months compressed hard enough that failures are likely.
        let plan = FaultPlan::paper_calibrated(&model, 16, 10.0, 3.0e7, 99);
        assert!(plan.drop > 0.0 && plan.drop <= 0.25);
        assert!(plan.corrupt < plan.drop);
        for c in &plan.crashes {
            assert!(c.rank < 16);
            assert!((0.0..10.0).contains(&c.at));
        }
        // Same seed, same plan: the derivation is deterministic.
        let again = FaultPlan::paper_calibrated(&model, 16, 10.0, 3.0e7, 99);
        assert_eq!(plan, again);
        // With no acceleration a seconds-long window sees ~zero faults.
        let calm = FaultPlan::paper_calibrated(&model, 16, 10.0, 1.0, 99);
        assert!(calm.crashes.is_empty());
        assert!(calm.drop < 1e-2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// ABM + Safra termination delivers every payload exactly once
        /// under randomized drop/duplication/corruption/reorder schedules.
        #[test]
        fn abm_exactly_once_under_chaos(
            seed in 0u64..1_000_000,
            drop in 0.0f64..0.30,
            dup in 0.0f64..0.25,
            corrupt in 0.0f64..0.20,
            reorder in 0.0f64..0.25,
        ) {
            let plan = FaultPlan::none(seed ^ chaos_seed())
                .with_drop(drop)
                .with_duplicate(dup)
                .with_corrupt(corrupt)
                .with_reorder(reorder);
            storm_exactly_once(3, 25, &plan);
        }
    }

    #[test]
    fn abm_exactly_once_under_heavy_chaos() {
        // One fixed, nastier case than the proptest sweep.
        let plan = FaultPlan::none(chaos_seed())
            .with_drop(0.35)
            .with_duplicate(0.3)
            .with_corrupt(0.2)
            .with_reorder(0.3);
        storm_exactly_once(4, 40, &plan);
    }

    /// Burst `n` messages into a 50 ms dead-port outage with the given
    /// in-flight window; returns rank 0's transport counters.
    fn dead_port_burst(window: usize, n: u64) -> crate::FaultStats {
        let cfg = RetransmitConfig {
            window,
            ..RetransmitConfig::default()
        };
        let plan = FaultPlan::none(9)
            .with_link_fault(LinkFault::dead(1, 0.0, 5.0e-2))
            .with_retransmit(cfg);
        let out = World::new(Machine::ideal(2), 2)
            .faults(&plan)
            .run(|c| {
                if c.rank() == 0 {
                    for i in 0..n {
                        c.send(1, 7, i);
                    }
                    let (_, sum) = c.recv::<u64>(Some(1), 8);
                    assert_eq!(sum, (0..n).sum::<u64>());
                    c.stats().fault
                } else {
                    let mut sum = 0u64;
                    for _ in 0..n {
                        sum += c.recv_from::<u64>(0, 7);
                    }
                    c.send(0, 8, sum);
                    c.stats().fault
                }
            })
            .outcome
            .expect_completed("the outage heals");
        out[0]
    }

    #[test]
    fn backpressure_window_caps_the_retransmit_storm() {
        // Every packet launched into the outage is a guaranteed future
        // retransmission (the dead port eats it; only the timer brings
        // it back), so the uncapped transport pays ~one retransmit per
        // burst message once the port heals. The windowed transport
        // parks the sender after `window` packets and sends the rest
        // fresh against a healthy link.
        let uncapped = dead_port_burst(usize::MAX, 120);
        let capped = dead_port_burst(8, 120);
        assert_eq!(uncapped.window_stalls, 0);
        assert!(
            capped.window_stalls > 0,
            "a 120-message burst into a window of 8 must stall"
        );
        assert!(
            uncapped.retransmits >= 5 * capped.retransmits.max(1),
            "backpressure must cut the storm >= 5x: uncapped {} vs capped {}",
            uncapped.retransmits,
            capped.retransmits
        );
        assert!(capped.rto_expiries > 0, "timer recovery still used");
    }

    #[test]
    fn quiet_crash_is_detected_by_quorum_verdict() {
        // With the detector armed the scheduled crash is silent: no
        // abort flag. The three survivors must each notice the silence,
        // exchange suspicion votes, and condemn the dead rank — naming
        // *it* (not themselves) in the crash report.
        let plan = FaultPlan::none(5)
            .with_crash(2, 2.0e-2)
            .with_heartbeat(HeartbeatConfig::default());
        let out: WorldOutcome<u64> = World::new(Machine::ideal(4), 4)
            .faults(&plan)
            .run(|c| {
                let mut n = 0u64;
                loop {
                    for p in 0..c.size() {
                        if p != c.rank() {
                            c.send(p, 3, n);
                        }
                    }
                    for _ in 0..c.size() - 1 {
                        let _ = c.recv::<u64>(None, 3);
                    }
                    n += 1;
                    c.compute(1e6, 0.0);
                }
            })
            .outcome;
        match out {
            WorldOutcome::Crashed { rank, at } => {
                assert_eq!(rank, 2, "the verdict must name the dead rank");
                assert!(at >= 2.0e-2, "detected at t={at}");
            }
            _ => panic!("world must crash"),
        }
    }

    /// Three rounds of all-to-all warmup, then rank 3 disappears into a
    /// compute phase ~50x longer than the suspicion threshold, then one
    /// more exchange. The straggler's clock jump makes it (briefly,
    /// spuriously) suspect everyone — its `last_seen` stamps are stale
    /// while its own clock leapt ahead.
    fn straggler_world(seed: u64, hb: HeartbeatConfig) -> WorldOutcome<(u64, crate::FaultStats)> {
        let plan = FaultPlan::none(seed).with_heartbeat(hb);
        World::new(Machine::ideal(4), 4)
            .faults(&plan)
            .run(|c| {
                for round in 0..3u64 {
                    for p in 0..c.size() {
                        if p != c.rank() {
                            c.send(p, 11, round);
                        }
                    }
                    for _ in 0..c.size() - 1 {
                        let _ = c.recv::<u64>(None, 11);
                    }
                }
                if c.rank() == 3 {
                    c.compute(5e8, 0.0); // ~0.2 s virtual, threshold is ~4 ms
                }
                for p in 0..c.size() {
                    if p != c.rank() {
                        c.send(p, 12, c.rank() as u64);
                    }
                }
                let mut sum = 0u64;
                for _ in 0..c.size() - 1 {
                    sum += c.recv::<u64>(None, 12).1;
                }
                (sum, c.stats().fault)
            })
            .outcome
    }

    #[test]
    fn straggler_is_suspected_but_not_condemned() {
        // Healthy protocol: the straggler's spurious suspicions stay
        // below quorum and retract once its mailbox drains, so the world
        // completes — and the health counters saw the episode.
        let out = straggler_world(77, HeartbeatConfig::default())
            .expect_completed("a slow rank is not a dead rank");
        let total = |f: fn(&crate::FaultStats) -> u64| out.iter().map(|(_, s)| f(s)).sum::<u64>();
        assert!(total(|s| s.heartbeats) > 0, "detector must have beaten");
        assert!(
            total(|s| s.suspicions) > 0,
            "the clock jump must raise (retracted) suspicions"
        );
        assert_eq!(total(|s| s.verdicts), 0, "nobody may be condemned");
        for (r, (sum, _)) in out.iter().enumerate() {
            assert_eq!(*sum, 6 - r as u64, "exchange payloads intact");
        }
    }

    #[test]
    fn simcheck_catches_split_brain_verdict_mutant() {
        // Teeth: drop the suspicion-confirmation window (condemn the
        // moment a quorum of votes lines up, before retractions can
        // propagate) and the straggler's clock jump turns the transient
        // all-suspect-all storm at the final exchange into a split-brain
        // kill of a live rank. The seed sweep must catch the mutant as a
        // crashed world.
        let mutant = HeartbeatConfig {
            condemn_unconfirmed: true,
            ..HeartbeatConfig::default()
        };
        let mut caught = None;
        for seed in 0..8u64 {
            if let WorldOutcome::Crashed { rank, at } = straggler_world(seed, mutant) {
                caught = Some((seed, rank, at));
                break;
            }
        }
        let (seed, rank, at) = caught.expect("the split-brain mutant must be caught");
        eprintln!("mutant caught: seed {seed} falsely condemned rank {rank} at t={at:.4}");
    }
}
