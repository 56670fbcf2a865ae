//! Ranks and point-to-point messaging.
//!
//! [`crate::World::run`] spawns one thread per rank; each thread gets a
//! [`Comm`] wired to the shared fabric. Sends are asynchronous (unbounded
//! channels), receives block with tag/source matching, and every
//! operation advances the rank's virtual clock per the machine model.
//! [`run`], [`run_with`] and [`run_observed`] are shorthands for the
//! plain world: no fault plan, no schedule.
//!
//! Worlds built with [`crate::World::faults`] additionally carry a
//! reliable-delivery transport (sequence numbers, cumulative acks,
//! timeout/retransmit with exponential backoff) underneath the tag-matched
//! interface, so application protocols survive the injected packet loss,
//! corruption, duplication and reordering of a [`crate::fault::FaultPlan`].
//! Worlds built with [`crate::World::schedule`] carry the adversarial
//! delivery scheduler and its liveness watchdogs ([`crate::sched`]).
//! Plain worlds skip both entirely: the `fault` and `sched` fields are
//! `None` and every call takes the original code path.

use crate::fault::{FaultCtx, QuietCrash, RankCrash, WorldAborted};
use crate::machine::Machine;
use crate::payload::{AnyPayload, Payload};
use crate::sched::{SchedCtx, SchedShared, Stall, StallAbort};
use crate::world::World;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use obs::{RankTrace, Recorder, WorldTrace};
use std::collections::VecDeque;
use std::fmt;
use std::panic::panic_any;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Message tag. User tags should stay below [`Tag::MAX`]`/2`; the library
/// reserves the top bit for collectives.
pub type Tag = u64;

/// Envelope bytes charged per message on top of the payload.
pub const HEADER_BYTES: usize = 32;

/// Real time a fault-mode rank blocks on its channel between transport
/// timer checks (retransmits must fire even when no message ever comes).
const POLL_WALL: Duration = Duration::from_micros(100);

/// Consecutive empty channel polls before the event-driven idle skip may
/// warp the virtual clock to the next transport deadline. 64 polls of
/// `POLL_WALL` gives a busy peer ~6.4 ms of wall time to reply — slightly
/// more than the default tuning's old creep allowed (40 wakeups per RTO)
/// — before a retransmit can fire early.
const IDLE_WARP_POLLS: u32 = 64;

/// What a packet is at the transport level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireKind {
    /// Best-effort message on a fault-free world (the default path).
    Raw,
    /// Sequenced payload on the reliable transport.
    Data { seq: u64 },
    /// Cumulative acknowledgement: every `Data` with `seq < upto` sent to
    /// the rank issuing this ack has been delivered or buffered there.
    Ack { upto: u64 },
    /// Failure-detector keepalive: best-effort, unsequenced, and emitted
    /// without consuming any injection RNG draws (its count depends on
    /// wall-clock poll cadence, so a draw here would shift the data
    /// packets' replay-critical draw sequence). Only a dead switch port
    /// can eat one.
    Heartbeat,
    /// Failure-detector vote: the sender currently suspects `peer` is
    /// dead (`alive == false`), or retracts that suspicion having heard
    /// from the peer again (`alive == true`). Same best-effort, no-draw
    /// rules as `Heartbeat`.
    Suspect { peer: u32, alive: bool },
}

pub(crate) struct Packet {
    pub src: usize,
    pub tag: Tag,
    /// Virtual time the last byte reaches the destination NIC.
    pub arrival: f64,
    pub kind: WireKind,
    /// Injected bit errors; the receiver's CRC check discards the packet.
    pub corrupt: bool,
    /// Sender's happens-before edge id; joins the receiver's trace record
    /// to the sender's. Retransmitted copies carry the original edge.
    /// [`NO_EDGE`] on control packets (acks).
    pub edge: u64,
    pub data: Box<dyn AnyPayload>,
}

/// Edge id for packets that are not program-level messages.
pub(crate) const NO_EDGE: u64 = u64::MAX;

impl Packet {
    pub(crate) fn clone_pkt(&self) -> Packet {
        Packet {
            src: self.src,
            tag: self.tag,
            arrival: self.arrival,
            kind: self.kind,
            corrupt: self.corrupt,
            edge: self.edge,
            data: self.data.clone_box(),
        }
    }
}

/// Arena-backed mailbox. Packets live in stable slots; arrival order is a
/// deque of slot ids. A `Vec<Packet>` mailbox pays a memmove of every
/// queued packet on each in-order take (quadratic over a burst, and each
/// moved element is a fat `Packet` with a boxed payload), which dominated
/// profiles once ABM batching let hundreds of packets queue per rank. Here
/// the common FIFO take is a `pop_front` of a `u32`, matching scans walk
/// ids instead of moving packets, and freed slots recycle so a long run
/// settles into a fixed allocation footprint instead of churning the
/// allocator per message.
#[derive(Default)]
struct Mailbox {
    slots: Vec<Option<Packet>>,
    /// Slot ids in arrival order — the FIFO contract lives here.
    order: VecDeque<u32>,
    free: Vec<u32>,
}

impl Mailbox {
    fn push(&mut self, pkt: Packet) {
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(pkt);
                id
            }
            None => {
                self.slots.push(Some(pkt));
                (self.slots.len() - 1) as u32
            }
        };
        self.order.push_back(id);
    }

    /// Queued packets in arrival order.
    fn iter(&self) -> impl Iterator<Item = &Packet> + '_ {
        self.order
            .iter()
            .map(|&id| self.slots[id as usize].as_ref().expect("live slot"))
    }

    /// Arrival-order position of the first packet matching `pred`.
    fn position(&self, mut pred: impl FnMut(&Packet) -> bool) -> Option<usize> {
        self.iter().position(&mut pred)
    }

    /// Remove and return the packet at arrival-order position `pos`.
    /// Removal from the order deque keeps every other packet in place:
    /// the mailbox must stay in arrival order or a (src, tag) stream
    /// with three or more queued packets gets reordered, breaking
    /// protocols that rely on FIFO delivery (e.g. the treecode's
    /// part/terminator reply streams).
    fn remove(&mut self, pos: usize) -> Packet {
        let id = self.order.remove(pos).expect("position in order");
        let pkt = self.slots[id as usize].take().expect("live slot");
        self.free.push(id);
        pkt
    }
}

/// Transport-level fault and recovery counters (all zero on fault-free
/// worlds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Messages eaten by injected loss or a dead switch port.
    pub drops: u64,
    /// Messages delivered with injected bit errors (discarded by CRC).
    pub corruptions: u64,
    /// Extra copies delivered by injected duplication.
    pub duplicates: u64,
    /// Messages held back to force out-of-order arrival.
    pub reorders: u64,
    /// Retransmissions fired by the ack-timeout machinery.
    pub retransmits: u64,
    /// Acknowledgement packets sent.
    pub acks: u64,
    /// RTO timer expirations (each escalates the backoff before the
    /// packet is resent).
    pub rto_expiries: u64,
    /// Sends that parked on a full per-destination in-flight window.
    pub window_stalls: u64,
    /// Heartbeat broadcasts emitted by the failure detector.
    pub heartbeats: u64,
    /// Suspicions raised (a peer's silence crossed the phi threshold).
    pub suspicions: u64,
    /// Quorum verdicts reached (a suspected peer condemned as dead).
    pub verdicts: u64,
}

/// Per-rank communication statistics (virtual-time accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    pub sends: u64,
    pub recvs: u64,
    pub bytes_sent: u64,
    /// Virtual seconds spent in modeled computation.
    pub compute_s: f64,
    /// Virtual seconds spent waiting for messages not yet arrived.
    pub wait_s: f64,
    /// Reliable-transport counters (zero unless faults are injected).
    pub fault: FaultStats,
}

/// Returned by [`Comm::recv_timeout`]: no matching message arrived within
/// the real-time budget. Carries a snapshot of what *is* queued, so a
/// protocol bug reads as "waiting on tag 6, mailbox holds tag 5" at a
/// glance instead of a hung CI job.
#[derive(Debug, Clone)]
pub struct MailboxTimeout {
    pub rank: usize,
    pub wanted_src: Option<usize>,
    pub wanted_tag: Tag,
    /// `(src, tag, arrival)` of every queued-but-unmatched packet.
    pub mailbox: Vec<(usize, Tag, f64)>,
}

impl fmt::Display for MailboxTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {}: timed out waiting for (src {:?}, tag {}); mailbox holds {} packet(s)",
            self.rank,
            self.wanted_src,
            self.wanted_tag,
            self.mailbox.len()
        )?;
        for (src, tag, arrival) in &self.mailbox {
            write!(f, "\n  src {src} tag {tag} arrival {arrival:.6e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for MailboxTimeout {}

/// One rank's endpoint: point-to-point messaging, virtual clock, and (via
/// the `collectives` module) collective operations.
pub struct Comm {
    rank: usize,
    size: usize,
    clock: f64,
    machine: Machine,
    senders: Vec<Sender<Packet>>,
    rx: Receiver<Packet>,
    mailbox: Mailbox,
    pub(crate) coll_seq: u64,
    /// Monotone happens-before edge counter (one per logical message,
    /// shared across destinations, so sends are seq-sorted by time).
    edge_seq: u64,
    stats: CommStats,
    /// Consecutive empty channel polls; resets on any packet pull. Gates
    /// the event-driven idle skip (see `idle_quantum`).
    idle_polls: u32,
    /// Reliable transport + fault injection; `None` on fault-free worlds.
    pub(crate) fault: Option<Box<FaultCtx>>,
    /// Adversarial delivery scheduler (`crate::sched`); `None` — the
    /// default — keeps every path byte-identical to an unscheduled world.
    pub(crate) sched: Option<Box<SchedCtx>>,
    /// Virtual-time recorder; `None` (the default) records nothing.
    obs: Option<Box<Recorder>>,
    /// Snapshot of `stats` at the last fold into the recorder's registry
    /// (timeline window boundaries and trace extraction fold deltas, so
    /// transport counters land in the window where they accumulated).
    obs_folded: CommStats,
}

impl Comm {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn construct(
        rank: usize,
        size: usize,
        clock0: f64,
        machine: Machine,
        senders: Vec<Sender<Packet>>,
        rx: Receiver<Packet>,
        fault: Option<Box<FaultCtx>>,
        sched: Option<Box<SchedCtx>>,
    ) -> Comm {
        Comm {
            rank,
            size,
            clock: clock0,
            machine,
            senders,
            rx,
            mailbox: Mailbox::default(),
            coll_seq: 0,
            edge_seq: 0,
            stats: CommStats::default(),
            idle_polls: 0,
            fault,
            sched,
            obs: None,
            obs_folded: CommStats::default(),
        }
    }

    /// Mark this rank's program as finished for the deadlock detector.
    /// Fault-mode ranks are accounted by the transport-drain parking
    /// instead (counting both would double-count this rank).
    pub(crate) fn sched_retire(&mut self) {
        if let Some(s) = &self.sched {
            if self.fault.is_none() {
                s.shared.retired.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Account one packet pulled off this rank's channel (scheduled
    /// worlds only; see `SchedShared::inflight`).
    #[inline]
    fn note_rx_pull(&mut self) {
        self.idle_polls = 0;
        if let Some(s) = &self.sched {
            s.shared.inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Account one packet about to be pushed onto a channel. Must be
    /// called *before* the push so the in-flight count never reads low.
    #[inline]
    fn note_tx(&self) {
        if let Some(s) = &self.sched {
            s.shared.inflight.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Hand one packet pulled off the channel to the reliable transport
    /// (`ctx` is the fault ctx, checked out of `self.fault`) or, on
    /// fault-free worlds, straight to the mailbox.
    #[inline]
    fn deliver(&mut self, ctx: Option<&mut FaultCtx>, pkt: Packet) {
        self.note_rx_pull();
        match ctx {
            Some(ctx) => self.ingest(ctx, pkt),
            None => self.mailbox.push(pkt),
        }
    }

    /// [`Comm::deliver`] for callers that do not hold the fault ctx.
    fn deliver_unheld(&mut self, pkt: Packet) {
        let mut ctx = self.fault.take();
        self.deliver(ctx.as_deref_mut(), pkt);
        self.fault = ctx;
    }

    /// Deliver everything already sitting in the channel, without
    /// blocking.
    #[inline]
    fn drain_channel(&mut self, mut ctx: Option<&mut FaultCtx>) {
        while let Ok(pkt) = self.rx.try_recv() {
            self.deliver(ctx.as_deref_mut(), pkt);
        }
    }

    /// Wait up to one `POLL_WALL` for a packet. With `park` set on a
    /// scheduled world, the rank counts as parked for the deadlock
    /// detector while it waits, and a timeout runs the detector's check.
    fn poll_channel(&self, park: bool) -> Option<Packet> {
        let parked = self.sched.as_ref().filter(|_| park).map(|s| &*s.shared);
        if let Some(shared) = parked {
            shared.parked.fetch_add(1, Ordering::SeqCst);
        }
        let polled = self.rx.recv_timeout(POLL_WALL);
        if let Some(shared) = parked {
            if matches!(polled, Err(RecvTimeoutError::Timeout)) {
                // Run the deadlock check while this rank still counts as
                // parked, or the all-parked state is unreachable.
                self.check_deadlock(shared);
            }
            shared.parked.fetch_sub(1, Ordering::SeqCst);
        }
        match polled {
            Ok(pkt) => Some(pkt),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => panic!("world disconnected"),
        }
    }

    /// The parked-world deadlock check: tear down if some rank already
    /// stalled; flag a deadlock if every rank is parked or retired with
    /// nothing in flight. Called by a rank that counts as parked.
    fn check_deadlock(&self, shared: &SchedShared) {
        if shared.stalled.load(Ordering::SeqCst) {
            shared.parked.fetch_sub(1, Ordering::SeqCst);
            panic_any(StallAbort);
        }
        // Every rank ends up parked in the transport drain at normal
        // termination: a fully drained world is finishing, not stuck.
        let finishing = self
            .fault
            .as_ref()
            .is_some_and(|c| c.drained.load(Ordering::SeqCst) >= self.size);
        let everyone_blocked = shared.parked.load(Ordering::SeqCst)
            + shared.retired.load(Ordering::SeqCst)
            >= shared.size;
        if everyone_blocked && !finishing && shared.inflight.load(Ordering::SeqCst) <= 0 {
            shared.stalled.store(true, Ordering::SeqCst);
            shared.parked.fetch_sub(1, Ordering::SeqCst);
            panic_any(Stall {
                rank: self.rank,
                at: self.clock,
                deadlock: true,
            });
        }
    }

    /// Seeded extra delivery delay in `[0, jitter_s)`; zero (and no RNG
    /// draw) when jitter is off or no scheduler is armed.
    #[inline]
    fn draw_jitter(&mut self) -> f64 {
        match &mut self.sched {
            Some(s) if s.jitter_s > 0.0 => s.rng_jitter.unit() * s.jitter_s,
            _ => 0.0,
        }
    }

    /// Liveness watchdog checks for scheduled worlds: tear down if some
    /// rank already stalled, and flag this rank if its virtual clock has
    /// left the schedule's budget (livelock detection).
    fn check_sched(&mut self) {
        let Some(s) = &self.sched else { return };
        if s.shared.stalled.load(Ordering::Relaxed) {
            panic_any(StallAbort);
        }
        if self.clock > s.budget_s {
            s.shared.stalled.store(true, Ordering::SeqCst);
            panic_any(Stall {
                rank: self.rank,
                at: self.clock,
                deadlock: false,
            });
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// This rank's virtual clock, seconds since the program started.
    pub fn time(&self) -> f64 {
        self.clock
    }

    pub fn stats(&self) -> CommStats {
        self.stats
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    // --- observability ---------------------------------------------------

    /// Attach a fresh recorder; from here on sends, receives, modeled
    /// compute, collectives, and explicit spans are traced in virtual
    /// time. Idempotent installs would lose history, so this asserts
    /// that no recorder is present.
    pub fn install_recorder(&mut self) {
        assert!(self.obs.is_none(), "recorder already installed");
        let mut r = Recorder::new(self.rank, self.size);
        r.start_at(self.clock);
        self.obs = Some(Box::new(r));
    }

    pub fn has_recorder(&self) -> bool {
        self.obs.is_some()
    }

    /// Arm the recorder's time-resolved telemetry plane (see
    /// `obs::timeline`): slice this rank's virtual timeline into
    /// `window_s`-wide windows carrying counter deltas, per-link-class
    /// wire traffic, phase occupancy, and histogram window deltas.
    /// No-op without a recorder, so worlds can call it unconditionally.
    pub fn enable_timeline(&mut self, window_s: f64) {
        if let Some(r) = &mut self.obs {
            r.enable_timeline(window_s);
        }
    }

    /// Fold the transport counters this rank accumulated since the last
    /// fold into the recorder's registry (everything virtual-time
    /// deterministic; see [`Comm::take_trace`] for why acks stay out),
    /// and set the cumulative virtual-time gauges.
    fn fold_stats_into(r: &mut Recorder, s: &CommStats, base: &CommStats) {
        let f = &s.fault;
        let b = &base.fault;
        r.metrics.add("msg.sends", s.sends - base.sends);
        r.metrics.add("msg.recvs", s.recvs - base.recvs);
        r.metrics
            .add("msg.bytes_sent", s.bytes_sent - base.bytes_sent);
        r.metrics.add("fault.drops", f.drops - b.drops);
        r.metrics
            .add("fault.corruptions", f.corruptions - b.corruptions);
        r.metrics
            .add("fault.duplicates", f.duplicates - b.duplicates);
        r.metrics.add("fault.reorders", f.reorders - b.reorders);
        r.metrics
            .add("fault.retransmits", f.retransmits - b.retransmits);
        r.metrics.add("net.retx", f.retransmits - b.retransmits);
        r.metrics.add("net.rto", f.rto_expiries - b.rto_expiries);
        r.metrics
            .add("net.window_stalls", f.window_stalls - b.window_stalls);
        r.metrics
            .add("health.heartbeats", f.heartbeats - b.heartbeats);
        r.metrics
            .add("health.suspicions", f.suspicions - b.suspicions);
        r.metrics.add("health.verdicts", f.verdicts - b.verdicts);
        r.metrics.set_gauge("vt.compute_s", s.compute_s);
        r.metrics.set_gauge("vt.wait_s", s.wait_s);
    }

    /// Seal any timeline windows the virtual clock has passed, syncing
    /// the transport counters into the registry first so the sealed
    /// window carries the stats that accumulated inside it. One branch
    /// when no timeline is armed; called on every clock-advancing or
    /// recording path.
    #[inline]
    fn obs_roll(&mut self) {
        if let Some(r) = &mut self.obs {
            if r.timeline_due(self.clock) {
                let s = self.stats;
                Self::fold_stats_into(r, &s, &self.obs_folded);
                self.obs_folded = s;
                r.roll_timeline(self.clock);
            }
        }
    }

    /// Open a span at the current virtual time. No-op without a recorder.
    pub fn span_enter(&mut self, name: &'static str) {
        self.obs_roll();
        if let Some(r) = &mut self.obs {
            r.enter(self.clock, name);
        }
    }

    /// Close the innermost open span (whose name must match).
    pub fn span_exit(&mut self, name: &'static str) {
        self.obs_roll();
        if let Some(r) = &mut self.obs {
            r.exit(self.clock, name);
        }
    }

    /// Run `f` bracketed by a span. The exit lands on whatever virtual
    /// time `f` advanced the clock to, so nested communication and
    /// compute phases are attributed to this span on the timeline.
    pub fn with_span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_enter(name);
        let out = f(self);
        self.span_exit(name);
        out
    }

    /// Increment a named counter on the recorder (no-op when absent).
    pub fn obs_count(&mut self, name: &'static str, delta: u64) {
        self.obs_roll();
        if let Some(r) = &mut self.obs {
            r.metrics.add(name, delta);
        }
    }

    /// Record a histogram observation on the recorder (no-op when absent).
    pub fn obs_observe(&mut self, name: &'static str, value: f64) {
        self.obs_roll();
        if let Some(r) = &mut self.obs {
            r.metrics.observe(name, value);
        }
    }

    /// Set a gauge on the recorder (no-op when absent).
    pub fn obs_gauge(&mut self, name: &'static str, value: f64) {
        self.obs_roll();
        if let Some(r) = &mut self.obs {
            r.metrics.set_gauge(name, value);
        }
    }

    /// Detach the recorder, fold in this rank's transport statistics, and
    /// return the finished per-rank trace. Returns `None` if no recorder
    /// was installed.
    ///
    /// Ack counts are deliberately *not* folded in: whether a stale
    /// duplicate's original copy is ingested (and re-acked) before or
    /// after this call depends on real-time channel drain order, so acks
    /// are not virtual-time deterministic in any faulted world. The
    /// `net.*`/`health.*` counters are wall-cadence-dependent too (the
    /// poll loop drives both timers and heartbeats), but they are zero —
    /// hence absent, `add(_, 0)` is a no-op — in every world that pins a
    /// byte-identical trace, so folding them only surfaces them where a
    /// human is reading a degraded run's summary.
    pub fn take_trace(&mut self) -> Option<RankTrace> {
        let mut r = self.obs.take()?;
        let s = self.stats;
        Self::fold_stats_into(&mut r, &s, &self.obs_folded);
        self.obs_folded = s;
        Some(r.finish(self.clock))
    }

    /// Advance the clock by a modeled computation phase: `flops` floating
    /// point operations touching `bytes` of DRAM traffic, at the machine's
    /// default CPU efficiency.
    pub fn compute(&mut self, flops: f64, bytes: f64) {
        let eff = self.machine.default_cpu_eff;
        self.compute_eff(flops, bytes, eff);
    }

    /// Like [`Comm::compute`] with an explicit fraction-of-peak.
    pub fn compute_eff(&mut self, flops: f64, bytes: f64, cpu_eff: f64) {
        let dt = self.machine.node.time(flops, bytes, cpu_eff);
        self.clock += dt;
        self.stats.compute_s += dt;
        self.obs_roll();
        if let Some(r) = &mut self.obs {
            r.on_compute(flops, self.machine.node.occupancy(flops, bytes, cpu_eff));
        }
        self.check_liveness();
    }

    /// Advance the clock by a literal duration (e.g. modeled disk I/O).
    pub fn elapse(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot elapse negative time");
        self.clock += seconds;
        self.obs_roll();
        self.check_liveness();
    }

    /// Panic (tearing this rank down) if its scheduled crash time has
    /// passed, or if another rank already died and the world is aborting.
    /// A no-op on fault-free worlds.
    pub(crate) fn check_liveness(&mut self) {
        if let Some(ctx) = &self.fault {
            Self::liveness_probe(self.rank, self.clock, ctx);
        }
        self.check_sched();
    }

    /// The crash/abort half of [`Comm::check_liveness`], callable while
    /// the fault ctx is checked out of `self.fault` (the send-side
    /// backpressure loop needs it mid-flight).
    fn liveness_probe(rank: usize, clock: f64, ctx: &FaultCtx) {
        if clock >= ctx.crash_at {
            if ctx.hb.is_some() {
                // With the failure detector armed the death is silent:
                // no abort broadcast, the survivors must notice.
                panic_any(QuietCrash { rank, at: clock });
            }
            ctx.abort.store(true, Ordering::SeqCst);
            panic_any(RankCrash { rank, at: clock });
        }
        if ctx.abort.load(Ordering::Relaxed) {
            panic_any(WorldAborted);
        }
    }

    /// Send `value` to `dst` with `tag`. Never blocks.
    pub fn send<T: Payload>(&mut self, dst: usize, tag: Tag, value: T) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        let bytes = value.wire_bytes() + HEADER_BYTES;
        if self.fault.is_some() {
            return self.send_reliable(dst, tag, Box::new(value), bytes);
        }
        let profile = self.machine.fabric.profile();
        self.clock += profile.send_overhead_s;
        let out = self
            .machine
            .fabric
            .transfer(self.rank as u32, dst as u32, bytes, self.clock);
        let arrival = out.arrival + self.draw_jitter();
        self.stats.sends += 1;
        self.stats.bytes_sent += bytes as u64;
        let edge = self.edge_seq;
        self.edge_seq += 1;
        let link = self.machine.fabric.link_class(self.rank as u32, dst as u32);
        self.obs_roll();
        if let Some(r) = self.obs.as_mut() {
            r.on_send(dst, bytes);
            r.on_msg_send(self.clock, dst as u32, edge, bytes as u64, out.queued, link);
        }
        let pkt = Packet {
            src: self.rank,
            tag,
            arrival,
            kind: WireKind::Raw,
            corrupt: false,
            edge,
            data: Box::new(value),
        };
        self.note_tx();
        if self.senders[dst].send(pkt).is_err() {
            // During a stall teardown a peer legitimately disappears; bow
            // out quietly so the watchdog's verdict (not this send) names
            // the failure. Otherwise the receiver thread can only have
            // hung up on panic; propagate.
            if let Some(s) = &self.sched {
                if s.shared.stalled.load(Ordering::SeqCst) {
                    panic_any(StallAbort);
                }
            }
            panic!("rank {dst} hung up");
        }
    }

    /// Virtual seconds to charge for one empty poll of the channel.
    ///
    /// Event-driven skip: an idle rank used to creep toward its next
    /// retransmit deadline one `poll_s` quantum at a time — at the default
    /// tuning that is 40 empty wakeups (each a real 100 µs channel wait)
    /// per RTO, and it dominated wall-clock time in large fault scenarios.
    /// When the transport has a pending self-driven event (a retransmit
    /// deadline with data outstanding, or a reorder hold's release), jump
    /// the clock straight to it: no message can originate from *this* rank
    /// in between, so the intermediate quanta were pure spin. The jump is
    /// capped at the rank's scheduled crash time so a crash still fires at
    /// the same virtual instant, and never fires when the transport is
    /// idle (only a peer can wake us; keep the modeled polling charge) or
    /// when `poll_s == 0` (the deterministic profile parks retransmit
    /// deadlines at 1e9 s precisely so the clock never moves on a poll).
    ///
    /// Hysteresis: virtual clocks are per-rank, so an outstanding packet's
    /// ack may still be in flight *in wall time* even though our virtual
    /// deadline is near. Warping on the first empty poll would fire
    /// spurious retransmits whenever a peer needs more than one 100 µs
    /// channel wait to respond. Only warp once `IDLE_WARP_POLLS`
    /// consecutive polls have come back empty — that keeps the wall-clock
    /// grace close to what the old quantum creep allowed (deadline/poll_s
    /// wakeups), while still collapsing the long tail (backed-off RTOs,
    /// reorder holds) into a single jump.
    fn idle_quantum(&self, ctx: &FaultCtx) -> f64 {
        let poll = ctx.cfg.poll_s;
        if poll <= 0.0 {
            return poll;
        }
        if self.idle_polls < IDLE_WARP_POLLS {
            return poll;
        }
        let mut next = f64::INFINITY;
        for tx in &ctx.tx {
            if !tx.unacked.is_empty() {
                next = next.min(tx.deadline);
            }
        }
        for held in ctx.held.iter().flatten() {
            next = next.min(held.release_at);
        }
        if let Some(hb) = &ctx.hb {
            // The detector is a self-driven event source too: an idle
            // rank must keep its clock moving (in `every_s` steps) or a
            // dead peer's silence would never cross the phi threshold.
            next = next.min(hb.next_hb);
        }
        if !next.is_finite() {
            return poll;
        }
        next = next.min(ctx.crash_at);
        if next > self.clock + poll {
            next - self.clock
        } else {
            poll
        }
    }

    /// `idle_quantum` plus the hysteresis bookkeeping: call once per
    /// channel-poll attempt. A warp consumes the accumulated idle credit
    /// (the next warp needs a fresh run of empty polls); an ordinary
    /// quantum accrues one.
    fn idle_step(&mut self, ctx: &FaultCtx) -> f64 {
        let dt = self.idle_quantum(ctx);
        if dt > ctx.cfg.poll_s {
            self.idle_polls = 0;
        } else {
            self.idle_polls = self.idle_polls.saturating_add(1);
        }
        dt
    }

    fn matches(pkt: &Packet, src: Option<usize>, tag: Tag) -> bool {
        pkt.tag == tag && src.is_none_or(|s| pkt.src == s)
    }

    fn take_from_mailbox(&mut self, src: Option<usize>, tag: Tag) -> Option<Packet> {
        // Scheduler hook: a wildcard receive with several sources queued
        // is a real arrival race, so the adversary may pick any source's
        // head-of-line packet. Only the *first* match per source is a
        // candidate — per-(src, tag) FIFO is preserved by construction.
        // Every wildcard take is logged (replay follows the log: the
        // match waits for the logged source, which removes the one
        // wall-clock race a wildcard receive has — whether a slower
        // source's packet had really arrived when the pick was made).
        if src.is_none() {
            if let Some(sched) = self.sched.as_deref_mut() {
                if let Some(want) = sched.replay_want() {
                    let idx = self.mailbox.position(|p| p.tag == tag && p.src == want)?;
                    sched.log_match(want, true);
                    return Some(self.mailbox.remove(idx));
                }
                if sched.replay.is_none() && sched.perturbed < sched.perturb_limit {
                    sched.seen.iter_mut().for_each(|s| *s = false);
                    sched.heads.clear();
                    for (i, p) in self.mailbox.iter().enumerate() {
                        if p.tag == tag && !sched.seen[p.src] {
                            sched.seen[p.src] = true;
                            sched.heads.push(i);
                        }
                    }
                    let idx = match sched.heads.len() {
                        0 => return None,
                        1 => sched.heads[0],
                        n => {
                            // A decision point: one deviation spent even
                            // if the draw lands on the first match, so
                            // perturb_limit counts decisions, and shrink
                            // prefixes are schedule-stable.
                            sched.perturbed += 1;
                            sched.heads[(sched.rng_match.next_u64() % n as u64) as usize]
                        }
                    };
                    let pkt = self.mailbox.remove(idx);
                    if let Some(s) = self.sched.as_deref_mut() {
                        s.log_match(pkt.src, false);
                    }
                    return Some(pkt);
                }
            }
        }
        let idx = self.mailbox.position(|p| Self::matches(p, src, tag))?;
        let pkt = self.mailbox.remove(idx);
        if src.is_none() {
            if let Some(s) = self.sched.as_deref_mut() {
                s.log_match(pkt.src, false);
            }
        }
        Some(pkt)
    }

    fn accept<T: Payload>(&mut self, pkt: Packet) -> (usize, T) {
        let profile = self.machine.fabric.profile();
        let ready = self.clock + profile.recv_overhead_s;
        let wait = (pkt.arrival - ready).max(0.0);
        self.stats.wait_s += wait;
        self.clock = ready + wait;
        self.stats.recvs += 1;
        self.obs_roll();
        if let Some(r) = &mut self.obs {
            r.on_wait(wait);
            if pkt.edge != NO_EDGE {
                r.on_msg_recv(pkt.src as u32, pkt.edge, pkt.arrival, self.clock, wait);
            }
        }
        let (src, tag) = (pkt.src, pkt.tag);
        let value = *pkt.data.into_any().downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {tag} from rank {src}",
                self.rank
            )
        });
        (src, value)
    }

    /// Blocking receive matching `(src, tag)`; `src = None` is a wildcard.
    /// Returns the actual source and the value.
    pub fn recv<T: Payload>(&mut self, src: Option<usize>, tag: Tag) -> (usize, T) {
        if self.fault.is_some() {
            return self.recv_fault(src, tag);
        }
        if self.sched.is_some() {
            return self.recv_sched(src, tag);
        }
        loop {
            if let Some(pkt) = self.take_from_mailbox(src, tag) {
                return self.accept(pkt);
            }
            let pkt = self.rx.recv().expect("world disconnected");
            self.mailbox.push(pkt);
        }
    }

    /// Scheduled fault-free blocking receive: identical matching to the
    /// plain path (modulo the scheduler's permutation), but parks under
    /// the watchdog's eye so a world where every rank is blocked with
    /// nothing in flight is reported as a deadlock instead of hanging.
    fn recv_sched<T: Payload>(&mut self, src: Option<usize>, tag: Tag) -> (usize, T) {
        loop {
            self.check_sched();
            self.drain_channel(None);
            if let Some(pkt) = self.take_from_mailbox(src, tag) {
                return self.accept(pkt);
            }
            if let Some(pkt) = self.poll_channel(true) {
                self.deliver(None, pkt);
            }
        }
    }

    /// Fault-mode blocking receive: polls so that retransmit timers keep
    /// firing and a dead world is noticed instead of blocking forever.
    fn recv_fault<T: Payload>(&mut self, src: Option<usize>, tag: Tag) -> (usize, T) {
        loop {
            self.check_liveness();
            let mut ctx = self.fault.take().expect("fault ctx");
            self.service_transport(&mut ctx);
            self.drain_channel(Some(&mut ctx));
            let idle_dt = self.idle_step(&ctx);
            // A rank with unacked or held packets will make progress on
            // its own (timers fire as the poll charge advances its
            // clock), so only a transport-idle rank counts as parked for
            // the deadlock detector.
            let idle = ctx.transport_idle();
            self.fault = Some(ctx);
            if let Some(pkt) = self.take_from_mailbox(src, tag) {
                return self.accept(pkt);
            }
            match self.poll_channel(idle) {
                Some(pkt) => self.deliver_unheld(pkt),
                None => {
                    // Charge the idle quantum so virtual time moves and
                    // ack timeouts can expire while we sit here (jumping
                    // straight to the next timer when one is pending).
                    self.clock += idle_dt;
                    self.stats.wait_s += idle_dt;
                }
            }
        }
    }

    /// Non-blocking receive. Drains the channel into the mailbox, then
    /// looks for a match.
    pub fn try_recv<T: Payload>(&mut self, src: Option<usize>, tag: Tag) -> Option<(usize, T)> {
        if self.fault.is_some() {
            self.check_liveness();
            let mut ctx = self.fault.take().expect("fault ctx");
            self.service_transport(&mut ctx);
            self.drain_channel(Some(&mut ctx));
            let probe_s = ctx.cfg.probe_s;
            self.fault = Some(ctx);
            return match self.take_from_mailbox(src, tag) {
                Some(pkt) => Some(self.accept(pkt)),
                None => {
                    // Probing the NIC is not free; this also lets ack
                    // timeouts expire inside try_recv-only spin loops.
                    self.clock += probe_s;
                    None
                }
            };
        }
        self.drain_channel(None);
        match self.take_from_mailbox(src, tag) {
            Some(pkt) => Some(self.accept(pkt)),
            None => {
                // Scheduled worlds charge an empty probe so fault-free
                // spin loops advance toward the liveness budget instead
                // of livelocking at a frozen virtual time.
                if let Some(s) = &self.sched {
                    let probe_s = s.probe_s;
                    self.clock += probe_s;
                    self.check_sched();
                }
                None
            }
        }
    }

    /// Blocking receive with a real-time budget. On timeout, returns a
    /// [`MailboxTimeout`] listing the queued packets instead of hanging
    /// forever — use in tests so protocol bugs fail fast and legibly.
    pub fn recv_timeout<T: Payload>(
        &mut self,
        src: Option<usize>,
        tag: Tag,
        wall: Duration,
    ) -> Result<(usize, T), MailboxTimeout> {
        let deadline = Instant::now() + wall;
        loop {
            self.check_liveness();
            let mut ctx = self.fault.take();
            if let Some(ctx) = ctx.as_deref_mut() {
                self.service_transport(ctx);
            }
            self.drain_channel(ctx.as_deref_mut());
            self.fault = ctx;
            if let Some(pkt) = self.take_from_mailbox(src, tag) {
                return Ok(self.accept(pkt));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(MailboxTimeout {
                    rank: self.rank,
                    wanted_src: src,
                    wanted_tag: tag,
                    mailbox: self
                        .mailbox
                        .iter()
                        .map(|p| (p.src, p.tag, p.arrival))
                        .collect(),
                });
            }
            let slice = POLL_WALL.min(deadline - now);
            match self.rx.recv_timeout(slice) {
                Ok(pkt) => self.deliver_unheld(pkt),
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(ctx) = self.fault.take() {
                        let dt = self.idle_step(&ctx);
                        self.fault = Some(ctx);
                        self.clock += dt;
                        self.stats.wait_s += dt;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {}
            }
        }
    }

    /// Convenience: receive from a specific rank.
    pub fn recv_from<T: Payload>(&mut self, src: usize, tag: Tag) -> T {
        self.recv::<T>(Some(src), tag).1
    }

    // --- reliable transport (fault-mode only) ---------------------------

    /// Sequenced send with a retransmit copy kept until acknowledged.
    fn send_reliable(&mut self, dst: usize, tag: Tag, data: Box<dyn AnyPayload>, bytes: usize) {
        self.check_liveness();
        let mut ctx = self.fault.take().expect("fault ctx");
        self.service_transport(&mut ctx);
        // Backpressure: every packet launched at a peer that isn't acking
        // is a guaranteed future retransmission, so an unbounded burst
        // into an outage turns into a retransmit storm once the link
        // heals. Park here until the window opens — still ingesting (so
        // acks, votes and heartbeats keep flowing; two mutually-blocked
        // senders ack each other's data from this loop and both windows
        // drain) and still servicing timers (so the head-of-line packet
        // keeps probing the peer).
        if ctx.tx[dst].unacked.len() >= ctx.cfg.window {
            self.stats.fault.window_stalls += 1;
            loop {
                Self::liveness_probe(self.rank, self.clock, &ctx);
                self.service_transport(&mut ctx);
                self.drain_channel(Some(&mut ctx));
                if ctx.tx[dst].unacked.len() < ctx.cfg.window {
                    break;
                }
                let dt = self.idle_step(&ctx);
                match self.poll_channel(false) {
                    Some(pkt) => self.deliver(Some(&mut ctx), pkt),
                    None => {
                        self.clock += dt;
                        self.stats.wait_s += dt;
                    }
                }
            }
        }
        let profile = self.machine.fabric.profile();
        self.clock += profile.send_overhead_s;
        self.stats.sends += 1;
        self.stats.bytes_sent += bytes as u64;
        self.obs_roll();
        if let Some(r) = &mut self.obs {
            r.on_send(dst, bytes);
        }
        let seq = ctx.tx[dst].next_seq;
        ctx.tx[dst].next_seq += 1;
        let edge = self.edge_seq;
        self.edge_seq += 1;
        ctx.tx[dst].unacked.push_back(crate::fault::Unacked {
            seq,
            tag,
            bytes,
            edge,
            data: data.clone_box(),
        });
        if ctx.tx[dst].deadline.is_infinite() {
            ctx.tx[dst].rto_s = ctx.cfg.rto0_s;
            ctx.tx[dst].retries = 0;
            ctx.tx[dst].deadline = self.clock + ctx.cfg.rto0_s;
        }
        let send_t = self.clock;
        let queued = self.transmit(&mut ctx, dst, tag, seq, edge, data, bytes);
        // The edge is recorded once, at the original send; retransmitted
        // copies reuse it and the receiver's record stays authoritative
        // for the arrival that actually mattered.
        let link = self.machine.fabric.link_class(self.rank as u32, dst as u32);
        if let Some(r) = self.obs.as_mut() {
            r.on_msg_send(send_t, dst as u32, edge, bytes as u64, queued, link);
        }
        self.fault = Some(ctx);
        self.check_liveness();
    }

    /// Put one data packet on the wire, applying the injection draws.
    /// Returns the virtual seconds the head queued on contended fabric
    /// resources (for the sender-side edge record).
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        ctx: &mut FaultCtx,
        dst: usize,
        tag: Tag,
        seq: u64,
        edge: u64,
        data: Box<dyn AnyPayload>,
        bytes: usize,
    ) -> f64 {
        let out = self
            .machine
            .fabric
            .transfer(self.rank as u32, dst as u32, bytes, self.clock);
        let arrival = out.arrival + self.draw_jitter();
        if !out.delivered() {
            // A dead switch port ate it; the retransmit timer recovers.
            self.stats.fault.drops += 1;
            return out.queued;
        }
        // Each injection draw is gated on its probability being nonzero,
        // so a plan that never injects a given fault consumes no RNG words
        // for it. This keeps the per-rank draw sequence a pure function of
        // the faults actually configured — the property the deterministic
        // replay harness relies on.
        if ctx.drop_p > 0.0 && ctx.rng.unit() < ctx.drop_p {
            self.stats.fault.drops += 1;
            return out.queued;
        }
        let corrupt = ctx.corrupt_p > 0.0 && ctx.rng.unit() < ctx.corrupt_p;
        if corrupt {
            self.stats.fault.corruptions += 1;
        }
        let dup = ctx.duplicate_p > 0.0 && ctx.rng.unit() < ctx.duplicate_p;
        let pkt = Packet {
            src: self.rank,
            tag,
            arrival,
            kind: WireKind::Data { seq },
            corrupt,
            edge,
            data,
        };
        if dup {
            self.stats.fault.duplicates += 1;
            self.push_wire(dst, pkt.clone_pkt());
        }
        if ctx.held[dst].is_none() && ctx.reorder_p > 0.0 && ctx.rng.unit() < ctx.reorder_p {
            // Park this packet; it goes out *after* the next one to this
            // destination (or when its release window expires), producing
            // a genuine channel-order inversion.
            self.stats.fault.reorders += 1;
            ctx.held[dst] = Some(crate::fault::HeldPacket {
                pkt,
                release_at: self.clock + 0.5 * ctx.cfg.rto0_s,
            });
        } else {
            self.push_wire(dst, pkt);
            if let Some(h) = ctx.held[dst].take() {
                self.push_wire(dst, h.pkt);
            }
        }
        out.queued
    }

    fn push_wire(&self, dst: usize, pkt: Packet) {
        // Counted before the push so the watchdog never reads low; a
        // frame to a dead NIC leaks its count, which can only delay a
        // deadlock report (the world is crashing anyway), never fake one.
        self.note_tx();
        // A crashed rank drops its receiver; frames to a dead NIC vanish.
        let _ = self.senders[dst].send(pkt);
    }

    /// Fire due retransmit timers, release expired reorder holds, and run
    /// the failure detector (heartbeat emission + suspicion sweep).
    fn service_transport(&mut self, ctx: &mut FaultCtx) {
        // Drain the channel before the health sweep: a retraction or a
        // fresh heartbeat already sitting in the queue must be able to
        // clear a suspicion before the sweep re-judges (and possibly
        // condemns on) stale liveness state.
        self.drain_channel(Some(ctx));
        self.service_health(ctx);
        for dst in 0..self.size {
            if ctx.held[dst]
                .as_ref()
                .is_some_and(|h| self.clock >= h.release_at)
            {
                let h = ctx.held[dst].take().expect("held packet");
                self.push_wire(dst, h.pkt);
            }
        }
        for dst in 0..self.size {
            if self.clock < ctx.tx[dst].deadline {
                continue;
            }
            let Some(head) = ctx.tx[dst].unacked.front() else {
                ctx.tx[dst].deadline = f64::INFINITY;
                continue;
            };
            if ctx.tx[dst].retries >= ctx.cfg.max_retries {
                // Peer unreachable after every backoff: give up, taking
                // the world down like an MPI job abort would.
                ctx.abort.store(true, Ordering::SeqCst);
                panic_any(RankCrash {
                    rank: self.rank,
                    at: self.clock,
                });
            }
            let (seq, tag, bytes, edge, data) = (
                head.seq,
                head.tag,
                head.bytes,
                head.edge,
                head.data.clone_box(),
            );
            ctx.tx[dst].retries += 1;
            let mut rto = (ctx.tx[dst].rto_s * ctx.cfg.backoff).min(ctx.cfg.rto_max_s);
            if ctx.cfg.backoff_jitter > 0.0 {
                // Jitter de-synchronizes many senders backing off against
                // one slow peer. The draw is gated on the knob so plans
                // that leave it at 0.0 keep their replay-critical
                // injection draw sequence unchanged.
                rto *= 1.0 + ctx.cfg.backoff_jitter * (2.0 * ctx.rng.unit() - 1.0);
                rto = rto.min(ctx.cfg.rto_max_s).max(ctx.cfg.rto0_s * 0.5);
            }
            ctx.tx[dst].rto_s = rto;
            ctx.tx[dst].deadline = self.clock + ctx.tx[dst].rto_s;
            self.stats.fault.rto_expiries += 1;
            self.stats.fault.retransmits += 1;
            self.clock += self.machine.fabric.profile().send_overhead_s;
            self.stats.bytes_sent += bytes as u64;
            if let Some(r) = &mut self.obs {
                r.on_send(dst, bytes);
            }
            self.transmit(ctx, dst, tag, seq, edge, data, bytes);
        }
    }

    /// Put one failure-detector control packet on the wire: best-effort
    /// (no sequence number, no retransmit copy), free of virtual-time
    /// charge, and — critically — free of injection RNG draws (control
    /// emission cadence is wall-racy; a draw here would shift the data
    /// packets' replay-critical draw sequence). Only the fabric itself
    /// (a dead switch port) can eat one.
    fn push_control(&mut self, dst: usize, kind: WireKind) {
        let out =
            self.machine
                .fabric
                .transfer(self.rank as u32, dst as u32, HEADER_BYTES, self.clock);
        if !out.delivered() {
            return;
        }
        self.push_wire(
            dst,
            Packet {
                src: self.rank,
                tag: 0,
                arrival: out.arrival,
                kind,
                corrupt: false,
                edge: NO_EDGE,
                data: Box::new(()),
            },
        );
    }

    /// Heartbeat emission + suspicion sweep; no-op unless the plan armed
    /// a [`crate::fault::HeartbeatConfig`].
    fn service_health(&mut self, ctx: &mut FaultCtx) {
        if ctx.hb.is_none() {
            return;
        }
        // Heartbeat broadcast. Intervals skipped inside a long compute
        // phase collapse into one beat: the silence already happened and
        // the peers have already judged it.
        let beat = {
            let hb = ctx.hb.as_mut().expect("checked above");
            if self.clock >= hb.next_hb {
                hb.next_hb = self.clock + hb.cfg.every_s;
                true
            } else {
                false
            }
        };
        if beat {
            self.stats.fault.heartbeats += 1;
            for dst in 0..self.size {
                if dst != self.rank {
                    self.push_control(dst, WireKind::Heartbeat);
                }
            }
        }
        // Suspicion sweep: a peer whose silence (measured on this rank's
        // own clock) crosses the phi threshold gets a suspicion vote
        // broadcast to the world; the vote is retracted by `note_alive`
        // the moment the peer is heard again. A freshly-raised suspicion
        // never condemns — it must age through the confirmation window
        // first, which the re-check below enforces on later sweeps.
        for p in 0..self.size {
            let raised = {
                let hb = ctx.hb.as_mut().expect("checked above");
                if p == self.rank || hb.suspected[p] {
                    false
                } else {
                    let floor = hb.ewma[p].max(hb.cfg.every_s);
                    if self.clock - hb.last_seen[p] > hb.cfg.suspect_after * floor {
                        hb.suspected[p] = true;
                        hb.suspect_since[p] = self.clock;
                        hb.votes[p][self.rank] = true;
                        true
                    } else {
                        false
                    }
                }
            };
            if raised {
                self.stats.fault.suspicions += 1;
                for dst in 0..self.size {
                    if dst != self.rank && dst != p {
                        self.push_control(
                            dst,
                            WireKind::Suspect {
                                peer: p as u32,
                                alive: false,
                            },
                        );
                    }
                }
            }
        }
        // Confirmation re-check: standing suspicions whose window has
        // elapsed unretracted are eligible for a quorum verdict even if
        // no new vote arrives (a truly dead peer sends nothing, so the
        // verdict must fire from the poll loop).
        for p in 0..self.size {
            let standing = ctx.hb.as_ref().expect("checked above").suspected[p];
            if standing && p != self.rank {
                self.maybe_condemn(ctx, p);
            }
        }
    }

    /// Record life from `src` (any packet kind counts). Liveness advances
    /// to `max(own clock, arrival)`: per-rank virtual clocks drift apart
    /// between synchronization points, so a busy peer's packets may carry
    /// stamps far in our past — hearing it at all is the fact that
    /// matters. Retracts a standing suspicion.
    fn note_alive(&mut self, ctx: &mut FaultCtx, src: usize, arrival: f64) {
        if src == self.rank {
            return;
        }
        let retract = {
            let Some(hb) = &mut ctx.hb else { return };
            let now = self.clock.max(arrival);
            let gap = (now - hb.last_seen[src]).max(0.0);
            hb.ewma[src] = 0.8 * hb.ewma[src] + 0.2 * gap;
            hb.last_seen[src] = hb.last_seen[src].max(now);
            if hb.suspected[src] {
                hb.suspected[src] = false;
                hb.suspect_since[src] = f64::INFINITY;
                hb.votes[src][self.rank] = false;
                true
            } else {
                false
            }
        };
        if retract {
            for dst in 0..self.size {
                if dst != self.rank && dst != src {
                    self.push_control(
                        dst,
                        WireKind::Suspect {
                            peer: src as u32,
                            alive: true,
                        },
                    );
                }
            }
        }
    }

    /// Ingest a peer's suspicion vote (or retraction) about `peer`.
    fn on_vote(&mut self, ctx: &mut FaultCtx, peer: usize, voter: usize, alive: bool) {
        {
            let Some(hb) = &mut ctx.hb else { return };
            if peer >= self.size || peer == self.rank {
                return;
            }
            hb.votes[peer][voter] = !alive;
        }
        if !alive {
            self.maybe_condemn(ctx, peer);
        }
    }

    /// Condemn `peer` if this rank's suspicion of it has aged through the
    /// confirmation window unretracted *and* a majority quorum of votes
    /// agrees. The verdict tears the world down naming the dead peer (not
    /// this rank), so a recovery harness knows exactly whose state to
    /// restore. Without the aging step, the transient all-suspect-all
    /// storm that follows any straggler's clock jump can line up a quorum
    /// faster than retractions propagate, split-braining the cluster into
    /// killing a live rank.
    fn maybe_condemn(&mut self, ctx: &mut FaultCtx, peer: usize) {
        let confirmed = {
            let Some(hb) = &mut ctx.hb else { return };
            if !hb.suspected[peer] {
                return;
            }
            let aged = self.clock >= hb.suspect_since[peer] + hb.cfg.confirm_for * hb.cfg.every_s;
            let votes = hb.votes[peer].iter().filter(|&&v| v).count();
            let quorum = (self.size - 1) / 2 + 1;
            #[cfg(any(test, feature = "sim-mutants"))]
            {
                (aged || hb.cfg.condemn_unconfirmed) && votes >= quorum
            }
            #[cfg(not(any(test, feature = "sim-mutants")))]
            {
                aged && votes >= quorum
            }
        };
        if confirmed {
            self.stats.fault.verdicts += 1;
            ctx.abort.store(true, Ordering::SeqCst);
            panic_any(RankCrash {
                rank: peer,
                at: self.clock,
            });
        }
    }

    /// Per-rank health weights for degradation-aware decomposition: 1.0
    /// for every rank on a fault-free world or when no failure detector
    /// is armed; a currently-suspected peer drops to 0.2 so the
    /// work-weighted decomposition sheds load off it. Suspicion state is
    /// wall-cadence-dependent — treat these as scheduling hints, not
    /// reproducible facts.
    pub fn peer_health(&self) -> Vec<f64> {
        match self.fault.as_ref().and_then(|c| c.hb.as_ref()) {
            None => vec![1.0; self.size],
            Some(hb) => (0..self.size)
                .map(|p| {
                    if p != self.rank && hb.suspected[p] {
                        0.2
                    } else {
                        1.0
                    }
                })
                .collect(),
        }
    }

    /// Transport-level processing of one packet off the channel.
    fn ingest(&mut self, ctx: &mut FaultCtx, pkt: Packet) {
        if ctx.hb.is_some() {
            // Any packet — data, ack, control, even a corrupt frame —
            // proves the sender's NIC was alive to emit it.
            self.note_alive(ctx, pkt.src, pkt.arrival);
        }
        match pkt.kind {
            WireKind::Raw => self.mailbox.push(pkt),
            WireKind::Heartbeat => {}
            WireKind::Suspect { peer, alive } => self.on_vote(ctx, peer as usize, pkt.src, alive),
            WireKind::Ack { upto } => {
                let tx = &mut ctx.tx[pkt.src];
                let mut progressed = false;
                while tx.unacked.front().is_some_and(|u| u.seq < upto) {
                    tx.unacked.pop_front();
                    progressed = true;
                }
                if progressed {
                    tx.retries = 0;
                    tx.rto_s = ctx.cfg.rto0_s;
                    tx.deadline = if tx.unacked.is_empty() {
                        f64::INFINITY
                    } else {
                        self.clock + tx.rto_s
                    };
                }
            }
            WireKind::Data { seq } => {
                if pkt.corrupt {
                    // Failed CRC: discard without acking; the sender's
                    // timeout retransmits a clean copy.
                    return;
                }
                let src = pkt.src;
                let expected = ctx.rx[src].next_expected;
                if seq < expected {
                    // Stale duplicate (injected, or a retransmit racing
                    // its own ack): drop it, but re-ack so the sender
                    // stops resending.
                    self.send_ack(ctx, src);
                } else if seq == expected {
                    ctx.rx[src].next_expected += 1;
                    self.mailbox.push(pkt);
                    loop {
                        let nxt = ctx.rx[src].next_expected;
                        match ctx.rx[src].reorder.remove(&nxt) {
                            Some(p) => {
                                ctx.rx[src].next_expected += 1;
                                self.mailbox.push(p);
                            }
                            None => break,
                        }
                    }
                    self.send_ack(ctx, src);
                } else {
                    // Future packet: hold until the gap fills; the ack is
                    // cumulative, telling the sender what we still need.
                    ctx.rx[src].reorder.insert(seq, pkt);
                    self.send_ack(ctx, src);
                }
            }
        }
    }

    /// Post-program transport drain: keep acking incoming retransmissions
    /// and resending our own unacked packets until *every* rank's
    /// retransmit queues are empty. Without this, a rank finishing early
    /// would take its unacked (and possibly dropped-on-the-wire) packets
    /// to the grave and its peers would wait forever.
    pub(crate) fn drain_transport(&mut self) {
        if self.fault.is_none() {
            return;
        }
        let size = self.size;
        let mut counted = false;
        loop {
            self.check_liveness();
            let mut ctx = self.fault.take().expect("fault ctx");
            self.service_transport(&mut ctx);
            self.drain_channel(Some(&mut ctx));
            let empty = ctx.transport_idle();
            let idle_dt = self.idle_step(&ctx);
            let drained = ctx.drained.clone();
            self.fault = Some(ctx);
            if empty && !counted {
                // Monotone: no new data is sent after the program ends,
                // so an emptied queue stays empty.
                counted = true;
                drained.fetch_add(1, Ordering::SeqCst);
            }
            if drained.load(Ordering::SeqCst) >= size {
                return;
            }
            // A drained rank waiting out its peers counts as parked for
            // the deadlock detector: if a peer is deadlocked mid-program
            // the drain would otherwise mask the all-blocked state.
            match self.poll_channel(empty) {
                Some(pkt) => self.deliver_unheld(pkt),
                None => self.clock += idle_dt,
            }
        }
    }

    /// Send a cumulative ack to `dst` (itself subject to loss — a lost ack
    /// is recovered by the duplicate-detection path above).
    fn send_ack(&mut self, ctx: &mut FaultCtx, dst: usize) {
        let upto = ctx.rx[dst].next_expected;
        self.clock += ctx.cfg.ack_overhead_s;
        let out =
            self.machine
                .fabric
                .transfer(self.rank as u32, dst as u32, HEADER_BYTES, self.clock);
        self.stats.fault.acks += 1;
        if !out.delivered() || (ctx.drop_p > 0.0 && ctx.rng.unit() < ctx.drop_p) {
            self.stats.fault.drops += 1;
            return;
        }
        self.push_wire(
            dst,
            Packet {
                src: self.rank,
                tag: 0,
                arrival: out.arrival,
                kind: WireKind::Ack { upto },
                corrupt: false,
                edge: NO_EDGE,
                data: Box::new(()),
            },
        );
    }
}

/// Run an `nranks`-way program on `machine`. Each rank executes `f` on its
/// own thread; the per-rank return values come back in rank order.
///
/// Panics in any rank propagate (the whole world is torn down).
pub fn run_with<T, F>(machine: Machine, nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let run = World::new(machine, nranks).run(f);
    run.outcome
        .expect_completed("a plain world cannot crash or stall")
}

/// Run on an ideal crossbar (unit tests, algorithm development).
pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    run_with(Machine::ideal(nranks as u32), nranks, f)
}

/// Like [`run_with`], but every rank records a virtual-time trace; the
/// per-rank traces come back merged into a [`WorldTrace`] alongside the
/// program's results.
pub fn run_observed<T, F>(machine: Machine, nranks: usize, f: F) -> (Vec<T>, WorldTrace)
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let run = World::new(machine, nranks).observe(true).run(f);
    (
        run.outcome
            .expect_completed("a plain world cannot crash or stall"),
        run.trace.expect("a completed observed world has a trace"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass_delivers_in_order() {
        let sums = run(4, |c| {
            let right = (c.rank() + 1) % c.size();
            c.send(right, 1, c.rank() as u64);
            let (src, v) = c.recv::<u64>(None, 1);
            assert_eq!(src, (c.rank() + c.size() - 1) % c.size());
            v
        });
        assert_eq!(sums, vec![3, 0, 1, 2]);
    }

    #[test]
    fn wildcard_and_specific_recv() {
        run(3, |c| {
            if c.rank() == 0 {
                let (_, a) = c.recv::<u64>(Some(2), 7);
                let (_, b) = c.recv::<u64>(Some(1), 7);
                assert_eq!((a, b), (22, 11));
            } else {
                c.send(0, 7, (c.rank() * 11) as u64);
            }
        });
    }

    #[test]
    fn tags_separate_message_streams() {
        run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, 50u64);
                c.send(1, 6, 60u64);
            } else {
                // Receive in the reverse order of sending.
                let b = c.recv_from::<u64>(0, 6);
                let a = c.recv_from::<u64>(0, 5);
                assert_eq!((a, b), (50, 60));
            }
        });
    }

    #[test]
    fn queued_same_tag_messages_keep_send_order() {
        // Force several same-(src, tag) packets to sit in the mailbox at
        // once: the sync message on tag 9 is sent last, so by FIFO the
        // three tag-8 packets are already queued when it is received.
        // They must then come back in send order (swap_remove in the
        // mailbox would replay them as 1, 3, 2).
        run(2, |c| {
            if c.rank() == 0 {
                for v in 1..=3u64 {
                    c.send(1, 8, v);
                }
                c.send(1, 9, 0u64);
            } else {
                let _ = c.recv_from::<u64>(0, 9);
                let got: Vec<u64> = (0..3).map(|_| c.recv_from::<u64>(0, 8)).collect();
                assert_eq!(got, vec![1, 2, 3]);
            }
        });
    }

    fn raw_pkt(src: usize, tag: Tag) -> Packet {
        Packet {
            src,
            tag,
            arrival: 0.0,
            kind: WireKind::Raw,
            corrupt: false,
            edge: NO_EDGE,
            data: Box::new(0u64),
        }
    }

    #[test]
    fn mailbox_arena_preserves_fifo_across_slot_reuse() {
        let mut mb = Mailbox::default();
        for tag in 0..4 {
            mb.push(raw_pkt(0, tag));
        }
        // An out-of-order take from the middle frees a slot...
        let idx = mb.position(|p| p.tag == 1).expect("tag 1 queued");
        assert_eq!(mb.remove(idx).tag, 1);
        // ...which the next push must recycle without disturbing the
        // arrival order of everything already queued.
        mb.push(raw_pkt(0, 4));
        let tags: Vec<Tag> = mb.iter().map(|p| p.tag).collect();
        assert_eq!(tags, vec![0, 2, 3, 4]);
        assert_eq!(mb.slots.len(), 4, "freed slot recycled, arena did not grow");
        for want in [0, 2, 3, 4] {
            assert_eq!(mb.remove(0).tag, want);
        }
        assert!(mb.iter().next().is_none());
    }

    #[test]
    fn virtual_clock_advances_with_compute_and_messages() {
        let times = run(2, |c| {
            c.compute(1.0e9, 0.0); // ~0.4 s at 50% of 5.06 Gflop/s
            if c.rank() == 0 {
                c.send(1, 1, vec![0.0f64; 1000]);
            } else {
                let _ = c.recv_from::<Vec<f64>>(0, 1);
            }
            c.time()
        });
        // Rank 1's clock includes rank 0's compute time (causality).
        assert!(times[1] >= times[0] * 0.99, "{times:?}");
        assert!(times[0] > 0.3, "{times:?}");
    }

    #[test]
    fn receive_cannot_precede_send_in_virtual_time() {
        let times = run(2, |c| {
            if c.rank() == 0 {
                c.compute(5.0e9, 0.0); // busy a while first
                c.send(1, 1, 1u64);
                c.time()
            } else {
                let _ = c.recv_from::<u64>(0, 1);
                c.time()
            }
        });
        assert!(
            times[1] > times[0],
            "receiver finished before sender: {times:?}"
        );
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        run(2, |c| {
            if c.rank() == 0 {
                assert!(c.try_recv::<u64>(None, 9).is_none());
                c.send(1, 3, 1u64);
            } else {
                // Spin until the message shows up.
                loop {
                    if let Some((src, v)) = c.try_recv::<u64>(None, 3) {
                        assert_eq!((src, v), (0, 1));
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
    }

    #[test]
    fn stats_count_traffic() {
        let stats = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![1u8; 100]);
            } else {
                let _ = c.recv_from::<Vec<u8>>(0, 1);
            }
            c.stats()
        });
        assert_eq!(stats[0].sends, 1);
        assert_eq!(stats[0].bytes_sent as usize, 100 + HEADER_BYTES);
        assert_eq!(stats[1].recvs, 1);
        // No faults injected: transport counters stay zero.
        assert_eq!(stats[0].fault, FaultStats::default());
        assert_eq!(stats[1].fault, FaultStats::default());
    }

    #[test]
    fn single_rank_world_works() {
        let out = run(1, |c| {
            assert_eq!(c.size(), 1);
            c.compute(1e6, 1e6);
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_type_panics() {
        run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, 1u64);
            } else {
                let _ = c.recv_from::<f64>(0, 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "too few ports")]
    fn too_many_ranks_for_machine_panics() {
        run_with(Machine::ideal(2), 4, |_c| ());
    }

    #[test]
    fn self_send_works() {
        run(1, |c| {
            c.send(0, 1, 7u64);
            assert_eq!(c.recv_from::<u64>(0, 1), 7);
        });
    }

    #[test]
    fn recv_timeout_matches_like_recv() {
        run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 4, 9u64);
            } else {
                let (src, v) = c
                    .recv_timeout::<u64>(Some(0), 4, Duration::from_secs(5))
                    .expect("message should arrive");
                assert_eq!((src, v), (0, 9));
            }
        });
    }

    #[test]
    fn recv_timeout_reports_mailbox_on_mismatch() {
        run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, 1u64); // tag 5, but the receiver wants tag 6
                                    // Keep the world alive until rank 1 has timed out.
                let _ = c.recv_from::<u64>(1, 99);
            } else {
                let err = c
                    .recv_timeout::<u64>(None, 6, Duration::from_millis(50))
                    .expect_err("tag 6 never sent");
                assert_eq!(err.rank, 1);
                assert_eq!(err.wanted_tag, 6);
                assert_eq!(err.mailbox.len(), 1);
                assert_eq!(err.mailbox[0].0, 0); // src
                assert_eq!(err.mailbox[0].1, 5); // the mismatched tag
                let msg = err.to_string();
                assert!(msg.contains("tag 6"), "{msg}");
                assert!(msg.contains("1 packet"), "{msg}");
                c.send(0, 99, 0u64);
            }
        });
    }
}
