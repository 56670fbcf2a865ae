//! Ranks and point-to-point messaging: the endpoint.
//!
//! [`crate::World::run`] spawns one thread per rank; each thread gets a
//! [`Comm`] wired to the shared fabric. Sends are asynchronous (unbounded
//! channels), receives block with tag/source matching, and every
//! operation advances the rank's virtual clock per the machine model.
//! [`run`], [`run_with`] and [`run_observed`] are shorthands for the
//! plain world: no fault plan, no schedule.
//!
//! This file is the endpoint only: the virtual clock, the mailbox, tag
//! matching, the send prologue, spans — and `Comm::wait`, the **one**
//! loop in which a rank blocks (a receive, a send parked on a full
//! window and the post-program drain call it with different `ready`
//! closures). What is underneath sits in two optional fields, each
//! owning its state and its methods:
//!
//! * `fault` — the reliable transport ([`crate::transport`]) and, inside
//!   it, the failure detector ([`crate::health`]), on
//!   [`crate::World::faults`] worlds;
//! * `sched` — the adversarial match policy and liveness watchdogs
//!   ([`crate::sched`]), on [`crate::World::schedule`] worlds.
//!
//! Both act on the rank through its `Port` — the part of a [`Comm`] that
//! puts a packet on the wire and accounts for it — borrowed as one field
//! disjoint from them, so nothing is checked out and put back. A plain
//! world has neither, and then a waiting rank sleeps on its channel.

use crate::fault::SplitMix64;
use crate::machine::Machine;
use crate::payload::{AnyPayload, Payload};
use crate::replicated;
use crate::sched::{SchedCtx, SchedPlan, SchedShared, StallAbort, PROBE_S};
use crate::transport::FaultCtx;
use crate::world::World;
use netsim::TransferOutcome;
use obs::{RankTrace, Recorder, WorldTrace};
use std::collections::VecDeque;
use std::panic::panic_any;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Message tag. User tags should stay below [`Tag::MAX`]`/2`; the library
/// reserves the top bit for collectives.
pub type Tag = u64;

/// Envelope bytes charged per message on top of the payload.
pub const HEADER_BYTES: usize = 32;

/// Real time a polling rank blocks on its channel between transport
/// timer checks (retransmits must fire even when no message ever comes).
const POLL_WALL: Duration = Duration::from_micros(100);

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
    /// A header-only transport packet (ack, heartbeat, vote).
    pub(crate) fn control(src: usize, arrival: f64, kind: WireKind) -> Packet {
        Packet {
            src,
            tag: 0,
            arrival,
            kind,
            corrupt: false,
            edge: NO_EDGE,
            data: Box::new(()),
        }
    }

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
pub(crate) struct Mailbox {
    slots: Vec<Option<Packet>>,
    /// Slot ids in arrival order — the FIFO contract lives here.
    order: VecDeque<u32>,
    free: Vec<u32>,
    /// Packets ever pushed ([`Comm::arrivals`]).
    pushed: u64,
}

impl Mailbox {
    pub(crate) fn push(&mut self, pkt: Packet) {
        self.pushed += 1;
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
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Packet> + '_ {
        self.order
            .iter()
            .map(|&id| self.slots[id as usize].as_ref().expect("live slot"))
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

/// The part of a rank that puts a packet on the wire and accounts for it:
/// who it is, its virtual clock, the fabric, the peers' channels, the
/// mailbox, the counters and the recorder. The transport, the failure
/// detector and the scheduler act on a rank by borrowing this.
pub(crate) struct Port {
    pub rank: usize,
    pub size: usize,
    pub clock: f64,
    pub machine: Machine,
    senders: Vec<Sender<Packet>>,
    pub mailbox: Mailbox,
    pub stats: CommStats,
    /// Monotone happens-before edge counter (one per logical message,
    /// shared across destinations, so sends are seq-sorted by time).
    edge_seq: u64,
    /// The scheduled world's watchdog state (its in-flight packet count
    /// is kept here); `None` without a schedule.
    watch: Option<Arc<SchedShared>>,
    /// Seeded delivery jitter: each data packet's arrival gains a delay
    /// in `[0, jitter_s)`; zero without a schedule that asks for it.
    jitter_s: f64,
    jitter_rng: SplitMix64,
    /// Virtual-time recorder; `None` (the default) records nothing.
    pub obs: Option<Box<Recorder>>,
    /// Snapshot of `stats` at the last fold into the recorder's registry
    /// (timeline window boundaries and trace extraction fold deltas, so
    /// transport counters land in the window where they accumulated).
    obs_folded: CommStats,
}

impl Port {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        clock0: f64,
        machine: Machine,
        senders: Vec<Sender<Packet>>,
        schedule: Option<(&SchedPlan, &Arc<SchedShared>)>,
    ) -> Port {
        Port {
            rank,
            size,
            clock: clock0,
            machine,
            senders,
            mailbox: Mailbox::default(),
            stats: CommStats::default(),
            edge_seq: 0,
            watch: schedule.map(|(_, shared)| shared.clone()),
            jitter_s: schedule.map_or(0.0, |(plan, _)| plan.jitter_s),
            jitter_rng: SplitMix64(schedule.map_or(0, |(plan, _)| plan.jitter_seed(rank))),
            obs: None,
            obs_folded: CommStats::default(),
        }
    }

    /// Route `bytes` to `dst` through the fabric, departing now.
    pub(crate) fn transfer(&self, dst: usize, bytes: usize) -> TransferOutcome {
        let (src, dst) = (self.rank as u32, dst as u32);
        self.machine.fabric.transfer(src, dst, bytes, self.clock)
    }

    /// Seeded extra delivery delay in `[0, jitter_s)`; zero (and no RNG
    /// draw) when jitter is off or no scheduler is armed.
    #[inline]
    pub(crate) fn draw_jitter(&mut self) -> f64 {
        if self.jitter_s > 0.0 {
            self.jitter_rng.unit() * self.jitter_s
        } else {
            0.0
        }
    }

    /// Push one packet onto `dst`'s channel; `false` when nobody is
    /// listening (a crashed rank drops its receiver, and frames to a dead
    /// NIC vanish). Counted in flight before the push so the watchdog
    /// never reads low; a frame to a dead NIC leaks its count, which can
    /// only delay a deadlock report (the world is crashing anyway), never
    /// fake one.
    pub(crate) fn push_wire(&self, dst: usize, pkt: Packet) -> bool {
        if let Some(w) = &self.watch {
            w.inflight.fetch_add(1, Ordering::SeqCst);
        }
        self.senders[dst].send(pkt).is_ok()
    }

    /// Put one failure-detector control packet on the wire: best-effort
    /// (no sequence number, no retransmit copy), free of virtual-time
    /// charge, and — critically — free of injection RNG draws (control
    /// emission cadence is wall-racy; a draw here would shift the data
    /// packets' replay-critical draw sequence). Only the fabric itself
    /// (a dead switch port) can eat one.
    pub(crate) fn push_control(&self, dst: usize, kind: WireKind) {
        let out = self.transfer(dst, HEADER_BYTES);
        if out.delivered() {
            self.push_wire(dst, Packet::control(self.rank, out.arrival, kind));
        }
    }

    /// The plain send: one best-effort packet, no copy kept. Returns the
    /// virtual seconds its head queued on contended fabric resources.
    fn send_raw(
        &mut self,
        dst: usize,
        tag: Tag,
        edge: u64,
        data: Box<dyn AnyPayload>,
        bytes: usize,
    ) -> f64 {
        let out = self.transfer(dst, bytes);
        let pkt = Packet {
            src: self.rank,
            tag,
            arrival: out.arrival + self.draw_jitter(),
            kind: WireKind::Raw,
            corrupt: false,
            edge,
            data,
        };
        if !self.push_wire(dst, pkt) {
            // During a stall teardown a peer legitimately disappears; bow
            // out quietly so the watchdog's verdict (not this send) names
            // the failure. Otherwise the receiver thread can only have
            // hung up on panic; propagate.
            if matches!(&self.watch, Some(w) if w.stalled.load(Ordering::SeqCst)) {
                panic_any(StallAbort);
            }
            panic!("rank {dst} hung up");
        }
        out.queued
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
}

/// One rank's endpoint: point-to-point messaging, virtual clock, and (via
/// the `collectives` module) collective operations.
pub struct Comm {
    port: Port,
    rx: Receiver<Packet>,
    pub(crate) coll_seq: u64,
    /// The world's evaluate-once table and this rank's position in its
    /// call sequence ([`Comm::replicated`]).
    pub(crate) once_table: Arc<replicated::Table>,
    pub(crate) once_seq: u64,
    /// Reliable transport + fault injection; `None` on fault-free worlds.
    fault: Option<Box<FaultCtx>>,
    /// Adversarial delivery scheduler (`crate::sched`); `None` — the
    /// default — keeps every path byte-identical to an unscheduled world.
    sched: Option<Box<SchedCtx>>,
}

impl Comm {
    pub(crate) fn construct(
        port: Port,
        rx: Receiver<Packet>,
        once_table: Arc<replicated::Table>,
        fault: Option<Box<FaultCtx>>,
        sched: Option<Box<SchedCtx>>,
    ) -> Comm {
        Comm {
            port,
            rx,
            coll_seq: 0,
            once_table,
            once_seq: 0,
            fault,
            sched,
        }
    }

    /// Hand one packet pulled off the channel to the reliable transport
    /// or, on fault-free worlds, straight to the mailbox.
    #[inline]
    fn deliver(&mut self, pkt: Packet) {
        if let Some(s) = &self.sched {
            s.shared.inflight.fetch_sub(1, Ordering::SeqCst);
        }
        match self.fault.as_deref_mut() {
            Some(t) => t.ingest(&mut self.port, pkt),
            None => self.port.mailbox.push(pkt),
        }
    }

    /// Deliver everything already sitting in the channel, without
    /// blocking, then let the transport's timers and the failure detector
    /// run. The drain comes first: a retraction or a fresh heartbeat
    /// already in the queue must be able to clear a suspicion before the
    /// health sweep re-judges (and possibly condemns on) stale liveness
    /// state.
    fn pump(&mut self) {
        while let Ok(pkt) = self.rx.try_recv() {
            self.deliver(pkt);
        }
        if let Some(t) = self.fault.as_deref_mut() {
            t.service_transport(&mut self.port);
        }
    }

    /// Block for the next packet; how is chosen from what is underneath.
    /// With no transport and no scheduler nothing but a packet can change
    /// what the rank is waiting for, so it sleeps on its channel — no
    /// polling, no CPU. Otherwise wait up to one `POLL_WALL`, so timers
    /// and watchdogs keep running; with `park` set on a scheduled world
    /// the rank counts as parked for the deadlock detector meanwhile, and
    /// a timeout runs the detector's check.
    fn poll_channel(&self, park: bool) -> Option<Packet> {
        if self.fault.is_none() && self.sched.is_none() {
            return Some(self.rx.recv().expect("world disconnected"));
        }
        let parked = self.sched.as_ref().filter(|_| park).map(|s| &*s.shared);
        if let Some(shared) = parked {
            shared.parked.fetch_add(1, Ordering::SeqCst);
        }
        let polled = self.rx.recv_timeout(POLL_WALL);
        if let Some(shared) = parked {
            if matches!(polled, Err(RecvTimeoutError::Timeout)) {
                // Run the deadlock check while this rank still counts as
                // parked, or the all-parked state is unreachable. Every
                // rank ends up parked in the transport drain at normal
                // termination: a fully drained world is finishing, not
                // stuck.
                let finishing = self.fault.as_ref().is_some_and(|t| t.world_drained());
                shared.check_deadlock(&self.port, finishing);
            }
            shared.parked.fetch_sub(1, Ordering::SeqCst);
        }
        match polled {
            Ok(pkt) => Some(pkt),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => panic!("world disconnected"),
        }
    }

    /// Panic (tearing this rank down) if its scheduled crash time has
    /// passed, if another rank already died and the world is aborting, or
    /// if a schedule watchdog fired. A no-op on plain worlds.
    fn check_liveness(&mut self) {
        if let Some(t) = &self.fault {
            t.check_alive(&self.port);
        }
        if let Some(s) = &self.sched {
            s.check_budget(&self.port);
        }
    }

    /// The one place a rank blocks: loop until `ready` yields a value.
    /// Each turn checks liveness, ingests what has arrived and runs the
    /// transport's timers, asks `ready`, then blocks for a packet the way
    /// `poll_channel` chooses; an empty poll charges the transport's idle
    /// quantum, so virtual time moves and ack timeouts can expire while
    /// the rank sits here (jumping straight to the next timer when one is
    /// pending). A blocking receive waits here for a match, a reliable
    /// send for its window, and an event loop with nothing to do for any
    /// new packet at all ([`Comm::await_arrival`]).
    ///
    /// `park` says the wait may count as parked for the deadlock
    /// detector. Even then a rank with unacked or held packets does not:
    /// it will make progress on its own as the idle charge advances its
    /// clock, so only a transport-idle rank is truly blocked.
    ///
    /// This is the function a virtual-time executor replaces.
    fn wait<R>(&mut self, park: bool, mut ready: impl FnMut(&mut Comm) -> Option<R>) -> R {
        loop {
            self.check_liveness();
            self.pump();
            if let Some(r) = ready(self) {
                return r;
            }
            let idle = self.fault.as_ref().is_none_or(|t| t.transport_idle());
            match self.poll_channel(park && idle) {
                Some(pkt) => self.deliver(pkt),
                None => {
                    if let Some(t) = self.fault.as_deref_mut() {
                        let dt = t.idle_step(self.port.clock);
                        self.port.clock += dt;
                        self.port.stats.wait_s += dt;
                    }
                }
            }
        }
    }

    pub fn rank(&self) -> usize {
        self.port.rank
    }

    pub fn size(&self) -> usize {
        self.port.size
    }

    /// This rank's virtual clock, seconds since the program started.
    pub fn time(&self) -> f64 {
        self.port.clock
    }

    pub fn stats(&self) -> CommStats {
        self.port.stats
    }

    // --- observability ---------------------------------------------------

    /// Attach a fresh recorder; from here on sends, receives, modeled
    /// compute, collectives, and explicit spans are traced in virtual
    /// time. Idempotent installs would lose history, so this asserts
    /// that no recorder is present.
    pub fn install_recorder(&mut self) {
        assert!(self.port.obs.is_none(), "recorder already installed");
        let mut r = Recorder::new(self.port.rank, self.port.size);
        r.start_at(self.port.clock);
        self.port.obs = Some(Box::new(r));
    }

    /// Arm the recorder's time-resolved telemetry plane (see
    /// `obs::timeline`): slice this rank's virtual timeline into
    /// `window_s`-wide windows carrying counter deltas, per-link-class
    /// wire traffic, phase occupancy, and histogram window deltas.
    /// No-op without a recorder, so worlds can call it unconditionally.
    pub fn enable_timeline(&mut self, window_s: f64) {
        if let Some(r) = &mut self.port.obs {
            r.enable_timeline(window_s);
        }
    }

    /// The recorder, with any timeline windows the clock has passed
    /// sealed first. `None` without a recorder.
    fn recorder(&mut self) -> Option<&mut Recorder> {
        self.port.obs_roll();
        self.port.obs.as_deref_mut()
    }

    /// Open a span at the current virtual time. No-op without a recorder.
    pub fn span_enter(&mut self, name: &'static str) {
        let t = self.port.clock;
        if let Some(r) = self.recorder() {
            r.enter(t, name);
        }
    }

    /// Close the innermost open span (whose name must match).
    pub fn span_exit(&mut self, name: &'static str) {
        let t = self.port.clock;
        if let Some(r) = self.recorder() {
            r.exit(t, name);
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
        if let Some(r) = self.recorder() {
            r.metrics.add(name, delta);
        }
    }

    /// Record a histogram observation on the recorder (no-op when absent).
    pub fn obs_observe(&mut self, name: &'static str, value: f64) {
        if let Some(r) = self.recorder() {
            r.metrics.observe(name, value);
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
        let mut r = self.port.obs.take()?;
        let s = self.port.stats;
        Port::fold_stats_into(&mut r, &s, &self.port.obs_folded);
        self.port.obs_folded = s;
        Some(r.finish(self.port.clock))
    }

    /// Advance the clock by a modeled computation phase: `flops` floating
    /// point operations touching `bytes` of DRAM traffic, at the machine's
    /// default CPU efficiency.
    pub fn compute(&mut self, flops: f64, bytes: f64) {
        let eff = self.port.machine.default_cpu_eff;
        self.compute_eff(flops, bytes, eff);
    }

    /// Like [`Comm::compute`] with an explicit fraction-of-peak.
    pub fn compute_eff(&mut self, flops: f64, bytes: f64, cpu_eff: f64) {
        let port = &mut self.port;
        let dt = port.machine.node.time(flops, bytes, cpu_eff);
        port.clock += dt;
        port.stats.compute_s += dt;
        port.obs_roll();
        if let Some(r) = &mut port.obs {
            r.on_compute(flops, port.machine.node.occupancy(flops, bytes, cpu_eff));
        }
        self.check_liveness();
    }

    /// Advance the clock by a literal duration (e.g. modeled disk I/O).
    pub fn elapse(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot elapse negative time");
        self.port.clock += seconds;
        self.port.obs_roll();
        self.check_liveness();
    }

    /// Reliable-send prologue: run the transport, then honour its
    /// backpressure. Every packet launched at a peer that isn't acking
    /// is a guaranteed future retransmission, so an unbounded burst into
    /// an outage turns into a retransmit storm once the link heals. Wait
    /// until the window opens — still ingesting (so acks, votes and
    /// heartbeats keep flowing; two mutually-blocked senders ack each
    /// other's data from the wait and both windows drain) and still
    /// servicing timers (so the head-of-line packet keeps probing the
    /// peer). Never counted as parked: the head-of-line timer is pending.
    fn await_window(&mut self, dst: usize) {
        let mut stalled = false;
        self.wait(false, |c| {
            let full = c.fault.as_ref().is_some_and(|t| t.window_full(dst));
            if full && !stalled {
                stalled = true;
                c.port.stats.fault.window_stalls += 1;
            }
            (!full).then_some(())
        });
    }

    /// Send `value` to `dst` with `tag`. Blocks only on a reliable
    /// transport whose in-flight window toward `dst` is full.
    pub fn send<T: Payload>(&mut self, dst: usize, tag: Tag, value: T) {
        let size = self.port.size;
        assert!(dst < size, "send to rank {dst} of {size}");
        let bytes = value.wire_bytes() + HEADER_BYTES;
        if self.fault.is_some() {
            self.await_window(dst);
        }
        let port = &mut self.port;
        port.clock += port.machine.fabric.profile().send_overhead_s;
        port.stats.sends += 1;
        port.stats.bytes_sent += bytes as u64;
        let edge = port.edge_seq;
        port.edge_seq += 1;
        port.obs_roll();
        if let Some(r) = &mut port.obs {
            r.on_send(dst, bytes);
        }
        let queued = match self.fault.as_deref_mut() {
            Some(t) => t.send_reliable(port, dst, tag, edge, Box::new(value), bytes),
            None => port.send_raw(dst, tag, edge, Box::new(value), bytes),
        };
        // The edge is recorded once, at the original send; retransmitted
        // copies reuse it and the receiver's record stays authoritative
        // for the arrival that actually mattered.
        if let Some(r) = &mut port.obs {
            let link = port.machine.fabric.link_class(port.rank as u32, dst as u32);
            r.on_msg_send(port.clock, dst as u32, edge, bytes as u64, queued, link);
        }
        if self.fault.is_some() {
            self.check_liveness();
        }
    }

    /// Tag matching: take the first queued packet matching `(src, tag)`.
    /// A wildcard receive on a scheduled world asks the scheduler which
    /// source's head-of-line packet to take instead
    /// ([`SchedCtx::pick`]).
    fn take_from_mailbox(&mut self, src: Option<usize>, tag: Tag) -> Option<Packet> {
        let mailbox = &mut self.port.mailbox;
        let pos = match (src, self.sched.as_deref_mut()) {
            (None, Some(sched)) => sched.pick(mailbox, tag)?,
            _ => mailbox
                .iter()
                .position(|p| p.tag == tag && src.is_none_or(|s| p.src == s))?,
        };
        Some(mailbox.remove(pos))
    }

    fn accept<T: Payload>(&mut self, pkt: Packet) -> (usize, T) {
        let profile = self.port.machine.fabric.profile();
        let ready = self.port.clock + profile.recv_overhead_s;
        let wait = (pkt.arrival - ready).max(0.0);
        self.port.stats.wait_s += wait;
        self.port.clock = ready + wait;
        self.port.stats.recvs += 1;
        let now = self.port.clock;
        if let Some(r) = self.recorder() {
            r.on_wait(wait);
            if pkt.edge != NO_EDGE {
                r.on_msg_recv(pkt.src as u32, pkt.edge, pkt.arrival, now, wait);
            }
        }
        let (src, tag) = (pkt.src, pkt.tag);
        let value = *pkt.data.into_any().downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {tag} from rank {src}",
                self.port.rank
            )
        });
        (src, value)
    }

    /// A receive from a rank that does not exist can never match, and on
    /// a plain world would block forever (the rank holds its own sender,
    /// so its channel never disconnects).
    fn assert_src(&self, src: Option<usize>) {
        let size = self.port.size;
        if let Some(s) = src {
            assert!(s < size, "recv from rank {s} of {size}");
        }
    }

    /// Blocking receive matching `(src, tag)`; `src = None` is a wildcard.
    /// Returns the actual source and the value.
    pub fn recv<T: Payload>(&mut self, src: Option<usize>, tag: Tag) -> (usize, T) {
        self.assert_src(src);
        let pkt = self.wait(true, |c| c.take_from_mailbox(src, tag));
        self.accept(pkt)
    }

    /// Non-blocking receive. Drains the channel into the mailbox, then
    /// looks for a match.
    pub fn try_recv<T: Payload>(&mut self, src: Option<usize>, tag: Tag) -> Option<(usize, T)> {
        self.assert_src(src);
        if self.fault.is_some() {
            self.check_liveness();
        }
        self.pump();
        if let Some(pkt) = self.take_from_mailbox(src, tag) {
            return Some(self.accept(pkt));
        }
        if let Some(t) = &self.fault {
            // Probing the NIC is not free; this also lets ack timeouts
            // expire inside try_recv-only spin loops.
            self.port.clock += t.cfg.probe_s;
        } else if let Some(s) = &self.sched {
            // Scheduled worlds charge an empty probe so fault-free spin
            // loops advance toward the liveness budget instead of
            // livelocking at a frozen virtual time.
            self.port.clock += PROBE_S;
            s.check_budget(&self.port);
        }
        None
    }

    /// Drain the channel into the mailbox and return how many packets the
    /// mailbox has ever taken in: the mark [`Comm::await_arrival`] waits
    /// past.
    pub fn arrivals(&mut self) -> u64 {
        self.pump();
        self.port.mailbox.pushed
    }

    /// Block until a packet newer than the mark `seen` (an earlier
    /// [`Comm::arrivals`]) is in the mailbox, whatever its tag; return at
    /// once if one already is. For an event loop that has run out of
    /// work: take the mark at the top of a turn, before the `try_recv`s
    /// that serve it, and a packet those pumped in but left unmatched
    /// cannot be slept past.
    pub fn await_arrival(&mut self, seen: u64) {
        self.wait(true, |c| (c.port.mailbox.pushed > seen).then_some(()));
    }

    /// Convenience: receive from a specific rank.
    pub fn recv_from<T: Payload>(&mut self, src: usize, tag: Tag) -> T {
        self.recv::<T>(Some(src), tag).1
    }

    /// The program has returned. A fault-free rank just says so to the
    /// deadlock detector. Under a transport the rank stays at its NIC,
    /// acking incoming retransmissions and resending its own unacked
    /// packets until *every* rank's retransmit queues are empty — one
    /// finishing early would take its unacked (possibly dropped) packets
    /// to the grave and its peers would wait forever. It counts as
    /// parked there, not retired (both would double-count it), so the
    /// drain cannot mask a peer deadlocked mid-program.
    pub(crate) fn retire(&mut self) {
        if self.fault.is_none() {
            if let Some(s) = &self.sched {
                s.shared.retired.fetch_add(1, Ordering::SeqCst);
            }
            return;
        }
        let mut counted = false;
        self.wait(true, |c| {
            let t = c.fault.as_ref()?;
            if t.transport_idle() && !counted {
                // Monotone: no new data is sent after the program ends,
                // so an emptied queue stays empty.
                counted = true;
                t.drained.fetch_add(1, Ordering::SeqCst);
            }
            t.world_drained().then_some(())
        });
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
pub(crate) mod tests {
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
        let idx = mb.iter().position(|p| p.tag == 1).expect("tag 1 queued");
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
    fn await_arrival_returns_for_a_packet_another_tags_probe_pumped_in() {
        // The lost wakeup: rank 0 takes its mark, then a `try_recv` for
        // tag 9 pumps in rank 1's tag-5 packet and leaves it unmatched.
        // That packet is newer than the mark, so the wait must return at
        // once; on a scheduled world a wait that sleeps past it is a
        // reported deadlock rather than a hung test.
        let plan = SchedPlan::new(1);
        let run = World::new(Machine::ideal(2), 2).schedule(&plan).run(|c| {
            if c.rank() == 1 {
                c.recv_from::<()>(0, 1);
                c.send(0, 5, 7u64);
                return c.recv_from::<u64>(0, 2);
            }
            let seen = c.arrivals();
            c.send(1, 1, ());
            while c.port.mailbox.pushed == seen {
                assert!(c.try_recv::<u64>(None, 9).is_none());
            }
            c.await_arrival(seen);
            c.send(1, 2, 0u64);
            c.recv_from::<u64>(1, 5)
        });
        assert_eq!(run.outcome.expect_completed("lost wakeup"), vec![7, 0]);
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
    #[should_panic(expected = "recv from rank 2 of 2")]
    fn recv_from_a_rank_outside_the_world_panics() {
        // On a plain world this used to block forever: the rank holds
        // its own sender, so its channel never disconnects.
        run(2, |c| c.recv_from::<u64>(2, 1));
    }

    #[test]
    #[should_panic(expected = "recv from rank 7 of 2")]
    fn try_recv_from_a_rank_outside_the_world_panics() {
        run(2, |c| c.try_recv::<u64>(Some(7), 1).is_some());
    }

    /// On-CPU seconds of this thread (`CLOCK_THREAD_CPUTIME_ID`).
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub(crate) fn thread_cpu_s() -> f64 {
        /// `struct timespec` of 64-bit Linux.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `struct timespec` through the
        // pointer and keeps nothing; `ts` is a live, exclusively borrowed
        // value of exactly that layout on the targets this is compiled for.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }

    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn plain_world_recv_sleeps_instead_of_polling() {
        // Rank 1 starts its clocks, tells rank 0 to sit out 150 ms of wall
        // time, and blocks in `recv`. A plain world has nothing to poll
        // for, so the blocked thread must be asleep on its channel: a
        // 100 µs poll loop would burn ~1500 wakeups here.
        let (wall_s, cpu_s) = run(2, |c| {
            if c.rank() == 0 {
                c.recv_from::<()>(1, 1);
                std::thread::sleep(Duration::from_millis(150));
                c.send(1, 2, 7u64);
                return (0.0, 0.0);
            }
            let (wall0, cpu0) = (std::time::Instant::now(), thread_cpu_s());
            c.send(0, 1, ());
            assert_eq!(c.recv_from::<u64>(0, 2), 7);
            (wall0.elapsed().as_secs_f64(), thread_cpu_s() - cpu0)
        })[1];
        assert!(wall_s >= 0.150, "blocked only {wall_s} s");
        assert!(cpu_s < 5.0e-3, "blocked recv burned {cpu_s} s of CPU");
    }

    #[test]
    fn self_send_works() {
        run(1, |c| {
            c.send(0, 1, 7u64);
            assert_eq!(c.recv_from::<u64>(0, 1), 7);
        });
    }
}
