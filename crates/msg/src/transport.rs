//! The reliable transport under a [`crate::World::faults`] world.
//!
//! Sequence numbers, cumulative acks, timeout/retransmit with exponential
//! backoff and a per-destination in-flight window underneath the
//! tag-matched interface of [`crate::Comm`], so application protocols
//! survive what a [`FaultPlan`] injects — and the injection draws
//! themselves, made where a data packet goes on the wire. `FaultCtx` owns
//! that state and every method that touches it, acts on its rank through
//! the borrowed `Port`, and never blocks: the endpoint's one wait loop
//! calls `service_transport` / `ingest` / `idle_step` each turn.

use crate::comm::{Packet, Port, Tag, WireKind, HEADER_BYTES};
use crate::fault::{FaultPlan, QuietCrash, RankCrash, RetransmitConfig, SplitMix64, WorldAborted};
use crate::health::HealthState;
use crate::payload::AnyPayload;
use std::collections::{BTreeMap, VecDeque};
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Consecutive empty channel polls before the event-driven idle skip may
/// warp the virtual clock to the next transport deadline. 64 polls of
/// the endpoint's 100 µs wall wait give a busy peer ~6.4 ms of wall time
/// to reply — slightly more than the default tuning's old creep allowed
/// (40 wakeups per RTO) — before a retransmit can fire early.
const IDLE_WARP_POLLS: u32 = 64;

/// A sent-but-unacknowledged message parked for possible retransmission.
struct Unacked {
    seq: u64,
    tag: Tag,
    bytes: usize,
    /// Happens-before edge id of the original send; retransmissions
    /// reuse it so the receiver's trace joins to one sender record.
    edge: u64,
    data: Box<dyn AnyPayload>,
}

/// Sender-side transport state toward one peer.
struct PeerTx {
    next_seq: u64,
    unacked: VecDeque<Unacked>,
    rto_s: f64,
    /// Virtual time the retransmit timer fires; ∞ when nothing is unacked.
    deadline: f64,
    retries: u32,
}

/// Receiver-side transport state from one peer.
struct PeerRx {
    next_expected: u64,
    /// Out-of-order packets parked until the sequence gap fills.
    reorder: BTreeMap<u64, Packet>,
}

/// A packet held back by reorder injection.
struct HeldPacket {
    pkt: Packet,
    release_at: f64,
}

/// Per-rank fault-injection and reliable-transport state.
pub(crate) struct FaultCtx {
    drop_p: f64,
    corrupt_p: f64,
    duplicate_p: f64,
    reorder_p: f64,
    pub cfg: RetransmitConfig,
    rng: SplitMix64,
    /// This rank's next scheduled death (absolute virtual time; ∞ if none).
    crash_at: f64,
    /// World-wide flag: some rank died, everyone stop.
    abort: Arc<AtomicBool>,
    /// Ranks whose retransmit queues have fully emptied after their
    /// program returned; a rank may only exit once all have (otherwise
    /// its peers' lost packets would never be retransmitted).
    pub drained: Arc<AtomicUsize>,
    tx: Vec<PeerTx>,
    rx: Vec<PeerRx>,
    held: Vec<Option<HeldPacket>>,
    /// Consecutive empty channel polls; resets on any packet pull. Gates
    /// the event-driven idle skip (see `idle_quantum`).
    idle_polls: u32,
    /// Heartbeat failure detector; `None` keeps every path unchanged.
    hb: Option<HealthState>,
}

impl FaultCtx {
    pub(crate) fn new(
        plan: &FaultPlan,
        rank: usize,
        size: usize,
        clock0: f64,
        abort: Arc<AtomicBool>,
        drained: Arc<AtomicUsize>,
    ) -> Self {
        let stream = plan
            .seed
            .wrapping_add((rank as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let crash_at = plan
            .crashes
            .iter()
            .filter(|c| c.rank == rank && c.at > clock0)
            .map(|c| c.at)
            .fold(f64::INFINITY, f64::min);
        FaultCtx {
            drop_p: plan.drop,
            corrupt_p: plan.corrupt,
            duplicate_p: plan.duplicate,
            reorder_p: plan.reorder,
            cfg: plan.retransmit,
            rng: SplitMix64(stream),
            crash_at,
            hb: plan
                .heartbeat
                .map(|cfg| HealthState::new(cfg, size, clock0, abort.clone())),
            abort,
            drained,
            tx: (0..size)
                .map(|_| PeerTx {
                    next_seq: 0,
                    unacked: VecDeque::new(),
                    rto_s: plan.retransmit.rto0_s,
                    deadline: f64::INFINITY,
                    retries: 0,
                })
                .collect(),
            rx: (0..size)
                .map(|_| PeerRx {
                    next_expected: 0,
                    reorder: BTreeMap::new(),
                })
                .collect(),
            held: (0..size).map(|_| None).collect(),
            idle_polls: 0,
        }
    }

    /// Nothing unacked and nothing held: this rank's transport makes no
    /// progress on its own, only a peer can wake it.
    pub(crate) fn transport_idle(&self) -> bool {
        self.tx.iter().all(|t| t.unacked.is_empty()) && self.held.iter().all(Option::is_none)
    }

    /// The in-flight window toward `dst` is full: a send must wait.
    pub(crate) fn window_full(&self, dst: usize) -> bool {
        self.tx[dst].unacked.len() >= self.cfg.window
    }

    /// Every rank's program has returned and its queues have emptied.
    pub(crate) fn world_drained(&self) -> bool {
        self.drained.load(Ordering::SeqCst) >= self.tx.len()
    }

    /// Panic (tearing this rank down) if its scheduled crash time has
    /// passed, or if another rank already died and the world is aborting.
    pub(crate) fn check_alive(&self, port: &Port) {
        let (rank, at) = (port.rank, port.clock);
        if at >= self.crash_at {
            if self.hb.is_some() {
                // With the failure detector armed the death is silent:
                // no abort broadcast, the survivors must notice.
                panic_any(QuietCrash { rank, at });
            }
            self.abort.store(true, Ordering::SeqCst);
            panic_any(RankCrash { rank, at });
        }
        if self.abort.load(Ordering::Relaxed) {
            panic_any(WorldAborted);
        }
    }

    /// Sequenced send with a retransmit copy kept until acknowledged; the
    /// endpoint has already charged the send overhead and waited for the
    /// window. Returns the virtual seconds the head queued on contended
    /// fabric resources.
    pub(crate) fn send_reliable(
        &mut self,
        port: &mut Port,
        dst: usize,
        tag: Tag,
        edge: u64,
        data: Box<dyn AnyPayload>,
        bytes: usize,
    ) -> f64 {
        let tx = &mut self.tx[dst];
        let seq = tx.next_seq;
        tx.next_seq += 1;
        tx.unacked.push_back(Unacked {
            seq,
            tag,
            bytes,
            edge,
            data: data.clone_box(),
        });
        if tx.deadline.is_infinite() {
            tx.rto_s = self.cfg.rto0_s;
            tx.retries = 0;
            tx.deadline = port.clock + self.cfg.rto0_s;
        }
        self.transmit(port, dst, tag, seq, edge, data, bytes)
    }

    /// Put one data packet on the wire, applying the injection draws.
    /// Returns the virtual seconds the head queued on contended fabric
    /// resources (for the sender-side edge record).
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        port: &mut Port,
        dst: usize,
        tag: Tag,
        seq: u64,
        edge: u64,
        data: Box<dyn AnyPayload>,
        bytes: usize,
    ) -> f64 {
        let out = port.transfer(dst, bytes);
        let arrival = out.arrival + port.draw_jitter();
        if !out.delivered() {
            // A dead switch port ate it; the retransmit timer recovers.
            port.stats.fault.drops += 1;
            return out.queued;
        }
        // Each injection draw is gated on its probability being nonzero,
        // so a plan that never injects a given fault consumes no RNG words
        // for it. This keeps the per-rank draw sequence a pure function of
        // the faults actually configured — the property the deterministic
        // replay harness relies on.
        if self.drop_p > 0.0 && self.rng.unit() < self.drop_p {
            port.stats.fault.drops += 1;
            return out.queued;
        }
        let corrupt = self.corrupt_p > 0.0 && self.rng.unit() < self.corrupt_p;
        if corrupt {
            port.stats.fault.corruptions += 1;
        }
        let dup = self.duplicate_p > 0.0 && self.rng.unit() < self.duplicate_p;
        let pkt = Packet {
            src: port.rank,
            tag,
            arrival,
            kind: WireKind::Data { seq },
            corrupt,
            edge,
            data,
        };
        if dup {
            port.stats.fault.duplicates += 1;
            port.push_wire(dst, pkt.clone_pkt());
        }
        if self.held[dst].is_none() && self.reorder_p > 0.0 && self.rng.unit() < self.reorder_p {
            // Park this packet; it goes out *after* the next one to this
            // destination (or when its release window expires), producing
            // a genuine channel-order inversion.
            port.stats.fault.reorders += 1;
            self.held[dst] = Some(HeldPacket {
                pkt,
                release_at: port.clock + 0.5 * self.cfg.rto0_s,
            });
        } else {
            port.push_wire(dst, pkt);
            if let Some(h) = self.held[dst].take() {
                port.push_wire(dst, h.pkt);
            }
        }
        out.queued
    }

    /// Run the failure detector (heartbeat emission + suspicion sweep),
    /// release expired reorder holds, and fire due retransmit timers.
    pub(crate) fn service_transport(&mut self, port: &mut Port) {
        if let Some(hb) = &mut self.hb {
            hb.service_health(port);
        }
        for (dst, held) in self.held.iter_mut().enumerate() {
            if let Some(h) = held.take_if(|h| port.clock >= h.release_at) {
                port.push_wire(dst, h.pkt);
            }
        }
        for dst in 0..port.size {
            let tx = &mut self.tx[dst];
            if port.clock < tx.deadline {
                continue;
            }
            let Some(head) = tx.unacked.front() else {
                tx.deadline = f64::INFINITY;
                continue;
            };
            if tx.retries >= self.cfg.max_retries {
                // Peer unreachable after every backoff: give up, taking
                // the world down like an MPI job abort would.
                self.abort.store(true, Ordering::SeqCst);
                panic_any(RankCrash {
                    rank: port.rank,
                    at: port.clock,
                });
            }
            let (seq, tag, bytes, edge, data) = (
                head.seq,
                head.tag,
                head.bytes,
                head.edge,
                head.data.clone_box(),
            );
            tx.retries += 1;
            let mut rto = (tx.rto_s * self.cfg.backoff).min(self.cfg.rto_max_s);
            if self.cfg.backoff_jitter > 0.0 {
                // Jitter de-synchronizes many senders backing off against
                // one slow peer. The draw is gated on the knob so plans
                // that leave it at 0.0 keep their replay-critical
                // injection draw sequence unchanged.
                rto *= 1.0 + self.cfg.backoff_jitter * (2.0 * self.rng.unit() - 1.0);
                rto = rto.min(self.cfg.rto_max_s).max(self.cfg.rto0_s * 0.5);
            }
            tx.rto_s = rto;
            tx.deadline = port.clock + rto;
            port.stats.fault.rto_expiries += 1;
            port.stats.fault.retransmits += 1;
            port.clock += port.machine.fabric.profile().send_overhead_s;
            port.stats.bytes_sent += bytes as u64;
            if let Some(r) = &mut port.obs {
                r.on_send(dst, bytes);
            }
            self.transmit(port, dst, tag, seq, edge, data, bytes);
        }
    }

    /// Transport-level processing of one packet off the channel.
    pub(crate) fn ingest(&mut self, port: &mut Port, pkt: Packet) {
        self.idle_polls = 0;
        if let Some(hb) = &mut self.hb {
            // Any packet — data, ack, control, even a corrupt frame —
            // proves the sender's NIC was alive to emit it.
            hb.note_alive(port, pkt.src, pkt.arrival);
            if let WireKind::Suspect { peer, alive } = pkt.kind {
                hb.on_vote(port, peer as usize, pkt.src, alive);
            }
        }
        match pkt.kind {
            WireKind::Raw => port.mailbox.push(pkt),
            WireKind::Heartbeat | WireKind::Suspect { .. } => {}
            WireKind::Ack { upto } => {
                let tx = &mut self.tx[pkt.src];
                let mut progressed = false;
                while tx.unacked.front().is_some_and(|u| u.seq < upto) {
                    tx.unacked.pop_front();
                    progressed = true;
                }
                if progressed {
                    tx.retries = 0;
                    tx.rto_s = self.cfg.rto0_s;
                    tx.deadline = if tx.unacked.is_empty() {
                        f64::INFINITY
                    } else {
                        port.clock + tx.rto_s
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
                let rx = &mut self.rx[src];
                if seq == rx.next_expected {
                    rx.next_expected += 1;
                    port.mailbox.push(pkt);
                    while let Some(p) = rx.reorder.remove(&rx.next_expected) {
                        rx.next_expected += 1;
                        port.mailbox.push(p);
                    }
                } else if seq > rx.next_expected {
                    // Future packet: hold until the gap fills; the ack is
                    // cumulative, telling the sender what we still need.
                    rx.reorder.insert(seq, pkt);
                }
                // A stale duplicate (injected, or a retransmit racing its
                // own ack) is dropped, but re-acked like the rest so the
                // sender stops resending.
                self.send_ack(port, src);
            }
        }
    }

    /// Send a cumulative ack to `dst` (itself subject to loss — a lost ack
    /// is recovered by the duplicate-detection path above).
    fn send_ack(&mut self, port: &mut Port, dst: usize) {
        let upto = self.rx[dst].next_expected;
        port.clock += self.cfg.ack_overhead_s;
        let out = port.transfer(dst, HEADER_BYTES);
        port.stats.fault.acks += 1;
        if !out.delivered() || (self.drop_p > 0.0 && self.rng.unit() < self.drop_p) {
            port.stats.fault.drops += 1;
            return;
        }
        port.push_wire(
            dst,
            Packet::control(port.rank, out.arrival, WireKind::Ack { upto }),
        );
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
    fn idle_quantum(&self, clock: f64) -> f64 {
        let poll = self.cfg.poll_s;
        if poll <= 0.0 || self.idle_polls < IDLE_WARP_POLLS {
            return poll;
        }
        let mut next = f64::INFINITY;
        for tx in &self.tx {
            if !tx.unacked.is_empty() {
                next = next.min(tx.deadline);
            }
        }
        for held in self.held.iter().flatten() {
            next = next.min(held.release_at);
        }
        if let Some(hb) = &self.hb {
            // The detector is a self-driven event source too: an idle
            // rank must keep its clock moving (in `every_s` steps) or a
            // dead peer's silence would never cross the phi threshold.
            next = next.min(hb.next_hb);
        }
        if !next.is_finite() {
            return poll;
        }
        next = next.min(self.crash_at);
        if next > clock + poll {
            next - clock
        } else {
            poll
        }
    }

    /// `idle_quantum` plus the hysteresis bookkeeping: call once per
    /// empty channel poll. A warp consumes the accumulated idle credit
    /// (the next warp needs a fresh run of empty polls); an ordinary
    /// quantum accrues one.
    pub(crate) fn idle_step(&mut self, clock: f64) -> f64 {
        let dt = self.idle_quantum(clock);
        if dt > self.cfg.poll_s {
            self.idle_polls = 0;
        } else {
            self.idle_polls = self.idle_polls.saturating_add(1);
        }
        dt
    }
}
