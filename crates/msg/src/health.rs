//! The heartbeat failure detector under the reliable transport.
//!
//! Armed when a [`crate::fault::FaultPlan`] carries a
//! [`HeartbeatConfig`], which documents the protocol. `HealthState` owns
//! the per-peer liveness state; the transport calls `service_health` each
//! turn of the endpoint's wait loop and `note_alive` / `on_vote` as
//! packets are ingested, lending it the rank's `Port`.

use crate::comm::{Port, WireKind};
use crate::fault::{HeartbeatConfig, RankCrash};
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Failure-detector state.
///
/// All times are this rank's *own* virtual clock. Per-rank clocks drift
/// apart between synchronization points, so a peer's packet can carry an
/// arrival stamp far in this rank's past (the peer's clock lags) — which
/// is why liveness is recorded as `max(own clock, arrival)` at ingest
/// time: silence only accrues while genuinely hearing nothing, never
/// because a busy-but-alive peer's timeline runs behind ours.
pub(crate) struct HealthState {
    cfg: HeartbeatConfig,
    /// Virtual time of the next heartbeat broadcast.
    pub next_hb: f64,
    /// Per-peer last time we heard *anything* (data, ack, heartbeat, or
    /// vote).
    last_seen: Vec<f64>,
    /// Per-peer smoothed inter-arrival gap (the phi-accrual mean).
    ewma: Vec<f64>,
    /// Peers this rank currently suspects (never itself).
    pub suspected: Vec<bool>,
    /// When each standing suspicion was raised (∞ when not suspected);
    /// a verdict requires the suspicion to have aged through the
    /// confirmation window unretracted.
    suspect_since: Vec<f64>,
    /// `votes[peer][voter]`: ranks currently voting `peer` dead (this
    /// rank's own suspicion counts as its vote).
    votes: Vec<Vec<bool>>,
    /// World-wide flag a verdict raises: some rank died, everyone stop.
    abort: Arc<AtomicBool>,
}

impl HealthState {
    pub(crate) fn new(
        cfg: HeartbeatConfig,
        size: usize,
        clock0: f64,
        abort: Arc<AtomicBool>,
    ) -> Self {
        HealthState {
            cfg,
            next_hb: clock0 + cfg.every_s,
            last_seen: vec![clock0; size],
            ewma: vec![cfg.every_s; size],
            suspected: vec![false; size],
            suspect_since: vec![f64::INFINITY; size],
            votes: vec![vec![false; size]; size],
            abort,
        }
    }

    /// Send `kind` to every rank but this one and `skip`.
    fn broadcast(port: &Port, skip: usize, kind: WireKind) {
        for dst in (0..port.size).filter(|&d| d != port.rank && d != skip) {
            port.push_control(dst, kind);
        }
    }

    /// Heartbeat emission + suspicion sweep.
    pub(crate) fn service_health(&mut self, port: &mut Port) {
        let (rank, now) = (port.rank, port.clock);
        // Heartbeat broadcast. Intervals skipped inside a long compute
        // phase collapse into one beat: the silence already happened and
        // the peers have already judged it.
        if now >= self.next_hb {
            self.next_hb = now + self.cfg.every_s;
            port.stats.fault.heartbeats += 1;
            Self::broadcast(port, rank, WireKind::Heartbeat);
        }
        // Suspicion sweep: a peer whose silence (measured on this rank's
        // own clock) crosses the phi threshold gets a suspicion vote
        // broadcast to the world; the vote is retracted by `note_alive`
        // the moment the peer is heard again. A freshly-raised suspicion
        // never condemns — it must age through the confirmation window
        // first, which the re-check below enforces on later sweeps.
        for p in (0..port.size).filter(|&p| p != rank) {
            let floor = self.ewma[p].max(self.cfg.every_s);
            if !self.suspected[p] && now - self.last_seen[p] > self.cfg.suspect_after * floor {
                self.suspected[p] = true;
                self.suspect_since[p] = now;
                self.votes[p][rank] = true;
                port.stats.fault.suspicions += 1;
                let peer = p as u32;
                Self::broadcast(port, p, WireKind::Suspect { peer, alive: false });
            }
        }
        // Confirmation re-check: standing suspicions whose window has
        // elapsed unretracted are eligible for a quorum verdict even if
        // no new vote arrives (a truly dead peer sends nothing, so the
        // verdict must fire from the poll loop).
        for p in (0..port.size).filter(|&p| p != rank) {
            self.maybe_condemn(port, p);
        }
    }

    /// Record life from `src` (any packet kind counts). Liveness advances
    /// to `max(own clock, arrival)`: per-rank virtual clocks drift apart
    /// between synchronization points, so a busy peer's packets may carry
    /// stamps far in our past — hearing it at all is the fact that
    /// matters. Retracts a standing suspicion.
    pub(crate) fn note_alive(&mut self, port: &mut Port, src: usize, arrival: f64) {
        if src == port.rank {
            return;
        }
        let now = port.clock.max(arrival);
        let gap = (now - self.last_seen[src]).max(0.0);
        self.ewma[src] = 0.8 * self.ewma[src] + 0.2 * gap;
        self.last_seen[src] = self.last_seen[src].max(now);
        if self.suspected[src] {
            self.suspected[src] = false;
            self.suspect_since[src] = f64::INFINITY;
            self.votes[src][port.rank] = false;
            let peer = src as u32;
            Self::broadcast(port, src, WireKind::Suspect { peer, alive: true });
        }
    }

    /// Ingest a peer's suspicion vote (or retraction) about `peer`.
    pub(crate) fn on_vote(&mut self, port: &mut Port, peer: usize, voter: usize, alive: bool) {
        if peer >= port.size || peer == port.rank {
            return;
        }
        self.votes[peer][voter] = !alive;
        if !alive {
            self.maybe_condemn(port, peer);
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
    fn maybe_condemn(&mut self, port: &mut Port, peer: usize) {
        if !self.suspected[peer] {
            return;
        }
        let aged = port.clock >= self.suspect_since[peer] + self.cfg.confirm_for * self.cfg.every_s;
        #[cfg(any(test, feature = "sim-mutants"))]
        let aged = aged || self.cfg.condemn_unconfirmed;
        let votes = self.votes[peer].iter().filter(|&&v| v).count();
        let quorum = (port.size - 1) / 2 + 1;
        if aged && votes >= quorum {
            port.stats.fault.verdicts += 1;
            self.abort.store(true, Ordering::SeqCst);
            panic_any(RankCrash {
                rank: peer,
                at: port.clock,
            });
        }
    }
}
