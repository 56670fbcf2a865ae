//! Asynchronous Batched Messages (ABM), §4.2 of the paper.
//!
//! The treecode's traversal generates huge numbers of small requests for
//! non-local cells. Sending each as its own message would be latency-bound
//! (79–87 µs per message on gigabit ethernet!), so the paper's code
//! aggregates them: messages to the same destination accumulate in a batch
//! that is flushed when full or when the sender runs out of other work.
//! The interface is "modeled after that of active messages": the receiver
//! polls and hands each batch to application code.
//!
//! Quiescence — "no rank has work and no messages are in flight" — is
//! detected with the Safra/Dijkstra token algorithm ([`Termination`]):
//! a token circulates accumulating a count of sent-minus-received basic
//! messages and a color; a white token returning to rank 0 with total
//! count zero proves termination.

use crate::comm::{Comm, Tag};
use crate::payload::Payload;

/// Tag namespace for ABM batches; one `Abm` instance per tag.
const ABM_BIT: Tag = 1 << 62;
const TOKEN_TAG: Tag = (1 << 61) | 1;
const DONE_TAG: Tag = (1 << 61) | 2;

/// A batching sender/receiver for messages of type `M`.
///
/// Batches flush through **one** routine (`Abm::flush_dst`) regardless of
/// what triggered the flush — count limit, byte budget, deadline, or an
/// explicit [`Abm::flush_all`] — so the Safra `sent` counter is updated in
/// exactly one place and cannot diverge between flush paths again (the
/// PR-1/PR-5 mutant family).
pub struct Abm<M> {
    out: Vec<Vec<M>>,
    batch_limit: usize,
    /// Flush a destination once its queued batch would occupy this many
    /// wire bytes (the paper's "a few kilobytes"), even below the count
    /// limit. `None` disables byte budgeting.
    byte_budget: Option<usize>,
    /// Flush a destination once its oldest queued message has waited this
    /// long in virtual time. Checked in [`Abm::poll`]. `None` disables
    /// deadlines.
    deadline_s: Option<f64>,
    /// Virtual time the oldest queued message was posted, per dst
    /// (`f64::INFINITY` when the queue is empty).
    oldest_s: Vec<f64>,
    tag: Tag,
    /// Batches sent and received, for the termination counter.
    pub sent: u64,
    pub received: u64,
    /// Duplicate messages collapsed by [`Abm::post_unique`].
    pub coalesced: u64,
    /// Batches flushed because their virtual-time deadline expired.
    pub deadline_flushes: u64,
    /// Mutation-teeth switch (test builds only): reintroduce the PR-1
    /// Safra send under-count — auto-flushed batches escape `sent` — so
    /// the schedule checker can prove its oracles catch that bug class.
    #[cfg(test)]
    pub undercount_auto_flush: bool,
}

impl<M> Abm<M>
where
    M: Send + 'static,
    Vec<M>: Payload,
{
    /// Create a batcher with a user channel id (small integer) and a batch
    /// size limit. The paper's code used batches of a few kilobytes.
    pub fn new(size: usize, channel: u16, batch_limit: usize) -> Self {
        assert!(batch_limit >= 1);
        Abm {
            out: (0..size).map(|_| Vec::new()).collect(),
            batch_limit,
            byte_budget: None,
            deadline_s: None,
            oldest_s: vec![f64::INFINITY; size],
            tag: ABM_BIT | (channel as Tag),
            sent: 0,
            received: 0,
            coalesced: 0,
            deadline_flushes: 0,
            #[cfg(test)]
            undercount_auto_flush: false,
        }
    }

    /// Also flush a destination when its queued batch reaches `bytes` on
    /// the wire. Keeps latency-bound request channels from waiting for a
    /// count limit sized for small messages.
    pub fn with_byte_budget(mut self, bytes: usize) -> Self {
        assert!(bytes >= 1);
        self.byte_budget = Some(bytes);
        self
    }

    /// Also flush a destination once its oldest queued message has aged
    /// `seconds` of virtual time (checked on every [`Abm::poll`]).
    /// Bounds the latency a partially-filled batch can add to a parked
    /// remote request.
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0);
        self.deadline_s = Some(seconds);
        self
    }

    /// Queue `m` for `dst`, flushing that destination's batch if the
    /// count limit or byte budget is reached.
    pub fn post(&mut self, comm: &mut Comm, dst: usize, m: M) {
        if self.out[dst].is_empty() {
            self.oldest_s[dst] = comm.time();
        }
        self.out[dst].push(m);
        let full = self.out[dst].len() >= self.batch_limit
            || self
                .byte_budget
                .is_some_and(|b| self.out[dst].wire_bytes() >= b);
        if full {
            self.flush_dst(comm, dst, true);
        }
    }

    /// Queue `m` for `dst` unless an identical message is already queued
    /// there, in which case the duplicate is dropped and counted in
    /// [`Abm::coalesced`]. Returns whether the message was queued.
    ///
    /// This is request coalescing for fetch-type channels: two walks
    /// asking the same owner for the same cell inside one batching window
    /// collapse into a single wire request (the caller fans the one reply
    /// out to every waiter).
    pub fn post_unique(&mut self, comm: &mut Comm, dst: usize, m: M) -> bool
    where
        M: PartialEq,
    {
        if self.out[dst].contains(&m) {
            self.coalesced += 1;
            return false;
        }
        self.post(comm, dst, m);
        true
    }

    /// The single flush routine: every trigger funnels here so `sent`
    /// accounting has exactly one home. `auto` marks flushes initiated
    /// by the batcher itself (limit/budget/deadline) rather than by an
    /// explicit `flush_all`.
    fn flush_dst(&mut self, comm: &mut Comm, dst: usize, auto: bool) {
        let _ = auto;
        if self.out[dst].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.out[dst]);
        self.oldest_s[dst] = f64::INFINITY;
        comm.send(dst, self.tag, batch);
        #[cfg(test)]
        if auto && self.undercount_auto_flush {
            // The PR-1 bug, verbatim: a batch flushed from inside post()
            // was sent on the wire but never counted, so Safra's global
            // count goes negative and termination never fires (or fires
            // early, losing the batch). Kept as a mutant for the teeth
            // test in `crate::sched`.
            return;
        }
        self.sent += 1;
    }

    /// Flush every pending batch (call when out of other work).
    pub fn flush_all(&mut self, comm: &mut Comm) {
        for dst in 0..self.out.len() {
            self.flush_dst(comm, dst, false);
        }
    }

    /// Flush destinations whose oldest queued message has outlived the
    /// deadline. No-op unless [`Abm::with_deadline`] was set.
    fn flush_expired(&mut self, comm: &mut Comm) {
        let Some(deadline) = self.deadline_s else {
            return;
        };
        let now = comm.time();
        for dst in 0..self.out.len() {
            if now - self.oldest_s[dst] >= deadline {
                self.flush_dst(comm, dst, true);
                self.deadline_flushes += 1;
            }
        }
    }

    /// Drain all currently available batches: `(source, messages)` pairs.
    /// Also retires any batches whose flush deadline has expired.
    pub fn poll(&mut self, comm: &mut Comm) -> Vec<(usize, Vec<M>)> {
        self.flush_expired(comm);
        let mut got = Vec::new();
        while let Some((src, batch)) = comm.try_recv::<Vec<M>>(None, self.tag) {
            self.received += 1;
            got.push((src, batch));
        }
        got
    }

    /// Messages queued but not yet flushed.
    pub fn pending(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): rank 0 leaves an
    /// unfinished token to be relaunched on its next poll, which a caller
    /// blocked until something arrives never makes.
    pub(crate) static DEFER_RELAUNCH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Safra's termination-detection token algorithm.
///
/// Usage: call [`Termination::on_send`] / [`Termination::on_recv`] for
/// every *basic* (application) message; when locally idle, call
/// [`Termination::poll`] until it returns `true` on every rank. Between
/// polls the caller must keep serving incoming basic messages, and may
/// block until some packet arrives ([`Comm::await_arrival`]): a poll
/// leaves nothing to be done by the next one, so every step of the
/// protocol is started by a packet.
pub struct Termination {
    /// Basic messages sent minus received by this rank (cumulative).
    counter: i64,
    /// Black = received a basic message since last forwarding the token.
    black: bool,
    /// Rank 0 only: is a token currently circulating?
    token_out: bool,
    done: bool,
}

impl Termination {
    pub fn new() -> Self {
        Termination {
            counter: 0,
            black: false,
            token_out: false,
            done: false,
        }
    }

    /// Record `n` basic messages sent.
    pub fn on_send(&mut self, n: u64) {
        self.counter += n as i64;
    }

    /// Record `n` basic messages received.
    pub fn on_recv(&mut self, n: u64) {
        self.counter -= n as i64;
        self.black = true;
    }

    /// Call when locally idle. Services the token; returns `true` once
    /// global termination has been detected (and broadcast).
    pub fn poll(&mut self, comm: &mut Comm) -> bool {
        if self.done {
            return true;
        }
        let (rank, size) = (comm.rank(), comm.size());
        if size == 1 {
            self.done = true;
            return true;
        }
        // Termination announcement?
        if comm.try_recv::<()>(None, DONE_TAG).is_some() {
            // Forward the announcement down the ring, then stop.
            let next = (rank + 1) % size;
            if next != 0 {
                comm.send(next, DONE_TAG, ());
            }
            self.done = true;
            return true;
        }
        // Rank 0 launches the token when idle and none is out.
        if rank == 0 && !self.token_out {
            self.launch(comm);
            return false;
        }
        // Token in hand?
        if let Some((_, (count, black))) = comm.try_recv::<(i64, u8)>(None, TOKEN_TAG) {
            if rank == 0 {
                let total = count + self.counter;
                let any_black = black != 0 || self.black;
                if !any_black && total == 0 {
                    // Quiescent: announce termination around the ring.
                    comm.send(1, DONE_TAG, ());
                    self.done = true;
                    return true;
                }
                // Retry at once: rank 0 polls only while idle, and an
                // idle caller may block until the next packet, which
                // would never come if the token waited for another poll.
                #[cfg(test)]
                if DEFER_RELAUNCH.get() {
                    self.token_out = false;
                    self.black = false;
                    return false;
                }
                self.launch(comm);
            } else {
                let fwd_count = count + self.counter;
                let fwd_black = (black != 0 || self.black) as u8;
                comm.send((rank + 1) % size, TOKEN_TAG, (fwd_count, fwd_black));
                self.black = false;
            }
        }
        false
    }

    /// Rank 0: send a fresh white token with a zero count round the ring.
    fn launch(&mut self, comm: &mut Comm) {
        self.token_out = true;
        comm.send(1, TOKEN_TAG, (0i64, 0u8)); // (count, black?)
        self.black = false;
    }
}

impl Default for Termination {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn batches_flush_at_limit() {
        run(2, |c| {
            let mut abm: Abm<u64> = Abm::new(c.size(), 0, 3);
            if c.rank() == 0 {
                for i in 0..7u64 {
                    abm.post(c, 1, i);
                }
                assert_eq!(abm.pending(), 1); // 7 = 3 + 3 + 1 pending
                abm.flush_all(c);
                assert_eq!(abm.pending(), 0);
                assert_eq!(abm.sent, 3);
            } else {
                let mut got = Vec::new();
                while got.len() < 7 {
                    for (_, batch) in abm.poll(c) {
                        got.extend(batch);
                    }
                    std::thread::yield_now();
                }
                got.sort_unstable();
                assert_eq!(got, (0..7).collect::<Vec<u64>>());
            }
        });
    }

    #[test]
    fn byte_budget_flushes_before_count_limit() {
        run(2, |c| {
            // Count limit 1000 would never trip; the 32-byte budget does,
            // every 4 u64s.
            let mut abm: Abm<u64> = Abm::new(c.size(), 0, 1000).with_byte_budget(32);
            if c.rank() == 0 {
                for i in 0..10u64 {
                    abm.post(c, 1, i);
                }
                assert_eq!(abm.pending(), 2); // 10 = 4 + 4 + 2 queued
                assert_eq!(abm.sent, 2);
                abm.flush_all(c);
                assert_eq!(abm.sent, 3);
            } else {
                let mut got = Vec::new();
                while got.len() < 10 {
                    for (_, batch) in abm.poll(c) {
                        got.extend(batch);
                    }
                    std::thread::yield_now();
                }
                got.sort_unstable();
                assert_eq!(got, (0..10).collect::<Vec<u64>>());
            }
        });
    }

    #[test]
    fn deadline_flushes_aged_batches_on_poll() {
        run(2, |c| {
            let mut abm: Abm<u64> = Abm::new(c.size(), 0, 1000).with_deadline(1.0e-3);
            if c.rank() == 0 {
                abm.post(c, 1, 7);
                // Young batch: polling now must not flush it.
                let _ = abm.poll(c);
                assert_eq!(abm.pending(), 1);
                assert_eq!(abm.deadline_flushes, 0);
                // Age past the deadline in virtual time, then poll.
                c.elapse(2.0e-3);
                let _ = abm.poll(c);
                assert_eq!(abm.pending(), 0);
                assert_eq!(abm.deadline_flushes, 1);
                assert_eq!(abm.sent, 1);
            } else {
                let mut got = Vec::new();
                while got.is_empty() {
                    for (_, batch) in abm.poll(c) {
                        got.extend(batch);
                    }
                    std::thread::yield_now();
                }
                assert_eq!(got, vec![7]);
            }
        });
    }

    #[test]
    fn post_unique_coalesces_duplicates_in_window() {
        run(2, |c| {
            let mut abm: Abm<u64> = Abm::new(c.size(), 0, 100);
            if c.rank() == 0 {
                assert!(abm.post_unique(c, 1, 42));
                assert!(!abm.post_unique(c, 1, 42)); // duplicate: dropped
                assert!(abm.post_unique(c, 1, 43));
                assert_eq!(abm.coalesced, 1);
                assert_eq!(abm.pending(), 2);
                abm.flush_all(c);
                // After the flush the window is clear: same key queues again.
                assert!(abm.post_unique(c, 1, 42));
                assert_eq!(abm.coalesced, 1);
                abm.flush_all(c);
            } else {
                let mut got = Vec::new();
                while got.len() < 3 {
                    for (_, batch) in abm.poll(c) {
                        got.extend(batch);
                    }
                    std::thread::yield_now();
                }
                got.sort_unstable();
                assert_eq!(got, vec![42, 42, 43]);
            }
        });
    }

    #[test]
    fn termination_detects_quiescence_immediately_when_no_traffic() {
        run(4, |c| {
            let mut term = Termination::new();
            let mut iters = 0;
            while !term.poll(c) {
                iters += 1;
                assert!(iters < 100_000, "termination never detected");
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn termination_single_rank() {
        run(1, |c| {
            let mut term = Termination::new();
            assert!(term.poll(c));
        });
    }

    #[test]
    fn termination_after_message_storm() {
        // Each rank fires a random cascade: receiving a message may spawn
        // more, with decreasing probability. Termination must only be
        // declared after all cascades die out, and all sent messages must
        // be received.
        let counts = run(4, |c| {
            let mut rng = SmallRng::seed_from_u64(17 + c.rank() as u64);
            let mut abm: Abm<u64> = Abm::new(c.size(), 1, 2);
            let mut term = Termination::new();
            let mut handled = 0u64;
            // Seed the storm.
            for _ in 0..20 {
                let dst = rng.gen_range(0..c.size());
                abm.post(c, dst, 8);
            }
            abm.flush_all(c);
            term.on_send(abm.sent);
            let mut sent_so_far = abm.sent;
            loop {
                let batches = abm.poll(c);
                let mut got_any = false;
                for (_, batch) in batches {
                    term.on_recv(1);
                    got_any = true;
                    for ttl in batch {
                        handled += 1;
                        if ttl > 0 && rng.gen_bool(0.6) {
                            let dst = rng.gen_range(0..c.size());
                            abm.post(c, dst, ttl - 1);
                        }
                    }
                }
                abm.flush_all(c);
                if abm.sent > sent_so_far {
                    term.on_send(abm.sent - sent_so_far);
                    sent_so_far = abm.sent;
                }
                if !got_any && term.poll(c) {
                    break;
                }
            }
            handled
        });
        // Every message sent must have been handled somewhere.
        let total: u64 = counts.iter().sum();
        assert!(total >= 80, "storm too small: {total}");
    }
}
