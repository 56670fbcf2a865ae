//! Contention-aware message transfer over the switch fabric.
//!
//! A [`Fabric`] combines a [`SwitchFabric`] topology with a
//! [`LibraryProfile`] and tracks, per shared resource (module uplinks and
//! the inter-switch trunk), the virtual time until which the resource is
//! busy. A transfer's end-to-end time is the library model's latency +
//! serialization (the NIC is the bottleneck at 779 Mbit/s), plus any
//! queueing delay accrued while crossing busy backbone segments.
//!
//! The busy-until bookkeeping makes aggregate throughput across a shared
//! segment saturate at the segment's capacity — exactly the behaviour the
//! paper measures with its hypercube-pairs MPI test ("with 16 processors on
//! one module sending to 16 processors on another module, the total
//! throughput was about 6000 Mbits").

use crate::profiles::LibraryProfile;
use crate::switch::{Resource, SwitchFabric};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Result of scheduling one message through the fabric.
///
/// A non-finite `arrival` means the message was eaten by a dead link
/// (see [`LinkFault`]); the bytes were still clocked onto the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferOutcome {
    /// Virtual time at which the last byte reaches the receiver's NIC.
    pub arrival: f64,
    /// Of the total, how much was queueing behind other traffic.
    pub queued: f64,
}

impl TransferOutcome {
    /// Did the message actually reach the destination NIC?
    pub fn delivered(&self) -> bool {
        self.arrival.is_finite()
    }
}

/// A fault on one switch port (or its attached NIC/cable), active over a
/// virtual-time window. This is the executable form of the paper's §2.1
/// "soft errors on 4 ports of our gigabit switches": a degraded port
/// serializes slower (PHY-level retries), a dead port eats every packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Global fabric port the fault sits on (either endpoint matches).
    pub port: u32,
    /// Virtual time the fault appears.
    pub from: f64,
    /// Virtual time the fault is cured (firmware upgrade, reseated cable);
    /// `f64::INFINITY` for a permanent fault.
    pub until: f64,
    /// Remaining fraction of link speed: `0.0` kills the port outright,
    /// `0.25` stretches serialization by 4x.
    pub speed_factor: f64,
}

impl LinkFault {
    /// A port that is down for `[from, until)`.
    pub fn dead(port: u32, from: f64, until: f64) -> LinkFault {
        LinkFault {
            port,
            from,
            until,
            speed_factor: 0.0,
        }
    }

    /// A port running at `factor` of its speed from `from` onwards.
    pub fn degraded(port: u32, from: f64, factor: f64) -> LinkFault {
        assert!(factor > 0.0 && factor <= 1.0);
        LinkFault {
            port,
            from,
            until: f64::INFINITY,
            speed_factor: factor,
        }
    }

    fn active_at(&self, t: f64) -> bool {
        t >= self.from && t < self.until
    }
}

/// Aggregate fabric statistics, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FabricStats {
    pub messages: u64,
    pub bytes: u64,
    /// Total time spent queued behind shared resources, summed over
    /// messages (seconds of virtual time).
    pub queued_s: f64,
    /// Messages eaten by a dead port ([`LinkFault`] with factor 0).
    pub link_dropped: u64,
    /// Messages that crossed a degraded port (slower, but delivered).
    pub link_degraded: u64,
}

struct State {
    busy_until: HashMap<Resource, f64>,
    stats: FabricStats,
    /// Installed port faults. Empty in healthy fabrics — the per-transfer
    /// cost of the feature is one `is_empty` branch under the existing
    /// lock (pay-for-what-you-inject).
    faults: Vec<LinkFault>,
}

/// A shared, thread-safe cluster network.
pub struct Fabric {
    topology: SwitchFabric,
    profile: LibraryProfile,
    state: Mutex<State>,
}

impl Fabric {
    pub fn new(topology: SwitchFabric, profile: LibraryProfile) -> Self {
        Fabric {
            topology,
            profile,
            state: Mutex::new(State {
                busy_until: HashMap::new(),
                stats: FabricStats::default(),
                faults: Vec::new(),
            }),
        }
    }

    /// An ideal non-blocking crossbar with the given profile.
    pub fn ideal(ports: u32, profile: LibraryProfile) -> Self {
        Fabric::new(SwitchFabric::crossbar(ports), profile)
    }

    /// The Space Simulator's fabric with the given MPI library.
    pub fn space_simulator(profile: LibraryProfile) -> Self {
        Fabric::new(SwitchFabric::space_simulator(), profile)
    }

    pub fn profile(&self) -> &LibraryProfile {
        &self.profile
    }

    pub fn topology(&self) -> &SwitchFabric {
        &self.topology
    }

    /// The one way to the bookkeeping. A scheduled rank crash is a panic,
    /// and the `Machine`'s fabric outlives the world it happened in, so a
    /// poisoned lock is recovered, not propagated: `State` is counters and
    /// busy-until times, valid after any prefix of an update.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Trace-attribution class of the src→dst path (see
    /// [`SwitchFabric::link_class`]).
    pub fn link_class(&self, src: u32, dst: u32) -> obs::LinkClass {
        self.topology.link_class(src, dst)
    }

    /// Install a port fault. Takes effect for transfers departing inside
    /// the fault's window.
    pub fn inject_link_fault(&self, fault: LinkFault) {
        self.state().faults.push(fault);
    }

    /// Remove every installed fault (e.g. between chaos experiments).
    pub fn clear_link_faults(&self) {
        self.state().faults.clear();
    }

    /// Currently installed faults (for reports).
    pub fn link_faults(&self) -> Vec<LinkFault> {
        self.state().faults.clone()
    }

    /// Schedule an `bytes`-byte message from `src` to `dst` departing at
    /// virtual time `depart`. Thread-safe; updates contention state.
    ///
    /// If either endpoint port has an active [`LinkFault`] the outcome may
    /// be non-delivered (`arrival = ∞`, dead port) or slowed (degraded
    /// port); check [`TransferOutcome::delivered`] when faults are in play.
    pub fn transfer(&self, src: u32, dst: u32, bytes: usize, depart: f64) -> TransferOutcome {
        if src == dst {
            // Self-send: local memcpy, modeled as a cheap copy at memory
            // bandwidth (1.2 GB/s for the XPC node).
            return TransferOutcome {
                arrival: depart + 1.0e-6 + bytes as f64 / 1.2e9,
                queued: 0.0,
            };
        }
        let route = self.topology.route(src, dst);
        let mut wire = self.profile.transfer_time(bytes);
        let mut st = self.state();
        if !st.faults.is_empty() {
            // Slowest active fault on either endpoint port governs.
            let mut factor = 1.0f64;
            for f in &st.faults {
                if (f.port == src || f.port == dst) && f.active_at(depart) {
                    factor = factor.min(f.speed_factor);
                }
            }
            if factor <= 0.0 {
                st.stats.messages += 1;
                st.stats.bytes += bytes as u64;
                st.stats.link_dropped += 1;
                return TransferOutcome {
                    arrival: f64::INFINITY,
                    queued: 0.0,
                };
            }
            if factor < 1.0 {
                wire /= factor;
                st.stats.link_degraded += 1;
            }
        }
        // Cut-through model: the message's head waits for each busy segment
        // but does not pay the segment's serialization time itself (the
        // 779 Mbit/s NIC, charged once via `wire`, is always the narrowest
        // hop). Each segment is held for bytes/capacity, which is what makes
        // aggregate throughput saturate at the segment capacity.
        let mut t = depart;
        for r in route {
            let cap = self.topology.capacity(r);
            if !cap.is_finite() {
                continue;
            }
            let busy = st.busy_until.entry(r).or_insert(0.0);
            let start = t.max(*busy);
            *busy = start + bytes as f64 / cap;
            t = start;
        }
        let queued = t - depart;
        st.stats.messages += 1;
        st.stats.bytes += bytes as u64;
        st.stats.queued_s += queued;
        TransferOutcome {
            arrival: depart + queued + wire,
            queued,
        }
    }

    pub fn stats(&self) -> FabricStats {
        self.state().stats
    }

    /// Reset contention state and statistics (e.g. between experiments).
    pub fn reset(&self) {
        let mut st = self.state();
        st.busy_until.clear();
        st.stats = FabricStats::default();
    }

    /// Reproduce the paper's switch-characterization experiment: `pairs`
    /// simultaneous flows each pushing `bytes_per_flow` from module A to
    /// module B (or across the trunk when `cross_switch`). Returns the
    /// aggregate throughput in Mbit/s.
    pub fn aggregate_pairs_mbits(
        &self,
        pairs: u32,
        bytes_per_flow: usize,
        cross_switch: bool,
    ) -> f64 {
        self.reset();
        let msg = 64 * 1024;
        let n_msgs = bytes_per_flow / msg;
        let dst_base = if cross_switch {
            // First port of the second chassis.
            self.topology.switches[0].ports()
        } else {
            // First port of the second module on chassis 0.
            self.topology.switches[0].ports_per_module
        };
        let mut finish: f64 = 0.0;
        // Round-robin across flows so contention interleaves realistically.
        let mut clocks = vec![0.0f64; pairs as usize];
        for _ in 0..n_msgs {
            for p in 0..pairs {
                let out = self.transfer(p, dst_base + p, msg, clocks[p as usize]);
                clocks[p as usize] = out.arrival;
                finish = finish.max(out.arrival);
            }
        }
        let total_bytes = pairs as usize * n_msgs * msg;
        crate::mbits_per_sec(total_bytes, finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GBIT;

    fn ss() -> Fabric {
        Fabric::space_simulator(LibraryProfile::tcp())
    }

    #[test]
    fn single_flow_hits_nic_limit() {
        let f = ss();
        // One flow within a module: NIC-limited near 779 Mbit/s.
        let n = 1 << 20;
        let out = f.transfer(0, 1, n, 0.0);
        let mbits = crate::mbits_per_sec(n, out.arrival);
        assert!(mbits > 700.0 && mbits < 779.0, "got {mbits}");
        assert_eq!(out.queued, 0.0);
    }

    #[test]
    fn sixteen_cross_module_pairs_aggregate_near_6_gbit() {
        let f = ss();
        let agg = f.aggregate_pairs_mbits(16, 8 << 20, false);
        // Paper: "the total throughput was about 6000 Mbits".
        assert!(agg > 5200.0 && agg < 6600.0, "got {agg}");
    }

    #[test]
    fn intra_module_pairs_scale_linearly() {
        let f = ss();
        f.reset();
        // 8 pairs inside one 16-port module: non-blocking, so each flow
        // runs at NIC speed and the aggregate is ~8x one flow.
        let n = 1 << 20;
        let mut finish: f64 = 0.0;
        for p in 0..8u32 {
            let out = f.transfer(p, 8 + p, n, 0.0);
            assert_eq!(out.queued, 0.0);
            finish = finish.max(out.arrival);
        }
        let agg = crate::mbits_per_sec(8 * n, finish);
        assert!(agg > 5600.0, "got {agg}");
    }

    #[test]
    fn trunk_limits_cross_switch_traffic() {
        let f = ss();
        // 32 flows from the FastIron 1500 to the FastIron 800 all funnel
        // through the 8 Gbit trunk; uncontended they would aggregate to
        // 32 x 779 ≈ 24 900 Mbit/s.
        let cross_switch = f.aggregate_pairs_mbits(32, 4 << 20, true);
        assert!(
            cross_switch > 7000.0 && cross_switch < 8200.0,
            "got {cross_switch}"
        );
    }

    #[test]
    fn self_send_is_memory_speed() {
        let f = ss();
        let out = f.transfer(5, 5, 1 << 20, 0.0);
        // ~0.9 ms for 1 MB at 1.2 GB/s.
        assert!(out.arrival < 2.0e-3, "got {}", out.arrival);
    }

    #[test]
    fn queueing_is_reported() {
        let f = ss();
        // Two flows sharing the same module uplink at the same instant:
        // the second should see queueing.
        let n = 1 << 20;
        let a = f.transfer(0, 16, n, 0.0);
        let b = f.transfer(1, 17, n, 0.0);
        assert_eq!(a.queued, 0.0);
        assert!(b.queued > 0.0);
        assert!(b.arrival > a.arrival - 1e-12);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let f = ss();
        f.transfer(0, 1, 100, 0.0);
        f.transfer(0, 1, 100, 0.0);
        let s = f.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 200);
        f.reset();
        assert_eq!(f.stats().messages, 0);
    }

    #[test]
    fn dead_port_eats_messages_during_its_window() {
        let f = ss();
        f.inject_link_fault(LinkFault::dead(3, 1.0, 2.0));
        // Before the window: delivered.
        assert!(f.transfer(3, 4, 1024, 0.5).delivered());
        // Inside the window, either direction: dropped.
        assert!(!f.transfer(3, 4, 1024, 1.5).delivered());
        assert!(!f.transfer(4, 3, 1024, 1.5).delivered());
        // Other ports unaffected.
        assert!(f.transfer(5, 6, 1024, 1.5).delivered());
        // After the cure: delivered again.
        assert!(f.transfer(3, 4, 1024, 2.5).delivered());
        assert_eq!(f.stats().link_dropped, 2);
    }

    #[test]
    fn degraded_port_slows_but_delivers() {
        let f = ss();
        let n = 1 << 20;
        let healthy = f.transfer(0, 1, n, 0.0).arrival;
        f.inject_link_fault(LinkFault::degraded(0, 0.0, 0.25));
        let degraded = f.transfer(0, 1, n, 0.0).arrival;
        assert!(degraded.is_finite());
        // 4x slower serialization dominates the 1 MB transfer.
        assert!(
            degraded > healthy * 3.0,
            "healthy {healthy} vs degraded {degraded}"
        );
        f.clear_link_faults();
        let cured = f.transfer(0, 1, n, 0.0).arrival;
        assert!((cured - healthy).abs() < healthy * 1e-9);
    }

    #[test]
    fn healthy_fabric_pays_nothing_for_the_fault_hook() {
        let f = ss();
        assert!(f.link_faults().is_empty());
        let out = f.transfer(0, 1, 4096, 0.0);
        assert!(out.delivered());
        assert_eq!(f.stats().link_dropped, 0);
        assert_eq!(f.stats().link_degraded, 0);
    }

    #[test]
    fn a_panic_under_the_lock_leaves_the_fabric_usable() {
        let f = ss();
        f.transfer(0, 16, 100, 0.0);
        let crashed = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = f.state();
                panic!("rank crash while holding the fabric lock");
            })
            .join()
        });
        assert!(crashed.is_err());
        assert!(f.state.is_poisoned());
        assert!(f.transfer(1, 17, 100, 0.0).delivered());
        assert_eq!(f.stats().messages, 2);
        f.reset();
        assert_eq!(f.stats(), FabricStats::default());
    }

    #[test]
    fn trunk_capacity_matches_the_paper_figure() {
        let f = ss();
        assert!((f.topology().capacity(Resource::Trunk) - 8.0 * GBIT).abs() < 1.0);
        // Module capacity is the *measured* 6 Gbit/s, not the nominal 8.
        assert!((f.topology().capacity(Resource::ModuleUplink(0)) - 6.0 * GBIT).abs() < 1.0);
    }

    #[test]
    fn ideal_fabric_never_queues() {
        let f = Fabric::ideal(512, LibraryProfile::quadrics());
        for i in 0..100u32 {
            let out = f.transfer(i, 511 - i, 1 << 16, 0.0);
            assert_eq!(out.queued, 0.0);
        }
    }
}
