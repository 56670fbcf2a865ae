//! Network fabric model for Gigabit-Ethernet Beowulf clusters.
//!
//! This crate models the communication hardware of the Space Simulator
//! (SC'03): 3Com 3c996B-T NICs on a 32-bit/33 MHz PCI bus, and a trunked
//! pair of Foundry FastIron 1500 + 800 switches, as characterized in §3.1
//! of the paper:
//!
//! * point-to-point TCP throughput saturates at 779 Mbit/s with a 79 µs
//!   small-message latency;
//! * MPI libraries add their own overhead (LAM 83 µs, MPICH 87 µs) and, for
//!   mpich-1.2.5, a large-message bandwidth penalty (fixed in mpich2-0.92);
//! * traffic is non-blocking within a 16-port switch module, limited to
//!   about 8 Gbit/s (≈6 Gbit/s measured) between modules, and limited to an
//!   8 Gbit/s fiber trunk between the two switches — which is what caps the
//!   scaling of codes on more than about 256 processors.
//!
//! The model is intentionally simple — latency + serialization + shared-
//! resource contention — because those are exactly the effects the paper
//! measures. Time is in seconds, sizes in bytes, bandwidth in bytes/second.

pub mod fabric;
pub mod netpipe;
pub mod profiles;
pub mod switch;

pub use fabric::{Fabric, LinkFault, TransferOutcome};
pub use netpipe::{netpipe_sweep, NetpipePoint};
pub use profiles::LibraryProfile;
pub use switch::{SwitchFabric, SwitchSpec};

/// One megabit per second, in bytes per second.
pub const MBIT: f64 = 1.0e6 / 8.0;
/// One gigabit per second, in bytes per second.
pub const GBIT: f64 = 1.0e9 / 8.0;

/// Convert a (bytes, seconds) pair to megabits per second, the unit NetPIPE
/// and Figure 2 of the paper report.
pub fn mbits_per_sec(bytes: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return f64::INFINITY;
    }
    bytes as f64 * 8.0 / 1.0e6 / seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert!((MBIT - 125_000.0).abs() < 1e-9);
        assert!((GBIT - 125_000_000.0).abs() < 1e-6);
        // 1 MB in 1 s = 8 Mbit/s.
        assert!((mbits_per_sec(1_000_000, 1.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn mbits_handles_zero_time() {
        assert!(mbits_per_sec(100, 0.0).is_infinite());
    }
}
