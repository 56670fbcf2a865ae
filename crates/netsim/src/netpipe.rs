//! NetPIPE-style bandwidth sweep (Figure 2 of the paper).
//!
//! NetPIPE measures ping-pong round-trip times across a geometric ladder of
//! message sizes and reports the achieved throughput for each. We run the
//! same protocol against a [`LibraryProfile`]: each point is the one-way
//! time for the message, and throughput is `8n / T(n)`.

use crate::profiles::LibraryProfile;

/// One point of a NetPIPE sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetpipePoint {
    /// Message size in bytes.
    pub bytes: usize,
    /// One-way transfer time in seconds.
    pub time_s: f64,
    /// Reported throughput in Mbit/s.
    pub mbits: f64,
}

/// Sweep message sizes from `min_bytes` to `max_bytes` (inclusive,
/// doubling), returning the bandwidth curve for `profile`.
pub fn netpipe_sweep(
    profile: &LibraryProfile,
    min_bytes: usize,
    max_bytes: usize,
) -> Vec<NetpipePoint> {
    assert!(min_bytes >= 1 && min_bytes <= max_bytes);
    let mut points = Vec::new();
    let mut n = min_bytes;
    loop {
        let t = profile.transfer_time(n);
        points.push(NetpipePoint {
            bytes: n,
            time_s: t,
            mbits: crate::mbits_per_sec(n, t),
        });
        if n >= max_bytes {
            break;
        }
        n = (n * 2).min(max_bytes);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_requested_range() {
        let pts = netpipe_sweep(&LibraryProfile::tcp(), 1, 1 << 20);
        assert_eq!(pts.first().unwrap().bytes, 1);
        assert_eq!(pts.last().unwrap().bytes, 1 << 20);
        assert_eq!(pts.len(), 21); // 1, 2, 4, ..., 2^20
    }

    #[test]
    fn throughput_is_monotone_for_wellbehaved_libraries() {
        // TCP, LAM and mpich2 have no large-message cliff, so throughput
        // rises monotonically with size.
        for p in [
            LibraryProfile::tcp(),
            LibraryProfile::lam_homogeneous(),
            LibraryProfile::mpich2(),
        ] {
            let pts = netpipe_sweep(&p, 1, 16 << 20);
            for w in pts.windows(2) {
                assert!(
                    w[1].mbits >= w[0].mbits,
                    "{}: dip at {} bytes",
                    p.name,
                    w[1].bytes
                );
            }
        }
    }

    #[test]
    fn mpich1_curve_has_the_large_message_cliff() {
        let pts = netpipe_sweep(&LibraryProfile::mpich1(), 1, 16 << 20);
        let peak = pts.iter().map(|p| p.mbits).fold(0.0, f64::max);
        let last = pts.last().unwrap().mbits;
        assert!(last < peak * 0.75, "no cliff: peak {peak}, last {last}");
    }

    #[test]
    fn figure2_has_five_curves_with_tcp_fastest() {
        let final_mbits: Vec<(&str, f64)> = LibraryProfile::figure2_set()
            .iter()
            .map(|p| (p.name, netpipe_sweep(p, 1, 16 << 20).last().unwrap().mbits))
            .collect();
        assert_eq!(final_mbits.len(), 5);
        let tcp = final_mbits.iter().find(|(n, _)| *n == "TCP").unwrap().1;
        for (name, m) in &final_mbits {
            if *name != "TCP" {
                assert!(*m <= tcp, "{name} beats TCP: {m} > {tcp}");
            }
        }
        assert!(tcp > 770.0 && tcp < 779.0);
    }

    #[test]
    #[should_panic]
    fn zero_min_bytes_rejected() {
        netpipe_sweep(&LibraryProfile::tcp(), 0, 100);
    }
}
