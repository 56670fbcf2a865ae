//! Message-passing library performance profiles.
//!
//! Figure 2 of the paper shows NetPIPE bandwidth-vs-message-size curves for
//! plain TCP and for several MPI implementations. The curves differ in three
//! ways, each captured by a field of [`LibraryProfile`]:
//!
//! 1. small-message (one-way) latency: 79 µs TCP, 83 µs LAM, 87 µs MPICH;
//! 2. asymptotic bandwidth: 779 Mbit/s for TCP (the PCI-bus limit of the
//!    3c996B-T in a 32-bit/33 MHz slot), slightly lower for the MPI layers,
//!    and markedly lower for mpich-1.2.5 at large message sizes;
//! 3. the half-bandwidth message size, which for the Hockney model
//!    `T(n) = latency + n / bw(n)` emerges as `latency × bw` — about 7.7 kB
//!    for TCP on this NIC, matching the knee of the measured curves.
//!
//! `bw(n)` switches to the degraded `large_bw` above `large_threshold`
//! (mpich-1.2.5's large-message pathology, fixed in mpich2-0.92).

/// Performance profile of one message-passing layer over the gigabit NIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LibraryProfile {
    /// Display name, e.g. `"LAM 6.5.9 -O"`.
    pub name: &'static str,
    /// One-way small-message latency in seconds.
    pub latency_s: f64,
    /// Asymptotic bandwidth for "small-to-medium" messages, bytes/second.
    pub bandwidth: f64,
    /// Message size above which `large_bw` applies (usize::MAX = never).
    pub large_threshold: usize,
    /// Degraded bandwidth for messages above `large_threshold`, bytes/second.
    pub large_bw: f64,
    /// Per-message CPU overhead charged to the sender, seconds.
    pub send_overhead_s: f64,
    /// Per-message CPU overhead charged to the receiver, seconds.
    pub recv_overhead_s: f64,
}

impl LibraryProfile {
    /// Effective bandwidth for an `n`-byte message, bytes/second.
    pub fn effective_bandwidth(&self, n: usize) -> f64 {
        if n > self.large_threshold {
            self.large_bw
        } else {
            self.bandwidth
        }
    }

    /// One-way transfer time of an `n`-byte message over an uncontended
    /// path, in seconds.
    pub fn transfer_time(&self, n: usize) -> f64 {
        let bw = self.effective_bandwidth(n);
        self.latency_s + n as f64 / bw
    }

    /// NetPIPE-style reported throughput in Mbit/s for message size `n`.
    pub fn throughput_mbits(&self, n: usize) -> f64 {
        crate::mbits_per_sec(n, self.transfer_time(n))
    }

    /// Plain TCP over the 3c996B-T: 79 µs latency, 779 Mbit/s asymptote.
    pub fn tcp() -> Self {
        LibraryProfile {
            name: "TCP",
            latency_s: 79.0e-6,
            bandwidth: 779.0 * crate::MBIT,
            large_threshold: usize::MAX,
            large_bw: 779.0 * crate::MBIT,
            send_overhead_s: 4.0e-6,
            recv_overhead_s: 4.0e-6,
        }
    }

    /// LAM 6.5.9 with `-O` (homogeneous environment — no byte-swapping
    /// checks): nearly TCP-class bandwidth, 83 µs latency.
    pub fn lam_homogeneous() -> Self {
        LibraryProfile {
            name: "LAM 6.5.9 -O",
            latency_s: 83.0e-6,
            bandwidth: 755.0 * crate::MBIT,
            large_threshold: usize::MAX,
            large_bw: 755.0 * crate::MBIT,
            send_overhead_s: 6.0e-6,
            recv_overhead_s: 6.0e-6,
        }
    }

    /// LAM 6.5.9 without `-O`: heterogeneity checks cost bandwidth.
    pub fn lam() -> Self {
        LibraryProfile {
            name: "LAM 6.5.9",
            latency_s: 83.0e-6,
            bandwidth: 620.0 * crate::MBIT,
            large_threshold: usize::MAX,
            large_bw: 620.0 * crate::MBIT,
            send_overhead_s: 7.0e-6,
            recv_overhead_s: 7.0e-6,
        }
    }

    /// mpich-1.2.5: 87 µs latency and a large-message bandwidth collapse
    /// (the paper: "mpich-1.2.5 has lower performance for large messages
    /// than the rest of the libraries").
    pub fn mpich1() -> Self {
        LibraryProfile {
            name: "mpich-1.2.5",
            latency_s: 87.0e-6,
            bandwidth: 700.0 * crate::MBIT,
            large_threshold: 128 * 1024,
            large_bw: 450.0 * crate::MBIT,
            send_overhead_s: 8.0e-6,
            recv_overhead_s: 8.0e-6,
        }
    }

    /// mpich2-0.92 beta: same latency as mpich1 but the large-message
    /// problem is fixed.
    pub fn mpich2() -> Self {
        LibraryProfile {
            name: "mpich2-0.92",
            latency_s: 87.0e-6,
            bandwidth: 720.0 * crate::MBIT,
            large_threshold: usize::MAX,
            large_bw: 720.0 * crate::MBIT,
            send_overhead_s: 8.0e-6,
            recv_overhead_s: 8.0e-6,
        }
    }

    /// All Figure 2 profiles, in the order the legend lists them.
    pub fn figure2_set() -> Vec<Self> {
        vec![
            Self::tcp(),
            Self::lam_homogeneous(),
            Self::lam(),
            Self::mpich2(),
            Self::mpich1(),
        ]
    }

    /// Quadrics Elan-3 class interconnect (ASCI Q), for cross-machine
    /// comparisons: ~5 µs latency, ~300 MB/s per rail.
    pub fn quadrics() -> Self {
        LibraryProfile {
            name: "Quadrics Elan3",
            latency_s: 5.0e-6,
            bandwidth: 300.0e6,
            large_threshold: usize::MAX,
            large_bw: 300.0e6,
            send_overhead_s: 1.0e-6,
            recv_overhead_s: 1.0e-6,
        }
    }

    /// 100 Mbit Fast Ethernet (Loki/Avalon era).
    pub fn fast_ethernet() -> Self {
        LibraryProfile {
            name: "Fast Ethernet",
            latency_s: 120.0e-6,
            bandwidth: 90.0 * crate::MBIT,
            large_threshold: usize::MAX,
            large_bw: 90.0 * crate::MBIT,
            send_overhead_s: 15.0e-6,
            recv_overhead_s: 15.0e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_asymptote_approaches_779_mbits() {
        let p = LibraryProfile::tcp();
        let t = p.throughput_mbits(16 * 1024 * 1024);
        assert!(t > 770.0 && t < 779.0, "got {t}");
    }

    #[test]
    fn latency_dominates_small_messages() {
        let p = LibraryProfile::tcp();
        // A 1-byte message takes essentially the latency.
        let t = p.transfer_time(1);
        assert!(t > 79.0e-6 && t < 82.0e-6, "got {t}");
    }

    #[test]
    fn mpich1_collapses_for_large_messages() {
        let m1 = LibraryProfile::mpich1();
        let m2 = LibraryProfile::mpich2();
        let big = 4 * 1024 * 1024;
        let small = 64 * 1024;
        // At 64 kB the two are close; at 4 MB mpich1 is clearly slower.
        let ratio_small = m1.throughput_mbits(small) / m2.throughput_mbits(small);
        let ratio_big = m1.throughput_mbits(big) / m2.throughput_mbits(big);
        assert!(ratio_small > 0.9, "got {ratio_small}");
        assert!(ratio_big < 0.7, "got {ratio_big}");
    }

    #[test]
    fn latency_ordering_matches_paper() {
        let tcp = LibraryProfile::tcp();
        let lam = LibraryProfile::lam_homogeneous();
        let mpich = LibraryProfile::mpich1();
        assert!(tcp.latency_s < lam.latency_s);
        assert!(lam.latency_s < mpich.latency_s);
    }

    #[test]
    fn transfer_time_is_monotone_in_size() {
        for p in LibraryProfile::figure2_set() {
            let mut last = 0.0;
            let mut n = 1usize;
            while n <= 1 << 24 {
                let t = p.transfer_time(n);
                assert!(t > last, "{}: time not monotone at n={n}", p.name);
                last = t;
                n *= 2;
            }
        }
    }

    #[test]
    fn lam_homogeneous_beats_plain_lam() {
        let fast = LibraryProfile::lam_homogeneous();
        let slow = LibraryProfile::lam();
        assert!(fast.throughput_mbits(1 << 20) > slow.throughput_mbits(1 << 20));
    }
}
