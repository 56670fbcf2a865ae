//! TOP500 ranking context and the price/performance milestone.
//!
//! "This is the first machine in the TOP500 to surpass Linpack
//! price/performance of 1 dollar per Mflop/s" — 63.9 ¢/Mflop/s at
//! 757.1 Gflop/s against the $483,855 total.

/// Anchor points (rank, Gflop/s) from the 20th (November 2002) list.
const LIST_NOV_2002: &[(u32, f64)] = &[
    (1, 35_860.0), // Earth Simulator
    (2, 7_727.0),  // ASCI Q segment
    (10, 2_916.0),
    (50, 825.0),
    (69, 757.0),
    (85, 665.1), // the Space Simulator
    (100, 594.0),
    (500, 195.8),
];

/// Anchor points from the 21st (June 2003) list.
const LIST_JUN_2003: &[(u32, f64)] = &[
    (1, 35_860.0),
    (2, 13_880.0), // ASCI Q combined
    (10, 3_337.0),
    (50, 1_166.0),
    (88, 757.1), // the Space Simulator
    (100, 730.0),
    (500, 245.1),
];

/// Which list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum List {
    Nov2002,
    Jun2003,
}

fn anchors(list: List) -> &'static [(u32, f64)] {
    match list {
        List::Nov2002 => LIST_NOV_2002,
        List::Jun2003 => LIST_JUN_2003,
    }
}

/// Rank a Linpack score on a list (log-interpolated between anchors).
pub fn rank(list: List, gflops: f64) -> u32 {
    let a = anchors(list);
    if gflops >= a[0].1 {
        return 1;
    }
    if gflops <= a.last().unwrap().1 {
        return a.last().unwrap().0;
    }
    for w in a.windows(2) {
        let (r0, g0) = w[0];
        let (r1, g1) = w[1];
        if gflops <= g0 && gflops >= g1 {
            // Interpolate rank in log-performance space.
            let f = (g0.ln() - gflops.ln()) / (g0.ln() - g1.ln());
            return (r0 as f64 + f * (r1 - r0) as f64).round() as u32;
        }
    }
    a.last().unwrap().0
}

/// Dollars per Mflop/s.
pub fn dollars_per_mflops(price: f64, gflops: f64) -> f64 {
    price / (gflops * 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_ranks_reproduce() {
        assert_eq!(rank(List::Nov2002, 665.1), 85);
        assert_eq!(rank(List::Jun2003, 757.1), 88);
        // "that performance would have ranked the Space Simulator at
        // #69 on the 20th TOP500 list".
        assert_eq!(rank(List::Nov2002, 757.1), 69);
    }

    #[test]
    fn rank_one_needs_earth_simulator_class_performance() {
        assert_eq!(rank(List::Nov2002, 40_000.0), 1);
        assert!(rank(List::Nov2002, 1_000.0) > 10);
    }

    #[test]
    fn price_performance_milestone() {
        let d = dollars_per_mflops(483_855.0, 757.1);
        assert!((d - 0.639).abs() < 0.002, "got {d}");
    }

    #[test]
    fn ranks_are_monotone_in_performance() {
        let mut last = u32::MAX;
        for g in [200.0, 400.0, 665.1, 757.1, 2000.0, 10_000.0, 40_000.0] {
            let r = rank(List::Nov2002, g);
            assert!(r <= last, "rank not monotone at {g}");
            last = r;
        }
    }
}
