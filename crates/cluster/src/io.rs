//! Local-disk parallel I/O model (§4.3 / Figure 7).
//!
//! "The code saved 1.5 Tbytes of data, and performed 10¹⁶ floating
//! point operations, for an average I/O rate of 417 Mbytes/sec and 112
//! Gflop/s. I/O was done in parallel to and from the local disk on each
//! processor, so the peak I/O rate was near 7 Gbytes/sec."

/// Per-node local-disk I/O (the Maxtor 4K080H4 sustains ~28 MB/s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoModel {
    pub nodes: u32,
    pub disk_mbps: f64,
}

impl IoModel {
    pub fn space_simulator(nodes: u32) -> IoModel {
        IoModel {
            nodes,
            disk_mbps: 28.0,
        }
    }

    /// Peak aggregate rate, bytes/second (all disks in parallel).
    pub fn peak_rate(&self) -> f64 {
        self.nodes as f64 * self.disk_mbps * 1e6
    }

    /// Time to write a snapshot of `bytes` split evenly across nodes.
    pub fn snapshot_time(&self, bytes: f64) -> f64 {
        bytes / self.peak_rate()
    }
}

/// The Figure 7 production run's bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct ProductionRun {
    pub particles: f64,
    pub timesteps: u32,
    pub procs: u32,
    pub wall_hours: f64,
    /// Snapshot data saved to disk (the paper's 1.5 TB).
    pub data_written: f64,
    /// Total local-disk traffic, reads + writes: "I/O was done in
    /// parallel to and from the local disk" — the 417 MB/s average is
    /// over this, which at 24 h implies ~36 TB of out-of-core and
    /// checkpoint cycling on top of the saved snapshots.
    pub io_traffic: f64,
    pub total_flops: f64,
}

impl ProductionRun {
    /// The paper's 134-million-particle run: 700 steps, 24 h on 250
    /// processors, 1.5 TB written, 10¹⁶ flops.
    pub fn figure7() -> ProductionRun {
        ProductionRun {
            particles: 134.0e6,
            timesteps: 700,
            procs: 250,
            wall_hours: 24.0,
            data_written: 1.5e12,
            io_traffic: 417.0e6 * 24.0 * 3600.0,
            total_flops: 1.0e16,
        }
    }

    pub fn average_gflops(&self) -> f64 {
        self.total_flops / (self.wall_hours * 3600.0) / 1e9
    }

    pub fn average_io_mbps(&self) -> f64 {
        self.io_traffic / (self.wall_hours * 3600.0) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_rates_match_the_paper() {
        let run = ProductionRun::figure7();
        assert!(
            (run.average_gflops() - 112.0).abs() < 5.0,
            "{}",
            run.average_gflops()
        );
        assert!(
            (run.average_io_mbps() - 417.0).abs() < 20.0,
            "{}",
            run.average_io_mbps()
        );
    }

    #[test]
    fn peak_io_near_7_gbytes_per_sec() {
        let io = IoModel::space_simulator(250);
        let peak = io.peak_rate();
        assert!((peak - 7.0e9).abs() < 0.5e9, "peak {peak}");
    }

    #[test]
    fn io_fits_comfortably_at_the_parallel_peak_rate() {
        let run = ProductionRun::figure7();
        let io = IoModel::space_simulator(250);
        // All 36 TB of traffic at the 7 GB/s parallel peak takes ~5100 s
        // of the 86400 s run — local disks keep I/O from dominating,
        // the design point of the paper's approach.
        let frac = run.io_traffic / io.peak_rate() / (run.wall_hours * 3600.0);
        assert!(frac < 0.1, "I/O fraction {frac}");
    }

    #[test]
    fn snapshot_time_scales_inversely_with_nodes() {
        let small = IoModel::space_simulator(10);
        let big = IoModel::space_simulator(250);
        let bytes = 2.0e9 * 134.0; // one 134M-particle snapshot, ~268 GB
        assert!(small.snapshot_time(bytes) > 20.0 * big.snapshot_time(bytes));
    }
}
