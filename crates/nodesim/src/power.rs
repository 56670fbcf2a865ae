//! Power-draw model (§2 of the paper).
//!
//! The machine room's cooling limited the cluster to about 35 kW.

/// Power model for the nodes and switches of the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    /// Nodes in the cluster.
    pub nodes: u32,
    /// Node draw at idle, watts.
    pub idle_watts: f64,
    /// Node draw at full load (Linpack), watts.
    pub load_watts: f64,
    /// Switch draw, watts.
    pub switch_watts: f64,
}

impl PowerBudget {
    /// The Space Simulator: ~110 W/node under load (294 nodes ≈ 32 kW with
    /// the switches, inside the 35 kW cooling budget).
    pub fn space_simulator() -> Self {
        PowerBudget {
            nodes: 294,
            idle_watts: 55.0,
            load_watts: 105.0,
            switch_watts: 1200.0,
        }
    }

    /// Total cluster draw at a load fraction in `[0, 1]`, watts.
    pub fn cluster_watts(&self, load: f64) -> f64 {
        assert!((0.0..=1.0).contains(&load));
        let node = self.idle_watts + (self.load_watts - self.idle_watts) * load;
        self.nodes as f64 * node + self.switch_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_load_fits_in_35_kw_cooling_budget() {
        let p = PowerBudget::space_simulator();
        let w = p.cluster_watts(1.0);
        assert!(w < 35_000.0, "got {w}");
        assert!(w > 25_000.0, "suspiciously low: {w}");
    }

    #[test]
    fn idle_draw_is_lower() {
        let p = PowerBudget::space_simulator();
        assert!(p.cluster_watts(0.0) < p.cluster_watts(1.0));
    }

    #[test]
    #[should_panic]
    fn load_fraction_out_of_range_panics() {
        PowerBudget::space_simulator().cluster_watts(1.5);
    }
}
