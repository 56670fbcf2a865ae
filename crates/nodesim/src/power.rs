//! Power-draw and breaker-balance model (§2 of the paper).
//!
//! The machine room's cooling limited the cluster to about 35 kW. The
//! cluster is fed by power strips on 15 A / 120 V breakers; the paper
//! reports breakers tripping until the distribution was rebalanced with "a
//! slightly more conservative maximum power consumption figure".

/// Power model for one node and the strips feeding the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    /// Nodes in the cluster.
    pub nodes: u32,
    /// Node draw at idle, watts.
    pub idle_watts: f64,
    /// Node draw at full load (Linpack), watts.
    pub load_watts: f64,
    /// Breaker rating per strip, amps.
    pub breaker_amps: f64,
    /// Line voltage.
    pub volts: f64,
    /// Derating factor for continuous load (NEC-style 80%).
    pub derate: f64,
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
            breaker_amps: 15.0,
            volts: 120.0,
            derate: 0.8,
            switch_watts: 1200.0,
        }
    }

    /// Total cluster draw at a load fraction in `[0, 1]`, watts.
    pub fn cluster_watts(&self, load: f64) -> f64 {
        assert!((0.0..=1.0).contains(&load));
        let node = self.idle_watts + (self.load_watts - self.idle_watts) * load;
        self.nodes as f64 * node + self.switch_watts
    }

    /// Maximum nodes per strip assuming `planning_watts` per node. The
    /// paper's incident: planning with too low a figure trips breakers.
    pub fn nodes_per_strip(&self, planning_watts: f64) -> u32 {
        let usable = self.breaker_amps * self.volts * self.derate;
        (usable / planning_watts).floor() as u32
    }

    /// Whether a strip loaded with `n` nodes at full load trips its
    /// breaker (instantaneous rating, no derate).
    pub fn strip_trips(&self, n: u32) -> bool {
        n as f64 * self.load_watts > self.breaker_amps * self.volts
    }

    /// Strips needed for the whole cluster at `planning_watts` per node.
    pub fn strips_needed(&self, planning_watts: f64) -> u32 {
        let per = self.nodes_per_strip(planning_watts).max(1);
        self.nodes.div_ceil(per)
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
    fn optimistic_planning_trips_breakers() {
        let p = PowerBudget::space_simulator();
        // Plan with the idle figure: 26 nodes/strip — but at full load
        // 26 x 105 W = 2730 W > 15 A x 120 V = 1800 W: the breaker trips.
        let optimistic = p.nodes_per_strip(p.idle_watts);
        assert!(p.strip_trips(optimistic));
        // Plan with a conservative full-load figure: no trip.
        let conservative = p.nodes_per_strip(p.load_watts);
        assert!(!p.strip_trips(conservative));
    }

    #[test]
    fn conservative_replan_needs_more_strips() {
        let p = PowerBudget::space_simulator();
        assert!(p.strips_needed(p.load_watts) > p.strips_needed(p.idle_watts));
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
