//! Leapfrog (kick–drift–kick) time integration.
//!
//! The paper's accuracy argument (§4.1) is that multipole force errors
//! are "exceeded by or are comparable to the time integration error and
//! discretization error"; this module supplies the symplectic integrator
//! those errors are measured against.

use crate::gravity::{Accel, GravityConfig};
use crate::traverse::{group_accelerations, TraverseStats};
use crate::tree::{Body, Tree};
use msg::BitEq;

/// A running N-body simulation with a global timestep.
#[derive(Clone)]
pub struct Simulation {
    pub bodies: Vec<Body>,
    pub cfg: GravityConfig,
    pub dt: f64,
    pub time: f64,
    pub steps: u64,
    accel: Vec<Accel>,
    /// Cumulative interaction counts over all steps.
    pub stats: TraverseStats,
}

impl Simulation {
    /// Set up and compute initial accelerations.
    pub fn new(bodies: Vec<Body>, cfg: GravityConfig, dt: f64) -> Simulation {
        assert!(dt > 0.0);
        let tree = Tree::build(bodies, cfg.leaf_max);
        // The group walk (SoA interaction-list engine) is the default
        // force path; it falls back to the per-body walk on periodic
        // configurations.
        let (accel, stats) = group_accelerations(&tree, &cfg);
        Simulation {
            bodies: tree.bodies,
            cfg,
            dt,
            time: 0.0,
            steps: 0,
            accel,
            stats,
        }
    }

    /// One KDK step. The tree is rebuilt after the drift (bodies reorder,
    /// so positions, velocities and accelerations stay aligned by index).
    pub fn step(&mut self) {
        let dt = self.dt;
        // Kick (half) + drift.
        for (b, a) in self.bodies.iter_mut().zip(&self.accel) {
            for d in 0..3 {
                b.vel[d] += 0.5 * dt * a.acc[d];
                b.pos[d] += dt * b.vel[d];
            }
        }
        // New forces at the drifted positions.
        let tree = Tree::build(std::mem::take(&mut self.bodies), self.cfg.leaf_max);
        let (accel, stats) = group_accelerations(&tree, &self.cfg);
        self.bodies = tree.bodies;
        self.accel = accel;
        self.stats.add(&stats);
        // Kick (half).
        for (b, a) in self.bodies.iter_mut().zip(&self.accel) {
            for d in 0..3 {
                b.vel[d] += 0.5 * dt * a.acc[d];
            }
        }
        self.time += dt;
        self.steps += 1;
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// (kinetic, potential) energy using the current tree forces'
    /// potential (recomputed through a fresh traversal).
    pub fn energy(&mut self) -> (f64, f64) {
        let tree = Tree::build(std::mem::take(&mut self.bodies), self.cfg.leaf_max);
        let (accel, _) = group_accelerations(&tree, &self.cfg);
        let kinetic: f64 = tree
            .bodies
            .iter()
            .map(|b| 0.5 * b.mass * (b.vel[0].powi(2) + b.vel[1].powi(2) + b.vel[2].powi(2)))
            .sum();
        let potential: f64 = 0.5
            * tree
                .bodies
                .iter()
                .zip(&accel)
                .map(|(b, a)| b.mass * a.pot)
                .sum::<f64>();
        self.bodies = tree.bodies;
        self.accel = accel;
        (kinetic, potential)
    }
}

/// Two simulations that are `bit_eq` take bit-identical steps from here
/// on: every field a step reads or carries forward is compared by
/// representation (`TraverseStats` holds only integers and a flag).
impl BitEq for Simulation {
    fn bit_eq(&self, o: &Self) -> bool {
        self.bodies.bit_eq(&o.bodies)
            && self.cfg.bit_eq(&o.cfg)
            && self.dt.bit_eq(&o.dt)
            && self.time.bit_eq(&o.time)
            && self.steps == o.steps
            && self.accel.bit_eq(&o.accel)
            && self.stats == o.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::GravityConfig;
    use crate::models::plummer;
    use crate::tree::Body;

    #[test]
    fn circular_binary_orbits() {
        // Two equal masses m=0.5 at ±0.5 on x, circular velocity
        // v² = G m_other / (4 r²) ... for separation d=1, each orbits the
        // COM at r=0.5 with v = sqrt(G·M_tot/d)/sqrt(2)... Work it out:
        // a = G m / d² = 0.5; centripetal v²/r = v²/0.5 → v = 0.5.
        let mut bodies = vec![
            Body::at([-0.5, 0.0, 0.0], 0.5),
            Body::at([0.5, 0.0, 0.0], 0.5),
        ];
        bodies[0].vel = [0.0, -0.5, 0.0];
        bodies[1].vel = [0.0, 0.5, 0.0];
        let cfg = GravityConfig {
            theta: 0.1,
            eps: 0.0,
            ..Default::default()
        };
        // Period T = 2πr/v = 2π·0.5/0.5 = 2π.
        let period = std::f64::consts::TAU;
        let dt = period / 400.0;
        let mut sim = Simulation::new(bodies, cfg, dt);
        sim.run(400);
        // After one period the bodies return near their start.
        for b in &sim.bodies {
            assert!(
                (b.pos[0].abs() - 0.5).abs() < 0.02 && b.pos[1].abs() < 0.05,
                "binary drifted: {:?}",
                b.pos
            );
        }
    }

    #[test]
    fn energy_conserved_over_plummer_evolution() {
        let bodies = plummer(150, 77);
        let cfg = GravityConfig {
            theta: 0.4,
            eps: 0.05,
            ..Default::default()
        };
        let mut sim = Simulation::new(bodies, cfg, 0.005);
        let (k0, w0) = sim.energy();
        let e0 = k0 + w0;
        sim.run(40);
        let (k1, w1) = sim.energy();
        let e1 = k1 + w1;
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 0.02, "energy drift {drift} (E {e0} → {e1})");
    }

    #[test]
    fn leapfrog_is_time_reversible() {
        let bodies = plummer(60, 5);
        let cfg = GravityConfig {
            theta: 0.3,
            eps: 0.05,
            ..Default::default()
        };
        let mut sim = Simulation::new(bodies, cfg, 0.01);
        let start: Vec<(u64, [f64; 3])> = sim.bodies.iter().map(|b| (b.id, b.pos)).collect();
        sim.run(10);
        // Reverse velocities and integrate back.
        for b in &mut sim.bodies {
            for d in 0..3 {
                b.vel[d] = -b.vel[d];
            }
        }
        let mut back = Simulation::new(std::mem::take(&mut sim.bodies), cfg, 0.01);
        back.run(10);
        let mut end: Vec<(u64, [f64; 3])> = back.bodies.iter().map(|b| (b.id, b.pos)).collect();
        let mut start = start;
        start.sort_by_key(|x| x.0);
        end.sort_by_key(|x| x.0);
        for ((_, p0), (_, p1)) in start.iter().zip(&end) {
            for d in 0..3 {
                // Reversibility is exact for the integrator; tree force
                // approximations differ slightly between passes.
                assert!((p0[d] - p1[d]).abs() < 1e-3, "{p0:?} vs {p1:?}");
            }
        }
    }

    #[test]
    fn work_counters_accumulate() {
        let bodies = plummer(100, 9);
        let mut sim = Simulation::new(bodies, GravityConfig::default(), 0.01);
        let s0 = sim.stats.interactions();
        sim.run(2);
        assert!(sim.stats.interactions() > s0);
        assert_eq!(sim.steps, 2);
        assert!((sim.time - 0.02).abs() < 1e-12);
    }
}
