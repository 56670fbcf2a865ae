//! The expanding-volume simulation driver for the spherical problem.
//!
//! Physical (non-comoving) coordinates: the sphere's Hubble flow makes it
//! expand like an EdS patch while perturbations collapse inside — exactly
//! the "initial evolution of a cosmological N-body simulation" the
//! paper's Table 6 workload measures.

use hot::gravity::GravityConfig;
use hot::integrate::Simulation;
use hot::traverse::TraverseStats;
use hot::tree::{Body, Tree};

/// A cosmological sphere simulation.
pub struct CosmoSimulation {
    pub sim: Simulation,
    /// Effective scale factor: mean radius relative to start.
    r0: f64,
}

impl CosmoSimulation {
    pub fn new(bodies: Vec<Body>, theta: f64, eps: f64, dt: f64) -> CosmoSimulation {
        let cfg = GravityConfig {
            theta,
            eps,
            ..GravityConfig::default()
        };
        let sim = Simulation::new(bodies, cfg, dt);
        let r0 = Self::mean_radius_of(&sim.bodies);
        CosmoSimulation { sim, r0 }
    }

    fn mean_radius_of(bodies: &[Body]) -> f64 {
        bodies
            .iter()
            .map(|b| (b.pos[0].powi(2) + b.pos[1].powi(2) + b.pos[2].powi(2)).sqrt())
            .sum::<f64>()
            / bodies.len() as f64
    }

    /// Mean radius relative to the initial value — the effective "a".
    pub fn scale_factor(&self) -> f64 {
        Self::mean_radius_of(&self.sim.bodies) / self.r0
    }

    /// A clumping statistic: the rms of the local density proxy (inverse
    /// cube of the distance to the ~8th neighbour via tree leaf sizes).
    /// We use the cheap surrogate of mass-weighted mean leaf density.
    pub fn clumping(&self) -> f64 {
        let tree = Tree::build(self.sim.bodies.clone(), 8);
        let mut num = 0.0;
        let mut den = 0.0;
        for c in &tree.cells {
            if !c.is_leaf || c.nbody == 0 {
                continue;
            }
            let vol = (2.0 * c.half).powi(3);
            let rho = c.mom.mass / vol;
            num += c.mom.mass * rho;
            den += c.mom.mass;
        }
        num / den
    }

    pub fn step(&mut self) {
        self.sim.step();
    }

    pub fn run(&mut self, steps: usize) {
        self.sim.run(steps);
    }

    pub fn stats(&self) -> TraverseStats {
        self.sim.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sphere::standard_problem;

    #[test]
    fn hubble_flow_expands_the_sphere() {
        let bodies = standard_problem(800, 0.05, 1);
        let mut sim = CosmoSimulation::new(bodies, 0.7, 0.02, 0.01);
        assert!((sim.scale_factor() - 1.0).abs() < 1e-9);
        sim.run(15);
        let a = sim.scale_factor();
        assert!(a > 1.05, "no expansion: a = {a}");
        // EdS: expansion decelerates but continues.
        sim.run(15);
        assert!(sim.scale_factor() > a);
    }

    #[test]
    fn structure_grows_during_expansion() {
        let bodies = standard_problem(1200, 0.3, 2);
        let mut sim = CosmoSimulation::new(bodies, 0.7, 0.01, 0.01);
        let c0 = sim.clumping();
        sim.run(30);
        // Normalize away the dilution from overall expansion: compare
        // clumping × a³ (mean density drops as a⁻³).
        let a = sim.scale_factor();
        let c1 = sim.clumping() * a.powi(3);
        assert!(c1 > c0 * 1.02, "no structure growth: {c0} → {c1} (a = {a})");
    }

    #[test]
    fn interaction_work_accumulates() {
        let bodies = standard_problem(500, 0.1, 3);
        let mut sim = CosmoSimulation::new(bodies, 0.7, 0.02, 0.01);
        sim.run(2);
        assert!(sim.stats().interactions() > 0);
    }
}

/// Comoving periodic-box integration (Einstein–de Sitter): the actual
/// configuration of the paper's Figure 7 production runs.
///
/// Comoving positions `x` in a unit box, canonical momenta `p = a²ẋ`;
/// the standard cosmological KDK with drift factor `∫da/(a³H)` and kick
/// factor `∫da/(a²H)`. Gravity uses the minimum-image tree walk; a
/// perfectly uniform distribution feels zero net minimum-image force,
/// so the force is sourced by fluctuations, as the comoving equations
/// require.
pub struct BoxSimulation {
    /// Comoving positions in `[0, box_size)`; `vel` stores p = a²ẋ.
    pub bodies: Vec<Body>,
    pub a: f64,
    pub box_size: f64,
    pub h0: f64,
    pub cfg: GravityConfig,
    pub stats: TraverseStats,
}

impl BoxSimulation {
    /// `bodies` must carry comoving positions and physical peculiar
    /// velocities `v_pec = a·ẋ` (what `zeldovich::particles` produces,
    /// in box units per 1/H0); they are converted to canonical momenta.
    pub fn new(mut bodies: Vec<Body>, box_size: f64, a_start: f64, theta: f64, eps: f64) -> Self {
        assert!(!bodies.is_empty());
        let total_mass: f64 = bodies.iter().map(|b| b.mass).sum();
        let rho_mean = total_mass / box_size.powi(3);
        // EdS: H₀² = 8πGρ̄/3 with ρ̄ the comoving density and G = 1.
        let h0 = (8.0 * std::f64::consts::PI * rho_mean / 3.0).sqrt();
        for b in &mut bodies {
            for d in 0..3 {
                // p = a²ẋ = a·v_pec; the ICs give v_pec in units of H₀·L,
                // and our time unit makes H(a_start) = h0·a^(-3/2).
                b.vel[d] *= a_start * h0;
                b.pos[d] = b.pos[d].rem_euclid(box_size);
            }
        }
        let cfg = GravityConfig {
            theta,
            eps,
            periodic: Some(box_size),
            ..GravityConfig::default()
        };
        BoxSimulation {
            bodies,
            a: a_start,
            box_size,
            h0,
            cfg,
            stats: TraverseStats::default(),
        }
    }

    fn h_of_a(&self, a: f64) -> f64 {
        self.h0 * a.powf(-1.5) // EdS
    }

    /// ∫ f(a) da by midpoint rule over the step.
    fn integral<F: Fn(f64) -> f64>(&self, a0: f64, a1: f64, f: F) -> f64 {
        let n = 16;
        let da = (a1 - a0) / n as f64;
        (0..n).map(|i| f(a0 + (i as f64 + 0.5) * da) * da).sum()
    }

    fn forces(&mut self) -> Vec<hot::gravity::Accel> {
        let tree = Tree::build_in(
            std::mem::take(&mut self.bodies),
            hot::morton::BBox {
                center: [self.box_size / 2.0; 3],
                half: self.box_size / 2.0,
            },
            self.cfg.leaf_max,
        );
        // group_accelerations detects the periodic config and falls back
        // to the per-body minimum-image walk (stats.group_fallback).
        let (acc, stats) = hot::traverse::group_accelerations(&tree, &self.cfg);
        self.bodies = tree.bodies;
        self.stats.add(&stats);
        acc
    }

    /// One KDK step from `a` to `a + da`.
    pub fn step(&mut self, da: f64) {
        let (a0, a1) = (self.a, self.a + da);
        let am = 0.5 * (a0 + a1);
        let kick_half_1 = self.integral(a0, am, |a| 1.0 / (a * a * self.h_of_a(a)));
        let kick_half_2 = self.integral(am, a1, |a| 1.0 / (a * a * self.h_of_a(a)));
        let drift = self.integral(a0, a1, |a| 1.0 / (a * a * a * self.h_of_a(a)));
        let acc = self.forces();
        let l = self.box_size;
        for (b, g) in self.bodies.iter_mut().zip(&acc) {
            for d in 0..3 {
                b.vel[d] += g.acc[d] * kick_half_1;
                b.pos[d] = (b.pos[d] + b.vel[d] * drift).rem_euclid(l);
            }
        }
        let acc = self.forces();
        for (b, g) in self.bodies.iter_mut().zip(&acc) {
            for d in 0..3 {
                b.vel[d] += g.acc[d] * kick_half_2;
            }
        }
        self.a = a1;
    }

    /// Run until scale factor `a_end` in steps of `da`.
    pub fn run_to(&mut self, a_end: f64, da: f64) {
        while self.a < a_end - 1e-12 {
            let step = da.min(a_end - self.a);
            self.step(step);
        }
    }
}

#[cfg(test)]
mod box_tests {
    use super::*;
    use crate::analysis::{cic_density, grid_power};
    use crate::expansion::Cosmology;
    use crate::power::PowerSpectrum;
    use crate::zeldovich;

    #[test]
    fn linear_modes_grow_like_the_growth_factor() {
        // ZA box at a = 0.05, evolved to a = 0.15: large-scale power
        // should grow by (0.15/0.05)² = 9 (EdS linear theory).
        let ps = PowerSpectrum::new(Cosmology::eds());
        let n = 8;
        let box_mpc = 400.0; // large box: modes stay linear
        let field = zeldovich::realize(&ps, n, box_mpc, 31);
        let a0 = 0.05;
        // Build bodies in unit-box coordinates.
        let mut bodies = zeldovich::particles(&field, &Cosmology::eds(), a0, 1.0);
        for b in &mut bodies {
            for d in 0..3 {
                b.pos[d] /= box_mpc;
                b.vel[d] /= box_mpc;
            }
        }
        let grid = 8;
        let p_of = |bodies: &[Body]| -> f64 {
            let delta = cic_density(bodies, grid, 1.0);
            let spec = grid_power(&delta, grid, 1.0);
            // Average the two lowest k bins for stability.
            (spec[0].1 + spec[1].1) / 2.0
        };
        let p0 = p_of(&bodies);
        let mut sim = BoxSimulation::new(bodies, 1.0, a0, 0.6, 0.005);
        sim.run_to(3.0 * a0, 0.01);
        let p1 = p_of(&sim.bodies);
        let growth = p1 / p0;
        assert!(
            growth > 4.0 && growth < 20.0,
            "power grew x{growth}, expected ~9"
        );
    }

    #[test]
    fn uniform_lattice_stays_put() {
        // A perfect lattice feels no minimum-image force: comoving
        // positions must not move.
        let n = 6;
        let mut bodies = Vec::new();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let mut b = Body::at(
                        [
                            (x as f64 + 0.5) / n as f64,
                            (y as f64 + 0.5) / n as f64,
                            (z as f64 + 0.5) / n as f64,
                        ],
                        1.0 / (n * n * n) as f64,
                    );
                    b.id = (z * n * n + y * n + x) as u64;
                    bodies.push(b);
                }
            }
        }
        let start = bodies.clone();
        let mut sim = BoxSimulation::new(bodies, 1.0, 0.1, 0.5, 0.01);
        sim.run_to(0.15, 0.01);
        let mut max_move: f64 = 0.0;
        let by_id: std::collections::HashMap<u64, [f64; 3]> =
            start.iter().map(|b| (b.id, b.pos)).collect();
        for b in &sim.bodies {
            for d in 0..3 {
                let mut dx = (b.pos[d] - by_id[&b.id][d]).abs();
                dx = dx.min(1.0 - dx);
                max_move = max_move.max(dx);
            }
        }
        assert!(max_move < 5e-3, "lattice drifted by {max_move}");
    }
}
