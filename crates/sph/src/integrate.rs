//! SPH configuration, CFL limit and the one-rank driver.

use crate::eos::Eos;
use crate::forces::Viscosity;
use crate::neutrino::NeutrinoConfig;
use crate::parallel::DistributedSph;
use crate::particle::SphParticle;

/// Simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct SphConfig {
    pub eos: Eos,
    pub viscosity: Viscosity,
    /// None disables self-gravity.
    pub gravity_theta: Option<f64>,
    /// None disables neutrino transport.
    pub neutrino: Option<NeutrinoConfig>,
    /// CFL safety factor.
    pub cfl: f64,
    /// Hard bounds on the timestep.
    pub dt_min: f64,
    pub dt_max: f64,
}

impl Default for SphConfig {
    fn default() -> Self {
        SphConfig {
            eos: Eos::GammaLaw { gamma: 5.0 / 3.0 },
            viscosity: Viscosity::default(),
            gravity_theta: Some(0.6),
            neutrino: None,
            cfl: 0.3,
            dt_min: 1e-9,
            dt_max: 0.05,
        }
    }
}

/// A running SPH simulation: [`DistributedSph`] on a world of one rank.
pub struct SphSimulation {
    pub parts: Vec<SphParticle>,
    pub cfg: SphConfig,
    pub time: f64,
    pub steps: u64,
    h_hint: f64,
}

impl SphSimulation {
    /// Set up: build the tree, compute densities, EOS and initial forces.
    pub fn new(parts: Vec<SphParticle>, cfg: SphConfig) -> SphSimulation {
        assert!(!parts.is_empty());
        let sim = one_rank(|c| DistributedSph::with_config(c, parts.clone(), cfg));
        SphSimulation {
            parts: sim.shard,
            cfg,
            time: 0.0,
            steps: 0,
            h_hint: sim.h_hint,
        }
    }

    /// The CFL timestep: `cfl · min h/(cs + |v| + ε)`, floored at `dt_min`.
    pub fn cfl_dt(&self) -> f64 {
        cfl_limit(&self.parts, &self.cfg)
    }

    /// One KDK leapfrog step; returns the dt taken.
    pub fn step(&mut self) -> f64 {
        let dt = self.cfl_dt();
        let state = DistributedSph {
            shard: std::mem::take(&mut self.parts),
            cfg: self.cfg,
            time: self.time,
            h_hint: self.h_hint,
        };
        let sim = one_rank(|c| {
            let mut sim = state.clone();
            sim.step(c, dt);
            sim
        });
        (self.parts, self.time, self.h_hint) = (sim.shard, sim.time, sim.h_hint);
        self.steps += 1;
        dt
    }

    /// Peak density over particles (bounce diagnostic).
    pub fn max_density(&self) -> f64 {
        self.parts.iter().map(|p| p.rho).fold(0.0, f64::max)
    }

    /// Total (kinetic, thermal, neutrino) energies.
    pub fn energies(&self) -> (f64, f64, f64) {
        let mut ke = 0.0;
        let mut th = 0.0;
        let mut nu = 0.0;
        for p in &self.parts {
            ke += 0.5 * p.mass * p.speed().powi(2);
            th += p.mass * p.u;
            nu += p.mass * p.enu;
        }
        (ke, th, nu)
    }

    /// Total angular momentum about the origin.
    pub fn angular_momentum(&self) -> [f64; 3] {
        let mut l = [0.0; 3];
        for p in &self.parts {
            let j = p.specific_angular_momentum();
            for d in 0..3 {
                l[d] += p.mass * j[d];
            }
        }
        l
    }
}

/// `f` on the one rank of a plain world.
fn one_rank<T: Send>(f: impl Fn(&mut msg::Comm) -> T + Sync) -> T {
    msg::run(1, f).pop().expect("a world of one rank")
}

/// The CFL limit over `parts`, within `[dt_min, dt_max]`: `cfl · min
/// h/(cs + |v| + ε)`, and `cfl · min √(h/|a|)` over accelerating
/// particles.
pub(crate) fn cfl_limit(parts: &[SphParticle], cfg: &SphConfig) -> f64 {
    let (cfl, mut dt) = (cfg.cfl, cfg.dt_max);
    for p in parts {
        let signal = p.cs + p.speed() + 1e-12;
        dt = dt.min(cfl * p.h / signal);
        let a = (p.acc[0].powi(2) + p.acc[1].powi(2) + p.acc[2].powi(2)).sqrt();
        if a > 0.0 {
            dt = dt.min(cfl * (p.h / a).sqrt());
        }
    }
    dt.max(cfg.dt_min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn hot_ball(n: usize, u: f64, seed: u64) -> Vec<SphParticle> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let r = rng.gen::<f64>().cbrt();
                let costh = rng.gen_range(-1.0..1.0f64);
                let sinth = (1.0 - costh * costh).sqrt();
                let phi = rng.gen::<f64>() * std::f64::consts::TAU;
                SphParticle::new(
                    [r * sinth * phi.cos(), r * sinth * phi.sin(), r * costh],
                    [0.0; 3],
                    1.0 / n as f64,
                    u,
                    i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn hot_ball_expands_without_gravity() {
        let cfg = SphConfig {
            gravity_theta: None,
            ..Default::default()
        };
        let mut sim = SphSimulation::new(hot_ball(400, 5.0, 1), cfg);
        let r0: f64 = sim.parts.iter().map(|p| p.radius()).sum::<f64>() / 400.0;
        for _ in 0..10 {
            sim.step();
        }
        let r1: f64 = sim.parts.iter().map(|p| p.radius()).sum::<f64>() / 400.0;
        assert!(r1 > r0 * 1.02, "no expansion: {r0} → {r1}");
        // Thermal energy converts to kinetic.
        let (ke, _, _) = sim.energies();
        assert!(ke > 0.0);
    }

    #[test]
    fn cold_selfgravitating_ball_contracts() {
        let cfg = SphConfig {
            eos: Eos::GammaLaw { gamma: 5.0 / 3.0 },
            ..Default::default()
        };
        let mut sim = SphSimulation::new(hot_ball(400, 1e-4, 2), cfg);
        let r0: f64 = sim.parts.iter().map(|p| p.radius()).sum::<f64>() / 400.0;
        for _ in 0..10 {
            sim.step();
        }
        let r1: f64 = sim.parts.iter().map(|p| p.radius()).sum::<f64>() / 400.0;
        assert!(r1 < r0 * 0.99, "no contraction: {r0} → {r1}");
    }

    #[test]
    fn angular_momentum_is_conserved() {
        let mut parts = hot_ball(400, 0.5, 3);
        // Solid-body rotation about z.
        for p in &mut parts {
            let omega = 0.5;
            p.vel[0] = -omega * p.pos[1];
            p.vel[1] = omega * p.pos[0];
        }
        let mut sim = SphSimulation::new(parts, SphConfig::default());
        let l0 = sim.angular_momentum();
        for _ in 0..10 {
            sim.step();
        }
        let l1 = sim.angular_momentum();
        assert!(
            (l1[2] - l0[2]).abs() < 0.02 * l0[2].abs(),
            "Lz {} → {}",
            l0[2],
            l1[2]
        );
    }

    #[test]
    fn timestep_respects_bounds() {
        let cfg = SphConfig::default();
        let sim = SphSimulation::new(hot_ball(200, 1.0, 4), cfg);
        let dt = sim.cfl_dt();
        assert!(dt >= cfg.dt_min && dt <= cfg.dt_max);
    }

    /// FNV-1a over the bits of `(id, pos, vel, acc, u, rho, h, enu,
    /// denu_dt)` in id order of `rotating_core(500)` (gravity and
    /// neutrino transport on) after `new` and three CFL steps.
    fn serial_end_state_digest() -> u64 {
        let (parts, cfg) = crate::collapse::rotating_core(&crate::collapse::CollapseSetup {
            n_particles: 500,
            ..Default::default()
        });
        assert!(cfg.gravity_theta.is_some() && cfg.neutrino.is_some());
        let mut sim = SphSimulation::new(parts, cfg);
        for _ in 0..3 {
            sim.step();
        }
        let mut parts = sim.parts;
        parts.sort_by_key(|p| p.id);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in &parts {
            let vectors = [p.pos, p.vel, p.acc].into_iter().flatten();
            let scalars = [p.u, p.rho, p.h, p.enu, p.denu_dt];
            let state = vectors.chain(scalars).map(f64::to_bits);
            for word in std::iter::once(p.id).chain(state) {
                for byte in word.to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Recorded when the serial stepper became the one-rank
    /// `DistributedSph`: particles in Morton order, gravity from the
    /// `hot::parallel` walk (was `883c25dc78c33cc5`).
    #[test]
    fn serial_stepper_end_state_is_pinned() {
        let got = serial_end_state_digest();
        assert_eq!(got, 0xe674_5d50_c1ab_7e4a, "digest {got:016x}");
    }

    #[test]
    fn internal_energy_stays_nonnegative() {
        let cfg = SphConfig {
            neutrino: Some(crate::neutrino::NeutrinoConfig {
                emit0: 100.0, // violent cooling
                ..Default::default()
            }),
            gravity_theta: None,
            ..Default::default()
        };
        let mut sim = SphSimulation::new(hot_ball(200, 0.5, 5), cfg);
        for _ in 0..5 {
            sim.step();
        }
        for p in &sim.parts {
            assert!(p.u >= 0.0 && p.enu >= 0.0);
        }
    }
}
