//! Leapfrog (kick–drift–kick) time integration.
//!
//! The paper's accuracy argument (§4.1) is that multipole force errors
//! are "exceeded by or are comparable to the time integration error and
//! discretization error"; this module supplies the symplectic integrator
//! those errors are measured against.
//!
//! [`step`] is the workspace's one N-body KDK step, leapfrog or comoving
//! ([`Kdk`]); its forces come from the serial tree ([`Forces::of`]) or one
//! host evaluation per replicated world ([`Forces::replicated`]), which
//! every rank [`charge`]s the same way.

use crate::gravity::{Accel, GravityConfig};
use crate::morton::BBox;
use crate::traverse::{group_accelerations, TraverseStats};
use crate::tree::{Body, Tree};
use msg::Comm;
use std::sync::Arc;

/// Fraction of peak the force kernel sustains in the virtual-time model
/// (the P4/gcc gravity micro-kernel reaches 790 of 5060 Mflop/s). The
/// replicated and the distributed force phases both charge at it.
pub(crate) const CPU_EFF: f64 = 790.0 / 5060.0;

/// The factors of one KDK [`step`]: velocities gain `open · acc`,
/// positions `drift · vel`, then velocities `close · acc` at the new ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kdk {
    pub open: f64,
    pub drift: f64,
    pub close: f64,
}

impl Kdk {
    /// The leapfrog step of `dt`: half kicks around a whole drift.
    pub fn leapfrog(dt: f64) -> Kdk {
        let (open, drift, close) = (0.5 * dt, dt, 0.5 * dt);
        Kdk { open, drift, close }
    }
}

/// One kick–drift–kick step. Kick and drift `bodies` with `accel`
/// (index-aligned, the forces the last step closed with), then `forces`
/// leaves the forces at the drifted positions in `accel` and hands back
/// the bodies in the order `accel` now follows — the tree it built over
/// them, or for a replica that adopts its forces off the wire, the bare
/// bodies — and those bodies are kicked in place.
pub fn step<T: AsMut<[Body]>>(
    mut bodies: Vec<Body>,
    accel: &mut Vec<Accel>,
    kdk: Kdk,
    forces: impl FnOnce(Vec<Body>, &mut Vec<Accel>) -> T,
) -> T {
    for (b, a) in bodies.iter_mut().zip(accel.iter()) {
        for d in 0..3 {
            b.vel[d] += kdk.open * a.acc[d];
            b.pos[d] += kdk.drift * b.vel[d];
        }
    }
    let mut out = forces(bodies, accel);
    for (b, a) in out.as_mut().iter_mut().zip(accel.iter()) {
        for d in 0..3 {
            b.vel[d] += kdk.close * a.acc[d];
        }
    }
    out
}

/// A body set in tree order with the forces on all of it.
pub struct Forces {
    /// The tree over the bodies; `accel` follows `tree.bodies`.
    pub tree: Tree,
    pub accel: Vec<Accel>,
    pub stats: TraverseStats,
}

impl Forces {
    /// Build the tree over `bodies` and walk it for every body. The group
    /// walk (SoA interaction-list engine) is the force path; a periodic
    /// tree spans the box, positions folded in, and walks per body.
    pub fn of(mut bodies: Vec<Body>, cfg: &GravityConfig) -> Forces {
        let tree = match cfg.periodic {
            None => Tree::build(bodies, cfg.leaf_max),
            Some(l) => {
                bodies
                    .iter_mut()
                    .for_each(|b| b.pos = b.pos.map(|x| x.rem_euclid(l)));
                let bbox = BBox {
                    center: [l / 2.0; 3],
                    half: l / 2.0,
                };
                Tree::build_in(bodies, bbox, cfg.leaf_max)
            }
        };
        let (accel, stats) = group_accelerations(&tree, cfg);
        Forces { tree, accel, stats }
    }

    /// The serial force provider of a [`step`]: [`Forces::of`], its counts
    /// added to `stats`; the step closes on the tree it built.
    pub fn serial<'a>(
        cfg: &'a GravityConfig,
        stats: &'a mut TraverseStats,
    ) -> impl FnOnce(Vec<Body>, &mut Vec<Accel>) -> Tree + 'a {
        move |drifted, accel| {
            let forces = Forces::of(drifted, cfg);
            *accel = forces.accel;
            stats.add(&forces.stats);
            forces.tree
        }
    }

    /// [`Forces::of`] on a body set every rank of `comm` holds: the host
    /// evaluates it once per world ([`Comm::replicated`]), a rank whose
    /// bodies differ in any bit evaluates its own, and every rank
    /// [`charge`]s its share.
    pub fn replicated(
        comm: &mut Comm,
        site: &'static str,
        bodies: Vec<Body>,
        cfg: &GravityConfig,
    ) -> Arc<Forces> {
        let forces = comm.replicated(site, &bodies, |b| Forces::of(b.clone(), cfg));
        charge(comm, &forces.stats, bodies.len(), cfg);
        forces
    }
}

/// Charge one rank's share of a force phase the modelled machine runs in
/// parallel: `1/size` of the walk's flops at `CPU_EFF` over `1/size` of
/// the `n` bodies' bytes, and `1/size` of its interactions to
/// `walk.interactions`.
pub fn charge(comm: &mut Comm, stats: &TraverseStats, n: usize, cfg: &GravityConfig) {
    let share = 1.0 / comm.size() as f64;
    let interactions = (stats.p2p + stats.m2p) as f64 * share;
    comm.obs_count("walk.interactions", interactions as u64);
    let bytes = (n * std::mem::size_of::<Body>()) as f64;
    comm.compute_eff(stats.flops(cfg.quadrupole) * share, bytes * share, CPU_EFF);
}

/// A running N-body simulation with a global timestep.
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
        let Forces { tree, accel, stats } = Forces::of(bodies, &cfg);
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

    /// One KDK step with the serial tree. The tree is rebuilt after the
    /// drift (bodies reorder, so positions, velocities and accelerations
    /// stay aligned by index) and dropped once its bodies are kicked.
    pub fn step(&mut self) {
        let bodies = std::mem::take(&mut self.bodies);
        let forces = Forces::serial(&self.cfg, &mut self.stats);
        self.bodies = step(bodies, &mut self.accel, Kdk::leapfrog(self.dt), forces).bodies;
        self.time += self.dt;
        self.steps += 1;
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// (kinetic, potential) energy, the potential from the forces the
    /// last step (or [`Simulation::new`]) computed at these positions.
    pub fn energy(&self) -> (f64, f64) {
        let kinetic: f64 = self
            .bodies
            .iter()
            .map(|b| 0.5 * b.mass * (b.vel[0].powi(2) + b.vel[1].powi(2) + b.vel[2].powi(2)))
            .sum();
        let potential: f64 = 0.5
            * self
                .bodies
                .iter()
                .zip(&self.accel)
                .map(|(b, a)| b.mass * a.pot)
                .sum::<f64>();
        (kinetic, potential)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::GravityConfig;
    use crate::models::plummer;
    use crate::tree::Body;
    use msg::BitEq;

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

    /// `n` Plummer bodies whose first `clump` share one position and one
    /// velocity, so they share one Morton key at every step.
    fn clumped(n: usize, clump: usize, seed: u64) -> Vec<Body> {
        let mut bodies = plummer(n, seed);
        for b in bodies.iter_mut().take(clump) {
            b.pos = [0.25, -0.125, 0.5];
            b.vel = [0.0, 0.1, -0.2];
        }
        bodies
    }

    /// The tree a step hands back — the one a query tick indexes — is the
    /// tree a fresh build over its stepped bodies gives, field for field:
    /// the closing kick moves only velocities, and the build's stable sort
    /// leaves bodies already in key order where they are, ties included.
    #[test]
    fn stepped_tree_equals_a_fresh_build_over_its_bodies() {
        let moments = |c: &crate::tree::Cell| {
            let m = &c.mom;
            let words = [&m.mass]
                .into_iter()
                .chain(&m.com)
                .chain(&m.quad)
                .chain([&m.bmax]);
            words.map(|v| v.to_bits()).collect::<Vec<u64>>()
        };
        for (bodies, leaf_max, ties) in
            [(plummer(600, 31), 8, false), (clumped(600, 40, 8), 4, true)]
        {
            let cfg = GravityConfig {
                leaf_max,
                eps: 0.05,
                ..Default::default()
            };
            let Forces {
                mut tree,
                mut accel,
                mut stats,
            } = Forces::of(bodies, &cfg);
            for _ in 0..3 {
                let forces = Forces::serial(&cfg, &mut stats);
                tree = step(tree.bodies, &mut accel, Kdk::leapfrog(0.01), forces);
                let fresh = Tree::build(tree.bodies.clone(), leaf_max);
                assert_eq!(tree.keys.windows(2).any(|w| w[0] == w[1]), ties);
                assert!(tree.bodies.bit_eq(&fresh.bodies));
                assert_eq!(tree.keys, fresh.keys);
                assert_eq!(tree.bbox, fresh.bbox);
                assert!(tree.map.iter().eq(fresh.map.iter()));
                assert_eq!(tree.cells.len(), fresh.cells.len());
                for (a, b) in tree.cells.iter().zip(&fresh.cells) {
                    assert_eq!(
                        (a.key, a.first_body, a.nbody, moments(a)),
                        (b.key, b.first_body, b.nbody, moments(b))
                    );
                }
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
