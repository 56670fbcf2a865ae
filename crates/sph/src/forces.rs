//! SPH momentum and energy equations, artificial viscosity, and tree
//! gravity — "the coupling of gravitational and pressure forces of the
//! core as it collapses down to nuclear densities" (§4.4).

use crate::eos::Eos;
use crate::kernel;
use crate::neighbors::NeighborTree;
use crate::particle::SphParticle;
use hot::gravity::GravityConfig;
use hot::traverse;

/// Artificial viscosity parameters (Monaghan 1992).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viscosity {
    pub alpha: f64,
    pub beta: f64,
}

impl Default for Viscosity {
    fn default() -> Self {
        Viscosity {
            alpha: 1.0,
            beta: 2.0,
        }
    }
}

/// Evaluate the EOS for every particle (fills `pres`, `cs`).
pub fn apply_eos(parts: &mut [SphParticle], eos: &Eos) {
    for p in parts {
        let (pres, cs) = eos.eval(p.rho, p.u.max(0.0));
        p.pres = pres;
        p.cs = cs;
    }
}

/// Compute hydrodynamic accelerations and du/dt (symmetric form, mean
/// smoothing length, Monaghan Π viscosity). Resets `acc`/`du_dt` first.
///
/// Gather formulation: each particle sums the contribution of every
/// interacting pair from its own side, with no writes to other
/// particles' accumulators. Momentum conservation is
/// still exact because the pair term is computed bitwise-antisymmetric
/// on the two sides: `grad_w` is exactly odd in floating point (every
/// component of `dx` only flips sign, and products of two flipped signs
/// are exact), and the symmetric `coef` is invariant under swapping i/j
/// (commutative sums of identical rounded terms).
pub fn hydro_forces(parts: &mut [SphParticle], nt: &NeighborTree, visc: &Viscosity) {
    hydro_forces_targets(parts, nt, visc, parts.len());
}

/// [`hydro_forces`] for the first `n_targets` particles only: the rest
/// of `parts` (ghosts, in a distributed run) are sources — every pair
/// term reads their `h`, `rho`, `pres`, `cs` and `vel` — but their `acc`
/// and `du_dt` are left as they came. Rows `..n_targets` are bit for bit
/// those of the full evaluation.
///
/// Candidates come from [`NeighborTree::pair_visit`], which finds every
/// pair with r < SUPPORT·h̄ from both sides, so the pair set does not
/// depend on particle order.
pub(crate) fn hydro_forces_targets(
    parts: &mut [SphParticle],
    nt: &NeighborTree,
    visc: &Viscosity,
    n_targets: usize,
) {
    // Cell bounds over sources too: a wide ghost reaches a target from
    // further than the target's own h.
    let hb = nt.h_bounds(parts);
    let snap: &[SphParticle] = parts;
    let sums: Vec<([f64; 3], f64)> = snap[..n_targets]
        .iter()
        .enumerate()
        .map(|(i, pi)| {
            let mut acc = [0.0f64; 3];
            let mut dudt = 0.0f64;
            if pi.rho <= 0.0 {
                return (acc, dudt);
            }
            nt.pair_visit(pi.pos, pi.h, &hb, |j| {
                if j == i {
                    return; // no self-interaction
                }
                let pj = &snap[j];
                if pj.rho <= 0.0 {
                    return;
                }
                let dx = [
                    pi.pos[0] - pj.pos[0],
                    pi.pos[1] - pj.pos[1],
                    pi.pos[2] - pj.pos[2],
                ];
                let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
                let hbar = 0.5 * (pi.h + pj.h);
                if r2 >= (kernel::SUPPORT * hbar).powi(2) || r2 == 0.0 {
                    return;
                }
                let dv = [
                    pi.vel[0] - pj.vel[0],
                    pi.vel[1] - pj.vel[1],
                    pi.vel[2] - pj.vel[2],
                ];
                let vdotr = dv[0] * dx[0] + dv[1] * dx[1] + dv[2] * dx[2];
                // Monaghan viscosity: only for approaching pairs.
                let pi_visc = if vdotr < 0.0 {
                    let mu = hbar * vdotr / (r2 + 0.01 * hbar * hbar);
                    let cbar = 0.5 * (pi.cs + pj.cs);
                    let rhobar = 0.5 * (pi.rho + pj.rho);
                    (-visc.alpha * cbar * mu + visc.beta * mu * mu) / rhobar
                } else {
                    0.0
                };
                let gw = kernel::grad_w(dx, hbar);
                let coef = pi.pres / (pi.rho * pi.rho) + pj.pres / (pj.rho * pj.rho) + pi_visc;
                for d in 0..3 {
                    acc[d] -= pj.mass * coef * gw[d];
                }
                let gdotv = gw[0] * dv[0] + gw[1] * dv[1] + gw[2] * dv[2];
                dudt += 0.5 * pj.mass * coef * gdotv;
            });
            (acc, dudt)
        })
        .collect();
    for (p, (a, du)) in parts.iter_mut().zip(sums) {
        p.acc = a;
        p.du_dt = du;
    }
}

/// Add self-gravity accelerations from the tree (softened by the local
/// smoothing length scale `eps`). The stepper walks gravity with
/// `hot::parallel` instead; this per-body walk stays for hostbench's
/// replay of the serial right-hand side's stages.
pub fn add_gravity(parts: &mut [SphParticle], nt: &NeighborTree, theta: f64, eps: f64) {
    let cfg = GravityConfig {
        theta,
        eps,
        ..GravityConfig::default()
    };
    let (accels, _) = traverse::tree_accelerations(nt.tree(), &cfg);
    // The tree reordered bodies; map back through Body::id.
    for (body, a) in nt.tree().bodies.iter().zip(&accels) {
        let i = body.id as usize;
        for d in 0..3 {
            parts[i].acc[d] += a.acc[d];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::compute_density;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn gas_ball(n: usize, u: f64, seed: u64) -> Vec<SphParticle> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                // Uniform ball of radius 1.
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

    fn prepare(parts: &mut [SphParticle], eos: &Eos) -> NeighborTree {
        let nt = NeighborTree::build(parts);
        compute_density(parts, &nt);
        apply_eos(parts, eos);
        nt
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_target_prefix_equals_full_evaluation(seed in 0u64..1000, n in 1usize..120) {
            // Moving gas at its adapted h, so the viscous term and the
            // h_max candidate radius are both in play; the sentinels show
            // a write to a source row.
            let mut before = gas_ball(n, 2.0, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
            for p in &mut before {
                p.vel = [
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ];
            }
            let nt = prepare(&mut before, &Eos::GammaLaw { gamma: 5.0 / 3.0 });
            for p in &mut before {
                p.acc = [7.0, -7.0, 0.5];
                p.du_dt = -3.0;
            }
            let visc = Viscosity::default();
            let mut full = before.clone();
            hydro_forces(&mut full, &nt, &visc);
            for k in 0..=n {
                let mut split = before.clone();
                hydro_forces_targets(&mut split, &nt, &visc, k);
                for (a, b) in split[..k].iter().zip(&full) {
                    let got = [a.acc[0], a.acc[1], a.acc[2], a.du_dt].map(f64::to_bits);
                    let want = [b.acc[0], b.acc[1], b.acc[2], b.du_dt].map(f64::to_bits);
                    prop_assert_eq!(got, want, "(acc, du_dt) of {} at k = {}", a.id, k);
                }
                prop_assert_eq!(&split[k..], &before[k..], "sources written at k = {}", k);
            }
        }
    }

    #[test]
    fn pressure_pushes_a_hot_ball_apart() {
        let mut parts = gas_ball(800, 10.0, 1);
        let eos = Eos::GammaLaw { gamma: 5.0 / 3.0 };
        let nt = prepare(&mut parts, &eos);
        hydro_forces(&mut parts, &nt, &Viscosity::default());
        // The interior has a uniform pressure (no net force); the outer
        // shell, where the pressure gradient lives, accelerates outward.
        let mut mean_proj = 0.0;
        let mut total = 0;
        for p in &parts {
            let r = p.radius();
            if r < 0.6 {
                continue;
            }
            mean_proj += (p.acc[0] * p.pos[0] + p.acc[1] * p.pos[1] + p.acc[2] * p.pos[2]) / r;
            total += 1;
        }
        mean_proj /= total as f64;
        assert!(total > 100);
        assert!(mean_proj > 0.0, "mean radial acceleration {mean_proj}");
    }

    #[test]
    fn momentum_is_conserved_exactly() {
        let mut parts = gas_ball(600, 5.0, 2);
        // Give it some random motion so viscosity kicks in too.
        let mut rng = SmallRng::seed_from_u64(3);
        for p in &mut parts {
            p.vel = [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ];
        }
        let eos = Eos::GammaLaw { gamma: 5.0 / 3.0 };
        let nt = prepare(&mut parts, &eos);
        hydro_forces(&mut parts, &nt, &Viscosity::default());
        let mut net = [0.0; 3];
        let mut scale = 0.0;
        for p in &parts {
            for d in 0..3 {
                net[d] += p.mass * p.acc[d];
            }
            scale += p.mass * (p.acc[0].powi(2) + p.acc[1].powi(2) + p.acc[2].powi(2)).sqrt();
        }
        let mag = (net[0] * net[0] + net[1] * net[1] + net[2] * net[2]).sqrt();
        assert!(mag < 1e-10 * scale, "net force {mag} vs scale {scale}");
    }

    #[test]
    fn viscous_compression_heats() {
        // Two streams colliding: du/dt must be positive where they meet.
        let mut parts = gas_ball(800, 0.1, 4);
        for p in &mut parts {
            p.vel = [-2.0 * p.pos[0].signum(), 0.0, 0.0];
        }
        let eos = Eos::GammaLaw { gamma: 5.0 / 3.0 };
        let nt = prepare(&mut parts, &eos);
        hydro_forces(&mut parts, &nt, &Viscosity::default());
        let mid_heating: f64 = parts
            .iter()
            .filter(|p| p.pos[0].abs() < 0.2)
            .map(|p| p.du_dt)
            .sum();
        assert!(mid_heating > 0.0, "no shock heating: {mid_heating}");
    }

    #[test]
    fn gravity_pulls_inward() {
        let mut parts = gas_ball(500, 0.01, 5);
        let eos = Eos::GammaLaw { gamma: 5.0 / 3.0 };
        let nt = prepare(&mut parts, &eos);
        for p in parts.iter_mut() {
            p.acc = [0.0; 3];
            p.du_dt = 0.0;
        }
        add_gravity(&mut parts, &nt, 0.6, 0.05);
        let mut inward = 0;
        let mut total = 0;
        for p in &parts {
            let r = p.radius();
            if r < 0.3 {
                continue;
            }
            total += 1;
            let proj = (p.acc[0] * p.pos[0] + p.acc[1] * p.pos[1] + p.acc[2] * p.pos[2]) / r;
            if proj < 0.0 {
                inward += 1;
            }
        }
        assert!(
            inward as f64 / total as f64 > 0.95,
            "{inward}/{total} accelerate inward"
        );
    }

    #[test]
    fn cold_static_gas_feels_no_du_dt() {
        let mut parts = gas_ball(400, 0.0, 6);
        let eos = Eos::GammaLaw { gamma: 5.0 / 3.0 };
        let nt = prepare(&mut parts, &eos);
        hydro_forces(&mut parts, &nt, &Viscosity::default());
        for p in &parts {
            assert!(p.du_dt.abs() < 1e-12, "du/dt = {}", p.du_dt);
        }
    }
}
