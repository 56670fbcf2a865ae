//! Particle models for tests, examples and benchmarks.

use crate::tree::Body;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A self-consistent Plummer sphere: total mass 1, scale length 1, G = 1,
/// velocities drawn from the isotropic distribution function (Aarseth's
/// rejection method). The classic galactic-dynamics test model (§4.1's
/// problems in galactic dynamics).
pub fn plummer(n: usize, seed: u64) -> Vec<Body> {
    assert!(n > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = 1.0 / n as f64;
    let mut bodies = Vec::with_capacity(n);
    for i in 0..n {
        // Radius from the cumulative mass profile, capped to keep outliers
        // from dominating the bounding box.
        let r = loop {
            let u: f64 = rng.gen_range(1e-10..1.0);
            let r = (u.powf(-2.0 / 3.0) - 1.0_f64).powf(-0.5);
            if r < 10.0 {
                break r;
            }
        };
        let pos = iso_vector(&mut rng, r);
        // Velocity via von Neumann rejection on g(q) = q²(1−q²)^3.5.
        let q = loop {
            let q: f64 = rng.gen();
            let g: f64 = rng.gen::<f64>() * 0.1;
            if g < q * q * (1.0 - q * q).powf(3.5) {
                break q;
            }
        };
        let vesc = std::f64::consts::SQRT_2 * (1.0 + r * r).powf(-0.25);
        let vel = iso_vector(&mut rng, q * vesc);
        bodies.push(Body {
            pos,
            vel,
            mass: m,
            id: i as u64,
            work: 1.0,
        });
    }
    bodies
}

/// A cold uniform-density sphere of radius 1, total mass 1 — the shape of
/// the paper's "standard simulation problem ... a spherical distribution
/// of particles which represents the initial evolution of a cosmological
/// N-body simulation" (Table 6). Velocities are zero; `cosmo::sphere`
/// layers Hubble flow and perturbations on top.
pub fn cold_sphere(n: usize, seed: u64) -> Vec<Body> {
    assert!(n > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = 1.0 / n as f64;
    (0..n)
        .map(|i| {
            let r = rng.gen::<f64>().cbrt();
            Body {
                pos: iso_vector(&mut rng, r),
                vel: [0.0; 3],
                mass: m,
                id: i as u64,
                work: 1.0,
            }
        })
        .collect()
}

/// A cold-ish ball of bodies, by rejection sampling inside the unit
/// sphere with small isotropic velocities: the golden run's ICs
/// (`cluster::ics`). Pure arithmetic and comparisons on
/// [`msg::SplitMix64`], no `rand` and no libm — bit-identical on every
/// IEEE-754 platform and dependency version.
pub fn golden_ics(n: usize, seed: u64) -> Vec<Body> {
    let mut rng = msg::SplitMix64(seed);
    let mut ball = |scale: f64| -> [f64; 3] {
        loop {
            let p = [rng.sym(), rng.sym(), rng.sym()];
            if p[0] * p[0] + p[1] * p[1] + p[2] * p[2] <= 1.0 {
                return [scale * p[0], scale * p[1], scale * p[2]];
            }
        }
    };
    (0..n)
        .map(|i| Body {
            pos: ball(1.0),
            vel: ball(0.2),
            mass: 1.0 / n as f64,
            id: i as u64,
            work: 1.0,
        })
        .collect()
}

/// Uniform random bodies in the unit cube (structureless stress test).
pub fn uniform_cube(n: usize, seed: u64) -> Vec<Body> {
    assert!(n > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = 1.0 / n as f64;
    (0..n)
        .map(|i| Body {
            pos: [rng.gen(), rng.gen(), rng.gen()],
            vel: [0.0; 3],
            mass: m,
            id: i as u64,
            work: 1.0,
        })
        .collect()
}

/// A 2-D centrally condensed disc (for the Figure 6 quadtree picture):
/// points at z = 0 with surface density ∝ 1/(1+r²)².
pub fn condensed_disc_2d(n: usize, seed: u64) -> Vec<[f64; 2]> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..0.95);
            // Invert the cumulative of the surface density.
            let r = (u / (1.0 - u)).sqrt();
            let phi = rng.gen::<f64>() * std::f64::consts::TAU;
            [r * phi.cos(), r * phi.sin()]
        })
        .collect()
}

fn iso_vector(rng: &mut SmallRng, magnitude: f64) -> [f64; 3] {
    // Marsaglia's method for a uniform direction.
    loop {
        let x: f64 = rng.gen_range(-1.0..1.0);
        let y: f64 = rng.gen_range(-1.0..1.0);
        let s = x * x + y * y;
        if s < 1.0 {
            let z = 1.0 - 2.0 * s;
            let f = 2.0 * (1.0 - s).sqrt();
            return [magnitude * x * f, magnitude * y * f, magnitude * z];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plummer_mass_and_count() {
        let b = plummer(500, 1);
        assert_eq!(b.len(), 500);
        let total: f64 = b.iter().map(|x| x.mass).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plummer_half_mass_radius() {
        // Plummer half-mass radius is ~1.30 a.
        let b = plummer(4000, 2);
        let mut radii: Vec<f64> = b
            .iter()
            .map(|x| (x.pos[0].powi(2) + x.pos[1].powi(2) + x.pos[2].powi(2)).sqrt())
            .collect();
        radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rh = radii[2000];
        assert!((rh - 1.30).abs() < 0.1, "half-mass radius {rh}");
    }

    #[test]
    fn plummer_velocities_below_escape() {
        for b in plummer(1000, 3) {
            let r = (b.pos[0].powi(2) + b.pos[1].powi(2) + b.pos[2].powi(2)).sqrt();
            let v2 = b.vel[0].powi(2) + b.vel[1].powi(2) + b.vel[2].powi(2);
            let vesc2 = 2.0 / (1.0 + r * r).sqrt();
            assert!(v2 <= vesc2 * 1.0001, "v² {v2} > v_esc² {vesc2}");
        }
    }

    #[test]
    fn cold_sphere_is_cold_and_bounded() {
        let b = cold_sphere(1000, 4);
        for x in &b {
            assert_eq!(x.vel, [0.0; 3]);
            let r2 = x.pos[0].powi(2) + x.pos[1].powi(2) + x.pos[2].powi(2);
            assert!(r2 <= 1.0000001);
        }
    }

    #[test]
    fn cold_sphere_density_is_uniform() {
        // Median radius of a uniform ball is (1/2)^(1/3) ≈ 0.7937.
        let b = cold_sphere(8000, 5);
        let mut radii: Vec<f64> = b
            .iter()
            .map(|x| (x.pos[0].powi(2) + x.pos[1].powi(2) + x.pos[2].powi(2)).sqrt())
            .collect();
        radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = radii[4000];
        assert!((median - 0.7937).abs() < 0.02, "median radius {median}");
    }

    #[test]
    fn disc_is_centrally_condensed() {
        let pts = condensed_disc_2d(4000, 6);
        let inner = pts
            .iter()
            .filter(|p| p[0] * p[0] + p[1] * p[1] < 1.0)
            .count();
        // Half the mass lies inside r = 1 for this profile.
        let frac = inner as f64 / pts.len() as f64;
        assert!(frac > 0.4, "inner fraction {frac}");
    }

    #[test]
    fn ids_are_unique() {
        let b = uniform_cube(100, 7);
        let mut ids: Vec<u64> = b.iter().map(|x| x.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }
}
