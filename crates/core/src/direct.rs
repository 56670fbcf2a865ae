//! Direct O(N²) summation — the accuracy reference for the treecode and
//! the body of the gravity micro-kernel benchmark (§3.6).

use crate::gravity::{self, Accel};
use crate::tree::Body;

/// Softened pairwise accelerations and potentials on every body (G = 1).
pub fn direct_accelerations(bodies: &[Body], eps: f64) -> Vec<Accel> {
    let eps2 = eps * eps;
    bodies
        .iter()
        .enumerate()
        .map(|(i, bi)| {
            let mut out = Accel::default();
            for (j, bj) in bodies.iter().enumerate() {
                if i != j {
                    gravity::p2p(bi.pos, bj.pos, bj.mass, eps2, &mut out);
                }
            }
            out
        })
        .collect()
}

/// Minimum-image periodic direct summation: the reference for the
/// periodic tree walk (same nearest-image convention).
pub fn direct_periodic(bodies: &[Body], eps: f64, box_size: f64) -> Vec<Accel> {
    let eps2 = eps * eps;
    bodies
        .iter()
        .enumerate()
        .map(|(i, bi)| {
            let mut out = Accel::default();
            for (j, bj) in bodies.iter().enumerate() {
                if i != j {
                    let sp = gravity::nearest_image(bi.pos, bj.pos, box_size);
                    gravity::p2p(bi.pos, sp, bj.mass, eps2, &mut out);
                }
            }
            out
        })
        .collect()
}

/// Total energy (kinetic, potential) of a body set by direct summation.
pub fn direct_energy(bodies: &[Body], eps: f64) -> (f64, f64) {
    let accels = direct_accelerations(bodies, eps);
    let kinetic: f64 = bodies
        .iter()
        .map(|b| 0.5 * b.mass * (b.vel[0] * b.vel[0] + b.vel[1] * b.vel[1] + b.vel[2] * b.vel[2]))
        .sum();
    // Each pair counted twice in Σ m φ, hence the factor 1/2.
    let potential: f64 = 0.5
        * bodies
            .iter()
            .zip(&accels)
            .map(|(b, a)| b.mass * a.pot)
            .sum::<f64>();
    (kinetic, potential)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::plummer;
    use crate::tree::Body;

    #[test]
    fn two_bodies_newton() {
        let bodies = vec![Body::at([0.0; 3], 1.0), Body::at([2.0, 0.0, 0.0], 4.0)];
        let a = direct_accelerations(&bodies, 0.0);
        assert!((a[0].acc[0] - 1.0).abs() < 1e-14); // 4/2² toward +x
        assert!((a[1].acc[0] + 0.25).abs() < 1e-14); // 1/2² toward −x
    }

    #[test]
    fn momentum_conservation_is_exact() {
        let bodies = plummer(100, 5);
        let a = direct_accelerations(&bodies, 0.01);
        let mut net = [0.0; 3];
        for (acc, b) in a.iter().zip(&bodies) {
            for d in 0..3 {
                net[d] += b.mass * acc.acc[d];
            }
        }
        for d in 0..3 {
            assert!(net[d].abs() < 1e-10, "net[{d}] = {}", net[d]);
        }
    }

    #[test]
    fn plummer_sphere_is_near_virial_equilibrium() {
        // The Plummer sampler draws velocities from the self-consistent
        // distribution function; 2K + W ≈ 0 within sampling noise.
        let bodies = plummer(2000, 9);
        let (k, w) = direct_energy(&bodies, 0.0);
        let virial = (2.0 * k + w).abs() / w.abs();
        assert!(
            virial < 0.15,
            "virial ratio residual {virial} (K={k}, W={w})"
        );
        assert!(w < 0.0 && k > 0.0);
    }

    #[test]
    fn potential_is_pairwise_symmetric_sum() {
        let bodies = vec![Body::at([0.0; 3], 2.0), Body::at([1.0, 0.0, 0.0], 3.0)];
        let (_, w) = direct_energy(&bodies, 0.0);
        assert!((w + 6.0).abs() < 1e-12); // −m₁m₂/r = −6
    }
}
