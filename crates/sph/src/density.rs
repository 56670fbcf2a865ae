//! Density summation with adaptive smoothing lengths.

use crate::kernel;
use crate::neighbors::NeighborTree;
use crate::particle::SphParticle;

/// Target neighbour count for the adaptive h iteration.
pub const N_NGB: usize = 40;
/// Accepted band around the target.
pub const N_NGB_TOL: usize = 10;

/// Adapt one particle's `h` so its neighbour count (within `SUPPORT·h`)
/// lands in `N_NGB ± N_NGB_TOL`. Multiplicative search for a bracketing
/// h, then bisect. Each count also sums ρ = Σ m_j W(r, h) over its ball;
/// the last count is always at the `h` returned, so it returns `(h, ρ)`.
/// Reads only positions and masses, so it is independent of evaluation
/// order.
fn adapt_h(nt: &NeighborTree, parts: &[SphParticle], pos: [f64; 3], h0: f64) -> (f64, f64) {
    let mut h = h0.max(1e-6);
    let mut rho = 0.0;
    let mut count = |h: f64| {
        let (mut n, mut sum) = (0, 0.0);
        nt.ball_visit(pos, kernel::SUPPORT * h, |j| {
            let pj = &parts[j];
            let dx = pos[0] - pj.pos[0];
            let dy = pos[1] - pj.pos[1];
            let dz = pos[2] - pj.pos[2];
            let r = (dx * dx + dy * dy + dz * dz).sqrt();
            sum += pj.mass * kernel::w(r, h);
            n += 1;
        });
        rho = sum;
        n
    };
    let mut n = count(h);
    let mut iter = 0;
    while n < N_NGB - N_NGB_TOL && iter < 60 {
        h *= 1.26;
        n = count(h);
        iter += 1;
    }
    while n > N_NGB + N_NGB_TOL && iter < 60 {
        h /= 1.26;
        n = count(h);
        iter += 1;
    }
    // A couple of bisection refinements if still outside the band.
    if !(N_NGB - N_NGB_TOL..=N_NGB + N_NGB_TOL).contains(&n) {
        let (mut lo, mut hi) = (h / 1.3, h * 1.3);
        for _ in 0..20 {
            let mid = 0.5 * (lo + hi);
            let c = count(mid);
            if c < N_NGB {
                lo = mid;
            } else {
                hi = mid;
            }
            h = mid;
            if (N_NGB - N_NGB_TOL..=N_NGB + N_NGB_TOL).contains(&c) {
                break;
            }
        }
    }
    (h, rho)
}

/// Adapt each particle's `h` so its neighbour count (within `SUPPORT·h`)
/// lands in `N_NGB ± N_NGB_TOL`, and set ρ_i = Σ m_j W(r_ij, h_i), summed
/// by the count that settled `h_i` — one pass, one ball walk per count.
///
/// Each particle reads only neighbour positions/masses (never `h`/`rho`
/// of others), so the result does not depend on the order particles are
/// visited in and is bitwise stable across runs. The walks are
/// [`NeighborTree::ball_visit`]'s, so the steady-state sweep does no
/// per-particle heap allocation.
pub fn compute_density(parts: &mut [SphParticle], nt: &NeighborTree) {
    compute_density_targets(parts, nt, parts.len());
}

/// [`compute_density`] for the first `n_targets` particles only: the
/// rest of `parts` (ghosts, in a distributed run) are sources — `nt`
/// holds them and the sums read their positions and masses — but their
/// `h` and `rho` are left as they came. Since a target reads nothing
/// another target writes, rows `..n_targets` are bit for bit those of
/// the full evaluation.
pub(crate) fn compute_density_targets(
    parts: &mut [SphParticle],
    nt: &NeighborTree,
    n_targets: usize,
) {
    let snap: &[SphParticle] = parts;
    let adapted: Vec<(f64, f64)> = snap[..n_targets]
        .iter()
        .map(|p| adapt_h(nt, snap, p.pos, p.h))
        .collect();
    for (p, (h, rho)) in parts.iter_mut().zip(adapted) {
        p.h = h;
        p.rho = rho;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_target_prefix_equals_full_evaluation(seed in 0u64..1000, n in 1usize..120) {
            let before = uniform_cube(n, seed);
            let nt = NeighborTree::build(&before);
            let mut full = before.clone();
            compute_density(&mut full, &nt);
            for k in 0..=n {
                let mut split = before.clone();
                compute_density_targets(&mut split, &nt, k);
                for (a, b) in split[..k].iter().zip(&full) {
                    let got = [a.h, a.rho].map(f64::to_bits);
                    let want = [b.h, b.rho].map(f64::to_bits);
                    prop_assert_eq!(got, want, "(h, rho) of {} at k = {}", a.id, k);
                }
                prop_assert_eq!(&split[k..], &before[k..], "sources written at k = {}", k);
            }
        }
    }

    /// Random uniform cube of unit density: n particles of mass 1/n.
    fn uniform_cube(n: usize, seed: u64) -> Vec<SphParticle> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                SphParticle::new(
                    [rng.gen(), rng.gen(), rng.gen()],
                    [0.0; 3],
                    1.0 / n as f64,
                    0.0,
                    i as u64,
                )
            })
            .collect()
    }

    /// Regular lattice of unit density: the kernel sum is then a proper
    /// quadrature of the unit density (self-term included).
    fn lattice_cube(side: usize) -> Vec<SphParticle> {
        let n = side * side * side;
        let mut parts = Vec::with_capacity(n);
        for z in 0..side {
            for y in 0..side {
                for x in 0..side {
                    parts.push(SphParticle::new(
                        [
                            (x as f64 + 0.5) / side as f64,
                            (y as f64 + 0.5) / side as f64,
                            (z as f64 + 0.5) / side as f64,
                        ],
                        [0.0; 3],
                        1.0 / n as f64,
                        0.0,
                        parts.len() as u64,
                    ));
                }
            }
        }
        parts
    }

    #[test]
    fn lattice_cube_density_is_near_one() {
        let mut parts = lattice_cube(14);
        let nt = NeighborTree::build(&parts);
        compute_density(&mut parts, &nt);
        let interior: Vec<&SphParticle> = parts
            .iter()
            .filter(|p| p.pos.iter().all(|&x| x > 0.25 && x < 0.75))
            .collect();
        assert!(interior.len() > 50);
        let mean: f64 = interior.iter().map(|p| p.rho).sum::<f64>() / interior.len() as f64;
        assert!((mean - 1.0).abs() < 0.06, "mean interior density {mean}");
    }

    #[test]
    fn poisson_sampling_biases_density_up_by_the_self_term() {
        // A known SPH property: at a Poisson-placed particle the density
        // estimate includes the guaranteed self-contribution m W(0, h),
        // biasing it high by ~25-30% at 40 neighbours.
        let mut parts = uniform_cube(3000, 1);
        let nt = NeighborTree::build(&parts);
        compute_density(&mut parts, &nt);
        let interior: Vec<&SphParticle> = parts
            .iter()
            .filter(|p| p.pos.iter().all(|&x| x > 0.2 && x < 0.8))
            .collect();
        let mean: f64 = interior.iter().map(|p| p.rho).sum::<f64>() / interior.len() as f64;
        assert!(mean > 1.1 && mean < 1.5, "mean interior density {mean}");
    }

    #[test]
    fn neighbor_counts_land_in_band() {
        let mut parts = uniform_cube(2000, 2);
        let nt = NeighborTree::build(&parts);
        compute_density(&mut parts, &nt);
        let mut ok = 0;
        for p in parts
            .iter()
            .filter(|p| p.pos.iter().all(|&x| x > 0.2 && x < 0.8))
        {
            let n = crate::neighbors::tests::ball(&nt, p.pos, kernel::SUPPORT * p.h).len();
            if (N_NGB - N_NGB_TOL..=N_NGB + N_NGB_TOL).contains(&n) {
                ok += 1;
            }
        }
        let total = parts
            .iter()
            .filter(|p| p.pos.iter().all(|&x| x > 0.2 && x < 0.8))
            .count();
        assert!(
            ok as f64 / total as f64 > 0.9,
            "only {ok}/{total} particles in the neighbour band"
        );
    }

    #[test]
    fn denser_regions_get_smaller_h() {
        // Two clumps with 4x different density.
        let mut parts = Vec::new();
        let mut rng = SmallRng::seed_from_u64(3);
        for i in 0..1000 {
            parts.push(SphParticle::new(
                [rng.gen::<f64>() * 0.5, rng.gen(), rng.gen()],
                [0.0; 3],
                1e-3,
                0.0,
                i,
            ));
        }
        for i in 0..250 {
            parts.push(SphParticle::new(
                [3.0 + rng.gen::<f64>() * 0.5, rng.gen(), rng.gen()],
                [0.0; 3],
                1e-3,
                0.0,
                1000 + i,
            ));
        }
        let nt = NeighborTree::build(&parts);
        compute_density(&mut parts, &nt);
        let h_dense: f64 = parts[..1000].iter().map(|p| p.h).sum::<f64>() / 1000.0;
        let h_sparse: f64 = parts[1000..].iter().map(|p| p.h).sum::<f64>() / 250.0;
        assert!(
            h_dense < h_sparse * 0.8,
            "h_dense {h_dense} vs h_sparse {h_sparse}"
        );
        let rho_dense: f64 = parts[..1000].iter().map(|p| p.rho).sum::<f64>() / 1000.0;
        let rho_sparse: f64 = parts[1000..].iter().map(|p| p.rho).sum::<f64>() / 250.0;
        assert!(rho_dense > rho_sparse * 2.0);
    }
}
