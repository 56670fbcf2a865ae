//! Structure statistics: CIC density fields, power spectra, two-point
//! correlation functions, projections.

use hot::tree::Body;
use kernels::fft::{Field3, C64};

/// Cloud-in-cell density contrast δ on an `n`³ grid from particle
/// positions in a periodic box.
pub fn cic_density(bodies: &[Body], n: usize, box_size: f64) -> Vec<f64> {
    let mut rho = vec![0.0f64; n * n * n];
    let cell = box_size / n as f64;
    for b in bodies {
        // Position in cell units, offset so cell centers are integers.
        let g = [
            b.pos[0] / cell - 0.5,
            b.pos[1] / cell - 0.5,
            b.pos[2] / cell - 0.5,
        ];
        let base = [g[0].floor(), g[1].floor(), g[2].floor()];
        let frac = [g[0] - base[0], g[1] - base[1], g[2] - base[2]];
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    let w = (if dx == 0 { 1.0 - frac[0] } else { frac[0] })
                        * (if dy == 0 { 1.0 - frac[1] } else { frac[1] })
                        * (if dz == 0 { 1.0 - frac[2] } else { frac[2] });
                    let xi = (base[0] as i64 + dx as i64).rem_euclid(n as i64) as usize;
                    let yi = (base[1] as i64 + dy as i64).rem_euclid(n as i64) as usize;
                    let zi = (base[2] as i64 + dz as i64).rem_euclid(n as i64) as usize;
                    rho[(zi * n + yi) * n + xi] += w * b.mass;
                }
            }
        }
    }
    // Convert to contrast.
    let mean = rho.iter().sum::<f64>() / rho.len() as f64;
    if mean > 0.0 {
        for v in &mut rho {
            *v = *v / mean - 1.0;
        }
    }
    rho
}

/// Spherically binned power spectrum of a real grid field:
/// `(k, P(k), modes)` per bin, k in the same units as 2π/box_size.
pub fn grid_power(delta: &[f64], n: usize, box_size: f64) -> Vec<(f64, f64, usize)> {
    assert_eq!(delta.len(), n * n * n);
    let mut f = Field3::zeros(n, n, n);
    for (c, &v) in f.data.iter_mut().zip(delta) {
        *c = C64::new(v, 0.0);
    }
    f.fft3(false);
    let volume = box_size.powi(3);
    let ncell = (n * n * n) as f64;
    let kf = std::f64::consts::TAU / box_size;
    let nbins = n / 2;
    let mut psum = vec![0.0f64; nbins];
    let mut count = vec![0usize; nbins];
    let freq = |i: usize| -> i64 {
        if i <= n / 2 {
            i as i64
        } else {
            i as i64 - n as i64
        }
    };
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let kx = freq(x);
                let ky = freq(y);
                let kz = freq(z);
                let kmag = ((kx * kx + ky * ky + kz * kz) as f64).sqrt();
                let bin = kmag.round() as usize;
                if bin == 0 || bin >= nbins {
                    continue;
                }
                let amp2 = f.data[f.idx(x, y, z)].norm_sqr();
                // P(k) = V |δ_k|²/N².
                psum[bin] += volume * amp2 / (ncell * ncell);
                count[bin] += 1;
            }
        }
    }
    (1..nbins)
        .map(|b| {
            (
                b as f64 * kf,
                if count[b] > 0 {
                    psum[b] / count[b] as f64
                } else {
                    0.0
                },
                count[b],
            )
        })
        .collect()
}

/// Two-point correlation ξ(r) by direct pair counting against the
/// analytic random expectation (periodic box). Returns `(r_mid, ξ)` per
/// bin. O(N²) — for analysis-sized samples.
pub fn correlation_function(
    bodies: &[Body],
    box_size: f64,
    bins: usize,
    r_max: f64,
) -> Vec<(f64, f64)> {
    let n = bodies.len();
    let dr = r_max / bins as f64;
    let mut dd = vec![0.0f64; bins];
    for i in 0..n {
        for j in i + 1..n {
            let mut r2 = 0.0;
            for d in 0..3 {
                let mut dx = bodies[i].pos[d] - bodies[j].pos[d];
                // Minimum image.
                if dx > box_size / 2.0 {
                    dx -= box_size;
                }
                if dx < -box_size / 2.0 {
                    dx += box_size;
                }
                r2 += dx * dx;
            }
            let r = r2.sqrt();
            if r < r_max {
                dd[(r / dr) as usize] += 2.0; // both orderings
            }
        }
    }
    let density = n as f64 / box_size.powi(3);
    (0..bins)
        .map(|b| {
            let r0 = b as f64 * dr;
            let r1 = r0 + dr;
            let shell = 4.0 / 3.0 * std::f64::consts::PI * (r1.powi(3) - r0.powi(3));
            let expected = n as f64 * density * shell;
            let xi = if expected > 0.0 {
                dd[b] / expected - 1.0
            } else {
                0.0
            };
            (0.5 * (r0 + r1), xi)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn uniform_bodies(n: usize, box_size: f64, seed: u64) -> Vec<Body> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| Body {
                pos: [
                    rng.gen::<f64>() * box_size,
                    rng.gen::<f64>() * box_size,
                    rng.gen::<f64>() * box_size,
                ],
                vel: [0.0; 3],
                mass: 1.0,
                id: i as u64,
                work: 1.0,
            })
            .collect()
    }

    #[test]
    fn cic_conserves_mass_and_centers() {
        let bodies = uniform_bodies(5000, 64.0, 1);
        let n = 16;
        let delta = cic_density(&bodies, n, 64.0);
        let mean: f64 = delta.iter().sum::<f64>() / delta.len() as f64;
        assert!(mean.abs() < 1e-12, "δ mean {mean}");
        // A single particle at a cell center lands entirely in that cell.
        let one = vec![Body {
            pos: [2.0, 2.0, 2.0], // center of cell (0,0,0) for cell=4
            vel: [0.0; 3],
            mass: 1.0,
            id: 0,
            work: 1.0,
        }];
        let d1 = cic_density(&one, 16, 64.0);
        let max = d1.iter().cloned().fold(f64::MIN, f64::max);
        assert!((d1[0] - max).abs() < 1e-12, "mass not at cell 0");
    }

    #[test]
    fn uniform_field_has_tiny_power() {
        // A perfectly uniform grid field has zero power in every mode.
        let n = 16;
        let delta = vec![0.0; n * n * n];
        for (_, p, _) in grid_power(&delta, n, 100.0) {
            assert_eq!(p, 0.0);
        }
    }

    #[test]
    fn poisson_power_is_shot_noise() {
        // Poisson particles: P(k) ≈ V/N (shot noise) at all k.
        let box_size = 100.0;
        let npart = 20_000;
        let bodies = uniform_bodies(npart, box_size, 3);
        let delta = cic_density(&bodies, 16, box_size);
        let spectrum = grid_power(&delta, 16, box_size);
        let shot = box_size.powi(3) / npart as f64;
        let mut checked = 0;
        for (k, p, modes) in spectrum {
            if modes < 30 {
                continue;
            }
            // CIC smoothing suppresses high k; accept a broad band.
            assert!(
                p > 0.2 * shot && p < 3.0 * shot,
                "k={k}: P={p} vs shot {shot}"
            );
            checked += 1;
        }
        assert!(checked >= 3);
    }

    #[test]
    fn correlation_of_uniform_is_zero() {
        let bodies = uniform_bodies(800, 50.0, 5);
        let xi = correlation_function(&bodies, 50.0, 8, 20.0);
        for (r, x) in xi.iter().skip(1) {
            assert!(x.abs() < 0.3, "ξ({r}) = {x}");
        }
    }

    #[test]
    fn correlation_of_pairs_is_positive_at_small_r() {
        // Plant tight pairs: strong small-scale correlation.
        let mut bodies = uniform_bodies(400, 50.0, 7);
        let clones: Vec<Body> = bodies
            .iter()
            .map(|b| {
                let mut c = *b;
                c.pos[0] = (c.pos[0] + 0.5).rem_euclid(50.0);
                c.id += 10_000;
                c
            })
            .collect();
        bodies.extend(clones);
        let xi = correlation_function(&bodies, 50.0, 10, 5.0);
        // The bin containing r = 0.5 must be strongly positive.
        let hot_bin = xi[1]; // bins of 0.5: [0.5, 1.0) midpoint 0.75
        assert!(hot_bin.1 > 1.0, "ξ near pair separation: {:?}", hot_bin);
    }
}
