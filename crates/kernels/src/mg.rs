//! 3-D multigrid V-cycle Poisson solver (NPB MG).
//!
//! Solves `−∇²u = f` on a periodic cubic grid with the NPB MG algorithm
//! shape: damped-Jacobi smoothing, full-weighting-ish restriction,
//! trilinear prolongation, V-cycles down to a 4³ coarse grid. Per the
//! paper's Table 2, MG is the most memory-bandwidth-bound NPB kernel
//! (slow-mem ratio 0.601).

/// A scalar field on a periodic n³ grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    pub n: usize,
    pub data: Vec<f64>,
}

impl Grid {
    pub fn zeros(n: usize) -> Grid {
        Grid {
            n,
            data: vec![0.0; n * n * n],
        }
    }

    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize) -> f64 {
        self.data[(z * self.n + y) * self.n + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f64) {
        self.data[(z * self.n + y) * self.n + x] = v;
    }

    #[inline]
    fn wrap(&self, i: isize) -> usize {
        i.rem_euclid(self.n as isize) as usize
    }

    #[inline]
    pub fn at_p(&self, x: isize, y: isize, z: isize) -> f64 {
        self.at(self.wrap(x), self.wrap(y), self.wrap(z))
    }

    pub fn norm2(&self) -> f64 {
        (self.data.iter().map(|v| v * v).sum::<f64>() / self.data.len() as f64).sqrt()
    }

    /// Subtract the mean (the periodic Poisson problem is defined up to a
    /// constant and solvable only for zero-mean RHS).
    pub fn remove_mean(&mut self) {
        let mean = self.data.iter().sum::<f64>() / self.data.len() as f64;
        for v in &mut self.data {
            *v -= mean;
        }
    }
}

/// r = f + ∇²u (7-point Laplacian, unit grid spacing).
pub fn residual(u: &Grid, f: &Grid, r: &mut Grid) {
    let n = u.n as isize;
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let lap = u.at_p(x - 1, y, z)
                    + u.at_p(x + 1, y, z)
                    + u.at_p(x, y - 1, z)
                    + u.at_p(x, y + 1, z)
                    + u.at_p(x, y, z - 1)
                    + u.at_p(x, y, z + 1)
                    - 6.0 * u.at_p(x, y, z);
                r.set(x as usize, y as usize, z as usize, f.at_p(x, y, z) + lap);
            }
        }
    }
}

/// One damped-Jacobi smoothing sweep (ω = 0.8) for −∇²u = f.
pub fn smooth(u: &mut Grid, f: &Grid, omega: f64) {
    let n = u.n as isize;
    let old = u.clone();
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let nb = old.at_p(x - 1, y, z)
                    + old.at_p(x + 1, y, z)
                    + old.at_p(x, y - 1, z)
                    + old.at_p(x, y + 1, z)
                    + old.at_p(x, y, z - 1)
                    + old.at_p(x, y, z + 1);
                let jac = (nb + f.at_p(x, y, z)) / 6.0;
                let v = (1.0 - omega) * old.at_p(x, y, z) + omega * jac;
                u.set(x as usize, y as usize, z as usize, v);
            }
        }
    }
}

/// Restrict a fine residual to the n/2 grid (average of the 8 children).
pub fn restrict(fine: &Grid) -> Grid {
    let nc = fine.n / 2;
    let mut coarse = Grid::zeros(nc);
    for z in 0..nc {
        for y in 0..nc {
            for x in 0..nc {
                let mut s = 0.0;
                for dz in 0..2 {
                    for dy in 0..2 {
                        for dx in 0..2 {
                            s += fine.at(2 * x + dx, 2 * y + dy, 2 * z + dz);
                        }
                    }
                }
                // Average, scaled by 4 = h²-ratio for the Laplacian.
                coarse.set(x, y, z, s / 8.0 * 4.0);
            }
        }
    }
    coarse
}

/// Per-dimension cell-centered interpolation stencil: fine index `x`
/// draws from coarse cells `(i0, 1−w)` and `(i0+1, w)`.
#[inline]
fn lin_weights(x: usize, nc: usize) -> ((usize, f64), (usize, f64)) {
    let pos = (x as f64 - 0.5) / 2.0;
    let i0 = pos.floor();
    let w = pos - i0;
    let a = (i0 as i64).rem_euclid(nc as i64) as usize;
    let b = (i0 as i64 + 1).rem_euclid(nc as i64) as usize;
    ((a, 1.0 - w), (b, w))
}

/// Prolong a coarse correction onto the fine grid by cell-centered
/// trilinear interpolation (periodic), adding into `fine`.
pub fn prolong_add(fine: &mut Grid, coarse: &Grid) {
    let n = fine.n;
    let nc = coarse.n;
    for z in 0..n {
        let (za, zb) = lin_weights(z, nc);
        for y in 0..n {
            let (ya, yb) = lin_weights(y, nc);
            for x in 0..n {
                let (xa, xb) = lin_weights(x, nc);
                let mut v = 0.0;
                for (zi, wz) in [za, zb] {
                    for (yi, wy) in [ya, yb] {
                        for (xi, wx) in [xa, xb] {
                            v += wx * wy * wz * coarse.at(xi, yi, zi);
                        }
                    }
                }
                let cur = fine.at(x, y, z);
                fine.set(x, y, z, cur + v);
            }
        }
    }
}

/// One V-cycle for −∇²u = f. `pre`/`post` smoothing sweeps.
pub fn v_cycle(u: &mut Grid, f: &Grid, pre: usize, post: usize) {
    let n = u.n;
    for _ in 0..pre {
        smooth(u, f, 0.8);
    }
    if n > 4 {
        let mut r = Grid::zeros(n);
        residual(u, f, &mut r);
        let coarse_f = restrict(&r);
        let mut coarse_u = Grid::zeros(n / 2);
        v_cycle(&mut coarse_u, &coarse_f, pre, post);
        prolong_add(u, &coarse_u);
    }
    for _ in 0..post {
        smooth(u, f, 0.8);
    }
}

/// Run `cycles` V-cycles from zero and report the final residual norm.
pub fn solve(f: &Grid, cycles: usize) -> (Grid, f64) {
    let mut u = Grid::zeros(f.n);
    let mut f = f.clone();
    f.remove_mean();
    let mut r = Grid::zeros(f.n);
    for _ in 0..cycles {
        v_cycle(&mut u, &f, 2, 2);
        u.remove_mean();
    }
    residual(&u, &f, &mut r);
    (u, r.norm2())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    /// Smooth single-mode RHS: f = sin(2πx/n) has the exact discrete
    /// solution u = f / (2 − 2cos(2π/n)).
    fn mode_rhs(n: usize) -> Grid {
        let mut f = Grid::zeros(n);
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    f.set(x, y, z, (TAU * x as f64 / n as f64).sin());
                }
            }
        }
        f
    }

    #[test]
    fn residual_of_exact_solution_vanishes() {
        let n = 16;
        let f = mode_rhs(n);
        let lam = 2.0 - 2.0 * (TAU / n as f64).cos();
        let mut u = f.clone();
        for v in &mut u.data {
            *v /= lam;
        }
        let mut r = Grid::zeros(n);
        residual(&u, &f, &mut r);
        assert!(r.norm2() < 1e-12, "residual {}", r.norm2());
    }

    #[test]
    fn smoothing_reduces_residual() {
        let n = 16;
        let f = mode_rhs(n);
        let mut u = Grid::zeros(n);
        let mut r = Grid::zeros(n);
        residual(&u, &f, &mut r);
        let r0 = r.norm2();
        for _ in 0..10 {
            smooth(&mut u, &f, 0.8);
        }
        residual(&u, &f, &mut r);
        assert!(r.norm2() < r0, "{} !< {r0}", r.norm2());
    }

    #[test]
    fn v_cycles_converge_fast() {
        let n = 32;
        let f = mode_rhs(n);
        let mut r = Grid::zeros(n);
        let mut fz = f.clone();
        fz.remove_mean();
        residual(&Grid::zeros(n), &fz, &mut r);
        let r0 = r.norm2();
        let (_, r4) = solve(&f, 4);
        // Damped-Jacobi(2,2) V-cycles contract the residual by ~0.3 per
        // cycle: two orders of magnitude in four cycles.
        assert!(r4 < r0 * 0.02, "r0 {r0} → r4 {r4}");
        let (_, r8) = solve(&f, 8);
        assert!(r8 < r4 * 0.1, "r4 {r4} → r8 {r8}");
    }

    #[test]
    fn solution_matches_analytic_mode() {
        let n = 32;
        let f = mode_rhs(n);
        let (u, _) = solve(&f, 12);
        let lam = 2.0 - 2.0 * (TAU / n as f64).cos();
        let mut err: f64 = 0.0;
        let mut scale: f64 = 0.0;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let exact = (TAU * x as f64 / n as f64).sin() / lam;
                    err = err.max((u.at(x, y, z) - exact).abs());
                    scale = scale.max(exact.abs());
                }
            }
        }
        assert!(err / scale < 1e-3, "max rel error {}", err / scale);
    }

    #[test]
    fn restriction_preserves_constants() {
        let mut fine = Grid::zeros(8);
        for v in &mut fine.data {
            *v = 3.0;
        }
        let coarse = restrict(&fine);
        assert_eq!(coarse.n, 4);
        // Constant 3, times the h² factor 4.
        for v in &coarse.data {
            assert!((*v - 12.0).abs() < 1e-12);
        }
    }

    #[test]
    fn periodic_wrapping() {
        let mut g = Grid::zeros(4);
        g.set(0, 0, 0, 5.0);
        assert_eq!(g.at_p(-4, 0, 0), 5.0);
        assert_eq!(g.at_p(4, 4, 4), 5.0);
        assert_eq!(g.at_p(-1, 0, 0), g.at(3, 0, 0));
    }
}
