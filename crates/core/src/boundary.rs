//! Boundary integral method (§4.1: "... and boundary integral methods").
//!
//! Exterior potential flow: a body in a uniform stream is represented by
//! point sources of the Laplace fundamental solution placed on an
//! auxiliary surface just inside the body (the desingularized method of
//! fundamental solutions); strengths are solved so the normal velocity
//! vanishes at surface collocation points. The classic validation is
//! flow past a sphere, whose analytic surface speed is `1.5·U·sinθ`.

/// A point source of strength `q`: φ = q / (4π|x − x₀|).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Source {
    pub pos: [f64; 3],
    pub q: f64,
}

/// Velocity induced at `x` by a unit source at `s`:
/// ∇φ = −q (x−s) / (4π|x−s|³)... the *flow* velocity is +∇φ for
/// φ = −q/(4π r); we adopt v = q·(x−s)/(4π|x−s|³) (outflow for q > 0).
#[inline]
pub fn source_velocity(x: [f64; 3], s: [f64; 3], q: f64) -> [f64; 3] {
    let r = [x[0] - s[0], x[1] - s[1], x[2] - s[2]];
    let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
    let f = q / (4.0 * std::f64::consts::PI * r2 * r2.sqrt());
    [f * r[0], f * r[1], f * r[2]]
}

/// Near-uniform points on the unit sphere (Fibonacci lattice).
pub fn fibonacci_sphere(n: usize) -> Vec<[f64; 3]> {
    let golden = (1.0 + 5.0f64.sqrt()) / 2.0;
    (0..n)
        .map(|i| {
            let z = 1.0 - 2.0 * (i as f64 + 0.5) / n as f64;
            let r = (1.0 - z * z).sqrt();
            let phi = std::f64::consts::TAU * (i as f64 / golden).fract();
            [r * phi.cos(), r * phi.sin(), z]
        })
        .collect()
}

/// A solved flow-past-a-sphere problem.
pub struct SphereFlow {
    pub sources: Vec<Source>,
    /// Collocation points on the sphere surface.
    pub surface: Vec<[f64; 3]>,
    pub u_inf: [f64; 3],
}

/// Solve flow of uniform stream `u_inf` past the unit sphere with `n`
/// collocation points (sources sit at radius `r_src` < 1).
pub fn solve_sphere_flow(n: usize, u_inf: [f64; 3], r_src: f64) -> SphereFlow {
    assert!(n >= 8 && r_src > 0.0 && r_src < 1.0);
    let surface = fibonacci_sphere(n);
    let src_pos: Vec<[f64; 3]> = surface
        .iter()
        .map(|p| [p[0] * r_src, p[1] * r_src, p[2] * r_src])
        .collect();
    // A[i][j] = normal velocity at surface point i from unit source j;
    // rhs[i] = −u_inf · n̂_i. (n̂ on the unit sphere is the point itself.)
    let mut a = vec![0.0f64; n * n];
    let mut rhs = vec![0.0f64; n];
    for i in 0..n {
        let nrm = surface[i];
        for j in 0..n {
            let v = source_velocity(surface[i], src_pos[j], 1.0);
            a[i * n + j] = v[0] * nrm[0] + v[1] * nrm[1] + v[2] * nrm[2];
        }
        rhs[i] = -(u_inf[0] * nrm[0] + u_inf[1] * nrm[1] + u_inf[2] * nrm[2]);
    }
    let q = solve_dense(&mut a, &mut rhs, n);
    SphereFlow {
        sources: src_pos
            .into_iter()
            .zip(q)
            .map(|(pos, q)| Source { pos, q })
            .collect(),
        surface,
        u_inf,
    }
}

/// Gaussian elimination with partial pivoting (the system is small and
/// dense; `a` and `b` are consumed).
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Vec<f64> {
    for k in 0..n {
        let mut p = k;
        for r in k + 1..n {
            if a[r * n + k].abs() > a[p * n + k].abs() {
                p = r;
            }
        }
        assert!(a[p * n + k].abs() > 1e-300, "singular BEM system");
        if p != k {
            for c in 0..n {
                a.swap(k * n + c, p * n + c);
            }
            b.swap(k, p);
        }
        for r in k + 1..n {
            let f = a[r * n + k] / a[k * n + k];
            if f != 0.0 {
                for c in k..n {
                    a[r * n + c] -= f * a[k * n + c];
                }
                b[r] -= f * b[k];
            }
        }
    }
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let mut s = b[k];
        for c in k + 1..n {
            s -= a[k * n + c] * x[c];
        }
        x[k] = s / a[k * n + k];
    }
    x
}

impl SphereFlow {
    /// Total flow velocity (stream + all sources) at `x`.
    pub fn velocity(&self, x: [f64; 3]) -> [f64; 3] {
        let mut v = self.u_inf;
        for s in &self.sources {
            let dv = source_velocity(x, s.pos, s.q);
            for d in 0..3 {
                v[d] += dv[d];
            }
        }
        v
    }

    /// Max |v·n̂| over the collocation points (the residual the solve
    /// drove to zero).
    pub fn tangency_residual(&self) -> f64 {
        self.surface
            .iter()
            .map(|p| {
                let v = self.velocity(*p);
                (v[0] * p[0] + v[1] * p[1] + v[2] * p[2]).abs()
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibonacci_points_lie_on_the_sphere_evenly() {
        let pts = fibonacci_sphere(500);
        for p in &pts {
            let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
            assert!((r - 1.0).abs() < 1e-12);
        }
        // Octant balance.
        let plus_z = pts.iter().filter(|p| p[2] > 0.0).count();
        assert!((plus_z as f64 / 500.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn flow_tangency_is_enforced() {
        let flow = solve_sphere_flow(200, [1.0, 0.0, 0.0], 0.6);
        let res = flow.tangency_residual();
        assert!(res < 1e-6, "tangency residual {res}");
    }

    #[test]
    fn surface_speed_matches_potential_flow() {
        // Analytic: |v| = 1.5·U·sinθ on the sphere (θ from the flow
        // axis). Check at off-collocation points on the equator.
        let u = 1.0;
        let flow = solve_sphere_flow(300, [u, 0.0, 0.0], 0.6);
        for phi in [0.3f64, 1.1, 2.0, 4.5] {
            // Equator w.r.t. the flow axis x: points with x = 0.
            let p = [0.0, phi.cos(), phi.sin()];
            let v = flow.velocity(p);
            let speed = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            assert!(
                (speed - 1.5 * u).abs() < 0.05 * 1.5 * u,
                "equator speed {speed} vs 1.5"
            );
        }
        // Stagnation points fore and aft.
        for p in [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]] {
            let v = flow.velocity(p);
            let speed = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            assert!(speed < 0.08, "stagnation speed {speed} at {p:?}");
        }
    }

    #[test]
    fn far_field_recovers_the_free_stream() {
        let flow = solve_sphere_flow(150, [1.0, 0.0, 0.0], 0.6);
        let v = flow.velocity([50.0, 20.0, -10.0]);
        assert!((v[0] - 1.0).abs() < 1e-3);
        assert!(v[1].abs() < 1e-3 && v[2].abs() < 1e-3);
    }

    #[test]
    fn total_source_strength_vanishes() {
        // A closed body in potential flow has zero net source strength.
        let flow = solve_sphere_flow(200, [1.0, 0.0, 0.0], 0.6);
        let total: f64 = flow.sources.iter().map(|s| s.q).sum();
        let scale: f64 = flow.sources.iter().map(|s| s.q.abs()).sum();
        assert!(
            total.abs() < 1e-6 * scale,
            "net source {total} vs scale {scale}"
        );
    }
}
