//! Conjugate gradient with a random sparse SPD matrix (NPB CG).
//!
//! NPB CG estimates the largest eigenvalue of a random sparse symmetric
//! matrix by inverse power iteration, each step solved with 25 CG
//! iterations. We reproduce that structure: a CSR symmetric matrix with a
//! dominant diagonal shift, the CG inner solver, and the ζ estimate.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Compressed sparse row, square, symmetric by construction.
#[derive(Debug, Clone)]
pub struct Csr {
    pub n: usize,
    pub row_ptr: Vec<usize>,
    pub col: Vec<usize>,
    pub val: Vec<f64>,
}

impl Csr {
    /// y = A·x.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for i in 0..self.n {
            let mut s = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                s += self.val[k] * x[self.col[k]];
            }
            y[i] = s;
        }
    }

    /// Build from (row, col, value) triples, summing duplicates.
    pub fn from_triples(n: usize, mut triples: Vec<(usize, usize, f64)>) -> Csr {
        triples.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; n + 1];
        let mut col: Vec<usize> = Vec::with_capacity(triples.len());
        let mut val: Vec<f64> = Vec::with_capacity(triples.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in triples {
            assert!(r < n && c < n, "triple ({r},{c}) out of range for n={n}");
            if last == Some((r, c)) {
                *val.last_mut().unwrap() += v;
            } else {
                col.push(c);
                val.push(v);
                row_ptr[r + 1] = col.len();
                last = Some((r, c));
            }
            row_ptr[r + 1] = col.len();
        }
        // Empty rows inherit the previous row's end.
        for i in 1..=n {
            row_ptr[i] = row_ptr[i].max(row_ptr[i - 1]);
        }
        Csr {
            n,
            row_ptr,
            col,
            val,
        }
    }

    /// The NPB-style random sparse SPD matrix: `A = S + αI` where S is a
    /// random symmetric matrix with ~`nz_per_row` entries per row and
    /// spectral radius < α.
    pub fn random_spd(n: usize, nz_per_row: usize, shift: f64, seed: u64) -> Csr {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut triples = Vec::new();
        for i in 0..n {
            triples.push((i, i, shift));
            for _ in 0..nz_per_row / 2 {
                let j = rng.gen_range(0..n);
                if j == i {
                    continue;
                }
                // Keep off-diagonal mass small so A stays positive
                // definite (diagonally dominant).
                let v = rng.gen_range(-1.0..1.0) * shift / (2.0 * nz_per_row as f64);
                triples.push((i, j, v));
                triples.push((j, i, v));
            }
        }
        Csr::from_triples(n, triples)
    }
}

/// Solve `A x = b` by CG; returns (solution, iterations, final ‖r‖).
pub fn cg_solve(a: &Csr, b: &[f64], max_iter: usize, tol: f64) -> (Vec<f64>, usize, f64) {
    let n = a.n;
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rr: f64 = r.iter().map(|v| v * v).sum();
    let mut iters = 0;
    while iters < max_iter && rr.sqrt() > tol {
        a.matvec(&p, &mut ap);
        let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        let alpha = rr / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rr_new / rr;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_new;
        iters += 1;
    }
    (x, iters, rr.sqrt())
}

/// The NPB CG benchmark structure: power iteration with CG inner solves;
/// returns the ζ eigenvalue estimate (ζ = shift + 1/(xᵀz)).
pub fn npb_cg(a: &Csr, shift: f64, outer_iters: usize, inner_iters: usize) -> f64 {
    let n = a.n;
    let mut x = vec![1.0; n];
    let mut zeta = 0.0;
    for _ in 0..outer_iters {
        let (z, _, _) = cg_solve(a, &x, inner_iters, 0.0);
        let xz: f64 = x.iter().zip(&z).map(|(a, b)| a * b).sum();
        zeta = shift + 1.0 / xz * x.iter().map(|v| v * v).sum::<f64>();
        // x = z / ‖z‖.
        let norm = z.iter().map(|v| v * v).sum::<f64>().sqrt();
        for (xi, zi) in x.iter_mut().zip(&z) {
            *xi = zi / norm;
        }
    }
    zeta
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D Poisson matrix (tridiagonal 2,−1): classic CG testbed.
    fn poisson1d(n: usize) -> Csr {
        let mut triples = Vec::new();
        for i in 0..n {
            triples.push((i, i, 2.0));
            if i > 0 {
                triples.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                triples.push((i, i + 1, -1.0));
            }
        }
        Csr::from_triples(n, triples)
    }

    #[test]
    fn matvec_identity() {
        let triples = (0..5).map(|i| (i, i, 1.0)).collect();
        let a = Csr::from_triples(5, triples);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut y = vec![0.0; 5];
        a.matvec(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn cg_solves_poisson_exactly_in_n_steps() {
        let n = 32;
        let a = poisson1d(n);
        let b = vec![1.0; n];
        let (x, iters, res) = cg_solve(&a, &b, n + 5, 1e-10);
        assert!(iters <= n + 1, "took {iters}");
        assert!(res < 1e-9);
        // Verify by substitution.
        let mut ax = vec![0.0; n];
        a.matvec(&x, &mut ax);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn cg_residual_decreases_monotonically_enough() {
        let a = Csr::random_spd(200, 8, 10.0, 1);
        let b = vec![1.0; 200];
        let (_, i1, r1) = cg_solve(&a, &b, 5, 0.0);
        let (_, i2, r2) = cg_solve(&a, &b, 25, 0.0);
        assert_eq!((i1, i2), (5, 25));
        assert!(r2 < r1 * 0.1, "r5={r1}, r25={r2}");
    }

    #[test]
    fn random_spd_matrix_is_symmetric() {
        let a = Csr::random_spd(100, 6, 10.0, 7);
        // Check A == Aᵀ entrywise via dense reconstruction.
        let mut dense = vec![0.0; 100 * 100];
        for i in 0..a.n {
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                dense[i * 100 + a.col[k]] += a.val[k];
            }
        }
        for i in 0..100 {
            for j in 0..100 {
                assert!(
                    (dense[i * 100 + j] - dense[j * 100 + i]).abs() < 1e-12,
                    "asymmetric at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn npb_cg_zeta_converges_near_shift() {
        // With small off-diagonals, the largest eigenvalue of A⁻¹ is
        // ≈ 1/(shift − ρ(S)); ζ = shift + xᵀx/(xᵀz) → λ_min(A) roughly.
        let shift = 20.0;
        let a = Csr::random_spd(150, 8, shift, 3);
        let zeta = npb_cg(&a, shift, 8, 25);
        assert!(
            (zeta - 2.0 * shift).abs() < 0.3 * shift,
            "zeta {zeta} vs shift {shift}"
        );
    }

    #[test]
    fn duplicate_triples_are_summed() {
        let a = Csr::from_triples(2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0)]);
        let mut y = vec![0.0; 2];
        a.matvec(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 1.0]);
    }
}
