//! High-Performance Linpack: blocked LU with partial pivoting (§3.3).
//!
//! The paper's headline benchmark: 665.1 Gflop/s on 288 processors with
//! MPICH, later 757.1 Gflop/s with LAM and a newer ATLAS. This module
//! implements:
//!
//! * a serial blocked right-looking LU factorization with partial
//!   pivoting and the HPL residual check;
//! * a 1-D block-cyclic distributed LU over `msg` (panel factorization on
//!   the owner, panel broadcast, local trailing update) — the same
//!   communication skeleton as HPL;
//! * the HPL performance model used to regenerate Figure 3.

use msg::Comm;

/// A column-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    pub n_rows: usize,
    pub n_cols: usize,
    pub a: Vec<f64>,
}

impl Mat {
    pub fn zeros(n_rows: usize, n_cols: usize) -> Mat {
        Mat {
            n_rows,
            n_cols,
            a: vec![0.0; n_rows * n_cols],
        }
    }

    pub fn random(n: usize, seed: u64) -> Mat {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = Mat::zeros(n, n);
        for v in &mut m.a {
            *v = rng.gen_range(-0.5..0.5);
        }
        m
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.a[c * self.n_rows + r]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[c * self.n_rows + r] = v;
    }

    /// y = A·x.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        for c in 0..self.n_cols {
            let xc = x[c];
            let col = &self.a[c * self.n_rows..(c + 1) * self.n_rows];
            for (yi, aij) in y.iter_mut().zip(col) {
                *yi += aij * xc;
            }
        }
        y
    }

    /// ∞-norm.
    pub fn norm_inf(&self) -> f64 {
        let mut best = 0.0f64;
        for r in 0..self.n_rows {
            let mut s = 0.0;
            for c in 0..self.n_cols {
                s += self.at(r, c).abs();
            }
            best = best.max(s);
        }
        best
    }
}

/// LU factorization result: factors packed in-place + pivot rows.
pub struct Lu {
    pub lu: Mat,
    pub piv: Vec<usize>,
}

/// Blocked right-looking LU with partial pivoting. `nb` is the block
/// (panel) width.
pub fn lu_factor(mut a: Mat, nb: usize) -> Lu {
    let n = a.n_rows;
    assert_eq!(n, a.n_cols, "LU needs a square matrix");
    assert!(nb >= 1);
    let mut piv = Vec::with_capacity(n);
    let mut k0 = 0;
    while k0 < n {
        let kb = nb.min(n - k0);
        // Panel factorization (unblocked) on columns k0..k0+kb.
        for k in k0..k0 + kb {
            // Pivot search in column k.
            let mut p = k;
            for r in k + 1..n {
                if a.at(r, k).abs() > a.at(p, k).abs() {
                    p = r;
                }
            }
            assert!(a.at(p, k).abs() > 1e-300, "matrix is numerically singular");
            piv.push(p);
            if p != k {
                for c in 0..a.n_cols {
                    let t = a.at(k, c);
                    a.set(k, c, a.at(p, c));
                    a.set(p, c, t);
                }
            }
            let pivot = a.at(k, k);
            for r in k + 1..n {
                let l = a.at(r, k) / pivot;
                a.set(r, k, l);
            }
            // Update the rest of the panel.
            for c in k + 1..k0 + kb {
                let akc = a.at(k, c);
                for r in k + 1..n {
                    let v = a.at(r, c) - a.at(r, k) * akc;
                    a.set(r, c, v);
                }
            }
        }
        // Trailing update: A22 ← A22 − L21·U12.
        // First compute U12 = L11⁻¹·A12 (unit lower triangular solve).
        for c in k0 + kb..n {
            for k in k0..k0 + kb {
                let akc = a.at(k, c);
                if akc != 0.0 {
                    for r in k + 1..k0 + kb {
                        let v = a.at(r, c) - a.at(r, k) * akc;
                        a.set(r, c, v);
                    }
                }
            }
            // Then the GEMM part for rows below the panel.
            for k in k0..k0 + kb {
                let akc = a.at(k, c);
                if akc != 0.0 {
                    for r in k0 + kb..n {
                        let v = a.at(r, c) - a.at(r, k) * akc;
                        a.set(r, c, v);
                    }
                }
            }
        }
        k0 += kb;
    }
    Lu { lu: a, piv }
}

/// Solve A·x = b given the factorization.
pub fn lu_solve(f: &Lu, b: &[f64]) -> Vec<f64> {
    let n = f.lu.n_rows;
    let mut x = b.to_vec();
    // Apply pivots.
    for (k, &p) in f.piv.iter().enumerate() {
        if p != k {
            x.swap(k, p);
        }
    }
    // Forward substitution with unit lower L.
    for k in 0..n {
        let xk = x[k];
        if xk != 0.0 {
            for r in k + 1..n {
                x[r] -= f.lu.at(r, k) * xk;
            }
        }
    }
    // Back substitution with U.
    for k in (0..n).rev() {
        x[k] /= f.lu.at(k, k);
        let xk = x[k];
        if xk != 0.0 {
            for r in 0..k {
                x[r] -= f.lu.at(r, k) * xk;
            }
        }
    }
    x
}

/// The HPL correctness metric:
/// `‖Ax−b‖∞ / (ε · (‖A‖∞·‖x‖∞ + ‖b‖∞) · n)`; a run passes below ~16.
pub fn hpl_residual(a: &Mat, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(x);
    let r: f64 = ax
        .iter()
        .zip(b)
        .map(|(axi, bi)| (axi - bi).abs())
        .fold(0.0, f64::max);
    let xn = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let bn = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let n = a.n_rows as f64;
    r / (f64::EPSILON * (a.norm_inf() * xn + bn) * n)
}

/// Distributed LU over a 1-D block-cyclic column layout: column block
/// `j` lives on rank `j mod P`. Panels are factored by their owner and
/// broadcast; every rank updates its own trailing columns. Returns the
/// solution on every rank.
pub fn distributed_lu_solve(comm: &mut Comm, a_full: &Mat, b: &[f64], nb: usize) -> Vec<f64> {
    let n = a_full.n_rows;
    let size = comm.size();
    let rank = comm.rank();
    let nblocks = n.div_ceil(nb);
    // My columns: a map from global block -> local storage.
    let mut local: Vec<(usize, Vec<f64>)> = Vec::new(); // (block, col-major data)
    for blk in 0..nblocks {
        if blk % size == rank {
            let c0 = blk * nb;
            let w = nb.min(n - c0);
            let mut data = vec![0.0; n * w];
            for c in 0..w {
                for r in 0..n {
                    data[c * n + r] = a_full.at(r, c0 + c);
                }
            }
            local.push((blk, data));
        }
    }
    let mut piv: Vec<usize> = Vec::with_capacity(n);

    for blk in 0..nblocks {
        let c0 = blk * nb;
        let w = nb.min(n - c0);
        let owner = blk % size;
        // Panel: (pivots for this panel, packed panel columns).
        let panel: (Vec<u64>, Vec<f64>) = if owner == rank {
            let data = &mut local.iter_mut().find(|(b, _)| *b == blk).unwrap().1;
            let mut panel_piv = Vec::with_capacity(w);
            for k in 0..w {
                let gk = c0 + k;
                // Pivot search in local column k.
                let col = &data[k * n..(k + 1) * n];
                let mut p = gk;
                for r in gk + 1..n {
                    if col[r].abs() > col[p].abs() {
                        p = r;
                    }
                }
                panel_piv.push(p as u64);
                if p != gk {
                    for c in 0..w {
                        data.swap(c * n + gk, c * n + p);
                    }
                }
                let pivot = data[k * n + gk];
                assert!(pivot.abs() > 1e-300, "singular");
                for r in gk + 1..n {
                    data[k * n + r] /= pivot;
                }
                for c in k + 1..w {
                    let akc = data[c * n + gk];
                    if akc != 0.0 {
                        for r in gk + 1..n {
                            data[c * n + r] -= data[k * n + r] * akc;
                        }
                    }
                }
            }
            let packed: Vec<f64> = data[..w * n].to_vec();
            (panel_piv, packed)
        } else {
            (Vec::new(), Vec::new())
        };
        // Broadcast pivots + panel.
        let panel_piv = comm.bcast(owner, (owner == rank).then(|| panel.0.clone()));
        let panel_data = comm.bcast(owner, (owner == rank).then(|| panel.1.clone()));
        for (k, &p) in panel_piv.iter().enumerate() {
            let gk = c0 + k;
            piv.push(p as usize);
            let p = p as usize;
            if p != gk {
                // Swap rows in all my blocks other than the panel block.
                for (b, data) in &mut local {
                    if *b == blk {
                        continue;
                    }
                    let wloc = nb.min(n - *b * nb);
                    for c in 0..wloc {
                        data.swap(c * n + gk, c * n + p);
                    }
                }
            }
        }
        // Trailing update on my blocks to the right of the panel.
        for (b, data) in &mut local {
            if *b <= blk {
                continue;
            }
            let wloc = nb.min(n - *b * nb);
            for c in 0..wloc {
                for k in 0..w {
                    let gk = c0 + k;
                    let akc = data[c * n + gk];
                    if akc != 0.0 {
                        for r in gk + 1..n {
                            data[c * n + r] -= panel_data[k * n + r] * akc;
                        }
                    }
                }
            }
        }
    }

    // Gather the factored matrix on rank 0, solve, broadcast x.
    let mine: Vec<f64> = {
        let mut buf = Vec::new();
        for (b, data) in &local {
            buf.push(*b as f64);
            buf.extend_from_slice(data);
        }
        buf
    };
    let gathered = comm.gather(0, mine);
    let x = if rank == 0 {
        let mut lu = Mat::zeros(n, n);
        for buf in gathered.unwrap() {
            let mut i = 0;
            while i < buf.len() {
                let b = buf[i] as usize;
                let c0 = b * nb;
                let w = nb.min(n - c0);
                for c in 0..w {
                    for r in 0..n {
                        lu.set(r, c0 + c, buf[i + 1 + c * n + r]);
                    }
                }
                i += 1 + w * n;
            }
        }
        let f = Lu { lu, piv };
        Some(lu_solve(&f, b))
    } else {
        None
    };
    comm.bcast(0, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_identity() {
        let mut a = Mat::zeros(5, 5);
        for i in 0..5 {
            a.set(i, i, 1.0);
        }
        let f = lu_factor(a.clone(), 2);
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let x = lu_solve(&f, &b);
        assert_eq!(x, b);
    }

    #[test]
    fn lu_solves_random_systems_accurately() {
        for (n, nb) in [(20, 4), (33, 8), (64, 16), (50, 64)] {
            let a = Mat::random(n, n as u64);
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let f = lu_factor(a.clone(), nb);
            let x = lu_solve(&f, &b);
            let res = hpl_residual(&a, &x, &b);
            assert!(res < 16.0, "n={n} nb={nb}: HPL residual {res}");
        }
    }

    #[test]
    fn blocked_matches_unblocked() {
        let a = Mat::random(40, 7);
        let b: Vec<f64> = (0..40).map(|i| i as f64 * 0.1).collect();
        let x1 = lu_solve(&lu_factor(a.clone(), 1), &b);
        let x2 = lu_solve(&lu_factor(a.clone(), 8), &b);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-9 * (1.0 + u.abs()));
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_element() {
        let mut a = Mat::zeros(2, 2);
        a.set(0, 0, 0.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 0.0);
        let f = lu_factor(a.clone(), 1);
        let x = lu_solve(&f, &[2.0, 3.0]);
        // x solves [0 1; 1 0]x = [2,3] → x = [3, 2].
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_matrix_detected() {
        let a = Mat::zeros(3, 3);
        lu_factor(a, 1);
    }

    #[test]
    fn distributed_matches_serial() {
        let n = 48;
        let a = Mat::random(n, 99);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let serial = lu_solve(&lu_factor(a.clone(), 8), &b);
        for nranks in [1, 2, 3] {
            let xs = msg::run(nranks, |c| distributed_lu_solve(c, &a, &b, 8));
            for x in xs {
                let res = hpl_residual(&a, &x, &b);
                assert!(res < 16.0, "P={nranks}: residual {res}");
                for (u, v) in x.iter().zip(&serial) {
                    assert!((u - v).abs() < 1e-8, "P={nranks}: {u} vs {v}");
                }
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_lu_solve_satisfies_hpl_residual(seed in 0u64..10_000, n in 5usize..40, nb in 1usize..12) {
            let a = Mat::random(n, seed);
            let b: Vec<f64> = (0..n).map(|i| ((seed + i as u64) % 17) as f64 - 8.0).collect();
            let x = lu_solve(&lu_factor(a.clone(), nb), &b);
            prop_assert!(hpl_residual(&a, &x, &b) < 16.0);
        }

        #[test]
        fn prop_block_size_does_not_change_the_answer(seed in 0u64..5000, n in 4usize..30) {
            let a = Mat::random(n, seed);
            let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let x1 = lu_solve(&lu_factor(a.clone(), 1), &b);
            let x2 = lu_solve(&lu_factor(a.clone(), 7), &b);
            for (u, v) in x1.iter().zip(&x2) {
                prop_assert!((u - v).abs() < 1e-7 * (1.0 + u.abs()));
            }
        }
    }
}
