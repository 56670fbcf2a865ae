//! Complex radix-2 FFT, 1-D and 3-D — what `cosmo` builds Zel'dovich
//! initial conditions and P(k) on.

use std::f64::consts::PI;
use std::ops::{Add, Mul, Sub};

/// A complex number (we implement our own to keep the workspace
/// dependency-light; the FFT only needs +, −, ×).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    pub re: f64,
    pub im: f64,
}

impl C64 {
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };

    pub fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    /// e^{iθ}.
    pub fn cis(theta: f64) -> C64 {
        C64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    pub fn scale(self, s: f64) -> C64 {
        C64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for C64 {
    type Output = C64;
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// In-place iterative Cooley–Tukey FFT. `inverse` applies the conjugate
/// transform **without** the 1/n normalization; callers scale by 1/n.
pub fn fft_inplace(data: &mut [C64], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} not a power of two");
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = C64::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = C64::ONE;
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// A dense 3-D complex field, x-major: index = (z·ny + y)·nx + x.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub data: Vec<C64>,
}

impl Field3 {
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Field3 {
        Field3 {
            nx,
            ny,
            nz,
            data: vec![C64::ZERO; nx * ny * nz],
        }
    }

    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.ny + y) * self.nx + x
    }

    /// 3-D FFT: 1-D transforms along x, then y, then z.
    pub fn fft3(&mut self, inverse: bool) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        // Along x: contiguous rows.
        for row in self.data.chunks_mut(nx) {
            fft_inplace(row, inverse);
        }
        // Along y: gather strided pencils.
        let mut pencil = vec![C64::ZERO; ny];
        for z in 0..nz {
            for x in 0..nx {
                for y in 0..ny {
                    pencil[y] = self.data[self.idx(x, y, z)];
                }
                fft_inplace(&mut pencil, inverse);
                for y in 0..ny {
                    let i = self.idx(x, y, z);
                    self.data[i] = pencil[y];
                }
            }
        }
        // Along z.
        let mut pencil = vec![C64::ZERO; nz];
        for y in 0..ny {
            for x in 0..nx {
                for z in 0..nz {
                    pencil[z] = self.data[self.idx(x, y, z)];
                }
                fft_inplace(&mut pencil, inverse);
                for z in 0..nz {
                    let i = self.idx(x, y, z);
                    self.data[i] = pencil[z];
                }
            }
        }
        if inverse {
            let s = 1.0 / (nx * ny * nz) as f64;
            for d in &mut self.data {
                *d = d.scale(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    /// Naive O(n²) DFT for validation.
    fn dft(x: &[C64]) -> Vec<C64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut s = C64::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    s = s + xj * C64::cis(-2.0 * PI * (k * j) as f64 / n as f64);
                }
                s
            })
            .collect()
    }

    #[test]
    fn fft_matches_dft() {
        for n in [2usize, 4, 8, 16, 32] {
            let x = random_signal(n, n as u64);
            let mut got = x.clone();
            fft_inplace(&mut got, false);
            let want = dft(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9,
                    "n={n}: {g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn round_trip_restores_signal() {
        let x = random_signal(256, 9);
        let mut y = x.clone();
        fft_inplace(&mut y, false);
        fft_inplace(&mut y, true);
        for (a, b) in x.iter().zip(&y) {
            let b = b.scale(1.0 / 256.0);
            assert!((a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_holds() {
        let x = random_signal(128, 4);
        let time_energy: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let mut y = x;
        fft_inplace(&mut y, false);
        let freq_energy: f64 = y.iter().map(|c| c.norm_sqr()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn delta_transforms_to_constant() {
        let mut x = vec![C64::ZERO; 64];
        x[0] = C64::ONE;
        fft_inplace(&mut x, false);
        for c in &x {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft3_round_trip() {
        let mut f = Field3::zeros(8, 4, 16);
        let mut rng = SmallRng::seed_from_u64(3);
        for d in &mut f.data {
            *d = C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        }
        let orig = f.clone();
        f.fft3(false);
        f.fft3(true);
        for (a, b) in orig.data.iter().zip(&f.data) {
            assert!((a.re - b.re).abs() < 1e-11 && (a.im - b.im).abs() < 1e-11);
        }
    }

    #[test]
    fn fft3_single_mode() {
        // A pure plane wave concentrates all energy in one bin.
        let (nx, ny, nz) = (8, 8, 8);
        let mut f = Field3::zeros(nx, ny, nz);
        let (kx, ky, kz) = (2, 3, 1);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let ph = 2.0 * PI * (kx * x) as f64 / nx as f64
                        + 2.0 * PI * (ky * y) as f64 / ny as f64
                        + 2.0 * PI * (kz * z) as f64 / nz as f64;
                    let i = f.idx(x, y, z);
                    f.data[i] = C64::cis(ph);
                }
            }
        }
        f.fft3(false);
        let peak = f.idx(kx, ky, kz);
        let n = (nx * ny * nz) as f64;
        assert!((f.data[peak].re - n).abs() < 1e-8);
        let total: f64 = f.data.iter().map(|c| c.norm_sqr()).sum();
        assert!((total - n * n).abs() < 1e-6 * total);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut x = vec![C64::ZERO; 12];
        fft_inplace(&mut x, false);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn signal(seed: u64, n: usize) -> Vec<C64> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_fft_is_linear(seed_a in 0u64..1000, seed_b in 1000u64..2000,
                              alpha in -3.0f64..3.0, logn in 3u32..8) {
            let n = 1usize << logn;
            let a = signal(seed_a, n);
            let b = signal(seed_b, n);
            // FFT(αa + b) == α FFT(a) + FFT(b)
            let mut lhs: Vec<C64> = a.iter().zip(&b)
                .map(|(x, y)| x.scale(alpha) + *y)
                .collect();
            fft_inplace(&mut lhs, false);
            let mut fa = a.clone();
            let mut fb = b.clone();
            fft_inplace(&mut fa, false);
            fft_inplace(&mut fb, false);
            for i in 0..n {
                let rhs = fa[i].scale(alpha) + fb[i];
                prop_assert!((lhs[i].re - rhs.re).abs() < 1e-9 * (n as f64));
                prop_assert!((lhs[i].im - rhs.im).abs() < 1e-9 * (n as f64));
            }
        }

        #[test]
        fn prop_round_trip_any_size(seed in 0u64..500, logn in 1u32..10) {
            let n = 1usize << logn;
            let x = signal(seed, n);
            let mut y = x.clone();
            fft_inplace(&mut y, false);
            fft_inplace(&mut y, true);
            for (a, b) in x.iter().zip(&y) {
                let b = b.scale(1.0 / n as f64);
                prop_assert!((a.re - b.re).abs() < 1e-10);
                prop_assert!((a.im - b.im).abs() < 1e-10);
            }
        }

        #[test]
        fn prop_parseval_any_size(seed in 0u64..500, logn in 1u32..9) {
            let n = 1usize << logn;
            let x = signal(seed, n);
            let te: f64 = x.iter().map(|c| c.norm_sqr()).sum();
            let mut y = x;
            fft_inplace(&mut y, false);
            let fe: f64 = y.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
            prop_assert!((te - fe).abs() < 1e-9 * te.max(1.0));
        }
    }
}
