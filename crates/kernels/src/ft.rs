//! The NPB FT pseudo-application: spectral solution of a 3-D heat
//! equation.
//!
//! `u(x, t) = FFT⁻¹[ exp(−4απ²|k|²t) · FFT(u₀) ]`, evaluated for t = 1..T,
//! with a checksum over a fixed index sequence each step. Communication
//! in the distributed version is a full transpose (alltoall) per
//! transform — the reason FT is the most bandwidth-hungry NPB kernel on
//! a cluster, and the one where the Space Simulator beats ASCI Q at 64
//! processors (Table 3).

use crate::fft::{Field3, C64};

/// NPB FT's α.
pub const ALPHA: f64 = 1.0e-6;

/// The NPB LCG: x_{k+1} = a·x_k mod 2^46, a = 5^13.
#[derive(Debug, Clone, Copy)]
struct NpbRandom {
    seed: u64,
}

const NPB_A: u64 = 1_220_703_125; // 5^13
const MASK46: u64 = (1 << 46) - 1;

impl NpbRandom {
    fn new(seed: u64) -> NpbRandom {
        NpbRandom {
            seed: seed & MASK46,
        }
    }

    /// Next uniform deviate in (0, 1).
    fn next_f64(&mut self) -> f64 {
        // 46-bit modular multiply; u64 overflows at 46+31 bits, so use
        // 128-bit intermediate (the original splits into halves).
        self.seed = ((self.seed as u128 * NPB_A as u128) & MASK46 as u128) as u64;
        self.seed as f64 / (1u64 << 46) as f64
    }

    /// Jump ahead `k` steps (a^k mod 2^46 by binary power).
    fn skip(&mut self, k: u64) {
        let mut a = NPB_A as u128;
        let mut k = k;
        let m = MASK46 as u128;
        let mut x = self.seed as u128;
        while k > 0 {
            if k & 1 == 1 {
                x = (x * a) & m;
            }
            a = (a * a) & m;
            k >>= 1;
        }
        self.seed = x as u64;
    }
}

/// Initialize the field with the NPB LCG stream.
pub fn ft_init(nx: usize, ny: usize, nz: usize, seed: u64) -> Field3 {
    let mut rng = NpbRandom::new(seed);
    let mut f = Field3::zeros(nx, ny, nz);
    for d in &mut f.data {
        let re = rng.next_f64();
        let im = rng.next_f64();
        *d = C64::new(re, im);
    }
    f
}

/// Signed frequency index for bin `i` of `n`.
fn freq(i: usize, n: usize) -> i64 {
    if i <= n / 2 {
        i as i64
    } else {
        i as i64 - n as i64
    }
}

/// Run the FT benchmark: returns one checksum per iteration.
pub fn ft_benchmark(nx: usize, ny: usize, nz: usize, iterations: usize, seed: u64) -> Vec<C64> {
    let u0 = ft_init(nx, ny, nz, seed);
    let mut ubar = u0.clone();
    ubar.fft3(false);
    // Precompute the per-mode decay exponents.
    let mut ex = vec![0.0f64; nx * ny * nz];
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let kx = freq(x, nx) as f64;
                let ky = freq(y, ny) as f64;
                let kz = freq(z, nz) as f64;
                ex[(z * ny + y) * nx + x] =
                    -4.0 * ALPHA * std::f64::consts::PI.powi(2) * (kx * kx + ky * ky + kz * kz);
            }
        }
    }
    let mut checksums = Vec::with_capacity(iterations);
    for t in 1..=iterations {
        let mut w = ubar.clone();
        for (c, e) in w.data.iter_mut().zip(&ex) {
            *c = c.scale((e * t as f64).exp());
        }
        w.fft3(true);
        checksums.push(checksum(&w));
    }
    checksums
}

/// The NPB FT checksum: Σ_{j=1..1024} u(j·5 mod nx, j·3 mod ny, j mod nz).
pub fn checksum(f: &Field3) -> C64 {
    let mut s = C64::ZERO;
    for j in 1..=1024usize {
        let x = (5 * j) % f.nx;
        let y = (3 * j) % f.ny;
        let z = j % f.nz;
        s = s + f.data[f.idx(x, y, z)];
    }
    s.scale(1.0 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic_and_in_range() {
        let mut a = NpbRandom::new(271_828_183);
        let mut b = NpbRandom::new(271_828_183);
        for _ in 0..100 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!(x > 0.0 && x < 1.0);
        }
    }

    #[test]
    fn skip_ahead_matches_sequential() {
        let mut seq = NpbRandom::new(314_159_265);
        for _ in 0..1000 {
            seq.next_f64();
        }
        let mut jump = NpbRandom::new(314_159_265);
        jump.skip(1000);
        assert_eq!(seq.next_f64(), jump.next_f64());
    }

    #[test]
    fn checksums_are_finite_and_deterministic() {
        let a = ft_benchmark(16, 16, 16, 4, 314_159_265);
        let b = ft_benchmark(16, 16, 16, 4, 314_159_265);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.re.is_finite() && x.im.is_finite());
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ft_benchmark(8, 8, 8, 1, 1);
        let b = ft_benchmark(8, 8, 8, 1, 2);
        assert_ne!(a[0], b[0]);
    }

    #[test]
    fn heat_equation_dissipates_energy() {
        // Total energy of the evolved field decreases with t (every mode
        // except k = 0 decays).
        let u0 = ft_init(16, 16, 16, 7);
        let mut ubar = u0.clone();
        ubar.fft3(false);
        let mut ex = Vec::new();
        for z in 0..16 {
            for y in 0..16 {
                for x in 0..16usize {
                    let (kx, ky, kz) = (freq(x, 16), freq(y, 16), freq(z, 16));
                    ex.push(
                        -4.0 * ALPHA
                            * std::f64::consts::PI.powi(2)
                            * (kx * kx + ky * ky + kz * kz) as f64,
                    );
                }
            }
        }
        let energy_at = |t: f64| -> f64 {
            let mut w = ubar.clone();
            for (c, e) in w.data.iter_mut().zip(&ex) {
                *c = c.scale((e * t).exp());
            }
            w.fft3(true);
            w.energy()
        };
        let e1 = energy_at(1.0);
        let e10 = energy_at(10.0);
        let e100 = energy_at(100.0);
        assert!(e10 < e1);
        assert!(e100 < e10);
    }

    #[test]
    fn zero_time_recovers_initial_field() {
        let u0 = ft_init(8, 8, 8, 3);
        let mut w = u0.clone();
        w.fft3(false);
        w.fft3(true);
        for (a, b) in u0.data.iter().zip(&w.data) {
            assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn frequency_mapping() {
        assert_eq!(freq(0, 8), 0);
        assert_eq!(freq(4, 8), 4);
        assert_eq!(freq(5, 8), -3);
        assert_eq!(freq(7, 8), -1);
    }
}

/// Distributed FT over z-slabs: local x/y FFTs, an all-to-all transpose
/// to x-slabs, local z FFTs — the exact communication skeleton of NPB
/// FT, and the reason FT is all-to-all bound on a cluster. Every rank
/// returns the (identical) checksum series.
///
/// Requires `nx % P == 0` and `nz % P == 0`.
pub fn ft_distributed(
    comm: &mut msg::Comm,
    nx: usize,
    ny: usize,
    nz: usize,
    iterations: usize,
    seed: u64,
) -> Vec<C64> {
    use crate::fft::fft_inplace;
    let p = comm.size();
    let rank = comm.rank();
    assert!(
        nz.is_multiple_of(p) && nx.is_multiple_of(p),
        "grid must divide by {p} ranks"
    );
    let lz = nz / p;
    let lx = nx / p;
    let z0 = rank * lz;
    let x0 = rank * lx;

    // Initialize my z-slab from the shared LCG stream (2 deviates per
    // element, stream ordered like the serial field).
    let mut rng = NpbRandom::new(seed);
    rng.skip(2 * (z0 * ny * nx) as u64);
    let mut slab = vec![C64::ZERO; lz * ny * nx];
    for c in &mut slab {
        let re = rng.next_f64();
        let im = rng.next_f64();
        *c = C64::new(re, im);
    }

    // Forward x and y FFTs within the slab.
    let fft_slab_xy = |slab: &mut Vec<C64>, inverse: bool| {
        for row in slab.chunks_mut(nx) {
            fft_inplace(row, inverse);
        }
        let mut pencil = vec![C64::ZERO; ny];
        for zl in 0..lz {
            for x in 0..nx {
                for y in 0..ny {
                    pencil[y] = slab[(zl * ny + y) * nx + x];
                }
                fft_inplace(&mut pencil, inverse);
                for y in 0..ny {
                    slab[(zl * ny + y) * nx + x] = pencil[y];
                }
            }
        }
    };
    fft_slab_xy(&mut slab, false);

    // Transpose: z-slabs -> x-slabs (pencils with contiguous z).
    let transpose_fwd = |comm: &mut msg::Comm, slab: &[C64]| -> Vec<C64> {
        let mut buckets: Vec<Vec<C64>> = (0..p).map(|_| Vec::new()).collect();
        for (d, bucket) in buckets.iter_mut().enumerate() {
            bucket.reserve(lz * ny * lx);
            for zl in 0..lz {
                for y in 0..ny {
                    for xl in 0..lx {
                        bucket.push(slab[(zl * ny + y) * nx + d * lx + xl]);
                    }
                }
            }
        }
        let received = comm.alltoallv(buckets);
        // pencils[(xl*ny + y)*nz + z]
        let mut pencils = vec![C64::ZERO; lx * ny * nz];
        for (s, block) in received.iter().enumerate() {
            let mut i = 0;
            for zl in 0..lz {
                let z = s * lz + zl;
                for y in 0..ny {
                    for xl in 0..lx {
                        pencils[(xl * ny + y) * nz + z] = block[i];
                        i += 1;
                    }
                }
            }
        }
        pencils
    };
    let transpose_back = |comm: &mut msg::Comm, pencils: &[C64]| -> Vec<C64> {
        let mut buckets: Vec<Vec<C64>> = (0..p).map(|_| Vec::new()).collect();
        for (d, bucket) in buckets.iter_mut().enumerate() {
            bucket.reserve(lx * ny * lz);
            for zl in 0..lz {
                let z = d * lz + zl;
                for y in 0..ny {
                    for xl in 0..lx {
                        bucket.push(pencils[(xl * ny + y) * nz + z]);
                    }
                }
            }
        }
        let received = comm.alltoallv(buckets);
        let mut slab = vec![C64::ZERO; lz * ny * nx];
        for (s, block) in received.iter().enumerate() {
            let mut i = 0;
            for zl in 0..lz {
                for y in 0..ny {
                    for xl in 0..lx {
                        slab[(zl * ny + y) * nx + s * lx + xl] = block[i];
                        i += 1;
                    }
                }
            }
        }
        slab
    };

    let mut pencils = transpose_fwd(comm, &slab);
    for pencil in pencils.chunks_mut(nz) {
        fft_inplace(pencil, false);
    }
    // ubar now lives as x-slab pencils; precompute decay exponents.
    let mut ex = vec![0.0f64; lx * ny * nz];
    for xl in 0..lx {
        let kx = freq(x0 + xl, nx) as f64;
        for y in 0..ny {
            let ky = freq(y, ny) as f64;
            for z in 0..nz {
                let kz = freq(z, nz) as f64;
                ex[(xl * ny + y) * nz + z] =
                    -4.0 * ALPHA * std::f64::consts::PI.powi(2) * (kx * kx + ky * ky + kz * kz);
            }
        }
    }

    let norm = 1.0 / (nx * ny * nz) as f64;
    let mut checksums = Vec::with_capacity(iterations);
    for t in 1..=iterations {
        let mut w = pencils.clone();
        for (c, e) in w.iter_mut().zip(&ex) {
            *c = c.scale((e * t as f64).exp());
        }
        // Inverse: z FFT, transpose back, y and x inverse, normalize.
        for pencil in w.chunks_mut(nz) {
            fft_inplace(pencil, true);
        }
        let mut back = transpose_back(comm, &w);
        fft_slab_xy(&mut back, true);
        for c in &mut back {
            *c = c.scale(norm);
        }
        // Checksum over my z-range, then a global sum.
        let mut local = C64::ZERO;
        for j in 1..=1024usize {
            let z = j % nz;
            if z >= z0 && z < z0 + lz {
                let x = (5 * j) % nx;
                let y = (3 * j) % ny;
                local = local + back[((z - z0) * ny + y) * nx + x];
            }
        }
        let sum = comm.allreduce(vec![local.re, local.im], |a, b| {
            vec![a[0] + b[0], a[1] + b[1]]
        });
        checksums.push(C64::new(sum[0] / 1024.0, sum[1] / 1024.0));
    }
    checksums
}

#[cfg(test)]
mod distributed_tests {
    use super::*;

    #[test]
    fn distributed_matches_serial() {
        let serial = ft_benchmark(8, 8, 8, 3, 314_159_265);
        for ranks in [1usize, 2, 4] {
            let results = msg::run(ranks, |c| ft_distributed(c, 8, 8, 8, 3, 314_159_265));
            for r in &results {
                assert_eq!(r.len(), serial.len());
                for (a, b) in r.iter().zip(&serial) {
                    assert!(
                        (a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10,
                        "{ranks} ranks: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_handles_non_cubic_grids() {
        let serial = ft_benchmark(16, 4, 8, 2, 99);
        let results = msg::run(2, |c| ft_distributed(c, 16, 4, 8, 2, 99));
        for r in &results {
            for (a, b) in r.iter().zip(&serial) {
                assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn indivisible_grid_rejected() {
        msg::run(3, |c| ft_distributed(c, 8, 8, 8, 1, 1));
    }
}
