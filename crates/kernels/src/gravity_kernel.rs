//! The gravity micro-kernel of §3.6 (Table 5), runnable on the host.
//!
//! "Execution time for our parallel N-body application is dominated by
//! the force calculation in the inner loop." The kernel computes the
//! softened monopole force of `n` sources on one target, charged at 38
//! flops per interaction. Two variants: the math library `sqrt` and the
//! Karp reciprocal-sqrt from `hot::gravity`.

use hot::gravity::{p2p, p2p_karp, Accel, P2P_FLOPS};
use std::time::Instant;

/// A prepared micro-kernel problem.
pub struct KernelBench {
    pub targets: Vec<[f64; 3]>,
    pub sources: Vec<[f64; 3]>,
    pub masses: Vec<f64>,
    pub eps2: f64,
}

impl KernelBench {
    pub fn new(n_targets: usize, n_sources: usize, seed: u64) -> KernelBench {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut point = |_: usize| -> [f64; 3] {
            [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ]
        };
        let targets: Vec<[f64; 3]> = (0..n_targets).map(&mut point).collect();
        let sources: Vec<[f64; 3]> = (0..n_sources).map(&mut point).collect();
        let masses = vec![1.0 / n_sources as f64; n_sources];
        KernelBench {
            targets,
            sources,
            masses,
            eps2: 1e-4,
        }
    }

    /// Interactions per full pass.
    pub fn interactions(&self) -> u64 {
        (self.targets.len() * self.sources.len()) as u64
    }

    /// One pass with the libm-sqrt kernel; returns the summed
    /// acceleration (to keep the work observable).
    pub fn run_libm(&self) -> Accel {
        let mut total = Accel::default();
        for &t in &self.targets {
            let mut out = Accel::default();
            for (s, m) in self.sources.iter().zip(&self.masses) {
                p2p(t, *s, *m, self.eps2, &mut out);
            }
            total.add(&out);
        }
        total
    }

    /// One pass with the Karp reciprocal-sqrt kernel.
    pub fn run_karp(&self) -> Accel {
        let mut total = Accel::default();
        for &t in &self.targets {
            let mut out = Accel::default();
            for (s, m) in self.sources.iter().zip(&self.masses) {
                p2p_karp(t, *s, *m, self.eps2, &mut out);
            }
            total.add(&out);
        }
        total
    }

    /// Measure both variants on the host; returns `(libm, karp)` Mflop/s
    /// using the paper's 38-flops-per-interaction convention.
    pub fn measure(&self, passes: usize) -> (f64, f64) {
        assert!(passes >= 1);
        let flops = self.interactions() as f64 * P2P_FLOPS * passes as f64;
        let t = Instant::now();
        let mut sink = Accel::default();
        for _ in 0..passes {
            sink.add(&self.run_libm());
        }
        let libm_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..passes {
            sink.add(&self.run_karp());
        }
        let karp_s = t.elapsed().as_secs_f64();
        // Keep the sink alive so the loops can't be optimized out.
        assert!(sink.norm().is_finite());
        (flops / libm_s / 1e6, flops / karp_s / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_agree_numerically() {
        let b = KernelBench::new(16, 128, 1);
        let a1 = b.run_libm();
        let a2 = b.run_karp();
        assert!((a1.pot - a2.pot).abs() < 1e-8 * a1.pot.abs());
        for d in 0..3 {
            assert!((a1.acc[d] - a2.acc[d]).abs() < 1e-8 * (1.0 + a1.norm()));
        }
    }

    #[test]
    fn measurement_reports_sane_rates() {
        let b = KernelBench::new(32, 256, 2);
        let (libm, karp) = b.measure(3);
        assert!(libm > 1.0 && libm < 1e6, "libm {libm} Mflop/s");
        assert!(karp > 1.0 && karp < 1e6, "karp {karp} Mflop/s");
    }

    #[test]
    fn interaction_count() {
        let b = KernelBench::new(10, 20, 3);
        assert_eq!(b.interactions(), 200);
    }
}
