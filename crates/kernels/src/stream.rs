//! STREAM memory-bandwidth benchmark (McCalpin), as used in §3.2.
//!
//! Four kernels over arrays too large for cache:
//!
//! | kernel | operation        | bytes/iter | flops/iter |
//! |--------|------------------|------------|------------|
//! | copy   | `c[i] = a[i]`      | 16         | 0          |
//! | scale  | `b[i] = q·c[i]`    | 16         | 1          |
//! | add    | `c[i] = a[i]+b[i]` | 24         | 1          |
//! | triad  | `a[i] = b[i]+q·c[i]` | 24       | 2          |
//!
//! The paper's XPC node measures ~1203–1238 MB/s (Table 2), reduced ~10%
//! by the on-board video's frame buffer sharing the DRAM.

use std::time::Instant;

/// Results in MB/s (10^6 bytes per second, STREAM convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamResult {
    pub copy: f64,
    pub scale: f64,
    pub add: f64,
    pub triad: f64,
}

pub fn copy(c: &mut [f64], a: &[f64]) {
    for (ci, ai) in c.iter_mut().zip(a) {
        *ci = *ai;
    }
}

pub fn scale(b: &mut [f64], c: &[f64], q: f64) {
    for (bi, ci) in b.iter_mut().zip(c) {
        *bi = q * *ci;
    }
}

pub fn add(c: &mut [f64], a: &[f64], b: &[f64]) {
    for ((ci, ai), bi) in c.iter_mut().zip(a).zip(b) {
        *ci = *ai + *bi;
    }
}

pub fn triad(a: &mut [f64], b: &[f64], c: &[f64], q: f64) {
    for ((ai, bi), ci) in a.iter_mut().zip(b).zip(c) {
        *ai = *bi + q * *ci;
    }
}

/// Run the four kernels `reps` times over arrays of `n` doubles and
/// report the best-rep bandwidth for each, STREAM-style.
pub fn run_stream(n: usize, reps: usize) -> StreamResult {
    assert!(n >= 1000 && reps >= 1);
    let mut a = vec![1.0f64; n];
    let mut b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    let q = 3.0;
    let mut best = [f64::INFINITY; 4];
    for _ in 0..reps {
        let t = Instant::now();
        copy(&mut c, &a);
        best[0] = best[0].min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        scale(&mut b, &c, q);
        best[1] = best[1].min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        add(&mut c, &a, &b);
        best[2] = best[2].min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        triad(&mut a, &b, &c, q);
        best[3] = best[3].min(t.elapsed().as_secs_f64());
    }
    let mb = |bytes: usize, secs: f64| bytes as f64 / 1.0e6 / secs;
    StreamResult {
        copy: mb(16 * n, best[0]),
        scale: mb(16 * n, best[1]),
        add: mb(24 * n, best[2]),
        triad: mb(24 * n, best[3]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_compute_correct_values() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let mut b = vec![0.0; 4];
        let mut c = vec![0.0; 4];
        copy(&mut c, &a);
        assert_eq!(c, a);
        scale(&mut b, &c, 2.0);
        assert_eq!(b, vec![2.0, 4.0, 6.0, 8.0]);
        let mut d = vec![0.0; 4];
        add(&mut d, &a, &b);
        assert_eq!(d, vec![3.0, 6.0, 9.0, 12.0]);
        let mut e = vec![0.0; 4];
        triad(&mut e, &a, &b, 10.0);
        assert_eq!(e, vec![21.0, 42.0, 63.0, 84.0]);
    }

    #[test]
    fn run_stream_reports_positive_bandwidth() {
        let r = run_stream(100_000, 2);
        for v in [r.copy, r.scale, r.add, r.triad] {
            assert!(v.is_finite() && v > 10.0, "bandwidth {v} MB/s");
        }
    }

    #[test]
    #[should_panic]
    fn tiny_arrays_rejected() {
        run_stream(10, 1);
    }
}
