//! The CDM power spectrum with the BBKS transfer function.
//!
//! `P(k) = A kⁿ T²(k)` with Bardeen–Bond–Kaiser–Szalay (1986):
//! `T(q) = ln(1+2.34q)/(2.34q) · [1 + 3.89q + (16.1q)² + (5.46q)³ +
//! (6.71q)⁴]^(−1/4)`, `q = k/Γ` (k in h/Mpc). The amplitude is fixed by
//! σ₈ — the rms top-hat fluctuation in 8 Mpc/h spheres.

use crate::expansion::Cosmology;

/// A normalized linear power spectrum at z = 0.
#[derive(Debug, Clone, Copy)]
pub struct PowerSpectrum {
    pub cosmology: Cosmology,
    gamma: f64,
    amplitude: f64,
}

impl PowerSpectrum {
    /// Build and normalize to the cosmology's σ₈.
    pub fn new(cosmology: Cosmology) -> PowerSpectrum {
        let mut ps = PowerSpectrum {
            cosmology,
            gamma: cosmology.shape_gamma(),
            amplitude: 1.0,
        };
        let s8 = ps.sigma_r(8.0);
        ps.amplitude = (cosmology.sigma8 / s8).powi(2);
        ps
    }

    /// BBKS transfer function.
    pub fn transfer(&self, k: f64) -> f64 {
        if k <= 0.0 {
            return 1.0;
        }
        let q = k / self.gamma;
        let lnterm = (1.0 + 2.34 * q).ln() / (2.34 * q);
        let poly = 1.0 + 3.89 * q + (16.1 * q).powi(2) + (5.46 * q).powi(3) + (6.71 * q).powi(4);
        lnterm * poly.powf(-0.25)
    }

    /// P(k) at z = 0, k in h/Mpc, P in (Mpc/h)³.
    pub fn p_of_k(&self, k: f64) -> f64 {
        if k <= 0.0 {
            return 0.0;
        }
        let t = self.transfer(k);
        self.amplitude * k.powf(self.cosmology.ns) * t * t
    }

    /// Top-hat window.
    fn w_th(x: f64) -> f64 {
        if x < 1e-4 {
            return 1.0 - x * x / 10.0;
        }
        3.0 * (x.sin() - x * x.cos()) / (x * x * x)
    }

    /// σ(R): rms linear fluctuation in top-hat spheres of radius R Mpc/h.
    pub fn sigma_r(&self, r: f64) -> f64 {
        // ∫ dk/k · k³P(k)/(2π²) · W²(kR), log-spaced quadrature.
        let (lnk0, lnk1) = ((1e-4f64).ln(), (1e3f64).ln());
        let n = 2000;
        let dlnk = (lnk1 - lnk0) / n as f64;
        let mut sum = 0.0;
        for i in 0..n {
            let k = (lnk0 + (i as f64 + 0.5) * dlnk).exp();
            let w = Self::w_th(k * r);
            sum += k.powi(3) * self.p_of_k(k) * w * w * dlnk;
        }
        (sum / (2.0 * std::f64::consts::PI * std::f64::consts::PI)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps() -> PowerSpectrum {
        PowerSpectrum::new(Cosmology::lcdm())
    }

    #[test]
    fn sigma8_normalization_round_trips() {
        let p = ps();
        assert!((p.sigma_r(8.0) - 0.9).abs() < 1e-6);
    }

    #[test]
    fn transfer_is_one_at_large_scales() {
        let p = ps();
        assert!((p.transfer(1e-5) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn spectrum_peaks_near_the_turnover() {
        let p = ps();
        // P(k) rises as k^ns at small k, falls as ~k^-3·ln² at large k;
        // the peak sits near k ≈ 0.04 Γ/0.2 h/Mpc.
        let peak_k = (0..400)
            .map(|i| 10f64.powf(-3.0 + 4.0 * i as f64 / 400.0))
            .max_by(|a, b| p.p_of_k(*a).partial_cmp(&p.p_of_k(*b)).unwrap())
            .unwrap();
        assert!(peak_k > 0.005 && peak_k < 0.1, "peak at k = {peak_k}");
    }

    #[test]
    fn small_scale_slope_is_steeply_negative() {
        let p = ps();
        let slope = (p.p_of_k(20.0) / p.p_of_k(10.0)).ln() / 2.0f64.ln();
        assert!(slope < -2.0, "slope {slope}");
    }

    #[test]
    fn sigma_decreases_with_radius() {
        let p = ps();
        assert!(p.sigma_r(1.0) > p.sigma_r(8.0));
        assert!(p.sigma_r(8.0) > p.sigma_r(32.0));
    }
}
