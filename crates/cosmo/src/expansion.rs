//! Friedmann background evolution and linear growth.

/// A flat FLRW background (Ω_m + Ω_Λ = 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cosmology {
    pub omega_m: f64,
    pub omega_l: f64,
    /// Hubble constant in units of 100 km/s/Mpc.
    pub h: f64,
    /// Baryon density (enters the BBKS shape parameter).
    pub omega_b: f64,
    /// Spectral index of the primordial spectrum.
    pub ns: f64,
    /// σ₈ normalization target.
    pub sigma8: f64,
}

impl Cosmology {
    /// The concordance ΛCDM of the paper's era (WMAP-1-ish).
    pub fn lcdm() -> Cosmology {
        Cosmology {
            omega_m: 0.3,
            omega_l: 0.7,
            h: 0.7,
            omega_b: 0.04,
            ns: 1.0,
            sigma8: 0.9,
        }
    }

    /// Einstein–de Sitter (the classic test background: D(a) = a).
    pub fn eds() -> Cosmology {
        Cosmology {
            omega_m: 1.0,
            omega_l: 0.0,
            h: 0.5,
            omega_b: 0.05,
            ns: 1.0,
            sigma8: 0.9,
        }
    }

    /// E(a) = H(a)/H₀.
    pub fn e_of_a(&self, a: f64) -> f64 {
        assert!(a > 0.0);
        (self.omega_m / (a * a * a) + self.omega_l).sqrt()
    }

    /// Ω_m(a).
    pub fn omega_m_a(&self, a: f64) -> f64 {
        let e2 = self.omega_m / (a * a * a) + self.omega_l;
        self.omega_m / (a * a * a) / e2
    }

    /// Linear growth factor, normalized to D(1) = 1 (standard integral
    /// form; exact for EdS and flat ΛCDM).
    pub fn growth(&self, a: f64) -> f64 {
        self.growth_unnormalized(a) / self.growth_unnormalized(1.0)
    }

    fn growth_unnormalized(&self, a: f64) -> f64 {
        // D(a) ∝ E(a) ∫₀^a da' / (a' E(a'))³.
        let n = 2000;
        let mut sum = 0.0;
        for i in 0..n {
            let ai = a * (i as f64 + 0.5) / n as f64;
            let e = self.e_of_a(ai);
            sum += a / n as f64 / (ai * e).powi(3);
        }
        self.e_of_a(a) * sum
    }

    /// Logarithmic growth rate f = dlnD/dlna ≈ Ω_m(a)^0.55.
    pub fn growth_rate(&self, a: f64) -> f64 {
        self.omega_m_a(a).powf(0.55)
    }

    /// BBKS shape parameter Γ = Ω_m h · exp(−Ω_b(1 + √(2h)/Ω_m)).
    pub fn shape_gamma(&self) -> f64 {
        self.omega_m * self.h * (-self.omega_b * (1.0 + (2.0 * self.h).sqrt() / self.omega_m)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eds_growth_is_linear_in_a() {
        let c = Cosmology::eds();
        for a in [0.1, 0.25, 0.5, 0.8] {
            let d = c.growth(a);
            assert!((d - a).abs() < 2e-3, "D({a}) = {d}");
        }
    }

    #[test]
    fn lcdm_growth_is_suppressed_late() {
        let c = Cosmology::lcdm();
        // At early times D ≈ a·const; by a = 1 growth lags EdS.
        let d_half = c.growth(0.5);
        assert!(d_half > 0.5, "ΛCDM growth at a=0.5: {d_half}");
        assert!(d_half < 0.65);
        assert!((c.growth(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn e_of_a_today_is_one() {
        for c in [Cosmology::lcdm(), Cosmology::eds()] {
            assert!((c.e_of_a(1.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn omega_m_approaches_one_early() {
        let c = Cosmology::lcdm();
        assert!(c.omega_m_a(0.01) > 0.999);
        assert!((c.omega_m_a(1.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn growth_rate_limits() {
        let c = Cosmology::lcdm();
        assert!(c.growth_rate(0.01) > 0.99); // matter-dominated: f → 1
        assert!(c.growth_rate(1.0) < 0.6); // Λ-dominated today: f ≈ 0.51
    }

    #[test]
    fn shape_gamma_near_omh() {
        let c = Cosmology::lcdm();
        let g = c.shape_gamma();
        assert!(g > 0.15 && g < 0.21, "Γ = {g}");
    }
}
