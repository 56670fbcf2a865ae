//! Grey flux-limited diffusion (FLD) neutrino transport on particles.
//!
//! The paper (§4.4): "we have been able to include both the essential
//! physics and a flux-limited diffusion algorithm to model the neutrino
//! transport". We implement the standard grey FLD scheme on the SPH
//! discretization:
//!
//! * each particle carries a specific neutrino energy `enu`;
//! * diffusion between neighbours uses the Brookshaw SPH Laplacian with
//!   a harmonic-mean diffusivity `D = c·λ(R)/(κρ)`;
//! * the Levermore–Pomraning flux limiter `λ(R) = (2+R)/(6+3R+R²)`
//!   interpolates between the diffusion limit (λ → 1/3 for R → 0) and
//!   free streaming (λ → 1/R so |F| → cE);
//! * emission/absorption couple `enu` to the thermal energy with a
//!   κ ∝ ρT⁶-style source (a grey stand-in for the pair processes).

use crate::kernel;
use crate::neighbors::NeighborTree;
use crate::particle::SphParticle;

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): transport skips every
    /// pair whose source is a ghost. Rank threads read their own copy.
    pub(crate) static OWNED_SOURCES_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Transport parameters (code units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeutrinoConfig {
    /// Effective speed of light.
    pub c_light: f64,
    /// Opacity scale: κ = kappa0 · ρ.
    pub kappa0: f64,
    /// Emission rate scale: du/dt = −emit0 · ρ · u³ (grey T⁶ stand-in
    /// with u ∝ T²... the steep nonlinearity is what matters).
    pub emit0: f64,
}

impl Default for NeutrinoConfig {
    fn default() -> Self {
        NeutrinoConfig {
            c_light: 10.0,
            kappa0: 100.0,
            emit0: 0.1,
        }
    }
}

/// Levermore–Pomraning flux limiter.
#[inline]
pub fn flux_limiter(r: f64) -> f64 {
    debug_assert!(r >= 0.0);
    (2.0 + r) / (6.0 + 3.0 * r + r * r)
}

/// The dimensionless FLD ratio R = |∇E| / (κρE) for one pair, estimated
/// from the pairwise gradient.
#[inline]
fn fld_r(de: f64, dr: f64, kappa_rho: f64, e_mean: f64) -> f64 {
    if e_mean <= 0.0 || kappa_rho <= 0.0 || dr <= 0.0 {
        return 0.0;
    }
    (de / dr).abs() / (kappa_rho * e_mean)
}

/// Compute `denu_dt` (diffusion + emission − reabsorption) and the
/// matching `du_dt` contribution. Pairwise-antisymmetric diffusion ⇒
/// total (thermal + neutrino) energy is conserved up to the free-
/// streaming losses at the surface, which here stay in `enu`.
pub fn neutrino_transport(parts: &mut [SphParticle], nt: &NeighborTree, cfg: &NeutrinoConfig) {
    neutrino_transport_targets(parts, nt, cfg, parts.len());
}

/// [`neutrino_transport`] for the first `n_targets` particles only: the
/// rest (ghosts) are sources, and their `denu_dt` and `du_dt` are left
/// as they came. Each pair is taken once, from its lower index, and
/// scattered to both sides; ghosts sit above every target, so a target
/// still gets every pair term, and the all-targets case is the full
/// evaluation bit for bit.
pub(crate) fn neutrino_transport_targets(
    parts: &mut [SphParticle],
    nt: &NeighborTree,
    cfg: &NeutrinoConfig,
    n_targets: usize,
) {
    let n = parts.len();
    let mut denu = vec![0.0f64; n];
    let mut du = vec![0.0f64; n];
    // Cell bounds over sources too, as in the force pass.
    let hb = nt.h_bounds(parts);
    // Diffusion (Brookshaw form, harmonic-mean D, flux-limited).
    for (i, pi) in parts[..n_targets].iter().enumerate() {
        if pi.rho <= 0.0 {
            continue;
        }
        nt.pair_visit(pi.pos, pi.h, &hb, |j| {
            if j <= i {
                return;
            }
            #[cfg(test)]
            if OWNED_SOURCES_ONLY.get() && j >= n_targets {
                return;
            }
            let pj = &parts[j];
            if pj.rho <= 0.0 {
                return;
            }
            let dx = [
                pi.pos[0] - pj.pos[0],
                pi.pos[1] - pj.pos[1],
                pi.pos[2] - pj.pos[2],
            ];
            let r = (dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2]).sqrt();
            let hbar = 0.5 * (pi.h + pj.h);
            if r >= kernel::SUPPORT * hbar || r == 0.0 {
                return;
            }
            let de = pi.enu - pj.enu;
            let kr_i = cfg.kappa0 * pi.rho * pi.rho;
            let kr_j = cfg.kappa0 * pj.rho * pj.rho;
            let e_mean = 0.5 * (pi.enu + pj.enu);
            let lam_i = flux_limiter(fld_r(de, r, kr_i, e_mean));
            let lam_j = flux_limiter(fld_r(de, r, kr_j, e_mean));
            let d_i = cfg.c_light * lam_i / kr_i.max(1e-30);
            let d_j = cfg.c_light * lam_j / kr_j.max(1e-30);
            let d_harm = 2.0 * d_i * d_j / (d_i + d_j + 1e-300);
            let f = kernel::brookshaw_f(r, hbar);
            // dE_i/dt += m_j/(ρ_i ρ_j) · D · (E_j − E_i) · 2F (Brookshaw).
            let flux = 2.0 * d_harm * f * (pj.enu - pi.enu) / (pi.rho * pj.rho);
            denu[i] += pj.mass * pi.rho * flux / pi.rho;
            denu[j] -= pi.mass * pj.rho * flux / pj.rho;
        });
    }
    // Emission / thermal coupling.
    for (i, p) in parts[..n_targets].iter().enumerate() {
        let emit = cfg.emit0 * p.rho * p.u.max(0.0).powi(3);
        denu[i] += emit;
        du[i] -= emit;
    }
    let targets = parts[..n_targets].iter_mut();
    for (p, (de, duv)) in targets.zip(denu.into_iter().zip(du)) {
        p.denu_dt = de;
        p.du_dt += duv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::compute_density;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn gas_cube(n: usize, seed: u64) -> Vec<SphParticle> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                SphParticle::new(
                    [rng.gen(), rng.gen(), rng.gen()],
                    [0.0; 3],
                    1.0 / n as f64,
                    0.0,
                    i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn limiter_has_correct_asymptotes() {
        assert!((flux_limiter(0.0) - 1.0 / 3.0).abs() < 1e-12);
        // Free streaming: λ(R)·R → 1 as R → ∞.
        for r in [100.0, 1000.0, 1e6] {
            let prod = flux_limiter(r) * r;
            assert!(prod < 1.0 && prod > 0.9, "λR = {prod} at R = {r}");
        }
        // Monotone decreasing.
        let mut last = flux_limiter(0.0);
        for i in 1..100 {
            let l = flux_limiter(i as f64 * 0.5);
            assert!(l < last);
            last = l;
        }
    }

    #[test]
    fn diffusion_conserves_neutrino_energy() {
        let mut parts = gas_cube(1000, 1);
        let nt = NeighborTree::build(&parts);
        compute_density(&mut parts, &nt);
        let mut rng = SmallRng::seed_from_u64(2);
        for p in &mut parts {
            p.enu = rng.gen::<f64>();
        }
        let cfg = NeutrinoConfig {
            emit0: 0.0, // diffusion only
            ..Default::default()
        };
        neutrino_transport(&mut parts, &nt, &cfg);
        let total_rate: f64 = parts.iter().map(|p| p.mass * p.denu_dt).sum();
        let scale: f64 = parts.iter().map(|p| p.mass * p.denu_dt.abs()).sum();
        assert!(
            total_rate.abs() < 1e-10 * scale.max(1e-30),
            "dE/dt = {total_rate} (scale {scale})"
        );
    }

    #[test]
    fn spike_diffuses_outward() {
        let mut parts = gas_cube(1500, 3);
        let nt = NeighborTree::build(&parts);
        compute_density(&mut parts, &nt);
        // Energy spike near the center.
        for p in &mut parts {
            let d2 = (p.pos[0] - 0.5).powi(2) + (p.pos[1] - 0.5).powi(2) + (p.pos[2] - 0.5).powi(2);
            p.enu = if d2 < 0.01 { 1.0 } else { 0.0 };
        }
        let cfg = NeutrinoConfig {
            emit0: 0.0,
            ..Default::default()
        };
        neutrino_transport(&mut parts, &nt, &cfg);
        // Spike particles lose, their neighbours gain.
        let spike_rate: f64 = parts
            .iter()
            .filter(|p| p.enu > 0.5)
            .map(|p| p.denu_dt)
            .sum();
        let halo_rate: f64 = parts
            .iter()
            .filter(|p| {
                let d2 =
                    (p.pos[0] - 0.5).powi(2) + (p.pos[1] - 0.5).powi(2) + (p.pos[2] - 0.5).powi(2);
                p.enu == 0.0 && d2 < 0.04
            })
            .map(|p| p.denu_dt)
            .sum();
        assert!(spike_rate < 0.0, "spike not losing energy: {spike_rate}");
        assert!(halo_rate > 0.0, "halo not gaining energy: {halo_rate}");
    }

    #[test]
    fn emission_moves_energy_from_thermal_to_neutrinos() {
        let mut parts = gas_cube(500, 4);
        let nt = NeighborTree::build(&parts);
        compute_density(&mut parts, &nt);
        for p in &mut parts {
            p.u = 2.0;
            p.du_dt = 0.0;
        }
        let cfg = NeutrinoConfig::default();
        neutrino_transport(&mut parts, &nt, &cfg);
        for p in &parts {
            assert!(p.du_dt < 0.0, "thermal energy not radiating");
            assert!(p.denu_dt > 0.0);
            // Energy balance per particle: emission contribution equal
            // and opposite (diffusion nets out only globally).
        }
        // Hotter gas radiates much faster (steep nonlinearity).
        let mut cold = parts.clone();
        for p in &mut cold {
            p.u = 1.0;
            p.du_dt = 0.0;
            p.enu = 0.0;
            p.denu_dt = 0.0;
        }
        neutrino_transport(&mut cold, &nt, &cfg);
        let hot_rate: f64 = parts.iter().map(|p| -p.du_dt).sum();
        let cold_rate: f64 = cold.iter().map(|p| -p.du_dt).sum();
        assert!(
            hot_rate > 6.0 * cold_rate,
            "hot {hot_rate} vs cold {cold_rate}"
        );
    }

    #[test]
    fn dense_gas_diffuses_slower() {
        // Optically thick vs thin: raise density → smaller D → smaller
        // flux for the same gradient.
        let mut thin = gas_cube(800, 5);
        let nt_thin = NeighborTree::build(&thin);
        compute_density(&mut thin, &nt_thin);
        let mut thick = thin.clone();
        for p in &mut thick {
            p.rho *= 10.0;
        }
        for parts in [&mut thin, &mut thick] {
            for p in parts.iter_mut() {
                p.enu = p.pos[0]; // uniform gradient
            }
        }
        let cfg = NeutrinoConfig {
            emit0: 0.0,
            ..Default::default()
        };
        let nt_thick = NeighborTree::build(&thick);
        neutrino_transport(&mut thin, &nt_thin, &cfg);
        neutrino_transport(&mut thick, &nt_thick, &cfg);
        let rate = |ps: &[SphParticle]| -> f64 { ps.iter().map(|p| p.denu_dt.abs()).sum() };
        assert!(
            rate(&thin) > 5.0 * rate(&thick),
            "thin {} vs thick {}",
            rate(&thin),
            rate(&thick)
        );
    }
}
