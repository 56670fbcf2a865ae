//! Vortex particle method on the tree (§4.1: "fluid-dynamical problems
//! using ... a vortex particle method" — the Ploumans et al. 2002
//! application, reference \[9\] of the paper).
//!
//! Vorticity is carried by particles with circulation vectors **Γ**; the
//! induced velocity is the regularized Biot–Savart sum
//!
//! `u(x) = −(1/4π) Σ_j (x − x_j) × Γ_j · g(|x − x_j|/σ) / |x − x_j|³`
//!
//! with a high-order algebraic smoothing `g`. Distant clusters of
//! vortons are approximated by their total circulation at the
//! circulation centroid — the same monopole-acceptance machinery as
//! gravity, with a vector-valued "mass".

use crate::morton::BBox;
use crate::tree::{Body, Tree, NO_CELL};

/// A vortex particle ("vorton").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vorton {
    pub pos: [f64; 3],
    /// Circulation vector Γ (vorticity × volume).
    pub gamma: [f64; 3],
    /// Core (smoothing) radius σ.
    pub sigma: f64,
}

#[inline]
fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

/// Regularized Biot–Savart kernel contribution of one vorton at `sp`
/// with circulation `gamma`, core `sigma`, evaluated at `tp`.
#[inline]
pub fn biot_savart(tp: [f64; 3], sp: [f64; 3], gamma: [f64; 3], sigma: f64, out: &mut [f64; 3]) {
    let r = [tp[0] - sp[0], tp[1] - sp[1], tp[2] - sp[2]];
    let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
    // High-order algebraic regularization (Winckelmans-Leonard):
    // g(ρ)/ρ³ → (ρ² + 2.5σ²)/(ρ² + σ²)^(5/2).
    let s2 = sigma * sigma;
    let denom = (r2 + s2).powf(2.5);
    let f = (r2 + 2.5 * s2) / denom / (4.0 * std::f64::consts::PI);
    let gxr = cross(gamma, r);
    for d in 0..3 {
        out[d] += f * gxr[d];
    }
}

/// Direct O(N²) induced velocities (the accuracy reference).
pub fn direct_velocities(vortons: &[Vorton]) -> Vec<[f64; 3]> {
    vortons
        .iter()
        .map(|vi| {
            let mut u = [0.0; 3];
            for vj in vortons {
                if vj.pos != vi.pos {
                    biot_savart(vi.pos, vj.pos, vj.gamma, vj.sigma, &mut u);
                }
            }
            u
        })
        .collect()
}

/// Tree-accelerated induced velocities: distant cells contribute their
/// total circulation at the circulation centroid (|Γ|-weighted).
pub fn tree_velocities(vortons: &[Vorton], theta: f64) -> Vec<[f64; 3]> {
    assert!(!vortons.is_empty());
    // Build a tree over the vortons; Body.id indexes the vorton, the
    // body "mass" is |Γ| so centroids weight by circulation magnitude.
    let bodies: Vec<Body> = vortons
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let g = (v.gamma[0] * v.gamma[0] + v.gamma[1] * v.gamma[1] + v.gamma[2] * v.gamma[2])
                .sqrt();
            Body {
                pos: v.pos,
                vel: [0.0; 3],
                mass: g.max(1e-300),
                id: i as u64,
                work: 1.0,
            }
        })
        .collect();
    let bbox = BBox::enclosing(bodies.iter().map(|b| b.pos));
    let tree = Tree::build_in(bodies, bbox, 8);
    // Total circulation vector per cell (not stored in the gravity
    // multipole): accumulate bottom-up over the cell list.
    let ncell = tree.cells.len();
    let mut cell_gamma = vec![[0.0f64; 3]; ncell];
    let mut cell_sigma = vec![0.0f64; ncell];
    // Cells are created parent-before-child; iterate in reverse so
    // children are done first.
    for ci in (0..ncell).rev() {
        let cell = &tree.cells[ci];
        if cell.is_leaf {
            let mut g = [0.0; 3];
            let mut smax: f64 = 0.0;
            for b in tree.leaf_bodies(cell) {
                let v = &vortons[b.id as usize];
                for d in 0..3 {
                    g[d] += v.gamma[d];
                }
                smax = smax.max(v.sigma);
            }
            cell_gamma[ci] = g;
            cell_sigma[ci] = smax;
        } else {
            let mut g = [0.0; 3];
            let mut smax: f64 = 0.0;
            for &ch in &cell.children {
                if ch != NO_CELL {
                    for d in 0..3 {
                        g[d] += cell_gamma[ch as usize][d];
                    }
                    smax = smax.max(cell_sigma[ch as usize]);
                }
            }
            cell_gamma[ci] = g;
            cell_sigma[ci] = smax;
        }
    }
    // Walk per target vorton.
    (0..vortons.len())
        .map(|ti| {
            let pos = vortons[ti].pos;
            let mut u = [0.0; 3];
            let mut stack = vec![0i32];
            while let Some(ci) = stack.pop() {
                let cell = tree.cell(ci);
                if cell.nbody == 0 {
                    continue;
                }
                let dx = pos[0] - cell.mom.com[0];
                let dy = pos[1] - cell.mom.com[1];
                let dz = pos[2] - cell.mom.com[2];
                let d2 = dx * dx + dy * dy + dz * dz;
                let crit = cell.side() / theta + cell.mom.bmax;
                if d2 > crit * crit {
                    biot_savart(
                        pos,
                        cell.mom.com,
                        cell_gamma[ci as usize],
                        cell_sigma[ci as usize],
                        &mut u,
                    );
                } else if cell.is_leaf {
                    for b in tree.leaf_bodies(cell) {
                        let j = b.id as usize;
                        if j == ti {
                            continue;
                        }
                        let v = &vortons[j];
                        biot_savart(pos, v.pos, v.gamma, v.sigma, &mut u);
                    }
                } else {
                    for &ch in &cell.children {
                        if ch != NO_CELL {
                            stack.push(ch);
                        }
                    }
                }
            }
            u
        })
        .collect()
}

/// Discretize a circular vortex ring of radius `r`, circulation `gamma`,
/// core radius `sigma`, in the z = 0 plane, centered at the origin.
pub fn vortex_ring(n: usize, r: f64, gamma: f64, sigma: f64) -> Vec<Vorton> {
    (0..n)
        .map(|i| {
            let phi = std::f64::consts::TAU * i as f64 / n as f64;
            let seg = std::f64::consts::TAU * r / n as f64;
            Vorton {
                pos: [r * phi.cos(), r * phi.sin(), 0.0],
                // Tangential circulation, |Γ| = γ·segment length.
                gamma: [-gamma * seg * phi.sin(), gamma * seg * phi.cos(), 0.0],
                sigma,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_vorton_induces_a_swirl() {
        // A z-directed vorton at the origin: velocity at (1,0,0) points
        // in -y... u = (1/4π) Γ × r·f with Γ = ẑ, r = x̂: ẑ × x̂ = ŷ.
        let mut u = [0.0; 3];
        biot_savart([1.0, 0.0, 0.0], [0.0; 3], [0.0, 0.0, 1.0], 0.01, &mut u);
        assert!(u[1] > 0.0, "{u:?}");
        assert!(u[0].abs() < 1e-12 && u[2].abs() < 1e-12);
        // Far field magnitude ~ 1/(4π r²).
        let expect = 1.0 / (4.0 * std::f64::consts::PI);
        assert!(
            (u[1] - expect).abs() < 0.01 * expect,
            "{} vs {expect}",
            u[1]
        );
    }

    #[test]
    fn regularization_caps_the_core() {
        let mut near = [0.0; 3];
        biot_savart([1e-6, 0.0, 0.0], [0.0; 3], [0.0, 0.0, 1.0], 0.1, &mut near);
        let mag = (near[0].powi(2) + near[1].powi(2) + near[2].powi(2)).sqrt();
        assert!(mag < 1.0, "core not regularized: {mag}");
    }

    #[test]
    fn tree_matches_direct() {
        let ring = vortex_ring(400, 1.0, 1.0, 0.05);
        let exact = direct_velocities(&ring);
        let tree = tree_velocities(&ring, 0.4);
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, e) in tree.iter().zip(&exact) {
            for d in 0..3 {
                num += (a[d] - e[d]).powi(2);
                den += e[d] * e[d];
            }
        }
        let err = (num / den).sqrt();
        assert!(err < 1e-2, "tree vs direct rms {err}");
    }

    #[test]
    fn vortex_ring_self_propels_along_its_axis() {
        // The classic result: a thin ring translates along +z (for
        // positive circulation) at U ≈ Γ/(4πR)·(ln(8R/a) − 1/4).
        let (r, gamma, sigma) = (1.0, 1.0, 0.05);
        let ring = vortex_ring(600, r, gamma, sigma);
        let u = direct_velocities(&ring);
        // Mean axial velocity across the ring particles.
        let uz: f64 = u.iter().map(|v| v[2]).sum::<f64>() / u.len() as f64;
        let kelvin = gamma / (4.0 * std::f64::consts::PI * r) * ((8.0 * r / sigma).ln() - 0.25);
        assert!(uz > 0.0, "ring not translating: {uz}");
        // The vorton-core constant differs from the classical hollow-core
        // one; demand the right magnitude and sign.
        assert!(
            uz > 0.3 * kelvin && uz < 2.0 * kelvin,
            "U = {uz} vs Kelvin {kelvin}"
        );
        // In-plane velocity components cancel by symmetry.
        let ux: f64 = u.iter().map(|v| v[0]).sum::<f64>() / u.len() as f64;
        assert!(ux.abs() < 0.01 * uz.abs());
    }

    #[test]
    fn opposite_rings_attract_axially() {
        // Leapfrogging setup: two coaxial rings with equal circulation —
        // the front ring widens, the rear narrows... minimally: the
        // induced axial velocity on the second ring from the first is
        // positive (carried along).
        let mut pair = vortex_ring(200, 1.0, 1.0, 0.05);
        let second: Vec<Vorton> = vortex_ring(200, 1.0, 1.0, 0.05)
            .into_iter()
            .map(|mut v| {
                v.pos[2] += 0.5;
                v
            })
            .collect();
        pair.extend(second);
        let u = direct_velocities(&pair);
        let front: f64 = u[200..].iter().map(|v| v[2]).sum::<f64>() / 200.0;
        let rear: f64 = u[..200].iter().map(|v| v[2]).sum::<f64>() / 200.0;
        assert!(front > 0.0 && rear > 0.0);
    }
}
