//! Gravity kernels: softened P2P, multipole evaluation, and the Karp
//! reciprocal square root.
//!
//! The paper's micro-kernel benchmark (§3.6, Table 5) compares the math
//! library's `sqrt` against "an optimization by Karp, which decomposes the
//! reciprocal square root into a table lookup, Chebyshev interpolation and
//! Newton-Raphson iteration, which uses only adds and multiplies".
//! [`karp_rsqrt`] implements exactly that decomposition.

use crate::multipole::Multipole;
use msg::BitEq;
use std::sync::OnceLock;

/// Flops charged per P2P interaction (the community convention used by
/// the paper's Mflop/s figures).
pub const P2P_FLOPS: f64 = 38.0;
/// Flops charged per monopole cell interaction.
pub const M2P_MONO_FLOPS: f64 = 38.0;
/// Flops charged per quadrupole cell interaction.
pub const M2P_QUAD_FLOPS: f64 = 92.0;

/// Acceleration and potential on one body.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Accel {
    pub acc: [f64; 3],
    pub pot: f64,
}

impl Accel {
    pub fn add(&mut self, o: &Accel) {
        for d in 0..3 {
            self.acc[d] += o.acc[d];
        }
        self.pot += o.pot;
    }

    pub fn norm(&self) -> f64 {
        (self.acc[0] * self.acc[0] + self.acc[1] * self.acc[1] + self.acc[2] * self.acc[2]).sqrt()
    }
}

impl BitEq for Accel {
    fn bit_eq(&self, o: &Self) -> bool {
        self.acc.bit_eq(&o.acc) && self.pot.bit_eq(&o.pot)
    }
}

/// Which multipole acceptance criterion to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MacKind {
    /// Barnes–Hut geometric: accept when `cell side / distance < θ`.
    BarnesHut,
    /// Warren–Salmon style: accept when `2·bmax / distance < θ` — adapts
    /// to the actual mass distribution inside the cell.
    BmaxMac,
}

/// Configuration of a gravity calculation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GravityConfig {
    /// Opening angle; smaller = more accurate, more work.
    pub theta: f64,
    /// Plummer softening length.
    pub eps: f64,
    /// Max bodies in a leaf cell.
    pub leaf_max: usize,
    /// Evaluate cell quadrupoles (vs monopole only).
    pub quadrupole: bool,
    pub mac: MacKind,
    /// Periodic box side length; forces use the nearest image of each
    /// cell/body (a minimum-image approximation to Ewald summation,
    /// adequate for theta <= 0.7 — see DESIGN.md).
    pub periodic: Option<f64>,
}

impl BitEq for GravityConfig {
    fn bit_eq(&self, o: &Self) -> bool {
        self.theta.bit_eq(&o.theta)
            && self.eps.bit_eq(&o.eps)
            && self.leaf_max == o.leaf_max
            && self.quadrupole == o.quadrupole
            && self.mac == o.mac
            && self.periodic.bit_eq(&o.periodic)
    }
}

impl Default for GravityConfig {
    fn default() -> Self {
        GravityConfig {
            theta: 0.6,
            eps: 0.0,
            leaf_max: 8,
            quadrupole: true,
            mac: MacKind::BarnesHut,
            periodic: None,
        }
    }
}

/// Nearest periodic image of `pos` relative to `target` in a box of
/// side `l` (component-wise minimum image).
#[inline]
pub fn nearest_image(target: [f64; 3], pos: [f64; 3], l: f64) -> [f64; 3] {
    let mut out = pos;
    for d in 0..3 {
        let mut dx = pos[d] - target[d];
        if dx > 0.5 * l {
            dx -= l;
        } else if dx < -0.5 * l {
            dx += l;
        }
        out[d] = target[d] + dx;
    }
    out
}

/// Softened point-mass (P2P) interaction of a source at `sp` with mass
/// `sm` on a target at `tp`. G = 1.
#[inline]
pub fn p2p(tp: [f64; 3], sp: [f64; 3], sm: f64, eps2: f64, out: &mut Accel) {
    let dx = sp[0] - tp[0];
    let dy = sp[1] - tp[1];
    let dz = sp[2] - tp[2];
    let r2 = dx * dx + dy * dy + dz * dz + eps2;
    let rinv = 1.0 / r2.sqrt();
    let rinv3 = rinv * rinv * rinv;
    out.acc[0] += sm * dx * rinv3;
    out.acc[1] += sm * dy * rinv3;
    out.acc[2] += sm * dz * rinv3;
    out.pot -= sm * rinv;
}

/// P2P using [`karp_rsqrt`] instead of the library sqrt — the inner loop
/// of the paper's Table 5 "Karp" column.
#[inline]
pub fn p2p_karp(tp: [f64; 3], sp: [f64; 3], sm: f64, eps2: f64, out: &mut Accel) {
    let dx = sp[0] - tp[0];
    let dy = sp[1] - tp[1];
    let dz = sp[2] - tp[2];
    let r2 = dx * dx + dy * dy + dz * dz + eps2;
    let rinv = karp_rsqrt(r2);
    let rinv3 = rinv * rinv * rinv;
    out.acc[0] += sm * dx * rinv3;
    out.acc[1] += sm * dy * rinv3;
    out.acc[2] += sm * dz * rinv3;
    out.pot -= sm * rinv;
}

/// Cell–particle (M2P) interaction: monopole plus, optionally, the
/// traceless quadrupole. Softening applies to the monopole term (the
/// quadrupole only matters in the far field where softening is
/// negligible).
#[inline]
pub fn m2p(tp: [f64; 3], mom: &Multipole, eps2: f64, quadrupole: bool, out: &mut Accel) {
    let dx = mom.com[0] - tp[0];
    let dy = mom.com[1] - tp[1];
    let dz = mom.com[2] - tp[2];
    let r2 = dx * dx + dy * dy + dz * dz + eps2;
    let rinv = 1.0 / r2.sqrt();
    let rinv2 = rinv * rinv;
    let rinv3 = rinv * rinv2;
    out.acc[0] += mom.mass * dx * rinv3;
    out.acc[1] += mom.mass * dy * rinv3;
    out.acc[2] += mom.mass * dz * rinv3;
    out.pot -= mom.mass * rinv;
    if quadrupole {
        // r points from target to com; the expansion is in x = tp − com,
        // but Q is symmetric in x → −x, so we can use r directly.
        let q = &mom.quad;
        let qr = [
            q[0] * dx + q[3] * dy + q[4] * dz,
            q[3] * dx + q[1] * dy + q[5] * dz,
            q[4] * dx + q[5] * dy + q[2] * dz,
        ];
        let rqr = qr[0] * dx + qr[1] * dy + qr[2] * dz;
        let rinv5 = rinv3 * rinv2;
        let rinv7 = rinv5 * rinv2;
        // φ = −m/R − RᵀQR/(2R⁵) with R = tp − com = −d; a = −∇_tp φ
        //   = QR/R⁵ − (5/2)(RᵀQR)R/R⁷ = −Qd/R⁵ + (5/2)(dᵀQd)d/R⁷.
        out.pot -= 0.5 * rqr * rinv5;
        out.acc[0] += -qr[0] * rinv5 + 2.5 * rqr * dx * rinv7;
        out.acc[1] += -qr[1] * rinv5 + 2.5 * rqr * dy * rinv7;
        out.acc[2] += -qr[2] * rinv5 + 2.5 * rqr * dz * rinv7;
    }
}

const KARP_BITS: usize = 8;
const KARP_SIZE: usize = 1 << KARP_BITS;

struct KarpTables {
    /// Linear fit y ≈ a + b·t per interval, for f in [1,2) and [2,4).
    a: [f64; 2 * KARP_SIZE],
    b: [f64; 2 * KARP_SIZE],
}

fn karp_tables() -> &'static KarpTables {
    static TABLES: OnceLock<KarpTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut a = [0.0; 2 * KARP_SIZE];
        let mut b = [0.0; 2 * KARP_SIZE];
        // Interval i of half h (h=0: f in [1,2); h=1: f in [2,4)) covers
        // f0 .. f0 + df. Chebyshev-flavoured linear fit: interpolate the
        // endpoints, which for 512 intervals leaves a ~1e-6 max error,
        // then one Newton step reaches ~1e-12.
        for h in 0..2 {
            let base = 1.0 * (1 << h) as f64;
            let df = base / KARP_SIZE as f64;
            for i in 0..KARP_SIZE {
                let f0 = base + i as f64 * df;
                let f1 = f0 + df;
                let y0 = 1.0 / f0.sqrt();
                let y1 = 1.0 / f1.sqrt();
                let idx = h * KARP_SIZE + i;
                b[idx] = (y1 - y0) / df;
                a[idx] = y0 - b[idx] * f0;
            }
        }
        KarpTables { a, b }
    })
}

/// Karp's reciprocal square root: table lookup + linear (Chebyshev)
/// interpolation + one Newton–Raphson iteration — adds and multiplies
/// only after the initial bit extraction. Relative error < 1e-11 over the
/// full positive range.
#[inline]
pub fn karp_rsqrt(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023; // unbiased exponent
                                                    // Split x = 2^(2k) · f with f in [1,4): k = floor(exp/2).
    let k = exp >> 1; // arithmetic shift: floor for negatives
    let h = (exp - 2 * k) as usize; // 0 → f in [1,2), 1 → f in [2,4)
                                    // f's mantissa: force exponent to 1023 + h.
    let fbits = (bits & 0x000f_ffff_ffff_ffff) | (((1023 + h as u64) & 0x7ff) << 52);
    let f = f64::from_bits(fbits);
    // Table index: top mantissa bits.
    let idx = h * KARP_SIZE + ((bits >> (52 - KARP_BITS)) & (KARP_SIZE as u64 - 1)) as usize;
    let t = karp_tables();
    let y0 = t.a[idx] + t.b[idx] * f;
    // One Newton–Raphson step: y ← y(1.5 − 0.5 f y²).
    let y = y0 * (1.5 - 0.5 * f * y0 * y0);
    let y = y * (1.5 - 0.5 * f * y * y);
    // Scale by 2^(−k).
    let scale = f64::from_bits(((1023 - k) as u64) << 52);
    y * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn karp_rsqrt_accuracy_across_magnitudes() {
        for &x in &[
            1.0, 2.0, 3.0, 4.0, 0.5, 0.25, 1e-12, 1e12, 7.389, 1e-300, 1e300, 1.0000001,
        ] {
            let got = karp_rsqrt(x);
            let want = 1.0 / x.sqrt();
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-11, "x={x}: got {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn p2p_matches_newton_for_two_bodies() {
        let mut out = Accel::default();
        p2p([0.0; 3], [2.0, 0.0, 0.0], 8.0, 0.0, &mut out);
        // a = m/r² toward the source = 8/4 = 2 in +x.
        assert!((out.acc[0] - 2.0).abs() < 1e-14);
        assert_eq!(out.acc[1], 0.0);
        assert!((out.pot + 4.0).abs() < 1e-14); // φ = −m/r = −4
    }

    #[test]
    fn softening_caps_close_encounters() {
        let mut hard = Accel::default();
        let mut soft = Accel::default();
        p2p([0.0; 3], [1e-6, 0.0, 0.0], 1.0, 0.0, &mut hard);
        p2p([0.0; 3], [1e-6, 0.0, 0.0], 1.0, 0.01, &mut soft);
        assert!(hard.acc[0] > 1e11);
        assert!(soft.acc[0] < 1.0);
    }

    #[test]
    fn p2p_karp_agrees_with_p2p() {
        let mut a = Accel::default();
        let mut b = Accel::default();
        p2p([0.1, 0.2, 0.3], [1.0, -2.0, 0.5], 3.0, 0.01, &mut a);
        p2p_karp([0.1, 0.2, 0.3], [1.0, -2.0, 0.5], 3.0, 0.01, &mut b);
        for d in 0..3 {
            assert!((a.acc[d] - b.acc[d]).abs() < 1e-9 * a.norm());
        }
        assert!((a.pot - b.pot).abs() < 1e-9 * a.pot.abs());
    }

    #[test]
    fn m2p_monopole_equals_p2p_of_com() {
        let mom = Multipole {
            mass: 5.0,
            com: [3.0, 1.0, -2.0],
            quad: [0.0; 6],
            bmax: 0.0,
        };
        let mut a = Accel::default();
        let mut b = Accel::default();
        m2p([0.0; 3], &mom, 0.0, true, &mut a);
        p2p([0.0; 3], mom.com, mom.mass, 0.0, &mut b);
        for d in 0..3 {
            assert!((a.acc[d] - b.acc[d]).abs() < 1e-14);
        }
        assert!((a.pot - b.pot).abs() < 1e-14);
    }

    #[test]
    fn quadrupole_improves_far_field() {
        // A dumbbell seen from afar: quadrupole correction must shrink
        // the error vs the exact pairwise force.
        let bodies = [([1.0, 0.0, 0.0], 1.0), ([-1.0, 0.0, 0.0], 1.0)];
        let mom = Multipole::from_bodies(bodies.iter().map(|(p, m)| (p, *m)));
        let target = [10.0, 4.0, 0.0];
        let mut exact = Accel::default();
        for (p, m) in &bodies {
            p2p(target, *p, *m, 0.0, &mut exact);
        }
        let mut mono = Accel::default();
        m2p(target, &mom, 0.0, false, &mut mono);
        let mut quad = Accel::default();
        m2p(target, &mom, 0.0, true, &mut quad);
        let err = |a: &Accel| {
            let mut e = 0.0;
            for d in 0..3 {
                e += (a.acc[d] - exact.acc[d]).powi(2);
            }
            e.sqrt() / exact.norm()
        };
        assert!(
            err(&quad) < err(&mono) * 0.3,
            "mono {} quad {}",
            err(&mono),
            err(&quad)
        );
        let pot_err_mono = (mono.pot - exact.pot).abs();
        let pot_err_quad = (quad.pot - exact.pot).abs();
        assert!(pot_err_quad < pot_err_mono * 0.3);
    }

    #[test]
    fn accel_add_accumulates() {
        let mut a = Accel {
            acc: [1.0, 2.0, 3.0],
            pot: -1.0,
        };
        a.add(&Accel {
            acc: [0.5, 0.5, 0.5],
            pot: -0.5,
        });
        assert_eq!(a.acc, [1.5, 2.5, 3.5]);
        assert_eq!(a.pot, -1.5);
    }

    proptest! {
        #[test]
        fn prop_karp_rsqrt_accurate(x in 1e-30f64..1e30) {
            let got = karp_rsqrt(x);
            let want = 1.0 / x.sqrt();
            prop_assert!(((got - want) / want).abs() < 1e-11);
        }

        #[test]
        fn prop_p2p_antisymmetric(px in -5.0f64..5.0, py in -5.0f64..5.0, pz in -5.0f64..5.0) {
            // Force of A on B equals minus force of B on A (equal masses).
            prop_assume!(px * px + py * py + pz * pz > 1e-4);
            let a_pos = [0.0; 3];
            let b_pos = [px, py, pz];
            let mut on_a = Accel::default();
            let mut on_b = Accel::default();
            p2p(a_pos, b_pos, 1.0, 0.0, &mut on_a);
            p2p(b_pos, a_pos, 1.0, 0.0, &mut on_b);
            for d in 0..3 {
                prop_assert!((on_a.acc[d] + on_b.acc[d]).abs() < 1e-12 * (on_a.norm() + 1.0));
            }
        }
    }
}

/// Lane width of the unrolled span kernels. Eight independent
/// interaction chains keep a modern FMA pipeline full and give the
/// autovectorizer 512 bits of f64 to play with.
pub const SPAN_LANES: usize = 8;

/// P2P over a structure-of-arrays span of sources: `xs/ys/zs/ms` are
/// parallel slices gathered by the interaction-list engine
/// ([`crate::ilist`]). Eight-wide unrolled with `f64::mul_add`; the
/// remainder runs through the same lane accumulators so results do not
/// depend on how the span length decomposes into chunks.
pub fn p2p_span(
    tp: [f64; 3],
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    ms: &[f64],
    eps2: f64,
    out: &mut Accel,
) {
    let n = xs.len();
    debug_assert!(ys.len() == n && zs.len() == n && ms.len() == n);
    const W: usize = SPAN_LANES;
    let mut ax = [0.0f64; W];
    let mut ay = [0.0f64; W];
    let mut az = [0.0f64; W];
    let mut ph = [0.0f64; W];
    let chunks = n / W;
    for c in 0..chunks {
        let o = c * W;
        let x: &[f64; W] = xs[o..o + W].try_into().unwrap();
        let y: &[f64; W] = ys[o..o + W].try_into().unwrap();
        let z: &[f64; W] = zs[o..o + W].try_into().unwrap();
        let m: &[f64; W] = ms[o..o + W].try_into().unwrap();
        for l in 0..W {
            let dx = x[l] - tp[0];
            let dy = y[l] - tp[1];
            let dz = z[l] - tp[2];
            let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2)));
            let rinv = 1.0 / r2.sqrt();
            let mr3 = m[l] * (rinv * rinv * rinv);
            ax[l] = dx.mul_add(mr3, ax[l]);
            ay[l] = dy.mul_add(mr3, ay[l]);
            az[l] = dz.mul_add(mr3, az[l]);
            ph[l] = m[l].mul_add(-rinv, ph[l]);
        }
    }
    for i in chunks * W..n {
        let l = i - chunks * W;
        let dx = xs[i] - tp[0];
        let dy = ys[i] - tp[1];
        let dz = zs[i] - tp[2];
        let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2)));
        let rinv = 1.0 / r2.sqrt();
        let mr3 = ms[i] * (rinv * rinv * rinv);
        ax[l] = dx.mul_add(mr3, ax[l]);
        ay[l] = dy.mul_add(mr3, ay[l]);
        az[l] = dz.mul_add(mr3, az[l]);
        ph[l] = ms[i].mul_add(-rinv, ph[l]);
    }
    out.acc[0] += ax.iter().sum::<f64>();
    out.acc[1] += ay.iter().sum::<f64>();
    out.acc[2] += az.iter().sum::<f64>();
    out.pot += ph.iter().sum::<f64>();
}

/// M2P over a structure-of-arrays span of accepted cells. `q` holds the
/// six traceless-quadrupole component spans in [`crate::multipole`]
/// order `[Qxx, Qyy, Qzz, Qxy, Qxz, Qyz]`. With `quadrupole == false`
/// the monopole term is exactly [`p2p_span`] of the cell centers of
/// mass, so it delegates there.
#[allow(clippy::too_many_arguments)]
pub fn m2p_span(
    tp: [f64; 3],
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    ms: &[f64],
    q: [&[f64]; 6],
    eps2: f64,
    quadrupole: bool,
    out: &mut Accel,
) {
    if !quadrupole {
        p2p_span(tp, xs, ys, zs, ms, eps2, out);
        return;
    }
    let n = xs.len();
    debug_assert!(ys.len() == n && zs.len() == n && ms.len() == n);
    debug_assert!(q.iter().all(|qc| qc.len() == n));
    const W: usize = SPAN_LANES;
    let mut ax = [0.0f64; W];
    let mut ay = [0.0f64; W];
    let mut az = [0.0f64; W];
    let mut ph = [0.0f64; W];
    let chunks = n / W;
    for c in 0..chunks {
        let o = c * W;
        // Fixed-size chunk views (like p2p_span): without them every
        // q[j][i] below carries its own bounds check, which blocks
        // vectorization of the whole lane loop.
        let x: &[f64; W] = xs[o..o + W].try_into().unwrap();
        let y: &[f64; W] = ys[o..o + W].try_into().unwrap();
        let z: &[f64; W] = zs[o..o + W].try_into().unwrap();
        let m: &[f64; W] = ms[o..o + W].try_into().unwrap();
        let q0: &[f64; W] = q[0][o..o + W].try_into().unwrap();
        let q1: &[f64; W] = q[1][o..o + W].try_into().unwrap();
        let q2: &[f64; W] = q[2][o..o + W].try_into().unwrap();
        let q3: &[f64; W] = q[3][o..o + W].try_into().unwrap();
        let q4: &[f64; W] = q[4][o..o + W].try_into().unwrap();
        let q5: &[f64; W] = q[5][o..o + W].try_into().unwrap();
        for l in 0..W {
            let dx = x[l] - tp[0];
            let dy = y[l] - tp[1];
            let dz = z[l] - tp[2];
            let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2)));
            let rinv = 1.0 / r2.sqrt();
            let rinv2 = rinv * rinv;
            let rinv3 = rinv * rinv2;
            let mr3 = m[l] * rinv3;
            let qr0 = q4[l].mul_add(dz, q3[l].mul_add(dy, q0[l] * dx));
            let qr1 = q5[l].mul_add(dz, q1[l].mul_add(dy, q3[l] * dx));
            let qr2 = q2[l].mul_add(dz, q5[l].mul_add(dy, q4[l] * dx));
            let rqr = qr2.mul_add(dz, qr1.mul_add(dy, qr0 * dx));
            let rinv5 = rinv3 * rinv2;
            let rinv7 = rinv5 * rinv2;
            let c25 = 2.5 * rqr * rinv7;
            ax[l] += dx.mul_add(mr3, dx.mul_add(c25, -qr0 * rinv5));
            ay[l] += dy.mul_add(mr3, dy.mul_add(c25, -qr1 * rinv5));
            az[l] += dz.mul_add(mr3, dz.mul_add(c25, -qr2 * rinv5));
            ph[l] -= m[l].mul_add(rinv, 0.5 * rqr * rinv5);
        }
    }
    for i in chunks * W..n {
        let l = i - chunks * W;
        let dx = xs[i] - tp[0];
        let dy = ys[i] - tp[1];
        let dz = zs[i] - tp[2];
        let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2)));
        let rinv = 1.0 / r2.sqrt();
        let rinv2 = rinv * rinv;
        let rinv3 = rinv * rinv2;
        let mr3 = ms[i] * rinv3;
        let qr0 = q[4][i].mul_add(dz, q[3][i].mul_add(dy, q[0][i] * dx));
        let qr1 = q[5][i].mul_add(dz, q[1][i].mul_add(dy, q[3][i] * dx));
        let qr2 = q[2][i].mul_add(dz, q[5][i].mul_add(dy, q[4][i] * dx));
        let rqr = qr2.mul_add(dz, qr1.mul_add(dy, qr0 * dx));
        let rinv5 = rinv3 * rinv2;
        let rinv7 = rinv5 * rinv2;
        let c25 = 2.5 * rqr * rinv7;
        ax[l] += dx.mul_add(mr3, dx.mul_add(c25, -qr0 * rinv5));
        ay[l] += dy.mul_add(mr3, dy.mul_add(c25, -qr1 * rinv5));
        az[l] += dz.mul_add(mr3, dz.mul_add(c25, -qr2 * rinv5));
        ph[l] -= ms[i].mul_add(rinv, 0.5 * rqr * rinv5);
    }
    out.acc[0] += ax.iter().sum::<f64>();
    out.acc[1] += ay.iter().sum::<f64>();
    out.acc[2] += az.iter().sum::<f64>();
    out.pot += ph.iter().sum::<f64>();
}

#[cfg(test)]
mod span_tests {
    use super::*;
    use proptest::prelude::*;

    /// One span source: position, mass and quadrupole.
    type Source = ([f64; 3], f64, [f64; 6]);

    /// Sources in [1,2)³ with a target in [−1,0)³ keep every separation
    /// ≥ 1, so the comparison is free of cancellation blow-ups while the
    /// span length (0..40) sweeps empty, sub-chunk, exact-chunk, and
    /// remainder cases for both the 8-lane and 4-lane kernels.
    fn span_inputs() -> impl Strategy<Value = ([f64; 3], Vec<Source>, f64)> {
        (
            [-1.0..0.0f64, -1.0..0.0, -1.0..0.0],
            prop::collection::vec(
                (
                    [1.0..2.0f64, 1.0..2.0, 1.0..2.0],
                    0.1..10.0f64,
                    [
                        -1.0..1.0f64,
                        -1.0..1.0,
                        -1.0..1.0,
                        -1.0..1.0,
                        -1.0..1.0,
                        -1.0..1.0,
                    ],
                ),
                0..40,
            ),
            0.0..0.1f64,
        )
    }

    fn split_soa(src: &[([f64; 3], f64, [f64; 6])]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            src.iter().map(|s| s.0[0]).collect(),
            src.iter().map(|s| s.0[1]).collect(),
            src.iter().map(|s| s.0[2]).collect(),
            src.iter().map(|s| s.1).collect(),
        )
    }

    fn assert_close(a: &Accel, b: &Accel) -> Result<(), TestCaseError> {
        let scale = b.norm() + b.pot.abs() + 1e-30;
        for d in 0..3 {
            prop_assert!(
                (a.acc[d] - b.acc[d]).abs() <= 1e-12 * scale,
                "acc[{d}]: {} vs {}",
                a.acc[d],
                b.acc[d]
            );
        }
        prop_assert!((a.pot - b.pot).abs() <= 1e-12 * scale);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn p2p_span_matches_scalar_sum((tp, src, eps2) in span_inputs()) {
            let (xs, ys, zs, ms) = split_soa(&src);
            let mut span = Accel::default();
            p2p_span(tp, &xs, &ys, &zs, &ms, eps2, &mut span);
            let mut scalar = Accel::default();
            for s in &src {
                p2p(tp, s.0, s.1, eps2, &mut scalar);
            }
            assert_close(&span, &scalar)?;
        }

        #[test]
        fn m2p_span_matches_scalar_sum(
            (tp, src, eps2) in span_inputs(),
            quadrupole in proptest::bool::ANY,
        ) {
            let (xs, ys, zs, ms) = split_soa(&src);
            let q: Vec<Vec<f64>> = (0..6)
                .map(|c| src.iter().map(|s| s.2[c]).collect())
                .collect();
            let mut span = Accel::default();
            m2p_span(
                tp,
                &xs,
                &ys,
                &zs,
                &ms,
                [&q[0], &q[1], &q[2], &q[3], &q[4], &q[5]],
                eps2,
                quadrupole,
                &mut span,
            );
            let mut scalar = Accel::default();
            for s in &src {
                let mom = Multipole {
                    mass: s.1,
                    com: s.0,
                    quad: s.2,
                    bmax: 0.0,
                };
                m2p(tp, &mom, eps2, quadrupole, &mut scalar);
            }
            assert_close(&span, &scalar)?;
        }
    }
}
