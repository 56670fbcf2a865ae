//! Serial tree traversal: accelerations on every body.
//!
//! "In the main stage of the algorithm, this tree is traversed
//! independently in each processor" (§4.2). The walk here is the
//! single-address-space version; [`crate::parallel`] adds the deferred
//! walks and request traffic for distributed trees.

use crate::gravity::{self, Accel, GravityConfig};
use crate::ilist;
use crate::mac::Mac;
use crate::tree::{CellIdx, Tree, NO_CELL};

/// Interaction counts from one traversal (per the whole body set).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraverseStats {
    /// Body–body interactions.
    pub p2p: u64,
    /// Cell–body (multipole) interactions.
    pub m2p: u64,
    /// Cells opened.
    pub opened: u64,
    /// Set when [`group_accelerations`] could not use the group walk
    /// (periodic box) and fell back to the per-body walk.
    pub group_fallback: bool,
}

impl TraverseStats {
    pub fn add(&mut self, o: &TraverseStats) {
        self.p2p += o.p2p;
        self.m2p += o.m2p;
        self.opened += o.opened;
        self.group_fallback |= o.group_fallback;
    }

    /// Total flops by the paper's counting convention.
    pub fn flops(&self, quadrupole: bool) -> f64 {
        let m2p_flops = if quadrupole {
            gravity::M2P_QUAD_FLOPS
        } else {
            gravity::M2P_MONO_FLOPS
        };
        self.p2p as f64 * gravity::P2P_FLOPS + self.m2p as f64 * m2p_flops
    }

    /// Interactions per body (a traversal cost measure).
    pub fn interactions(&self) -> u64 {
        self.p2p + self.m2p
    }
}

/// Acceleration on the body at index `i` of `tree.bodies`.
///
/// Gathers the body's interaction list into this thread's reusable SoA
/// scratch ([`crate::ilist`]) and evaluates it with the chunked span
/// kernels — no per-body heap allocation, vectorizable inner loops.
pub fn accel_on(tree: &Tree, i: usize, cfg: &GravityConfig) -> (Accel, TraverseStats) {
    ilist::with_scratch(|sc| ilist::accel_on_with(tree, i, cfg, sc))
}

/// The seed's scalar per-body walk, kept as the reference the SoA
/// engine is benchmarked and property-tested against (and as the
/// fallback nothing depends on being fast).
pub fn accel_on_scalar(tree: &Tree, i: usize, cfg: &GravityConfig) -> (Accel, TraverseStats) {
    let pos = tree.bodies[i].pos;
    let mac = Mac::new(cfg.mac, cfg.theta);
    let eps2 = cfg.eps * cfg.eps;
    let mut out = Accel::default();
    let mut stats = TraverseStats::default();
    let mut stack: Vec<i32> = vec![0];
    while let Some(ci) = stack.pop() {
        let cell = tree.cell(ci);
        if cell.nbody == 0 {
            continue;
        }
        // Periodic runs interact with the nearest image of each cell.
        let mom = match cfg.periodic {
            Some(l) => {
                let mut m = cell.mom;
                m.com = gravity::nearest_image(pos, m.com, l);
                m
            }
            None => cell.mom,
        };
        if mac.accept_raw(cell.side(), &mom, pos) {
            gravity::m2p(pos, &mom, eps2, cfg.quadrupole, &mut out);
            stats.m2p += 1;
        } else if cell.is_leaf {
            let first = cell.first_body as usize;
            for (j, b) in tree.leaf_bodies(cell).iter().enumerate() {
                if first + j == i {
                    continue; // no self-interaction
                }
                let sp = match cfg.periodic {
                    Some(l) => gravity::nearest_image(pos, b.pos, l),
                    None => b.pos,
                };
                gravity::p2p(pos, sp, b.mass, eps2, &mut out);
                stats.p2p += 1;
            }
        } else {
            stats.opened += 1;
            for &ch in &cell.children {
                if ch != NO_CELL {
                    stack.push(ch);
                }
            }
        }
    }
    (out, stats)
}

/// Group-walk traversal: one interaction list per leaf cell, shared by
/// its bodies. The MAC is applied conservatively (to the nearest point
/// of the group's bounding sphere), so the force error is no worse than
/// the per-body walk at the same θ, while the tree-descent overhead is
/// amortized over the group — the classic HOT "walk vectorization" —
/// and over the [`ilist::LEAVES`] consecutive leaves that share one
/// descent.
pub fn group_accelerations(tree: &Tree, cfg: &GravityConfig) -> (Vec<Accel>, TraverseStats) {
    if cfg.periodic.is_some() {
        // The conservative group MAC has no nearest-image form yet:
        // different bodies of one group can interact with different
        // images of the same cell. Fall back to the per-body periodic
        // walk and flag it, instead of panicking on periodic configs.
        let (accels, mut stats) = tree_accelerations(tree, cfg);
        stats.group_fallback = true;
        return (accels, stats);
    }
    // Leaves come out of the DFS build in body order, so the output
    // array splits into per-walk-group chunks without any reshuffling.
    let leaves: Vec<CellIdx> = (0..tree.cells.len() as CellIdx)
        .filter(|&ci| tree.cell(ci).is_leaf && tree.cell(ci).nbody > 0)
        .collect();
    let mut accels = vec![Accel::default(); tree.bodies.len()];
    let mut chunks: Vec<(&[CellIdx], &mut [Accel])> =
        Vec::with_capacity(leaves.len().div_ceil(ilist::LEAVES));
    let mut rest = accels.as_mut_slice();
    for group in leaves.chunks(ilist::LEAVES) {
        debug_assert_eq!(
            tree.cell(group[0]).first_body as usize,
            tree.bodies.len() - rest.len(),
            "leaves not in body order"
        );
        let nbody: u32 = group.iter().map(|&gi| tree.cell(gi).nbody).sum();
        let (chunk, tail) = rest.split_at_mut(nbody as usize);
        chunks.push((group, chunk));
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "leaves do not partition the bodies");
    let stats = chunks
        .iter_mut()
        .map(|(group, out)| {
            ilist::with_scratch(|sc| {
                let mut stats = TraverseStats {
                    opened: ilist::gather_leaves(tree, group, cfg, sc),
                    ..Default::default()
                };
                let mut rest = &mut **out;
                for k in 0..group.len() {
                    let gi = ilist::materialize(sc, k);
                    let (mine, tail) = rest.split_at_mut(tree.cell(gi).nbody as usize);
                    stats.add(&ilist::eval_group(tree, gi, cfg, sc, mine));
                    rest = tail;
                }
                stats
            })
        })
        .fold(TraverseStats::default(), |mut a, b| {
            a.add(&b);
            a
        });
    // This thread's shared list goes back between force evaluations; its
    // next tree build reuses the memory.
    ilist::with_scratch(ilist::IlistScratch::release_shared);
    (accels, stats)
}

/// What the group walk's bit-identity pins compare (here and in the
/// `cluster` and `cosmo` tests): FNV-1a over the bits of `(acc, pot)` in
/// body order, then `(p2p, m2p, opened)`, from [`group_accelerations`].
pub fn group_walk_digest(tree: &Tree, cfg: &GravityConfig) -> (u64, u64, u64, u64) {
    let (accels, stats) = group_accelerations(tree, cfg);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in &accels {
        let [x, y, z] = a.acc.map(f64::to_bits);
        for word in [x, y, z, a.pot.to_bits()] {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (h, stats.p2p, stats.m2p, stats.opened)
}

/// Accelerations on every body, one per-body walk each.
pub fn tree_accelerations(tree: &Tree, cfg: &GravityConfig) -> (Vec<Accel>, TraverseStats) {
    let mut accels = Vec::with_capacity(tree.bodies.len());
    let mut stats = TraverseStats::default();
    for i in 0..tree.bodies.len() {
        let (a, s) = accel_on(tree, i, cfg);
        accels.push(a);
        stats.add(&s);
    }
    (accels, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_accelerations;
    use crate::gravity::MacKind;
    use crate::models::plummer;
    use crate::tree::{Body, Tree};

    fn rms_error(tree_acc: &[Accel], exact: &[Accel]) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (t, e) in tree_acc.iter().zip(exact) {
            for d in 0..3 {
                num += (t.acc[d] - e.acc[d]).powi(2);
            }
            den += e.acc[0].powi(2) + e.acc[1].powi(2) + e.acc[2].powi(2);
        }
        (num / den).sqrt()
    }

    #[test]
    fn matches_direct_for_plummer_sphere() {
        let bodies = plummer(300, 42);
        let tree = Tree::build(bodies.clone(), 8);
        let cfg = GravityConfig {
            theta: 0.5,
            eps: 0.01,
            ..GravityConfig::default()
        };
        let (ta, stats) = tree_accelerations(&tree, &cfg);
        let exact = direct_accelerations(&tree.bodies, cfg.eps);
        let err = rms_error(&ta, &exact);
        assert!(err < 2e-3, "rms force error {err}");
        assert!(stats.p2p > 0 && stats.m2p > 0);
    }

    #[test]
    fn error_decreases_with_theta() {
        let bodies = plummer(200, 7);
        let tree = Tree::build(bodies, 8);
        let exact = direct_accelerations(&tree.bodies, 0.01);
        let mut last = f64::INFINITY;
        for theta in [1.0, 0.6, 0.3] {
            let cfg = GravityConfig {
                theta,
                eps: 0.01,
                ..GravityConfig::default()
            };
            let (ta, _) = tree_accelerations(&tree, &cfg);
            let err = rms_error(&ta, &exact);
            assert!(err < last, "theta {theta}: {err} !< {last}");
            last = err;
        }
        assert!(last < 5e-4, "theta=0.3 error {last}");
    }

    #[test]
    fn tiny_theta_degenerates_to_direct() {
        let bodies = plummer(100, 3);
        let tree = Tree::build(bodies, 4);
        let cfg = GravityConfig {
            theta: 1e-6,
            eps: 0.01,
            ..GravityConfig::default()
        };
        let (ta, stats) = tree_accelerations(&tree, &cfg);
        let exact = direct_accelerations(&tree.bodies, cfg.eps);
        // All interactions must be P2P and exactly N(N-1) of them.
        assert_eq!(stats.m2p, 0);
        assert_eq!(stats.p2p, 100 * 99);
        let err = rms_error(&ta, &exact);
        assert!(err < 1e-12, "err {err}");
    }

    #[test]
    fn quadrupole_beats_monopole() {
        let bodies = plummer(300, 11);
        let tree = Tree::build(bodies, 8);
        let exact = direct_accelerations(&tree.bodies, 0.01);
        let err_of = |quadrupole: bool| {
            let cfg = GravityConfig {
                theta: 0.8,
                eps: 0.01,
                quadrupole,
                ..GravityConfig::default()
            };
            rms_error(&tree_accelerations(&tree, &cfg).0, &exact)
        };
        let mono = err_of(false);
        let quad = err_of(true);
        assert!(quad < mono * 0.6, "mono {mono}, quad {quad}");
    }

    #[test]
    fn bmax_mac_is_cheaper_at_matched_accuracy() {
        let bodies = plummer(400, 13);
        let tree = Tree::build(bodies, 8);
        let run = |mac: MacKind, theta: f64| {
            let cfg = GravityConfig {
                theta,
                eps: 0.01,
                mac,
                ..GravityConfig::default()
            };
            tree_accelerations(&tree, &cfg).1.interactions()
        };
        // With matched θ the bmax MAC does no more interactions than BH
        // opening everything the same way would — sanity only, the real
        // accuracy/cost tradeoff is exercised in the bench.
        let bh = run(MacKind::BarnesHut, 0.6);
        let bm = run(MacKind::BmaxMac, 0.6);
        assert!(bm > 0 && bh > 0);
    }

    #[test]
    fn momentum_is_approximately_conserved() {
        let bodies = plummer(300, 21);
        let tree = Tree::build(bodies, 8);
        let cfg = GravityConfig {
            theta: 0.5,
            eps: 0.01,
            ..GravityConfig::default()
        };
        let (ta, _) = tree_accelerations(&tree, &cfg);
        // Σ m·a should vanish (it does exactly for direct summation).
        let mut net = [0.0; 3];
        let mut scale = 0.0;
        for (a, b) in ta.iter().zip(&tree.bodies) {
            for d in 0..3 {
                net[d] += b.mass * a.acc[d];
            }
            scale += b.mass * a.norm();
        }
        let net_mag = (net[0] * net[0] + net[1] * net[1] + net[2] * net[2]).sqrt();
        assert!(
            net_mag / scale < 5e-3,
            "net force fraction {}",
            net_mag / scale
        );
    }

    #[test]
    fn two_body_problem_exact() {
        let bodies = vec![
            Body::at([-1.0, 0.0, 0.0], 2.0),
            Body::at([1.0, 0.0, 0.0], 3.0),
        ];
        let tree = Tree::build(bodies, 1);
        let cfg = GravityConfig {
            theta: 0.5,
            eps: 0.0,
            ..GravityConfig::default()
        };
        let (ta, _) = tree_accelerations(&tree, &cfg);
        // Bodies are sorted by key; find which is which by mass.
        let (i2, i3) = if tree.bodies[0].mass == 2.0 {
            (0, 1)
        } else {
            (1, 0)
        };
        assert!((ta[i2].acc[0] - 3.0 / 4.0).abs() < 1e-12);
        assert!((ta[i3].acc[0] + 2.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn periodic_walk_matches_periodic_direct() {
        use crate::direct::direct_periodic;
        use crate::models::uniform_cube;
        // A clustered periodic box: two clumps, one near a face so image
        // forces matter.
        let mut bodies = uniform_cube(300, 41);
        for (i, b) in bodies.iter_mut().enumerate() {
            if i % 2 == 0 {
                for d in 0..3 {
                    b.pos[d] = 0.05 + 0.1 * b.pos[d]; // clump at the corner
                }
            }
        }
        let tree = Tree::build_in(
            bodies,
            crate::morton::BBox {
                center: [0.5; 3],
                half: 0.5,
            },
            8,
        );
        let cfg = GravityConfig {
            theta: 0.4,
            eps: 0.01,
            periodic: Some(1.0),
            ..Default::default()
        };
        let (acc, _) = tree_accelerations(&tree, &cfg);
        let exact = direct_periodic(&tree.bodies, cfg.eps, 1.0);
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, e) in acc.iter().zip(&exact) {
            for d in 0..3 {
                num += (a.acc[d] - e.acc[d]).powi(2);
            }
            den += e.acc[0].powi(2) + e.acc[1].powi(2) + e.acc[2].powi(2);
        }
        let err = (num / den).sqrt();
        assert!(err < 0.05, "periodic rms error {err}");
    }

    #[test]
    fn periodic_two_bodies_attract_across_the_boundary() {
        use crate::direct::direct_periodic;
        // Bodies at x = 0.05 and x = 0.95 in a unit box: the near image
        // is across the face, so the force on the first points in -x.
        let bodies = vec![
            Body::at([0.05, 0.5, 0.5], 1.0),
            Body::at([0.95, 0.5, 0.5], 1.0),
        ];
        let exact = direct_periodic(&bodies, 0.0, 1.0);
        assert!(exact[0].acc[0] < 0.0, "{:?}", exact[0].acc);
        // Magnitude: separation 0.1 through the boundary -> a = 1/0.01.
        assert!((exact[0].acc[0] + 100.0).abs() < 1e-9);
        // The tree walk agrees.
        let tree = Tree::build_in(
            bodies,
            crate::morton::BBox {
                center: [0.5; 3],
                half: 0.5,
            },
            1,
        );
        let cfg = GravityConfig {
            theta: 0.5,
            periodic: Some(1.0),
            ..Default::default()
        };
        let (acc, _) = tree_accelerations(&tree, &cfg);
        // Match accelerations by body position rather than order.
        for (b, a) in tree.bodies.iter().zip(&acc) {
            if b.pos[0] < 0.5 {
                assert!((a.acc[0] + 100.0).abs() < 1e-6, "{:?}", a.acc);
            } else {
                assert!((a.acc[0] - 100.0).abs() < 1e-6, "{:?}", a.acc);
            }
        }
    }

    #[test]
    fn group_walk_matches_per_body_accuracy() {
        let bodies = plummer(800, 23);
        let tree = Tree::build(bodies, 16);
        let cfg = GravityConfig {
            theta: 0.6,
            eps: 0.01,
            ..Default::default()
        };
        let exact = direct_accelerations(&tree.bodies, cfg.eps);
        let (per_body, s1) = tree_accelerations(&tree, &cfg);
        let (grouped, s2) = group_accelerations(&tree, &cfg);
        let err_pb = rms_error(&per_body, &exact);
        let err_gr = rms_error(&grouped, &exact);
        // The conservative group MAC cannot be less accurate.
        assert!(
            err_gr <= err_pb * 1.1,
            "group {err_gr} vs per-body {err_pb}"
        );
        // And it opens far fewer cells in total.
        assert!(
            s2.opened < s1.opened / 2,
            "group opened {} vs per-body {}",
            s2.opened,
            s1.opened
        );
    }

    /// The four `(mac, quadrupole)` engines every pin is recorded under.
    const PIN_ENGINES: [(MacKind, bool); 4] = [
        (MacKind::BarnesHut, false),
        (MacKind::BarnesHut, true),
        (MacKind::BmaxMac, false),
        (MacKind::BmaxMac, true),
    ];

    #[test]
    fn shared_group_walk_reproduces_per_leaf_walk_bit_for_bit() {
        // Recorded at the last commit whose group walk descended once per
        // leaf (95239a7): the shared descent must hand every leaf the list
        // its own walk gathered, in the same order.
        let pins = [
            (
                1,
                [
                    (0x932a_748c_1438_4975, 3_112, 16_935, 8_685),
                    (0x3d34_01bc_cb3c_d046, 3_112, 16_935, 8_685),
                    (0x3484_ff80_28be_80f0, 0, 21_396, 8_054),
                    (0x35a5_8d17_6ad1_a9fd, 0, 21_396, 8_054),
                ],
            ),
            (
                8,
                [
                    (0x7943_800d_405c_040f, 26_266, 3_797, 1_261),
                    (0xef78_aa9f_3b86_3b21, 26_266, 3_797, 1_261),
                    (0x411b_bb79_f20b_c28a, 23_029, 7_309, 1_312),
                    (0xcd5b_6bab_c9e4_5601, 23_029, 7_309, 1_312),
                ],
            ),
            (
                16,
                [
                    (0xfdac_04e8_a12c_4b9f, 29_894, 2_130, 779),
                    (0xc8c3_6a82_68d3_a710, 29_894, 2_130, 779),
                    (0x3903_5ff4_1390_78bd, 27_867, 4_412, 812),
                    (0xce8a_6a1a_54e9_59fb, 27_867, 4_412, 812),
                ],
            ),
        ];
        for (leaf_max, want) in pins {
            let tree = Tree::build(plummer(192, 77), leaf_max);
            for ((mac, quadrupole), want) in PIN_ENGINES.into_iter().zip(want) {
                let cfg = GravityConfig {
                    theta: 0.6,
                    eps: 0.01,
                    leaf_max,
                    quadrupole,
                    mac,
                    ..Default::default()
                };
                let got = group_walk_digest(&tree, &cfg);
                assert_eq!(got, want, "leaf_max {leaf_max} {mac:?} quad {quadrupole}");
            }
        }
    }

    #[test]
    fn soa_walk_matches_scalar_walk() {
        // The ilist engine re-orders the arithmetic (spans, mul_add);
        // it must still agree with the seed scalar walk to ~1e-12 and
        // produce identical interaction counts.
        let bodies = plummer(400, 17);
        let tree = Tree::build(bodies, 8);
        for quadrupole in [false, true] {
            let cfg = GravityConfig {
                theta: 0.6,
                eps: 0.01,
                quadrupole,
                ..Default::default()
            };
            for i in (0..tree.bodies.len()).step_by(7) {
                let (a, s) = accel_on(&tree, i, &cfg);
                let (b, t) = accel_on_scalar(&tree, i, &cfg);
                assert_eq!((s.p2p, s.m2p), (t.p2p, t.m2p), "body {i}");
                let scale = b.norm().max(1e-300);
                for d in 0..3 {
                    assert!(
                        (a.acc[d] - b.acc[d]).abs() <= 1e-12 * scale,
                        "body {i} dim {d}: {} vs {}",
                        a.acc[d],
                        b.acc[d]
                    );
                }
                assert!((a.pot - b.pot).abs() <= 1e-12 * b.pot.abs().max(1e-300));
            }
        }
    }

    #[test]
    fn periodic_group_walk_falls_back_instead_of_panicking() {
        use crate::models::uniform_cube;
        let bodies = uniform_cube(200, 5);
        let tree = Tree::build_in(
            bodies,
            crate::morton::BBox {
                center: [0.5; 3],
                half: 0.5,
            },
            8,
        );
        let cfg = GravityConfig {
            theta: 0.5,
            eps: 0.01,
            periodic: Some(1.0),
            ..Default::default()
        };
        let (grouped, gs) = group_accelerations(&tree, &cfg);
        assert!(gs.group_fallback, "fallback flag not set");
        let (per_body, ps) = tree_accelerations(&tree, &cfg);
        assert!(!ps.group_fallback);
        for (a, b) in grouped.iter().zip(&per_body) {
            assert_eq!(a.acc, b.acc);
            assert_eq!(a.pot, b.pot);
        }
    }

    #[test]
    fn group_walk_momentum_conservation() {
        let bodies = plummer(500, 29);
        let tree = Tree::build(bodies, 16);
        let cfg = GravityConfig {
            theta: 0.5,
            eps: 0.01,
            ..Default::default()
        };
        let (acc, _) = group_accelerations(&tree, &cfg);
        let mut net = [0.0; 3];
        let mut scale = 0.0;
        for (a, b) in acc.iter().zip(&tree.bodies) {
            for d in 0..3 {
                net[d] += b.mass * a.acc[d];
            }
            scale += b.mass * a.norm();
        }
        let mag = (net[0] * net[0] + net[1] * net[1] + net[2] * net[2]).sqrt();
        assert!(mag / scale < 1e-2, "net {mag} scale {scale}");
    }
}
