//! Multipole acceptance criteria (MAC).
//!
//! "These methods obtain greatly increased efficiency by approximating the
//! forces on particles. Properly used, these methods do not contribute
//! significantly to the total solution error" (§4.1). The MAC decides,
//! for each (target, cell) pair, whether the cell's multipole expansion is
//! accurate enough or the cell must be opened.

use crate::gravity::MacKind;
use crate::ilist::Mask;
use crate::tree::Cell;

/// A configured acceptance test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mac {
    pub kind: MacKind,
    pub theta: f64,
}

impl Mac {
    pub fn new(kind: MacKind, theta: f64) -> Mac {
        assert!(theta > 0.0, "theta must be positive");
        Mac { kind, theta }
    }

    /// Can `cell`'s expansion be used for a target at `pos`?
    #[inline]
    pub fn accept(&self, cell: &Cell, pos: [f64; 3]) -> bool {
        self.accept_raw(cell.side(), &cell.mom, pos)
    }

    /// [`Mac::accept`] from raw geometry — used for remote (ghost) cells
    /// that have no local [`Cell`] record.
    ///
    /// Both criteria refuse to accept a cell whose bounding sphere
    /// contains the target (the expansion diverges there).
    #[inline]
    pub fn accept_raw(&self, side: f64, mom: &crate::multipole::Multipole, pos: [f64; 3]) -> bool {
        let dx = pos[0] - mom.com[0];
        let dy = pos[1] - mom.com[1];
        let dz = pos[2] - mom.com[2];
        let d2 = dx * dx + dy * dy + dz * dz;
        if d2 <= mom.bmax * mom.bmax {
            return false;
        }
        let crit = self.crit(side, mom.bmax);
        d2 > crit * crit
    }

    /// The distance a target must be beyond.
    #[inline]
    fn crit(&self, side: f64, bmax: f64) -> f64 {
        match self.kind {
            // s/d < θ with s the cell side.
            MacKind::BarnesHut => side / self.theta,
            // 2·bmax/d < θ: adapts to the true mass extent, so nearly
            // empty corners of a cell don't force an open.
            MacKind::BmaxMac => 2.0 * bmax / self.theta,
        }
    }

    /// [`Mac::accept_raw`] for the targets `(at[0][k], at[1][k], at[2][k])`
    /// as SIMD lanes, bit `k` of the result for target `k`: the same
    /// operations and comparisons per target (no `mul_add`: a differently
    /// rounded distance flips decisions at the boundary).
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `accept_raw`'s answer on a NaN, too
    pub(crate) fn accept_lanes<const N: usize>(
        &self,
        side: f64,
        mom: &crate::multipole::Multipole,
        at: &[[f64; N]; 3],
    ) -> Mask {
        let crit = self.crit(side, mom.bmax);
        let (b2, c2) = (mom.bmax * mom.bmax, crit * crit);
        let mut accept = 0;
        for k in 0..N {
            let dx = at[0][k] - mom.com[0];
            let dy = at[1][k] - mom.com[1];
            let dz = at[2][k] - mom.com[2];
            let d2 = dx * dx + dy * dy + dz * dz;
            accept |= ((!(d2 <= b2) && d2 > c2) as Mask) << k;
        }
        accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::Key;
    use crate::multipole::Multipole;
    use crate::tree::NO_CELL;

    fn cell_at(center: [f64; 3], half: f64, bmax: f64) -> Cell {
        Cell {
            key: Key::ROOT,
            first_body: 0,
            nbody: 10,
            children: [NO_CELL; 8],
            mom: Multipole {
                mass: 1.0,
                com: center,
                quad: [0.0; 6],
                bmax,
            },
            center,
            half,
            is_leaf: false,
        }
    }

    #[test]
    fn distant_cell_accepted_near_cell_opened() {
        let mac = Mac::new(MacKind::BarnesHut, 0.5);
        let cell = cell_at([0.0; 3], 1.0, 0.8);
        // side/θ = 2/0.5 = 4: accepted beyond distance 4.
        assert!(mac.accept(&cell, [5.0, 0.0, 0.0]));
        assert!(!mac.accept(&cell, [3.0, 0.0, 0.0]));
    }

    #[test]
    fn target_inside_bounding_sphere_is_never_accepted() {
        let mac = Mac::new(MacKind::BarnesHut, 10.0); // absurdly lax θ
        let cell = cell_at([0.0; 3], 1.0, 0.9);
        assert!(!mac.accept(&cell, [0.5, 0.0, 0.0]));
    }

    #[test]
    fn smaller_theta_is_stricter() {
        let cell = cell_at([0.0; 3], 1.0, 0.5);
        let pos = [3.5, 0.0, 0.0];
        assert!(Mac::new(MacKind::BarnesHut, 0.7).accept(&cell, pos));
        assert!(!Mac::new(MacKind::BarnesHut, 0.3).accept(&cell, pos));
    }

    #[test]
    fn bmax_mac_accepts_concentrated_cells_sooner() {
        // Mass huddled at the cell center (small bmax): the bmax MAC
        // accepts from closer in than Barnes-Hut.
        let concentrated = cell_at([0.0; 3], 1.0, 0.2);
        let pos = [1.5, 0.0, 0.0];
        assert!(Mac::new(MacKind::BmaxMac, 0.5).accept(&concentrated, pos));
        assert!(!Mac::new(MacKind::BarnesHut, 0.5).accept(&concentrated, pos));
    }

    #[test]
    fn lanes_answer_as_accept_raw_does() {
        // Inside and outside both radii, on them, an unbounded `bmax` (the
        // distributed walk's synthesized root) and a NaN.
        let xs = [0.0, 0.5, 0.9, 1.0, 3.9, 4.0, 4.1, f64::NAN];
        let at = [xs, [0.0; 8], [0.0; 8]];
        for kind in [MacKind::BarnesHut, MacKind::BmaxMac] {
            for bmax in [0.0, 0.9, 1.0, 2.0, f64::INFINITY, f64::NAN] {
                let (mac, cell) = (Mac::new(kind, 0.5), cell_at([0.0; 3], 1.0, bmax));
                let lanes = mac.accept_lanes(cell.side(), &cell.mom, &at);
                for (k, &x) in xs.iter().enumerate() {
                    let one = mac.accept(&cell, [x, 0.0, 0.0]);
                    assert_eq!(lanes >> k & 1 != 0, one, "{kind:?} bmax {bmax} x {x}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_theta_rejected() {
        Mac::new(MacKind::BarnesHut, 0.0);
    }
}
