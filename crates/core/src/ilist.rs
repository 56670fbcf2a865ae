//! Structure-of-arrays interaction-list engine — the HOT "walk
//! vectorization" (§4.2).
//!
//! The tree walk's job is to *decide* which cells and bodies interact
//! with a target; the flop/s the paper reports come from *evaluating*
//! those decisions as long contiguous spans. This module separates the
//! two: a walk gathers every accepted multipole and every leaf body
//! into reusable thread-local SoA scratch buffers (flat `x/y/z/m`
//! arrays plus the six quadrupole component spans), and the chunked
//! slice kernels [`crate::gravity::p2p_span`] / [`crate::gravity::m2p_span`]
//! then stream through them with unrolled, `mul_add`-based inner loops.
//!
//! The group walk shares its descent as well as its list: a *walk
//! group* of up to [`LEAVES`] consecutive leaves goes down the tree once
//! ([`gather_leaves`]), every accepted cell and opened-leaf body lands
//! once in a shared list tagged with the mask of leaves that take it,
//! and each leaf's own list is then copied out of the shared one by index
//! ([`materialize`]) for [`eval_group`].
//!
//! The distributed walk (`crate::parallel`) shares its descent over
//! bodies, not leaves, and keeps its own list of references. It evaluates
//! that list once, entry by entry, with the walk's bodies as SIMD lanes
//! (`eval_members`): no span is copied for it.
//!
//! A walk that shares nothing, the per-body walk of [`crate::traverse`],
//! does not come here: gathering one body's list only to stream it once
//! measured slower than summing each entry as the walk takes it.
//!
//! The scratch is allocation-free in steady state: buffers are
//! truncated, never dropped, so after a warm-up pass the walk performs
//! no heap allocation per group (`tests/group_walk_allocations.rs`
//! counts every allocation of a second pass under a counting allocator).

use crate::gravity::{self, Accel, GravityConfig};
use crate::multipole::Multipole;
use crate::traverse::TraverseStats;
use crate::tree::{Body, CellIdx, Tree, NO_CELL};
use std::cell::RefCell;

/// Leaves per walk group of the serial group walk. Wider groups share
/// more of the descent, but their members lie further apart, so masks
/// thin out higher in the tree and every leaf pays for a longer shared
/// list at materialisation (measured: DESIGN.md, *Performance
/// architecture*); a `Mask` has one bit per leaf of the group.
pub const LEAVES: usize = 8;
const _: () = assert!(LEAVES <= Mask::BITS as usize);

/// One bit per member of a shared walk: a leaf of a walk group here, a
/// body of a `parallel::GROUP` in the distributed walk, whose list
/// entries carry the mask of the bodies that take them
/// ([`eval_members`]). Wide enough for the wider of the two groups.
pub(crate) type Mask = u16;

/// The members of `mask` for which `f` holds.
#[inline]
pub(crate) fn select(mask: Mask, mut f: impl FnMut(usize) -> bool) -> Mask {
    let mut out = 0;
    let mut rest = mask;
    while rest != 0 {
        let b = rest.trailing_zeros() as usize;
        if f(b) {
            out |= 1 << b;
        }
        rest &= rest - 1;
    }
    out
}

/// What one shared descent gathers for a walk group: every accepted cell
/// and opened-leaf body once, tagged with the leaves that take it.
#[derive(Default)]
struct SharedList {
    /// The walk group, in body order: `leaves[..nleaves]`.
    leaves: [CellIdx; LEAVES],
    nleaves: usize,
    stack: Vec<(CellIdx, Mask)>,
    /// Accepted cells, one plane per [`IlistScratch`] cell span:
    /// `cx cy cz cm cq[0..6]`.
    cells: [Vec<f64>; 10],
    cell_masks: Vec<Mask>,
    /// Gathered leaf bodies: `bx by bz bm`.
    bodies: [Vec<f64>; 4],
    body_masks: Vec<Mask>,
    /// Positions in the shared list of the entries one leaf takes.
    idx: Vec<u32>,
}

/// Reusable SoA gather buffers: one leaf's list of a walk group.
#[derive(Default)]
pub struct IlistScratch {
    /// Accepted-cell centers of mass and masses.
    pub cx: Vec<f64>,
    pub cy: Vec<f64>,
    pub cz: Vec<f64>,
    pub cm: Vec<f64>,
    /// Accepted-cell quadrupole components `[Qxx, Qyy, Qzz, Qxy, Qxz, Qyz]`.
    pub cq: [Vec<f64>; 6],
    /// Gathered leaf-body positions and masses.
    pub bx: Vec<f64>,
    pub by: Vec<f64>,
    pub bz: Vec<f64>,
    pub bm: Vec<f64>,
    /// Leaf cells whose bodies need index-aware handling (the group's
    /// own leaf in a group walk).
    own_leaf: Option<CellIdx>,
    /// The walk group's shared list ([`gather_leaves`]).
    shared: SharedList,
}

/// Write the positions of the entries of `masks` carrying bit `k` to the
/// front of `idx`, branch-free, and return how many there are.
#[inline]
fn indices_of(masks: &[Mask], k: usize, idx: &mut Vec<u32>) -> usize {
    if idx.len() < masks.len() {
        idx.resize(masks.len(), 0);
    }
    let mut n = 0;
    for (i, &m) in masks.iter().enumerate() {
        idx[n] = i as u32;
        n += (m >> k & 1) as usize;
    }
    n
}

/// Replace `dst` with `src[i]` for each `i` of `idx`.
#[inline]
fn gather_plane(dst: &mut Vec<f64>, src: &[f64], idx: &[u32]) {
    dst.clear();
    dst.extend(idx.iter().map(|&i| src[i as usize]));
}

impl IlistScratch {
    pub fn new() -> IlistScratch {
        IlistScratch::default()
    }

    /// Free the walk group's shared list (the spans keep their capacity).
    /// It is sized by eight leaves' lists, not one, and a replicated world
    /// walks on every rank thread: kept between force evaluations, sixteen
    /// of them were a fifth of `treecode_replicated16`'s peak RSS.
    pub(crate) fn release_shared(&mut self) {
        self.shared = SharedList::default();
    }

    /// Empty the shared list for the next shared walk.
    fn clear_shared(&mut self) {
        let sh = &mut self.shared;
        sh.cells.iter_mut().for_each(Vec::clear);
        sh.cell_masks.clear();
        sh.bodies.iter_mut().for_each(Vec::clear);
        sh.body_masks.clear();
    }

    /// Append an accepted multipole to the shared list, for the members
    /// of `mask`.
    #[inline]
    fn share_mom(&mut self, mask: Mask, mom: &Multipole) {
        let [x, y, z] = mom.com;
        let [q0, q1, q2, q3, q4, q5] = mom.quad;
        let planes = self.shared.cells.iter_mut();
        for (plane, v) in planes.zip([x, y, z, mom.mass, q0, q1, q2, q3, q4, q5]) {
            plane.push(v);
        }
        self.shared.cell_masks.push(mask);
    }

    /// Append one leaf body to the shared list, for the members of `mask`.
    #[inline]
    fn share_body(&mut self, mask: Mask, pos: [f64; 3], mass: f64) {
        let [x, y, z] = pos;
        for (plane, v) in self.shared.bodies.iter_mut().zip([x, y, z, mass]) {
            plane.push(v);
        }
        self.shared.body_masks.push(mask);
    }

    /// Number of accepted cells currently gathered.
    pub fn n_cells(&self) -> usize {
        self.cm.len()
    }

    /// Number of leaf bodies currently gathered.
    pub fn n_bodies(&self) -> usize {
        self.bm.len()
    }

    /// Evaluate the gathered spans on a target at `tp`, adding into
    /// `out`. Returns `(m2p, p2p)` interaction counts.
    pub fn eval(&self, tp: [f64; 3], eps2: f64, quadrupole: bool, out: &mut Accel) -> (u64, u64) {
        gravity::m2p_span(
            tp,
            &self.cx,
            &self.cy,
            &self.cz,
            &self.cm,
            [
                &self.cq[0],
                &self.cq[1],
                &self.cq[2],
                &self.cq[3],
                &self.cq[4],
                &self.cq[5],
            ],
            eps2,
            quadrupole,
            out,
        );
        gravity::p2p_span(tp, &self.bx, &self.by, &self.bz, &self.bm, eps2, out);
        (self.n_cells() as u64, self.n_bodies() as u64)
    }
}

thread_local! {
    static SCRATCH: RefCell<IlistScratch> = RefCell::new(IlistScratch::new());
}

/// Run `f` with this thread's reusable scratch. Each rank thread of a
/// `msg` world keeps its own, so concurrent walks never contend or
/// allocate.
pub fn with_scratch<R>(f: impl FnOnce(&mut IlistScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Group walk, the shared descent: gather one list for the walk group
/// `leaves` — up to [`LEAVES`] leaf cells, consecutive in body order —
/// into `sc`'s shared list. The stack holds `(cell, mask)`, the mask
/// naming the leaves that still have to look at that cell. The MAC is
/// applied conservatively, per leaf in the mask, to the point of the
/// leaf's bounding sphere nearest the cell, so a leaf's list is valid for
/// every body in it. The leaves that accept share one entry tagged with
/// their mask; the rest go on to the cell's bodies (a leaf's own bodies
/// are *not* gathered: its pairs need self-exclusion, see [`eval_group`])
/// or to its children. Returns the number of cells opened, counted once
/// per leaf that opened them.
///
/// The stack restricted to one leaf's bit is the stack of a descent for
/// that leaf alone, so the entries carrying its bit, in list order, are
/// the list such a descent would gather ([`materialize`]).
///
/// Periodic boxes are not supported here — callers fall back to the
/// per-body walk (see `traverse::group_accelerations`).
pub fn gather_leaves(
    tree: &Tree,
    leaves: &[CellIdx],
    cfg: &GravityConfig,
    sc: &mut IlistScratch,
) -> u64 {
    debug_assert!(cfg.periodic.is_none(), "group walks are non-periodic");
    assert!(!leaves.is_empty() && leaves.len() <= LEAVES);
    sc.clear_shared();
    sc.shared.leaves[..leaves.len()].copy_from_slice(leaves);
    sc.shared.nleaves = leaves.len();
    // Leaf spheres as lanes, so the tests of one cell are one SIMD pass;
    // lanes past a short last group are masked out.
    let (mut gx, mut gy, mut gz, mut rg) =
        ([0.0; LEAVES], [0.0; LEAVES], [0.0; LEAVES], [0.0; LEAVES]);
    for (k, &gi) in leaves.iter().enumerate() {
        let mom = &tree.cell(gi).mom;
        [gx[k], gy[k], gz[k]] = mom.com;
        rg[k] = mom.bmax;
    }
    let mut opened = 0u64;
    let all = Mask::MAX >> (Mask::BITS as usize - leaves.len());
    sc.shared.stack.push((0, all));
    while let Some((ci, mask)) = sc.shared.stack.pop() {
        let cell = tree.cell(ci);
        if cell.nbody == 0 {
            continue;
        }
        let mom = &cell.mom;
        let crit = match cfg.mac {
            gravity::MacKind::BarnesHut => cell.side() / cfg.theta,
            gravity::MacKind::BmaxMac => 2.0 * mom.bmax / cfg.theta,
        };
        // Worst-case target: the leaf-sphere point nearest the cell.
        // Shrink the distance by the leaf's radius before testing. (No
        // `mul_add`: a differently rounded distance flips decisions at
        // the boundary.)
        let mut accept: Mask = 0;
        for k in 0..LEAVES {
            let dx = gx[k] - mom.com[0];
            let dy = gy[k] - mom.com[1];
            let dz = gz[k] - mom.com[2];
            let d = (dx * dx + dy * dy + dz * dz).sqrt();
            let worst = (d - rg[k]).max(0.0);
            accept |= ((worst > mom.bmax && worst > crit) as Mask) << k;
        }
        accept &= mask;
        if accept != 0 {
            sc.share_mom(accept, mom);
        }
        let open = mask & !accept;
        if open == 0 {
            continue;
        }
        if cell.is_leaf {
            let others = open & !select(open, |k| leaves[k] == ci);
            if others != 0 {
                for b in tree.leaf_bodies(cell) {
                    sc.share_body(others, b.pos, b.mass);
                }
            }
        } else {
            opened += open.count_ones() as u64;
            for &ch in &cell.children {
                if ch != NO_CELL {
                    sc.shared.stack.push((ch, open));
                }
            }
        }
    }
    opened
}

/// Load the list of leaf `k` of the gathered walk group into `sc`'s
/// spans — the sub-sequence of shared entries carrying its bit, copied
/// out by index — and return the leaf, ready for [`eval_group`].
pub fn materialize(sc: &mut IlistScratch, k: usize) -> CellIdx {
    let sh = &mut sc.shared;
    assert!(k < sh.nleaves, "the gathered walk group has no leaf {k}");
    let leaf = sh.leaves[k];
    let n = indices_of(&sh.cell_masks, k, &mut sh.idx);
    let [q0, q1, q2, q3, q4, q5] = &mut sc.cq;
    let spans = [
        &mut sc.cx, &mut sc.cy, &mut sc.cz, &mut sc.cm, q0, q1, q2, q3, q4, q5,
    ];
    for (dst, src) in spans.into_iter().zip(&sh.cells) {
        gather_plane(dst, src, &sh.idx[..n]);
    }
    let n = indices_of(&sh.body_masks, k, &mut sh.idx);
    let spans = [&mut sc.bx, &mut sc.by, &mut sc.bz, &mut sc.bm];
    for (dst, src) in spans.into_iter().zip(&sh.bodies) {
        gather_plane(dst, src, &sh.idx[..n]);
    }
    sc.own_leaf = Some(leaf);
    leaf
}

/// Evaluate a materialised leaf list (from [`materialize`]) for every
/// body of the group, writing accelerations into `out` (one slot per
/// group body, in tree order). Intra-group pairs run through the scalar
/// kernel with self-exclusion; everything else streams through the
/// span kernels.
pub fn eval_group(
    tree: &Tree,
    gi: CellIdx,
    cfg: &GravityConfig,
    sc: &IlistScratch,
    out: &mut [Accel],
) -> TraverseStats {
    debug_assert_eq!(sc.own_leaf, Some(gi), "scratch holds a different group");
    let group = tree.cell(gi);
    let eps2 = cfg.eps * cfg.eps;
    let own = tree.leaf_bodies(group);
    debug_assert_eq!(out.len(), own.len());
    let mut stats = TraverseStats::default();
    for (bi, body) in own.iter().enumerate() {
        let pos = body.pos;
        let mut a = Accel::default();
        let (m2p, p2p) = sc.eval(pos, eps2, cfg.quadrupole, &mut a);
        for (j, b) in own.iter().enumerate() {
            if j != bi {
                gravity::p2p(pos, b.pos, b.mass, eps2, &mut a);
            }
        }
        stats.m2p += m2p;
        stats.p2p += p2p + (own.len() as u64 - 1);
        out[bi] = a;
    }
    stats
}

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): a member adds an entry
    /// into the lane of the entry's index in the shared list, not of its
    /// own count of entries taken.
    pub(crate) static LANE_BY_ENTRY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The accumulators of a shared walk's `W` members: for each member, the
/// [`gravity::SPAN_LANES`] lanes of `[ax, ay, az, φ]` a span kernel keeps,
/// and the count of entries it has taken so far.
struct MemberLanes<const W: usize> {
    acc: [[[f64; gravity::SPAN_LANES]; 4]; W],
    taken: [u32; W],
}

impl<const W: usize> MemberLanes<W> {
    const ZERO: Self = MemberLanes {
        acc: [[[0.0; gravity::SPAN_LANES]; 4]; W],
        taken: [0; W],
    };

    /// Hand entry `entry` to the members of `mask`: `add` folds member
    /// `b`'s result into the lane its own `p`-th entry would have in a
    /// span of its list, `p % SPAN_LANES`.
    #[inline(always)]
    fn take(&mut self, mask: Mask, entry: usize, mut add: impl FnMut([&mut f64; 4], usize)) {
        let mut rest = mask;
        while rest != 0 {
            let b = rest.trailing_zeros() as usize;
            let p = self.taken[b] as usize;
            #[cfg(test)]
            let p = if LANE_BY_ENTRY.get() { entry } else { p };
            #[cfg(not(test))]
            let _ = entry;
            let l = p % gravity::SPAN_LANES;
            let [ax, ay, az, ph] = &mut self.acc[b];
            add([&mut ax[l], &mut ay[l], &mut az[l], &mut ph[l]], b);
            self.taken[b] += 1;
            rest &= rest - 1;
        }
    }

    /// Add each member's lane sums into its slot of `out`, as a span
    /// kernel ends, and start over. Returns the entries taken.
    fn fold(&mut self, out: &mut [Accel]) -> u64 {
        let mut taken = 0;
        for (b, o) in out.iter_mut().enumerate() {
            let [ax, ay, az, ph] = &self.acc[b];
            o.acc[0] += ax.iter().sum::<f64>();
            o.acc[1] += ay.iter().sum::<f64>();
            o.acc[2] += az.iter().sum::<f64>();
            o.pot += ph.iter().sum::<f64>();
            taken += self.taken[b] as u64;
        }
        *self = Self::ZERO;
        taken
    }
}

/// `f` of each of `W` lanes, stored component by component, so that the
/// loop over the lanes vectorizes.
#[inline(always)]
fn lanes<const K: usize, const W: usize>(f: impl Fn(usize) -> [f64; K]) -> [[f64; W]; K] {
    let mut out = [[0.0; W]; K];
    for b in 0..W {
        for (o, v) in out.iter_mut().zip(f(b)) {
            o[b] = v;
        }
    }
    out
}

/// Lane `b` of [`lanes`]' result.
#[inline(always)]
fn lane<const K: usize, const W: usize>(v: &[[f64; W]; K], b: usize) -> [f64; K] {
    std::array::from_fn(|k| v[k][b])
}

/// Evaluate a shared walk's list for its members `group` (at most `W`
/// bodies), adding into `out` (one slot per body). `cells` and `bodies`
/// are the list's accepted multipoles and gathered leaf bodies, in list
/// order, each tagged with the members that take it.
///
/// Each entry is read once and its interaction computed for all `W`
/// members at once, as lanes; each member of its mask then folds the
/// result into the accumulator lane its own list, streamed through
/// [`gravity::m2p_span`] and then [`gravity::p2p_span`], would have used.
/// The pair arithmetic is those kernels' ([`gravity::p2p_pair`],
/// [`gravity::m2p_quad_pair`]), so every member's acceleration,
/// potential and counts are bit-identical to copying its list out and
/// evaluating it as spans. Returns `(m2p, p2p)` interaction counts.
pub(crate) fn eval_members<'m, const W: usize>(
    group: &[Body],
    cells: impl Iterator<Item = (Mask, &'m Multipole)>,
    bodies: impl Iterator<Item = (Mask, [f64; 3], f64)>,
    eps2: f64,
    quadrupole: bool,
    out: &mut [Accel],
) -> (u64, u64) {
    assert!(group.len() <= W && out.len() == group.len());
    // Lanes past the group compute on the origin, and no mask names them.
    let t: [[f64; W]; 3] = lanes(|b| group.get(b).map_or([0.0; 3], |body| body.pos));
    let at = |b| lane(&t, b);
    let mut acc = MemberLanes::<W>::ZERO;
    for (entry, (mask, mom)) in cells.enumerate() {
        if quadrupole {
            let v: [[f64; W]; 4] =
                lanes(|b| gravity::m2p_quad_pair(at(b), mom.com, mom.mass, mom.quad, eps2));
            acc.take(mask, entry, |l, b| gravity::m2p_quad_add(l, lane(&v, b)));
        } else {
            let v: [[f64; W]; 5] = lanes(|b| gravity::p2p_pair(at(b), mom.com, mom.mass, eps2));
            acc.take(mask, entry, |l, b| {
                gravity::p2p_add(l, lane(&v, b), mom.mass)
            });
        }
    }
    let m2p = acc.fold(out);
    for (entry, (mask, pos, mass)) in bodies.enumerate() {
        let v: [[f64; W]; 5] = lanes(|b| gravity::p2p_pair(at(b), pos, mass, eps2));
        acc.take(mask, entry, |l, b| gravity::p2p_add(l, lane(&v, b), mass));
    }
    let p2p = acc.fold(out);
    (m2p, p2p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::MacKind;
    use crate::models::plummer;
    use crate::tree::{Body, Tree};
    use proptest::prelude::*;

    /// The span references' gather (here and in `parallel`'s tests):
    /// entries pushed onto the spans one by one.
    impl IlistScratch {
        /// Empty the gathered lists, keeping every buffer's capacity.
        pub(crate) fn clear(&mut self) {
            self.cx.clear();
            self.cy.clear();
            self.cz.clear();
            self.cm.clear();
            for q in &mut self.cq {
                q.clear();
            }
            self.bx.clear();
            self.by.clear();
            self.bz.clear();
            self.bm.clear();
            self.own_leaf = None;
        }

        /// Append an accepted cell's moments.
        pub(crate) fn push_cell(&mut self, mom: &Multipole) {
            let [x, y, z] = mom.com;
            let planes = [&mut self.cx, &mut self.cy, &mut self.cz, &mut self.cm];
            for (plane, v) in planes.into_iter().zip([x, y, z, mom.mass]) {
                plane.push(v);
            }
            for (q, &m) in self.cq.iter_mut().zip(&mom.quad) {
                q.push(m);
            }
        }

        /// Append one body of an opened leaf.
        pub(crate) fn push_body(&mut self, pos: [f64; 3], mass: f64) {
            let [x, y, z] = pos;
            let planes = [&mut self.bx, &mut self.by, &mut self.bz, &mut self.bm];
            for (plane, v) in planes.into_iter().zip([x, y, z, mass]) {
                plane.push(v);
            }
        }
    }

    /// The walk this module had before leaves shared a descent — one full
    /// descent and one list per leaf — kept as the reference the shared
    /// walk's per-leaf lists must reproduce element for element.
    fn gather_group(tree: &Tree, gi: CellIdx, cfg: &GravityConfig, sc: &mut IlistScratch) -> u64 {
        debug_assert!(cfg.periodic.is_none(), "group walks are non-periodic");
        let group = tree.cell(gi);
        let gc = group.mom.com;
        let rg = group.mom.bmax;
        let mut opened = 0u64;
        sc.clear();
        sc.own_leaf = Some(gi);
        let mut stack = vec![0];
        while let Some(ci) = stack.pop() {
            let cell = tree.cell(ci);
            if cell.nbody == 0 {
                continue;
            }
            // Worst-case target: the group-sphere point nearest the cell.
            // Shrink the distance by rg before testing.
            let d = {
                let dx = gc[0] - cell.mom.com[0];
                let dy = gc[1] - cell.mom.com[1];
                let dz = gc[2] - cell.mom.com[2];
                (dx * dx + dy * dy + dz * dz).sqrt()
            };
            let worst = (d - rg).max(0.0);
            let crit = match cfg.mac {
                gravity::MacKind::BarnesHut => cell.side() / cfg.theta,
                gravity::MacKind::BmaxMac => 2.0 * cell.mom.bmax / cfg.theta,
            };
            if worst > cell.mom.bmax && worst > crit {
                sc.push_cell(&cell.mom);
            } else if cell.is_leaf {
                if ci != gi {
                    for b in tree.leaf_bodies(cell) {
                        sc.push_body(b.pos, b.mass);
                    }
                }
            } else {
                opened += 1;
                stack.extend(cell.children.iter().filter(|&&ch| ch != NO_CELL));
            }
        }
        opened
    }

    /// Gather every walk group of `tree` and hand each leaf, with its
    /// materialised list in `sc`, to `f`. Returns the cells opened.
    fn for_each_leaf_list(
        tree: &Tree,
        cfg: &GravityConfig,
        sc: &mut IlistScratch,
        mut f: impl FnMut(CellIdx, &IlistScratch),
    ) -> u64 {
        let leaves: Vec<CellIdx> = (0..tree.cells.len() as CellIdx)
            .filter(|&ci| tree.cell(ci).is_leaf && tree.cell(ci).nbody > 0)
            .collect();
        let mut opened = 0;
        for group in leaves.chunks(LEAVES) {
            opened += gather_leaves(tree, group, cfg, sc);
            for (k, &gi) in group.iter().enumerate() {
                assert_eq!(materialize(sc, k), gi);
                f(gi, sc);
            }
        }
        opened
    }

    fn spans(sc: &IlistScratch) -> [&[f64]; 14] {
        let [q0, q1, q2, q3, q4, q5] = &sc.cq;
        [
            &sc.cx, &sc.cy, &sc.cz, &sc.cm, q0, q1, q2, q3, q4, q5, &sc.bx, &sc.by, &sc.bz, &sc.bm,
        ]
    }

    /// Every leaf's materialised spans equal the solo walk's, and the
    /// walk groups open as many cells as the solo walks do.
    fn assert_lists_match_solo(tree: &Tree, cfg: &GravityConfig) {
        let mut solo = IlistScratch::new();
        let mut solo_opened = 0;
        let opened = for_each_leaf_list(tree, cfg, &mut IlistScratch::new(), |gi, sc| {
            solo_opened += gather_group(tree, gi, cfg, &mut solo);
            assert_eq!(spans(sc), spans(&solo), "leaf {gi} of {cfg:?}");
        });
        assert_eq!(opened, solo_opened, "{cfg:?}");
    }

    /// `n` Plummer bodies, the first `clump` of them on one point: with
    /// `clump > leaf_max` that leaf bottoms out at `MAX_LEVEL` over-full.
    fn clumped(n: usize, clump: usize, seed: u64) -> Vec<Body> {
        let mut bodies = plummer(n, seed);
        for b in bodies.iter_mut().take(clump) {
            b.pos = [0.25, -0.125, 0.5];
        }
        bodies
    }

    #[test]
    fn shared_walk_edge_cases_match_solo_walk() {
        let cfg = GravityConfig {
            eps: 0.01,
            ..Default::default()
        };
        // A tree whose root is the only leaf.
        let root_only = Tree::build(plummer(5, 1), 8);
        assert_eq!(root_only.cells.len(), 1);
        assert_lists_match_solo(&root_only, &cfg);
        // 100 one-body leaves: twelve full walk groups and one of four.
        assert_lists_match_solo(&Tree::build(plummer(100, 2), 1), &cfg);
        // Coincident bodies in one over-full leaf at the deepest level.
        let deep = Tree::build(clumped(60, 12, 3), 2);
        assert!(deep.cells.iter().any(|c| c.is_leaf && c.nbody == 12));
        assert_lists_match_solo(&deep, &cfg);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_materialised_lists_equal_solo_walk(
            seed in 0u64..1000,
            n in 1usize..400,
            leaf_max in 1usize..16,
            clump in 0usize..24,
            theta in 0.3f64..1.0,
            bmax_mac in proptest::bool::ANY,
        ) {
            let tree = Tree::build(clumped(n, clump, seed), leaf_max);
            let cfg = GravityConfig {
                theta,
                eps: 0.01,
                mac: if bmax_mac { MacKind::BmaxMac } else { MacKind::BarnesHut },
                ..Default::default()
            };
            assert_lists_match_solo(&tree, &cfg);
        }
    }

    #[test]
    fn group_list_covers_all_mass_exactly_once() {
        // For any leaf, accepted cells + gathered bodies + the leaf's
        // own bodies partition the total mass.
        let tree = Tree::build(plummer(700, 3), 16);
        let cfg = GravityConfig {
            theta: 0.7,
            eps: 0.01,
            ..Default::default()
        };
        let total = tree.total_mass();
        for_each_leaf_list(&tree, &cfg, &mut IlistScratch::new(), |gi, sc| {
            let own: f64 = tree.leaf_bodies(tree.cell(gi)).iter().map(|b| b.mass).sum();
            let listed: f64 = sc.cm.iter().sum::<f64>() + sc.bm.iter().sum::<f64>() + own;
            assert!(
                (listed - total).abs() < 1e-9 * total,
                "leaf {gi}: {listed} vs {total}"
            );
        });
    }
}
