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
//! The scratch is allocation-free in steady state: buffers are
//! truncated, never dropped, so after a warm-up pass the walk performs
//! no heap allocation per body or per group. A debug counter
//! ([`IlistScratch::alloc_events`]) records every capacity growth so
//! tests can assert exactly that.

use crate::gravity::{self, Accel, GravityConfig};
use crate::mac::Mac;
use crate::multipole::Multipole;
use crate::traverse::TraverseStats;
use crate::tree::{Cell, CellIdx, Tree, NO_CELL};
use std::cell::RefCell;

/// Leaves per walk group of the serial group walk. Wider groups share
/// more of the descent, but their members lie further apart, so masks
/// thin out higher in the tree and every leaf pays for a longer shared
/// list at materialisation (measured: DESIGN.md, *Performance
/// architecture*); a `Mask` has one bit per leaf of the group.
pub const LEAVES: usize = 8;
const _: () = assert!(LEAVES <= Mask::BITS as usize);

/// One bit per member of a shared walk: a leaf of a walk group here, a
/// body of a `parallel::GROUP` in the distributed walk, which fills the
/// shared list from its own descent ([`IlistScratch::share_mom`]). Wide
/// enough for the wider of the two groups.
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

/// Reusable SoA gather buffers for one walk target (a body or a group).
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
    /// Traversal stack (reused across walks).
    pub stack: Vec<CellIdx>,
    /// Leaf cells whose bodies need index-aware handling (the group's
    /// own leaf in a group walk).
    own_leaf: Option<CellIdx>,
    /// The walk group's shared list ([`gather_leaves`]).
    shared: SharedList,
    /// Number of buffer reallocations since the last reset.
    alloc_events: u64,
}

#[inline]
fn push_tracked<T>(v: &mut Vec<T>, allocs: &mut u64, x: T) {
    if v.len() == v.capacity() {
        *allocs += 1;
    }
    v.push(x);
}

/// Write the positions of the entries of `masks` carrying bit `k` to the
/// front of `idx`, branch-free, and return how many there are.
#[inline]
fn indices_of(masks: &[Mask], k: usize, idx: &mut Vec<u32>, allocs: &mut u64) -> usize {
    if idx.len() < masks.len() {
        *allocs += (idx.capacity() < masks.len()) as u64;
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
fn gather_plane(dst: &mut Vec<f64>, allocs: &mut u64, src: &[f64], idx: &[u32]) {
    dst.clear();
    *allocs += (dst.capacity() < idx.len()) as u64;
    dst.extend(idx.iter().map(|&i| src[i as usize]));
}

impl IlistScratch {
    pub fn new() -> IlistScratch {
        IlistScratch::default()
    }

    /// Empty the gathered lists, keeping every buffer's capacity.
    pub fn clear(&mut self) {
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
        self.stack.clear();
        self.own_leaf = None;
    }

    /// Buffer reallocations since construction — it stops growing once
    /// the scratch has warmed up.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Free the walk group's shared list (the spans keep their capacity).
    /// It is sized by eight leaves' lists, not one, and a replicated world
    /// walks on every rank thread: kept between force evaluations, sixteen
    /// of them were a fifth of `treecode_replicated16`'s peak RSS.
    pub(crate) fn release_shared(&mut self) {
        self.shared = SharedList::default();
    }

    /// Empty the shared list for the next shared walk.
    pub(crate) fn clear_shared(&mut self) {
        let sh = &mut self.shared;
        sh.cells.iter_mut().for_each(Vec::clear);
        sh.cell_masks.clear();
        sh.bodies.iter_mut().for_each(Vec::clear);
        sh.body_masks.clear();
    }

    /// Append an accepted multipole to the shared list, for the members
    /// of `mask`.
    #[inline]
    pub(crate) fn share_mom(&mut self, mask: Mask, mom: &Multipole) {
        let a = &mut self.alloc_events;
        let [x, y, z] = mom.com;
        let [q0, q1, q2, q3, q4, q5] = mom.quad;
        let planes = self.shared.cells.iter_mut();
        for (plane, v) in planes.zip([x, y, z, mom.mass, q0, q1, q2, q3, q4, q5]) {
            push_tracked(plane, a, v);
        }
        push_tracked(&mut self.shared.cell_masks, a, mask);
    }

    /// Append one leaf body to the shared list, for the members of `mask`.
    #[inline]
    pub(crate) fn share_body(&mut self, mask: Mask, pos: [f64; 3], mass: f64) {
        let a = &mut self.alloc_events;
        let [x, y, z] = pos;
        for (plane, v) in self.shared.bodies.iter_mut().zip([x, y, z, mass]) {
            push_tracked(plane, a, v);
        }
        push_tracked(&mut self.shared.body_masks, a, mask);
    }

    /// Number of accepted cells currently gathered.
    pub fn n_cells(&self) -> usize {
        self.cm.len()
    }

    /// Number of leaf bodies currently gathered.
    pub fn n_bodies(&self) -> usize {
        self.bm.len()
    }

    /// Append an accepted multipole, with its center of mass at `com`
    /// (callers apply periodic image shifts before pushing). This is
    /// what the distributed walk uses for ghost cells, which carry
    /// moments but no local [`Cell`].
    #[inline]
    pub fn push_mom(&mut self, com: [f64; 3], mom: &crate::multipole::Multipole) {
        let a = &mut self.alloc_events;
        push_tracked(&mut self.cx, a, com[0]);
        push_tracked(&mut self.cy, a, com[1]);
        push_tracked(&mut self.cz, a, com[2]);
        push_tracked(&mut self.cm, a, mom.mass);
        for (q, &m) in self.cq.iter_mut().zip(&mom.quad) {
            push_tracked(q, a, m);
        }
    }

    /// Append an accepted cell's moments.
    #[inline]
    pub fn push_cell(&mut self, com: [f64; 3], cell: &Cell) {
        let mom = cell.mom;
        self.push_mom(com, &mom);
    }

    /// Append one leaf body.
    #[inline]
    pub fn push_body(&mut self, pos: [f64; 3], mass: f64) {
        let a = &mut self.alloc_events;
        push_tracked(&mut self.bx, a, pos[0]);
        push_tracked(&mut self.by, a, pos[1]);
        push_tracked(&mut self.bz, a, pos[2]);
        push_tracked(&mut self.bm, a, mass);
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

/// Per-body walk: gather the interaction list for the body at index `i`
/// of `tree.bodies` into `sc`, then evaluate it with the span kernels.
/// Exactly the same accept/open decisions as the scalar reference walk
/// (`traverse::accel_on_scalar`), so force errors are identical; only
/// the evaluation order changes.
pub fn accel_on_with(
    tree: &Tree,
    i: usize,
    cfg: &GravityConfig,
    sc: &mut IlistScratch,
) -> (Accel, TraverseStats) {
    let pos = tree.bodies[i].pos;
    let mac = Mac::new(cfg.mac, cfg.theta);
    let eps2 = cfg.eps * cfg.eps;
    let mut stats = TraverseStats::default();
    sc.clear();
    push_tracked(&mut sc.stack, &mut sc.alloc_events, 0);
    while let Some(ci) = sc.stack.pop() {
        let cell = tree.cell(ci);
        if cell.nbody == 0 {
            continue;
        }
        // Periodic runs interact with the nearest image of each cell.
        let com = match cfg.periodic {
            Some(l) => gravity::nearest_image(pos, cell.mom.com, l),
            None => cell.mom.com,
        };
        let mut mom = cell.mom;
        mom.com = com;
        if mac.accept_raw(cell.side(), &mom, pos) {
            sc.push_cell(com, cell);
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
                sc.push_body(sp, b.mass);
            }
        } else {
            stats.opened += 1;
            for &ch in &cell.children {
                if ch != NO_CELL {
                    push_tracked(&mut sc.stack, &mut sc.alloc_events, ch);
                }
            }
        }
    }
    let mut out = Accel::default();
    let (m2p, p2p) = sc.eval(pos, eps2, cfg.quadrupole, &mut out);
    stats.m2p += m2p;
    stats.p2p += p2p;
    (out, stats)
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
    push_tracked(&mut sc.shared.stack, &mut sc.alloc_events, (0, all));
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
                    push_tracked(&mut sc.shared.stack, &mut sc.alloc_events, (ch, open));
                }
            }
        }
    }
    opened
}

/// [`materialize`] for member `k` of any shared walk, leaf or body.
pub(crate) fn materialize_member(sc: &mut IlistScratch, k: usize) {
    let allocs = &mut sc.alloc_events;
    let sh = &mut sc.shared;
    let n = indices_of(&sh.cell_masks, k, &mut sh.idx, allocs);
    let [q0, q1, q2, q3, q4, q5] = &mut sc.cq;
    let spans = [
        &mut sc.cx, &mut sc.cy, &mut sc.cz, &mut sc.cm, q0, q1, q2, q3, q4, q5,
    ];
    for (dst, src) in spans.into_iter().zip(&sh.cells) {
        gather_plane(dst, allocs, src, &sh.idx[..n]);
    }
    let n = indices_of(&sh.body_masks, k, &mut sh.idx, allocs);
    let spans = [&mut sc.bx, &mut sc.by, &mut sc.bz, &mut sc.bm];
    for (dst, src) in spans.into_iter().zip(&sh.bodies) {
        gather_plane(dst, allocs, src, &sh.idx[..n]);
    }
}

/// Load the list of leaf `k` of the gathered walk group into `sc`'s
/// spans — the sub-sequence of shared entries carrying its bit, copied
/// out by index — and return the leaf, ready for [`eval_group`].
pub fn materialize(sc: &mut IlistScratch, k: usize) -> CellIdx {
    let sh = &sc.shared;
    assert!(k < sh.nleaves, "the gathered walk group has no leaf {k}");
    let leaf = sh.leaves[k];
    materialize_member(sc, k);
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
mod tests {
    use super::*;
    use crate::gravity::MacKind;
    use crate::models::plummer;
    use crate::tree::{Body, Tree};
    use proptest::prelude::*;

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
        push_tracked(&mut sc.stack, &mut sc.alloc_events, 0);
        while let Some(ci) = sc.stack.pop() {
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
                sc.push_cell(cell.mom.com, cell);
            } else if cell.is_leaf {
                if ci != gi {
                    for b in tree.leaf_bodies(cell) {
                        sc.push_body(b.pos, b.mass);
                    }
                }
            } else {
                opened += 1;
                for &ch in &cell.children {
                    if ch != NO_CELL {
                        push_tracked(&mut sc.stack, &mut sc.alloc_events, ch);
                    }
                }
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
    fn steady_state_group_walk_is_allocation_free() {
        let tree = Tree::build(plummer(2_000, 91), 16);
        let cfg = GravityConfig {
            theta: 0.6,
            eps: 0.01,
            ..Default::default()
        };
        let mut sc = IlistScratch::new();
        let mut out = vec![Accel::default(); tree.leaf_max];
        let mut pass = |sc: &mut IlistScratch| {
            for_each_leaf_list(&tree, &cfg, sc, |gi, sc| {
                let nb = tree.cell(gi).nbody as usize;
                eval_group(&tree, gi, &cfg, sc, &mut out[..nb]);
            });
        };
        // Warm-up pass: the shared list, its masks, the index buffer and
        // the per-leaf spans grow to their steady-state capacity.
        pass(&mut sc);
        let warm = sc.alloc_events();
        assert!(warm > 0, "warm-up must have allocated");
        // Steady state: zero heap growth across a full second pass.
        pass(&mut sc);
        assert_eq!(sc.alloc_events(), warm, "steady-state walk allocated");
    }

    #[test]
    fn steady_state_body_walk_is_allocation_free() {
        let tree = Tree::build(plummer(1_000, 17), 8);
        let cfg = GravityConfig {
            theta: 0.5,
            eps: 0.01,
            ..Default::default()
        };
        let mut sc = IlistScratch::new();
        for i in 0..tree.bodies.len() {
            accel_on_with(&tree, i, &cfg, &mut sc);
        }
        let warm = sc.alloc_events();
        for i in 0..tree.bodies.len() {
            accel_on_with(&tree, i, &cfg, &mut sc);
        }
        assert_eq!(sc.alloc_events(), warm, "steady-state walk allocated");
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
