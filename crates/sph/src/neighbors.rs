//! Neighbour search over the `hot` oct-tree.
//!
//! The supernova code reuses the N-body tree for range queries: one
//! descent enters a cell only if its cube lies within the cell's reach,
//! constant for a ball query and `SUPPORT·(h + h_c)/2` for a pair query.

use crate::kernel;
use crate::particle::SphParticle;
use hot::tree::{Body, CellIdx, Tree, NO_CELL};
use std::cell::RefCell;

thread_local! {
    /// Reusable traversal stack: ball queries run once per particle per
    /// adaptive-h iteration, so a fresh `Vec` per call would dominate
    /// the allocator profile of `compute_density`.
    static BALL_STACK: RefCell<Vec<CellIdx>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): `pair_visit` prunes at
    /// the target's own reach `SUPPORT·h`, missing wider neighbours. Rank
    /// threads read their own copy.
    pub(crate) static GATHER_ONLY_REACH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A neighbour-search structure over a snapshot of particle positions.
/// `Body::id` stores the particle index.
pub struct NeighborTree {
    tree: Tree,
}

impl NeighborTree {
    pub fn build(particles: &[SphParticle]) -> NeighborTree {
        let bodies: Vec<Body> = particles
            .iter()
            .enumerate()
            .map(|(i, p)| Body {
                pos: p.pos,
                vel: [0.0; 3],
                mass: p.mass,
                id: i as u64,
                work: 1.0,
            })
            .collect();
        NeighborTree {
            tree: Tree::build(bodies, 16),
        }
    }

    /// Also expose the underlying tree (for gravity).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Each cell's largest `h` over its bodies (`parts` is the slice the
    /// tree was built over, at its current `h`), indexed like the tree's
    /// cells: one reverse pass, since cells are stored parent first.
    pub fn h_bounds(&self, parts: &[SphParticle]) -> Vec<f64> {
        let mut hb = vec![0.0f64; self.tree.cells.len()];
        for (ci, cell) in self.tree.cells.iter().enumerate().rev() {
            hb[ci] = if cell.is_leaf {
                let bodies = self.tree.leaf_bodies(cell).iter();
                bodies.map(|b| parts[b.id as usize].h).fold(0.0, f64::max)
            } else {
                let children = cell.children.iter().filter(|&&ch| ch != NO_CELL);
                children.map(|&ch| hb[ch as usize]).fold(0.0, f64::max)
            };
        }
        hb
    }

    /// Visit (in a deterministic, query-independent order) every particle
    /// within `radius` of `center`, including the one at the center, on a
    /// reusable thread-local stack: `visit` must not itself issue a query.
    pub fn ball_visit<F: FnMut(usize)>(&self, center: [f64; 3], radius: f64, visit: F) {
        self.descend(center, |_| radius, 1.0, visit);
    }

    /// Visit every `j` within `SUPPORT·(h + h_j)/2` of a target of
    /// smoothing length `h` at `center` (and some farther ones), in the
    /// order [`Self::ball_visit`] at the global `h_max`'s reach would, given
    /// `hb = self.h_bounds(..)`: a cell is entered only within
    /// `SUPPORT·(h + hb[c])/2` (squared, with a `1e-9` relative slack).
    pub fn pair_visit<F: FnMut(usize)>(&self, center: [f64; 3], h: f64, hb: &[f64], visit: F) {
        #[cfg(test)]
        if GATHER_ONLY_REACH.get() {
            return self.descend(center, |_| kernel::SUPPORT * h, 1.0, visit);
        }
        let reach = |ci: CellIdx| kernel::SUPPORT * 0.5 * (h + hb[ci as usize]);
        self.descend(center, reach, 1.0 + 1e-9, visit);
    }

    /// The one descent under both searches: enter cell `ci` if its cube
    /// lies within `reach(ci)` (squared, times `slack`), visit leaf bodies
    /// within it.
    fn descend(
        &self,
        center: [f64; 3],
        reach: impl Fn(CellIdx) -> f64,
        slack: f64,
        mut visit: impl FnMut(usize),
    ) {
        BALL_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.clear();
            stack.push(0);
            while let Some(ci) = stack.pop() {
                let cell = self.tree.cell(ci);
                let r = reach(ci);
                let r2 = r * r;
                // Cube/sphere overlap test.
                let mut d2 = 0.0;
                for d in 0..3 {
                    let gap = (center[d] - cell.center[d]).abs() - cell.half;
                    if gap > 0.0 {
                        d2 += gap * gap;
                    }
                }
                if d2 > r2 * slack {
                    continue;
                }
                if cell.is_leaf {
                    for b in self.tree.leaf_bodies(cell) {
                        let dx = b.pos[0] - center[0];
                        let dy = b.pos[1] - center[1];
                        let dz = b.pos[2] - center[2];
                        if dx * dx + dy * dy + dz * dz <= r2 {
                            visit(b.id as usize);
                        }
                    }
                } else {
                    for &ch in &cell.children {
                        if ch != NO_CELL {
                            stack.push(ch);
                        }
                    }
                }
            }
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_particles(n: usize, seed: u64) -> Vec<SphParticle> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                SphParticle::new(
                    [
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ],
                    [0.0; 3],
                    1.0,
                    0.0,
                    i as u64,
                )
            })
            .collect()
    }

    /// The ball collected through [`NeighborTree::ball_visit`].
    pub(crate) fn ball(nt: &NeighborTree, c: [f64; 3], r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        nt.ball_visit(c, r, |i| out.push(i));
        out
    }

    fn brute_ball(parts: &[SphParticle], c: [f64; 3], r: f64) -> Vec<usize> {
        let mut v: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let dx = p.pos[0] - c[0];
                let dy = p.pos[1] - c[1];
                let dz = p.pos[2] - c[2];
                dx * dx + dy * dy + dz * dz <= r * r
            })
            .map(|(i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn ball_query_matches_brute_force() {
        let parts = random_particles(500, 3);
        let nt = NeighborTree::build(&parts);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..30 {
            let c = [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ];
            let r = rng.gen_range(0.05..0.8);
            let mut got = ball(&nt, c, r);
            got.sort_unstable();
            let want = brute_ball(&parts, c, r);
            assert_eq!(got, want, "center {c:?} radius {r}");
        }
    }

    #[test]
    fn visitor_count_and_collect_agree() {
        let parts = random_particles(400, 7);
        let nt = NeighborTree::build(&parts);
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..20 {
            let c = [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ];
            let r = rng.gen_range(0.05..0.8);
            let owned = ball(&nt, c, r);
            let mut count = 0;
            nt.ball_visit(c, r, |_| count += 1);
            assert_eq!(count, owned.len());
            let mut visited = Vec::new();
            nt.ball_visit(c, r, |i| visited.push(i));
            assert_eq!(visited, owned, "visitor order differs");
        }
    }

    #[test]
    fn empty_ball_far_away() {
        let parts = random_particles(100, 5);
        let nt = NeighborTree::build(&parts);
        assert!(ball(&nt, [100.0, 100.0, 100.0], 0.5).is_empty());
    }

    #[test]
    fn ball_includes_center_particle() {
        let parts = random_particles(100, 6);
        let nt = NeighborTree::build(&parts);
        let got = ball(&nt, parts[42].pos, 0.01);
        assert!(got.contains(&42));
    }

    /// `n` random particles with `h` spread over two decades, pinned to
    /// the cube `[-1, 1]³` by two corner particles, then as many again
    /// placed on cell faces (a cell's center is a face of each of its
    /// children; the corners fix the tree's box, so its cells are those of
    /// a tree over the random ones) and on top of earlier particles.
    pub(crate) fn spread_particles(n: usize, seed: u64) -> Vec<SphParticle> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xface);
        let mut parts = random_particles(n, seed);
        parts[0].pos = [-1.0; 3];
        parts[n - 1].pos = [1.0; 3];
        let faces: Vec<[f64; 3]> = {
            let nt = NeighborTree::build(&parts);
            let cells = &nt.tree().cells;
            (0..n)
                .map(|_| {
                    let cell = &cells[rng.gen_range(0..cells.len())];
                    let mut pos = parts[rng.gen_range(0..n)].pos;
                    let d = rng.gen_range(0..3usize);
                    pos[d] = cell.center[d];
                    if rng.gen::<bool>() {
                        pos = cell.center;
                    }
                    pos
                })
                .collect()
        };
        for pos in faces {
            let twin = if rng.gen::<bool>() {
                pos
            } else {
                parts[rng.gen_range(0..parts.len())].pos
            };
            let id = parts.len() as u64;
            parts.push(SphParticle::new(twin, [0.0; 3], 1.0, 0.0, id));
        }
        for p in &mut parts {
            p.h = 0.02 * 10f64.powf(rng.gen_range(0.0..2.0));
        }
        parts
    }

    /// The first way `pair_visit` (or `h_bounds`) breaks its contract on
    /// `parts`, targeting each particle in turn; `None` if it keeps it.
    pub(crate) fn pair_visit_violation(parts: &[SphParticle]) -> Option<String> {
        let nt = NeighborTree::build(parts);
        let hb = nt.h_bounds(parts);
        let tree = nt.tree();
        for (ci, cell) in tree.cells.iter().enumerate() {
            let range = cell.first_body as usize..(cell.first_body + cell.nbody) as usize;
            let bodies = tree.bodies[range].iter();
            let want = bodies.map(|b| parts[b.id as usize].h).fold(0.0, f64::max);
            if hb[ci].to_bits() != want.to_bits() {
                return Some(format!("h_bounds[{ci}] = {} vs {want}", hb[ci]));
            }
        }
        let h_max = parts.iter().map(|p| p.h).fold(0.0f64, f64::max);
        for (i, pi) in parts.iter().enumerate() {
            let mut got = Vec::new();
            nt.pair_visit(pi.pos, pi.h, &hb, |j| got.push(j));
            let wide = ball(&nt, pi.pos, kernel::SUPPORT * 0.5 * (pi.h + h_max));
            let mut rest = wide.iter();
            if !got.iter().all(|j| rest.any(|k| k == j)) {
                return Some(format!("target {i}: {got:?} not in order within {wide:?}"));
            }
            for (j, pj) in parts.iter().enumerate() {
                let dx = [0, 1, 2].map(|d| pi.pos[d] - pj.pos[d]);
                let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
                let hbar = 0.5 * (pi.h + pj.h);
                if r2 < (kernel::SUPPORT * hbar).powi(2) && !got.contains(&j) {
                    return Some(format!("target {i}: pair with {j} at r² = {r2} missed"));
                }
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn pair_visit_keeps_every_pair_in_ball_order(seed in 0u64..1000, n in 2usize..200) {
            prop_assert_eq!(pair_visit_violation(&spread_particles(n, seed)), None);
        }
    }
}
