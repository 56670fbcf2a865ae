//! Tree construction from Morton-sorted bodies.
//!
//! Bodies are sorted by full-depth key; a cell is then simply a contiguous
//! range of that sorted array, and the oct-tree is built by recursively
//! splitting ranges on the next three key bits. Every cell is registered
//! in the [`KeyMap`] so any key can be resolved to its cell in O(1) — the
//! indirection the parallel code uses to catch non-local accesses.

use crate::hash::KeyMap;
use crate::morton::{BBox, Key, MAX_LEVEL};
use crate::multipole::Multipole;
use msg::BitEq;

/// One simulation particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    pub pos: [f64; 3],
    pub vel: [f64; 3],
    pub mass: f64,
    /// Stable identifier (survives sorting and migration).
    pub id: u64,
    /// Work estimate from the previous traversal, for load balancing.
    pub work: f64,
}

impl BitEq for Body {
    fn bit_eq(&self, o: &Self) -> bool {
        self.pos.bit_eq(&o.pos)
            && self.vel.bit_eq(&o.vel)
            && self.mass.bit_eq(&o.mass)
            && self.id == o.id
            && self.work.bit_eq(&o.work)
    }
}

impl Body {
    pub fn at(pos: [f64; 3], mass: f64) -> Body {
        Body {
            pos,
            vel: [0.0; 3],
            mass,
            id: 0,
            work: 1.0,
        }
    }

    /// Size of one row of [`Body::write_row`].
    pub const ROW_BYTES: usize = 72;

    /// Append this body as one fixed-width little-endian row: pos, vel,
    /// mass, id, work, floats as raw IEEE-754 bits so NaN payloads,
    /// signed zeros and subnormals survive. The one on-disk body row:
    /// `cluster::chaos`'s whole-state frame and the `outofcore` page file.
    pub fn write_row(&self, out: &mut Vec<u8>) {
        for v in self.pos.iter().chain(&self.vel).chain([&self.mass]) {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.work.to_bits().to_le_bytes());
    }

    /// Decode one row written by [`Body::write_row`].
    pub fn read_row(row: &[u8; Self::ROW_BYTES]) -> Body {
        let w = |i: usize| u64::from_le_bytes(row[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let f = |i: usize| f64::from_bits(w(i));
        Body {
            pos: [f(0), f(1), f(2)],
            vel: [f(3), f(4), f(5)],
            mass: f(6),
            id: w(7),
            work: f(8),
        }
    }
}

/// Index of a cell in [`Tree::cells`]; `NONE` marks an absent child.
pub type CellIdx = i32;
pub const NO_CELL: CellIdx = -1;

/// One tree cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub key: Key,
    /// Range of bodies in the tree's sorted body array.
    pub first_body: u32,
    pub nbody: u32,
    /// Child cell indices by octant; `NO_CELL` where empty.
    pub children: [CellIdx; 8],
    pub mom: Multipole,
    /// Geometric center and half-size.
    pub center: [f64; 3],
    pub half: f64,
    /// True when the cell has no children (bodies are stored directly).
    pub is_leaf: bool,
}

impl Cell {
    pub fn level(&self) -> u32 {
        self.key.level()
    }

    /// Side length of the cell.
    pub fn side(&self) -> f64 {
        2.0 * self.half
    }
}

/// A hashed oct-tree over a set of bodies.
pub struct Tree {
    pub bbox: BBox,
    /// Bodies sorted by Morton key.
    pub bodies: Vec<Body>,
    /// Full-depth key per body (parallel to `bodies`).
    pub keys: Vec<Key>,
    pub cells: Vec<Cell>,
    /// Key → cell index.
    pub map: KeyMap,
    pub leaf_max: usize,
}

impl Tree {
    /// Build a tree over `bodies`, deriving the bounding box from them.
    pub fn build(bodies: Vec<Body>, leaf_max: usize) -> Tree {
        let bbox = BBox::enclosing(bodies.iter().map(|b| b.pos));
        Tree::build_in(bodies, bbox, leaf_max)
    }

    /// Build with an externally supplied (e.g. global) bounding box.
    pub fn build_in(bodies: Vec<Body>, bbox: BBox, leaf_max: usize) -> Tree {
        assert!(leaf_max >= 1);
        assert!(!bodies.is_empty(), "cannot build a tree over no bodies");
        let mut keyed: Vec<(Key, Body)> = bodies
            .into_iter()
            .map(|b| (bbox.key_of(b.pos), b))
            .collect();
        // Stable: bodies with equal keys keep their input order, so the
        // body order (and every digest downstream) is a function of the
        // input alone.
        keyed.sort_by_key(|&(k, _)| k);
        let keys: Vec<Key> = keyed.iter().map(|&(k, _)| k).collect();
        let bodies: Vec<Body> = keyed.into_iter().map(|(_, b)| b).collect();

        let mut tree = Tree {
            bbox,
            bodies,
            keys,
            cells: Vec::new(),
            map: KeyMap::with_capacity(64),
            leaf_max,
        };
        let n = tree.bodies.len();
        tree.build_cell(Key::ROOT, 0, n);
        tree
    }

    /// Recursively build the cell covering `bodies[first..first+n]`.
    /// Returns the new cell's index.
    fn build_cell(&mut self, key: Key, first: usize, n: usize) -> CellIdx {
        let (center, half) = self.bbox.cell_geometry(key);
        let idx = self.cells.len() as CellIdx;
        self.cells.push(Cell {
            key,
            first_body: first as u32,
            nbody: n as u32,
            children: [NO_CELL; 8],
            mom: Multipole::ZERO,
            center,
            half,
            is_leaf: true,
        });
        self.map.insert(key, idx as u32);

        let level = key.level();
        if n <= self.leaf_max || level == MAX_LEVEL {
            let mom = Multipole::from_bodies(
                self.bodies[first..first + n]
                    .iter()
                    .map(|b| (&b.pos, b.mass)),
            );
            self.cells[idx as usize].mom = mom;
            return idx;
        }

        // Split the sorted range on the next 3 key bits.
        let shift = 3 * (MAX_LEVEL - level - 1);
        let mut children = [NO_CELL; 8];
        let mut start = first;
        let end = first + n;
        for oct in 0..8u8 {
            // Bodies with this octant at this level form a contiguous run.
            let run_end = start
                + self.keys[start..end].partition_point(|k| ((k.0 >> shift) & 7) as u8 <= oct);
            if run_end > start {
                children[oct as usize] = self.build_cell(key.child(oct), start, run_end - start);
            }
            start = run_end;
        }
        debug_assert_eq!(start, end, "octant partition lost bodies");

        let child_moms: Vec<Multipole> = children
            .iter()
            .filter(|&&c| c != NO_CELL)
            .map(|&c| self.cells[c as usize].mom)
            .collect();
        let cell = &mut self.cells[idx as usize];
        cell.children = children;
        cell.is_leaf = false;
        cell.mom = Multipole::combine(&child_moms);
        idx
    }

    pub fn root(&self) -> &Cell {
        &self.cells[0]
    }

    pub fn cell(&self, idx: CellIdx) -> &Cell {
        &self.cells[idx as usize]
    }

    /// Bodies of a leaf cell.
    pub fn leaf_bodies(&self, cell: &Cell) -> &[Body] {
        let a = cell.first_body as usize;
        &self.bodies[a..a + cell.nbody as usize]
    }

    /// Maximum depth of any cell.
    pub fn depth(&self) -> u32 {
        self.cells.iter().map(Cell::level).max().unwrap_or(0)
    }

    /// Total mass (from the root's moments).
    pub fn total_mass(&self) -> f64 {
        self.root().mom.mass
    }
}

/// The bodies a KDK step closes on ([`crate::integrate::step`]): only
/// velocities change, so the cells stay the tree over them.
impl AsMut<[Body]> for Tree {
    fn as_mut(&mut self) -> &mut [Body] {
        &mut self.bodies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_bodies(n: usize, seed: u64) -> Vec<Body> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let mut b = Body::at(
                    [
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ],
                    rng.gen_range(0.5..1.5),
                );
                b.id = i as u64;
                b
            })
            .collect()
    }

    #[test]
    fn root_covers_all_bodies() {
        let t = Tree::build(random_bodies(100, 1), 8);
        assert_eq!(t.root().nbody, 100);
        assert_eq!(t.root().key, Key::ROOT);
        let total: f64 = t.bodies.iter().map(|b| b.mass).sum();
        assert!((t.total_mass() - total).abs() < 1e-10);
    }

    #[test]
    fn leaves_respect_leaf_max() {
        let t = Tree::build(random_bodies(500, 2), 8);
        for c in &t.cells {
            if c.is_leaf && c.level() < MAX_LEVEL {
                assert!(c.nbody <= 8, "leaf with {} bodies", c.nbody);
            }
            if !c.is_leaf {
                assert!(c.nbody > 8);
            }
        }
    }

    #[test]
    fn children_partition_parent() {
        let t = Tree::build(random_bodies(300, 3), 4);
        for c in &t.cells {
            if c.is_leaf {
                continue;
            }
            let mut covered = 0;
            let mut next = c.first_body;
            for &ch in &c.children {
                if ch == NO_CELL {
                    continue;
                }
                let child = t.cell(ch);
                assert_eq!(child.first_body, next, "children not contiguous");
                assert_eq!(child.key.parent(), c.key);
                covered += child.nbody;
                next += child.nbody;
            }
            assert_eq!(covered, c.nbody, "children lost bodies");
        }
    }

    #[test]
    fn hash_lookup_finds_every_cell() {
        let t = Tree::build(random_bodies(200, 4), 8);
        for (i, c) in t.cells.iter().enumerate() {
            assert_eq!(t.map.get(c.key), Some(i as u32));
        }
        assert_eq!(t.map.len(), t.cells.len());
    }

    #[test]
    fn bodies_lie_inside_their_leaf_geometry() {
        let t = Tree::build(random_bodies(200, 5), 4);
        for c in &t.cells {
            if !c.is_leaf {
                continue;
            }
            for b in t.leaf_bodies(c) {
                for d in 0..3 {
                    assert!(
                        (b.pos[d] - c.center[d]).abs() <= c.half * 1.0001,
                        "body {:?} outside leaf at {:?} half {}",
                        b.pos,
                        c.center,
                        c.half
                    );
                }
            }
        }
    }

    #[test]
    fn internal_moments_match_direct_computation() {
        let t = Tree::build(random_bodies(150, 6), 4);
        for c in &t.cells {
            let a = c.first_body as usize;
            let direct = Multipole::from_bodies(
                t.bodies[a..a + c.nbody as usize]
                    .iter()
                    .map(|b| (&b.pos, b.mass)),
            );
            assert!((c.mom.mass - direct.mass).abs() < 1e-10);
            for d in 0..3 {
                assert!((c.mom.com[d] - direct.com[d]).abs() < 1e-10);
            }
            for q in 0..6 {
                assert!(
                    (c.mom.quad[q] - direct.quad[q]).abs() < 1e-8,
                    "quad mismatch at level {}",
                    c.level()
                );
            }
            assert!(c.mom.bmax + 1e-12 >= direct.bmax);
        }
    }

    #[test]
    fn coincident_bodies_terminate_at_max_level() {
        let mut bodies = vec![Body::at([0.5, 0.5, 0.5], 1.0); 10];
        bodies.push(Body::at([0.0, 0.0, 0.0], 1.0));
        let t = Tree::build(bodies, 2);
        assert!(t.depth() <= MAX_LEVEL);
        assert_eq!(t.root().nbody, 11);
    }

    #[test]
    fn single_body_tree() {
        let t = Tree::build(vec![Body::at([1.0, 2.0, 3.0], 4.0)], 8);
        assert_eq!(t.cells.len(), 1);
        assert!(t.root().is_leaf);
        assert_eq!(t.total_mass(), 4.0);
    }

    #[test]
    fn two_distant_bodies_split() {
        let t = Tree::build(vec![Body::at([-1.0; 3], 1.0), Body::at([1.0; 3], 1.0)], 1);
        assert!(t.cells.len() >= 3);
        assert!(!t.root().is_leaf);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_build_panics() {
        Tree::build(Vec::new(), 8);
    }

    #[test]
    fn build_is_deterministic_and_keeps_input_order_among_equal_keys() {
        // Duplicated positions (equal keys) make stability matter: the
        // build must order them as a stable key sort of the input does.
        const N: usize = 8192;
        let mut bodies = random_bodies(N + 500, 9);
        for i in 0..400 {
            let p = bodies[i].pos;
            bodies[N + i].pos = p; // exact duplicates
        }
        let tree = Tree::build(bodies.clone(), 8);
        let bbox = tree.bbox;
        let mut keyed: Vec<(Key, Body)> = bodies.iter().map(|&b| (bbox.key_of(b.pos), b)).collect();
        keyed.sort_by_key(|&(k, _)| k);
        for (i, (k, b)) in keyed.iter().enumerate() {
            assert_eq!(*k, tree.keys[i], "key order differs at {i}");
            assert_eq!(b.id, tree.bodies[i].id, "body order differs at {i}");
        }
        // And a second build is bitwise-identical.
        let again = Tree::build(bodies, 8);
        assert_eq!(tree.keys, again.keys);
        assert!(tree
            .bodies
            .iter()
            .zip(&again.bodies)
            .all(|(a, b)| a.id == b.id && a.pos == b.pos));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_tree_structure_sound(seed in 0u64..500, n in 1usize..200, leaf_max in 1usize..16) {
            let t = Tree::build(random_bodies(n, seed), leaf_max);
            // Mass conservation.
            let total: f64 = t.bodies.iter().map(|b| b.mass).sum();
            prop_assert!((t.total_mass() - total).abs() < 1e-9 * total.max(1.0));
            // Every body is in exactly one leaf.
            let leaf_total: u32 = t.cells.iter().filter(|c| c.is_leaf).map(|c| c.nbody).sum();
            prop_assert_eq!(leaf_total as usize, n);
            // Hash table covers all cells.
            prop_assert_eq!(t.map.len(), t.cells.len());
        }
    }
}
