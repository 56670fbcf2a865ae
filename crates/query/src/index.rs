//! The shared spatial index: one HOT tree serving every query class.
//!
//! [`QueryIndex`] wraps the Morton-sorted [`hot::Tree`] the physics
//! already builds each tick and adds the two lookups the walk does not
//! need: an id directory (point queries) and span-restricted traversals
//! (a rank answers only from the contiguous Morton range it owns, so a
//! region walk is a *Morton-range cell walk*: cells whose body interval
//! misses the owned span are skipped without touching geometry).
//!
//! Every traversal obeys the determinism rules in [`crate::wire`]:
//! pruning is conservative ([`Shape::certainly_outside`] with inflated
//! bounds), membership and ordering are decided only by the exact
//! shared predicates, and results are sorted under total orders before
//! they leave the index.

use crate::wire::{dist2, hit_order, Hit, PointHit, Shape};
use hot::tree::{Body, Tree, NO_CELL};
use std::ops::Range;

/// A tree plus an id directory, answering all query classes against one
/// snapshot of the universe.
pub struct QueryIndex {
    pub tree: Tree,
    /// `(body id, index into tree.bodies)`, sorted by id.
    ids: Vec<(u64, u32)>,
}

impl QueryIndex {
    /// Index a body set (builds the tree).
    pub fn build(bodies: Vec<Body>, leaf_max: usize) -> QueryIndex {
        QueryIndex::from_tree(Tree::build(bodies, leaf_max))
    }

    /// Index an already-built tree — the engine path: the physics tick
    /// built the tree for the force walk, queries reuse it as-is.
    pub fn from_tree(tree: Tree) -> QueryIndex {
        let mut ids: Vec<(u64, u32)> = tree
            .bodies
            .iter()
            .enumerate()
            .map(|(i, b)| (b.id, i as u32))
            .collect();
        ids.sort_unstable();
        QueryIndex { tree, ids }
    }

    pub fn len(&self) -> usize {
        self.tree.bodies.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tree.bodies.is_empty()
    }

    pub fn bodies(&self) -> &[Body] {
        &self.tree.bodies
    }

    /// Index of the body with this id in the Morton-sorted array.
    pub fn locate(&self, id: u64) -> Option<usize> {
        self.ids
            .binary_search_by_key(&id, |&(bid, _)| bid)
            .ok()
            .map(|i| self.ids[i].1 as usize)
    }

    /// Q1: point lookup by id.
    pub fn point(&self, id: u64) -> Option<PointHit> {
        self.point_in(id, 0..self.len())
    }

    /// Q1 restricted to the owned body span: a rank that does not own
    /// the id answers as if it were unknown.
    pub fn point_in(&self, id: u64, span: Range<usize>) -> Option<PointHit> {
        self.locate(id).filter(|i| span.contains(i)).map(|i| {
            let b = &self.tree.bodies[i];
            PointHit {
                id: b.id,
                pos: b.pos,
                vel: b.vel,
                mass: b.mass,
            }
        })
    }

    /// Q2 over the whole index.
    pub fn region(&self, shape: &Shape) -> Vec<u64> {
        self.region_in(shape, 0..self.len())
    }

    /// Q2 restricted to the owned body span: ids (sorted ascending) of
    /// bodies in `span` that the shape contains.
    pub fn region_in(&self, shape: &Shape, span: Range<usize>) -> Vec<u64> {
        let mut out = Vec::new();
        if span.is_empty() || self.is_empty() {
            return out;
        }
        let mut stack: Vec<i32> = vec![0];
        while let Some(ci) = stack.pop() {
            let cell = self.tree.cell(ci);
            let lo = cell.first_body as usize;
            let hi = lo + cell.nbody as usize;
            // Morton-range prune: the cell's bodies are the contiguous
            // interval [lo, hi); skip it when that interval misses the
            // owned span.
            if hi <= span.start || lo >= span.end {
                continue;
            }
            if shape.certainly_outside(cell.center, cell.half) {
                continue;
            }
            if cell.is_leaf {
                let a = lo.max(span.start);
                let b = hi.min(span.end);
                for body in &self.tree.bodies[a..b] {
                    if shape.contains(body.pos) {
                        out.push(body.id);
                    }
                }
            } else {
                for &child in &cell.children {
                    if child != NO_CELL {
                        stack.push(child);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Q3 over the whole index.
    pub fn knn(&self, at: [f64; 3], k: usize) -> Vec<Hit> {
        self.knn_in(at, k, 0..self.len())
    }

    /// Q3 restricted to the owned body span: the `k` nearest bodies by
    /// `(dist2, id)`, found with an expanding ball over the tree —
    /// cells are visited nearest-first and the walk stops once the
    /// closest unvisited cell lies beyond the current k-th neighbor.
    pub fn knn_in(&self, at: [f64; 3], k: usize, span: Range<usize>) -> Vec<Hit> {
        let mut best: Vec<Hit> = Vec::with_capacity(k + 1);
        if k == 0 || span.is_empty() || self.is_empty() {
            return best;
        }
        // Min-heap of (conservative lower-bound distance, cell index).
        // The bound is deflated so float rounding can never make the
        // early-out skip a cell holding a true neighbor.
        let mut heap: std::collections::BinaryHeap<(std::cmp::Reverse<u64>, i32)> =
            Default::default();
        let bound = |ci: i32| -> f64 {
            let cell = self.tree.cell(ci);
            let rho = cell.half * 1.732_050_807_568_877_3 * (1.0 + 1e-9);
            let d = dist2(at, cell.center).sqrt();
            ((d - rho).max(0.0)) * (1.0 - 1e-9)
        };
        // f64 -> order-preserving u64 (distances are non-negative
        // finite, so the raw bits already sort correctly).
        let fkey = |d: f64| d.to_bits();
        heap.push((std::cmp::Reverse(fkey(bound(0))), 0));
        while let Some((std::cmp::Reverse(dkey), ci)) = heap.pop() {
            if best.len() == k {
                let worst = best[k - 1].dist2.sqrt();
                if f64::from_bits(dkey) > worst {
                    break;
                }
            }
            let cell = self.tree.cell(ci);
            let lo = cell.first_body as usize;
            let hi = lo + cell.nbody as usize;
            if hi <= span.start || lo >= span.end {
                continue;
            }
            if cell.is_leaf {
                let a = lo.max(span.start);
                let b = hi.min(span.end);
                for body in &self.tree.bodies[a..b] {
                    let h = Hit {
                        id: body.id,
                        dist2: dist2(at, body.pos),
                    };
                    let pos = best
                        .binary_search_by(|probe| hit_order(probe, &h))
                        .unwrap_or_else(|e| e);
                    if pos < k {
                        best.insert(pos, h);
                        best.truncate(k);
                    }
                }
            } else {
                for &child in &cell.children {
                    if child != NO_CELL {
                        heap.push((std::cmp::Reverse(fkey(bound(child))), child));
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use hot::models::plummer;

    #[test]
    fn point_lookup_finds_every_body_and_rejects_unknown_ids() {
        let ics = plummer(200, 9);
        let idx = QueryIndex::build(ics.clone(), 8);
        for b in &ics {
            let hit = idx.point(b.id).expect("every ic body is indexed");
            assert_eq!(hit.pos, b.pos);
            assert_eq!(hit.mass, b.mass);
        }
        assert!(idx.point(1 << 40).is_none());
    }

    #[test]
    fn span_restricted_walks_partition_the_answer() {
        let idx = QueryIndex::build(plummer(300, 4), 8);
        let shape = Shape::Ball {
            center: [0.1, -0.2, 0.0],
            radius: 0.8,
        };
        let whole = idx.region(&shape);
        // Any 3-way split of the body array must partition the answer.
        let n = idx.len();
        let mut stitched: Vec<u64> = Vec::new();
        for r in 0..3 {
            stitched.extend(idx.region_in(&shape, (r * n / 3)..((r + 1) * n / 3)));
        }
        stitched.sort_unstable();
        assert_eq!(stitched, whole);
        assert_eq!(whole, oracle::region(idx.bodies(), &shape));
    }

    #[test]
    fn knn_expanding_ball_matches_brute_force() {
        let idx = QueryIndex::build(plummer(250, 17), 8);
        for (i, &k) in [1usize, 3, 8, 32, 250, 400].iter().enumerate() {
            let at = [0.05 * i as f64, -0.1, 0.2];
            assert_eq!(idx.knn(at, k), oracle::knn(idx.bodies(), at, k), "k = {k}");
        }
    }

    #[test]
    fn empty_span_and_k_zero_are_empty() {
        let idx = QueryIndex::build(plummer(50, 1), 8);
        let shape = Shape::Ball {
            center: [0.0; 3],
            radius: 10.0,
        };
        assert!(idx.region_in(&shape, 10..10).is_empty());
        assert!(idx.knn([0.0; 3], 0).is_empty());
    }
}
