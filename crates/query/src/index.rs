//! The shared spatial index: one HOT tree serving every query class.
//!
//! [`QueryIndex`] is a Morton-sorted [`hot::Tree`] plus the two lookups
//! the force walk does not need: an id directory (point queries) and
//! span-restricted traversals. The engine indexes the tree its tick's
//! physics step built ([`QueryIndex::from_tree`]); it builds no other.
//!
//! A rank answers only from the contiguous Morton range it owns, and a
//! tree cell's bodies are one contiguous interval of the sorted array,
//! so a span is exactly tiled by its [`Cover`]: the maximal cells whose
//! interval lies inside it, plus at most two leaves straddling its ends,
//! which are clipped to the span when scanned. Region and kNN walks
//! start from the cover instead of the root — no cell outside the span
//! is ever bounded or pushed — and a whole-index walk is the cover of
//! `0..len`, the root alone.
//!
//! Every traversal obeys the determinism rules in [`crate::wire`]:
//! pruning is conservative ([`Shape::certainly_outside`] with inflated
//! bounds), membership and ordering are decided only by the exact
//! shared predicates, and results are sorted under total orders before
//! they leave the index.

use crate::wire::{dist2, keep_k, Hit, PointHit, Shape};
use hot::tree::{Body, CellIdx, Tree, NO_CELL};
use std::ops::Range;

/// A tree plus an id directory, answering all query classes against one
/// snapshot of the universe.
pub struct QueryIndex {
    pub tree: Tree,
    /// `(body id, index into tree.bodies)`, sorted by id.
    ids: Vec<(u64, u32)>,
}

/// The cells a span's walks start from: disjoint, their clipped body
/// intervals tiling `span` in ascending order.
#[derive(Debug)]
pub struct Cover {
    span: Range<usize>,
    cells: Vec<CellIdx>,
}

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): the cover drops its last
    /// straddling leaf, so the bodies it holds inside the span go unseen.
    static DROP_LAST_STRADDLER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl QueryIndex {
    /// Index a body set (builds the tree).
    pub fn build(bodies: Vec<Body>, leaf_max: usize) -> QueryIndex {
        QueryIndex::from_tree(Tree::build(bodies, leaf_max))
    }

    /// Index the bodies of a built tree, in its order.
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

    /// Body interval `[lo, hi)` of cell `ci`.
    fn interval(&self, ci: CellIdx) -> Range<usize> {
        let cell = self.tree.cell(ci);
        let lo = cell.first_body as usize;
        lo..lo + cell.nbody as usize
    }

    /// `span`'s cover: walk down from the root, keep a cell once its
    /// interval lies inside the span (or it is a leaf the span cuts),
    /// skip cells the span misses.
    pub fn cover(&self, span: Range<usize>) -> Cover {
        let mut cells = Vec::new();
        let mut stack: Vec<CellIdx> = Vec::new();
        if !span.is_empty() && !self.is_empty() {
            stack.push(0);
        }
        while let Some(ci) = stack.pop() {
            let Range { start: lo, end: hi } = self.interval(ci);
            if hi <= span.start || lo >= span.end {
                continue;
            }
            let cell = self.tree.cell(ci);
            if (span.start <= lo && hi <= span.end) || cell.is_leaf {
                cells.push(ci);
            } else {
                // Reversed, so octant 0 pops first and `cells` ascends.
                stack.extend(cell.children.iter().rev().filter(|&&c| c != NO_CELL));
            }
        }
        #[cfg(test)]
        if DROP_LAST_STRADDLER.get() {
            let inside = |&ci: &CellIdx| {
                let r = self.interval(ci);
                span.start <= r.start && r.end <= span.end
            };
            if let Some(i) = cells.iter().rposition(|ci| !inside(ci)) {
                cells.remove(i);
            }
        }
        Cover { span, cells }
    }

    /// Bodies of leaf `ci` that lie in the cover's span.
    fn leaf_in(&self, ci: CellIdx, cover: &Cover) -> &[Body] {
        let r = self.interval(ci);
        &self.tree.bodies[r.start.max(cover.span.start)..r.end.min(cover.span.end)]
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
        self.region_in(shape, &self.cover(0..self.len()))
    }

    /// Q2 restricted to a cover: ids (sorted ascending) of bodies in its
    /// span that the shape contains.
    pub fn region_in(&self, shape: &Shape, cover: &Cover) -> Vec<u64> {
        let mut out = Vec::new();
        let mut stack = cover.cells.clone();
        while let Some(ci) = stack.pop() {
            let cell = self.tree.cell(ci);
            if shape.certainly_outside(cell.center, cell.half) {
                continue;
            }
            if cell.is_leaf {
                for body in self.leaf_in(ci, cover) {
                    if shape.contains(body.pos) {
                        out.push(body.id);
                    }
                }
            } else {
                stack.extend(cell.children.iter().filter(|&&c| c != NO_CELL));
            }
        }
        out.sort_unstable();
        out
    }

    /// Q3 over the whole index.
    pub fn knn(&self, at: [f64; 3], k: usize) -> Vec<Hit> {
        self.knn_in(at, k, &self.cover(0..self.len()))
    }

    /// Q3 restricted to a cover: the `k` nearest bodies of its span by
    /// `(dist2, id)`, found with an expanding ball — cells are visited
    /// nearest-first and the walk stops once the closest unvisited cell
    /// lies beyond the current k-th neighbor.
    pub fn knn_in(&self, at: [f64; 3], k: usize, cover: &Cover) -> Vec<Hit> {
        let mut best: Vec<Hit> = Vec::with_capacity(k + 1);
        if k == 0 {
            return best;
        }
        // Min-heap of (conservative lower-bound distance, cell index).
        // The bound is deflated so float rounding can never make the
        // early-out skip a cell holding a true neighbor.
        let bound = |ci: CellIdx| -> f64 {
            let cell = self.tree.cell(ci);
            let rho = cell.half * 1.732_050_807_568_877_3 * (1.0 + 1e-9);
            let d = dist2(at, cell.center).sqrt();
            ((d - rho).max(0.0)) * (1.0 - 1e-9)
        };
        // f64 -> order-preserving u64 (distances are non-negative
        // finite, so the raw bits already sort correctly).
        let entry = |ci: CellIdx| (std::cmp::Reverse(bound(ci).to_bits()), ci);
        let mut heap: std::collections::BinaryHeap<_> =
            cover.cells.iter().map(|&ci| entry(ci)).collect();
        while let Some((std::cmp::Reverse(dkey), ci)) = heap.pop() {
            if best.len() == k && f64::from_bits(dkey) > best[k - 1].dist2.sqrt() {
                break;
            }
            let cell = self.tree.cell(ci);
            if cell.is_leaf {
                for body in self.leaf_in(ci, cover) {
                    let dist2 = dist2(at, body.pos);
                    keep_k(&mut best, k, Hit { id: body.id, dist2 });
                }
            } else {
                heap.extend(
                    cell.children
                        .iter()
                        .filter(|&&c| c != NO_CELL)
                        .map(|&c| entry(c)),
                );
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::wire::{Answer, QueryKind};
    use hot::models::plummer;
    use proptest::prelude::*;

    /// The region and kNN queries `cover_misses` asks: everything, a
    /// ball and a cone around `at`, and kNN at `at` for k from 1 past
    /// the body count.
    fn queries(at: [f64; 3], n: usize) -> Vec<QueryKind> {
        let mut kinds = vec![
            QueryKind::Region(Shape::Ball {
                center: [0.0; 3],
                radius: 1e9,
            }),
            QueryKind::Region(Shape::Ball {
                center: at,
                radius: 0.4,
            }),
            QueryKind::Region(Shape::Cone {
                apex: at,
                axis: [0.6, 0.0, 0.8],
                cos_half: 0.7,
                range: 1.5,
            }),
        ];
        for k in [1, 3, 8, n + 2] {
            kinds.push(QueryKind::Knn { at, k: k as u32 });
        }
        kinds
    }

    /// How many of `queries(at)` answered from `span`'s cover differ from
    /// `oracle::answer` over `bodies[span]`.
    fn cover_misses(idx: &QueryIndex, span: Range<usize>, at: [f64; 3]) -> usize {
        let cover = idx.cover(span.clone());
        let part = &idx.bodies()[span];
        let answer = |kind: &QueryKind| match kind {
            QueryKind::Region(shape) => Answer::Ids(idx.region_in(shape, &cover)),
            QueryKind::Knn { at, k } => Answer::Neighbors(idx.knn_in(*at, *k as usize, &cover)),
            QueryKind::Point { .. } => unreachable!("only region and kNN are asked"),
        };
        queries(at, idx.len())
            .iter()
            .filter(|kind| answer(kind) != oracle::answer(part, kind))
            .count()
    }

    /// A span starting one body into the first leaf that holds two.
    fn straddling_span(idx: &QueryIndex, end: usize) -> Range<usize> {
        let leaf = idx.tree.cells.iter().find(|c| c.is_leaf && c.nbody >= 2);
        let start = leaf.map_or(0, |c| c.first_body as usize + 1);
        start..end.max(start)
    }

    proptest! {
        /// The cover tiles its span in order with at most two clipped
        /// leaves, and every answer from it is the oracle's over the span.
        #[test]
        fn cover_seeded_walks_equal_the_oracle_over_the_span(
            n in 1usize..160,
            leaf_max in 1usize..17,
            seed in 0u64..1000,
            clump in 0usize..12,
            which in 0u8..5,
            cut in (0usize..1000, 0usize..1000),
        ) {
            let mut bodies = plummer(n, seed);
            // Coincident bodies share one full-depth leaf past `leaf_max`.
            for i in 1..clump.min(n) {
                bodies[i].pos = bodies[0].pos;
            }
            let idx = QueryIndex::build(bodies, leaf_max);
            let (a, b) = (cut.0 % (n + 1), cut.1 % (n + 1));
            let span = match which {
                0 => a..a,
                1 => a.min(n - 1)..a.min(n - 1) + 1,
                2 => straddling_span(&idx, n - b / 2),
                3 => 0..n,
                _ => a.min(b)..a.max(b),
            };
            let cover = idx.cover(span.clone());
            let mut at = span.start;
            let mut straddlers = 0;
            for &ci in &cover.cells {
                let r = idx.interval(ci);
                if r.start < span.start || r.end > span.end {
                    prop_assert!(idx.tree.cell(ci).is_leaf, "a clipped cell is a leaf");
                    straddlers += 1;
                }
                prop_assert_eq!(r.start.max(span.start), at, "cells tile the span in order");
                at = r.end.min(span.end);
            }
            prop_assert_eq!(at, span.end);
            prop_assert!(straddlers <= 2);
            let probe = idx.bodies()[seed as usize % n].pos;
            prop_assert_eq!(cover_misses(&idx, span.clone(), probe), 0);
            prop_assert_eq!(cover_misses(&idx, span, [0.3, -0.2, 0.1]), 0);
        }
    }

    /// Teeth: a cover missing its last straddling leaf must fail the
    /// span oracle.
    #[test]
    fn cover_oracle_catches_a_dropped_straddling_leaf() {
        let idx = QueryIndex::build(plummer(300, 4), 8);
        let span = straddling_span(&idx, idx.len());
        assert!(span.start > 0, "no leaf holds two bodies");
        let at = idx.bodies()[span.start].pos;
        assert_eq!(cover_misses(&idx, span.clone(), at), 0);
        DROP_LAST_STRADDLER.set(true);
        assert!(cover_misses(&idx, span, at) > 0);
    }

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
            let cover = idx.cover((r * n / 3)..((r + 1) * n / 3));
            stitched.extend(idx.region_in(&shape, &cover));
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
        assert!(idx.region_in(&shape, &idx.cover(10..10)).is_empty());
        assert!(idx.knn([0.0; 3], 0).is_empty());
    }
}
