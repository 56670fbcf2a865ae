//! Query wire format and determinism rules.
//!
//! Everything that crosses a rank boundary is defined here, with an
//! explicit wire size per [`msg::Payload`] so the virtual-time transport
//! charges realistic bytes. The format is *fixed-width per query*
//! ([`Query`] is `Copy` and rides the `Vec<FixedWire>` blanket), while
//! replies are length-prefixed batches ([`ReplyBatch`]).
//!
//! Determinism rules (the contract the oracle tests pin):
//!
//! * **Region/cone** results are body ids sorted ascending — never the
//!   tree-walk discovery order, which is legitimately schedule- and
//!   partition-dependent.
//! * **kNN** results are sorted by `(dist2, id)` lexicographically, ties
//!   broken by the lower id; `dist2` is the exact `dx*dx + dy*dy + dz*dz`
//!   double — both the tree walk and the brute-force oracle evaluate the
//!   same expression through [`dist2`], which is what makes the results
//!   *bit*-identical, not merely set-equal.
//! * A merged distributed answer must equal the serial answer over the
//!   concatenated shards: partial replies are merged under the same
//!   total order, so the rank partition is unobservable.
//! * Shape membership is decided only by [`Shape::contains`]; index
//!   pruning must be conservative (inflated bounds) and may never decide
//!   membership itself.

use msg::payload::{FixedWire, Payload};

/// Tag base for the query protocol: well below `Tag::MAX / 2` (user
/// space) and disjoint from the simcheck exchanges at `1 << 20` /
/// `1 << 21`. The route and forward phases are `alltoallv` collectives
/// (library tags); only the reply phase sends point-to-point, one tag
/// per simulation tick: `[QUERY_TAG0, QUERY_TAG0 + steps)`.
pub const QUERY_TAG0: msg::Tag = 1 << 22;

/// Tag for the partial-reply phase of tick `step`.
pub fn reply_tag(step: u64) -> msg::Tag {
    QUERY_TAG0 + step
}

/// Exact squared distance — the one expression every membership and
/// ordering decision goes through (index walk, oracle scan, reply
/// merge). Inlining-stable: three multiplies and two adds, no fma.
#[inline]
pub fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

/// A spatial predicate for region queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// All bodies with `dist2(pos, center) <= radius^2`.
    Ball { center: [f64; 3], radius: f64 },
    /// All bodies inside a cone: within `range` of `apex`, on the
    /// `axis` side, and within the half-angle whose cosine is
    /// `cos_half` (`axis` must be unit length, `cos_half` in `[0, 1]`).
    Cone {
        apex: [f64; 3],
        axis: [f64; 3],
        cos_half: f64,
        range: f64,
    },
}

impl Shape {
    /// Exact membership — the single deciding predicate.
    pub fn contains(&self, p: [f64; 3]) -> bool {
        match *self {
            Shape::Ball { center, radius } => dist2(p, center) <= radius * radius,
            Shape::Cone {
                apex,
                axis,
                cos_half,
                range,
            } => {
                let d2 = dist2(p, apex);
                if d2 > range * range {
                    return false;
                }
                let v = [p[0] - apex[0], p[1] - apex[1], p[2] - apex[2]];
                let along = v[0] * axis[0] + v[1] * axis[1] + v[2] * axis[2];
                // along >= cos_half * |v|  (both sides non-negative), as
                // along^2 >= cos^2 * d2 with the sign guard. The apex
                // itself (d2 == 0) is inside.
                along >= 0.0 && along * along >= cos_half * cos_half * d2
            }
        }
    }

    /// `(anchor, reach)`: every member `p` has `dist2(p, anchor) <=
    /// reach * reach` — the one bound tree pruning and query routing
    /// reject by.
    pub fn bounding_ball(&self) -> ([f64; 3], f64) {
        match *self {
            Shape::Ball { center, radius } => (center, radius),
            Shape::Cone { apex, range, .. } => (apex, range),
        }
    }

    /// Conservative "a cube at `center` with half-side `half` cannot
    /// intersect this shape" test, used for tree pruning. Inflated by a
    /// relative slack of ~1e-9 so float rounding in the bound can never
    /// prune a cell whose bodies [`Shape::contains`] would accept —
    /// pruning must stay an optimization, never a semantic.
    pub fn certainly_outside(&self, center: [f64; 3], half: f64) -> bool {
        // Circumscribed-sphere radius of the cell, inflated.
        let rho = half * 1.732_050_807_568_877_3 * (1.0 + 1e-9);
        let (anchor, reach) = self.bounding_ball();
        let d = dist2(center, anchor).sqrt();
        d > (reach + rho) * (1.0 + 1e-9) + 1e-300
    }
}

/// One query class instance. `Point` looks up a body by id; `Region`
/// collects ids inside a [`Shape`]; `Knn` finds the `k` nearest bodies
/// to a point (ties on distance broken by id).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    Point { id: u64 },
    Region(Shape),
    Knn { at: [f64; 3], k: u32 },
}

/// A routed query. `at_step = None` is a live query against the current
/// tick's universe; `Some(s)` is a time-travel query against the
/// checkpoint generation committed at step `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// World-unique id: `origin_rank << 32 | sequence`.
    pub qid: u64,
    /// Rank the merged reply must return to.
    pub origin: u32,
    pub at_step: Option<u64>,
    pub kind: QueryKind,
}

impl FixedWire for Query {
    // qid + origin + at_step tag/value + kind tag + worst-case kind
    // payload (cone: 7 doubles).
    const WIRE: usize = 8 + 4 + 9 + 1 + 7 * 8;
}

/// One body, as a point-lookup answer carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointHit {
    pub id: u64,
    pub pos: [f64; 3],
    pub vel: [f64; 3],
    pub mass: f64,
}

/// One kNN neighbor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    pub id: u64,
    pub dist2: f64,
}

/// The total order every kNN result list (partial or merged) is sorted
/// by: distance first, lower id on ties. `dist2` is finite by
/// construction (positions and query points are finite).
pub fn hit_order(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    a.dist2.total_cmp(&b.dist2).then(a.id.cmp(&b.id))
}

/// Fold `h` into `best`, the `k` smallest hits seen so far sorted by
/// [`hit_order`]: a hit ranked past the k-th is dropped before any
/// search, so `best` ends as a push-all, stable sort and truncate to
/// `k` would leave it. `k` must be at least 1.
#[inline]
pub fn keep_k(best: &mut Vec<Hit>, k: usize, h: Hit) {
    if best.len() == k && hit_order(&h, &best[k - 1]).is_gt() {
        return;
    }
    let pos = best
        .binary_search_by(|probe| hit_order(probe, &h))
        .unwrap_or_else(|e| e);
    best.insert(pos, h);
    best.truncate(k);
}

/// A (partial or merged) answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Point lookup found nothing (or a partial responder does not own
    /// the id).
    Missing,
    Point(PointHit),
    /// Region ids, sorted ascending.
    Ids(Vec<u64>),
    /// kNN hits, sorted by [`hit_order`].
    Neighbors(Vec<Hit>),
    /// Typed time-travel miss: the requested generation was never
    /// committed. Distinguishable on the wire from a genuinely empty
    /// region or an unknown id — a client retrying against a newer
    /// commit schedule needs to know which one it got.
    NotCommitted,
}

impl Answer {
    pub fn wire_bytes(&self) -> usize {
        1 + match self {
            Answer::Missing => 0,
            Answer::Point(_) => 8 + 7 * 8,
            Answer::Ids(ids) => 8 + 8 * ids.len(),
            Answer::Neighbors(hits) => 8 + 16 * hits.len(),
            Answer::NotCommitted => 0,
        }
    }
}

/// One partial reply on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub qid: u64,
    pub answer: Answer,
}

/// A batch of partial replies from one responder to one origin for one
/// tick. Exactly one batch (possibly empty) travels per ordered rank
/// pair per tick, which is what gives every tick a fixed message count
/// — the schedule-invariant structure the simcheck oracle pins.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplyBatch {
    pub replies: Vec<Reply>,
}

impl Payload for ReplyBatch {
    fn wire_bytes(&self) -> usize {
        8 + self
            .replies
            .iter()
            .map(|r| 8 + r.answer.wire_bytes())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ball_membership_is_inclusive_on_the_boundary() {
        let s = Shape::Ball {
            center: [0.0; 3],
            radius: 1.0,
        };
        assert!(s.contains([1.0, 0.0, 0.0]));
        assert!(!s.contains([1.0 + 1e-12, 0.0, 0.0]));
    }

    #[test]
    fn cone_membership_basics() {
        let s = Shape::Cone {
            apex: [0.0; 3],
            axis: [1.0, 0.0, 0.0],
            cos_half: 0.8,
            range: 2.0,
        };
        assert!(s.contains([1.0, 0.0, 0.0]), "on axis");
        assert!(s.contains([0.0; 3]), "apex belongs to the cone");
        assert!(!s.contains([-1.0, 0.0, 0.0]), "behind the apex");
        assert!(!s.contains([3.0, 0.0, 0.0]), "past the range");
        assert!(!s.contains([0.5, 0.5, 0.0]), "outside the half-angle");
        assert!(s.contains([0.8, 0.2, 0.0]), "inside the half-angle");
    }

    #[test]
    fn pruning_is_conservative() {
        let s = Shape::Ball {
            center: [0.0; 3],
            radius: 1.0,
        };
        // A cell whose circumscribed sphere touches the ball must not be
        // pruned even when no body is inside.
        assert!(!s.certainly_outside([1.5, 0.0, 0.0], 0.5));
        assert!(s.certainly_outside([5.0, 0.0, 0.0], 0.5));
    }

    #[test]
    fn hit_order_breaks_ties_by_id() {
        let a = Hit { id: 7, dist2: 1.0 };
        let b = Hit { id: 3, dist2: 1.0 };
        let c = Hit { id: 9, dist2: 0.5 };
        let mut v = [a, b, c];
        v.sort_by(hit_order);
        assert_eq!(
            v.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![9, 3, 7],
            "distance first, then id"
        );
    }

    #[test]
    fn wire_sizes_are_accounted() {
        let q = Query {
            qid: 1,
            origin: 0,
            at_step: None,
            kind: QueryKind::Point { id: 3 },
        };
        assert_eq!(vec![q; 4].wire_bytes(), 4 * Query::WIRE);
        let batch = ReplyBatch {
            replies: vec![Reply {
                qid: 1,
                answer: Answer::Ids(vec![1, 2, 3]),
            }],
        };
        assert_eq!(batch.wire_bytes(), 8 + 8 + 1 + 8 + 24);
    }

    #[test]
    fn tags_stay_in_user_space_and_apart_from_simcheck() {
        assert!(reply_tag(10_000) < msg::Tag::MAX / 2);
        assert!(reply_tag(0) > (1 << 21), "clear of simcheck's tag bases");
    }
}
