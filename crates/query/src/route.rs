//! The routing directory: a query goes only where its answer can be.
//!
//! In HOT a remote request goes only to the processor whose key range
//! can hold the cell (paper §4.2). The engine routes the same way, by a
//! [`Directory`] built once per tick beside the
//! [`QueryIndex`](crate::QueryIndex) and shared by every rank. It holds
//!
//! * the id → owner map point lookups route by, and
//! * a zone map: each rank's stripe of the Morton-sorted bodies cut into
//!   [`ZONES`] runs of consecutive bodies, each kept as its axis-aligned
//!   box and body count — `ZONES · P` entries at any N.
//!
//! [`Directory::route`] names the ranks that can hold part of an answer:
//!
//! | query | responders |
//! |---|---|
//! | point | the id's owner, or the `id % P` fallback that answers `Missing` |
//! | region / cone | every rank with a zone within the shape's reach of its anchor ([`Shape::bounding_ball`]), inflated by 1e-9 as [`Shape::certainly_outside`] is |
//! | kNN | every rank with a zone whose deflated min-distance is within the bound B |
//!
//! B: take zones in order of box max-distance and stop at the zone where
//! the running body count reaches k; B is that zone's max-distance,
//! inflated.
//!
//! **Soundness.** A box distance is the sum [`dist2`](crate::wire::dist2)
//! makes, of the same rounded subtractions over gaps no wider
//! (min-distance) or no narrower (max-distance) than any of the zone's
//! bodies', and rounding is monotone: for a body `p` in a zone,
//! `min_dist2 <= dist2(p) <= max_dist2` bit for bit, and the inflation is
//! margin on top. So a region member's rank is always routed. The zones
//! counted into B hold at least k bodies, all within B, so the k-th
//! distance is at most B; a rank whose every zone lies beyond B holds
//! only bodies strictly beyond the k-th distance, and `(dist2, id)` ties
//! cannot reach it. Merging the routed ranks' partials therefore gives
//! the answer every rank's would.
//!
//! [`Shape::bounding_ball`]: crate::wire::Shape::bounding_ball
//! [`Shape::certainly_outside`]: crate::wire::Shape::certainly_outside

use crate::engine::stripe;
use crate::wire::QueryKind;
use hot::tree::Body;
use std::ops::Range;

/// Runs of consecutive bodies each rank's stripe is cut into.
pub const ZONES: usize = 16;

/// Relative margin on every routing comparison.
const SLACK: f64 = 1e-9;

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): the kNN bound is taken
    /// one zone too early, before the running count reaches k.
    static SHORT_KNN_BOUND: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One run of consecutive bodies: its axis-aligned box and body count.
#[derive(Debug, Clone, Copy)]
struct Zone {
    lo: [f64; 3],
    hi: [f64; 3],
    count: usize,
}

impl Zone {
    fn of(bodies: &[Body]) -> Zone {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for b in bodies {
            for d in 0..3 {
                lo[d] = lo[d].min(b.pos[d]);
                hi[d] = hi[d].max(b.pos[d]);
            }
        }
        Zone {
            lo,
            hi,
            count: bodies.len(),
        }
    }

    /// Squared distance from `at` to the box: no more than `dist2` to
    /// any of its bodies.
    fn min_dist2(&self, at: [f64; 3]) -> f64 {
        let gap = |d: usize| (self.lo[d] - at[d]).max(at[d] - self.hi[d]).max(0.0);
        let (x, y, z) = (gap(0), gap(1), gap(2));
        x * x + y * y + z * z
    }

    /// Squared distance from `at` to the box's farthest corner: no less
    /// than `dist2` to any of its bodies.
    fn max_dist2(&self, at: [f64; 3]) -> f64 {
        let span = |d: usize| (at[d] - self.lo[d]).max(self.hi[d] - at[d]);
        let (x, y, z) = (span(0), span(1), span(2));
        x * x + y * y + z * z
    }
}

/// Where one tick's bodies live: the id → owner map and the zone map.
#[derive(Debug)]
pub struct Directory {
    size: usize,
    /// `(body id, owner rank)`, sorted by id.
    owners: Vec<(u64, u32)>,
    /// The non-empty zones, rank by rank.
    zones: Vec<Zone>,
    /// Rank `r`'s zones are `zones[by_rank[r]]`.
    by_rank: Vec<Range<usize>>,
    /// Fewest bodies any zone holds.
    min_count: usize,
}

impl Directory {
    /// The directory of `bodies`, in the order the stripes cut them,
    /// over `size` ranks.
    pub fn of(bodies: &[Body], size: usize) -> Directory {
        let n = bodies.len();
        let mut owners = Vec::with_capacity(n);
        let mut zones = Vec::with_capacity(size * ZONES);
        let mut by_rank = Vec::with_capacity(size);
        for r in 0..size {
            let mine = &bodies[stripe(n, size, r)];
            owners.extend(mine.iter().map(|b| (b.id, r as u32)));
            let first = zones.len();
            for z in 0..ZONES {
                let run = &mine[stripe(mine.len(), ZONES, z)];
                if !run.is_empty() {
                    zones.push(Zone::of(run));
                }
            }
            by_rank.push(first..zones.len());
        }
        owners.sort_unstable();
        let min_count = zones.iter().map(|z| z.count).min().unwrap_or(1);
        Directory {
            size,
            owners,
            zones,
            by_rank,
            min_count,
        }
    }

    /// Where a point lookup for `id` goes: its owner, or for an id
    /// nobody owns a fixed fallback rank, which answers `Missing`.
    pub fn owner(&self, id: u64) -> usize {
        match self.owners.binary_search_by_key(&id, |e| e.0) {
            Ok(i) => self.owners[i].1 as usize,
            Err(_) => (id % self.size as u64) as usize,
        }
    }

    /// Append to `to`, ascending, every rank that can hold part of
    /// `kind`'s answer; returns how many zone boxes were measured.
    pub fn route(&self, kind: &QueryKind, to: &mut Vec<usize>) -> usize {
        match *kind {
            QueryKind::Point { id } => {
                to.push(self.owner(id));
                0
            }
            QueryKind::Region(shape) => {
                let (anchor, reach) = shape.bounding_ball();
                let limit = reach * (1.0 + SLACK) + 1e-300;
                let limit2 = limit * limit;
                self.ranks_near(to, |z| z.min_dist2(anchor) <= limit2)
            }
            QueryKind::Knn { k: 0, .. } => 0,
            QueryKind::Knn { at, k } => {
                let bound2 = self.knn_bound2(at, k as usize) * (1.0 + 2.0 * SLACK);
                let deflate = 1.0 - 2.0 * SLACK;
                let tested = self.ranks_near(to, |z| z.min_dist2(at) * deflate <= bound2);
                self.zones.len() + tested
            }
        }
    }

    /// Push every rank with a zone `near` accepts, testing each rank's
    /// zones only until one does; returns the zones tested.
    fn ranks_near(&self, to: &mut Vec<usize>, near: impl Fn(&Zone) -> bool) -> usize {
        let mut tested = 0;
        for (r, zs) in self.by_rank.iter().enumerate() {
            let zones = &self.zones[zs.clone()];
            match zones.iter().position(&near) {
                Some(i) => {
                    tested += i + 1;
                    to.push(r);
                }
                None => tested += zones.len(),
            }
        }
        tested
    }

    /// B², before inflation: the squared max-distance of the zone, in
    /// max-distance order, at which the running body count reaches `k`
    /// (infinite when all the bodies together are fewer).
    fn knn_bound2(&self, at: [f64; 3], k: usize) -> f64 {
        let mut far: Vec<(f64, usize)> = (self.zones.iter())
            .map(|z| (z.max_dist2(at), z.count))
            .collect();
        // Every zone holds at least `min_count` bodies, so the count
        // reaches k within the `m` nearest zones: select and sort only
        // those.
        let m = k.div_ceil(self.min_count).min(far.len());
        if m == 0 {
            return f64::INFINITY;
        }
        let by_dist = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0);
        far.select_nth_unstable_by(m - 1, by_dist);
        let near = &mut far[..m];
        near.sort_unstable_by(by_dist);
        let mut held = 0;
        let Some(i) = near.iter().position(|&(_, count)| {
            held += count;
            held >= k
        }) else {
            return f64::INFINITY;
        };
        #[cfg(test)]
        let i = if SHORT_KNN_BOUND.get() {
            i.saturating_sub(1)
        } else {
            i
        };
        near[i].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::merge;
    use crate::oracle;
    use crate::wire::{dist2, Shape};
    use hot::integrate::Simulation;
    use hot::models::plummer;
    use hot::GravityConfig;
    use proptest::prelude::*;

    /// A softened simulation of `ics`: its bodies are in the engine's
    /// Morton order, and a step moves them as a tick does.
    fn simulation(ics: Vec<Body>) -> Simulation {
        let gravity = GravityConfig {
            eps: 0.05,
            ..GravityConfig::default()
        };
        Simulation::new(ics, gravity, 0.05)
    }

    /// What gets asked around `at`: point lookups of a held and an
    /// unknown id, a cone, balls from a point to all of space, and kNN
    /// for every k from 1 to n + 2.
    fn queries(bodies: &[Body], at: [f64; 3]) -> Vec<QueryKind> {
        let n = bodies.len();
        let mut kinds = vec![
            QueryKind::Point {
                id: bodies[n / 2].id,
            },
            QueryKind::Point { id: u64::MAX - 3 },
            QueryKind::Region(Shape::Cone {
                apex: at,
                axis: [0.6, 0.0, 0.8],
                cos_half: 0.7,
                range: 1.5,
            }),
        ];
        for radius in [0.0, 0.05, 0.4, 1.5, 1e9] {
            kinds.push(QueryKind::Region(Shape::Ball { center: at, radius }));
        }
        kinds.extend((1..=n as u32 + 2).map(|k| QueryKind::Knn { at, k }));
        kinds
    }

    /// Ranks that may not be skipped: those holding a region member, the
    /// looked-up id, or a body no farther than the k-th neighbour (ties
    /// at the k-th distance included).
    fn needed(bodies: &[Body], size: usize, kind: &QueryKind) -> Vec<usize> {
        let kth = match *kind {
            QueryKind::Knn { at, k } => oracle::knn(bodies, at, k as usize).last().map(|h| h.dist2),
            _ => None,
        };
        let holds = |b: &Body| match *kind {
            QueryKind::Point { id } => b.id == id,
            QueryKind::Region(shape) => shape.contains(b.pos),
            QueryKind::Knn { at, .. } => kth.is_some_and(|d2| dist2(at, b.pos) <= d2),
        };
        let n = bodies.len();
        (0..size)
            .filter(|&r| bodies[stripe(n, size, r)].iter().any(&holds))
            .collect()
    }

    /// How many queries around `at` skip a rank they need, route to a
    /// rank twice or out of order, or merge from their responders'
    /// partials to anything but the oracle's answer.
    fn misroutes(bodies: &[Body], size: usize, at: [f64; 3]) -> usize {
        let dir = Directory::of(bodies, size);
        let n = bodies.len();
        let wrong = |kind: &QueryKind| {
            let mut to = Vec::new();
            dir.route(kind, &mut to);
            let parts = (to.iter())
                .map(|&r| oracle::answer(&bodies[stripe(n, size, r)], kind))
                .collect();
            !to.windows(2).all(|w| w[0] < w[1])
                || !needed(bodies, size, kind).iter().all(|r| to.contains(r))
                || merge(kind, parts) != oracle::answer(bodies, kind)
        };
        queries(bodies, at)
            .iter()
            .filter(|&kind| wrong(kind))
            .count()
    }

    proptest! {
        /// Every rank holding part of an answer is routed, kNN ties
        /// included, and the routed partials merge to the oracle's
        /// answer — by the directory of a committed generation and by
        /// the live one a step later, on 1 to 17 ranks.
        #[test]
        fn routing_reaches_every_rank_that_holds_a_member(
            n in 1usize..72,
            size in 1usize..18,
            seed in 0u64..1000,
            clump in 0usize..12,
            at in [-1.5f64..1.5, -1.5..1.5, -1.5..1.5],
        ) {
            let mut ics = plummer(n, seed);
            // Coincident bodies: a zone box can be a point, and kNN ties.
            for i in 1..clump.min(n) {
                ics[i].pos = ics[0].pos;
            }
            let mut sim = simulation(ics);
            let committed = sim.bodies.clone();
            sim.step();
            for bodies in [&committed, &sim.bodies] {
                for probe in [at, bodies[0].pos, [40.0, -40.0, 40.0]] {
                    prop_assert_eq!(misroutes(bodies, size, probe), 0);
                }
            }
        }
    }

    /// Teeth: a kNN bound taken one zone early must skip a rank holding
    /// a neighbour.
    #[test]
    fn directory_oracle_catches_a_short_knn_bound() {
        // Eight bodies a rank, so one a zone: the zone that brings the
        // count to k is never the first for k above one.
        let bodies = simulation(plummer(64, 3)).bodies;
        let probes = [[0.0; 3], [0.3, -0.2, 0.1], bodies[5].pos];
        let count = || -> usize { probes.iter().map(|&at| misroutes(&bodies, 8, at)).sum() };
        assert_eq!(count(), 0);
        SHORT_KNN_BOUND.set(true);
        assert!(count() > 0);
    }
}
