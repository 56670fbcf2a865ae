//! Work-weighted domain decomposition over Morton keys (§4.2).
//!
//! "The domain decomposition is obtained by splitting this list into N_p
//! pieces ... practically identical to a parallel sorting algorithm, with
//! the modification that the amount of data that ends up in each processor
//! is weighted by the work associated with each item."
//!
//! Each body carries a `work` estimate (interactions from the previous
//! traversal, or 1.0 initially); the sample sort balances summed work.
//! The resulting per-rank key ranges drive ownership queries during the
//! distributed traversal. Distributed SPH splits its particles through
//! the same [`decompose_by`], so its hydro and its gravity walk share one
//! decomposition.

use crate::morton::{BBox, Key};
use crate::tree::Body;
use msg::payload::FixedWire;
use msg::Comm;

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): a rank publishes its
    /// key range from its *second* body — a splitter off by one body,
    /// which disowns the first without moving it.
    static SHIFT_ONE_SPLITTER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Who owns which part of the key space after decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Global bounding box (identical on all ranks).
    pub bbox: BBox,
    /// Per-rank `(first, last)` full-depth body keys; `None` for ranks
    /// that ended up with no bodies.
    pub ranges: Vec<Option<(u64, u64)>>,
}

impl Decomposition {
    /// All ranks whose bodies could fall inside `cell`'s key range: those
    /// whose `(first, last)` range overlaps it, in rank order.
    pub fn owners_of(&self, cell: Key) -> impl Iterator<Item = usize> + '_ {
        let (lo, hi) = cell.key_range();
        self.ranges
            .iter()
            .enumerate()
            .filter_map(move |(r, range)| {
                range.and_then(|(first, last)| (first <= hi.0 && last >= lo.0).then_some(r))
            })
    }

    /// Is `rank` the only possible owner of `cell`?
    pub fn purely_local(&self, cell: Key, rank: usize) -> bool {
        let mut owners = self.owners_of(cell);
        owners.next() == Some(rank) && owners.next().is_none()
    }
}

/// Decompose `bodies` across the world: returns this rank's shard (sorted
/// by key, work-balanced) and the global decomposition map.
pub fn decompose(comm: &mut Comm, bodies: Vec<Body>) -> (Vec<Body>, Decomposition) {
    let health = vec![1.0; comm.size()];
    decompose_with_health(comm, bodies, &health)
}

/// Degradation-aware [`decompose`]: each rank's target share of the global
/// work is scaled by `health[rank]` (1.0 = full speed, smaller = degraded,
/// e.g. from an external slow-node model), so a sick node sheds work
/// instead of pacing the step barrier. All ranks must
/// pass the same `health` vector — it feeds globally-agreed splitter
/// selection.
pub fn decompose_with_health(
    comm: &mut Comm,
    bodies: Vec<Body>,
    health: &[f64],
) -> (Vec<Body>, Decomposition) {
    decompose_by(comm, bodies, |b| b.pos, |b| b.work.max(1e-9), health)
}

/// The one Morton-key decomposition, over any item with a position:
/// bodies for the treecode, particles for distributed SPH. Returns this
/// rank's shard, sorted by key and balanced on `work` scaled by `health`
/// (see [`decompose_with_health`]), and the global decomposition map.
pub fn decompose_by<T: FixedWire>(
    comm: &mut Comm,
    items: Vec<T>,
    pos: impl Fn(&T) -> [f64; 3],
    work: impl Fn(&T) -> f64,
    health: &[f64],
) -> (Vec<T>, Decomposition) {
    // Global bounding box (min/max reduction, same construction as the
    // serial BBox::enclosing so serial and parallel agree bitwise).
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in items.iter().map(&pos) {
        for d in 0..3 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let lo = comm.allreduce(lo.to_vec(), |a, b| {
        a.iter().zip(b).map(|(x, y)| x.min(*y)).collect()
    });
    let hi = comm.allreduce(hi.to_vec(), |a, b| {
        a.iter().zip(b).map(|(x, y)| x.max(*y)).collect()
    });
    assert!(lo[0].is_finite(), "decompose: no bodies anywhere");
    let bbox = BBox::from_lo_hi([lo[0], lo[1], lo[2]], [hi[0], hi[1], hi[2]]);

    let shard = msg::sort::sample_sort_weighted_shares(
        comm,
        items,
        |t| bbox.key_of(pos(t)).0,
        work,
        health,
        64,
    );

    // Publish each rank's key range.
    #[cfg(not(test))]
    let first = 0;
    #[cfg(test)]
    let first = usize::from(SHIFT_ONE_SPLITTER.get() && shard.len() > 1);
    let my_range: Vec<u64> = if shard.is_empty() {
        Vec::new()
    } else {
        vec![
            bbox.key_of(pos(&shard[first])).0,
            bbox.key_of(pos(&shard[shard.len() - 1])).0,
        ]
    };
    let all = comm.allgather(my_range);
    let ranges = all
        .into_iter()
        .map(|r| (!r.is_empty()).then(|| (r[0], r[1])))
        .collect();
    (shard, Decomposition { bbox, ranges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::plummer;

    fn split(bodies: &[Body], nranks: usize, rank: usize) -> Vec<Body> {
        bodies
            .iter()
            .enumerate()
            .filter(|(i, _)| i % nranks == rank)
            .map(|(_, b)| *b)
            .collect()
    }

    #[test]
    fn decomposition_preserves_bodies_and_orders_keys() {
        let all = plummer(400, 31);
        let nranks = 4;
        let shards = msg::run(nranks, |c| {
            let mine = split(&all, nranks, c.rank());
            decompose(c, mine)
        });
        let total: usize = shards.iter().map(|(s, _)| s.len()).sum();
        assert_eq!(total, 400);
        // Identical decomposition map on all ranks.
        for (_, d) in &shards[1..] {
            assert_eq!(d, &shards[0].1);
        }
        // Keys are globally ordered across ranks.
        let bbox = shards[0].1.bbox;
        let mut last = 0u64;
        for (s, _) in &shards {
            for b in s {
                let k = bbox.key_of(b.pos).0;
                assert!(k >= last, "key order violated");
                last = k;
            }
        }
    }

    #[test]
    fn work_weighting_shifts_boundaries() {
        let mut all = plummer(600, 17);
        // Make bodies in the +x half 9x more expensive.
        for b in &mut all {
            b.work = if b.pos[0] > 0.0 { 9.0 } else { 1.0 };
        }
        let nranks = 2;
        let shards = msg::run(nranks, |c| {
            let mine = split(&all, nranks, c.rank());
            decompose(c, mine)
        });
        let work_of = |s: &[Body]| -> f64 { s.iter().map(|b| b.work).sum() };
        let w: Vec<f64> = shards.iter().map(|(s, _)| work_of(s)).collect();
        let frac = w[0] / (w[0] + w[1]);
        assert!((frac - 0.5).abs() < 0.15, "work split {frac}");
    }

    #[test]
    fn degraded_rank_sheds_work() {
        let all = plummer(800, 53);
        let nranks = 4;
        let health = [1.0, 1.0, 1.0, 0.2];
        let shards = msg::run(nranks, move |c| {
            let mine = split(&all, nranks, c.rank());
            decompose_with_health(c, mine, &health)
        });
        let total: usize = shards.iter().map(|(s, _)| s.len()).sum();
        assert_eq!(total, 800);
        // The decomposition map still agrees everywhere.
        for (_, d) in &shards[1..] {
            assert_eq!(d, &shards[0].1);
        }
        let work_of = |s: &[Body]| -> f64 { s.iter().map(|b| b.work.max(1e-9)).sum() };
        let w: Vec<f64> = shards.iter().map(|(s, _)| work_of(s)).collect();
        let tot: f64 = w.iter().sum();
        let sick = w[3] / tot;
        assert!(
            sick < 0.15,
            "degraded rank must shed work: holds {sick:.3} of total"
        );
        for r in 0..3 {
            let share = w[r] / tot;
            assert!(
                (share - 1.0 / 3.2).abs() < 0.12,
                "healthy rank {r} holds {share:.3}"
            );
        }
    }

    #[test]
    fn owners_cover_every_cell() {
        owners_cover_every_cell_with(false);
    }

    /// Teeth: a splitter off by one body must trip the ownership oracle.
    #[test]
    #[should_panic(expected = "missing from owners of its own body")]
    fn ownership_oracle_catches_a_splitter_shifted_by_one_body() {
        owners_cover_every_cell_with(true);
    }

    fn owners_cover_every_cell_with(shifted_splitter: bool) {
        let all = plummer(200, 23);
        let nranks = 3;
        let results = msg::run(nranks, |c| {
            SHIFT_ONE_SPLITTER.set(shifted_splitter);
            let mine = split(&all, nranks, c.rank());
            let (shard, d) = decompose(c, mine);
            // The root must be owned by every populated rank.
            let populated = d.ranges.iter().filter(|r| r.is_some()).count();
            assert_eq!(d.owners_of(Key::ROOT).count(), populated);
            // Every local body's leaf-level key has this rank among its
            // owners.
            for b in &shard {
                let k = d.bbox.key_of(b.pos);
                assert!(
                    d.owners_of(k).any(|r| r == c.rank()),
                    "rank {} missing from owners of its own body",
                    c.rank()
                );
                // `purely_local` is "the owners are exactly this rank",
                // at every level from the body's key up to the root.
                for level in 0..=crate::morton::MAX_LEVEL {
                    let cell = k.ancestor_at(level);
                    let owners: Vec<usize> = d.owners_of(cell).collect();
                    assert_eq!(d.purely_local(cell, c.rank()), owners == [c.rank()]);
                }
            }
            shard.len()
        });
        assert_eq!(results.iter().sum::<usize>(), 200);
    }

    #[test]
    fn purely_local_detects_interior_cells() {
        let all = plummer(300, 41);
        msg::run(2, |c| {
            let mine = split(&all, 2, c.rank());
            let (shard, d) = decompose(c, mine);
            if shard.len() > 10 {
                // A deep cell around the shard's middle body should be
                // purely local.
                let mid = d.bbox.key_of(shard[shard.len() / 2].pos);
                let deep = mid.ancestor_at(15);
                assert!(d.owners_of(deep).any(|r| r == c.rank()));
            }
        });
    }
}
