//! Time-travel answering over the columnar snapshot store.
//!
//! A committed generation is a [`store::Snapshot`] of this rank's
//! stripe. Instead of decoding the whole retained shard, each query
//! class prunes on the footer index and decodes only surviving cells:
//!
//! * **Point** — only cells whose `[id_min, id_max]` admits the id.
//! * **Region / cone** — only cells the shape's conservative
//!   `certainly_outside` bound cannot reject; membership is still
//!   decided per body by `Shape::contains`, so pruning stays an
//!   optimization.
//! * **kNN** — cells visited in lower-bound distance order, stopping
//!   once the bound exceeds the current k-th distance.
//!
//! Cells are read through [`Snapshot::cell`]: decoded the first time a
//! query touches them, borrowed by every query after. Every result is
//! *bit-identical* to [`crate::oracle`] over the fully
//! decoded stripe — the oracle tests quantify over exactly that.

use crate::wire::{dist2, keep_k, Answer, Hit, PointHit, QueryKind};
use store::Snapshot;

/// Footer-index effectiveness for one answered query.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadStats {
    pub cells_read: u64,
    pub cells_pruned: u64,
}

/// Answer `kind` against one rank's snapshot, reading only the cells
/// the footer index cannot rule out.
pub fn answer(snap: &Snapshot, kind: &QueryKind) -> (Answer, ReadStats) {
    let total = snap.cells.len() as u64;
    match kind {
        QueryKind::Point { id } => {
            let candidates = snap.cells_for_id(*id);
            let read = candidates.len() as u64;
            let mut hit = None;
            for i in candidates {
                let (bodies, _) = snap.cell(i).expect("own commit decodes");
                if let Some(b) = bodies.iter().find(|b| b.id == *id) {
                    hit = Some(PointHit {
                        id: b.id,
                        pos: b.pos,
                        vel: b.vel,
                        mass: b.mass,
                    });
                    break;
                }
            }
            let answer = match hit {
                Some(h) => Answer::Point(h),
                None => Answer::Missing,
            };
            (answer, stats(read, total))
        }
        QueryKind::Region(shape) => {
            let survivors = snap.prune(|c, h| !shape.certainly_outside(c, h));
            let read = survivors.len() as u64;
            let mut ids = Vec::new();
            for i in survivors {
                let (bodies, _) = snap.cell(i).expect("own commit decodes");
                ids.extend(
                    bodies
                        .iter()
                        .filter(|b| shape.contains(b.pos))
                        .map(|b| b.id),
                );
            }
            ids.sort_unstable();
            (Answer::Ids(ids), stats(read, total))
        }
        QueryKind::Knn { at, k } => {
            let (hits, read) = knn(snap, *at, *k as usize);
            (Answer::Neighbors(hits), stats(read, total))
        }
    }
}

/// Expanding cell search: visit cells by a conservative lower bound on
/// the distance to any body they can hold (deflated the same way the
/// live index walk deflates its bound, so float rounding can only make
/// the search *less* eager to stop, never wrong), keeping only the best
/// `k` hits seen.
fn knn(snap: &Snapshot, at: [f64; 3], k: usize) -> (Vec<Hit>, u64) {
    if k == 0 {
        return (Vec::new(), 0);
    }
    let mut order: Vec<(f64, usize)> = (0..snap.cells.len())
        .map(|i| {
            let (center, half) = snap.cell_geometry(i);
            let rho = half * 1.732_050_807_568_877_3 * (1.0 + 1e-9);
            let lb = (dist2(at, center).sqrt() - rho).max(0.0) * (1.0 - 1e-9);
            (lb * lb, i)
        })
        .collect();
    // Total: the cell index breaks every tie.
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut hits: Vec<Hit> = Vec::with_capacity(k + 1);
    let mut read = 0u64;
    for (lb2, i) in order {
        if hits.len() == k && lb2 > hits[k - 1].dist2 {
            break;
        }
        read += 1;
        let (bodies, _) = snap.cell(i).expect("own commit decodes");
        for b in bodies {
            let dist2 = dist2(at, b.pos);
            keep_k(&mut hits, k, Hit { id: b.id, dist2 });
        }
    }
    (hits, read)
}

fn stats(read: u64, total: u64) -> ReadStats {
    ReadStats {
        cells_read: read,
        cells_pruned: total - read,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::hit_order;
    use hot::models::plummer;
    use hot::BBox;
    use proptest::prelude::*;

    /// The search as it was before the top-k bound: every body of a
    /// visited cell is pushed, then all hits seen are sorted and cut.
    fn knn_push_all(snap: &Snapshot, at: [f64; 3], k: usize) -> (Vec<Hit>, u64) {
        if k == 0 {
            return (Vec::new(), 0);
        }
        let mut order: Vec<(f64, usize)> = (0..snap.cells.len())
            .map(|i| {
                let (center, half) = snap.cell_geometry(i);
                let rho = half * 1.732_050_807_568_877_3 * (1.0 + 1e-9);
                let lb = (dist2(at, center).sqrt() - rho).max(0.0) * (1.0 - 1e-9);
                (lb * lb, i)
            })
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut hits: Vec<Hit> = Vec::new();
        let mut read = 0u64;
        for (lb2, i) in order {
            if hits.len() == k && lb2 > hits[k - 1].dist2 {
                break;
            }
            read += 1;
            let (bodies, _) = snap.cell(i).expect("own commit decodes");
            for b in bodies {
                hits.push(Hit {
                    id: b.id,
                    dist2: dist2(at, b.pos),
                });
            }
            hits.sort_by(hit_order);
            hits.truncate(k);
        }
        (hits, read)
    }

    proptest! {
        /// Bounded top-k reads the same cells and returns the same hits,
        /// bit for bit, as the push-all search — on clumped bodies too,
        /// where many share one distance.
        #[test]
        fn bounded_knn_equals_push_all(
            n in 1usize..120,
            seed in 0u64..1000,
            level in 0u32..5,
            k in 0usize..40,
            clump in 0usize..4,
            at in [-1.5f64..1.5, -1.5..1.5, -1.5..1.5],
        ) {
            let mut bodies = plummer(n, seed);
            // Stack the first `clump` bodies on one point.
            for i in 1..clump.min(n) {
                bodies[i].pos = bodies[0].pos;
            }
            let bbox = BBox::enclosing(bodies.iter().map(|b| b.pos));
            let snap = Snapshot::build(&bodies, &[], 0, bbox, level);
            prop_assert_eq!(knn(&snap, at, k), knn_push_all(&snap, at, k));
            prop_assert_eq!(knn(&snap, bodies[0].pos, k), knn_push_all(&snap, bodies[0].pos, k));
        }
    }
}
