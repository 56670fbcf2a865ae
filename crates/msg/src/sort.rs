//! Work-weighted parallel sample sort.
//!
//! The treecode's domain decomposition (paper §4.2) is "practically
//! identical to a parallel sorting algorithm, with the modification that
//! the amount of data that ends up in each processor is weighted by the
//! work associated with each item". This module implements exactly that:
//! a sample sort over 64-bit keys where the splitters are chosen at
//! weighted quantiles, so each rank receives an approximately equal share
//! of *work*, not of items.

use crate::comm::Comm;
use crate::payload::Payload;

/// Sort items across ranks by `key`, balancing total `weight` per rank.
///
/// On return, each rank holds a locally sorted shard; shards are globally
/// ordered by rank (every key on rank r ≤ every key on rank r+1, up to
/// equal keys which may straddle a boundary), and each rank's share of the
/// global weight is approximately `1/size` (sampling-limited).
///
/// `oversample` controls splitter quality; 32–128 is typical.
pub fn sample_sort_weighted<T, K, W>(
    comm: &mut Comm,
    local: Vec<T>,
    key: K,
    weight: W,
    oversample: usize,
) -> Vec<T>
where
    T: Send + 'static,
    Vec<T>: Payload,
    K: Fn(&T) -> u64,
    W: Fn(&T) -> f64,
{
    let shares = vec![1.0; comm.size()];
    sample_sort_weighted_shares(comm, local, key, weight, &shares, oversample)
}

/// Like [`sample_sort_weighted`], but each rank's target fraction of the
/// global work is proportional to `shares[rank]` instead of uniform.
///
/// This is the degradation hook: a rank judged unhealthy (slow links,
/// repeated suspicion by the failure detector) is handed a small share so
/// it stops pacing the step barrier, without changing the sorted-shard
/// ordering contract. All ranks must pass the same `shares` (it feeds
/// splitter selection, which must agree globally); a rank's share may be
/// zero, in which case it receives (almost) no work.
pub fn sample_sort_weighted_shares<T, K, W>(
    comm: &mut Comm,
    mut local: Vec<T>,
    key: K,
    weight: W,
    shares: &[f64],
    oversample: usize,
) -> Vec<T>
where
    T: Send + 'static,
    Vec<T>: Payload,
    K: Fn(&T) -> u64,
    W: Fn(&T) -> f64,
{
    let size = comm.size();
    assert_eq!(shares.len(), size, "one share per rank");
    assert!(
        shares.iter().all(|&s| s >= 0.0) && shares.iter().sum::<f64>() > 0.0,
        "shares must be non-negative and not all zero: {shares:?}"
    );
    local.sort_by_key(&key);
    if size == 1 {
        return local;
    }
    // Cumulative cut fractions: bucket i ends at cuts[i] of total work.
    let share_sum: f64 = shares.iter().sum();
    let mut cuts: Vec<f64> = Vec::with_capacity(size - 1);
    let mut acc_share = 0.0;
    for &s in &shares[..size - 1] {
        acc_share += s;
        cuts.push(acc_share / share_sum);
    }

    // 1. Sample (key, weight) pairs at evenly spaced local positions.
    let s = oversample.max(2);
    let mut sample_keys: Vec<u64> = Vec::with_capacity(s);
    let mut sample_weights: Vec<f64> = Vec::with_capacity(s);
    if !local.is_empty() {
        for i in 0..s {
            let idx = i * local.len() / s;
            sample_keys.push(key(&local[idx]));
            sample_weights.push(weight(&local[idx]));
        }
    }

    // 2. Everyone learns every sample (keys and weights ride together).
    let all: Vec<(Vec<u64>, Vec<f64>)> = comm.allgather((sample_keys, sample_weights));
    let mut pooled: Vec<(u64, f64)> = all
        .iter()
        .flat_map(|(ks, ws)| ks.iter().copied().zip(ws.iter().copied()))
        .collect();
    pooled.sort_by_key(|&(k, _)| k);

    // 3. Splitters at weighted quantiles of the pooled sample, cut at the
    // per-rank cumulative share boundaries.
    let total_w: f64 = pooled.iter().map(|&(_, w)| w).sum();
    let mut splitters: Vec<u64> = Vec::with_capacity(size - 1);
    if total_w > 0.0 {
        let mut acc = 0.0;
        let mut next_cut = 0;
        for &(k, w) in &pooled {
            acc += w;
            while next_cut < size - 1 && acc >= total_w * cuts[next_cut] {
                splitters.push(k);
                next_cut += 1;
            }
        }
    }
    while splitters.len() < size - 1 {
        splitters.push(u64::MAX);
    }

    // 4. Partition the local shard by splitter and exchange. A heavily
    // duplicated key collapses several consecutive splitters onto the
    // same value, which makes every bucket in `[lo, hi]` a valid
    // destination for that key (bucket `j` accepts `s[j-1] <= k <= s[j]`,
    // and the collapsed splitters all equal `k`). Sending every tie to
    // bucket `lo` — the natural single-`partition_point` rule — piles the
    // entire duplicate mass onto one rank; spreading ties round-robin
    // across the eligible range keeps the decomposition balanced while
    // preserving the cross-shard ordering contract (equal keys may
    // straddle a boundary).
    let mut buckets: Vec<Vec<T>> = (0..size).map(|_| Vec::new()).collect();
    let mut tie_rr = comm.rank(); // stagger the spread's phase per rank
    for item in local {
        let k = key(&item);
        let lo = splitters.partition_point(|&spl| spl < k);
        let hi = splitters.partition_point(|&spl| spl <= k);
        let dst = if hi > lo {
            let d = lo + tie_rr % (hi - lo + 1);
            tie_rr = tie_rr.wrapping_add(1);
            d
        } else {
            lo
        };
        buckets[dst].push(item);
    }
    let received = comm.alltoallv(buckets);

    // 5. Merge (received shards are each sorted; a final sort is simplest
    // and O(n log n) with mostly-sorted input).
    let mut merged: Vec<T> = received.into_iter().flatten().collect();
    merged.sort_by_key(&key);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn check_global_order(shards: &[Vec<u64>]) {
        for shard in shards {
            assert!(shard.windows(2).all(|w| w[0] <= w[1]), "shard not sorted");
        }
        for w in shards.windows(2) {
            if let (Some(a), Some(b)) = (w[0].last(), w[1].first()) {
                assert!(a <= b, "shards out of order: {a} > {b}");
            }
        }
    }

    #[test]
    fn sorts_random_keys_globally() {
        for size in [1usize, 2, 4, 7] {
            let shards = run(size, |c| {
                let mut rng = SmallRng::seed_from_u64(c.rank() as u64);
                let local: Vec<u64> = (0..500).map(|_| rng.gen()).collect();
                sample_sort_weighted(c, local, |&k| k, |_| 1.0, 64)
            });
            check_global_order(&shards);
            let total: usize = shards.iter().map(Vec::len).sum();
            assert_eq!(total, 500 * size);
        }
    }

    #[test]
    fn preserves_multiset() {
        let shards = run(3, |c| {
            let local: Vec<u64> = (0..100).map(|i| (i * 7 + c.rank() as u64) % 50).collect();
            sample_sort_weighted(c, local, |&k| k, |_| 1.0, 32)
        });
        let mut all: Vec<u64> = shards.into_iter().flatten().collect();
        all.sort_unstable();
        let mut expect: Vec<u64> = (0..3u64)
            .flat_map(|r| (0..100u64).map(move |i| (i * 7 + r) % 50))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn unweighted_balance_is_reasonable() {
        let shards = run(4, |c| {
            let mut rng = SmallRng::seed_from_u64(100 + c.rank() as u64);
            let local: Vec<u64> = (0..2000).map(|_| rng.gen()).collect();
            sample_sort_weighted(c, local, |&k| k, |_| 1.0, 64)
        });
        let ideal = 2000.0;
        for s in &shards {
            let ratio = s.len() as f64 / ideal;
            assert!(ratio > 0.7 && ratio < 1.3, "imbalance: {}", s.len());
        }
    }

    #[test]
    fn weighted_sort_balances_work_not_items() {
        // Low keys carry 10x the weight of high keys: the rank owning the
        // low end must receive many fewer items.
        let shards = run(2, |c| {
            let mut rng = SmallRng::seed_from_u64(5 + c.rank() as u64);
            let local: Vec<u64> = (0..3000).map(|_| rng.gen_range(0..1000)).collect();
            let w = |k: &u64| if *k < 500 { 10.0 } else { 1.0 };
            sample_sort_weighted(c, local, |&k| k, w, 128)
        });
        check_global_order(&shards);
        let weight_of = |shard: &Vec<u64>| -> f64 {
            shard
                .iter()
                .map(|&k| if k < 500 { 10.0 } else { 1.0 })
                .sum()
        };
        let w0 = weight_of(&shards[0]);
        let w1 = weight_of(&shards[1]);
        let ratio = w0 / (w0 + w1);
        assert!(
            (ratio - 0.5).abs() < 0.1,
            "weight split {ratio} (w0={w0}, w1={w1})"
        );
        // And item counts should be visibly lopsided.
        assert!(
            (shards[0].len() as f64) < 0.8 * shards[1].len() as f64,
            "items: {} vs {}",
            shards[0].len(),
            shards[1].len()
        );
    }

    #[test]
    fn degraded_rank_share_sheds_work() {
        // Rank 3 is marked unhealthy (share 0.2 vs 1.0): it must end up
        // holding roughly 0.2/3.2 of the global weight while the healthy
        // ranks split the rest evenly.
        let shares = [1.0, 1.0, 1.0, 0.2];
        let shards = run(4, move |c| {
            let mut rng = SmallRng::seed_from_u64(21 + c.rank() as u64);
            let local: Vec<u64> = (0..2000).map(|_| rng.gen()).collect();
            sample_sort_weighted_shares(c, local, |&k| k, |_| 1.0, &shares, 128)
        });
        check_global_order(&shards);
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, 4 * 2000);
        let sick = shards[3].len() as f64 / total as f64;
        assert!(
            (sick - 0.2 / 3.2).abs() < 0.04,
            "degraded rank holds {sick:.3} of the work (want ~{:.3})",
            0.2 / 3.2
        );
        for (r, shard) in shards.iter().enumerate().take(3) {
            let share = shard.len() as f64 / total as f64;
            assert!(
                (share - 1.0 / 3.2).abs() < 0.06,
                "healthy rank {r} holds {share:.3}"
            );
        }
    }

    #[test]
    fn handles_empty_ranks() {
        let shards = run(3, |c| {
            let local: Vec<u64> = if c.rank() == 1 {
                (0..90).map(|i| i * 3).collect()
            } else {
                Vec::new()
            };
            sample_sort_weighted(c, local, |&k| k, |_| 1.0, 16)
        });
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, 90);
        check_global_order(&shards);
    }

    #[test]
    fn handles_all_equal_keys() {
        let shards = run(4, |c| {
            let local = vec![42u64; 250 * (c.rank() + 1)];
            sample_sort_weighted(c, local, |&k| k, |_| 1.0, 32)
        });
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, 250 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn all_equal_keys_stay_balanced_across_8_ranks() {
        // Every splitter collapses onto the single key value, so every
        // bucket is an eligible destination for every item; the round-
        // robin tie spread must keep the shards near-even instead of
        // sending the whole world to rank 0.
        let shards = run(8, |c| {
            let local = vec![7u64; 400];
            sample_sort_weighted(c, local, |&k| k, |_| 1.0, 32)
        });
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, 8 * 400);
        check_global_order(&shards);
        for (r, s) in shards.iter().enumerate() {
            let ratio = s.len() as f64 / 400.0;
            assert!(
                (0.5..2.0).contains(&ratio),
                "rank {r} holds {} of {} items",
                s.len(),
                total
            );
        }
    }

    #[test]
    fn duplicate_splitters_spread_heavy_ties() {
        // 75% of all keys share one value: several splitters collapse
        // onto it, and the tie traffic must spread across the collapsed
        // bucket range rather than landing on its first bucket.
        let shards = run(4, |c| {
            let mut rng = SmallRng::seed_from_u64(9 + c.rank() as u64);
            let local: Vec<u64> = (0..1000)
                .map(|_| {
                    if rng.gen_bool(0.75) {
                        500
                    } else {
                        rng.gen_range(0..1000)
                    }
                })
                .collect();
            sample_sort_weighted(c, local, |&k| k, |_| 1.0, 64)
        });
        check_global_order(&shards);
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, 4000);
        for (r, s) in shards.iter().enumerate() {
            assert!(
                s.len() < 2200,
                "rank {r} holds {} of 4000 items — duplicate mass not spread",
                s.len()
            );
        }
    }
}
