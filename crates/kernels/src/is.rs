//! Integer sort (NPB IS): bucket sort of uniformly distributed keys.
//!
//! The message-passing bucket sort NPB IS performs: local bucketing →
//! alltoallv of keys by bucket → local sort. IS is the benchmark with
//! the smallest compute/communication ratio in the suite, which is why
//! it scales worst on ethernet (Figure 5) and why Table 2 shows it least
//! memory-bound (0.779).

use msg::Comm;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// NPB-flavoured key generator: `n` keys uniform in `[0, max_key)`.
pub fn generate_keys(n: usize, max_key: u32, seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..max_key)).collect()
}

/// Distributed bucket sort over the world: each rank contributes its
/// local keys; on return each rank holds a sorted shard, shards ordered
/// by rank.
pub fn distributed_sort(comm: &mut Comm, local: Vec<u32>, max_key: u32) -> Vec<u32> {
    let size = comm.size();
    let bucket_width = max_key.div_ceil(size as u32).max(1);
    let mut buckets: Vec<Vec<u32>> = (0..size).map(|_| Vec::new()).collect();
    for k in local {
        let b = ((k / bucket_width) as usize).min(size - 1);
        buckets[b].push(k);
    }
    let received = comm.alltoallv(buckets);
    let mut mine: Vec<u32> = received.into_iter().flatten().collect();
    mine.sort_unstable();
    mine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_sort_matches_serial() {
        let all = generate_keys(8000, 1 << 14, 3);
        let nranks = 4;
        let shards = msg::run(nranks, |c| {
            let mine: Vec<u32> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| i % nranks == c.rank())
                .map(|(_, k)| *k)
                .collect();
            distributed_sort(c, mine, 1 << 14)
        });
        let merged: Vec<u32> = shards.into_iter().flatten().collect();
        let mut expect = all;
        expect.sort_unstable();
        assert_eq!(merged, expect);
    }

    #[test]
    fn distributed_sort_handles_skewed_keys() {
        // All keys in one bucket: one rank gets everything, still sorted.
        let shards = msg::run(3, |c| {
            let mine = vec![5u32; 100 * (c.rank() + 1)];
            distributed_sort(c, mine, 1 << 10)
        });
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, 600);
    }
}
