//! The checkpoint bytes, pinned. Both digests were recorded at the
//! commit before `Pack` was deleted (PR 25), from `ckpt::save_shard` and
//! `ckpt::save` of the same values, and are not to be re-recorded: a
//! change that moves one byte of a shard or of `cluster::chaos`'s
//! whole-state frame fails here. `chaos`'s own
//! `whole_state_frame_bytes_are_pinned` encodes the same state through
//! its encoder and must land on the same digest.

use ckpt::{frame, save_shard, ShardHeader};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn shard_bytes_are_pinned() {
    let payload: Vec<u8> = (0..1000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let shard = save_shard(
        &ShardHeader {
            rank: 5,
            of_ranks: 16,
            step: 12,
            time: 0.015625,
        },
        &payload,
    );
    assert_eq!((shard.len(), fnv1a(&shard)), (1044, 0x39a4_610b_f37f_ecec));
}

/// Five 72-byte body rows (pos, vel, mass, id, work) and five 32-byte
/// acceleration rows (acc, pot) behind step, time and two `u64` counts —
/// the layout `cluster::chaos` commits — with signed zeros, a subnormal
/// and a NaN payload among ordinary values.
#[test]
fn whole_state_frame_bytes_are_pinned() {
    let mut words = vec![7, 0.0703125f64.to_bits(), 5];
    for i in 0..5u64 {
        let x = i as f64;
        let work = if i == 3 {
            f64::from_bits(0x7FF8_0000_DEAD_BEEF)
        } else {
            x * 0.125
        };
        let (pos, vel) = (
            [x * 0.25 - 1.0, -x * 1.5, 1.0 / (1.0 + x)],
            [0.5 * x, -0.0, f64::MIN_POSITIVE / 2.0],
        );
        words.extend([pos, vel].concat().into_iter().map(f64::to_bits));
        words.extend([(1.0 / (x + 3.0)).to_bits(), 1000 + 7 * i, work.to_bits()]);
    }
    words.push(5);
    for x in (0..5).map(f64::from) {
        words.extend([x, -2.0 * x, 0.5, -1.0 / (x + 1.0)].map(f64::to_bits));
    }
    let bytes = frame(|out| out.extend(words.iter().flat_map(|w| w.to_le_bytes())));
    assert_eq!((bytes.len(), fnv1a(&bytes)), (564, 0xa5fc_a029_fcc6_73a1));
}
