//! Exhaustive corruption sweep over the framed checkpoint format: every
//! single-byte (indeed, single-bit) flip anywhere in a framed snapshot —
//! magic, payload, length prefixes, CRC trailer — must surface as a
//! typed decode error, never as silently different physics. This is the
//! property §2.1's run-through-failures story leans on: a checkpoint
//! that survived a soft error is only trustworthy if the format cannot
//! lie.

use ckpt::{
    frame, load_shard, save_shard, unframe, validate_shard_headers, CkptError, ShardHeader,
};

/// Step, time, then 17 count-prefixed rows of three floats: the shape
/// of `cluster::chaos`'s whole-state payload, as raw LE words.
fn sample_payload() -> Vec<u8> {
    let mut words = vec![0xDEAD_BEEF, 0.015625f64.to_bits(), 17];
    for x in (0..17).map(f64::from) {
        words.extend([x * 0.25 - 2.0, -x * 1.5, 1.0 / (1.0 + x)].map(f64::to_bits));
    }
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn sample_frame() -> Vec<u8> {
    frame(|out| out.extend(sample_payload()))
}

fn sample_shard() -> Vec<u8> {
    let header = ShardHeader {
        rank: 5,
        of_ranks: 16,
        step: 12,
        time: 0.015625,
    };
    save_shard(&header, &sample_payload()[16..])
}

#[test]
fn every_single_byte_flip_is_detected() {
    let bytes = sample_frame();
    assert!(unframe(&bytes).is_ok(), "pristine frame must load");
    for i in 0..bytes.len() {
        let mut c = bytes.clone();
        c[i] ^= 0xFF;
        assert!(
            unframe(&c).is_err(),
            "byte {i}/{} flipped 0xFF but the frame still decoded",
            bytes.len()
        );
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    let bytes = sample_frame();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut c = bytes.clone();
            c[i] ^= 1 << bit;
            assert!(
                unframe(&c).is_err(),
                "bit {bit} of byte {i} flipped but the frame still decoded"
            );
        }
    }
}

#[test]
fn every_truncation_is_detected() {
    let bytes = sample_frame();
    for len in 0..bytes.len() {
        assert!(
            unframe(&bytes[..len]).is_err(),
            "truncation to {len} bytes decoded"
        );
    }
}

#[test]
fn error_kinds_match_the_damaged_region() {
    let bytes = sample_frame();
    // Magic damage -> BadMagic.
    let mut c = bytes.clone();
    c[0] ^= 0xFF;
    assert_eq!(unframe(&c), Err(CkptError::BadMagic));
    // Payload damage -> CRC mismatch.
    let mut c = bytes.clone();
    c[ckpt::MAGIC.len() + 3] ^= 0x01;
    assert!(matches!(unframe(&c), Err(CkptError::BadCrc { .. })));
    // Trailer damage -> CRC mismatch.
    let mut c = bytes.clone();
    let last = c.len() - 1;
    c[last] ^= 0x01;
    assert!(matches!(unframe(&c), Err(CkptError::BadCrc { .. })));
}

#[test]
fn every_single_bit_flip_in_a_shard_is_detected() {
    // Per-rank shards carry the same guarantee as whole-world frames:
    // any bit flip — in the rank/step header as much as the payload —
    // surfaces as a typed error, so degraded recovery falls back to the
    // previous complete generation instead of restoring rot.
    let bytes = sample_shard();
    assert!(load_shard(&bytes).is_ok(), "pristine shard must load");
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut c = bytes.clone();
            c[i] ^= 1 << bit;
            assert!(
                load_shard(&c).is_err(),
                "bit {bit} of shard byte {i} flipped but the frame still decoded"
            );
        }
    }
}

#[test]
fn every_shard_truncation_is_detected() {
    let bytes = sample_shard();
    for len in 0..bytes.len() {
        assert!(
            load_shard(&bytes[..len]).is_err(),
            "shard truncation to {len} bytes decoded"
        );
    }
}

#[test]
fn stitched_shard_sets_from_different_worlds_are_rejected() {
    // Each shard below is individually pristine — valid magic, header
    // and CRC — yet the *set* can still be a Frankenstein assembled from
    // different runs. The cross-validator is what stops a recovery from
    // mixing states that never coexisted.
    let hdr = |rank: u32, of_ranks: u32, step: u64, time: f64| ShardHeader {
        rank,
        of_ranks,
        step,
        time,
    };
    let good = [
        hdr(0, 4, 8, 0.25),
        hdr(1, 4, 8, 0.25),
        hdr(2, 4, 8, 0.25),
        hdr(3, 4, 8, 0.25),
    ];
    assert_eq!(validate_shard_headers(&good, 4), Ok(()));
    // Order within the set is irrelevant; identity is what matters.
    let mut shuffled = good;
    shuffled.swap(0, 3);
    shuffled.swap(1, 2);
    assert_eq!(validate_shard_headers(&shuffled, 4), Ok(()));

    let reject = |hs: &[ShardHeader], n: usize, why: &str| {
        assert!(
            matches!(
                validate_shard_headers(hs, n),
                Err(CkptError::ShardSetMismatch(_))
            ),
            "{why}: accepted {hs:?}"
        );
    };
    // Too few / too many fragments (torn commit, duplicated log entry).
    reject(&good[..3], 4, "missing fragment");
    reject(&good, 3, "extra fragment");
    reject(&[], 0, "empty set");
    // A shard of the same rank+step from a *larger* world.
    let mut c = good;
    c[2] = hdr(2, 8, 8, 0.25);
    reject(&c, 4, "of_ranks disagrees");
    // A shard of a different generation (older commit of the same rank).
    let mut c = good;
    c[1] = hdr(1, 4, 4, 0.125);
    reject(&c, 4, "step disagrees");
    // Same step, different virtual commit time: a different history.
    let mut c = good;
    c[3] = hdr(3, 4, 8, 0.25 + 1e-12);
    reject(&c, 4, "commit time disagrees");
    // Bit-equality, not numeric equality: -0.0 == 0.0 numerically but
    // the commit clocks cannot have produced both.
    let mut c = [hdr(0, 2, 0, 0.0), hdr(1, 2, 0, -0.0)];
    reject(&c, 2, "commit time sign bit disagrees");
    c[1].time = 0.0;
    assert_eq!(validate_shard_headers(&c, 2), Ok(()));
    // The same rank twice (one rank's shard logged into another's slot).
    let dup = [good[0], good[1], good[1], good[3]];
    reject(&dup, 4, "duplicate rank");
}

#[test]
fn appended_bytes_are_detected() {
    // A torn write that *grew* the file (e.g. stale tail after a short
    // rewrite) must fail too: the CRC trailer is taken from the end, so
    // extra bytes corrupt the payload view.
    let mut bytes = sample_frame();
    bytes.push(0u8);
    assert!(unframe(&bytes).is_err(), "grown frame decoded");
    let mut shard = sample_shard();
    shard.push(0u8);
    assert!(load_shard(&shard).is_err(), "grown shard decoded");
}
