//! Corruption sweep over the store's wire frames, mirroring the ckpt
//! sweep: every single-bit flip and every truncation of a full snapshot
//! frame or a delta frame must surface as a typed [`StoreError`] by the
//! time the damaged bytes are decoded — never as silently different
//! physics. Chunk CRCs are verified lazily, so the full-frame property
//! is "open + decode-all fails", not "open fails": a flip in a cell
//! chunk parses fine and is caught exactly when that cell is read.

use hot::models::plummer;
use hot::BBox;
use store::{Delta, GenerationLog, Snapshot, StoreConfig, StoreError, ENC_SAME, ENC_XRLE};

fn sample_delta() -> (Snapshot, Delta) {
    let mut bodies = plummer(64, 9);
    let aux: Vec<f64> = (0..bodies.len()).map(|i| i as f64 * 0.5).collect();
    let bbox = BBox::enclosing(bodies.iter().map(|b| b.pos));
    let base = Snapshot::build(&bodies, &aux, 1, bbox, 3);
    for b in bodies.iter_mut() {
        b.pos[0] += 1e-6;
        b.work += 1.0;
    }
    let cur = Snapshot::build(&bodies, &aux, 1, bbox, 3);
    let delta = Delta::build(&base, &cur, 4);
    (base, delta)
}

fn sample_frames() -> (Vec<u8>, Vec<u8>) {
    let (base, delta) = sample_delta();
    (base.to_bytes(), delta.to_bytes())
}

/// Open a full frame and force every cell through decode — owned
/// (`decode_all`) and borrowed through the memo (`cell`), which must
/// agree — returning the first typed error anywhere in the path.
fn open_and_decode(bytes: &[u8]) -> Result<(), StoreError> {
    let snap = Snapshot::from_bytes(bytes)?;
    let owned = snap.decode_all().map(drop);
    let borrowed = (0..snap.cells.len()).try_for_each(|i| snap.cell(i).map(drop));
    assert_eq!(owned, borrowed, "decode_all and cell disagree on a frame");
    owned
}

#[test]
fn every_bit_flip_in_a_full_frame_is_detected() {
    let (full, _) = sample_frames();
    assert_eq!(open_and_decode(&full), Ok(()), "pristine frame must read");
    for i in 0..full.len() {
        for bit in 0..8 {
            let mut c = full.clone();
            c[i] ^= 1 << bit;
            assert!(
                open_and_decode(&c).is_err(),
                "bit {bit} of byte {i}/{} flipped but the frame still decoded",
                full.len()
            );
        }
    }
}

#[test]
fn every_full_frame_truncation_is_detected() {
    let (full, _) = sample_frames();
    for len in 0..full.len() {
        assert!(
            open_and_decode(&full[..len]).is_err(),
            "truncation to {len} bytes decoded"
        );
    }
}

#[test]
fn every_bit_flip_in_a_delta_frame_is_detected() {
    // Delta frames carry one whole-payload CRC: any flip anywhere rots
    // the whole record (and via the generation log, the whole
    // generation — the fallback path's unit of loss).
    let (_, delta) = sample_frames();
    assert!(Delta::from_bytes(&delta).is_ok(), "pristine delta parses");
    for i in 0..delta.len() {
        for bit in 0..8 {
            let mut c = delta.clone();
            c[i] ^= 1 << bit;
            assert!(
                Delta::from_bytes(&c).is_err(),
                "bit {bit} of delta byte {i} flipped but the frame still parsed"
            );
        }
    }
}

#[test]
fn every_delta_truncation_is_detected() {
    let (_, delta) = sample_frames();
    for len in 0..delta.len() {
        assert!(
            Delta::from_bytes(&delta[..len]).is_err(),
            "delta truncation to {len} bytes parsed"
        );
    }
}

#[test]
fn a_rotten_record_rots_the_generations_it_feeds() {
    // A flipped byte in the middle of a chain is discovered when a
    // generation that *depends* on that record materializes; earlier
    // generations still decode — exactly the fallback the chaos
    // harness leans on.
    let mut bodies = plummer(80, 21);
    let mut log = GenerationLog::new(StoreConfig::default(), 0);
    for step in 0..4u64 {
        for b in bodies.iter_mut() {
            b.pos[1] += 1e-6;
        }
        log.commit(step, &bodies, &[]);
    }
    let records: Vec<(u64, Vec<u8>)> = log
        .steps()
        .map(|s| (s, log.record(s).expect("present").bytes().to_vec()))
        .collect();
    for (s, _) in &records {
        assert!(store::log::materialize_records(&records, *s).is_ok());
    }
    let mut rotten = records.clone();
    let mid = rotten[2].1.len() / 2;
    rotten[2].1[mid] ^= 0x08;
    for (s, _) in &records {
        let got = store::log::materialize_records(&rotten, *s);
        if *s < 2 {
            assert!(got.is_ok(), "generation {s} does not depend on the rot");
        } else {
            assert!(got.is_err(), "generation {s} materialized through rot");
        }
    }
}

#[test]
fn a_rotten_chunk_errors_on_every_touch_and_is_never_memoised() {
    let (full, _) = sample_frames();
    let mut snap = Snapshot::from_bytes(&full).expect("pristine frame parses");
    snap.cells[1].cols[4].bytes[0] ^= 0x10;
    let rotten = StoreError::BadChunkCrc {
        cell: snap.cells[1].key,
    };
    for _ in 0..3 {
        assert_eq!(snap.cell(1).err(), Some(rotten));
        assert_eq!(snap.cells_decoded(), 0, "an error filled the memo");
    }
    // Its neighbours still read, and only they are held.
    snap.cell(0).expect("clean cell");
    snap.cell(2).expect("clean cell");
    assert_eq!(snap.cell(1).err(), Some(rotten));
    assert_eq!(snap.cells_decoded(), 2);
}

// The sweeps above never get a hostile *length* past a CRC. These four
// frames carry valid CRCs (or sit in the one field no CRC covers) around
// a length chosen to overflow the decoder's own arithmetic.

#[test]
fn all_ones_footer_length_is_rejected() {
    let (mut full, _) = sample_frames();
    full.extend_from_slice(&[0xFF; 8]);
    assert_eq!(Snapshot::from_bytes(&full), Err(StoreError::Truncated));
}

#[test]
fn row_count_of_u32_max_is_rejected_before_allocating() {
    // One cell's row count (and the total, so the footer still adds up)
    // set to u32::MAX under a valid footer CRC: a decoder that sizes a
    // Vec by it asks for 34 GB and the process aborts.
    let (full, _) = sample_frames();
    let mut snap = Snapshot::from_bytes(&full).expect("pristine frame parses");
    snap.n_rows += u64::from(u32::MAX - snap.cells[0].n);
    snap.cells[0].n = u32::MAX;
    let hostile = Snapshot::from_bytes(&snap.to_bytes()).expect("the footer crc is valid");
    assert!(matches!(
        hostile.decode_cell(0),
        Err(StoreError::BadEncoding(_))
    ));
    assert!(matches!(
        hostile.decode_all(),
        Err(StoreError::BadEncoding(_))
    ));
    assert!(matches!(hostile.cell(0), Err(StoreError::BadEncoding(_))));
    assert_eq!(hostile.cells_decoded(), 0);
}

#[test]
fn delta_column_length_of_u64_max_is_rejected() {
    let (_, delta) = sample_delta();
    let mut frame = delta.to_bytes();
    // magic, fixed header (base_step, level, n_aux, n_rows, bbox),
    // removed keys, dirty count, the first cell's (key, n, id range),
    // its leading same-as-base columns (encoding byte + zero length),
    // one more encoding byte: then the first shipped column's length.
    let same = delta.dirty[0].cols.iter().take_while(|c| c.0 == ENC_SAME);
    let at = 8 + 56 + 8 + 8 * delta.removed.len() + 8 + 28 + 9 * same.count() + 1;
    frame[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let crc_at = frame.len() - 4;
    let crc = ckpt::crc32(&frame[8..crc_at]);
    frame[crc_at..].copy_from_slice(&crc.to_le_bytes());
    assert_eq!(Delta::from_bytes(&frame), Err(StoreError::Truncated));
}

#[test]
fn xor_rle_zero_run_of_u64_max_is_rejected() {
    let (base, mut delta) = sample_delta();
    let col = delta
        .dirty
        .iter_mut()
        .flat_map(|dc| dc.cols.iter_mut())
        .find(|(enc, _)| *enc == ENC_XRLE)
        .expect("a nudged column ships as xor-rle");
    // zeros = u64::MAX, then one literal: the unchecked sum wraps to 0.
    col.1.clear();
    store::varint::put_varint(&mut col.1, u64::MAX);
    store::varint::put_varint(&mut col.1, 1);
    col.1.push(0xAB);
    let parsed = Delta::from_bytes(&delta.to_bytes()).expect("the frame's crc is valid");
    assert!(matches!(
        parsed.apply(&base),
        Err(StoreError::BadEncoding(_))
    ));
}

#[test]
fn wrong_magic_is_typed() {
    let (mut full, mut delta) = sample_frames();
    full[0] = b'X';
    assert_eq!(Snapshot::from_bytes(&full), Err(StoreError::BadMagic));
    delta[0] = b'X';
    assert_eq!(Delta::from_bytes(&delta), Err(StoreError::BadMagic));
    assert_eq!(store::record_kind(b"nonsense"), Err(StoreError::BadMagic));
    assert_eq!(store::record_kind(b"abc"), Err(StoreError::Truncated));
}
