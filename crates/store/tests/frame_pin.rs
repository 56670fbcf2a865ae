//! The store's wire bytes, pinned. Every digest below was recorded
//! before `ckpt::crc32` and the column codecs went word-wise and is not
//! to be re-recorded: a codec change that moves one byte of a full
//! frame, a delta frame or a committed record fails here. The inputs
//! cover a many-cell snapshot with an aux lane, a four-commit
//! `GenerationLog` chain, and single cells of 1, 7, 8 and 9 rows (the
//! scalar tails either side of the codecs' 8-row blocks).

use hot::models::plummer;
use hot::{BBox, Body};
use store::{Delta, GenerationLog, Snapshot, StoreConfig};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A snapshot of `bodies` (one aux lane) and the delta to the same
/// bodies nudged the way `tests/corruption.rs` nudges them.
fn base_and_delta(bodies: &[Body], bbox: BBox, level: u32) -> (Snapshot, Snapshot, Delta) {
    let aux: Vec<f64> = (0..bodies.len()).map(|i| i as f64 * 0.5).collect();
    let base = Snapshot::build(bodies, &aux, 1, bbox, level);
    let mut moved = bodies.to_vec();
    for b in &mut moved {
        b.pos[0] += 1e-6;
        b.work += 1.0;
    }
    let cur = Snapshot::build(&moved, &aux, 1, bbox, level);
    let delta = Delta::build(&base, &cur, 4);
    (base, cur, delta)
}

/// Every pinned input: `(name, frame bytes, the snapshot they came
/// from when the frame is a full one)`.
fn pinned_frames() -> Vec<(String, Vec<u8>, Option<Snapshot>)> {
    let mut out = Vec::new();
    let bodies = plummer(192, 77);
    let bbox = BBox::enclosing(bodies.iter().map(|b| b.pos));
    let mut push_pair = |name: String, rows: &[Body], level: u32| {
        let (base, cur, delta) = base_and_delta(rows, bbox, level);
        out.push((format!("{name}.full"), base.to_bytes(), Some(base)));
        out.push((format!("{name}.moved"), cur.to_bytes(), Some(cur)));
        out.push((format!("{name}.delta"), delta.to_bytes(), None));
    };
    push_pair("plummer192".into(), &bodies, 3);
    for n in [1, 7, 8, 9] {
        push_pair(format!("rows{n}"), &bodies[..n], 0);
    }

    let mut bodies = plummer(2048, 5);
    let mut log = GenerationLog::new(StoreConfig::default(), 0);
    for step in 0..4u64 {
        for b in &mut bodies {
            b.pos[1] += 1e-6;
        }
        log.commit(step, &bodies, &[]);
    }
    for step in 0..4u64 {
        let record = log.record(step).expect("committed").bytes().to_vec();
        let snap = log.materialize(step).expect("materializes");
        out.push((format!("log2048.gen{step}"), record, None));
        out.push((
            format!("log2048.gen{step}.full"),
            snap.to_bytes(),
            Some(snap),
        ));
    }
    out
}

/// `(name, frame length, FNV-1a of the frame)`, recorded at the parent
/// of the word-wise codecs.
const PINNED: &[(&str, usize, u64)] = &[
    ("plummer192.full", 22429, 0xbd1c945b0fd97b8e),
    ("plummer192.moved", 22429, 0x122fb08a8dbda841),
    ("plummer192.delta", 5770, 0x97176251c7110515),
    ("rows1.full", 387, 0xb1cb5232012ee224),
    ("rows1.moved", 387, 0x6d6d6a51db029807),
    ("rows1.delta", 214, 0x204940b093b5ddd4),
    ("rows7.full", 825, 0x7f9730b77fa61bc5),
    ("rows7.moved", 825, 0x5690a85be2af8004),
    ("rows7.delta", 257, 0x300f52c80af5a714),
    ("rows8.full", 898, 0xb9da8e07065f82f8),
    ("rows8.moved", 898, 0x83d16ddf3996a28e),
    ("rows8.delta", 264, 0x38234bd45cb8e075),
    ("rows9.full", 971, 0x5fa3aa03348c54f8),
    ("rows9.moved", 971, 0xfccf709ae5efaa15),
    ("rows9.delta", 271, 0xf87155e9a2a2b2cf),
    ("log2048.gen0", 158371, 0x8a4bb963bf96c635),
    ("log2048.gen0.full", 158371, 0x8a4bb963bf96c635),
    ("log2048.gen1", 23477, 0xdd80e28980e21fb8),
    ("log2048.gen1.full", 158371, 0xf3cb4ec5a992d2c9),
    ("log2048.gen2", 23481, 0x4c096ce7ad63b8fc),
    ("log2048.gen2.full", 158371, 0x6dddc58f0595b020),
    ("log2048.gen3", 23479, 0x37b64e7c91d6d345),
    ("log2048.gen3.full", 158371, 0x1ea55ee74fa493b4),
];

#[test]
fn store_frame_bytes_are_pinned() {
    let got: Vec<(String, usize, u64)> = pinned_frames()
        .into_iter()
        .map(|(name, bytes, _)| (name, bytes.len(), fnv1a(&bytes)))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "pinned inputs added or dropped");
    for ((name, len, digest), want) in got.iter().zip(PINNED) {
        assert_eq!((name.as_str(), *len, *digest), *want, "frame bytes moved");
    }
}

#[test]
fn frame_len_is_the_length_of_every_pinned_frame() {
    for (name, bytes, snap) in pinned_frames() {
        if let Some(snap) = snap {
            assert_eq!(snap.frame_len(), bytes.len(), "{name}");
        }
    }
}
