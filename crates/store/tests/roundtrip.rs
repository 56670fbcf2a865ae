//! Roundtrip properties of the columnar snapshot store: the frame is a
//! canonical, byte-deterministic function of the body *set*; cell
//! partitioning and merge are inverses; every f64 lane survives
//! bit-for-bit (NaN payloads, signed zeros, subnormals included);
//! footer pruning never drops a cell that could hold a match;
//! full/delta generation chains materialize back to exactly the states
//! they committed; and a cell decoded through `Snapshot::cell` is
//! decoded once and dies with its snapshot.

use hot::models::plummer;
use hot::{BBox, Body};
use store::{record_kind, Delta, GenerationLog, RecordKind, Snapshot, SnapshotCache, StoreConfig};

/// SplitMix64 — deterministic perturbations without external deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn sample(n: usize, seed: u64) -> (Vec<Body>, Vec<f64>, BBox) {
    let bodies = plummer(n, seed);
    let mut rng = Rng(seed ^ 0xA5A5);
    let aux: Vec<f64> = (0..n * 2).map(|_| rng.f64() * 10.0 - 5.0).collect();
    let bbox = BBox::enclosing(bodies.iter().map(|b| b.pos));
    (bodies, aux, bbox)
}

fn sorted_by_id(mut bodies: Vec<Body>) -> Vec<Body> {
    bodies.sort_by_key(|b| b.id);
    bodies
}

fn assert_bit_equal(a: &[Body], b: &[Body]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id);
        for d in 0..3 {
            assert_eq!(x.pos[d].to_bits(), y.pos[d].to_bits(), "pos of id {}", x.id);
            assert_eq!(x.vel[d].to_bits(), y.vel[d].to_bits(), "vel of id {}", x.id);
        }
        assert_eq!(x.mass.to_bits(), y.mass.to_bits(), "mass of id {}", x.id);
        assert_eq!(x.work.to_bits(), y.work.to_bits(), "work of id {}", x.id);
    }
}

#[test]
fn frame_roundtrip_preserves_the_body_set_exactly() {
    let (bodies, aux, bbox) = sample(177, 3);
    let snap = Snapshot::build(&bodies, &aux, 2, bbox, 4);
    let bytes = snap.to_bytes();
    let back = Snapshot::from_bytes(&bytes).expect("pristine frame parses");
    assert_eq!(back, snap, "parsed snapshot differs from built one");
    let (got, got_aux) = back.decode_all().expect("pristine frame decodes");
    // Decode order is canonical (cell key, id) — compare as id-sorted
    // sets, and check the aux lanes rode along with their rows.
    let want = sorted_by_id(bodies.clone());
    let mut got_pairs: Vec<(Body, [f64; 2])> = got
        .iter()
        .enumerate()
        .map(|(i, b)| (*b, [got_aux[i * 2], got_aux[i * 2 + 1]]))
        .collect();
    got_pairs.sort_by_key(|(b, _)| b.id);
    assert_bit_equal(
        &got_pairs.iter().map(|(b, _)| *b).collect::<Vec<_>>(),
        &want,
    );
    let by_id: std::collections::HashMap<u64, usize> =
        bodies.iter().enumerate().map(|(i, b)| (b.id, i)).collect();
    for (b, a) in &got_pairs {
        let i = by_id[&b.id];
        assert_eq!(a[0].to_bits(), aux[i * 2].to_bits());
        assert_eq!(a[1].to_bits(), aux[i * 2 + 1].to_bits());
    }
}

#[test]
fn partition_assigns_every_body_to_exactly_its_cell() {
    let (bodies, _, bbox) = sample(240, 11);
    for level in [0u32, 1, 3, 6] {
        let snap = Snapshot::build(&bodies, &[], 0, bbox, level);
        assert_eq!(snap.n_rows, bodies.len() as u64);
        let mut seen = 0u64;
        for i in 0..snap.cells.len() {
            let cell = &snap.cells[i];
            let (decoded, _) = snap.decode_cell(i).expect("decodes");
            assert_eq!(decoded.len(), cell.n as usize);
            seen += u64::from(cell.n);
            for b in &decoded {
                // Membership is exactly the Morton cell of the position.
                let key = bbox.key_of(b.pos).ancestor_at(level).0;
                assert_eq!(key, cell.key, "body {} filed in wrong cell", b.id);
                assert!(cell.id_min <= b.id && b.id <= cell.id_max);
            }
            // Within a cell, rows are id-sorted (the canonical order).
            for w in decoded.windows(2) {
                assert!(w[0].id < w[1].id);
            }
        }
        assert_eq!(seen, bodies.len() as u64, "level {level}: bodies lost");
    }
}

#[test]
fn weird_f64_values_survive_bit_for_bit() {
    // Positions must stay finite and inside the bbox (they drive cell
    // keying); every other lane takes the worst f64s there are.
    let weird = [
        f64::from_bits(0x7FF8_0000_DEAD_BEEF), // NaN with payload
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 8.0, // subnormal
        f64::MAX,
        -f64::MIN_POSITIVE,
        1.0 + f64::EPSILON,
    ];
    let bodies: Vec<Body> = weird
        .iter()
        .enumerate()
        .map(|(i, &w)| Body {
            pos: [i as f64 * 0.125 - 0.5, -0.25, 0.25],
            vel: [w, -w, w],
            mass: w,
            id: i as u64 * 7 + 1,
            work: w,
        })
        .collect();
    let aux: Vec<f64> = weird.iter().flat_map(|&w| [w, -w, w]).collect();
    let bbox = BBox::enclosing(bodies.iter().map(|b| b.pos));
    let snap = Snapshot::build(&bodies, &aux, 3, bbox, 2);
    let back = Snapshot::from_bytes(&snap.to_bytes()).expect("parses");
    let (got, got_aux) = back.decode_all().expect("decodes");
    let mut got: Vec<(Body, Vec<f64>)> = got
        .iter()
        .enumerate()
        .map(|(i, b)| (*b, got_aux[i * 3..i * 3 + 3].to_vec()))
        .collect();
    got.sort_by_key(|(b, _)| b.id);
    for ((b, a), (w, i)) in got.iter().zip(weird.iter().zip(0..)) {
        assert_eq!(b.id, i as u64 * 7 + 1);
        assert_eq!(b.vel[0].to_bits(), w.to_bits());
        assert_eq!(b.vel[1].to_bits(), (-w).to_bits());
        assert_eq!(b.mass.to_bits(), w.to_bits());
        assert_eq!(b.work.to_bits(), w.to_bits());
        assert_eq!(a[0].to_bits(), w.to_bits());
        assert_eq!(a[1].to_bits(), (-w).to_bits());
        assert_eq!(a[2].to_bits(), w.to_bits());
    }
}

#[test]
fn serialization_is_canonical_in_input_order() {
    let (bodies, aux, bbox) = sample(150, 29);
    let snap = Snapshot::build(&bodies, &aux, 2, bbox, 4);
    let bytes = snap.to_bytes();
    // Any permutation of the input rows yields the identical frame.
    let mut rng = Rng(99);
    let mut perm: Vec<usize> = (0..bodies.len()).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let shuffled: Vec<Body> = perm.iter().map(|&i| bodies[i]).collect();
    let shuffled_aux: Vec<f64> = perm
        .iter()
        .flat_map(|&i| [aux[i * 2], aux[i * 2 + 1]])
        .collect();
    let again = Snapshot::build(&shuffled, &shuffled_aux, 2, bbox, 4).to_bytes();
    assert_eq!(bytes, again, "input order leaked into the frame bytes");
    // And re-serializing the parsed snapshot is a fixed point.
    let back = Snapshot::from_bytes(&bytes).expect("parses");
    assert_eq!(back.to_bytes(), bytes);
}

#[test]
fn pruning_never_drops_a_matching_cell() {
    let (bodies, _, bbox) = sample(300, 41);
    let snap = Snapshot::build(&bodies, &[], 0, bbox, 3);
    let mut rng = Rng(7);

    // Key-range pushdown: every cell holding a body whose full-depth
    // key lands in [lo, hi] must survive.
    for _ in 0..50 {
        let a = rng.next();
        let b = rng.next();
        let (lo, hi) = (a.min(b), a.max(b));
        let kept = snap.cells_in_key_range(lo, hi);
        // The two binary searches keep exactly what a scan would.
        let scan: Vec<usize> = (0..snap.cells.len())
            .filter(|&i| {
                let (clo, chi) = hot::Key(snap.cells[i].key).key_range();
                clo.0 <= hi && lo <= chi.0
            })
            .collect();
        assert_eq!(kept, scan);
        for (i, cell) in snap.cells.iter().enumerate() {
            let (decoded, _) = snap.decode_cell(i).expect("decodes");
            let holds_match = decoded.iter().any(|bd| {
                let k = bbox.key_of(bd.pos).key_range();
                // Any full-depth key under this body's leaf cell that
                // intersects the probe means the cell must be read.
                k.0 .0 <= hi && lo <= k.1 .0
            });
            if holds_match {
                assert!(
                    kept.contains(&i),
                    "cell {:#x} holds keys in [{lo:#x},{hi:#x}] but was pruned",
                    cell.key
                );
            }
        }
    }

    // Id pushdown: the cells_for_id candidates must cover the cell that
    // actually holds each id.
    for bd in &bodies {
        let cands = snap.cells_for_id(bd.id);
        let holder = (0..snap.cells.len())
            .find(|&i| {
                snap.decode_cell(i)
                    .expect("decodes")
                    .0
                    .iter()
                    .any(|x| x.id == bd.id)
            })
            .expect("every body is somewhere");
        assert!(cands.contains(&holder), "id {} pruned away", bd.id);
    }

    // Geometric pushdown: a conservative sphere test keeps every cell
    // containing a body inside the sphere.
    for _ in 0..20 {
        let c = [
            (rng.f64() - 0.5) * 2.0 * bbox.half + bbox.center[0],
            (rng.f64() - 0.5) * 2.0 * bbox.half + bbox.center[1],
            (rng.f64() - 0.5) * 2.0 * bbox.half + bbox.center[2],
        ];
        let r = rng.f64() * bbox.half;
        let kept = snap.prune(|center, half| {
            // Conservative: the sphere intersects the cell's bounding
            // ball.
            let d2: f64 = (0..3).map(|d| (center[d] - c[d]).powi(2)).sum();
            d2.sqrt() <= r + half * 3f64.sqrt()
        });
        for i in 0..snap.cells.len() {
            let (decoded, _) = snap.decode_cell(i).expect("decodes");
            let inside = decoded.iter().any(|bd| {
                let d2: f64 = (0..3).map(|d| (bd.pos[d] - c[d]).powi(2)).sum();
                d2.sqrt() <= r
            });
            if inside {
                assert!(kept.contains(&i), "cell {i} holds an in-sphere body");
            }
        }
    }
}

/// Drift the system a little, like one integrator step would.
fn evolve(bodies: &mut [Body], rng: &mut Rng, dt: f64) {
    for b in bodies.iter_mut() {
        for d in 0..3 {
            b.vel[d] += (rng.f64() - 0.5) * 1e-3;
            b.pos[d] += dt * b.vel[d];
        }
    }
}

#[test]
fn generation_chain_materializes_every_committed_state() {
    let (mut bodies, _, _) = sample(200, 55);
    let mut rng = Rng(123);
    let mut log = GenerationLog::new(StoreConfig::default(), 0);
    let mut states: Vec<(u64, Vec<Body>)> = Vec::new();
    for step in 0..6u64 {
        evolve(&mut bodies, &mut rng, 1e-3);
        log.commit(step, &bodies, &[]);
        states.push((step, bodies.clone()));
    }
    assert_eq!(log.generations(), 6);
    // The first record is full; with small motion, later ones are
    // deltas and the ledger shows the savings.
    assert_eq!(
        record_kind(log.record(0).expect("gen 0").bytes()),
        Ok(RecordKind::Full)
    );
    assert!(
        matches!(
            record_kind(log.record(5).expect("gen 5").bytes()),
            Ok(RecordKind::Delta { .. })
        ),
        "small motion should delta-compress"
    );
    assert!(
        log.commit_bytes < log.full_bytes,
        "deltas not smaller: {} vs {}",
        log.commit_bytes,
        log.full_bytes
    );
    for (step, want) in &states {
        let snap = log.materialize(*step).expect("committed step");
        let (got, _) = snap.decode_all().expect("decodes");
        assert_bit_equal(&sorted_by_id(got), &sorted_by_id(want.clone()));
    }
    // The restore-side twin over raw records agrees.
    let records: Vec<(u64, Vec<u8>)> = log
        .steps()
        .map(|s| (s, log.record(s).expect("present").bytes().to_vec()))
        .collect();
    for (step, want) in &states {
        let snap = store::log::materialize_records(&records, *step).expect("materializes");
        let (got, _) = snap.decode_all().expect("decodes");
        assert_bit_equal(&sorted_by_id(got), &sorted_by_id(want.clone()));
    }
}

#[test]
fn snapshot_cache_is_a_bounded_lru() {
    let (bodies, _, _) = sample(60, 77);
    let mut log = GenerationLog::new(StoreConfig::default(), 0);
    for step in 0..8u64 {
        log.commit(step, &bodies, &[]);
    }
    let mut cache = SnapshotCache::new(2);
    for step in 0..8u64 {
        cache
            .get_or_try_insert(step, || log.materialize(step))
            .expect("materializes");
    }
    assert!(cache.peak <= 2, "cache grew past its bound: {}", cache.peak);
    assert_eq!(cache.misses, 8);
    // Most-recent entries hit without re-materializing.
    let hit = |_s: u64| -> Result<store::Snapshot, store::StoreError> {
        panic!("recent generation must be cached")
    };
    cache.get_or_try_insert(7, || hit(7)).expect("hit");
    cache.get_or_try_insert(6, || hit(6)).expect("hit");
    assert_eq!(cache.hits, 2);
}

#[test]
fn a_cell_is_decoded_once_and_only_by_a_borrowed_read() {
    let (mut bodies, aux, bbox) = sample(130, 17);
    let snap = Snapshot::build(&bodies, &aux, 2, bbox, 2);
    assert_eq!(snap.cells_decoded(), 0);
    let first = snap.cell(1).expect("decodes");
    assert_eq!(snap.cells_decoded(), 1);
    let again = snap.cell(1).expect("borrows");
    assert!(std::ptr::eq(first, again), "second touch decoded again");
    assert_eq!(snap.cells_decoded(), 1);
    assert_eq!(*first, snap.decode_cell(1).expect("decodes"));

    // The memo is no part of the snapshot's value: a clone and a delta
    // applied on top start empty, and equality does not see it.
    let clone = snap.clone();
    assert_eq!(clone.cells_decoded(), 0);
    assert_eq!(clone, snap);
    evolve(&mut bodies, &mut Rng(5), 1e-6);
    let next = Snapshot::build(&bodies, &aux, 2, bbox, 2);
    let applied = Delta::build(&snap, &next, 0)
        .apply(&snap)
        .expect("applies to its base");
    assert_eq!(applied.cells_decoded(), 0);
    assert_eq!(applied, next);

    // Owned reads stay off it.
    let fresh = Snapshot::from_bytes(&snap.to_bytes()).expect("parses");
    fresh.decode_all().expect("decodes");
    fresh.decode_cell(0).expect("decodes");
    assert_eq!(fresh.cells_decoded(), 0);
}

#[test]
fn evicting_a_generation_drops_its_decoded_cells() {
    let (bodies, _, _) = sample(60, 77);
    let mut log = GenerationLog::new(StoreConfig::default(), 0);
    log.commit(0, &bodies, &[]);
    log.commit(1, &bodies, &[]);
    let mut cache = SnapshotCache::new(1);
    let gen0 = cache
        .get_or_try_insert(0, || log.materialize(0))
        .expect("materializes");
    gen0.cell(0).expect("decodes");
    assert_eq!(gen0.cells_decoded(), 1);
    // A hit finds the decoded cell still there; an eviction and a fresh
    // materialization do not.
    let hit = cache
        .get_or_try_insert(0, || log.materialize(0))
        .expect("hit");
    assert_eq!(hit.cells_decoded(), 1);
    cache
        .get_or_try_insert(1, || log.materialize(1))
        .expect("materializes");
    assert_eq!(cache.len(), 1);
    let back = cache
        .get_or_try_insert(0, || log.materialize(0))
        .expect("materializes again");
    assert_eq!(back.cells_decoded(), 0);
}
