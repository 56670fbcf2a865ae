//! `store_dump` — inspect a columnar snapshot or delta frame.
//!
//! ```text
//! # write a demo snapshot + delta pair, then dump them
//! cargo run --release -p store --bin store_dump -- --demo /tmp/snap
//! cargo run --release -p store --bin store_dump -- /tmp/snap.full
//! cargo run --release -p store --bin store_dump -- /tmp/snap.delta
//!
//! # decode one cell's rows
//! cargo run --release -p store --bin store_dump -- /tmp/snap.full --cell 0
//! ```

use body::Body;
use store::{record_kind, Delta, RecordKind, Snapshot, ENC_SAME, ENC_XRLE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: store_dump <frame-file> [--cell N] | --demo <prefix>");
        std::process::exit(2);
    }
    if args[0] == "--demo" {
        let prefix = args.get(1).map(String::as_str).unwrap_or("/tmp/snap");
        demo(prefix);
        return;
    }
    let bytes = match std::fs::read(&args[0]) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("store_dump: {}: {e}", args[0]);
            std::process::exit(1);
        }
    };
    let cell = args
        .iter()
        .position(|a| a == "--cell")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    if let Err(e) = dump(&bytes, cell) {
        eprintln!("store_dump: {}: {e}", args[0]);
        std::process::exit(1);
    }
}

fn dump(bytes: &[u8], cell: Option<usize>) -> Result<(), store::StoreError> {
    match record_kind(bytes)? {
        RecordKind::Full => dump_full(bytes, cell),
        RecordKind::Delta { .. } => dump_delta(bytes),
    }
}

fn dump_full(bytes: &[u8], cell: Option<usize>) -> Result<(), store::StoreError> {
    let snap = Snapshot::from_bytes(bytes)?;
    println!(
        "full snapshot: {} bytes, {} rows, {} cells at level {}, {} aux lanes",
        bytes.len(),
        snap.n_rows,
        snap.cells.len(),
        snap.cell_level,
        snap.n_aux
    );
    println!(
        "bbox center ({:+.6}, {:+.6}, {:+.6}) half {:.6}",
        snap.bbox.center[0], snap.bbox.center[1], snap.bbox.center[2], snap.bbox.half
    );
    println!(
        "{:>4} {:>18} {:>6} {:>12} {:>12} {:>8}",
        "cell", "key", "rows", "id_min", "id_max", "bytes"
    );
    for i in 0..snap.cells.len() {
        let c = &snap.cells[i];
        let total: usize = c.cols.iter().map(|ch| ch.bytes.len()).sum();
        println!(
            "{:>4} {:>#18x} {:>6} {:>12} {:>12} {:>8}",
            i, c.key, c.n, c.id_min, c.id_max, total
        );
    }
    if let Some(i) = cell {
        if i >= snap.cells.len() {
            eprintln!("cell {i} out of range ({} cells)", snap.cells.len());
            std::process::exit(1);
        }
        let (bodies, _aux) = snap.decode_cell(i)?;
        let (center, half) = snap.cell_geometry(i);
        println!(
            "\ncell {i} geometry: center ({:+.6}, {:+.6}, {:+.6}) half {:.6}",
            center[0], center[1], center[2], half
        );
        for b in &bodies {
            println!(
                "  id {:>6}  pos ({:+.6}, {:+.6}, {:+.6})  mass {:.6}",
                b.id, b.pos[0], b.pos[1], b.pos[2], b.mass
            );
        }
    }
    Ok(())
}

fn dump_delta(bytes: &[u8]) -> Result<(), store::StoreError> {
    let d = Delta::from_bytes(bytes)?;
    println!(
        "delta frame: {} bytes, base step {}, {} rows after apply",
        bytes.len(),
        d.base_step,
        d.n_rows
    );
    println!(
        "{} dirty cells, {} removed cells",
        d.dirty.len(),
        d.removed.len()
    );
    for dc in &d.dirty {
        let same = dc.cols.iter().filter(|(e, _)| *e == ENC_SAME).count();
        let xor = dc.cols.iter().filter(|(e, _)| *e == ENC_XRLE).count();
        let shipped: usize = dc.cols.iter().map(|(_, b)| b.len()).sum();
        println!(
            "  cell {:#x}: {} rows, {} cols same / {} xor-rle / {} full, {} bytes",
            dc.key,
            dc.n,
            same,
            xor,
            dc.cols.len() - same - xor,
            shipped
        );
    }
    Ok(())
}

/// 96 equal-mass bodies spread uniformly through the unit ball by the
/// R3 low-discrepancy sequence (one coordinate each for radius³, cos θ
/// and φ), each circling the z axis.
fn demo_bodies() -> Vec<Body> {
    const R3: [f64; 3] = [0.8191725133961644, 0.671043606703789, 0.5497004779019701];
    (0..96u64)
        .map(|i| {
            let [a, b, c] = R3.map(|g| (0.5 + g * i as f64).fract());
            let (r, z, phi) = (a.cbrt(), 1.0 - 2.0 * b, std::f64::consts::TAU * c);
            let s = r * (1.0 - z * z).sqrt();
            let pos = [s * phi.cos(), s * phi.sin(), r * z];
            Body {
                vel: [-pos[1], pos[0], 0.0],
                id: i,
                ..Body::at(pos, 1.0 / 96.0)
            }
        })
        .collect()
}

/// Write a small deterministic snapshot + delta pair for inspection.
fn demo(prefix: &str) {
    let ics = demo_bodies();
    let mut log = store::GenerationLog::new(store::StoreConfig::default(), 0);
    log.commit(0, &ics, &[]);
    let moved: Vec<Body> = ics
        .iter()
        .map(|b| {
            let mut m = *b;
            for d in 0..3 {
                m.pos[d] += m.vel[d] * 1e-3;
            }
            m
        })
        .collect();
    log.commit(1, &moved, &[]);
    let full = log.record(0).unwrap().bytes().to_vec();
    let delta = log.record(1).unwrap().bytes().to_vec();
    let (fp, dp) = (format!("{prefix}.full"), format!("{prefix}.delta"));
    std::fs::write(&fp, &full).expect("write full frame");
    std::fs::write(&dp, &delta).expect("write delta frame");
    println!(
        "wrote {fp} ({} bytes) and {dp} ({} bytes)",
        full.len(),
        delta.len()
    );
}
