//! Full snapshot frames: cell partition, SoA column chunks, and the
//! crc-framed footer index.
//!
//! ```text
//! +----------+------------------------------+---------------+-----+------+
//! | SSSTORE1 | chunk region (cells x cols)  | footer        | crc | flen |
//! +----------+------------------------------+---------------+-----+------+
//!                                            ^ cell_level, n_aux, n_rows,
//!                                              bbox, then per cell:
//!                                              key, n, id range, and per
//!                                              column (enc, off, len, crc)
//! ```
//!
//! Cells are keyed by the Morton oct-cell of the body position at a
//! fixed `cell_level`, sorted by key; bodies within a cell are sorted
//! by id, so the whole frame is a canonical function of the body *set*
//! (input order never leaks into the bytes). Column chunks carry their
//! own CRC in the footer, verified on decode: a pruned read never pays
//! for — and never trusts — cells it does not touch.

use crate::column::{decode_ids, encode_ids, shuffle_f64, unshuffle_f64};
use crate::{put_f64_bits, put_u32, put_u64, Cur, StoreError, ENC_IDS, ENC_SHUF, MAGIC};
use ckpt::crc32;
use hot::morton::MAX_LEVEL;
use hot::{BBox, Body, Key};
use std::sync::OnceLock;

/// Fixed columns before the aux lanes: ids, pos xyz, vel xyz, mass,
/// work.
pub const FIXED_COLS: usize = 9;

/// One encoded column chunk of one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellChunk {
    pub enc: u8,
    pub bytes: Vec<u8>,
    pub crc: u32,
}

impl CellChunk {
    pub fn new(enc: u8, bytes: Vec<u8>) -> CellChunk {
        let crc = crc32(&bytes);
        CellChunk { enc, bytes, crc }
    }
}

/// A cell's decoded rows: bodies sorted by id, and their row-major aux
/// lanes.
pub type Rows = (Vec<Body>, Vec<f64>);

/// The once-slot [`Snapshot::cell`] decodes into. A cache, not part of
/// the cell's value: a clone starts empty and equality ignores it.
#[derive(Debug, Default)]
struct Decoded(OnceLock<Rows>);

impl Clone for Decoded {
    fn clone(&self) -> Decoded {
        Decoded::default()
    }
}

impl PartialEq for Decoded {
    fn eq(&self, _: &Decoded) -> bool {
        true
    }
}

/// One cell: its Morton key (level-prefixed, at the snapshot's
/// `cell_level`), row count, id range, and one chunk per column.
#[derive(Debug, Clone, PartialEq)]
pub struct CellData {
    pub key: u64,
    pub n: u32,
    pub id_min: u64,
    pub id_max: u64,
    pub cols: Vec<CellChunk>,
    /// `(center, half)` of the key's cube in the snapshot's bbox,
    /// derived once when the cell is made: in memory only, never on disk.
    geom: ([f64; 3], f64),
    decoded: Decoded,
}

impl CellData {
    /// A cell of `bbox` with nothing decoded yet.
    pub(crate) fn new(
        bbox: &BBox,
        key: u64,
        n: u32,
        (id_min, id_max): (u64, u64),
        cols: Vec<CellChunk>,
    ) -> CellData {
        CellData {
            key,
            n,
            id_min,
            id_max,
            cols,
            geom: bbox.cell_geometry(Key(key)),
            decoded: Decoded::default(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch: decode trusts chunks without checking their
    /// CRCs, so the sweep can be shown to catch an unverified memo.
    static MEMO_SKIPS_CHUNK_CRCS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// An in-memory snapshot: encoded cells plus the footer metadata.
/// Decoding is per-cell and lazy — this is the unit the pushdown
/// readers and the delta codec work on.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub bbox: BBox,
    pub cell_level: u32,
    pub n_aux: u32,
    pub n_rows: u64,
    pub cells: Vec<CellData>,
}

impl Snapshot {
    /// Partition `bodies` (with `n_aux` row-major aux f64 lanes) into
    /// cells of `bbox` at `cell_level` and encode every column. All
    /// body positions must lie inside `bbox` — cell geometry is what
    /// conservative pruning trusts.
    pub fn build(
        bodies: &[Body],
        aux: &[f64],
        n_aux: u32,
        bbox: BBox,
        cell_level: u32,
    ) -> Snapshot {
        assert!(cell_level <= MAX_LEVEL, "cell level beyond Morton depth");
        assert_eq!(aux.len(), bodies.len() * n_aux as usize, "aux lane shape");
        let mut order: Vec<(u64, usize)> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| (bbox.key_of(b.pos).ancestor_at(cell_level).0, i))
            .collect();
        order.sort_by_key(|&(key, i)| (key, bodies[i].id, i));

        let na = n_aux as usize;
        let mut cells = Vec::new();
        let mut start = 0;
        while start < order.len() {
            let key = order[start].0;
            let mut end = start;
            while end < order.len() && order[end].0 == key {
                end += 1;
            }
            let rows: Vec<usize> = order[start..end].iter().map(|&(_, i)| i).collect();
            let ids: Vec<u64> = rows.iter().map(|&i| bodies[i].id).collect();
            let mut cols = Vec::with_capacity(FIXED_COLS + na);
            cols.push(CellChunk::new(ENC_IDS, encode_ids(&ids)));
            let f64_col = |f: &dyn Fn(usize) -> f64| {
                let vals: Vec<f64> = rows.iter().map(|&i| f(i)).collect();
                CellChunk::new(ENC_SHUF, shuffle_f64(&vals))
            };
            for d in 0..3 {
                cols.push(f64_col(&|i| bodies[i].pos[d]));
            }
            for d in 0..3 {
                cols.push(f64_col(&|i| bodies[i].vel[d]));
            }
            cols.push(f64_col(&|i| bodies[i].mass));
            cols.push(f64_col(&|i| bodies[i].work));
            for j in 0..na {
                cols.push(f64_col(&|i| aux[i * na + j]));
            }
            let id_range = (ids[0], *ids.last().unwrap());
            cells.push(CellData::new(&bbox, key, rows.len() as u32, id_range, cols));
            start = end;
        }
        Snapshot {
            bbox,
            cell_level,
            n_aux,
            n_rows: bodies.len() as u64,
            cells,
        }
    }

    /// Serialize to the framed wire format (byte-deterministic).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.frame_len());
        out.extend_from_slice(&MAGIC);
        for col in self.cells.iter().flat_map(|c| &c.cols) {
            out.extend_from_slice(&col.bytes);
        }
        let footer_at = out.len();
        put_u32(&mut out, self.cell_level);
        put_u32(&mut out, self.n_aux);
        put_u64(&mut out, self.n_rows);
        for d in 0..3 {
            put_f64_bits(&mut out, self.bbox.center[d]);
        }
        put_f64_bits(&mut out, self.bbox.half);
        put_u64(&mut out, self.cells.len() as u64);
        let mut off = MAGIC.len() as u64;
        for cell in &self.cells {
            put_u64(&mut out, cell.key);
            put_u32(&mut out, cell.n);
            put_u64(&mut out, cell.id_min);
            put_u64(&mut out, cell.id_max);
            for col in &cell.cols {
                out.push(col.enc);
                put_u64(&mut out, off);
                put_u64(&mut out, col.bytes.len() as u64);
                put_u32(&mut out, col.crc);
                off += col.bytes.len() as u64;
            }
        }
        let (fcrc, flen) = (crc32(&out[footer_at..]), out.len() - footer_at);
        put_u32(&mut out, fcrc);
        put_u64(&mut out, flen as u64);
        out
    }

    /// `to_bytes().len()` without writing the frame: magic, 56 bytes of
    /// footer head, 28 a cell, 21 and its chunk a column, crc and length.
    pub fn frame_len(&self) -> usize {
        let cols = self.cells.iter().flat_map(|c| &c.cols);
        let chunks: usize = cols.map(|col| 21 + col.bytes.len()).sum();
        MAGIC.len() + 56 + 28 * self.cells.len() + chunks + 12
    }

    /// Parse a framed snapshot. The footer is CRC-checked here; column
    /// chunks keep their footer CRCs and are verified on decode, so a
    /// rotten chunk in a cell a pruned read never touches stays
    /// undetected until — and unless — something reads it.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        if bytes.len() < MAGIC.len() + 12 {
            return Err(StoreError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let flen = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap()) as usize;
        let fcrc = u32::from_le_bytes(bytes[bytes.len() - 12..bytes.len() - 8].try_into().unwrap());
        // `flen` is the one field no CRC covers: it is only ever taken
        // away from a length the frame really has, never added to one.
        let footer_end = bytes.len() - 12;
        let chunk_end = footer_end.checked_sub(flen).ok_or(StoreError::Truncated)?;
        if chunk_end < MAGIC.len() {
            return Err(StoreError::Truncated);
        }
        let footer = &bytes[chunk_end..footer_end];
        if crc32(footer) != fcrc {
            return Err(StoreError::BadCrc);
        }
        let mut cur = Cur::new(footer);
        let cell_level = cur.u32()?;
        if cell_level > MAX_LEVEL {
            return Err(StoreError::BadEncoding("cell level beyond Morton depth"));
        }
        let n_aux = cur.u32()?;
        if n_aux > 64 {
            return Err(StoreError::BadEncoding("implausible aux lane count"));
        }
        let n_rows = cur.u64()?;
        let center = [cur.f64_bits()?, cur.f64_bits()?, cur.f64_bits()?];
        let half = cur.f64_bits()?;
        let bbox = BBox { center, half };
        let n_cells = cur.u64()? as usize;
        let n_cols = FIXED_COLS + n_aux as usize;
        // Footer entries are fixed-width: sanity-bound the count before
        // allocating.
        if n_cells.saturating_mul(28 + n_cols * 21) > footer.len() {
            return Err(StoreError::BadEncoding("cell count exceeds footer"));
        }
        let mut cells = Vec::with_capacity(n_cells);
        let mut prev_key = None;
        let mut rows_seen = 0u64;
        for _ in 0..n_cells {
            let key = cur.u64()?;
            if Key(key).level() != cell_level {
                return Err(StoreError::BadEncoding("cell key at wrong level"));
            }
            if prev_key.is_some_and(|p| key <= p) {
                return Err(StoreError::BadEncoding("cell keys out of order"));
            }
            prev_key = Some(key);
            let n = cur.u32()?;
            if n == 0 {
                return Err(StoreError::BadEncoding("empty cell"));
            }
            rows_seen += u64::from(n);
            let id_min = cur.u64()?;
            let id_max = cur.u64()?;
            if id_min > id_max {
                return Err(StoreError::BadEncoding("inverted id range"));
            }
            let mut cols = Vec::with_capacity(n_cols);
            for c in 0..n_cols {
                let enc = cur.u8()?;
                let want = if c == 0 { ENC_IDS } else { ENC_SHUF };
                if enc != want {
                    return Err(StoreError::BadEncoding("unexpected column encoding"));
                }
                let off = cur.u64()? as usize;
                let len = cur.u64()? as usize;
                let crc = cur.u32()?;
                let end = off.checked_add(len).ok_or(StoreError::Truncated)?;
                if off < MAGIC.len() || end > chunk_end {
                    return Err(StoreError::BadEncoding("chunk offset out of range"));
                }
                cols.push(CellChunk {
                    enc,
                    bytes: bytes[off..end].to_vec(),
                    crc,
                });
            }
            cells.push(CellData::new(&bbox, key, n, (id_min, id_max), cols));
        }
        if !cur.done() {
            return Err(StoreError::BadEncoding("trailing bytes in footer"));
        }
        if rows_seen != n_rows {
            return Err(StoreError::BadEncoding("row count mismatch"));
        }
        Ok(Snapshot {
            bbox,
            cell_level,
            n_aux,
            n_rows,
            cells,
        })
    }

    /// Geometric center and half-size of cell `i`.
    pub fn cell_geometry(&self, i: usize) -> ([f64; 3], f64) {
        self.cells[i].geom
    }

    /// Indices of cells whose full-depth key range intersects
    /// `[lo, hi]` (inclusive). Never drops a cell that could hold a
    /// matching key.
    pub fn cells_in_key_range(&self, lo: u64, hi: u64) -> Vec<usize> {
        // Cells are sorted by key at one level, so their key ranges are
        // disjoint and ascending: the survivors are one run of them.
        let range = |c: &CellData| Key(c.key).key_range();
        let first = self.cells.partition_point(|c| range(c).1 .0 < lo);
        let end = self.cells.partition_point(|c| range(c).0 .0 <= hi);
        (first..end).collect()
    }

    /// Indices of cells surviving a conservative geometric predicate:
    /// `keep(center, half)` must return true whenever the cell *could*
    /// contain a match. Cells it rejects are never decoded.
    pub fn prune(&self, mut keep: impl FnMut([f64; 3], f64) -> bool) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&i| {
                let (c, h) = self.cell_geometry(i);
                keep(c, h)
            })
            .collect()
    }

    /// Indices of cells whose id range admits `id`.
    pub fn cells_for_id(&self, id: u64) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&i| self.cells[i].id_min <= id && id <= self.cells[i].id_max)
            .collect()
    }

    /// Verify cell `i`'s chunk CRCs and append its rows to the given ones:
    /// the one decode body behind `cell`, `decode_cell` and `decode_all`.
    fn decode_into(&self, i: usize, (bodies, aux): &mut Rows) -> Result<(), StoreError> {
        let cell = &self.cells[i];
        let (n, na) = (cell.n as usize, self.n_aux as usize);
        let verified = cell.cols.iter().all(|col| crc32(&col.bytes) == col.crc);
        #[cfg(test)]
        let verified = verified || MEMO_SKIPS_CHUNK_CRCS.get();
        if !verified {
            return Err(StoreError::BadChunkCrc { cell: cell.key });
        }
        // `n` is the footer's word: before it sizes an allocation the id
        // chunk must hold that many ids and every lane be `8 n` bytes.
        let ids = decode_ids(&cell.cols[0].bytes, n)?;
        if ids.first() != Some(&cell.id_min) || ids.last() != Some(&cell.id_max) {
            return Err(StoreError::BadEncoding("id column outside footer range"));
        }
        if cell.cols[1..].iter().any(|col| col.bytes.len() != n * 8) {
            return Err(StoreError::BadEncoding("f64 column length mismatch"));
        }
        let (b0, a0) = (bodies.len(), aux.len());
        let blank = Body::at([0.0; 3], 0.0);
        bodies.extend(ids.iter().map(|&id| Body { id, ..blank }));
        aux.resize(a0 + n * na, 0.0);
        for (c, col) in cell.cols[1..].iter().enumerate() {
            unshuffle_f64(&col.bytes, |r, v| match c {
                0..=2 => bodies[b0 + r].pos[c] = v,
                3..=5 => bodies[b0 + r].vel[c - 3] = v,
                6 => bodies[b0 + r].mass = v,
                7 => bodies[b0 + r].work = v,
                _ => aux[a0 + r * na + c - 8] = v,
            });
        }
        Ok(())
    }

    /// Cell `i`'s rows, borrowed: verified and decoded on the first touch
    /// into the cell's once-slot (an error is returned, never kept), a
    /// load after. Assumes `cells[i].cols` is not edited past that touch.
    pub fn cell(&self, i: usize) -> Result<&Rows, StoreError> {
        let slot = &self.cells[i].decoded.0;
        if let Some(rows) = slot.get() {
            return Ok(rows);
        }
        let rows = self.decode_cell(i)?;
        Ok(slot.get_or_init(|| rows))
    }

    /// How many cells [`cell`](Self::cell) has decoded and holds.
    pub fn cells_decoded(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.decoded.0.get().is_some())
            .count()
    }

    /// Decode one cell to owned rows. Verifies every column chunk CRC
    /// on every call and leaves [`cell`](Self::cell)'s slots alone.
    pub fn decode_cell(&self, i: usize) -> Result<Rows, StoreError> {
        let mut rows = Rows::default();
        self.decode_into(i, &mut rows)?;
        Ok(rows)
    }

    /// Decode every cell in key order: the canonical (cell-key, id)
    /// ordering of the whole snapshot. Owned and verified like
    /// `decode_cell`: a whole-snapshot read leaves no second copy behind.
    pub fn decode_all(&self) -> Result<Rows, StoreError> {
        // Reserve the footer's row count as far as id bytes, one a row, back it.
        let id_bytes = self.cells.iter().map(|c| c.cols[0].bytes.len()).sum();
        let n = (self.n_rows as usize).min(id_bytes);
        let mut rows = (Vec::with_capacity(n), Vec::new());
        for i in 0..self.cells.len() {
            self.decode_into(i, &mut rows)?;
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot::models::plummer;
    use proptest::prelude::*;

    /// The chunk-region half of `tests/corruption.rs`'s sweep in
    /// miniature, read the way time travel reads: every single-bit flip
    /// in a column chunk must come back from `cell` as an error.
    fn cell_reads_catch_every_chunk_flip() -> bool {
        let bodies = plummer(24, 3);
        let bbox = BBox::enclosing(bodies.iter().map(|b| b.pos));
        let snap = Snapshot::build(&bodies, &[], 0, bbox, 1);
        let frame = snap.to_bytes();
        let chunk_bytes = snap
            .cells
            .iter()
            .flat_map(|c| &c.cols)
            .map(|col| col.bytes.len());
        let chunks = MAGIC.len()..MAGIC.len() + chunk_bytes.sum::<usize>();
        chunks
            .flat_map(|at| (0..8).map(move |bit| (at, bit)))
            .all(|(at, bit)| {
                let mut rotten = frame.clone();
                rotten[at] ^= 1 << bit;
                let snap = Snapshot::from_bytes(&rotten).expect("the footer is intact");
                (0..snap.cells.len()).any(|i| snap.cell(i).is_err())
            })
    }

    #[test]
    fn every_chunk_flip_is_caught_through_the_memo() {
        assert!(cell_reads_catch_every_chunk_flip());
    }

    /// Teeth: a memo filled without checking chunk CRCs must fail the
    /// sweep.
    #[test]
    fn corruption_oracle_catches_an_unverified_memo() {
        MEMO_SKIPS_CHUNK_CRCS.set(true);
        assert!(!cell_reads_catch_every_chunk_flip());
    }

    proptest! {
        #[test]
        fn frame_len_is_the_length_of_the_frame(
            n in 0usize..80,
            seed in 0u64..1000,
            n_aux in 0u32..3,
            level in 0u32..5,
        ) {
            let bodies = if n == 0 { Vec::new() } else { plummer(n, seed) };
            let aux = vec![0.25; n * n_aux as usize];
            let bbox = BBox { center: [0.0; 3], half: 1e3 };
            let snap = Snapshot::build(&bodies, &aux, n_aux, bbox, level);
            prop_assert_eq!(snap.frame_len(), snap.to_bytes().len());
        }
    }
}
