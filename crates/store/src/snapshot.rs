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

/// One cell: its Morton key (level-prefixed, at the snapshot's
/// `cell_level`), row count, id range, and one chunk per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellData {
    pub key: u64,
    pub n: u32,
    pub id_min: u64,
    pub id_max: u64,
    pub cols: Vec<CellChunk>,
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
            cells.push(CellData {
                key,
                n: rows.len() as u32,
                id_min: ids[0],
                id_max: *ids.last().unwrap(),
                cols,
            });
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

    pub fn n_cols(&self) -> usize {
        FIXED_COLS + self.n_aux as usize
    }

    /// Serialize to the framed wire format (byte-deterministic).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        let mut offsets: Vec<Vec<(u64, u64)>> = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let mut per_col = Vec::with_capacity(cell.cols.len());
            for col in &cell.cols {
                per_col.push((out.len() as u64, col.bytes.len() as u64));
                out.extend_from_slice(&col.bytes);
            }
            offsets.push(per_col);
        }
        let mut footer = Vec::new();
        put_u32(&mut footer, self.cell_level);
        put_u32(&mut footer, self.n_aux);
        put_u64(&mut footer, self.n_rows);
        for d in 0..3 {
            put_f64_bits(&mut footer, self.bbox.center[d]);
        }
        put_f64_bits(&mut footer, self.bbox.half);
        put_u64(&mut footer, self.cells.len() as u64);
        for (cell, per_col) in self.cells.iter().zip(&offsets) {
            put_u64(&mut footer, cell.key);
            put_u32(&mut footer, cell.n);
            put_u64(&mut footer, cell.id_min);
            put_u64(&mut footer, cell.id_max);
            for (col, &(off, len)) in cell.cols.iter().zip(per_col) {
                footer.push(col.enc);
                put_u64(&mut footer, off);
                put_u64(&mut footer, len);
                put_u32(&mut footer, col.crc);
            }
        }
        let fcrc = crc32(&footer);
        let flen = footer.len() as u64;
        out.extend_from_slice(&footer);
        put_u32(&mut out, fcrc);
        put_u64(&mut out, flen);
        out
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
            cells.push(CellData {
                key,
                n,
                id_min,
                id_max,
                cols,
            });
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
        self.bbox.cell_geometry(Key(self.cells[i].key))
    }

    /// Full-depth Morton key range covered by cell `i` — what the
    /// footer index maps to chunk offsets.
    pub fn key_range(&self, i: usize) -> (u64, u64) {
        let (lo, hi) = Key(self.cells[i].key).key_range();
        (lo.0, hi.0)
    }

    /// Indices of cells whose full-depth key range intersects
    /// `[lo, hi]` (inclusive). Never drops a cell that could hold a
    /// matching key.
    pub fn cells_in_key_range(&self, lo: u64, hi: u64) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&i| {
                let (clo, chi) = self.key_range(i);
                clo <= hi && lo <= chi
            })
            .collect()
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

    /// Decode one cell to bodies (sorted by id) plus its row-major aux
    /// lanes. Verifies every column chunk CRC.
    pub fn decode_cell(&self, i: usize) -> Result<(Vec<Body>, Vec<f64>), StoreError> {
        let cell = &self.cells[i];
        let n = cell.n as usize;
        for col in &cell.cols {
            if crc32(&col.bytes) != col.crc {
                return Err(StoreError::BadChunkCrc { cell: cell.key });
            }
        }
        let ids = decode_ids(&cell.cols[0].bytes, n)?;
        if ids.first() != Some(&cell.id_min) || ids.last() != Some(&cell.id_max) {
            return Err(StoreError::BadEncoding("id column outside footer range"));
        }
        let mut f64_cols = Vec::with_capacity(self.n_cols() - 1);
        for col in &cell.cols[1..] {
            f64_cols.push(unshuffle_f64(&col.bytes, n)?);
        }
        let na = self.n_aux as usize;
        let mut bodies = Vec::with_capacity(n);
        let mut aux = Vec::with_capacity(n * na);
        for r in 0..n {
            bodies.push(Body {
                pos: [f64_cols[0][r], f64_cols[1][r], f64_cols[2][r]],
                vel: [f64_cols[3][r], f64_cols[4][r], f64_cols[5][r]],
                mass: f64_cols[6][r],
                id: ids[r],
                work: f64_cols[7][r],
            });
            for j in 0..na {
                aux.push(f64_cols[8 + j][r]);
            }
        }
        Ok((bodies, aux))
    }

    /// Decode every cell in key order: the canonical (cell-key, id)
    /// ordering of the whole snapshot.
    pub fn decode_all(&self) -> Result<(Vec<Body>, Vec<f64>), StoreError> {
        let mut bodies = Vec::with_capacity(self.n_rows as usize);
        let mut aux = Vec::with_capacity(self.n_rows as usize * self.n_aux as usize);
        for i in 0..self.cells.len() {
            let (b, a) = self.decode_cell(i)?;
            bodies.extend(b);
            aux.extend(a);
        }
        Ok((bodies, aux))
    }
}
