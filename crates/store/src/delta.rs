//! Incremental dirty-cell deltas between two snapshots of the same
//! bbox/level. A delta records removed cell keys plus, per dirty cell,
//! one chunk per column: `Same` (column bytes identical to the base —
//! nothing shipped), `XorRle` (byte-shuffled f64 column XORed against
//! the base and run-length encoded), or a full re-encoding (new cell,
//! or row count changed). Unchanged cells are not mentioned at all.
//!
//! ```text
//! +----------+---------------------------------------------+-----+
//! | SSDELTA1 | base_step, level, n_aux, n_rows, bbox,      | crc |
//! |          | removed keys, dirty cells (inline chunks)   |     |
//! +----------+---------------------------------------------+-----+
//! ```
//!
//! The whole payload is covered by one trailing CRC: any corruption
//! makes the *generation* rotten, and recovery falls back to its base.

use crate::column::{xor_rle_decode, xor_rle_encode};
use crate::snapshot::{CellChunk, CellData, Snapshot};
use crate::{
    put_f64_bits, put_u32, put_u64, Cur, StoreError, DELTA_MAGIC, ENC_IDS, ENC_SAME, ENC_SHUF,
    ENC_XRLE,
};
use ckpt::crc32;
use hot::morton::MAX_LEVEL;
use hot::BBox;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaCell {
    pub key: u64,
    pub n: u32,
    pub id_min: u64,
    pub id_max: u64,
    /// One chunk per column; `enc == ENC_SAME` ships no bytes.
    pub cols: Vec<(u8, Vec<u8>)>,
}

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): [`Delta::build`] forgets
    /// its last dirty cell, so the materialize round-trip oracle can be
    /// shown to catch a delta that ships too little.
    static DROP_ONE_DIRTY_CELL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub base_step: u64,
    pub cell_level: u32,
    pub n_aux: u32,
    pub n_rows: u64,
    pub bbox: BBox,
    pub removed: Vec<u64>,
    pub dirty: Vec<DeltaCell>,
}

impl Delta {
    /// Diff `cur` against `base`. Both must share bbox (bit-exact),
    /// cell level, and aux shape — the [`GenerationLog`] only emits
    /// deltas when the base bbox is reused.
    ///
    /// [`GenerationLog`]: crate::log::GenerationLog
    pub fn build(base: &Snapshot, cur: &Snapshot, base_step: u64) -> Delta {
        assert_eq!(base.cell_level, cur.cell_level, "delta across cell levels");
        assert_eq!(base.n_aux, cur.n_aux, "delta across aux shapes");
        assert!(
            bbox_bits(&base.bbox) == bbox_bits(&cur.bbox),
            "delta across bounding boxes"
        );
        let removed: Vec<u64> = base
            .cells
            .iter()
            .filter(|c| cur.cells.binary_search_by_key(&c.key, |x| x.key).is_err())
            .map(|c| c.key)
            .collect();
        let mut dirty = Vec::new();
        for cell in &cur.cells {
            let base_cell = base
                .cells
                .binary_search_by_key(&cell.key, |x| x.key)
                .ok()
                .map(|i| &base.cells[i]);
            let mut cols = Vec::with_capacity(cell.cols.len());
            let mut all_same = base_cell.is_some();
            for (c, col) in cell.cols.iter().enumerate() {
                let chunk = match base_cell {
                    Some(b) if b.cols[c].bytes == col.bytes => (ENC_SAME, Vec::new()),
                    Some(b) if col.enc == ENC_SHUF && b.n == cell.n => {
                        let rle = xor_rle_encode(&b.cols[c].bytes, &col.bytes);
                        // RLE can lose to a churned column; ship
                        // whichever is smaller (deterministically).
                        if rle.len() < col.bytes.len() {
                            (ENC_XRLE, rle)
                        } else {
                            (col.enc, col.bytes.clone())
                        }
                    }
                    _ => (col.enc, col.bytes.clone()),
                };
                if chunk.0 != ENC_SAME {
                    all_same = false;
                }
                cols.push(chunk);
            }
            if !all_same {
                dirty.push(DeltaCell {
                    key: cell.key,
                    n: cell.n,
                    id_min: cell.id_min,
                    id_max: cell.id_max,
                    cols,
                });
            }
        }
        #[cfg(test)]
        if DROP_ONE_DIRTY_CELL.get() {
            dirty.pop();
        }
        Delta {
            base_step,
            cell_level: cur.cell_level,
            n_aux: cur.n_aux,
            n_rows: cur.n_rows,
            bbox: cur.bbox,
            removed,
            dirty,
        }
    }

    /// Apply to the materialized base, producing the new generation's
    /// snapshot — working entirely on encoded chunks (no f64 decode).
    pub fn apply(&self, base: &Snapshot) -> Result<Snapshot, StoreError> {
        if bbox_bits(&base.bbox) != bbox_bits(&self.bbox) {
            return Err(StoreError::BaseMismatch("bounding box differs"));
        }
        if base.cell_level != self.cell_level || base.n_aux != self.n_aux {
            return Err(StoreError::BaseMismatch("cell level or aux shape differs"));
        }
        let mut cells: Vec<CellData> = base
            .cells
            .iter()
            .filter(|c| self.removed.binary_search(&c.key).is_err())
            .cloned()
            .collect();
        for dc in &self.dirty {
            let base_cell = base
                .cells
                .binary_search_by_key(&dc.key, |x| x.key)
                .ok()
                .map(|i| &base.cells[i]);
            let mut cols = Vec::with_capacity(dc.cols.len());
            for (c, (enc, bytes)) in dc.cols.iter().enumerate() {
                let chunk = match *enc {
                    ENC_SAME => base_cell
                        .ok_or(StoreError::BaseMismatch("same-column in a new cell"))?
                        .cols[c]
                        .clone(),
                    ENC_XRLE => {
                        let b = base_cell
                            .ok_or(StoreError::BaseMismatch("xor column in a new cell"))?;
                        CellChunk::new(ENC_SHUF, xor_rle_decode(&b.cols[c].bytes, bytes)?)
                    }
                    enc => CellChunk::new(enc, bytes.clone()),
                };
                cols.push(chunk);
            }
            let cell = CellData::new(&self.bbox, dc.key, dc.n, (dc.id_min, dc.id_max), cols);
            match cells.binary_search_by_key(&dc.key, |x| x.key) {
                Ok(i) => cells[i] = cell,
                Err(i) => cells.insert(i, cell),
            }
        }
        let rows: u64 = cells.iter().map(|c| u64::from(c.n)).sum();
        if rows != self.n_rows {
            return Err(StoreError::BadEncoding("delta row count mismatch"));
        }
        Ok(Snapshot {
            bbox: self.bbox,
            cell_level: self.cell_level,
            n_aux: self.n_aux,
            n_rows: self.n_rows,
            cells,
        })
    }

    /// Serialize: magic, payload, trailing crc32(payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_u64(&mut p, self.base_step);
        put_u32(&mut p, self.cell_level);
        put_u32(&mut p, self.n_aux);
        put_u64(&mut p, self.n_rows);
        for d in 0..3 {
            put_f64_bits(&mut p, self.bbox.center[d]);
        }
        put_f64_bits(&mut p, self.bbox.half);
        put_u64(&mut p, self.removed.len() as u64);
        for &k in &self.removed {
            put_u64(&mut p, k);
        }
        put_u64(&mut p, self.dirty.len() as u64);
        for dc in &self.dirty {
            put_u64(&mut p, dc.key);
            put_u32(&mut p, dc.n);
            put_u64(&mut p, dc.id_min);
            put_u64(&mut p, dc.id_max);
            for (enc, bytes) in &dc.cols {
                p.push(*enc);
                put_u64(&mut p, bytes.len() as u64);
                p.extend_from_slice(bytes);
            }
        }
        let mut out = Vec::with_capacity(8 + p.len() + 4);
        out.extend_from_slice(&DELTA_MAGIC);
        out.extend_from_slice(&p);
        put_u32(&mut out, crc32(&p));
        out
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Delta, StoreError> {
        if bytes.len() < DELTA_MAGIC.len() + 4 {
            return Err(StoreError::Truncated);
        }
        if bytes[..DELTA_MAGIC.len()] != DELTA_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let payload = &bytes[DELTA_MAGIC.len()..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        if crc32(payload) != stored {
            return Err(StoreError::BadCrc);
        }
        let mut cur = Cur::new(payload);
        let base_step = cur.u64()?;
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
        let n_removed = cur.u64()? as usize;
        if n_removed.saturating_mul(8) > payload.len() {
            return Err(StoreError::BadEncoding("removed count exceeds frame"));
        }
        let mut removed = Vec::with_capacity(n_removed);
        let mut prev = None;
        for _ in 0..n_removed {
            let k = cur.u64()?;
            if prev.is_some_and(|p| k <= p) {
                return Err(StoreError::BadEncoding("removed keys out of order"));
            }
            prev = Some(k);
            removed.push(k);
        }
        let n_dirty = cur.u64()? as usize;
        let n_cols = crate::snapshot::FIXED_COLS + n_aux as usize;
        if n_dirty.saturating_mul(28 + n_cols * 9) > payload.len() {
            return Err(StoreError::BadEncoding("dirty count exceeds frame"));
        }
        let mut dirty = Vec::with_capacity(n_dirty);
        let mut prev = None;
        for _ in 0..n_dirty {
            let key = cur.u64()?;
            if prev.is_some_and(|p| key <= p) {
                return Err(StoreError::BadEncoding("dirty cells out of order"));
            }
            prev = Some(key);
            let n = cur.u32()?;
            if n == 0 {
                return Err(StoreError::BadEncoding("empty dirty cell"));
            }
            let id_min = cur.u64()?;
            let id_max = cur.u64()?;
            if id_min > id_max {
                return Err(StoreError::BadEncoding("inverted id range"));
            }
            let mut cols = Vec::with_capacity(n_cols);
            for c in 0..n_cols {
                let enc = cur.u8()?;
                let full = if c == 0 { ENC_IDS } else { ENC_SHUF };
                if enc != full && enc != ENC_SAME && enc != ENC_XRLE {
                    return Err(StoreError::BadEncoding("unexpected delta encoding"));
                }
                if enc == ENC_XRLE && c == 0 {
                    return Err(StoreError::BadEncoding("xor-rle on the id column"));
                }
                let len = cur.u64()? as usize;
                if enc == ENC_SAME && len != 0 {
                    return Err(StoreError::BadEncoding("same-column with payload"));
                }
                cols.push((enc, cur.bytes(len)?.to_vec()));
            }
            dirty.push(DeltaCell {
                key,
                n,
                id_min,
                id_max,
                cols,
            });
        }
        if !cur.done() {
            return Err(StoreError::BadEncoding("trailing bytes in delta"));
        }
        Ok(Delta {
            base_step,
            cell_level,
            n_aux,
            n_rows,
            bbox: BBox { center, half },
            removed,
            dirty,
        })
    }
}

fn bbox_bits(b: &BBox) -> [u64; 4] {
    [
        b.center[0].to_bits(),
        b.center[1].to_bits(),
        b.center[2].to_bits(),
        b.half.to_bits(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GenerationLog, RecordKind, StoreConfig};
    use hot::models::plummer;

    /// The `GenerationLog::materialize` round-trip oracle of
    /// `tests/roundtrip.rs` in miniature: commit a drifting universe,
    /// materialize every generation, demand the committed bits back.
    fn chain_round_trips() -> bool {
        let mut bodies = plummer(200, 55);
        let mut log = GenerationLog::new(StoreConfig::default(), 0);
        let mut committed = Vec::new();
        for step in 0..4u64 {
            for b in &mut bodies {
                b.pos[0] += 1e-4 * (b.id % 7) as f64;
            }
            log.commit(step, &bodies, &[]);
            committed.push(bodies.clone());
        }
        let last = log.record(3).expect("committed").bytes();
        assert!(matches!(
            crate::record_kind(last),
            Ok(RecordKind::Delta { .. })
        ));
        committed.iter().zip(0u64..).all(|(want, step)| {
            let mut want = want.clone();
            want.sort_by_key(|b| b.id);
            log.materialize(step)
                .and_then(|snap| snap.decode_all())
                .is_ok_and(|(mut got, _)| {
                    got.sort_by_key(|b| b.id);
                    got == want
                })
        })
    }

    #[test]
    fn delta_chain_materializes_what_was_committed() {
        assert!(chain_round_trips());
    }

    /// Teeth: a delta one dirty cell short must not round-trip.
    #[test]
    fn round_trip_oracle_catches_a_dropped_dirty_cell() {
        DROP_ONE_DIRTY_CELL.set(true);
        assert!(!chain_round_trips());
    }
}
