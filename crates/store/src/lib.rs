//! # store — cell-indexed columnar snapshot store
//!
//! A universe snapshot is partitioned into Morton oct-cells at a fixed
//! level; each cell stores its bodies as SoA column chunks (ids,
//! pos/vel/mass/work, optional aux lanes) with per-column lightweight
//! compression, and a crc-framed footer index maps cell key-ranges to
//! chunk offsets. Readers prune on the footer alone — a region, cone,
//! kNN, point, or time-travel scan decodes only the cells whose key
//! range (or geometry, or id range) survives the predicate.
//!
//! On top of single snapshots, [`Delta`] encodes a generation as the
//! set of *dirty cells* against a base generation (unchanged columns
//! are elided, changed f64 columns ship as XOR+RLE against the base),
//! and [`GenerationLog`] manages full/delta chains so a checkpoint
//! commit costs only what actually changed.
//!
//! The crate is dependency-free (workspace `hot` for Morton keys and
//! the `Body` row type, `ckpt` for the shared CRC-32): formats are
//! hand-rolled, little-endian, and byte-deterministic — the same
//! universe always serializes to the same bytes.

pub mod column;
pub mod delta;
pub mod log;
pub mod snapshot;
pub mod varint;

pub use delta::Delta;
pub use log::{GenRecord, GenerationLog, SnapshotCache, StoreConfig};
pub use snapshot::{CellChunk, CellData, Rows, Snapshot};

/// Magic prefix of a full snapshot frame.
pub const MAGIC: [u8; 8] = *b"SSSTORE1";
/// Magic prefix of an incremental delta frame.
pub const DELTA_MAGIC: [u8; 8] = *b"SSDELTA1";

/// Column encodings. `Same`/`XorRle` appear only inside delta frames.
pub const ENC_IDS: u8 = 0;
pub const ENC_SHUF: u8 = 1;
pub const ENC_SAME: u8 = 2;
pub const ENC_XRLE: u8 = 3;

/// Typed decode failures. Like `ckpt`, corruption anywhere in a frame
/// must surface as one of these — never as silently different physics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// Frame shorter than its own framing claims.
    Truncated,
    /// Leading magic does not match a store frame.
    BadMagic,
    /// Footer or delta-frame CRC mismatch.
    BadCrc,
    /// A cell's column chunk failed its footer CRC.
    BadChunkCrc { cell: u64 },
    /// Structurally invalid content inside a CRC-clean frame.
    BadEncoding(&'static str),
    /// A delta applied against the wrong base generation.
    BaseMismatch(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Truncated => write!(f, "store frame truncated"),
            StoreError::BadMagic => write!(f, "bad store magic"),
            StoreError::BadCrc => write!(f, "store frame crc mismatch"),
            StoreError::BadChunkCrc { cell } => {
                write!(f, "column chunk crc mismatch in cell {cell:#x}")
            }
            StoreError::BadEncoding(what) => write!(f, "bad store encoding: {what}"),
            StoreError::BaseMismatch(what) => write!(f, "delta base mismatch: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What kind of record a committed byte string is, by magic sniff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    Full,
    Delta { base_step: u64 },
}

/// Classify a committed record without fully decoding it. The delta
/// base step is read past the magic; full validation happens on decode.
pub fn record_kind(bytes: &[u8]) -> Result<RecordKind, StoreError> {
    if bytes.len() < 8 {
        return Err(StoreError::Truncated);
    }
    if bytes[..8] == MAGIC {
        Ok(RecordKind::Full)
    } else if bytes[..8] == DELTA_MAGIC {
        let mut cur = Cur::new(&bytes[8..]);
        Ok(RecordKind::Delta {
            base_step: cur.u64()?,
        })
    } else {
        Err(StoreError::BadMagic)
    }
}

/// Bounds-checked little-endian read cursor shared by the frame
/// parsers.
pub(crate) struct Cur<'a> {
    b: &'a [u8],
    pub pos: usize,
}

impl<'a> Cur<'a> {
    pub fn new(b: &'a [u8]) -> Cur<'a> {
        Cur { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or(StoreError::Truncated)?;
        let s = self.b.get(self.pos..end).ok_or(StoreError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64_bits(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        self.take(n)
    }

    pub fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64_bits(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}
