//! Deterministic binary checkpoints for the simulated integrators.
//!
//! The checkpoint/restart story of §2.1 — run production science *through*
//! hardware failures — needs integrator state that can round-trip
//! bit-for-bit: a restored SPH run must continue exactly where the lost
//! one left off, or restart-equivalence tests cannot distinguish "recovered"
//! from "silently diverged". `f64` therefore travels as its raw IEEE-754
//! bits (little-endian), never through decimal formatting.
//!
//! The format is deliberately tiny and dependency-free:
//!
//! ```text
//! magic "SSCKPT01" | payload bytes | crc32(payload) as u32 LE
//! ```
//!
//! with every value encoded by its [`Pack`] implementation (fixed-width
//! little-endian scalars, `u64` length-prefixed sequences). A truncated or
//! bit-flipped file fails [`load`] with a typed [`CkptError`] instead of
//! yielding corrupt physics.

use std::fmt;

/// File magic: "SSCKPT" + 2-digit format version.
pub const MAGIC: [u8; 8] = *b"SSCKPT01";

/// Why a checkpoint failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Fewer bytes than the header/payload requires.
    Truncated,
    /// Magic/version bytes do not match [`MAGIC`].
    BadMagic,
    /// Payload checksum mismatch (bit rot, torn write).
    BadCrc { stored: u32, computed: u32 },
    /// A decoded discriminant or flag byte is out of range.
    BadEncoding(&'static str),
    /// Payload decoded cleanly but bytes were left over.
    TrailingBytes(usize),
    /// A set of shard headers does not form one coherent generation
    /// (see [`validate_shard_headers`]).
    ShardSetMismatch(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CkptError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "checkpoint crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            CkptError::BadEncoding(what) => write!(f, "invalid encoding for {what}"),
            CkptError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            CkptError::ShardSetMismatch(what) => {
                write!(f, "shard set is not one coherent generation: {what}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// CRC-32 (IEEE 802.3, reflected) tables for slicing-by-8, built at
/// compile time: `CRC_TABLES[k][b]` is byte `b` carried past `k` zero
/// bytes, so eight reads advance the CRC by one `u64`.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 256;
    while j < 8 * 256 {
        let prev = t[j / 256 - 1][j % 256];
        t[j / 256][j % 256] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
        j += 1;
    }
    t
};

/// CRC-32 of `bytes` (IEEE polynomial, as used by Ethernet/zip).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")) ^ u64::from(c);
        c = (0..8).fold(0, |c, k| {
            c ^ CRC_TABLES[7 - k][(v >> (8 * k)) as usize & 0xFF]
        });
    }
    for &b in words.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Cursor over a checkpoint payload being decoded.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// A value with a deterministic binary encoding.
pub trait Pack {
    fn pack(&self, out: &mut Vec<u8>);
    fn unpack(r: &mut Reader) -> Result<Self, CkptError>
    where
        Self: Sized;
}

macro_rules! scalar_pack {
    ($($t:ty),*) => {$(
        impl Pack for $t {
            fn pack(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
                let b = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized take")))
            }
        }
    )*};
}

scalar_pack!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Pack for f64 {
    fn pack(&self, out: &mut Vec<u8>) {
        // Raw bits: NaN payloads, signed zeros and subnormals all survive,
        // which is what makes restart equivalence *bit-for-bit*.
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        Ok(f64::from_bits(u64::unpack(r)?))
    }
}

impl Pack for f32 {
    fn pack(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        Ok(f32::from_bits(u32::unpack(r)?))
    }
}

impl Pack for usize {
    /// Always 8 bytes on the wire, independent of platform width.
    fn pack(&self, out: &mut Vec<u8>) {
        (*self as u64).pack(out);
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        let v = u64::unpack(r)?;
        usize::try_from(v).map_err(|_| CkptError::BadEncoding("usize"))
    }
}

impl Pack for bool {
    fn pack(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        match u8::unpack(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::BadEncoding("bool")),
        }
    }
}

impl<T: Pack, const N: usize> Pack for [T; N] {
    fn pack(&self, out: &mut Vec<u8>) {
        for v in self {
            v.pack(out);
        }
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        let mut tmp = Vec::with_capacity(N);
        for _ in 0..N {
            tmp.push(T::unpack(r)?);
        }
        tmp.try_into()
            .map_err(|_| CkptError::BadEncoding("fixed array"))
    }
}

impl<T: Pack> Pack for Vec<T> {
    fn pack(&self, out: &mut Vec<u8>) {
        self.len().pack(out);
        for v in self {
            v.pack(out);
        }
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        let n = usize::unpack(r)?;
        // Sanity bound: no element is smaller than a byte, so a length
        // beyond the remaining bytes is corrupt, not just big.
        if n > r.remaining() {
            return Err(CkptError::Truncated);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::unpack(r)?);
        }
        Ok(v)
    }
}

impl<T: Pack> Pack for Option<T> {
    fn pack(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.pack(out);
            }
        }
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        match u8::unpack(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::unpack(r)?)),
            _ => Err(CkptError::BadEncoding("Option")),
        }
    }
}

impl Pack for String {
    fn pack(&self, out: &mut Vec<u8>) {
        self.len().pack(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        let n = usize::unpack(r)?;
        let b = r.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| CkptError::BadEncoding("String"))
    }
}

impl<A: Pack, B: Pack> Pack for (A, B) {
    fn pack(&self, out: &mut Vec<u8>) {
        self.0.pack(out);
        self.1.pack(out);
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        Ok((A::unpack(r)?, B::unpack(r)?))
    }
}

impl<A: Pack, B: Pack, C: Pack> Pack for (A, B, C) {
    fn pack(&self, out: &mut Vec<u8>) {
        self.0.pack(out);
        self.1.pack(out);
        self.2.pack(out);
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        Ok((A::unpack(r)?, B::unpack(r)?, C::unpack(r)?))
    }
}

/// Which fragment of which commit a per-rank checkpoint shard holds.
///
/// A *shard* is one rank's independently-framed fragment of a global
/// checkpoint generation: `of_ranks` shards with the same `step` form one
/// complete commit. Sharding is what makes degraded recovery O(1 rank)
/// instead of O(world) — restoring a single dead rank re-reads one shard,
/// while the survivors roll back in place — and the per-shard crc frame
/// means one rotten fragment invalidates only itself, not the whole
/// generation's bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardHeader {
    /// Which rank committed this fragment.
    pub rank: u32,
    /// World size of the committing run.
    pub of_ranks: u32,
    /// Step the generation was committed at.
    pub step: u64,
    /// Virtual time of the commit.
    pub time: f64,
}

impl Pack for ShardHeader {
    fn pack(&self, out: &mut Vec<u8>) {
        self.rank.pack(out);
        self.of_ranks.pack(out);
        self.step.pack(out);
        self.time.pack(out);
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        let h = ShardHeader {
            rank: u32::unpack(r)?,
            of_ranks: u32::unpack(r)?,
            step: u64::unpack(r)?,
            time: f64::unpack(r)?,
        };
        if h.of_ranks == 0 || h.rank >= h.of_ranks {
            return Err(CkptError::BadEncoding("shard rank out of range"));
        }
        Ok(h)
    }
}

/// Cross-validate a full shard set as ONE coherent generation.
///
/// Individually valid shards can still be stitched from different worlds
/// — a rank 2 shard of step 4 from an 8-rank run next to a rank 2 shard
/// of step 4 from a 4-rank run, or two commits whose virtual times
/// disagree. Assembling such a set silently mixes states from different
/// histories, so both commit promotion and restore must reject it and
/// fall back a generation. The set is coherent iff:
///
/// * there are exactly `of_ranks` headers and every header agrees on
///   `of_ranks` equal to that count,
/// * every header carries the same `step`,
/// * every header carries the same `time` *bits* (commit time is
///   deterministic virtual time; any drift means different worlds),
/// * the ranks are exactly the set `0..of_ranks`, each once (order
///   within the slice is not required).
pub fn validate_shard_headers(headers: &[ShardHeader], of_ranks: usize) -> Result<(), CkptError> {
    if headers.len() != of_ranks || of_ranks == 0 {
        return Err(CkptError::ShardSetMismatch("shard count != of_ranks"));
    }
    let first = &headers[0];
    let mut seen = vec![false; of_ranks];
    for h in headers {
        if h.of_ranks != of_ranks as u32 {
            return Err(CkptError::ShardSetMismatch("of_ranks disagrees"));
        }
        if h.step != first.step {
            return Err(CkptError::ShardSetMismatch("step disagrees"));
        }
        if h.time.to_bits() != first.time.to_bits() {
            return Err(CkptError::ShardSetMismatch("commit time disagrees"));
        }
        let r = h.rank as usize;
        if r >= of_ranks || seen[r] {
            return Err(CkptError::ShardSetMismatch("rank set is not 0..of_ranks"));
        }
        seen[r] = true;
    }
    Ok(())
}

/// The one frame writer: [`MAGIC`], whatever `payload` appends, then the
/// crc32 of what it appended. [`load`] reads it back.
pub fn frame(payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    payload(&mut out);
    let crc = crc32(&out[MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Frame one rank's checkpoint fragment: magic, header + payload, crc32.
pub fn save_shard<T: Pack>(header: &ShardHeader, payload: &T) -> Vec<u8> {
    frame(|out| {
        header.pack(out);
        payload.pack(out);
    })
}

/// Decode a shard produced by [`save_shard`]. Corruption anywhere in the
/// frame — header or payload — fails with a typed error so recovery can
/// fall back to an older complete generation instead of crashing.
pub fn load_shard<T: Pack>(bytes: &[u8]) -> Result<(ShardHeader, T), CkptError> {
    load(bytes)
}

/// Encode `value` as a framed checkpoint: magic, payload, payload crc32.
pub fn save<T: Pack>(value: &T) -> Vec<u8> {
    frame(|out| value.pack(out))
}

/// Decode a framed checkpoint produced by [`save`].
pub fn load<T: Pack>(bytes: &[u8]) -> Result<T, CkptError> {
    if bytes.len() < MAGIC.len() + 4 {
        return Err(CkptError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let payload = &bytes[MAGIC.len()..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(CkptError::BadCrc { stored, computed });
    }
    let mut r = Reader::new(payload);
    let v = T::unpack(&mut r)?;
    if r.remaining() != 0 {
        return Err(CkptError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Pack + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = save(&v);
        let back: T = load(&bytes).expect("roundtrip");
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-123i64);
        roundtrip(usize::MAX as u64);
        roundtrip(true);
        roundtrip(std::f64::consts::PI);
        roundtrip(1.0e-300f64);
    }

    #[test]
    fn f64_is_bit_exact() {
        for v in [
            0.0f64,
            -0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            1.0 + f64::EPSILON,
        ] {
            let bytes = save(&v);
            let back: f64 = load(&bytes).expect("roundtrip");
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        // NaN payload bits survive too.
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let back: f64 = load(&save(&nan)).expect("roundtrip");
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip(vec![1.0f64, -2.5, 3.75]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some([1.0f64, 2.0, 3.0]));
        roundtrip(None::<u64>);
        roundtrip(("label".to_string(), 42u64, vec![true, false]));
        roundtrip(vec![(1u64, 2.0f64), (3, 4.0)]);
    }

    #[test]
    fn crc_detects_bit_flips() {
        let bytes = save(&vec![1.0f64; 16]);
        for flip in [MAGIC.len(), MAGIC.len() + 7, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x10;
            match load::<Vec<f64>>(&bad) {
                Err(CkptError::BadCrc { .. }) => {}
                other => panic!("flip at {flip}: expected BadCrc, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_magic_and_truncation_rejected() {
        let bytes = save(&7u64);
        assert_eq!(load::<u64>(&bytes[..4]), Err(CkptError::Truncated));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(load::<u64>(&bad), Err(CkptError::BadMagic));
        // Payload shorter than the type needs.
        let short = save(&1u32);
        assert_eq!(load::<u64>(&short), Err(CkptError::Truncated));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let long = save(&(1u64, 2u64));
        assert_eq!(load::<u64>(&long), Err(CkptError::TrailingBytes(8)));
    }

    #[test]
    fn oversized_length_prefix_is_truncation_not_oom() {
        // A corrupt length prefix must fail cleanly before allocation.
        let out = frame(|out| (u64::MAX).pack(out));
        assert_eq!(load::<Vec<f64>>(&out), Err(CkptError::Truncated));
    }

    #[test]
    fn shard_roundtrip_and_header_validation() {
        let h = ShardHeader {
            rank: 3,
            of_ranks: 16,
            step: 40,
            time: 12.5,
        };
        let payload = vec![[1.0f64, -2.0, 3.0]; 7];
        let bytes = save_shard(&h, &payload);
        let (back_h, back_p): (ShardHeader, Vec<[f64; 3]>) = load_shard(&bytes).expect("roundtrip");
        assert_eq!(back_h, h);
        assert_eq!(back_p, payload);
        // A rank at-or-beyond the world size is a corrupt header even if
        // the crc (recomputed here) is formally valid.
        let bad = save_shard(
            &ShardHeader {
                rank: 16,
                of_ranks: 16,
                ..h
            },
            &payload,
        );
        assert_eq!(
            load_shard::<Vec<[f64; 3]>>(&bad),
            Err(CkptError::BadEncoding("shard rank out of range"))
        );
    }

    #[test]
    fn crc32_reference_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-byte-a-step CRC this crate had before slicing-by-8: the
    /// reference the sliced loop must equal on every input.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_reference_at_every_length_and_offset() {
        // Every length either side of the 8-byte blocks, at every
        // alignment of the slice start.
        let data: Vec<u8> = (0..1024u32 + 8)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), crc32_reference(s), "offset {offset} len {len}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn sliced_crc_equals_the_bytewise_reference(
            bytes in proptest::collection::vec(0u8..=255, 0..4096),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_reference(&bytes));
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = vec![[1.0f64, 2.0, 3.0]; 5];
        assert_eq!(save(&v), save(&v.clone()));
    }
}
