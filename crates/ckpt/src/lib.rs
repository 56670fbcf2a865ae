//! CRC, frames and shard headers: the integrity layer under every
//! checkpoint `cluster::chaos` and `query::engine` write.
//!
//! A frame is
//!
//! ```text
//! magic "SSCKPT01" | payload bytes | crc32(payload) as u32 LE
//! ```
//!
//! and a per-rank shard is a frame whose payload is a 24-byte
//! [`ShardHeader`] followed by a `u64` LE length prefix and that many
//! bytes. Floats travel as raw IEEE-754 bits, never through decimal
//! formatting, so a restored state is the committed one bit for bit. A
//! truncated or bit-flipped frame fails with a typed [`CkptError`]
//! instead of yielding corrupt physics.

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
    /// A decoded field is out of range.
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

impl ShardHeader {
    /// Encoded size: rank, of_ranks (`u32` LE), step (`u64` LE), time
    /// (raw `f64` bits, LE).
    const LEN: usize = 24;

    fn to_bytes(self) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        b[0..4].copy_from_slice(&self.rank.to_le_bytes());
        b[4..8].copy_from_slice(&self.of_ranks.to_le_bytes());
        b[8..16].copy_from_slice(&self.step.to_le_bytes());
        b[16..24].copy_from_slice(&self.time.to_bits().to_le_bytes());
        b
    }

    /// Decode a header; a rank at or beyond the world size is corrupt
    /// even behind a valid CRC.
    fn from_bytes(b: &[u8; Self::LEN]) -> Result<ShardHeader, CkptError> {
        let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        let h = ShardHeader {
            rank: u32::from_le_bytes(b[0..4].try_into().expect("4 bytes")),
            of_ranks: u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")),
            step: word(8),
            time: f64::from_bits(word(16)),
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
/// crc32 of what it appended. [`unframe`] reads it back.
pub fn frame(payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    payload(&mut out);
    let crc = crc32(&out[MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The payload of a [`frame`], once its magic and CRC check out.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], CkptError> {
    if bytes.len() < MAGIC.len() + 4 {
        return Err(CkptError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let (payload, trailer) = bytes[MAGIC.len()..].split_at(bytes.len() - MAGIC.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(CkptError::BadCrc { stored, computed });
    }
    Ok(payload)
}

/// Frame one rank's checkpoint fragment: magic, header, `u64` length
/// prefix and payload, crc32.
pub fn save_shard(header: &ShardHeader, payload: &[u8]) -> Vec<u8> {
    frame(|out| {
        out.reserve(ShardHeader::LEN + 8 + payload.len() + 4);
        out.extend_from_slice(&header.to_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
    })
}

/// Decode a shard produced by [`save_shard`]. Corruption anywhere in the
/// frame — header or payload — fails with a typed error so recovery can
/// fall back to an older complete generation instead of crashing.
pub fn load_shard(bytes: &[u8]) -> Result<(ShardHeader, Vec<u8>), CkptError> {
    let p = unframe(bytes)?;
    let (header, rest) = p
        .split_first_chunk::<{ ShardHeader::LEN }>()
        .ok_or(CkptError::Truncated)?;
    let header = ShardHeader::from_bytes(header)?;
    let (len, body) = rest.split_first_chunk::<8>().ok_or(CkptError::Truncated)?;
    // Compared as `u64`: a hostile length never becomes a `usize`, let
    // alone an allocation, before it is known to fit.
    let len = u64::from_le_bytes(*len);
    if len > body.len() as u64 {
        return Err(CkptError::Truncated);
    }
    if len < body.len() as u64 {
        return Err(CkptError::TrailingBytes(body.len() - len as usize));
    }
    Ok((header, body.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ShardHeader {
        ShardHeader {
            rank: 3,
            of_ranks: 16,
            step: 40,
            time: 12.5,
        }
    }

    #[test]
    fn shard_roundtrip_and_header_validation() {
        let payload: Vec<u8> = (0..77u8).collect();
        let bytes = save_shard(&header(), &payload);
        assert_eq!(load_shard(&bytes), Ok((header(), payload.clone())));
        // A rank at-or-beyond the world size is a corrupt header even if
        // the crc (recomputed here) is formally valid.
        let mut bad = header();
        bad.rank = bad.of_ranks;
        let why = CkptError::BadEncoding("shard rank out of range");
        assert_eq!(load_shard(&save_shard(&bad, &payload)), Err(why));
    }

    /// A valid-CRC shard frame whose payload is `bytes` as given.
    fn crafted(bytes: &[u8]) -> Vec<u8> {
        frame(|out| out.extend_from_slice(bytes))
    }

    #[test]
    fn hostile_shard_lengths_are_typed_errors() {
        let head = header().to_bytes();
        let with_len = |len: u64| [&head[..], &len.to_le_bytes(), &[7u8; 16]].concat();
        for (len, want) in [
            (u64::MAX, Err(CkptError::Truncated)),
            (17, Err(CkptError::Truncated)),
            (10, Err(CkptError::TrailingBytes(6))),
            (16, Ok((header(), vec![7u8; 16]))),
        ] {
            assert_eq!(load_shard(&crafted(&with_len(len))), want, "length {len}");
        }
        // A header or length prefix cut short behind a valid CRC.
        assert_eq!(load_shard(&crafted(&head[..20])), Err(CkptError::Truncated));
        assert_eq!(
            load_shard(&crafted(&with_len(0)[..31])),
            Err(CkptError::Truncated)
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
}
