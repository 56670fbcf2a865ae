//! Per-column codecs. A cell chunk is one column of one cell:
//!
//! * **ids** — the cell's ids sorted ascending, encoded as a varint
//!   first value followed by varint strictly-positive deltas. Morton
//!   order clusters ids created together, so deltas are small.
//! * **f64** — raw IEEE-754 bits, byte-shuffled: plane `k` holds byte
//!   `k` of every value. Neighbouring values share exponent and high
//!   mantissa bytes, so planes are highly repetitive — and, more
//!   importantly, the XOR of two generations' shuffled planes is mostly
//!   zero, which the delta RLE exploits. Bit-exact for every f64,
//!   including NaN payloads and -0.0.
//! * **xor-rle** — a dirty column in an incremental delta: the XOR of
//!   the new and base shuffled payloads, run-length encoded as
//!   alternating (zero-run, literal-run) varint pairs.

use crate::varint::{get_varint, put_varint};
use crate::StoreError;

/// Encode a sorted-ascending id column.
pub fn encode_ids(ids: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ids.len() * 2 + 8);
    if let Some(&first) = ids.first() {
        put_varint(&mut out, first);
        let mut prev = first;
        for &id in &ids[1..] {
            debug_assert!(id > prev, "cell ids must be strictly ascending");
            put_varint(&mut out, id - prev);
            prev = id;
        }
    }
    out
}

/// Decode an id column of `n` entries; enforces strict ascent so a
/// corrupted chunk cannot smuggle duplicate or reordered ids.
pub fn decode_ids(bytes: &[u8], n: usize) -> Result<Vec<u64>, StoreError> {
    let mut ids = Vec::with_capacity(n);
    let mut pos = 0;
    if n > 0 {
        let mut prev = get_varint(bytes, &mut pos)?;
        ids.push(prev);
        for _ in 1..n {
            let delta = get_varint(bytes, &mut pos)?;
            if delta == 0 {
                return Err(StoreError::BadEncoding("id delta of zero"));
            }
            prev = prev
                .checked_add(delta)
                .ok_or(StoreError::BadEncoding("id delta overflows u64"))?;
            ids.push(prev);
        }
    }
    if pos != bytes.len() {
        return Err(StoreError::BadEncoding("trailing bytes after id column"));
    }
    Ok(ids)
}

/// Byte-shuffle an f64 column: output plane `k` is byte `k` (LE) of
/// every value, planes concatenated low to high.
pub fn shuffle_f64(values: &[f64]) -> Vec<u8> {
    let n = values.len();
    let mut out = vec![0u8; n * 8];
    for (i, v) in values.iter().enumerate() {
        let b = v.to_bits().to_le_bytes();
        for (k, &byte) in b.iter().enumerate() {
            out[k * n + i] = byte;
        }
    }
    out
}

/// Invert [`shuffle_f64`]; `bytes` must be exactly `8 * n` long.
pub fn unshuffle_f64(bytes: &[u8], n: usize) -> Result<Vec<f64>, StoreError> {
    if bytes.len() != n * 8 {
        return Err(StoreError::BadEncoding("f64 column length mismatch"));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut b = [0u8; 8];
        for (k, byte) in b.iter_mut().enumerate() {
            *byte = bytes[k * n + i];
        }
        out.push(f64::from_bits(u64::from_le_bytes(b)));
    }
    Ok(out)
}

/// XOR `new` against `base` and run-length encode the result as
/// alternating (zero-run, literal-run) pairs. Both slices must be the
/// same length (same row count, same column).
pub fn xor_rle_encode(base: &[u8], new: &[u8]) -> Vec<u8> {
    debug_assert_eq!(base.len(), new.len());
    let x: Vec<u8> = base.iter().zip(new).map(|(a, b)| a ^ b).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < x.len() {
        let zstart = i;
        while i < x.len() && x[i] == 0 {
            i += 1;
        }
        put_varint(&mut out, (i - zstart) as u64);
        let lstart = i;
        // A literal run ends at the next "long enough" zero run: short
        // zero gaps cost less as literals than as a new pair header.
        while i < x.len() {
            if x[i] == 0 {
                let mut j = i;
                while j < x.len() && x[j] == 0 {
                    j += 1;
                }
                if j - i >= 3 || j == x.len() {
                    break;
                }
                i = j;
            } else {
                i += 1;
            }
        }
        put_varint(&mut out, (i - lstart) as u64);
        out.extend_from_slice(&x[lstart..i]);
    }
    out
}

/// Decode an xor-rle payload against its base, producing the new
/// column bytes. `base.len()` fixes the expected decoded length.
pub fn xor_rle_decode(base: &[u8], rle: &[u8]) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::with_capacity(base.len());
    let mut pos = 0;
    while out.len() < base.len() {
        let zeros = get_varint(rle, &mut pos)? as usize;
        let lits = get_varint(rle, &mut pos)? as usize;
        let end = out
            .len()
            .checked_add(zeros)
            .and_then(|n| n.checked_add(lits));
        if end.is_none_or(|end| end > base.len()) {
            return Err(StoreError::BadEncoding("xor-rle overruns the column"));
        }
        out.resize(out.len() + zeros, 0);
        let lit = rle
            .get(pos..pos + lits)
            .ok_or(StoreError::BadEncoding("xor-rle literals truncated"))?;
        out.extend_from_slice(lit);
        pos += lits;
    }
    if pos != rle.len() {
        return Err(StoreError::BadEncoding("trailing bytes after xor-rle"));
    }
    for (o, b) in out.iter_mut().zip(base) {
        *o ^= b;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        let ids = vec![3, 4, 9, 1000, 1001, u64::MAX];
        let enc = encode_ids(&ids);
        assert_eq!(decode_ids(&enc, ids.len()).unwrap(), ids);
        assert!(decode_ids(&enc, ids.len() - 1).is_err());
        assert_eq!(decode_ids(&[], 0).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn f64_roundtrip_preserves_bits() {
        let values = vec![
            0.0,
            -0.0,
            1.5,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
        ];
        let enc = shuffle_f64(&values);
        let dec = unshuffle_f64(&enc, values.len()).unwrap();
        for (a, b) in values.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn xor_rle_roundtrips_and_shrinks_similar_columns() {
        let base: Vec<f64> = (0..64).map(|i| 1.0 + i as f64 * 0.125).collect();
        let new: Vec<f64> = base.iter().map(|v| v + 1e-9).collect();
        let (b, n) = (shuffle_f64(&base), shuffle_f64(&new));
        let rle = xor_rle_encode(&b, &n);
        assert_eq!(xor_rle_decode(&b, &rle).unwrap(), n);
        assert!(rle.len() < n.len(), "{} !< {}", rle.len(), n.len());
    }
}
