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
    // An id takes a byte at least: refuse a count before it sizes a Vec.
    if n > bytes.len() {
        return Err(StoreError::BadEncoding("id count exceeds the column"));
    }
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
/// every value, planes concatenated low to high. A plane at a time:
/// sequential stores the compiler turns into vector narrowing.
pub fn shuffle_f64(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for k in 0..8 {
        out.extend(values.iter().map(|v| (v.to_bits() >> (8 * k)) as u8));
    }
    out
}

/// Invert [`shuffle_f64`], handing each row's value to `put(row, value)`;
/// `bytes` must be whole rows, checked against the row count by the caller.
pub fn unshuffle_f64(bytes: &[u8], mut put: impl FnMut(usize, f64)) {
    let n = bytes.len() / 8;
    assert_eq!(bytes.len(), n * 8, "a shuffled f64 column is whole rows");
    let planes: [&[u8]; 8] = std::array::from_fn(|k| &bytes[k * n..][..n]);
    for i in 0..n {
        let bits = planes
            .iter()
            .rev()
            .fold(0, |bits, p| bits << 8 | u64::from(p[i]));
        put(i, f64::from_bits(bits));
    }
}

/// The little-endian word at `bytes[at..at + 8]`.
fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// First index at or after `i` where `a` and `b` differ, or their
/// length: the end of a zero run of `a ^ b`, found a word at a time.
fn zero_run_end(a: &[u8], b: &[u8], mut i: usize) -> usize {
    while i + 8 <= a.len() {
        let x = word(a, i) ^ word(b, i);
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < a.len() && a[i] == b[i] {
        i += 1;
    }
    i
}

/// XOR `new` against `base` and run-length encode the result as
/// alternating (zero-run, literal-run) pairs. Both slices must be the
/// same length (same row count, same column).
pub fn xor_rle_encode(base: &[u8], new: &[u8]) -> Vec<u8> {
    assert_eq!(base.len(), new.len(), "xor-rle across column lengths");
    let mut out = Vec::new();
    let (mut i, mut zend) = (0, zero_run_end(base, new, 0));
    while i < new.len() {
        put_varint(&mut out, (zend - i) as u64);
        let lstart = zend;
        // A literal run ends at the next "long enough" zero run: short
        // zero gaps cost less as literals than as a new pair header.
        loop {
            i = zend;
            while i < new.len() && base[i] != new[i] {
                i += 1;
            }
            zend = zero_run_end(base, new, i);
            if zend - i >= 3 || zend == new.len() {
                break;
            }
        }
        put_varint(&mut out, (i - lstart) as u64);
        out.extend((lstart..i).map(|k| base[k] ^ new[k]));
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
    use proptest::prelude::*;

    // The one-byte-a-step codecs this module had before it went
    // word-wise, kept as the references the new ones must equal.

    fn shuffle_reference(values: &[f64]) -> Vec<u8> {
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

    fn unshuffle_reference(bytes: &[u8], n: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut b = [0u8; 8];
            for (k, byte) in b.iter_mut().enumerate() {
                *byte = bytes[k * n + i];
            }
            out.push(f64::from_bits(u64::from_le_bytes(b)));
        }
        out
    }

    fn xor_rle_encode_reference(base: &[u8], new: &[u8]) -> Vec<u8> {
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

    fn unshuffled(bytes: &[u8]) -> Vec<f64> {
        let mut out = vec![0.0; bytes.len() / 8];
        unshuffle_f64(bytes, |r, v| out[r] = v);
        out
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Both shuffles, both unshuffles, on one column.
    fn shuffles_agree(values: &[f64]) {
        let enc = shuffle_f64(values);
        assert_eq!(enc, shuffle_reference(values));
        let dec = unshuffled(&enc);
        assert_eq!(bits(&dec), bits(values));
        assert_eq!(bits(&dec), bits(&unshuffle_reference(&enc, values.len())));
    }

    /// Both encoders on one (base, new) pair, and the way back.
    fn xor_rles_agree(base: &[u8], new: &[u8]) {
        let rle = xor_rle_encode(base, new);
        assert_eq!(rle, xor_rle_encode_reference(base, new));
        assert_eq!(xor_rle_decode(base, &rle).unwrap(), new);
    }

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
            -f64::NAN,
        ];
        // Every length, so the special values sit in a block and in
        // the scalar tail.
        for n in 0..=values.len() {
            shuffles_agree(&values[..n]);
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

    #[test]
    fn zero_runs_straddling_word_boundaries_encode_as_before() {
        // One zero run of every length at every start in a column that
        // otherwise differs everywhere, then two runs a short gap apart
        // (the "cheaper as literals" rule), across three words.
        let base = [0x5Au8; 29];
        for start in 0..base.len() {
            for len in 0..=base.len() - start {
                let mut new = base.map(|b| !b);
                new[start..start + len].copy_from_slice(&base[start..start + len]);
                xor_rles_agree(&base, &new);
                for at in (start + len + 1..start + len + 4).filter(|at| at + 2 <= base.len()) {
                    let mut two = new;
                    two[at..at + 2].copy_from_slice(&base[at..at + 2]);
                    xor_rles_agree(&base, &two);
                }
            }
        }
        // An unchanged generation and one with no byte in common.
        xor_rles_agree(&base, &base);
        xor_rles_agree(&base, &base.map(|b| !b));
        xor_rles_agree(&[], &[]);
    }

    proptest! {
        #[test]
        fn word_wise_shuffles_equal_the_bytewise_references(
            // Raw bit patterns: NaN payloads, both zeros, subnormals.
            raw in prop::collection::vec(0u64..=u64::MAX, 0..70),
            same in 0u64..=u64::MAX,
        ) {
            let values: Vec<f64> = raw.iter().map(|&b| f64::from_bits(b)).collect();
            shuffles_agree(&values);
            shuffles_agree(&vec![f64::from_bits(same); raw.len()]);
        }

        #[test]
        fn word_wise_xor_rle_equals_the_bytewise_reference(
            // One byte in four differs, so zero runs of every short
            // length fall at every alignment.
            column in prop::collection::vec((0u8..=255, 1u8..=255, 0u8..4), 0..200),
        ) {
            let base: Vec<u8> = column.iter().map(|c| c.0).collect();
            let new: Vec<u8> = column
                .iter()
                .map(|&(b, x, gate)| if gate == 0 { b ^ x } else { b })
                .collect();
            xor_rles_agree(&base, &new);
        }
    }
}
