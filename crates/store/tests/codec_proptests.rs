//! Property-based tests for the v2 column codecs: every encode→decode round
//! trip is the identity, encoded columns never exceed their raw form, the
//! encoder picks the codec and writes the bytes its quadratic predecessor did,
//! and arbitrary (hostile) bytes decode to `Corrupt` errors — never a panic,
//! never an out-of-range value silently accepted.

use csb_store::codec::{
    decode_chunk_columns, decode_column, encode_chunk_columns, encode_column, Codec,
};
use csb_store::{ChunkKind, CsbError};
use proptest::prelude::*;

/// [`encode_column`] into a buffer of its own.
fn encode(raw: &[u8], width: usize) -> (Codec, Vec<u8>) {
    let mut enc = Vec::new();
    let codec = encode_column(raw, width, &mut enc);
    (codec, enc)
}

/// The encoder as it stood when store format v2 shipped, kept verbatim as the
/// oracle: every candidate built in full, the dictionary searched linearly.
mod oracle {
    use csb_store::codec::{Codec, MAX_DICT_ENTRIES};

    const fn zigzag_encode(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    fn write_varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push((v as u8) | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    fn raw_values(raw: &[u8], width: usize) -> impl Iterator<Item = u64> + '_ {
        raw.chunks_exact(width).map(move |c| {
            let mut v = [0u8; 8];
            v[..width].copy_from_slice(c);
            u64::from_le_bytes(v)
        })
    }

    fn push_value(out: &mut Vec<u8>, v: u64, width: usize) {
        out.extend_from_slice(&v.to_le_bytes()[..width]);
    }

    fn encode_delta_varint(raw: &[u8], width: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(raw.len() / 2);
        let mut prev = 0u64;
        for v in raw_values(raw, width) {
            write_varint(&mut out, zigzag_encode(v.wrapping_sub(prev) as i64));
            prev = v;
        }
        out
    }

    fn index_bits(len: usize) -> u8 {
        match len {
            0..=4 => 2,
            5..=16 => 4,
            17..=256 => 8,
            _ => 16,
        }
    }

    fn encode_dict(raw: &[u8], width: usize) -> Option<Vec<u8>> {
        let n = raw.len() / width;
        let mut dict: Vec<u64> = Vec::new();
        let mut indices: Vec<u16> = Vec::with_capacity(n);
        for v in raw_values(raw, width) {
            let idx = match dict.iter().position(|&d| d == v) {
                Some(i) => i,
                None => {
                    if dict.len() >= MAX_DICT_ENTRIES {
                        return None;
                    }
                    dict.push(v);
                    dict.len() - 1
                }
            };
            indices.push(idx as u16);
        }
        let bits = index_bits(dict.len());
        let mut out = Vec::with_capacity(3 + dict.len() * width + (n * bits as usize).div_ceil(8));
        out.extend_from_slice(&(dict.len() as u16).to_le_bytes());
        out.push(bits);
        for &d in &dict {
            push_value(&mut out, d, width);
        }
        let mut acc = 0u32;
        let mut filled = 0u8;
        for &i in &indices {
            acc |= u32::from(i) << filled;
            filled += bits;
            while filled >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                filled -= 8;
            }
        }
        if filled > 0 {
            out.push(acc as u8);
        }
        Some(out)
    }

    pub fn encode_column(raw: &[u8], width: usize) -> (Codec, Vec<u8>) {
        let mut best = (Codec::Raw, raw.to_vec());
        if width <= 8 {
            let dv = encode_delta_varint(raw, width);
            if dv.len() < best.1.len() {
                best = (Codec::DeltaVarint, dv);
            }
        }
        if let Some(d) = encode_dict(raw, width) {
            if d.len() < best.1.len() {
                best = (Codec::Dict, d);
            }
        }
        best
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// `count` values that all land in one home slot of the encoder's dictionary
/// table, which takes the top 13 bits of `v * MULTIPLIER`: multiply the wanted
/// product by the multiplier's inverse. (Should codec.rs change its hash, the
/// columns built from these stay valid input; they only stop colliding.)
fn colliding_values(count: usize, seed: u64) -> Vec<u64> {
    const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut inverse = MULTIPLIER;
    for _ in 0..6 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(MULTIPLIER.wrapping_mul(inverse)));
    }
    assert_eq!(MULTIPLIER.wrapping_mul(inverse), 1);
    let slot = seed % 8192;
    (0..count as u64).map(|low| ((slot << 51) | (low * 3 + 1)).wrapping_mul(inverse)).collect()
}

/// A raw column of `n` values drawn (by `seed`) from a pool of `distinct`
/// values of one of four shapes.
fn column(shape: usize, width: usize, distinct: usize, n: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    let pool: Vec<u64> = match shape {
        // Small neighbours: short deltas, so the three candidates tie often.
        0 => (0..distinct as u64).collect(),
        // Scattered over the whole width.
        1 => (0..distinct).map(|_| xorshift(&mut s)).collect(),
        // One probe run through the dictionary table.
        2 => colliding_values(distinct, seed),
        // Sorted and far apart: delta-varint's case.
        _ => (0..distinct as u64).map(|i| i * 1_000_003).collect(),
    };
    let mut raw = Vec::with_capacity(n * width);
    for i in 0..n {
        // Every pool value appears, in order, before the draws turn random,
        // so a pool of 4097 is a column of 4097 distinct values.
        let pick = if i < distinct { i } else { (xorshift(&mut s) % distinct as u64) as usize };
        raw.extend_from_slice(&pool[pick].to_le_bytes()[..width]);
    }
    raw
}

fn arb_width() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 2, 4, 8])
}

fn arb_kind() -> impl Strategy<Value = ChunkKind> {
    prop::sample::select(vec![ChunkKind::Vertex, ChunkKind::Edge, ChunkKind::Flow])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any raw column survives whichever codec the encoder picks, and the
    /// pick is never larger than raw.
    #[test]
    fn column_encode_decode_is_identity(
        width in arb_width(),
        values in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let n = values.len() / width;
        let raw = &values[..n * width];
        let (codec, enc) = encode(raw, width);
        prop_assert!(enc.len() <= raw.len(), "{codec:?} grew the column");
        let back = decode_column(codec, &enc, width, n, 0).expect("roundtrip");
        prop_assert_eq!(back.as_slice(), raw);
    }

    /// The encoder picks the codec and writes the bytes the old one did, on
    /// arbitrary bytes at every width.
    #[test]
    fn encoder_matches_the_oracle_on_arbitrary_bytes(
        width in arb_width(),
        values in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let raw = &values[..values.len() / width * width];
        prop_assert_eq!(encode(raw, width), oracle::encode_column(raw, width));
    }

    /// ... and on columns shaped to sit at the dictionary's limits: index
    /// widths changing at 4/16/256 entries, the dictionary full at 4096 and
    /// abandoned at 4097, values that share one slot of the lookup table.
    #[test]
    fn encoder_matches_the_oracle_at_dictionary_limits(
        shape in 0usize..4,
        width in arb_width(),
        distinct in prop::sample::select(vec![1usize, 4, 5, 16, 17, 256, 257, 4095, 4096, 4097, 4500]),
        extra in 0usize..3000,
        seed in any::<u64>(),
    ) {
        let raw = column(shape, width, distinct, distinct + extra, seed);
        prop_assert_eq!(encode(&raw, width), oracle::encode_column(&raw, width));
    }

    /// ... and on short columns of small values, where the candidates tie
    /// (delta-varint and raw at one byte a value, the dictionary's 3-byte
    /// header against what its packing saves) and the earlier one must win.
    #[test]
    fn encoder_matches_the_oracle_on_ties(
        width in prop::sample::select(vec![1usize, 2]),
        values in prop::collection::vec(0u8..6, 0..64),
    ) {
        let raw: Vec<u8> =
            values.iter().flat_map(|&v| u64::from(v).to_le_bytes()[..width].to_vec()).collect();
        prop_assert_eq!(encode(&raw, width), oracle::encode_column(&raw, width));
    }

    /// Low-cardinality columns (the protocol/state/port shape) round-trip
    /// through the dictionary and compress when wide.
    #[test]
    fn low_cardinality_column_roundtrips(
        width in prop::sample::select(vec![2usize, 4, 8]),
        picks in prop::collection::vec(0u8..4, 1..512),
    ) {
        let raw: Vec<u8> = picks
            .iter()
            .flat_map(|&p| {
                let v = [7u64, 99, 1024, 65_000][p as usize];
                v.to_le_bytes()[..width].to_vec()
            })
            .collect();
        let (codec, enc) = encode(&raw, width);
        let back = decode_column(codec, &enc, width, picks.len(), 0).expect("roundtrip");
        prop_assert_eq!(back, raw.clone());
        // ≤4 distinct values bit-pack to 2 bits each: long wide columns
        // must actually shrink.
        if picks.len() >= 256 {
            prop_assert!(enc.len() < raw.len(), "{codec:?}: {} !< {}", enc.len(), raw.len());
        }
    }

    /// A whole chunk payload (any kind) splits, encodes, and reassembles
    /// bit-identically.
    #[test]
    fn chunk_encode_decode_is_identity(
        kind in arb_kind(),
        records in 0usize..200,
        seed in any::<u64>(),
    ) {
        // Deterministic pseudo-random payload from the seed (xorshift) so
        // the case minimizer stays effective.
        let mut s = seed | 1;
        let len = records * kind.record_width();
        let raw: Vec<u8> = (0..len).map(|_| xorshift(&mut s) as u8).collect();
        let (stored, columns) = encode_chunk_columns(kind, records as u64, &raw);
        prop_assert!(stored.len() <= raw.len());
        let back = decode_chunk_columns(kind, records as u64, &stored, &columns, 0)
            .expect("roundtrip");
        prop_assert_eq!(back, raw);
    }

    /// Hostile bytes never panic a decoder: truncated varints, bad
    /// dictionary headers, out-of-range indices — all must surface as
    /// `Err`, and any `Ok` must have the exact expected length. The same
    /// bytes under an inflated record count must be `Corrupt` before anything
    /// is reserved for that count (a reservation of `n * width` for these `n`
    /// overflows or cannot be served, so reaching one fails the test).
    #[test]
    fn arbitrary_bytes_never_panic_decoders(
        codec_code in 0u8..3,
        width in arb_width(),
        n in 0usize..64,
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let codec = Codec::from_code(codec_code).expect("valid code");
        if let Ok(raw) = decode_column(codec, &bytes, width, n, 0) {
            prop_assert_eq!(raw.len(), n * width);
        }
        for inflated in [usize::MAX, usize::MAX / 8, (1 << 44) + n] {
            let err = decode_column(codec, &bytes, width, inflated, 0);
            prop_assert!(matches!(err, Err(CsbError::Corrupt { .. })), "n = {inflated}");
        }
    }

    /// Length fields that promise more than the bytes hold are `Corrupt`.
    #[test]
    fn inflated_length_fields_are_corrupt(width in arb_width(), n in 1usize..5000) {
        // A dictionary header claiming 4096 entries on a 5-byte column.
        let dict = [0x00, 0x10, 16, 0xAA, 0xBB];
        let err = decode_column(Codec::Dict, &dict, width, n, 0);
        prop_assert!(matches!(err, Err(CsbError::Corrupt { .. })));
        // A delta-varint column that is all continuation bytes.
        let err = decode_column(Codec::DeltaVarint, &vec![0x80; n], width, n, 0);
        prop_assert!(matches!(err, Err(CsbError::Corrupt { .. })));
        // A well-formed chunk whose record count is inflated.
        let raw = column(0, 8, 3, n, 7);
        let (stored, columns) = encode_chunk_columns(ChunkKind::Vertex, (n * 2) as u64, &raw);
        prop_assert!(decode_chunk_columns(ChunkKind::Vertex, (n * 2) as u64, &stored, &columns, 0).is_ok());
        for inflated in [u64::MAX, u64::MAX / 64, 1 << 44] {
            let err = decode_chunk_columns(ChunkKind::Vertex, inflated, &stored, &columns, 0);
            prop_assert!(matches!(err, Err(CsbError::Corrupt { .. })), "records = {inflated}");
        }
    }

    /// Truncating a valid encoding at any point decodes to an error (or,
    /// for the raw codec, only when the length no longer matches) — never
    /// to a silently wrong column.
    #[test]
    fn truncated_encodings_are_rejected(
        width in arb_width(),
        values in prop::collection::vec(any::<u8>(), 8..512),
        cut in 0usize..512,
    ) {
        let n = values.len() / width;
        let raw = &values[..n * width];
        let (codec, enc) = encode(raw, width);
        prop_assume!(cut < enc.len());
        match decode_column(codec, &enc[..cut], width, n, 0) {
            Err(_) => {}
            Ok(back) => {
                // A prefix that still decodes cleanly can only happen if it
                // reproduces the exact original column (impossible for a
                // strict prefix of raw, conceivable only for empty input).
                prop_assert_eq!(back.as_slice(), raw);
            }
        }
    }
}

/// The dictionary's limit, exactly: 4096 distinct values build a dictionary
/// (and win, on a column long enough), the 4097th turns it down wherever in
/// the column it appears.
#[test]
fn encoder_matches_the_oracle_at_exactly_4096_and_4097_values() {
    for width in [2usize, 4, 8] {
        for shape in 0..4 {
            for (distinct, n) in [(4096, 4096), (4096, 9000), (4097, 4097), (4097, 9000)] {
                let raw = column(shape, width, distinct, n, 0xC5B);
                let got = encode(&raw, width);
                assert_eq!(
                    got,
                    oracle::encode_column(&raw, width),
                    "{shape}/{width}/{distinct}/{n}"
                );
                if shape == 2 && width == 8 {
                    let want = if distinct == 4096 && n == 9000 { Codec::Dict } else { Codec::Raw };
                    assert_eq!(got.0, want, "{distinct} colliding values over {n} records");
                }
            }
            // The value past the limit arrives last, after a full dictionary.
            let mut raw = column(shape, width, 4096, 9000, 0xC5B);
            raw.extend_from_slice(&u64::MAX.to_le_bytes()[..width]);
            assert_eq!(encode(&raw, width), oracle::encode_column(&raw, width));
        }
    }
}
