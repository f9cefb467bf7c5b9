//! Per-column compression codecs for store format v2.
//!
//! Each v2 chunk stores its columns individually encoded and concatenated;
//! the footer entry carries one [`ColumnCodec`] tag per column (codec id,
//! encoded length, CRC32 of the encoded bytes), so a reader can locate and
//! verify any single column without touching the rest of the chunk.
//!
//! Two codecs beyond [`Codec::Raw`], both zero-dependency:
//!
//! * [`Codec::DeltaVarint`] — zigzag delta + LEB128 varint over `u32`
//!   columns. The generators emit edges roughly in vertex-attachment order,
//!   so the `SRC` endpoint column is near-sorted and deltas are tiny; a
//!   near-sorted column costs ~1 byte per record instead of 4.
//! * [`Codec::Dict`] — per-chunk dictionary in first-appearance order with
//!   bit-packed indices (2/4/8/16 bits for dictionaries of ≤4/≤16/≤256/≤4096
//!   entries). Low-cardinality columns (protocol, TCP state, ports) collapse
//!   to a fraction of a byte per record.
//!
//! The encoder sizes every candidate first — a sum of varint widths, a
//! dictionary built through a fixed open-addressed table — and writes only
//! the smallest, `Raw` included, so a hostile column (random `DST` endpoints,
//! high-cardinality ports) never regresses past the v1 size and costs one
//! linear pass to turn down. Decoding is total: every length, shift, and
//! dictionary index is bounds-checked and malformed input surfaces as
//! [`CsbError::Corrupt`](crate::error::CsbError), never a panic.

use crate::crc32::crc32;
use crate::format::{chunk_schema, corrupt, ChunkKind, StoreError};

/// Largest dictionary [`Codec::Dict`] will build; columns with more distinct
/// values fall back to [`Codec::Raw`].
pub const MAX_DICT_ENTRIES: usize = 4096;

/// How a column's bytes are stored inside a v2 chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Little-endian fixed-width values, exactly as in format v1.
    Raw,
    /// Zigzag deltas between consecutive values, LEB128 varint encoded.
    DeltaVarint,
    /// Dictionary in first-appearance order + bit-packed indices.
    Dict,
}

impl Codec {
    /// Stable byte code (written into v2 footer entries).
    pub const fn code(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::DeltaVarint => 1,
            Codec::Dict => 2,
        }
    }

    /// Inverse of [`Codec::code`].
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Codec::Raw),
            1 => Some(Codec::DeltaVarint),
            2 => Some(Codec::Dict),
            _ => None,
        }
    }
}

/// Per-column codec tag in a v2 footer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnCodec {
    /// How the column is encoded.
    pub codec: Codec,
    /// Encoded length in bytes.
    pub enc_len: u32,
    /// CRC32 (IEEE) of the encoded bytes.
    pub crc32: u32,
}

/// Whether a sink compresses its chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Format v1: raw column-major chunks.
    #[default]
    None,
    /// Format v2: per-column codecs, smallest-wins against raw.
    Columnar,
}

impl Compression {
    /// Parses the CLI spelling (`raw` / `columnar`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "raw" => Some(Compression::None),
            "columnar" => Some(Compression::Columnar),
            _ => None,
        }
    }

    /// CLI spelling.
    pub const fn name(self) -> &'static str {
        match self {
            Compression::None => "raw",
            Compression::Columnar => "columnar",
        }
    }

    /// The store format version this mode writes.
    pub const fn version(self) -> u32 {
        match self {
            Compression::None => crate::format::FORMAT_VERSION,
            Compression::Columnar => crate::format::FORMAT_VERSION_V2,
        }
    }
}

const fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

const fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(buf: &[u8], pos: &mut usize, at: u64) -> Result<u64, StoreError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b =
            buf.get(*pos).ok_or_else(|| corrupt(at, "truncated varint (column ends mid-value)"))?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(corrupt(at, "varint overflows 64 bits"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(corrupt(at, "varint longer than 10 bytes"));
        }
    }
}

/// Reads column values as u64 for codec-side processing (input is a raw
/// little-endian column of `n` values, `width` bytes each).
fn raw_values(raw: &[u8], width: usize) -> impl Iterator<Item = u64> + '_ {
    // The schema's widths are single loads; the rest go through a copy.
    raw.chunks_exact(width).map(move |c| match *c {
        [a] => u64::from(a),
        [a, b] => u64::from(u16::from_le_bytes([a, b])),
        [a, b, c, d] => u64::from(u32::from_le_bytes([a, b, c, d])),
        [a, b, c, d, e, f, g, h] => u64::from_le_bytes([a, b, c, d, e, f, g, h]),
        _ => {
            let mut v = [0u8; 8];
            v[..width].copy_from_slice(c);
            u64::from_le_bytes(v)
        }
    })
}

fn push_value(out: &mut Vec<u8>, v: u64, width: usize) {
    out.extend_from_slice(&v.to_le_bytes()[..width]);
}

/// Bytes [`write_varint`] emits for `v`: one per started group of 7 bits.
const fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// The zigzag deltas of a column. Deltas live in the wrapping u64 domain
/// reinterpreted as i64: small steps in either direction zigzag to short
/// varints, and full-width values cannot overflow the subtraction.
fn zigzag_deltas(raw: &[u8], width: usize) -> impl Iterator<Item = u64> + '_ {
    raw_values(raw, width).scan(0u64, |prev, v| {
        let delta = v.wrapping_sub(*prev) as i64;
        *prev = v;
        Some(zigzag_encode(delta))
    })
}

/// Length of what [`encode_delta_varint`] appends, without building it.
fn delta_varint_len(raw: &[u8], width: usize) -> usize {
    zigzag_deltas(raw, width).map(varint_len).sum()
}

fn encode_delta_varint(raw: &[u8], width: usize, out: &mut Vec<u8>) {
    for d in zigzag_deltas(raw, width) {
        write_varint(out, d);
    }
}

fn decode_delta_varint(enc: &[u8], width: usize, n: usize, at: u64) -> Result<Vec<u8>, StoreError> {
    let max = if width == 8 { u64::MAX } else { (1u64 << (8 * width)) - 1 };
    // A value takes at least one byte, which bounds what is reserved below.
    if n > enc.len() {
        return Err(corrupt(at, "delta-varint column shorter than its record count"));
    }
    let mut out = Vec::with_capacity(n * width);
    let mut pos = 0usize;
    let mut prev = 0u64;
    for _ in 0..n {
        let d = zigzag_decode(read_varint(enc, &mut pos, at)?);
        let v = prev.wrapping_add(d as u64);
        if v > max {
            return Err(corrupt(at, format!("delta-decoded value {v} out of column range")));
        }
        push_value(&mut out, v, width);
        prev = v;
    }
    if pos != enc.len() {
        return Err(corrupt(at, "trailing bytes after delta-varint column"));
    }
    Ok(out)
}

/// Index width in bits for a dictionary of `len` entries.
fn index_bits(len: usize) -> u8 {
    match len {
        0..=4 => 2,
        5..=16 => 4,
        17..=256 => 8,
        _ => 16,
    }
}

/// Slots of the table [`Dictionary::build`] finds values through: twice
/// [`MAX_DICT_ENTRIES`], so probe runs stay short at the largest dictionary.
const DICT_SLOTS: usize = 2 * MAX_DICT_ENTRIES;

/// The home slot of `v`: the top bits of a multiplicative (Fibonacci) hash.
const fn dict_slot(v: u64) -> usize {
    (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - DICT_SLOTS.trailing_zeros())) as usize
}

/// A column's distinct values in first-appearance order, and each record's
/// index into them.
struct Dictionary {
    entries: Vec<u64>,
    indices: Vec<u16>,
}

impl Dictionary {
    /// `None` when the column exceeds [`MAX_DICT_ENTRIES`] distinct values, or
    /// needs so many that its dictionary encoding cannot come out shorter
    /// than `limit` bytes: found out at the first value that settles either.
    fn build(raw: &[u8], width: usize, limit: usize) -> Option<Self> {
        let n = raw.len() / width;
        let mut entries: Vec<u64> = Vec::new();
        let mut indices: Vec<u16> = Vec::with_capacity(n);
        // Open addressing with linear probing; a slot holds an entry's index
        // plus one, 0 meaning empty. At most half the slots ever fill.
        let mut slots = [0u16; DICT_SLOTS];
        for v in raw_values(raw, width) {
            let mut slot = dict_slot(v);
            let idx = loop {
                match slots[slot] {
                    0 => {
                        // The encoded length only grows with the entries.
                        if entries.len() == MAX_DICT_ENTRIES
                            || Self::encoded_len(entries.len() + 1, n, width) >= limit
                        {
                            return None;
                        }
                        entries.push(v);
                        slots[slot] = entries.len() as u16;
                        break entries.len() - 1;
                    }
                    held if entries[held as usize - 1] == v => break held as usize - 1,
                    _ => slot = (slot + 1) % DICT_SLOTS,
                }
            };
            indices.push(idx as u16);
        }
        Some(Dictionary { entries, indices })
    }

    /// Bytes [`Dictionary::encode`] writes for `n` records over `entries`
    /// distinct values.
    fn encoded_len(entries: usize, n: usize, width: usize) -> usize {
        3 + entries * width + (n * index_bits(entries) as usize).div_ceil(8)
    }

    /// Dictionary layout: `[dict_len u16][index_bits u8][entries dict_len×width]
    /// [indices ceil(n×bits/8)]`, indices packed little-endian within each
    /// byte.
    fn encode(&self, width: usize, out: &mut Vec<u8>) {
        let bits = index_bits(self.entries.len());
        out.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        out.push(bits);
        for &d in &self.entries {
            push_value(out, d, width);
        }
        let mut acc = 0u32;
        let mut filled = 0u8;
        for &i in &self.indices {
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
    }
}

fn decode_dict(enc: &[u8], width: usize, n: usize, at: u64) -> Result<Vec<u8>, StoreError> {
    if enc.len() < 3 {
        return Err(corrupt(at, "dictionary column shorter than its header"));
    }
    let dict_len = u16::from_le_bytes([enc[0], enc[1]]) as usize;
    let bits = enc[2];
    if dict_len > MAX_DICT_ENTRIES || (n > 0 && dict_len == 0) {
        return Err(corrupt(at, format!("dictionary of {dict_len} entries out of range")));
    }
    if bits != index_bits(dict_len) {
        return Err(corrupt(at, format!("index width {bits} disagrees with dictionary size")));
    }
    let entries_end = 3 + dict_len * width;
    // An index takes at least two bits, so passing this check bounds `n`,
    // and what is reserved below, by the input's length.
    let packed_len = n.checked_mul(bits as usize).map(|b| b.div_ceil(8));
    if Some(enc.len()) != packed_len.and_then(|p| p.checked_add(entries_end)) {
        return Err(corrupt(at, "dictionary column length mismatch"));
    }
    let dict: Vec<u64> = raw_values(&enc[3..entries_end], width).collect();
    let packed = &enc[entries_end..];
    let mut out = Vec::with_capacity(n * width);
    let mask = if bits == 16 { 0xFFFFu32 } else { (1u32 << bits) - 1 };
    let mut acc = 0u32;
    let mut avail = 0u8;
    let mut next = 0usize;
    for _ in 0..n {
        while avail < bits {
            acc |= u32::from(packed[next]) << avail;
            next += 1;
            avail += 8;
        }
        let idx = (acc & mask) as usize;
        acc >>= bits;
        avail -= bits;
        let &v = dict
            .get(idx)
            .ok_or_else(|| corrupt(at, format!("dictionary index {idx} out of range")))?;
        push_value(&mut out, v, width);
    }
    Ok(out)
}

/// Encodes one raw column (values of 1 to 8 bytes) onto the end of `out`
/// with the smallest of the candidate codecs. Candidates are sized before any
/// is built and tried in the order raw, delta-varint, dictionary, a later one
/// winning only when strictly smaller: ties (and pathological inputs) keep
/// [`Codec::Raw`], so an encoded column is never larger than its raw form.
pub fn encode_column(raw: &[u8], width: usize, out: &mut Vec<u8>) -> Codec {
    let mut best = (Codec::Raw, raw.len());
    let dv_len = delta_varint_len(raw, width);
    if dv_len < best.1 {
        best = (Codec::DeltaVarint, dv_len);
    }
    let dict = Dictionary::build(raw, width, best.1);
    if let Some(dict) = &dict {
        let len = Dictionary::encoded_len(dict.entries.len(), dict.indices.len(), width);
        if len < best.1 {
            best = (Codec::Dict, len);
        }
    }
    let start = out.len();
    match best.0 {
        Codec::Raw => out.extend_from_slice(raw),
        Codec::DeltaVarint => encode_delta_varint(raw, width, out),
        Codec::Dict => dict.expect("sized above").encode(width, out),
    }
    debug_assert_eq!(out.len() - start, best.1, "{:?} was sized wrong", best.0);
    best.0
}

/// Decodes one column back to raw little-endian fixed-width bytes.
pub fn decode_column(
    codec: Codec,
    enc: &[u8],
    width: usize,
    n: usize,
    at: u64,
) -> Result<Vec<u8>, StoreError> {
    match codec {
        Codec::Raw => {
            if Some(enc.len()) != n.checked_mul(width) {
                return Err(corrupt(at, "raw column length mismatch"));
            }
            Ok(enc.to_vec())
        }
        Codec::DeltaVarint => decode_delta_varint(enc, width, n, at),
        Codec::Dict => decode_dict(enc, width, n, at),
    }
}

/// Splits a raw column-major chunk payload into per-column encodings,
/// returning the concatenated stored bytes and one [`ColumnCodec`] per
/// schema column. Emits `store.cols_*` counters so the codec mix of a run
/// shows up in the metrics snapshot.
pub fn encode_chunk_columns(
    kind: ChunkKind,
    records: u64,
    raw_payload: &[u8],
) -> (Vec<u8>, Vec<ColumnCodec>) {
    let schema = chunk_schema(kind);
    let n = records as usize;
    debug_assert_eq!(raw_payload.len(), n * kind.record_width());
    let mut stored = Vec::with_capacity(raw_payload.len() / 2);
    let mut columns = Vec::with_capacity(schema.len());
    let mut off = 0usize;
    for c in schema {
        let raw = &raw_payload[off..off + n * c.width];
        off += n * c.width;
        let start = stored.len();
        let codec = encode_column(raw, c.width, &mut stored);
        let enc = &stored[start..];
        let counter = match codec {
            Codec::Raw => "store.cols_raw",
            Codec::DeltaVarint => "store.cols_delta",
            Codec::Dict => "store.cols_dict",
        };
        csb_obs::counter_add(counter, 1);
        columns.push(ColumnCodec { codec, enc_len: enc.len() as u32, crc32: crc32(enc) });
    }
    csb_obs::counter_add("store.enc_bytes_saved", (raw_payload.len() - stored.len()) as u64);
    (stored, columns)
}

/// Decodes a v2 stored chunk back to its raw column-major payload.
pub fn decode_chunk_columns(
    kind: ChunkKind,
    records: u64,
    stored: &[u8],
    columns: &[ColumnCodec],
    at: u64,
) -> Result<Vec<u8>, StoreError> {
    let schema = chunk_schema(kind);
    if columns.len() != schema.len() {
        return Err(corrupt(
            at,
            format!("chunk has {} column tags, schema has {}", columns.len(), schema.len()),
        ));
    }
    // The densest codec spends two bits on a value, so no column of `records`
    // values fits in fewer than a quarter as many bytes: the count is bounded
    // by the input before anything is reserved for it.
    let n = usize::try_from(records)
        .ok()
        .filter(|n| n.div_ceil(4) <= stored.len())
        .ok_or_else(|| corrupt(at, "chunk claims more records than its stored bytes can hold"))?;
    let mut raw = Vec::with_capacity(n * kind.record_width());
    let mut off = 0usize;
    for (c, tag) in schema.iter().zip(columns) {
        let end = off + tag.enc_len as usize;
        let enc = stored
            .get(off..end)
            .ok_or_else(|| corrupt(at, "column directory overruns the stored chunk"))?;
        raw.extend_from_slice(&decode_column(tag.codec, enc, c.width, n, at)?);
        off = end;
    }
    if off != stored.len() {
        return Err(corrupt(at, "trailing bytes after the last encoded column"));
    }
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_u32(vals: &[u32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn delta_varint_round_trips_and_compresses_sorted() {
        let vals: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let raw = raw_u32(&vals);
        let mut enc = Vec::new();
        encode_delta_varint(&raw, 4, &mut enc);
        assert_eq!(enc.len(), delta_varint_len(&raw, 4));
        assert!(enc.len() * 3 < raw.len(), "near-sorted column must shrink");
        assert_eq!(decode_delta_varint(&enc, 4, vals.len(), 0).unwrap(), raw);
    }

    #[test]
    fn dict_round_trips_low_cardinality() {
        let vals: Vec<u32> = (0..5000).map(|i| [6, 17, 1][i % 3]).collect();
        let raw = raw_u32(&vals);
        let dict = Dictionary::build(&raw, 4, raw.len()).expect("3 distinct values");
        assert_eq!(dict.entries, [6, 17, 1], "first-appearance order");
        let mut enc = Vec::new();
        dict.encode(4, &mut enc);
        assert_eq!(enc.len(), Dictionary::encoded_len(3, vals.len(), 4));
        assert!(enc.len() * 10 < raw.len(), "2-bit indices over 3 entries");
        assert_eq!(decode_dict(&enc, 4, vals.len(), 0).unwrap(), raw);
    }

    #[test]
    fn dict_refuses_high_cardinality() {
        let mut vals: Vec<u32> = (0..MAX_DICT_ENTRIES as u32).collect();
        let full = Dictionary::build(&raw_u32(&vals), 4, usize::MAX).expect("exactly at the limit");
        assert_eq!(full.entries.len(), MAX_DICT_ENTRIES);
        vals.push(MAX_DICT_ENTRIES as u32);
        assert!(Dictionary::build(&raw_u32(&vals), 4, usize::MAX).is_none());
    }

    #[test]
    fn dict_gives_up_once_it_cannot_come_in_under_the_limit() {
        // 300 distinct u16s: from entry 257 on, an index is as wide as a value.
        let vals: Vec<u16> = (0..1000).map(|i| i % 300).collect();
        let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert!(Dictionary::build(&raw, 2, raw.len()).is_none(), "cannot beat raw");
        let len = Dictionary::encoded_len(300, vals.len(), 2);
        assert!(Dictionary::build(&raw, 2, len).is_none(), "a tie keeps the earlier codec");
        let dict = Dictionary::build(&raw, 2, len + 1).expect("strictly smaller");
        assert_eq!(dict.entries.len(), 300);
    }

    #[test]
    fn dict_keeps_colliding_values_apart() {
        // A full dictionary of values that all share one home slot: the
        // longest probe run the table can see.
        let vals: Vec<u64> =
            (0u64..).filter(|&v| dict_slot(v) == 5).take(MAX_DICT_ENTRIES).collect();
        let raw: Vec<u8> = vals.iter().chain(&vals).flat_map(|v| v.to_le_bytes()).collect();
        let dict = Dictionary::build(&raw, 8, usize::MAX).expect("at the limit");
        assert_eq!(dict.entries, vals);
        let twice: Vec<u16> =
            (0..MAX_DICT_ENTRIES as u16).chain(0..MAX_DICT_ENTRIES as u16).collect();
        assert_eq!(dict.indices, twice);
    }

    #[test]
    fn varint_len_matches_write_varint() {
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1, u64::MAX >> shift] {
                let mut out = Vec::new();
                write_varint(&mut out, v);
                assert_eq!(varint_len(v), out.len(), "{v:#x}");
            }
        }
    }

    #[test]
    fn encode_column_never_beats_raw_size_upward() {
        let mut rng_state = 0x1234_5678u64;
        let vals: Vec<u32> = (0..4096)
            .map(|_| {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (rng_state >> 32) as u32
            })
            .collect();
        let raw = raw_u32(&vals);
        let mut enc = Vec::new();
        let codec = encode_column(&raw, 4, &mut enc);
        assert!(enc.len() <= raw.len());
        assert_eq!(decode_column(codec, &enc, 4, vals.len(), 0).unwrap(), raw);
    }

    #[test]
    fn truncated_varint_is_corrupt_not_panic() {
        let raw = raw_u32(&[1, 1000, 5]);
        let mut enc = Vec::new();
        encode_delta_varint(&raw, 4, &mut enc);
        enc.pop();
        let err = decode_delta_varint(&enc, 4, 3, 7).expect_err("truncated");
        assert!(matches!(err, crate::error::CsbError::Corrupt { offset: 7, .. }), "got {err}");
    }

    #[test]
    fn out_of_range_dict_index_is_corrupt_not_panic() {
        // 1-entry dictionary but an index word of 1: byte-pack [dict_len=1,
        // bits=2, entry, indices=0b01].
        let mut enc = vec![1u8, 0, 2];
        enc.extend_from_slice(&42u32.to_le_bytes());
        enc.push(0b01);
        let err = decode_dict(&enc, 4, 1, 3).expect_err("index out of range");
        assert!(matches!(err, crate::error::CsbError::Corrupt { offset: 3, .. }), "got {err}");
    }

    #[test]
    fn chunk_columns_round_trip() {
        use csb_graph::EdgeProperties;
        let n = 300u64;
        let props: Vec<EdgeProperties> = (0..n).map(|_| EdgeProperties::placeholder()).collect();
        let src: Vec<u32> = (0..n as u32).collect();
        let dst: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        // The raw payload of the one edge chunk a v1 store of these records holds.
        let writer = crate::StoreWriter::new(Vec::new(), crate::FileKind::Graph).unwrap();
        let mut sink = crate::StoreSink::new(writer);
        crate::EdgeSink::push_edges(&mut sink, &src, &dst, &props).unwrap();
        let file = std::io::Cursor::new(sink.finish().unwrap());
        let raw = crate::StoreReader::new(file).unwrap().read_chunk_payload(0).unwrap();
        let (stored, cols) = encode_chunk_columns(ChunkKind::Edge, n, &raw);
        assert_eq!(cols.len(), 11);
        assert!(stored.len() < raw.len(), "placeholder props are highly compressible");
        let back = decode_chunk_columns(ChunkKind::Edge, n, &stored, &cols, 0).unwrap();
        assert_eq!(back, raw);
    }
}
