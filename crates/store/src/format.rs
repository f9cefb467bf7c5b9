//! On-disk layout of the csb store format, versions 1 and 2.
//!
//! A store file is, in order:
//!
//! ```text
//! file header   magic "CSBSTOR1" (8) | version u32 | kind u8 | 3 reserved     16 bytes
//! chunk*        chunk header (28) | column payload                            variable
//! footer        one index entry per chunk                                     variable
//! trailer       chunk count u64 | footer offset u64 | magic "CSBEND01"        24 bytes
//! ```
//!
//! All integers are **little-endian**. Each chunk's payload is column-major:
//! the columns of [`EDGE_COLUMNS`] / [`FLOW_COLUMNS`] (or the single-column
//! [`VERTEX_COLUMNS`]) concatenated, so a reader can project a subset of
//! columns without touching the other attributes. The chunk header carries a
//! CRC32 (IEEE) of the stored payload; the trailing footer index makes chunk
//! discovery O(1) from the end of the file without scanning.
//!
//! **Version 1** stores each column raw: `records x width` bytes at a
//! computable offset, footer entries a fixed 32 bytes.
//!
//! **Version 2** stores each column individually encoded (see
//! [`crate::codec`]) and appends a column directory to every footer entry:
//! `ncols u8`, then per column `codec u8 | enc_len u32 | crc32 u32`. Column
//! offsets inside a chunk are prefix sums of `enc_len`, and the per-column
//! CRC lets a projection read verify exactly the bytes it fetched. Footer
//! entries are therefore variable-length in v2; readers must parse the
//! footer sequentially rather than indexing by a fixed stride. A v1 file is
//! readable by a v2 reader unchanged (empty column directory ⇒ raw layout).

use crate::codec::{Codec, ColumnCodec};
use crate::crc32::crc32;
use csb_graph::EdgeProperties;
use csb_net::flow::{FlowRecord, Protocol, TcpConnState};
use csb_net::{AttackClass, FlowLabel, LabeledFlow};
use std::io::Write;
use std::path::Path;

/// File magic, first 8 bytes.
pub const FILE_MAGIC: [u8; 8] = *b"CSBSTOR1";
/// Trailer magic, last 8 bytes.
pub const TRAILER_MAGIC: [u8; 8] = *b"CSBEND01";
/// Chunk header magic ("CHNK" in LE byte order).
pub const CHUNK_MAGIC: u32 = u32::from_le_bytes(*b"CHNK");
/// Format version 1: raw columns, fixed 32-byte footer entries.
pub const FORMAT_VERSION: u32 = 1;
/// Format version 2: per-column codecs, footer entries carry a column
/// directory.
pub const FORMAT_VERSION_V2: u32 = 2;

/// File header length in bytes.
pub const FILE_HEADER_LEN: u64 = 16;
/// Chunk header length in bytes (magic + kind + pad + count + len + crc).
pub const CHUNK_HEADER_LEN: u64 = 28;
/// Footer index entry length in bytes (v1; the fixed prefix of a v2 entry).
pub const FOOTER_ENTRY_LEN: u64 = 32;
/// Bytes per column tag appended to a v2 footer entry.
pub const COLUMN_TAG_LEN: u64 = 9;
/// Trailer length in bytes.
pub const TRAILER_LEN: u64 = 24;

/// What a store file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Vertex + edge chunks of a property graph.
    Graph,
    /// Flow chunks of a NetFlow record stream.
    Flows,
}

impl FileKind {
    /// Stable byte code.
    pub const fn code(self) -> u8 {
        match self {
            FileKind::Graph => 0,
            FileKind::Flows => 1,
        }
    }

    /// Inverse of [`FileKind::code`].
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(FileKind::Graph),
            1 => Some(FileKind::Flows),
            _ => None,
        }
    }
}

/// What one chunk holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// Vertex ip column.
    Vertex,
    /// Edge columns ([`EDGE_COLUMNS`]).
    Edge,
    /// Flow columns ([`FLOW_COLUMNS`]).
    Flow,
    /// Labeled flow columns ([`LABELED_FLOW_COLUMNS`]): the flow schema plus
    /// campaign ground-truth label columns.
    LabeledFlow,
}

impl ChunkKind {
    /// Every chunk kind, in [`ChunkKind::code`] order.
    pub const ALL: [ChunkKind; 4] =
        [ChunkKind::Vertex, ChunkKind::Edge, ChunkKind::Flow, ChunkKind::LabeledFlow];

    /// Stable byte code.
    pub const fn code(self) -> u8 {
        match self {
            ChunkKind::Vertex => 0,
            ChunkKind::Edge => 1,
            ChunkKind::Flow => 2,
            ChunkKind::LabeledFlow => 3,
        }
    }

    /// Inverse of [`ChunkKind::code`].
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ChunkKind::Vertex),
            1 => Some(ChunkKind::Edge),
            2 => Some(ChunkKind::Flow),
            3 => Some(ChunkKind::LabeledFlow),
            _ => None,
        }
    }

    /// Payload bytes per record of this chunk kind.
    pub fn record_width(self) -> usize {
        chunk_schema(self).iter().map(|c| c.width).sum()
    }
}

/// One fixed-width column of a chunk schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// Column name (matches the paper's attribute vocabulary where one
    /// exists).
    pub name: &'static str,
    /// Bytes per record.
    pub width: usize,
}

const fn col(name: &'static str, width: usize) -> Column {
    Column { name, width }
}

/// Edge chunk schema: endpoints plus the nine NetFlow attributes, in the
/// order of `csb_graph::EdgeProperties`.
pub const EDGE_COLUMNS: [Column; 11] = [
    col("SRC", 4),
    col("DST", 4),
    col("PROTOCOL", 1),
    col("SRC_PORT", 2),
    col("DEST_PORT", 2),
    col("DURATION", 8),
    col("OUT_BYTES", 8),
    col("IN_BYTES", 8),
    col("OUT_PKTS", 8),
    col("IN_PKTS", 8),
    col("STATE", 1),
];

/// Flow chunk schema: the edge schema keyed by address instead of vertex id,
/// plus the detector fields (`syn_count`, `ack_count`, `first_ts_micros`).
pub const FLOW_COLUMNS: [Column; 14] = [
    col("SRC_IP", 4),
    col("DST_IP", 4),
    col("PROTOCOL", 1),
    col("SRC_PORT", 2),
    col("DEST_PORT", 2),
    col("DURATION", 8),
    col("OUT_BYTES", 8),
    col("IN_BYTES", 8),
    col("OUT_PKTS", 8),
    col("IN_PKTS", 8),
    col("STATE", 1),
    col("SYN_COUNT", 4),
    col("ACK_COUNT", 4),
    col("FIRST_TS_MICROS", 8),
];

/// Labeled flow chunk schema: [`FLOW_COLUMNS`] plus the campaign
/// ground-truth label columns (campaign id, kill-chain stage index, attack
/// class code) — built from the flow schema, so the two cannot drift apart.
/// Campaign id 0 = benign, so unlabeled v1 flow chunks read back as
/// all-benign without translation.
pub const LABELED_FLOW_COLUMNS: [Column; 17] = {
    let mut cols = [col("", 0); 17];
    let mut i = 0;
    while i < FLOW_COLUMNS.len() {
        cols[i] = FLOW_COLUMNS[i];
        i += 1;
    }
    cols[14] = col("CAMPAIGN", 4);
    cols[15] = col("STAGE", 1);
    cols[16] = col("CLASS", 1);
    cols
};

/// Vertex chunk schema: the single ip column.
pub const VERTEX_COLUMNS: [Column; 1] = [col("IP", 4)];

/// The column schema of a chunk kind.
pub fn chunk_schema(kind: ChunkKind) -> &'static [Column] {
    match kind {
        ChunkKind::Vertex => &VERTEX_COLUMNS,
        ChunkKind::Edge => &EDGE_COLUMNS,
        ChunkKind::Flow => &FLOW_COLUMNS,
        ChunkKind::LabeledFlow => &LABELED_FLOW_COLUMNS,
    }
}

/// Byte offset of column `index` inside a chunk payload of `records` records.
pub fn column_offset(schema: &[Column], index: usize, records: usize) -> usize {
    schema[..index].iter().map(|c| c.width * records).sum()
}

/// A record kind the store can hold. [`Record::KIND`] names its column
/// schema ([`chunk_schema`]); the two methods map one record to and from one
/// value per schema column. The sink's staging and the reader's batch decode
/// are written once against this trait, so a new record kind is a schema
/// constant and one impl — not another copy of the writer.
pub trait Record: Sized {
    /// The chunk kind (and so the schema) records of this type are stored as.
    const KIND: ChunkKind;

    /// The value of schema column `col`, widened to `u64`.
    fn column(&self, col: usize) -> u64;

    /// Rebuilds a record from its column values: `v(col)` is the value of
    /// schema column `col`. `at` is the file offset of the chunk, for error
    /// reporting.
    fn from_columns(v: impl Fn(usize) -> u64, at: u64) -> Result<Self, StoreError>;
}

/// An edge as stored: source and target vertex id plus the nine attributes.
pub type EdgeRecord = (u32, u32, EdgeProperties);

/// Attribute `i` of the nine NetFlow attributes, in the order the edge and
/// flow schemas share (`PROTOCOL` … `STATE`).
fn attribute(p: &EdgeProperties, i: usize) -> u64 {
    match i {
        0 => p.protocol.number() as u64,
        1 => p.src_port as u64,
        2 => p.dst_port as u64,
        3 => p.duration_ms,
        4 => p.out_bytes,
        5 => p.in_bytes,
        6 => p.out_pkts,
        7 => p.in_pkts,
        _ => p.state.code(),
    }
}

/// Inverse of [`attribute`]: `v(i)` is the value of attribute `i`.
fn attributes_from(v: impl Fn(usize) -> u64, at: u64) -> Result<EdgeProperties, StoreError> {
    Ok(EdgeProperties {
        protocol: Protocol::from_number(v(0) as u8)
            .ok_or_else(|| corrupt(at, format!("bad protocol {}", v(0))))?,
        src_port: v(1) as u16,
        dst_port: v(2) as u16,
        duration_ms: v(3),
        out_bytes: v(4),
        in_bytes: v(5),
        out_pkts: v(6),
        in_pkts: v(7),
        state: TcpConnState::from_code(v(8))
            .ok_or_else(|| corrupt(at, format!("bad state {}", v(8))))?,
    })
}

impl Record for u32 {
    const KIND: ChunkKind = ChunkKind::Vertex;

    fn column(&self, _col: usize) -> u64 {
        *self as u64
    }

    fn from_columns(v: impl Fn(usize) -> u64, _at: u64) -> Result<Self, StoreError> {
        Ok(v(0) as u32)
    }
}

impl Record for EdgeRecord {
    const KIND: ChunkKind = ChunkKind::Edge;

    fn column(&self, col: usize) -> u64 {
        match col {
            0 => self.0 as u64,
            1 => self.1 as u64,
            _ => attribute(&self.2, col - 2),
        }
    }

    fn from_columns(v: impl Fn(usize) -> u64, at: u64) -> Result<Self, StoreError> {
        Ok((v(0) as u32, v(1) as u32, attributes_from(|i| v(i + 2), at)?))
    }
}

impl Record for FlowRecord {
    const KIND: ChunkKind = ChunkKind::Flow;

    fn column(&self, col: usize) -> u64 {
        match col {
            0 => self.src_ip as u64,
            1 => self.dst_ip as u64,
            2..=10 => attribute(&EdgeProperties::from_flow(self), col - 2),
            11 => self.syn_count as u64,
            12 => self.ack_count as u64,
            _ => self.first_ts_micros,
        }
    }

    fn from_columns(v: impl Fn(usize) -> u64, at: u64) -> Result<Self, StoreError> {
        let p = attributes_from(|i| v(i + 2), at)?;
        Ok(FlowRecord {
            src_ip: v(0) as u32,
            dst_ip: v(1) as u32,
            protocol: p.protocol,
            src_port: p.src_port,
            dst_port: p.dst_port,
            duration_ms: p.duration_ms,
            out_bytes: p.out_bytes,
            in_bytes: p.in_bytes,
            out_pkts: p.out_pkts,
            in_pkts: p.in_pkts,
            state: p.state,
            syn_count: v(11) as u32,
            ack_count: v(12) as u32,
            first_ts_micros: v(13),
        })
    }
}

impl Record for LabeledFlow {
    const KIND: ChunkKind = ChunkKind::LabeledFlow;

    fn column(&self, col: usize) -> u64 {
        match col {
            14 => self.label.campaign as u64,
            15 => self.label.stage as u64,
            16 => self.label.class.code() as u64,
            _ => self.flow.column(col),
        }
    }

    fn from_columns(v: impl Fn(usize) -> u64, at: u64) -> Result<Self, StoreError> {
        let class = AttackClass::from_code(v(16) as u8)
            .ok_or_else(|| corrupt(at, format!("invalid attack class code {}", v(16))))?;
        Ok(LabeledFlow {
            flow: FlowRecord::from_columns(&v, at)?,
            label: FlowLabel { campaign: v(14) as u32, stage: v(15) as u8, class },
        })
    }
}

/// Footer index entry describing one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Chunk kind.
    pub kind: ChunkKind,
    /// Records in the chunk.
    pub records: u64,
    /// File offset of the chunk header.
    pub offset: u64,
    /// Stored payload length in bytes (encoded length for v2 chunks).
    pub payload_len: u64,
    /// CRC32 (IEEE) of the stored payload.
    pub crc32: u32,
    /// v2 column directory, in schema order; empty for v1 chunks (raw
    /// layout, offsets computed from the schema widths).
    pub columns: Vec<ColumnCodec>,
}

impl ChunkEntry {
    /// Serialized length of this entry under `version` framing.
    pub fn encoded_len(&self, version: u32) -> u64 {
        if version >= FORMAT_VERSION_V2 {
            FOOTER_ENTRY_LEN + 1 + self.columns.len() as u64 * COLUMN_TAG_LEN
        } else {
            FOOTER_ENTRY_LEN
        }
    }

    /// Appends the entry under `version` framing: the fixed 32-byte prefix,
    /// plus the column directory for v2.
    pub fn encode_into(&self, out: &mut Vec<u8>, version: u32) {
        out.extend_from_slice(&[self.kind.code(), 0, 0, 0]);
        out.extend_from_slice(&self.records.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.crc32.to_le_bytes());
        if version >= FORMAT_VERSION_V2 {
            debug_assert!(self.columns.len() <= u8::MAX as usize);
            out.push(self.columns.len() as u8);
            for c in &self.columns {
                out.push(c.codec.code());
                out.extend_from_slice(&c.enc_len.to_le_bytes());
                out.extend_from_slice(&c.crc32.to_le_bytes());
            }
        }
    }

    /// Parses one entry under `version` framing, advancing `pos`. `at` is
    /// the file offset of `buf[0]`, for error reporting.
    pub fn decode_from(
        buf: &[u8],
        pos: &mut usize,
        version: u32,
        at: u64,
    ) -> Result<Self, StoreError> {
        let err_at = at + *pos as u64;
        let e = buf
            .get(*pos..*pos + FOOTER_ENTRY_LEN as usize)
            .ok_or_else(|| corrupt(err_at, "truncated footer entry"))?;
        *pos += FOOTER_ENTRY_LEN as usize;
        let kind = ChunkKind::from_code(e[0])
            .ok_or_else(|| corrupt(err_at, format!("bad chunk kind {}", e[0])))?;
        let mut entry = ChunkEntry {
            kind,
            records: u64::from_le_bytes(e[4..12].try_into().unwrap()),
            offset: u64::from_le_bytes(e[12..20].try_into().unwrap()),
            payload_len: u64::from_le_bytes(e[20..28].try_into().unwrap()),
            crc32: u32::from_le_bytes(e[28..32].try_into().unwrap()),
            columns: Vec::new(),
        };
        if version >= FORMAT_VERSION_V2 {
            let &ncols = buf
                .get(*pos)
                .ok_or_else(|| corrupt(err_at, "footer entry missing column directory"))?;
            *pos += 1;
            entry.columns.reserve_exact(ncols as usize);
            for _ in 0..ncols {
                let t = buf
                    .get(*pos..*pos + COLUMN_TAG_LEN as usize)
                    .ok_or_else(|| corrupt(err_at, "truncated column tag"))?;
                *pos += COLUMN_TAG_LEN as usize;
                let codec = Codec::from_code(t[0])
                    .ok_or_else(|| corrupt(err_at, format!("unknown codec {}", t[0])))?;
                entry.columns.push(ColumnCodec {
                    codec,
                    enc_len: u32::from_le_bytes(t[1..5].try_into().unwrap()),
                    crc32: u32::from_le_bytes(t[5..9].try_into().unwrap()),
                });
            }
        }
        Ok(entry)
    }
}

/// Errors from store (de)serialization — an alias of the suite-wide
/// [`CsbError`](crate::error::CsbError) so retry logic can classify store
/// failures without conversion.
pub type StoreError = crate::error::CsbError;

pub(crate) fn corrupt(offset: u64, message: impl Into<String>) -> StoreError {
    StoreError::Corrupt { offset, message: message.into() }
}

/// Appends the trailing CRC32 that frames every manifest (shard set and both
/// checkpoint kinds): `magic | version u32 | fields… | crc32 of all before`.
pub(crate) fn seal_manifest(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Replaces `dest` with `bytes` atomically: write `tmp`, fsync, rename. A
/// crash mid-save leaves the previous file intact.
pub(crate) fn save_atomically(tmp: &Path, dest: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut f = std::fs::File::create(tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(tmp, dest)?;
    Ok(())
}

/// Cursor over a manifest's fields. Manifests are recovery state read back
/// after a crash, so every length they carry is checked against the bytes
/// that remain before anything is sliced or reserved.
pub(crate) struct ManifestReader<'a> {
    body: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> ManifestReader<'a> {
    /// Validates the frame (magic, CRC, version) and positions the cursor on
    /// the first field after the version. `what` prefixes error messages.
    pub(crate) fn open(
        bytes: &'a [u8],
        what: &'static str,
        magic: &[u8; 8],
        version: u32,
    ) -> Result<Self, StoreError> {
        let bad = |msg: &str| corrupt(0, format!("{what}: {msg}"));
        if bytes.len() < 16 || bytes[..8] != *magic {
            return Err(bad("bad magic"));
        }
        let (body, stored_crc) = bytes.split_at(bytes.len() - 4);
        if crc32(body).to_le_bytes() != *stored_crc {
            return Err(bad("CRC mismatch"));
        }
        let mut r = ManifestReader { body, pos: 8, what };
        if r.u32()? != version {
            return Err(bad("unsupported version"));
        }
        Ok(r)
    }

    pub(crate) fn bad(&self, msg: &str) -> StoreError {
        corrupt(self.pos as u64, format!("{}: {msg}", self.what))
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.body.len());
        let s = &self.body[self.pos..end.ok_or_else(|| self.bad("truncated"))?];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Accepts `n` as the number of entries that follow only if that many
    /// entries of at least `min_len` bytes each fit in the bytes that remain,
    /// so a CRC-valid manifest with an inflated count cannot make the caller
    /// reserve more than the file could hold.
    pub(crate) fn count(&self, n: u64, min_len: usize) -> Result<usize, StoreError> {
        let fits = ((self.body.len() - self.pos) / min_len) as u64;
        if n > fits {
            return Err(self.bad("entry count exceeds the bytes that remain"));
        }
        Ok(n as usize)
    }

    /// A `u64` count followed by that many footer entries under `version`
    /// framing — the durable chunk index of one store file.
    pub(crate) fn chunk_entries(&mut self, version: u32) -> Result<Vec<ChunkEntry>, StoreError> {
        let n = self.u64()?;
        let n = self.count(n, FOOTER_ENTRY_LEN as usize)?;
        let mut chunks = Vec::with_capacity(n);
        for _ in 0..n {
            chunks.push(ChunkEntry::decode_from(self.body, &mut self.pos, version, 0)?);
        }
        Ok(chunks)
    }

    /// Succeeds only if every byte before the CRC was consumed.
    pub(crate) fn finish(self) -> Result<(), StoreError> {
        if self.pos != self.body.len() {
            return Err(self.bad("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for k in [FileKind::Graph, FileKind::Flows] {
            assert_eq!(FileKind::from_code(k.code()), Some(k));
        }
        assert_eq!(FileKind::from_code(9), None);
        for (code, k) in ChunkKind::ALL.into_iter().enumerate() {
            assert_eq!(k.code() as usize, code, "ALL is in code order");
            assert_eq!(ChunkKind::from_code(k.code()), Some(k));
        }
        assert_eq!(ChunkKind::from_code(9), None);
    }

    #[test]
    fn record_widths_sum_the_schemas() {
        assert_eq!(ChunkKind::Vertex.record_width(), 4);
        assert_eq!(ChunkKind::Edge.record_width(), 54);
        assert_eq!(ChunkKind::Flow.record_width(), 70);
        assert_eq!(ChunkKind::LabeledFlow.record_width(), 76);
    }

    #[test]
    fn labeled_schema_extends_the_flow_schema() {
        assert_eq!(LABELED_FLOW_COLUMNS[..FLOW_COLUMNS.len()], FLOW_COLUMNS);
        let labels: Vec<_> =
            LABELED_FLOW_COLUMNS[FLOW_COLUMNS.len()..].iter().map(|c| (c.name, c.width)).collect();
        assert_eq!(labels, [("CAMPAIGN", 4), ("STAGE", 1), ("CLASS", 1)]);
    }

    /// `column` and `from_columns` are inverses over every schema column,
    /// and every value fits the width its column declares.
    fn assert_round_trips<R: Record + PartialEq + std::fmt::Debug>(record: R) {
        let schema = chunk_schema(R::KIND);
        let values: Vec<u64> = (0..schema.len()).map(|c| record.column(c)).collect();
        for (v, col) in values.iter().zip(schema) {
            assert!(col.width == 8 || v >> (8 * col.width) == 0, "{} overflows", col.name);
        }
        assert_eq!(R::from_columns(|c| values[c], 0).expect("decodes"), record);
    }

    #[test]
    fn record_kinds_round_trip_through_their_schemas() {
        let flow = FlowRecord {
            src_ip: u32::MAX,
            dst_ip: 0x0A00_0001,
            protocol: Protocol::Udp,
            src_port: u16::MAX,
            dst_port: 53,
            duration_ms: u64::MAX,
            out_bytes: 1,
            in_bytes: 2,
            out_pkts: 3,
            in_pkts: 4,
            state: TcpConnState::Sh,
            syn_count: 5,
            ack_count: u32::MAX,
            first_ts_micros: 6,
        };
        let label = FlowLabel { campaign: u32::MAX, stage: 3, class: AttackClass::Probe };
        assert_round_trips(0xC0A8_0001u32);
        assert_round_trips((7u32, u32::MAX, EdgeProperties::from_flow(&flow)));
        assert_round_trips(flow);
        assert_round_trips(LabeledFlow { flow, label });
        // A byte no enum variant owns is corruption, not a panic.
        let mut values: Vec<u64> = (0..17).map(|c| LabeledFlow { flow, label }.column(c)).collect();
        values[16] = 0xEE;
        assert!(LabeledFlow::from_columns(|c| values[c], 0).is_err());
        values[2] = 0xEE;
        assert!(FlowRecord::from_columns(|c| values[c], 0).is_err());
    }

    #[test]
    fn column_offsets_are_exclusive_prefix_sums() {
        assert_eq!(column_offset(&EDGE_COLUMNS, 0, 10), 0);
        assert_eq!(column_offset(&EDGE_COLUMNS, 1, 10), 40);
        assert_eq!(column_offset(&EDGE_COLUMNS, 2, 10), 80);
        assert_eq!(column_offset(&EDGE_COLUMNS, 10, 10), 530);
    }

    #[test]
    fn edge_schema_covers_the_nine_attributes() {
        let names: Vec<&str> = EDGE_COLUMNS.iter().skip(2).map(|c| c.name).collect();
        assert_eq!(names, csb_graph::EdgeProperties::ATTRIBUTE_NAMES);
    }
}
