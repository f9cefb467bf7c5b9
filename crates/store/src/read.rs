//! The chunk reader: opens a sealed store file (format v1 or v2), parses the
//! trailer + footer index, and serves whole chunks, projected columns, or a
//! fully reconstructed [`NetflowGraph`] / flow list.
//!
//! Projection reads go through [`StoreReader::read_columns`], which fetches
//! every requested column of a chunk with **one** contiguous disk read and
//! one `store.read_chunk` span — the scan layers project `SRC`+`DST`
//! together, so a pass over an edge chunk costs a single seek instead of one
//! per column.

use crate::codec::{decode_column, Codec};
use crate::crc32::crc32;
use crate::format::{
    chunk_schema, column_offset, corrupt, ChunkEntry, ChunkKind, EdgeRecord, FileKind, Record,
    StoreError, CHUNK_MAGIC, FILE_MAGIC, FORMAT_VERSION, FORMAT_VERSION_V2, TRAILER_LEN,
    TRAILER_MAGIC,
};
use csb_graph::graph::VertexId;
use csb_graph::NetflowGraph;
use csb_net::flow::FlowRecord;
use csb_net::{FlowLabel, LabeledFlow};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

/// One fetched (but not yet decoded) block of chunk columns: the contiguous
/// stored bytes covering the requested columns, plus what is needed to
/// decode each. Splitting fetch from decode lets the scan layer cache the
/// compact stored bytes and re-decode per pass without re-reading disk.
#[derive(Debug, Clone)]
pub struct ColumnBlock {
    bytes: Vec<u8>,
    /// Per requested column: byte range into `bytes`, codec, width, and the
    /// v2 per-column CRC (`None` for v1 partial reads, which the whole-chunk
    /// CRC cannot cover).
    cols: Vec<(std::ops::Range<usize>, Codec, usize, Option<u32>)>,
    records: usize,
    chunk_offset: u64,
}

impl ColumnBlock {
    /// Stored bytes held by this block (what a cache budget should charge).
    pub fn stored_len(&self) -> usize {
        self.bytes.len()
    }

    /// Decodes requested column `i` (index into the `names` passed to
    /// [`StoreReader::fetch_columns`]), widened to `u64`.
    pub fn decode(&self, i: usize) -> Result<Vec<u64>, StoreError> {
        let (range, codec, width, crc) = &self.cols[i];
        let enc = &self.bytes[range.clone()];
        if let Some(want) = crc {
            if crc32(enc) != *want {
                return Err(corrupt(self.chunk_offset, "column CRC mismatch"));
            }
        }
        Ok(widen(&decode_column(*codec, enc, *width, self.records, self.chunk_offset)?, *width))
    }
}

/// One raw little-endian column of `width`-byte values, widened to `u64`.
fn widen(raw: &[u8], width: usize) -> Vec<u64> {
    match width {
        1 => raw.iter().map(|&b| b as u64).collect(),
        2 => raw.chunks_exact(2).map(|c| u16::from_le_bytes([c[0], c[1]]) as u64).collect(),
        4 => {
            raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap()) as u64).collect()
        }
        _ => raw.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect(),
    }
}

/// Reads a sealed store file.
#[derive(Debug)]
pub struct StoreReader<R: Read + Seek> {
    r: R,
    version: u32,
    kind: FileKind,
    chunks: Vec<ChunkEntry>,
}

impl StoreReader<BufReader<File>> {
    /// Opens the store file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        StoreReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> StoreReader<R> {
    /// Parses the header, trailer, and footer index of `r`.
    pub fn new(mut r: R) -> Result<Self, StoreError> {
        let len = r.seek(SeekFrom::End(0))?;
        if len < 16 + TRAILER_LEN {
            return Err(corrupt(0, format!("file too short ({len} bytes)")));
        }
        let mut header = [0u8; 16];
        r.seek(SeekFrom::Start(0))?;
        r.read_exact(&mut header)?;
        if header[..8] != FILE_MAGIC {
            return Err(corrupt(0, "bad file magic"));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != FORMAT_VERSION && version != FORMAT_VERSION_V2 {
            return Err(corrupt(8, format!("unsupported version {version}")));
        }
        let kind = FileKind::from_code(header[12])
            .ok_or_else(|| corrupt(12, format!("bad file kind {}", header[12])))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        r.seek(SeekFrom::Start(len - TRAILER_LEN))?;
        r.read_exact(&mut trailer)?;
        if trailer[16..24] != TRAILER_MAGIC {
            return Err(corrupt(len - 8, "bad trailer magic (file not sealed?)"));
        }
        let chunk_count = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let footer_offset = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
        // v2 footer entries are variable-length (the column directory), so
        // the tiling check is "the entries parse and end exactly at the
        // trailer", not a fixed-stride multiplication.
        let footer_len = len
            .checked_sub(TRAILER_LEN)
            .and_then(|end| end.checked_sub(footer_offset))
            .filter(|&fl| chunk_count.checked_mul(32).is_some_and(|min| min <= fl))
            .ok_or_else(|| corrupt(len - TRAILER_LEN, "footer does not tile the file"))?;
        let mut footer = vec![0u8; footer_len as usize];
        r.seek(SeekFrom::Start(footer_offset))?;
        r.read_exact(&mut footer)?;
        let mut chunks = Vec::with_capacity(chunk_count as usize);
        let mut pos = 0usize;
        for _ in 0..chunk_count {
            chunks.push(ChunkEntry::decode_from(&footer, &mut pos, version, footer_offset)?);
        }
        if pos as u64 != footer_len {
            return Err(corrupt(footer_offset, "footer does not tile the file"));
        }
        Ok(StoreReader { r, version, kind, chunks })
    }

    /// What this file holds.
    pub fn kind(&self) -> FileKind {
        self.kind
    }

    /// The file's format version (1 or 2).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The footer index.
    pub fn chunks(&self) -> &[ChunkEntry] {
        &self.chunks
    }

    /// Total records across chunks of `kind`.
    pub fn record_count(&self, kind: ChunkKind) -> u64 {
        self.chunks.iter().filter(|c| c.kind == kind).map(|c| c.records).sum()
    }

    /// Reads chunk `idx`'s *stored* bytes (raw for v1, encoded for v2),
    /// verifying the chunk header against the footer entry and the bytes
    /// against the chunk CRC32.
    pub fn read_chunk_stored(&mut self, idx: usize) -> Result<Vec<u8>, StoreError> {
        let _span = csb_obs::span_cat("store.read_chunk", "store");
        let entry = &self.chunks[idx];
        let mut header = [0u8; 28];
        self.r.seek(SeekFrom::Start(entry.offset))?;
        self.r.read_exact(&mut header)?;
        if u32::from_le_bytes(header[0..4].try_into().unwrap()) != CHUNK_MAGIC {
            return Err(corrupt(entry.offset, "bad chunk magic"));
        }
        let records = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let payload_len = u64::from_le_bytes(header[16..24].try_into().unwrap());
        if header[4] != entry.kind.code()
            || records != entry.records
            || payload_len != entry.payload_len
        {
            return Err(corrupt(entry.offset, "chunk header disagrees with footer index"));
        }
        let mut payload = vec![0u8; entry.payload_len as usize];
        self.r.read_exact(&mut payload)?;
        if crc32(&payload) != entry.crc32 {
            return Err(corrupt(entry.offset + 28, "chunk payload CRC mismatch"));
        }
        csb_obs::counter_add("store.chunks_read", 1);
        csb_obs::counter_add("store.bytes_read", 28 + entry.payload_len);
        Ok(payload)
    }

    /// Reads chunk `idx` and returns its **raw column-major payload**: the
    /// stored bytes for v1, the per-column decodings for v2. Callers see the
    /// identical layout either way.
    pub fn read_chunk_payload(&mut self, idx: usize) -> Result<Vec<u8>, StoreError> {
        let stored = self.read_chunk_stored(idx)?;
        let entry = &self.chunks[idx];
        if self.version < FORMAT_VERSION_V2 {
            return Ok(stored);
        }
        crate::codec::decode_chunk_columns(
            entry.kind,
            entry.records,
            &stored,
            &entry.columns,
            entry.offset,
        )
    }

    fn expect_kind(&self, idx: usize, kind: ChunkKind) -> Result<&ChunkEntry, StoreError> {
        let entry = &self.chunks[idx];
        if entry.kind != kind {
            return Err(corrupt(entry.offset, format!("chunk {idx} is not a {kind:?} chunk")));
        }
        Ok(entry)
    }

    /// Decodes chunk `idx` into records of type `T`, whose kind the chunk
    /// must have. One schema-driven decoder serves every record kind.
    pub fn read_batch<T: Record>(&mut self, idx: usize) -> Result<Vec<T>, StoreError> {
        let mut records = Vec::with_capacity(self.chunks[idx].records as usize);
        self.for_each_record(idx, |r| records.push(r))?;
        Ok(records)
    }

    /// [`StoreReader::read_batch`] without the intermediate `Vec`: hands
    /// each decoded record of chunk `idx` to `f`, in order.
    pub(crate) fn for_each_record<T: Record>(
        &mut self,
        idx: usize,
        mut f: impl FnMut(T),
    ) -> Result<(), StoreError> {
        let entry = self.expect_kind(idx, T::KIND)?;
        let (n, at) = (entry.records as usize, entry.offset);
        let payload = self.read_chunk_payload(idx)?;
        let schema = chunk_schema(T::KIND);
        if payload.len() != n * T::KIND.record_width() {
            return Err(corrupt(at, "chunk payload length disagrees with its record count"));
        }
        let starts: Vec<usize> = (0..schema.len()).map(|c| column_offset(schema, c, n)).collect();
        // `schema` is a constant of `T`, so once `from_columns` is inlined
        // each call below knows its column's width and is one typed load.
        let value = |i: usize, c: usize| -> u64 {
            let width = schema[c].width;
            let b = &payload[starts[c] + i * width..][..width];
            match width {
                1 => b[0] as u64,
                2 => u16::from_le_bytes([b[0], b[1]]) as u64,
                4 => u32::from_le_bytes(b.try_into().expect("4 bytes")) as u64,
                _ => u64::from_le_bytes(b.try_into().expect("8 bytes")),
            }
        };
        for i in 0..n {
            f(T::from_columns(|c| value(i, c), at)?);
        }
        Ok(())
    }

    /// Decodes flow chunk `idx` into [`LabeledFlow`]s. Accepts both labeled
    /// chunks and plain v1 flow chunks — the latter carry no label columns
    /// and read back as all-benign.
    pub fn read_labeled_flow_batch(&mut self, idx: usize) -> Result<Vec<LabeledFlow>, StoreError> {
        if self.chunks[idx].kind != ChunkKind::Flow {
            return self.read_batch(idx);
        }
        let flows = self.read_batch::<FlowRecord>(idx)?;
        Ok(flows.into_iter().map(|flow| LabeledFlow { flow, label: FlowLabel::BENIGN }).collect())
    }

    /// Fetches the named columns of an edge or flow chunk with **one**
    /// contiguous disk read (one `store.read_chunk` span, one
    /// `store.chunks_read` increment), without decoding them. For v1 the
    /// read spans the raw bytes from the first to the last requested column;
    /// for v2 it spans their encoded bytes, and each column carries its own
    /// CRC (verified at decode). v1 partial reads skip CRC verification —
    /// the whole-chunk CRC cannot cover a slice.
    pub fn fetch_columns(&mut self, idx: usize, names: &[&str]) -> Result<ColumnBlock, StoreError> {
        assert!(!names.is_empty(), "fetch_columns needs at least one column");
        let _span = csb_obs::span_cat("store.read_chunk", "store");
        let entry = &self.chunks[idx];
        if entry.kind == ChunkKind::Vertex {
            return Err(corrupt(entry.offset, "vertex chunks have no named columns"));
        }
        let schema = chunk_schema(entry.kind);
        let n = entry.records as usize;
        let v2 = self.version >= FORMAT_VERSION_V2;
        if v2 && entry.columns.len() != schema.len() {
            return Err(corrupt(entry.offset, "v2 chunk missing its column directory"));
        }
        // Byte range of each schema column inside the stored payload.
        let col_range = |i: usize| -> std::ops::Range<usize> {
            if v2 {
                let start: usize = entry.columns[..i].iter().map(|c| c.enc_len as usize).sum();
                start..start + entry.columns[i].enc_len as usize
            } else {
                let start = column_offset(schema, i, n);
                start..start + n * schema[i].width
            }
        };
        let mut picked = Vec::with_capacity(names.len());
        for name in names {
            let i = schema
                .iter()
                .position(|c| c.name == *name)
                .ok_or_else(|| corrupt(entry.offset, format!("no column named {name}")))?;
            picked.push(i);
        }
        let lo = picked.iter().map(|&i| col_range(i).start).min().expect("non-empty");
        let hi = picked.iter().map(|&i| col_range(i).end).max().expect("non-empty");
        let mut bytes = vec![0u8; hi - lo];
        self.r.seek(SeekFrom::Start(entry.offset + 28 + lo as u64))?;
        self.r.read_exact(&mut bytes)?;
        csb_obs::counter_add("store.chunks_read", 1);
        csb_obs::counter_add("store.bytes_read", bytes.len() as u64);
        let cols = picked
            .iter()
            .map(|&i| {
                let r = col_range(i);
                let (codec, crc) = if v2 {
                    (entry.columns[i].codec, Some(entry.columns[i].crc32))
                } else {
                    (Codec::Raw, None)
                };
                (r.start - lo..r.end - lo, codec, schema[i].width, crc)
            })
            .collect();
        Ok(ColumnBlock { bytes, cols, records: n, chunk_offset: entry.offset })
    }

    /// Projects the named columns of an edge or flow chunk, widened to
    /// `u64`, from a single disk read (see [`StoreReader::fetch_columns`]).
    pub fn read_columns(
        &mut self,
        idx: usize,
        names: &[&str],
    ) -> Result<Vec<Vec<u64>>, StoreError> {
        let block = self.fetch_columns(idx, names)?;
        (0..names.len()).map(|i| block.decode(i)).collect()
    }

    /// Projects one column by name — [`StoreReader::read_columns`] with a
    /// single name. Scans that need several columns of the same chunk should
    /// ask for them together; separate calls cost one disk read each.
    pub fn read_column(&mut self, idx: usize, name: &str) -> Result<Vec<u64>, StoreError> {
        Ok(self.read_columns(idx, &[name])?.pop().expect("one column requested"))
    }

    /// Reconstructs the property graph from every vertex and edge chunk, in
    /// file order, through the bulk `from_parts` constructor.
    pub fn load_graph(&mut self) -> Result<NetflowGraph, StoreError> {
        load_graph_from(std::slice::from_mut(self))
    }

    /// Reconstructs the flow list from every flow chunk, in file order.
    /// Labeled chunks are read too, with their labels dropped, so the
    /// unlabeled API works on labeled stores.
    pub fn load_flows(&mut self) -> Result<Vec<FlowRecord>, StoreError> {
        Ok(self.load_labeled_flows()?.into_iter().map(|l| l.flow).collect())
    }

    /// Reconstructs the labeled flow list from every flow chunk, in file
    /// order. Plain v1 flow chunks read back as all-benign ([`FlowLabel`]
    /// campaign id 0) — a v1 store carries no ground truth.
    pub fn load_labeled_flows(&mut self) -> Result<Vec<LabeledFlow>, StoreError> {
        load_labeled_flows_from(std::slice::from_mut(self))
    }
}

/// Validates that the per-shard body-chunk counts are consistent with
/// round-robin placement over `counts.len()` shards; returns their total.
pub(crate) fn check_round_robin(counts: &[usize]) -> Result<usize, StoreError> {
    let total: usize = counts.iter().sum();
    let s = counts.len();
    for (i, &n) in counts.iter().enumerate() {
        let want = (total + s - 1 - i) / s;
        if n != want {
            return Err(corrupt(
                0,
                format!(
                    "shard {i} holds {n} edge chunks; round-robin placement of {total} over \
                     {s} shards requires {want}"
                ),
            ));
        }
    }
    Ok(total)
}

/// The logical chunk order of a `file`-kind store held in `readers` (one
/// reader per shard, in shard order; a plain file is a one-shard set), as
/// `(shard, footer index)` pairs: every vertex chunk in shard then file
/// order, followed by the body chunks dealt back round-robin — the order the
/// sink consumed them in. Every loader walks this one list.
fn logical_chunks<R: Read + Seek>(
    readers: &[StoreReader<R>],
    file: FileKind,
) -> Result<Vec<(usize, usize)>, StoreError> {
    let mut order = Vec::new();
    let mut body: Vec<Vec<usize>> = Vec::with_capacity(readers.len());
    for (s, r) in readers.iter().enumerate() {
        if r.kind != file {
            return Err(corrupt(12, format!("not a {file:?} store")));
        }
        let mut list = Vec::new();
        for (idx, c) in r.chunks.iter().enumerate() {
            match (file, c.kind) {
                (FileKind::Graph, ChunkKind::Vertex) => order.push((s, idx)),
                (FileKind::Graph, ChunkKind::Edge)
                | (FileKind::Flows, ChunkKind::Flow | ChunkKind::LabeledFlow) => list.push(idx),
                (_, k) => {
                    return Err(corrupt(c.offset, format!("{k:?} chunk in a {file:?} store")))
                }
            }
        }
        body.push(list);
    }
    let counts: Vec<usize> = body.iter().map(Vec::len).collect();
    let total = check_round_robin(&counts)?;
    let shards = readers.len();
    order.extend((0..total).map(|i| (i % shards, body[i % shards][i / shards])));
    Ok(order)
}

/// Reconstructs the property graph held in `readers` (see
/// [`logical_chunks`]) through the bulk `from_parts` constructor.
pub(crate) fn load_graph_from<R: Read + Seek>(
    readers: &mut [StoreReader<R>],
) -> Result<NetflowGraph, StoreError> {
    let mut ips: Vec<u32> = Vec::new();
    let mut src: Vec<VertexId> = Vec::new();
    let mut dst: Vec<VertexId> = Vec::new();
    let mut props = Vec::new();
    let edges: u64 = readers.iter().map(|r| r.record_count(ChunkKind::Edge)).sum();
    src.reserve(edges as usize);
    dst.reserve(edges as usize);
    props.reserve(edges as usize);
    for (s, idx) in logical_chunks(readers, FileKind::Graph)? {
        if readers[s].chunks[idx].kind == ChunkKind::Vertex {
            ips.extend(readers[s].read_batch::<u32>(idx)?);
            continue;
        }
        readers[s].for_each_record(idx, |(from, to, p): EdgeRecord| {
            src.push(VertexId(from));
            dst.push(VertexId(to));
            props.push(p);
        })?;
    }
    let n = ips.len();
    if src.iter().chain(dst.iter()).any(|v| v.index() >= n) {
        return Err(corrupt(0, "edge endpoint out of vertex range"));
    }
    Ok(NetflowGraph::from_parts(ips, src, dst, props))
}

/// Reconstructs the labeled flow list held in `readers` (see
/// [`logical_chunks`]).
pub(crate) fn load_labeled_flows_from<R: Read + Seek>(
    readers: &mut [StoreReader<R>],
) -> Result<Vec<LabeledFlow>, StoreError> {
    let mut flows = Vec::new();
    for (s, idx) in logical_chunks(readers, FileKind::Flows)? {
        flows.extend(readers[s].read_labeled_flow_batch(idx)?);
    }
    Ok(flows)
}
