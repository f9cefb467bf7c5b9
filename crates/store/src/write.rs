//! The chunk writer: append chunks to any `Write` target, then seal the file
//! with the footer index and trailer. The current offset is tracked by
//! counting written bytes, so plain `Write` targets (sockets, pipes,
//! `Vec<u8>`) work — no `Seek` bound on the write path.

use crate::codec::{encode_chunk_columns, ColumnCodec};
use crate::crc32::crc32;
use crate::format::{
    ChunkEntry, ChunkKind, FileKind, StoreError, CHUNK_MAGIC, FILE_MAGIC, FORMAT_VERSION,
    FORMAT_VERSION_V2, TRAILER_MAGIC,
};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Writes chunks to `W`, tracking offsets and the footer index.
#[derive(Debug)]
pub struct StoreWriter<W: Write> {
    w: W,
    version: u32,
    written: u64,
    chunks: Vec<ChunkEntry>,
}

impl StoreWriter<BufWriter<File>> {
    /// Creates a format-v1 store file at `path`.
    pub fn create(path: impl AsRef<Path>, kind: FileKind) -> Result<Self, StoreError> {
        StoreWriter::new(BufWriter::new(File::create(path)?), kind)
    }

    /// Creates a store file at `path` with the given format version.
    pub fn create_with(
        path: impl AsRef<Path>,
        kind: FileKind,
        version: u32,
    ) -> Result<Self, StoreError> {
        StoreWriter::new_with(BufWriter::new(File::create(path)?), kind, version)
    }
}

impl<W: Write> StoreWriter<W> {
    /// Starts a format-v1 store stream on `w` by writing the file header.
    pub fn new(w: W, kind: FileKind) -> Result<Self, StoreError> {
        StoreWriter::new_with(w, kind, FORMAT_VERSION)
    }

    /// Starts a store stream with the given format version ([`FORMAT_VERSION`]
    /// or [`FORMAT_VERSION_V2`]).
    pub fn new_with(mut w: W, kind: FileKind, version: u32) -> Result<Self, StoreError> {
        assert!(
            version == FORMAT_VERSION || version == FORMAT_VERSION_V2,
            "unknown store format version {version}"
        );
        w.write_all(&FILE_MAGIC)?;
        w.write_all(&version.to_le_bytes())?;
        w.write_all(&[kind.code(), 0, 0, 0])?;
        Ok(StoreWriter { w, version, written: 16, chunks: Vec::new() })
    }

    /// Reconstructs a writer mid-stream: `w` must be positioned at byte
    /// `written` of a file whose prefix already holds a `version` header and
    /// the chunks in `chunks`. Used by checkpoint resume, which truncates a
    /// partial file back to its last durable barrier and continues.
    pub fn resume_at(w: W, version: u32, written: u64, chunks: Vec<ChunkEntry>) -> Self {
        debug_assert!(written >= 16, "resume offset must be past the file header");
        StoreWriter { w, version, written, chunks }
    }

    /// The format version this writer stamps.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Chunks written so far.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The footer index accumulated so far.
    pub fn chunks(&self) -> &[ChunkEntry] {
        &self.chunks
    }

    /// Flushes the inner writer without sealing the file.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.w.flush()?;
        Ok(())
    }

    /// The inner writer (checkpoint barriers use this to fsync the file).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.w
    }

    /// Bytes written so far (headers included).
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Appends one chunk of `records` records given its raw column-major
    /// payload: stored as-is in a v1 file; in a v2 file each column is encoded
    /// on its own and tagged in the footer (see
    /// [`crate::codec::encode_chunk_columns`]).
    pub fn write_chunk(
        &mut self,
        kind: ChunkKind,
        records: u64,
        raw_payload: &[u8],
    ) -> Result<(), StoreError> {
        debug_assert_eq!(raw_payload.len(), records as usize * kind.record_width());
        if self.version == FORMAT_VERSION {
            return self.write_stored(kind, records, raw_payload, Vec::new());
        }
        let (stored, columns) = encode_chunk_columns(kind, records, raw_payload);
        self.write_stored(kind, records, &stored, columns)
    }

    fn write_stored(
        &mut self,
        kind: ChunkKind,
        records: u64,
        payload: &[u8],
        columns: Vec<ColumnCodec>,
    ) -> Result<(), StoreError> {
        let _span = csb_obs::span_cat("store.write_chunk", "store");
        let crc = crc32(payload);
        let entry = ChunkEntry {
            kind,
            records,
            offset: self.written,
            payload_len: payload.len() as u64,
            crc32: crc,
            columns,
        };
        self.w.write_all(&CHUNK_MAGIC.to_le_bytes())?;
        self.w.write_all(&[kind.code(), 0, 0, 0])?;
        self.w.write_all(&records.to_le_bytes())?;
        self.w.write_all(&entry.payload_len.to_le_bytes())?;
        self.w.write_all(&crc.to_le_bytes())?;
        self.w.write_all(payload)?;
        self.written += 28 + payload.len() as u64;
        self.chunks.push(entry);
        csb_obs::counter_add("store.chunks_written", 1);
        csb_obs::counter_add("store.bytes_written", 28 + payload.len() as u64);
        if kind == ChunkKind::Edge {
            csb_obs::counter_add("store.edge_records_written", records);
        }
        csb_obs::status::note_chunk_closed(1);
        Ok(())
    }

    /// Writes the footer index and trailer, flushes, and returns the inner
    /// writer. A file not sealed by `finish` has no trailer and is rejected
    /// by the reader.
    pub fn finish(mut self) -> Result<W, StoreError> {
        let footer_offset = self.written;
        let mut footer = Vec::new();
        for c in &self.chunks {
            c.encode_into(&mut footer, self.version);
        }
        self.w.write_all(&footer)?;
        self.w.write_all(&(self.chunks.len() as u64).to_le_bytes())?;
        self.w.write_all(&footer_offset.to_le_bytes())?;
        self.w.write_all(&TRAILER_MAGIC)?;
        self.w.flush()?;
        Ok(self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{FILE_HEADER_LEN, FOOTER_ENTRY_LEN, TRAILER_LEN};

    #[test]
    fn header_chunks_footer_layout() {
        let mut w = StoreWriter::new(Vec::new(), FileKind::Graph).expect("new");
        w.write_chunk(ChunkKind::Vertex, 2, &[1, 0, 0, 0, 2, 0, 0, 0]).expect("chunk");
        assert_eq!(w.chunk_count(), 1);
        let bytes = w.finish().expect("finish");
        let expect = FILE_HEADER_LEN + 28 + 8 + FOOTER_ENTRY_LEN + TRAILER_LEN;
        assert_eq!(bytes.len() as u64, expect);
        assert_eq!(&bytes[..8], &FILE_MAGIC);
        assert_eq!(&bytes[bytes.len() - 8..], &TRAILER_MAGIC);
        // Chunk magic right after the file header.
        assert_eq!(&bytes[16..20], &CHUNK_MAGIC.to_le_bytes());
    }

    #[test]
    fn offsets_count_headers_and_payloads() {
        let mut w = StoreWriter::new(Vec::new(), FileKind::Graph).expect("new");
        assert_eq!(w.bytes_written(), 16);
        w.write_chunk(ChunkKind::Vertex, 1, &[9, 0, 0, 0]).expect("chunk");
        assert_eq!(w.bytes_written(), 16 + 28 + 4);
    }
}
