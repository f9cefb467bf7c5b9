//! Out-of-core scanning: serves a sealed graph store file to the streaming
//! kernels of `csb_graph::ooc` without ever materializing the graph.
//!
//! [`StoreScan`] implements [`EdgeScan`] over a [`StoreReader`], projecting
//! the `SRC`+`DST` columns of each edge chunk with a **single** disk read
//! per chunk per pass via [`StoreReader::fetch_columns`], and O(chunk)
//! decoded at a time. Because chunk iteration follows the footer index, the
//! edge stream replays the exact record order of
//! [`StoreReader::load_graph`], which is what makes
//! `pagerank_ooc(StoreScan)` bit-identical to `pagerank(load_graph())`.
//!
//! Iterative kernels (PageRank) re-scan the same edge stream dozens of
//! times. The scan keeps each chunk's *decoded, narrowed* endpoint columns
//! in a budgeted in-memory cache ([`StoreScan::with_cache_budget`]): a pass
//! whose chunks are resident reads zero disk bytes and runs zero codec
//! work — the kernel callback borrows the cached `u32` slices directly, so
//! warm passes cost what an in-memory scan costs (8 bytes per edge of
//! cache). The `ooc.bytes_read` counter therefore counts **bytes fetched
//! from disk**, not bytes delivered to the kernel; the resident cache size
//! is reported in the `ooc.cache_bytes` gauge.
//!
//! Endpoints are validated against the vertex count as each chunk is
//! decoded, so corrupt files surface as [`CsbError::Corrupt`] instead of a
//! kernel panic.
//!
//! [`CsbError::Corrupt`]: crate::error::CsbError

use crate::format::{corrupt, ChunkKind, FileKind, StoreError};
use crate::read::StoreReader;
use csb_graph::ooc::EdgeScan;
use std::fs::File;
use std::io::{BufReader, Read, Seek};
use std::path::Path;

/// Default endpoint cache budget: 256 MiB of decoded endpoints (8 bytes per
/// edge, so ~32M edges resident). Pass 0 to
/// [`StoreScan::with_cache_budget`] for pure streaming.
pub const DEFAULT_CACHE_BUDGET: u64 = 256 << 20;

/// Decoded, narrowed `(src, dst)` endpoint columns of one edge chunk.
type Endpoints = (Vec<u32>, Vec<u32>);

/// [`EdgeScan`] over a sealed graph store file.
#[derive(Debug)]
pub struct StoreScan<R: Read + Seek> {
    reader: StoreReader<R>,
    vertex_count: usize,
    /// Footer indices of the edge chunks, in file order.
    edge_chunks: Vec<usize>,
    max_chunk_records: u64,
    /// Cached decoded `(src, dst)` endpoint columns, indexed like
    /// `edge_chunks`.
    cache: Vec<Option<Endpoints>>,
    cache_budget: u64,
    cache_used: u64,
}

impl StoreScan<BufReader<File>> {
    /// Opens the graph store at `path` for scanning.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        StoreScan::new(StoreReader::open(path)?)
    }
}

impl<R: Read + Seek> StoreScan<R> {
    /// Wraps an already-open reader. Fails unless the file is a graph store.
    pub fn new(reader: StoreReader<R>) -> Result<Self, StoreError> {
        if reader.kind() != FileKind::Graph {
            return Err(corrupt(12, "not a graph store"));
        }
        let vertex_count = reader.record_count(ChunkKind::Vertex) as usize;
        let mut edge_chunks = Vec::new();
        let mut max_chunk_records = 0;
        for (idx, entry) in reader.chunks().iter().enumerate() {
            match entry.kind {
                ChunkKind::Edge => {
                    edge_chunks.push(idx);
                    max_chunk_records = max_chunk_records.max(entry.records);
                }
                ChunkKind::Vertex => {}
                ChunkKind::Flow | ChunkKind::LabeledFlow => {
                    return Err(corrupt(entry.offset, "flow chunk in a graph store"))
                }
            }
        }
        let cache = (0..edge_chunks.len()).map(|_| None).collect();
        Ok(StoreScan {
            reader,
            vertex_count,
            edge_chunks,
            max_chunk_records,
            cache,
            cache_budget: DEFAULT_CACHE_BUDGET,
            cache_used: 0,
        })
    }

    /// Caps the decoded-endpoint cache at `bytes` (0 disables caching;
    /// every pass then re-reads from disk and re-decodes).
    pub fn with_cache_budget(mut self, bytes: u64) -> Self {
        self.cache_budget = bytes;
        if bytes == 0 {
            self.cache = (0..self.edge_chunks.len()).map(|_| None).collect();
            self.cache_used = 0;
            csb_obs::gauge_set("ooc.cache_bytes", 0);
        }
        self
    }

    /// The wrapped reader (e.g. to load vertex attributes separately).
    pub fn into_reader(self) -> StoreReader<R> {
        self.reader
    }

    /// Edge chunks in this store.
    pub fn edge_chunk_count(&self) -> usize {
        self.edge_chunks.len()
    }

    /// Largest edge chunk, in records.
    pub fn max_chunk_records(&self) -> u64 {
        self.max_chunk_records
    }

    /// Overrides the vertex-id range endpoints are checked against. The
    /// sharded scan puts all vertex chunks on shard 0, so the other shards'
    /// scans must borrow its count.
    pub(crate) fn set_vertex_range(&mut self, vertices: usize) {
        self.vertex_count = vertices;
    }

    /// Fetches and decodes edge chunk `i` (index into the edge chunk list,
    /// not the footer) unless it is already cache-resident. Returns the
    /// decoded pair when it did NOT fit the cache budget (the transient
    /// case); returns `None` when the chunk is now resident in
    /// `self.cache[i]`. One disk read per call on a miss, counted into
    /// `ooc.bytes_read`.
    fn load_chunk(&mut self, i: usize) -> Result<Option<Endpoints>, StoreError> {
        if self.cache[i].is_some() {
            return Ok(None);
        }
        let idx = self.edge_chunks[i];
        let offset = self.reader.chunks()[idx].offset;
        let fetched = self.reader.fetch_columns(idx, &["SRC", "DST"])?;
        csb_obs::counter_add("ooc.bytes_read", fetched.stored_len() as u64);
        let src = narrow_endpoints(fetched.decode(0)?, self.vertex_count, offset)?;
        let dst = narrow_endpoints(fetched.decode(1)?, self.vertex_count, offset)?;
        let cost = 4 * (src.len() + dst.len()) as u64;
        if self.cache_used + cost <= self.cache_budget {
            self.cache_used += cost;
            csb_obs::gauge_set("ooc.cache_bytes", self.cache_used as i64);
            self.cache[i] = Some((src, dst));
            Ok(None)
        } else {
            Ok(Some((src, dst)))
        }
    }

    /// Runs `f` over the endpoint columns of edge chunk `i`, decoded,
    /// narrowed back to the `u32` vertex ids the kernels consume, and
    /// range-checked against the vertex count. A cache-resident chunk is
    /// borrowed in place — zero reads, zero decode, zero copies.
    pub fn with_endpoints(
        &mut self,
        i: usize,
        f: &mut dyn FnMut(&[u32], &[u32]),
    ) -> Result<(), StoreError> {
        match self.load_chunk(i)? {
            Some((src, dst)) => f(&src, &dst),
            None => {
                let (src, dst) = self.cache[i].as_ref().expect("resident");
                f(src, dst);
            }
        }
        Ok(())
    }

    /// Owned-copy variant of [`StoreScan::with_endpoints`] (cache-resident
    /// chunks are cloned); the streaming kernels use the borrowing path.
    pub fn endpoint_chunk(&mut self, i: usize) -> Result<(Vec<u32>, Vec<u32>), StoreError> {
        match self.load_chunk(i)? {
            Some(pair) => Ok(pair),
            None => Ok(self.cache[i].clone().expect("resident")),
        }
    }
}

fn narrow_endpoints(wide: Vec<u64>, vertices: usize, offset: u64) -> Result<Vec<u32>, StoreError> {
    let n = vertices as u64;
    wide.into_iter()
        .map(|v| {
            if v < n {
                Ok(v as u32)
            } else {
                Err(corrupt(offset, format!("edge endpoint {v} out of vertex range {n}")))
            }
        })
        .collect()
}

impl<R: Read + Seek> EdgeScan for StoreScan<R> {
    type Error = StoreError;

    fn vertex_count(&mut self) -> Result<usize, StoreError> {
        Ok(self.vertex_count)
    }

    fn edge_count(&mut self) -> Result<u64, StoreError> {
        Ok(self.reader.record_count(ChunkKind::Edge))
    }

    fn scan_edges(&mut self, f: &mut dyn FnMut(&[u32], &[u32])) -> Result<(), StoreError> {
        for i in 0..self.edge_chunks.len() {
            self.with_endpoints(i, f)?;
        }
        Ok(())
    }

    fn scan_sources(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), StoreError> {
        for i in 0..self.edge_chunks.len() {
            self.with_endpoints(i, &mut |src, _| f(src))?;
        }
        Ok(())
    }

    fn scan_targets(&mut self, f: &mut dyn FnMut(&[u32])) -> Result<(), StoreError> {
        for i in 0..self.edge_chunks.len() {
            self.with_endpoints(i, &mut |_, dst| f(dst))?;
        }
        Ok(())
    }

    /// Per-batch buffer bound: two endpoint columns, each transiently held
    /// widened (`u64`) and narrowed (`u32`), over the largest chunk. The
    /// endpoint cache is bounded separately by its own budget and is
    /// excluded here — it is a reuse buffer, not per-batch scratch.
    fn scratch_bytes(&self) -> u64 {
        2 * (8 + 4) * self.max_chunk_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{push_graph, StoreSink};
    use crate::write::StoreWriter;
    use csb_graph::algo::pagerank::{pagerank, PageRankConfig};
    use csb_graph::ooc::{degree_counts_ooc, pagerank_ooc, GraphScan};
    use csb_graph::{EdgeProperties, NetflowGraph, VertexId};
    use std::io::Cursor;

    fn sample_graph(n: u32, edges: &[(u32, u32)]) -> NetflowGraph {
        let mut g = NetflowGraph::new();
        let vs: Vec<VertexId> = (0..n).map(|i| g.add_vertex(0x0a00_0000 | i)).collect();
        for &(s, d) in edges {
            g.add_edge(vs[s as usize], vs[d as usize], EdgeProperties::placeholder());
        }
        g
    }

    fn store_bytes(g: &NetflowGraph, chunk_records: usize) -> Vec<u8> {
        let writer = StoreWriter::new(Vec::new(), FileKind::Graph).expect("writer");
        let mut sink = StoreSink::new(writer).with_chunk_records(chunk_records);
        push_graph(&mut sink, g).expect("push");
        sink.finish().expect("seal")
    }

    fn scan_of(bytes: Vec<u8>) -> StoreScan<Cursor<Vec<u8>>> {
        StoreScan::new(StoreReader::new(Cursor::new(bytes)).expect("reader")).expect("scan")
    }

    #[test]
    fn store_scan_matches_graph_scan() {
        let g = sample_graph(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (0, 5), (0, 5)]);
        for chunk in [1usize, 2, 3, 100] {
            let mut scan = scan_of(store_bytes(&g, chunk));
            assert_eq!(scan.vertex_count().unwrap(), 6);
            assert_eq!(scan.edge_count().unwrap(), 7);
            let from_store = degree_counts_ooc(&mut scan).unwrap();
            let from_mem = degree_counts_ooc(&mut GraphScan::of(&g)).unwrap();
            assert_eq!(from_store, from_mem, "chunk_records {chunk}");
        }
    }

    #[test]
    fn store_pagerank_bit_identical_to_in_memory() {
        let g = sample_graph(
            9,
            &[(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (5, 6), (7, 7), (8, 0), (0, 8)],
        );
        let cfg = PageRankConfig::default();
        let mem = pagerank(&g, &cfg);
        for chunk in [1usize, 3, 4, 64] {
            let mut scan = scan_of(store_bytes(&g, chunk));
            let ooc = pagerank_ooc(&mut scan, &cfg).unwrap();
            for (a, b) in mem.iter().zip(ooc.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "chunk_records {chunk}");
            }
        }
    }

    #[test]
    fn out_of_range_endpoint_is_corrupt_not_panic() {
        // Build a valid 2-vertex store, then shrink the vertex set by
        // rebuilding the scan over a store whose edges point past it.
        let g = sample_graph(3, &[(0, 2), (2, 1)]);
        let bytes = store_bytes(&g, 100);
        let reader = StoreReader::new(Cursor::new(bytes)).expect("reader");
        let mut scan = StoreScan::new(reader).expect("scan");
        scan.vertex_count = 2; // pretend the store only declared 2 vertices
        let err = pagerank_ooc(&mut scan, &PageRankConfig::default());
        assert!(err.is_err(), "expected corrupt error");
    }

    #[test]
    fn flow_store_is_rejected() {
        let bytes =
            StoreWriter::new(Vec::new(), FileKind::Flows).expect("writer").finish().expect("seal");
        let reader = StoreReader::new(Cursor::new(bytes)).expect("reader");
        assert!(StoreScan::new(reader).is_err());
    }
}
