//! The write path in one picture: **record schema → re-chunker → layout**.
//!
//! Producers push records in whatever granularity they emit them.
//! [`StoreSink`] stages them column by column under the record's schema
//! ([`Record`]) and cuts fixed-size chunks, so file bytes depend only on the
//! record stream — a generator pushing edge-by-edge and one pushing
//! 8192-edge batches produce byte-identical files. Each finished chunk goes
//! to a [`Layout`], which decides where it lands: inline on any `Write`
//! ([`StoreWriter`]), on per-shard writer threads
//! ([`ShardedLayout`](crate::shard::ShardedLayout)), or on synchronously
//! written files with checkpoint barriers
//! ([`CheckpointedLayout`](crate::checkpoint::CheckpointedLayout)).

use crate::codec::Compression;
use crate::format::{chunk_schema, ChunkKind, FileKind, Record, StoreError};
use crate::write::StoreWriter;
use csb_graph::graph::VertexId;
use csb_graph::{EdgeProperties, NetflowGraph};
use csb_net::flow::FlowRecord;
use csb_net::LabeledFlow;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Records per store chunk (64 Ki): ~3.4 MB edge chunks, small enough to
/// buffer, large enough that header overhead vanishes.
pub const CHUNK_RECORDS: usize = 65_536;

/// Receives a property graph as a stream of vertex and edge batches.
pub trait EdgeSink {
    /// Appends vertices (ids are assigned densely in push order).
    fn push_vertices(&mut self, ips: &[u32]) -> Result<(), StoreError>;
    /// Appends edges; the three slices must be equally long.
    fn push_edges(
        &mut self,
        src: &[u32],
        dst: &[u32],
        props: &[EdgeProperties],
    ) -> Result<(), StoreError>;

    /// Vertices already durable from a resumed checkpoint; the sink silently
    /// drops this many re-pushed vertices. Zero for fresh sinks.
    fn resume_skip_vertices(&self) -> u64 {
        0
    }

    /// Edges already durable from a resumed checkpoint. A generator may skip
    /// regenerating any chunk of records that falls entirely below this mark
    /// (the sink drops the re-pushed prefix of a partially durable chunk).
    fn resume_skip_edges(&self) -> u64 {
        0
    }

    /// Tells the sink the producer omitted the first `n` edges of the stream
    /// because [`EdgeSink::resume_skip_edges`] said they are already durable.
    /// The sink stops expecting them; pushes resume at edge `n`.
    fn note_skipped_edges(&mut self, _n: u64) {}
}

impl<S: EdgeSink + ?Sized> EdgeSink for &mut S {
    fn push_vertices(&mut self, ips: &[u32]) -> Result<(), StoreError> {
        (**self).push_vertices(ips)
    }

    fn push_edges(
        &mut self,
        src: &[u32],
        dst: &[u32],
        props: &[EdgeProperties],
    ) -> Result<(), StoreError> {
        (**self).push_edges(src, dst, props)
    }

    fn resume_skip_vertices(&self) -> u64 {
        (**self).resume_skip_vertices()
    }

    fn resume_skip_edges(&self) -> u64 {
        (**self).resume_skip_edges()
    }

    fn note_skipped_edges(&mut self, n: u64) {
        (**self).note_skipped_edges(n)
    }
}

/// Where finished chunks land. The sink in front of a layout has already
/// re-chunked and raw-encoded the record stream; a layout only places,
/// encodes for storage and writes.
pub trait Layout {
    /// What sealing hands back (the inner writer of an inline store).
    type Sealed;

    /// Stores one chunk of `records` records given its raw column-major
    /// payload.
    fn write_chunk(
        &mut self,
        kind: ChunkKind,
        records: u64,
        raw_payload: Vec<u8>,
    ) -> Result<(), StoreError>;

    /// Seals every file of the layout.
    fn seal(self) -> Result<Self::Sealed, StoreError>;

    /// Records of `kind` a resumed checkpoint already holds durably; the
    /// sink drops that many re-pushed records. Zero for fresh layouts.
    fn durable(&self, _kind: ChunkKind) -> u64 {
        0
    }

    /// The chunk size the sink must cut, given the one it asks for. A
    /// checkpointed layout records it (resume must re-chunk identically) and
    /// a resumed one answers with the manifest's, whatever is asked.
    fn chunk_records(&mut self, requested: usize) -> usize {
        requested
    }
}

impl<W: Write> Layout for StoreWriter<W> {
    type Sealed = W;

    fn write_chunk(
        &mut self,
        kind: ChunkKind,
        records: u64,
        raw_payload: Vec<u8>,
    ) -> Result<(), StoreError> {
        StoreWriter::write_chunk(self, kind, records, &raw_payload)
    }

    fn seal(self) -> Result<W, StoreError> {
        self.finish()
    }
}

/// Column-major staging of one chunk kind: records are appended column by
/// column as they arrive, so a finished chunk's raw payload is the columns
/// concatenated.
#[derive(Debug)]
struct Staging {
    kind: ChunkKind,
    cols: Vec<Vec<u8>>,
    records: usize,
    /// Re-pushed records still to drop because a resumed checkpoint already
    /// holds them.
    skip: u64,
}

impl Staging {
    fn new(kind: ChunkKind, skip: u64) -> Self {
        Staging { kind, cols: vec![Vec::new(); chunk_schema(kind).len()], records: 0, skip }
    }

    fn push<R: Record>(&mut self, records: impl ExactSizeIterator<Item = R> + Clone) {
        self.records += records.len();
        for (c, (col, out)) in chunk_schema(self.kind).iter().zip(&mut self.cols).enumerate() {
            let values = records.clone().map(|r| r.column(c));
            match col.width {
                1 => out.extend(values.map(|v| v as u8)),
                2 => values.for_each(|v| out.extend_from_slice(&(v as u16).to_le_bytes())),
                4 => values.for_each(|v| out.extend_from_slice(&(v as u32).to_le_bytes())),
                _ => values.for_each(|v| out.extend_from_slice(&v.to_le_bytes())),
            }
        }
    }

    /// Empties the staging area, returning the raw payload of its records.
    fn take(&mut self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.records * self.kind.record_width());
        for bytes in &mut self.cols {
            payload.extend_from_slice(bytes);
            bytes.clear();
        }
        self.records = 0;
        payload
    }
}

/// The one store writer: re-chunks any mix of record kinds into fixed-size
/// chunks and hands them to its [`Layout`]. It is an [`EdgeSink`] for graph
/// producers; flow producers call [`StoreSink::push`] directly.
#[derive(Debug)]
pub struct StoreSink<L: Layout> {
    layout: L,
    chunk_records: usize,
    /// One staging area per chunk kind, indexed by [`ChunkKind::code`].
    staged: [Staging; ChunkKind::ALL.len()],
}

impl<L: Layout> StoreSink<L> {
    /// Starts writing through `layout`, picking up where a resumed layout
    /// left off.
    pub fn new(mut layout: L) -> Self {
        let chunk_records = layout.chunk_records(CHUNK_RECORDS);
        let staged = ChunkKind::ALL.map(|kind| Staging::new(kind, layout.durable(kind)));
        StoreSink { layout, chunk_records, staged }
    }

    /// Overrides the chunk size (tests use small chunks to exercise the
    /// multi-chunk paths cheaply). A resumed checkpoint keeps its own.
    pub fn with_chunk_records(mut self, records: usize) -> Self {
        self.chunk_records = self.layout.chunk_records(records.max(1));
        self
    }

    /// Appends records of any kind, emitting every chunk they complete.
    /// Records are staged at most one chunk at a time, so a bulk push holds
    /// no more than a chunk beyond the caller's own copy.
    pub fn push<R: Record>(
        &mut self,
        records: impl ExactSizeIterator<Item = R> + Clone,
    ) -> Result<(), StoreError> {
        let staging = &mut self.staged[R::KIND.code() as usize];
        let skip = staging.skip.min(records.len() as u64);
        staging.skip -= skip;
        let mut done = skip as usize;
        while done < records.len() {
            let piece = (self.chunk_records - staging.records).min(records.len() - done);
            staging.push(records.clone().skip(done).take(piece));
            done += piece;
            if staging.records == self.chunk_records {
                self.layout.write_chunk(R::KIND, staging.records as u64, staging.take())?;
            }
        }
        Ok(())
    }

    /// Flushes the partial chunks (vertices first) and seals the layout.
    pub fn finish(mut self) -> Result<L::Sealed, StoreError> {
        for staging in &mut self.staged {
            if staging.records > 0 {
                self.layout.write_chunk(staging.kind, staging.records as u64, staging.take())?;
            }
        }
        self.layout.seal()
    }
}

impl<L: Layout> EdgeSink for StoreSink<L> {
    fn push_vertices(&mut self, ips: &[u32]) -> Result<(), StoreError> {
        self.push(ips.iter().copied())
    }

    fn push_edges(
        &mut self,
        src: &[u32],
        dst: &[u32],
        props: &[EdgeProperties],
    ) -> Result<(), StoreError> {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        assert_eq!(src.len(), props.len(), "props length mismatch");
        self.push(src.iter().zip(dst).zip(props).map(|((&s, &d), &p)| (s, d, p)))
    }

    fn resume_skip_vertices(&self) -> u64 {
        self.staged[ChunkKind::Vertex.code() as usize].skip
    }

    fn resume_skip_edges(&self) -> u64 {
        self.staged[ChunkKind::Edge.code() as usize].skip
    }

    fn note_skipped_edges(&mut self, n: u64) {
        let skip = &mut self.staged[ChunkKind::Edge.code() as usize].skip;
        assert!(n <= *skip, "producer skipped {n} edges but only {skip} are durable");
        *skip -= n;
    }
}

/// An [`EdgeSink`] accumulating in memory — the reference target the store
/// sinks are tested against, and the adapter that lets streaming generators
/// serve callers who want a [`NetflowGraph`].
#[derive(Debug, Default)]
pub struct MemoryGraphSink {
    ips: Vec<u32>,
    src: Vec<VertexId>,
    dst: Vec<VertexId>,
    props: Vec<EdgeProperties>,
}

impl MemoryGraphSink {
    /// An empty sink.
    pub fn new() -> Self {
        MemoryGraphSink::default()
    }

    /// Builds the graph via the bulk constructor.
    ///
    /// # Panics
    /// Panics if any pushed edge references a vertex that was never pushed.
    pub fn into_graph(self) -> NetflowGraph {
        NetflowGraph::from_parts(self.ips, self.src, self.dst, self.props)
    }
}

impl EdgeSink for MemoryGraphSink {
    fn push_vertices(&mut self, ips: &[u32]) -> Result<(), StoreError> {
        self.ips.extend_from_slice(ips);
        Ok(())
    }

    fn push_edges(
        &mut self,
        src: &[u32],
        dst: &[u32],
        props: &[EdgeProperties],
    ) -> Result<(), StoreError> {
        self.src.extend(src.iter().map(|&s| VertexId(s)));
        self.dst.extend(dst.iter().map(|&d| VertexId(d)));
        self.props.extend_from_slice(props);
        Ok(())
    }
}

/// Writes `g` as a graph store file at `path`.
pub fn save_graph(path: impl AsRef<Path>, g: &NetflowGraph) -> Result<(), StoreError> {
    save_graph_to(BufWriter::new(File::create(path)?), g)?;
    Ok(())
}

/// Writes `g` as a graph store stream on `w`, returning the writer.
pub fn save_graph_to<W: Write>(w: W, g: &NetflowGraph) -> Result<W, StoreError> {
    let mut sink = StoreSink::new(StoreWriter::new(w, FileKind::Graph)?);
    push_graph(&mut sink, g)?;
    sink.finish()
}

/// Streams an in-memory graph into any [`EdgeSink`].
pub fn push_graph(sink: &mut impl EdgeSink, g: &NetflowGraph) -> Result<(), StoreError> {
    sink.push_vertices(g.vertex_data())?;
    let src: Vec<u32> = g.edge_sources().iter().map(|v| v.0).collect();
    let dst: Vec<u32> = g.edge_targets().iter().map(|v| v.0).collect();
    sink.push_edges(&src, &dst, g.edge_data())
}

/// Loads the graph store at `path` — a plain store file or a shard-set
/// manifest, told apart by magic.
pub fn load_graph(path: impl AsRef<Path>) -> Result<NetflowGraph, StoreError> {
    crate::read::load_graph_from(&mut crate::shard::open_readers(path)?)
}

/// Writes `flows` as an uncompressed (v1) flow store file at `path`.
pub fn save_flows(path: impl AsRef<Path>, flows: &[FlowRecord]) -> Result<(), StoreError> {
    let mut sink = StoreSink::new(StoreWriter::create(path, FileKind::Flows)?);
    sink.push(flows.iter().copied())?;
    sink.finish()?;
    Ok(())
}

/// Loads the flow store at `path` — a plain store file or a shard-set
/// manifest, told apart by magic. Labels, if present, are dropped.
pub fn load_flows(path: impl AsRef<Path>) -> Result<Vec<FlowRecord>, StoreError> {
    Ok(load_labeled_flows(path)?.into_iter().map(|l| l.flow).collect())
}

/// Writes labeled flows as a flow store file at `path` with the given
/// compression. The file is a regular flow store (`FileKind::Flows`) whose
/// chunks carry the labeled schema, so unlabeled readers still load it.
pub fn save_labeled_flows(
    path: impl AsRef<Path>,
    flows: &[LabeledFlow],
    compression: Compression,
) -> Result<(), StoreError> {
    let writer = StoreWriter::create_with(path, FileKind::Flows, compression.version())?;
    let mut sink = StoreSink::new(writer);
    sink.push(flows.iter().copied())?;
    sink.finish()?;
    Ok(())
}

/// Loads the labeled flow store at `path` — a plain store file or a
/// shard-set manifest. Plain v1 flow stores load as all-benign.
pub fn load_labeled_flows(path: impl AsRef<Path>) -> Result<Vec<LabeledFlow>, StoreError> {
    crate::read::load_labeled_flows_from(&mut crate::shard::open_readers(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records what a sink hands its layout; claims `durable` records of
    /// every kind are already held, as a resumed checkpoint would.
    #[derive(Default)]
    struct Recording {
        chunks: Vec<(ChunkKind, u64, Vec<u8>)>,
        durable: u64,
    }

    impl Layout for Recording {
        type Sealed = Vec<(ChunkKind, u64, Vec<u8>)>;

        fn write_chunk(&mut self, kind: ChunkKind, n: u64, raw: Vec<u8>) -> Result<(), StoreError> {
            self.chunks.push((kind, n, raw));
            Ok(())
        }

        fn seal(self) -> Result<Self::Sealed, StoreError> {
            Ok(self.chunks)
        }

        fn durable(&self, _kind: ChunkKind) -> u64 {
            self.durable
        }
    }

    #[test]
    fn chunks_depend_on_the_stream_not_on_the_push_sizes() {
        let ips: Vec<u32> = (0..23).collect();
        let props = vec![EdgeProperties::placeholder(); 23];
        let written = |batch: usize| {
            let mut sink = StoreSink::new(Recording::default()).with_chunk_records(5);
            // Edges first: finish still flushes the vertex tail before theirs.
            for i in (0..23).step_by(batch) {
                let j = (i + batch).min(23);
                sink.push_edges(&ips[i..j], &ips[i..j], &props[i..j]).expect("edges");
                sink.push_vertices(&ips[i..j]).expect("vertices");
            }
            sink.finish().expect("seal")
        };
        let bulk = written(23);
        let shape: Vec<_> = bulk.iter().map(|(kind, n, raw)| (*kind, *n, raw.len())).collect();
        let (v, e) = (ChunkKind::Vertex, ChunkKind::Edge);
        let full = [(e, 5, 270), (e, 5, 270), (e, 5, 270), (e, 5, 270)];
        let mut want = full.to_vec();
        want.extend([(v, 5, 20); 4]);
        want.extend([(v, 3, 12), (e, 3, 162)]);
        assert_eq!(shape, want);
        assert_eq!(bulk[4].2[..8], [0, 0, 0, 0, 1, 0, 0, 0], "little-endian, record order");
        // One record at a time interleaves the kinds differently, but each
        // kind's chunks are the same.
        let of = |chunks: &[(ChunkKind, u64, Vec<u8>)], kind| {
            chunks.iter().filter(|c| c.0 == kind).cloned().collect::<Vec<_>>()
        };
        let single = written(1);
        assert_eq!(of(&single, v), of(&bulk, v));
        assert_eq!(of(&single, e), of(&bulk, e));
    }

    #[test]
    fn records_a_resumed_layout_holds_are_dropped_once() {
        let mut sink =
            StoreSink::new(Recording { durable: 7, ..Default::default() }).with_chunk_records(4);
        assert_eq!((sink.resume_skip_vertices(), sink.resume_skip_edges()), (7, 7));
        let ips: Vec<u32> = (0..10).collect();
        sink.push_vertices(&ips[..3]).expect("all three are durable");
        assert_eq!(sink.resume_skip_vertices(), 4);
        sink.push_vertices(&ips[3..]).expect("four more are durable, three are new");
        assert_eq!(sink.resume_skip_vertices(), 0);
        // The producer regenerates edges from 4 on; the sink drops 4, 5, 6.
        sink.note_skipped_edges(4);
        let props = vec![EdgeProperties::placeholder(); 6];
        sink.push_edges(&ips[4..], &ips[4..], &props).expect("edges");
        let chunks = sink.finish().expect("seal");
        let ids = |raw: &[u8]| raw.chunks(4).map(|b| b[0]).collect::<Vec<_>>();
        assert_eq!(chunks.len(), 2);
        assert_eq!(ids(&chunks[0].2), [7, 8, 9]);
        assert_eq!(ids(&chunks[1].2[..12]), [7, 8, 9], "edge sources 7..10 survive");
    }
}
